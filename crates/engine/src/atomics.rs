//! Atomic helpers mirroring the CUDA atomics the paper's functors use:
//! `atomicMin` (SSSP relaxation), `atomicOr` (discovery) and the claims,
//! each under an [`Access`], `atomicAdd` on floats (BC accumulation), and
//! conversions between atomic and plain vectors.
//!
//! Orderings are `Relaxed` throughout: every Gunrock step ends at a
//! bulk-synchronous barrier (the end of a `par` launch), which provides the
//! necessary happens-before edges between steps; within a step, the
//! algorithms tolerate races by construction (monotonic min/add).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Who writes the cells a functor updates while one launch runs: a token
/// from the operator, which knows how many threads run it. A write is a
/// read-modify-write under [`Shared`] and a Relaxed store under [`Sole`]
/// (a locked RMW drains the store buffer: a sole writer would lose the
/// memory-level parallelism a plain loop keeps); the answers and cells
/// are the same. All but `fetch_or_u64` load first and return when the
/// update cannot change the cell (Ligra's `writeMin`).
pub trait Access: Copy + Send + Sync {
    /// Whether writes are plain stores.
    const SOLE: bool;

    /// Lowers `cell` to `min(cell, value)`, returning true if this call
    /// strictly lowered it — the paper's `new_label < atomicMin(...)`
    /// idiom in `UpdateLabel` (Algorithm 1).
    #[must_use = "whether this call won the relaxation (a frontier insertion)"]
    #[inline]
    fn fetch_min_u32(self, cell: &AtomicU32, value: u32) -> bool {
        // ORDERING: Relaxed — the cell only decreases, so a stale load is
        // too high, never skipping a win; the RMW decides a race, the sole
        // writer's store has none. The join barrier orders phases.
        if cell.load(Ordering::Relaxed) <= value {
            false
        } else if Self::SOLE {
            cell.store(value, Ordering::Relaxed);
            true
        } else {
            cell.fetch_min(value, Ordering::Relaxed) > value
        }
    }

    /// ORs `bits` into `word`, returning the previous word.
    #[inline]
    fn fetch_or_u64(self, word: &AtomicU64, bits: u64) -> u64 {
        // ORDERING: Relaxed — the RMW needs only atomicity (no lost bit), the
        // sole writer's load and store none. The join barrier orders phases.
        if Self::SOLE {
            let old = word.load(Ordering::Relaxed);
            word.store(old | bits, Ordering::Relaxed);
            old
        } else {
            word.fetch_or(bits, Ordering::Relaxed)
        }
    }

    /// Sets the `mask` bit of `word`, returning whether it was already
    /// set — the GPU's `atomicOr` returning the old bit, under a bitmap's
    /// `test_and_set`.
    #[inline]
    fn test_and_set(self, word: &AtomicU64, mask: u64) -> bool {
        // ORDERING: Relaxed — bits are only set during a launch: a load that
        // sees the bit is the answer, one that misses it falls to the OR.
        let set = |old: u64| old & mask != 0;
        set(word.load(Ordering::Relaxed)) || set(self.fetch_or_u64(word, mask))
    }

    /// Sets `cell` to `id`, returning true if it held another value: of
    /// the claims one launch makes with one id, one wins each cell.
    #[inline]
    fn swap_claim(self, cell: &AtomicU32, id: u32) -> bool {
        // ORDERING: Relaxed — a launch claims with one id, so a load seeing
        // it is the swap's loss; else the swap decides a race, or the sole
        // writer stores. The claim publishes no other data.
        if cell.load(Ordering::Relaxed) == id {
            false
        } else if Self::SOLE {
            cell.store(id, Ordering::Relaxed);
            true
        } else {
            cell.swap(id, Ordering::Relaxed) != id
        }
    }

    /// Moves `cell` from `current` to `new`, with `compare_exchange`'s
    /// result: `Ok(current)`, or `Err` with the value found.
    #[inline]
    fn cas_claim(self, cell: &AtomicU32, current: u32, new: u32) -> Result<u32, u32> {
        // ORDERING: Relaxed — cas-loop step: a claimed cell never returns to
        // `current`, so a load missing it is the exchange's failure; else
        // the exchange decides a race, or the sole writer stores.
        let seen = cell.load(Ordering::Relaxed);
        if seen != current {
            Err(seen)
        } else if Self::SOLE {
            cell.store(new, Ordering::Relaxed);
            Ok(seen)
        } else {
            cell.compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
        }
    }
}

/// Writes as read-modify-writes, for tasks that may race on a cell.
#[derive(Clone, Copy, Debug)]
pub struct Shared;

/// Writes as Relaxed stores, for a launch on one thread that owns its
/// functor's state.
#[derive(Clone, Copy, Debug)]
pub struct Sole;

impl Access for Shared {
    const SOLE: bool = false;
}

impl Access for Sole {
    const SOLE: bool = true;
}

/// Root of `v`'s tree in a lock-free parent forest (`parent[x] <= x`,
/// equality exactly at a root). With [`link`] this is the union-find the
/// connected-components primitive runs on: every pointer only ever moves
/// to a smaller id of the same tree, so a tree's root is its minimum id.
#[inline]
pub fn root(parent: &[AtomicU32], mut v: u32) -> u32 {
    loop {
        // ORDERING: Relaxed — relaxed-load of a monotone pointer: whatever
        // value a racing reader sees was an ancestor-or-self of `v` when it
        // was written and still is, so the walk only ever climbs.
        let p = parent[v as usize].load(Ordering::Relaxed);
        if p == v {
            return v;
        }
        v = p;
    }
}

/// Merges the trees of `u` and `v` by hooking the larger root under the
/// smaller; returns true if this call merged two trees.
#[inline]
pub fn link(access: impl Access, parent: &[AtomicU32], u: u32, v: u32) -> bool {
    let (mut a, mut b) = (root(parent, u), root(parent, v));
    while a != b {
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        // the claim succeeds only while `hi` is a root: each tree is hooked
        // once, under a smaller id; on failure both roots are re-found
        match access.cas_claim(&parent[hi as usize], hi, lo) {
            Ok(_) => return true,
            Err(above) => (a, b) = (root(parent, above), root(parent, lo)),
        }
    }
    false
}

/// An `f64` cell supporting atomic add via CAS on the bit pattern.
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a cell holding `v`.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Stores `v`.
    #[inline]
    pub fn store(&self, v: f64) {
        // ORDERING: Relaxed is only sound here because callers store
        // outside the parallel accumulation phase (initialization or
        // post-barrier normalization). A store that raced a same-phase
        // fetch_add could silently drop that add's contribution — the
        // store is NOT a read-modify-write, so it does not compose with
        // concurrent CAS loops. The bulk-synchronous barrier between
        // phases provides the required happens-before.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta`, returning the previous value.
    #[must_use = "fetch_add returns the pre-add value; discard it explicitly \
                  with `let _ =` if only the side effect is wanted"]
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Allocates a vector of `AtomicU32` initialized to `init`.
pub fn atomic_u32_vec(len: usize, init: u32) -> Vec<AtomicU32> {
    (0..len).map(|_| AtomicU32::new(init)).collect()
}

/// Snapshots a slice of atomics into plain values.
pub fn unwrap_atomic_u32(slice: &[AtomicU32]) -> Vec<u32> {
    slice.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Unwraps a vector of atomics into plain values, reusing its allocation
/// (same layout, so the collect is in place): what a primitive returns
/// its atomic working array through, without a second `len`-sized buffer.
pub fn into_plain_u32(cells: Vec<AtomicU32>) -> Vec<u32> {
    cells.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;

    #[test]
    fn fetch_min_reports_strict_improvement() {
        let cell = AtomicU32::new(10);
        assert!(Shared.fetch_min_u32(&cell, 5));
        assert!(!Shared.fetch_min_u32(&cell, 5)); // equal: not an improvement
        assert!(!Shared.fetch_min_u32(&cell, 7));
        assert_eq!(cell.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_fetch_min_converges_to_global_min() {
        let cell = AtomicU32::new(u32::MAX);
        par::for_each(0..10_000u32, |i| {
            let _ = Shared.fetch_min_u32(&cell, 10_000 - i);
        });
        assert_eq!(cell.load(Ordering::Relaxed), 1);
    }

    /// Runs one fixed sequence of every op against four cells, returning
    /// each op's answer and the cells it leaves.
    fn op_sequence(a: impl Access) -> (Vec<u64>, [u64; 4]) {
        let (min, word) = (AtomicU32::new(40), AtomicU64::new(0b100));
        let (tag, claim) = (AtomicU32::new(u32::MAX), AtomicU32::new(7));
        let mut answers = Vec::new();
        for v in [50, 40, 12, 12, 0] {
            answers.push(u64::from(a.fetch_min_u32(&min, v)));
        }
        for mask in [0b100, 0b1, 0b1, 1 << 63] {
            answers.push(u64::from(a.test_and_set(&word, mask)));
        }
        for bits in [0b11, 0b110, 0] {
            answers.push(a.fetch_or_u64(&word, bits));
        }
        for id in [3, 3, 4, 3] {
            answers.push(u64::from(a.swap_claim(&tag, id)));
        }
        for (current, new) in [(7, 2), (7, 5), (2, 9), (9, 9)] {
            let r = a.cas_claim(&claim, current, new);
            answers.push((u64::from(r.is_ok()) << 32) | u64::from(r.unwrap_or_else(|e| e)));
        }
        let load32 = |c: &AtomicU32| u64::from(c.load(Ordering::Relaxed));
        let cells = [load32(&min), word.load(Ordering::Relaxed), load32(&tag), load32(&claim)];
        (answers, cells)
    }

    #[test]
    fn sole_and_shared_give_the_same_answers_and_cells() {
        let (answers, cells) = op_sequence(Shared);
        assert_eq!(op_sequence(Sole), (answers.clone(), cells));
        // fetch_min: above, equal, lower, equal, lower
        assert_eq!(answers[..5], [0, 0, 1, 0, 1]);
        // test_and_set: set, clear, now set, clear
        assert_eq!(answers[5..9], [1, 0, 1, 0]);
        // fetch_or returns the word before each OR
        let top = 1 << 63;
        assert_eq!(answers[9..12], [0b101 | top, 0b111 | top, 0b111 | top]);
        // swap claims: each id wins once per change
        assert_eq!(answers[12..16], [1, 0, 1, 1]);
        // cas claims: won from 7, lost to 2, won from 2, won 9 -> 9
        let won = 1 << 32;
        assert_eq!(answers[16..], [won | 7, 2, won | 2, won | 9]);
        assert_eq!(cells, [0, 0b111 | top, 3, 9]);
    }

    #[test]
    fn racing_links_reach_one_minimum_root() {
        // two real threads hook the same 64-vertex forest from opposite
        // ends (small enough for the Miri job): every CAS either wins or
        // re-finds, and the surviving root is the minimum id
        let parent: Vec<AtomicU32> = (0..64).map(AtomicU32::new).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for v in 1..64 {
                    link(Shared, &parent, v - 1, v);
                }
            });
            s.spawn(|| {
                start.wait();
                for v in (1..64).rev() {
                    link(Shared, &parent, v, (v * 7) % 64);
                }
            });
        });
        for v in 0..64 {
            assert!(parent[v as usize].load(Ordering::Relaxed) <= v, "pointers only decrease");
            assert_eq!(root(&parent, v), 0);
        }
        assert!(!link(Shared, &parent, 5, 60), "already one tree");
        let single: Vec<AtomicU32> = (0..64).map(AtomicU32::new).collect();
        for v in 1..64 {
            link(Sole, &single, v, v - 1);
        }
        assert!((0..64).all(|v| root(&single, v) == 0), "one writer reaches the same root");
    }

    #[test]
    fn atomic_f64_concurrent_adds_sum_exactly() {
        // powers of two add exactly in f64
        let acc = AtomicF64::new(0.0);
        par::for_each(0..4096, |_| {
            let _ = acc.fetch_add(0.25);
        });
        assert_eq!(acc.load(), 1024.0);
    }

    #[test]
    fn atomic_f64_add_and_store() {
        let acc = AtomicF64::new(1.5);
        assert_eq!(acc.fetch_add(2.5), 1.5);
        assert_eq!(acc.load(), 4.0);
        acc.store(-1.0);
        assert_eq!(acc.load(), -1.0);
    }

    #[test]
    fn vec_helpers() {
        let v = atomic_u32_vec(3, 42);
        assert_eq!(unwrap_atomic_u32(&v), vec![42, 42, 42]);
        let storage = v.as_ptr() as usize;
        let plain = into_plain_u32(v);
        assert_eq!((plain.as_ptr() as usize, &plain[..]), (storage, &[42, 42, 42][..]));
    }
}
