//! Atomic helpers mirroring the CUDA atomics the paper's functors use:
//! `atomicMin` (SSSP relaxation), `atomicAdd` on floats (PageRank and BC
//! accumulation), and conversions between atomic and plain vectors.
//!
//! Orderings are `Relaxed` throughout: every Gunrock step ends at a
//! bulk-synchronous barrier (the end of a `par` launch), which provides the
//! necessary happens-before edges between steps; within a step, the
//! algorithms tolerate races by construction (monotonic min/add).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically lowers `cell` to `min(cell, value)`, returning true if this
/// call strictly lowered the stored value — the paper's
/// `new_label < atomicMin(...)` idiom in `UpdateLabel` (Algorithm 1).
///
/// A plain load runs first and the read-modify-write is skipped when it
/// cannot win (Ligra's `writeMin`): most relaxations lose, and a losing
/// one then costs a load instead of a locked compare-exchange loop.
#[must_use = "the return value says whether this call won the relaxation; \
              ignoring it usually means a lost frontier insertion"]
#[inline]
pub fn fetch_min_u32(cell: &AtomicU32, value: u32) -> bool {
    // ORDERING: Relaxed — the cell only ever decreases, so a stale load can
    // only be too high: it never skips a winning update, and the RMW below
    // decides the race exactly as it would without the pre-check.
    cell.load(Ordering::Relaxed) > value && cell.fetch_min(value, Ordering::Relaxed) > value
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
pub fn link(parent: &[AtomicU32], u: u32, v: u32) -> bool {
    let (mut a, mut b) = (root(parent, u), root(parent, v));
    while a != b {
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        // ORDERING: Relaxed — cas-loop on a monotone pointer: the exchange
        // succeeds only while `hi` is still a root, so each tree is hooked
        // exactly once, always under a smaller id (no cycle can form); on
        // failure another thread hooked `hi` first and both roots are
        // re-found. The pointer publishes no other data, and the join
        // barrier ending the pass orders the forest for the next one.
        match parent[hi as usize].compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
        {
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
        assert!(fetch_min_u32(&cell, 5));
        assert!(!fetch_min_u32(&cell, 5)); // equal: not an improvement
        assert!(!fetch_min_u32(&cell, 7));
        assert_eq!(cell.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_fetch_min_converges_to_global_min() {
        let cell = AtomicU32::new(u32::MAX);
        par::for_each(0..10_000u32, |i| {
            let _ = fetch_min_u32(&cell, 10_000 - i);
        });
        assert_eq!(cell.load(Ordering::Relaxed), 1);
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
                    link(&parent, v - 1, v);
                }
            });
            s.spawn(|| {
                start.wait();
                for v in (1..64).rev() {
                    link(&parent, v, (v * 7) % 64);
                }
            });
        });
        for v in 0..64 {
            assert!(parent[v as usize].load(Ordering::Relaxed) <= v, "pointers only decrease");
            assert_eq!(root(&parent, v), 0);
        }
        assert!(!link(&parent, 5, 60), "already one tree");
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
