//! Lane-packed multi-source frontier storage (MS-BFS, PAPERS.md).
//!
//! The frontier abstraction amortizes one sweep over many vertices; lane
//! packing amortizes one sweep over many *traversals*. Up to [`LANES`]
//! independent source queries share a single traversal: each vertex `v`
//! carries one `u64` word whose bit `l` means "lane `l`'s traversal has
//! reached `v`". A batched advance then ORs a vertex's whole lane word
//! into each neighbor with a single `fetch_or` — 64 traversals' worth of
//! discovery per atomic — and the newly-discovered lanes at a vertex are
//! `next & !seen`, one AND-NOT per word.
//!
//! Beside the words a lane map keeps an **occupancy bitmap**, one bit per
//! vertex, set exactly when that vertex's word is non-zero (GraphBLAST's
//! sparse-and-dense frontier, PAPERS.md). It is derived state: every
//! write path keeps it in step ([`LaneMap::fetch_or`] marks a word's
//! zero-to-non-zero transition,
//! [`LaneMap::settle`] unmarks the words it zeroes,
//! [`LaneMap::restore_words`] rebuilds it) and it is never saved.
//! Every whole-map operation walks the set bits in vertex order instead
//! of the `n` words: it skips zero bitmap words, then steps with
//! `trailing_zeros`. A level on a high-diameter graph, where a few
//! thousand of a quarter million words are live, then costs what is
//! live, not `n`. Vertex order matters: it keeps the walk's reads of the
//! other maps in address order. There is no raw word access, so no
//! caller can write a word behind the bitmap's back.
//!
//! Storage discipline mirrors [`PooledBitmap`]: words and bitmap come
//! from [`BufferPool`] `u64` checkouts (counted by pool stats), are
//! viewed as `AtomicU64` via the same layout-preserving transmute, and go
//! back to the pool on release — so steady-state batch iterations
//! allocate nothing. A lane map holds one *word* per vertex (`n` words,
//! bit = lane) plus its `⌈n/64⌉`-word bitmap.

use crate::atomics::{Access, Shared};
use crate::bitmap::{into_atomic_words, into_plain_words, BitSet, PooledBitmap};
use crate::par;
use crate::pool::BufferPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Traversal lanes per batch: the bit width of a lane word.
pub const LANES: usize = 64;

/// A full-word lane mask for the first `count` lanes (all 64 when
/// `count >= 64`): the `seen`/`frontier` seed for a partially-filled
/// batch, and the retirement test's "every lane done" value.
#[inline]
pub fn lane_mask(count: usize) -> u64 {
    if count >= LANES {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// A pool-backed array of per-vertex lane words: `map[v]` holds one bit
/// per in-flight traversal, and the occupancy bitmap marks the non-zero
/// words. Shared (`&self`) writes are atomic, for the scatter phase
/// where many active vertices OR into one neighbor; the exclusive
/// [`LaneMap::settle`] partitions both maps into disjoint blocks of
/// whole bitmap words and mutates without atomics.
pub struct LaneMap {
    words: Vec<AtomicU64>,
    /// Bit `v` set iff `words[v] != 0`.
    occupied: PooledBitmap,
    len: usize,
}

/// The occupied vertices of a run of whole bitmap words, in vertex order,
/// each with its lane word: what [`LaneMap::walk`] and
/// [`LaneMap::par_walk`] yield.
pub struct Walk<'a> {
    map: &'a LaneMap,
    /// Next bitmap word to load, and one past the last.
    wi: usize,
    end: usize,
    /// First vertex of the current bitmap word, and its unvisited bits.
    base: usize,
    bits: u64,
}

impl Iterator for Walk<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        // skip zero bitmap words: 64 vertices with nothing live
        while self.bits == 0 {
            if self.wi == self.end {
                return None;
            }
            self.bits = self.map.occupied.load_word(self.wi);
            self.base = self.wi * 64;
            self.wi += 1;
        }
        // CAST: trailing_zeros() <= 64 widens to usize losslessly.
        let v = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((v, self.map.load(v)))
    }
}

impl LaneMap {
    /// Checks out a cleared lane map with one word per vertex, plus its
    /// occupancy bitmap, drawing storage from `pool` (counted by pool
    /// stats like any other checkout).
    pub fn take(pool: &BufferPool, len: usize) -> Self {
        let mut words = pool.take_u64(len);
        // resize within pooled capacity: zero-fill only, no reallocation
        words.resize(len, 0);
        let occupied = PooledBitmap::take(pool, len);
        LaneMap { words: into_atomic_words(words), occupied, len }
    }

    /// Returns the words and the bitmap to `pool` for reuse by the next
    /// checkout (lane map, bitmap, or plain buffer). Dropping without
    /// releasing is safe but forfeits the reuse.
    pub fn release(self, pool: &BufferPool) {
        pool.put_u64(into_plain_words(self.words));
        self.occupied.release(pool);
    }

    /// Vertex capacity (== word count: one lane word per vertex).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Loads vertex `v`'s lane word (shared, atomic).
    #[inline]
    pub fn load(&self, v: usize) -> u64 {
        debug_assert!(v < self.len);
        // ORDERING: Relaxed — lane-word RMWs need only atomicity (no lost
        // ORs); cross-phase visibility comes from the caller's join barrier.
        self.words[v].load(Ordering::Relaxed)
    }

    /// ORs `bits` into vertex `v`'s lane word through `access`, returning
    /// the previous word — the discovery step of the batched advance (up
    /// to 64 traversals served per update). The one caller that takes the
    /// word from zero marks it occupied; a sole writer ORs the mark without
    /// the branch (a zero mark changes nothing).
    #[inline]
    pub fn fetch_or<A: Access>(&self, access: A, v: usize, bits: u64) -> u64 {
        debug_assert!(v < self.len);
        let old = access.fetch_or_u64(&self.words[v], bits);
        let mark = u64::from(old == 0 && bits != 0) << (v % 64);
        if A::SOLE || mark != 0 {
            access.fetch_or_u64(&self.occupied.words[v / 64], mark);
        }
        old
    }

    /// Sets one lane bit at vertex `v` (shared, atomic) — batch seeding:
    /// lane `lane`'s source is `v`.
    #[inline]
    pub fn set_lane(&self, v: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.fetch_or(Shared, v, 1u64 << lane);
    }

    /// Walks every occupied vertex with its lane word, in vertex order.
    pub fn walk(&self) -> Walk<'_> {
        Walk { map: self, wi: 0, end: self.occupied.word_count(), base: 0, bits: 0 }
    }

    /// [`LaneMap::walk`] split into blocks of about `grain` vertices
    /// (whole bitmap words), one walk per task, in vertex order.
    pub fn par_walk(&self, grain: usize) -> impl Iterator<Item = Walk<'_>> + '_ {
        let nw = self.occupied.word_count();
        let per = grain.div_ceil(64).max(1);
        (0..nw.div_ceil(per)).map(move |b| Walk {
            wi: b * per,
            end: ((b + 1) * per).min(nw),
            ..self.walk()
        })
    }

    /// The MS-BFS update, with `self` as the level's `next` map: at every
    /// occupied vertex it keeps only the lanes `seen` lacks, ORs them
    /// into `seen` and calls `visit(v, new)`. A vertex left with no lane
    /// loses its word and its bit. Returns the vertices visited and the
    /// OR of their new lanes. Runs on the calling thread.
    pub fn settle<V: Fn(u32, u64)>(&mut self, seen: &mut LaneMap, visit: &V) -> (u64, u64) {
        assert_eq!(seen.len, self.len, "settle requires equal length");
        settle_block(
            0,
            [self.occupied.words_mut(), &mut self.words],
            [seen.occupied.words_mut(), &mut seen.words],
            visit,
        )
    }

    /// [`LaneMap::settle`] over disjoint blocks of about `grain`
    /// vertices (whole bitmap words), one per task: each block owns its
    /// words and bitmap words in both maps, so every store is plain.
    pub fn par_settle<V>(&mut self, seen: &mut LaneMap, grain: usize, visit: &V) -> (u64, u64)
    where
        V: Fn(u32, u64) + Sync,
    {
        assert_eq!(seen.len, self.len, "settle requires equal length");
        let per = grain.div_ceil(64).max(1);
        let blocks = self
            .occupied
            .words_mut()
            .chunks_mut(per)
            .zip(self.words.chunks_mut(per * 64))
            .zip(seen.occupied.words_mut().chunks_mut(per))
            .zip(seen.words.chunks_mut(per * 64))
            .enumerate();
        par::map_reduce(
            blocks,
            (0, 0),
            |(b, (((occ, words), seen_occ), seen_words))| {
                settle_block(b * per * 64, [occ, words], [seen_occ, seen_words], visit)
            },
            |a, b| (a.0 + b.0, a.1 | b.1),
        )
    }

    /// Clears every lane word (exclusive): zeroes the occupied words and
    /// their bitmap words.
    pub fn clear_all(&mut self) {
        for (wi, ow) in self.occupied.words_mut().iter_mut().enumerate() {
            let mut bits = std::mem::take(ow.get_mut());
            while bits != 0 {
                // CAST: trailing_zeros() <= 64 widens to usize losslessly.
                *self.words[wi * 64 + bits.trailing_zeros() as usize].get_mut() = 0;
                bits &= bits - 1;
            }
        }
    }

    /// Number of active vertices: those with at least one live lane bit
    /// (the bitmap's popcount).
    pub fn count_active(&self) -> usize {
        self.occupied.count_ones()
    }

    /// OR-reduction over every vertex's lane word: bit `l` set means
    /// lane `l` is still live somewhere in this map. Its popcount is the
    /// `lanes_active` figure the `msbfs` StepRecord carries.
    pub fn union_lanes(&self) -> u64 {
        self.walk().fold(0u64, |acc, (_, w)| acc | w)
    }

    /// Copies the lane words out into a plain `u64` buffer (checkpoint
    /// sections snapshot lane state through this; the bitmap is derived
    /// and not saved).
    pub fn snapshot_words(&self) -> Vec<u64> {
        // ALLOC-OK(checkpoint snapshot path, off the steady-state sweep)
        (0..self.len).map(|v| self.load(v)).collect()
    }

    /// Overwrites the lane words from a plain `u64` slice (checkpoint
    /// restore) and rebuilds the bitmap. Panics if the lengths differ —
    /// callers validate section lengths before restoring.
    pub fn restore_words(&mut self, from: &[u64]) {
        assert_eq!(from.len(), self.len, "lane-map restore requires equal length");
        let occ = self.occupied.words_mut();
        for (wi, (ow, chunk)) in occ.iter_mut().zip(from.chunks(64)).enumerate() {
            let mut bits = 0u64;
            for (b, &src) in chunk.iter().enumerate() {
                *self.words[wi * 64 + b].get_mut() = src;
                bits |= u64::from(src != 0) << b;
            }
            *ow.get_mut() = bits;
        }
    }
}

/// One block of [`LaneMap::settle`]: `next` and `seen` are the block's
/// `[bitmap words, lane words]` in each map, aligned (bit `b` of bitmap
/// word `oi` is lane word `oi * 64 + b`), and `base` is its first vertex.
fn settle_block<V: Fn(u32, u64)>(
    base: usize,
    [next_occ, next]: [&mut [AtomicU64]; 2],
    [seen_occ, seen]: [&mut [AtomicU64]; 2],
    visit: &V,
) -> (u64, u64) {
    let mut found = 0u64;
    let mut lanes = 0u64;
    for (oi, ow) in next_occ.iter_mut().enumerate() {
        let mut bits = *ow.get_mut();
        let mut keep = bits;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            // CAST: trailing_zeros() <= 64 widens to usize losslessly.
            let i = oi * 64 + b as usize;
            let sw = seen[i].get_mut();
            let new = *next[i].get_mut() & !*sw;
            *next[i].get_mut() = new;
            if new == 0 {
                keep &= !(1u64 << b);
                continue;
            }
            // `seen` gains a lane here, so its word is now non-zero
            *seen_occ[oi].get_mut() |= 1u64 << b;
            *sw |= new;
            found += 1;
            lanes |= new;
            // CAST: base + i < num_vertices < u32::MAX by Csr::validate.
            visit((base + i) as u32, new);
        }
        *ow.get_mut() = keep;
    }
    (found, lanes)
}

impl std::fmt::Debug for LaneMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LaneMap({} vertices, {} active, lanes {:#x})",
            self.len,
            self.count_active(),
            self.union_lanes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomics::Sole;

    /// The map's invariant: bit `v` is set iff word `v` is non-zero, and
    /// the whole-map queries equal a brute-force sweep over the words.
    fn assert_consistent(lm: &LaneMap) {
        for v in 0..lm.len() {
            assert_eq!(lm.occupied.get(v), lm.load(v) != 0, "vertex {v}");
        }
        let words = lm.snapshot_words();
        assert_eq!(lm.count_active(), words.iter().filter(|&&w| w != 0).count());
        assert_eq!(lm.union_lanes(), words.iter().fold(0, |a, &w| a | w));
        let walked: Vec<(usize, u64)> = lm.walk().collect();
        let swept: Vec<(usize, u64)> =
            words.iter().copied().enumerate().filter(|&(_, w)| w != 0).collect();
        assert_eq!(walked, swept, "the walk visits the non-zero words in vertex order");
    }

    /// Deterministic sparse lane words: about one vertex in `density`
    /// gets a random non-zero word.
    fn sparse_words(len: usize, density: u64, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(density) {
                    x | 1
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn lane_mask_fills_low_bits() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(7), 0x7f);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(64), u64::MAX);
        assert_eq!(lane_mask(100), u64::MAX);
    }

    #[test]
    fn take_set_load_release_round_trip() {
        let pool = BufferPool::new();
        let lm = LaneMap::take(&pool, 100);
        assert_eq!(lm.len(), 100);
        assert_eq!(pool.stats().checkouts, 2, "words and bitmap");
        lm.set_lane(3, 0);
        lm.set_lane(3, 63);
        lm.set_lane(99, 7);
        assert_eq!(lm.load(3), (1 << 63) | 1);
        assert_eq!(lm.load(99), 1 << 7);
        assert_eq!(lm.count_active(), 2);
        assert_eq!(lm.union_lanes(), (1 << 63) | (1 << 7) | 1);
        assert_consistent(&lm);
        lm.release(&pool);
        assert_eq!(pool.stats().releases, 2);
        // the next checkout reuses the same storage, cleared
        let again = LaneMap::take(&pool, 100);
        assert_eq!(again.count_active(), 0);
        assert_eq!(pool.stats().allocations, 2, "storage reused, not reallocated");
        again.release(&pool);
    }

    #[test]
    fn checkout_after_release_is_clean() {
        let pool = BufferPool::new();
        for len in [1usize, 63, 64, 65, 1000] {
            let mut lm = LaneMap::take(&pool, len);
            lm.restore_words(&vec![u64::MAX; len]);
            assert_consistent(&lm);
            lm.release(&pool);
            let again = LaneMap::take(&pool, len);
            assert!(again.snapshot_words().iter().all(|&w| w == 0), "{len}: words");
            assert!((0..len).all(|v| !again.occupied.get(v)), "{len}: bits");
            assert_eq!(again.count_active(), 0);
            again.release(&pool);
        }
        assert_eq!(pool.stats().live, 0);
    }

    #[test]
    fn fetch_or_returns_previous_word() {
        let pool = BufferPool::new();
        let lm = LaneMap::take(&pool, 8);
        assert_eq!(lm.fetch_or(Shared, 2, 0b1010), 0);
        let old = lm.fetch_or(Shared, 2, 0b0110);
        assert_eq!(old, 0b1010);
        // newly-set lanes are exactly `bits & !old`
        assert_eq!(0b0110 & !old, 0b0100);
        // an empty OR leaves a zero word unoccupied
        assert_eq!(lm.fetch_or(Shared, 5, 0), 0);
        assert_consistent(&lm);
        lm.release(&pool);
    }

    #[test]
    fn concurrent_fetch_or_loses_no_lanes() {
        let pool = BufferPool::new();
        let lm = LaneMap::take(&pool, 4);
        par::for_each(0..64usize, |l| lm.set_lane(1, l));
        assert_eq!(lm.load(1), u64::MAX);
        assert_consistent(&lm);
        lm.release(&pool);
    }

    #[test]
    fn every_write_path_keeps_the_bitmap_exact() {
        let pool = BufferPool::new();
        for (len, density) in [(1usize, 1u64), (130, 3), (4096, 50), (5000, 7)] {
            let mut next = LaneMap::take(&pool, len);
            let mut seen = LaneMap::take(&pool, len);
            let mut twin_next = LaneMap::take(&pool, len);
            let mut twin_seen = LaneMap::take(&pool, len);
            seen.restore_words(&sparse_words(len, density, 11));
            twin_seen.restore_words(&seen.snapshot_words());
            assert_consistent(&seen);
            for (v, w) in sparse_words(len, density, 23).into_iter().enumerate() {
                next.fetch_or(Shared, v, w);
                twin_next.fetch_or(Sole, v, w);
            }
            assert_consistent(&next);
            assert_consistent(&twin_next);
            // the update, on one thread and in blocks of one bitmap word
            let log = std::sync::Mutex::new(Vec::new());
            let serial = next.settle(&mut seen, &|v, nl| log.lock().unwrap().push((v, nl)));
            let parallel = twin_next.par_settle(&mut twin_seen, 64, &|_, _| {});
            assert_eq!(serial, parallel);
            for lm in [&next, &seen, &twin_next, &twin_seen] {
                assert_consistent(lm);
            }
            assert_eq!(next.snapshot_words(), twin_next.snapshot_words());
            assert_eq!(seen.snapshot_words(), twin_seen.snapshot_words());
            let kept: Vec<(u32, u64)> = next.walk().map(|(v, w)| (v as u32, w)).collect();
            assert_eq!(log.into_inner().unwrap(), kept, "visited once each, in vertex order");
            next.clear_all();
            assert_consistent(&next);
            assert_eq!(next.count_active(), 0);
            for lm in [next, seen, twin_next, twin_seen] {
                lm.release(&pool);
            }
        }
    }

    #[test]
    fn par_walk_blocks_cover_the_walk_in_order() {
        let pool = BufferPool::new();
        let mut lm = LaneMap::take(&pool, 3000);
        lm.restore_words(&sparse_words(3000, 5, 7));
        let whole: Vec<(usize, u64)> = lm.walk().collect();
        for grain in [1usize, 64, 100, 5000] {
            let mut blocks: Vec<Vec<(usize, u64)>> = Vec::new();
            par::collect_into(lm.par_walk(grain), Iterator::collect, &mut blocks);
            assert_eq!(blocks.concat(), whole, "grain {grain}");
        }
        lm.release(&pool);
    }

    #[test]
    fn exclusive_sweep_and_clear() {
        let pool = BufferPool::new();
        let mut lm = LaneMap::take(&pool, 130);
        lm.restore_words(&vec![0xff; 130]);
        assert_eq!(lm.count_active(), 130);
        lm.clear_all();
        assert_eq!(lm.count_active(), 0);
        assert!(lm.snapshot_words().iter().all(|&w| w == 0));
        assert_consistent(&lm);
        lm.release(&pool);
    }

    #[test]
    fn snapshot_and_restore_round_trip() {
        let pool = BufferPool::new();
        let mut lm = LaneMap::take(&pool, 6);
        lm.set_lane(0, 1);
        lm.set_lane(5, 2);
        let snap = lm.snapshot_words();
        assert_eq!(snap, vec![2, 0, 0, 0, 0, 4]);
        lm.clear_all();
        assert_consistent(&lm);
        lm.restore_words(&snap);
        assert_eq!(lm.load(0), 2);
        assert_eq!(lm.load(5), 4);
        assert_consistent(&lm);
        lm.release(&pool);
    }

    #[test]
    fn empty_lane_map() {
        let pool = BufferPool::new();
        let mut lm = LaneMap::take(&pool, 0);
        assert!(lm.is_empty());
        assert_eq!(lm.union_lanes(), 0);
        assert_eq!(lm.walk().count(), 0);
        lm.clear_all();
        lm.release(&pool);
    }
}
