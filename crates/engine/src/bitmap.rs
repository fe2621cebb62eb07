//! Concurrent bitmaps over atomic words.
//!
//! Gunrock's pull-based advance "internally converts the current frontier
//! into a bitmap of vertices" (§4.1.1), and the idempotent filter's
//! bitmask-culling heuristic tests a visited bitmap before enqueueing.
//! `test_and_set` is the GPU's `atomicOr` returning the old bit.
//!
//! Two representations share the [`BitSet`] interface:
//!
//! * [`AtomicBitmap`] — a self-owned `Box<[AtomicU64]>`, for callers
//!   without a [`BufferPool`] in reach;
//! * [`PooledBitmap`] — the frontier representation of the masked
//!   word-sweep pull path: its words come from a [`BufferPool`] checkout
//!   (`take_u64`) and go back on release, so steady-state direction
//!   switches allocate nothing and pool stats count bitmap storage. It is
//!   *word-addressable*: operators iterate set bits with
//!   `trailing_zeros`, skip empty mask words wholesale, and batch
//!   bitmask-culling into one `fetch_or` per word.

use crate::frontier::Frontier;
use crate::pool::BufferPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared-bitmap operations common to [`AtomicBitmap`] and
/// [`PooledBitmap`], so operators (pull advance, culling filter, claiming
/// advance functors) accept either representation.
pub trait BitSet: Sync {
    /// Bit capacity.
    fn len(&self) -> usize;
    /// Number of 64-bit words backing the bitmap.
    fn word_count(&self) -> usize;
    /// Tests bit `i`.
    fn get(&self, i: usize) -> bool;
    /// Sets bit `i`.
    fn set(&self, i: usize);
    /// Atomically sets bit `i`, returning its previous value.
    fn test_and_set(&self, i: usize) -> bool;
    /// Loads word `wi`.
    fn load_word(&self, wi: usize) -> u64;
    /// Atomically ORs `bits` into word `wi`, returning the word's
    /// previous value — word-granular bitmask culling (one atomic for up
    /// to 64 `test_and_set`s).
    fn fetch_or_word(&self, wi: usize, bits: u64) -> u64;

    /// True if capacity is zero.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of set bits (popcount sweep).
    fn count_ones(&self) -> usize {
        // CAST: count_ones() <= 64 widens to usize losslessly.
        (0..self.word_count()).map(|wi| self.load_word(wi).count_ones() as usize).sum()
    }
}

/// Sets the `mask` bit of `word`, returning whether it was already set.
/// A plain load runs first and the `fetch_or` is skipped when the bit is
/// already set: a losing discovery costs a load, not a locked RMW.
#[inline]
fn test_and_set_word(word: &AtomicU64, mask: u64) -> bool {
    // ORDERING: Relaxed — a load that sees the bit set is already the
    // answer (setting a set bit changes nothing); one that misses it falls
    // through to the RMW, which decides the race. The caller's join
    // barrier orders phases.
    let set = |old: u64| old & mask != 0;
    set(word.load(Ordering::Relaxed)) || set(word.fetch_or(mask, Ordering::Relaxed))
}

/// A fixed-capacity bitmap supporting concurrent set/test.
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates a cleared bitmap with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        // ALLOC-OK(owned one-shot bitmap with no Context in scope; the
        // steady-state pull path uses pool-backed PooledBitmap instead)
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitmap { words, len }
    }

    /// Bit capacity.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
    }

    /// Atomically sets bit `i`, returning its previous value. The winner
    /// of a concurrent race observes `false` exactly once — the mechanism
    /// behind unique vertex discovery.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        test_and_set_word(&self.words[i / 64], 1u64 << (i % 64))
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[i / 64].fetch_and(!(1 << (i % 64)), Ordering::Relaxed);
    }

    /// Clears all bits. Not safe to call concurrently with setters
    /// (requires `&mut`).
    pub fn clear_all(&mut self) {
        for w in self.words.iter() {
            // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
            // winners); cross-phase visibility comes from the caller's join barrier.
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        // CAST: count_ones() <= 64 widens to usize losslessly.
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits (ascending).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
            // winners); cross-phase visibility comes from the caller's join barrier.
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    // CAST: trailing_zeros() <= 64 widens to usize losslessly.
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl BitSet for AtomicBitmap {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn word_count(&self) -> usize {
        self.words.len()
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        AtomicBitmap::get(self, i)
    }
    #[inline]
    fn set(&self, i: usize) {
        AtomicBitmap::set(self, i)
    }
    #[inline]
    fn test_and_set(&self, i: usize) -> bool {
        AtomicBitmap::test_and_set(self, i)
    }
    #[inline]
    fn load_word(&self, wi: usize) -> u64 {
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[wi].load(Ordering::Relaxed)
    }
    #[inline]
    fn fetch_or_word(&self, wi: usize, bits: u64) -> u64 {
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[wi].fetch_or(bits, Ordering::Relaxed)
    }
}

impl std::fmt::Debug for AtomicBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicBitmap({} bits, {} set)", self.len, self.count_ones())
    }
}

/// Converts a pool-checked-out `u64` buffer into atomic words without
/// copying. Shared with the lane-packed multi-source frontier
/// (`crate::lanes`), whose per-vertex lane words use the same pooled
/// storage discipline.
pub(crate) fn into_atomic_words(mut v: Vec<u64>) -> Vec<AtomicU64> {
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    std::mem::forget(v);
    // SAFETY: std guarantees AtomicU64 "has the same in-memory
    // representation as the underlying integer type, u64", so size and
    // alignment match and the reconstructed Vec frees with the exact
    // layout it was allocated with.
    unsafe { Vec::from_raw_parts(ptr as *mut AtomicU64, len, cap) }
}

/// The inverse of [`into_atomic_words`], for returning storage to the
/// pool.
pub(crate) fn into_plain_words(mut v: Vec<AtomicU64>) -> Vec<u64> {
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    std::mem::forget(v);
    // SAFETY: same layout guarantee as into_atomic_words, in reverse; the
    // caller holds the Vec exclusively, so no outstanding atomic views
    // alias the storage.
    unsafe { Vec::from_raw_parts(ptr as *mut u64, len, cap) }
}

/// A pool-backed, word-addressable frontier bitmap (§4.1.1's
/// bitmap-of-predecessors, GraphBLAST's masked view).
///
/// Storage is a `BufferPool` `u64` checkout, so enact loops ping-pong
/// bitmaps across iterations exactly like list frontiers: `take` at the
/// Beamer switch, [`PooledBitmap::release`] when done, zero heap traffic
/// in between. Shared (`&self`) accessors are atomic (safe under
/// concurrent operator writes); exclusive (`&mut self`) word accessors
/// let the masked word sweep mutate partitioned word ranges without any
/// atomics at all.
pub struct PooledBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl PooledBitmap {
    /// Checks out a cleared bitmap with capacity for `len` bits, drawing
    /// word storage from `pool` (counted by pool stats like any other
    /// checkout).
    pub fn take(pool: &BufferPool, len: usize) -> Self {
        let nw = len.div_ceil(64);
        let mut words = pool.take_u64(nw);
        // resize within pooled capacity: zero-fill only, no reallocation
        words.resize(nw, 0);
        PooledBitmap { words: into_atomic_words(words), len }
    }

    /// Returns the word storage to `pool` for reuse by the next checkout
    /// (bitmap or otherwise). Dropping without releasing is safe but
    /// forfeits the reuse.
    pub fn release(self, pool: &BufferPool) {
        pool.put_u64(into_plain_words(self.words));
    }

    /// Bit capacity.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive access to the backing words. The masked word sweep
    /// partitions this slice into disjoint per-task chunks and mutates
    /// through `AtomicU64::get_mut` — plain stores, no atomic RMWs.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [AtomicU64] {
        &mut self.words
    }

    /// Clears all bits (exclusive; a word-sweep memset).
    pub fn clear_all(&mut self) {
        for w in self.words.iter_mut() {
            *w.get_mut() = 0;
        }
    }

    /// Sets every bit that is *clear* in `of` (same capacity), masking
    /// tail bits past `len` to zero — how the pull path derives the
    /// unvisited-candidate bitmap as the complement of the visited set.
    pub fn fill_complement(&mut self, of: &impl BitSet) {
        assert_eq!(of.len(), self.len, "complement requires equal capacity");
        let nw = self.words.len();
        for (wi, w) in self.words.iter_mut().enumerate() {
            *w.get_mut() = !of.load_word(wi);
        }
        let tail = self.len % 64;
        if tail != 0 && nw > 0 {
            *self.words[nw - 1].get_mut() &= (1u64 << tail) - 1;
        }
    }

    /// Scatters a list frontier into the bitmap (the lazy list → bitmap
    /// conversion at the Beamer switch). Bits already set stay set.
    pub fn fill_from_frontier(&mut self, frontier: &Frontier) {
        for v in frontier {
            // CAST: vertex ids are u32 widened to usize for bitmap indexing — lossless.
            debug_assert!((v as usize) < self.len);
            let slot = self.words[v as usize / 64].get_mut();
            *slot |= 1u64 << (v % 64);
        }
    }

    /// Appends the indices of set bits (ascending) to `out` — the lazy
    /// bitmap → list conversion (`trailing_zeros` sweep with whole-word
    /// skip of empty words).
    pub fn push_ones_into(&self, out: &mut Vec<u32>) {
        for wi in 0..self.words.len() {
            let mut bits = self.load_word(wi);
            while bits != 0 {
                // CAST: word index * 64 + trailing_zeros() < len < u32::MAX by
                // construction (vertex counts are u32).
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push((wi * 64 + b) as u32);
            }
        }
    }

    /// Iterates over the indices of set bits (ascending).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len()).flat_map(move |wi| {
            let mut bits = self.load_word(wi);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    // CAST: trailing_zeros() <= 64 widens to usize losslessly.
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        BitSet::count_ones(self)
    }

    /// Tests bit `i` (shared, atomic).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0
    }

    /// Sets bit `i` (shared, atomic).
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
    }

    /// Atomically sets bit `i`, returning its previous value.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        test_and_set_word(&self.words[i / 64], 1u64 << (i % 64))
    }
}

impl BitSet for PooledBitmap {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn word_count(&self) -> usize {
        self.words.len()
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        PooledBitmap::get(self, i)
    }
    #[inline]
    fn set(&self, i: usize) {
        PooledBitmap::set(self, i)
    }
    #[inline]
    fn test_and_set(&self, i: usize) -> bool {
        PooledBitmap::test_and_set(self, i)
    }
    #[inline]
    fn load_word(&self, wi: usize) -> u64 {
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[wi].load(Ordering::Relaxed)
    }
    #[inline]
    fn fetch_or_word(&self, wi: usize, bits: u64) -> u64 {
        // ORDERING: Relaxed — bit RMWs need only atomicity (unique test_and_set
        // winners); cross-phase visibility comes from the caller's join barrier.
        self.words[wi].fetch_or(bits, Ordering::Relaxed)
    }
}

impl std::fmt::Debug for PooledBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBitmap({} bits, {} set)", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn set_get_clear() {
        let bm = AtomicBitmap::new(130);
        assert!(!bm.get(0));
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1));
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn test_and_set_returns_old_value() {
        let bm = AtomicBitmap::new(10);
        assert!(!bm.test_and_set(3));
        assert!(bm.test_and_set(3));
    }

    #[test]
    fn concurrent_test_and_set_has_exactly_one_winner_per_bit() {
        let bm = AtomicBitmap::new(1000);
        let winners: usize =
            (0..8000usize).into_par_iter().map(|i| !bm.test_and_set(i % 1000) as usize).sum();
        assert_eq!(winners, 1000);
        assert_eq!(bm.count_ones(), 1000);
    }

    #[test]
    fn iter_ones_ascending() {
        let bm = AtomicBitmap::new(200);
        for i in [5usize, 63, 64, 130, 199] {
            bm.set(i);
        }
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![5, 63, 64, 130, 199]);
    }

    #[test]
    fn clear_all_resets() {
        let mut bm = AtomicBitmap::new(100);
        for i in 0..100 {
            bm.set(i);
        }
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn empty_bitmap() {
        let bm = AtomicBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    fn fetch_or_word_batches_test_and_set() {
        let bm = AtomicBitmap::new(130);
        bm.set(3);
        let old = bm.fetch_or_word(0, 0b1011);
        assert_eq!(old, 0b1000, "previous word returned");
        assert!(bm.get(0) && bm.get(1) && bm.get(3));
        // newly-set bits are exactly `bits & !old`
        assert_eq!(0b1011 & !old, 0b0011);
    }

    #[test]
    fn pooled_bitmap_draws_and_returns_pool_storage() {
        let pool = BufferPool::new();
        let bm = PooledBitmap::take(&pool, 200);
        assert_eq!(bm.len(), 200);
        assert_eq!(bm.word_count(), 4);
        assert_eq!(pool.stats().checkouts, 1);
        bm.set(5);
        bm.set(64);
        bm.set(199);
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.test_and_set(5));
        assert!(!bm.test_and_set(6));
        bm.release(&pool);
        assert_eq!(pool.stats().releases, 1);
        // the next checkout reuses the same words, cleared
        let again = PooledBitmap::take(&pool, 200);
        assert_eq!(again.count_ones(), 0);
        assert_eq!(pool.stats().allocations, 1, "storage reused, not reallocated");
    }

    #[test]
    fn pooled_conversions_round_trip_a_frontier() {
        let pool = BufferPool::new();
        let mut bm = PooledBitmap::take(&pool, 300);
        let f = Frontier::from_vec(vec![1, 63, 64, 130, 299]);
        bm.fill_from_frontier(&f);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![1, 63, 64, 130, 299]);
        let mut back = Vec::new();
        bm.push_ones_into(&mut back);
        assert_eq!(back, f.as_slice());
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
        bm.release(&pool);
    }

    #[test]
    fn pooled_complement_masks_tail_bits() {
        let pool = BufferPool::new();
        // 70 bits: the second word has 58 tail bits past the capacity
        let visited = PooledBitmap::take(&pool, 70);
        visited.set(0);
        visited.set(69);
        let mut unvisited = PooledBitmap::take(&pool, 70);
        unvisited.fill_complement(&visited);
        assert_eq!(unvisited.count_ones(), 68);
        assert!(!unvisited.get(0) && !unvisited.get(69));
        assert!(unvisited.get(1) && unvisited.get(68));
        // no phantom bits past len
        assert_eq!(unvisited.iter_ones().max(), Some(68));
        visited.release(&pool);
        unvisited.release(&pool);
    }

    #[test]
    fn bitset_trait_unifies_both_representations() {
        fn probe<B: BitSet>(b: &B) -> (usize, usize, bool) {
            b.set(2);
            (b.len(), b.count_ones(), b.get(2))
        }
        let pool = BufferPool::new();
        let atomic = AtomicBitmap::new(100);
        let pooled = PooledBitmap::take(&pool, 100);
        assert_eq!(probe(&atomic), (100, 1, true));
        assert_eq!(probe(&pooled), (100, 1, true));
    }

    #[test]
    fn pooled_concurrent_test_and_set_has_one_winner_per_bit() {
        let pool = BufferPool::new();
        let bm = PooledBitmap::take(&pool, 1000);
        let winners: usize =
            (0..8000usize).into_par_iter().map(|i| !bm.test_and_set(i % 1000) as usize).sum();
        assert_eq!(winners, 1000);
        assert_eq!(bm.count_ones(), 1000);
        bm.release(&pool);
    }
}
