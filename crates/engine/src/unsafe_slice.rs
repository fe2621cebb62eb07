//! A shared mutable slice for scatter-style parallel writes.
//!
//! Scan-then-scatter kernels (compact, load-balanced advance output) know
//! statically that every output index is written by exactly one task, but
//! the borrow checker cannot see that. `UnsafeSlice` is the standard HPC
//! escape hatch: a `Sync` wrapper over a raw slice whose `write` is
//! `unsafe`, with the disjointness obligation documented at each call
//! site.
//!
//! The obligation is also *checked*, at three strictness levels:
//!
//! * release builds — no checking beyond the slice bounds check; writes
//!   compile to a plain store.
//! * debug builds — a per-index write tag detects two writes to the same
//!   index within one phase (`debug_assert!`-grade, no call sites).
//! * `--features racecheck` — the full shadow table in
//!   [`crate::racecheck`]: write/write and write/read conflicts panic
//!   with **both** call sites and thread ids.
//!
//! A phase is delimited per slice: construction starts phase 0, and
//! [`UnsafeSlice::begin_phase`] marks the bulk-synchronous barrier
//! between two sequential parallel loops that reuse one slice.

use std::cell::UnsafeCell;

#[cfg(any(debug_assertions, feature = "racecheck"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// A wrapper over `&mut [T]` allowing concurrent writes to *disjoint*
/// indices from multiple threads.
pub struct UnsafeSlice<'a, T> {
    slice: &'a [UnsafeCell<T>],
    /// Phase counter for the conflict checkers; per-slice so detection
    /// is deterministic even when unrelated slices are in flight.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    phase: AtomicU64,
    /// Full shadow state: last writer/reader per index with call sites.
    #[cfg(feature = "racecheck")]
    shadow: crate::racecheck::shadow::Shadow,
    /// Lightweight debug tag per index: `phase + 1` of the last write
    /// (0 = never written). Catches same-phase double writes in every
    /// debug build, without the racecheck feature.
    #[cfg(all(debug_assertions, not(feature = "racecheck")))]
    write_tags: Vec<AtomicU64>,
}

// SAFETY: the only way to touch the data is through `write`/`read`, whose
// contracts require callers to guarantee disjointness (or
// synchronization); the checker fields are internally synchronized.
unsafe impl<T: Send + Sync> Send for UnsafeSlice<'_, T> {}

// SAFETY: same argument as Send — shared access is mediated entirely by
// the unsafe `write`/`read` contracts; no interior state is exposed.
unsafe impl<T: Send + Sync> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        #[cfg(any(debug_assertions, feature = "racecheck"))]
        let len = slice.len();
        let ptr = slice as *mut [T] as *const [UnsafeCell<T>];
        UnsafeSlice {
            // SAFETY: [T] and [UnsafeCell<T>] have identical layout, and
            // the cast borrows the caller's exclusive &mut for 'a.
            slice: unsafe { &*ptr },
            #[cfg(any(debug_assertions, feature = "racecheck"))]
            phase: AtomicU64::new(0),
            #[cfg(feature = "racecheck")]
            shadow: crate::racecheck::shadow::Shadow::new(len),
            #[cfg(all(debug_assertions, not(feature = "racecheck")))]
            write_tags: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.slice.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slice.is_empty()
    }

    /// Marks a bulk-synchronous phase boundary for *this* slice: call at
    /// the barrier between two sequential parallel loops that reuse one
    /// slice, so the conflict checkers do not mistake the second loop's
    /// writes for races against the first's. A no-op in unchecked
    /// builds.
    ///
    /// Requires `&mut self` — a phase boundary is a serial point by
    /// definition, so demanding exclusive access is free and makes it
    /// impossible to bump the phase while a parallel loop still holds
    /// shared references.
    pub fn begin_phase(&mut self) {
        #[cfg(any(debug_assertions, feature = "racecheck"))]
        // ORDERING: Relaxed — called at a serial point (exclusive &mut
        // borrow); the launch barrier provides the happens-before.
        self.phase.fetch_add(1, Ordering::Relaxed);
    }

    /// Current per-slice phase (checked builds only).
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    #[inline]
    fn current_phase(&self) -> u64 {
        // ORDERING: Relaxed — phase changes only at serial points.
        self.phase.load(Ordering::Relaxed)
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// No other thread may read or write `index` concurrently; each index
    /// must be written by at most one task per parallel phase (see
    /// [`UnsafeSlice::begin_phase`]). Violations panic under
    /// `--features racecheck`, and same-phase double writes additionally
    /// trip a `debug_assert` in every debug build.
    #[inline]
    #[cfg_attr(feature = "racecheck", track_caller)]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(
            index < self.slice.len(),
            "UnsafeSlice::write out of bounds: index {index} >= len {}",
            self.slice.len()
        );
        #[cfg(feature = "racecheck")]
        self.shadow.record_write(index, self.current_phase(), std::panic::Location::caller());
        #[cfg(all(debug_assertions, not(feature = "racecheck")))]
        {
            let tag = self.current_phase() + 1;
            // ORDERING: Relaxed — the tag is a debug heuristic; a missed
            // cross-thread conflict here is caught by racecheck builds.
            let prev = self.write_tags[index].swap(tag, Ordering::Relaxed);
            debug_assert!(
                prev != tag,
                "UnsafeSlice::write: index {index} written twice in one parallel phase \
                 (phase {}); run with --features racecheck for both call sites",
                tag - 1
            );
        }
        *self.slice[index].get() = value;
    }

    /// Reads the value at `index`.
    ///
    /// # Safety
    /// No other thread may be writing `index` concurrently (concurrent
    /// reads are fine). Same-phase write/read overlaps panic under
    /// `--features racecheck` and trip a `debug_assert` in debug builds.
    #[inline]
    #[cfg_attr(feature = "racecheck", track_caller)]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(
            index < self.slice.len(),
            "UnsafeSlice::read out of bounds: index {index} >= len {}",
            self.slice.len()
        );
        #[cfg(feature = "racecheck")]
        self.shadow.record_read(index, self.current_phase(), std::panic::Location::caller());
        #[cfg(all(debug_assertions, not(feature = "racecheck")))]
        {
            // ORDERING: Relaxed — debug heuristic only, see write().
            let tag = self.write_tags[index].load(Ordering::Relaxed);
            debug_assert!(
                tag != self.current_phase() + 1,
                "UnsafeSlice::read: index {index} read in the same parallel phase it was \
                 written; run with --features racecheck for both call sites"
            );
        }
        *self.slice[index].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;

    #[test]
    fn parallel_disjoint_writes() {
        let mut data = vec![0u32; 1000];
        {
            let out = UnsafeSlice::new(&mut data);
            par::for_each(0..1000usize, |i| {
                // SAFETY: each i is written exactly once.
                unsafe { out.write(i, i as u32 * 2) };
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn len_reflects_slice() {
        let mut data = vec![0u8; 5];
        let s = UnsafeSlice::new(&mut data);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn rewriting_after_begin_phase_is_legal() {
        // two sequential bulk-synchronous loops over one slice: legal as
        // long as the barrier is marked
        let mut data = vec![0u32; 64];
        let mut out = UnsafeSlice::new(&mut data);
        par::for_each(0..64usize, |i| {
            // SAFETY: each i written once in this phase.
            unsafe { out.write(i, 1) };
        });
        out.begin_phase();
        par::for_each(0..64usize, |i| {
            // SAFETY: each i written once in this phase.
            unsafe { out.write(i, 2) };
        });
        drop(out);
        assert!(data.iter().all(|&v| v == 2));
    }

    /// The regression the ISSUE demands: an intentionally overlapping
    /// write pair must be caught, with both call sites in the message.
    #[cfg(feature = "racecheck")]
    #[test]
    #[should_panic(expected = "racecheck: two writes to index 7")]
    fn racecheck_catches_same_index_write_write() {
        let mut data = vec![0u32; 16];
        let s = UnsafeSlice::new(&mut data);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // SAFETY: deliberately violating the contract under test.
                unsafe { s.write(7, 1) };
            });
        });
        // second write to the same index, same phase — from this thread,
        // so the should_panic harness observes it deterministically
        // SAFETY: deliberately violating the contract under test.
        unsafe { s.write(7, 2) };
    }

    #[cfg(feature = "racecheck")]
    #[test]
    #[should_panic(expected = "racecheck: write/read overlap on index 3")]
    fn racecheck_catches_write_read_overlap() {
        let mut data = vec![0u32; 8];
        let s = UnsafeSlice::new(&mut data);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // SAFETY: deliberately violating the contract under test.
                unsafe { s.write(3, 9) };
            });
        });
        // SAFETY: deliberately violating the contract under test.
        unsafe { s.read(3) };
    }

    #[cfg(feature = "racecheck")]
    #[test]
    fn racecheck_allows_disjoint_writes_and_cross_phase_reuse() {
        let mut data = vec![0u32; 32];
        let mut s = UnsafeSlice::new(&mut data);
        for i in 0..32 {
            // SAFETY: each index written once per phase.
            unsafe { s.write(i, 1) };
        }
        s.begin_phase();
        for i in 0..32 {
            // SAFETY: new phase — each index written once again.
            unsafe { s.write(i, 2) };
        }
        drop(s);
        assert!(data.iter().all(|&v| v == 2));
    }

    #[cfg(feature = "racecheck")]
    #[test]
    fn racecheck_allows_concurrent_reads() {
        let mut data = vec![5u32; 8];
        let s = UnsafeSlice::new(&mut data);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // SAFETY: reads may overlap reads.
                assert_eq!(unsafe { s.read(2) }, 5);
            });
        });
        // SAFETY: reads may overlap reads.
        assert_eq!(unsafe { s.read(2) }, 5);
    }

    /// The always-on debug hardening: double writes are caught even
    /// without the racecheck feature (no call sites, but the invariant
    /// still trips in every `cargo test`).
    #[cfg(all(debug_assertions, not(feature = "racecheck")))]
    #[test]
    #[should_panic(expected = "written twice in one parallel phase")]
    fn debug_tags_catch_double_write() {
        let mut data = vec![0u32; 4];
        let s = UnsafeSlice::new(&mut data);
        // SAFETY: deliberately violating the contract under test.
        unsafe { s.write(1, 10) };
        // SAFETY: deliberately violating the contract under test.
        unsafe { s.write(1, 11) };
    }
}
