//! Size-classed reusable buffer pool — the multicore stand-in for
//! Gunrock's pre-allocated frontier and scratch storage (§4.2).
//!
//! The paper's performance model assumes every advance writes into
//! buffers that already exist: "Gunrock's frontier data structures are
//! reused across iterations" rather than reallocated per kernel launch.
//! This pool gives the operators the same property on the CPU: a
//! checkout (`take_u32`/`take_u64`) returns a cleared buffer whose
//! capacity is at least the requested size, drawn from a power-of-two
//! size class; a release (`put_u32`/`put_u64`) returns it for reuse.
//! In the steady state of an enact loop every checkout is served from a
//! free list and the `allocations` counter stops moving — the property
//! the zero-allocation integration test asserts.
//!
//! The pool is shared by reference across a launch's tasks (checkout and
//! release are `&self`), so the free lists are mutex-guarded and the
//! statistics are relaxed atomics. Operators check buffers out at bulk
//! "kernel" granularity — a handful of lock acquisitions per advance,
//! never per element — so the mutexes are uncontended in practice.

use crate::budget::{BudgetDenied, MemoryBudget};
use crate::faults::{FaultInjector, FaultKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two size classes. Class `c` holds buffers whose
/// capacity is at least `1 << c`; class 47 covers any allocation a
/// `u32`-indexed graph can produce.
const NUM_CLASSES: usize = 48;

/// Smallest class handed out (capacity 64), so tiny checkouts still
/// produce reusable buffers instead of a fresh micro-allocation each.
const MIN_CLASS: usize = 6;

/// Free buffers retained per class; beyond this a released buffer is
/// dropped so a single huge iteration cannot pin memory forever.
const MAX_PER_CLASS: usize = 16;

/// The size class serving a request for `min_cap` elements: the
/// smallest `c >= MIN_CLASS` with `(1 << c) >= min_cap`.
fn class_for(min_cap: usize) -> usize {
    let wanted = min_cap.max(1).next_power_of_two().trailing_zeros() as usize;
    wanted.clamp(MIN_CLASS, NUM_CLASSES - 1)
}

/// The class a buffer with `capacity` belongs on when released: the
/// largest `c` with `(1 << c) <= capacity`, so a checkout from class
/// `c` always yields capacity `>= 1 << c`.
fn class_of_capacity(capacity: usize) -> usize {
    debug_assert!(capacity > 0);
    let floor = (usize::BITS - 1 - capacity.leading_zeros()) as usize;
    floor.min(NUM_CLASSES - 1)
}

/// Free lists for one element type.
struct TypedPool<T> {
    classes: [Mutex<Vec<Vec<T>>>; NUM_CLASSES],
}

impl<T> TypedPool<T> {
    fn new() -> Self {
        TypedPool { classes: std::array::from_fn(|_| Mutex::new(Vec::new())) }
    }

    /// Pops a pooled buffer of class `class`, if one is free.
    fn pop(&self, class: usize) -> Option<Vec<T>> {
        self.classes[class].lock().pop()
    }

    /// Retains `buf` on its class free list (or drops it when the class
    /// is full). Returns true when the buffer was retained.
    fn push(&self, buf: Vec<T>) -> bool {
        let class = class_of_capacity(buf.capacity());
        let mut list = self.classes[class].lock();
        if list.len() < MAX_PER_CLASS {
            list.push(buf);
            true
        } else {
            false
        }
    }
}

/// Point-in-time view of the pool counters, exported into
/// `gunrock-stats/v1` / `gunrock-bench/v1` rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Fresh heap allocations performed by checkouts that missed the
    /// free lists. Stops growing once the enact loop reaches its steady
    /// state — the pool's reason to exist.
    pub allocations: u64,
    /// Total buffer checkouts (`take_*` calls).
    pub checkouts: u64,
    /// Total buffer releases (`put_*` calls).
    pub releases: u64,
    /// Buffers currently checked out (checkouts minus releases). A
    /// caller that keeps a buffer — e.g. a returned frontier the
    /// algorithm never recycles — holds it live forever.
    pub live: u64,
    /// High-water mark of `live`; monotone non-decreasing.
    pub live_high_water: u64,
    /// Bytes currently checked out (outstanding) — what the memory
    /// budget charges for.
    pub bytes_live: u64,
    /// High-water mark of bytes checked out at once; monotone
    /// non-decreasing.
    pub bytes_high_water: u64,
}

/// Thread-safe, size-classed pool of reusable `u32` and `u64` buffers.
/// One per execution context (`gunrock::Context` owns one), living for
/// the life of the problem.
pub struct BufferPool {
    u32s: TypedPool<u32>,
    u64s: TypedPool<u64>,
    allocations: AtomicU64,
    checkouts: AtomicU64,
    releases: AtomicU64,
    live: AtomicU64,
    live_high_water: AtomicU64,
    bytes_live: AtomicU64,
    bytes_high_water: AtomicU64,
    /// Cap on outstanding bytes; `None` is the unlimited legacy mode.
    budget: Option<Arc<MemoryBudget>>,
    /// Chaos hook for the `pool:alloc` injected-allocation-failure site.
    injector: Option<Arc<FaultInjector>>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// An empty pool; buffers are created lazily on first checkout.
    pub fn new() -> Self {
        BufferPool {
            u32s: TypedPool::new(),
            u64s: TypedPool::new(),
            allocations: AtomicU64::new(0),
            checkouts: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            live: AtomicU64::new(0),
            live_high_water: AtomicU64::new(0),
            bytes_live: AtomicU64::new(0),
            bytes_high_water: AtomicU64::new(0),
            budget: None,
            injector: None,
        }
    }

    /// Caps outstanding (checked-out) bytes at `budget`'s limit: any
    /// `take_*` that would push past it fails as a structured
    /// [`BudgetDenied`] instead of allocating.
    pub fn with_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Installs the chaos injector consulted at the `pool:alloc` site,
    /// so seeded fault schedules can fail checkouts deterministically.
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// In-place variant of [`Self::with_budget`] for a pool already
    /// behind an `Arc` with a single owner (the context builders).
    pub fn install_budget(&mut self, budget: Arc<MemoryBudget>) {
        self.budget = Some(budget);
    }

    /// In-place variant of [`Self::with_injector`].
    pub fn install_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The budget this pool charges, when one is installed.
    pub fn budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.budget.as_ref()
    }

    /// Whether a checkout of `bytes` would currently fit the budget.
    /// Always true for an unbudgeted pool. Advisory — the degradation
    /// ladder uses it to pick a cheaper strategy before committing, but
    /// `take_*` remains the enforcement point.
    pub fn can_reserve(&self, bytes: u64) -> bool {
        self.budget.as_ref().is_none_or(|b| b.can_fit(bytes))
    }

    /// The denial record for a failed `bytes` reservation (limit 0 when
    /// the failure is injected on an unbudgeted pool).
    fn denied(&self, bytes: u64) -> BudgetDenied {
        match &self.budget {
            Some(b) => {
                BudgetDenied { requested: bytes, reserved: b.reserved(), limit: b.limit() }
            }
            None => {
                // ORDERING: Relaxed — monotonic telemetry counter.
                let reserved = self.bytes_live.load(Ordering::Relaxed);
                BudgetDenied { requested: bytes, reserved, limit: 0 }
            }
        }
    }

    fn charge(&self, bytes: u64) -> Result<(), BudgetDenied> {
        match &self.budget {
            Some(b) => b.try_reserve(bytes),
            None => Ok(()),
        }
    }

    fn uncharge(&self, bytes: u64) {
        if let Some(b) = &self.budget {
            b.release(bytes);
        }
    }

    /// The `pool:alloc` chaos gate, consulted before any side effect.
    fn injected_alloc_failure(&self, bytes: u64) -> Result<(), BudgetDenied> {
        match &self.injector {
            Some(inj) if inj.should_fail(FaultKind::PoolAlloc, "pool:alloc") => {
                Err(self.denied(bytes))
            }
            _ => Ok(()),
        }
    }

    fn note_checkout(&self, bytes: u64) {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness, and the high-water updates use fetch_max so
        // they are monotone under any interleaving.
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.live_high_water.fetch_max(live, Ordering::Relaxed);
        let b = self.bytes_live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.bytes_high_water.fetch_max(b, Ordering::Relaxed);
    }

    fn note_release(&self, bytes: u64) {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness. The subtractions saturate at zero: a buffer
        // born outside the pool (an algorithm-built frontier entering via
        // `Context::recycle`) is released without a matching checkout, and
        // wrapping would poison `live` forever.
        self.releases.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
        let _ = self.bytes_live.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(bytes))
        });
    }

    /// Checks out a cleared `u32` buffer with capacity at least
    /// `min_cap`, reusing a pooled one when available.
    ///
    /// Under a budget (or an injected `pool:alloc` fault) a denied
    /// checkout raises a typed [`BudgetDenied`] panic payload; the
    /// operator isolation layer downcasts it into
    /// `GunrockError::BudgetExceeded`, so budget pressure surfaces as a
    /// structured failure, never an allocator abort. Enact loops that
    /// want to degrade instead of fail probe [`BufferPool::can_reserve`]
    /// or call [`BufferPool::try_take_u32`].
    pub fn take_u32(&self, min_cap: usize) -> Vec<u32> {
        match self.try_take_u32(min_cap) {
            Ok(buf) => buf,
            // the typed payload is the structured error path, not an
            // abort: catch_unwind at the operator boundary reclaims it
            Err(denied) => std::panic::panic_any(denied),
        }
    }

    /// Fallible checkout: reports the budget denial instead of raising
    /// it, for callers doing up-front footprint admission.
    pub fn try_take_u32(&self, min_cap: usize) -> Result<Vec<u32>, BudgetDenied> {
        let class = class_for(min_cap);
        let want = (1u64 << class) * std::mem::size_of::<u32>() as u64;
        // both failure gates fire before any side effect
        self.injected_alloc_failure(want)?;
        self.charge(want)?;
        let buf = match self.u32s.pop(class) {
            Some(b) => b,
            None => {
                // ORDERING: Relaxed — monotonic telemetry counter.
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(1 << class)
            }
        };
        let actual = (buf.capacity() * std::mem::size_of::<u32>()) as u64;
        // a donated buffer can exceed its class's base capacity; charge
        // the excess too (put_* credits actual capacity back)
        if actual > want {
            if let Err(denied) = self.charge(actual - want) {
                self.uncharge(want);
                self.u32s.push(buf);
                return Err(denied);
            }
        }
        self.note_checkout(actual);
        Ok(buf)
    }

    /// Returns a `u32` buffer to the pool. The buffer is cleared; its
    /// capacity determines the free list it lands on, so a follow-up
    /// `take_u32` of the same request size gets the same capacity back.
    pub fn put_u32(&self, mut buf: Vec<u32>) {
        if buf.capacity() == 0 {
            return;
        }
        let bytes = (buf.capacity() * std::mem::size_of::<u32>()) as u64;
        self.uncharge(bytes);
        self.note_release(bytes);
        buf.clear();
        self.u32s.push(buf);
    }

    /// Checks out a cleared `u64` buffer with capacity at least
    /// `min_cap`, reusing a pooled one when available. Budget semantics
    /// match [`BufferPool::take_u32`].
    pub fn take_u64(&self, min_cap: usize) -> Vec<u64> {
        match self.try_take_u64(min_cap) {
            Ok(buf) => buf,
            // structured failure path — see take_u32
            Err(denied) => std::panic::panic_any(denied),
        }
    }

    /// Fallible `u64` checkout — see [`BufferPool::try_take_u32`].
    pub fn try_take_u64(&self, min_cap: usize) -> Result<Vec<u64>, BudgetDenied> {
        let class = class_for(min_cap);
        let want = (1u64 << class) * std::mem::size_of::<u64>() as u64;
        self.injected_alloc_failure(want)?;
        self.charge(want)?;
        let buf = match self.u64s.pop(class) {
            Some(b) => b,
            None => {
                // ORDERING: Relaxed — monotonic telemetry counter.
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(1 << class)
            }
        };
        let actual = (buf.capacity() * std::mem::size_of::<u64>()) as u64;
        if actual > want {
            if let Err(denied) = self.charge(actual - want) {
                self.uncharge(want);
                self.u64s.push(buf);
                return Err(denied);
            }
        }
        self.note_checkout(actual);
        Ok(buf)
    }

    /// Returns a `u64` buffer to the pool (cleared, size-classed by
    /// capacity like [`BufferPool::put_u32`]).
    pub fn put_u64(&self, mut buf: Vec<u64>) {
        if buf.capacity() == 0 {
            return;
        }
        let bytes = (buf.capacity() * std::mem::size_of::<u64>()) as u64;
        self.uncharge(bytes);
        self.note_release(bytes);
        buf.clear();
        self.u64s.push(buf);
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        // ORDERING: Relaxed — monotonic telemetry counters; a snapshot is
        // advisory and tolerates momentary staleness between fields.
        PoolStatsSnapshot {
            allocations: self.allocations.load(Ordering::Relaxed),
            checkouts: self.checkouts.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            live_high_water: self.live_high_water.load(Ordering::Relaxed),
            bytes_live: self.bytes_live.load(Ordering::Relaxed),
            bytes_high_water: self.bytes_high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_math() {
        assert_eq!(class_for(0), MIN_CLASS);
        assert_eq!(class_for(1), MIN_CLASS);
        assert_eq!(class_for(64), MIN_CLASS);
        assert_eq!(class_for(65), 7);
        assert_eq!(class_for(100), 7);
        assert_eq!(class_for(128), 7);
        assert_eq!(class_for(129), 8);
        assert_eq!(class_of_capacity(128), 7);
        assert_eq!(class_of_capacity(192), 7);
        assert_eq!(class_of_capacity(256), 8);
    }

    #[test]
    fn take_returns_cleared_buffer_with_requested_capacity() {
        let pool = BufferPool::new();
        let buf = pool.take_u32(100);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 100);
        let big = pool.take_u64(5000);
        assert!(big.capacity() >= 5000);
    }

    #[test]
    fn reuse_after_release_returns_same_capacity() {
        let pool = BufferPool::new();
        let mut buf = pool.take_u32(100);
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        pool.put_u32(buf);
        let again = pool.take_u32(100);
        assert!(again.is_empty(), "pooled buffers come back cleared");
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr, "same allocation reused, not a new one");
        assert_eq!(pool.stats().allocations, 1);
        assert_eq!(pool.stats().checkouts, 2);
    }

    #[test]
    fn distinct_classes_do_not_mix() {
        let pool = BufferPool::new();
        let small = pool.take_u32(10);
        let small_cap = small.capacity();
        pool.put_u32(small);
        // a much larger request must not be served by the small buffer
        let large = pool.take_u32(10_000);
        assert!(large.capacity() >= 10_000);
        assert_ne!(large.capacity(), small_cap);
        assert_eq!(pool.stats().allocations, 2);
    }

    #[test]
    fn foreign_buffer_release_saturates_instead_of_wrapping() {
        let pool = BufferPool::new();
        // a buffer the pool never handed out — recycled in from outside
        pool.put_u32(vec![1, 2, 3]);
        let s = pool.stats();
        assert_eq!(s.releases, 1);
        assert_eq!(s.live, 0, "live clamps at zero, never wraps");
        // the donated buffer is now poolable and checkouts still work
        let buf = pool.take_u32(3);
        assert!(buf.is_empty());
        assert_eq!(pool.stats().live, 1);
    }

    #[test]
    fn zero_capacity_release_is_a_noop() {
        let pool = BufferPool::new();
        pool.put_u32(Vec::new());
        pool.put_u64(Vec::new());
        assert_eq!(pool.stats().releases, 0);
    }

    #[test]
    fn retention_is_bounded_per_class() {
        let pool = BufferPool::new();
        let bufs: Vec<Vec<u32>> = (0..(MAX_PER_CLASS + 4)).map(|_| pool.take_u32(64)).collect();
        for b in bufs {
            pool.put_u32(b);
        }
        // all were released (counted), but only MAX_PER_CLASS retained
        assert_eq!(pool.stats().releases, (MAX_PER_CLASS + 4) as u64);
        let mut reused = 0;
        for _ in 0..(MAX_PER_CLASS + 4) {
            let _ = pool.take_u32(64);
            reused += 1;
        }
        assert_eq!(reused, MAX_PER_CLASS + 4);
        assert_eq!(pool.stats().allocations, (MAX_PER_CLASS + 4 + 4) as u64);
    }

    #[test]
    fn high_water_marks_are_monotone() {
        let pool = BufferPool::new();
        let mut prev = pool.stats();
        let mut held = Vec::new();
        for round in 0..6 {
            for _ in 0..=round {
                held.push(pool.take_u32(256));
            }
            let s = pool.stats();
            assert!(s.live_high_water >= prev.live_high_water);
            assert!(s.bytes_high_water >= prev.bytes_high_water);
            prev = s;
            for b in held.drain(..) {
                pool.put_u32(b);
            }
            let after = pool.stats();
            assert_eq!(after.live, 0);
            assert!(after.live_high_water >= prev.live_high_water, "release never lowers hwm");
        }
        assert_eq!(prev.live_high_water, 6);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let pool = BufferPool::new();
        // warm-up: the working set of a simulated iteration
        for _ in 0..10 {
            let a = pool.take_u32(1000);
            let b = pool.take_u32(1000);
            let c = pool.take_u64(500);
            pool.put_u32(a);
            pool.put_u32(b);
            pool.put_u64(c);
        }
        let warm = pool.stats().allocations;
        for _ in 0..100 {
            let a = pool.take_u32(1000);
            let b = pool.take_u32(1000);
            let c = pool.take_u64(500);
            pool.put_u32(a);
            pool.put_u32(b);
            pool.put_u64(c);
        }
        assert_eq!(pool.stats().allocations, warm, "steady state must not allocate");
    }

    #[test]
    fn snapshot_tracks_outstanding_bytes() {
        let pool = BufferPool::new();
        let a = pool.take_u32(64);
        let b = pool.take_u64(64);
        let outstanding = (a.capacity() * 4 + b.capacity() * 8) as u64;
        assert_eq!(pool.stats().bytes_live, outstanding);
        assert_eq!(pool.stats().bytes_high_water, outstanding);
        pool.put_u32(a);
        pool.put_u64(b);
        assert_eq!(pool.stats().bytes_live, 0);
        assert_eq!(pool.stats().bytes_high_water, outstanding, "hwm survives release");
    }

    #[test]
    fn budget_denies_checkouts_past_the_limit() {
        use crate::budget::MemoryBudget;
        let budget = Arc::new(MemoryBudget::new(64 * 4));
        let pool = BufferPool::new().with_budget(Arc::clone(&budget));
        let a = pool.try_take_u32(64).expect("first checkout fits");
        let denied = pool.try_take_u32(64).expect_err("second checkout exceeds the budget");
        assert_eq!(denied.requested, 64 * 4);
        assert_eq!(denied.limit, 64 * 4);
        assert!(!pool.can_reserve(1));
        // a release frees the reservation and the pool recovers
        pool.put_u32(a);
        assert_eq!(budget.reserved(), 0);
        assert!(pool.can_reserve(64 * 4));
        let b = pool.try_take_u32(64).expect("checkout fits again after release");
        pool.put_u32(b);
        assert!(budget.denials() >= 1);
        assert_eq!(budget.high_water(), 64 * 4);
    }

    #[test]
    fn budget_denial_panics_with_a_typed_payload() {
        use crate::budget::{BudgetDenied, MemoryBudget};
        let pool = BufferPool::new().with_budget(Arc::new(MemoryBudget::new(8)));
        let err = std::panic::catch_unwind(|| pool.take_u32(1024))
            .expect_err("over-budget take must raise");
        let denied = err.downcast_ref::<BudgetDenied>().expect("typed payload");
        assert_eq!(denied.limit, 8);
        assert!(denied.requested > 8);
    }

    #[test]
    fn injected_pool_alloc_fault_fails_checkouts_deterministically() {
        use crate::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::none(7).with_rate(FaultKind::PoolAlloc, 1.0);
        let pool = BufferPool::new().with_injector(Arc::new(FaultInjector::new(plan)));
        assert!(pool.try_take_u32(64).is_err(), "rate 1.0 fails every checkout");
        // the failure happens before any side effect: nothing was
        // charged, allocated, or counted
        let s = pool.stats();
        assert_eq!(s.allocations, 0);
        assert_eq!(s.checkouts, 0);
        assert_eq!(s.bytes_live, 0);
    }

    #[test]
    fn concurrent_checkout_is_race_free() {
        use crate::par;
        let pool = BufferPool::new();
        // every worker repeatedly checks out, fills, verifies, releases;
        // under the racecheck feature the UnsafeSlice-free design still
        // exercises the mutex paths from many threads at once
        par::for_each(0..64u32, |i| {
            for round in 0..50 {
                let mut buf = pool.take_u32(64 + (i as usize * 7) % 512);
                buf.push(i);
                buf.push(round);
                assert_eq!(buf[0], i);
                assert_eq!(buf[1], round);
                pool.put_u32(buf);
            }
        });
        let s = pool.stats();
        assert_eq!(s.checkouts, 64 * 50);
        assert_eq!(s.releases, 64 * 50);
        assert_eq!(s.live, 0);
        assert!(s.allocations <= s.checkouts);
        assert!(s.live_high_water >= 1);
    }
}
