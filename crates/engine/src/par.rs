//! The engine's one parallel loop: every data-parallel pass — an
//! operator's launch, a scan's phases, a baseline's sweep — goes through
//! these functions, the CPU stand-in for a kernel launch over a grid.
//!
//! A launch is a sequence of *tasks* that the caller builds with plain
//! std iterators (`a.chunks_mut(g).zip(b.chunks_mut(g)).enumerate()`,
//! [`crate::config::id_blocks`], a lane map's block walks) and a closure
//! that takes one task by value. Each task goes to exactly one call, so
//! disjoint `&mut` chunks stay safe without `unsafe`. Tasks and results
//! are `Send` and closures `Fn + Sync`, and the launch returns only when
//! every task has run — the kernel boundary of DESIGN §5: whatever a
//! task wrote is visible to the launching thread when the launch returns.
//!
//! **Execution.** The launching thread runs tasks in order. Once it has
//! spent [`WIDEN_AFTER`] in one launch, and the tasks left would take as
//! long again at the pace so far, it offers them to a process-wide pool
//! and keeps working beside it. Tasks then run in any order, on any
//! thread, but each still runs exactly once, and the results of
//! [`map_reduce`] and [`collect_into`] are still folded in task order.
//! The pool has one helper per CPU in the process's affinity mask,
//! spawned at the first launch that widens. Each helper pins itself to its
//! CPU and parks on a condvar between launches; the helper on the
//! launcher's CPU sits the launch out. Unpinned helpers would help nothing
//! on a host whose scheduler never moves a thread off its spawner's CPU
//! (EXPERIMENTS.md, "Real threads behind par").
//!
//! A launch runs wholly inline when [`threads`] is 1, when it is under
//! the gate, when it is made from inside a task (tasks run as if in
//! `with_threads(1)`), or when another launch holds the pool — so two
//! server workers never oversubscribe it. A panic in any task reaches the
//! launcher once every participant has left the launch, and the pool
//! stays usable.
//!
//! [`threads`] is the worker count that chunk-size heuristics divide
//! work by, and a launch's width: the machine's available parallelism,
//! read once per process, or the count of the innermost [`with_threads`]
//! scope.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Inline work after which a launch widens: one wake round trip to a
/// parked helper on the other CPU (median 25 µs on a 2-vCPU VM,
/// EXPERIMENTS.md). A launch that ends sooner gains nothing from a helper
/// that has not woken yet.
const WIDEN_AFTER: Duration = Duration::from_micros(25);

thread_local! {
    /// Thread count of the innermost [`with_threads`] scope, if any.
    static SCOPED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count a launch divides its work by: the innermost
/// [`with_threads`] scope's, else the machine's available parallelism.
/// That is read once per process: `available_parallelism` reads cgroup
/// files on every call, which costs microseconds per operator.
pub fn threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    SCOPED.with(Cell::get).unwrap_or_else(|| {
        *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Runs `f` with [`threads`] reporting `n` on this thread, so chunk
/// sizes and launch widths follow a chosen worker count (`n = 1` runs
/// every launch on this thread); the outer count is restored on exit,
/// even on panic. Panics if `n` is 0.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    assert!(n > 0, "a thread scope needs at least one thread");
    let _outer = Restore(SCOPED.with(|s| s.replace(Some(n))));
    f()
}

/// Runs `f` once on every task.
#[inline]
pub fn for_each<I, F>(tasks: I, f: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    drive(tasks, f, (), |(), ()| (), WIDEN_AFTER);
}

/// Maps every task and folds the results in task order, starting from
/// `identity` — so `op` need only be associative — and returns
/// `identity` when there are no tasks.
#[inline]
pub fn map_reduce<I, T, M, O>(tasks: I, identity: T, map: M, op: O) -> T
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    M: Fn(I::Item) -> T + Sync,
    O: Fn(T, T) -> T + Sync,
{
    drive(tasks, map, identity, op, WIDEN_AFTER)
}

/// Maps every task into `out`, one result per task in task order:
/// `out` is overwritten and its capacity reused.
#[inline]
pub fn collect_into<I, R, M>(tasks: I, map: M, out: &mut Vec<R>)
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    M: Fn(I::Item) -> R + Sync,
{
    out.clear();
    drive(tasks, map, (), |(), r| out.push(r), WIDEN_AFTER);
}

/// The one launch: maps every task and folds the results into `acc` in
/// task order. Runs inline, and widens to the pool once it has run for
/// `widen_after` and the tasks left look as long. Tasks run as if in
/// `with_threads(1)`, so a launch from inside one runs inline.
fn drive<I, R, A>(
    tasks: I,
    map: impl Fn(I::Item) -> R + Sync,
    mut acc: A,
    mut fold: impl FnMut(A, R) -> A,
    widen_after: Duration,
) -> A
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
{
    let mut tasks = tasks.into_iter();
    let width = threads();
    if cfg!(miri) || width == 1 {
        return tasks.map(map).fold(acc, fold);
    }
    let total = tasks.size_hint().1;
    let start = Instant::now();
    let (acc, widened) = with_threads(1, || {
        let (mut done, mut timed) = (0usize, true);
        for task in tasks.by_ref() {
            acc = fold(acc, map(task));
            done += 1;
            // the clock is read after tasks 1, 2, 4, 8, …: a read costs
            // about as much as a small task
            if !timed || !done.is_power_of_two() {
                continue;
            }
            let spent = start.elapsed();
            if spent >= widen_after {
                // widen only if the tasks left, at the pace so far, would
                // also take that long; else finish inline, untimed
                let left = total.map_or(usize::MAX, |t| t.saturating_sub(done)) as u128;
                if spent.as_nanos() * left >= widen_after.as_nanos() * done as u128 {
                    return (acc, true);
                }
                timed = false;
            }
        }
        (acc, false)
    });
    if widened {
        widen(tasks, width, &map, acc, fold)
    } else {
        acc
    }
}

/// Runs the tasks `rest` holds on up to `width` threads, this one and
/// the pool's, when the pool is free and at least two tasks are left;
/// inline otherwise.
#[cold]
fn widen<T: Send, R: Send, A>(
    rest: impl Iterator<Item = T>,
    width: usize,
    map: &(impl Fn(T) -> R + Sync),
    acc: A,
    fold: impl FnMut(A, R) -> A,
) -> A {
    let tasks = Slots(rest.map(|t| UnsafeCell::new(Some(t))).collect());
    let len = tasks.0.len();
    let Some(pool) = (len > 1).then(Pool::claim).flatten() else {
        return with_threads(1, || tasks.into_values().map(map).fold(acc, fold));
    };
    let job = Job {
        results: Slots((0..len).map(|_| UnsafeCell::new(None)).collect()),
        tasks,
        map,
        cursor: AtomicUsize::new(0),
        run: (len / (8 * width)).max(1),
        panic: Mutex::new(None),
    };
    pool.run(width - 1, &|| with_threads(1, || job.work()));
    let Job { results, panic, .. } = job;
    if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    results.into_values().fold(acc, fold)
}

/// One value per task index, moved in or out by the one participant the
/// job's cursor gave that index to.
struct Slots<T>(Box<[UnsafeCell<Option<T>>]>);

// SAFETY: a slot is touched only by `take` / `put`, whose callers hold
// its index exclusively (claimed from the job's cursor), and `T: Send`
// lets the value move to the claiming thread. The box itself is only
// read while shared.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Moves the value out of slot `i`.
    ///
    /// # Safety
    /// No other thread touches slot `i` during the call.
    unsafe fn take(&self, i: usize) -> Option<T> {
        // SAFETY: exclusive access to slot `i` is the caller's contract.
        unsafe { (*self.0[i].get()).take() }
    }

    /// Moves `value` into slot `i`.
    ///
    /// # Safety
    /// No other thread touches slot `i` during the call.
    unsafe fn put(&self, i: usize, value: T) {
        // SAFETY: exclusive access to slot `i` is the caller's contract.
        unsafe { *self.0[i].get() = Some(value) }
    }

    /// The values still held, in index order.
    fn into_values(self) -> impl Iterator<Item = T> {
        self.0.into_vec().into_iter().filter_map(UnsafeCell::into_inner)
    }
}

/// One widened launch: its tasks, one result slot per task, and the
/// cursor that hands out runs of task indices.
struct Job<'m, T, R, M> {
    tasks: Slots<T>,
    results: Slots<R>,
    map: &'m M,
    cursor: AtomicUsize,
    /// Task indices claimed per cursor step.
    run: usize,
    /// The first panic a participant caught.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, M: Fn(T) -> R> Job<'_, T, R, M> {
    /// One participant's share: claims runs of tasks until none is left.
    /// A panic ends the claiming for every participant and is kept for
    /// the launcher to resume.
    fn work(&self) {
        let len = self.tasks.0.len();
        let claimed = catch_unwind(AssertUnwindSafe(|| loop {
            // ORDERING: Relaxed — the cursor only partitions indices: the
            // tasks were published to each helper by its seat lock when the
            // job was posted, and the results return by the same lock.
            let first = self.cursor.fetch_add(self.run, Ordering::Relaxed);
            if first >= len {
                break;
            }
            for i in first..len.min(first + self.run) {
                // SAFETY: `fetch_add` gave this participant the run
                // `first..first + run` alone, so no other thread touches
                // task or result slot `i`.
                unsafe {
                    if let Some(task) = self.tasks.take(i) {
                        self.results.put(i, (self.map)(task));
                    }
                }
            }
        }));
        if let Err(payload) = claimed {
            // ORDERING: Relaxed — an early stop only; the payload travels
            // under the mutex below.
            self.cursor.store(len, Ordering::Relaxed);
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
    }
}

/// Set while one launch holds the pool.
static BUSY: AtomicBool = AtomicBool::new(false);

/// The helpers, one per CPU of the process's affinity mask.
struct Pool {
    helpers: &'static [Helper],
}

impl Pool {
    /// The pool, spawned on first use, if no other launch holds it; the
    /// caller must [`Pool::run`] exactly once, which releases it.
    fn claim() -> Option<&'static Pool> {
        // ORDERING: Acquire on success pairs with the Release store at the
        // end of `run`: a launcher that claims the pool starts after the
        // previous holder has reset every seat it used.
        BUSY.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).ok()?;
        static POOL: OnceLock<Pool> = OnceLock::new();
        Some(POOL.get_or_init(Pool::spawn))
    }

    fn spawn() -> Pool {
        let cpus = placement::cpus();
        let seats: Vec<Option<usize>> = if cpus.is_empty() {
            vec![None; std::thread::available_parallelism().map_or(1, |n| n.get())]
        } else {
            cpus.into_iter().map(Some).collect()
        };
        let helpers: &'static [Helper] = Box::leak(
            seats
                .into_iter()
                .map(|cpu| Helper { cpu, seat: Mutex::new(Seat::Idle), bell: Condvar::new() })
                .collect(),
        );
        for (i, helper) in helpers.iter().enumerate() {
            // The helpers serve for the life of the process, so their
            // handles are dropped. A helper that fails to spawn never takes
            // a job: `Helper::join` revokes what it was posted.
            let _ = std::thread::Builder::new()
                .name(format!("gunrock-par-{i}"))
                .spawn(move || helper.serve());
        }
        Pool { helpers }
    }

    /// Runs `work` on this thread and on up to `helpers` helpers off this
    /// thread's CPU, returns once every helper has left it, and releases
    /// the pool. `work` must not unwind.
    fn run(&self, helpers: usize, work: &(dyn Fn() + Sync)) {
        // SAFETY: only the lifetime changes. Every helper posted below is
        // joined before this function returns, and a joined helper no
        // longer holds the pointer, so `work` outlives every call made
        // through it.
        let job = JobRef(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync)>(work)
        });
        let here = placement::current();
        let seats =
            || self.helpers.iter().filter(|h| h.cpu.is_none() || h.cpu != here).take(helpers);
        seats().for_each(|h| h.post(job));
        work();
        seats().for_each(Helper::join);
        // ORDERING: Release pairs with `claim`'s Acquire (see there).
        BUSY.store(false, Ordering::Release);
    }
}

/// A posted job: a lifetime-erased pointer to the launcher's `work`.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync`, so calling it from a helper is sound;
// `Pool::run` keeps it alive until every helper it was posted to has
// been joined.
unsafe impl Send for JobRef {}

/// A helper's seat: the launch it is offered or running.
enum Seat {
    Idle,
    Posted(JobRef),
    Running,
    Done,
}

/// One pool thread, pinned to `cpu` when there is one.
struct Helper {
    cpu: Option<usize>,
    seat: Mutex<Seat>,
    bell: Condvar,
}

impl Helper {
    fn seat(&self) -> MutexGuard<'_, Seat> {
        // every update leaves a valid seat, so a poisoned lock is usable
        self.seat.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's life: pin, then run each posted job as it comes.
    fn serve(&self) {
        if let Some(cpu) = self.cpu {
            placement::pin(cpu);
        }
        loop {
            let job = {
                let mut seat = self.seat();
                loop {
                    if let Seat::Posted(job) = *seat {
                        *seat = Seat::Running;
                        break job;
                    }
                    seat = self.bell.wait(seat).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // SAFETY: the launcher that posted `job` waits in `join` while
            // this seat is Running, so `job` points at a live closure; the
            // closure catches its tasks' panics, so it returns here.
            unsafe { (*job.0)() };
            *self.seat() = Seat::Done;
            self.bell.notify_one();
        }
    }

    /// Offers `job` to this helper.
    fn post(&self, job: JobRef) {
        *self.seat() = Seat::Posted(job);
        self.bell.notify_one();
    }

    /// Waits until this helper has left the posted job (revoking it if
    /// the helper never took it) and resets the seat. A helper still
    /// running is most often inside its last task, so the launcher polls
    /// the seat for up to [`WIDEN_AFTER`] before it parks: parking costs a
    /// wake round trip, which is that long.
    fn join(&self) {
        let start = Instant::now();
        let mut seat = self.seat();
        while let Seat::Running = *seat {
            if start.elapsed() < WIDEN_AFTER {
                drop(seat);
                (0..64).for_each(|_| std::hint::spin_loop());
                seat = self.seat();
            } else {
                seat = self.bell.wait(seat).unwrap_or_else(PoisonError::into_inner);
            }
        }
        *seat = Seat::Idle;
    }
}

/// Where the helpers run: glibc's affinity calls on Linux.
#[cfg(all(target_os = "linux", not(miri)))]
mod placement {
    /// 64-bit words in glibc's `cpu_set_t` (1 024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The CPUs in the process's affinity mask; empty when it cannot be
    /// read.
    pub(super) fn cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        let pid = i32::try_from(std::process::id()).unwrap_or(0);
        // SAFETY: `mask` is a writable buffer of the size passed.
        let read = unsafe { sched_getaffinity(pid, size_of_val(&mask), mask.as_mut_ptr()) };
        if read != 0 {
            return Vec::new();
        }
        (0..WORDS * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
    }

    /// Pins the calling thread to `cpu`; a refusal leaves it unpinned.
    pub(super) fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word = 1 << (cpu % 64);
            // SAFETY: `mask` is a readable buffer of the size passed, and
            // pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
        }
    }

    /// The CPU the calling thread is running on.
    pub(super) fn current() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }
}

/// Where the helpers run: anywhere, elsewhere.
#[cfg(not(all(target_os = "linux", not(miri))))]
mod placement {
    pub(super) fn cpus() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn pin(_cpu: usize) {}

    pub(super) fn current() -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// `for_each` that widens after its first task, so a test reaches the
    /// pool without spending the gate's time.
    fn for_each_wide<I>(tasks: I, f: impl Fn(I::Item) + Sync)
    where
        I: IntoIterator,
        I::Item: Send,
    {
        drive(tasks, f, (), |(), ()| (), Duration::ZERO);
    }

    #[test]
    fn every_task_runs_exactly_once_in_order() {
        // one thread is the only width that orders side effects
        let log = Mutex::new(Vec::new());
        with_threads(1, || for_each_wide(0..100u32, |t| log.lock().unwrap().push(t)));
        assert_eq!(log.into_inner().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once_at_any_width() {
        for width in [1, 2, 4] {
            let runs: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
            with_threads(width, || {
                for_each_wide(runs.iter(), |r| {
                    r.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{width} threads");
        }
    }

    #[test]
    fn results_keep_task_order_under_contention() {
        for width in [2, 4] {
            with_threads(width, || {
                let s = drive(
                    0..500u32,
                    |t| t.to_string(),
                    String::new(),
                    |a, b| a + &b + ",",
                    Duration::ZERO,
                );
                let want: String = (0..500).map(|t| format!("{t},")).collect();
                assert_eq!(s, want, "{width} threads");
                let mut out = Vec::new();
                drive(0..500u64, |t| t * t, (), |(), r| out.push(r), Duration::ZERO);
                assert_eq!(out, (0..500u64).map(|t| t * t).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_pool_survives() {
        for width in [2, 4] {
            with_threads(width, || {
                let ran = AtomicUsize::new(0);
                let caught = std::panic::catch_unwind(|| {
                    for_each_wide(0..64u32, |t| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        assert_ne!(t, 40, "task {t} fails");
                    })
                });
                let payload = caught.expect_err("the panic must reach the launcher");
                let msg = payload.downcast_ref::<String>().expect("a formatted message");
                assert!(msg.contains("task 40 fails"), "{msg}");
                assert!(ran.load(Ordering::Relaxed) <= 64);
                let sum = drive(0..64u64, |t| t, 0, |a, b| a + b, Duration::ZERO);
                assert_eq!(sum, 64 * 63 / 2, "the next launch still works");
            });
        }
    }

    #[test]
    fn a_nested_launch_runs_inline() {
        with_threads(2, || {
            let outer = Mutex::new(Vec::new());
            for_each_wide(0..16u32, |_| {
                let me = thread::current().id();
                let inner = Mutex::new(Vec::new());
                for_each_wide(0..8u32, |_| inner.lock().unwrap().push(thread::current().id()));
                assert!(inner.into_inner().unwrap().iter().all(|&t| t == me));
                outer.lock().unwrap().push(me);
            });
            assert_eq!(outer.into_inner().unwrap().len(), 16);
        });
    }

    /// Whether `cond` holds before `limit` runs out, yielding meanwhile.
    fn within(limit: Duration, cond: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while !cond() {
            if start.elapsed() > limit {
                return false;
            }
            thread::yield_now();
        }
        true
    }

    #[test]
    fn a_launch_while_the_pool_is_busy_runs_inline() {
        if cfg!(miri) || threads() < 2 {
            return;
        }
        // Thread A holds the pool in a wide launch whose tasks wait for
        // `go`; once one of them runs on a helper (so A's launch holds the
        // pool), this thread launches and must run alone. Another test's
        // launch can hold the pool first, leaving A inline: then retry.
        for _attempt in 0..50 {
            let (helped, go) = (AtomicBool::new(false), AtomicBool::new(false));
            let busy_launch_ran_inline = thread::scope(|s| {
                let a = s.spawn(|| {
                    let launcher = thread::current().id();
                    with_threads(2, || {
                        // task 0 runs before the launch widens
                        for_each_wide(0..3u32, |t| {
                            if t == 0 {
                                return;
                            }
                            if thread::current().id() != launcher {
                                helped.store(true, Ordering::SeqCst);
                            }
                            within(Duration::from_secs(5), || go.load(Ordering::SeqCst));
                        })
                    })
                });
                let held = within(Duration::from_millis(200), || helped.load(Ordering::SeqCst));
                let verdict = held.then(|| {
                    let me = thread::current().id();
                    let seen = Mutex::new(Vec::<ThreadId>::new());
                    with_threads(2, || {
                        for_each_wide(0..32u32, |_| seen.lock().unwrap().push(me))
                    });
                    let seen = seen.into_inner().unwrap();
                    seen.len() == 32 && seen.iter().all(|&t| t == me)
                });
                go.store(true, Ordering::SeqCst);
                a.join().unwrap();
                verdict
            });
            if let Some(inline) = busy_launch_ran_inline {
                assert!(inline, "a launch beside a busy pool must run on its own thread");
                return;
            }
        }
        panic!("no attempt got the pool");
    }

    #[test]
    fn one_thread_never_touches_the_pool() {
        let me = thread::current().id();
        let seen = Mutex::new(Vec::new());
        with_threads(1, || {
            for_each_wide(0..64u32, |_| seen.lock().unwrap().push(thread::current().id()))
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 64);
        assert!(seen.iter().all(|&t| t == me));
    }

    #[test]
    fn disjoint_mut_chunks_zip_and_mutate() {
        // each &mut chunk is handed to one call by value
        let mut a = vec![0u32; 10];
        let b: Vec<u32> = (10..20).collect();
        for_each(a.chunks_mut(3).zip(b.chunks(3)), |(x, y)| x.copy_from_slice(y));
        assert_eq!(a, b);
    }

    #[test]
    fn an_empty_task_source_runs_nothing() {
        let calls = AtomicUsize::new(0);
        let count = |t: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            t
        };
        for_each(std::iter::empty(), |t| {
            count(t);
        });
        let mut out = vec![9u32];
        collect_into(std::iter::empty(), count, &mut out);
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn map_reduce_uses_the_identity_and_task_order() {
        assert_eq!(map_reduce(0..0u32, 7u64, u64::from, |a, b| a + b), 7);
        assert_eq!(map_reduce([1u32, 2, 3, 4], 0, |x| x, |a, b| a + b), 10);
        // a non-commutative op sees the results in task order
        let s = map_reduce(["a", "b", "c"], String::new(), String::from, |a, b| a + &b);
        assert_eq!(s, "abc");
    }

    #[test]
    fn chunk_tasks_cover_the_slice() {
        let v: Vec<u32> = (0..10).collect();
        assert_eq!(map_reduce(v.chunks(3), 0, <[u32]>::len, |a, b| a + b), 10);
        assert_eq!(map_reduce(v.chunks(3), 0, |c| c.iter().sum(), |a, b| a + b), 45);
    }

    #[test]
    fn collect_into_maps_borrowed_slice_tasks() {
        let v = vec![1u32, 2, 3];
        let mut doubled = Vec::new();
        collect_into(&v, |&x| x * 2, &mut doubled);
        assert_eq!(doubled, [2, 4, 6]);
    }

    #[test]
    fn collect_into_keeps_task_order_and_reuses_capacity() {
        let mut out: Vec<u64> = Vec::with_capacity(64);
        out.extend([5, 6, 7]);
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        collect_into(0..5u64, |t| t * t, &mut out);
        assert_eq!(out, [0, 1, 4, 9, 16]);
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap));
    }

    #[test]
    fn with_threads_nests_and_restores_the_outer_count_after_a_panic() {
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            assert_eq!(with_threads(5, threads), 5);
            assert_eq!(threads(), 3);
            let inner = std::panic::catch_unwind(|| with_threads(2, || panic!("in scope")));
            assert!(inner.is_err());
            assert_eq!(threads(), 3);
        });
        assert!(std::panic::catch_unwind(|| with_threads(8, || panic!("in scope"))).is_err());
        assert_eq!(threads(), outer);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn with_threads_rejects_a_zero_count() {
        with_threads(0, || ());
    }

    #[test]
    fn threads_outside_a_scope_is_the_machine_parallelism_on_every_thread() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads(), machine);
        let other = with_threads(4, || std::thread::spawn(threads).join().unwrap());
        assert_eq!(other, machine, "a scope is per thread");
    }
}
