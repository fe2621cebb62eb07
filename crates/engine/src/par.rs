//! The engine's one parallel loop: every data-parallel pass — an
//! operator's launch, a scan's phases, a baseline's sweep — goes through
//! these functions, the CPU stand-in for a kernel launch over a grid.
//!
//! A launch is a sequence of *tasks* that the caller builds with plain
//! std iterators (`a.chunks_mut(g).zip(b.chunks_mut(g)).enumerate()`,
//! [`crate::config::id_blocks`], a lane map's block walks) and a closure
//! that takes one task by value. Each task goes to exactly one call, so
//! disjoint `&mut` chunks stay safe without `unsafe`. The bounds are
//! those of a multi-threaded executor — tasks and results `Send`,
//! closures `Fn + Sync` — and the launch returns only when every task
//! has run, the kernel boundary of DESIGN §5. This driver runs the
//! tasks in order on the calling thread.
//!
//! [`threads`] is the worker count that chunk-size heuristics divide
//! work by: the machine's available parallelism, read once per process,
//! or the count of the innermost [`with_threads`] scope.

use std::cell::Cell;
use std::sync::OnceLock;

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
/// sizes follow a chosen worker count; the outer count is restored on
/// exit, even on panic. Panics if `n` is 0.
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
    tasks.into_iter().for_each(f);
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
    tasks.into_iter().map(map).fold(identity, op)
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
    out.extend(tasks.into_iter().map(map));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_task_runs_exactly_once_in_order() {
        let log = Mutex::new(Vec::new());
        for_each(0..100u32, |t| log.lock().unwrap().push(t));
        assert_eq!(log.into_inner().unwrap(), (0..100).collect::<Vec<_>>());
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
