//! Bounded job queue with explicit backpressure.
//!
//! The serving layer (DESIGN.md §9) admits work through a fixed-capacity
//! queue: producers get an immediate structured rejection when the queue
//! is full instead of growing an unbounded backlog, and consumers block
//! until an item arrives or the queue is closed and drained. The queue is
//! multi-producer/multi-consumer and deliberately simple — a mutexed
//! `VecDeque` plus a condvar — because capacities are small (tens of
//! jobs) and the work items themselves run for milliseconds to seconds.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a [`BoundedQueue::try_push`] was refused. The rejected item rides
/// along so the caller can respond to it without cloning.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; retry after backoff.
    Full(T),
    /// The queue has been closed; no further work is admitted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity MPMC queue: `try_push` never blocks (it rejects when
/// full), `pop` blocks until an item arrives or the queue is closed and
/// empty.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items
    /// (capacity 0 is clamped to 1 so the queue stays usable).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// A panic while holding the lock poisons it; the queue state is a
    /// plain VecDeque that cannot be left mid-invariant, so recover the
    /// guard instead of propagating the poison (matches the vendored
    /// parking_lot semantics used elsewhere).
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to enqueue without blocking. Returns the item wrapped in
    /// [`PushError::Full`] when at capacity (backpressure: the caller
    /// responds with retry-after) or [`PushError::Closed`] after
    /// [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns
    /// `None` once the queue is closed **and** drained — the worker exit
    /// signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes are rejected, blocked consumers
    /// wake, and `pop` returns the remaining backlog before yielding
    /// `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current number of queued (not yet popped) items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Backpressure hint for a rejected request: how long the client should
/// wait before retrying, in milliseconds.
///
/// Two failure modes of a constant hint, both fixed here:
///
/// * **load-blindness** — a queue rejecting at depth 1 (a momentary
///   blip) and a queue buried under a full backlog handed out the same
///   number, so clients hammered an overloaded server exactly as hard
///   as a healthy one. The hint now scales linearly with observed load:
///   `base/2` when the queue was empty up to `2·base` when rejection
///   happened at full depth.
/// * **thundering herd** — every client rejected in the same instant got
///   the same hint and retried in the same instant, re-creating the
///   collision. A deterministic per-request jitter in `[0, base/2)`
///   (derived from `salt`, typically the request id) spreads the herd
///   without making responses nondeterministic for a given request.
///
/// Bounds: for `base > 0` the hint is always in `[base/2, 2·base +
/// base/2)`, and never 0 — a 0 hint reads as "retry immediately".
pub fn retry_after_hint(base_ms: u64, depth: usize, capacity: usize, salt: u64) -> u64 {
    let load = match capacity {
        0 => 1.0,
        // CAST: queue depths are small (tens); f64 is exact here.
        _ => (depth as f64 / capacity as f64).clamp(0.0, 1.0),
    };
    // CAST: base_ms is a config knob (tens to thousands); f64 is exact.
    let scaled = (base_ms as f64) * (0.5 + 1.5 * load);
    // SplitMix64 finalizer: cheap, deterministic per-salt spread.
    let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let jitter = match base_ms / 2 {
        0 => 0,
        half => z % half,
    };
    // CAST: scaled <= 2*base_ms, well inside u64.
    (scaled as u64).saturating_add(jitter).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_is_rejected_not_queued() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let err = q.try_push(3).unwrap_err();
        assert!(matches!(err, PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(7).unwrap();
        assert!(q.try_push(8).is_err());
    }

    #[test]
    fn close_rejects_pushes_and_drains_backlog() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        let err = q.try_push(2).unwrap_err();
        assert!(matches!(err, PushError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // idempotent after drain
    }

    #[test]
    fn retry_hint_is_bounded_and_load_proportional() {
        let base = 100;
        for depth in 0..=16usize {
            for salt in 0..64u64 {
                let hint = retry_after_hint(base, depth, 16, salt);
                assert!(
                    (base / 2..base * 2 + base / 2).contains(&hint),
                    "depth {depth} salt {salt}: hint {hint} out of bounds"
                );
            }
        }
        // load-proportional: an empty queue's hint (pre-jitter 50) can
        // never reach a full queue's floor (pre-jitter 200)
        let idle_max = (0..64).map(|s| retry_after_hint(base, 0, 16, s)).max().unwrap();
        let full_min = (0..64).map(|s| retry_after_hint(base, 16, 16, s)).min().unwrap();
        assert!(idle_max < full_min, "idle {idle_max} must undercut full {full_min}");
    }

    #[test]
    fn retry_hint_jitter_spreads_the_herd_deterministically() {
        let hints: Vec<u64> = (0..32).map(|s| retry_after_hint(200, 8, 16, s)).collect();
        let again: Vec<u64> = (0..32).map(|s| retry_after_hint(200, 8, 16, s)).collect();
        assert_eq!(hints, again, "same salt, same hint");
        let distinct: std::collections::HashSet<u64> = hints.iter().copied().collect();
        assert!(distinct.len() > 16, "expected spread, got {distinct:?}");
    }

    #[test]
    fn retry_hint_never_tells_a_client_to_retry_immediately() {
        assert!(retry_after_hint(0, 8, 16, 3) >= 1);
        assert!(retry_after_hint(1, 0, 16, 0) >= 1);
        assert!(retry_after_hint(100, 8, 0, 9) >= 1, "capacity 0 treated as full load");
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = qc.pop() {
                got.push(v);
            }
            got
        });
        for v in 0..8 {
            // retry when the slow consumer lets the queue fill up
            let mut item = v;
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("queue closed early"),
                }
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
