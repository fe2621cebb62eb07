//! Two-level priority queue (§4.1.1): Gunrock's generalization of
//! Davidson et al.'s near-far worklists.
//!
//! "Allowing user-defined priority functions to organize an output
//! frontier into 'near' and 'far' slices. [...] Gunrock then considers
//! only the near slice in the next processing steps, adding any new
//! elements that do not pass the near criterion into the far slice, until
//! the near slice is exhausted. We then update the priority function and
//! operate on the far slice."
//!
//! The split is a frontier manipulation — precisely the operation the
//! paper argues GAS abstractions cannot express. Both halves run as one
//! in-place pass: [`NearFarQueue::split`] compacts the near slice inside
//! the frontier it is handed and appends the rest to the far pile, and
//! [`NearFarQueue::refill`] compacts the far pile in place while it moves
//! the next window's elements that the caller's claim admits into a
//! pooled buffer. Only the far pile itself grows outside the pool,
//! amortized.

use gunrock_engine::frontier::Frontier;
use gunrock_engine::pool::BufferPool;

/// A near-far pile with a sliding priority window of width `delta`
/// (delta-stepping when priorities are tentative distances).
#[derive(Clone, Debug)]
pub struct NearFarQueue {
    far: Vec<u32>,
    delta: u32,
    /// Elements with priority < `pivot` are near.
    pivot: u32,
}

impl NearFarQueue {
    /// Creates a queue whose first near window is `[0, delta)`.
    pub fn new(delta: u32) -> Self {
        assert!(delta > 0, "delta must be positive");
        // ALLOC-OK(an empty Vec holds no heap storage; the far pile grows
        // amortized across the run)
        NearFarQueue { far: Vec::new(), delta, pivot: delta }
    }

    /// Current near/far boundary.
    pub fn pivot(&self) -> u32 {
        self.pivot
    }

    /// The window width the queue was created with.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// The parked far-pile elements in insertion order (checkpointing).
    pub fn far_slice(&self) -> &[u32] {
        &self.far
    }

    /// Rebuilds a queue from checkpointed state: the window width, the
    /// pivot at snapshot time, and the parked far pile.
    pub fn restore(delta: u32, pivot: u32, far: Vec<u32>) -> Self {
        assert!(delta > 0, "delta must be positive");
        NearFarQueue { far, delta, pivot }
    }

    /// Splits a frontier by the priority function: elements with
    /// `priority < pivot` stay in the frontier's own storage, in order,
    /// and are returned as the near frontier; the rest are appended to the
    /// far pile. Each priority is read as its element is routed, after the
    /// operator that built the frontier has finished: a vertex improved
    /// twice in that operator is routed by its final priority.
    pub fn split<P>(&mut self, frontier: Frontier, priority: P) -> Frontier
    where
        P: Fn(u32) -> u32,
    {
        let (far, pivot) = (&mut self.far, self.pivot);
        let mut items = frontier.into_vec();
        items.retain(|&v| {
            let near = priority(v) < pivot;
            if !near {
                far.push(v);
            }
            near
        });
        Frontier::from_vec(items)
    }

    /// Called when the near slice is exhausted: advances the priority
    /// window until some far elements qualify, returning them as the new
    /// near frontier in a buffer checked out of `pool`. Elements whose
    /// priority has meanwhile dropped below the *old* pivot are stale (the
    /// relaxation that lowered them also re-enqueued them) and are
    /// dropped. A qualifying element enters the window only when `claim`
    /// admits it, so a caller whose claim succeeds once per element (a
    /// tag swap to a fresh id) gets an element parked k times back once,
    /// not k times; the rest leave the pile with it. Each window is one
    /// in-place pass over the far pile. Returns an empty frontier when
    /// the far pile is exhausted too — convergence.
    pub fn refill<P, C>(&mut self, pool: &BufferPool, priority: P, claim: C) -> Frontier
    where
        P: Fn(u32) -> u32,
        C: Fn(u32) -> bool,
    {
        if self.far.is_empty() {
            return Frontier::new();
        }
        let mut near = pool.take_u32(self.far.len());
        while !self.far.is_empty() {
            let (old_pivot, pivot) = (self.pivot, self.pivot.saturating_add(self.delta));
            self.pivot = pivot;
            self.far.retain(|&v| {
                let p = priority(v);
                if p < pivot && p >= old_pivot && claim(v) {
                    near.push(v);
                }
                p >= pivot
            });
            if !near.is_empty() {
                return Frontier::from_vec(near);
            }
            if pivot == u32::MAX {
                // priorities saturated: everything left is unreachable
                self.far.clear();
            }
        }
        pool.put_u32(near);
        Frontier::new()
    }

    /// True when both piles are empty and no refill can produce work.
    pub fn is_exhausted(&self) -> bool {
        self.far.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_by_pivot() {
        let mut q = NearFarQueue::new(10);
        let f = Frontier::from_vec(vec![1, 2, 3, 4]);
        // priorities: v * 4 -> [4, 8, 12, 16]; pivot 10
        let near = q.split(f, |v| v * 4);
        assert_eq!(near.as_slice(), &[1, 2]);
        assert_eq!(q.far_slice().len(), 2);
    }

    #[test]
    fn refill_advances_window_and_drops_stale() {
        let pool = BufferPool::new();
        let mut q = NearFarQueue::new(10);
        let f = Frontier::from_vec(vec![1, 2, 3]);
        // priorities: 100, 15, 3 — only v=3 near initially
        let prios = [0u32, 100, 15, 3];
        let near = q.split(f, |v| prios[v as usize]);
        assert_eq!(near.as_slice(), &[3]);
        // refill: window becomes [10, 20): v=2 qualifies
        let near = q.refill(&pool, |v| prios[v as usize], |_| true);
        assert_eq!(near.as_slice(), &[2]);
        // pretend v=1's priority dropped to 5 (stale): refill must drop it
        let updated = [0u32, 5, 15, 3];
        let near = q.refill(&pool, |v| updated[v as usize], |_| true);
        assert!(near.is_empty());
        assert!(q.is_exhausted());
    }

    #[test]
    fn refill_output_cycles_through_the_pool() {
        let pool = BufferPool::new();
        pool.put_u32(pool.take_u32(3));
        let warm = pool.stats().allocations;
        let mut q = NearFarQueue::new(10);
        // priorities 10, 20, 30: all far, then one per window
        let near = q.split(Frontier::from_vec(vec![1, 2, 3]), |v| v * 10);
        assert!(near.is_empty());
        for want in 1..=3 {
            let near = q.refill(&pool, |v| v * 10, |_| true);
            assert_eq!(near.as_slice(), &[want]);
            pool.put_u32(near.into_vec());
        }
        assert!(q.refill(&pool, |v| v * 10, |_| true).is_empty());
        assert_eq!(pool.stats().allocations, warm, "every refill reused the pooled buffer");
    }

    #[test]
    fn a_vertex_parked_three_times_is_refilled_once() {
        use std::cell::Cell;
        let pool = BufferPool::new();
        let mut q = NearFarQueue::new(10);
        // vertex 4 is parked by three splits, vertex 7 once
        for f in [vec![4], vec![4, 7], vec![4]] {
            assert!(q.split(Frontier::from_vec(f), |_| 15).is_empty());
        }
        assert_eq!(q.far_slice().len(), 4);
        // a claim that admits each vertex once, like SSSP's tag swap
        let claimed = Cell::new(0u64);
        let claim = |v: u32| claimed.replace(claimed.get() | 1 << v) & 1 << v == 0;
        let near = q.refill(&pool, |_| 15, claim);
        assert_eq!(near.as_slice(), &[4, 7]);
        assert!(q.is_exhausted(), "the duplicates left the pile with the claimed copy");
    }

    #[test]
    fn refill_skips_empty_windows() {
        let pool = BufferPool::new();
        let mut q = NearFarQueue::new(5);
        let f = Frontier::from_vec(vec![0]);
        let near = q.split(f, |_| 23);
        assert!(near.is_empty());
        // windows [5,10), [10,15), [15,20) are empty; [20,25) catches it
        let near = q.refill(&pool, |_| 23, |_| true);
        assert_eq!(near.as_slice(), &[0]);
    }

    #[test]
    fn saturated_priorities_terminate() {
        let pool = BufferPool::new();
        let mut q = NearFarQueue::new(u32::MAX / 2);
        let f = Frontier::from_vec(vec![0, 1]);
        let near = q.split(f, |_| u32::MAX);
        assert!(near.is_empty());
        let near = q.refill(&pool, |_| u32::MAX, |_| true);
        assert!(near.is_empty());
        assert!(q.is_exhausted());
    }

    #[test]
    #[should_panic]
    fn zero_delta_rejected() {
        NearFarQueue::new(0);
    }
}
