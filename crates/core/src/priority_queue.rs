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
//! The split itself is a frontier manipulation (two scan-compacts) —
//! precisely the operation the paper argues GAS abstractions cannot
//! express.

use gunrock_engine::compact::compact;
use gunrock_engine::frontier::Frontier;

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

    /// Number of elements parked in the far pile.
    pub fn far_len(&self) -> usize {
        self.far.len()
    }

    /// Splits a frontier by the priority function: elements with
    /// `priority < pivot` are returned as the near frontier; the rest are
    /// appended to the far pile. The input stays the caller's, to recycle.
    pub fn split<P>(&mut self, frontier: &Frontier, priority: P) -> Frontier
    where
        P: Fn(u32) -> u32 + Sync,
    {
        let items = frontier.as_slice();
        let near = compact(items, |&v| priority(v) < self.pivot);
        let mut far = compact(items, |&v| priority(v) >= self.pivot);
        self.far.append(&mut far);
        Frontier::from_vec(near)
    }

    /// Called when the near slice is exhausted: advances the priority
    /// window until some far elements qualify, returning them as the new
    /// near frontier. Elements whose priority has meanwhile dropped below
    /// the *old* pivot are stale (the relaxation that lowered them also
    /// re-enqueued them) and are dropped. Returns an empty frontier when
    /// the far pile is exhausted too — convergence.
    pub fn refill<P>(&mut self, priority: P) -> Frontier
    where
        P: Fn(u32) -> u32 + Sync,
    {
        while !self.far.is_empty() {
            let old_pivot = self.pivot;
            self.pivot = self.pivot.saturating_add(self.delta);
            let near = compact(&self.far, |&v| {
                let p = priority(v);
                p >= old_pivot && p < self.pivot
            });
            self.far = compact(&self.far, |&v| priority(v) >= self.pivot);
            if !near.is_empty() {
                return Frontier::from_vec(near);
            }
            if self.pivot == u32::MAX {
                // priorities saturated: everything left is unreachable
                self.far.clear();
                break;
            }
        }
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
        let near = q.split(&f, |v| v * 4);
        assert_eq!(near.as_slice(), &[1, 2]);
        assert_eq!(q.far_len(), 2);
    }

    #[test]
    fn refill_advances_window_and_drops_stale() {
        let mut q = NearFarQueue::new(10);
        let f = Frontier::from_vec(vec![1, 2, 3]);
        // priorities: 100, 15, 3 — only v=3 near initially
        let prios = [0u32, 100, 15, 3];
        let near = q.split(&f, |v| prios[v as usize]);
        assert_eq!(near.as_slice(), &[3]);
        // refill: window becomes [10, 20): v=2 qualifies
        let near = q.refill(|v| prios[v as usize]);
        assert_eq!(near.as_slice(), &[2]);
        // pretend v=1's priority dropped to 5 (stale): refill must drop it
        let updated = [0u32, 5, 15, 3];
        let near = q.refill(|v| updated[v as usize]);
        assert!(near.is_empty());
        assert!(q.is_exhausted());
    }

    #[test]
    fn refill_skips_empty_windows() {
        let mut q = NearFarQueue::new(5);
        let f = Frontier::from_vec(vec![0]);
        let near = q.split(&f, |_| 23);
        assert!(near.is_empty());
        // windows [5,10), [10,15), [15,20) are empty; [20,25) catches it
        let near = q.refill(|_| 23);
        assert_eq!(near.as_slice(), &[0]);
    }

    #[test]
    fn saturated_priorities_terminate() {
        let mut q = NearFarQueue::new(u32::MAX / 2);
        let f = Frontier::from_vec(vec![0, 1]);
        let near = q.split(&f, |_| u32::MAX);
        assert!(near.is_empty());
        let near = q.refill(|_| u32::MAX);
        assert!(near.is_empty());
        assert!(q.is_exhausted());
    }

    #[test]
    #[should_panic]
    fn zero_delta_rejected() {
        NearFarQueue::new(0);
    }
}
