//! Execution guards for enact loops.
//!
//! The paper defines a primitive as iterating "until convergence" — fine
//! for a benchmark harness, unacceptable for a served system where a
//! malformed graph, a divergent PageRank, or a stuck partition must not
//! stall the process. A [`RunPolicy`] carried by the
//! [`Context`](crate::context::Context) bounds every enact loop three
//! ways — an iteration cap, a wall-clock budget, and a cooperative
//! cancel flag — and each primitive reports which guard (if any) ended
//! its run as a [`RunOutcome`] alongside best-so-far results.

use gunrock_engine::stats::RunOutcome;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounds on operator-level retries when a recoverable failure (a
/// pre-side-effect allocation/scan failure in a `load_balanced` advance)
/// is hit: retry the same strategy up to `max_retries` times with
/// `backoff` between attempts, then fall back to the always-safe
/// `thread_mapped` strategy. The default retries zero times (fall back
/// immediately).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Same-strategy retry attempts before falling back.
    pub max_retries: u32,
    /// Sleep between attempts (simulating allocator pressure relief).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// Retry `max_retries` times with no backoff.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy { max_retries, backoff: Duration::ZERO }
    }
}

/// Iteration-boundary checkpointing: every `every` completed iterations
/// the enact loop snapshots frontier + problem state into
/// `dir/<primitive>.ckpt` (atomically, `gunrock-ckpt/v1`). A guard trip
/// (timeout, cancel, iteration cap) also snapshots on the way out, so an
/// interrupted run always leaves a resumable checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint period in completed iterations (0 disables periodic
    /// snapshots; the exit snapshot still happens).
    pub every: u32,
    /// Directory checkpoints are written into (created on demand).
    pub dir: PathBuf,
}

impl CheckpointPolicy {
    /// Checkpoint every `every` iterations into `dir`.
    pub fn new(every: u32, dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { every, dir: dir.into() }
    }

    /// True when a periodic snapshot is due after `completed` iterations.
    pub fn due(&self, completed: u32) -> bool {
        self.every > 0 && completed > 0 && completed.is_multiple_of(self.every)
    }

    /// The checkpoint file path for one primitive.
    pub fn path(&self, primitive: &str) -> PathBuf {
        self.dir.join(format!("{primitive}.ckpt"))
    }
}

/// Bounds on a primitive's enact loop. The default is unbounded (the
/// paper's run-to-convergence semantics); each bound is independent and
/// the tightest one wins.
#[derive(Clone, Debug, Default)]
pub struct RunPolicy {
    /// Maximum bulk-synchronous iterations to execute.
    pub max_iterations: Option<u32>,
    /// Maximum wall-clock time for the whole enactment.
    pub wall_clock_budget: Option<Duration>,
    /// Cooperative cancellation: set from another thread (a signal
    /// handler, a request timeout) to stop the run at the next step.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunPolicy {
    /// The unbounded policy (run to convergence).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps the number of bulk-synchronous iterations.
    pub fn max_iterations(mut self, cap: u32) -> Self {
        self.max_iterations = Some(cap);
        self
    }

    /// Bounds total wall-clock time.
    pub fn wall_clock_budget(mut self, budget: Duration) -> Self {
        self.wall_clock_budget = Some(budget);
        self
    }

    /// Attaches a cancellation flag checked each step.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no bound is set (the guard can never trip).
    pub fn is_unbounded(&self) -> bool {
        self.max_iterations.is_none()
            && self.wall_clock_budget.is_none()
            && self.cancel.is_none()
    }

    /// Arms a guard for one enactment, starting the wall clock now.
    pub fn guard(&self) -> RunGuard<'_> {
        RunGuard { policy: self, start: Instant::now() }
    }
}

/// One enactment's armed guard: a [`RunPolicy`] plus the loop's start
/// time. Check it at the top of every bulk-synchronous step.
pub struct RunGuard<'p> {
    policy: &'p RunPolicy,
    start: Instant,
}

impl RunGuard<'_> {
    /// Returns the outcome that should end the loop, if any guard has
    /// tripped after `completed_iterations` steps. Priority when several
    /// trip at once: `Cancelled` > `TimedOut` > `IterationCapped` (the
    /// most externally-driven signal wins).
    pub fn check(&self, completed_iterations: u32) -> Option<RunOutcome> {
        if let Some(flag) = &self.policy.cancel {
            // ORDERING: Acquire — the canceller may publish state before raising the
            // flag; Acquire makes that state visible to the cancelled loop.
            if flag.load(Ordering::Acquire) {
                return Some(RunOutcome::Cancelled);
            }
        }
        if let Some(budget) = self.policy.wall_clock_budget {
            if self.start.elapsed() >= budget {
                return Some(RunOutcome::TimedOut);
            }
        }
        if let Some(cap) = self.policy.max_iterations {
            if completed_iterations >= cap {
                return Some(RunOutcome::IterationCapped);
            }
        }
        None
    }

    /// Wall time since the guard was armed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips() {
        let policy = RunPolicy::unbounded();
        assert!(policy.is_unbounded());
        let guard = policy.guard();
        assert_eq!(guard.check(0), None);
        assert_eq!(guard.check(u32::MAX), None);
    }

    #[test]
    fn iteration_cap_trips_at_cap() {
        let policy = RunPolicy::unbounded().max_iterations(3);
        let guard = policy.guard();
        assert_eq!(guard.check(2), None);
        assert_eq!(guard.check(3), Some(RunOutcome::IterationCapped));
        assert_eq!(guard.check(10), Some(RunOutcome::IterationCapped));
    }

    #[test]
    fn zero_budget_times_out_immediately() {
        let policy = RunPolicy::unbounded().wall_clock_budget(Duration::ZERO);
        let guard = policy.guard();
        assert_eq!(guard.check(0), Some(RunOutcome::TimedOut));
    }

    #[test]
    fn retry_policy_builders() {
        let p = RetryPolicy::retries(3);
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.backoff, Duration::ZERO);
        assert_eq!(RetryPolicy::default().max_retries, 0);
    }

    #[test]
    fn checkpoint_policy_period_and_paths() {
        let p = CheckpointPolicy::new(3, "/tmp/ckpts");
        assert!(!p.due(0), "iteration 0 is the initial state, not progress");
        assert!(!p.due(2));
        assert!(p.due(3));
        assert!(p.due(6));
        assert_eq!(p.path("bfs"), PathBuf::from("/tmp/ckpts/bfs.ckpt"));
        let off = CheckpointPolicy::new(0, "/tmp/ckpts");
        assert!(!off.due(5), "every=0 disables periodic snapshots");
    }

    #[test]
    fn cancel_flag_trips_and_outranks_other_guards() {
        let flag = Arc::new(AtomicBool::new(false));
        let policy = RunPolicy::unbounded()
            .cancel_flag(flag.clone())
            .max_iterations(0)
            .wall_clock_budget(Duration::ZERO);
        let guard = policy.guard();
        // cancel not set: time budget outranks the iteration cap
        assert_eq!(guard.check(5), Some(RunOutcome::TimedOut));
        flag.store(true, Ordering::Release);
        assert_eq!(guard.check(5), Some(RunOutcome::Cancelled));
    }
}
