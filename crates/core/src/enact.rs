//! The iteration boundary, written once.
//!
//! The paper's program structure (§4.3) hands the loop to one *enactor*
//! while primitives supply functors and problem state. Here every
//! primitive keeps its own loop body — the advance / filter / compute
//! calls that make it that primitive — and an [`Enactment`] owns what
//! happens *between* bodies (DESIGN §6.2, "The iteration boundary"):
//!
//! * the wall clock, the completed-iteration count, and this run's share
//!   of the context's edge counter (a reused context keeps counting);
//! * the top of each iteration ([`Enactment::boundary`]): the periodic
//!   snapshot when one is due, then the guard; a trip stops the loop
//!   and leaves an exit snapshot unless the run failed;
//! * the end of each iteration ([`Enactment::end_iteration`]);
//! * the final say after the loop ([`Enactment::finish`]): a run that
//!   still reads converged while an abort is pending consults the guard
//!   once more, and a poisoned context always ends `Failed`.
//!
//! Snapshots come from a closure the primitive passes in, called with the
//! iteration count to stamp. It is generic (no boxing) and runs only when
//! a checkpoint policy is installed and a snapshot is actually due, so a
//! boundary without checkpointing costs a few branches and no allocation.

use crate::context::{Context, ContextGuard};
use gunrock_engine::checkpoint::Checkpoint;
use gunrock_engine::stats::RunOutcome;
use std::time::Duration;

/// One run's iteration boundary: armed once before the loop, consulted at
/// the top of every iteration, finished once after it.
pub struct Enactment<'c, 'g> {
    ctx: &'c Context<'g>,
    guard: ContextGuard<'c>,
    iterations: u32,
    outcome: RunOutcome,
    /// The context's edge counter when the run was armed.
    edges_at_arm: u64,
}

/// How an enactment ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Enacted {
    /// Converged, or which guard ended the run.
    pub outcome: RunOutcome,
    /// Completed iterations, including any restored from a checkpoint.
    pub iterations: u32,
    /// Wall time since the enactment was armed.
    pub elapsed: Duration,
    /// Edges this run examined (the context's counter is cumulative over
    /// every run that reused it).
    pub edges_examined: u64,
}

/// The snapshot closure of a primitive that does not checkpoint.
pub fn no_snapshot(_iteration: u32) -> Option<Checkpoint> {
    None
}

impl<'c, 'g> Enactment<'c, 'g> {
    /// Arms the context's guard (starting the wall clock and publishing
    /// the deadline operators poll) for a run that has already completed
    /// `iterations` — zero for a fresh run, the snapshot's stamp on resume.
    pub fn arm(ctx: &'c Context<'g>, iterations: u32) -> Self {
        Enactment {
            ctx,
            guard: ctx.guard(),
            iterations,
            outcome: RunOutcome::Converged,
            edges_at_arm: ctx.counters.edges(),
        }
    }

    /// Completed iterations so far.
    #[inline]
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// The outcome so far: `Converged` until a boundary trips.
    #[inline]
    pub fn outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// The top-of-iteration boundary. Writes the periodic snapshot when
    /// one is due and no operator has failed, then checks the guard; on a
    /// trip it records the outcome, writes the exit snapshot unless the
    /// run failed, and returns `true` — the caller breaks out of its loop.
    #[inline]
    pub fn boundary<S>(&mut self, snapshot: S) -> bool
    where
        S: Fn(u32) -> Option<Checkpoint>,
    {
        if self.ctx.checkpoint_due(self.iterations) && !self.ctx.is_poisoned() {
            self.save(&snapshot);
        }
        match self.guard.check(self.iterations) {
            None => false,
            Some(tripped) => {
                self.trip(tripped, &snapshot);
                true
            }
        }
    }

    /// Marks one completed iteration: bumps the count and the context's
    /// iteration counters / stats stamp. Primitives call it where their
    /// body has always ended an iteration, so step stamps do not move.
    #[inline]
    pub fn end_iteration(&mut self, pull: bool) {
        self.iterations += 1;
        self.ctx.end_iteration(pull);
    }

    /// Ends the run. A cooperative abort can truncate the last operator's
    /// output to nothing, so a loop that exits looking converged while an
    /// abort is pending consults the guard once more (and snapshots on a
    /// trip); a poisoned context ends `Failed` whatever the loop saw.
    pub fn finish<S>(mut self, snapshot: S) -> Enacted
    where
        S: Fn(u32) -> Option<Checkpoint>,
    {
        if self.outcome == RunOutcome::Converged && self.ctx.abort_requested() {
            if let Some(tripped) = self.guard.check(self.iterations) {
                self.trip(tripped, &snapshot);
            }
        }
        if self.ctx.is_poisoned() {
            self.outcome = RunOutcome::Failed;
        }
        Enacted {
            outcome: self.outcome,
            iterations: self.iterations,
            elapsed: self.guard.elapsed(),
            edges_examined: self.ctx.counters.edges() - self.edges_at_arm,
        }
    }

    /// Records a trip; a failed run's state may be torn mid-operator, so
    /// it never overwrites the last good snapshot.
    fn trip<S: Fn(u32) -> Option<Checkpoint>>(&mut self, tripped: RunOutcome, snapshot: &S) {
        self.outcome = tripped;
        if tripped != RunOutcome::Failed {
            self.save(snapshot);
        }
    }

    fn save<S: Fn(u32) -> Option<Checkpoint>>(&self, snapshot: &S) {
        if self.ctx.checkpoint_policy().is_some() {
            if let Some(ckpt) = snapshot(self.iterations) {
                self.ctx.save_checkpoint(&ckpt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advance::{self, AdvanceSpec};
    use crate::error::GunrockError;
    use crate::functor::AdvanceFunctor;
    use crate::policy::{CheckpointPolicy, RunPolicy};
    use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32};
    use gunrock_engine::frontier::Frontier;
    use gunrock_graph::{Coo, Csr, GraphBuilder, INFINITY};
    use std::cell::RefCell;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    struct Discover<'a> {
        labels: &'a [AtomicU32],
        level: u32,
    }

    impl AdvanceFunctor for Discover<'_> {
        fn cond_edge(&self, _s: u32, d: u32, _e: u32) -> bool {
            self.labels[d as usize]
                .compare_exchange(INFINITY, self.level, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        }
    }

    /// BFS from vertex 0 on the driver; `after_level` runs at the end of
    /// each level's body and may rewrite the next frontier.
    fn bfs_on(
        ctx: &Context<'_>,
        after_level: impl Fn(u32, &mut Frontier),
    ) -> (Vec<u32>, Enacted) {
        let labels = atomic_u32_vec(ctx.num_vertices(), INFINITY);
        labels[0].store(0, Ordering::Relaxed);
        let mut frontier = Frontier::single(0);
        let snapshot = |it: u32| {
            let mut ckpt = Checkpoint::new("toy", it);
            ckpt.push_u32("labels", unwrap_atomic_u32(&labels));
            Some(ckpt)
        };
        let mut run = Enactment::arm(ctx, 0);
        while !frontier.is_empty() {
            if run.boundary(snapshot) {
                break;
            }
            let f = Discover { labels: &labels, level: run.iterations() + 1 };
            frontier = advance::advance(ctx, &frontier, AdvanceSpec::v2v(), &f);
            run.end_iteration(false);
            after_level(run.iterations(), &mut frontier);
        }
        let done = run.finish(snapshot);
        (unwrap_atomic_u32(&labels), done)
    }

    fn path(n: u32) -> Csr {
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        GraphBuilder::new().build(Coo::from_edges(n as usize, &edges))
    }

    fn ckpt_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gunrock-enact-{name}-{}", std::process::id()))
    }

    #[test]
    fn bfs_on_the_driver_matches_expected_depths() {
        let g = GraphBuilder::new()
            .build(Coo::from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]));
        let ctx = Context::new(&g);
        let (labels, done) = bfs_on(&ctx, |_, _| {});
        assert_eq!(labels, vec![0, 1, 2, 2, 1, INFINITY]);
        assert_eq!((done.outcome, done.iterations), (RunOutcome::Converged, 3));
        assert_eq!(ctx.counters.iters(), 3, "every iteration reached the context");
    }

    #[test]
    fn a_reused_context_reports_each_runs_own_edges() {
        let g = path(8);
        let ctx = Context::new(&g);
        let (_, first) = bfs_on(&ctx, |_, _| {});
        let (_, second) = bfs_on(&ctx, |_, _| {});
        assert!(first.edges_examined > 0);
        assert_eq!(first.edges_examined, second.edges_examined);
        assert_eq!(ctx.counters.edges(), 2 * first.edges_examined);
    }

    #[test]
    fn a_cap_of_k_ends_capped_with_an_exit_snapshot_stamped_k() {
        let g = path(8);
        for k in 1..=3 {
            let dir = ckpt_dir(&format!("cap{k}"));
            let ctx = Context::new(&g)
                .with_policy(RunPolicy::unbounded().max_iterations(k))
                .with_checkpoints(CheckpointPolicy::new(0, &dir));
            let (labels, done) = bfs_on(&ctx, |_, _| {});
            assert_eq!((done.outcome, done.iterations), (RunOutcome::IterationCapped, k));
            let ckpt = Checkpoint::load(&dir.join("toy.ckpt")).expect("exit snapshot");
            assert_eq!(ckpt.iteration(), k);
            assert_eq!(ckpt.u32s("labels").expect("labels"), &labels[..]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_pre_raised_cancel_returns_the_initial_state() {
        let g = path(4);
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag));
        let (labels, done) = bfs_on(&ctx, |_, _| {});
        assert_eq!((done.outcome, done.iterations), (RunOutcome::Cancelled, 0));
        assert_eq!(labels, vec![0, INFINITY, INFINITY, INFINITY]);
    }

    #[test]
    fn a_poisoned_run_ends_failed_without_an_exit_snapshot() {
        let g = path(8);
        let dir = ckpt_dir("poison");
        let ctx = Context::new(&g)
            .with_policy(RunPolicy::unbounded().max_iterations(100))
            .with_checkpoints(CheckpointPolicy::new(0, &dir));
        // the failing level also empties the frontier, so the loop exits
        // without another boundary: the final say must still see it
        let (_, done) = bfs_on(&ctx, |it, next| {
            if it == 2 {
                ctx.poison(GunrockError::AllocFailed { operator: "advance", iteration: it });
                *next = Frontier::new();
            }
        });
        assert_eq!((done.outcome, done.iterations), (RunOutcome::Failed, 2));
        assert!(!dir.join("toy.ckpt").exists(), "a failed run leaves no exit snapshot");
    }

    #[test]
    fn a_poisoned_iteration_is_not_snapshotted_at_the_next_boundary() {
        let g = path(8);
        let dir = ckpt_dir("poison_periodic");
        let ctx = Context::new(&g).with_checkpoints(CheckpointPolicy::new(1, &dir));
        // an operator fails in level 2 but leaves a frontier: the boundary
        // that follows is due a periodic snapshot of the torn state
        let (_, done) = bfs_on(&ctx, |it, _| {
            if it == 2 {
                ctx.poison(GunrockError::AllocFailed { operator: "advance", iteration: it });
            }
        });
        assert_eq!((done.outcome, done.iterations), (RunOutcome::Failed, 2));
        let ckpt = Checkpoint::load(&dir.join("toy.ckpt")).expect("the last good snapshot");
        assert_eq!(ckpt.iteration(), 1, "the torn iteration never reaches the disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_last_operator_under_cancel_reports_cancelled() {
        let g = path(8);
        let dir = ckpt_dir("truncated");
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = Context::new(&g)
            .with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()))
            .with_checkpoints(CheckpointPolicy::new(0, &dir));
        // a cancel that lands inside level 3 cuts its output to nothing
        let (_, done) = bfs_on(&ctx, |it, next| {
            if it == 3 {
                flag.store(true, Ordering::Release);
                *next = Frontier::new();
            }
        });
        assert_eq!((done.outcome, done.iterations), (RunOutcome::Cancelled, 3));
        let ckpt = Checkpoint::load(&dir.join("toy.ckpt")).expect("exit snapshot");
        assert_eq!(ckpt.iteration(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_then_exit_snapshot_at_one_boundary() {
        let g = path(8);
        let dir = ckpt_dir("order");
        let ctx = Context::new(&g)
            .with_policy(RunPolicy::unbounded().max_iterations(2))
            .with_checkpoints(CheckpointPolicy::new(2, &dir));
        let calls = RefCell::new(Vec::new());
        let snapshot = |it: u32| {
            calls.borrow_mut().push(it);
            let mut ckpt = Checkpoint::new("toy", it);
            ckpt.push_u32("call", vec![calls.borrow().len() as u32]);
            Some(ckpt)
        };
        let mut run = Enactment::arm(&ctx, 0);
        while !run.boundary(snapshot) {
            run.end_iteration(false);
        }
        let done = run.finish(snapshot);
        assert_eq!((done.outcome, done.iterations), (RunOutcome::IterationCapped, 2));
        assert_eq!(*calls.borrow(), vec![2, 2], "periodic, then exit, both stamped 2");
        let ckpt = Checkpoint::load(&dir.join("toy.ckpt")).expect("snapshot");
        assert_eq!(ckpt.u32s("call").expect("call"), &[2], "the exit snapshot is on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
