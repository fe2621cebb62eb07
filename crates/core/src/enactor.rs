//! The **enactor**: "the entry point of the graph algorithm", wrapping
//! the execution context and exposing the operator set of Figure 1 plus
//! per-iteration instrumentation.
//!
//! Primitives (crate `gunrock-algos`) are written against this type: an
//! enactor owns the frontier loop, launching advance/filter/compute
//! "kernels" with user functors fused in, until convergence (usually an
//! empty frontier).

use crate::advance::{self, policy::TraversalDirection, AdvanceSpec};
use crate::compute;
use crate::context::{Context, ContextGuard};
use crate::filter::{self, culling::CullingConfig};
use crate::functor::{AdvanceFunctor, FilterFunctor};
use gunrock_engine::bitmap::{BitSet, PooledBitmap};
use gunrock_engine::frontier::Frontier;
use gunrock_engine::stats::{RunOutcome, Timing};

/// One bulk-synchronous iteration's record, for the instrumentation the
/// evaluation harness and ablations read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// Zero-based iteration index.
    pub iteration: u32,
    /// Input frontier size.
    pub input_len: usize,
    /// Output frontier size.
    pub output_len: usize,
    /// Traversal direction this iteration ran in.
    pub direction: TraversalDirection,
}

/// Runs operator sequences over one graph with shared counters and an
/// iteration log.
pub struct Enactor<'g> {
    /// The execution context the operators run against.
    pub ctx: Context<'g>,
    log: Vec<IterationRecord>,
    iteration: u32,
}

impl<'g> Enactor<'g> {
    /// Creates an enactor over a prepared context.
    pub fn new(ctx: Context<'g>) -> Self {
        Enactor { ctx, log: Vec::new(), iteration: 0 }
    }

    /// Push-direction advance with fused functor.
    pub fn advance<F: AdvanceFunctor>(
        &self,
        input: &Frontier,
        spec: AdvanceSpec,
        functor: &F,
    ) -> Frontier {
        advance::advance(&self.ctx, input, spec, functor)
    }

    /// Pull-direction advance over `candidates` against the frontier
    /// bitmap (see [`advance::pull`]).
    pub fn advance_pull<F: AdvanceFunctor, B: BitSet>(
        &self,
        candidates: &[u32],
        in_frontier: &B,
        functor: &F,
    ) -> Frontier {
        advance::pull::advance_pull(&self.ctx, candidates, in_frontier, functor)
    }

    /// Masked word-sweep pull advance: all-bitmap operands, discovered
    /// candidates cleared in place (see [`advance::pull::advance_pull_sweep`]).
    pub fn advance_pull_sweep<F: AdvanceFunctor>(
        &self,
        candidates: &mut PooledBitmap,
        in_frontier: &PooledBitmap,
        out: &mut PooledBitmap,
        functor: &F,
    ) -> u64 {
        advance::pull::advance_pull_sweep(&self.ctx, candidates, in_frontier, out, functor)
    }

    /// Exact scan-compact filter.
    pub fn filter<F: FilterFunctor>(&self, input: &Frontier, functor: &F) -> Frontier {
        filter::filter(&self.ctx, input, functor)
    }

    /// Heuristic culling filter for idempotent traversal.
    pub fn filter_with_culling<F: FilterFunctor, B: BitSet>(
        &self,
        input: &Frontier,
        visited: &B,
        functor: &F,
        cfg: CullingConfig,
    ) -> Frontier {
        filter::culling::filter_with_culling(&self.ctx, input, visited, functor, cfg)
    }

    /// Bitmap-shaped culling filter: merges a pull sweep's output bitmap
    /// into `visited` word-wise and extracts the next list frontier (see
    /// [`filter::culling::filter_with_culling_bitmap`]).
    pub fn filter_with_culling_bitmap<F: FilterFunctor, B: BitSet>(
        &self,
        input: &PooledBitmap,
        visited: &B,
        functor: &F,
        cfg: CullingConfig,
    ) -> Frontier {
        filter::culling::filter_with_culling_bitmap(&self.ctx, input, visited, functor, cfg)
    }

    /// Parallel per-element computation (instrumented when the context
    /// carries a stats sink).
    pub fn compute<F: Fn(u32) + Send + Sync>(&self, input: &Frontier, op: F) {
        compute::for_each_ctx(&self.ctx, "for_each", input, op)
    }

    /// Arms the context's execution guard for this enactment. Check the
    /// returned guard at the top of every bulk-synchronous step (see
    /// [`Enactor::check_guard`] for the loop-shaped convenience).
    pub fn guard(&self) -> ContextGuard<'_> {
        self.ctx.guard()
    }

    /// Checks an armed guard against the iterations recorded so far,
    /// returning the outcome that should end the loop, if any.
    pub fn check_guard(&self, guard: &ContextGuard<'_>) -> Option<RunOutcome> {
        guard.check(self.iteration)
    }

    /// Records one completed iteration for the log and counters.
    pub fn record_iteration(
        &mut self,
        input_len: usize,
        output_len: usize,
        direction: TraversalDirection,
    ) {
        self.ctx.end_iteration(direction == TraversalDirection::Pull);
        self.log.push(IterationRecord {
            iteration: self.iteration,
            input_len,
            output_len,
            direction,
        });
        self.iteration += 1;
    }

    /// Per-iteration records accumulated so far.
    pub fn log(&self) -> &[IterationRecord] {
        &self.log
    }

    /// Number of iterations recorded.
    pub fn iterations(&self) -> u32 {
        self.iteration
    }

    /// Packages the counters into a [`Timing`] given a measured duration
    /// (primitives time their own enact loop).
    pub fn timing(&self, elapsed: std::time::Duration) -> Timing {
        Timing { elapsed, edges_examined: self.ctx.counters.edges() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::AcceptAll;
    use gunrock_engine::bitmap::AtomicBitmap;
    use gunrock_graph::{Coo, GraphBuilder};

    #[test]
    fn enactor_runs_a_simple_bfs_like_loop() {
        // path 0-1-2-3-4
        let g =
            GraphBuilder::new().build(Coo::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]));
        let ctx = Context::new(&g);
        let mut enactor = Enactor::new(ctx);
        let visited = AtomicBitmap::new(5);
        visited.set(0);
        let mut frontier = Frontier::single(0);
        while !frontier.is_empty() {
            let raw = enactor.advance(&frontier, AdvanceSpec::v2v(), &AcceptAll);
            let next = enactor.filter_with_culling(
                &raw,
                &visited,
                &crate::functor::VertexCond(|_| true),
                CullingConfig::default(),
            );
            enactor.record_iteration(frontier.len(), next.len(), TraversalDirection::Push);
            frontier = next;
        }
        assert_eq!(visited.count_ones(), 5);
        assert_eq!(enactor.iterations(), 5); // 4 discovery levels + final empty
        assert_eq!(enactor.log()[0].output_len, 1);
        assert!(enactor.ctx.counters.edges() > 0);
    }
}
