//! Up-front footprint admission for the enact loops (DESIGN §11).
//!
//! When the context carries a memory budget, each primitive checks the
//! pessimistic footprint of the whole run — its registry entry's
//! [`estimate_bytes`] — *before* its first operator launches. Three
//! outcomes:
//!
//! 1. the full-fat estimate fits the budget limit — run as configured;
//! 2. it doesn't, but demoting the advance to `thread_mapped` (dropping
//!    the load-balanced scan/partition workspace) would fit — take that
//!    degradation rung and record a [`DegradeEvent`];
//! 3. even the lean estimate exceeds the limit — poison the run with a
//!    structured [`GunrockError::BudgetExceeded`] so the caller gets an
//!    exact accounting instead of an allocator abort mid-run.
//!
//! The comparison is against the budget's *limit*, not its current
//! headroom: admission answers "can this run ever fit", while transient
//! pressure from concurrent runs is handled by the finer-grained rungs
//! inside the operators (lb→thread_mapped per advance, pull→push at the
//! bitmap build).
//!
//! [`estimate_bytes`]: crate::registry::Entry::estimate_bytes
//! [`DegradeEvent`]: gunrock_engine::stats::DegradeEvent

use crate::registry::{find, Arity};
use gunrock::prelude::*;
use gunrock_engine::budget::advance_workspace_bytes;

/// Admits one run of `primitive`, returning the (possibly demoted)
/// advance mode. Poisons the context when even the lean footprint can
/// never fit the budget limit; the enact loop's first boundary then
/// ends the run as `Failed` before any operator launches.
pub(crate) fn admit(
    ctx: &Context<'_>,
    primitive: &'static str,
    mode: AdvanceMode,
) -> AdvanceMode {
    let (Some(budget), Some(entry)) = (ctx.budget(), find(primitive)) else { return mode };
    let n = ctx.num_vertices() as u64;
    let m = ctx.num_edges() as u64;
    let full = (entry.estimate_bytes)(n, m);
    let limit = budget.limit();
    if full <= limit {
        return mode;
    }
    // The estimate prices the widest (load-balanced) advance; swap in
    // the thread-mapped working set to price the demoted run. Lane-packed
    // batches sweep lane words instead of advancing: their estimate has
    // no advance term, so there is nothing to demote.
    let lean = if entry.arity == Arity::Lanes {
        full
    } else {
        full - advance_workspace_bytes(n, m, "load_balanced")
            + advance_workspace_bytes(n, m, "thread_mapped")
    };
    if lean <= limit {
        if !matches!(mode, AdvanceMode::ThreadMapped) {
            ctx.record_degrade(
                primitive,
                "lb_batch",
                "thread_mapped",
                format!(
                    "up-front estimate {full} bytes exceeds budget limit {limit}; \
                     thread-mapped footprint {lean} fits"
                ),
            );
        }
        return AdvanceMode::ThreadMapped;
    }
    ctx.poison(GunrockError::BudgetExceeded {
        operator: "admission",
        iteration: 0,
        requested: lean,
        reserved: budget.reserved(),
        limit,
    });
    mode
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::budget::MemoryBudget;
    use gunrock_graph::{generators::erdos_renyi, GraphBuilder};
    use std::sync::Arc;

    fn estimate_bytes(primitive: &str, n: u64, m: u64) -> u64 {
        find(primitive).map_or(0, |e| (e.estimate_bytes)(n, m))
    }

    #[test]
    fn roomy_budget_admits_unchanged() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let ctx = Context::new(&g).with_budget(Arc::new(MemoryBudget::new(1 << 30)));
        assert_eq!(admit(&ctx, "bfs", AdvanceMode::Auto), AdvanceMode::Auto);
        assert_eq!(ctx.degrade_count(), 0);
        assert!(!ctx.is_poisoned());
    }

    #[test]
    fn squeezed_budget_demotes_to_thread_mapped() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let n = g.num_vertices() as u64;
        let m = g.num_edges() as u64;
        let full = estimate_bytes("bfs", n, m);
        let lean = full - advance_workspace_bytes(n, m, "load_balanced")
            + advance_workspace_bytes(n, m, "thread_mapped");
        assert!(lean < full, "demotion must actually shrink the footprint");
        let ctx = Context::new(&g).with_stats().with_budget(Arc::new(MemoryBudget::new(lean)));
        assert_eq!(admit(&ctx, "bfs", AdvanceMode::Auto), AdvanceMode::ThreadMapped);
        assert!(!ctx.is_poisoned());
        let stats = ctx.run_stats();
        assert_eq!(stats.degrades.len(), 1);
        assert_eq!(stats.degrades[0].to, "thread_mapped");
    }

    #[test]
    fn hopeless_budget_poisons_with_structured_error() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let ctx = Context::new(&g).with_budget(Arc::new(MemoryBudget::new(64)));
        admit(&ctx, "bfs", AdvanceMode::Auto);
        assert!(ctx.is_poisoned());
        match ctx.take_failure() {
            Some(GunrockError::BudgetExceeded { operator, limit, requested, .. }) => {
                assert_eq!(operator, "admission");
                assert_eq!(limit, 64);
                assert!(requested > 64);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    /// A lane batch has no advance workspace to demote. On a dense graph
    /// the load-balanced term outweighs the whole `msbfs` estimate, so
    /// subtracting it would underflow: admission must refuse without a
    /// demotion, charging the full estimate.
    #[test]
    fn lane_batches_are_refused_without_demotion() {
        let edges: Vec<(u32, u32)> =
            (0..100).flat_map(|u| (u + 1..100).map(move |v| (u, v))).collect();
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(100, &edges));
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        let full = estimate_bytes("msbfs", n, m);
        assert!(advance_workspace_bytes(n, m, "load_balanced") > full);
        let ctx =
            Context::new(&g).with_stats().with_budget(Arc::new(MemoryBudget::new(full - 1)));
        admit(&ctx, "msbfs", AdvanceMode::Auto);
        assert!(ctx.run_stats().degrades.is_empty(), "nothing to demote");
        match ctx.take_failure() {
            Some(GunrockError::BudgetExceeded { requested, .. }) => assert_eq!(requested, full),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    /// `msppr` is admitted like every other primitive: a hopeless budget
    /// fails at admission, before its score matrices or lane maps exist.
    #[test]
    fn hopeless_budget_fails_msppr_at_admission() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let ctx = Context::new(&g).with_budget(Arc::new(MemoryBudget::new(1024)));
        let r = crate::msppr::msppr(&ctx, &[0, 1], Default::default());
        assert_eq!(r.outcome, RunOutcome::Failed);
        match ctx.take_failure() {
            Some(GunrockError::BudgetExceeded { operator, .. }) => {
                assert_eq!(operator, "admission")
            }
            other => panic!("expected BudgetExceeded from admission, got {other:?}"),
        }
    }
}
