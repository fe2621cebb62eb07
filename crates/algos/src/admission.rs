//! Up-front footprint admission for the enact loops (DESIGN §11).
//!
//! When the context carries a memory budget, the one enact loop of
//! [`crate::primitive`] checks the pessimistic footprint of the whole run
//! — the primitive's declared state bytes plus, when it advances, the
//! widest advance's workspace (its registry entry's [`estimate_bytes`]) —
//! *before* its state is built or its first operator launches. Three
//! outcomes:
//!
//! 1. the full-fat estimate fits the budget limit — run as configured;
//! 2. it doesn't, but demoting the advance to `thread_mapped` (dropping
//!    the load-balanced scan/partition workspace) would fit — take that
//!    degradation rung and record a [`DegradeEvent`]. A primitive that
//!    does not advance has nothing to demote;
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

use crate::primitive::{footprint, Primitive};
use gunrock::prelude::*;

/// Admits one run of `P`, returning the (possibly demoted) advance
/// mode. Poisons the context when even the lean footprint can never fit
/// the budget limit; the run then ends `Failed` before any operator
/// launches.
pub(crate) fn admit<P: Primitive>(ctx: &Context<'_>, mode: AdvanceMode) -> AdvanceMode {
    let Some(budget) = ctx.budget() else { return mode };
    let n = ctx.num_vertices() as u64;
    let m = ctx.num_edges() as u64;
    let full = footprint::<P>(n, m, "load_balanced");
    let limit = budget.limit();
    if full <= limit {
        return mode;
    }
    // Price the demoted run with the thread-mapped working set. A
    // primitive that does not advance (the lane-packed batches sweep lane
    // words instead) has nothing to demote: its lean footprint is its
    // full one.
    let lean = footprint::<P>(n, m, "thread_mapped");
    if lean <= limit {
        if !matches!(mode, AdvanceMode::ThreadMapped) {
            ctx.record_degrade(
                P::NAME,
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
    use crate::registry::{Arity, Query, REGISTRY};
    use crate::{Bc, Bfs, Cc, Kcore, LabelProp, Msbfs, Msppr, Mst, PageRank, Sssp, Triangles};
    use gunrock_engine::budget::{advance_workspace_bytes, MemoryBudget};
    use gunrock_graph::{generators::erdos_renyi, Coo, Csr, GraphBuilder};
    use std::sync::Arc;

    #[test]
    fn roomy_budget_admits_unchanged() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let ctx = Context::new(&g).with_budget(Arc::new(MemoryBudget::new(1 << 30)));
        assert_eq!(admit::<Bfs>(&ctx, AdvanceMode::Auto), AdvanceMode::Auto);
        assert_eq!(ctx.degrade_count(), 0);
        assert!(!ctx.is_poisoned());
    }

    #[test]
    fn squeezed_budget_demotes_to_thread_mapped() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let n = g.num_vertices() as u64;
        let m = g.num_edges() as u64;
        let full = footprint::<Bfs>(n, m, "load_balanced");
        let lean = full - advance_workspace_bytes(n, m, "load_balanced")
            + advance_workspace_bytes(n, m, "thread_mapped");
        assert!(lean < full, "demotion must actually shrink the footprint");
        let ctx = Context::new(&g).with_stats().with_budget(Arc::new(MemoryBudget::new(lean)));
        assert_eq!(admit::<Bfs>(&ctx, AdvanceMode::Auto), AdvanceMode::ThreadMapped);
        assert!(!ctx.is_poisoned());
        let stats = ctx.run_stats();
        assert_eq!(stats.degrades.len(), 1);
        assert_eq!(stats.degrades[0].to, "thread_mapped");
    }

    #[test]
    fn hopeless_budget_poisons_with_structured_error() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        let ctx = Context::new(&g).with_budget(Arc::new(MemoryBudget::new(64)));
        admit::<Bfs>(&ctx, AdvanceMode::Auto);
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

    /// The complete graph on 100 vertices: dense enough that the
    /// load-balanced advance term outweighs a whole lane batch's estimate.
    fn dense() -> Csr {
        let edges: Vec<(u32, u32)> =
            (0..100).flat_map(|u| (u + 1..100).map(move |v| (u, v))).collect();
        GraphBuilder::new().build(Coo::from_edges(100, &edges))
    }

    /// A lane batch has no advance workspace to demote. On a dense graph
    /// the load-balanced term outweighs the whole `msbfs` estimate, so
    /// subtracting it would underflow: admission must refuse without a
    /// demotion, charging the full estimate.
    #[test]
    fn lane_batches_are_refused_without_demotion() {
        let g = dense();
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        let full = footprint::<Msbfs>(n, m, "load_balanced");
        assert!(advance_workspace_bytes(n, m, "load_balanced") > full);
        let ctx =
            Context::new(&g).with_stats().with_budget(Arc::new(MemoryBudget::new(full - 1)));
        admit::<Msbfs>(&ctx, AdvanceMode::Auto);
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

    /// Every primitive is admitted at exactly its lean footprint — with a
    /// demotion only when it advances — and refused one byte below it,
    /// charging that footprint. Priced on the dense graph, where
    /// subtracting an advance term from a primitive that has none would
    /// underflow.
    fn admitted_at_its_lean_footprint<P: Primitive>(g: &Csr) {
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        let lean = footprint::<P>(n, m, "thread_mapped");
        let ctx = Context::new(g).with_stats().with_budget(Arc::new(MemoryBudget::new(lean)));
        let demoted = P::ADVANCES.then_some(AdvanceMode::ThreadMapped);
        let mode = admit::<P>(&ctx, AdvanceMode::Auto);
        assert_eq!(mode, demoted.unwrap_or(AdvanceMode::Auto), "{}", P::NAME);
        assert_eq!(ctx.run_stats().degrades.len(), usize::from(P::ADVANCES), "{}", P::NAME);
        assert!(!ctx.is_poisoned(), "{}", P::NAME);
        let ctx = Context::new(g).with_budget(Arc::new(MemoryBudget::new(lean - 1)));
        admit::<P>(&ctx, AdvanceMode::Auto);
        match ctx.take_failure() {
            Some(GunrockError::BudgetExceeded { operator, requested, .. }) => {
                assert_eq!((operator, requested), ("admission", lean), "{}", P::NAME)
            }
            other => panic!("{}: expected BudgetExceeded, got {other:?}", P::NAME),
        }
    }

    #[test]
    fn every_primitive_is_admitted_at_its_lean_footprint() {
        let g = dense();
        admitted_at_its_lean_footprint::<Bfs>(&g);
        admitted_at_its_lean_footprint::<Sssp>(&g);
        admitted_at_its_lean_footprint::<Bc>(&g);
        admitted_at_its_lean_footprint::<Cc>(&g);
        admitted_at_its_lean_footprint::<PageRank>(&g);
        admitted_at_its_lean_footprint::<Msbfs>(&g);
        admitted_at_its_lean_footprint::<Msppr>(&g);
        admitted_at_its_lean_footprint::<Mst>(&g);
        admitted_at_its_lean_footprint::<Kcore>(&g);
        admitted_at_its_lean_footprint::<Triangles>(&g);
        admitted_at_its_lean_footprint::<LabelProp>(&g);
    }

    /// Every registry entry is admitted before it runs: under a 64-byte
    /// budget each one ends `Failed` with the admission's structured
    /// `BudgetExceeded`, before anything is checked out.
    #[test]
    fn every_entry_fails_a_hopeless_budget_at_admission() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 1));
        for entry in REGISTRY {
            let sources = if entry.arity == Arity::Lanes { vec![0, 1] } else { Vec::new() };
            let ctx = Context::new(&g).with_budget(Arc::new(MemoryBudget::new(64)));
            let run = (entry.run)(&ctx, &Query { sources, epsilon: None });
            assert_eq!(run.outcome, RunOutcome::Failed, "{}", entry.name);
            match ctx.take_failure() {
                Some(GunrockError::BudgetExceeded { operator, limit, .. }) => {
                    assert_eq!((operator, limit), ("admission", 64), "{}", entry.name)
                }
                other => panic!("{}: expected BudgetExceeded, got {other:?}", entry.name),
            }
            assert_eq!(ctx.pool().stats().checkouts, 0, "{}", entry.name);
        }
    }
}
