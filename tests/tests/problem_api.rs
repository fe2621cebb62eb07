//! Integration tests for the §4.3 program structure: a full primitive
//! written as functors + state + one loop body over the shared iteration
//! driver ([`Enactment`]), cross-checked against the dedicated
//! implementation. Demonstrates the paper's claim that "users only need
//! to write from 133 (simple primitive) to 261 (complex primitive)
//! lines": the SSSP below is ~50 lines of algorithm code, and guards,
//! snapshots and iteration counting come from the driver.

use gunrock::prelude::*;
use gunrock_baselines::serial;
use gunrock_engine::atomics::{atomic_u32_vec, fetch_min_u32, unwrap_atomic_u32};
use gunrock_graph::{Csr, INFINITY};
use gunrock_integration::graph_suite;
use std::sync::atomic::{AtomicU32, Ordering};

/// Relax and claim: an edge succeeds when it improves `d` and is the
/// first improvement of `d` this round.
struct Relax<'a> {
    graph: &'a Csr,
    dist: &'a [AtomicU32],
    tags: &'a [AtomicU32],
    round: u32,
}

impl AdvanceFunctor for Relax<'_> {
    fn cond_edge(&self, s: u32, d: u32, e: u32) -> bool {
        let nd =
            self.dist[s as usize].load(Ordering::Relaxed).saturating_add(self.graph.weight(e));
        fetch_min_u32(&self.dist[d as usize], nd)
            && self.tags[d as usize].swap(self.round, Ordering::Relaxed) != self.round
    }
}

/// SSSP on `Enactment`: one relax-and-claim advance + the near-far queue
/// per iteration — Algorithm 1 of the paper.
fn sssp(ctx: &Context<'_>, src: u32) -> (Vec<u32>, Enacted) {
    let dist = atomic_u32_vec(ctx.num_vertices(), INFINITY);
    let tags = atomic_u32_vec(ctx.num_vertices(), u32::MAX);
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut queue = NearFarQueue::new(8);
    let mut frontier = Frontier::single(src);
    let mut run = Enactment::arm(ctx, 0);
    while !frontier.is_empty() && !run.boundary(no_snapshot) {
        let relax =
            Relax { graph: ctx.graph, dist: &dist, tags: &tags, round: run.iterations() };
        let claimed = advance::advance(ctx, &frontier, AdvanceSpec::v2v(), &relax);
        let near = queue.split(claimed, |v| dist[v as usize].load(Ordering::Relaxed));
        frontier = if near.is_empty() {
            queue.refill(ctx.pool(), |v| dist[v as usize].load(Ordering::Relaxed), |_| true)
        } else {
            near
        };
        run.end_iteration(false);
    }
    (unwrap_atomic_u32(&dist), run.finish(no_snapshot))
}

#[test]
fn sssp_as_a_primitive_matches_dijkstra_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let (dist, done) = sssp(&ctx, 0);
        assert_eq!(dist, serial::dijkstra(&g, 0), "{name}");
        assert_eq!(done.outcome, RunOutcome::Converged, "{name}");
        assert!(done.iterations > 0, "{name}");
        assert_eq!(u64::from(done.iterations), ctx.counters.iters(), "{name}");
    }
}

/// Convergence on an iteration cap rather than an empty frontier (the
/// paper's "maximum number of iterations" criterion): the loop condition
/// is the primitive's, the count is the driver's.
#[test]
fn iteration_cap_convergence_criterion() {
    let (_, g) = &graph_suite()[0];
    let ctx = Context::new(g);
    let frontier = Frontier::full(ctx.num_vertices()); // never empties on its own
    let mut run = Enactment::arm(&ctx, 0);
    while run.iterations() < 7 && !frontier.is_empty() && !run.boundary(no_snapshot) {
        run.end_iteration(false);
    }
    let done = run.finish(no_snapshot);
    assert_eq!((done.outcome, done.iterations), (RunOutcome::Converged, 7));
}
