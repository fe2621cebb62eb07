//! Label-propagation community detection — the algorithm family §4.1.1
//! names as a beneficiary of frontier reorganization ("this will
//! potentially increase the performance of various types of community
//! detection and label propagation algorithms").
//!
//! Synchronous LPA in the frontier model: every active vertex adopts the
//! most frequent label among its neighbors (ties to the smallest label
//! for determinism); vertices whose label changed activate their
//! neighbors for the next round. Converges when the frontier empties or
//! the round cap is hit (plain LPA can oscillate on bipartite
//! structures; the cap plus tie-breaking keeps runs bounded and
//! deterministic).

use crate::primitive::{bitmap, frontiers, run, Primitive};
use crate::registry::{Arity, Output, Query};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32};
use gunrock_engine::par;
use gunrock_graph::{Csr, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Label-propagation output.
#[derive(Clone, Debug)]
pub struct LabelPropResult {
    /// Final community label per vertex.
    pub labels: Vec<VertexId>,
    /// Number of distinct communities.
    pub num_communities: usize,
    /// Rounds executed.
    pub rounds: u32,
    /// How the loop ended. LPA labels are usable at any round boundary —
    /// a partial outcome just means coarser communities than the run
    /// would have settled on. The algorithm's own `max_rounds` cap
    /// counts as convergence; only the context's [`RunPolicy`] produces
    /// partial outcomes.
    pub outcome: RunOutcome,
}

/// Label propagation's round cap in the registry (plain LPA can
/// oscillate).
const LABELPROP_ROUNDS: u32 = 50;

/// Label propagation as a [`Primitive`]: the labels, the active frontier
/// and the round cap, plus the two buffers every round reuses.
pub struct LabelProp {
    labels: Vec<AtomicU32>,
    frontier: Frontier,
    max_rounds: u32,
    /// Each frontier vertex's vote this round, by frontier position.
    votes: Vec<u32>,
    /// The neighbors of this round's changed vertices, cleared once they
    /// are the next frontier.
    marks: AtomicBitmap,
}

/// Runs synchronous label propagation for at most `max_rounds`.
pub fn label_propagation(ctx: &Context<'_>, max_rounds: u32) -> LabelPropResult {
    run::<LabelProp>(ctx, &[], max_rounds)
}

impl Primitive for LabelProp {
    const NAME: &'static str = "labelprop";
    const ARITY: Arity = Arity::None;
    const ADVANCES: bool = false;
    /// The round cap.
    type Options = u32;
    type Result = LabelPropResult;

    fn options(_query: &Query) -> u32 {
        LABELPROP_ROUNDS
    }

    // labels, the votes, the neighbor marks and the active frontier
    fn state_bytes(n: u64, _m: u64) -> u64 {
        2 * n * 4 + bitmap(n) + frontiers(n)
    }

    fn init(ctx: &Context<'_>, _sources: &[VertexId], max_rounds: u32) -> Self {
        let n = ctx.num_vertices();
        let labels = atomic_u32_vec(n, 0);
        // ORDERING: Relaxed — label cells tolerate stale reads by design (async
        // propagation); join barriers bound the staleness per sweep.
        compute::for_each_id(n, |v| labels[v as usize].store(v, Ordering::Relaxed));
        let (votes, marks) = (Vec::with_capacity(n), AtomicBitmap::new(n));
        LabelProp { labels, frontier: Frontier::full(n), max_rounds, votes, marks }
    }

    fn live(&self, iterations: u32) -> bool {
        !self.frontier.is_empty() && iterations < self.max_rounds
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, _mode: AdvanceMode) {
        run.end_iteration(false);
        let (g, labels) = (ctx.graph, &self.labels);
        let (frontier, votes, marks) = (&mut self.frontier, &mut self.votes, &mut self.marks);
        // compute step: each active vertex picks its neighbors' majority
        // label; no label changes before every vote is in (synchronous LPA)
        let ids = frontier.as_slice();
        let vote = || {
            votes.resize(ids.len(), 0);
            let grain = (ids.len() / (par::threads() * 8)).max(64);
            par::for_each(votes.chunks_mut(grain).zip(ids.chunks(grain)), |(out, chunk)| {
                let mut scratch = Vec::new();
                for (slot, &v) in out.iter_mut().zip(chunk) {
                    *slot = majority(g, labels, v, &mut scratch);
                }
            });
            ctx.counters.add_edges(ids.iter().map(|&v| g.out_degree(v) as u64).sum());
        };
        // a failed pass poisoned the run: the next boundary ends it
        if compute::step(ctx, "labelprop:vote", ids.len(), vote).is_none() {
            return;
        }
        // adopt the votes; the neighbors of every changed vertex form the
        // next frontier (deduplicated, ascending)
        let len = frontier.len();
        let scatter = || {
            let marks_ref: &AtomicBitmap = marks;
            let grain = grain_size(len);
            let tasks = frontier.as_slice().chunks(grain).zip(votes.chunks(grain));
            par::for_each(tasks, |(vs, bests)| {
                for (&v, &best) in vs.iter().zip(bests) {
                    // ORDERING: Relaxed — see init; each frontier vertex owns
                    // its label cell in this pass.
                    let cell = &labels[v as usize];
                    if cell.load(Ordering::Relaxed) != best {
                        cell.store(best, Ordering::Relaxed);
                        for &u in g.neighbors(v) {
                            marks_ref.set(u as usize);
                        }
                    }
                }
            });
            let next = frontier.as_mut_vec();
            next.clear();
            // CAST: bit indices are vertex ids < n <= u32::MAX.
            next.extend(marks.iter_ones().map(|u| u as u32));
            marks.clear_all();
        };
        compute::step(ctx, "labelprop:scatter", len, scatter);
    }

    fn finish(self, _ctx: &Context<'_>, done: Enacted) -> LabelPropResult {
        let final_labels = into_plain_u32(self.labels);
        let mut distinct: Vec<u32> = final_labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        LabelPropResult {
            labels: final_labels,
            num_communities: distinct.len(),
            rounds: done.iterations,
            outcome: done.outcome,
        }
    }

    fn output(result: LabelPropResult) -> Output {
        Output::Components(result.labels)
    }
}

/// The most frequent label among `v`'s neighbors, the smallest on ties;
/// `v`'s own label when it has no neighbor. `scratch` holds the
/// neighbors' labels, sorted so that each label is one run.
fn majority(g: &Csr, labels: &[AtomicU32], v: VertexId, scratch: &mut Vec<u32>) -> u32 {
    // ORDERING: Relaxed — see init: no label changes during a vote.
    let label = |u: VertexId| labels[u as usize].load(Ordering::Relaxed);
    scratch.clear();
    scratch.extend(g.neighbors(v).iter().map(|&u| label(u)));
    scratch.sort_unstable();
    // max_by_key keeps the last of equally long runs: walking the runs in
    // descending label order makes that the smallest label
    scratch
        .chunk_by(|a, b| a == b)
        .rev()
        .max_by_key(|run| run.len())
        .map_or_else(|| label(v), |run| run[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::erdos_renyi;
    use gunrock_graph::{Coo, GraphBuilder};

    fn two_cliques_with_bridge() -> gunrock_graph::Csr {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
            }
        }
        for i in 8..16u32 {
            for j in (i + 1)..16 {
                edges.push((i, j));
            }
        }
        edges.push((7, 8));
        GraphBuilder::new().build(Coo::from_edges(16, &edges))
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques_with_bridge();
        let ctx = Context::new(&g);
        let r = label_propagation(&ctx, 50);
        // each clique is internally uniform
        let first = &r.labels[..8];
        let second = &r.labels[8..];
        assert!(first.iter().all(|&l| l == first[0]), "{:?}", r.labels);
        assert!(second.iter().all(|&l| l == second[0]), "{:?}", r.labels);
        assert_ne!(first[0], second[0], "cliques form distinct communities");
        assert_eq!(r.num_communities, 2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // v indexes three parallel arrays
    fn communities_never_cross_connected_components() {
        let g = GraphBuilder::new().build(erdos_renyi(150, 180, 3));
        let ctx = Context::new(&g);
        let r = label_propagation(&ctx, 50);
        let cc = serial::connected_components(&g);
        // two vertices in different components can never share a label
        // (labels only propagate along edges)
        let mut label_to_component = std::collections::HashMap::new();
        for v in 0..g.num_vertices() {
            if g.out_degree(v as u32) == 0 {
                continue; // isolated vertices keep their own label
            }
            let prev = label_to_component.insert(r.labels[v], cc[v]);
            if let Some(c) = prev {
                assert_eq!(c, cc[v], "label crosses components");
            }
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_labels() {
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1)]));
        let ctx = Context::new(&g);
        let r = label_propagation(&ctx, 10);
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[3], 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = GraphBuilder::new().build(erdos_renyi(200, 700, 9));
        let run = || {
            let ctx = Context::new(&g);
            label_propagation(&ctx, 30).labels
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn round_cap_bounds_work() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 5));
        let ctx = Context::new(&g);
        let r = label_propagation(&ctx, 3);
        assert!(r.rounds <= 3);
        // the algorithm's own cap is convergence, not a policy trip
        assert_eq!(r.outcome, RunOutcome::Converged);
    }

    #[test]
    fn policy_cap_yields_partial_communities() {
        let g = two_cliques_with_bridge();
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(1));
        let r = label_propagation(&ctx, 50);
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.rounds, 1);
        // one round of LPA has merged labels but not yet settled: still
        // a valid labeling (every label is some vertex id)
        assert!(r.labels.iter().all(|&l| (l as usize) < g.num_vertices()));
        assert!(r.num_communities < g.num_vertices());
    }
}
