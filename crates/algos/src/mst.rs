//! Minimum spanning forest — named in the paper's developed-primitives
//! list (§5.5: "we have developed or are actively developing ... minimal
//! spanning tree") and in §7 as a primitive that "internally modif[ies]
//! graph topology".
//!
//! Borůvka's algorithm in the frontier model: each round, every
//! component finds its minimum outgoing edge (a gather-reduce-style
//! per-vertex pass + per-component atomic min), the chosen edges hook
//! components together (the CC machinery), and pointer jumping flattens
//! labels; rounds repeat until no component has an outgoing edge.

use crate::primitive::{run, Primitive};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32};
use gunrock_engine::par;
use gunrock_graph::{Csr, EdgeId, VertexId, Weight};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// MST output.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// Edge ids (into the CSR) chosen for the spanning forest. For an
    /// undirected graph each chosen edge appears once (one direction).
    pub edges: Vec<EdgeId>,
    /// Total weight of the forest.
    pub total_weight: u64,
    /// Number of trees in the forest (== connected components).
    pub num_trees: usize,
    /// Borůvka rounds executed.
    pub rounds: u32,
    /// How the loop ended. On a partial outcome `edges` is a valid
    /// *sub-forest* of some minimum spanning forest (Borůvka rounds only
    /// ever commit safe edges), but components may not be fully merged:
    /// `num_trees` counts the merge state so far, an upper bound.
    pub outcome: RunOutcome,
}

/// Packs (weight, edge id) into one u64 so the per-component minimum can
/// be taken with a single atomic: weight in the high bits makes ordering
/// by weight primary, edge id breaks ties deterministically.
#[inline]
fn pack(w: Weight, e: EdgeId) -> u64 {
    ((w as u64) << 32) | e as u64
}

#[inline]
fn unpack(p: u64) -> (Weight, EdgeId) {
    ((p >> 32) as Weight, p as u32)
}

/// Borůvka as a [`Primitive`]: the component labels and the forest so
/// far.
pub struct Mst {
    labels: Vec<AtomicU32>,
    /// Each component's best outgoing edge key this round, [`NONE`]
    /// between rounds.
    best: Vec<AtomicU64>,
    chosen: Vec<EdgeId>,
    total_weight: u64,
    /// Set once a round finds no component that can grow.
    done: bool,
}

/// No outgoing edge: the best-edge key of a component that cannot grow.
const NONE: u64 = u64::MAX;

/// Computes a minimum spanning forest of the undirected weighted graph.
/// Unweighted graphs behave as weight-1 everywhere (any spanning forest).
pub fn mst(ctx: &Context<'_>) -> MstResult {
    run::<Mst>(ctx, &[], ())
}

impl Primitive for Mst {
    const NAME: &'static str = "mst";
    const ARITY: Arity = Arity::None;
    const ADVANCES: bool = false;
    type Options = ();
    type Result = MstResult;

    // component labels and the per-component best-edge keys
    fn state_bytes(n: u64, _m: u64) -> u64 {
        n * 4 + n * 8
    }

    fn init(ctx: &Context<'_>, _sources: &[VertexId], _opts: ()) -> Self {
        // component labels, maintained like CC (hook + jump)
        let labels = atomic_u32_vec(ctx.num_vertices(), 0);
        // ORDERING: Relaxed — packed best-edge and label cells are monotonic
        // fetch_min targets; each Boruvka round ends in a join barrier.
        compute::for_each_id(ctx.num_vertices(), |v| {
            labels[v as usize].store(v, Ordering::Relaxed)
        });
        let best = (0..ctx.num_vertices()).map(|_| AtomicU64::new(NONE)).collect();
        Mst { labels, best, chosen: Vec::new(), total_weight: 0, done: false }
    }

    fn live(&self, _iterations: u32) -> bool {
        !self.done
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, _mode: AdvanceMode) {
        run.end_iteration(false);
        let g: &Csr = ctx.graph;
        let n = g.num_vertices();
        // ORDERING: Relaxed — packed best-edge and label cells are monotonic
        // fetch_min targets; each Boruvka round ends in a join barrier.
        let (labels, best) = (&self.labels, &self.best);
        // Step 1: per-component minimum outgoing edge (atomic min over
        // the packed (weight, edge) key).
        let min_edge = || {
            compute::for_each_id(n, |u| {
                let lu = labels[u as usize].load(Ordering::Relaxed);
                for e in g.edge_range(u) {
                    let v = g.col_indices()[e];
                    let lv = labels[v as usize].load(Ordering::Relaxed);
                    if lu != lv {
                        best[lu as usize]
                            .fetch_min(pack(g.weight(e as u32), e as u32), Ordering::Relaxed);
                    }
                }
            });
            ctx.counters.add_edges(g.num_edges() as u64);
        };
        // Step 2: collect winners, resetting their keys for the next
        // round; stop when no component can grow.
        let winners = || -> Vec<(u32, u64)> {
            let claim = |c: u32| {
                let b = best[c as usize].load(Ordering::Relaxed);
                if b == NONE {
                    return None;
                }
                best[c as usize].store(NONE, Ordering::Relaxed);
                Some((c, b))
            };
            let block = |ids: std::ops::Range<u32>| ids.filter_map(claim).collect::<Vec<_>>();
            par::map_reduce(
                gunrock_engine::config::id_blocks(n),
                Vec::new(),
                block,
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
        };
        // a failed pass poisoned the run: the next boundary ends it
        let Some(winners) = compute::step(ctx, "mst:min_edge", n, min_edge)
            .and_then(|()| compute::step(ctx, "mst:winners", n, winners))
        else {
            return;
        };
        if winners.is_empty() {
            self.done = true;
            return;
        }
        // Step 3: hook along winning edges. Two components may pick the
        // same undirected edge (both directions), and equal-weight picks
        // can otherwise close cycles, so each edge is committed only if
        // its endpoints' *current roots* still differ — following label
        // chains gives the union-find view of this round's merges so far.
        let find = |mut x: u32| -> u32 {
            loop {
                let l = labels[x as usize].load(Ordering::Relaxed);
                if l == x {
                    return x;
                }
                x = l;
            }
        };
        let (chosen, total_weight) = (&mut self.chosen, &mut self.total_weight);
        let hook = || {
            for &(_c, b) in &winners {
                let (w, e) = unpack(b);
                let u = g.edge_source(e);
                let v = g.edge_dest(e);
                let ru = find(labels[u as usize].load(Ordering::Relaxed));
                let rv = find(labels[v as usize].load(Ordering::Relaxed));
                if ru == rv {
                    continue; // already merged this round
                }
                chosen.push(e);
                *total_weight += w as u64;
                // hook the larger root under the smaller (min-label invariant)
                let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
                labels[hi as usize].store(lo, Ordering::Relaxed);
            }
        };
        if compute::step(ctx, "mst:hook", winners.len(), hook).is_none() {
            return;
        }
        // Step 4: pointer jumping to flatten (serial-outer loop; each
        // pass is parallel)
        let jump = || {
            let changed = std::sync::atomic::AtomicBool::new(false);
            compute::for_each_id(n, |v| {
                let l = labels[v as usize].load(Ordering::Relaxed);
                let ll = labels[l as usize].load(Ordering::Relaxed);
                if ll < l {
                    labels[v as usize].fetch_min(ll, Ordering::Relaxed);
                    changed.store(true, Ordering::Relaxed);
                }
            });
            changed.load(Ordering::Relaxed)
        };
        while compute::step(ctx, "mst:jump", n, jump) == Some(true) {}
    }

    fn finish(self, _ctx: &Context<'_>, done: Enacted) -> MstResult {
        let labels = into_plain_u32(self.labels);
        let num_trees = labels.iter().zip(0u32..).filter(|&(&l, v)| l == v).count();
        MstResult {
            edges: self.chosen,
            total_weight: self.total_weight,
            num_trees,
            rounds: done.iterations,
            outcome: done.outcome,
        }
    }

    fn output(result: MstResult) -> Output {
        Output::Count(result.total_weight)
    }
}

/// Serial Kruskal oracle returning the forest's total weight.
pub fn mst_weight_kruskal(g: &Csr) -> u64 {
    let mut edges: Vec<(Weight, u32, u32)> = Vec::new();
    for u in 0..g.num_vertices() as u32 {
        for e in g.edge_range(u) {
            let v = g.col_indices()[e];
            if u < v {
                edges.push((g.weight(e as u32), u, v));
            }
        }
    }
    edges.sort_unstable();
    let mut parent: Vec<u32> = (0..g.num_vertices() as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    let mut total = 0u64;
    for (w, u, v) in edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
            total += w as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, grid2d};
    use gunrock_graph::{Coo, GraphBuilder};

    fn check_is_spanning_forest(g: &Csr, r: &MstResult) {
        // chosen edges form a forest connecting each component
        let cc = serial::connected_components(g);
        let n_components = serial::num_components(&cc);
        assert_eq!(r.num_trees, n_components);
        // forest edge count = n_in_components_with_vertices - components
        let n = g.num_vertices();
        assert_eq!(r.edges.len(), n - n_components);
        // edges must come from the graph and touch distinct components
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        for &e in &r.edges {
            let (u, v) = (g.edge_source(e), g.edge_dest(e));
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            assert_ne!(ru, rv, "edge {e} forms a cycle");
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }

    #[test]
    fn hand_checked_diamond() {
        // 0-1 (1), 1-3 (2), 0-2 (5), 2-3 (1): MST = {0-1, 2-3, 1-3} = 4
        let g = GraphBuilder::new()
            .build(Coo::from_weighted_edges(4, &[(0, 1, 1), (1, 3, 2), (0, 2, 5), (2, 3, 1)]));
        let ctx = Context::new(&g);
        let r = mst(&ctx);
        assert_eq!(r.total_weight, 4);
        assert_eq!(r.num_trees, 1);
        check_is_spanning_forest(&g, &r);
    }

    #[test]
    fn matches_kruskal_on_random_weighted_graphs() {
        for seed in 0..4u64 {
            let g = GraphBuilder::new()
                .random_weights(1, 64, seed)
                .build(erdos_renyi(200, 600, seed));
            let ctx = Context::new(&g);
            let r = mst(&ctx);
            assert_eq!(r.total_weight, mst_weight_kruskal(&g), "seed {seed}");
            check_is_spanning_forest(&g, &r);
        }
    }

    #[test]
    fn grid_mst() {
        let g = GraphBuilder::new().random_weights(1, 64, 9).build(grid2d(12, 12, 0.1, 0.0, 9));
        let ctx = Context::new(&g);
        let r = mst(&ctx);
        assert_eq!(r.total_weight, mst_weight_kruskal(&g));
        check_is_spanning_forest(&g, &r);
    }

    #[test]
    fn disconnected_graph_gives_forest() {
        let g = GraphBuilder::new().random_weights(1, 10, 3).build(erdos_renyi(200, 100, 3));
        let ctx = Context::new(&g);
        let r = mst(&ctx);
        assert!(r.num_trees > 1);
        assert_eq!(r.total_weight, mst_weight_kruskal(&g));
        check_is_spanning_forest(&g, &r);
    }

    #[test]
    fn iteration_cap_yields_a_safe_sub_forest() {
        let g = GraphBuilder::new().random_weights(1, 64, 5).build(grid2d(20, 20, 0.0, 0.0, 5));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(1));
        let r = mst(&ctx);
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.rounds, 1);
        // partial forest: acyclic, from the graph, and strictly fewer
        // edges than the full spanning tree on a diameter-40 grid
        let n = g.num_vertices();
        assert!(!r.edges.is_empty());
        assert!(r.edges.len() < n - 1);
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        for &e in &r.edges {
            let (u, v) = (g.edge_source(e), g.edge_dest(e));
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            assert_ne!(ru, rv, "edge {e} forms a cycle");
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
        // every committed edge weight is part of the final MST weight
        assert!(r.total_weight <= mst_weight_kruskal(&g));
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = GraphBuilder::new().build(Coo::new(3));
        let ctx = Context::new(&g);
        let r = mst(&ctx);
        assert!(r.edges.is_empty());
        assert_eq!(r.num_trees, 3);
        assert_eq!(r.total_weight, 0);
    }
}
