//! Triangle counting over an edge frontier — a classic Gunrock-family
//! primitive showcasing the edge-centric side of the abstraction: the
//! frontier is all edges, the computation is a sorted neighbor-list
//! intersection per edge (possible because the builder sorts adjacency).

use crate::primitive::{run, Primitive};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_graph::{Csr, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Triangle counting output.
#[derive(Clone, Debug)]
pub struct TriangleResult {
    /// Total triangles in the undirected graph (each counted once).
    pub total: u64,
    /// Triangles incident to each vertex.
    pub per_vertex: Vec<u64>,
    /// How the run ended. Triangle counting is two compute passes, not
    /// an iterative loop, so the guard is checked between passes: a trip
    /// before the first pass returns all zeros; a trip between passes
    /// returns the exact total with empty `per_vertex`.
    pub outcome: RunOutcome,
}

/// Size of the intersection of two ascending slices.
fn intersect_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Triangle counting as a [`Primitive`]: two compute passes, the guard
/// checked before each.
pub struct Triangles {
    total: AtomicU64,
    per_vertex: Vec<u64>,
    /// Passes run so far.
    passes: u32,
}

/// Counts triangles in an undirected graph with sorted adjacency (the
/// builder's default output). The total is found over the all-edges
/// frontier: each triangle `{u < v < w}` is discovered exactly once at
/// its edge `(u, v)` by intersecting the two neighbor lists above `v`.
/// Per-vertex counts come from a second compute pass: at vertex `x`,
/// a triangle is a neighbor pair `(y, z)`, `y < z`, that is adjacent.
pub fn triangle_count(ctx: &Context<'_>) -> TriangleResult {
    run::<Triangles>(ctx, &[], ())
}

impl Primitive for Triangles {
    const NAME: &'static str = "triangles";
    const ARITY: Arity = Arity::None;
    const ADVANCES: bool = false;
    type Options = ();
    type Result = TriangleResult;

    // the per-vertex counts
    fn state_bytes(n: u64, _m: u64) -> u64 {
        n * 8
    }

    fn init(ctx: &Context<'_>, _sources: &[VertexId], _opts: ()) -> Self {
        let g = ctx.graph;
        debug_assert!(
            (0..g.num_vertices() as u32)
                .all(|v| g.neighbors(v).windows(2).all(|w| w[0] < w[1])),
            "triangle counting requires sorted, deduplicated adjacency"
        );
        Triangles { total: AtomicU64::new(0), per_vertex: Vec::new(), passes: 0 }
    }

    fn live(&self, _iterations: u32) -> bool {
        self.passes < 2
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, _mode: AdvanceMode) {
        let g = ctx.graph;
        if self.passes == 0 {
            // Pass 1: total, over the edge frontier.
            total_pass(g, &self.total);
            ctx.counters.add_edges(g.num_edges() as u64);
            run.end_iteration(false);
        } else {
            // Pass 2: per-vertex counts, unless the guard tripped in between.
            self.per_vertex = per_vertex_counts(g);
        }
        self.passes += 1;
    }

    fn finish(self, _ctx: &Context<'_>, done: Enacted) -> TriangleResult {
        TriangleResult {
            total: self.total.into_inner(),
            per_vertex: self.per_vertex,
            outcome: done.outcome,
        }
    }

    fn output(result: TriangleResult) -> Output {
        Output::Count(result.total)
    }
}

/// Adds every triangle `{u < v < w}` to `total` once, at its edge `(u, v)`.
fn total_pass(g: &Csr, total: &AtomicU64) {
    compute::for_each(&Frontier::full(g.num_edges()), |e| {
        let u = g.edge_source(e);
        let v = g.edge_dest(e);
        if u >= v {
            return; // each undirected edge handled once, ordered
        }
        let above = |list: &[VertexId]| -> usize { list.partition_point(|&x| x <= v) };
        let nu = g.neighbors(u);
        let nv = g.neighbors(v);
        let c = intersect_count(&nu[above(nu)..], &nv[above(nv)..]);
        if c > 0 {
            // ORDERING: Relaxed — a commutative sum, read only after the join barrier.
            total.fetch_add(c, Ordering::Relaxed);
        }
    });
}

fn per_vertex_counts(g: &Csr) -> Vec<u64> {
    (0..g.num_vertices() as u32)
        .into_par_iter()
        .map(|x| {
            let nx = g.neighbors(x);
            let mut c = 0u64;
            for (i, &y) in nx.iter().enumerate() {
                c += intersect_count(&nx[i + 1..], g.neighbors(y));
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, rmat};
    use gunrock_graph::{Coo, GraphBuilder};

    #[test]
    fn triangle_graph_has_one() {
        let g = GraphBuilder::new().build(Coo::from_edges(3, &[(0, 1), (1, 2), (2, 0)]));
        let ctx = Context::new(&g);
        let r = triangle_count(&ctx);
        assert_eq!(r.total, 1);
        assert_eq!(r.per_vertex, vec![1, 1, 1]);
    }

    #[test]
    fn square_has_none_k4_has_four() {
        let square =
            GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]));
        let ctx = Context::new(&square);
        assert_eq!(triangle_count(&ctx).total, 0);
        let k4 = GraphBuilder::new()
            .build(Coo::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]));
        let ctx = Context::new(&k4);
        let r = triangle_count(&ctx);
        assert_eq!(r.total, 4);
        assert!(r.per_vertex.iter().all(|&c| c == 3));
    }

    #[test]
    fn matches_serial_oracle_on_random_graphs() {
        for seed in 0..3u64 {
            let g = GraphBuilder::new().build(erdos_renyi(120, 500, seed));
            let ctx = Context::new(&g);
            let r = triangle_count(&ctx);
            assert_eq!(r.total, serial::triangle_count(&g), "seed {seed}");
            // sum of per-vertex counts = 3 * total
            assert_eq!(r.per_vertex.iter().sum::<u64>(), 3 * r.total);
        }
    }

    #[test]
    fn cancelled_count_returns_zero_without_panicking() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let g = GraphBuilder::new().build(erdos_renyi(100, 400, 6));
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag));
        let r = triangle_count(&ctx);
        assert_eq!(r.outcome, RunOutcome::Cancelled);
        assert_eq!(r.total, 0);
        assert!(r.per_vertex.is_empty());
    }

    #[test]
    fn iteration_cap_between_passes_keeps_the_exact_total() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 400, 6));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(1));
        let r = triangle_count(&ctx);
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.total, serial::triangle_count(&g));
        assert!(r.per_vertex.is_empty());
    }

    #[test]
    fn scale_free_graph_is_triangle_rich() {
        let g = GraphBuilder::new().build(rmat(8, 16, Default::default(), 4));
        let ctx = Context::new(&g);
        let r = triangle_count(&ctx);
        assert!(r.total > 100, "got {}", r.total);
        assert_eq!(r.total, serial::triangle_count(&g));
    }
}
