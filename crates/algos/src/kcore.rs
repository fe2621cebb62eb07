//! k-core decomposition by iterative peeling — a pure filter-loop
//! primitive: the frontier of "still alive" vertices shrinks as each
//! round filters out vertices whose residual degree falls below k.
//! Demonstrates convergence via a frontier emptying level by level.

use crate::primitive::{bitmap, frontiers, run, Primitive};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::into_plain_u32;
use gunrock_graph::{Csr, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// k-core output.
#[derive(Clone, Debug)]
pub struct KcoreResult {
    /// Core number of each vertex: the largest k such that the vertex
    /// belongs to a subgraph where every vertex has degree >= k.
    pub core_numbers: Vec<u32>,
    /// The degeneracy of the graph (maximum core number).
    pub degeneracy: u32,
    /// Peeling sub-rounds executed.
    pub iterations: u32,
    /// How the peeling loop ended. On a partial outcome every settled
    /// `core_numbers` entry (vertices already peeled) is exact; vertices
    /// still alive hold the highest k fully processed so far, a lower
    /// bound on their true core number.
    pub outcome: RunOutcome,
}

/// k-core peeling as a [`Primitive`]: residual degrees, core numbers,
/// the alive frontier and the `k` being peeled.
pub struct Kcore {
    /// Residual degree of each still-alive vertex.
    degree: Vec<AtomicU32>,
    core: Vec<AtomicU32>,
    alive: Frontier,
    k: u32,
    /// Set once a sub-round peels nothing: the alive vertices are the
    /// `k`-core, and the next sub-round peels for `k + 1`.
    settled: bool,
}

/// Computes core numbers for every vertex.
pub fn k_core(ctx: &Context<'_>) -> KcoreResult {
    run::<Kcore>(ctx, &[], ())
}

impl Primitive for Kcore {
    const NAME: &'static str = "kcore";
    const ARITY: Arity = Arity::None;
    const ADVANCES: bool = false;
    type Options = ();
    type Result = KcoreResult;

    // residual degrees and core numbers, the alive frontier and each
    // peel round's filter output and membership bitmap
    fn state_bytes(n: u64, _m: u64) -> u64 {
        2 * n * 4 + frontiers(n) + bitmap(n)
    }

    fn init(ctx: &Context<'_>, _sources: &[VertexId], _opts: ()) -> Self {
        let g = ctx.graph;
        let n = g.num_vertices() as u32;
        let degree = (0..n).map(|v| AtomicU32::new(g.out_degree(v))).collect();
        let core = (0..n).map(|_| AtomicU32::new(0)).collect();
        let alive = ctx.pooled_frontier(0..n);
        Kcore { degree, core, alive, k: 0, settled: true }
    }

    fn live(&self, _iterations: u32) -> bool {
        !self.settled || !self.alive.is_empty()
    }

    /// One peel sub-round: everything of residual degree below `k` leaves
    /// (cascading over sub-rounds until one peels nothing).
    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, _mode: AdvanceMode) {
        if self.settled {
            self.k += 1;
            self.settled = false;
        }
        run.end_iteration(false);
        let (g, k, degree, core) = (ctx.graph, self.k, &self.degree, &self.core);
        // vertices that fall out of the k-core this sub-round
        // ORDERING: Relaxed — degree/core cells take monotonic per-cell updates;
        // peeling rounds are separated by join barriers.
        let peeled = filter::filter(
            ctx,
            &self.alive,
            &VertexCond(|v: u32| degree[v as usize].load(Ordering::Relaxed) < k),
        );
        if peeled.is_empty() {
            ctx.recycle(peeled);
            // everything still alive is in the k-core
            let settle = |v: u32| core[v as usize].store(k, Ordering::Relaxed);
            compute::for_each_ctx(ctx, "kcore:settle", &self.alive, settle);
            self.settled = true;
            return;
        }
        // their core number is k-1; decrement neighbors
        compute::for_each_ctx(ctx, "kcore:peel", &peeled, |v| {
            core[v as usize].store(k - 1, Ordering::Relaxed);
            degree[v as usize].store(0, Ordering::Relaxed);
        });
        // pooled: the membership bitmap recycles its word storage
        // across peel rounds instead of reallocating each one
        let peeled_set = frontier_bitmap(ctx, &peeled);
        compute::for_each_ctx(ctx, "kcore:decrement", &peeled, |v| {
            for &u in g.neighbors(v) {
                // avoid double-decrement between two same-round peels:
                // a neighbor that is itself peeled no longer matters
                if !peeled_set.get(u as usize) {
                    let cell = &degree[u as usize];
                    let mut cur = cell.load(Ordering::Relaxed);
                    while cur > 0 {
                        match cell.compare_exchange_weak(
                            cur,
                            cur - 1,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(c) => cur = c,
                        }
                    }
                }
            }
        });
        // survivors continue; every retired frontier goes back to the
        // pool
        let survivors =
            filter::filter(ctx, &self.alive, &VertexCond(|v: u32| !peeled_set.get(v as usize)));
        ctx.recycle(std::mem::replace(&mut self.alive, survivors));
        ctx.recycle(peeled);
        peeled_set.release(ctx.pool());
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> KcoreResult {
        ctx.recycle(self.alive);
        let core_numbers = into_plain_u32(self.core);
        let degeneracy = core_numbers.iter().copied().max().unwrap_or(0);
        KcoreResult {
            core_numbers,
            degeneracy,
            iterations: done.iterations,
            outcome: done.outcome,
        }
    }

    fn output(result: KcoreResult) -> Output {
        Output::Depths(result.core_numbers)
    }
}

/// Serial peeling oracle (bucket-based, O(n + m)).
pub fn k_core_serial(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut degree: Vec<u32> = (0..n as u32).map(|v| g.out_degree(v)).collect();
    let maxd = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); maxd + 1];
    for v in 0..n {
        buckets[degree[v] as usize].push(v as u32);
    }
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    let mut k = 0u32;
    for d in 0..=maxd {
        let mut stack = std::mem::take(&mut buckets[d]);
        while let Some(v) = stack.pop() {
            if removed[v as usize] || degree[v as usize] as usize != d {
                // stale bucket entry: re-filed when its degree dropped
                continue;
            }
            k = k.max(d as u32);
            core[v as usize] = k;
            removed[v as usize] = true;
            for &u in g.neighbors(v) {
                if !removed[u as usize] && degree[u as usize] > d as u32 {
                    degree[u as usize] -= 1;
                    let nd = degree[u as usize] as usize;
                    if nd == d {
                        stack.push(u);
                    } else {
                        buckets[nd].push(u);
                    }
                }
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::generators::{erdos_renyi, grid2d, rmat};
    use gunrock_graph::{Coo, GraphBuilder};

    #[test]
    fn k4_is_a_3_core_with_a_tail() {
        // K4 plus a pendant vertex hanging off vertex 0
        let g = GraphBuilder::new().build(Coo::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)],
        ));
        let ctx = Context::new(&g);
        let r = k_core(&ctx);
        assert_eq!(r.core_numbers, vec![3, 3, 3, 3, 1]);
        assert_eq!(r.degeneracy, 3);
    }

    #[test]
    fn path_is_a_1_core() {
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let ctx = Context::new(&g);
        let r = k_core(&ctx);
        assert_eq!(r.core_numbers, vec![1, 1, 1, 1]);
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1)]));
        let ctx = Context::new(&g);
        let r = k_core(&ctx);
        assert_eq!(r.core_numbers, vec![1, 1, 0, 0]);
    }

    #[test]
    fn iteration_cap_bounds_core_numbers_from_below() {
        let g = GraphBuilder::new().build(rmat(8, 8, Default::default(), 5));
        let full = {
            let ctx = Context::new(&g);
            k_core(&ctx)
        };
        assert_eq!(full.outcome, RunOutcome::Converged);
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(2));
        let r = k_core(&ctx);
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.iterations, 2);
        for v in 0..g.num_vertices() {
            assert!(
                r.core_numbers[v] <= full.core_numbers[v],
                "vertex {v}: partial {} exceeds true {}",
                r.core_numbers[v],
                full.core_numbers[v]
            );
        }
    }

    #[test]
    fn matches_serial_peeling_on_suite() {
        let graphs = [
            GraphBuilder::new().build(erdos_renyi(200, 800, 1)),
            GraphBuilder::new().build(rmat(8, 8, Default::default(), 2)),
            GraphBuilder::new().build(grid2d(12, 12, 0.1, 0.05, 3)),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let ctx = Context::new(g);
            let r = k_core(&ctx);
            assert_eq!(r.core_numbers, k_core_serial(g), "graph {i}");
        }
    }
}
