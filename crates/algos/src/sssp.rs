//! Single-source shortest path (§4.2, §5.2, Algorithm 1).
//!
//! One iteration is one *advance* and one near–far *split*. The advance's
//! functor fuses the paper's three per-edge steps: `UpdateLabel` (the
//! `new_label < atomicMin(labels[dst], new_label)` idiom, which loads
//! first and skips the atomic when it cannot win), `SetPred` on every
//! improvement, and `RemoveRedundant`'s `output_queue_id` claim, so each
//! improved vertex enters the output once per iteration and no separate
//! filter pass runs. The two-level *priority queue* then splits that
//! output into near/far piles by current distance (delta stepping,
//! generalizing Davidson et al.). When the near pile runs dry the refill
//! claims the next window's vertices with a fresh `queue_id`, so a vertex
//! parked several times expands once.
//!
//! The paper's pre-Davidson baseline, frontier Bellman-Ford, is the same
//! loop with `delta: Some(u32::MAX)`: the first window is then
//! `[0, u32::MAX)`, and a claimed vertex's distance is always below
//! `INFINITY` (`fetch_min` only wins below it), so every claimed vertex
//! stays near and the far pile stays empty.

use crate::primitive::{
    bitmap, first_source, frontiers, malformed, run, to_atomic_u32, Primitive,
};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32, unwrap_atomic_u32, Sole};
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
use gunrock_engine::par;
use gunrock_graph::{Csr, EdgeId, VertexId, INFINITY, INVALID_VERTEX};
use std::sync::atomic::{AtomicU32, Ordering};

/// SSSP configuration.
#[derive(Clone, Copy, Debug)]
pub struct SsspOptions {
    /// Near/far bucket width. `None` = Meyer–Sanders style heuristic
    /// (max weight / average degree); `Some(u32::MAX)` = one window, i.e.
    /// plain frontier label-correcting (parallel Bellman-Ford).
    pub delta: Option<u32>,
    /// Workload mapping for the advance.
    pub mode: AdvanceMode,
}

impl Default for SsspOptions {
    fn default() -> Self {
        SsspOptions { delta: None, mode: AdvanceMode::Auto }
    }
}

/// SSSP output.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Shortest distance per vertex (`INFINITY` = unreachable).
    pub dist: Vec<u32>,
    /// Shortest-path-tree parent (`INVALID_VERTEX` for source/unreached).
    pub preds: Vec<VertexId>,
    /// Edge relaxations attempted.
    pub edges_examined: u64,
    /// Bulk-synchronous iterations executed.
    pub iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the enact loop ended. Anything but
    /// [`RunOutcome::Converged`] means `dist`/`preds` are a consistent
    /// partial relaxation: every finite distance is a real path length,
    /// but not necessarily the shortest.
    pub outcome: RunOutcome,
}

impl SsspResult {
    /// Millions of traversed edges per second.
    pub fn mteps(&self) -> f64 {
        Timing { elapsed: self.elapsed, edges_examined: self.edges_examined }.mteps()
    }
}

/// The paper's `UpdateLabel`, `SetPred` and `RemoveRedundant` functors
/// fused into one advance functor over the weighted graph: an edge
/// succeeds only when it improves `dst` *and* claims `dst`'s slot in this
/// iteration's output (`tags[dst]` swapped to `queue_id`).
struct Relax<'a> {
    graph: &'a Csr,
    dist: &'a [AtomicU32],
    preds: &'a [AtomicU32],
    tags: &'a [AtomicU32],
    queue_id: u32,
}

impl AdvanceFunctor for Relax<'_> {
    #[inline]
    fn cond_edge<A: Access>(&self, a: A, src: VertexId, dst: VertexId, e: EdgeId) -> bool {
        let new_label = self.dist[src as usize]
            // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
            // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
            .load(Ordering::Relaxed)
            .saturating_add(self.graph.weight(e));
        // new_label < atomicMin(labels[dst], new_label)
        if !a.fetch_min_u32(&self.dist[dst as usize], new_label) {
            return false;
        }
        // every improvement records its parent, so a vertex improved twice
        // in one pass keeps the parent of its final distance
        self.preds[dst as usize].store(src, Ordering::Relaxed);
        a.swap_claim(&self.tags[dst as usize], self.queue_id)
    }
}

/// Picks a delta-stepping bucket width: roughly max-weight / avg-degree,
/// so each near pile carries a bounded amount of re-relaxation work.
pub fn default_delta(g: &Csr) -> u32 {
    let max_w = g.edge_values().map(|w| w.iter().copied().max().unwrap_or(1)).unwrap_or(1);
    let avg_deg = (g.num_edges() as f64 / g.num_vertices().max(1) as f64).max(1.0);
    ((max_w as f64 / avg_deg).ceil() as u32).max(1)
}

/// SSSP as a [`Primitive`]: the in-flight state at an iteration
/// boundary, all of which a snapshot captures.
pub struct Sssp {
    src: VertexId,
    dist: Vec<AtomicU32>,
    preds: Vec<AtomicU32>,
    tags: Vec<AtomicU32>,
    frontier: Frontier,
    queue: NearFarQueue,
    queue_id: u32,
}

/// Runs SSSP from `src` (Dijkstra-class: needs non-negative weights;
/// unweighted graphs degenerate to BFS distances).
pub fn sssp(ctx: &Context<'_>, src: VertexId, opts: SsspOptions) -> SsspResult {
    run::<Sssp>(ctx, &[src], opts)
}

impl Primitive for Sssp {
    const NAME: &'static str = "sssp";
    const ARITY: Arity = Arity::One;
    const ADVANCES: bool = true;
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "sssp",
        fields: &[
            Field("dist", "u32", PerVertex),
            Field("preds", "u32", PerVertex),
            Field("tags", "u32", PerVertex),
            Field("frontier", "u32", VertexIds),
            Field("far", "u32", VertexIds),
            Field(
                "scalars",
                "u32",
                Slots(&[
                    Vertex("src"),
                    Plain("queue_id"),
                    Plain("delta"),
                    Plain("pivot"),
                    Pinned("use_priority_queue", 1),
                    Pinned("record_predecessors", 1),
                ]),
            ),
        ],
    });
    type Options = SsspOptions;
    type Result = SsspResult;

    fn mode(opts: &SsspOptions) -> AdvanceMode {
        opts.mode
    }

    // distances, a bitmap's worth of slack and the frontier pair (a
    // near-far refill's window is one pooled frontier, checked out after
    // the exhausted one went back)
    fn state_bytes(n: u64, _m: u64) -> u64 {
        n * 4 + bitmap(n) + frontiers(n)
    }

    fn init(ctx: &Context<'_>, sources: &[VertexId], opts: SsspOptions) -> Self {
        let (n, src) = (ctx.num_vertices(), first_source(sources));
        assert!((src as usize) < n, "source out of range");
        let dist = atomic_u32_vec(n, INFINITY);
        // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
        // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
        dist[src as usize].store(0, Ordering::Relaxed);
        let delta = opts.delta.unwrap_or_else(|| default_delta(ctx.graph));
        Sssp {
            src,
            dist,
            preds: atomic_u32_vec(n, INVALID_VERTEX),
            tags: atomic_u32_vec(n, u32::MAX),
            frontier: ctx.pooled_frontier([src].into_iter()),
            queue: NearFarQueue::new(delta),
            queue_id: 0,
        }
    }

    /// The snapshot's bucket geometry overrides `opts`. A snapshot of the
    /// retired queue-less loop (`use_priority_queue = 0`) or one without
    /// predecessors is rejected.
    fn load(
        ctx: &Context<'_>,
        snap: &Snapshot<'_>,
        _opts: SsspOptions,
    ) -> Result<Self, GunrockError> {
        let delta = snap.slot("delta")?;
        if delta == 0 {
            return Err(malformed("bucket width delta must be positive"));
        }
        Ok(Sssp {
            src: snap.slot("src")?,
            dist: to_atomic_u32(snap.section("dist")?),
            preds: to_atomic_u32(snap.section("preds")?),
            tags: to_atomic_u32(snap.section("tags")?),
            frontier: ctx.pooled_frontier(snap.section("frontier")?.iter().copied()),
            queue: NearFarQueue::restore(
                delta,
                snap.slot("pivot")?,
                snap.section("far")?.to_vec(),
            ),
            queue_id: snap.slot("queue_id")?,
        })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        let (queue_id, delta, pivot) = (self.queue_id, self.queue.delta(), self.queue.pivot());
        snapshot
            .section("dist", unwrap_atomic_u32(&self.dist))
            .section("preds", unwrap_atomic_u32(&self.preds))
            .section("tags", unwrap_atomic_u32(&self.tags))
            .section("frontier", self.frontier.as_slice().to_vec())
            .section("far", self.queue.far_slice().to_vec())
            .slots(
                "scalars",
                &[
                    ("src", self.src),
                    ("queue_id", queue_id),
                    ("delta", delta),
                    ("pivot", pivot),
                ],
            )
    }

    fn sources(&self) -> Vec<VertexId> {
        vec![self.src]
    }

    fn live(&self, _iterations: u32) -> bool {
        !self.frontier.is_empty()
    }

    /// One relax-and-split iteration; when it leaves the near pile empty,
    /// the refill opens the next window before the next boundary.
    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        run.end_iteration(false);
        let relax = Relax {
            graph: ctx.graph,
            dist: &self.dist,
            preds: &self.preds,
            tags: &self.tags,
            queue_id: self.queue_id,
        };
        let spec = AdvanceSpec::v2v().with_mode(mode);
        // on one thread: a relaxation's fetch_min and tag swap land on
        // lines the other CPU's relaxations write too, and on kron 15 that
        // cost more than a second CPU gave back (EXPERIMENTS.md, "Real
        // threads behind par"); it also keeps the rounds and the parents
        // independent of the schedule. On one thread an Auto advance takes
        // the serial path at every size, where the relaxation is the sole
        // writer: its fetch_min and tag claim are loads and stores
        // (EXPERIMENTS.md, "Sole-writer claims")
        let claimed =
            par::with_threads(1, || advance::advance(ctx, &self.frontier, spec, &relax));
        self.queue_id = self.queue_id.wrapping_add(1);
        // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
        // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
        let next = self.queue.split(claimed, |v| self.dist[v as usize].load(Ordering::Relaxed));
        ctx.recycle(std::mem::replace(&mut self.frontier, next));
        if !self.frontier.is_empty() {
            return;
        }
        // the exhausted near frontier's storage is the refill's to reuse
        ctx.recycle(std::mem::take(&mut self.frontier));
        let (queue, dist, tags, id) = (&mut self.queue, &self.dist, &self.tags, self.queue_id);
        // the refill claims each vertex with this iteration's fresh queue
        // id, so a vertex parked more than once expands once; it checks
        // its output out of the pool: isolated, so a denied checkout fails
        // the run instead of unwinding out of it
        // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
        // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
        let prio = |v: u32| dist[v as usize].load(Ordering::Relaxed);
        // the refill runs on this thread alone: a sole writer's claim
        let claim = |v: u32| Sole.swap_claim(&tags[v as usize], id);
        let near = ctx.isolated_setup("refill", || queue.refill(ctx.pool(), prio, claim));
        // the next advance claims with a new id, so it can re-enqueue a
        // refilled vertex it improves
        self.queue_id = self.queue_id.wrapping_add(1);
        if let Some(near) = near.filter(|near| !near.is_empty()) {
            self.frontier = near;
        }
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> SsspResult {
        // the loop's last frontier still owns pooled storage; return it so
        // a re-run on this context starts with a warm pool
        ctx.recycle(self.frontier);
        SsspResult {
            dist: into_plain_u32(self.dist),
            preds: into_plain_u32(self.preds),
            edges_examined: done.edges_examined,
            iterations: done.iterations,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: SsspResult) -> Output {
        Output::Depths(result.dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, grid2d, hub_chain, rmat};
    use gunrock_graph::GraphBuilder;

    fn suite() -> Vec<Csr> {
        vec![
            GraphBuilder::new().random_weights(1, 64, 1).build(erdos_renyi(400, 1200, 1)),
            GraphBuilder::new().random_weights(1, 64, 2).build(rmat(
                9,
                8,
                Default::default(),
                2,
            )),
            GraphBuilder::new().random_weights(1, 64, 3).build(grid2d(18, 18, 0.1, 0.0, 3)),
            GraphBuilder::new().random_weights(1, 64, 4).build(hub_chain(500, 0.1, 100, 4)),
        ]
    }

    #[test]
    fn matches_dijkstra_on_all_topologies() {
        for (i, g) in suite().iter().enumerate() {
            let want = serial::dijkstra(g, 0);
            let ctx = Context::new(g);
            let r = sssp(&ctx, 0, SsspOptions::default());
            assert_eq!(r.dist, want, "graph {i}");
        }
    }

    /// One window as wide as the distance range: frontier Bellman-Ford.
    const BELLMAN_FORD: SsspOptions =
        SsspOptions { delta: Some(u32::MAX), mode: AdvanceMode::Auto };

    #[test]
    fn bellman_ford_mode_matches_too() {
        for g in suite() {
            let want = serial::dijkstra(&g, 0);
            let ctx = Context::new(&g);
            let r = sssp(&ctx, 0, BELLMAN_FORD);
            assert_eq!(r.dist, want);
        }
    }

    /// Frontier Bellman-Ford without a queue: each iteration is one
    /// relax-and-claim advance whose output is the next frontier. Returns
    /// the distances, the iteration count and the edges examined.
    fn frontier_only(g: &Csr, src: VertexId) -> (Vec<u32>, u32, u64) {
        let ctx = Context::new(g);
        let n = g.num_vertices();
        let dist = atomic_u32_vec(n, INFINITY);
        dist[src as usize].store(0, Ordering::Relaxed);
        let preds = atomic_u32_vec(n, INVALID_VERTEX);
        let tags = atomic_u32_vec(n, u32::MAX);
        let mut frontier = Frontier::single(src);
        let (mut iterations, mut queue_id) = (0, 0);
        while !frontier.is_empty() {
            iterations += 1;
            let relax = Relax { graph: g, dist: &dist, preds: &preds, tags: &tags, queue_id };
            frontier = advance::advance(&ctx, &frontier, AdvanceSpec::v2v(), &relax);
            queue_id += 1;
        }
        (unwrap_atomic_u32(&dist), iterations, ctx.counters.edges())
    }

    #[test]
    fn delta_max_runs_frontier_bellman_ford() {
        for (i, g) in suite().iter().enumerate() {
            // the primitive relaxes on one thread; so does its reference
            let (dist, iterations, edges) = par::with_threads(1, || frontier_only(g, 0));
            let r = sssp(&Context::new(g), 0, BELLMAN_FORD);
            assert_eq!(r.dist, dist, "graph {i}");
            assert_eq!(r.iterations, iterations, "graph {i}");
            assert_eq!(r.edges_examined, edges, "graph {i}");
        }
    }

    #[test]
    fn all_deltas_give_correct_distances() {
        let g = &suite()[0];
        let want = serial::dijkstra(g, 0);
        for delta in [1u32, 4, 16, 64, 100_000] {
            let ctx = Context::new(g);
            let r = sssp(&ctx, 0, SsspOptions { delta: Some(delta), ..Default::default() });
            assert_eq!(r.dist, want, "delta {delta}");
        }
    }

    #[test]
    fn priority_queue_reduces_relaxations_vs_bellman_ford() {
        // on a long-diameter weighted graph, delta stepping should do
        // fewer edge relaxations than frontier Bellman-Ford
        let g =
            GraphBuilder::new().random_weights(1, 64, 7).build(grid2d(40, 40, 0.05, 0.0, 7));
        let bf = sssp(&Context::new(&g), 0, BELLMAN_FORD);
        let ds = {
            let ctx = Context::new(&g);
            sssp(&ctx, 0, SsspOptions::default())
        };
        assert_eq!(bf.dist, ds.dist);
        assert!(
            ds.edges_examined < bf.edges_examined,
            "delta stepping {} vs bellman-ford {}",
            ds.edges_examined,
            bf.edges_examined
        );
    }

    #[test]
    fn predecessors_form_shortest_path_tree() {
        let g = &suite()[1];
        let ctx = Context::new(g);
        let r = sssp(&ctx, 0, SsspOptions::default());
        for v in 0..g.num_vertices() {
            if r.dist[v] == INFINITY || v == 0 {
                continue;
            }
            let p = r.preds[v];
            assert_ne!(p, INVALID_VERTEX, "vertex {v}");
            // the recorded parent achieves the shortest distance
            let e = g
                .edge_range(p)
                .find(|&e| g.col_indices()[e] == v as u32)
                .expect("pred edge exists");
            assert_eq!(r.dist[p as usize] + g.weight(e as u32), r.dist[v], "vertex {v}");
        }
    }

    #[test]
    fn unweighted_graph_degenerates_to_bfs() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 900, 9));
        let ctx = Context::new(&g);
        let r = sssp(&ctx, 0, SsspOptions::default());
        assert_eq!(r.dist, serial::bfs(&g, 0));
    }

    #[test]
    fn iteration_cap_returns_consistent_partial_distances() {
        let g =
            GraphBuilder::new().random_weights(1, 64, 11).build(grid2d(30, 30, 0.0, 0.0, 11));
        let full = {
            let ctx = Context::new(&g);
            sssp(&ctx, 0, SsspOptions::default())
        };
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(2));
        let r = sssp(&ctx, 0, SsspOptions::default());
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.iterations, 2);
        assert_eq!(full.outcome, RunOutcome::Converged);
        // every settled distance is an upper bound on the true distance
        // (a real path length), never an undershoot
        for v in 0..g.num_vertices() {
            assert!(r.dist[v] >= full.dist[v], "vertex {v}");
        }
        assert_eq!(r.dist[0], 0);
    }

    #[test]
    fn pre_tripped_cancel_leaves_only_the_source_settled() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let g = &suite()[0];
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = Context::new(g).with_policy(RunPolicy::unbounded().cancel_flag(flag));
        let r = sssp(&ctx, 0, SsspOptions::default());
        assert_eq!(r.outcome, RunOutcome::Cancelled);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.dist[0], 0);
        assert!(r.dist[1..].iter().all(|&d| d == INFINITY));
    }

    /// 0 -> 1 (1), 0 -> 2 (2), 1 -> 3 (50), 2 -> 3 (3), 3 -> 4 (1): in the
    /// second iteration vertex 3 is claimed at the far distance 51 through
    /// 1, then improved to the near distance 5 through 2.
    fn far_then_near() -> Csr {
        let edges = [(0, 1, 1), (0, 2, 2), (1, 3, 50), (2, 3, 3), (3, 4, 1)];
        GraphBuilder::new().directed().build(gunrock_graph::Coo::from_weighted_edges(5, &edges))
    }

    #[test]
    fn a_vertex_improved_from_far_to_near_in_one_pass_expands_next_iteration() {
        let g = far_then_near();
        let ctx = Context::new(&g);
        let r = sssp(&ctx, 0, SsspOptions { delta: Some(10), ..Default::default() });
        // routed far by its claim-time distance, 3 would come back from the
        // far pile as stale and 4 would never be reached
        assert_eq!(r.dist, vec![0, 1, 2, 5, 6]);
        // {0}, {1, 2}, {3}, {4}: no refill between 3's claim and its expansion
        assert_eq!(r.iterations, 4);
    }

    #[test]
    fn a_double_improvement_keeps_the_predecessor_of_the_final_distance() {
        let g = far_then_near();
        let ctx = Context::new(&g);
        let r = sssp(&ctx, 0, SsspOptions { delta: Some(10), ..Default::default() });
        assert_eq!(r.preds, vec![INVALID_VERTEX, 0, 0, 2, 3]);
    }

    #[test]
    fn reruns_on_one_context_report_their_own_edges() {
        let g = &suite()[1];
        let ctx = Context::new(g);
        let first = sssp(&ctx, 0, SsspOptions::default());
        let second = sssp(&ctx, 0, SsspOptions::default());
        assert!(first.edges_examined > 0);
        assert_eq!(first.edges_examined, second.edges_examined);
        assert_eq!(first.iterations, second.iterations);
    }

    #[test]
    fn warm_runs_leave_the_pool_balanced() {
        for (i, g) in suite().iter().enumerate() {
            let ctx = Context::new(g);
            for run in 0..3 {
                let r = sssp(&ctx, 0, SsspOptions::default());
                assert_eq!(r.outcome, RunOutcome::Converged, "graph {i}");
                let pool = ctx.pool().stats();
                assert_eq!(pool.releases, pool.checkouts, "graph {i}, run {run}");
                assert_eq!(pool.live, 0, "graph {i}, run {run}");
            }
        }
    }

    #[test]
    fn default_delta_is_sane() {
        for g in suite() {
            let d = default_delta(&g);
            assert!((1..=64).contains(&d), "delta {d}");
        }
    }
}
