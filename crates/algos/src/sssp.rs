//! Single-source shortest path (§4.2, §5.2, Algorithm 1).
//!
//! One iteration maps onto three Gunrock steps exactly as in the paper:
//! *advance* relaxes the frontier's out-edges (`UpdateLabel`: the
//! `new_label < atomicMin(labels[dst], new_label)` idiom, with `SetPred`
//! fused as the apply), *filter* removes redundant vertex ids (the
//! `output_queue_id` claim of `RemoveRedundant`), and the two-level
//! *priority queue* splits the output into near/far piles (delta
//! stepping, generalizing Davidson et al.).

use crate::recover::{
    check_failed, expect_len, expect_vertex_ids, malformed, scalar, to_atomic_u32,
};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32};
use gunrock_graph::{Csr, EdgeId, VertexId, INFINITY, INVALID_VERTEX};
use std::sync::atomic::{AtomicU32, Ordering};

/// SSSP configuration.
#[derive(Clone, Copy, Debug)]
pub struct SsspOptions {
    /// Near/far bucket width. `None` = Meyer–Sanders style heuristic
    /// (max weight / average degree).
    pub delta: Option<u32>,
    /// Disable the priority queue entirely (plain frontier
    /// label-correcting, i.e. parallel Bellman-Ford) — the paper's
    /// pre-Davidson baseline, kept for the ablation.
    pub use_priority_queue: bool,
    /// Workload mapping for the advance.
    pub mode: AdvanceMode,
    /// Record shortest-path-tree predecessors.
    pub record_predecessors: bool,
}

impl Default for SsspOptions {
    fn default() -> Self {
        SsspOptions {
            delta: None,
            use_priority_queue: true,
            mode: AdvanceMode::Auto,
            record_predecessors: true,
        }
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

/// The paper's `UpdateLabel` + `SetPred` functors fused into one advance
/// functor over the weighted graph.
struct Relax<'a> {
    graph: &'a Csr,
    dist: &'a [AtomicU32],
    preds: Option<&'a [AtomicU32]>,
}

impl AdvanceFunctor for Relax<'_> {
    #[inline]
    fn cond_edge(&self, src: VertexId, dst: VertexId, e: EdgeId) -> bool {
        let new_label = self.dist[src as usize]
            // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
            // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
            .load(Ordering::Relaxed)
            .saturating_add(self.graph.weight(e));
        // new_label < atomicMin(labels[dst], new_label)
        self.dist[dst as usize].fetch_min(new_label, Ordering::Relaxed) > new_label
    }
    #[inline]
    fn apply_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) {
        if let Some(p) = self.preds {
            // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
            // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
            p[dst as usize].store(src, Ordering::Relaxed);
        }
    }
}

/// The paper's `RemoveRedundant`: each improved vertex survives the
/// filter exactly once per iteration, claimed via its output-queue tag.
struct RemoveRedundant<'a> {
    tags: &'a [AtomicU32],
    queue_id: u32,
}

impl FilterFunctor for RemoveRedundant<'_> {
    #[inline]
    fn cond(&self, v: u32) -> bool {
        // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
        // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
        self.tags[v as usize].swap(self.queue_id, Ordering::Relaxed) != self.queue_id
    }
}

/// Picks a delta-stepping bucket width: roughly max-weight / avg-degree,
/// so each near pile carries a bounded amount of re-relaxation work.
pub fn default_delta(g: &Csr) -> u32 {
    let max_w = g.edge_values().map(|w| w.iter().copied().max().unwrap_or(1)).unwrap_or(1);
    let avg_deg = (g.num_edges() as f64 / g.num_vertices().max(1) as f64).max(1.0);
    ((max_w as f64 / avg_deg).ceil() as u32).max(1)
}

/// In-flight SSSP loop state at an iteration boundary (what a
/// checkpoint captures; see [`sssp_resume`]).
struct SsspLoop {
    dist: Vec<AtomicU32>,
    preds: Option<Vec<AtomicU32>>,
    tags: Vec<AtomicU32>,
    frontier: Frontier,
    queue: NearFarQueue,
    queue_id: u32,
}

/// Builds an iteration-boundary snapshot. Sections: per-vertex
/// `dist`/`preds`/`tags`, the live `frontier` and parked `far` pile, plus
/// packed scalars `[src, queue_id, delta, pivot, use_priority_queue,
/// record_preds]`.
fn sssp_checkpoint(
    iteration: u32,
    src: VertexId,
    opts: &SsspOptions,
    st: &SsspLoop,
) -> Checkpoint {
    let mut ckpt = Checkpoint::new("sssp", iteration);
    ckpt.push_u32("dist", unwrap_atomic_u32(&st.dist));
    ckpt.push_u32("preds", st.preds.as_deref().map(unwrap_atomic_u32).unwrap_or_default());
    ckpt.push_u32("tags", unwrap_atomic_u32(&st.tags));
    ckpt.push_u32("frontier", st.frontier.as_slice().to_vec());
    ckpt.push_u32("far", st.queue.far_slice().to_vec());
    ckpt.push_u32(
        "scalars",
        vec![
            src,
            st.queue_id,
            st.queue.delta(),
            st.queue.pivot(),
            opts.use_priority_queue as u32,
            opts.record_predecessors as u32,
        ],
    );
    ckpt
}

/// Runs SSSP from `src` (Dijkstra-class: needs non-negative weights;
/// unweighted graphs degenerate to BFS distances).
pub fn sssp(ctx: &Context<'_>, src: VertexId, opts: SsspOptions) -> SsspResult {
    let n = ctx.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let dist = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
    // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
    dist[src as usize].store(0, Ordering::Relaxed);
    let delta = opts.delta.unwrap_or_else(|| default_delta(ctx.graph));
    let st = SsspLoop {
        dist,
        preds: opts.record_predecessors.then(|| atomic_u32_vec(n, INVALID_VERTEX)),
        tags: atomic_u32_vec(n, u32::MAX),
        frontier: Frontier::single(src),
        queue: NearFarQueue::new(delta),
        queue_id: 0,
    };
    sssp_run(ctx, src, opts, st, 0)
}

/// Resumes SSSP from a `gunrock-ckpt/v1` snapshot. The checkpoint's
/// source, bucket geometry, queue discipline, and recorded-predecessor
/// setting override `opts`; the advance mode still comes from `opts`.
pub fn sssp_resume(
    ctx: &Context<'_>,
    opts: SsspOptions,
    ckpt: &Checkpoint,
) -> Result<SsspResult, GunrockError> {
    ckpt.expect_primitive("sssp")?;
    let n = ctx.num_vertices();
    let dist = ckpt.u32s("dist")?;
    expect_len(dist.len(), n, "dist")?;
    let preds = ckpt.u32s("preds")?;
    let tags = ckpt.u32s("tags")?;
    expect_len(tags.len(), n, "tags")?;
    let frontier = ckpt.u32s("frontier")?;
    expect_vertex_ids(frontier, n, "frontier")?;
    let far = ckpt.u32s("far")?;
    expect_vertex_ids(far, n, "far")?;
    let scalars = ckpt.u32s("scalars")?;
    let src = scalar(scalars, 0, "src")?;
    if src as usize >= n {
        return Err(malformed(format!("source {src} out of range for {n} vertices")));
    }
    let queue_id = scalar(scalars, 1, "queue_id")?;
    let delta = scalar(scalars, 2, "delta")?;
    if delta == 0 {
        return Err(malformed("bucket width delta must be positive"));
    }
    let pivot = scalar(scalars, 3, "pivot")?;
    let use_priority_queue = scalar(scalars, 4, "use_priority_queue")? == 1;
    let record_predecessors = scalar(scalars, 5, "record_predecessors")? == 1;
    if record_predecessors {
        expect_len(preds.len(), n, "preds")?;
    }
    let opts =
        SsspOptions { delta: Some(delta), use_priority_queue, record_predecessors, ..opts };
    let st = SsspLoop {
        dist: to_atomic_u32(dist),
        preds: record_predecessors.then(|| to_atomic_u32(preds)),
        tags: to_atomic_u32(tags),
        frontier: Frontier::from_vec(frontier.to_vec()),
        queue: NearFarQueue::restore(delta, pivot, far.to_vec()),
        queue_id,
    };
    let r = sssp_run(ctx, src, opts, st, ckpt.iteration());
    check_failed(ctx, r.outcome, r)
}

/// The enact loop proper, starting from an arbitrary iteration-boundary
/// state (fresh from [`sssp`] or restored by [`sssp_resume`]) that has
/// already completed `done` iterations.
fn sssp_run(
    ctx: &Context<'_>,
    src: VertexId,
    opts: SsspOptions,
    mut st: SsspLoop,
    done: u32,
) -> SsspResult {
    let mut run = Enactment::arm(ctx, done);
    // Budget admission: demote the advance mode (or poison with a
    // structured BudgetExceeded) before the first operator launches.
    let opts = SsspOptions { mode: crate::admission::admit(ctx, "sssp", opts.mode), ..opts };
    let relax = Relax { graph: ctx.graph, dist: &st.dist, preds: st.preds.as_deref() };
    'enact: loop {
        while !st.frontier.is_empty() {
            if run.boundary(|it| Some(sssp_checkpoint(it, src, &opts, &st))) {
                break 'enact;
            }
            run.end_iteration(false);
            let spec = AdvanceSpec::v2v().with_mode(opts.mode);
            let raw = advance::advance(ctx, &st.frontier, spec, &relax);
            let claim = RemoveRedundant { tags: &st.tags, queue_id: st.queue_id };
            let dedup = filter::filter(ctx, &raw, &claim);
            // the raw advance output is dead once deduplicated: back to
            // the pool so the next relaxation reuses its storage
            ctx.recycle(raw);
            st.queue_id = st.queue_id.wrapping_add(1);
            let next = if opts.use_priority_queue {
                // ORDERING: Relaxed — dist cells are monotonic fetch_min targets and tag
                // swaps need only per-cell atomicity; relaxation rounds end at join barriers.
                let near =
                    st.queue.split(&dedup, |v| st.dist[v as usize].load(Ordering::Relaxed));
                // the pooled filter output is dead once split
                ctx.recycle(dedup);
                near
            } else {
                dedup
            };
            ctx.recycle(std::mem::replace(&mut st.frontier, next));
        }
        if !opts.use_priority_queue {
            break;
        }
        st.frontier = st.queue.refill(|v| st.dist[v as usize].load(Ordering::Relaxed));
        if st.frontier.is_empty() {
            break;
        }
    }
    let done = run.finish(|it| Some(sssp_checkpoint(it, src, &opts, &st)));
    // the loop's last frontier still owns pooled storage; return it so
    // a re-run on this context starts with a warm pool
    ctx.recycle(st.frontier);
    SsspResult {
        dist: unwrap_atomic_u32(&st.dist),
        preds: st.preds.map(|p| unwrap_atomic_u32(&p)).unwrap_or_default(),
        edges_examined: ctx.counters.edges(),
        iterations: done.iterations,
        elapsed: done.elapsed,
        outcome: done.outcome,
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

    #[test]
    fn bellman_ford_mode_matches_too() {
        for g in suite() {
            let want = serial::dijkstra(&g, 0);
            let ctx = Context::new(&g);
            let r =
                sssp(&ctx, 0, SsspOptions { use_priority_queue: false, ..Default::default() });
            assert_eq!(r.dist, want);
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
        let bf = {
            let ctx = Context::new(&g);
            sssp(&ctx, 0, SsspOptions { use_priority_queue: false, ..Default::default() })
        };
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

    #[test]
    fn default_delta_is_sane() {
        for g in suite() {
            let d = default_delta(&g);
            assert!((1..=64).contains(&d), "delta {d}");
        }
    }
}
