//! Breadth-first search (§5.1).
//!
//! Two variants:
//!
//! * **direction-optimized** (the default) — a push level is one advance
//!   whose functor claims each destination on the visited bitmap (a
//!   `test_and_set` that loads first, so an edge into a visited vertex
//!   costs no atomic) and labels it, so each vertex enters the output
//!   once and no culling filter runs: the paper's idempotent advance and
//!   bitmask-culling filter, fused (§7). With a reverse graph on the
//!   context, levels switch to a bitmap pull sweep per Beamer (§4.1.1);
//!   without one every level pushes.
//! * **atomic** — the base implementation "uses atomics during advance to
//!   prevent concurrent vertex discovery": a CAS on the label array makes
//!   each vertex enter the output frontier exactly once.
//!
//! The paper's two-kernel form (idempotent advance, then the culling
//! filter) is built from the core operators in the `ablation_fusion` and
//! `ablation_filter` benchmarks.

use crate::recover::{
    check_failed, expect_len, expect_vertex_ids, malformed, scalar, to_atomic_u32,
};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32};
#[cfg(test)]
use gunrock_graph::Csr;
use gunrock_graph::{EdgeId, VertexId, INFINITY, INVALID_VERTEX};
use std::sync::atomic::{AtomicU32, Ordering};

/// Traversal variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsVariant {
    /// Atomic unique discovery (CAS on labels).
    Atomic,
    /// Claiming push levels (the visited bitmap culls inside the
    /// advance), pull levels when the context has a reverse graph and the
    /// policy asks for them.
    DirectionOptimized,
}

impl BfsVariant {
    /// Numeric tag stored in checkpoints.
    fn tag(self) -> u32 {
        match self {
            BfsVariant::Atomic => 0,
            BfsVariant::DirectionOptimized => 2,
        }
    }

    fn from_tag(tag: u32) -> Option<BfsVariant> {
        match tag {
            0 => Some(BfsVariant::Atomic),
            // 1 was the push-only idempotent variant and 3 the fused one:
            // both pushed the levels the direction-optimized variant pushes
            1..=3 => Some(BfsVariant::DirectionOptimized),
            _ => None,
        }
    }
}

/// BFS configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfsOptions {
    /// Traversal variant (direction-optimized / atomic).
    pub variant: BfsVariant,
    /// Workload mapping for push advances.
    pub mode: AdvanceMode,
    /// Record BFS-tree predecessors.
    pub record_predecessors: bool,
    /// Direction-switch thresholds (direction-optimized variant).
    pub policy: DirectionPolicy,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            variant: BfsVariant::DirectionOptimized,
            mode: AdvanceMode::Auto,
            record_predecessors: true,
            policy: DirectionPolicy::default(),
        }
    }
}

impl BfsOptions {
    /// Direction-optimized traversal — the default. It pulls only over a
    /// reverse graph in the context (for undirected graphs the forward
    /// graph serves); without one every level pushes.
    pub fn direction_optimized() -> Self {
        Self::default()
    }

    /// Base atomic variant.
    pub fn atomic() -> Self {
        BfsOptions { variant: BfsVariant::Atomic, ..Self::default() }
    }

    /// Overrides the advance workload mapping.
    pub fn with_mode(mut self, mode: AdvanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the direction policy.
    pub fn with_policy(mut self, policy: DirectionPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// BFS output: depths, optional BFS-tree parents, and traversal stats.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Depth of each vertex from the source (`INFINITY` = unreachable).
    pub labels: Vec<u32>,
    /// BFS-tree parent per vertex (`INVALID_VERTEX` for the source and
    /// unreachable vertices); empty if not recorded.
    pub preds: Vec<VertexId>,
    /// Edges examined during traversal.
    pub edges_examined: u64,
    /// Bulk-synchronous iterations (levels) executed.
    pub iterations: u32,
    /// Iterations that ran in the pull direction.
    pub pull_iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the loop ended (converged, or which execution guard tripped).
    /// Partial outcomes leave `labels`/`preds` consistent for every
    /// completed level and untouched (`INFINITY`/`INVALID_VERTEX`) beyond.
    pub outcome: RunOutcome,
}

impl BfsResult {
    /// Millions of traversed edges per second.
    pub fn mteps(&self) -> f64 {
        Timing { elapsed: self.elapsed, edges_examined: self.edges_examined }.mteps()
    }
}

#[derive(Clone, Copy)]
struct BfsState<'a> {
    labels: &'a [AtomicU32],
    preds: Option<&'a [AtomicU32]>,
}

impl BfsState<'_> {
    #[inline]
    fn set_pred(&self, dst: VertexId, src: VertexId) {
        if let Some(p) = self.preds {
            // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
            // (idempotent discovery); the rayon join barrier publishes each level.
            p[dst as usize].store(src, Ordering::Relaxed);
        }
    }
}

/// Atomic discovery functor: CAS wins exactly once per vertex.
struct AtomicDiscover<'a> {
    st: BfsState<'a>,
    level: u32,
}

impl AdvanceFunctor for AtomicDiscover<'_> {
    #[inline]
    fn cond_edge(&self, _src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        self.st.labels[dst as usize]
            // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
            // (idempotent discovery); the rayon join barrier publishes each level.
            .compare_exchange(INFINITY, self.level, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
    #[inline]
    fn apply_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) {
        self.st.set_pred(dst, src);
    }
}

/// Push-direction discovery: the edge claims `dst` on the visited bitmap
/// (set semantics — the culling filter's bitmask test, run inside the
/// advance), and the claim's winner labels `dst` and records its parent.
struct ClaimDiscover<'a> {
    st: BfsState<'a>,
    visited: &'a PooledBitmap,
    level: u32,
}

impl AdvanceFunctor for ClaimDiscover<'_> {
    #[inline]
    fn cond_edge(&self, _src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        // test_and_set loads first: an edge into a visited vertex costs a
        // load, not an atomic
        !self.visited.test_and_set(dst as usize)
    }
    #[inline]
    fn apply_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) {
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the rayon join barrier publishes each level.
        self.st.labels[dst as usize].store(self.level, Ordering::Relaxed);
        self.st.set_pred(dst, src);
    }
}

/// Pull-direction discovery: the candidate is unvisited by construction;
/// label and parent are set on first acceptance (pull output has no
/// duplicates, so no contract pass runs).
struct PullDiscover<'a> {
    st: BfsState<'a>,
    level: u32,
}

impl AdvanceFunctor for PullDiscover<'_> {
    #[inline]
    fn cond_edge(&self, _src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the rayon join barrier publishes each level.
        self.st.labels[dst as usize].load(Ordering::Relaxed) == INFINITY
    }
    #[inline]
    fn apply_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) {
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the rayon join barrier publishes each level.
        self.st.labels[dst as usize].store(self.level, Ordering::Relaxed);
        self.st.set_pred(dst, src);
    }
}

/// In-flight BFS loop state at an iteration boundary. This is exactly
/// what a checkpoint captures: resuming from a snapshot rebuilds this
/// struct and re-enters [`bfs_run`] as if the guard had never tripped.
struct BfsLoop {
    labels: Vec<AtomicU32>,
    preds: Option<Vec<AtomicU32>>,
    frontier: Frontier,
    level: u32,
    pull_iters: u32,
    direction: TraversalDirection,
    unvisited_edges: u64,
}

/// The dense frontier triple of a pull phase, all pool-backed and built
/// lazily at the push→pull switch: `unvisited` is the candidate mask the
/// word sweep maintains *incrementally* (discovered bits are cleared in
/// place — no O(n) re-prune between iterations), `cur` is the current
/// frontier, and `scratch` is the cleared output buffer the next sweep
/// writes into; the two ping-pong like the list frontiers do.
struct PullFrontiers {
    unvisited: PooledBitmap,
    cur: PooledBitmap,
    scratch: PooledBitmap,
}

impl PullFrontiers {
    /// Returns all three bitmaps' word storage to the context's pool
    /// (at the pull→push switch or loop exit).
    fn release(self, ctx: &Context<'_>) {
        self.unvisited.release(ctx.pool());
        self.cur.release(ctx.pool());
        self.scratch.release(ctx.pool());
    }
}

fn direction_tag(d: TraversalDirection) -> u32 {
    match d {
        TraversalDirection::Push => 0,
        TraversalDirection::Pull => 1,
    }
}

/// Rebuilds the visited bitmap from labels, with word storage drawn from
/// the context's pool (release it back when the enact loop exits). At
/// every iteration boundary `visited == {v | labels[v] != INFINITY}`
/// holds (a push claim and a pull merge set both together), so
/// the bitmap itself never needs to be checkpointed.
fn rebuild_visited(ctx: &Context<'_>, labels: &[AtomicU32]) -> PooledBitmap {
    let bm = PooledBitmap::take(ctx.pool(), labels.len());
    for (v, l) in labels.iter().enumerate() {
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the rayon join barrier publishes each level.
        if l.load(Ordering::Relaxed) != INFINITY {
            bm.set(v);
        }
    }
    bm
}

/// One push level: a single claiming advance.
fn push_level(
    ctx: &Context<'_>,
    opts: &BfsOptions,
    st: BfsState<'_>,
    level: u32,
    frontier: &Frontier,
    visited: &PooledBitmap,
) -> Frontier {
    let spec = AdvanceSpec::v2v().with_mode(opts.mode);
    advance::advance(ctx, frontier, spec, &ClaimDiscover { st, visited, level })
}

/// Builds an iteration-boundary snapshot. Sections: per-vertex
/// `labels`/`preds`, the live `frontier`, an `unvisited` section kept
/// for the format's sake and written empty (at any boundary the pull
/// candidates are exactly the unlabeled vertices, which resume derives
/// from `labels`), plus packed scalars `[src, level, pull_iters,
/// direction, variant, record_preds]` and the 64-bit `unvisited_edges`
/// counter.
fn bfs_checkpoint(
    iteration: u32,
    src: VertexId,
    opts: &BfsOptions,
    st: &BfsLoop,
) -> Checkpoint {
    let mut ckpt = Checkpoint::new("bfs", iteration);
    ckpt.push_u32("labels", unwrap_atomic_u32(&st.labels));
    ckpt.push_u32("preds", st.preds.as_deref().map(unwrap_atomic_u32).unwrap_or_default());
    ckpt.push_u32("frontier", st.frontier.as_slice().to_vec());
    ckpt.push_u32("unvisited", Vec::new());
    ckpt.push_u32(
        "scalars",
        vec![
            src,
            st.level,
            st.pull_iters,
            direction_tag(st.direction),
            opts.variant.tag(),
            opts.record_predecessors as u32,
        ],
    );
    ckpt.push_u64("counters", vec![st.unvisited_edges]);
    ckpt
}

/// Runs BFS from `src`. Direction-optimized traversal pulls only over
/// `ctx.reverse` (the forward graph itself for undirected graphs).
pub fn bfs(ctx: &Context<'_>, src: VertexId, opts: BfsOptions) -> BfsResult {
    let n = ctx.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let labels = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
    // (idempotent discovery); the rayon join barrier publishes each level.
    labels[src as usize].store(0, Ordering::Relaxed);
    let st = BfsLoop {
        labels,
        preds: opts.record_predecessors.then(|| atomic_u32_vec(n, INVALID_VERTEX)),
        frontier: Frontier::single(src),
        level: 0,
        pull_iters: 0,
        direction: TraversalDirection::Push,
        unvisited_edges: ctx.graph.num_edges() as u64 - ctx.graph.out_degree(src) as u64,
    };
    bfs_run(ctx, src, opts, st, 0)
}

/// Resumes BFS from a `gunrock-ckpt/v1` snapshot. The checkpoint's
/// variant, source, and recorded-predecessor setting override `opts`;
/// workload mapping and heuristics still come from `opts`.
pub fn bfs_resume(
    ctx: &Context<'_>,
    opts: BfsOptions,
    ckpt: &Checkpoint,
) -> Result<BfsResult, GunrockError> {
    ckpt.expect_primitive("bfs")?;
    let n = ctx.num_vertices();
    let labels = ckpt.u32s("labels")?;
    expect_len(labels.len(), n, "labels")?;
    let preds = ckpt.u32s("preds")?;
    let frontier = ckpt.u32s("frontier")?;
    expect_vertex_ids(frontier, n, "frontier")?;
    // The unvisited section is validated for format integrity but not
    // carried into the loop: the pull phase derives its candidate bitmap
    // from the labels' complement, which is the same set.
    let unvisited = ckpt.u32s("unvisited")?;
    expect_vertex_ids(unvisited, n, "unvisited")?;
    let scalars = ckpt.u32s("scalars")?;
    let counters = ckpt.u64s("counters")?;
    let src = scalar(scalars, 0, "src")?;
    if src as usize >= n {
        return Err(malformed(format!("source {src} out of range for {n} vertices")));
    }
    let level = scalar(scalars, 1, "level")?;
    let pull_iters = scalar(scalars, 2, "pull_iterations")?;
    let direction = match scalar(scalars, 3, "direction")? {
        0 => TraversalDirection::Push,
        1 => TraversalDirection::Pull,
        other => return Err(malformed(format!("unknown direction tag {other}"))),
    };
    let variant = scalar(scalars, 4, "variant")?;
    let variant = BfsVariant::from_tag(variant)
        .ok_or_else(|| malformed(format!("unknown BFS variant tag {variant}")))?;
    let record_predecessors = scalar(scalars, 5, "record_predecessors")? == 1;
    if record_predecessors {
        expect_len(preds.len(), n, "preds")?;
    }
    let opts = BfsOptions { variant, record_predecessors, ..opts };
    let st = BfsLoop {
        labels: to_atomic_u32(labels),
        preds: record_predecessors.then(|| to_atomic_u32(preds)),
        frontier: Frontier::from_vec(frontier.to_vec()),
        level,
        pull_iters,
        direction,
        unvisited_edges: counters.first().copied().unwrap_or(0),
    };
    let r = bfs_run(ctx, src, opts, st, ckpt.iteration());
    check_failed(ctx, r.outcome, r)
}

/// The enact loop proper, starting from an arbitrary iteration-boundary
/// state (fresh from [`bfs`] or restored by [`bfs_resume`]) that has
/// already completed `done` iterations.
fn bfs_run(
    ctx: &Context<'_>,
    src: VertexId,
    opts: BfsOptions,
    mut st: BfsLoop,
    done: u32,
) -> BfsResult {
    let n = ctx.num_vertices();
    let mut run = Enactment::arm(ctx, done);
    // Budget admission: demote the advance mode (or poison with a
    // structured BudgetExceeded) before the first operator launches.
    let opts = BfsOptions { mode: crate::admission::admit(ctx, "bfs", opts.mode), ..opts };
    // The visited bitmap is a pool checkout between operators: build it
    // isolated so a denied checkout (injected `pool-alloc` or a budget
    // race) fails the run instead of unwinding out of the loop, and never
    // for a run admission already failed. Either way the context is
    // poisoned and the first boundary ends the run before any operator.
    let visited = match opts.variant {
        BfsVariant::Atomic => None,
        _ if ctx.is_poisoned() => None,
        _ => ctx.isolated_setup("setup", || rebuild_visited(ctx, &st.labels)),
    };
    let mut pull: Option<PullFrontiers> = None;
    while !st.frontier.is_empty() {
        if run.boundary(|it| Some(bfs_checkpoint(it, src, &opts, &st))) {
            break;
        }
        st.level += 1;
        let level = st.level;
        let state = BfsState { labels: &st.labels, preds: st.preds.as_deref() };
        let next = match (opts.variant, &visited) {
            (BfsVariant::Atomic, _) => {
                let spec = AdvanceSpec::v2v().with_mode(opts.mode);
                advance::advance(ctx, &st.frontier, spec, &AtomicDiscover { st: state, level })
            }
            // unreachable: a failed setup poisoned the run, which the
            // boundary above reports
            (_, None) => break,
            // nothing to pull over: every level pushes, and the switch
            // bookkeeping is skipped
            (BfsVariant::DirectionOptimized, Some(visited)) if ctx.reverse.is_none() => {
                st.direction = TraversalDirection::Push;
                push_level(ctx, &opts, state, level, &st.frontier, visited)
            }
            (BfsVariant::DirectionOptimized, Some(visited)) => {
                let m_f = advance::push::frontier_neighbor_count(
                    ctx,
                    &st.frontier,
                    InputKind::Vertices,
                );
                let (prev, m_u, n_f) = (st.direction, st.unvisited_edges, st.frontier.len());
                st.direction = opts.policy.decide(prev, m_f, m_u, n_f, n);
                // Degradation rung: entering a pull phase costs three
                // dense O(n/64)-word bitmaps (candidates + ping-pong
                // pair). Under budget pressure, stay push — the list
                // frontiers already in hand cost nothing new. An
                // in-flight pull phase keeps its paid-for bitmaps.
                if st.direction == TraversalDirection::Pull && pull.is_none() {
                    let need =
                        3 * gunrock_engine::budget::pooled_bytes(n.div_ceil(64) as u64, 8);
                    if !ctx.pool().can_reserve(need) {
                        let headroom = ctx.budget().map(|b| b.headroom()).unwrap_or(0);
                        let reason = format!(
                            "pull bitmaps need {need} bytes, budget headroom {headroom}"
                        );
                        ctx.record_degrade("advance", "pull", "push", reason);
                        st.direction = TraversalDirection::Push;
                    }
                }
                if let Some(sink) = ctx.sink().filter(|_| st.direction != prev) {
                    // only built when instrumented: the reason string
                    // names the hysteresis inequality that fired
                    let (alpha, beta) = (opts.policy.alpha, opts.policy.beta);
                    let (from, to, reason) = match st.direction {
                        TraversalDirection::Pull => (
                            StepDirection::Push,
                            StepDirection::Pull,
                            format!(
                                "m_f={m_f} > m_u={m_u}/alpha={alpha} \
                                 and n_f={n_f} >= n={n}/beta={beta}"
                            ),
                        ),
                        TraversalDirection::Push => (
                            StepDirection::Pull,
                            StepDirection::Push,
                            format!("n_f={n_f} < n={n}/beta={beta}"),
                        ),
                    };
                    sink.record_switch(from, to, reason);
                }
                let next = match st.direction {
                    TraversalDirection::Push => {
                        // leaving a pull phase: the dense frontiers go
                        // back to the pool until the next switch
                        if let Some(p) = pull.take() {
                            p.release(ctx);
                        }
                        push_level(ctx, &opts, state, level, &st.frontier, visited)
                    }
                    TraversalDirection::Pull => {
                        st.pull_iters += 1;
                        // lazy Beamer-switch conversion: only here does
                        // the list frontier densify, and the candidate
                        // mask is the visited complement — no O(n)
                        // re-prune ever runs inside the phase. The
                        // bitmaps are pool checkouts between operators,
                        // built isolated like the visited bitmap.
                        if pull.is_none() {
                            pull = ctx.isolated_setup("setup", || {
                                let mut unvisited = PooledBitmap::take(ctx.pool(), n);
                                unvisited.fill_complement(visited);
                                PullFrontiers {
                                    unvisited,
                                    cur: frontier_bitmap(ctx, &st.frontier),
                                    scratch: PooledBitmap::take(ctx.pool(), n),
                                }
                            });
                        }
                        let Some(fr) = pull.as_mut() else { break };
                        let f = PullDiscover { st: state, level };
                        advance_pull_sweep(
                            ctx,
                            &mut fr.unvisited,
                            &fr.cur,
                            &mut fr.scratch,
                            &f,
                        );
                        // ping-pong: the sweep's output becomes the next
                        // iteration's in-frontier
                        std::mem::swap(&mut fr.cur, &mut fr.scratch);
                        // merge discoveries into the shared visited bitmap
                        // (so a later push iteration culls correctly) and
                        // extract the list frontier for policy/boundary use
                        let out = filter::culling::filter_with_culling_bitmap(
                            ctx,
                            &fr.cur,
                            visited,
                            &VertexCond(|_| true),
                            CullingConfig { history: false, history_bits: 0, bitmask: true },
                        );
                        fr.scratch.clear_all();
                        out
                    }
                };
                st.unvisited_edges = st.unvisited_edges.saturating_sub(
                    advance::push::frontier_neighbor_count(ctx, &next, InputKind::Vertices),
                );
                next
            }
        };
        run.end_iteration(st.direction == TraversalDirection::Pull);
        // ping-pong: the retired frontier's storage goes back to the pool
        // and returns as a later operator's output buffer
        ctx.recycle(std::mem::replace(&mut st.frontier, next));
    }
    if let Some(p) = pull {
        p.release(ctx);
    }
    if let Some(v) = visited {
        v.release(ctx.pool());
    }
    let done = run.finish(|it| Some(bfs_checkpoint(it, src, &opts, &st)));
    // the loop's last frontier still owns pooled storage; return it so
    // a re-run on this context starts with a warm pool
    ctx.recycle(st.frontier);
    BfsResult {
        labels: unwrap_atomic_u32(&st.labels),
        preds: st.preds.map(|p| unwrap_atomic_u32(&p)).unwrap_or_default(),
        edges_examined: done.edges_examined,
        iterations: done.iterations,
        pull_iterations: st.pull_iters,
        elapsed: done.elapsed,
        outcome: done.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, grid2d, rmat};
    use gunrock_graph::GraphBuilder;

    fn suite() -> Vec<Csr> {
        vec![
            GraphBuilder::new().build(erdos_renyi(400, 1200, 1)),
            GraphBuilder::new().build(rmat(9, 8, Default::default(), 2)),
            GraphBuilder::new().build(grid2d(20, 20, 0.1, 0.0, 3)),
            GraphBuilder::new().build(erdos_renyi(300, 150, 4)), // disconnected
        ]
    }

    fn check_parents(g: &Csr, labels: &[u32], preds: &[VertexId], src: VertexId) {
        for v in 0..g.num_vertices() {
            if v as u32 == src || labels[v] == INFINITY {
                assert_eq!(preds[v], INVALID_VERTEX, "vertex {v}");
            } else {
                let p = preds[v] as usize;
                assert_eq!(labels[p] + 1, labels[v], "vertex {v} parent {p}");
                assert!(g.neighbors(p as u32).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn all_variants_match_serial_depths() {
        for (i, g) in suite().iter().enumerate() {
            let want = serial::bfs(g, 0);
            for variant in [BfsVariant::Atomic, BfsVariant::DirectionOptimized] {
                let ctx = Context::new(g).with_reverse(g);
                let opts = BfsOptions { variant, ..Default::default() };
                let r = bfs(&ctx, 0, opts);
                assert_eq!(r.labels, want, "graph {i} variant {variant:?}");
                check_parents(g, &r.labels, &r.preds, 0);
            }
        }
    }

    #[test]
    fn all_advance_modes_agree() {
        let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 7));
        let want = serial::bfs(&g, 3);
        for mode in [
            AdvanceMode::ThreadMapped,
            AdvanceMode::Twc,
            AdvanceMode::LoadBalanced,
            AdvanceMode::Auto,
        ] {
            let ctx = Context::new(&g);
            let r = bfs(&ctx, 3, BfsOptions::atomic().with_mode(mode));
            assert_eq!(r.labels, want, "mode {mode:?}");
        }
    }

    #[test]
    fn direction_optimized_pulls_on_scale_free() {
        let g = GraphBuilder::new().build(rmat(11, 16, Default::default(), 5));
        let ctx = Context::new(&g).with_reverse(&g);
        let r = bfs(&ctx, 0, BfsOptions::direction_optimized());
        assert!(r.pull_iterations > 0, "expected at least one pull iteration");
        assert_eq!(r.labels, serial::bfs(&g, 0));
    }

    #[test]
    fn default_without_a_reverse_graph_pushes_every_level() {
        for (i, g) in suite().iter().enumerate() {
            let ctx = Context::new(g).with_stats();
            let r = bfs(&ctx, 0, BfsOptions::default());
            assert_eq!(r.labels, serial::bfs(g, 0), "graph {i}");
            check_parents(g, &r.labels, &r.preds, 0);
            assert_eq!(r.pull_iterations, 0, "graph {i}");
            assert!(ctx.run_stats().switches.is_empty(), "graph {i}");
        }
    }

    #[test]
    fn direction_optimized_saves_edge_visits() {
        let g = GraphBuilder::new().build(rmat(11, 16, Default::default(), 5));
        let push = {
            let ctx = Context::new(&g).with_reverse(&g);
            bfs(&ctx, 0, BfsOptions::default().with_policy(DirectionPolicy::push_only()))
        };
        let opt = {
            let ctx = Context::new(&g).with_reverse(&g);
            bfs(&ctx, 0, BfsOptions::direction_optimized())
        };
        assert!(
            opt.edges_examined < push.edges_examined,
            "pull should skip edges: {} vs {}",
            opt.edges_examined,
            push.edges_examined
        );
    }

    #[test]
    fn without_predecessors_preds_is_empty() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 300, 9));
        let ctx = Context::new(&g);
        let r = bfs(&ctx, 0, BfsOptions { record_predecessors: false, ..Default::default() });
        assert!(r.preds.is_empty());
        assert_eq!(r.labels, serial::bfs(&g, 0));
    }

    #[test]
    fn source_only_graph() {
        let g = GraphBuilder::new().build(gunrock_graph::Coo::new(3));
        let ctx = Context::new(&g);
        let r = bfs(&ctx, 1, BfsOptions::default());
        assert_eq!(r.labels, vec![INFINITY, 0, INFINITY]);
        assert_eq!(r.iterations, 1); // one advance finding nothing
    }

    #[test]
    fn stats_are_populated() {
        let g = GraphBuilder::new().build(erdos_renyi(500, 2000, 11));
        let ctx = Context::new(&g);
        let r = bfs(&ctx, 0, BfsOptions::default());
        assert!(r.edges_examined > 0);
        assert!(r.iterations > 0);
        assert!(r.mteps() >= 0.0);
        assert_eq!(r.outcome, RunOutcome::Converged);
    }

    #[test]
    fn iteration_cap_yields_partial_depths_in_every_variant() {
        // path graph needs many levels; a 1-iteration cap must stop each
        // variant after one level with the completed level intact
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(20, &edges));
        for variant in [BfsVariant::Atomic, BfsVariant::DirectionOptimized] {
            let ctx = Context::new(&g)
                .with_reverse(&g)
                .with_policy(RunPolicy::unbounded().max_iterations(1));
            let r = bfs(&ctx, 0, BfsOptions { variant, ..Default::default() });
            assert_eq!(r.outcome, RunOutcome::IterationCapped, "{variant:?}");
            assert_eq!(r.iterations, 1, "{variant:?}");
            // level 1 is complete, deeper levels untouched
            assert_eq!(r.labels[0], 0, "{variant:?}");
            assert_eq!(r.labels[1], 1, "{variant:?}");
            assert!(
                r.labels[2..].iter().all(|&l| l == INFINITY),
                "{variant:?}: {:?}",
                &r.labels[..5]
            );
        }
    }

    #[test]
    fn pull_sweep_trace_decrements_candidates_incrementally() {
        // Regression: the sweep must maintain the candidate set in place
        // (clearing discovered bits) rather than re-pruning all n
        // vertices each pull iteration, and the trace must report the
        // true candidate count, not the input frontier length.
        let g = GraphBuilder::new().build(rmat(11, 16, Default::default(), 5));
        let ctx = Context::new(&g).with_reverse(&g).with_stats();
        let r = bfs(&ctx, 0, BfsOptions::direction_optimized());
        assert!(r.pull_iterations > 0);
        let steps = ctx.run_stats().steps;
        let sweeps: Vec<_> = steps.iter().filter(|s| s.strategy == "pull_sweep").collect();
        assert!(!sweeps.is_empty(), "direction-optimized run must record sweep steps");
        for w in sweeps.windows(2) {
            if w[1].iteration == w[0].iteration + 1 {
                assert_eq!(
                    w[1].candidates_len,
                    w[0].candidates_len - w[0].output_len,
                    "iteration {}: candidates must shrink by exactly the discovered count",
                    w[1].iteration
                );
            }
        }
        assert!(
            sweeps.iter().any(|s| s.candidates_len != s.input_len),
            "candidates_len must track the unvisited set, not echo input_len"
        );
    }

    #[test]
    fn warm_direction_optimized_runs_allocate_nothing() {
        // Regression: the pull path once built a fresh bitmap per
        // iteration behind the pool's back. In steady state every buffer
        // must come from the pool, so a warm run adds zero heap
        // allocations.
        let g = GraphBuilder::new().build(rmat(11, 16, Default::default(), 5));
        let ctx = Context::new(&g).with_reverse(&g);
        let cold = bfs(&ctx, 0, BfsOptions::direction_optimized());
        assert!(cold.pull_iterations > 0);
        let after_cold = ctx.pool().stats().allocations;
        let warm = bfs(&ctx, 0, BfsOptions::direction_optimized());
        assert_eq!(warm.labels, cold.labels);
        assert_eq!(
            ctx.pool().stats().allocations,
            after_cold,
            "warm direction-optimized run must be satisfied entirely from the pool"
        );
    }

    #[test]
    fn budget_pressure_degrades_pull_to_push_and_still_converges() {
        use gunrock_engine::budget::{pooled_bytes, MemoryBudget};
        use std::sync::Arc;
        // A short path in a sea of isolated vertices: frontiers stay
        // tiny (push iterations cost a few KB) while the pull bitmaps
        // scale with n (3 x 32 KB here) — the exact shape where the
        // pull->push rung saves a run that would otherwise hit the wall.
        let n: usize = 1 << 18;
        let edges: Vec<(u32, u32)> = (0..100).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(n, &edges));
        let bfs_entry = crate::registry::find("bfs").unwrap();
        let full = (bfs_entry.estimate_bytes)(n as u64, g.num_edges() as u64);
        let budget = Arc::new(MemoryBudget::new(full));
        let ctx =
            Context::new(&g).with_reverse(&g).with_stats().with_budget(Arc::clone(&budget));
        let pull_need = 3 * pooled_bytes((n as u64).div_ceil(64), 8);
        // Squeeze the budget (as concurrent jobs on a shared pool
        // would) until the remaining headroom cannot cover the pull
        // bitmaps but still fits the small push buffers.
        let leave = pull_need + 4 * 1024;
        let mut held = Vec::new();
        while budget.headroom() > leave {
            let excess = budget.headroom() - leave;
            let mut elems = (excess / 4).next_power_of_two();
            if elems * 4 > excess {
                elems /= 2;
            }
            if elems < 64 {
                break;
            }
            held.push(ctx.pool().take_u32(elems as usize));
        }
        // A policy that would pull from the first level if it could.
        let opts = BfsOptions::direction_optimized()
            .with_policy(DirectionPolicy { alpha: 1e18, beta: 1e18 });
        let r = bfs(&ctx, 0, opts);
        assert_eq!(r.outcome, RunOutcome::Converged, "degraded run still finishes");
        assert_eq!(r.labels, serial::bfs(&g, 0));
        assert_eq!(r.pull_iterations, 0, "every pull attempt was degraded to push");
        let stats = ctx.run_stats();
        assert!(
            stats.degrades.iter().any(|d| d.from == "pull" && d.to == "push"),
            "expected pull->push degrade events, got {:?}",
            stats.degrades
        );
        for buf in held {
            ctx.pool().put_u32(buf);
        }
    }

    #[test]
    fn pre_tripped_cancel_returns_consistent_source_only_state() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let g = GraphBuilder::new().build(erdos_renyi(200, 600, 13));
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag));
        let r = bfs(&ctx, 5, BfsOptions::default());
        assert_eq!(r.outcome, RunOutcome::Cancelled);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.labels[5], 0);
        assert!(r.labels.iter().enumerate().all(|(v, &l)| if v == 5 {
            l == 0
        } else {
            l == INFINITY
        }));
        assert!(r.preds.iter().all(|&p| p == INVALID_VERTEX));
    }
}
