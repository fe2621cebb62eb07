//! Breadth-first search (§5.1), direction-optimized.
//!
//! A push level is one advance whose functor claims each destination on
//! the visited bitmap (a `test_and_set` that loads first, so an edge into
//! a visited vertex costs no atomic) and labels it, so each vertex enters
//! the output once and no culling filter runs: the paper's idempotent
//! advance and bitmask-culling filter, fused (§7). With a reverse graph on
//! the context, levels switch to pulling per Beamer (§4.1.1); without one
//! every level pushes. A pull level is one gather over the visited
//! bitmap's clear bits: an unvisited vertex's fold stops at its first
//! in-neighbor one level up — depth, not a frontier bitmap, is the
//! membership test — and the discovered list is ORed into the visited
//! bitmap a word at a time.
//!
//! The paper's other discovery forms are built from the core operators
//! where they are measured: the base implementation's CAS on labels
//! (`gunrock_bench::bfs_atomic`, ablations A1 and A2) and the two-kernel
//! idempotent advance + culling filter (`gunrock_bench::bfs_two_kernel`,
//! ablations A2 and A3).

use crate::primitive::{
    bitmap, first_source, frontiers, malformed, run, to_atomic_u32, Primitive,
};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32, unwrap_atomic_u32};
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
#[cfg(test)]
use gunrock_graph::Csr;
use gunrock_graph::{EdgeId, VertexId, INFINITY, INVALID_VERTEX};
use std::ops::ControlFlow::{Break, Continue};
use std::sync::atomic::{AtomicU32, Ordering};

/// The checkpoint's variant slot: every snapshot is written with the
/// direction-optimized tag, and tags 0-3 (atomic, idempotent,
/// direction-optimized, fused) all resume as it.
const VARIANT_TAG: u32 = 2;

/// BFS configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfsOptions {
    /// Workload mapping for push advances.
    pub mode: AdvanceMode,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions { mode: AdvanceMode::Auto }
    }
}

impl BfsOptions {
    /// Direction-optimized traversal — the default. It pulls only over a
    /// reverse graph in the context (for undirected graphs the forward
    /// graph serves); without one every level pushes.
    pub fn direction_optimized() -> Self {
        Self::default()
    }

    /// Overrides the advance workload mapping.
    pub fn with_mode(mut self, mode: AdvanceMode) -> Self {
        self.mode = mode;
        self
    }
}

/// BFS output: depths, BFS-tree parents, and traversal stats.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Depth of each vertex from the source (`INFINITY` = unreachable).
    pub labels: Vec<u32>,
    /// BFS-tree parent per vertex (`INVALID_VERTEX` for the source and
    /// unreachable vertices).
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
    preds: &'a [AtomicU32],
}

impl BfsState<'_> {
    /// Labels `dst` at `level` with `src` as its BFS-tree parent.
    #[inline]
    fn discover(&self, dst: VertexId, src: VertexId, level: u32) {
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the launch barrier publishes each level.
        self.labels[dst as usize].store(level, Ordering::Relaxed);
        self.preds[dst as usize].store(src, Ordering::Relaxed);
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
    fn cond_edge<A: Access>(&self, a: A, _src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        // test_and_set loads first: an edge into a visited vertex costs a
        // load, not an atomic
        !self.visited.test_and_set_with(a, dst as usize)
    }
    #[inline]
    fn apply_edge<A: Access>(&self, _: A, src: VertexId, dst: VertexId, _e: EdgeId) {
        self.st.discover(dst, src, self.level);
    }
}

/// BFS as a [`Primitive`]: the in-flight state at an iteration boundary.
/// A snapshot captures all of it but the pooled visited bitmap, which is
/// rebuilt from the labels.
#[derive(Default)]
pub struct Bfs {
    src: VertexId,
    labels: Vec<AtomicU32>,
    preds: Vec<AtomicU32>,
    frontier: Frontier,
    level: u32,
    pull_iters: u32,
    policy: DirectionPolicy,
    unvisited_edges: u64,
    /// The visited bitmap, built at setup.
    visited: Option<PooledBitmap>,
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
/// holds (a push claim and a pull level's merge set both together), so
/// the bitmap itself never needs to be checkpointed.
fn rebuild_visited(ctx: &Context<'_>, labels: &[AtomicU32]) -> PooledBitmap {
    let bm = PooledBitmap::take(ctx.pool(), labels.len());
    for (v, l) in labels.iter().enumerate() {
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the launch barrier publishes each level.
        if l.load(Ordering::Relaxed) != INFINITY {
            bm.set(v);
        }
    }
    bm
}

/// Runs BFS from `src`. Direction-optimized traversal pulls only over
/// `ctx.reverse` (the forward graph itself for undirected graphs).
pub fn bfs(ctx: &Context<'_>, src: VertexId, opts: BfsOptions) -> BfsResult {
    run::<Bfs>(ctx, &[src], opts)
}

impl Primitive for Bfs {
    const NAME: &'static str = "bfs";
    const ARITY: Arity = Arity::One;
    const ADVANCES: bool = true;
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "bfs",
        fields: &[
            Field("labels", "u32", PerVertex),
            Field("preds", "u32", PerVertex),
            Field("frontier", "u32", VertexIds),
            // written empty: the pull candidates are the unlabeled vertices
            Field("unvisited", "u32", VertexIds),
            Field(
                "scalars",
                "u32",
                Slots(&[
                    Vertex("src"),
                    Plain("level"),
                    Plain("pull_iterations"),
                    Plain("direction"),
                    Plain("variant"),
                    Pinned("record_predecessors", 1),
                ]),
            ),
            Field("counters", "u64", Slots(&[Plain("unvisited_edges")])),
        ],
    });
    type Options = BfsOptions;
    type Result = BfsResult;

    fn mode(opts: &BfsOptions) -> AdvanceMode {
        opts.mode
    }

    // labels, the visited bitmap, and the frontier pair (a pull level's
    // output list has a slot per vertex)
    fn state_bytes(n: u64, _m: u64) -> u64 {
        n * 4 + bitmap(n) + frontiers(n)
    }

    fn init(ctx: &Context<'_>, sources: &[VertexId], _opts: BfsOptions) -> Self {
        let (g, src) = (ctx.graph, first_source(sources));
        assert!((src as usize) < g.num_vertices(), "source out of range");
        let labels = atomic_u32_vec(g.num_vertices(), INFINITY);
        // ORDERING: Relaxed — any winning parent/label is a valid BFS tree edge
        // (idempotent discovery); the launch barrier publishes each level.
        labels[src as usize].store(0, Ordering::Relaxed);
        Bfs {
            src,
            labels,
            preds: atomic_u32_vec(g.num_vertices(), INVALID_VERTEX),
            frontier: ctx.pooled_frontier([src].into_iter()),
            unvisited_edges: g.num_edges() as u64 - g.out_degree(src) as u64,
            ..Default::default()
        }
    }

    /// A snapshot of a retired variant (tags 0, 1 and 3) resumes as this
    /// BFS: its labels, preds and frontier are the state a claiming push
    /// level resumes from, since the visited bitmap is rebuilt from the
    /// labels. A snapshot without predecessors is rejected.
    fn load(
        ctx: &Context<'_>,
        snap: &Snapshot<'_>,
        _opts: BfsOptions,
    ) -> Result<Self, GunrockError> {
        let direction = match snap.slot::<u32>("direction")? {
            0 => TraversalDirection::Push,
            1 => TraversalDirection::Pull,
            other => return Err(malformed(format!("unknown direction tag {other}"))),
        };
        let variant: u32 = snap.slot("variant")?;
        if variant > 3 {
            return Err(malformed(format!("unknown BFS variant tag {variant}")));
        }
        Ok(Bfs {
            src: snap.slot("src")?,
            labels: to_atomic_u32(snap.section("labels")?),
            preds: to_atomic_u32(snap.section("preds")?),
            frontier: ctx.pooled_frontier(snap.section("frontier")?.iter().copied()),
            level: snap.slot("level")?,
            pull_iters: snap.slot("pull_iterations")?,
            policy: DirectionPolicy { direction },
            unvisited_edges: snap.slot("unvisited_edges")?,
            ..Default::default()
        })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        let direction = direction_tag(self.policy.direction);
        snapshot
            .section("labels", unwrap_atomic_u32(&self.labels))
            .section("preds", unwrap_atomic_u32(&self.preds))
            .section("frontier", self.frontier.as_slice().to_vec())
            .section::<u32>("unvisited", Vec::new())
            .slots(
                "scalars",
                &[
                    ("src", self.src),
                    ("level", self.level),
                    ("pull_iterations", self.pull_iters),
                    ("direction", direction),
                    ("variant", VARIANT_TAG),
                ],
            )
            .slots("counters", &[("unvisited_edges", self.unvisited_edges)])
    }

    fn sources(&self) -> Vec<VertexId> {
        vec![self.src]
    }

    fn setup(&mut self, ctx: &Context<'_>, _mode: AdvanceMode) {
        self.visited = Some(rebuild_visited(ctx, &self.labels));
    }

    fn live(&self, _iterations: u32) -> bool {
        !self.frontier.is_empty()
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        let n = ctx.num_vertices();
        // built at setup, which precedes every step
        let Some(visited) = &self.visited else { return };
        self.level += 1;
        let level = self.level;
        let state = BfsState { labels: &self.labels, preds: &self.preds };
        let push = ClaimDiscover { st: state, visited, level };
        let spec = AdvanceSpec::v2v().with_mode(mode);
        let next = if ctx.reverse.is_none() {
            // nothing to pull over: every level pushes, and the switch
            // bookkeeping is skipped
            self.policy.direction = TraversalDirection::Push;
            advance::advance(ctx, &self.frontier, spec, &push)
        } else {
            let m_f = advance::push::frontier_neighbor_count(
                ctx,
                &self.frontier,
                InputKind::Vertices,
            );
            // Degradation rung: a pull level checks out an output list
            // with a slot per vertex. Under budget pressure, stay push —
            // its output buffer is sized by the frontier's edges.
            let can_pull = || {
                let need = gunrock_engine::budget::pooled_bytes(n as u64, 4);
                let fits = ctx.pool().can_reserve(need);
                if !fits {
                    let headroom = ctx.budget().map(|b| b.headroom()).unwrap_or(0);
                    let reason =
                        format!("pull output needs {need} bytes, budget headroom {headroom}");
                    ctx.record_degrade("advance", "pull", "push", reason);
                }
                fits
            };
            let (m_u, n_f) = (self.unvisited_edges, self.frontier.len());
            let next = match self.policy.choose(ctx, m_f, m_u, n_f, can_pull) {
                TraversalDirection::Push => advance::advance(ctx, &self.frontier, spec, &push),
                TraversalDirection::Pull => {
                    self.pull_iters += 1;
                    // a denied checkout poisoned the run: the next
                    // boundary ends it
                    let Some(mut next) = ctx.isolated_setup("setup", || ctx.pool().take_u32(n))
                    else {
                        return;
                    };
                    let (labels, up): (&[AtomicU32], u32) = (&self.labels, level - 1);
                    // ORDERING: Relaxed — any winning parent/label is a valid BFS
                    // tree edge (idempotent discovery); the launch barrier
                    // publishes each level.
                    let parent = move |u: VertexId, _v, _e| {
                        (labels[u as usize].load(Ordering::Relaxed) == up).then_some(u)
                    };
                    advance_gather(
                        ctx,
                        GatherSpec::unset(visited),
                        &mut self.preds,
                        Some(&mut next),
                        |_| true,
                        None,
                        parent,
                        |a, b| if b.is_some() { Break(b) } else { Continue(a) },
                        |v, parent, pred| {
                            let Some(parent) = parent else { return false };
                            *pred.get_mut() = parent;
                            labels[v as usize].store(level, Ordering::Relaxed);
                            true
                        },
                    );
                    // the list is ascending: one fetch_or per word it touches
                    // CAST: vertex ids widen u32 -> usize for indexing — lossless.
                    for word in next.chunk_by(|a, b| a / 64 == b / 64) {
                        let bits = word.iter().fold(0, |w, &v| w | 1u64 << (v % 64));
                        visited.fetch_or_word(word[0] as usize / 64, bits);
                    }
                    Frontier::from_vec(next)
                }
            };
            self.unvisited_edges = self.unvisited_edges.saturating_sub(
                advance::push::frontier_neighbor_count(ctx, &next, InputKind::Vertices),
            );
            next
        };
        run.end_iteration(self.policy.direction == TraversalDirection::Pull);
        // ping-pong: the retired frontier's storage goes back to the pool
        // and returns as a later operator's output buffer
        ctx.recycle(std::mem::replace(&mut self.frontier, next));
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> BfsResult {
        if let Some(v) = self.visited {
            v.release(ctx.pool());
        }
        // the loop's last frontier still owns pooled storage; return it so
        // a re-run on this context starts with a warm pool
        ctx.recycle(self.frontier);
        BfsResult {
            labels: into_plain_u32(self.labels),
            preds: into_plain_u32(self.preds),
            edges_examined: done.edges_examined,
            iterations: done.iterations,
            pull_iterations: self.pull_iters,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: BfsResult) -> Output {
        Output::Depths(result.labels)
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

    /// The two traversals BFS runs: push-only without a reverse graph,
    /// direction-optimized with one.
    fn both_directions(g: &Csr) -> [Context<'_>; 2] {
        [Context::new(g), Context::new(g).with_reverse(g)]
    }

    #[test]
    fn all_variants_match_serial_depths() {
        for (i, g) in suite().iter().enumerate() {
            let want = serial::bfs(g, 0);
            for (j, ctx) in both_directions(g).iter().enumerate() {
                let r = bfs(ctx, 0, BfsOptions::default());
                assert_eq!(r.labels, want, "graph {i} context {j}");
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
            let r = bfs(&ctx, 3, BfsOptions::default().with_mode(mode));
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
        // without a reverse graph every level pushes
        let push = bfs(&Context::new(&g), 0, BfsOptions::default());
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
        // traversal after one level with the completed level intact
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(20, &edges));
        for (j, ctx) in both_directions(&g).into_iter().enumerate() {
            let ctx = ctx.with_policy(RunPolicy::unbounded().max_iterations(1));
            let r = bfs(&ctx, 0, BfsOptions::default());
            assert_eq!(r.outcome, RunOutcome::IterationCapped, "context {j}");
            assert_eq!(r.iterations, 1, "context {j}");
            // level 1 is complete, deeper levels untouched
            assert_eq!(r.labels[0], 0, "context {j}");
            assert_eq!(r.labels[1], 1, "context {j}");
            assert!(
                r.labels[2..].iter().all(|&l| l == INFINITY),
                "context {j}: {:?}",
                &r.labels[..5]
            );
        }
    }

    #[test]
    fn pull_gather_unset_trace_decrements_candidates_incrementally() {
        // Regression: a pull level must visit only the unvisited vertices
        // rather than re-pruning all n vertices each pull iteration, and
        // the trace must report the true candidate count, not the input
        // length.
        let g = GraphBuilder::new().build(rmat(11, 16, Default::default(), 5));
        let ctx = Context::new(&g).with_reverse(&g).with_stats();
        let r = bfs(&ctx, 0, BfsOptions::direction_optimized());
        assert!(r.pull_iterations > 0);
        let steps = ctx.run_stats().steps;
        let sweeps: Vec<_> =
            steps.iter().filter(|s| s.strategy.starts_with("pull_gather:unset")).collect();
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
        // A hub whose leaves are a sixteenth of the vertices, in a sea of
        // isolated ones: level 1 pushes from the hub alone, and its output
        // (every leaf, with no unvisited edges left) crosses both of the
        // default policy's thresholds, so level 2 asks to pull. The pull
        // output list (n entries, 4n bytes) then costs more than level 2's
        // push buffer (n/16 entries, n/4 bytes).
        let n: usize = 1 << 16;
        let leaves = (n / 16) as u32;
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(n, &edges));
        let bfs_entry = crate::registry::find("bfs").unwrap();
        let full = (bfs_entry.estimate_bytes)(n as u64, g.num_edges() as u64);
        let budget = Arc::new(MemoryBudget::new(full));
        let ctx =
            Context::new(&g).with_reverse(&g).with_stats().with_budget(Arc::clone(&budget));
        let bitmap = pooled_bytes((n as u64).div_ceil(64), 8);
        let pull_need = pooled_bytes(n as u64, 4);
        let level_one = 4 * leaves as u64;
        // Squeeze the budget (as concurrent jobs on a shared pool
        // would) until, once the visited bitmap and level 1's frontier
        // are checked out, the headroom cannot cover the pull output
        // but still fits the push buffers.
        let leave = bitmap + level_one + pull_need - level_one / 4;
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
        let r = bfs(&ctx, 0, BfsOptions::default());
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
        // with the budget free, the same run pulls at level 2
        let free = Context::new(&g).with_reverse(&g);
        assert_eq!(bfs(&free, 0, BfsOptions::default()).pull_iterations, 1);
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
