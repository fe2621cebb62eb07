//! Betweenness centrality (§5.3), Brandes's two-phase formulation.
//!
//! "The first phase has an advance step identical to the original BFS
//! and a computation step that computes the number of shortest paths
//! from source to each vertex. The second phase uses an advance step to
//! iterate over the BFS frontier backwards with a computation step to
//! compute the dependency scores." Both sums are gathers (§7), so no edge
//! pays an atomic add. [`GatherSwitch`] picks each forward level's shape
//! from the previous level's out-edge volume: a sparse level is a push
//! advance that claims each new vertex once, then a list gather of sigma
//! over the new level's in-edges; a dense level is one masked gather over
//! the unvisited vertices that finds the level and its sigma together.
//! Without a reverse graph every level pushes and adds sigma atomically
//! in the claim (PageRank's no-reverse rule). Path counts are IEEE
//! doubles: where they overflow, scores are NaN exactly where
//! `serial::brandes_single_source`'s are (DESIGN §5.3).

use crate::primitive::Primitive;
use crate::primitive::{first_source, frontiers, malformed, run, to_atomic_f64, to_atomic_u32};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32, unwrap_atomic_u32, AtomicF64};
use gunrock_engine::budget::pooled_bytes;
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
use gunrock_graph::{EdgeId, VertexId, INFINITY};
use std::sync::atomic::{AtomicU32, Ordering};

/// BC configuration.
#[derive(Clone, Copy, Debug)]
pub struct BcOptions {
    /// Workload mapping for the forward phase's push advances.
    pub mode: AdvanceMode,
}

impl Default for BcOptions {
    fn default() -> Self {
        BcOptions { mode: AdvanceMode::Auto }
    }
}

/// BC output for one source.
#[derive(Clone, Debug)]
pub struct BcResult {
    /// Dependency score of each vertex for this source (the per-source
    /// betweenness contribution). NaN where the vertex's shortest-path
    /// counts overflow `f64`.
    pub bc_values: Vec<f64>,
    /// Number of shortest paths from the source to each vertex.
    pub sigmas: Vec<f64>,
    /// BFS depth of each vertex.
    pub labels: Vec<u32>,
    /// Edges examined across both phases.
    pub edges_examined: u64,
    /// Bulk-synchronous iterations executed (forward + backward).
    pub iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the enact loop ended. A trip during the forward phase leaves
    /// `bc_values` all zero (no dependency accumulated yet); a trip
    /// during the backward phase leaves them partially accumulated.
    /// `labels`/`sigmas` are always consistent for the levels completed.
    pub outcome: RunOutcome,
}

/// Sparse-level discovery: the first parent to reach an unvisited vertex
/// claims it for the level, so the advance emits each new vertex once.
/// `sigma` is set only without a reverse graph to gather it from: every
/// shortest-path edge then adds its source's count.
struct Claim<'a> {
    depth: &'a [AtomicU32],
    sigma: Option<&'a [AtomicF64]>,
    level: u32,
}

impl AdvanceFunctor for Claim<'_> {
    #[inline]
    fn cond_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        let depth = &self.depth[dst as usize];
        // ORDERING: Relaxed — the claim publishes no other data: whichever
        // parent wins stores the same level, and the join barrier ending
        // the advance publishes it.
        let won = depth.load(Ordering::Relaxed) == INFINITY
            && depth
                .compare_exchange(INFINITY, self.level, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        if let Some(sigma) = self.sigma.filter(|_| depth.load(Ordering::Relaxed) == self.level)
        {
            let _ = sigma[dst as usize].fetch_add(sigma[src as usize].load());
        }
        won
    }
}

/// Which Brandes phase the run was in at snapshot time (a fresh state is
/// forward: zero).
const PHASE_FORWARD: u32 = 0;
const PHASE_BACKWARD: u32 = 1;

/// BC as a [`Primitive`]: the in-flight state at an iteration boundary
/// (a snapshot captures all of it but the run's level shapes).
/// `back_lvl` is the number of backward sweep levels still to process
/// (`lvl + 1` for the next level `lvl`).
#[derive(Default)]
pub struct Bc {
    src: VertexId,
    depth: Vec<AtomicU32>,
    sigma: Vec<AtomicF64>,
    delta: Vec<AtomicF64>,
    /// Every level found so far, back to back: level `l` is
    /// `levels[offsets[l]..offsets[l + 1]]`. A pool buffer once setup
    /// ran, with room for a dense level's gather to append up to `n`
    /// candidates past the levels found.
    levels: Vec<u32>,
    offsets: Vec<u32>,
    phase: u32,
    back_lvl: u32,
    /// Whether `levels` came from the pool.
    pooled: bool,
    /// Each forward level's shape.
    switch: GatherSwitch,
    /// A sparse level's advance output, which is the next level's input.
    carried: Option<Frontier>,
}

impl Bc {
    /// Where level `l` (its vertices' depth) sits in `levels`.
    fn level(&self, l: u32) -> std::ops::Range<usize> {
        let at = |i: u32| self.offsets[i as usize] as usize;
        at(l)..at(l + 1)
    }

    /// The deepest level found so far.
    fn last_level(&self) -> u32 {
        // CAST: one offset per level plus one; levels are fewer than vertices.
        self.offsets.len() as u32 - 2
    }

    /// One forward level: discovers level `last_level() + 1` and its
    /// path counts, or, when it is empty, hands over to the backward
    /// sweep.
    fn forward(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        let (g, n) = (ctx.graph, ctx.num_vertices());
        let (up, found) = (self.last_level(), self.levels.len());
        let (level, parents) = (up + 1, self.level(up));
        let frontier_edges =
            self.levels[parents.clone()].iter().map(|&v| u64::from(g.out_degree(v))).sum();
        let dense = self.switch.choose(ctx, frontier_edges);
        run.end_iteration(dense);
        let (depth, sigma, carry) = (&self.depth[..], &self.sigma[..], self.carried.take());
        // ORDERING: Relaxed — a vertex claimed in the current level reads as
        // `level` or INFINITY, never as a parent, and earlier levels were
        // published by the join barrier ending their operator.
        let depth_of = |v: VertexId| depth[v as usize].load(Ordering::Relaxed);
        if dense {
            carry.into_iter().for_each(|f| ctx.recycle(f));
        } else {
            // copied from the level stack after a dense level or a resume
            let copy =
                || ctx.pooled_copy("setup", &self.levels[parents], 0).map(Frontier::from_vec);
            let Some(input) = carry.or_else(copy) else { return };
            let claim = Claim { depth, sigma: ctx.reverse.is_none().then_some(sigma), level };
            let spec = AdvanceSpec::v2v().with_mode(mode);
            let next = advance::advance(ctx, &input, spec, &claim);
            ctx.recycle(input);
            self.levels.extend_from_slice(next.as_slice());
            self.carried = Some(next);
        }
        if ctx.reverse.is_some() {
            // sigma sums the parents one level up; a dense level is found
            // by the same sweep, over the unvisited vertices
            let (spec, len, next) = if dense {
                (GatherSpec::range(0..n as VertexId), n, Some(&mut self.levels))
            } else {
                (GatherSpec::list(&self.levels[found..]), self.levels.len() - found, None)
            };
            advance_gather(
                ctx,
                spec,
                &mut vec![(); len],
                next,
                |v| !dense || depth_of(v) == INFINITY,
                0.0,
                |u, _, _| if depth_of(u) == up { sigma[u as usize].load() } else { 0.0 },
                |a, b| a + b,
                |v, paths, _| {
                    if paths > 0.0 {
                        sigma[v as usize].store(paths);
                        depth[v as usize].store(level, Ordering::Relaxed);
                    }
                    paths > 0.0
                },
            );
        }
        if self.levels.len() == found {
            // Hand over to the backward sweep on a clean forward phase —
            // a trip leaves half-built sigmas that would make dependency
            // sums meaningless, and a resume re-enters the forward phase.
            self.carried.take().into_iter().for_each(|f| ctx.recycle(f));
            self.phase = PHASE_BACKWARD;
            self.back_lvl = self.last_level();
        } else {
            // CAST: at most n ids, and n fits u32 (Csr invariant).
            self.offsets.push(self.levels.len() as u32);
        }
    }

    /// One backward level: it gathers its dependencies from the level
    /// below.
    fn backward(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>) {
        run.end_iteration(false);
        let lvl = self.back_lvl - 1;
        let (depth, sigma, delta) = (&self.depth, &self.sigma, &self.delta);
        let ids = &self.levels[self.level(lvl)];
        advance_gather(
            ctx,
            GatherSpec::list(ids).out_edges(),
            &mut vec![(); ids.len()],
            None,
            |_| true,
            0.0,
            |w, u, _| {
                // ORDERING: Relaxed — the forward phase's join barriers
                // published every depth.
                if depth[w as usize].load(Ordering::Relaxed) == lvl + 1 {
                    sigma[u as usize].load() / sigma[w as usize].load()
                        * (1.0 + delta[w as usize].load())
                } else {
                    0.0
                }
            },
            |a, b| a + b,
            |u, dependency, _| {
                delta[u as usize].store(dependency);
                false
            },
        );
        self.back_lvl -= 1;
    }
}

/// Runs a single-source BC pass from `src`. Summing `bc_values` over all
/// sources yields full betweenness centrality.
pub fn bc(ctx: &Context<'_>, src: VertexId, opts: BcOptions) -> BcResult {
    run::<Bc>(ctx, &[src], opts)
}

impl Primitive for Bc {
    const NAME: &'static str = "bc";
    const ARITY: Arity = Arity::One;
    const ADVANCES: bool = true;
    // the level stack is `levels_flat` cut by `level_offsets`, one longer
    // than the level count
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "bc",
        fields: &[
            Field("depth", "u32", PerVertex),
            Field("sigma", "f64", PerVertex),
            Field("delta", "f64", PerVertex),
            Field("levels_flat", "u32", VertexIds),
            Field("level_offsets", "u32", List),
            Field(
                "scalars",
                "u32",
                Slots(&[Vertex("src"), Plain("last_level"), Plain("phase"), Plain("back_lvl")]),
            ),
        ],
    });
    type Options = BcOptions;
    type Result = BcResult;

    fn mode(opts: &BcOptions) -> AdvanceMode {
        opts.mode
    }

    // depths, sigma and delta, the pooled level stack (room for a dense
    // level's candidates past the levels found), and a sparse level's
    // input copy and advance output
    fn state_bytes(n: u64, _m: u64) -> u64 {
        n * 4 + 2 * n * 8 + pooled_bytes(2 * n, 4) + frontiers(n)
    }

    fn init(ctx: &Context<'_>, sources: &[VertexId], _opts: BcOptions) -> Self {
        let n = ctx.num_vertices();
        let src = first_source(sources);
        assert!((src as usize) < n, "source out of range");
        let mut depth = atomic_u32_vec(n, INFINITY);
        depth[src as usize] = AtomicU32::new(0);
        let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        sigma[src as usize].store(1.0);
        Bc {
            src,
            depth,
            sigma,
            delta: (0..n).map(|_| AtomicF64::new(0.0)).collect(),
            levels: vec![src],
            offsets: vec![0, 1],
            ..Default::default()
        }
    }

    /// The snapshot's phase position overrides everything but the
    /// advance mode. A `tags` section (written by earlier versions) is
    /// ignored.
    fn load(
        ctx: &Context<'_>,
        snap: &Snapshot<'_>,
        _opts: BcOptions,
    ) -> Result<Self, GunrockError> {
        let n = ctx.num_vertices();
        let (flat, offsets) = (snap.section("levels_flat")?, snap.section("level_offsets")?);
        if flat.len() > n
            || offsets.len() < 2
            || offsets.first() != Some(&0)
            || offsets.last().copied() != Some(flat.len() as u32)
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(malformed(
                "level_offsets is not a monotone cover of up to n levelled ids",
            ));
        }
        let phase = snap.slot("phase")?;
        if phase != PHASE_FORWARD && phase != PHASE_BACKWARD {
            return Err(malformed(format!("unknown BC phase tag {phase}")));
        }
        let back_lvl = snap.slot("back_lvl")?;
        if back_lvl as usize >= offsets.len() {
            return Err(malformed(format!("back_lvl {back_lvl} exceeds the recorded levels")));
        }
        Ok(Bc {
            src: snap.slot("src")?,
            depth: to_atomic_u32(snap.section("depth")?),
            sigma: to_atomic_f64(snap.section("sigma")?),
            delta: to_atomic_f64(snap.section("delta")?),
            levels: flat.to_vec(),
            offsets: offsets.to_vec(),
            phase,
            back_lvl,
            ..Default::default()
        })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        snapshot
            .section("depth", unwrap_atomic_u32(&self.depth))
            .section("sigma", self.sigma.iter().map(|a| a.load()).collect())
            .section("delta", self.delta.iter().map(|a| a.load()).collect())
            .section("levels_flat", self.levels.clone())
            .section("level_offsets", self.offsets.clone())
            .slots(
                "scalars",
                &[
                    ("src", self.src),
                    ("last_level", self.last_level()),
                    ("phase", self.phase),
                    ("back_lvl", self.back_lvl),
                ],
            )
    }

    fn sources(&self) -> Vec<VertexId> {
        vec![self.src]
    }

    fn setup(&mut self, ctx: &Context<'_>) {
        let mut levels = ctx.pool().take_u32(2 * ctx.num_vertices());
        levels.extend_from_slice(&self.levels);
        self.levels = levels;
        self.pooled = true;
    }

    fn live(&self, _iterations: u32) -> bool {
        self.phase == PHASE_FORWARD || self.back_lvl > 0
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        if self.phase == PHASE_FORWARD {
            self.forward(ctx, run, mode);
        } else {
            self.backward(ctx, run);
        }
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> BcResult {
        self.carried.into_iter().for_each(|f| ctx.recycle(f));
        if self.pooled {
            ctx.pool().put_u32(self.levels);
        }
        let mut bc_values: Vec<f64> = self.delta.into_iter().map(|a| a.load()).collect();
        bc_values[self.src as usize] = 0.0;
        BcResult {
            bc_values,
            sigmas: self.sigma.into_iter().map(|a| a.load()).collect(),
            labels: into_plain_u32(self.depth),
            edges_examined: done.edges_examined,
            iterations: done.iterations,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: BcResult) -> Output {
        Output::Scores(result.bc_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, grid2d, rmat};
    use gunrock_graph::{Coo, GraphBuilder};

    fn close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_serial_brandes_on_suite() {
        let graphs = [
            GraphBuilder::new().build(erdos_renyi(300, 900, 1)),
            GraphBuilder::new().build(rmat(8, 8, Default::default(), 2)),
            GraphBuilder::new().build(grid2d(15, 15, 0.1, 0.0, 3)),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let want = serial::brandes_single_source(g, 0);
            for ctx in [Context::new(g), Context::new(g).with_reverse(g)] {
                let r = bc(&ctx, 0, BcOptions::default());
                close(&r.bc_values, &want, 1e-6);
                assert_eq!(r.labels, serial::bfs(g, 0), "graph {i}");
            }
        }
    }

    #[test]
    fn sigma_counts_shortest_paths() {
        // diamond: 0-1, 0-2, 1-3, 2-3: two shortest paths 0..3
        let g =
            GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
        let ctx = Context::new(&g);
        let r = bc(&ctx, 0, BcOptions::default());
        assert_eq!(r.sigmas, vec![1.0, 1.0, 1.0, 2.0]);
        // each middle vertex carries half the dependency of vertex 3
        assert!((r.bc_values[1] - 0.5).abs() < 1e-12);
        assert!((r.bc_values[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_modes_agree() {
        let g = GraphBuilder::new().build(rmat(8, 16, Default::default(), 5));
        let want = serial::brandes_single_source(&g, 2);
        for mode in [AdvanceMode::ThreadMapped, AdvanceMode::Twc, AdvanceMode::LoadBalanced] {
            let ctx = Context::new(&g);
            let r = bc(&ctx, 2, BcOptions { mode });
            close(&r.bc_values, &want, 1e-6);
        }
    }

    #[test]
    fn full_bc_matches_serial_on_small_graph() {
        // full betweenness is the sum of the single-source scores
        let g = GraphBuilder::new().build(erdos_renyi(60, 150, 7));
        let mut got = vec![0.0; g.num_vertices()];
        for s in 0..g.num_vertices() as VertexId {
            let r = bc(&Context::new(&g), s, BcOptions::default());
            got.iter_mut().zip(&r.bc_values).for_each(|(t, d)| *t += d);
        }
        close(&got, &serial::betweenness_centrality(&g), 1e-6);
    }

    #[test]
    fn forward_phase_cap_yields_partial_depths_and_zero_scores() {
        let g = GraphBuilder::new().build(grid2d(15, 15, 0.0, 0.0, 11));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(2));
        let r = bc(&ctx, 0, BcOptions::default());
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.iterations, 2);
        // two completed forward levels: depths 0..=2 settled, deeper
        // vertices untouched; no dependency was accumulated
        for (v, &depth) in serial::bfs(&g, 0).iter().enumerate() {
            assert_eq!(r.labels[v], if depth <= 2 { depth } else { INFINITY }, "vertex {v}");
        }
        assert!(r.bc_values.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn source_score_is_zero() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 400, 9));
        let ctx = Context::new(&g);
        let r = bc(&ctx, 5, BcOptions::default());
        assert_eq!(r.bc_values[5], 0.0);
    }
}
