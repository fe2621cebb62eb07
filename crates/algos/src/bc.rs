//! Betweenness centrality (§5.3), Brandes's two-phase formulation.
//!
//! "The first phase has an advance step identical to the original BFS
//! and a computation step that computes the number of shortest paths
//! from source to each vertex. The second phase uses an advance step to
//! iterate over the BFS frontier backwards with a computation step to
//! compute the dependency scores." Both phases here are advances with
//! the computation fused into the functor (edge-parallel, like the
//! gpu_BC comparison kernel).

use crate::recover::{
    check_failed, expect_len, expect_vertex_ids, malformed, scalar, to_atomic_f64,
    to_atomic_u32,
};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32, AtomicF64};
use gunrock_graph::{Csr, EdgeId, VertexId, INFINITY};
use std::sync::atomic::{AtomicU32, Ordering};

/// BC configuration.
#[derive(Clone, Copy, Debug)]
pub struct BcOptions {
    /// Workload mapping for both phases' advances.
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
    /// betweenness contribution).
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

impl BcResult {
    /// Millions of traversed edges per second (both phases).
    pub fn mteps(&self) -> f64 {
        Timing { elapsed: self.elapsed, edges_examined: self.edges_examined }.mteps()
    }
}

/// Forward-phase functor: BFS labeling with fused sigma accumulation.
struct ForwardSigma<'a> {
    depth: &'a [AtomicU32],
    sigma: &'a [AtomicF64],
    level: u32,
}

impl AdvanceFunctor for ForwardSigma<'_> {
    #[inline]
    fn cond_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        // ORDERING: Relaxed — racing writers store identical values (idempotent
        // level discovery); the join barrier between iterations publishes them.
        if self.depth[dst as usize].load(Ordering::Relaxed) == INFINITY {
            let _ = self.depth[dst as usize].compare_exchange(
                INFINITY,
                self.level,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        if self.depth[dst as usize].load(Ordering::Relaxed) == self.level {
            // every shortest-path edge contributes its source's count
            let _ = self.sigma[dst as usize].fetch_add(self.sigma[src as usize].load());
            true
        } else {
            false
        }
    }
}

/// Backward-phase functor: dependency accumulation along BFS edges,
/// run for effect only (the paper's second advance over the frontier
/// stack, backwards).
struct BackwardDelta<'a> {
    depth: &'a [AtomicU32],
    sigma: &'a [AtomicF64],
    delta: &'a [AtomicF64],
    level: u32,
}

impl AdvanceFunctor for BackwardDelta<'_> {
    #[inline]
    fn cond_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        // ORDERING: Relaxed — racing writers store identical values (idempotent
        // level discovery); the join barrier between iterations publishes them.
        if self.depth[dst as usize].load(Ordering::Relaxed) == self.level + 1 {
            let s = self.sigma[src as usize].load() / self.sigma[dst as usize].load()
                * (1.0 + self.delta[dst as usize].load());
            let _ = self.delta[src as usize].fetch_add(s);
        }
        false // effect-only: no output frontier
    }
}

/// Per-level claim filter: a vertex enters the level frontier once.
struct ClaimLevel<'a> {
    tags: &'a [AtomicU32],
    level: u32,
}

impl FilterFunctor for ClaimLevel<'_> {
    #[inline]
    fn cond(&self, v: u32) -> bool {
        // ORDERING: Relaxed — racing writers store identical values (idempotent
        // level discovery); the join barrier between iterations publishes them.
        self.tags[v as usize].swap(self.level, Ordering::Relaxed) != self.level
    }
}

/// Which Brandes phase the run was in at snapshot time.
const PHASE_FORWARD: u32 = 0;
const PHASE_BACKWARD: u32 = 1;

/// In-flight BC loop state at an iteration boundary (what a checkpoint
/// captures; see [`bc_resume`]). `back_lvl` is the number of backward
/// sweep levels still to process (`lvl + 1` for the next level `lvl`).
struct BcLoop {
    depth: Vec<AtomicU32>,
    sigma: Vec<AtomicF64>,
    tags: Vec<AtomicU32>,
    delta: Vec<AtomicF64>,
    levels: Vec<Frontier>,
    level: u32,
    phase: u32,
    back_lvl: u32,
}

/// Builds an iteration-boundary snapshot. The per-level frontier stack
/// is flattened into `levels_flat` + `level_offsets` (offsets table one
/// longer than the level count); scalars are `[src, level, phase,
/// back_lvl]`.
fn bc_checkpoint(iteration: u32, src: VertexId, st: &BcLoop) -> Checkpoint {
    let mut ckpt = Checkpoint::new("bc", iteration);
    ckpt.push_u32("depth", unwrap_atomic_u32(&st.depth));
    ckpt.push_f64("sigma", st.sigma.iter().map(|a| a.load()).collect());
    ckpt.push_u32("tags", unwrap_atomic_u32(&st.tags));
    ckpt.push_f64("delta", st.delta.iter().map(|a| a.load()).collect());
    let mut flat = Vec::new();
    let mut offsets = Vec::with_capacity(st.levels.len() + 1);
    offsets.push(0u32);
    for f in &st.levels {
        flat.extend_from_slice(f.as_slice());
        offsets.push(flat.len() as u32);
    }
    ckpt.push_u32("levels_flat", flat);
    ckpt.push_u32("level_offsets", offsets);
    ckpt.push_u32("scalars", vec![src, st.level, st.phase, st.back_lvl]);
    ckpt
}

/// Runs a single-source BC pass from `src`. Summing `bc_values` over all
/// sources yields full betweenness centrality.
pub fn bc(ctx: &Context<'_>, src: VertexId, opts: BcOptions) -> BcResult {
    let n = ctx.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let depth = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — racing writers store identical values (idempotent
    // level discovery); the join barrier between iterations publishes them.
    depth[src as usize].store(0, Ordering::Relaxed);
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    sigma[src as usize].store(1.0);
    let st = BcLoop {
        depth,
        sigma,
        tags: atomic_u32_vec(n, u32::MAX),
        delta: (0..n).map(|_| AtomicF64::new(0.0)).collect(),
        levels: vec![Frontier::single(src)],
        level: 0,
        phase: PHASE_FORWARD,
        back_lvl: 0,
    };
    bc_run(ctx, src, opts, st, 0)
}

/// Resumes BC from a `gunrock-ckpt/v1` snapshot. The checkpoint's source
/// and phase position override everything but the advance mode.
pub fn bc_resume(
    ctx: &Context<'_>,
    opts: BcOptions,
    ckpt: &Checkpoint,
) -> Result<BcResult, GunrockError> {
    ckpt.expect_primitive("bc")?;
    let n = ctx.num_vertices();
    let depth = ckpt.u32s("depth")?;
    expect_len(depth.len(), n, "depth")?;
    let sigma = ckpt.f64s("sigma")?;
    expect_len(sigma.len(), n, "sigma")?;
    let tags = ckpt.u32s("tags")?;
    expect_len(tags.len(), n, "tags")?;
    let delta = ckpt.f64s("delta")?;
    expect_len(delta.len(), n, "delta")?;
    let flat = ckpt.u32s("levels_flat")?;
    expect_vertex_ids(flat, n, "levels_flat")?;
    let offsets = ckpt.u32s("level_offsets")?;
    if offsets.first() != Some(&0)
        || offsets.last().copied() != Some(flat.len() as u32)
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(malformed("level_offsets is not a monotone cover of levels_flat"));
    }
    let levels: Vec<Frontier> = offsets
        .windows(2)
        .map(|w| Frontier::from_vec(flat[w[0] as usize..w[1] as usize].to_vec()))
        .collect();
    if levels.is_empty() {
        return Err(malformed("BC checkpoint has no levels"));
    }
    let scalars = ckpt.u32s("scalars")?;
    let src = scalar(scalars, 0, "src")?;
    if src as usize >= n {
        return Err(malformed(format!("source {src} out of range for {n} vertices")));
    }
    let level = scalar(scalars, 1, "level")?;
    let phase = scalar(scalars, 2, "phase")?;
    if phase != PHASE_FORWARD && phase != PHASE_BACKWARD {
        return Err(malformed(format!("unknown BC phase tag {phase}")));
    }
    let back_lvl = scalar(scalars, 3, "back_lvl")?;
    if back_lvl as usize > levels.len() {
        return Err(malformed(format!(
            "back_lvl {back_lvl} exceeds the {} recorded levels",
            levels.len()
        )));
    }
    let st = BcLoop {
        depth: to_atomic_u32(depth),
        sigma: to_atomic_f64(sigma),
        tags: to_atomic_u32(tags),
        delta: to_atomic_f64(delta),
        levels,
        level,
        phase,
        back_lvl,
    };
    let r = bc_run(ctx, src, opts, st, ckpt.iteration());
    check_failed(ctx, r.outcome, r)
}

/// The enact loop proper, starting from an arbitrary iteration-boundary
/// state (fresh from [`bc`] or restored by [`bc_resume`]) that has
/// already completed `done` iterations.
fn bc_run(
    ctx: &Context<'_>,
    src: VertexId,
    opts: BcOptions,
    mut st: BcLoop,
    done: u32,
) -> BcResult {
    let mut run = Enactment::arm(ctx, done);
    // Budget admission: demote the advance mode (or poison with a
    // structured BudgetExceeded) before the first operator launches.
    let opts = BcOptions { mode: crate::admission::admit(ctx, "bc", opts.mode) };

    // Phase 1: forward BFS with fused sigma accumulation.
    if st.phase == PHASE_FORWARD {
        while !run.boundary(|it| Some(bc_checkpoint(it, src, &st))) {
            st.level += 1;
            run.end_iteration(false);
            let f = ForwardSigma { depth: &st.depth, sigma: &st.sigma, level: st.level };
            let spec = AdvanceSpec::v2v().with_mode(opts.mode);
            // LINT-ALLOW(panic): `levels` starts with the source level and only
            // ever grows, so `last()` cannot fail.
            let raw = advance::advance(ctx, st.levels.last().unwrap(), spec, &f);
            let next =
                filter::filter(ctx, &raw, &ClaimLevel { tags: &st.tags, level: st.level });
            // the level stack keeps `next`; only the raw intermediate is
            // dead and recyclable
            ctx.recycle(raw);
            if next.is_empty() {
                ctx.recycle(next);
                break;
            }
            st.levels.push(next);
        }
        // Hand over to the backward sweep only on a clean forward phase —
        // a trip leaves half-built sigmas that would make dependency sums
        // meaningless, and a resume re-enters the forward phase instead.
        if run.outcome() == RunOutcome::Converged {
            st.phase = PHASE_BACKWARD;
            st.back_lvl = st.levels.len() as u32 - 1;
        }
    }

    // Phase 2: backward sweep over the frontier stack.
    if st.phase == PHASE_BACKWARD && run.outcome() == RunOutcome::Converged {
        while st.back_lvl > 0 && !run.boundary(|it| Some(bc_checkpoint(it, src, &st))) {
            run.end_iteration(false);
            let lvl = st.back_lvl - 1;
            let f = BackwardDelta {
                depth: &st.depth,
                sigma: &st.sigma,
                delta: &st.delta,
                level: lvl,
            };
            let spec = AdvanceSpec::for_effect().with_mode(opts.mode);
            let _ = advance::advance(ctx, &st.levels[lvl as usize], spec, &f);
            st.back_lvl -= 1;
        }
    }

    let done = run.finish(|it| Some(bc_checkpoint(it, src, &st)));
    // the level stack's frontiers still own pooled storage; return them
    // so a re-run on this context starts with a warm pool
    for lvl in st.levels {
        ctx.recycle(lvl);
    }
    let mut bc_values: Vec<f64> = st.delta.iter().map(|a| a.load()).collect();
    bc_values[src as usize] = 0.0;
    BcResult {
        bc_values,
        sigmas: st.sigma.iter().map(|a| a.load()).collect(),
        labels: unwrap_atomic_u32(&st.depth),
        edges_examined: ctx.counters.edges(),
        iterations: done.iterations,
        elapsed: done.elapsed,
        outcome: done.outcome,
    }
}

/// Full betweenness centrality by enacting every source (tests and small
/// graphs; the paper's evaluation times single-source enactments).
pub fn bc_all_sources(g: &Csr, opts: BcOptions) -> Vec<f64> {
    let n = g.num_vertices();
    let mut total = vec![0.0f64; n];
    for s in 0..n as VertexId {
        let ctx = Context::new(g);
        for (v, d) in bc(&ctx, s, opts).bc_values.into_iter().enumerate() {
            total[v] += d;
        }
    }
    total
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
            let ctx = Context::new(g);
            let r = bc(&ctx, 0, BcOptions::default());
            let want = serial::brandes_single_source(g, 0);
            close(&r.bc_values, &want, 1e-6);
            assert_eq!(r.labels, serial::bfs(g, 0), "graph {i}");
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
        let g = GraphBuilder::new().build(erdos_renyi(60, 150, 7));
        let got = bc_all_sources(&g, BcOptions::default());
        let want = serial::betweenness_centrality(&g);
        close(&got, &want, 1e-6);
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
        let full = serial::bfs(&g, 0);
        for (v, &depth) in full.iter().enumerate() {
            if depth <= 2 {
                assert_eq!(r.labels[v], depth, "vertex {v}");
            } else {
                assert_eq!(r.labels[v], INFINITY, "vertex {v}");
            }
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
