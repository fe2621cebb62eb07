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

use crate::recover::{
    check_failed, expect_len, expect_vertex_ids, malformed, scalar, to_atomic_f64,
    to_atomic_u32,
};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32, unwrap_atomic_u32, AtomicF64};
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

/// Which Brandes phase the run was in at snapshot time.
const PHASE_FORWARD: u32 = 0;
const PHASE_BACKWARD: u32 = 1;

/// In-flight BC loop state at an iteration boundary (what a checkpoint
/// captures; see [`bc_resume`]). `back_lvl` is the number of backward
/// sweep levels still to process (`lvl + 1` for the next level `lvl`).
struct BcLoop {
    depth: Vec<AtomicU32>,
    sigma: Vec<AtomicF64>,
    delta: Vec<AtomicF64>,
    /// Every level found so far, back to back: level `l` is
    /// `levels[offsets[l]..offsets[l + 1]]`.
    levels: Vec<u32>,
    offsets: Vec<u32>,
    phase: u32,
    back_lvl: u32,
}

impl BcLoop {
    /// The ids of level `l` (its vertices' depth).
    fn level(&self, l: u32) -> &[u32] {
        let at = |i: u32| self.offsets[i as usize] as usize;
        &self.levels[at(l)..at(l + 1)]
    }

    /// The deepest level found so far.
    fn last_level(&self) -> u32 {
        // CAST: one offset per level plus one; levels are fewer than vertices.
        self.offsets.len() as u32 - 2
    }
}

/// Builds an iteration-boundary snapshot. The level stack is
/// `levels_flat` + `level_offsets` (offsets table one longer than the
/// level count); scalars are `[src, deepest level, phase, back_lvl]`.
fn bc_checkpoint(iteration: u32, src: VertexId, st: &BcLoop) -> Checkpoint {
    let mut ckpt = Checkpoint::new("bc", iteration);
    ckpt.push_u32("depth", unwrap_atomic_u32(&st.depth));
    ckpt.push_f64("sigma", st.sigma.iter().map(|a| a.load()).collect());
    ckpt.push_f64("delta", st.delta.iter().map(|a| a.load()).collect());
    ckpt.push_u32("levels_flat", st.levels.clone());
    ckpt.push_u32("level_offsets", st.offsets.clone());
    ckpt.push_u32("scalars", vec![src, st.last_level(), st.phase, st.back_lvl]);
    ckpt
}

/// Runs a single-source BC pass from `src`. Summing `bc_values` over all
/// sources yields full betweenness centrality.
pub fn bc(ctx: &Context<'_>, src: VertexId, opts: BcOptions) -> BcResult {
    let n = ctx.num_vertices();
    assert!((src as usize) < n, "source out of range");
    let mut depth = atomic_u32_vec(n, INFINITY);
    depth[src as usize] = AtomicU32::new(0);
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    sigma[src as usize].store(1.0);
    let st = BcLoop {
        depth,
        sigma,
        delta: (0..n).map(|_| AtomicF64::new(0.0)).collect(),
        levels: vec![src],
        offsets: vec![0, 1],
        phase: PHASE_FORWARD,
        back_lvl: 0,
    };
    bc_run(ctx, src, opts, st, 0)
}

/// Resumes BC from a `gunrock-ckpt/v1` snapshot. The checkpoint's source
/// and phase position override everything but the advance mode. A `tags`
/// section (written by earlier versions) is ignored.
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
    let delta = ckpt.f64s("delta")?;
    expect_len(delta.len(), n, "delta")?;
    let flat = ckpt.u32s("levels_flat")?;
    expect_vertex_ids(flat, n, "levels_flat")?;
    let offsets = ckpt.u32s("level_offsets")?;
    if flat.len() > n
        || offsets.len() < 2
        || offsets.first() != Some(&0)
        || offsets.last().copied() != Some(flat.len() as u32)
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(malformed("level_offsets is not a monotone cover of up to n levelled ids"));
    }
    let scalars = ckpt.u32s("scalars")?;
    let src = scalar(scalars, 0, "src")?;
    if src as usize >= n {
        return Err(malformed(format!("source {src} out of range for {n} vertices")));
    }
    let phase = scalar(scalars, 2, "phase")?;
    if phase != PHASE_FORWARD && phase != PHASE_BACKWARD {
        return Err(malformed(format!("unknown BC phase tag {phase}")));
    }
    let back_lvl = scalar(scalars, 3, "back_lvl")?;
    if back_lvl as usize >= offsets.len() {
        return Err(malformed(format!("back_lvl {back_lvl} exceeds the recorded levels")));
    }
    let st = BcLoop {
        depth: to_atomic_u32(depth),
        sigma: to_atomic_f64(sigma),
        delta: to_atomic_f64(delta),
        levels: flat.to_vec(),
        offsets: offsets.to_vec(),
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
    let (g, n) = (ctx.graph, ctx.num_vertices());
    let mut run = Enactment::arm(ctx, done);
    // Budget admission: demote the advance mode (or poison with a
    // structured BudgetExceeded) before the first operator launches.
    let opts = BcOptions { mode: crate::admission::admit(ctx, "bc", opts.mode) };
    // The level stack lives in one pool buffer with room for a dense
    // level's gather to append up to `n` candidates past the levels found.
    let owned =
        ctx.pooled_copy("setup", &st.levels, 2 * n).map(|buf| st.levels = buf).is_some();
    // ORDERING: Relaxed — a vertex claimed in the current level reads as
    // `level` or INFINITY, never as a parent, and earlier levels were
    // published by the join barrier ending their operator.
    let depth_of = |v: VertexId| st.depth[v as usize].load(Ordering::Relaxed);

    // Phase 1: forward BFS with sigma accumulation.
    if st.phase == PHASE_FORWARD {
        let mut switch = GatherSwitch::default();
        // a sparse level's advance output, which is the next level's input
        let mut carried: Option<Frontier> = None;
        while !run.boundary(|it| Some(bc_checkpoint(it, src, &st))) {
            let (up, found) = (st.last_level(), st.levels.len());
            let (level, parents) = (up + 1, st.level(up));
            let frontier_edges = parents.iter().map(|&v| u64::from(g.out_degree(v))).sum();
            let dense = switch.choose(ctx, frontier_edges);
            run.end_iteration(dense);
            let (depth, sigma, carry) = (&st.depth[..], &st.sigma[..], carried.take());
            if dense {
                carry.into_iter().for_each(|f| ctx.recycle(f));
            } else {
                // copied from the level stack after a dense level or a resume
                let copy = || ctx.pooled_copy("setup", parents, 0).map(Frontier::from_vec);
                let Some(input) = carry.or_else(copy) else { break };
                let claim =
                    Claim { depth, sigma: ctx.reverse.is_none().then_some(sigma), level };
                let spec = AdvanceSpec::v2v().with_mode(opts.mode);
                let next = advance::advance(ctx, &input, spec, &claim);
                ctx.recycle(input);
                st.levels.extend_from_slice(next.as_slice());
                carried = Some(next);
            }
            if ctx.reverse.is_some() {
                // sigma sums the parents one level up; a dense level is found
                // by the same sweep, over the unvisited vertices
                let (spec, len, next) = if dense {
                    (GatherSpec::range(0..n as VertexId), n, Some(&mut st.levels))
                } else {
                    (GatherSpec::list(&st.levels[found..]), st.levels.len() - found, None)
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
            if st.levels.len() == found {
                break;
            }
            // CAST: at most n ids, and n fits u32 (Csr invariant).
            st.offsets.push(st.levels.len() as u32);
        }
        carried.into_iter().for_each(|f| ctx.recycle(f));
        // Hand over to the backward sweep only on a clean forward phase —
        // a trip leaves half-built sigmas that would make dependency sums
        // meaningless, and a resume re-enters the forward phase instead.
        if run.outcome() == RunOutcome::Converged {
            st.phase = PHASE_BACKWARD;
            st.back_lvl = st.last_level();
        }
    }

    // Phase 2: every level gathers its dependencies from the level below.
    if st.phase == PHASE_BACKWARD && run.outcome() == RunOutcome::Converged {
        while st.back_lvl > 0 && !run.boundary(|it| Some(bc_checkpoint(it, src, &st))) {
            run.end_iteration(false);
            let lvl = st.back_lvl - 1;
            let (sigma, delta) = (&st.sigma, &st.delta);
            let ids = st.level(lvl);
            advance_gather(
                ctx,
                GatherSpec::list(ids).out_edges(),
                &mut vec![(); ids.len()],
                None,
                |_| true,
                0.0,
                |w, u, _| {
                    if depth_of(w) == lvl + 1 {
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
            st.back_lvl -= 1;
        }
    }

    let done = run.finish(|it| Some(bc_checkpoint(it, src, &st)));
    if owned {
        ctx.pool().put_u32(st.levels);
    }
    let mut bc_values: Vec<f64> = st.delta.into_iter().map(|a| a.load()).collect();
    bc_values[src as usize] = 0.0;
    BcResult {
        bc_values,
        sigmas: st.sigma.into_iter().map(|a| a.load()).collect(),
        labels: into_plain_u32(st.depth),
        edges_examined: done.edges_examined,
        iterations: done.iterations,
        elapsed: done.elapsed,
        outcome: done.outcome,
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
