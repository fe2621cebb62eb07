//! Multi-source personalized PageRank via batched sparse push.
//!
//! The Andersen–Chung–Lang push scheme, lane-packed like [`msbfs`]: up
//! to [`LANES`] personalization sources run in one loop, a [`LaneMap`]
//! marks which lanes have pushable residual at each vertex, and one
//! word-sweep per level processes every (vertex, lane) pair whose
//! residual crossed the threshold — the same whole-word skip and
//! fetch_or marking discipline as the batched BFS advance, with
//! per-lane `f64` score/residual arrays riding alongside.
//!
//! Per (vertex `v`, lane `l`) with residual `r >= epsilon * deg(v)`:
//! `score += alpha * r`, and `(1 - alpha) * r / deg(v)` is pushed to
//! each out-neighbor's residual, marking the neighbor's lane bit in the
//! next frontier. Sub-threshold residual is retained in place (the ACL
//! guarantee: on convergence every residual is below
//! `epsilon * deg`). Zero-degree vertices absorb their whole residual
//! into their score.
//!
//! The loop honors the run-policy machinery: guard checks every
//! iteration boundary, periodic/exit checkpoints (`msppr` snapshots),
//! and structured failure on panic (each level runs isolated).
//!
//! [`msbfs`]: crate::msbfs::msbfs

use crate::recover::{check_failed, expect_len, expect_vertex_ids, malformed, scalar};
use gunrock::prelude::*;
use gunrock_graph::VertexId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Batched PPR configuration.
#[derive(Clone, Copy, Debug)]
pub struct MspprOptions {
    /// Teleport probability (the fraction of pushed residual retained
    /// as score each push).
    pub alpha: f64,
    /// Push threshold: lane `l` pushes at `v` while its residual is at
    /// least `epsilon * deg(v)`.
    pub epsilon: f64,
}

impl Default for MspprOptions {
    fn default() -> Self {
        MspprOptions { alpha: 0.15, epsilon: 1e-6 }
    }
}

/// Batched PPR output: a lane-major score matrix plus shared run stats.
#[derive(Clone, Debug)]
pub struct MspprResult {
    /// Lane-major scores: `scores[l * num_vertices + v]` is lane `l`'s
    /// PPR mass at `v`, personalized on `sources[l]`.
    pub scores: Vec<f64>,
    /// The batch's personalization sources, one per lane.
    pub sources: Vec<VertexId>,
    /// Vertex count of the graph the batch ran on (the lane stride).
    pub num_vertices: usize,
    /// Edges examined across the whole batch.
    pub edges_examined: u64,
    /// Bulk-synchronous push rounds executed.
    pub iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the loop ended.
    pub outcome: RunOutcome,
}

impl MspprResult {
    /// Lane `l`'s score array.
    pub fn lane_scores(&self, lane: usize) -> &[f64] {
        &self.scores[lane * self.num_vertices..(lane + 1) * self.num_vertices]
    }
}

/// Lock-free `f64` add on bit-stored cells (CAS loop), shared by score
/// and residual updates.
#[inline]
fn add_f64(cell: &AtomicU64, delta: f64) {
    // ORDERING: Relaxed — residual/score accumulation is commutative and
    // only needs atomicity; the level's join barrier publishes the sums.
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// In-flight batch state at an iteration boundary.
struct MspprLoop {
    scores: Vec<AtomicU64>,
    residual: Vec<AtomicU64>,
    active_words: Vec<u64>,
}

fn f64_cells(values: &[f64]) -> Vec<AtomicU64> {
    values.iter().map(|v| AtomicU64::new(v.to_bits())).collect()
}

fn f64_values(cells: &[AtomicU64]) -> Vec<f64> {
    // ORDERING: Relaxed — boundary read; the last level's join barrier
    // published every cell.
    cells.iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect()
}

/// Runs one lane-packed batch of personalized PageRank pushes, one
/// personalization source per lane. Accepts 1..=[`LANES`] sources;
/// panics on an empty or oversized batch or an out-of-range source.
pub fn msppr(ctx: &Context<'_>, sources: &[VertexId], opts: MspprOptions) -> MspprResult {
    let n = ctx.num_vertices();
    assert!(
        !sources.is_empty() && sources.len() <= LANES,
        "msppr batch must hold 1..={LANES} sources, got {}",
        sources.len()
    );
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
    }
    let scores = f64_cells(&vec![0.0; n * sources.len()]);
    let residual = f64_cells(&vec![0.0; n * sources.len()]);
    let mut active_words = vec![0u64; n];
    for (l, &s) in sources.iter().enumerate() {
        // ORDERING: Relaxed — seeding precedes the loop's first fork.
        residual[l * n + s as usize].store(1f64.to_bits(), Ordering::Relaxed);
        active_words[s as usize] |= 1u64 << l;
    }
    msppr_run(ctx, sources, opts, MspprLoop { scores, residual, active_words }, 0)
}

/// [`msppr`] with `Result` semantics.
pub fn try_msppr(
    ctx: &Context<'_>,
    sources: &[VertexId],
    opts: MspprOptions,
) -> Result<MspprResult, GunrockError> {
    let r = msppr(ctx, sources, opts);
    check_failed(ctx, r.outcome, r)
}

/// Resumes a batch from a `gunrock-ckpt/v1` snapshot written by
/// [`msppr`]'s checkpoint boundary. `opts` configures the continued
/// portion (threshold/teleport come from the checkpoint).
pub fn msppr_resume(ctx: &Context<'_>, ckpt: &Checkpoint) -> Result<MspprResult, GunrockError> {
    ckpt.expect_primitive("msppr")?;
    let n = ctx.num_vertices();
    let sources = ckpt.u32s("sources")?;
    expect_vertex_ids(sources, n, "sources")?;
    if sources.is_empty() || sources.len() > LANES {
        return Err(malformed(format!("msppr checkpoint holds {} lanes", sources.len())));
    }
    let scores = ckpt.f64s("scores")?;
    let residual = ckpt.f64s("residual")?;
    if scores.len() != n * sources.len() || residual.len() != scores.len() {
        return Err(malformed("score/residual sections disagree with lanes x vertices"));
    }
    let active = ckpt.u64s("active")?;
    expect_len(active.len(), n, "active")?;
    let scalars = ckpt.u32s("scalars")?;
    let lane_count = scalar(scalars, 0, "lane_count")? as usize;
    if lane_count != sources.len() {
        return Err(malformed("scalar lane count disagrees with sources"));
    }
    let params = ckpt.f64s("params")?;
    let opts = MspprOptions {
        alpha: params.first().copied().unwrap_or(0.15),
        epsilon: params.get(1).copied().unwrap_or(1e-6),
    };
    let sources = sources.to_vec();
    let st = MspprLoop {
        scores: f64_cells(scores),
        residual: f64_cells(residual),
        active_words: active.to_vec(),
    };
    let r = msppr_run(ctx, &sources, opts, st, ckpt.iteration());
    check_failed(ctx, r.outcome, r)
}

/// Builds an iteration-boundary snapshot.
fn msppr_checkpoint(
    iteration: u32,
    sources: &[VertexId],
    opts: MspprOptions,
    scores: &[AtomicU64],
    residual: &[AtomicU64],
    active: &LaneMap,
) -> Checkpoint {
    let mut ckpt = Checkpoint::new("msppr", iteration);
    ckpt.push_f64("scores", f64_values(scores));
    ckpt.push_f64("residual", f64_values(residual));
    ckpt.push_u64("active", active.snapshot_words());
    ckpt.push_u32("sources", sources.to_vec());
    ckpt.push_u32("scalars", vec![sources.len() as u32]);
    ckpt.push_f64("params", vec![opts.alpha, opts.epsilon]);
    ckpt
}

/// The enact loop proper, after `done` completed iterations.
fn msppr_run(
    ctx: &Context<'_>,
    sources: &[VertexId],
    opts: MspprOptions,
    st: MspprLoop,
    done: u32,
) -> MspprResult {
    let n = ctx.num_vertices();
    let mut run = Enactment::arm(ctx, done);
    // Budget admission: the score/residual matrices and lane maps are
    // priced as a unit, so an impossible batch fails with a structured
    // BudgetExceeded before anything is checked out.
    crate::admission::admit(ctx, "msppr", AdvanceMode::Auto);
    let MspprLoop { scores, residual, active_words } = st;
    let maps = if ctx.is_poisoned() {
        None
    } else {
        ctx.isolated_setup("setup", || {
            let mut active = LaneMap::take(ctx.pool(), n);
            active.restore_words(&active_words);
            (active, LaneMap::take(ctx.pool(), n))
        })
    };
    let g = ctx.graph;
    let cols = g.col_indices();
    let done = match maps {
        // the context is poisoned: the run ends `Failed` with nothing to snapshot
        None => run.finish(no_snapshot),
        Some((mut active, mut next)) => {
            while active.count_active() > 0 {
                if run.boundary(|it| {
                    Some(msppr_checkpoint(it, sources, opts, &scores, &residual, &active))
                }) {
                    break;
                }
                // One push round, panic-isolated like an operator launch: the
                // sweep mirrors the batched advance's scatter (whole-word skip
                // of inactive vertices, per-lane bit iteration, fetch_or lane
                // marking on pushed neighbors).
                let round = ctx.isolated_setup("advance", || {
                    if let Some(inj) = ctx.injector() {
                        inj.maybe_panic("advance:msppr");
                    }
                    let next_ref: &LaneMap = &next;
                    let vgrain = (n / (rayon::current_num_threads() * 8).max(1)).max(64);
                    active
                        .words()
                        .par_chunks(vgrain)
                        .enumerate()
                        .map(|(ci, words)| {
                            let mut edges = 0u64;
                            if ctx.abort_mid_operator() {
                                return edges;
                            }
                            for (i, w) in words.iter().enumerate() {
                                // ORDERING: Relaxed — the active map is read-only
                                // during the sweep; the previous round's join
                                // barrier published it.
                                let aw = w.load(Ordering::Relaxed);
                                if aw == 0 {
                                    continue;
                                }
                                let v = ci * vgrain + i;
                                let deg = g.out_degree(v as u32);
                                let mut bits = aw;
                                while bits != 0 {
                                    let l = bits.trailing_zeros() as usize;
                                    bits &= bits - 1;
                                    let idx = l * n + v;
                                    // ORDERING: Relaxed — the swap claims this cell's
                                    // mass atomically; concurrent pushes either land
                                    // before (claimed now) or after (next round).
                                    let r = f64::from_bits(
                                        residual[idx].swap(0, Ordering::Relaxed),
                                    );
                                    if r == 0.0 {
                                        continue;
                                    }
                                    if deg == 0 {
                                        // dangling vertex: absorb the whole mass
                                        add_f64(&scores[idx], r);
                                        continue;
                                    }
                                    if r < opts.epsilon * deg as f64 {
                                        // below threshold: retain in place, stay quiet
                                        add_f64(&residual[idx], r);
                                        continue;
                                    }
                                    add_f64(&scores[idx], opts.alpha * r);
                                    let share = (1.0 - opts.alpha) * r / deg as f64;
                                    for e in g.edge_range(v as u32) {
                                        edges += 1;
                                        let u = cols[e] as usize;
                                        add_f64(&residual[l * n + u], share);
                                        next_ref.fetch_or(u, 1u64 << l);
                                    }
                                }
                            }
                            edges
                        })
                        .sum::<u64>()
                });
                let Some(edges) = round else { break };
                ctx.counters.add_edges(edges);
                std::mem::swap(&mut active, &mut next);
                next.clear_all();
                run.end_iteration(false);
            }
            let done = run.finish(|it| {
                Some(msppr_checkpoint(it, sources, opts, &scores, &residual, &active))
            });
            for lm in [active, next] {
                lm.release(ctx.pool());
            }
            done
        }
    };
    MspprResult {
        scores: f64_values(&scores),
        sources: sources.to_vec(),
        num_vertices: n,
        edges_examined: done.edges_examined,
        iterations: done.iterations,
        elapsed: done.elapsed,
        outcome: done.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::generators::{erdos_renyi, rmat};
    use gunrock_graph::{Coo, Csr, GraphBuilder};

    /// Serial single-source ACL push reference.
    fn serial_ppr(g: &Csr, src: u32, alpha: f64, epsilon: f64) -> Vec<f64> {
        let n = g.num_vertices();
        let mut p = vec![0.0; n];
        let mut r = vec![0.0; n];
        r[src as usize] = 1.0;
        let mut queue = vec![src as usize];
        while let Some(v) = queue.pop() {
            let deg = g.out_degree(v as u32);
            let rv = r[v];
            if rv == 0.0 {
                continue;
            }
            if deg == 0 {
                p[v] += rv;
                r[v] = 0.0;
                continue;
            }
            if rv < epsilon * deg as f64 {
                continue;
            }
            r[v] = 0.0;
            p[v] += alpha * rv;
            let share = (1.0 - alpha) * rv / deg as f64;
            for &u in g.neighbors(v as u32) {
                let had = r[u as usize] >= epsilon * g.out_degree(u).max(1) as f64;
                r[u as usize] += share;
                if !had {
                    queue.push(u as usize);
                }
            }
        }
        p
    }

    #[test]
    fn lanes_match_serial_reference_within_threshold_mass() {
        let g = GraphBuilder::new().build(rmat(8, 8, Default::default(), 6));
        let opts = MspprOptions { alpha: 0.2, epsilon: 1e-5 };
        let sources: Vec<u32> = vec![0, 3, 17, 42];
        let ctx = Context::new(&g);
        let r = msppr(&ctx, &sources, opts);
        assert_eq!(r.outcome, RunOutcome::Converged);
        for (l, &s) in sources.iter().enumerate() {
            let want = serial_ppr(&g, s, opts.alpha, opts.epsilon);
            let got = r.lane_scores(l);
            // both satisfy the ACL guarantee: per-vertex deviation is
            // bounded by the un-pushed residual mass, O(epsilon * deg)
            for v in 0..g.num_vertices() {
                let tol = opts.epsilon * g.out_degree(v as u32).max(1) as f64 * 10.0 + 1e-9;
                assert!(
                    (got[v] - want[v]).abs() <= tol,
                    "lane {l} vertex {v}: {} vs {}",
                    got[v],
                    want[v]
                );
            }
        }
    }

    #[test]
    fn score_mass_is_conserved_per_lane() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1200, 9));
        let opts = MspprOptions::default();
        let ctx = Context::new(&g);
        let r = msppr(&ctx, &[0, 7], opts);
        for l in 0..2 {
            let scored: f64 = r.lane_scores(l).iter().sum();
            assert!(scored > 0.0 && scored <= 1.0 + 1e-9, "lane {l} mass {scored}");
        }
    }

    #[test]
    fn dangling_source_absorbs_all_mass() {
        // vertex 2 has no out-edges
        let g = GraphBuilder::new().directed().build(Coo::from_edges(3, &[(0, 1), (1, 2)]));
        let ctx = Context::new(&g);
        let r = msppr(&ctx, &[2], MspprOptions::default());
        assert!((r.lane_scores(0)[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_resume_round_trip() {
        let g = GraphBuilder::new().build(rmat(8, 8, Default::default(), 11));
        let sources: Vec<u32> = (0..8u32).collect();
        let opts = MspprOptions { alpha: 0.3, epsilon: 1e-4 };
        let full = {
            let ctx = Context::new(&g);
            msppr(&ctx, &sources, opts)
        };
        let dir = std::env::temp_dir().join(format!(
            "msppr-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let capped = {
            let ctx = Context::new(&g)
                .with_policy(RunPolicy::unbounded().max_iterations(1))
                .with_checkpoints(CheckpointPolicy::new(1, &dir));
            msppr(&ctx, &sources, opts)
        };
        assert_eq!(capped.outcome, RunOutcome::IterationCapped);
        let ckpt = Checkpoint::load(&dir.join("msppr.ckpt")).unwrap();
        let resumed = {
            let ctx = Context::new(&g);
            msppr_resume(&ctx, &ckpt).unwrap()
        };
        assert_eq!(resumed.outcome, RunOutcome::Converged);
        // push order differs between the two runs, so compare within the
        // ACL deviation bound rather than bit-exactly
        for v in 0..g.num_vertices() {
            let tol = opts.epsilon * g.out_degree(v as u32).max(1) as f64 * 10.0 + 1e-9;
            for l in 0..sources.len() {
                assert!(
                    (resumed.lane_scores(l)[v] - full.lane_scores(l)[v]).abs() <= tol,
                    "lane {l} vertex {v}"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
