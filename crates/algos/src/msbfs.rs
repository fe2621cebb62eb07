//! Bit-parallel multi-source BFS (MS-BFS; PAPERS.md).
//!
//! Runs up to [`LANES`] independent BFS traversals in one enact loop:
//! each source owns a lane bit, the frontier/seen state is one `u64`
//! lane word per vertex, and every level is a single
//! [`advance_msbfs`] sweep — 64 traversals' worth of discovery per
//! word-sweep. Per-lane depths are extracted *at discovery time* by the
//! sweep's visitor (lane `l` of a new-lane word at vertex `v` means
//! lane `l`'s traversal reached `v` this level), so lane retirement
//! costs nothing extra: a lane whose bit drops out of the live-lane
//! union simply stops contributing words.
//!
//! The loop honors the same run-policy machinery as the single-source
//! primitives: guard checks at every iteration boundary, periodic and
//! exit checkpoints (`msbfs` snapshots carry the lane words and the
//! lane-major depth array), and structured failure on operator panic.

use crate::recover::{
    check_failed, expect_len, expect_vertex_ids, malformed, scalar, to_atomic_u32,
};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32, unwrap_atomic_u32};
use gunrock_graph::{VertexId, INFINITY};
use std::sync::atomic::{AtomicU32, Ordering};

/// Multi-source BFS output: a lane-major depth matrix plus traversal
/// stats shared by the whole batch.
#[derive(Clone, Debug)]
pub struct MsbfsResult {
    /// Lane-major depths: `depths[l * num_vertices + v]` is lane `l`'s
    /// BFS depth of `v` from `sources[l]` (`INFINITY` = unreachable).
    pub depths: Vec<u32>,
    /// The batch's sources, one per lane, in lane order.
    pub sources: Vec<VertexId>,
    /// Vertex count of the graph the batch ran on (the lane stride).
    pub num_vertices: usize,
    /// Edges examined across the whole batch (each scanned edge counted
    /// once, however many lanes it served).
    pub edges_examined: u64,
    /// Bulk-synchronous iterations (levels) executed.
    pub iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the loop ended. Partial outcomes leave every completed
    /// level's depths consistent and deeper levels `INFINITY`.
    pub outcome: RunOutcome,
}

impl MsbfsResult {
    /// Number of lanes (sources) in the batch.
    pub fn lanes(&self) -> usize {
        self.sources.len()
    }

    /// Lane `l`'s depth array — directly comparable to a single-source
    /// `bfs` run's `labels` from `sources[l]`.
    pub fn lane_depths(&self, lane: usize) -> &[u32] {
        &self.depths[lane * self.num_vertices..(lane + 1) * self.num_vertices]
    }

    /// Aggregate source throughput: completed traversals per second of
    /// batch wall time — the figure the batching win is measured in.
    pub fn sources_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.sources.len() as f64 / secs
        }
    }
}

/// In-flight batch state at an iteration boundary — exactly what a
/// checkpoint captures.
struct MsbfsLoop {
    depths: Vec<AtomicU32>,
    seen_words: Vec<u64>,
    frontier_words: Vec<u64>,
    level: u32,
    lanes_live: u64,
}

/// Runs one lane-packed batch of BFS traversals, one source per lane.
/// Accepts 1..=[`LANES`] sources (duplicates allowed: lanes are
/// independent); panics on an empty or oversized batch or an
/// out-of-range source.
pub fn msbfs(ctx: &Context<'_>, sources: &[VertexId]) -> MsbfsResult {
    let n = ctx.num_vertices();
    assert!(
        !sources.is_empty() && sources.len() <= LANES,
        "msbfs batch must hold 1..={LANES} sources, got {}",
        sources.len()
    );
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
    }
    let depths = atomic_u32_vec(n * sources.len(), INFINITY);
    let mut words = vec![0u64; n];
    for (l, &s) in sources.iter().enumerate() {
        words[s as usize] |= 1u64 << l;
        // ORDERING: Relaxed — seeding happens before the loop spawns any
        // parallel work; the first sweep's fork is the publication point.
        depths[l * n + s as usize].store(0, Ordering::Relaxed);
    }
    let st = MsbfsLoop {
        depths,
        seen_words: words.clone(),
        frontier_words: words,
        level: 0,
        lanes_live: lane_mask(sources.len()),
    };
    msbfs_run(ctx, sources, st, 0)
}

/// [`msbfs`] with `Result` semantics: `Err` carries the structured
/// failure when an operator panicked or admission rejected the batch.
pub fn try_msbfs(ctx: &Context<'_>, sources: &[VertexId]) -> Result<MsbfsResult, GunrockError> {
    let r = msbfs(ctx, sources);
    check_failed(ctx, r.outcome, r)
}

/// Resumes a batch from a `gunrock-ckpt/v1` snapshot written by
/// [`msbfs`]'s checkpoint boundary.
pub fn msbfs_resume(ctx: &Context<'_>, ckpt: &Checkpoint) -> Result<MsbfsResult, GunrockError> {
    ckpt.expect_primitive("msbfs")?;
    let n = ctx.num_vertices();
    let sources = ckpt.u32s("sources")?;
    expect_vertex_ids(sources, n, "sources")?;
    if sources.is_empty() || sources.len() > LANES {
        return Err(malformed(format!("msbfs checkpoint holds {} lanes", sources.len())));
    }
    let depths = ckpt.u32s("depths")?;
    if depths.len() != n * sources.len() {
        return Err(malformed(format!(
            "depths section has {} entries, expected {} lanes x {} vertices",
            depths.len(),
            sources.len(),
            n
        )));
    }
    let seen = ckpt.u64s("seen")?;
    expect_len(seen.len(), n, "seen")?;
    let frontier = ckpt.u64s("frontier")?;
    expect_len(frontier.len(), n, "frontier")?;
    let scalars = ckpt.u32s("scalars")?;
    let level = scalar(scalars, 0, "level")?;
    let lane_count = scalar(scalars, 1, "lane_count")? as usize;
    if lane_count != sources.len() {
        return Err(malformed(format!(
            "scalar lane count {lane_count} disagrees with {} sources",
            sources.len()
        )));
    }
    let counters = ckpt.u64s("counters")?;
    let lanes_live = counters.first().copied().unwrap_or_else(|| lane_mask(sources.len()));
    let sources = sources.to_vec();
    let st = MsbfsLoop {
        depths: to_atomic_u32(depths),
        seen_words: seen.to_vec(),
        frontier_words: frontier.to_vec(),
        level,
        lanes_live,
    };
    let r = msbfs_run(ctx, &sources, st, ckpt.iteration());
    check_failed(ctx, r.outcome, r)
}

/// Builds an iteration-boundary snapshot. Sections: lane-major `depths`,
/// per-lane `sources`, the per-vertex `seen`/`frontier` lane words,
/// packed scalars `[level, lane_count]`, and the 64-bit live-lane union.
fn msbfs_checkpoint(
    iteration: u32,
    sources: &[VertexId],
    depths: &[AtomicU32],
    seen: &LaneMap,
    frontier: &LaneMap,
    level: u32,
    lanes_live: u64,
) -> Checkpoint {
    let mut ckpt = Checkpoint::new("msbfs", iteration);
    ckpt.push_u32("depths", unwrap_atomic_u32(depths));
    ckpt.push_u32("sources", sources.to_vec());
    ckpt.push_u64("seen", seen.snapshot_words());
    ckpt.push_u64("frontier", frontier.snapshot_words());
    ckpt.push_u32("scalars", vec![level, sources.len() as u32]);
    ckpt.push_u64("counters", vec![lanes_live]);
    ckpt
}

/// The enact loop proper, starting from an arbitrary iteration-boundary
/// state (fresh from [`msbfs`] or restored by [`msbfs_resume`]) that has
/// already completed `done` iterations.
fn msbfs_run(ctx: &Context<'_>, sources: &[VertexId], st: MsbfsLoop, done: u32) -> MsbfsResult {
    let n = ctx.num_vertices();
    let mut run = Enactment::arm(ctx, done);
    // Budget admission: the lane maps and depth matrix are priced as a
    // unit before the first checkout, so an impossible batch fails with
    // a structured BudgetExceeded instead of a mid-run denial.
    crate::admission::admit(ctx, "msbfs", AdvanceMode::Auto);
    let MsbfsLoop { depths, seen_words, frontier_words, mut level, mut lanes_live } = st;
    // The three lane maps are pool checkouts between operators: take
    // them isolated so a denied checkout fails the run structurally, and
    // not at all for a batch admission already failed.
    let maps = if ctx.is_poisoned() {
        None
    } else {
        ctx.isolated_setup("setup", || {
            let mut seen = LaneMap::take(ctx.pool(), n);
            seen.restore_words(&seen_words);
            let mut frontier = LaneMap::take(ctx.pool(), n);
            frontier.restore_words(&frontier_words);
            (seen, frontier, LaneMap::take(ctx.pool(), n))
        })
    };
    let done = match maps {
        // the context is poisoned: the run ends `Failed` with nothing to snapshot
        None => run.finish(no_snapshot),
        Some((mut seen, mut frontier, mut next)) => {
            let mut active = frontier.count_active() as u64;
            while active > 0 {
                let snapshot = |it| {
                    Some(msbfs_checkpoint(
                        it, sources, &depths, &seen, &frontier, level, lanes_live,
                    ))
                };
                if run.boundary(snapshot) {
                    break;
                }
                level += 1;
                let depth_level = level;
                let sweep = advance::msbfs::advance_msbfs(
                    ctx,
                    &frontier,
                    &mut seen,
                    &mut next,
                    active,
                    lanes_live,
                    |v, new_lanes| {
                        let mut bits = new_lanes;
                        while bits != 0 {
                            let l = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            // ORDERING: Relaxed — slot (l, v) is written by exactly one
                            // visitor call per run (each vertex discovers each lane
                            // once); the sweep's join barrier publishes the level.
                            depths[l * n + v as usize].store(depth_level, Ordering::Relaxed);
                        }
                    },
                );
                active = sweep.discovered;
                lanes_live = sweep.lanes;
                // ping-pong: the sweep left `next` holding exactly the new
                // frontier; the retired frontier becomes the next scratch map
                std::mem::swap(&mut frontier, &mut next);
                next.clear_all();
                run.end_iteration(false);
            }
            let done = run.finish(|it| {
                Some(msbfs_checkpoint(
                    it, sources, &depths, &seen, &frontier, level, lanes_live,
                ))
            });
            for lm in [seen, frontier, next] {
                lm.release(ctx.pool());
            }
            done
        }
    };
    MsbfsResult {
        // in place: a second lanes x n buffer per batch is the largest
        // allocation of the call
        depths: into_plain_u32(depths),
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
    use crate::bfs::{bfs, BfsOptions};
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, rmat};
    use gunrock_graph::GraphBuilder;

    #[test]
    fn batch_matches_independent_runs() {
        let g = GraphBuilder::new().build(rmat(9, 8, Default::default(), 2));
        let sources: Vec<u32> = (0..64).map(|i| (i * 7) % g.num_vertices() as u32).collect();
        let ctx = Context::new(&g);
        let r = msbfs(&ctx, &sources);
        assert_eq!(r.outcome, RunOutcome::Converged);
        for (l, &s) in sources.iter().enumerate() {
            assert_eq!(r.lane_depths(l), serial::bfs(&g, s).as_slice(), "lane {l} source {s}");
        }
    }

    #[test]
    fn partial_batches_fill_only_their_lanes() {
        let g = GraphBuilder::new().build(erdos_renyi(200, 800, 5));
        for lanes in [1usize, 7, 63] {
            let sources: Vec<u32> = (0..lanes as u32).collect();
            let ctx = Context::new(&g);
            let r = msbfs(&ctx, &sources);
            assert_eq!(r.lanes(), lanes);
            for (l, &s) in sources.iter().enumerate() {
                assert_eq!(r.lane_depths(l), serial::bfs(&g, s).as_slice(), "{lanes} lanes");
            }
        }
    }

    #[test]
    fn batch_examines_a_fraction_of_sequential_edges() {
        let g = GraphBuilder::new().build(rmat(10, 16, Default::default(), 3));
        let sources: Vec<u32> = (0..64u32).collect();
        let ctx = Context::new(&g);
        let batch = msbfs(&ctx, &sources);
        let mut sequential = 0u64;
        for &s in &sources {
            let c = Context::new(&g);
            sequential += bfs(&c, s, BfsOptions::atomic()).edges_examined;
        }
        assert!(
            batch.edges_examined * 4 < sequential,
            "lane packing must amortize edge scans: batch {} vs sequential {}",
            batch.edges_examined,
            sequential
        );
    }

    #[test]
    fn checkpoint_resume_round_trip() {
        let g = GraphBuilder::new().build(rmat(9, 8, Default::default(), 4));
        let sources: Vec<u32> = (0..16u32).collect();
        let full = {
            let ctx = Context::new(&g);
            msbfs(&ctx, &sources)
        };
        let dir = tempdir();
        let capped = {
            let ctx = Context::new(&g)
                .with_policy(RunPolicy::unbounded().max_iterations(2))
                .with_checkpoints(CheckpointPolicy::new(1, &dir));
            msbfs(&ctx, &sources)
        };
        assert_eq!(capped.outcome, RunOutcome::IterationCapped);
        let ckpt = Checkpoint::load(&dir.join("msbfs.ckpt")).unwrap();
        let resumed = {
            let ctx = Context::new(&g);
            msbfs_resume(&ctx, &ckpt).unwrap()
        };
        assert_eq!(resumed.outcome, RunOutcome::Converged);
        assert_eq!(resumed.depths, full.depths);
        assert_eq!(resumed.sources, full.sources);
        std::fs::remove_dir_all(dir).ok();
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "msbfs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn iteration_cap_leaves_partial_depths() {
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(20, &edges));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(1));
        let r = msbfs(&ctx, &[0, 5]);
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.iterations, 1);
        assert_eq!(r.lane_depths(0)[1], 1);
        assert_eq!(r.lane_depths(0)[2], INFINITY, "level 2 never ran");
        assert_eq!(r.lane_depths(1)[6], 1);
    }

    #[test]
    fn sources_per_second_scales_with_lanes() {
        let g = GraphBuilder::new().build(erdos_renyi(100, 400, 8));
        let ctx = Context::new(&g);
        let r = msbfs(&ctx, &[0, 1, 2, 3]);
        assert_eq!(r.lanes(), 4);
        assert!(r.sources_per_second() > 0.0);
    }
}
