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
//! exit checkpoints (`msbfs` snapshots), and structured failure on
//! operator panic.

use crate::primitive::{malformed, run, to_atomic_u32, Primitive};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::{atomic_u32_vec, into_plain_u32, unwrap_atomic_u32};
use gunrock_engine::budget::pooled_bytes;
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
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
}

/// MS-BFS as a [`Primitive`]: the in-flight batch at an iteration
/// boundary, all of which a snapshot captures.
#[derive(Default)]
pub struct Msbfs {
    sources: Vec<VertexId>,
    depths: Vec<AtomicU32>,
    /// The seen and frontier lane words the run starts from, moved into
    /// pooled lane maps at setup.
    words: [Vec<u64>; 2],
    /// The pooled seen, frontier and sweep-output lane maps.
    maps: Option<[LaneMap; 3]>,
    /// Vertices with a frontier lane set.
    active: u64,
    level: u32,
    lanes_live: u64,
}

/// Runs one lane-packed batch of BFS traversals, one source per lane.
/// Accepts 1..=[`LANES`] sources (duplicates allowed: lanes are
/// independent); panics on an empty or oversized batch or an
/// out-of-range source.
pub fn msbfs(ctx: &Context<'_>, sources: &[VertexId]) -> MsbfsResult {
    run::<Msbfs>(ctx, sources, ())
}

impl Primitive for Msbfs {
    const NAME: &'static str = "msbfs";
    const ARITY: Arity = Arity::Lanes;
    // the batched sweep needs no advance workspace
    const ADVANCES: bool = false;
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "msbfs",
        fields: &[
            Field("depths", "u32", Lanes),
            Field("sources", "u32", Sources),
            Field("seen", "u64", PerVertex),
            Field("frontier", "u64", PerVertex),
            Field("scalars", "u32", Slots(&[Plain("level"), Plain("lane_count")])),
            Field("counters", "u64", Slots(&[Plain("lanes_live")])),
        ],
    });
    type Options = ();
    type Result = MsbfsResult;

    // three pooled n-word lane maps (seen + frontier ping-pong) and the
    // 64-lane depth matrix
    fn state_bytes(n: u64, _m: u64) -> u64 {
        3 * pooled_bytes(n, 8) + 64 * n * 4
    }

    fn init(ctx: &Context<'_>, sources: &[VertexId], _opts: ()) -> Self {
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
        let lanes_live = lane_mask(sources.len());
        let words = [words.clone(), words];
        Msbfs { sources: sources.to_vec(), depths, words, lanes_live, ..Default::default() }
    }

    fn load(_ctx: &Context<'_>, snap: &Snapshot<'_>, _opts: ()) -> Result<Self, GunrockError> {
        let sources = snap.section("sources")?.to_vec();
        let lane_count: u32 = snap.slot("lane_count")?;
        if lane_count as usize != sources.len() {
            return Err(malformed(format!(
                "scalar lane count {lane_count} disagrees with {} sources",
                sources.len()
            )));
        }
        Ok(Msbfs {
            sources,
            depths: to_atomic_u32(snap.section("depths")?),
            words: [snap.section("seen")?.to_vec(), snap.section("frontier")?.to_vec()],
            level: snap.slot("level")?,
            lanes_live: snap.slot("lanes_live")?,
            ..Default::default()
        })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        let (seen, frontier) = match &self.maps {
            Some([seen, frontier, _]) => (seen.snapshot_words(), frontier.snapshot_words()),
            None => Default::default(),
        };
        let lane_count = self.sources.len() as u32;
        snapshot
            .section("depths", unwrap_atomic_u32(&self.depths))
            .section("sources", self.sources.clone())
            .section("seen", seen)
            .section("frontier", frontier)
            .slots("scalars", &[("level", self.level), ("lane_count", lane_count)])
            .slots("counters", &[("lanes_live", self.lanes_live)])
    }

    fn sources(&self) -> Vec<VertexId> {
        self.sources.clone()
    }

    fn setup(&mut self, ctx: &Context<'_>) {
        let n = ctx.num_vertices();
        let [seen_words, frontier_words] = std::mem::take(&mut self.words);
        let mut seen = LaneMap::take(ctx.pool(), n);
        seen.restore_words(&seen_words);
        let mut frontier = LaneMap::take(ctx.pool(), n);
        frontier.restore_words(&frontier_words);
        self.active = frontier.count_active() as u64;
        self.maps = Some([seen, frontier, LaneMap::take(ctx.pool(), n)]);
    }

    fn live(&self, _iterations: u32) -> bool {
        self.active > 0
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, _mode: AdvanceMode) {
        let n = ctx.num_vertices();
        // checked out at setup, which precedes every step
        let Some([seen, frontier, next]) = &mut self.maps else { return };
        self.level += 1;
        let (depths, depth_level) = (&self.depths, self.level);
        let sweep = advance::msbfs::advance_msbfs(
            ctx,
            frontier,
            seen,
            next,
            self.active,
            self.lanes_live,
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
        self.active = sweep.discovered;
        self.lanes_live = sweep.lanes;
        // ping-pong: the sweep left `next` holding exactly the new
        // frontier; the retired frontier becomes the next scratch map
        std::mem::swap(frontier, next);
        next.clear_all();
        run.end_iteration(false);
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> MsbfsResult {
        for map in self.maps.into_iter().flatten() {
            map.release(ctx.pool());
        }
        MsbfsResult {
            // in place: a second lanes x n buffer per batch is the largest
            // allocation of the call
            depths: into_plain_u32(self.depths),
            sources: self.sources,
            num_vertices: ctx.num_vertices(),
            edges_examined: done.edges_examined,
            iterations: done.iterations,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: MsbfsResult) -> Output {
        Output::Depths(result.depths)
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
            // without a reverse graph every level pushes
            let c = Context::new(&g);
            sequential += bfs(&c, s, BfsOptions::default()).edges_examined;
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
            crate::resume::<Msbfs>(&ctx, (), &ckpt).unwrap()
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
        assert_eq!(r.sources, vec![0, 1, 2, 3]);
        // one batch's wall time covers every lane's traversal
        assert!(r.lanes() as f64 / r.elapsed.as_secs_f64() > 0.0);
    }
}
