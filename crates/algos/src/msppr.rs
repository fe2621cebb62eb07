//! Multi-source personalized PageRank via batched sparse push.
//!
//! The Andersen–Chung–Lang push scheme, lane-packed like [`msbfs`]: up
//! to [`LANES`] personalization sources run in one loop, a [`LaneMap`]
//! marks which lanes have pushable residual at each vertex, and one walk
//! of its occupancy bitmap per level processes every (vertex, lane) pair
//! whose residual crossed the threshold — the same occupied-vertex walk
//! and fetch_or marking discipline as the batched BFS advance, with
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

use crate::primitive::{bitmap, malformed, run, Primitive};
use crate::registry::{Arity, Output, Query};
use gunrock::prelude::*;
use gunrock_engine::budget::pooled_bytes;
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
use gunrock_engine::lanes::Walk;
use gunrock_engine::par;
use gunrock_graph::VertexId;
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

/// Batched PPR as a [`Primitive`]: the in-flight batch at an iteration
/// boundary, all of which a snapshot captures.
pub struct Msppr {
    sources: Vec<VertexId>,
    opts: MspprOptions,
    scores: Vec<AtomicU64>,
    residual: Vec<AtomicU64>,
    /// The active lane words the run starts from, moved into a pooled
    /// lane map at setup.
    active_words: Vec<u64>,
    /// The active lane map and the next round's, from the pool.
    maps: Option<(LaneMap, LaneMap)>,
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
    run::<Msppr>(ctx, sources, opts)
}

impl Primitive for Msppr {
    const NAME: &'static str = "msppr";
    const ARITY: Arity = Arity::Lanes;
    // the push rounds sweep lane words: no advance workspace
    const ADVANCES: bool = false;
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "msppr",
        fields: &[
            Field("scores", "f64", Lanes),
            Field("residual", "f64", Lanes),
            Field("active", "u64", PerVertex),
            Field("sources", "u32", Sources),
            Field("scalars", "u32", Slots(&[Plain("lane_count")])),
            Field("params", "f64", Slots(&[Plain("alpha"), Plain("epsilon")])),
        ],
    });
    type Options = MspprOptions;
    type Result = MspprResult;

    fn options(query: &Query) -> MspprOptions {
        let epsilon = query.epsilon.unwrap_or(MspprOptions::default().epsilon);
        MspprOptions { epsilon, ..Default::default() }
    }

    // the active / next lane-map pair with their occupancy bitmaps and
    // the 64-lane score and residual matrices
    fn state_bytes(n: u64, _m: u64) -> u64 {
        2 * (pooled_bytes(n, 8) + bitmap(n)) + 2 * 64 * n * 8
    }

    fn init(ctx: &Context<'_>, sources: &[VertexId], opts: MspprOptions) -> Self {
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
        Msppr { sources: sources.to_vec(), opts, scores, residual, active_words, maps: None }
    }

    /// The snapshot's teleport and threshold override `opts`.
    fn load(
        _ctx: &Context<'_>,
        snap: &Snapshot<'_>,
        _opts: MspprOptions,
    ) -> Result<Self, GunrockError> {
        let sources = snap.section("sources")?.to_vec();
        if snap.slot::<u32>("lane_count")? as usize != sources.len() {
            return Err(malformed("scalar lane count disagrees with sources"));
        }
        Ok(Msppr {
            sources,
            opts: MspprOptions { alpha: snap.slot("alpha")?, epsilon: snap.slot("epsilon")? },
            scores: f64_cells(snap.section("scores")?),
            residual: f64_cells(snap.section("residual")?),
            active_words: snap.section("active")?.to_vec(),
            maps: None,
        })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        let active = self.maps.as_ref().map_or_else(Vec::new, |(a, _)| a.snapshot_words());
        snapshot
            .section("scores", f64_values(&self.scores))
            .section("residual", f64_values(&self.residual))
            .section("active", active)
            .section("sources", self.sources.clone())
            .slots("scalars", &[("lane_count", self.sources.len() as u32)])
            .slots("params", &[("alpha", self.opts.alpha), ("epsilon", self.opts.epsilon)])
    }

    fn sources(&self) -> Vec<VertexId> {
        self.sources.clone()
    }

    fn setup(&mut self, ctx: &Context<'_>, _mode: AdvanceMode) {
        let n = ctx.num_vertices();
        let mut active = LaneMap::take(ctx.pool(), n);
        active.restore_words(&std::mem::take(&mut self.active_words));
        self.maps = Some((active, LaneMap::take(ctx.pool(), n)));
    }

    fn live(&self, _iterations: u32) -> bool {
        self.maps.as_ref().is_some_and(|(active, _)| active.count_active() > 0)
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, _mode: AdvanceMode) {
        let n = ctx.num_vertices();
        let g = ctx.graph;
        let cols = g.col_indices();
        // checked out at setup, which precedes every step
        let Some((active, next)) = &mut self.maps else { return };
        let (opts, scores, residual) = (self.opts, &self.scores, &self.residual);
        // One push round, launched like the batched advance it mirrors:
        // a walk of the active map's occupied vertices, per-lane bit
        // iteration, fetch_or lane marking on pushed neighbors.
        let round = || {
            let next: &LaneMap = next;
            let push = |walk: Walk<'_>| {
                let mut edges = 0u64;
                if ctx.abort_mid_operator() {
                    return edges;
                }
                for (v, aw) in walk {
                    // CAST: v < num_vertices < u32::MAX by Csr::validate.
                    let deg = g.out_degree(v as u32);
                    let mut bits = aw;
                    while bits != 0 {
                        let l = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let idx = l * n + v;
                        // ORDERING: Relaxed — the swap claims this cell's
                        // mass atomically; concurrent pushes either land
                        // before (claimed now) or after (next round).
                        let r = f64::from_bits(residual[idx].swap(0, Ordering::Relaxed));
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
                            next.fetch_or(u, 1u64 << l);
                        }
                    }
                }
                edges
            };
            // on one thread: a claim races the adds into the cell it
            // swaps, so on more the round's result would follow the
            // schedule, and a batch's scores would differ run to run
            par::with_threads(1, || {
                par::map_reduce(active.par_walk(grain_size(n)), 0, push, |a, b| a + b)
            })
        };
        // a panicking round poisoned the run: the next boundary ends it
        if !advance_lanes(ctx, "msppr", "advance:msppr", active, next, round) {
            return;
        }
        std::mem::swap(active, next);
        next.clear_all();
        run.end_iteration(false);
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> MspprResult {
        if let Some((active, next)) = self.maps {
            active.release(ctx.pool());
            next.release(ctx.pool());
        }
        MspprResult {
            scores: f64_values(&self.scores),
            sources: self.sources,
            num_vertices: ctx.num_vertices(),
            edges_examined: done.edges_examined,
            iterations: done.iterations,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: MspprResult) -> Output {
        Output::Scores(result.scores)
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
    fn roadnet_run_balances_the_pool_within_its_estimate() {
        let g = GraphBuilder::new()
            .build(gunrock_graph::generators::from_spec("roadnet", 10, 3).unwrap());
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        let estimate = (crate::registry::find("msppr").unwrap().estimate_bytes)(n, m);
        let ctx = Context::new(&g);
        let sources: Vec<u32> = (0..64u32).map(|l| l * 13 % n as u32).collect();
        let r = msppr(&ctx, &sources, MspprOptions::default());
        assert_eq!(r.outcome, RunOutcome::Converged);
        let pool = ctx.pool().stats();
        assert_eq!(pool.releases, pool.checkouts);
        assert_eq!(pool.live, 0);
        assert!(pool.bytes_high_water <= estimate, "{} > {estimate}", pool.bytes_high_water);
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
            crate::resume::<Msppr>(&ctx, Default::default(), &ckpt).unwrap()
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
