//! PageRank (§5.5).
//!
//! "In Gunrock, we begin with a frontier that contains all vertices in
//! the graph and end when all vertices have converged. Each iteration
//! contains one advance operator to compute the PageRank value on the
//! frontier of vertices, and one filter operator to remove the vertices
//! whose PageRanks have already converged. We accumulate PageRank values
//! with AtomicAdd operations."
//!
//! Realized as residual PageRank: every frontier vertex hands
//! `d * residual / degree` to its neighbors; a vertex re-enters the
//! frontier while its pending residual exceeds the tolerance in
//! magnitude. The fixed point is the standard PageRank vector (teleport
//! `(1-d)/n`), so results are directly comparable to power iteration.
//!
//! A fresh run starts where power iteration does, from the uniform
//! vector: a seed pass (`pagerank:seed`) gives every vertex score `1/n`
//! and, as its residual, how far one power step would move it. Those
//! residuals are signed and sum to zero, so they cancel out in a few
//! rounds instead of draining by `d` per round from a zero start.
//!
//! The hand-over runs in one of two directions, chosen per iteration from
//! the frontier's out-edge volume ([`GatherSwitch`]): while most edges
//! are live and the context has a reverse graph, a dense
//! [`advance_gather`] pulls the shares over in-edges with plain stores
//! (the §7 gather-reduce) and emits the next frontier in the same sweep;
//! once the frontier is sparse — or without a reverse graph — it is the
//! paper's push advance with atomic adds followed by a compaction. The
//! adds are integer adds on a fixed-point accumulator, so a push round
//! sums to the same bits whatever order the threads add in.

use crate::primitive::{frontiers, run, Primitive};
use crate::registry::{Arity, Output, Query};
use gunrock::prelude::*;
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
use gunrock_engine::compact::compact_indices_into;
use gunrock_engine::par;
use gunrock_graph::{EdgeId, VertexId};
use std::ops::ControlFlow::Continue;
use std::sync::atomic::{AtomicI64, Ordering};

/// Fixed-point units per unit of mass in the push accumulator (2^58).
/// Integer adds commute, so the sum does not depend on the schedule. A
/// round moves at most the residuals' L1 mass (about 2 from the uniform
/// start), far inside the ±32 the scale leaves, and one unit (3.5e-18)
/// is far below any epsilon.
const PUSH_SCALE: f64 = (1u64 << 58) as f64;

/// PageRank configuration.
#[derive(Clone, Copy, Debug)]
pub struct PrOptions {
    /// Damping factor (`d` in the PageRank equation).
    pub damping: f64,
    /// Convergence tolerance: per-vertex pending residual mass — a vertex
    /// whose residual is at most this in magnitude leaves the frontier.
    pub epsilon: f64,
    /// Hard iteration cap (`1` reproduces the paper's one-iteration
    /// Ligra comparison).
    pub max_iters: usize,
    /// Workload mapping for the push advance.
    pub mode: AdvanceMode,
}

impl Default for PrOptions {
    fn default() -> Self {
        PrOptions { damping: 0.85, epsilon: 1e-9, max_iters: 1000, mode: AdvanceMode::Auto }
    }
}

/// PageRank output.
#[derive(Clone, Debug)]
pub struct PrResult {
    /// Converged scores (sum to ~1; dangling mass teleports uniformly).
    pub scores: Vec<f64>,
    /// Bulk-synchronous iterations executed.
    pub iterations: u32,
    /// Edges visited over the run: all `m` in a fresh run's seed pass, the
    /// frontier's out-edges in a push iteration and all `m` in-edges in
    /// a gather iteration.
    pub edges_examined: u64,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the enact loop ended. A partial outcome still carries a
    /// usable score vector: residual mass not yet propagated is folded
    /// back in, so scores always sum to ~1 — they are simply further
    /// from the fixed point. (A cancel or deadline landing inside a
    /// gather sweep cuts that one hand-over short; the shares it did not
    /// deliver are missing from a `Cancelled` / `TimedOut` result.) The
    /// algorithm's own `max_iters` knob counts as convergence; only the
    /// context's [`RunPolicy`] produces partial outcomes.
    pub outcome: RunOutcome,
}

/// Residual-push functor: scatter the source's frozen share to the
/// destination's accumulator (the paper's AtomicAdd accumulation), in
/// [`PUSH_SCALE`] units.
struct PushShare<'a> {
    share: &'a [f64],
    acc: &'a [AtomicI64],
}

impl AdvanceFunctor for PushShare<'_> {
    #[inline]
    fn cond_edge<A: Access>(&self, _: A, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        // ORDERING: Relaxed — a commutative sum read only after the
        // advance's launch has returned.
        self.acc[dst as usize]
            .fetch_add((self.share[src as usize] * PUSH_SCALE) as i64, Ordering::Relaxed);
        false // effect-only
    }
}

/// PageRank as a [`Primitive`]: the in-flight state at an iteration
/// boundary, which keeps `scores + (I - dP^T)^-1 residual` at the fixed
/// point. A snapshot takes the scores, residuals and frontier *before*
/// the final sub-threshold residual fold, so a resumed run absorbs
/// exactly the residual an uninterrupted one would have — `f64` sections
/// round-trip bit-exactly, making resume bit-identical.
pub struct PageRank {
    scores: Vec<f64>,
    residual: Vec<f64>,
    frontier: Frontier,
    opts: PrOptions,
    /// The frontier's ping-pong partner. Both stay out of the pool on
    /// purpose: PageRank must survive a pool that denies every checkout
    /// (chaos `pool-alloc`).
    spare: Frontier,
    /// `share[u] = d * residual[u] / deg(u)` for frontier vertices, zero
    /// elsewhere: what one out-edge of `u` carries this iteration.
    share: Vec<f64>,
    /// The push accumulator, built at the first push iteration (zeroed as
    /// it is drained); a run that only ever gathers never pays for it.
    acc: Vec<AtomicI64>,
    switch: GatherSwitch,
    /// Whether the seed pass has run; a loaded snapshot is past it.
    seeded: bool,
}

impl PageRank {
    fn new(opts: PrOptions, scores: Vec<f64>, residual: Vec<f64>, frontier: Frontier) -> Self {
        let share = vec![0.0; scores.len()];
        let (spare, acc, switch) = (Frontier::new(), Vec::new(), GatherSwitch::default());
        PageRank { scores, residual, frontier, opts, spare, share, acc, switch, seeded: true }
    }

    /// One hand-over: absorbs the frontier's residuals into the scores,
    /// hands each absorbed residual's damped mass to the vertex's
    /// out-neighbors (a dangling vertex's teleports uniformly), and admits
    /// every vertex whose residual is then above epsilon in magnitude to
    /// the next frontier. With `run` it is that iteration's round; without
    /// it is the seed pass, whose residuals also take the teleport term
    /// less the uniform scores' `1/n`.
    fn round(
        &mut self,
        ctx: &Context<'_>,
        run: Option<&mut Enactment<'_, '_>>,
        mode: AdvanceMode,
    ) {
        let g = ctx.graph;
        let n = g.num_vertices();
        let opts = self.opts;
        // absorb frontier residuals into the scores and freeze each
        // vertex's per-edge share (compute step); a dangling (out-degree
        // 0) vertex has no edge to carry its damped mass, so it teleports
        // uniformly, matching the power-iteration fixed point
        let mut dangling = 0.0f64;
        let mut frontier_edges = 0u64;
        for &v in self.frontier.as_slice() {
            let r = std::mem::take(&mut self.residual[v as usize]);
            self.scores[v as usize] += r;
            let deg = g.out_degree(v);
            if deg == 0 {
                dangling += opts.damping * r;
            } else {
                self.share[v as usize] = opts.damping * r / deg as f64;
                frontier_edges += u64::from(deg);
            }
        }
        let mut teleport = dangling / n as f64;
        let gather = self.switch.choose(ctx, frontier_edges);
        let name = match run {
            Some(run) => {
                run.end_iteration(gather);
                None
            }
            None => {
                // one power step from the uniform vector adds `(1-d)/n`
                // to what the shares and the dangling mass carry; less
                // the `1/n` every vertex already holds, that is `-d/n`
                teleport -= opts.damping / n as f64;
                Some("pagerank:seed")
            }
        };
        let eps = opts.epsilon;
        let (share, next) = (&self.share, self.spare.as_mut_vec());
        if gather {
            // gather: every vertex sums its in-neighbors' shares, folds
            // the teleport term and re-enters the frontier in one sweep
            next.clear();
            let spec = GatherSpec::range(0..n as VertexId);
            let spec = match name {
                Some(name) => spec.named(name),
                None => spec,
            };
            advance_gather(
                ctx,
                spec,
                &mut self.residual,
                Some(next),
                |_| true,
                0.0,
                |u, _v, _e| share[u as usize],
                |a, b| Continue(a + b),
                |_v, received, r| {
                    *r += received + teleport;
                    r.abs() > eps
                },
            );
        } else {
            // push: advance for effect with atomic accumulation, then
            // filter: vertices with enough pending residual re-enter
            if self.acc.is_empty() {
                self.acc = (0..n).map(|_| AtomicI64::new(0)).collect();
            }
            let functor = PushShare { share, acc: &self.acc };
            let spec = AdvanceSpec::for_effect().with_mode(mode);
            let _ = advance::advance(ctx, &self.frontier, spec, &functor);
            let (residual, acc) = (&mut self.residual, &self.acc);
            let merge = || {
                let grain = grain_size(n);
                par::for_each(
                    residual.chunks_mut(grain).zip(acc.chunks(grain)),
                    |(rs, accs)| {
                        for (r, a) in rs.iter_mut().zip(accs) {
                            // ORDERING: Relaxed — the push advance's launch
                            // returned before this one started.
                            *r += a.load(Ordering::Relaxed) as f64 / PUSH_SCALE + teleport;
                            a.store(0, Ordering::Relaxed);
                        }
                    },
                );
                compact_indices_into(residual, |&r| r.abs() > eps, next);
            };
            // a failed merge poisoned the run: the next boundary ends it
            compute::step(ctx, name.unwrap_or("pagerank:merge"), n, merge);
        }
        for &v in self.frontier.as_slice() {
            self.share[v as usize] = 0.0;
        }
        std::mem::swap(&mut self.frontier, &mut self.spare);
    }
}

/// Runs PageRank over the whole graph.
pub fn pagerank(ctx: &Context<'_>, opts: PrOptions) -> PrResult {
    run::<PageRank>(ctx, &[], opts)
}

impl Primitive for PageRank {
    const NAME: &'static str = "pagerank";
    const ARITY: Arity = Arity::None;
    const ADVANCES: bool = true;
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "pagerank",
        fields: &[
            Field("scores", "f64", PerVertex),
            Field("residual", "f64", PerVertex),
            Field("frontier", "u32", VertexIds),
            Field("params", "f64", Slots(&[Plain("damping"), Plain("epsilon")])),
        ],
    });
    type Options = PrOptions;
    type Result = PrResult;

    fn options(query: &Query) -> PrOptions {
        let epsilon = query.epsilon.unwrap_or(PrOptions::default().epsilon);
        PrOptions { epsilon, ..Default::default() }
    }

    fn mode(opts: &PrOptions) -> AdvanceMode {
        opts.mode
    }

    // scores, residual, the per-edge shares the gather reads and the push
    // accumulator, and the frontier pair
    fn state_bytes(n: u64, _m: u64) -> u64 {
        4 * n * 8 + frontiers(n)
    }

    /// The uniform vector, pending as every vertex's residual until
    /// setup's seed pass absorbs it.
    fn init(ctx: &Context<'_>, _sources: &[VertexId], opts: PrOptions) -> Self {
        let n = ctx.num_vertices();
        let uniform = vec![1.0 / n as f64; n];
        PageRank {
            seeded: false,
            ..PageRank::new(opts, vec![0.0; n], uniform, Frontier::full(n))
        }
    }

    /// The snapshot's damping and epsilon override `opts` (changing them
    /// mid-run would converge to a different fixed point); `max_iters`
    /// and the advance mode still come from `opts`.
    fn load(
        _ctx: &Context<'_>,
        snap: &Snapshot<'_>,
        opts: PrOptions,
    ) -> Result<Self, GunrockError> {
        let opts = PrOptions {
            damping: snap.slot("damping")?,
            epsilon: snap.slot("epsilon")?,
            ..opts
        };
        let (scores, residual) = (snap.section("scores")?, snap.section("residual")?);
        let frontier = Frontier::from_vec(snap.section("frontier")?.to_vec());
        Ok(PageRank::new(opts, scores.to_vec(), residual.to_vec(), frontier))
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        snapshot
            .section("scores", self.scores.clone())
            .section("residual", self.residual.clone())
            .section("frontier", self.frontier.as_slice().to_vec())
            .slots("params", &[("damping", self.opts.damping), ("epsilon", self.opts.epsilon)])
    }

    /// The seed pass of a fresh run: one round over every vertex.
    fn setup(&mut self, ctx: &Context<'_>, mode: AdvanceMode) {
        if !std::mem::replace(&mut self.seeded, true) {
            self.round(ctx, None, mode);
        }
    }

    fn live(&self, iterations: u32) -> bool {
        !self.frontier.is_empty() && (iterations as usize) < self.opts.max_iters
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        self.round(ctx, Some(run), mode);
    }

    fn finish(self, _ctx: &Context<'_>, done: Enacted) -> PrResult {
        // fold any remaining sub-threshold residual into the scores
        let PageRank { mut scores, residual, .. } = self;
        let grain = grain_size(scores.len());
        par::for_each(scores.chunks_mut(grain).zip(residual.chunks(grain)), |(ss, rs)| {
            ss.iter_mut().zip(rs).for_each(|(s, r)| *s += r)
        });
        PrResult {
            scores,
            iterations: done.iterations,
            edges_examined: done.edges_examined,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: PrResult) -> Output {
        Output::Scores(result.scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock::advance::policy::prefer_gather;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, rmat, RmatParams};
    use gunrock_graph::{Coo, GraphBuilder};

    /// A directed R-MAT sample: keeps each undirected edge in one
    /// orientation only, so in- and out-lists differ and low-id vertices
    /// with no larger neighbor dangle.
    fn directed_with_dangling() -> gunrock_graph::Csr {
        let coo = rmat(8, 8, Default::default(), 9);
        let arcs: Vec<(u32, u32)> = coo.edges().filter(|(s, d)| s > d).collect();
        GraphBuilder::new().directed().build(Coo::from_edges(coo.num_vertices, &arcs))
    }

    #[test]
    fn pull_mode_matches_push_mode_and_oracle() {
        let graphs = [
            GraphBuilder::new().build(rmat(8, 16, Default::default(), 6)),
            GraphBuilder::new().build(erdos_renyi(300, 1500, 1)),
            directed_with_dangling(),
        ];
        let dg = &graphs[2];
        assert!(
            (0..dg.num_vertices() as u32).any(|v| dg.out_degree(v) == 0),
            "needs dangling vertices"
        );
        for (i, g) in graphs.iter().enumerate() {
            let rev = g.transpose();
            let opts = PrOptions { epsilon: 1e-12, ..Default::default() };
            let want = serial::pagerank(g, 0.85, 1e-14, 2000);
            let ctx = Context::new(g).with_reverse(&rev).with_stats();
            let pull = pagerank(&ctx, opts);
            let stats = ctx.run_stats();
            let gathers =
                stats.steps.iter().filter(|s| s.strategy.starts_with("pull_gather")).count();
            assert!(gathers > 0, "graph {i}: dense iterations gather");
            assert!(gathers < stats.steps.len(), "graph {i}: the sparse tail pushes");
            let push = pagerank(&Context::new(g), opts);
            assert_eq!(pull.iterations, push.iterations, "graph {i}");
            for (v, ((a, b), w)) in pull.scores.iter().zip(&push.scores).zip(&want).enumerate()
            {
                assert!((a - b).abs() <= 1e-12, "graph {i} vertex {v}: pull {a} vs push {b}");
                assert!((a - w).abs() < 1e-6, "graph {i} vertex {v}: pull {a} vs oracle {w}");
                assert!((b - w).abs() < 1e-6, "graph {i} vertex {v}: push {b} vs oracle {w}");
            }
        }
    }

    #[test]
    fn direction_switches_on_edge_volume_and_is_recorded() {
        let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 4));
        let m = g.num_edges() as u64;
        let ctx = Context::new(&g).with_reverse(&g).with_stats();
        let r = pagerank(&ctx, PrOptions::default());
        let stats = ctx.run_stats();
        // every advance ran in the direction the frontier's edge volume asked for
        assert_eq!((stats.steps[0].strategy, stats.steps[0].iteration), ("pagerank:seed", 0));
        for s in stats.steps.iter().filter(|s| s.operator == OperatorKind::Advance) {
            if s.strategy.starts_with("pull_gather") || s.strategy == "pagerank:seed" {
                assert_eq!(s.edges_examined, m, "a dense sweep scans every in-edge");
                assert_eq!(s.direction, Some(StepDirection::Pull));
            } else {
                assert!(!prefer_gather(s.edges_examined, m), "iteration {}", s.iteration);
            }
        }
        // starts dense, ends sparse: at least the two switches, each with
        // the inequality that fired
        assert!(stats.switches.len() >= 2);
        assert_eq!(stats.switches[0].to, StepDirection::Pull);
        assert!(stats.switches[0].reason.contains(&format!("> m={m}/6")));
        let last = stats.switches.last().expect("a switch");
        assert_eq!(last.to, StepDirection::Push);
        assert!(last.reason.contains("<= m="));
        assert_eq!(r.edges_examined, stats.edges_examined());
        // the trace's pull stamps also hold the seed's, before round one
        assert_eq!(u64::from(stats.pull_iterations()), ctx.counters.pull_iters() + 1);
    }

    #[test]
    fn without_a_reverse_graph_every_iteration_pushes() {
        let g = GraphBuilder::new().build(rmat(8, 16, Default::default(), 6));
        let ctx = Context::new(&g).with_stats();
        pagerank(&ctx, PrOptions::default());
        let stats = ctx.run_stats();
        let (advances, merges): (Vec<_>, Vec<_>) =
            stats.steps.iter().partition(|s| s.operator == OperatorKind::Advance);
        assert!(advances.iter().all(|s| s.direction == Some(StepDirection::Push)));
        assert_eq!(merges[0].strategy, "pagerank:seed", "the seed pushes and merges too");
        assert!(merges[1..].iter().all(|s| s.strategy == "pagerank:merge"));
        assert_eq!(advances.len(), merges.len(), "every push iteration merges once");
        assert!(stats.switches.is_empty());
    }

    #[test]
    fn matches_power_iteration() {
        let graphs = [
            GraphBuilder::new().build(erdos_renyi(300, 1500, 1)),
            GraphBuilder::new().build(rmat(8, 16, Default::default(), 2)),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let ctx = Context::new(g);
            let got = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
            let want = serial::pagerank(g, 0.85, 1e-14, 2000);
            for (v, (a, b)) in got.scores.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-6, "graph {i} vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scores_sum_to_one_even_with_isolated_vertices() {
        // rmat leaves isolated vertices; their mass must teleport, not leak
        let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 3));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn hub_ranks_highest_on_star() {
        let g = GraphBuilder::new()
            .build(Coo::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions::default());
        for v in 1..6 {
            assert!(r.scores[0] > r.scores[v]);
        }
    }

    #[test]
    fn one_iteration_mode_stops_early() {
        let g = GraphBuilder::new().build(erdos_renyi(200, 800, 5));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions { max_iters: 1, ..Default::default() });
        assert_eq!(r.iterations, 1);
        // after one push every vertex holds teleport + one hop of mass
        assert!(r.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn frontier_shrinks_over_time() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1200, 6));
        let loose = {
            let ctx = Context::new(&g);
            pagerank(&ctx, PrOptions { epsilon: 1e-4, ..Default::default() })
        };
        let tight = {
            let ctx = Context::new(&g);
            pagerank(&ctx, PrOptions { epsilon: 1e-10, ..Default::default() })
        };
        assert!(loose.iterations < tight.iterations);
        assert!(loose.edges_examined < tight.edges_examined);
    }

    #[test]
    fn policy_cap_yields_partial_but_mass_conserving_scores() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1200, 8));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(2));
        let r = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.iterations, 2);
        // unpropagated residual folds back in: the seeded residuals sum to
        // zero, and a round over all of them keeps that sum, so the mass
        // is 1 after any number of completed rounds
        let sum: f64 = r.scores.iter().sum();
        let want = 1.0;
        assert!((sum - want).abs() < 1e-9, "sum {sum}, want {want}");
        // the algorithm's own cap is NOT a policy trip
        let ctx = Context::new(&g);
        let own = pagerank(&ctx, PrOptions { max_iters: 1, ..Default::default() });
        assert_eq!(own.outcome, RunOutcome::Converged);
        // the gather path honors the policy and conserves the same mass
        let ctx = Context::new(&g)
            .with_reverse(&g)
            .with_policy(RunPolicy::unbounded().max_iterations(2));
        let pull = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
        assert_eq!(pull.outcome, RunOutcome::IterationCapped);
        assert_eq!(pull.iterations, 2);
        assert_eq!(ctx.counters.pull_iters(), 2, "both capped rounds gathered");
        let sum: f64 = pull.scores.iter().sum();
        assert!((sum - want).abs() < 1e-9, "sum {sum}, want {want}");
    }

    #[test]
    fn seeded_start_converges_in_few_rounds() {
        // the benchmark's kron 10, its own reverse: 93 rounds from a zero
        // start, whose residual mass shrinks by only d per round
        let g = GraphBuilder::new().build(rmat(10, 16, RmatParams::graph500(), 103));
        let ctx = Context::new(&g).with_reverse(&g);
        let r = pagerank(&ctx, PrOptions::default());
        assert_eq!(r.outcome, RunOutcome::Converged);
        assert!(r.iterations <= 25, "{} rounds", r.iterations);
        let want = serial::pagerank(&g, 0.85, 1e-14, 2000);
        for (v, (a, w)) in r.scores.iter().zip(&want).enumerate() {
            assert!((a - w).abs() < 1e-6, "vertex {v}: {a} vs oracle {w}");
        }
    }

    #[test]
    fn seed_residuals_are_signed_and_both_directions_agree() {
        let g = directed_with_dangling();
        let rev = g.transpose();
        let (n, d) = (g.num_vertices(), 0.85);
        let opts = PrOptions { epsilon: 1e-12, ..Default::default() };
        // one power step from the uniform vector, less the vector itself
        let dangling = (0..n as u32).filter(|&v| g.out_degree(v) == 0).count() as f64;
        let mut want =
            vec![(1.0 - d) / n as f64 + d * dangling / (n * n) as f64 - 1.0 / n as f64; n];
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                want[v as usize] += d / (n as f64 * f64::from(g.out_degree(u)));
            }
        }
        assert!(want.iter().any(|&r| r < -opts.epsilon), "some vertex starts above its rank");
        let seeded = |ctx: &Context<'_>| {
            let mut state = PageRank::init(ctx, &[], opts);
            state.setup(ctx, AdvanceMode::Auto);
            state
        };
        let (gathered, pushed) =
            (seeded(&Context::new(&g).with_reverse(&rev)), seeded(&Context::new(&g)));
        for state in [&gathered, &pushed] {
            assert!(state.scores.iter().all(|&s| s == 1.0 / n as f64));
            for (v, (r, w)) in state.residual.iter().zip(&want).enumerate() {
                assert!((r - w).abs() < 1e-15, "vertex {v}: residual {r}, want {w}");
            }
            let sum: f64 = state.residual.iter().sum();
            assert!(sum.abs() < 1e-12, "the seeded residuals sum to {sum}");
            let admitted: Vec<u32> = (0..n as u32)
                .filter(|&v| state.residual[v as usize].abs() > opts.epsilon)
                .collect();
            assert_eq!(state.frontier.as_slice(), admitted, "|r| > epsilon joins the frontier");
        }
        let pull = pagerank(&Context::new(&g).with_reverse(&rev), opts);
        let push = pagerank(&Context::new(&g), opts);
        let oracle = serial::pagerank(&g, d, 1e-14, 2000);
        assert_eq!(pull.iterations, push.iterations);
        for (v, ((a, b), w)) in pull.scores.iter().zip(&push.scores).zip(&oracle).enumerate() {
            assert!((a - b).abs() <= 1e-12, "vertex {v}: pull {a} vs push {b}");
            assert!((a - w).abs() < 1e-9, "vertex {v}: pull {a} vs oracle {w}");
        }
    }

    #[test]
    fn a_zero_start_snapshot_resumes_to_the_fixed_point() {
        // the state a run started at scores 0 and residual (1-d)/n wrote
        // before its first round: the same invariant, so the same fixed point
        let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 5));
        let n = g.num_vertices();
        let mut ckpt = Checkpoint::new("pagerank", 0);
        ckpt.push_f64("scores", vec![0.0; n])
            .push_f64("residual", vec![0.15 / n as f64; n])
            .push_u32("frontier", (0..n as u32).collect())
            .push_f64("params", vec![0.85, 1e-12]);
        for reverse in [false, true] {
            let ctx = Context::new(&g);
            let ctx = if reverse { ctx.with_reverse(&g) } else { ctx };
            let resumed =
                crate::primitive::resume::<PageRank>(&ctx, PrOptions::default(), &ckpt)
                    .expect("resume");
            assert_eq!(resumed.outcome, RunOutcome::Converged);
            let fresh = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
            assert!(fresh.iterations < resumed.iterations, "the seed saves rounds");
            let want = serial::pagerank(&g, 0.85, 1e-14, 2000);
            for (v, ((a, b), w)) in
                resumed.scores.iter().zip(&fresh.scores).zip(&want).enumerate()
            {
                assert!(
                    (a - w).abs() < 1e-9,
                    "reverse {reverse} vertex {v}: {a} vs oracle {w}"
                );
                assert!((a - b).abs() < 1e-9, "reverse {reverse} vertex {v}: {a} vs fresh {b}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build(Coo::new(0));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions::default());
        assert!(r.scores.is_empty());
    }
}
