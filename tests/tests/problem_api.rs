//! Integration tests for the §4.3 program structure: a full primitive
//! written outside `gunrock-algos` as one [`Primitive`] declaration —
//! functors, state and one step — cross-checked against the dedicated
//! implementation. Demonstrates the paper's claim that "users only need
//! to write from 133 (simple primitive) to 261 (complex primitive)
//! lines": the SSSP below is ~70 lines of algorithm code, and guards,
//! snapshots, resume, budget admission and iteration counting come from
//! the framework.

use gunrock::prelude::*;
use gunrock_algos::registry::{Arity, Output, Query};
use gunrock_algos::{resume, run, Primitive};
use gunrock_baselines::serial;
use gunrock_engine::atomics::{atomic_u32_vec, fetch_min_u32, unwrap_atomic_u32};
use gunrock_engine::budget::{pooled_bytes, MemoryBudget};
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
use gunrock_graph::{Csr, VertexId, INFINITY};
use gunrock_integration::graph_suite;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Relax and claim: an edge succeeds when it improves `d` and is the
/// first improvement of `d` this round.
struct Relax<'a> {
    graph: &'a Csr,
    dist: &'a [AtomicU32],
    tags: &'a [AtomicU32],
    round: u32,
}

impl AdvanceFunctor for Relax<'_> {
    fn cond_edge(&self, s: u32, d: u32, e: u32) -> bool {
        let nd =
            self.dist[s as usize].load(Ordering::Relaxed).saturating_add(self.graph.weight(e));
        fetch_min_u32(&self.dist[d as usize], nd)
            && self.tags[d as usize].swap(self.round, Ordering::Relaxed) != self.round
    }
}

/// SSSP as a primitive: one relax-and-claim advance + the near-far queue
/// per iteration — Algorithm 1 of the paper. A round's claim tags only
/// ever equal that round's number, so a snapshot leaves them out.
struct ToySssp {
    dist: Vec<AtomicU32>,
    tags: Vec<AtomicU32>,
    frontier: Frontier,
    queue: NearFarQueue,
}

const DELTA: u32 = 8;

static SNAPSHOT: Schema = Schema {
    primitive: "toy-sssp",
    fields: &[
        Field("dist", "u32", PerVertex),
        Field("frontier", "u32", VertexIds),
        Field("far", "u32", VertexIds),
        Field("queue", "u32", Slots(&[Plain("pivot")])),
    ],
};

impl Primitive for ToySssp {
    const NAME: &'static str = "toy-sssp";
    const ARITY: Arity = Arity::One;
    const ADVANCES: bool = true;
    const SNAPSHOT: Option<&'static Schema> = Some(&SNAPSHOT);
    type Options = ();
    type Result = Vec<u32>;

    fn state_bytes(n: u64, _m: u64) -> u64 {
        2 * n * 4 + 2 * pooled_bytes(n, 4)
    }

    fn init(ctx: &Context<'_>, sources: &[VertexId], _opts: ()) -> Self {
        let dist = atomic_u32_vec(ctx.num_vertices(), INFINITY);
        dist[sources[0] as usize].store(0, Ordering::Relaxed);
        let tags = atomic_u32_vec(ctx.num_vertices(), u32::MAX);
        ToySssp {
            dist,
            tags,
            frontier: Frontier::single(sources[0]),
            queue: NearFarQueue::new(DELTA),
        }
    }

    fn load(ctx: &Context<'_>, snap: &Snapshot<'_>, _opts: ()) -> Result<Self, GunrockError> {
        let dist = snap.section::<u32>("dist")?.iter().map(|&d| AtomicU32::new(d)).collect();
        let far = snap.section("far")?.to_vec();
        Ok(ToySssp {
            dist,
            tags: atomic_u32_vec(ctx.num_vertices(), u32::MAX),
            frontier: Frontier::from_vec(snap.section("frontier")?.to_vec()),
            queue: NearFarQueue::restore(DELTA, snap.slot("pivot")?, far),
        })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        snapshot
            .section("dist", unwrap_atomic_u32(&self.dist))
            .section("frontier", self.frontier.as_slice().to_vec())
            .section("far", self.queue.far_slice().to_vec())
            .slots("queue", &[("pivot", self.queue.pivot())])
    }

    fn live(&self, _iterations: u32) -> bool {
        !self.frontier.is_empty()
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        let (dist, tags, round) = (&self.dist, &self.tags, run.iterations());
        let relax = Relax { graph: ctx.graph, dist, tags, round };
        let spec = AdvanceSpec::v2v().with_mode(mode);
        let claimed = advance::advance(ctx, &self.frontier, spec, &relax);
        let prio = |v: u32| dist[v as usize].load(Ordering::Relaxed);
        let near = self.queue.split(claimed, prio);
        self.frontier =
            if near.is_empty() { self.queue.refill(ctx.pool(), prio, |_| true) } else { near };
        run.end_iteration(false);
    }

    fn finish(self, _ctx: &Context<'_>, _done: Enacted) -> Vec<u32> {
        unwrap_atomic_u32(&self.dist)
    }

    fn output(dist: Vec<u32>) -> Output {
        Output::Depths(dist)
    }
}

#[test]
fn sssp_as_a_primitive_matches_dijkstra_on_suite() {
    let entry = gunrock_algos::primitive::entry::<ToySssp>();
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let done = (entry.run)(&ctx, &Query { sources: vec![0], epsilon: None });
        assert_eq!(done.output, Output::Depths(serial::dijkstra(&g, 0)), "{name}");
        assert_eq!(done.outcome, RunOutcome::Converged, "{name}");
        assert!(done.iterations > 0, "{name}");
        assert_eq!(u64::from(done.iterations), ctx.counters.iters(), "{name}");
    }
}

/// A primitive declared outside `gunrock-algos` gets checkpoints and
/// resume from the framework: a run capped at `k` leaves an exit
/// snapshot stamped `k`, and resuming it ends bit-identical to the
/// uninterrupted run, after the same total iterations.
#[test]
fn a_capped_run_resumes_bit_identically() {
    let (_, g) = &graph_suite()[0];
    let whole = Context::new(g);
    let want = run::<ToySssp>(&whole, &[0], ());
    let total = whole.counters.iters() as u32;
    assert!(total > 3);
    let dir = std::env::temp_dir().join(format!("gunrock_toy_sssp_{}", std::process::id()));
    for k in 1..total {
        let capped = Context::new(g)
            .with_policy(RunPolicy::unbounded().max_iterations(k))
            .with_checkpoints(CheckpointPolicy::new(0, &dir));
        run::<ToySssp>(&capped, &[0], ());
        let ckpt = Checkpoint::load(&dir.join("toy-sssp.ckpt")).expect("exit snapshot");
        assert_eq!(ckpt.iteration(), k);
        let ctx = Context::new(g);
        let dist = resume::<ToySssp>(&ctx, (), &ckpt).expect("resume");
        assert_eq!(dist, want, "resumed after {k}");
        assert_eq!(ctx.counters.iters() as u32 + k, total, "resumed after {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// ... and budget admission: a hopeless budget fails the run before it
/// checks anything out.
#[test]
fn a_hopeless_budget_fails_the_primitive_at_admission() {
    let (_, g) = &graph_suite()[0];
    let ctx = Context::new(g).with_budget(Arc::new(MemoryBudget::new(64)));
    let dist = run::<ToySssp>(&ctx, &[0], ());
    assert!(dist[1..].iter().all(|&d| d == INFINITY));
    match ctx.take_failure() {
        Some(GunrockError::BudgetExceeded { operator, .. }) => {
            assert_eq!(operator, "admission")
        }
        other => panic!("expected BudgetExceeded from admission, got {other:?}"),
    }
}

/// Convergence on an iteration cap rather than an empty frontier (the
/// paper's "maximum number of iterations" criterion): the loop condition
/// is the primitive's, the count is the driver's.
#[test]
fn iteration_cap_convergence_criterion() {
    let (_, g) = &graph_suite()[0];
    let ctx = Context::new(g);
    let frontier = Frontier::full(ctx.num_vertices()); // never empties on its own
    let mut run = Enactment::arm(&ctx, 0);
    while run.iterations() < 7 && !frontier.is_empty() && !run.boundary(no_snapshot) {
        run.end_iteration(false);
    }
    let done = run.finish(no_snapshot);
    assert_eq!((done.outcome, done.iterations), (RunOutcome::Converged, 7));
}
