//! A primitive is one declaration (DESIGN §6.3).
//!
//! The paper's program structure (§4.3) gives the loop to one enactor
//! while each primitive supplies functors and problem state. Here a
//! primitive implements [`Primitive`]: its name and arity, its state's
//! `init`, `save` and `load`, a pooled `setup`, one `step` and a
//! `finish`. Everything else is derived from that declaration, once for
//! every primitive:
//!
//! * [`run`] admits the run against the context's budget, builds the
//!   state, arms the [`Enactment`], runs the setup isolated, loops
//!   boundary / `step`, and finishes;
//! * [`resume`] reads the declared [`Schema`], loads the state and runs
//!   it the same way, turning a `Failed` outcome into its error;
//! * admission prices the run from the declared state bytes plus, for a
//!   primitive that advances, the advance workspace it may demote;
//! * [`entry`] is the primitive's line in
//!   [`REGISTRY`](crate::registry::REGISTRY).
//!
//! Everything is monomorphised: the loop calls `step` directly, and a
//! snapshot is built only when a checkpoint policy has one due.

use crate::admission;
use crate::registry::{Arity, Entry, Output, Query, Run};
use gunrock::prelude::*;
use gunrock_engine::atomics::AtomicF64;
use gunrock_engine::budget::{advance_workspace_bytes, pooled_bytes};
use gunrock_engine::checkpoint::{Schema, Snapshot, SnapshotWriter};
use gunrock_graph::VertexId;
use std::convert::Infallible;
use std::sync::atomic::AtomicU32;

/// One graph primitive: its problem state and one iteration's body. The
/// implementing type is the state a run carries from one iteration
/// boundary to the next.
pub trait Primitive: Sized {
    /// The name requests, command lines and checkpoints use.
    const NAME: &'static str;
    /// How many sources a [`Query`] carries.
    const ARITY: Arity;
    /// Whether a run advances over the graph: admission may then demote
    /// its widest advance from load-balanced to thread-mapped.
    const ADVANCES: bool;
    /// The snapshot a run writes at its boundaries, for a primitive that
    /// checkpoints.
    const SNAPSHOT: Option<&'static Schema> = None;
    /// Whether the boundary is consulted once more after the last step:
    /// a guard that trips inside the last pass must not read as
    /// convergence.
    const BOUNDARY_AFTER_LAST: bool = false;

    /// The run's configuration.
    type Options: Default;
    /// What a finished run returns.
    type Result;

    /// The configuration a front end's query asks for.
    fn options(_query: &Query) -> Self::Options {
        Self::Options::default()
    }

    /// The advance mode the run asks admission for.
    fn mode(_opts: &Self::Options) -> AdvanceMode {
        AdvanceMode::Auto
    }

    /// Bytes (in pool charging units) of the widest iteration's own
    /// state on a graph of `n` vertices and `m` edges, advance workspace
    /// aside: with it, the run's pessimistic footprint (DESIGN §11.2).
    fn state_bytes(n: u64, m: u64) -> u64;

    /// The state a fresh run starts from. A single-source primitive given
    /// no source starts from vertex 0.
    fn init(ctx: &Context<'_>, sources: &[VertexId], opts: Self::Options) -> Self;

    /// The state a snapshot its [`SNAPSHOT`](Self::SNAPSHOT) accepted
    /// holds, after the checks only the primitive can make.
    fn load(
        _ctx: &Context<'_>,
        _snap: &Snapshot<'_>,
        _opts: Self::Options,
    ) -> Result<Self, GunrockError> {
        Err(not_checkpointing(Self::NAME))
    }

    /// Writes the state's snapshot sections, after setup ran.
    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        snapshot
    }

    /// The sources the run started from.
    fn sources(&self) -> Vec<VertexId> {
        Vec::new()
    }

    /// Checks out the pooled buffers the run needs, and runs any pass a
    /// fresh state still owes before its first boundary, advancing in the
    /// `mode` admission granted. Runs isolated once the enactment is
    /// armed, so such a pass is timed and counted with the run; a denied
    /// checkout fails the run before its first step.
    fn setup(&mut self, _ctx: &Context<'_>, _mode: AdvanceMode) {}

    /// Whether another iteration is due after `iterations` completed.
    fn live(&self, iterations: u32) -> bool;

    /// One iteration's body, advancing in the `mode` admission granted.
    /// It ends the iteration on `run` where its operators say it ends, so
    /// step stamps sit where they always have.
    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode);

    /// Returns the pooled buffers and builds the result.
    fn finish(self, ctx: &Context<'_>, done: Enacted) -> Self::Result;

    /// The result in the registry's uniform shape.
    fn output(result: Self::Result) -> Output;
}

/// Runs `P` from `sources`.
pub fn run<P: Primitive>(
    ctx: &Context<'_>,
    sources: &[VertexId],
    opts: P::Options,
) -> P::Result {
    fresh::<P>(ctx, sources, opts).0
}

/// Continues a run of `P` from a `gunrock-ckpt/v1` snapshot it wrote.
/// What the snapshot holds (sources, and settings that fix the result)
/// overrides `opts`. A run that ends `Failed` returns its error.
pub fn resume<P: Primitive>(
    ctx: &Context<'_>,
    opts: P::Options,
    ckpt: &Checkpoint,
) -> Result<P::Result, GunrockError> {
    resumed::<P>(ctx, opts, ckpt).map(|(result, ..)| result)
}

/// `P`'s registry entry.
pub const fn entry<P: Primitive>() -> Entry {
    Entry {
        name: P::NAME,
        arity: P::ARITY,
        run: run_query::<P>,
        resume: if P::SNAPSHOT.is_some() { Some(resume_query::<P>) } else { None },
        estimate_bytes: estimate::<P>,
    }
}

/// A finished run: its result, how the enactment ended, and its sources.
type Finished<P> = (<P as Primitive>::Result, Enacted, Vec<VertexId>);

fn fresh<P: Primitive>(
    ctx: &Context<'_>,
    sources: &[VertexId],
    opts: P::Options,
) -> Finished<P> {
    let Ok(finished) =
        enact::<P, Infallible>(ctx, opts, |opts| Ok((P::init(ctx, sources, opts), 0)));
    finished
}

fn resumed<P: Primitive>(
    ctx: &Context<'_>,
    opts: P::Options,
    ckpt: &Checkpoint,
) -> Result<Finished<P>, GunrockError> {
    let snap = P::SNAPSHOT
        .ok_or_else(|| not_checkpointing(P::NAME))?
        .read(ckpt, ctx.num_vertices())?;
    let finished = enact::<P, GunrockError>(ctx, opts, |opts| {
        Ok((P::load(ctx, &snap, opts)?, snap.iteration()))
    })?;
    if finished.1.outcome == RunOutcome::Failed {
        return Err(failure_of(ctx));
    }
    Ok(finished)
}

/// The one enact loop. Admits the run, builds its state with `state`
/// (which also says how many iterations it already completed), then arms
/// the boundary, runs the isolated setup and steps until the state is
/// done or the boundary trips.
fn enact<P: Primitive, E>(
    ctx: &Context<'_>,
    opts: P::Options,
    state: impl FnOnce(P::Options) -> Result<(P, u32), E>,
) -> Result<Finished<P>, E> {
    // Budget admission comes first: a hopeless budget poisons the run
    // (structured BudgetExceeded) before anything is checked out.
    let mode = admission::admit::<P>(ctx, P::mode(&opts));
    let (mut state, done) = state(opts)?;
    let sources = state.sources();
    let mut run = Enactment::arm(ctx, done);
    let snapshot = |state: &P, it| P::SNAPSHOT.map(|s| state.save(s.writer(it)).finish());
    // a failed setup poisoned the run: it ends `Failed` without a step
    if ctx.isolated_setup("setup", || state.setup(ctx, mode)).is_some() {
        loop {
            let live = state.live(run.iterations());
            if !live && !P::BOUNDARY_AFTER_LAST {
                break;
            }
            if run.boundary(|it| snapshot(&state, it)) || !live {
                break;
            }
            state.step(ctx, &mut run, mode);
        }
    }
    let done = run.finish(|it| snapshot(&state, it));
    Ok((state.finish(ctx, done), done, sources))
}

fn run_query<P: Primitive>(ctx: &Context<'_>, query: &Query) -> Run {
    report::<P>(fresh::<P>(ctx, &query.sources, P::options(query)))
}

fn resume_query<P: Primitive>(
    ctx: &Context<'_>,
    ckpt: &Checkpoint,
) -> Result<Run, GunrockError> {
    resumed::<P>(ctx, P::options(&Query::default()), ckpt).map(report::<P>)
}

fn report<P: Primitive>((result, done, sources): Finished<P>) -> Run {
    let output = P::output(result);
    Run {
        outcome: done.outcome,
        iterations: done.iterations,
        elapsed: done.elapsed,
        sources,
        output,
    }
}

/// `P`'s pessimistic footprint with its widest advance run as `strategy`.
pub(crate) fn footprint<P: Primitive>(n: u64, m: u64, strategy: &str) -> u64 {
    let advance = if P::ADVANCES { advance_workspace_bytes(n, m, strategy) } else { 0 };
    P::state_bytes(n, m) + advance
}

fn estimate<P: Primitive>(n: u64, m: u64) -> u64 {
    footprint::<P>(n, m, "load_balanced")
}

fn not_checkpointing(name: &str) -> GunrockError {
    malformed(format!("{name} does not checkpoint"))
}

/// The failure that poisoned `ctx`. Falls back to a synthesized error
/// when the slot was already drained (the poison flag itself never
/// resets, so the outcome is still `Failed`).
pub(crate) fn failure_of(ctx: &Context<'_>) -> GunrockError {
    ctx.take_failure().unwrap_or(GunrockError::OperatorPanic {
        operator: "unknown",
        iteration: 0,
        payload: "failure already taken".to_string(),
    })
}

/// A malformed-checkpoint error with a human-readable reason.
pub(crate) fn malformed(msg: impl Into<String>) -> GunrockError {
    GunrockError::Checkpoint(CheckpointError::Malformed(msg.into()))
}

/// Rebuilds the atomic working form from a checkpointed vector.
pub(crate) fn to_atomic_u32(values: &[u32]) -> Vec<AtomicU32> {
    values.iter().map(|&v| AtomicU32::new(v)).collect()
}

/// Rebuilds the atomic working form from a checkpointed vector.
pub(crate) fn to_atomic_f64(values: &[f64]) -> Vec<AtomicF64> {
    values.iter().map(|&v| AtomicF64::new(v)).collect()
}

/// A single-source run's source: the first given, or vertex 0.
pub(crate) fn first_source(sources: &[VertexId]) -> VertexId {
    sources.first().copied().unwrap_or(0)
}

/// Frontier ping-pong: two pooled `u32` buffers over the vertex set.
pub(crate) fn frontiers(n: u64) -> u64 {
    2 * pooled_bytes(n, 4)
}

/// One pooled `u64`-word bitmap over the vertex set.
pub(crate) fn bitmap(n: u64) -> u64 {
    pooled_bytes(n.div_ceil(64), 8)
}
