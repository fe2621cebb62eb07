//! The **advance** operator (§4.1): "generates a new frontier from the
//! current frontier by visiting the neighbors of the current frontier."
//!
//! Advance is the irregular heart of the system; this module generalizes
//! the workload-mapping strategies of §4.4 behind one entry point:
//!
//! * [`AdvanceMode::ThreadMapped`] — per-thread fine-grained: one frontier
//!   element's whole neighbor list per task. Best on large-diameter,
//!   even-degree graphs.
//! * [`AdvanceMode::Twc`] — Merrill et al.'s per-warp/per-CTA
//!   coarse-grained three-bucket specialization for skewed degrees.
//! * [`AdvanceMode::LoadBalanced`] — Davidson et al.'s equal-width edge
//!   chunks located by sorted/binary search over the scanned degree
//!   array; balanced both within and across blocks.
//! * [`AdvanceMode::Auto`] — the paper's shipped hybrid: LB when the
//!   frontier's neighbor count exceeds the runtime threshold (4096),
//!   thread-mapped otherwise.
//!
//! Pull-direction advance (§4.1.1) lives in [`pull`], the dense
//! atomic-free gather-reduce (§7) in [`gather`]; the push/pull and
//! push/gather switching policies in [`policy`].

pub mod gather;
pub mod msbfs;
pub mod policy;
pub mod pull;
pub mod push;

use crate::context::Context;
use crate::functor::AdvanceFunctor;
use crate::isolate::isolated;
use gunrock_engine::budget::{advance_workspace_bytes, pooled_bytes};
use gunrock_engine::faults::{FaultInjector, FaultKind};
use gunrock_engine::frontier::Frontier;
use gunrock_engine::stats::{OperatorKind, RecoveryKind, StepDirection};
use gunrock_graph::VertexId;
use std::time::{Duration, Instant};

/// Emergency release for an injected stall running without a watchdog:
/// keeps a misconfigured chaos test from hanging a suite forever.
const STALL_HARD_CAP: Duration = Duration::from_secs(60);

/// Workload-mapping strategy for push advance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdvanceMode {
    /// One frontier element per task; the element's neighbor list is
    /// processed serially by that task.
    ThreadMapped,
    /// Three degree buckets (sub-warp, warp..CTA, super-CTA) processed
    /// with per-thread, per-warp, and per-CTA cooperation respectively.
    Twc,
    /// Equal-length edge chunks over the scanned degree array.
    LoadBalanced,
    /// Hybrid: LB above `EngineConfig::lb_threshold` total neighbors,
    /// thread-mapped below (the paper's default, threshold 4096).
    #[default]
    Auto,
}

/// What the input frontier's ids denote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputKind {
    /// Frontier of vertex ids; each vertex expands its out-neighbors.
    Vertices,
    /// Frontier of edge ids; each edge expands the out-neighbors of its
    /// destination (the far endpoint), enabling the paper's 2-hop
    /// edge-frontier traversals.
    Edges,
}

/// What the output frontier's ids denote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// Collect destination vertices of successful traversals.
    Vertices,
    /// Collect edge ids of successful traversals.
    Edges,
    /// Discard output (advance run only for its functor side effects,
    /// e.g. PageRank accumulation).
    None,
}

/// Full specification of one advance step.
#[derive(Clone, Copy, Debug)]
pub struct AdvanceSpec {
    /// Workload-mapping strategy.
    pub mode: AdvanceMode,
    /// What the input frontier's ids denote.
    pub input: InputKind,
    /// What the output frontier should contain.
    pub output: OutputKind,
}

impl Default for AdvanceSpec {
    fn default() -> Self {
        AdvanceSpec {
            mode: AdvanceMode::Auto,
            input: InputKind::Vertices,
            output: OutputKind::Vertices,
        }
    }
}

impl AdvanceSpec {
    /// Vertex-to-vertex advance with the default hybrid strategy.
    pub fn v2v() -> Self {
        Self::default()
    }

    /// Vertex-to-edge advance.
    pub fn v2e() -> Self {
        AdvanceSpec { output: OutputKind::Edges, ..Self::default() }
    }

    /// Edge-to-vertex advance.
    pub fn e2v() -> Self {
        AdvanceSpec { input: InputKind::Edges, ..Self::default() }
    }

    /// Side-effect-only advance (no output frontier).
    pub fn for_effect() -> Self {
        AdvanceSpec { output: OutputKind::None, ..Self::default() }
    }

    /// Overrides the workload-mapping mode.
    pub fn with_mode(mut self, mode: AdvanceMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Maps a frontier item to the vertex whose neighbor list it expands.
#[inline]
pub(crate) fn expansion_vertex(ctx: &Context<'_>, input: InputKind, item: u32) -> VertexId {
    match input {
        InputKind::Vertices => item,
        InputKind::Edges => ctx.graph.edge_dest(item),
    }
}

/// Runs one push-direction advance step: visits every out-edge of the
/// input frontier, calls the functor's `cond`/`apply` on each (fused),
/// and returns the output frontier per `spec.output`.
///
/// The step runs panic-isolated: a functor panic (or injected fault)
/// poisons the context and returns an empty frontier instead of
/// aborting; the enact loop's next guard check reports `Failed`.
pub fn advance<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    if input.is_empty() {
        return Frontier::new();
    }
    // Kernel-launch boundary for the racecheck phase ledger (no-op
    // without the feature).
    gunrock_engine::racecheck::begin_phase();
    // Near-zero-cost instrumentation: one Option check on the fast path;
    // the timer only exists when a sink is installed.
    let timer = ctx.sink().map(|_| (Instant::now(), ctx.counters.edges()));
    let result = isolated(ctx, "advance", || {
        if let Some(inj) = ctx.injector() {
            inj.maybe_panic("advance");
            stall_if_injected(ctx, inj);
        }
        dispatch(ctx, input, spec, functor)
    });
    let Some((out, strategy)) = result else { return Frontier::new() };
    if let (Some((start, edges0)), Some(sink)) = (timer, ctx.sink()) {
        sink.record_step(
            OperatorKind::Advance,
            strategy,
            Some(StepDirection::Push),
            input.len() as u64,
            out.len() as u64,
            ctx.counters.edges() - edges0,
            start.elapsed(),
        );
    }
    out
}

/// The frontier's total neighbor count when it qualifies for the
/// single-threaded fast path: both the frontier length and the work
/// estimate at or below `EngineConfig::serial_threshold` (0 disables).
/// The length gate is checked first so large frontiers never pay the
/// degree-sum pass just to be told no.
fn serial_eligible(ctx: &Context<'_>, input: &Frontier, spec: AdvanceSpec) -> Option<u64> {
    let t = ctx.config.serial_threshold;
    if t == 0 || input.len() > t {
        return None;
    }
    let work = push::frontier_neighbor_count(ctx, input, spec.input);
    // CAST: u64 -> usize is lossless on 64-bit targets; threshold compare only.
    (work as usize <= t).then_some(work)
}

/// Strategy dispatch. Load-balanced selections route through the
/// retry-with-fallback guard; the other strategies run directly. The
/// ThreadMapped and Auto branches divert tiny frontiers to the serial
/// fast path — deliberately NOT ahead of the match, so an explicit
/// LoadBalanced selection still consults the fault injector and keeps
/// seeded chaos schedules stable, and Twc keeps its bucket order.
///
/// Auto gathers the frontier's [`push::Degrees`] once and hands them and
/// their total down to the strategy it picks. A frontier short enough
/// for the serial path sums its degrees without a buffer first, so the
/// serial path never touches the pool for them.
fn dispatch<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> (Frontier, &'static str) {
    match spec.mode {
        AdvanceMode::ThreadMapped => {
            if let Some(work) = serial_eligible(ctx, input, spec) {
                (push::serial(ctx, input, spec, functor, work), "serial")
            } else {
                (push::thread_mapped(ctx, input, spec, functor), "thread_mapped")
            }
        }
        AdvanceMode::Twc => (push::twc(ctx, input, spec, functor), "twc"),
        AdvanceMode::LoadBalanced => {
            let degrees = push::Degrees::gather(ctx, input.as_slice(), spec.input);
            run_load_balanced(ctx, input, degrees, spec, functor, "load_balanced")
        }
        AdvanceMode::Auto => {
            // CAST: u64 -> usize is lossless on 64-bit targets; threshold compare only.
            let lb = |work: u64| work as usize > ctx.config.lb_threshold;
            if let Some(work) = serial_eligible(ctx, input, spec).filter(|&w| !lb(w)) {
                return (push::serial(ctx, input, spec, functor, work), "auto:serial");
            }
            let degrees = push::Degrees::gather(ctx, input.as_slice(), spec.input);
            if !lb(degrees.total) {
                let out = push::thread_mapped_from(ctx, input, degrees, spec, functor);
                return (out, "auto:thread_mapped");
            }
            run_load_balanced(ctx, input, degrees, spec, functor, "auto:load_balanced")
        }
    }
}

/// The `advance:stall` chaos site (push advances and pull sweeps alike):
/// a fault here simulates the failure mode the watchdog exists for — an
/// operator that stops making progress AND is deaf to cooperative
/// cancellation (so the cancel flag
/// the watchdog raises in its first escalation is deliberately
/// ignored). The stall releases only when the watchdog escalates to a
/// kill, or at a hard cap that keeps watchdog-less runs from hanging a
/// test suite forever. Either way it ends in a panic so the run poisons
/// and reports instead of returning fabricated output.
pub(crate) fn stall_if_injected(ctx: &Context<'_>, inj: &FaultInjector) {
    if !inj.should_fail(FaultKind::Stall, "advance:stall") {
        return;
    }
    let start = Instant::now();
    while !ctx.watchdog_killed() && start.elapsed() < STALL_HARD_CAP {
        std::thread::sleep(Duration::from_millis(1));
    }
    // LINT-ALLOW(panic): the injected stall must not return a fabricated
    // result; panicking here routes through panic isolation so the run
    // ends as a structured failure.
    panic!("injected stall released after {:?}", start.elapsed());
}

/// Load-balanced advance behind the retry-with-fallback guard.
///
/// The only *recoverable* failure is the (simulated) workspace
/// allocation failure, consulted here — **before** the functor has run
/// on any edge, so no side effects can be duplicated by a retry. The
/// strategy is retried up to `ctx.retry.max_retries` times (with the
/// policy's backoff), then abandoned for the always-safe
/// `thread_mapped` strategy, which needs no partition workspace. Every retry
/// and fallback is recorded as a [`RecoveryKind`] event when a stats
/// sink is installed. Failures *inside* the functor loop are not
/// retryable (side effects have escaped) and go through panic isolation
/// instead.
fn run_load_balanced<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    degrees: push::Degrees,
    spec: AdvanceSpec,
    functor: &F,
    label: &'static str,
) -> (Frontier, &'static str) {
    if let Some(inj) = ctx.injector() {
        let mut attempt = 0u32;
        while inj.should_fail(FaultKind::Alloc, "advance:load_balanced") {
            if attempt >= ctx.retry.max_retries {
                if let Some(sink) = ctx.sink() {
                    sink.record_recovery(
                        "advance",
                        RecoveryKind::Fallback,
                        "load_balanced",
                        "thread_mapped",
                        format!("workspace allocation failed after {attempt} retries"),
                    );
                }
                return (
                    push::thread_mapped_from(ctx, input, degrees, spec, functor),
                    "fallback:thread_mapped",
                );
            }
            attempt += 1;
            if let Some(sink) = ctx.sink() {
                sink.record_recovery(
                    "advance",
                    RecoveryKind::Retry,
                    "load_balanced",
                    "load_balanced",
                    format!("workspace allocation failed, retry {attempt}"),
                );
            }
            if !ctx.retry.backoff.is_zero() {
                std::thread::sleep(ctx.retry.backoff);
            }
        }
    }
    // Degradation rung (budgeted pools only): the load-balanced
    // strategy's scan/partition workspace is its price; when the
    // budget's headroom can't cover it, take the leaner thread-mapped
    // path instead of running into a mid-operator denial. Checked —
    // like the alloc-fault guard above — before the functor has touched
    // any edge, so no side effects are duplicated. The degree buffer is
    // already reserved, so only the rest of the workspace must fit.
    if let Some(budget) = ctx.budget() {
        let len = input.len() as u64;
        let need =
            advance_workspace_bytes(len, degrees.total, "load_balanced") - pooled_bytes(len, 4);
        if !budget.can_fit(need) {
            ctx.record_degrade(
                "advance",
                "load_balanced",
                "thread_mapped",
                format!(
                    "lb workspace needs {need} bytes, budget headroom {}",
                    budget.headroom()
                ),
            );
            let out = push::thread_mapped_from(ctx, input, degrees, spec, functor);
            return (out, "degraded:thread_mapped");
        }
    }
    (push::load_balanced_from(ctx, input, degrees, spec, functor, u32::MAX as u64), label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::AcceptAll;
    use gunrock_graph::{Coo, GraphBuilder};
    use std::sync::Arc;

    fn star_plus_path() -> gunrock_graph::Csr {
        // vertex 0 is a hub to 1..=5; 5 -> 6 -> 7 path
        GraphBuilder::new().directed().build(Coo::from_edges(
            8,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7)],
        ))
    }

    #[test]
    fn all_modes_agree_on_v2v_output_as_sets() {
        let g = star_plus_path();
        let ctx = Context::new(&g);
        let input = Frontier::from_vec(vec![0, 5]);
        let mut results = Vec::new();
        for mode in [
            AdvanceMode::ThreadMapped,
            AdvanceMode::Twc,
            AdvanceMode::LoadBalanced,
            AdvanceMode::Auto,
        ] {
            let out = advance(&ctx, &input, AdvanceSpec::v2v().with_mode(mode), &AcceptAll);
            let mut v = out.into_vec();
            v.sort_unstable();
            results.push(v);
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(results[0], vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn v2e_collects_edge_ids() {
        let g = star_plus_path();
        let ctx = Context::new(&g);
        let out = advance(&ctx, &Frontier::single(0), AdvanceSpec::v2e(), &AcceptAll);
        let mut ids = out.into_vec();
        ids.sort_unstable();
        // vertex 0 owns the first 5 edge slots in CSR order
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn e2v_expands_from_edge_destinations() {
        let g = star_plus_path();
        let ctx = Context::new(&g);
        // edge (0 -> 5) has destination 5, which expands to 6
        let e05 = g.edge_range(0).clone().find(|&e| g.edge_dest(e as u32) == 5).unwrap();
        let out = advance(&ctx, &Frontier::single(e05 as u32), AdvanceSpec::e2v(), &AcceptAll);
        assert_eq!(out.as_slice(), &[6]);
    }

    #[test]
    fn effect_only_advance_returns_empty() {
        let g = star_plus_path();
        let ctx = Context::new(&g);
        let out = advance(&ctx, &Frontier::single(0), AdvanceSpec::for_effect(), &AcceptAll);
        assert!(out.is_empty());
        assert_eq!(ctx.counters.edges(), 5);
    }

    #[test]
    fn tight_budget_degrades_lb_to_thread_mapped() {
        let g = star_plus_path();
        let input = Frontier::from_vec(vec![0, 5]);
        // {0, 5} expands 6 neighbors; a budget one byte short of the lb
        // workspace forces the rung without starving thread_mapped.
        let need = advance_workspace_bytes(2, 6, "load_balanced");
        let budget = Arc::new(gunrock_engine::budget::MemoryBudget::new(need - 1));
        let ctx = Context::new(&g).with_stats().with_budget(budget);
        let spec = AdvanceSpec::v2v().with_mode(AdvanceMode::LoadBalanced);
        let out = advance(&ctx, &input, spec, &AcceptAll);
        let mut v = out.into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4, 5, 6], "degraded advance is still correct");
        assert!(!ctx.is_poisoned(), "degrading is not a failure");
        assert_eq!(ctx.degrade_count(), 1);
        let stats = ctx.run_stats();
        assert_eq!(stats.degrades.len(), 1);
        assert_eq!(stats.degrades[0].from, "load_balanced");
        assert_eq!(stats.degrades[0].to, "thread_mapped");
        assert_eq!(stats.steps[0].strategy, "degraded:thread_mapped");
    }

    #[test]
    fn injected_stall_ignores_cancel_and_releases_on_watchdog_kill() {
        use gunrock_engine::faults::{FaultInjector, FaultPlan};
        use gunrock_engine::watchdog::Heartbeat;
        let g = star_plus_path();
        let plan = FaultPlan::none(11).with_rate(FaultKind::Stall, 1.0);
        let hb = Arc::new(Heartbeat::default());
        let ctx = Context::new(&g)
            .with_heartbeat(Arc::clone(&hb))
            .with_faults(Arc::new(FaultInjector::new(plan)));
        let killer = {
            let hb = Arc::clone(&hb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                hb.kill();
            })
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let start = Instant::now();
        let out = advance(&ctx, &Frontier::single(0), AdvanceSpec::v2v(), &AcceptAll);
        std::panic::set_hook(prev);
        killer.join().unwrap();
        assert!(out.is_empty());
        assert!(ctx.is_poisoned(), "a reaped stall poisons the run");
        assert!(start.elapsed() < Duration::from_secs(10), "kill released the stall");
        match ctx.take_failure() {
            Some(crate::error::GunrockError::OperatorPanic { payload, .. }) => {
                assert!(payload.contains("stall"), "{payload}");
            }
            other => panic!("expected a stall panic, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_short_circuits() {
        let g = star_plus_path();
        let ctx = Context::new(&g);
        let out = advance(&ctx, &Frontier::new(), AdvanceSpec::v2v(), &AcceptAll);
        assert!(out.is_empty());
        assert_eq!(ctx.counters.edges(), 0);
    }
}
