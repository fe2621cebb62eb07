//! The operator frame (DESIGN §7): the one place an operator launch
//! happens.
//!
//! Every advance, filter and compute entry point — and every pass a
//! primitive runs as a named compute step — hands its body to
//! [`launch`], which owns what surrounds it:
//!
//! * the racecheck phase boundary (a kernel launch);
//! * panic isolation: a panic inside the body (a functor bug, an
//!   injected fault, a budget denial) becomes a structured
//!   [`GunrockError`], poisons the context and returns `None`; a context
//!   already poisoned skips the body;
//! * the watchdog heartbeat, ticked at every launch;
//! * the operator's fault site (`maybe_panic`), and the `advance:stall`
//!   site for the two operators that have one;
//! * the filtered-elements counter for filters;
//! * the edge-counter delta, the timer (taken only when a stats sink is
//!   installed) and exactly one [`StepRecord`] per launch, whose fields
//!   the operator reports *after* its body ran.
//!
//! Inside a body, [`AbortPoll`] is the one cooperative cancel/deadline
//! poll of a long loop.

use crate::context::Context;
use crate::error::{panic_payload_string, GunrockError};
use gunrock_engine::budget::BudgetDenied;
use gunrock_engine::faults::{FaultInjector, FaultKind};
use gunrock_engine::stats::{OperatorKind, StepDirection, StepRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Work units (edges scanned, or items culled) between two cooperative
/// abort polls inside one operator loop: frequent enough that a deadline
/// or cancel lands within microseconds, rare enough to stay invisible in
/// the loop.
const ABORT_POLL: u64 = 4096;

/// Emergency release for an injected stall running without a watchdog:
/// keeps a misconfigured chaos test from hanging a suite forever.
const STALL_HARD_CAP: Duration = Duration::from_secs(60);

/// What one launch is: its operator family and the fault site it
/// consults.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// An advance; `stall` adds the `advance:stall` site.
    Advance { site: &'static str, stall: bool },
    /// A filter over `input` elements, credited to the filtered counter.
    Filter { site: &'static str, input: u64 },
    /// A compute pass; a primitive's own passes consult no site.
    Compute { site: Option<&'static str> },
}

/// The step record's fields only the operator knows, reported after its
/// body ran.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Report {
    pub(crate) strategy: &'static str,
    pub(crate) direction: Option<StepDirection>,
    pub(crate) input: u64,
    pub(crate) output: u64,
    /// Candidate vertices a pull-direction step swept.
    pub(crate) candidates: u64,
    /// Traversal lanes live in a lane-packed step's input.
    pub(crate) lanes: u64,
}

impl Report {
    /// A step with no candidate set and no lane packing.
    pub(crate) const fn new(
        strategy: &'static str,
        direction: Option<StepDirection>,
        input: u64,
        output: u64,
    ) -> Report {
        Report { strategy, direction, input, output, candidates: 0, lanes: 0 }
    }
}

/// Launches one operator: runs `body` inside the frame (module docs) and
/// returns its value, or `None` when the context was already poisoned
/// or the body panicked (the context is then poisoned). `report` runs
/// only when a stats sink is installed, after the body, and gives the
/// step record's fields.
#[inline]
pub(crate) fn launch<T>(
    ctx: &Context<'_>,
    op: Op,
    body: impl FnOnce() -> T,
    report: impl FnOnce(&T) -> Report,
) -> Option<T> {
    // Kernel-launch boundary for the racecheck phase ledger (no-op
    // without the feature).
    gunrock_engine::racecheck::begin_phase();
    // Near-zero-cost instrumentation: one Option check on the fast path;
    // the timer only exists when a sink is installed.
    let timer = ctx.sink().map(|_| (Instant::now(), ctx.counters.edges()));
    let (kind, site, stall, filtered) = match op {
        Op::Advance { site, stall } => (OperatorKind::Advance, Some(site), stall, None),
        Op::Filter { site, input } => (OperatorKind::Filter, Some(site), false, Some(input)),
        Op::Compute { site } => (OperatorKind::Compute, site, false, None),
    };
    let out = isolated(ctx, kind.name(), || {
        if let (Some(inj), Some(site)) = (ctx.injector(), site) {
            inj.maybe_panic(site);
            if stall {
                stall_if_injected(ctx, inj);
            }
        }
        if let Some(input) = filtered {
            ctx.counters.add_filtered(input);
        }
        body()
    })?;
    if let (Some((start, edges0)), Some(sink)) = (timer, ctx.sink()) {
        let r = report(&out);
        sink.record_step(StepRecord {
            iteration: sink.current_iteration(),
            operator: kind,
            strategy: r.strategy,
            direction: r.direction,
            input_len: r.input,
            candidates_len: r.candidates,
            lanes_active: r.lanes,
            output_len: r.output,
            edges_examined: ctx.counters.edges() - edges0,
            duration: start.elapsed(),
        });
    }
    Some(out)
}

/// The cooperative cancel/deadline poll of one operator loop (one per
/// task): [`Context::abort_mid_operator`] once every [`ABORT_POLL`] work
/// units. A raised flag truncates the loop; the enact loop's next guard
/// check reports the trip and discards the partial output. Truncation
/// is suppressed while a checkpoint policy is active, so snapshots are
/// only cut at consistent operator boundaries.
pub(crate) struct AbortPoll<'c, 'g> {
    ctx: &'c Context<'g>,
    next: u64,
}

impl<'c, 'g> AbortPoll<'c, 'g> {
    /// The poll of a loop about to start, or `None` when an abort is
    /// already requested and the loop should not start at all.
    #[inline]
    pub(crate) fn start(ctx: &'c Context<'g>) -> Option<Self> {
        (!ctx.abort_mid_operator()).then_some(AbortPoll { ctx, next: ABORT_POLL })
    }

    /// Whether the loop should stop, `done` work units in: polls the
    /// context once every [`ABORT_POLL`] units.
    #[inline]
    pub(crate) fn stop(&mut self, done: u64) -> bool {
        if done < self.next {
            return false;
        }
        self.next = done + ABORT_POLL;
        self.ctx.abort_mid_operator()
    }
}

/// The `advance:stall` chaos site (push advances and gathers over a
/// bitmap's clear bits, a traversal's pull level): a
/// fault here simulates the failure mode the watchdog exists for — an
/// operator that stops making progress AND is deaf to cooperative
/// cancellation (so the cancel flag the watchdog raises in its first
/// escalation is deliberately ignored). The stall releases only when the
/// watchdog escalates to a kill, or at a hard cap that keeps
/// watchdog-less runs from hanging a test suite forever. Either way it
/// ends in a panic so the run poisons and reports instead of returning
/// fabricated output.
fn stall_if_injected(ctx: &Context<'_>, inj: &FaultInjector) {
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

impl Context<'_> {
    /// Runs an enact-loop *setup* step — pooled checkouts that happen
    /// between operators, like rebuilding a visited bitmap or
    /// densifying a pull frontier — under the same panic isolation as
    /// operator launches. A pool denial (a real budget denial or an
    /// injected `pool-alloc` fault) poisons the context and returns
    /// `None`; the caller skips the dependent work and the run ends
    /// `Failed` instead of the panic escaping the enactor.
    pub fn isolated_setup<T>(
        &self,
        operator: &'static str,
        body: impl FnOnce() -> T,
    ) -> Option<T> {
        isolated(self, operator, body)
    }
}

/// Runs `body` under `catch_unwind`.
///
/// Returns `None` — without running `body` — when the context is
/// already poisoned (a failed run must not keep executing functors on
/// inconsistent state), and `None` after poisoning the context when
/// `body` panics. The `AssertUnwindSafe` is sound here because a
/// poisoned context is never read as a result: the enact loop discards
/// all state the moment the guard reports `Failed`.
fn isolated<T>(
    ctx: &Context<'_>,
    operator: &'static str,
    body: impl FnOnce() -> T,
) -> Option<T> {
    if ctx.is_poisoned() {
        return None;
    }
    // Operator entry doubles as a watchdog heartbeat: a job making any
    // bulk-synchronous progress keeps ticking even between iterations.
    ctx.tick_heartbeat();
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(out) => Some(out),
        Err(payload) => {
            // A pool checkout denied by the memory budget unwinds as a
            // typed `BudgetDenied` payload (`panic_any` in `take_*`);
            // surfacing it here as a structured `BudgetExceeded` spares
            // all 80-odd take/put call sites from Result plumbing while
            // the caller still sees *budget*, not "some panic".
            let iteration = match ctx.sink() {
                Some(sink) => sink.current_iteration(),
                None => ctx.counters.iters() as u32,
            };
            let err = match payload.downcast_ref::<BudgetDenied>() {
                Some(denied) => GunrockError::BudgetExceeded {
                    operator,
                    iteration,
                    requested: denied.requested,
                    reserved: denied.reserved,
                    limit: denied.limit,
                },
                None => GunrockError::OperatorPanic {
                    operator,
                    iteration,
                    payload: panic_payload_string(payload.as_ref()),
                },
            };
            ctx.poison(err);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, GraphBuilder};

    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panics_poison_and_preserve_payload() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        let out: Option<u32> = quiet(|| isolated(&ctx, "advance", || panic!("functor bug")));
        assert_eq!(out, None);
        assert!(ctx.is_poisoned());
        match ctx.take_failure() {
            Some(GunrockError::OperatorPanic { operator, payload, .. }) => {
                assert_eq!(operator, "advance");
                assert_eq!(payload, "functor bug");
            }
            other => panic!("unexpected failure {other:?}"),
        }
    }

    #[test]
    fn poisoned_context_skips_the_body() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        quiet(|| isolated(&ctx, "filter", || panic!("first")));
        let ran = std::cell::Cell::new(false);
        let out = isolated(&ctx, "compute", || ran.set(true));
        assert_eq!(out, None);
        assert!(!ran.get(), "poisoned context must not run further operators");
    }

    #[test]
    fn budget_denials_surface_as_budget_exceeded_not_operator_panic() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        let denied = BudgetDenied { requested: 4096, reserved: 512, limit: 1024 };
        let out: Option<()> =
            quiet(|| isolated(&ctx, "advance", || std::panic::panic_any(denied)));
        assert_eq!(out, None);
        match ctx.take_failure() {
            Some(GunrockError::BudgetExceeded {
                operator, requested, reserved, limit, ..
            }) => {
                assert_eq!(operator, "advance");
                assert_eq!((requested, reserved, limit), (4096, 512, 1024));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn success_passes_through() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        assert_eq!(isolated(&ctx, "compute", || 42), Some(42));
        assert!(!ctx.is_poisoned());
    }

    #[test]
    fn a_launch_records_one_step_from_what_its_body_left() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g).with_stats();
        let body = || {
            ctx.counters.add_edges(5);
            vec![1u32, 2]
        };
        let report = |kept: &Vec<u32>| Report {
            lanes: 3,
            ..Report::new("t", None, 9, kept.len() as u64)
        };
        let out = launch(&ctx, Op::Filter { site: "filter", input: 9 }, body, report);
        assert_eq!(out, Some(vec![1, 2]));
        assert_eq!(
            ctx.counters.elements_filtered.load(std::sync::atomic::Ordering::Relaxed),
            9
        );
        let steps = ctx.run_stats().steps;
        assert_eq!(steps.len(), 1);
        let s = &steps[0];
        assert_eq!(
            (s.operator, s.strategy, s.input_len, s.output_len),
            (OperatorKind::Filter, "t", 9, 2)
        );
        assert_eq!((s.edges_examined, s.lanes_active, s.candidates_len), (5, 3, 0));
    }

    #[test]
    fn the_abort_poll_asks_once_per_cadence() {
        use crate::policy::RunPolicy;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let cancel = Arc::new(AtomicBool::new(true));
        let policy = RunPolicy { cancel: Some(Arc::clone(&cancel)), ..RunPolicy::default() };
        let ctx = Context::new(&g).with_policy(policy);
        assert!(AbortPoll::start(&ctx).is_none(), "a raised flag skips the loop");
        cancel.store(false, Ordering::Relaxed);
        let mut poll = AbortPoll::start(&ctx).expect("no abort yet");
        cancel.store(true, Ordering::Relaxed);
        assert!(!poll.stop(ABORT_POLL - 1), "no poll before the cadence");
        assert!(poll.stop(ABORT_POLL));
    }
}
