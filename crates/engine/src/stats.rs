//! Work counters and timing for the evaluation harness.
//!
//! The paper reports runtime (ms) and edge throughput (MTEPS = millions
//! of traversed edges per second); operators increment these counters so
//! primitives can report both without re-deriving traversal counts.

use crate::json::JsonBuilder;
use crate::pool::PoolStatsSnapshot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Cumulative work counters for one primitive execution. Cheap enough to
/// update per bulk step (not per element).
#[derive(Debug, Default)]
pub struct WorkCounters {
    /// Edges examined by advance steps (the numerator of MTEPS).
    pub edges_examined: AtomicU64,
    /// Elements processed by filter steps.
    pub elements_filtered: AtomicU64,
    /// Bulk-synchronous iterations executed.
    pub iterations: AtomicU64,
    /// Iterations run in pull (reverse) direction by the
    /// direction-optimized advance.
    pub pull_iterations: AtomicU64,
}

impl WorkCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to the edge-examination count.
    #[inline]
    pub fn add_edges(&self, n: u64) {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.edges_examined.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the filtered-element count.
    #[inline]
    pub fn add_filtered(&self, n: u64) {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.elements_filtered.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one completed iteration; `pull` marks reverse-direction.
    #[inline]
    pub fn add_iteration(&self, pull: bool) {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.iterations.fetch_add(1, Ordering::Relaxed);
        if pull {
            self.pull_iterations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the edge count.
    pub fn edges(&self) -> u64 {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.edges_examined.load(Ordering::Relaxed)
    }

    /// Snapshot of the iteration count.
    pub fn iters(&self) -> u64 {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.iterations.load(Ordering::Relaxed)
    }

    /// Snapshot of pull-direction iterations.
    pub fn pull_iters(&self) -> u64 {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.pull_iterations.load(Ordering::Relaxed)
    }
}

/// How an enact loop ended. Primitives report this alongside their
/// results so callers can tell a converged answer from a best-so-far
/// partial one (graceful degradation under execution guards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The frontier drained naturally; results are complete.
    #[default]
    Converged,
    /// The iteration cap tripped; results reflect the completed
    /// iterations only.
    IterationCapped,
    /// The wall-clock budget tripped; results are best-so-far.
    TimedOut,
    /// The cancel flag tripped; results are best-so-far.
    Cancelled,
    /// An operator failed (e.g. a functor panic) and the problem state
    /// is poisoned; results must not be read as meaningful.
    Failed,
}

impl RunOutcome {
    /// True when the run converged (the only complete outcome).
    pub fn is_converged(self) -> bool {
        self == RunOutcome::Converged
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunOutcome::Converged => "converged",
            RunOutcome::IterationCapped => "iteration-capped",
            RunOutcome::TimedOut => "timed-out",
            RunOutcome::Cancelled => "cancelled",
            RunOutcome::Failed => "failed",
        })
    }
}

/// Result of timing a primitive: wall time plus derived throughput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Measured wall time.
    pub elapsed: Duration,
    /// Edges examined during the measured interval.
    pub edges_examined: u64,
}

impl Timing {
    /// Runtime in milliseconds.
    pub fn millis(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }

    /// Millions of traversed edges per second, the paper's throughput
    /// metric. Returns 0 for zero-duration runs.
    pub fn mteps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.edges_examined as f64 / s / 1e6
        }
    }
}

// ---------------------------------------------------------------------------
// Per-operator instrumentation (the observability layer).
//
// The paper's evaluation (§6) is built on per-kernel runtimes and traversed
// edge counts; the global `WorkCounters` above cannot attribute work to a
// specific operator call or explain why the direction optimizer flipped.
// A `StatsSink` — when installed on a `Context` — collects one `StepRecord`
// per operator invocation. When no sink is installed the operators skip all
// timing (one `Option` check per bulk step), so the hot path stays at
// relaxed-atomic-counter cost.
// ---------------------------------------------------------------------------

/// Which of the three Gunrock operator families a step belongs to (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Frontier expansion over neighbor lists.
    Advance,
    /// Frontier compaction / validity culling.
    Filter,
    /// Per-element computation over a frontier.
    Compute,
}

impl OperatorKind {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            OperatorKind::Advance => "advance",
            OperatorKind::Filter => "filter",
            OperatorKind::Compute => "compute",
        }
    }
}

/// Traversal direction of an advance step, for the direction-optimized
/// primitives (push scatters from the frontier; pull gathers into
/// unvisited vertices).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepDirection {
    /// Forward/scatter traversal from the frontier.
    Push,
    /// Reverse/gather traversal into candidate vertices.
    Pull,
}

impl StepDirection {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            StepDirection::Push => "push",
            StepDirection::Pull => "pull",
        }
    }
}

/// One instrumented operator invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct StepRecord {
    /// Bulk-synchronous iteration this step ran in (0-based; advanced by
    /// the enactor via [`StatsSink::next_iteration`]).
    pub iteration: u32,
    /// Operator family.
    pub operator: OperatorKind,
    /// The workload-mapping strategy the dispatcher chose
    /// (e.g. `"thread_mapped"`, `"twc"`, `"auto:load_balanced"`,
    /// `"pull_sweep"`, `"culling"`).
    pub strategy: &'static str,
    /// Traversal direction; `None` for filter/compute steps.
    pub direction: Option<StepDirection>,
    /// Input frontier population. For push steps this is the frontier
    /// list length; for pull steps it is the in-frontier bitmap popcount
    /// — the same quantity, so the field is comparable across directions
    /// (gunrock-stats/v1 consumers previously saw the candidate count
    /// here for pull steps; that now lives in
    /// [`StepRecord::candidates_len`]).
    pub input_len: u64,
    /// Candidate vertices scanned by a pull-direction step (the
    /// unvisited sweep set) — distinct from the in-frontier population.
    /// Zero for push/filter/compute steps, which have no candidate set.
    pub candidates_len: u64,
    /// Distinct traversal lanes still live in this step's frontier, for
    /// the bit-parallel multi-source (`msbfs`) strategy: the popcount of
    /// the OR over every active vertex's lane word. Zero for
    /// single-source steps, which have no lane packing.
    pub lanes_active: u64,
    /// Output frontier length (0 for for-effect steps).
    pub output_len: u64,
    /// Edges examined by this step alone.
    pub edges_examined: u64,
    /// Wall-clock duration of the bulk step.
    pub duration: Duration,
}

/// A recorded direction-optimizer decision change, with the reason the
/// hysteresis tripped (Beamer-style alpha/beta comparison, §4.4 /
/// PAPERS.md).
#[derive(Clone, Debug, PartialEq)]
pub struct DirectionSwitch {
    /// Iteration at which the new direction took effect.
    pub iteration: u32,
    /// Direction before the switch.
    pub from: StepDirection,
    /// Direction after the switch.
    pub to: StepDirection,
    /// Human-readable trigger, e.g. the alpha/beta inequality that fired.
    pub reason: String,
}

/// What kind of recovery action the fault-tolerance layer took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryKind {
    /// A failed operator attempt was retried with the same strategy.
    Retry,
    /// A failing strategy was abandoned for the always-safe fallback
    /// (`load_balanced` -> `thread_mapped`).
    Fallback,
    /// A checkpoint write failed; the run continued without it.
    CheckpointFailed,
}

impl RecoveryKind {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryKind::Retry => "retry",
            RecoveryKind::Fallback => "fallback",
            RecoveryKind::CheckpointFailed => "checkpoint-failed",
        }
    }
}

/// One recovery action taken by the fault-tolerance layer: a retry, a
/// strategy fallback, or a tolerated checkpoint-write failure. Fault-free
/// runs record none (and the bench gate asserts exactly that).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// Iteration the recovery happened in.
    pub iteration: u32,
    /// Operator family that failed (or `"checkpoint"`).
    pub operator: &'static str,
    /// What the recovery layer did.
    pub kind: RecoveryKind,
    /// Strategy that failed.
    pub from_strategy: &'static str,
    /// Strategy used after recovery (same as `from_strategy` for a
    /// retry).
    pub to_strategy: &'static str,
    /// Human-readable trigger, e.g. the injected fault site.
    pub reason: String,
}

/// One rung taken on the degradation ladder: under memory-budget
/// pressure an enact loop trades a faster (memory-hungrier) execution
/// mode for a leaner one instead of failing — pull→push (dropping the
/// pull bitmaps), lb_batch→thread_mapped (dropping the balanced edge
/// partition), or an up-front strategy demotion. Distinct from a
/// [`RecoveryEvent`]: recoveries react to *faults*, degrades react to
/// *pressure*, and both ride in the stats/bench JSON so a budgeted run
/// explains exactly which cheaper path it took.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradeEvent {
    /// Iteration the degrade happened in.
    pub iteration: u32,
    /// Operator family (or loop) that degraded.
    pub operator: &'static str,
    /// Execution mode that was too expensive.
    pub from: &'static str,
    /// Leaner mode used instead.
    pub to: &'static str,
    /// Human-readable trigger, e.g. the bytes-needed vs headroom gap.
    pub reason: String,
}

/// Collecting sink for [`StepRecord`]s. Installed on a `Context` via
/// `with_stats()`; operators check for it with a single `Option`
/// dereference, so uninstrumented runs pay nothing beyond the existing
/// relaxed counters.
#[derive(Debug, Default)]
pub struct StatsSink {
    steps: Mutex<Vec<StepRecord>>,
    switches: Mutex<Vec<DirectionSwitch>>,
    recoveries: Mutex<Vec<RecoveryEvent>>,
    degrades: Mutex<Vec<DegradeEvent>>,
    iteration: AtomicU32,
}

impl StatsSink {
    /// Fresh, empty sink at iteration 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current bulk-synchronous iteration number.
    pub fn current_iteration(&self) -> u32 {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.iteration.load(Ordering::Relaxed)
    }

    /// Advances the iteration counter (called once per bulk-synchronous
    /// iteration by the enact loop).
    pub fn next_iteration(&self) {
        // ORDERING: Relaxed — monotonic telemetry counters; readers tolerate
        // momentary staleness.
        self.iteration.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one operator step, stamped with the current iteration.
    // one scalar per StepRecord field; a builder would cost more at
    // every operator call site than it saves here
    #[allow(clippy::too_many_arguments)]
    pub fn record_step(
        &self,
        operator: OperatorKind,
        strategy: &'static str,
        direction: Option<StepDirection>,
        input_len: u64,
        output_len: u64,
        edges_examined: u64,
        duration: Duration,
    ) {
        self.record_step_with_candidates(
            operator,
            strategy,
            direction,
            input_len,
            0,
            output_len,
            edges_examined,
            duration,
        );
    }

    /// Records one operator step that scanned a candidate set distinct
    /// from its input frontier (the pull direction): `input_len` is the
    /// in-frontier population (bitmap popcount), `candidates_len` the
    /// number of candidate vertices swept.
    #[allow(clippy::too_many_arguments)]
    pub fn record_step_with_candidates(
        &self,
        operator: OperatorKind,
        strategy: &'static str,
        direction: Option<StepDirection>,
        input_len: u64,
        candidates_len: u64,
        output_len: u64,
        edges_examined: u64,
        duration: Duration,
    ) {
        self.steps.lock().push(StepRecord {
            iteration: self.current_iteration(),
            operator,
            strategy,
            direction,
            input_len,
            candidates_len,
            lanes_active: 0,
            output_len,
            edges_examined,
            duration,
        });
    }

    /// Records one lane-packed multi-source operator step: like
    /// [`StatsSink::record_step_with_candidates`] but stamped with the
    /// number of traversal lanes still live in the input frontier, so
    /// the trace shows the amortization the `msbfs` strategy is buying
    /// (one sweep serving `lanes_active` traversals).
    #[allow(clippy::too_many_arguments)]
    pub fn record_step_lanes(
        &self,
        operator: OperatorKind,
        strategy: &'static str,
        direction: Option<StepDirection>,
        input_len: u64,
        lanes_active: u64,
        output_len: u64,
        edges_examined: u64,
        duration: Duration,
    ) {
        self.steps.lock().push(StepRecord {
            iteration: self.current_iteration(),
            operator,
            strategy,
            direction,
            input_len,
            candidates_len: 0,
            lanes_active,
            output_len,
            edges_examined,
            duration,
        });
    }

    /// Records a direction-optimizer switch, stamped with the current
    /// iteration.
    pub fn record_switch(&self, from: StepDirection, to: StepDirection, reason: String) {
        self.switches.lock().push(DirectionSwitch {
            iteration: self.current_iteration(),
            from,
            to,
            reason,
        });
    }

    /// Records one recovery action (retry, fallback, tolerated
    /// checkpoint failure), stamped with the current iteration.
    pub fn record_recovery(
        &self,
        operator: &'static str,
        kind: RecoveryKind,
        from_strategy: &'static str,
        to_strategy: &'static str,
        reason: String,
    ) {
        self.recoveries.lock().push(RecoveryEvent {
            iteration: self.current_iteration(),
            operator,
            kind,
            from_strategy,
            to_strategy,
            reason,
        });
    }

    /// Records one degradation-ladder rung taken under budget pressure,
    /// stamped with the current iteration.
    pub fn record_degrade(
        &self,
        operator: &'static str,
        from: &'static str,
        to: &'static str,
        reason: String,
    ) {
        self.degrades.lock().push(DegradeEvent {
            iteration: self.current_iteration(),
            operator,
            from,
            to,
            reason,
        });
    }

    /// Copies out everything recorded so far.
    ///
    /// The four clones are struct-literal temporaries, so all four
    /// guards overlap until the literal is built — that nests the locks
    /// in field order. Recorders only ever take one lock at a time, so
    /// the hierarchy below is the only multi-lock shape in this file.
    // LOCK-ORDER: stats::StatsSink.steps -> stats::StatsSink.switches
    // LOCK-ORDER: stats::StatsSink.steps -> stats::StatsSink.recoveries
    // LOCK-ORDER: stats::StatsSink.steps -> stats::StatsSink.degrades
    // LOCK-ORDER: stats::StatsSink.switches -> stats::StatsSink.recoveries
    // LOCK-ORDER: stats::StatsSink.switches -> stats::StatsSink.degrades
    // LOCK-ORDER: stats::StatsSink.recoveries -> stats::StatsSink.degrades
    pub fn snapshot(&self) -> RunStats {
        RunStats {
            steps: self.steps.lock().clone(),
            switches: self.switches.lock().clone(),
            recoveries: self.recoveries.lock().clone(),
            degrades: self.degrades.lock().clone(),
        }
    }
}

/// The full per-run trace: every operator step plus every
/// direction-optimizer switch, in execution order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// One record per instrumented operator invocation.
    pub steps: Vec<StepRecord>,
    /// Direction-optimizer decision changes.
    pub switches: Vec<DirectionSwitch>,
    /// Recovery actions taken by the fault-tolerance layer (empty on
    /// fault-free runs).
    pub recoveries: Vec<RecoveryEvent>,
    /// Degradation-ladder rungs taken under memory-budget pressure
    /// (empty on unbudgeted or comfortably-fitting runs).
    pub degrades: Vec<DegradeEvent>,
}

/// Clamps a serialized duration to a finite, non-negative value.
///
/// Rust's `Sum for f64` starts its fold at `-0.0`, so summing an empty
/// set of step durations yields `-0.0`, which the JSON writer renders
/// as the ugly (and schema-surprising) `-0`. Non-finite values cannot
/// arise from `Duration` but are clamped too so serialized durations
/// are *always* finite and `>= +0.0`.
pub fn sanitize_millis(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        0.0
    }
}

impl RunStats {
    /// Total edges examined across all recorded steps.
    pub fn edges_examined(&self) -> u64 {
        self.steps.iter().map(|s| s.edges_examined).sum()
    }

    /// Milliseconds spent in steps of the given operator kind. Always
    /// finite and non-negative (see [`sanitize_millis`]).
    pub fn operator_millis(&self, kind: OperatorKind) -> f64 {
        sanitize_millis(
            self.steps
                .iter()
                .filter(|s| s.operator == kind)
                .map(|s| s.duration.as_secs_f64() * 1e3)
                .sum(),
        )
    }

    /// Number of distinct iterations observed (highest stamp + 1).
    pub fn iterations(&self) -> u32 {
        self.steps.iter().map(|s| s.iteration + 1).max().unwrap_or(0)
    }

    /// Iterations containing at least one pull-direction advance.
    pub fn pull_iterations(&self) -> u32 {
        let mut iters: Vec<u32> = self
            .steps
            .iter()
            .filter(|s| s.direction == Some(StepDirection::Pull))
            .map(|s| s.iteration)
            .collect();
        iters.sort_unstable();
        iters.dedup();
        iters.len() as u32
    }

    /// Collapses the trace into the flat summary carried by bench
    /// `Measurement`s.
    pub fn summary(&self) -> RunStatsSummary {
        RunStatsSummary {
            iterations: self.iterations(),
            pull_iterations: self.pull_iterations(),
            edges_examined: self.edges_examined(),
            advance_millis: self.operator_millis(OperatorKind::Advance),
            filter_millis: self.operator_millis(OperatorKind::Filter),
            compute_millis: self.operator_millis(OperatorKind::Compute),
            wall_millis: 0.0,
            steps: self.steps.len() as u64,
            direction_switches: self.switches.len() as u64,
            recovery_events: self.recoveries.len() as u64,
            degrade_events: self.degrades.len() as u64,
            pool: PoolStatsSnapshot::default(),
        }
    }

    /// Serializes the full trace as a JSON object with `steps` and
    /// `switches` arrays (schema documented in DESIGN.md).
    pub fn write_json(&self, j: &mut JsonBuilder) {
        j.begin_object();
        j.key("steps");
        j.begin_array();
        for s in &self.steps {
            j.begin_object();
            j.field_u64("iteration", s.iteration as u64);
            j.field_str("operator", s.operator.name());
            j.field_str("strategy", s.strategy);
            match s.direction {
                Some(d) => j.field_str("direction", d.name()),
                None => j.field_null("direction"),
            }
            j.field_u64("input_len", s.input_len);
            j.field_u64("candidates_len", s.candidates_len);
            j.field_u64("lanes_active", s.lanes_active);
            j.field_u64("output_len", s.output_len);
            j.field_u64("edges_examined", s.edges_examined);
            j.field_f64("duration_ms", s.duration.as_secs_f64() * 1e3);
            j.end_object();
        }
        j.end_array();
        j.key("switches");
        j.begin_array();
        for sw in &self.switches {
            j.begin_object();
            j.field_u64("iteration", sw.iteration as u64);
            j.field_str("from", sw.from.name());
            j.field_str("to", sw.to.name());
            j.field_str("reason", &sw.reason);
            j.end_object();
        }
        j.end_array();
        j.key("recoveries");
        j.begin_array();
        for r in &self.recoveries {
            j.begin_object();
            j.field_u64("iteration", r.iteration as u64);
            j.field_str("operator", r.operator);
            j.field_str("kind", r.kind.name());
            j.field_str("from_strategy", r.from_strategy);
            j.field_str("to_strategy", r.to_strategy);
            j.field_str("reason", &r.reason);
            j.end_object();
        }
        j.end_array();
        j.key("degrades");
        j.begin_array();
        for d in &self.degrades {
            j.begin_object();
            j.field_u64("iteration", d.iteration as u64);
            j.field_str("operator", d.operator);
            j.field_str("from", d.from);
            j.field_str("to", d.to);
            j.field_str("reason", &d.reason);
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }

    /// The trace as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuilder::new();
        self.write_json(&mut j);
        j.finish()
    }
}

/// Flat aggregate of one run's trace: what bench measurements carry and
/// what `BENCH_pr2.json` rows are made of.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStatsSummary {
    /// Bulk-synchronous iterations observed.
    pub iterations: u32,
    /// Iterations that ran a pull-direction advance.
    pub pull_iterations: u32,
    /// Total edges examined.
    pub edges_examined: u64,
    /// Milliseconds spent in advance steps.
    pub advance_millis: f64,
    /// Milliseconds spent in filter steps.
    pub filter_millis: f64,
    /// Milliseconds spent in compute steps.
    pub compute_millis: f64,
    /// Wall time of the instrumented run itself, when captured via
    /// [`RunStatsSummary::with_wall_clock`] (0 when unknown). The
    /// per-operator millis above are guaranteed to sum to at most this
    /// once it is set — the instrumented run's own clock is the only
    /// wall time the trace can legitimately be compared against (the
    /// separately-averaged uninstrumented timings may be faster).
    pub wall_millis: f64,
    /// Total instrumented operator invocations.
    pub steps: u64,
    /// Direction-optimizer switches recorded.
    pub direction_switches: u64,
    /// Recovery actions (retries, fallbacks, tolerated checkpoint
    /// failures); provably zero on fault-free runs.
    pub recovery_events: u64,
    /// Degradation-ladder rungs taken under memory-budget pressure;
    /// zero on unbudgeted runs.
    pub degrade_events: u64,
    /// Buffer-pool counters of the run's context (zero-allocation
    /// advance telemetry).
    pub pool: PoolStatsSnapshot,
}

impl RunStatsSummary {
    /// Sum of the per-operator durations.
    pub fn operator_sum_millis(&self) -> f64 {
        self.advance_millis + self.filter_millis + self.compute_millis
    }

    /// Stamps the instrumented run's own wall time onto the summary and
    /// clamps the per-operator durations so their sum never exceeds it.
    /// Per-step timers and the outer wall clock are read independently,
    /// so accumulated clock granularity can push the operator sum
    /// slightly past the measured wall time; scaling back proportionally
    /// keeps the attribution while restoring the invariant
    /// `advance + filter + compute <= wall`.
    pub fn with_wall_clock(mut self, wall_millis: f64) -> Self {
        let wall = sanitize_millis(wall_millis);
        self.wall_millis = wall;
        let sum = self.operator_sum_millis();
        if wall > 0.0 && sum > wall {
            let k = wall / sum;
            self.advance_millis *= k;
            self.filter_millis *= k;
            self.compute_millis *= k;
        }
        self
    }

    /// Attaches the context's buffer-pool counters.
    pub fn with_pool(mut self, pool: PoolStatsSnapshot) -> Self {
        self.pool = pool;
        self
    }

    /// Serializes the summary's fields into the currently-open JSON
    /// object (caller owns `begin_object`/`end_object`).
    pub fn write_json_fields(&self, j: &mut JsonBuilder) {
        j.field_u64("iterations", self.iterations as u64);
        j.field_u64("pull_iterations", self.pull_iterations as u64);
        j.field_u64("edges_examined", self.edges_examined);
        j.field_f64("advance_millis", sanitize_millis(self.advance_millis));
        j.field_f64("filter_millis", sanitize_millis(self.filter_millis));
        j.field_f64("compute_millis", sanitize_millis(self.compute_millis));
        j.field_f64("wall_millis", sanitize_millis(self.wall_millis));
        j.field_u64("steps", self.steps);
        j.field_u64("direction_switches", self.direction_switches);
        j.field_u64("recovery_events", self.recovery_events);
        j.field_u64("degrade_events", self.degrade_events);
        j.field_u64("pool_allocations", self.pool.allocations);
        j.field_u64("pool_checkouts", self.pool.checkouts);
        j.field_u64("pool_releases", self.pool.releases);
        j.field_u64("pool_live_high_water", self.pool.live_high_water);
        j.field_u64("pool_bytes_live", self.pool.bytes_live);
        j.field_u64("pool_bytes_high_water", self.pool.bytes_high_water);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = WorkCounters::new();
        c.add_edges(10);
        c.add_edges(5);
        c.add_filtered(3);
        c.add_iteration(false);
        c.add_iteration(true);
        assert_eq!(c.edges(), 15);
        assert_eq!(c.iters(), 2);
        assert_eq!(c.pull_iters(), 1);
        assert_eq!(c.elements_filtered.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn mteps_math() {
        let t = Timing { elapsed: Duration::from_millis(100), edges_examined: 1_000_000 };
        assert!((t.mteps() - 10.0).abs() < 1e-9);
        assert!((t.millis() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_gives_zero_mteps() {
        let t = Timing { elapsed: Duration::ZERO, edges_examined: 5 };
        assert_eq!(t.mteps(), 0.0);
    }

    #[test]
    fn sink_stamps_iterations_and_aggregates() {
        let sink = StatsSink::new();
        sink.record_step(
            OperatorKind::Advance,
            "thread_mapped",
            Some(StepDirection::Push),
            4,
            9,
            20,
            Duration::from_millis(2),
        );
        sink.record_step(
            OperatorKind::Filter,
            "scan_compact",
            None,
            9,
            5,
            0,
            Duration::from_millis(1),
        );
        sink.next_iteration();
        sink.record_step(
            OperatorKind::Advance,
            "pull",
            Some(StepDirection::Pull),
            5,
            3,
            30,
            Duration::from_millis(4),
        );
        sink.record_switch(StepDirection::Push, StepDirection::Pull, "m_f > m_u/alpha".into());

        let stats = sink.snapshot();
        assert_eq!(stats.steps.len(), 3);
        assert_eq!(stats.steps[0].iteration, 0);
        assert_eq!(stats.steps[2].iteration, 1);
        assert_eq!(stats.edges_examined(), 50);
        assert_eq!(stats.iterations(), 2);
        assert_eq!(stats.pull_iterations(), 1);
        assert_eq!(stats.switches.len(), 1);
        assert_eq!(stats.switches[0].iteration, 1);

        let sum = stats.summary();
        assert_eq!(sum.steps, 3);
        assert_eq!(sum.direction_switches, 1);
        assert!((sum.advance_millis - 6.0).abs() < 1e-9);
        assert!((sum.filter_millis - 1.0).abs() < 1e-9);
        assert_eq!(sum.compute_millis, 0.0);
    }

    #[test]
    fn run_stats_json_shape() {
        let sink = StatsSink::new();
        sink.record_step(
            OperatorKind::Advance,
            "auto:load_balanced",
            Some(StepDirection::Push),
            1,
            2,
            3,
            Duration::from_micros(1500),
        );
        let json = sink.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""operator":"advance""#));
        assert!(json.contains(r#""strategy":"auto:load_balanced""#));
        assert!(json.contains(r#""direction":"push""#));
        assert!(json.contains(r#""duration_ms":1.5"#));
        assert!(json.contains(r#""switches":[]"#));
    }

    #[test]
    fn pull_steps_report_candidates_and_population_distinctly() {
        let sink = StatsSink::new();
        // a pull sweep: 5 in-frontier vertices, 90 unvisited candidates
        sink.record_step_with_candidates(
            OperatorKind::Advance,
            "pull_sweep",
            Some(StepDirection::Pull),
            5,
            90,
            12,
            40,
            Duration::from_millis(1),
        );
        // a push step has no candidate set
        sink.record_step(
            OperatorKind::Advance,
            "thread_mapped",
            Some(StepDirection::Push),
            12,
            30,
            80,
            Duration::from_millis(1),
        );
        let stats = sink.snapshot();
        assert_eq!(stats.steps[0].input_len, 5, "in-frontier population, not candidates");
        assert_eq!(stats.steps[0].candidates_len, 90);
        assert_eq!(stats.steps[1].candidates_len, 0);
        let json = stats.to_json();
        assert!(json.contains(r#""candidates_len":90"#), "{json}");
    }

    #[test]
    fn msbfs_steps_report_lanes_active() {
        let sink = StatsSink::new();
        sink.record_step_lanes(
            OperatorKind::Advance,
            "msbfs",
            Some(StepDirection::Push),
            12,
            64,
            30,
            100,
            Duration::from_millis(1),
        );
        // single-source steps carry no lane packing
        sink.record_step(
            OperatorKind::Advance,
            "thread_mapped",
            Some(StepDirection::Push),
            30,
            50,
            200,
            Duration::from_millis(1),
        );
        let stats = sink.snapshot();
        assert_eq!(stats.steps[0].lanes_active, 64);
        assert_eq!(stats.steps[0].strategy, "msbfs");
        assert_eq!(stats.steps[1].lanes_active, 0);
        let json = stats.to_json();
        assert!(json.contains(r#""lanes_active":64"#), "{json}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let stats = StatsSink::new().snapshot();
        assert_eq!(stats.iterations(), 0);
        assert_eq!(stats.summary(), RunStatsSummary::default());
        assert_eq!(
            stats.to_json(),
            r#"{"steps":[],"switches":[],"recoveries":[],"degrades":[]}"#
        );
    }

    #[test]
    fn recoveries_are_stamped_counted_and_exported() {
        let sink = StatsSink::new();
        sink.next_iteration();
        sink.record_recovery(
            "advance",
            RecoveryKind::Retry,
            "load_balanced",
            "load_balanced",
            "injected alloc failure".into(),
        );
        sink.record_recovery(
            "advance",
            RecoveryKind::Fallback,
            "load_balanced",
            "thread_mapped",
            "retries exhausted".into(),
        );
        let stats = sink.snapshot();
        assert_eq!(stats.recoveries.len(), 2);
        assert_eq!(stats.recoveries[0].iteration, 1);
        assert_eq!(stats.recoveries[0].kind, RecoveryKind::Retry);
        assert_eq!(stats.summary().recovery_events, 2);
        let json = stats.to_json();
        assert!(json.contains(r#""kind":"retry""#), "{json}");
        assert!(json.contains(r#""to_strategy":"thread_mapped""#), "{json}");
    }

    #[test]
    fn empty_operator_sums_serialize_as_positive_zero() {
        // Sum over an empty f64 iterator is -0.0; the summary and the
        // JSON export must never leak a "-0" (satellite S1 regression).
        let sink = StatsSink::new();
        sink.record_step(
            OperatorKind::Advance,
            "serial",
            Some(StepDirection::Push),
            1,
            1,
            1,
            Duration::from_millis(1),
        );
        let stats = sink.snapshot();
        // no compute steps recorded: the raw fold would be -0.0
        let compute = stats.operator_millis(OperatorKind::Compute);
        assert!(compute.is_finite() && compute.is_sign_positive());
        let sum = stats.summary();
        for v in [sum.advance_millis, sum.filter_millis, sum.compute_millis, sum.wall_millis] {
            assert!(v.is_finite() && v >= 0.0 && v.is_sign_positive(), "got {v:?}");
        }
        let mut j = JsonBuilder::new();
        j.begin_object();
        sum.write_json_fields(&mut j);
        j.end_object();
        let json = j.finish();
        assert!(!json.contains("-0"), "negative zero leaked into JSON: {json}");
        assert!(json.contains(r#""compute_millis":0"#), "{json}");
    }

    #[test]
    fn sanitize_millis_clamps_everything_unrepresentable() {
        assert_eq!(sanitize_millis(-0.0).to_string(), "0");
        assert_eq!(sanitize_millis(-3.5), 0.0);
        assert_eq!(sanitize_millis(f64::NAN), 0.0);
        assert_eq!(sanitize_millis(f64::INFINITY), 0.0);
        assert_eq!(sanitize_millis(2.25), 2.25);
    }

    #[test]
    fn operator_sum_never_exceeds_wall_time() {
        // the SSSP/roadnet anomaly: per-step timers summed past the
        // run's wall clock; with_wall_clock must scale them back
        let sum = RunStatsSummary {
            advance_millis: 9.11,
            filter_millis: 1.0,
            compute_millis: 0.5,
            ..Default::default()
        }
        .with_wall_clock(8.68);
        assert_eq!(sum.wall_millis, 8.68);
        assert!(sum.operator_sum_millis() <= sum.wall_millis + 1e-9);
        // proportions preserved
        assert!((sum.advance_millis / sum.filter_millis - 9.11).abs() < 1e-9);

        // a sum already under the wall is left untouched
        let ok =
            RunStatsSummary { advance_millis: 2.0, ..Default::default() }.with_wall_clock(10.0);
        assert_eq!(ok.advance_millis, 2.0);
        assert_eq!(ok.wall_millis, 10.0);

        // a negative/invalid wall clock is clamped, not propagated
        let bad =
            RunStatsSummary { advance_millis: 2.0, ..Default::default() }.with_wall_clock(-1.0);
        assert_eq!(bad.wall_millis, 0.0);
        assert_eq!(bad.advance_millis, 2.0);
    }

    #[test]
    fn pool_counters_ride_along_in_the_summary() {
        let pool = PoolStatsSnapshot {
            allocations: 3,
            checkouts: 10,
            releases: 9,
            live: 1,
            live_high_water: 4,
            bytes_live: 512,
            bytes_high_water: 4096,
        };
        let sum = RunStatsSummary::default().with_pool(pool);
        assert_eq!(sum.pool, pool);
        let mut j = JsonBuilder::new();
        j.begin_object();
        sum.write_json_fields(&mut j);
        j.end_object();
        let json = j.finish();
        assert!(json.contains(r#""pool_allocations":3"#), "{json}");
        assert!(json.contains(r#""pool_bytes_high_water":4096"#), "{json}");
    }

    #[test]
    fn failed_outcome_is_partial_and_displays() {
        assert!(!RunOutcome::Failed.is_converged());
        assert_eq!(RunOutcome::Failed.to_string(), "failed");
    }
}
