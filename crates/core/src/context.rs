//! Execution context shared by all operators: graph views, engine
//! configuration, and work counters. The analog of Gunrock's per-problem
//! `GraphSlice` + kernel launch settings.

use crate::error::GunrockError;
use crate::policy::{CheckpointPolicy, RetryPolicy, RunGuard, RunPolicy};
use gunrock_engine::budget::MemoryBudget;
use gunrock_engine::checkpoint::Checkpoint;
use gunrock_engine::config::EngineConfig;
use gunrock_engine::faults::{FaultInjector, FaultKind};
use gunrock_engine::frontier::Frontier;
use gunrock_engine::pool::BufferPool;
use gunrock_engine::stats::{RecoveryKind, RunOutcome, RunStats, StatsSink, WorkCounters};
use gunrock_engine::watchdog::Heartbeat;
use gunrock_graph::Csr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything an operator needs to run: the forward CSR, an optional
/// reverse CSR (CSC) for pull-based traversal, engine knobs, and
/// counters.
pub struct Context<'g> {
    /// Forward graph (out-edges).
    pub graph: &'g Csr,
    /// Reverse graph (in-edges); required for pull advance on directed
    /// graphs. For undirected (symmetric) graphs, pass the forward graph.
    pub reverse: Option<&'g Csr>,
    /// Engine configuration (warp/CTA sizes, LB threshold).
    pub config: EngineConfig,
    /// Work counters accumulated across all operators.
    pub counters: WorkCounters,
    /// Execution bounds every enact loop honors (default: unbounded).
    pub policy: RunPolicy,
    /// Retry bounds for recoverable operator failures (default: fall
    /// back immediately, no retries).
    pub retry: RetryPolicy,
    /// Optional per-operator instrumentation sink. `None` (the default)
    /// keeps operators on the fast path: one `Option` check, no timers.
    sink: Option<StatsSink>,
    /// Size-classed scratch/frontier buffer pool (the zero-allocation
    /// advance path): operators check out degree/offset/output buffers
    /// here instead of allocating per iteration, and enact loops recycle
    /// retired frontiers through [`Context::recycle`]. Behind an `Arc`
    /// so a serving layer can share one pool across many per-request
    /// contexts ([`Context::with_shared_pool`]); single-run contexts own
    /// a private pool.
    pool: Arc<BufferPool>,
    /// Optional iteration-boundary checkpointing.
    checkpoints: Option<CheckpointPolicy>,
    /// Optional deterministic fault injector (chaos testing).
    injector: Option<Arc<FaultInjector>>,
    /// Optional watchdog heartbeat: ticked at every operator entry and
    /// iteration boundary so an external reaper can tell a slow job from
    /// a wedged one.
    heartbeat: Option<Arc<Heartbeat>>,
    /// Degradation-ladder rungs taken this run. Counted even without a
    /// stats sink so a serving layer can cheaply bump its `degraded`
    /// metric; the full per-event trace additionally lands in the sink
    /// when one is installed.
    degrades: AtomicU64,
    /// Set when an operator failed; once poisoned, every guard check
    /// returns [`RunOutcome::Failed`] so the enact loop stops at the
    /// next operator boundary and the partial state is never read as a
    /// complete result.
    poisoned: AtomicBool,
    /// The first failure that poisoned the run.
    failure: Mutex<Option<GunrockError>>,
    /// Wall-clock deadline armed by [`Context::guard`], checked by
    /// long-running operators *between batches* together with the cancel
    /// flag via [`Context::abort_requested`]. An aborted operator
    /// returns a truncated (partial) output; the enact loop's next guard
    /// check reports the trip and discards it, so frontier state handed
    /// to the caller is never half-updated.
    deadline: Mutex<Option<Instant>>,
}

impl<'g> Context<'g> {
    /// Context over a forward graph with default configuration.
    pub fn new(graph: &'g Csr) -> Self {
        Context {
            graph,
            reverse: None,
            config: EngineConfig::default(),
            counters: WorkCounters::new(),
            policy: RunPolicy::default(),
            retry: RetryPolicy::default(),
            sink: None,
            pool: Arc::new(BufferPool::new()),
            checkpoints: None,
            injector: None,
            heartbeat: None,
            degrades: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            failure: Mutex::new(None),
            deadline: Mutex::new(None),
        }
    }

    /// Attaches a reverse graph enabling pull traversal. For symmetric
    /// graphs the forward graph doubles as its own reverse.
    pub fn with_reverse(mut self, reverse: &'g Csr) -> Self {
        self.reverse = Some(reverse);
        self
    }

    /// Overrides engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches execution bounds (iteration cap, wall-clock budget,
    /// cancel flag) that every primitive's enact loop will honor.
    pub fn with_policy(mut self, policy: RunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a [`StatsSink`]: every subsequent operator call records a
    /// timed `StepRecord`, retrievable with [`Context::run_stats`].
    pub fn with_stats(mut self) -> Self {
        self.sink = Some(StatsSink::new());
        self
    }

    /// Sets the retry bounds for recoverable operator failures.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables iteration-boundary checkpointing per `policy`.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoints = Some(policy);
        self
    }

    /// Installs a deterministic fault injector: operators will consult
    /// it for injected panics and simulated allocation failures. The
    /// context's *private* pool also picks it up for the `pool:alloc`
    /// site; a pool installed later via [`Self::with_shared_pool`]
    /// carries (or omits) its own injector.
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        if let Some(pool) = Arc::get_mut(&mut self.pool) {
            pool.install_injector(Arc::clone(&injector));
        }
        self.injector = Some(injector);
        self
    }

    /// Caps outstanding pool bytes at `budget`'s limit. Installs onto
    /// the context's *private* pool: a denied checkout surfaces as a
    /// structured [`GunrockError::BudgetExceeded`] instead of an
    /// allocator abort, and enact loops probe the budget's headroom to
    /// degrade to leaner strategies before hitting the wall. A pool
    /// installed later via [`Self::with_shared_pool`] carries its own
    /// budget (built with `BufferPool::with_budget`).
    pub fn with_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        if let Some(pool) = Arc::get_mut(&mut self.pool) {
            pool.install_budget(budget);
        }
        self
    }

    /// Attaches a watchdog heartbeat: the context ticks it at every
    /// operator entry and iteration boundary, and honors its kill flag
    /// as an abort request.
    pub fn with_heartbeat(mut self, heartbeat: Arc<Heartbeat>) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// Shares an existing buffer pool instead of owning a private one.
    /// A long-lived service builds one pool at startup and hands it to
    /// every per-request context, so steady-state requests recycle each
    /// other's buffers instead of growing fresh pools.
    pub fn with_shared_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The instrumentation sink, if one is installed.
    #[inline]
    pub fn sink(&self) -> Option<&StatsSink> {
        self.sink.as_ref()
    }

    /// The context's buffer pool. Operators use it for scratch and
    /// output buffers; benchmarks read its stats.
    #[inline]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The memory budget charged by this context's pool, if any.
    #[inline]
    pub fn budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.pool.budget()
    }

    /// The watchdog heartbeat, if one is attached.
    #[inline]
    pub fn heartbeat(&self) -> Option<&Arc<Heartbeat>> {
        self.heartbeat.as_ref()
    }

    /// Ticks the watchdog heartbeat (no-op without one). Called at
    /// operator entry and iteration boundaries; operators with long
    /// internal chunk loops may also tick between batches.
    #[inline]
    pub fn tick_heartbeat(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.tick();
        }
    }

    /// True once the watchdog has escalated this job from stalled to
    /// killed. Folded into [`Self::abort_requested`].
    #[inline]
    pub fn watchdog_killed(&self) -> bool {
        self.heartbeat.as_ref().is_some_and(|hb| hb.is_killed())
    }

    /// Records one degradation-ladder rung: bumps the always-on degrade
    /// counter and, when instrumented, appends the full
    /// [`gunrock_engine::stats::DegradeEvent`] to the trace.
    pub fn record_degrade(
        &self,
        operator: &'static str,
        from: &'static str,
        to: &'static str,
        reason: String,
    ) {
        // ORDERING: Relaxed — monotonic telemetry counter.
        self.degrades.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.record_degrade(operator, from, to, reason);
        }
    }

    /// Degradation-ladder rungs taken so far this run (counted with or
    /// without a stats sink).
    #[inline]
    pub fn degrade_count(&self) -> u64 {
        // ORDERING: Relaxed — monotonic telemetry counter.
        self.degrades.load(Ordering::Relaxed)
    }

    /// Returns a retired frontier's storage to the pool so the next
    /// advance reuses it (ping-pong double buffering in enact loops):
    /// `ctx.recycle(std::mem::replace(&mut frontier, next))`.
    #[inline]
    pub fn recycle(&self, f: Frontier) {
        self.pool.put_u32(f.into_vec());
    }

    /// Marks the end of one bulk-synchronous iteration: bumps the global
    /// iteration counters and (when instrumented) the sink's iteration
    /// stamp. Operators call this instead of touching the counters
    /// directly so the trace and the counters can't drift apart.
    #[inline]
    pub fn end_iteration(&self, pull: bool) {
        self.counters.add_iteration(pull);
        self.tick_heartbeat();
        if let Some(sink) = &self.sink {
            sink.next_iteration();
        }
    }

    /// Snapshot of the recorded trace; empty when no sink is installed.
    pub fn run_stats(&self) -> RunStats {
        self.sink.as_ref().map(StatsSink::snapshot).unwrap_or_default()
    }

    /// Arms a guard for one enactment, starting its wall clock.
    /// [`Enactment::arm`](crate::enact::Enactment::arm) calls this once
    /// per run and checks the guard at the top of every bulk-synchronous
    /// step. The returned
    /// [`ContextGuard`] layers poison detection over the plain
    /// [`RunGuard`]: once an operator has failed, every check returns
    /// [`RunOutcome::Failed`].
    ///
    /// Arming also publishes the wall-clock deadline so long-running
    /// operators can honor the budget *between batches* via
    /// [`Context::deadline_exceeded`], not just at iteration tops.
    pub fn guard(&self) -> ContextGuard<'_> {
        let inner = self.policy.guard();
        if let Ok(mut slot) = self.deadline.lock() {
            *slot = self.policy.wall_clock_budget.map(|budget| Instant::now() + budget);
        }
        ContextGuard { inner, poisoned: &self.poisoned }
    }

    /// True when the wall-clock budget armed by the current enactment
    /// has been exceeded. Checked by the load-balanced advance between
    /// batches so one huge advance cannot blow far past `--timeout-ms`.
    pub fn deadline_exceeded(&self) -> bool {
        match self.deadline.lock() {
            Ok(slot) => slot.map(|d| Instant::now() >= d).unwrap_or(false),
            Err(_) => false,
        }
    }

    /// True when the policy's cooperative cancel flag has been raised.
    pub fn cancel_requested(&self) -> bool {
        // ORDERING: Acquire — pairs with the canceller's Release store; any
        // state it published before raising the flag is visible here.
        self.policy.cancel.as_ref().map(|f| f.load(Ordering::Acquire)).unwrap_or(false)
    }

    /// True when the current enactment should stop as soon as possible:
    /// the cancel flag is raised or the armed deadline has passed.
    /// Long-running operators poll this inside their chunk loops (pull
    /// advance, culling filter, load-balanced push batches) and bail out
    /// with a truncated output; the operator's partial result is then
    /// discarded when the enact loop's guard reports `Cancelled` /
    /// `TimedOut` at the next boundary. Without these mid-operator
    /// checks, an abort on a bulk graph could overshoot by a whole
    /// operator launch.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        self.cancel_requested() || self.deadline_exceeded() || self.watchdog_killed()
    }

    /// True when an operator may *truncate* its output in response to
    /// [`Self::abort_requested`]. Truncation drops frontier items on the
    /// floor, which is fine for a run that is about to throw its state
    /// away — but a run with a checkpoint policy has promised resumable
    /// iteration-boundary snapshots, and a truncated operator would make
    /// every later boundary inconsistent (the dropped items exist in no
    /// frontier, so a resumed run would silently never visit them).
    /// With checkpointing active, operators run to completion and the
    /// abort lands at the next boundary instead: drain latency is traded
    /// for snapshot soundness.
    #[inline]
    pub fn abort_mid_operator(&self) -> bool {
        self.checkpoints.is_none() && self.abort_requested()
    }

    /// The fault injector, if one is installed.
    #[inline]
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_deref()
    }

    /// The checkpoint policy, if checkpointing is enabled.
    pub fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.checkpoints.as_ref()
    }

    /// True when a periodic checkpoint is due after `completed`
    /// iterations. One branch when checkpointing is disabled.
    #[inline]
    pub fn checkpoint_due(&self, completed: u32) -> bool {
        self.checkpoints.as_ref().map(|p| p.due(completed)).unwrap_or(false)
    }

    /// Writes `ckpt` into the checkpoint directory (created on demand)
    /// as `<primitive>.ckpt`, atomically. A write failure never kills
    /// the run: it is recorded as a `checkpoint-failed` RecoveryEvent
    /// (when instrumented) and the enactment continues.
    ///
    /// With an io fault plan installed, the injector site
    /// `checkpoint:rename` simulates a process crash *between* the
    /// tmp-file fsync and the atomic rename — the window the tmp+rename
    /// protocol exists for. The previous snapshot survives untouched,
    /// so resumability is never lost to a crashed save.
    pub fn save_checkpoint(&self, ckpt: &Checkpoint) {
        let Some(policy) = &self.checkpoints else { return };
        let path = policy.path(ckpt.primitive());
        let crash_at_rename = self
            .injector()
            .is_some_and(|inj| inj.should_fail(FaultKind::Io, "checkpoint:rename"));
        let result = std::fs::create_dir_all(&policy.dir)
            .map_err(gunrock_engine::checkpoint::CheckpointError::Io)
            .and_then(|()| {
                if crash_at_rename {
                    ckpt.save_crash_before_rename(&path)
                } else {
                    ckpt.save(&path)
                }
            });
        if let Err(e) = result {
            if let Some(sink) = self.sink() {
                sink.record_recovery(
                    "checkpoint",
                    RecoveryKind::CheckpointFailed,
                    "checkpoint",
                    "none",
                    format!("checkpoint write to {} failed: {e}", path.display()),
                );
            }
        }
    }

    /// Poisons the run with `err`: the first failure wins, subsequent
    /// ones are dropped. Every later guard check returns
    /// [`RunOutcome::Failed`].
    pub fn poison(&self, err: GunrockError) {
        if let Ok(mut slot) = self.failure.lock() {
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        // ORDERING: Release — publishes the failure slot written above to any
        // thread that Acquire-loads the flag (is_poisoned / guard checks).
        self.poisoned.store(true, Ordering::Release);
    }

    /// `ids` copied into a pool buffer with room for at least `capacity`
    /// ids, taken as an [`Self::isolated_setup`] step: a denied checkout
    /// poisons the run and returns `None`. For enact-loop state that goes
    /// back to the pool when the run ends.
    pub fn pooled_copy(
        &self,
        operator: &'static str,
        ids: &[u32],
        capacity: usize,
    ) -> Option<Vec<u32>> {
        self.isolated_setup(operator, || {
            let mut buf = self.pool.take_u32(capacity.max(ids.len()));
            buf.extend_from_slice(ids);
            buf
        })
    }

    /// `ids` as a frontier in a pool buffer, taken as an isolated `setup`
    /// step: empty (and the run poisoned) when the checkout is denied.
    pub fn pooled_frontier(&self, ids: impl ExactSizeIterator<Item = u32>) -> Frontier {
        let fill = || {
            let mut buf = self.pool.take_u32(ids.len());
            buf.extend(ids);
            Frontier::from_vec(buf)
        };
        self.isolated_setup("setup", fill).unwrap_or_default()
    }

    /// True once an operator failure has poisoned this context.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        // ORDERING: Acquire — pairs with the Release store in poison(); observing
        // the flag guarantees the failure slot write is visible too.
        self.poisoned.load(Ordering::Acquire)
    }

    /// Removes and returns the failure that poisoned the run, if any.
    /// The poisoned flag stays set: the partial state is still invalid.
    pub fn take_failure(&self) -> Option<GunrockError> {
        match self.failure.lock() {
            Ok(mut slot) => slot.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        }
    }

    /// The reverse graph, panicking with a clear message if missing.
    pub fn reverse_graph(&self) -> &'g Csr {
        // LINT-ALLOW(panic): documented API contract — calling a pull-direction
        // operator without with_reverse() is a programming error, not a
        // recoverable condition.
        self.reverse.expect("pull advance requires a reverse graph: call Context::with_reverse")
    }

    /// Number of vertices in the forward graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of directed edges in the forward graph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

/// One enactment's armed guard: the plain [`RunGuard`] bounds plus the
/// context's poison flag. Once an operator has failed, every check
/// returns [`RunOutcome::Failed`] — ahead of cancel/timeout/cap — so the
/// enact loop stops at the next operator boundary.
pub struct ContextGuard<'c> {
    inner: RunGuard<'c>,
    poisoned: &'c AtomicBool,
}

impl ContextGuard<'_> {
    /// Returns the outcome that should end the loop, if any. Priority:
    /// `Failed` > `Cancelled` > `TimedOut` > `IterationCapped`.
    pub fn check(&self, completed_iterations: u32) -> Option<RunOutcome> {
        // ORDERING: Acquire — pairs with poison()'s Release store so a guard that
        // sees the flag also sees the failure slot it protects.
        if self.poisoned.load(Ordering::Acquire) {
            return Some(RunOutcome::Failed);
        }
        self.inner.check(completed_iterations)
    }

    /// Wall time since the guard was armed.
    pub fn elapsed(&self) -> std::time::Duration {
        self.inner.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, GraphBuilder};

    #[test]
    fn context_builders() {
        let g = GraphBuilder::new().build(Coo::from_edges(3, &[(0, 1), (1, 2)]));
        let ctx = Context::new(&g).with_reverse(&g);
        assert_eq!(ctx.num_vertices(), 3);
        assert_eq!(ctx.num_edges(), 4);
        assert_eq!(ctx.reverse_graph().num_edges(), 4);
    }

    #[test]
    #[should_panic(expected = "reverse graph")]
    fn missing_reverse_panics_clearly() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        ctx.reverse_graph();
    }

    #[test]
    fn recycled_frontier_storage_comes_back_from_the_pool() {
        let g = GraphBuilder::new().build(Coo::from_edges(3, &[(0, 1), (1, 2)]));
        let ctx = Context::new(&g);
        let mut f = Frontier::from_vec(ctx.pool.take_u32(100));
        f.push(7);
        let cap = f.as_slice().as_ptr() as usize;
        ctx.recycle(f);
        let back = ctx.pool.take_u32(100);
        assert_eq!(back.as_ptr() as usize, cap, "same storage reused");
        assert!(back.is_empty(), "recycled frontiers come back cleared");
        assert_eq!(ctx.pool.stats().allocations, 1);
    }

    #[test]
    fn poison_trumps_other_guards_and_is_first_error_wins() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(0));
        let guard = ctx.guard();
        assert_eq!(guard.check(5), Some(RunOutcome::IterationCapped));
        ctx.poison(GunrockError::OperatorPanic {
            operator: "advance",
            iteration: 2,
            payload: "first".into(),
        });
        ctx.poison(GunrockError::AllocFailed { operator: "filter", iteration: 3 });
        assert!(ctx.is_poisoned());
        assert_eq!(guard.check(5), Some(RunOutcome::Failed));
        match ctx.take_failure() {
            Some(GunrockError::OperatorPanic { payload, .. }) => assert_eq!(payload, "first"),
            other => panic!("expected the first error to win, got {other:?}"),
        }
        // taking the failure does not clear the poison
        assert!(ctx.is_poisoned());
        assert!(ctx.take_failure().is_none());
    }

    #[test]
    fn deadline_tracks_wall_clock_budget_only() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        let _guard = ctx.guard();
        assert!(!ctx.deadline_exceeded(), "no budget: never exceeded");

        let flag = Arc::new(AtomicBool::new(true));
        let ctx = Context::new(&g).with_policy(
            RunPolicy::unbounded()
                .wall_clock_budget(std::time::Duration::ZERO)
                .cancel_flag(flag),
        );
        assert!(!ctx.deadline_exceeded(), "deadline is armed only by guard()");
        let _guard = ctx.guard();
        assert!(ctx.deadline_exceeded(), "zero budget exceeded immediately");
    }

    #[test]
    fn abort_reflects_cancel_flag_and_deadline() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let flag = Arc::new(AtomicBool::new(false));
        let ctx =
            Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
        assert!(!ctx.abort_requested());
        flag.store(true, Ordering::Release);
        assert!(ctx.cancel_requested());
        assert!(ctx.abort_requested(), "cancel raises abort even with no deadline armed");
        assert!(!ctx.deadline_exceeded(), "deadline side stays independent of cancel");

        let ctx = Context::new(&g)
            .with_policy(RunPolicy::unbounded().wall_clock_budget(std::time::Duration::ZERO));
        assert!(!ctx.abort_requested(), "deadline arms only once guard() runs");
        let _guard = ctx.guard();
        assert!(ctx.abort_requested(), "expired deadline raises abort");
        assert!(!ctx.cancel_requested());
    }

    #[test]
    fn shared_pool_is_visible_across_contexts() {
        let g = GraphBuilder::new().build(Coo::from_edges(3, &[(0, 1), (1, 2)]));
        let pool = Arc::new(gunrock_engine::pool::BufferPool::new());
        let a = Context::new(&g).with_shared_pool(Arc::clone(&pool));
        let b = Context::new(&g).with_shared_pool(Arc::clone(&pool));
        let buf = a.pool().take_u32(64);
        let ptr = buf.as_ptr() as usize;
        a.pool().put_u32(buf);
        // the second context draws the very storage the first released
        let again = b.pool().take_u32(64);
        assert_eq!(again.as_ptr() as usize, ptr);
        assert_eq!(pool.stats().allocations, 1, "one allocation served both contexts");
    }

    #[test]
    fn budget_installs_on_the_private_pool() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let budget = Arc::new(MemoryBudget::new(64 * 4));
        let ctx = Context::new(&g).with_budget(Arc::clone(&budget));
        assert!(ctx.budget().is_some());
        assert!(ctx.pool().can_reserve(64 * 4));
        let buf = ctx.pool().take_u32(64);
        assert!(!ctx.pool().can_reserve(1), "budget saturated by the checkout");
        assert_eq!(budget.reserved(), 64 * 4);
        ctx.pool().put_u32(buf);
        assert_eq!(budget.reserved(), 0, "release refunds the budget");
    }

    #[test]
    fn heartbeat_ticks_at_boundaries_and_kill_raises_abort() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let hb = Arc::new(gunrock_engine::watchdog::Heartbeat::default());
        let ctx = Context::new(&g).with_heartbeat(Arc::clone(&hb));
        assert_eq!(hb.ticks(), 0);
        ctx.end_iteration(false);
        ctx.tick_heartbeat();
        assert_eq!(hb.ticks(), 2);
        assert!(!ctx.abort_requested());
        hb.kill();
        assert!(ctx.watchdog_killed());
        assert!(ctx.abort_requested(), "a watchdog kill is an abort request");
    }

    #[test]
    fn degrades_are_counted_without_a_sink_and_traced_with_one() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        ctx.record_degrade("advance", "load_balanced", "thread_mapped", "no headroom".into());
        assert_eq!(ctx.degrade_count(), 1);
        assert!(ctx.run_stats().degrades.is_empty(), "no sink, no trace");

        let ctx = Context::new(&g).with_stats();
        ctx.record_degrade("advance", "pull", "push", "bitmaps over budget".into());
        assert_eq!(ctx.degrade_count(), 1);
        let stats = ctx.run_stats();
        assert_eq!(stats.degrades.len(), 1);
        assert_eq!(stats.degrades[0].from, "pull");
        assert_eq!(stats.degrades[0].to, "push");
    }

    #[test]
    fn checkpoint_due_and_save_without_policy_are_noops() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        assert!(!ctx.checkpoint_due(4));
        assert!(ctx.checkpoint_policy().is_none());
        // no policy: save is a no-op, nothing written anywhere
        ctx.save_checkpoint(&Checkpoint::new("bfs", 1));

        let dir = std::env::temp_dir().join(format!("gunrock-ctx-ckpt-{}", std::process::id()));
        let ctx =
            Context::new(&g).with_checkpoints(crate::policy::CheckpointPolicy::new(2, &dir));
        assert!(!ctx.checkpoint_due(1));
        assert!(ctx.checkpoint_due(2));
        let mut ckpt = Checkpoint::new("bfs", 2);
        ckpt.push_u32("labels", vec![0, 1]);
        ctx.save_checkpoint(&ckpt);
        let loaded = Checkpoint::load(&dir.join("bfs.ckpt")).expect("saved checkpoint loads");
        assert_eq!(loaded.iteration(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_write_records_recovery_and_keeps_running() {
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        // A file (not a directory) as the checkpoint dir forces the write
        // to fail while create_dir_all/save stay on normal code paths.
        let bogus =
            std::env::temp_dir().join(format!("gunrock-ctx-ckpt-file-{}", std::process::id()));
        std::fs::write(&bogus, b"not a directory").expect("temp file");
        let ctx = Context::new(&g)
            .with_stats()
            .with_checkpoints(crate::policy::CheckpointPolicy::new(1, &bogus));
        ctx.save_checkpoint(&Checkpoint::new("bfs", 1));
        assert!(!ctx.is_poisoned(), "checkpoint failure must not poison the run");
        let stats = ctx.run_stats();
        assert_eq!(stats.recoveries.len(), 1);
        assert_eq!(stats.recoveries[0].kind, RecoveryKind::CheckpointFailed);
        let _ = std::fs::remove_file(&bogus);
    }
}
