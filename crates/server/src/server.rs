//! The serving core: bounded admission in front of a fixed worker pool
//! over one shared immutable graph.
//!
//! ```text
//! conn threads ──parse──► admission ──try_push──► BoundedQueue ──pop──► workers
//!                  │          │                                           │
//!                  │          ├─ shutting-down / deadline-expired /       │
//!                  │          │  circuit-open / queue-full (structured    │
//!                  │          │  rejection, never a hang)                 │
//!                  └─ metrics (answered inline)            response ◄─────┘
//! ```
//!
//! Admission control happens on the connection thread — a request that
//! cannot be served is answered immediately with a taxonomy code and,
//! when retrying makes sense, a `retry_after_ms` hint. Admitted jobs
//! block their connection thread on a reply channel; workers execute at
//! most `workers` jobs concurrently and at most `queue_capacity` more
//! wait. Everything else is back-pressured to the client.
//!
//! **Drain** (SIGTERM/SIGINT or the programmatic handle): stop
//! accepting connections, reject new requests with `shutting-down`,
//! raise the server-wide cancel flag (in-flight and queued jobs stop at
//! their next operator boundary and leave exit snapshots when the
//! request asked for checkpoints), close the queue, join the workers,
//! and emit one final `gunrock-serve/v1` summary.

use crate::coalesce::{self, BatchMember, Coalescer, FlushReason, Offer};
use crate::invoke::Graphs;
use crate::jobs::{self, JobEnv, JobStatus, JobVerdict};
use crate::metrics::{bump, bump_by, read, BatchingSnapshot, MemorySnapshot, ServeMetrics};
use crate::protocol::{error_response, parse_request, ErrorCode, Request};
use crate::signal;
use gunrock_algos::registry::{self, Arity, Entry};
use gunrock_engine::breaker::{Admission, CircuitBreaker};
use gunrock_engine::budget::MemoryBudget;
use gunrock_engine::faults::{FaultInjector, FaultPlan};
use gunrock_engine::pool::BufferPool;
use gunrock_engine::queue::{retry_after_hint, BoundedQueue, PushError};
use gunrock_engine::watchdog::{Heartbeat, Watchdog, WatchdogConfig};
use gunrock_graph::reorder::Relabeling;
use gunrock_graph::Csr;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Fixed worker-pool size (at least 1).
    pub workers: usize,
    /// Bounded job-queue capacity (at least 1); overflow is rejected
    /// with `queue-full`, never buffered.
    pub queue_capacity: usize,
    /// Consecutive operator panics that open a primitive's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Retry hint attached to `queue-full` rejections.
    pub retry_after: Duration,
    /// Root directory for per-request checkpoint subdirectories.
    pub checkpoint_dir: PathBuf,
    /// Server-wide fault plan (`--inject-faults`); per-request `inject`
    /// fields override it.
    pub fault_plan: Option<FaultPlan>,
    /// Set when the served graph was relabeled (`--reorder`): requests
    /// still name original vertex ids, and per-vertex results are mapped
    /// back before hashing, so clients never observe internal ids.
    pub relabeling: Option<Arc<Relabeling>>,
    /// Cap on outstanding pooled bytes across all workers (one shared
    /// budget on the shared pool). 0 disables budgeting: requests are
    /// never memory-rejected and jobs never degrade.
    pub memory_budget: u64,
    /// Watchdog stall interval: a job silent this long is cancelled,
    /// and killed `interval/2` later. `None` disables the watchdog.
    pub watchdog_interval: Option<Duration>,
    /// Coalescing window: batchable point BFS queries wait up to this
    /// long to merge into one lane-packed MS-BFS job. Zero (the
    /// default) disables coalescing — every query is a solo job.
    pub batch_window: Duration,
    /// Lane cap per coalesced batch (clamped to 1..=64).
    pub batch_lanes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 16,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            retry_after: Duration::from_millis(100),
            checkpoint_dir: PathBuf::from("."),
            fault_plan: None,
            relabeling: None,
            memory_budget: 0,
            watchdog_interval: None,
            batch_window: Duration::ZERO,
            batch_lanes: 64,
        }
    }
}

/// One queued unit of work: a solo request, or a sealed batch of
/// coalesced point queries sharing one lane-packed traversal.
enum Job {
    /// A request served on its own, with its reply channel.
    Single { req: Request, deadline: Option<Instant>, seq: u64, reply: mpsc::Sender<String> },
    /// A sealed coalescing window: one queue slot, many replies.
    Batch { members: Vec<BatchMember>, seq: u64 },
}

/// Shared server state: everything connection handlers and workers touch.
pub struct ServerState {
    /// The served graph, its reverse (every request context reads
    /// in-edges from it) and the `--reorder` relabeling.
    graphs: Graphs,
    cfg: ServerConfig,
    queue: BoundedQueue<Job>,
    breaker: CircuitBreaker,
    metrics: ServeMetrics,
    /// Stops admission; set by drain before the cancel flag.
    shutdown: AtomicBool,
    /// Raised on drain; new per-job cancel flags start from it and the
    /// inflight registry propagates it to jobs already running.
    drain_cancel: Arc<AtomicBool>,
    /// Per-job cancel flags of in-flight jobs, so drain can raise them
    /// all (each job otherwise owns its flag for watchdog cancellation).
    inflight: Mutex<Vec<Weak<AtomicBool>>>,
    pool: Arc<BufferPool>,
    /// Global memory budget shared by every worker through `pool`.
    budget: Option<Arc<MemoryBudget>>,
    /// Hung-job reaper; holds the background thread for the server's
    /// lifetime.
    watchdog: Option<Watchdog>,
    injector: Option<Arc<FaultInjector>>,
    /// The coalescing windows (`--batch-window-ms` > 0); `None` means
    /// every query is a solo job.
    coalescer: Option<Coalescer>,
    seq: AtomicU64,
}

impl ServerState {
    fn new(graph: Arc<Csr>, cfg: ServerConfig) -> Self {
        let injector = cfg.fault_plan.map(|plan| Arc::new(FaultInjector::new(plan)));
        let budget =
            (cfg.memory_budget > 0).then(|| Arc::new(MemoryBudget::new(cfg.memory_budget)));
        let mut pool = BufferPool::new();
        if let Some(b) = &budget {
            pool.install_budget(Arc::clone(b));
        }
        if let Some(inj) = &injector {
            // the shared pool carries the server-wide injector so the
            // `pool:alloc` fault site fires inside worker checkouts
            pool.install_injector(Arc::clone(inj));
        }
        let watchdog = cfg.watchdog_interval.map(|i| Watchdog::new(WatchdogConfig::new(i)));
        let coalescer = (!cfg.batch_window.is_zero())
            .then(|| Coalescer::new(cfg.batch_window, cfg.batch_lanes));
        ServerState {
            queue: BoundedQueue::new(cfg.queue_capacity),
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
            metrics: ServeMetrics::default(),
            shutdown: AtomicBool::new(false),
            drain_cancel: Arc::new(AtomicBool::new(false)),
            inflight: Mutex::new(Vec::new()),
            pool: Arc::new(pool),
            budget,
            watchdog,
            injector,
            coalescer,
            seq: AtomicU64::new(0),
            graphs: Graphs::new(graph, cfg.relabeling.clone()),
            cfg,
        }
    }

    /// The serving metrics (exposed for tests and the drain summary).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    fn draining(&self) -> bool {
        // ORDERING: Acquire — pairs with the Release store in
        // `begin_drain`; admission decisions made after the flag flips
        // see a fully-initialized drain state.
        self.shutdown.load(Ordering::Acquire)
    }

    fn render_metrics(&self, drained: bool) -> String {
        let memory = self.budget.as_ref().map(|b| {
            let pool = self.pool.stats();
            MemorySnapshot {
                budget_limit: b.limit(),
                budget_reserved: b.reserved(),
                peak_bytes: b.high_water(),
                denials: b.denials(),
                pool_bytes_live: pool.bytes_live,
                pool_bytes_high_water: pool.bytes_high_water,
            }
        });
        let batching = self.coalescer.as_ref().map(|c| BatchingSnapshot {
            window_ms: c.window().as_millis() as u64,
            lanes_cap: c.lanes() as u64,
        });
        self.metrics.render(
            self.cfg.workers,
            self.queue.len(),
            self.queue.capacity(),
            &self.breaker.snapshot(),
            memory.as_ref(),
            batching.as_ref(),
            drained,
        )
    }

    /// Registers one job's cancel flag for the drain sweep, pruning
    /// entries whose jobs have already finished.
    fn register_inflight(&self, cancel: &Arc<AtomicBool>) {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        inflight.retain(|w| w.strong_count() > 0);
        inflight.push(Arc::downgrade(cancel));
    }
}

/// Parses and answers one request line. This is the whole admission
/// pipeline; both the TCP and stdin front ends call it.
pub fn handle_request(state: &ServerState, line: &str) -> String {
    bump(&state.metrics.received);
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            bump(&state.metrics.rejected_bad_request);
            return error_response("", ErrorCode::BadRequest, &e, None);
        }
    };
    if req.primitive == "metrics" {
        return state.render_metrics(false);
    }
    // Every registry entry a point request can name is served; lane
    // batches are the coalescer's business. `sleep` is the diagnostic.
    let entry = registry::find(&req.primitive).filter(|e| e.arity != Arity::Lanes);
    if entry.is_none() && req.primitive != "sleep" {
        bump(&state.metrics.rejected_bad_request);
        return error_response(
            &req.id,
            ErrorCode::UnknownPrimitive,
            &format!(
                "cannot serve {:?} (serves: {} sleep)",
                req.primitive,
                registry::names(&[Arity::One, Arity::None])
            ),
            None,
        );
    }
    let n = state.graphs.graph.num_vertices();
    if entry.is_some_and(|e| e.arity == Arity::One) && (req.src as usize) >= n {
        bump(&state.metrics.rejected_bad_request);
        return error_response(
            &req.id,
            ErrorCode::SrcOutOfRange,
            &format!("src {} >= {n} vertices", req.src),
            None,
        );
    }
    if state.draining() {
        bump(&state.metrics.rejected_shutdown);
        return error_response(&req.id, ErrorCode::ShuttingDown, "server is draining", None);
    }
    // Admission control, part one: a zero budget can never be met —
    // reject before the job costs anyone anything.
    let arrival = Instant::now();
    let deadline = match req.deadline_ms {
        Some(0) => {
            bump(&state.metrics.rejected_deadline);
            return error_response(
                &req.id,
                ErrorCode::DeadlineExpired,
                "deadline_ms of 0 is already expired",
                None,
            );
        }
        Some(ms) => Some(arrival + Duration::from_millis(ms)),
        None => None,
    };
    match state.breaker.admit(&req.primitive) {
        Admission::Allow => {}
        Admission::Shed { retry_after } => {
            bump(&state.metrics.rejected_breaker);
            return error_response(
                &req.id,
                ErrorCode::CircuitOpen,
                &format!("{} breaker is open after repeated failures", req.primitive),
                Some(retry_after.as_millis() as u64),
            );
        }
    }
    // Coalescing: a batchable point BFS joins its policy class's open
    // window instead of going to the queue alone. The memory-budget
    // estimate is deliberately NOT charged here — the sealed batch is
    // charged exactly once at dispatch (`dispatch_batch`), which is the
    // amortization the coalescer exists for.
    if let Some(co) = &state.coalescer {
        if coalesce::batchable(&req) {
            let id = req.id.clone();
            let (tx, rx) = mpsc::channel();
            match co.offer(BatchMember { req, deadline, reply: tx }) {
                Offer::Pending => {}
                Offer::Sealed(members) => dispatch_batch(state, members, FlushReason::Full),
                Offer::Closed(_) => {
                    bump(&state.metrics.rejected_shutdown);
                    return error_response(
                        &id,
                        ErrorCode::ShuttingDown,
                        "server is draining",
                        None,
                    );
                }
            }
            return rx.recv().unwrap_or_else(|_| {
                error_response(&id, ErrorCode::Internal, "worker dropped the request", None)
            });
        }
    }
    if let Some((message, retry)) = over_budget(state, entry, &req.primitive) {
        bump(&state.metrics.rejected_over_budget);
        return error_response(&req.id, ErrorCode::OverBudget, &message, retry);
    }
    let (tx, rx) = mpsc::channel();
    // ORDERING: Relaxed — the sequence number only disambiguates
    // checkpoint directory names; no memory is published through it.
    let seq = state.seq.fetch_add(1, Ordering::Relaxed);
    let id = req.id.clone();
    match state.queue.try_push(Job::Single { req, deadline, seq, reply: tx }) {
        Ok(()) => {}
        Err(PushError::Full(_)) => {
            bump(&state.metrics.rejected_queue_full);
            return error_response(
                &id,
                ErrorCode::QueueFull,
                &format!("job queue is full (capacity {})", state.queue.capacity()),
                Some(state.cfg.retry_after.as_millis() as u64),
            );
        }
        Err(PushError::Closed(_)) => {
            bump(&state.metrics.rejected_shutdown);
            return error_response(&id, ErrorCode::ShuttingDown, "server is draining", None);
        }
    }
    bump(&state.metrics.admitted);
    // The worker owns the sending half; a drop without a send means the
    // worker died mid-job (a server bug, not a client error).
    rx.recv().unwrap_or_else(|_| {
        error_response(&id, ErrorCode::Internal, "worker dropped the request", None)
    })
}

/// Dispatches one sealed batch: bump the flush-reason counter, charge
/// the memory estimate ONCE for the whole batch (the `msbfs` footprint,
/// not `lanes` x the solo BFS footprint), and push a single queue slot.
/// Every rejection answers every member — a sealed batch never strands
/// a blocked connection thread.
fn dispatch_batch(state: &ServerState, members: Vec<BatchMember>, reason: FlushReason) {
    match reason {
        FlushReason::Full => bump(&state.metrics.batch_flush_full),
        FlushReason::Window => bump(&state.metrics.batch_flush_window),
        FlushReason::Drain => bump(&state.metrics.batch_flush_drain),
    }
    if let Some((message, retry)) = over_budget(state, registry::find("msbfs"), "batched bfs") {
        for m in &members {
            bump(&state.metrics.rejected_over_budget);
            let _ =
                m.reply.send(error_response(&m.req.id, ErrorCode::OverBudget, &message, retry));
        }
        return;
    }
    // ORDERING: Relaxed — see the solo path; the sequence number only
    // disambiguates checkpoint directory names.
    let seq = state.seq.fetch_add(1, Ordering::Relaxed);
    let count = members.len() as u64;
    match state.queue.try_push(Job::Batch { members, seq }) {
        Ok(()) => {
            bump_by(&state.metrics.admitted, count);
            bump(&state.metrics.batches);
            bump_by(&state.metrics.batched_lanes, count);
        }
        Err(PushError::Full(Job::Batch { members, .. })) => {
            for m in members {
                bump(&state.metrics.rejected_queue_full);
                let _ = m.reply.send(error_response(
                    &m.req.id,
                    ErrorCode::QueueFull,
                    &format!("job queue is full (capacity {})", state.queue.capacity()),
                    Some(state.cfg.retry_after.as_millis() as u64),
                ));
            }
        }
        Err(PushError::Closed(Job::Batch { members, .. })) => {
            for m in members {
                bump(&state.metrics.rejected_shutdown);
                let _ = m.reply.send(error_response(
                    &m.req.id,
                    ErrorCode::ShuttingDown,
                    "server is draining",
                    None,
                ));
            }
        }
        // push errors return the job they were handed; a Batch in can
        // only come back out as a Batch
        Err(PushError::Full(Job::Single { .. }) | PushError::Closed(Job::Single { .. })) => {
            unreachable!("try_push returned a different job than it was given")
        }
    }
}

/// Memory admission, for solo requests and sealed batches alike: the
/// pessimistic up-front footprint of `entry` (none: the zero-footprint
/// `sleep` diagnostic) against the budget,
/// before the work costs a queue slot. Over the hard limit the work can
/// never run (no retry hint); over the current headroom the pressure is
/// other in-flight jobs, so the rejection carries a jittered,
/// load-proportional retry hint. Returns the rejection message, naming
/// the work `what`, and the hint.
fn over_budget(
    state: &ServerState,
    entry: Option<&Entry>,
    what: &str,
) -> Option<(String, Option<u64>)> {
    let budget = state.budget.as_ref()?;
    let g = &state.graphs.graph;
    let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
    let est = entry.map_or(0, |e| (e.estimate_bytes)(n, m));
    if est > budget.limit() {
        let limit = budget.limit();
        return Some((
            format!("{what} needs an estimated {est} bytes; the budget is {limit} bytes"),
            None,
        ));
    }
    if est > budget.headroom() {
        let hint = retry_after_hint(
            state.cfg.retry_after.as_millis() as u64,
            state.queue.len(),
            state.queue.capacity(),
            read(&state.metrics.received),
        );
        let (reserved, limit) = (budget.reserved(), budget.limit());
        let message =
            format!("{what} needs an estimated {est} bytes; {reserved} of {limit} are reserved — retry later");
        return Some((message, Some(hint)));
    }
    None
}

fn record_verdict(state: &ServerState, primitive: &str, verdict: &JobVerdict) {
    match verdict.status {
        JobStatus::Ok => bump(&state.metrics.completed_ok),
        JobStatus::Partial => bump(&state.metrics.completed_partial),
        JobStatus::Failed => bump(&state.metrics.failed),
        JobStatus::Rejected => bump(&state.metrics.rejected_deadline),
    }
    if verdict.deadline_missed {
        bump(&state.metrics.deadline_misses);
    }
    if verdict.checkpointed {
        bump(&state.metrics.checkpoints_written);
    }
    if verdict.degrades > 0 {
        bump_by(&state.metrics.degraded, verdict.degrades);
    }
    if verdict.breaker_failure {
        state.breaker.record_failure(primitive);
    } else if matches!(verdict.status, JobStatus::Ok | JobStatus::Partial) {
        state.breaker.record_success(primitive);
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        // Each job owns its cancel flag (so the watchdog can cancel one
        // job without draining the server), seeded from the drain flag
        // for jobs popped after a drain began, and registered so drain
        // reaches jobs already running.
        // ORDERING: Acquire — pairs with the Release store in drain() so
        // a job popped after drain starts observes the raised flag.
        let job_cancel = Arc::new(AtomicBool::new(state.drain_cancel.load(Ordering::Acquire)));
        state.register_inflight(&job_cancel);
        let heartbeat = state.watchdog.as_ref().map(|_| Arc::new(Heartbeat::new()));
        // While watched, a kill answers the client(s) from the reaper
        // thread (the worker is presumed wedged), counts the failure,
        // and feeds the primitive's breaker so followers are shed. A
        // batch kill answers every lane: one wedged sweep must not
        // strand 64 connection threads.
        let watch = match (&state.watchdog, &heartbeat) {
            (Some(dog), Some(hb)) => {
                let st = Arc::clone(state);
                let targets: Vec<(String, mpsc::Sender<String>)> = match &job {
                    Job::Single { req, reply, .. } => vec![(req.id.clone(), reply.clone())],
                    Job::Batch { members, .. } => {
                        members.iter().map(|m| (m.req.id.clone(), m.reply.clone())).collect()
                    }
                };
                let primitive = match &job {
                    Job::Single { req, .. } => req.primitive.clone(),
                    Job::Batch { .. } => "bfs".to_string(),
                };
                Some(dog.watch(
                    Arc::clone(hb),
                    Arc::clone(&job_cancel),
                    Box::new(move || {
                        bump(&st.metrics.watchdog_kills);
                        st.breaker.record_failure(&primitive);
                        for (id, reply) in &targets {
                            bump(&st.metrics.failed);
                            let _ = reply.send(error_response(
                                id,
                                ErrorCode::WatchdogKilled,
                                "job stopped heartbeating and ignored cancellation; \
                                 the watchdog reaped it",
                                None,
                            ));
                        }
                    }),
                ))
            }
            _ => None,
        };
        let env = JobEnv {
            graphs: &state.graphs,
            cancel: &job_cancel,
            heartbeat: heartbeat.as_ref(),
            pool: &state.pool,
            injector: state.injector.as_ref(),
            checkpoint_root: &state.cfg.checkpoint_dir,
        };
        // Last line of defense: `jobs::run_job` already isolates operator
        // panics inside the request context; this catches bugs in the
        // dispatch layer itself so one bad request can never take the
        // worker (and with it the whole pool) down.
        match job {
            Job::Single { req, deadline, seq, reply } => {
                let verdict =
                    catch_unwind(AssertUnwindSafe(|| jobs::run_job(&env, &req, deadline, seq)))
                        .unwrap_or_else(|_| {
                            let message = "request dispatch panicked";
                            JobVerdict::error(&req.id, ErrorCode::Internal, message)
                        });
                let killed = heartbeat.as_ref().is_some_and(|hb| hb.is_killed());
                drop(watch);
                if killed {
                    // the kill callback already answered the client and
                    // recorded the failure; a late worker result would
                    // double-count
                    continue;
                }
                record_verdict(state, &req.primitive, &verdict);
                // A send error means the connection thread gave up
                // (client went away); the work is done either way.
                let _ = reply.send(verdict.response);
            }
            Job::Batch { members, seq } => {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| jobs::run_batch(&env, &members, seq)))
                        .unwrap_or_else(|_| jobs::BatchOutcome::internal(&members));
                let killed = heartbeat.as_ref().is_some_and(|hb| hb.is_killed());
                drop(watch);
                if killed {
                    continue;
                }
                if outcome.fell_back {
                    bump(&state.metrics.batch_fallbacks);
                }
                for (m, verdict) in members.iter().zip(outcome.verdicts) {
                    record_verdict(state, &m.req.primitive, &verdict);
                    let _ = m.reply.send(verdict.response);
                }
            }
        }
    }
}

/// A running server plus its drain handle.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    supervisor: thread::JoinHandle<String>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for inspecting metrics in tests.
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Programmatic SIGTERM: starts the drain sequence.
    pub fn shutdown(&self) {
        // ORDERING: Release — pairs with the Acquire load in
        // `ServerState::draining`; everything written before the drain
        // request is visible to admission checks that observe it.
        self.state.shutdown.store(true, Ordering::Release);
    }

    /// Waits for the drain to finish and returns the final
    /// `gunrock-serve/v1` summary document.
    pub fn join(self) -> String {
        self.supervisor.join().unwrap_or_else(|_| {
            // The supervisor never panics by construction; if it somehow
            // did, synthesize a summary so callers still get valid JSON.
            self.state.render_metrics(true)
        })
    }
}

fn spawn_workers(state: &Arc<ServerState>) -> Vec<thread::JoinHandle<()>> {
    (0..state.cfg.workers.max(1))
        .map(|i| {
            let state = Arc::clone(state);
            thread::Builder::new()
                .name(format!("gunrock-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .unwrap_or_else(|e| {
                    // LINT-ALLOW(panic): failing to spawn the worker pool at
                    // startup is unrecoverable misconfiguration; surface it
                    // before the server accepts any work.
                    panic!("cannot spawn worker thread: {e}")
                })
        })
        .collect()
}

/// Spawns the coalescing flusher: a background sweep that seals windows
/// older than `--batch-window-ms` so a lone query never waits on lanes
/// that may not come. Exits when the server starts draining. `None`
/// when coalescing is disabled.
fn spawn_flusher(state: &Arc<ServerState>) -> Option<thread::JoinHandle<()>> {
    let tick = state.coalescer.as_ref()?.tick();
    let st = Arc::clone(state);
    thread::Builder::new()
        .name("gunrock-coalesce".to_string())
        .spawn(move || {
            while !st.draining() {
                thread::sleep(tick);
                if let Some(co) = &st.coalescer {
                    for members in co.take_expired() {
                        dispatch_batch(&st, members, FlushReason::Window);
                    }
                }
            }
        })
        .ok()
}

/// Runs the drain sequence: stop admitting, cancel in-flight work, close
/// the queue, join the workers, render the summary.
fn drain(state: &Arc<ServerState>, workers: Vec<thread::JoinHandle<()>>) -> String {
    // ORDERING: Release — pairs with `ServerState::draining`'s Acquire
    // load on connection threads; admission stops before jobs observe
    // the cancel flag below.
    state.shutdown.store(true, Ordering::Release);
    // ORDERING: Release — pairs with the Acquire load seeding each new
    // per-job cancel flag; jobs popped after this point start cancelled.
    state.drain_cancel.store(true, Ordering::Release);
    // Jobs already running own per-job flags (the watchdog's cancel
    // channel); raise them all so in-flight work stops at its next
    // operator boundary.
    {
        let mut inflight = state.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for weak in inflight.drain(..) {
            if let Some(flag) = weak.upgrade() {
                // ORDERING: Release — pairs with the Acquire polls inside
                // operator chunk loops (`Context::cancel_requested`).
                flag.store(true, Ordering::Release);
            }
        }
    }
    // Half-filled coalescing windows are flushed INTO the queue before
    // it closes: their members get real (cancelled-partial) answers from
    // the workers instead of hanging on a window nobody will seal. The
    // close also bounces any racing late offer with `shutting-down`.
    if let Some(co) = &state.coalescer {
        for members in co.close() {
            dispatch_batch(state, members, FlushReason::Drain);
        }
    }
    state.queue.close();
    for w in workers {
        let _ = w.join();
    }
    state.render_metrics(true)
}

/// Handles one TCP connection: line in, line out, until the peer closes
/// or the server drains. Read timeouts keep the loop responsive to
/// drain without dropping bytes of a partial line.
fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = stream;
    let mut writer = match reader.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            let response = handle_request(state, trimmed);
            if writer.write_all(response.as_bytes()).is_err()
                || writer.write_all(b"\n").is_err()
                || writer.flush().is_err()
            {
                return;
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Starts a TCP server on `127.0.0.1:port` (0 picks a free port) and
/// returns its handle. The accept loop runs on a supervisor thread and
/// drains on SIGTERM/SIGINT (when [`signal::install`]ed) or on
/// [`ServerHandle::shutdown`].
pub fn start(graph: Arc<Csr>, cfg: ServerConfig, port: u16) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set the listener non-blocking: {e}"))?;
    let state = Arc::new(ServerState::new(graph, cfg));
    let supervisor_state = Arc::clone(&state);
    let supervisor = thread::Builder::new()
        .name("gunrock-serve".to_string())
        .spawn(move || {
            let mut workers = spawn_workers(&supervisor_state);
            workers.extend(spawn_flusher(&supervisor_state));
            loop {
                if supervisor_state.draining() || signal::shutdown_requested() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn_state = Arc::clone(&supervisor_state);
                        let _ = thread::Builder::new()
                            .name("gunrock-conn".to_string())
                            .spawn(move || serve_connection(stream, &conn_state));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            }
            drain(&supervisor_state, workers)
        })
        .map_err(|e| format!("cannot spawn the supervisor thread: {e}"))?;
    Ok(ServerHandle { addr, state, supervisor })
}

/// Serves line-delimited requests from stdin to stdout — the scripting
/// front end (`gunrock-serve --stdin`). Returns the drain summary after
/// EOF.
pub fn serve_stdin(graph: Arc<Csr>, cfg: ServerConfig) -> String {
    let state = Arc::new(ServerState::new(graph, cfg));
    let mut workers = spawn_workers(&state);
    workers.extend(spawn_flusher(&state));
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        if signal::shutdown_requested() {
            break;
        }
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                println!("{}", handle_request(&state, trimmed));
            }
            Err(_) => break,
        }
    }
    drain(&state, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, GraphBuilder};

    fn small_graph() -> Arc<Csr> {
        Arc::new(GraphBuilder::new().build(Coo::from_edges(16, &[(0, 1), (1, 2), (2, 3)])))
    }

    fn state_fixture(cfg: ServerConfig) -> Arc<ServerState> {
        Arc::new(ServerState::new(small_graph(), cfg))
    }

    /// Runs `handle_request` with a worker pool behind it.
    fn with_workers<T>(state: &Arc<ServerState>, body: impl FnOnce() -> T) -> T {
        let workers = spawn_workers(state);
        let out = body();
        state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        out
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let state = state_fixture(ServerConfig::default());
        let resp = with_workers(&state, || {
            handle_request(&state, r#"{"id":"q1","primitive":"bfs","src":0}"#)
        });
        assert!(resp.contains("\"status\":\"ok\""), "got: {resp}");
        assert!(resp.contains("\"id\":\"q1\""));
        assert_eq!(crate::metrics::read(&state.metrics.admitted), 1);
        assert_eq!(crate::metrics::read(&state.metrics.completed_ok), 1);
    }

    #[test]
    fn admission_rejections_are_structured() {
        let state = state_fixture(ServerConfig::default());
        // no workers needed: all of these are rejected before the queue
        let bad = handle_request(&state, "{");
        assert!(bad.contains("bad-request"));
        let unknown = handle_request(&state, r#"{"primitive":"frobnicate"}"#);
        assert!(unknown.contains("unknown-primitive"));
        assert!(unknown.contains("triangles"), "the rejection lists what is served: {unknown}");
        let batch = handle_request(&state, r#"{"primitive":"msbfs"}"#);
        assert!(batch.contains("unknown-primitive"), "lane batches are not point queries");
        let oob = handle_request(&state, r#"{"primitive":"bfs","src":99}"#);
        assert!(oob.contains("src-out-of-range"));
        let expired = handle_request(&state, r#"{"primitive":"bfs","deadline_ms":0}"#);
        assert!(expired.contains("deadline-expired"));
        let m = state.metrics();
        assert_eq!(crate::metrics::read(&m.rejected_bad_request), 4);
        assert_eq!(crate::metrics::read(&m.rejected_deadline), 1);
        assert_eq!(crate::metrics::read(&m.admitted), 0);
    }

    #[test]
    fn malformed_inject_is_a_bad_request_not_a_deadline_rejection() {
        let state = state_fixture(ServerConfig::default());
        let resp = with_workers(&state, || {
            handle_request(&state, r#"{"primitive":"bfs","inject":"bogus=1"}"#)
        });
        assert!(resp.contains("bad-request"), "got: {resp}");
        let doc = state.render_metrics(false);
        assert!(doc.contains("\"bad_request\":1"), "got: {doc}");
        assert!(doc.contains("\"deadline_expired\":0"), "got: {doc}");
    }

    #[test]
    fn draining_state_rejects_new_requests() {
        let state = state_fixture(ServerConfig::default());
        // ORDERING: Release — test stand-in for the drain sequence.
        state.shutdown.store(true, Ordering::Release);
        let resp = handle_request(&state, r#"{"primitive":"bfs"}"#);
        assert!(resp.contains("shutting-down"));
    }

    #[test]
    fn hopeless_footprint_is_rejected_permanently() {
        // 1 KiB can never hold a bfs working set even on 16 vertices
        let cfg = ServerConfig { memory_budget: 1024, ..ServerConfig::default() };
        let state = state_fixture(cfg);
        let resp = handle_request(&state, r#"{"id":"b1","primitive":"bfs","src":0}"#);
        assert!(resp.contains("over-budget"), "got: {resp}");
        assert!(
            !resp.contains("retry_after_ms"),
            "a permanent rejection must not suggest retrying: {resp}"
        );
        assert_eq!(crate::metrics::read(&state.metrics.rejected_over_budget), 1);
        assert_eq!(crate::metrics::read(&state.metrics.admitted), 0);
        // the sleep diagnostic has a zero footprint and always fits
        let ok = with_workers(&state, || {
            handle_request(&state, r#"{"id":"s1","primitive":"sleep","duration_ms":1}"#)
        });
        assert!(ok.contains("\"status\":\"ok\""), "got: {ok}");
    }

    #[test]
    fn transient_pressure_is_rejected_with_a_retry_hint() {
        let cfg = ServerConfig { memory_budget: 1 << 20, ..ServerConfig::default() };
        let state = state_fixture(cfg);
        let budget = state.budget.as_ref().expect("budget configured");
        // simulate other jobs holding nearly the whole budget
        budget.try_reserve(budget.limit() - 512).unwrap();
        let resp = handle_request(&state, r#"{"id":"b2","primitive":"bfs","src":0}"#);
        assert!(resp.contains("over-budget"), "got: {resp}");
        assert!(resp.contains("retry_after_ms"), "transient pressure hints a retry: {resp}");
        assert_eq!(crate::metrics::read(&state.metrics.rejected_over_budget), 1);
        // pressure clears: the same request is admitted and served
        budget.release(budget.limit() - 512);
        let resp = with_workers(&state, || {
            handle_request(&state, r#"{"id":"b3","primitive":"bfs","src":0}"#)
        });
        assert!(resp.contains("\"status\":\"ok\""), "got: {resp}");
        let doc = state.render_metrics(false);
        assert!(doc.contains("\"memory\""), "budgeted server renders memory gauges: {doc}");
        assert!(doc.contains("\"peak_bytes\""), "got: {doc}");
    }

    #[test]
    fn stalled_job_is_reaped_and_answered_watchdog_killed() {
        let interval = Duration::from_millis(60);
        let cfg = ServerConfig { watchdog_interval: Some(interval), ..ServerConfig::default() };
        let state = state_fixture(cfg);
        let start = Instant::now();
        let resp = with_workers(&state, || {
            handle_request(
                &state,
                r#"{"id":"w1","primitive":"bfs","inject":"stall=1.0","fault_seed":1}"#,
            )
        });
        assert!(resp.contains("watchdog-killed"), "got: {resp}");
        assert!(resp.contains("\"status\":\"failed\""), "got: {resp}");
        assert!(
            start.elapsed() < 2 * interval + Duration::from_millis(40),
            "reap took {:?}, bound is 2 * {interval:?}",
            start.elapsed()
        );
        assert_eq!(crate::metrics::read(&state.metrics.watchdog_kills), 1);
        assert_eq!(crate::metrics::read(&state.metrics.failed), 1);
        assert_eq!(state.watchdog.as_ref().unwrap().kills(), 1);
    }

    #[test]
    fn heartbeating_sleep_job_is_not_reaped() {
        // slow (3x the interval) but ticking every 2ms: must complete
        let cfg = ServerConfig {
            watchdog_interval: Some(Duration::from_millis(20)),
            ..ServerConfig::default()
        };
        let state = state_fixture(cfg);
        let resp = with_workers(&state, || {
            handle_request(&state, r#"{"id":"s2","primitive":"sleep","duration_ms":60}"#)
        });
        assert!(resp.contains("\"status\":\"ok\""), "got: {resp}");
        assert_eq!(crate::metrics::read(&state.metrics.watchdog_kills), 0);
    }

    #[test]
    fn capacity_sealed_batch_answers_every_lane_from_one_queue_slot() {
        let cfg = ServerConfig {
            // a window long enough that only the lane cap can seal it
            batch_window: Duration::from_secs(60),
            batch_lanes: 3,
            ..ServerConfig::default()
        };
        let state = state_fixture(cfg);
        let responses = with_workers(&state, || {
            let handles: Vec<_> = (0..3u32)
                .map(|src| {
                    let st = Arc::clone(&state);
                    thread::spawn(move || {
                        handle_request(
                            &st,
                            &format!(
                                "{{\"id\":\"q{src}\",\"primitive\":\"bfs\",\"src\":{src}}}"
                            ),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for resp in &responses {
            assert!(resp.contains("\"status\":\"ok\""), "got: {resp}");
            assert!(resp.contains("\"batched\":true"), "got: {resp}");
            assert!(resp.contains("\"batch_lanes\":3"), "got: {resp}");
        }
        let m = state.metrics();
        assert_eq!(read(&m.admitted), 3, "every lane counts as admitted");
        assert_eq!(read(&m.completed_ok), 3);
        assert_eq!(read(&m.batches), 1, "one queue slot served all three");
        assert_eq!(read(&m.batched_lanes), 3);
        assert_eq!(read(&m.batch_flush_full), 1);
        assert_eq!(read(&m.batch_fallbacks), 0);
        let doc = state.render_metrics(false);
        assert!(doc.contains("\"batching\""), "windowed server renders batching: {doc}");
        assert!(doc.contains("\"occupancy\":3"), "got: {doc}");
    }

    #[test]
    fn poisoned_lane_fails_alone_while_batch_mates_answer() {
        let cfg = ServerConfig {
            batch_window: Duration::from_secs(60),
            batch_lanes: 2,
            ..ServerConfig::default()
        };
        let state = state_fixture(cfg);
        let (bad, good) = with_workers(&state, || {
            let st = Arc::clone(&state);
            let bad = thread::spawn(move || {
                handle_request(
                    &st,
                    r#"{"id":"bad","primitive":"bfs","src":0,"inject":"panic=1.0"}"#,
                )
            });
            // give the poisoned query time to open the window so both
            // land in the same batch regardless of scheduling
            thread::sleep(Duration::from_millis(30));
            let st = Arc::clone(&state);
            let good = thread::spawn(move || {
                handle_request(&st, r#"{"id":"good","primitive":"bfs","src":1}"#)
            });
            (bad.join().unwrap(), good.join().unwrap())
        });
        assert!(bad.contains("operator-panic"), "got: {bad}");
        assert!(good.contains("\"status\":\"ok\""), "got: {good}");
        let m = state.metrics();
        assert_eq!(read(&m.batch_fallbacks), 1, "the shared sweep fell back to isolation");
        assert_eq!(read(&m.completed_ok), 1);
        assert_eq!(read(&m.failed), 1);
    }

    #[test]
    fn drain_flushes_a_half_filled_window_with_real_answers() {
        let cfg = ServerConfig {
            batch_window: Duration::from_secs(60),
            batch_lanes: 64,
            ..ServerConfig::default()
        };
        let state = state_fixture(cfg);
        let workers = spawn_workers(&state);
        let st = Arc::clone(&state);
        let waiting = thread::spawn(move || {
            handle_request(&st, r#"{"id":"w","primitive":"bfs","src":0}"#)
        });
        // let the query join the (never-filling) window
        thread::sleep(Duration::from_millis(50));
        let summary = drain(&state, workers);
        let resp = waiting.join().unwrap();
        assert!(
            resp.contains("\"status\":\"ok\"") || resp.contains("\"status\":\"partial\""),
            "a drained window member gets a real answer, got: {resp}"
        );
        assert_eq!(read(&state.metrics.batch_flush_drain), 1);
        assert!(summary.contains("\"drained\":true"));
        // late batchable arrivals bounce instead of stranding
        let late = handle_request(&state, r#"{"id":"l","primitive":"bfs","src":1}"#);
        assert!(late.contains("shutting-down"), "got: {late}");
    }

    #[test]
    fn window_expiry_flushes_a_lone_query_through_the_flusher() {
        let cfg = ServerConfig {
            batch_window: Duration::from_millis(5),
            batch_lanes: 64,
            ..ServerConfig::default()
        };
        let state = state_fixture(cfg);
        let workers = spawn_workers(&state);
        let flusher = spawn_flusher(&state).expect("coalescing server spawns a flusher");
        let resp = handle_request(&state, r#"{"id":"solo","primitive":"bfs","src":0}"#);
        assert!(resp.contains("\"status\":\"ok\""), "got: {resp}");
        assert!(resp.contains("\"batch_lanes\":1"), "got: {resp}");
        assert_eq!(read(&state.metrics.batch_flush_window), 1);
        // ORDERING: Release — test stand-in for the drain sequence.
        state.shutdown.store(true, Ordering::Release);
        state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        let _ = flusher.join();
    }

    /// Every single-source and whole-graph registry entry is served, and
    /// its `result_hash` is the hash of a direct registry run on the same
    /// graph.
    #[test]
    fn serves_every_point_entry_with_the_direct_run_hash() {
        let g =
            Arc::new(
                GraphBuilder::new()
                    .random_weights(1, 9, 3)
                    .build(gunrock_graph::generators::rmat(7, 8, Default::default(), 11)),
            );
        let state = Arc::new(ServerState::new(Arc::clone(&g), ServerConfig::default()));
        let served: Vec<_> =
            registry::REGISTRY.iter().filter(|e| e.arity != Arity::Lanes).collect();
        assert_eq!(served.len(), 9);
        let responses = with_workers(&state, || {
            served
                .iter()
                .map(|e| {
                    handle_request(&state, &format!(r#"{{"primitive":"{}","src":3}}"#, e.name))
                })
                .collect::<Vec<_>>()
        });
        for (e, resp) in served.iter().zip(&responses) {
            assert!(resp.contains("\"status\":\"ok\""), "{}: {resp}", e.name);
            let ctx = gunrock::Context::new(&g).with_reverse(&g);
            let sources = if e.arity == Arity::One { vec![3] } else { Vec::new() };
            let direct = (e.run)(&ctx, &registry::Query { sources, epsilon: None });
            let hash = format!("\"result_hash\":\"{:016x}\"", direct.output.hash());
            assert!(resp.contains(&hash), "{}: {resp} lacks {hash}", e.name);
        }
    }

    /// A directed graph is served over its real transpose. On the star
    /// 0 -> 1..=20, every leaf -> 22, and 21 -> 1, BFS pulls at level 2;
    /// pulling over out-lists would label the unreachable 21 and miss 22.
    #[test]
    fn serves_bfs_on_a_directed_graph_over_its_in_edges() {
        let mut edges: Vec<(u32, u32)> = (1..=20).flat_map(|i| [(0, i), (i, 22)]).collect();
        edges.push((21, 1));
        let g = Arc::new(GraphBuilder::new().directed().build(Coo::from_edges(23, &edges)));
        let state = Arc::new(ServerState::new(g, ServerConfig::default()));
        assert!(
            !Arc::ptr_eq(&state.graphs.reverse, &state.graphs.graph),
            "a directed graph gets its transpose"
        );
        let resp =
            with_workers(&state, || handle_request(&state, r#"{"primitive":"bfs","src":0}"#));
        let mut want = vec![1; 23];
        (want[0], want[21], want[22]) = (0, gunrock_graph::INFINITY, 2);
        let hash = format!("\"result_hash\":\"{:016x}\"", jobs::hash_u32s(&want));
        assert!(resp.contains(&hash), "{resp} lacks {hash}");
        // an undirected graph is its own transpose and is shared
        let state = state_fixture(ServerConfig::default());
        assert!(Arc::ptr_eq(&state.graphs.reverse, &state.graphs.graph));
    }

    #[test]
    fn metrics_meta_request_bypasses_the_queue() {
        let state = state_fixture(ServerConfig::default());
        let resp = handle_request(&state, r#"{"primitive":"metrics"}"#);
        assert!(resp.contains("gunrock-serve/v1"));
        assert!(resp.contains("\"capacity\":16"));
        assert_eq!(crate::metrics::read(&state.metrics.admitted), 0);
    }
}
