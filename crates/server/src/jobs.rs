//! Per-request execution: runs (or resumes) the request's registry
//! entry and summarizes its output, including the FNV result hash
//! clients use to assert bit-identical resumes.
//!
//! A job runs on a worker thread inside its own [`Context`]: per-request
//! `RunPolicy` (deadline budget, iteration cap, the server-wide drain
//! flag as the cancel flag), per-request checkpoint directory, and a
//! per-request or server-wide fault injector. Operator panics poison
//! only that context — the worker maps them to an `operator-panic`
//! response and keeps serving.

use crate::coalesce::BatchMember;
use crate::protocol::{error_response, ErrorCode, Request, SCHEMA};
use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_algos::registry::{self, Arity, Output, Query, Run};
use gunrock_engine::json::JsonBuilder;
use gunrock_engine::pool::BufferPool;
use gunrock_engine::watchdog::Heartbeat;
use gunrock_graph::reorder::Relabeling;
use gunrock_graph::Csr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a dispatched job ended, for metrics and the circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Converged result.
    Ok,
    /// Guard-tripped partial result (deadline, cap, or drain cancel).
    Partial,
    /// Ran but failed (operator panic / resume failure).
    Failed,
    /// Never ran (deadline spent before dispatch).
    Rejected,
}

/// A finished job: the response line plus bookkeeping flags.
#[derive(Clone, Debug)]
pub struct JobVerdict {
    /// The response line to send back.
    pub response: String,
    /// Completion class for metrics.
    pub status: JobStatus,
    /// Counts toward the primitive's circuit breaker (operator panics
    /// only — overload and client errors do not open the breaker).
    pub breaker_failure: bool,
    /// The wall-clock budget tripped mid-run.
    pub deadline_missed: bool,
    /// A resumable snapshot was written for this request.
    pub checkpointed: bool,
    /// Degradation-ladder rungs the job took under memory pressure.
    pub degrades: u64,
}

/// The result hashes responses carry (`result_hash`).
pub use gunrock_engine::fnv::{hash_f64s, hash_u32s};

/// Everything a worker needs to run one admitted request.
pub struct JobEnv<'a> {
    /// The shared immutable graph.
    pub graph: &'a Csr,
    /// Its in-edges: the transpose, or `graph` itself when undirected.
    pub reverse: &'a Csr,
    /// Set when `graph` is a `--reorder` relabeling of the input graph:
    /// request sources are translated in, per-vertex results are mapped
    /// back to original ids before hashing.
    pub relab: Option<&'a Relabeling>,
    /// Per-job cooperative cancel flag, threaded into the job's
    /// `RunPolicy`. Raised by the drain sequence (all in-flight jobs)
    /// or by the watchdog (this job stalled) — either way the job stops
    /// at its next operator boundary.
    pub cancel: &'a Arc<AtomicBool>,
    /// Watchdog heartbeat for this job, ticked at operator boundaries
    /// (and inside the `sleep` poll loop). `None` when no watchdog is
    /// configured.
    pub heartbeat: Option<&'a Arc<Heartbeat>>,
    /// Shared buffer pool behind every request context.
    pub pool: &'a Arc<BufferPool>,
    /// Server-wide fault injector (per-request `inject` overrides it).
    pub injector: Option<&'a Arc<FaultInjector>>,
    /// Serial fast-path cutoff override for request contexts.
    pub serial_threshold: Option<usize>,
    /// Root directory for per-request checkpoint subdirectories.
    pub checkpoint_root: &'a Path,
}

impl<'a> JobEnv<'a> {
    /// The engine context every request (solo or batched) runs on: the
    /// served graph with its reverse — so BFS can pull and PageRank can
    /// gather over in-edges — over the shared pool, under `policy`, with the
    /// request's (or the server-wide) fault plan and the job's heartbeat.
    fn context(&self, policy: RunPolicy, injector: Option<Arc<FaultInjector>>) -> Context<'a> {
        let mut ctx = Context::new(self.graph)
            .with_reverse(self.reverse)
            .with_shared_pool(self.pool.clone())
            .with_policy(policy);
        if let Some(t) = self.serial_threshold {
            ctx = ctx.with_config(EngineConfig::new().with_serial_threshold(t));
        }
        if let Some(inj) = injector {
            ctx = ctx.with_faults(inj);
        }
        if let Some(hb) = self.heartbeat {
            ctx = ctx.with_heartbeat(Arc::clone(hb));
        }
        ctx
    }
}

/// Per-request checkpoint directory: isolates each request's
/// `<primitive>.ckpt` so concurrent requests never clobber each other.
fn request_dir(root: &Path, id: &str, seq: u64) -> PathBuf {
    let safe: String = id
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .take(48)
        .collect();
    if safe.is_empty() {
        root.join(format!("req-{seq}"))
    } else {
        root.join(safe)
    }
}

struct RunSummary {
    outcome: RunOutcome,
    iterations: u32,
    elapsed: Duration,
    result_hash: u64,
    reached: Option<u64>,
    num_components: Option<u64>,
}

fn respond_result(
    req: &Request,
    summary: &RunSummary,
    checkpoint: Option<&Path>,
    resumed: bool,
    batch_lanes: Option<u64>,
) -> String {
    let mut b = JsonBuilder::new();
    b.begin_object();
    b.field_str("schema", SCHEMA);
    b.field_str("id", &req.id);
    b.field_str("status", if summary.outcome.is_converged() { "ok" } else { "partial" });
    b.field_str("primitive", &req.primitive);
    b.field_str("outcome", &summary.outcome.to_string());
    b.field_u64("iterations", u64::from(summary.iterations));
    b.field_f64("elapsed_ms", summary.elapsed.as_secs_f64() * 1e3);
    b.field_str("result_hash", &format!("{:016x}", summary.result_hash));
    if let Some(reached) = summary.reached {
        b.field_u64("reached", reached);
    }
    if let Some(n) = summary.num_components {
        b.field_u64("num_components", n);
    }
    if let Some(path) = checkpoint {
        b.field_str("checkpoint", &path.display().to_string());
    }
    if let Some(lanes) = batch_lanes {
        b.field_bool("batched", true);
        b.field_u64("batch_lanes", lanes);
    }
    b.field_bool("resumed", resumed);
    b.end_object();
    b.finish()
}

/// Summarizes a finished run for the response, in original-id order on
/// a reordered server so hashes are comparable with an unreordered one.
fn summarize(run: &Run, relab: Option<&Relabeling>) -> RunSummary {
    let restored = relab.map(|r| run.output.restore(r));
    let output = restored.as_ref().unwrap_or(&run.output);
    RunSummary {
        outcome: run.outcome,
        iterations: run.iterations,
        elapsed: run.elapsed,
        result_hash: output.hash(),
        reached: output.reached(),
        num_components: output.components(),
    }
}

/// The `sleep` diagnostic primitive: occupies a worker for
/// `duration_ms`, polling the cancel flag and deadline every few
/// milliseconds, so tests can fill the pool and the queue
/// deterministically without depending on graph runtimes. Each poll
/// also ticks the watchdog heartbeat: a long sleep is slow, not hung.
fn run_sleep(
    req: &Request,
    deadline: Option<Instant>,
    cancel: &Arc<AtomicBool>,
    heartbeat: Option<&Arc<Heartbeat>>,
) -> JobVerdict {
    let start = Instant::now();
    let budget = Duration::from_millis(req.duration_ms);
    let mut outcome = RunOutcome::Converged;
    while start.elapsed() < budget {
        if let Some(hb) = heartbeat {
            hb.tick();
        }
        // ORDERING: Acquire — pairs with the drain sequence's (or the
        // watchdog's) Release store; sleep jobs stop promptly.
        if cancel.load(std::sync::atomic::Ordering::Acquire) {
            outcome = RunOutcome::Cancelled;
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            outcome = RunOutcome::TimedOut;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let summary = RunSummary {
        outcome,
        iterations: 0,
        elapsed: start.elapsed(),
        result_hash: 0,
        reached: None,
        num_components: None,
    };
    JobVerdict {
        response: respond_result(req, &summary, None, false, None),
        status: if outcome.is_converged() { JobStatus::Ok } else { JobStatus::Partial },
        breaker_failure: false,
        deadline_missed: outcome == RunOutcome::TimedOut,
        checkpointed: false,
        degrades: 0,
    }
}

fn failed_verdict(req: &Request, code: ErrorCode, message: &str, breaker: bool) -> JobVerdict {
    JobVerdict {
        response: error_response(&req.id, code, message, None),
        status: JobStatus::Failed,
        breaker_failure: breaker,
        deadline_missed: false,
        checkpointed: false,
        degrades: 0,
    }
}

/// Runs one admitted request to a verdict. `deadline` is the absolute
/// instant derived from `deadline_ms` at arrival; `seq` disambiguates
/// checkpoint directories for requests without an id.
pub fn run_job(
    env: &JobEnv<'_>,
    req: &Request,
    deadline: Option<Instant>,
    seq: u64,
) -> JobVerdict {
    // Admission control, part two: a queue wait may have consumed the
    // whole budget — reject instead of burning a worker on a result the
    // client has already given up on.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return JobVerdict {
            response: error_response(
                &req.id,
                ErrorCode::DeadlineExpired,
                "deadline expired while queued",
                None,
            ),
            status: JobStatus::Rejected,
            breaker_failure: false,
            deadline_missed: false,
            checkpointed: false,
            degrades: 0,
        };
    }
    if req.primitive == "sleep" {
        return run_sleep(req, deadline, env.cancel, env.heartbeat);
    }
    // admission only queues served names; anything else is a dispatch bug
    let Some(entry) = registry::find(&req.primitive) else {
        let message = format!("cannot serve {:?}", req.primitive);
        return failed_verdict(req, ErrorCode::UnknownPrimitive, &message, false);
    };

    let mut policy = RunPolicy::unbounded().cancel_flag(env.cancel.clone());
    if let Some(cap) = req.max_iters {
        policy = policy.max_iterations(cap);
    }
    if let Some(d) = deadline {
        policy = policy.wall_clock_budget(d.saturating_duration_since(Instant::now()));
    }

    let injector = match &req.inject {
        Some(spec) => match FaultPlan::parse(spec, req.fault_seed) {
            Ok(plan) => Some(Arc::new(FaultInjector::new(plan))),
            Err(e) => {
                return JobVerdict {
                    response: error_response(
                        &req.id,
                        ErrorCode::BadRequest,
                        &format!("inject: {e}"),
                        None,
                    ),
                    status: JobStatus::Rejected,
                    breaker_failure: false,
                    deadline_missed: false,
                    checkpointed: false,
                    degrades: 0,
                }
            }
        },
        None => env.injector.cloned(),
    };

    let ckpt_policy = req.checkpoint.then(|| {
        CheckpointPolicy::new(
            req.checkpoint_every,
            request_dir(env.checkpoint_root, &req.id, seq),
        )
    });

    let mut ctx = env.context(policy, injector);
    if let Some(p) = &ckpt_policy {
        ctx = ctx.with_checkpoints(p.clone());
    }

    let (run, resumed) = if let Some(path) = &req.resume {
        let ckpt = match Checkpoint::load(Path::new(path)) {
            Ok(c) => c,
            Err(e) => {
                return failed_verdict(
                    req,
                    ErrorCode::ResumeFailed,
                    &format!("{path}: {e}"),
                    false,
                )
            }
        };
        if ckpt.primitive() != entry.name {
            return failed_verdict(
                req,
                ErrorCode::ResumeFailed,
                &format!(
                    "snapshot is for {:?}, request names {:?}",
                    ckpt.primitive(),
                    req.primitive
                ),
                false,
            );
        }
        let Some(resume) = entry.resume else {
            let message = format!("{} runs cannot be resumed", entry.name);
            return failed_verdict(req, ErrorCode::ResumeFailed, &message, false);
        };
        match resume(&ctx, &ckpt) {
            Ok(run) => (run, true),
            Err(e) => {
                return failed_verdict(req, ErrorCode::ResumeFailed, &e.to_string(), false)
            }
        }
    } else {
        // requests name original vertex ids; a reordered server
        // translates the source in and maps results back at the hash
        let src = env.relab.map_or(req.src, |r| r.new_of_old(req.src));
        let sources = if entry.arity == Arity::One { vec![src] } else { Vec::new() };
        ((entry.run)(&ctx, &Query { sources, epsilon: req.epsilon }), false)
    };
    let summary = summarize(&run, env.relab);

    if summary.outcome == RunOutcome::Failed {
        let failure = ctx.take_failure();
        // A budget denial is a resource condition, not a code bug: it
        // answers `over-budget` (retryable once pressure clears) and
        // does not feed the primitive's circuit breaker.
        let (code, breaker) = match &failure {
            Some(GunrockError::BudgetExceeded { .. }) => (ErrorCode::OverBudget, false),
            _ => (ErrorCode::OperatorPanic, true),
        };
        let message =
            failure.map(|e| e.to_string()).unwrap_or_else(|| "operator failed".to_string());
        return JobVerdict {
            response: error_response(&req.id, code, &message, None),
            status: JobStatus::Failed,
            breaker_failure: breaker,
            deadline_missed: false,
            checkpointed: false,
            degrades: ctx.degrade_count(),
        };
    }

    // A guard-tripped run leaves an exit snapshot behind when the client
    // asked for one; report its path so the client can resume.
    let checkpoint = ckpt_policy
        .as_ref()
        .map(|p| p.path(&req.primitive))
        .filter(|path| !summary.outcome.is_converged() && path.exists());
    JobVerdict {
        response: respond_result(req, &summary, checkpoint.as_deref(), resumed, None),
        status: if summary.outcome.is_converged() { JobStatus::Ok } else { JobStatus::Partial },
        breaker_failure: false,
        deadline_missed: summary.outcome == RunOutcome::TimedOut,
        checkpointed: checkpoint.is_some(),
        degrades: ctx.degrade_count(),
    }
}

/// How a lane-packed batch ended: one verdict per member (aligned with
/// the input slice) plus whether the shared sweep had to fall back to
/// per-lane isolated re-runs.
pub struct BatchOutcome {
    /// Per-member verdicts, in member order.
    pub verdicts: Vec<JobVerdict>,
    /// The batched run failed (a poisoned lane) and every live member
    /// was re-run in its own isolated context instead.
    pub fell_back: bool,
}

impl BatchOutcome {
    /// The last-line-of-defense verdict when batch dispatch itself
    /// panicked outside any request context.
    pub fn internal(members: &[BatchMember]) -> Self {
        BatchOutcome {
            verdicts: members
                .iter()
                .map(|m| JobVerdict {
                    response: error_response(
                        &m.req.id,
                        ErrorCode::Internal,
                        "batch dispatch panicked",
                        None,
                    ),
                    status: JobStatus::Failed,
                    breaker_failure: true,
                    deadline_missed: false,
                    checkpointed: false,
                    degrades: 0,
                })
                .collect(),
            fell_back: false,
        }
    }
}

/// Runs one coalesced batch of point BFS queries as a single lane-packed
/// MS-BFS traversal, de-multiplexing per-lane depths back into one
/// response per member. Members whose deadline expired while the window
/// was open (or whose `inject` spec is malformed) are answered without
/// costing the batch anything. The batch context adopts the earliest
/// live deadline — members share a policy class, so no member's budget
/// is cut by more than half (see `coalesce::group_key`).
///
/// **Per-lane panic isolation:** a poisoned lane poisons the *shared*
/// context, so a failed sweep says nothing about which member was at
/// fault. The fallback re-runs every live member through [`run_job`] in
/// its own context — the faulty lane fails with its structured
/// `operator-panic`, and its batch-mates still converge.
pub fn run_batch(env: &JobEnv<'_>, members: &[BatchMember], seq: u64) -> BatchOutcome {
    let now = Instant::now();
    let mut verdicts: Vec<Option<JobVerdict>> = members.iter().map(|_| None).collect();
    let mut live: Vec<usize> = Vec::with_capacity(members.len());
    for (i, m) in members.iter().enumerate() {
        if m.deadline.is_some_and(|d| now >= d) {
            verdicts[i] = Some(JobVerdict {
                response: error_response(
                    &m.req.id,
                    ErrorCode::DeadlineExpired,
                    "deadline expired in the batching window",
                    None,
                ),
                status: JobStatus::Rejected,
                breaker_failure: false,
                deadline_missed: false,
                checkpointed: false,
                degrades: 0,
            });
        } else if m.req.inject.as_deref().is_some_and(|s| FaultPlan::parse(s, 0).is_err()) {
            verdicts[i] = Some(JobVerdict {
                response: error_response(
                    &m.req.id,
                    ErrorCode::BadRequest,
                    "inject: unparseable fault spec",
                    None,
                ),
                status: JobStatus::Rejected,
                breaker_failure: false,
                deadline_missed: false,
                checkpointed: false,
                degrades: 0,
            });
        } else {
            live.push(i);
        }
    }
    let finish = |verdicts: Vec<Option<JobVerdict>>, fell_back: bool| BatchOutcome {
        // LINT-ALLOW(panic): every index is either rejected above or in
        // `live`, and both paths below fill every live slot.
        verdicts: verdicts.into_iter().map(|v| v.unwrap()).collect(),
        fell_back,
    };
    if live.is_empty() {
        return finish(verdicts, false);
    }

    let mut policy = RunPolicy::unbounded().cancel_flag(env.cancel.clone());
    if let Some(d) = live.iter().filter_map(|&i| members[i].deadline).min() {
        policy = policy.wall_clock_budget(d.saturating_duration_since(Instant::now()));
    }
    // The shared sweep carries the first live member's fault plan (or
    // the server-wide one): an injected fault fails the whole batch
    // forward into the per-lane fallback, which is the isolation story.
    let injector = live
        .iter()
        .find_map(|&i| {
            let m = &members[i];
            let spec = m.req.inject.as_deref()?;
            FaultPlan::parse(spec, m.req.fault_seed)
                .ok()
                .map(|plan| Arc::new(FaultInjector::new(plan)))
        })
        .or_else(|| env.injector.cloned());

    let ctx = env.context(policy, injector);

    let sources: Vec<u32> = live
        .iter()
        .map(|&i| {
            let s = members[i].req.src;
            env.relab.map_or(s, |r| r.new_of_old(s))
        })
        .collect();
    let r = algos::msbfs(&ctx, &sources);

    if r.outcome == RunOutcome::Failed {
        drop(ctx);
        for &i in &live {
            verdicts[i] = Some(run_job(env, &members[i].req, members[i].deadline, seq));
        }
        return finish(verdicts, true);
    }

    let lanes = live.len() as u64;
    for (lane, &i) in live.iter().enumerate() {
        let lane_run = Run {
            outcome: r.outcome,
            iterations: r.iterations,
            elapsed: r.elapsed,
            sources: vec![sources[lane]],
            output: Output::Depths(r.lane_depths(lane).to_vec()),
        };
        let summary = summarize(&lane_run, env.relab);
        verdicts[i] = Some(JobVerdict {
            response: respond_result(&members[i].req, &summary, None, false, Some(lanes)),
            status: if r.outcome.is_converged() { JobStatus::Ok } else { JobStatus::Partial },
            breaker_failure: false,
            deadline_missed: r.outcome == RunOutcome::TimedOut,
            checkpointed: false,
            // the shared context's degrade rungs are batch-wide; charge
            // them once (to the first lane) so metrics do not multiply
            degrades: if lane == 0 { ctx.degrade_count() } else { 0 },
        });
    }
    finish(verdicts, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, GraphBuilder};

    fn env_fixture<'a>(
        g: &'a Csr,
        cancel: &'a Arc<AtomicBool>,
        pool: &'a Arc<BufferPool>,
    ) -> JobEnv<'a> {
        JobEnv {
            graph: g,
            reverse: g,
            relab: None,
            cancel,
            heartbeat: None,
            pool,
            injector: None,
            serial_threshold: None,
            checkpoint_root: Path::new("."),
        }
    }

    fn req(primitive: &str) -> Request {
        crate::protocol::parse_request(&format!("{{\"primitive\":{primitive:?}}}")).unwrap()
    }

    #[test]
    fn bfs_job_converges_and_hashes_deterministically() {
        let g = GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2), (2, 3)]));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let v1 = run_job(&env, &req("bfs"), None, 0);
        let v2 = run_job(&env, &req("bfs"), None, 1);
        assert_eq!(v1.status, JobStatus::Ok);
        assert!(!v1.breaker_failure);
        let hash = |resp: &str| {
            gunrock_engine::json::JsonValue::parse(resp)
                .unwrap()
                .get("result_hash")
                .and_then(|h| h.as_str().map(str::to_string))
                .unwrap()
        };
        assert_eq!(
            hash(&v1.response),
            hash(&v2.response),
            "same request: identical result hash"
        );
        assert!(v1.response.contains("\"reached\":4"));
    }

    #[test]
    fn reordered_server_reports_identical_result_hashes() {
        // a hub-heavy little graph so degree_descending is a real shuffle
        let g = GraphBuilder::new()
            .random_weights(1, 9, 7)
            .build(Coo::from_edges(8, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (1, 6)]));
        let r = gunrock_graph::reorder::degree_descending(&g);
        let gr = r.apply(&g);
        assert_ne!(g.col_indices(), gr.col_indices(), "relabeling must actually move ids");
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let plain = env_fixture(&g, &drain, &pool);
        let mut reordered = env_fixture(&gr, &drain, &pool);
        reordered.relab = Some(&r);
        let field = |resp: &str, key: &str| {
            let v = gunrock_engine::json::JsonValue::parse(resp).unwrap();
            let f = v.get(key);
            f.and_then(|f| f.as_str().map(str::to_string))
                .or_else(|| f.and_then(|f| f.as_u64()).map(|n| n.to_string()))
                .unwrap_or_default()
        };
        // integer results (depths, distances) are order-independent;
        // pagerank sums floats in a different order under relabeling, so
        // its hashes legitimately differ
        for prim in ["bfs", "sssp"] {
            let a = run_job(&plain, &req(prim), None, 0);
            let b = run_job(&reordered, &req(prim), None, 1);
            assert_eq!(a.status, JobStatus::Ok, "{prim}");
            assert_eq!(b.status, JobStatus::Ok, "{prim}");
            assert_eq!(
                field(&a.response, "result_hash"),
                field(&b.response, "result_hash"),
                "{prim}: restored results must be bit-identical to the plain server's"
            );
            assert_eq!(field(&a.response, "reached"), field(&b.response, "reached"), "{prim}");
        }
        // cc representatives depend on id order, but the partition size
        // must agree
        let a = run_job(&plain, &req("cc"), None, 0);
        let b = run_job(&reordered, &req("cc"), None, 1);
        assert_eq!(field(&a.response, "num_components"), field(&b.response, "num_components"));
    }

    #[test]
    fn injected_panic_is_a_breaker_failure() {
        let g = GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2)]));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let mut r = req("bfs");
        r.inject = Some("panic=1.0".to_string());
        let v = run_job(&env, &r, None, 0);
        assert_eq!(v.status, JobStatus::Failed);
        assert!(v.breaker_failure);
        assert!(v.response.contains("operator-panic"));
    }

    #[test]
    fn budget_denial_answers_over_budget_without_tripping_the_breaker() {
        let g = GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2), (2, 3)]));
        let cancel = Arc::new(AtomicBool::new(false));
        // a 4-byte budget cannot fit any pooled checkout or even the
        // lean estimate, so the run fails with a structured denial
        let budget = Arc::new(gunrock_engine::budget::MemoryBudget::new(4));
        let pool = Arc::new(BufferPool::new().with_budget(Arc::clone(&budget)));
        let env = env_fixture(&g, &cancel, &pool);
        let v = run_job(&env, &req("bfs"), None, 0);
        assert_eq!(v.status, JobStatus::Failed);
        assert!(!v.breaker_failure, "budget pressure must not open the breaker");
        assert!(v.response.contains("over-budget"), "{}", v.response);
    }

    #[test]
    fn served_pagerank_runs_its_dense_iterations_on_the_gather_path() {
        let g = GraphBuilder::new().build(gunrock_graph::generators::rmat(
            8,
            8,
            Default::default(),
            5,
        ));
        let cancel = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &cancel, &pool);
        let served = run_job(&env, &req("pagerank"), None, 0);
        assert_eq!(served.status, JobStatus::Ok);
        // the same request context, instrumented: the trace names the path
        let ctx = env.context(RunPolicy::unbounded(), None).with_stats();
        let r = algos::pagerank(&ctx, algos::PrOptions::default());
        let stats = ctx.run_stats();
        assert!(
            stats.steps.iter().any(|s| s.strategy.starts_with("pull_gather")),
            "request contexts carry the reverse graph"
        );
        let hash = format!("{:016x}", hash_f64s(&r.scores));
        assert!(served.response.contains(&hash), "{} lacks {hash}", served.response);
    }

    #[test]
    fn expired_deadline_is_rejected_before_running() {
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1)]));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let v = run_job(&env, &req("bfs"), Some(Instant::now() - Duration::from_millis(1)), 0);
        assert_eq!(v.status, JobStatus::Rejected);
        assert!(v.response.contains("deadline-expired"));
    }

    #[test]
    fn request_dirs_are_isolated_and_sanitized() {
        let root = Path::new("/tmp/ckpts");
        assert_eq!(request_dir(root, "job-7", 0), root.join("job-7"));
        assert_eq!(request_dir(root, "../evil", 3), root.join("evil"));
        assert_eq!(request_dir(root, "", 3), root.join("req-3"));
        assert_ne!(request_dir(root, "a", 0), request_dir(root, "b", 0));
    }

    fn batch_member(
        line: &str,
        deadline: Option<Instant>,
    ) -> (BatchMember, std::sync::mpsc::Receiver<String>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let req = crate::protocol::parse_request(line).unwrap();
        (BatchMember { req, deadline, reply: tx }, rx)
    }

    #[test]
    fn batch_demuxes_per_lane_results_identical_to_solo_runs() {
        let g = GraphBuilder::new()
            .build(Coo::from_edges(16, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let lines = [
            r#"{"id":"a","primitive":"bfs","src":0}"#,
            r#"{"id":"b","primitive":"bfs","src":4}"#,
            r#"{"id":"c","primitive":"bfs","src":2}"#,
        ];
        let members: Vec<BatchMember> = lines.iter().map(|l| batch_member(l, None).0).collect();
        let out = run_batch(&env, &members, 0);
        assert!(!out.fell_back);
        assert_eq!(out.verdicts.len(), 3);
        let hash = |resp: &str| {
            gunrock_engine::json::JsonValue::parse(resp)
                .unwrap()
                .get("result_hash")
                .and_then(|h| h.as_str().map(str::to_string))
                .unwrap()
        };
        for (line, v) in lines.iter().zip(&out.verdicts) {
            assert_eq!(v.status, JobStatus::Ok, "{line}");
            assert!(v.response.contains("\"batched\":true"), "{}", v.response);
            assert!(v.response.contains("\"batch_lanes\":3"), "{}", v.response);
            // per-lane hash must be bit-identical to the solo job's
            let solo = run_job(&env, &crate::protocol::parse_request(line).unwrap(), None, 9);
            assert_eq!(hash(&v.response), hash(&solo.response), "{line}");
        }
    }

    #[test]
    fn expired_member_is_rejected_without_failing_batch_mates() {
        let g = GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2)]));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let (dead, _rx1) = batch_member(
            r#"{"id":"late","primitive":"bfs","src":0,"deadline_ms":5}"#,
            Some(Instant::now() - Duration::from_millis(1)),
        );
        let (live, _rx2) = batch_member(r#"{"id":"ok","primitive":"bfs","src":1}"#, None);
        let out = run_batch(&env, &[dead, live], 0);
        assert_eq!(out.verdicts[0].status, JobStatus::Rejected);
        assert!(out.verdicts[0].response.contains("deadline-expired"));
        assert_eq!(out.verdicts[1].status, JobStatus::Ok);
        assert!(out.verdicts[1].response.contains("\"batch_lanes\":1"));
    }

    #[test]
    fn poisoned_lane_falls_back_and_batch_mates_still_answer() {
        let g = GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2), (2, 3)]));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let (poisoned, _rx1) = batch_member(
            r#"{"id":"bad","primitive":"bfs","src":0,"inject":"panic=1.0"}"#,
            None,
        );
        let (clean, _rx2) = batch_member(r#"{"id":"good","primitive":"bfs","src":1}"#, None);
        let out = run_batch(&env, &[poisoned, clean], 0);
        assert!(out.fell_back, "a poisoned shared sweep must re-run lanes in isolation");
        assert_eq!(out.verdicts[0].status, JobStatus::Failed);
        assert!(out.verdicts[0].breaker_failure);
        assert!(
            out.verdicts[0].response.contains("operator-panic"),
            "{}",
            out.verdicts[0].response
        );
        assert_eq!(out.verdicts[1].status, JobStatus::Ok, "{}", out.verdicts[1].response);
    }

    #[test]
    fn fnv_hashes_distinguish_bitwise_changes() {
        assert_eq!(hash_u32s(&[1, 2, 3]), hash_u32s(&[1, 2, 3]));
        assert_ne!(hash_u32s(&[1, 2, 3]), hash_u32s(&[1, 2, 4]));
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[-0.0]), "bit pattern, not numeric equality");
    }
}
