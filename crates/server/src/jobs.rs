//! Per-request execution: an admitted request (or a coalesced batch)
//! becomes an [`Invocation`] — its deadline and iteration cap, the job's
//! cancel flag, its checkpoint directory, its (or the server-wide) fault
//! plan — runs through [`invoke`] in its own context, and is rendered as
//! a response line carrying the FNV `result_hash` clients use to assert
//! bit-identical resumes. An operator panic fails only its own request.

use crate::coalesce::BatchMember;
use crate::invoke::{invoke, Graphs, Invocation, InvokeError, Invoked};
use crate::protocol::{error_response, ErrorCode, Request, SCHEMA};
use gunrock::prelude::*;
use gunrock_algos::registry::{self, Arity, Output, Run};
use gunrock_engine::json::JsonBuilder;
use gunrock_engine::pool::BufferPool;
use gunrock_engine::watchdog::Heartbeat;
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
    /// and dispatch bugs only — overload and client errors do not open
    /// the breaker).
    pub breaker_failure: bool,
    /// The wall-clock budget tripped mid-run.
    pub deadline_missed: bool,
    /// A resumable snapshot was written for this request.
    pub checkpointed: bool,
    /// Degradation-ladder rungs the job took under memory pressure.
    pub degrades: u64,
}

impl JobVerdict {
    /// An error answer; its code decides the status and the breaker.
    pub(crate) fn error(id: &str, code: ErrorCode, message: &str) -> JobVerdict {
        JobVerdict {
            response: error_response(id, code, message, None),
            status: match code {
                ErrorCode::DeadlineExpired => JobStatus::Rejected,
                _ => JobStatus::Failed,
            },
            breaker_failure: matches!(code, ErrorCode::OperatorPanic | ErrorCode::Internal),
            deadline_missed: false,
            checkpointed: false,
            degrades: 0,
        }
    }

    /// A result answer for `run`, whose output is in original ids.
    fn result(
        req: &Request,
        run: &Run,
        checkpoint: Option<&Path>,
        batch_lanes: Option<u64>,
    ) -> Self {
        let mut b = JsonBuilder::new();
        b.begin_object();
        b.field_str("schema", SCHEMA);
        b.field_str("id", &req.id);
        b.field_str("status", if run.outcome.is_converged() { "ok" } else { "partial" });
        b.field_str("primitive", &req.primitive);
        b.field_str("outcome", &run.outcome.to_string());
        b.field_u64("iterations", u64::from(run.iterations));
        b.field_f64("elapsed_ms", run.elapsed.as_secs_f64() * 1e3);
        b.field_str("result_hash", &format!("{:016x}", run.output.hash()));
        if let Some(reached) = run.output.reached() {
            b.field_u64("reached", reached);
        }
        if let Some(n) = run.output.components() {
            b.field_u64("num_components", n);
        }
        if let Some(path) = checkpoint {
            b.field_str("checkpoint", &path.display().to_string());
        }
        if let Some(lanes) = batch_lanes {
            b.field_bool("batched", true);
            b.field_u64("batch_lanes", lanes);
        }
        b.field_bool("resumed", req.resume.is_some());
        b.end_object();
        JobVerdict {
            response: b.finish(),
            status: if run.outcome.is_converged() { JobStatus::Ok } else { JobStatus::Partial },
            breaker_failure: false,
            deadline_missed: run.outcome == RunOutcome::TimedOut,
            checkpointed: checkpoint.is_some(),
            degrades: 0,
        }
    }
}

/// The result hashes responses carry (`result_hash`).
pub use gunrock_engine::fnv::{hash_f64s, hash_u32s};

/// Everything a worker needs to run one admitted request.
pub struct JobEnv<'a> {
    /// The shared immutable graph, its reverse and its relabeling.
    pub graphs: &'a Graphs,
    /// Per-job cancel flag, raised by the drain sequence or the watchdog.
    pub cancel: &'a Arc<AtomicBool>,
    /// Watchdog heartbeat for this job, when a watchdog is configured.
    pub heartbeat: Option<&'a Arc<Heartbeat>>,
    /// Shared buffer pool behind every request context.
    pub pool: &'a Arc<BufferPool>,
    /// Server-wide fault injector (per-request `inject` overrides it).
    pub injector: Option<&'a Arc<FaultInjector>>,
    /// Root directory for per-request checkpoint subdirectories; the
    /// only place a request may resume from.
    pub checkpoint_root: &'a Path,
}

impl JobEnv<'_> {
    /// The invocation of `entry` under this job's cancel flag, heartbeat
    /// and pool, with `req`'s (or the server-wide) faults and limits.
    fn invocation(
        &self,
        entry: &'static registry::Entry,
        req: &Request,
        deadline: Option<Instant>,
    ) -> Invocation {
        let mut policy = RunPolicy::unbounded().cancel_flag(Arc::clone(self.cancel));
        if let Some(cap) = req.max_iters {
            policy = policy.max_iterations(cap);
        }
        if let Some(d) = deadline {
            policy = policy.wall_clock_budget(d.saturating_duration_since(Instant::now()));
        }
        Invocation {
            entry,
            sources: if entry.arity == Arity::One { vec![req.src] } else { Vec::new() },
            epsilon: req.epsilon,
            policy,
            faults: req
                .inject
                .map(|plan| Arc::new(FaultInjector::new(plan)))
                .or_else(|| self.injector.cloned()),
            checkpoints: None,
            resume: None,
            heartbeat: self.heartbeat.cloned(),
            pool: Arc::clone(self.pool),
            retries: 0,
            stats: false,
        }
    }

    /// `path` if it names a file under the checkpoint root. Anything
    /// else is refused without being opened.
    fn confined(&self, path: &str) -> Result<PathBuf, InvokeError> {
        let root = self.checkpoint_root.canonicalize();
        match (root, Path::new(path).canonicalize()) {
            (Ok(root), Ok(file)) if file.starts_with(&root) => Ok(file),
            _ => Err(InvokeError {
                code: ErrorCode::ResumeFailed,
                message: format!("{path} is not a snapshot under the checkpoint directory"),
            }),
        }
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
    let elapsed = start.elapsed();
    let run =
        Run { outcome, iterations: 0, elapsed, sources: Vec::new(), output: Output::Count(0) };
    JobVerdict::result(req, &run, None, None)
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
        return JobVerdict::error(
            &req.id,
            ErrorCode::DeadlineExpired,
            "deadline expired while queued",
        );
    }
    if req.primitive == "sleep" {
        return run_sleep(req, deadline, env.cancel, env.heartbeat);
    }
    // admission only queues served names; anything else is a dispatch bug
    let Some(entry) = registry::find(&req.primitive) else {
        let message = format!("cannot serve {:?}", req.primitive);
        return JobVerdict::error(&req.id, ErrorCode::UnknownPrimitive, &message);
    };
    let dir = request_dir(env.checkpoint_root, &req.id, seq);
    let checkpoints = req.checkpoint.then(|| CheckpointPolicy::new(req.checkpoint_every, dir));
    let resume = req.resume.as_deref().map(|path| env.confined(path)).transpose();
    let invocation =
        |resume| Invocation { checkpoints, resume, ..env.invocation(entry, req, deadline) };
    let done = match resume.and_then(|resume| invoke(env.graphs, invocation(resume))) {
        Ok(done) => done,
        Err(e) => return JobVerdict::error(&req.id, e.code, &e.message),
    };
    let verdict = match done.failure() {
        Some(e) => JobVerdict::error(&req.id, e.code, &e.message),
        // A guard-tripped run leaves an exit snapshot behind when the
        // client asked for one; the response names it for the resume.
        None => JobVerdict::result(req, &done.run, done.checkpoint.as_deref(), None),
    };
    JobVerdict { degrades: done.ctx.degrade_count(), ..verdict }
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
        let internal = |m: &BatchMember| {
            JobVerdict::error(&m.req.id, ErrorCode::Internal, "batch dispatch panicked")
        };
        BatchOutcome { verdicts: members.iter().map(internal).collect(), fell_back: false }
    }
}

/// Runs one coalesced batch of point BFS queries as a single lane-packed
/// `msbfs` invocation, de-multiplexing per-lane depths back into one
/// response per member. Members whose deadline expired while the window
/// was open are answered without costing the batch anything. The batch
/// adopts the earliest live deadline — members share a policy class, so
/// no member's budget is cut by more than half (see
/// `coalesce::group_key`).
///
/// **Per-lane panic isolation:** a poisoned lane poisons the *shared*
/// context, so a failed sweep says nothing about which member was at
/// fault. The fallback re-runs every live member through [`run_job`] in
/// its own context — the faulty lane fails with its structured
/// `operator-panic`, and its batch-mates still converge.
pub fn run_batch(env: &JobEnv<'_>, members: &[BatchMember], seq: u64) -> BatchOutcome {
    let now = Instant::now();
    let expired = |m: &BatchMember| m.deadline.is_some_and(|d| now >= d);
    let live: Vec<&BatchMember> = members.iter().filter(|m| !expired(m)).collect();
    // The shared sweep carries the first live member's fault plan (or
    // the server-wide one): an injected fault fails the whole batch
    // forward into the per-lane fallback, which is the isolation story.
    let lead = live.iter().find(|m| m.req.inject.is_some()).or(live.first());
    let done = lead.zip(registry::find("msbfs")).and_then(|(lead, entry)| {
        let deadline = live.iter().filter_map(|m| m.deadline).min();
        let sources = live.iter().map(|m| m.req.src).collect();
        let inv = Invocation { sources, ..env.invocation(entry, &lead.req, deadline) };
        invoke(env.graphs, inv).ok().filter(|d| d.run.outcome != RunOutcome::Failed)
    });
    let n = env.graphs.graph.num_vertices();
    let mut lane = 0;
    let verdicts = members.iter().map(|m| {
        if expired(m) {
            let message = "deadline expired in the batching window";
            return JobVerdict::error(&m.req.id, ErrorCode::DeadlineExpired, message);
        }
        let Some(Invoked { ctx, run, .. }) = &done else {
            return run_job(env, &m.req, m.deadline, seq);
        };
        let Output::Depths(depths) = &run.output else { unreachable!("msbfs outputs depths") };
        let lane_run = Run {
            sources: vec![run.sources[lane]],
            output: Output::Depths(depths[lane * n..(lane + 1) * n].to_vec()),
            ..*run
        };
        let verdict = JobVerdict::result(&m.req, &lane_run, None, Some(live.len() as u64));
        // the shared context's degrade rungs are batch-wide; charge
        // them once (to the first lane) so metrics do not multiply
        let degrades = if lane == 0 { ctx.degrade_count() } else { 0 };
        lane += 1;
        JobVerdict { degrades, ..verdict }
    });
    BatchOutcome { verdicts: verdicts.collect(), fell_back: !live.is_empty() && done.is_none() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, Csr, GraphBuilder};

    fn graphs(g: Csr) -> Graphs {
        Graphs::new(Arc::new(g), None)
    }

    fn env_fixture<'a>(
        graphs: &'a Graphs,
        cancel: &'a Arc<AtomicBool>,
        pool: &'a Arc<BufferPool>,
    ) -> JobEnv<'a> {
        JobEnv {
            graphs,
            cancel,
            heartbeat: None,
            pool,
            injector: None,
            checkpoint_root: Path::new("."),
        }
    }

    fn req(primitive: &str) -> Request {
        crate::protocol::parse_request(&format!("{{\"primitive\":{primitive:?}}}")).unwrap()
    }

    #[test]
    fn bfs_job_converges_and_hashes_deterministically() {
        let g =
            graphs(GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2), (2, 3)])));
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
        let (g, gr) = (graphs(g), Graphs::new(Arc::new(gr), Some(Arc::new(r))));
        let plain = env_fixture(&g, &drain, &pool);
        let reordered = env_fixture(&gr, &drain, &pool);
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
        let g = graphs(GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2)])));
        let drain = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &drain, &pool);
        let mut r = req("bfs");
        r.inject = Some(FaultPlan::parse("panic=1.0", 42).unwrap());
        let v = run_job(&env, &r, None, 0);
        assert_eq!(v.status, JobStatus::Failed);
        assert!(v.breaker_failure);
        assert!(v.response.contains("operator-panic"));
    }

    #[test]
    fn budget_denial_answers_over_budget_without_tripping_the_breaker() {
        let g =
            graphs(GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2), (2, 3)])));
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
        let g = graphs(GraphBuilder::new().build(gunrock_graph::generators::rmat(
            8,
            8,
            Default::default(),
            5,
        )));
        let cancel = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let env = env_fixture(&g, &cancel, &pool);
        let served = run_job(&env, &req("pagerank"), None, 0);
        assert_eq!(served.status, JobStatus::Ok);
        // the same request invocation, instrumented: the trace names the path
        let entry = registry::find("pagerank").unwrap();
        let inv = Invocation { stats: true, ..env.invocation(entry, &req("pagerank"), None) };
        let traced = invoke(&g, inv).unwrap();
        let stats = traced.ctx.run_stats();
        assert!(
            stats.steps.iter().any(|s| s.strategy.starts_with("pull_gather")),
            "request contexts carry the reverse graph"
        );
        let Output::Scores(scores) = &traced.run.output else { panic!("pagerank scores") };
        let hash = format!("{:016x}", hash_f64s(scores));
        assert!(served.response.contains(&hash), "{} lacks {hash}", served.response);
    }

    #[test]
    fn expired_deadline_is_rejected_before_running() {
        let g = graphs(GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1)])));
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
        let g = graphs(
            GraphBuilder::new()
                .build(Coo::from_edges(16, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])),
        );
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
        let g = graphs(GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2)])));
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
        let g =
            graphs(GraphBuilder::new().build(Coo::from_edges(8, &[(0, 1), (1, 2), (2, 3)])));
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
