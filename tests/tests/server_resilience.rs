//! End-to-end resilience scenarios against an in-process `gunrock-serve`
//! instance, asserted entirely from the client side:
//!
//! * **overload** — ≥32 concurrent queries against queue capacity 4:
//!   overflow gets structured `queue-full` rejections with a retry hint,
//!   nothing hangs, admitted work completes;
//! * **panic isolation** — an injected operator panic fails only its own
//!   request; the very next request on the same server succeeds;
//! * **circuit breaker** — K consecutive panics open one primitive's
//!   breaker (clean requests shed with `circuit-open`), other primitives
//!   keep serving, and the breaker recovers through a half-open probe
//!   after the cool-down;
//! * **graceful drain** — shutdown mid-run cancels an in-flight long job
//!   at an operator boundary, leaves a resumable snapshot, and the
//!   resumed run is bit-identical (by `result_hash`) to an undisturbed
//!   full run.

use gunrock_engine::json::JsonValue;
use gunrock_graph::{Coo, Csr, GraphBuilder};
use gunrock_server::{start, Client, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn small_graph() -> Arc<Csr> {
    let edges: Vec<(u32, u32)> = (0..255).map(|v| (v, v + 1)).collect();
    Arc::new(GraphBuilder::new().build(Coo::from_edges(256, &edges)))
}

/// A chain long enough that BFS takes thousands of tiny iterations —
/// a drain request lands mid-run with huge margin.
fn long_chain() -> Arc<Csr> {
    let n: u32 = 400_000;
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
    Arc::new(GraphBuilder::new().build(Coo::from_edges(n as usize, &edges)))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gunrock-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint root");
    dir
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or(&JsonValue::Null)
}

fn status_of(resp: &str) -> (String, String) {
    let v = JsonValue::parse(resp).expect("response must be valid JSON");
    let status = field(&v, "status").as_str().unwrap_or("").to_string();
    let code = v
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    (status, code)
}

#[test]
fn overflow_gets_structured_rejections_not_hangs() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 4,
        checkpoint_dir: temp_dir("overflow"),
        ..ServerConfig::default()
    };
    let handle = start(small_graph(), cfg, 0).expect("server starts");
    let addr = handle.addr().to_string();

    // Saturate the pool first (2 running), then fill the queue (4
    // waiting), pausing so the first two are actually dequeued before
    // the queue-fillers arrive.
    let mut occupiers = Vec::new();
    for phase in [2usize, 4] {
        for _ in 0..phase {
            let addr = addr.clone();
            occupiers.push(thread::spawn(move || {
                let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
                c.request(r#"{"primitive":"sleep","duration_ms":1500}"#)
                    .expect("sleep response")
            }));
        }
        thread::sleep(Duration::from_millis(300));
    }

    // Burst 26 more concurrent queries: pool busy for >1s, queue full,
    // so every one must be rejected immediately — and in a structured
    // way, not by hanging or dropping the connection.
    let burst: Vec<_> = (0..26)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
                c.request(&format!(r#"{{"id":"b{i}","primitive":"bfs","src":0}}"#))
                    .expect("burst response")
            })
        })
        .collect();

    let mut rejected = 0;
    for t in burst {
        let resp = t.join().expect("burst thread");
        let (status, code) = status_of(&resp);
        assert_eq!(status, "rejected", "expected a structured rejection, got: {resp}");
        assert_eq!(code, "queue-full", "got: {resp}");
        let v = JsonValue::parse(&resp).unwrap();
        assert!(
            field(&v, "retry_after_ms").as_u64().is_some(),
            "queue-full must carry a retry hint: {resp}"
        );
        rejected += 1;
    }
    assert_eq!(rejected, 26, "all burst queries answered");

    // The occupying jobs complete normally (ok; 32 total queries served).
    for t in occupiers {
        let resp = t.join().expect("occupier thread");
        let (status, _) = status_of(&resp);
        assert_eq!(status, "ok", "sleep jobs finish cleanly: {resp}");
    }

    handle.shutdown();
    let summary = handle.join();
    let v = JsonValue::parse(&summary).expect("summary is JSON");
    assert_eq!(field(&v, "schema").as_str(), Some("gunrock-serve/v1"));
    assert_eq!(field(field(&v, "rejected"), "queue_full").as_u64(), Some(26));
    assert_eq!(field(field(&v, "requests"), "completed_ok").as_u64(), Some(6));
}

#[test]
fn injected_panic_fails_only_its_own_request() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 8,
        breaker_threshold: 100, // keep the breaker out of this scenario
        checkpoint_dir: temp_dir("panic"),
        ..ServerConfig::default()
    };
    let handle = start(small_graph(), cfg, 0).expect("server starts");
    let mut c = Client::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).expect("connect");

    let poisoned = c
        .request(
            r#"{"id":"bad","primitive":"bfs","src":0,"inject":"panic=1.0","fault_seed":7}"#,
        )
        .expect("poisoned response");
    let (status, code) = status_of(&poisoned);
    assert_eq!(status, "failed", "got: {poisoned}");
    assert_eq!(code, "operator-panic", "got: {poisoned}");

    // Same server, next request: the worker survived, the graph is fine.
    let healthy = c.request(r#"{"id":"good","primitive":"bfs","src":0}"#).expect("healthy");
    let (status, _) = status_of(&healthy);
    assert_eq!(status, "ok", "a panic must only fail its own request: {healthy}");

    handle.shutdown();
    let summary = handle.join();
    let v = JsonValue::parse(&summary).unwrap();
    assert_eq!(field(field(&v, "requests"), "failed").as_u64(), Some(1));
    assert_eq!(field(field(&v, "requests"), "completed_ok").as_u64(), Some(1));
}

#[test]
fn breaker_trips_sheds_and_recovers_after_cooldown() {
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(400),
        checkpoint_dir: temp_dir("breaker"),
        ..ServerConfig::default()
    };
    let handle = start(small_graph(), cfg, 0).expect("server starts");
    let mut c = Client::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).expect("connect");

    for i in 0..3 {
        let resp = c
            .request(&format!(
                r#"{{"id":"p{i}","primitive":"bfs","src":0,"inject":"panic=1.0","fault_seed":{i}}}"#
            ))
            .expect("panic response");
        let (status, code) = status_of(&resp);
        assert_eq!(
            (status.as_str(), code.as_str()),
            ("failed", "operator-panic"),
            "got: {resp}"
        );
    }

    // The bfs breaker is open: a clean request is shed without running.
    let shed = c.request(r#"{"id":"shed","primitive":"bfs","src":0}"#).expect("shed response");
    let (status, code) = status_of(&shed);
    assert_eq!((status.as_str(), code.as_str()), ("rejected", "circuit-open"), "got: {shed}");
    let v = JsonValue::parse(&shed).unwrap();
    assert!(
        field(&v, "retry_after_ms").as_u64().is_some(),
        "shed carries a retry hint: {shed}"
    );

    // Other primitives are keyed independently and keep serving.
    let cc = c.request(r#"{"id":"cc","primitive":"cc"}"#).expect("cc response");
    assert_eq!(status_of(&cc).0, "ok", "breakers are per-primitive: {cc}");

    // The metrics meta request reports the open breaker.
    let metrics = c.request(r#"{"primitive":"metrics"}"#).expect("metrics");
    assert!(metrics.contains("\"state\":\"open\""), "got: {metrics}");

    // After the cool-down a half-open probe is admitted; success closes
    // the breaker again.
    thread::sleep(Duration::from_millis(500));
    let probe = c.request(r#"{"id":"probe","primitive":"bfs","src":0}"#).expect("probe");
    assert_eq!(status_of(&probe).0, "ok", "probe runs after cool-down: {probe}");
    let again = c.request(r#"{"id":"again","primitive":"bfs","src":0}"#).expect("again");
    assert_eq!(status_of(&again).0, "ok", "breaker closed after the probe: {again}");

    handle.shutdown();
    let summary = handle.join();
    let v = JsonValue::parse(&summary).unwrap();
    assert_eq!(field(field(&v, "rejected"), "circuit_open").as_u64(), Some(1));
}

#[test]
fn drain_checkpoints_in_flight_work_and_resume_is_bit_identical() {
    let graph = long_chain();
    let ckpt_root = temp_dir("drain");
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        checkpoint_dir: ckpt_root.clone(),
        ..ServerConfig::default()
    };

    // Reference: an undisturbed full run on its own server.
    let reference = start(Arc::clone(&graph), cfg.clone(), 0).expect("reference server");
    let mut c =
        Client::connect(&reference.addr().to_string(), CLIENT_TIMEOUT).expect("connect");
    let full = c.request(r#"{"id":"full","primitive":"bfs","src":0}"#).expect("full run");
    let v = JsonValue::parse(&full).unwrap();
    assert_eq!(field(&v, "status").as_str(), Some("ok"), "got: {full}");
    let full_hash = field(&v, "result_hash").as_str().expect("full hash").to_string();
    reference.shutdown();
    reference.join();

    // Interrupted: same query with checkpointing, drained mid-run.
    let victim = start(Arc::clone(&graph), cfg.clone(), 0).expect("victim server");
    let addr = victim.addr().to_string();
    let in_flight = thread::spawn(move || {
        let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
        c.request(r#"{"id":"long","primitive":"bfs","src":0,"checkpoint":true}"#)
            .expect("in-flight response")
    });
    // Let the job start (the 400k-iteration chain runs for a long time),
    // then pull the plug.
    thread::sleep(Duration::from_millis(60));
    victim.shutdown();
    let summary = victim.join();
    let interrupted = in_flight.join().expect("in-flight thread");
    let v = JsonValue::parse(&interrupted).unwrap();
    assert_eq!(
        field(&v, "status").as_str(),
        Some("partial"),
        "drain must cancel the in-flight job, not drop it: {interrupted}"
    );
    assert_eq!(field(&v, "outcome").as_str(), Some("cancelled"), "got: {interrupted}");
    let ckpt_path =
        field(&v, "checkpoint").as_str().expect("cancelled job leaves a snapshot").to_string();
    assert!(std::path::Path::new(&ckpt_path).exists(), "snapshot file exists: {ckpt_path}");
    let sv = JsonValue::parse(&summary).unwrap();
    assert_eq!(field(&sv, "drained").as_str(), None, "drained is a bool");
    assert!(summary.contains("\"drained\":true"), "got: {summary}");
    assert!(
        field(&sv, "checkpoints_written").as_u64() >= Some(1),
        "summary counts the exit snapshot: {summary}"
    );

    // Resume on a fresh server: the continued run must converge and be
    // bit-identical to the undisturbed full run.
    let resumer = start(Arc::clone(&graph), cfg, 0).expect("resume server");
    let mut c = Client::connect(&resumer.addr().to_string(), CLIENT_TIMEOUT).expect("connect");
    let resumed = c
        .request(&format!(
            r#"{{"id":"resumed","primitive":"bfs","src":0,"resume":{ckpt_path:?}}}"#
        ))
        .expect("resumed response");
    let v = JsonValue::parse(&resumed).unwrap();
    assert_eq!(field(&v, "status").as_str(), Some("ok"), "resume converges: {resumed}");
    assert_eq!(field(&v, "resumed"), &JsonValue::Bool(true));
    let resumed_hash = field(&v, "result_hash").as_str().expect("resumed hash");
    assert_eq!(resumed_hash, full_hash, "resume must be bit-identical to the full run");
    resumer.shutdown();
    resumer.join();
    let _ = std::fs::remove_dir_all(&ckpt_root);
}

/// A served `resume` reads only snapshots under the server's
/// `--checkpoint-dir`: a valid snapshot written elsewhere is refused with
/// `resume-failed`, and the server that owns it resumes it.
#[test]
fn resume_is_confined_to_the_checkpoint_dir() {
    let (owner_root, other_root) = (temp_dir("confine-owner"), temp_dir("confine-other"));
    let serve = |root: &PathBuf| {
        let cfg = ServerConfig { checkpoint_dir: root.clone(), ..ServerConfig::default() };
        start(small_graph(), cfg, 0).expect("server starts")
    };
    let owner = serve(&owner_root);
    let mut c = Client::connect(&owner.addr().to_string(), CLIENT_TIMEOUT).expect("connect");
    let capped = c
        .request(r#"{"id":"cap","primitive":"bfs","src":0,"max_iters":2,"checkpoint":true}"#)
        .expect("capped run");
    let v = JsonValue::parse(&capped).unwrap();
    assert_eq!(field(&v, "status").as_str(), Some("partial"), "got: {capped}");
    let ckpt = field(&v, "checkpoint").as_str().expect("snapshot path").to_string();
    let resume = format!(r#"{{"id":"again","primitive":"bfs","resume":{ckpt:?}}}"#);

    let other = serve(&other_root);
    let mut c2 = Client::connect(&other.addr().to_string(), CLIENT_TIMEOUT).expect("connect");
    let refused = c2.request(&resume).expect("refusal");
    assert_eq!(status_of(&refused), ("failed".to_string(), "resume-failed".to_string()));

    let resumed = c.request(&resume).expect("resume");
    assert_eq!(status_of(&resumed).0, "ok", "the owner resumes it: {resumed}");
    for server in [owner, other] {
        server.shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&owner_root);
    let _ = std::fs::remove_dir_all(&other_root);
}
