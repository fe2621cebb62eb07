//! End-to-end resource-governance scenarios against an in-process
//! `gunrock-serve` instance, asserted from the client side:
//!
//! * **over-budget storm** — 32 concurrent queries whose estimated
//!   footprint exceeds the server's memory budget: every one is answered
//!   with a structured `over-budget` rejection (no hangs, no aborts),
//!   a zero-footprint job is still served afterward, and the metrics
//!   document carries the governance counters and memory gauges;
//! * **watchdog reap** — a query whose advance stalls (ignoring the
//!   cooperative cancel) is reaped within twice the watchdog interval
//!   and answered `watchdog-killed`; the worker survives and the next
//!   query on the same server succeeds;
//! * **taxonomy coverage** — all five core primitives under a hopeless
//!   budget fail with the same structured rejection, and the drain
//!   summary accounts for every one;
//! * **honest estimates** (in process) — a `cc` or `bc` run, or a run of
//!   any registry entry, admitted at exactly its `estimate_bytes` never
//!   reserves more than that.

use gunrock_engine::json::JsonValue;
use gunrock_graph::{Coo, Csr, GraphBuilder};
use gunrock_integration::failure_or;
use gunrock_server::{start, Client, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn small_graph() -> Arc<Csr> {
    let edges: Vec<(u32, u32)> = (0..255).map(|v| (v, v + 1)).collect();
    Arc::new(GraphBuilder::new().build(Coo::from_edges(256, &edges)))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gunrock-gov-{tag}-{}", std::process::id()));
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
fn over_budget_storm_is_rejected_structurally_and_server_survives() {
    // 1 KiB cannot hold even the lean estimate for a 256-vertex BFS, so
    // every storm query is a deterministic permanent rejection.
    let cfg = ServerConfig {
        workers: 4,
        queue_capacity: 64,
        memory_budget: 1024,
        checkpoint_dir: temp_dir("storm"),
        ..ServerConfig::default()
    };
    let handle = start(small_graph(), cfg, 0).expect("server starts");
    let addr = handle.addr().to_string();

    let storm: Vec<_> = (0..32)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
                c.request(&format!(r#"{{"id":"s{i}","primitive":"bfs","src":0}}"#))
                    .expect("storm response")
            })
        })
        .collect();
    for t in storm {
        let resp = t.join().expect("storm thread");
        let (status, code) = status_of(&resp);
        assert_eq!(status, "rejected", "expected a structured rejection, got: {resp}");
        assert_eq!(code, "over-budget", "got: {resp}");
        // the graph simply does not fit: retrying cannot help, so the
        // rejection must NOT suggest it
        assert!(
            !resp.contains("retry_after_ms"),
            "permanent over-budget must not hint a retry: {resp}"
        );
    }

    // Post-storm health: a zero-footprint job is admitted and served.
    let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
    let probe = c
        .request(r#"{"id":"probe","primitive":"sleep","duration_ms":5}"#)
        .expect("probe response");
    assert_eq!(status_of(&probe).0, "ok", "server must keep serving after the storm: {probe}");

    // The metrics document carries the governance counters and gauges.
    let metrics = c.request(r#"{"primitive":"metrics"}"#).expect("metrics");
    let v = JsonValue::parse(&metrics).unwrap();
    assert_eq!(field(field(&v, "rejected"), "over_budget").as_u64(), Some(32));
    let mem = v.get("memory").expect("budgeted server renders a memory section");
    assert_eq!(field(mem, "budget_limit").as_u64(), Some(1024));
    assert_eq!(field(mem, "denials").as_u64(), Some(0), "rejections happen at admission");

    handle.shutdown();
    let summary = handle.join();
    let v = JsonValue::parse(&summary).expect("summary is JSON");
    assert_eq!(field(field(&v, "rejected"), "over_budget").as_u64(), Some(32));
    assert_eq!(field(field(&v, "requests"), "completed_ok").as_u64(), Some(1));
}

#[test]
fn stalled_query_is_reaped_within_two_intervals_and_answered_watchdog_killed() {
    const INTERVAL: Duration = Duration::from_millis(150);
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        breaker_threshold: 100, // keep the breaker out of this scenario
        watchdog_interval: Some(INTERVAL),
        checkpoint_dir: temp_dir("reap"),
        ..ServerConfig::default()
    };
    let handle = start(small_graph(), cfg, 0).expect("server starts");
    let mut c = Client::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).expect("connect");

    // The stall site ignores the cooperative cancel and only yields to
    // the watchdog's kill flag, so the full escalation ladder runs.
    let start_at = Instant::now();
    let resp = c
        .request(
            r#"{"id":"wedge","primitive":"bfs","src":0,"inject":"stall=1.0","fault_seed":7}"#,
        )
        .expect("stalled response");
    let elapsed = start_at.elapsed();
    let (status, code) = status_of(&resp);
    assert_eq!(status, "failed", "got: {resp}");
    assert_eq!(code, "watchdog-killed", "got: {resp}");
    // the acceptance bound: reaped within 2x the watchdog interval
    // (plus dispatch and reaper-poll slack)
    assert!(
        elapsed < 2 * INTERVAL + Duration::from_millis(300),
        "reap took {elapsed:?}, bound is 2 * {INTERVAL:?}"
    );

    // The worker slot is reclaimed once the stalled operator observes
    // the kill flag; the same server keeps serving.
    let healthy = c.request(r#"{"id":"ok","primitive":"bfs","src":0}"#).expect("healthy");
    assert_eq!(status_of(&healthy).0, "ok", "worker must survive the reap: {healthy}");

    let metrics = c.request(r#"{"primitive":"metrics"}"#).expect("metrics");
    let v = JsonValue::parse(&metrics).unwrap();
    assert_eq!(field(&v, "watchdog_kills").as_u64(), Some(1));

    handle.shutdown();
    handle.join();
}

#[test]
fn every_primitive_under_a_hopeless_budget_fails_structured() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 8,
        memory_budget: 1024,
        checkpoint_dir: temp_dir("taxonomy"),
        ..ServerConfig::default()
    };
    let handle = start(small_graph(), cfg, 0).expect("server starts");
    let mut c = Client::connect(&handle.addr().to_string(), CLIENT_TIMEOUT).expect("connect");

    for prim in ["bfs", "sssp", "bc", "cc", "pagerank"] {
        let resp = c
            .request(&format!(r#"{{"id":"{prim}","primitive":"{prim}","src":0}}"#))
            .expect("response");
        let (status, code) = status_of(&resp);
        assert_eq!(
            (status.as_str(), code.as_str()),
            ("rejected", "over-budget"),
            "{prim}: {resp}"
        );
    }

    handle.shutdown();
    let summary = handle.join();
    let v = JsonValue::parse(&summary).expect("summary is JSON");
    assert_eq!(field(field(&v, "rejected"), "over_budget").as_u64(), Some(5));
    assert_eq!(field(field(&v, "requests"), "admitted").as_u64(), Some(0));
}

/// Admission prices what CC allocates: a budget of exactly the estimate
/// admits the run, and warm runs — skipping the giant component or, with
/// no reverse graph, advancing over every edge — keep the budget's
/// high-water under it without a denial. A hopeless budget still ends in
/// a structured `BudgetExceeded` from admission, before any operator.
#[test]
fn cc_estimate_covers_what_a_budgeted_run_reserves() {
    use gunrock::prelude::*;
    use gunrock_algos as algos;
    use gunrock_algos::registry::find;
    use gunrock_engine::budget::MemoryBudget;
    use gunrock_graph::generators::rmat;
    let g = GraphBuilder::new().build(rmat(12, 8, Default::default(), 5));
    let want = gunrock_baselines::serial::connected_components(&g);
    let estimate =
        (find("cc").unwrap().estimate_bytes)(g.num_vertices() as u64, g.num_edges() as u64);
    for skip in [false, true] {
        let budget = Arc::new(MemoryBudget::new(estimate));
        let ctx = Context::new(&g).with_budget(Arc::clone(&budget));
        let ctx = if skip { ctx.with_reverse(&g) } else { ctx };
        for _ in 0..3 {
            let r = algos::cc(&ctx);
            let r = failure_or(&ctx, r.outcome, r).expect("admitted at its own estimate");
            assert_eq!(r.labels, want);
        }
        assert_eq!(ctx.degrade_count(), 0, "admitted without a demotion");
        assert_eq!(budget.denials(), 0);
        assert!(budget.high_water() > 0 && budget.high_water() <= estimate, "skip={skip}");
        assert_eq!(budget.reserved(), 0, "everything reserved was released");
    }
    let ctx = Context::new(&g).with_reverse(&g).with_budget(Arc::new(MemoryBudget::new(64)));
    let r = algos::cc(&ctx);
    match failure_or(&ctx, r.outcome, r) {
        Err(GunrockError::BudgetExceeded { operator, limit, .. }) => {
            assert_eq!((operator, limit), ("admission", 64));
        }
        other => panic!("expected BudgetExceeded from admission, got {other:?}"),
    }
}

/// Admission prices what BC allocates: its pooled level stack, each
/// sparse level's input copy and the advances. Warm runs at a budget of
/// exactly the estimate — pushing every level, or gathering dense levels
/// with a reverse graph — stay under it without a denial or a demotion.
#[test]
fn bc_estimate_covers_what_a_budgeted_run_reserves() {
    use gunrock::prelude::*;
    use gunrock_algos as algos;
    use gunrock_algos::registry::find;
    use gunrock_engine::budget::MemoryBudget;
    use gunrock_graph::generators::rmat;
    let g = GraphBuilder::new().build(rmat(12, 8, Default::default(), 5));
    let want = gunrock_baselines::serial::brandes_single_source(&g, 0);
    let estimate =
        (find("bc").unwrap().estimate_bytes)(g.num_vertices() as u64, g.num_edges() as u64);
    for reverse in [false, true] {
        let budget = Arc::new(MemoryBudget::new(estimate));
        let ctx = Context::new(&g).with_budget(Arc::clone(&budget));
        let ctx = if reverse { ctx.with_reverse(&g) } else { ctx };
        for _ in 0..3 {
            let r = algos::bc(&ctx, 0, Default::default());
            let r = failure_or(&ctx, r.outcome, r).expect("admitted at its estimate");
            for (v, (x, y)) in r.bc_values.iter().zip(&want).enumerate() {
                assert!((x - y).abs() <= 1e-6 * y.abs().max(1.0), "vertex {v}: {x} vs {y}");
            }
        }
        assert_eq!(ctx.degrade_count(), 0, "admitted without a demotion");
        assert_eq!(budget.denials(), 0);
        assert!(
            budget.high_water() > 0 && budget.high_water() <= estimate,
            "reverse={reverse}"
        );
        assert_eq!(budget.reserved(), 0, "everything reserved was released");
    }
}

/// Admission prices what every registry entry allocates: a budget of
/// exactly an entry's `estimate_bytes` admits three warm runs — with a
/// reverse graph (pull levels, gathers, CC's giant-component skip) and
/// without one (push everywhere) — without a denial or a demotion, the
/// budget's high-water stays under the estimate, and everything reserved
/// is released.
#[test]
fn every_registry_estimate_covers_what_a_budgeted_run_reserves() {
    use gunrock::prelude::*;
    use gunrock_algos::registry::{Arity, Query, REGISTRY};
    use gunrock_engine::budget::MemoryBudget;
    use gunrock_graph::generators::rmat;
    let g =
        GraphBuilder::new().random_weights(1, 64, 5).build(rmat(11, 8, Default::default(), 5));
    let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
    for entry in REGISTRY {
        let estimate = (entry.estimate_bytes)(n, m);
        let sources = match entry.arity {
            Arity::None => Vec::new(),
            Arity::One => vec![0],
            Arity::Lanes => (0..LANES as u32).collect(),
        };
        let query = Query { sources, epsilon: None };
        // the budget must not change the result
        let want = (entry.run)(&Context::new(&g), &query).output;
        for reverse in [false, true] {
            let at = format!("{} reverse={reverse}", entry.name);
            let budget = Arc::new(MemoryBudget::new(estimate));
            let ctx = Context::new(&g).with_budget(Arc::clone(&budget));
            let ctx = if reverse { ctx.with_reverse(&g) } else { ctx };
            for round in 0..3 {
                let run = (entry.run)(&ctx, &query);
                assert_eq!(
                    run.outcome,
                    RunOutcome::Converged,
                    "{at}: {:?}",
                    ctx.take_failure()
                );
                if round == 0 {
                    run.output.check(&want).unwrap_or_else(|e| panic!("{at}: {e}"));
                }
            }
            assert_eq!(ctx.degrade_count(), 0, "{at}: admitted without a demotion");
            assert_eq!(budget.denials(), 0, "{at}");
            assert!(
                budget.high_water() <= estimate,
                "{at}: high-water {} over the estimate {estimate}",
                budget.high_water()
            );
            assert_eq!(budget.reserved(), 0, "{at}: everything reserved was released");
            let pool = ctx.pool().stats();
            assert_eq!(pool.releases, pool.checkouts, "{at}: every release was checked out");
            assert_eq!(pool.live, 0, "{at}");
        }
    }
}

/// Two contexts on one budget, as `gunrock-serve`'s workers share one:
/// while one holds a charged buffer, every registry entry runs three
/// times on the other, and the budget is left holding exactly that
/// charge. A run that hands the pool a buffer it never checked out
/// would credit the budget for bytes it never charged.
#[test]
fn registry_runs_leave_a_shared_budget_holding_exactly_its_other_charges() {
    use gunrock::prelude::*;
    use gunrock_algos::registry::{Arity, Query, REGISTRY};
    use gunrock_engine::budget::MemoryBudget;
    use gunrock_graph::generators::rmat;
    let g =
        GraphBuilder::new().random_weights(1, 64, 5).build(rmat(11, 8, Default::default(), 5));
    let budget = Arc::new(MemoryBudget::new(1 << 40));
    let holder = Context::new(&g).with_budget(Arc::clone(&budget));
    let held = holder.pool().take_u32(1 << 16);
    let charge = budget.reserved();
    assert_eq!(charge, 1 << 18);
    for reverse in [false, true] {
        let ctx = Context::new(&g).with_budget(Arc::clone(&budget));
        let ctx = if reverse { ctx.with_reverse(&g) } else { ctx };
        for entry in REGISTRY {
            let sources = match entry.arity {
                Arity::None => Vec::new(),
                Arity::One => vec![0],
                Arity::Lanes => (0..LANES as u32).collect(),
            };
            let query = Query { sources, epsilon: None };
            for _ in 0..3 {
                let run = (entry.run)(&ctx, &query);
                assert_eq!(run.outcome, RunOutcome::Converged, "{}", entry.name);
            }
            assert_eq!(budget.reserved(), charge, "{} reverse={reverse}", entry.name);
        }
    }
    holder.pool().put_u32(held);
    assert_eq!(budget.reserved(), 0);
}
