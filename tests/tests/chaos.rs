//! Chaos suite: seeded fault schedules against all five paper
//! primitives.
//!
//! The robustness contract under test: with a [`FaultInjector`] armed,
//! every run either
//!
//! 1. fails with a *structured* error (`GunrockError::OperatorPanic`
//!    taken from the poisoned context — never a process abort), or
//! 2. completes with results **identical** to the fault-free run (alloc
//!    faults are absorbed by retry-with-fallback; a panic schedule that
//!    happens never to fire changes nothing).
//!
//! Every schedule derives from a `u64` seed, so a failing seed printed
//! by an assertion reproduces the exact same fault sequence.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_graph::generators::{self, rmat};
use gunrock_graph::{Csr, GraphBuilder};
use gunrock_integration::failure_or;
use std::sync::Arc;

/// BFS from vertex 0, with the structured error of a failed run.
fn bfs_or_failure(ctx: &Context<'_>) -> Result<algos::BfsResult, GunrockError> {
    let r = algos::bfs(ctx, 0, algos::BfsOptions::default());
    failure_or(ctx, r.outcome, r)
}

/// CC, with the structured error of a failed run.
fn cc_or_failure(ctx: &Context<'_>) -> Result<algos::CcResult, GunrockError> {
    let r = algos::cc(ctx);
    failure_or(ctx, r.outcome, r)
}

/// Silences the default panic printer for injected faults only, so the
/// suite's output is not hundreds of intentional backtraces. Installed
/// once per process; genuine panics still print through the previous
/// hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
    });
}

/// The chaos input: a scale-8 Kronecker graph, the paper's topology
/// class, big enough for multi-level traversals and skewed degrees.
fn kron8() -> Csr {
    GraphBuilder::new().random_weights(1, 64, 42).build(rmat(
        8,
        8,
        generators::RmatParams::graph500(),
        42,
    ))
}

fn faulted<'g>(g: &'g Csr, plan: FaultPlan, retries: u32) -> Context<'g> {
    Context::new(g)
        .with_reverse(g)
        .with_stats()
        .with_retry(RetryPolicy::retries(retries))
        .with_faults(Arc::new(FaultInjector::new(plan)))
}

/// Asserts that `err` is the structured operator-panic error carrying
/// the injection site, not some stringly or default failure.
fn assert_structured(seed: u64, prim: &str, err: &GunrockError) {
    match err {
        GunrockError::OperatorPanic { operator, payload, .. } => {
            assert!(
                ["advance", "filter", "compute"].contains(operator),
                "seed {seed} {prim}: unexpected operator {operator:?}"
            );
            assert!(
                payload.contains("injected fault"),
                "seed {seed} {prim}: unexpected payload {payload:?}"
            );
        }
        other => panic!("seed {seed} {prim}: expected OperatorPanic, got {other:?}"),
    }
}

/// 60 seeded runs (12 seeds x 5 primitives) under a mixed
/// panic-plus-alloc schedule: every run is either a structured error or
/// bit-identical to the fault-free baseline. Zero process aborts, by
/// virtue of this test completing at all.
#[test]
fn every_faulted_run_fails_structured_or_matches_fault_free() {
    quiet_injected_panics();
    let g = kron8();
    let base_ctx = Context::new(&g).with_reverse(&g);
    let bfs0 = algos::bfs(&base_ctx, 0, algos::BfsOptions::direction_optimized());
    let sssp0 = algos::sssp(&base_ctx, 0, algos::SsspOptions::default());
    let bc0 = algos::bc(&base_ctx, 0, algos::BcOptions::default());
    let cc0 = algos::cc(&base_ctx);
    let pr0 = algos::pagerank(&base_ctx, algos::PrOptions::default());

    let mut failed = 0u32;
    let mut clean = 0u32;
    for seed in 0..12u64 {
        let plan = FaultPlan::parse("panic=0.02,alloc=0.3", seed).expect("valid spec");
        for prim in ["bfs", "sssp", "bc", "cc", "pagerank"] {
            let ctx = faulted(&g, plan, 1);
            let outcome = match prim {
                "bfs" => {
                    let r = algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized());
                    failure_or(&ctx, r.outcome, r).map(|r| {
                        assert_eq!(r.labels, bfs0.labels, "seed {seed}: bfs labels diverged");
                        // which parent claims a vertex follows the schedule:
                        // each must sit one level up along an edge
                        for (v, &p) in r.preds.iter().enumerate().skip(1) {
                            if r.labels[v] != u32::MAX {
                                assert_eq!(
                                    r.labels[p as usize] + 1,
                                    r.labels[v],
                                    "seed {seed}"
                                );
                                assert!(g.neighbors(p).contains(&(v as u32)), "seed {seed}");
                            }
                        }
                    })
                }
                "sssp" => {
                    let r = algos::sssp(&ctx, 0, algos::SsspOptions::default());
                    failure_or(&ctx, r.outcome, r).map(|r| {
                        assert_eq!(r.dist, sssp0.dist, "seed {seed}: sssp dist diverged");
                    })
                }
                "bc" => {
                    let r = algos::bc(&ctx, 0, algos::BcOptions::default());
                    failure_or(&ctx, r.outcome, r).map(|r| {
                        let got: Vec<u64> = r.bc_values.iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> =
                            bc0.bc_values.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "seed {seed}: bc values diverged");
                    })
                }
                "cc" => cc_or_failure(&ctx).map(|r| {
                    assert_eq!(r.labels, cc0.labels, "seed {seed}: cc labels diverged");
                }),
                _ => {
                    let r = algos::pagerank(&ctx, algos::PrOptions::default());
                    failure_or(&ctx, r.outcome, r).map(|r| {
                        let got: Vec<u64> = r.scores.iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> = pr0.scores.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "seed {seed}: pagerank scores diverged");
                    })
                }
            }
            .map_err(|e| (e, prim));
            match outcome {
                Ok(()) => clean += 1,
                Err((e, p)) => {
                    assert_structured(seed, p, &e);
                    failed += 1;
                }
            }
        }
    }
    assert_eq!(failed + clean, 60);
    // the 2% panic rate must actually exercise both branches across
    // 60 runs; an all-clean or all-failed sweep means the injector is
    // not wired into the operator path
    assert!(failed > 0, "no run hit an injected panic");
    assert!(clean > 0, "every run hit an injected panic");
}

/// Pure alloc-fault schedules are always absorbed: load-balanced
/// advances retry and fall back to thread_mapped, the run converges
/// with identical results, and each absorbed fault is visible as a
/// RecoveryEvent in the stats sink.
#[test]
fn alloc_faults_are_absorbed_by_retry_with_fallback() {
    quiet_injected_panics();
    let g = kron8();
    let base_ctx = Context::new(&g).with_reverse(&g);
    let bfs0 = algos::bfs(&base_ctx, 0, algos::BfsOptions::direction_optimized());
    let mut recovered = 0u64;
    for seed in 100..110u64 {
        let plan = FaultPlan::parse("alloc=0.8", seed).expect("valid spec");
        // force the load-balanced strategy (the one with an allocation
        // site) even on this small graph
        let ctx = faulted(&g, plan, 2).with_config(EngineConfig::new().with_lb_threshold(0));
        let r = bfs_or_failure(&ctx)
            .unwrap_or_else(|e| panic!("seed {seed}: alloc faults must be recoverable: {e}"));
        assert_eq!(r.labels, bfs0.labels, "seed {seed}");
        recovered += ctx.run_stats().summary().recovery_events;
    }
    assert!(recovered > 0, "an 80% alloc rate must trigger retries or fallbacks");
}

/// The `pool-alloc` class denies buffer-pool checkouts themselves and —
/// unlike the absorbed `alloc` class — fails runs *structurally*: a
/// full-rate schedule must surface `GunrockError::BudgetExceeded` from
/// every primitive and from BFS with and without a reverse graph (its
/// visited bitmap and pull output are checked out *between* operators, the path
/// that once let the denial escape as a process abort), and a
/// partial-rate schedule must
/// either fail the same way or converge bit-identically.
#[test]
fn pool_alloc_faults_fail_structured_never_escape() {
    quiet_injected_panics();
    let g = kron8();
    let deny_all = || FaultPlan::parse("pool-alloc=1.0", 7).expect("valid spec");
    let structured = |prim: &str, err: GunrockError| {
        assert!(
            matches!(err, GunrockError::BudgetExceeded { .. }),
            "{prim}: expected BudgetExceeded, got {err:?}"
        );
    };
    // without a reverse graph every level pushes
    let push_only =
        Context::new(&g).with_stats().with_faults(Arc::new(FaultInjector::new(deny_all())));
    for (name, ctx) in [("bfs push-only", push_only), ("bfs", faulted(&g, deny_all(), 0))] {
        structured(name, bfs_or_failure(&ctx).expect_err("denied checkouts cannot converge"));
    }
    let ctx = faulted(&g, deny_all(), 0);
    let r = algos::sssp(&ctx, 0, Default::default());
    structured("sssp", failure_or(&ctx, r.outcome, r).expect_err("sssp"));
    let ctx = faulted(&g, deny_all(), 0);
    let r = algos::bc(&ctx, 0, Default::default());
    structured("bc", failure_or(&ctx, r.outcome, r).expect_err("bc"));
    let ctx = faulted(&g, deny_all(), 0);
    structured("cc", cc_or_failure(&ctx).expect_err("cc"));
    // pagerank runs dense over heap-allocated score vectors and never
    // checks a frontier out of the pool: it must sail through unharmed
    let ctx = faulted(&g, deny_all(), 0);
    let r = algos::pagerank(&ctx, Default::default());
    let pr = failure_or(&ctx, r.outcome, r).expect("pagerank touches no pooled buffers");
    assert_eq!(pr.outcome, RunOutcome::Converged);

    let base_ctx = Context::new(&g).with_reverse(&g);
    let bfs0 = algos::bfs(&base_ctx, 0, algos::BfsOptions::direction_optimized());
    for seed in 300..310u64 {
        let plan = FaultPlan::parse("pool-alloc=0.05", seed).expect("valid spec");
        let ctx = faulted(&g, plan, 0);
        match bfs_or_failure(&ctx) {
            Ok(r) => assert_eq!(r.labels, bfs0.labels, "seed {seed}"),
            Err(err) => structured(&format!("seed {seed}"), err),
        }
    }
}

/// A fault-free context reports zero recovery events — the absence
/// check backing the bench export's `recovery_events` column.
#[test]
fn fault_free_runs_report_zero_recovery_events() {
    let g = kron8();
    let ctx = Context::new(&g).with_reverse(&g).with_stats();
    algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized());
    algos::sssp(&ctx, 0, algos::SsspOptions::default());
    algos::pagerank(&ctx, algos::PrOptions::default());
    let summary = ctx.run_stats().summary();
    assert_eq!(summary.recovery_events, 0);
}

/// Injected loader faults (truncation and corruption) surface as typed
/// [`gunrock_graph::error::GraphError`]s through the file loaders,
/// never as panics or silently wrong graphs.
#[test]
fn loader_faults_surface_as_graph_errors() {
    use gunrock_graph::io;
    let g = kron8();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("gunrock_chaos_io_{}.bin", std::process::id()));
    let mut bytes = Vec::new();
    io::write_csr_binary(&g, &mut bytes).expect("in-memory write");
    std::fs::write(&path, &bytes).expect("write fixture");

    // sanity: the fixture round-trips when no hook is installed
    let clean = io::load_graph(&path).expect("clean load");
    assert_eq!(clean.num_vertices(), g.num_vertices());

    let inj = Arc::new(FaultInjector::new(FaultPlan::parse("io=1.0", 7).expect("valid spec")));
    for mode in 0..2u64 {
        let h = Arc::clone(&inj);
        io::set_read_fault_hook(Some(Arc::new(move |site: &str, len: u64| {
            if !h.should_fail(FaultKind::Io, site) {
                return None;
            }
            Some(if mode == 0 {
                // keep a prefix so the loader sees a plausible header
                io::IoFault::Truncate { at: len / 2 }
            } else {
                io::IoFault::Corrupt { at: h.uniform(site, len), mask: 0xff }
            })
        })));
        let result = io::load_graph(&path);
        io::set_read_fault_hook(None);
        assert!(result.is_err(), "mode {mode}: a damaged read must not produce a graph");
    }
    std::fs::remove_file(&path).ok();
}

/// The whole suite once more on varied topologies: one seed per graph
/// shape, BFS + CC (the frontier-heavy and filter-only extremes).
#[test]
fn fault_schedules_hold_across_topologies() {
    quiet_injected_panics();
    for (i, (name, g)) in gunrock_integration::graph_suite().into_iter().enumerate() {
        let base = Context::new(&g).with_reverse(&g);
        let bfs0 = algos::bfs(&base, 0, algos::BfsOptions::default());
        let cc0 = algos::cc(&base);
        let plan = FaultPlan::parse("panic=0.05,alloc=0.5", 1000 + i as u64).expect("spec");
        let ctx = faulted(&g, plan, 1);
        match bfs_or_failure(&ctx) {
            Ok(r) => assert_eq!(r.labels, bfs0.labels, "{name}"),
            Err(e) => assert_structured(1000 + i as u64, "bfs", &e),
        }
        let ctx = faulted(&g, FaultPlan::parse("panic=0.05", 2000 + i as u64).unwrap(), 0);
        match cc_or_failure(&ctx) {
            Ok(r) => assert_eq!(r.labels, cc0.labels, "{name}"),
            Err(e) => assert_structured(2000 + i as u64, "cc", &e),
        }
    }
}

/// The extension primitives end on the same boundary as the paper five:
/// a context poisoned by an injected panic always reads `Failed`, even
/// when the failed operator emptied the frontier and the loop stopped
/// on its own.
#[test]
fn poisoned_extension_runs_report_failed() {
    quiet_injected_panics();
    let g = kron8();
    type EntryPoint = fn(&Context<'_>) -> RunOutcome;
    let runs: [(&str, EntryPoint); 6] = [
        ("k_core", |c| algos::k_core(c).outcome),
        ("mst", |c| algos::mst(c).outcome),
        ("label_propagation", |c| algos::label_prop::label_propagation(c, 50).outcome),
        ("hits", |c| algos::bipartite::hits(c, c.num_vertices() / 2, 20).outcome),
        ("salsa", |c| algos::bipartite::salsa(c, c.num_vertices() / 2, 20).outcome),
        ("triangle_count", |c| algos::triangle_count(c).outcome),
    ];
    for (name, run) in runs {
        let ctx = faulted(&g, FaultPlan::parse("panic=1.0", 11).expect("valid spec"), 0);
        let outcome = run(&ctx);
        if ctx.is_poisoned() {
            assert_eq!(outcome, RunOutcome::Failed, "{name} ended poisoned");
        }
        if matches!(name, "hits" | "salsa") {
            assert!(ctx.is_poisoned(), "{name}: the injected panic must fire in its gather");
        }
    }
}

/// The operator frame keeps every fault site and its call count: under
/// a seeded panic rate that never fires, each primitive consumes exactly
/// the draws it consumed before operator launches shared one frame, so
/// fixed-seed chaos schedules replay unchanged. PageRank's count is its
/// seeded run's: the rounds' fault sites plus the seed pass's gather.
#[test]
fn fault_draws_stay_pinned() {
    let g = kron8();
    let plan = FaultPlan::parse("panic=1e-12", 5).expect("valid spec");
    let sources: Vec<u32> = (0..8).collect();
    type Run = fn(&Context<'_>, &[u32]);
    let runs: [(&str, Run, u64); 6] = [
        ("bfs", |c, _| drop(algos::bfs(c, 0, algos::BfsOptions::direction_optimized())), 4),
        ("sssp", |c, _| drop(algos::sssp(c, 0, algos::SsspOptions::default())), 16),
        ("bc", |c, _| drop(algos::bc(c, 0, algos::BcOptions::default())), 9),
        ("cc", |c, _| drop(algos::cc(c)), 5),
        ("pagerank", |c, _| drop(algos::pagerank(c, algos::PrOptions::default())), 21),
        ("msbfs", |c, s| drop(algos::msbfs(c, s)), 5),
    ];
    for (name, run, draws) in runs {
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = Context::new(&g).with_reverse(&g).with_faults(Arc::clone(&injector));
        run(&ctx, &sources);
        assert!(!ctx.is_poisoned(), "{name}: the schedule must never fire");
        assert_eq!(injector.draws(), draws, "{name}");
    }
}
