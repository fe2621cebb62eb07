//! Buffer-pool integration: the zero-allocation advance property end to
//! end (§4.2's "frontier data structures are reused across iterations").
//!
//! The unit tests in `gunrock-engine` cover the pool in isolation; these
//! tests drive whole primitives through a shared `Context` and assert
//! the properties the bench numbers rest on: steady-state runs stop
//! allocating, the high-water marks are monotone, and pooling (plus the
//! small-frontier serial fast path it enables) never changes a result —
//! at any thread count.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_engine::par::with_threads;
use gunrock_graph::generators::rmat::{rmat, RmatParams};
use gunrock_graph::{Csr, GraphBuilder};

fn test_graph() -> Csr {
    GraphBuilder::new().build(rmat(10, 8, RmatParams::social(), 7))
}

#[test]
fn repeated_runs_on_one_context_reach_a_zero_allocation_steady_state() {
    let g = test_graph();
    let ctx = Context::new(&g).with_reverse(&g);
    // warm-up: first runs populate every size class the traversal needs
    for _ in 0..3 {
        algos::bfs(&ctx, 0, algos::BfsOptions::default());
    }
    let warm = ctx.pool().stats();
    for _ in 0..10 {
        let r = algos::bfs(&ctx, 0, algos::BfsOptions::default());
        assert_eq!(r.outcome, RunOutcome::Converged);
    }
    let after = ctx.pool().stats();
    assert_eq!(
        after.allocations, warm.allocations,
        "steady-state BFS iterations must be served entirely from the pool"
    );
    assert!(after.checkouts > warm.checkouts, "the runs did go through the pool");
}

#[test]
fn high_water_marks_are_monotone_across_primitives() {
    let g = test_graph();
    let ctx = Context::new(&g);
    let mut prev = ctx.pool().stats();
    for _ in 0..4 {
        algos::sssp(&ctx, 0, algos::SsspOptions::default());
        let s = ctx.pool().stats();
        assert!(s.live_high_water >= prev.live_high_water);
        assert!(s.bytes_high_water >= prev.bytes_high_water);
        assert!(s.checkouts >= prev.checkouts);
        assert!(s.releases >= prev.releases);
        prev = s;
    }
    assert!(prev.bytes_high_water > 0);
}

#[test]
fn pooled_results_match_fresh_context_results() {
    let g = test_graph();
    // one context reused across runs (pooled, warm) vs a fresh context
    // per run (every buffer newly allocated): identical labels
    let warm_ctx = Context::new(&g);
    let mut warm_labels = Vec::new();
    for _ in 0..3 {
        warm_labels = algos::bfs(&warm_ctx, 0, algos::BfsOptions::default()).labels;
    }
    let fresh = algos::bfs(&Context::new(&g), 0, algos::BfsOptions::default()).labels;
    assert_eq!(warm_labels, fresh, "pooling must not change BFS labels");

    let warm_dist = algos::sssp(&warm_ctx, 0, algos::SsspOptions::default()).dist;
    let fresh_dist = algos::sssp(&Context::new(&g), 0, algos::SsspOptions::default()).dist;
    assert_eq!(warm_dist, fresh_dist, "pooling must not change SSSP distances");
}

#[test]
fn pooled_runs_are_deterministic_across_thread_pools() {
    let g = test_graph();
    let reference = with_threads(1, || {
        let ctx = Context::new(&g);
        algos::bfs(&ctx, 0, algos::BfsOptions::default());
        algos::bfs(&ctx, 0, algos::BfsOptions::default()).labels
    });
    for threads in [2, 8] {
        let labels = with_threads(threads, || {
            let ctx = Context::new(&g);
            algos::bfs(&ctx, 0, algos::BfsOptions::default());
            algos::bfs(&ctx, 0, algos::BfsOptions::default()).labels
        });
        assert_eq!(labels, reference, "pooled BFS differs at {threads} threads");
    }
}

#[test]
fn serial_fast_path_and_parallel_path_agree_end_to_end() {
    let g = test_graph();
    // serial fast path disabled entirely vs forced on for everything
    // below a generous cutoff: bit-identical labels either way
    let off = {
        let ctx = Context::new(&g).with_config(EngineConfig::new().with_serial_threshold(0));
        algos::bfs(&ctx, 0, algos::BfsOptions::default()).labels
    };
    let aggressive = {
        let ctx =
            Context::new(&g).with_config(EngineConfig::new().with_serial_threshold(1 << 20));
        algos::bfs(&ctx, 0, algos::BfsOptions::default()).labels
    };
    assert_eq!(off, aggressive);
}

/// PageRank ping-pongs two frontier buffers of its own: a warm run must
/// hand the pool back exactly what it took (it used to donate one
/// never-checked-out buffer per iteration, growing the free lists run
/// after run) and allocate nothing new through it.
#[test]
fn warm_pagerank_leaves_the_pool_balanced() {
    let g = test_graph();
    for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
        let run = || {
            let r = algos::pagerank(&ctx, algos::PrOptions::default());
            assert_eq!(r.outcome, RunOutcome::Converged);
        };
        run();
        let warm = ctx.pool().stats();
        run();
        let after = ctx.pool().stats();
        assert_eq!(after.allocations, warm.allocations, "no new pool allocations");
        assert_eq!(
            after.releases - after.checkouts,
            warm.releases - warm.checkouts,
            "every release returns a buffer the pool handed out"
        );
    }
}

/// CC draws its one buffer — the residual frontier — from the pool and
/// hands it back (it used to recycle an all-edges frontier the pool never
/// handed out, every run): `releases == checkouts` after each run, with
/// or without the giant-component skip, and nothing allocated from the
/// third run on.
#[test]
fn warm_cc_leaves_the_pool_balanced() {
    let g = test_graph();
    for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
        let run = || {
            let r = algos::cc(&ctx);
            assert_eq!(r.outcome, RunOutcome::Converged);
            let pool = ctx.pool().stats();
            assert_eq!(pool.releases, pool.checkouts, "every buffer taken is returned");
            assert_eq!(pool.live, 0);
            pool
        };
        run();
        let warm = run();
        let after = run();
        assert!(after.checkouts > warm.checkouts, "the run did go through the pool");
        assert_eq!(after.allocations, warm.allocations, "no new pool allocations");
    }
}

/// BC keeps its level stack in one pool buffer and copies each sparse
/// level's input into another, and hands both back: `releases ==
/// checkouts` after every warm run (it used to recycle level frontiers the
/// pool never handed out), with or without the reverse graph's gathers,
/// and nothing allocated from the third run on.
#[test]
fn warm_bc_leaves_the_pool_balanced() {
    let g = test_graph();
    for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
        let run = || {
            let r = algos::bc(&ctx, 0, algos::BcOptions::default());
            assert_eq!(r.outcome, RunOutcome::Converged);
            let pool = ctx.pool().stats();
            assert_eq!(pool.releases, pool.checkouts, "every buffer taken is returned");
            assert_eq!(pool.live, 0);
            pool
        };
        run();
        let warm = run();
        let after = run();
        assert!(after.checkouts > warm.checkouts, "the run did go through the pool");
        assert_eq!(after.allocations, warm.allocations, "no new pool allocations");
    }
}
