//! Integration tests for the extension primitives (§5.5 bipartite
//! node-ranking, §7 future-work operators, and the Gunrock-family
//! additions) over the shared graph suite.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::generators::bipartite_random;
use gunrock_graph::{Coo, Csr, GraphBuilder};
use gunrock_integration::graph_suite;
use std::ops::ControlFlow::Continue;

#[test]
fn triangles_match_oracle_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::triangle_count(&ctx);
        assert_eq!(r.total, serial::triangle_count(&g), "{name}");
        assert_eq!(r.per_vertex.iter().sum::<u64>(), 3 * r.total, "{name}");
    }
}

#[test]
fn kcore_matches_peeling_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::k_core(&ctx);
        assert_eq!(r.core_numbers, algos::kcore::k_core_serial(&g), "{name}");
        // degeneracy bounds: between min degree of densest part and max degree
        assert!(r.degeneracy <= g.max_degree(), "{name}");
        // every vertex's core number is at most its degree
        for v in 0..g.num_vertices() as u32 {
            assert!(r.core_numbers[v as usize] <= g.out_degree(v), "{name} v{v}");
        }
    }
}

#[test]
fn kcore_is_consistent_with_triangles() {
    // every vertex of a triangle has core number >= 2
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let tri = algos::triangle_count(&ctx);
        let ctx = Context::new(&g);
        let core = algos::k_core(&ctx);
        for v in 0..g.num_vertices() {
            if tri.per_vertex[v] > 0 {
                assert!(core.core_numbers[v] >= 2, "{name} v{v}");
            }
        }
    }
}

#[test]
fn gathered_in_degree_sum_equals_edge_count() {
    for (name, g) in graph_suite() {
        let n = g.num_vertices();
        let ctx = Context::new(&g).with_reverse(&g);
        let mut ones = vec![0u64; n];
        advance_gather(
            &ctx,
            GatherSpec::range(0..n as u32),
            &mut ones,
            None,
            |_| true,
            0u64,
            |_, _, _| 1,
            |a, b| Continue(a + b),
            |_, sum, slot| {
                *slot = sum;
                false
            },
        );
        assert_eq!(ones.iter().sum::<u64>(), g.num_edges() as u64, "{name}");
    }
}

#[test]
fn hits_and_salsa_are_finite_and_nonnegative() {
    let (coo, shape) = bipartite_random(500, 250, 8, 1);
    let g = GraphBuilder::new().directed().build(coo);
    let rev = g.transpose();
    let ctx = Context::new(&g).with_reverse(&rev);
    for scores in [
        algos::bipartite::hits(&ctx, shape.n_left, 20),
        algos::bipartite::salsa(&ctx, shape.n_left, 20),
    ] {
        assert!(scores.hubs.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!(scores.auths.iter().all(|x| x.is_finite() && *x >= 0.0));
        // hubs live on the left, authorities on the right
        assert!(scores.auths[..shape.n_left].iter().all(|&x| x == 0.0));
    }
}

/// `bipartite_random(n_left, n_right, ..)` with two isolated vertices
/// appended to each side: returns the graph, its transpose and the new
/// left-partition size.
fn bipartite_with_isolated(n_left: usize, n_right: usize, deg: usize) -> (Csr, Csr, usize) {
    let (coo, shape) = bipartite_random(n_left, n_right, deg, 7);
    let arcs: Vec<(u32, u32)> = coo.edges().map(|(u, w)| (u, w + 2)).collect();
    let g = GraphBuilder::new()
        .directed()
        .build(Coo::from_edges(shape.n_left + shape.n_right + 4, &arcs));
    let rev = g.transpose();
    (g, rev, shape.n_left + 2)
}

/// The dense serial power iteration HITS (L2-normalized) and SALSA
/// (degree-normalized) compute: `a[w] = sum_u A[u][w] * h[u] / d(u)`,
/// `h[u] = sum_w A[u][w] * a[w] / d(w)`, over the left x right matrix `A`
/// of edge multiplicities. Returns (hubs, auths) indexed like the graph.
fn dense_hub_auth(g: &Csr, n_left: usize, iters: u32, salsa: bool) -> (Vec<f64>, Vec<f64>) {
    let n = g.num_vertices();
    let n_right = n - n_left;
    let mut a = vec![vec![0.0f64; n_right]; n_left];
    for (u, row) in a.iter_mut().enumerate() {
        for &w in g.neighbors(u as u32) {
            row[w as usize - n_left] += 1.0;
        }
    }
    let out_deg: Vec<f64> = a.iter().map(|row| row.iter().sum()).collect();
    let in_deg: Vec<f64> = (0..n_right).map(|w| a.iter().map(|row| row[w]).sum()).collect();
    let l2 = |v: &mut Vec<f64>| {
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            v.iter_mut().for_each(|x| *x /= norm);
        }
    };
    let mut hubs = vec![1.0f64; n_left];
    let mut auths = vec![0.0f64; n_right];
    for _ in 0..iters {
        for (w, auth) in auths.iter_mut().enumerate() {
            *auth = (0..n_left)
                .filter(|&u| a[u][w] > 0.0)
                .map(|u| a[u][w] * if salsa { hubs[u] / out_deg[u] } else { hubs[u] })
                .sum();
        }
        if !salsa {
            l2(&mut auths);
        }
        for (u, hub) in hubs.iter_mut().enumerate() {
            *hub = (0..n_right)
                .filter(|&w| a[u][w] > 0.0)
                .map(|w| a[u][w] * if salsa { auths[w] / in_deg[w] } else { auths[w] })
                .sum();
        }
        if !salsa {
            l2(&mut hubs);
        }
    }
    let mut h = vec![0.0; n];
    let mut au = vec![0.0; n];
    h[..n_left].copy_from_slice(&hubs);
    au[n_left..].copy_from_slice(&auths);
    (h, au)
}

#[test]
fn hits_and_salsa_match_a_dense_power_iteration() {
    let (g, rev, n_left) = bipartite_with_isolated(300, 120, 6);
    let ctx = Context::new(&g).with_reverse(&rev);
    for (name, got, salsa) in [
        ("hits", algos::bipartite::hits(&ctx, n_left, 15), false),
        ("salsa", algos::bipartite::salsa(&ctx, n_left, 15), true),
    ] {
        assert_eq!(got.outcome, RunOutcome::Converged, "{name}");
        let (hubs, auths) = dense_hub_auth(&g, n_left, 15, salsa);
        for (what, got, want) in [("hub", &got.hubs, &hubs), ("auth", &got.auths, &auths)] {
            for (v, (x, y)) in got.iter().zip(want).enumerate() {
                assert!((x - y).abs() <= 1e-12 * y.abs(), "{name} {what}[{v}]: {x} vs {y}");
            }
        }
        // the isolated vertices on both sides score zero
        for v in [n_left - 2, n_left - 1, g.num_vertices() - 2, g.num_vertices() - 1] {
            assert_eq!((got.hubs[v], got.auths[v]), (0.0, 0.0), "{name} isolated {v}");
        }
    }
}

#[test]
fn hits_and_salsa_run_on_the_callers_context() {
    let (g, rev, n_left) = bipartite_with_isolated(300, 120, 6);
    let m = g.num_edges() as u64;
    for salsa in [false, true] {
        let ctx = Context::new(&g).with_reverse(&rev).with_stats();
        let s = if salsa {
            algos::bipartite::salsa(&ctx, n_left, 4)
        } else {
            algos::bipartite::hits(&ctx, n_left, 4)
        };
        assert_eq!(s.iterations, 4);
        let stats = ctx.run_stats();
        for it in 0..4 {
            let steps: Vec<_> = stats.steps.iter().filter(|st| st.iteration == it).collect();
            let names: Vec<_> = steps.iter().map(|st| st.strategy).collect();
            assert_eq!(steps.len(), 2, "salsa={salsa} round {it}: {names:?}");
            assert!(names[0].starts_with("pull_gather"), "{names:?}");
            assert!(names[1].starts_with("out_gather"), "{names:?}");
            // each half scans every bipartite edge once
            assert!(steps.iter().all(|st| st.edges_examined == m), "{names:?}");
        }
        assert_eq!(stats.edges_examined(), 4 * 2 * m);
        assert_eq!(ctx.counters.edges(), 4 * 2 * m);
    }
}

/// Both halves of a round honour the caller's abort. The iteration
/// boundary does not consult a watchdog kill, so with one raised before
/// the run every round reaches both halves, and each must stop at entry.
/// A cancel flag trips the boundary, so it is raised from a second thread
/// once the first half has been recorded: every operator that starts
/// after the raise scans nothing.
#[test]
fn hits_halves_see_the_callers_abort() {
    use gunrock_engine::watchdog::Heartbeat;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let (g, rev, n_left) = bipartite_with_isolated(300, 120, 6);

    let heartbeat = Arc::new(Heartbeat::new());
    heartbeat.kill();
    let ctx = Context::new(&g).with_reverse(&rev).with_stats().with_heartbeat(heartbeat);
    let s = algos::bipartite::hits(&ctx, n_left, 3);
    assert_eq!(s.iterations, 3);
    let steps = ctx.run_stats().steps;
    let names: Vec<_> = steps.iter().map(|st| st.strategy).collect();
    assert_eq!(steps.len(), 6, "{names:?}");
    for pair in steps.chunks(2) {
        assert!(pair[0].strategy.starts_with("pull_gather"), "{names:?}");
        assert!(pair[1].strategy.starts_with("out_gather"), "{names:?}");
    }
    assert_eq!(ctx.counters.edges(), 0, "a half scanned edges after the kill");

    let flag = Arc::new(AtomicBool::new(false));
    let ctx = Context::new(&g)
        .with_reverse(&rev)
        .with_stats()
        .with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
    let (s, seen) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let sink = ctx.sink().expect("stats sink");
            while sink.snapshot().steps.is_empty() {
                std::thread::yield_now();
            }
            flag.store(true, Ordering::Release);
            sink.snapshot().steps.len()
        });
        let s = algos::bipartite::hits(&ctx, n_left, u32::MAX);
        (s, watcher.join().expect("watcher"))
    });
    assert_eq!(s.outcome, RunOutcome::Cancelled);
    // step `seen` was unrecorded when the watcher looked, so every later
    // one began after the raise
    for st in ctx.run_stats().steps.iter().skip(seen + 1) {
        assert_eq!(st.edges_examined, 0, "{} ran past the cancel", st.strategy);
    }
}

#[test]
fn ppr_is_localized_while_global_pr_is_not() {
    // on a barbell-ish graph, PPR from one side should put more mass
    // there than global PR does
    let mut edges = Vec::new();
    for i in 0..20u32 {
        for j in (i + 1)..20 {
            edges.push((i, j));
        }
    }
    for i in 20..40u32 {
        for j in (i + 1)..40 {
            edges.push((i, j));
        }
    }
    edges.push((19, 20)); // bridge
    let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(40, &edges));
    let ctx = Context::new(&g);
    let ppr = algos::msppr(&ctx, &[0], algos::MspprOptions { alpha: 0.15, epsilon: 1e-12 });
    let ppr = ppr.lane_scores(0);
    let ctx = Context::new(&g);
    let pr = algos::pagerank(&ctx, algos::PrOptions { epsilon: 1e-12, ..Default::default() });
    let left_ppr: f64 = ppr[..20].iter().sum();
    let left_pr: f64 = pr.scores[..20].iter().sum();
    assert!(left_ppr > 0.8, "PPR concentrates: {left_ppr}");
    assert!(left_pr < 0.6, "global PR splits: {left_pr}");
}
