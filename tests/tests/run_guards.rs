//! Execution-guard integration tests: every primitive must honor the
//! context's [`RunPolicy`] on a non-trivial graph — a 1-iteration cap
//! or a pre-tripped cancel flag comes back promptly with the matching
//! [`RunOutcome`] and a usable partial result, never a hang or a panic.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::generators::rmat;
use gunrock_graph::{Csr, GraphBuilder, INFINITY, INVALID_VERTEX};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Scale-12 Kronecker graph (the CLI's default input): big enough that
/// one iteration is nowhere near convergence for any traversal.
fn kron12() -> Csr {
    GraphBuilder::new().random_weights(1, 64, 42).build(rmat(
        12,
        16,
        gunrock_graph::generators::RmatParams::graph500(),
        42,
    ))
}

fn capped(g: &Csr) -> Context<'_> {
    Context::new(g).with_policy(RunPolicy::unbounded().max_iterations(1))
}

fn cancelled(g: &Csr) -> Context<'_> {
    let flag = Arc::new(AtomicBool::new(true));
    Context::new(g).with_policy(RunPolicy::unbounded().cancel_flag(flag))
}

#[test]
fn bfs_cap_yields_one_consistent_level() {
    let g = kron12();
    let r = algos::bfs(&capped(&g), 0, algos::BfsOptions::default());
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.iterations, 1);
    // exactly the source's neighborhood is labeled, at the right depths
    let full = serial::bfs(&g, 0);
    for (v, &depth) in full.iter().enumerate() {
        if depth <= 1 {
            assert_eq!(r.labels[v], depth, "vertex {v}");
        } else {
            assert_eq!(r.labels[v], INFINITY, "vertex {v}");
        }
    }
}

#[test]
fn bfs_cancel_returns_source_only() {
    let g = kron12();
    let r = algos::bfs(&cancelled(&g), 0, algos::BfsOptions::default());
    assert_eq!(r.outcome, RunOutcome::Cancelled);
    assert_eq!(r.iterations, 0);
    assert_eq!(r.labels[0], 0);
    assert!(r.labels[1..].iter().all(|&l| l == INFINITY));
    assert!(r.preds.iter().all(|&p| p == INVALID_VERTEX));
}

#[test]
fn bfs_cancel_mid_run_stops_between_levels() {
    // a flag flipped from another thread while the enactment runs: the
    // loop stops at the next iteration boundary with consistent labels
    let g = kron12();
    let flag = Arc::new(AtomicBool::new(false));
    let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
    flag.store(true, std::sync::atomic::Ordering::Release);
    let r = algos::bfs(&ctx, 0, algos::BfsOptions::default());
    assert_eq!(r.outcome, RunOutcome::Cancelled);
    // whatever was labeled is a prefix of the true BFS levels
    let full = serial::bfs(&g, 0);
    for (v, &label) in r.labels.iter().enumerate() {
        if label != INFINITY {
            assert_eq!(label, full[v], "vertex {v}");
        }
    }
}

#[test]
fn sssp_cap_keeps_distances_as_upper_bounds() {
    let g = kron12();
    let r = algos::sssp(&capped(&g), 0, algos::SsspOptions::default());
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.iterations, 1);
    let want = serial::dijkstra(&g, 0);
    for (v, &lower) in want.iter().enumerate() {
        assert!(r.dist[v] >= lower, "vertex {v}: partial undershoots");
    }
    assert_eq!(r.dist[0], 0);
}

#[test]
fn sssp_cancel_settles_only_the_source() {
    let g = kron12();
    let r = algos::sssp(&cancelled(&g), 0, algos::SsspOptions::default());
    assert_eq!(r.outcome, RunOutcome::Cancelled);
    assert_eq!(r.iterations, 0);
    assert_eq!(r.dist[0], 0);
    assert!(r.dist[1..].iter().all(|&d| d == INFINITY));
}

#[test]
fn bc_cap_trips_during_the_forward_phase() {
    let g = kron12();
    let r = algos::bc(&capped(&g), 0, algos::BcOptions::default());
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.iterations, 1);
    // dependency scores never accumulate when the forward phase dies
    assert!(r.bc_values.iter().all(|&d| d == 0.0));
}

#[test]
fn cc_cap_yields_a_refinement() {
    let g = kron12();
    let r = algos::cc(&capped(&g));
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.iterations, 1);
    let want = serial::connected_components(&g);
    // partial labels never merge vertices across true components
    for v in 0..g.num_vertices() {
        assert_eq!(want[r.labels[v] as usize], want[v], "vertex {v}");
    }
    assert!(r.num_components >= serial::num_components(&want));
}

#[test]
fn cc_cancel_returns_identity_labels() {
    let g = kron12();
    let r = algos::cc(&cancelled(&g));
    assert_eq!((r.outcome, r.iterations), (RunOutcome::Cancelled, 0));
    assert_eq!(r.num_components, g.num_vertices());
    assert!(r.labels.iter().zip(0u32..).all(|(&l, v)| l == v));
}

/// A cancel that lands inside the finish — CC's last pass — can cut the
/// residual advance short. The guard is consulted once more after it, so
/// that run reads `Cancelled` (labels still a refinement), never
/// `Converged` with edges unlinked.
#[test]
fn cc_cancel_during_the_residual_advance_never_reads_as_convergence() {
    use std::sync::atomic::Ordering;
    let g = kron12();
    let want = serial::connected_components(&g);
    let mut cancelled = 0;
    for round in 0..32 {
        let flag = Arc::new(AtomicBool::new(false));
        // no reverse graph: the residual advance walks nearly every edge
        let ctx =
            Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
        let finished = AtomicBool::new(false);
        let r = std::thread::scope(|s| {
            // the counter reaches 4 after the finish's own guard check and
            // before its advance
            s.spawn(|| {
                while ctx.counters.iters() < 4 && !finished.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                flag.store(true, Ordering::Release);
            });
            let r = algos::cc(&ctx);
            finished.store(true, Ordering::Release);
            r
        });
        assert_eq!(r.iterations, 4, "round {round}: the cancel came after the last boundary");
        if r.outcome == RunOutcome::Converged {
            assert_eq!(r.labels, want, "round {round}: converged with edges unlinked");
        } else {
            assert_eq!(r.outcome, RunOutcome::Cancelled, "round {round}");
            for v in 0..g.num_vertices() {
                assert_eq!(want[r.labels[v] as usize], want[v], "round {round}, vertex {v}");
            }
            cancelled += 1;
        }
    }
    assert!(cancelled > 0, "no run was interrupted: the test exercised nothing");
}

#[test]
fn pagerank_cap_conserves_mass() {
    let g = kron12();
    let r =
        algos::pagerank(&capped(&g), algos::PrOptions { epsilon: 1e-12, ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.iterations, 1);
    let sum: f64 = r.scores.iter().sum();
    let want = 1.0; // the seeded residuals sum to zero, and a round keeps that
    assert!((sum - want).abs() < 1e-9, "sum {sum}, want {want}");
}

/// A cancel that lands between an iteration's guard check and its gather
/// sweep truncates the sweep to an empty frontier; that must read as
/// `Cancelled`, never as convergence with part of the mass undelivered.
#[test]
fn pagerank_cancel_during_a_gather_never_reads_as_convergence() {
    use std::sync::atomic::Ordering;
    let g = kron12();
    let mut cancelled = 0;
    for round in 0..32u64 {
        let trip = 1 + round % 8;
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = Context::new(&g)
            .with_reverse(&g)
            .with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
        let finished = AtomicBool::new(false);
        let r = std::thread::scope(|s| {
            // `end_iteration` runs after the iteration's guard check and
            // before its sweep: raising the flag the moment the counter
            // moves aims at exactly that window
            s.spawn(|| {
                while ctx.counters.iters() < trip && !finished.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                flag.store(true, Ordering::Release);
            });
            let r = algos::pagerank(
                &ctx,
                algos::PrOptions { epsilon: 1e-12, ..Default::default() },
            );
            finished.store(true, Ordering::Release);
            r
        });
        if r.outcome == RunOutcome::Converged {
            let sum: f64 = r.scores.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "round {round}: converged with sum {sum}");
        } else {
            assert_eq!(r.outcome, RunOutcome::Cancelled, "round {round}");
            cancelled += 1;
        }
    }
    assert!(cancelled > 0, "no run was interrupted: the test exercised nothing");
}

#[test]
fn mst_cap_commits_only_safe_edges() {
    let g = kron12();
    let r = algos::mst(&capped(&g));
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.rounds, 1);
    // committed edges are acyclic and part of some minimum forest
    assert!(r.total_weight <= algos::mst::mst_weight_kruskal(&g));
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    for &e in &r.edges {
        let (u, v) = (g.edge_source(e), g.edge_dest(e));
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        assert_ne!(ru, rv, "edge {e} closes a cycle");
        parent[ru.max(rv) as usize] = ru.min(rv);
    }
}

#[test]
fn kcore_cap_bounds_core_numbers_from_below() {
    let g = kron12();
    let full = {
        let ctx = Context::new(&g);
        algos::k_core(&ctx)
    };
    let r = algos::k_core(&capped(&g));
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    for v in 0..g.num_vertices() {
        assert!(r.core_numbers[v] <= full.core_numbers[v], "vertex {v}");
    }
}

#[test]
fn labelprop_cap_stops_after_one_round() {
    let g = kron12();
    let r = algos::label_prop::label_propagation(&capped(&g), 50);
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.rounds, 1);
    assert!(r.labels.iter().all(|&l| (l as usize) < g.num_vertices()));
}

#[test]
fn every_primitive_cancels_without_touching_the_graph() {
    // a pre-tripped cancel must return in O(init) time on the scale-12
    // graph with iteration counts of zero across the board
    let g = kron12();
    let t = std::time::Instant::now();
    assert_eq!(algos::bfs(&cancelled(&g), 0, Default::default()).iterations, 0);
    assert_eq!(algos::sssp(&cancelled(&g), 0, Default::default()).iterations, 0);
    assert_eq!(algos::bc(&cancelled(&g), 0, Default::default()).iterations, 0);
    assert_eq!(algos::cc(&cancelled(&g)).iterations, 0);
    assert_eq!(algos::pagerank(&cancelled(&g), Default::default()).iterations, 0);
    assert_eq!(algos::mst(&cancelled(&g)).rounds, 0);
    assert_eq!(algos::k_core(&cancelled(&g)).iterations, 0);
    assert_eq!(algos::label_prop::label_propagation(&cancelled(&g), 50).rounds, 0);
    assert_eq!(algos::triangle_count(&cancelled(&g)).total, 0);
    // generous bound: init allocations only, no traversal work
    assert!(t.elapsed() < std::time::Duration::from_secs(10));
}

#[test]
fn timeout_policy_trips_on_a_zero_budget() {
    let g = kron12();
    let ctx = Context::new(&g)
        .with_policy(RunPolicy::unbounded().wall_clock_budget(std::time::Duration::ZERO));
    let r = algos::bfs(&ctx, 0, algos::BfsOptions::default());
    assert_eq!(r.outcome, RunOutcome::TimedOut);
    assert_eq!(r.iterations, 0);
}

#[test]
fn generic_enact_loop_honors_the_same_policy() {
    // a hand-written loop on the shared driver gets the same guard
    let g = kron12();
    let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(3));
    let mut run = Enactment::arm(&ctx, 0);
    let mut ran = 0;
    while !run.boundary(no_snapshot) {
        ran += 1; // never converges on its own
        run.end_iteration(false);
    }
    assert_eq!(run.finish(no_snapshot).outcome, RunOutcome::IterationCapped);
    assert_eq!(ran, 3, "a non-converging loop is still bounded");
}

/// Satellite: RunPolicy enforcement must survive the small-frontier
/// serial fast path. With `serial_threshold` forced high enough that
/// every advance bypasses the scan/load-balance machinery, the budget
/// checks still fire: a zero wall-clock budget times out immediately, an
/// iteration cap still caps, and a pre-raised cancel flag still cancels.
#[test]
fn guards_still_fire_under_the_serial_fast_path() {
    let g = kron12();
    // every frontier takes the single-threaded fast path
    let all_serial = EngineConfig::new().with_serial_threshold(usize::MAX);

    let ctx = Context::new(&g)
        .with_config(all_serial)
        .with_policy(RunPolicy::unbounded().wall_clock_budget(std::time::Duration::ZERO));
    let r = algos::bfs(&ctx, 0, algos::BfsOptions::default());
    assert_eq!(r.outcome, RunOutcome::TimedOut, "zero budget under the serial path");
    assert_eq!(r.labels[0], 0, "best-so-far result is still usable");

    let ctx = Context::new(&g)
        .with_config(all_serial)
        .with_policy(RunPolicy::unbounded().max_iterations(1));
    let r = algos::bfs(&ctx, 0, algos::BfsOptions::default());
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert_eq!(r.iterations, 1);

    let flag = Arc::new(AtomicBool::new(true));
    let ctx = Context::new(&g)
        .with_config(all_serial)
        .with_policy(RunPolicy::unbounded().cancel_flag(flag));
    let r = algos::sssp(&ctx, 0, algos::SsspOptions::default());
    assert_eq!(r.outcome, RunOutcome::Cancelled, "cancel under the serial path");

    let ctx = Context::new(&g)
        .with_config(all_serial)
        .with_policy(RunPolicy::unbounded().wall_clock_budget(std::time::Duration::ZERO));
    let r = algos::sssp(&ctx, 0, algos::SsspOptions::default());
    assert_eq!(r.outcome, RunOutcome::TimedOut);
    // only the source can have settled before the first boundary check
    assert!(r.dist[1..].iter().filter(|&&d| d != INFINITY).count() <= g.max_degree() as usize);
}
