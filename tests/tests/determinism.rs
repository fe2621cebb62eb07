//! Determinism guarantees: generators are seed-deterministic, and every
//! primitive's *result* is run-to-run deterministic even though the
//! engines race internally (labels/distances/components are unique fixed
//! points; only tie-broken artifacts like BFS parents may vary, and even
//! those must stay valid).

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_engine::par::with_threads;
use gunrock_graph::generators::rmat;
use gunrock_graph::GraphBuilder;
use gunrock_integration::graph_suite;

#[test]
fn generators_are_seed_deterministic() {
    let a = GraphBuilder::new().build(rmat(9, 8, Default::default(), 31));
    let b = GraphBuilder::new().build(rmat(9, 8, Default::default(), 31));
    assert_eq!(a.row_offsets(), b.row_offsets());
    assert_eq!(a.col_indices(), b.col_indices());
}

#[test]
fn repeated_runs_reach_identical_fixed_points() {
    for (name, g) in graph_suite() {
        let run_bfs = || {
            let ctx = Context::new(&g).with_reverse(&g);
            algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized()).labels
        };
        assert_eq!(run_bfs(), run_bfs(), "bfs on {name}");

        let run_sssp = || {
            let ctx = Context::new(&g);
            algos::sssp(&ctx, 0, algos::SsspOptions::default()).dist
        };
        assert_eq!(run_sssp(), run_sssp(), "sssp on {name}");

        // CC's labels are each component's minimum id whichever link wins a
        // race, so they also hold still across pool sizes and the skip
        let run_cc = |threads: usize, skip: bool| {
            with_threads(threads, || {
                let ctx = Context::new(&g);
                algos::cc(&if skip { ctx.with_reverse(&g) } else { ctx }).labels
            })
        };
        let reference = run_cc(1, false);
        for threads in [1, 2, 8] {
            assert_eq!(run_cc(threads, false), reference, "cc on {name}, {threads} threads");
            assert_eq!(
                run_cc(threads, true),
                reference,
                "cc skip on {name}, {threads} threads"
            );
        }

        let run_pr = || {
            let ctx = Context::new(&g);
            algos::pagerank(&ctx, algos::PrOptions::default()).scores
        };
        // floating accumulation order can vary: compare within epsilon
        let (a, b) = (run_pr(), run_pr());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "pagerank on {name}: {x} vs {y}");
        }
    }
}

#[test]
fn load_balanced_advance_output_is_bit_deterministic() {
    // the LB strategy assigns output slots by edge rank, so even the
    // *order* of the output frontier is reproducible
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let input = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        let out1 = advance::advance(
            &ctx,
            &input,
            AdvanceSpec::v2v().with_mode(AdvanceMode::LoadBalanced),
            &AcceptAll,
        );
        let out2 = advance::advance(
            &ctx,
            &input,
            AdvanceSpec::v2v().with_mode(AdvanceMode::LoadBalanced),
            &AcceptAll,
        );
        assert_eq!(out1.as_slice(), out2.as_slice(), "lb order on {name}");
    }
}

/// The integer answers are fixed points whatever the schedule: BFS and
/// MS-BFS depths, SSSP distances and CC's components equal the serial
/// oracles at one, two and four threads, on a graph big enough for the
/// launches to run on the pool.
#[test]
fn integer_results_equal_the_oracles_at_one_two_and_four_threads() {
    use gunrock_baselines::serial;
    let g =
        GraphBuilder::new().random_weights(1, 64, 9).build(rmat(12, 8, Default::default(), 9));
    let n = g.num_vertices();
    let sources: Vec<u32> = (0..64).collect();
    let depths: Vec<Vec<u32>> = sources.iter().map(|&s| serial::bfs(&g, s)).collect();
    let dist = serial::dijkstra(&g, 0);
    let components = serial::connected_components(&g);
    for threads in [1, 2, 4] {
        with_threads(threads, || {
            let ctx = Context::new(&g).with_reverse(&g);
            let bfs = algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized());
            assert_eq!(bfs.labels, depths[0], "bfs, {threads} threads");
            let sssp = algos::sssp(&ctx, 0, algos::SsspOptions::default());
            assert_eq!(sssp.dist, dist, "sssp, {threads} threads");
            assert_eq!(algos::cc(&ctx).labels, components, "cc, {threads} threads");
            let ms = algos::msbfs(&ctx, &sources);
            for (lane, want) in ms.depths.chunks(n).zip(&depths) {
                assert_eq!(lane, &want[..], "msbfs, {threads} threads");
            }
        });
    }
}

/// PageRank's dense iterations gather with plain stores, each vertex
/// summing its in-edges in list order — no atomics, so the scores are
/// bit-identical however the vertex range is chunked across a pool.
#[test]
fn dense_pagerank_iterations_are_bit_identical_across_thread_pools() {
    let g = GraphBuilder::new().build(rmat(10, 8, Default::default(), 31));
    let dense_rounds = |threads: usize| {
        with_threads(threads, || {
            let ctx = Context::new(&g)
                .with_reverse(&g)
                .with_config(EngineConfig::new().with_serial_threshold(0))
                .with_stats();
            let r =
                algos::pagerank(&ctx, algos::PrOptions { max_iters: 6, ..Default::default() });
            let stats = ctx.run_stats();
            // the seed pass is a gather too, before the six rounds
            assert_eq!(stats.steps.len(), 7);
            assert_eq!(stats.steps[0].strategy, "pagerank:seed");
            assert!(
                stats.steps[1..].iter().all(|s| s.strategy == "pull_gather"),
                "{threads} threads"
            );
            r.scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
        })
    };
    let reference = dense_rounds(1);
    for threads in [2, 8] {
        assert_eq!(dense_rounds(threads), reference, "{threads} threads");
    }
}

/// BC sums sigma and delta with gathers — plain stores, each vertex
/// folding its edges in list order — so its scores are bit-identical
/// across pools and with or without the serial fast path, dense levels
/// included (its per-edge atomic adds never promised that).
#[test]
fn bc_is_bit_identical_across_pools_and_the_serial_fast_path() {
    let g = GraphBuilder::new().build(rmat(10, 8, Default::default(), 31));
    let run = |threads: usize, serial_threshold: usize| {
        with_threads(threads, || {
            let ctx = Context::new(&g)
                .with_reverse(&g)
                .with_config(EngineConfig::new().with_serial_threshold(serial_threshold))
                .with_stats();
            let r = algos::bc(&ctx, 0, algos::BcOptions::default());
            let steps = ctx.run_stats().steps;
            assert!(
                steps
                    .iter()
                    .any(|s| matches!(s.strategy, "pull_gather" | "pull_gather:serial")),
                "a dense level ran"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            (bits(&r.bc_values), bits(&r.sigmas), r.labels)
        })
    };
    let reference = run(1, 0);
    for threads in [1, 2, 8] {
        for serial_threshold in [0, usize::MAX / 2] {
            assert_eq!(run(threads, serial_threshold), reference, "{threads} threads");
        }
    }
}

/// A reused context keeps one cumulative edge counter; every primitive's
/// `edges_examined` is its own run's share of it, so two identical runs
/// on one context report the same count.
#[test]
fn reruns_on_one_context_report_equal_edges_examined() {
    let g =
        GraphBuilder::new().random_weights(1, 64, 5).build(rmat(9, 8, Default::default(), 5));
    let ctx = Context::new(&g).with_reverse(&g);
    let sources: Vec<u32> = (0..8).collect();
    let runs: [(&str, &dyn Fn() -> u64); 6] = [
        ("bfs", &|| algos::bfs(&ctx, 0, Default::default()).edges_examined),
        ("sssp", &|| algos::sssp(&ctx, 0, Default::default()).edges_examined),
        ("bc", &|| algos::bc(&ctx, 0, Default::default()).edges_examined),
        ("pagerank", &|| algos::pagerank(&ctx, Default::default()).edges_examined),
        ("msbfs", &|| algos::msbfs(&ctx, &sources).edges_examined),
        ("msppr", &|| algos::msppr(&ctx, &sources, Default::default()).edges_examined),
    ];
    for (name, run) in runs {
        let first = run();
        assert!(first > 0, "{name}");
        assert_eq!(run(), first, "{name}");
    }
}
