//! Property-based cross-validation: arbitrary random graphs, every
//! primitive checked against its serial oracle or algebraic invariant.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::{Coo, Csr, GraphBuilder, INFINITY, INVALID_VERTEX};
use proptest::prelude::*;

/// Strategy: an arbitrary undirected weighted graph with 2..=60 vertices
/// and 0..=150 edges.
fn arb_graph() -> impl Strategy<Value = (Csr, u32)> {
    (2usize..=60).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec(((0..n as u32), (0..n as u32), (1u32..=64)), 0..=150);
        (edges, 0..n as u32).prop_map(move |(edges, src)| {
            let coo = Coo::from_weighted_edges(n, &edges);
            (GraphBuilder::new().build(coo), src)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_matches_oracle_and_tree_is_valid((g, src) in arb_graph()) {
        let ctx = Context::new(&g).with_reverse(&g);
        let r = algos::bfs(&ctx, src, algos::BfsOptions::direction_optimized());
        prop_assert_eq!(&r.labels, &serial::bfs(&g, src));
        for v in 0..g.num_vertices() {
            if r.labels[v] != INFINITY && v as u32 != src {
                let p = r.preds[v];
                prop_assert_ne!(p, INVALID_VERTEX);
                prop_assert_eq!(r.labels[p as usize] + 1, r.labels[v]);
                prop_assert!(g.neighbors(p).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn sssp_matches_dijkstra((g, src) in arb_graph()) {
        let ctx = Context::new(&g);
        let r = algos::sssp(&ctx, src, algos::SsspOptions::default());
        prop_assert_eq!(&r.dist, &serial::dijkstra(&g, src));
    }

    #[test]
    fn sssp_small_delta_matches((g, src) in arb_graph()) {
        let ctx = Context::new(&g);
        let r = algos::sssp(&ctx, src, algos::SsspOptions { delta: Some(1), ..Default::default() });
        prop_assert_eq!(&r.dist, &serial::dijkstra(&g, src));
    }

    #[test]
    fn cc_partition_matches_union_find((g, _src) in arb_graph()) {
        // with and without the giant-component skip, at pool sizes that
        // take the serial and the chunked passes
        let want = serial::connected_components(&g);
        for threads in [1, 2, 8] {
            let (skip, plain) = gunrock_engine::par::with_threads(threads, || {
                (algos::cc(&Context::new(&g).with_reverse(&g)), algos::cc(&Context::new(&g)))
            });
            prop_assert_eq!(&skip.labels, &want, "skip, {} threads", threads);
            prop_assert_eq!(&plain.labels, &want, "no reverse, {} threads", threads);
        }
    }

    #[test]
    fn bc_matches_brandes((g, src) in arb_graph()) {
        // pushing every level, and gathering sigma with a reverse graph
        let want = serial::brandes_single_source(&g, src);
        for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
            let r = algos::bc(&ctx, src, algos::BcOptions::default());
            for (a, b) in r.bc_values.iter().zip(&want) {
                prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_matches((g, _src) in arb_graph()) {
        let ctx = Context::new(&g);
        let r = algos::pagerank(&ctx, algos::PrOptions { epsilon: 1e-13, ..Default::default() });
        let sum: f64 = r.scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        let want = serial::pagerank(&g, 0.85, 1e-14, 3000);
        for (a, b) in r.scores.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }
}
