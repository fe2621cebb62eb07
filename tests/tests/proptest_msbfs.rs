//! Property-based equivalence for the bit-parallel MS-BFS batch
//! (DESIGN.md §13): a lane-packed run must produce depths bit-identical
//! to independent single-source runs — for lane counts that don't fill
//! the word (1, 7, 63), across thread counts (1/2/8), and under
//! degree-descending reordering with per-lane restore.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::prelude::degree_descending;
use gunrock_graph::{Coo, Csr, GraphBuilder};
use proptest::prelude::*;

/// Strategy: an arbitrary undirected graph with 2..=60 vertices and
/// 0..=150 edges, plus a source batch whose lane count deliberately
/// includes partial words (1, 7, 63) alongside the full 64. Duplicate
/// sources are allowed — lanes are independent.
fn arb_batch() -> impl Strategy<Value = (Csr, Vec<u32>)> {
    (2usize..=60, prop_oneof![Just(1usize), Just(7), Just(63), Just(64)]).prop_flat_map(
        |(n, lanes)| {
            let edges =
                proptest::collection::vec(((0..n as u32), (0..n as u32), (1u32..=64)), 0..=150);
            let sources = proptest::collection::vec(0..n as u32, lanes);
            (edges, sources).prop_map(move |(edges, sources)| {
                let coo = Coo::from_weighted_edges(n, &edges);
                (GraphBuilder::new().build(coo), sources)
            })
        },
    )
}

/// One independent direction-optimized BFS per source — the runs the
/// batch replaces, and the equivalence target.
fn solo_depths(g: &Csr, sources: &[u32]) -> Vec<Vec<u32>> {
    sources
        .iter()
        .map(|&s| {
            let ctx = Context::new(g).with_reverse(g);
            algos::bfs(&ctx, s, algos::BfsOptions::direction_optimized()).labels
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_depths_match_independent_runs((g, sources) in arb_batch()) {
        let ctx = Context::new(&g);
        let r = algos::msbfs(&ctx, &sources);
        prop_assert_eq!(r.outcome, RunOutcome::Converged);
        prop_assert_eq!(r.lanes(), sources.len());
        let solo = solo_depths(&g, &sources);
        for (l, want) in solo.iter().enumerate() {
            prop_assert_eq!(r.lane_depths(l), want.as_slice(), "lane {}", l);
            // and both agree with the serial oracle
            let oracle = serial::bfs(&g, sources[l]);
            prop_assert_eq!(want.as_slice(), oracle.as_slice());
        }
    }

    #[test]
    fn batched_depths_are_pool_size_invariant((g, sources) in arb_batch()) {
        // the depth matrix is a deterministic function of (graph,
        // sources): 1, 2, and 8 threads must agree bit-for-bit,
        // and the serial fast path (forced via a huge threshold) too
        let reference = {
            let ctx = Context::new(&g);
            algos::msbfs(&ctx, &sources).depths
        };
        for threads in [1usize, 2, 8] {
            let depths = gunrock_engine::par::with_threads(threads, || {
                let ctx = Context::new(&g);
                algos::msbfs(&ctx, &sources).depths
            });
            prop_assert_eq!(&depths, &reference, "pool of {}", threads);
        }
        let serial_path = {
            let cfg = gunrock_engine::EngineConfig::new().with_serial_threshold(1 << 20);
            let ctx = Context::new(&g).with_config(cfg);
            algos::msbfs(&ctx, &sources).depths
        };
        prop_assert_eq!(&serial_path, &reference);
    }

    #[test]
    fn reordered_batch_restores_to_original_ids((g, sources) in arb_batch()) {
        // run the batch on the degree-descending relabeled graph with
        // translated sources; every restored lane must match the
        // original-id solo run exactly (the CLI --reorder --sources path)
        let relab = degree_descending(&g);
        let rg = relab.apply(&g);
        let isrcs: Vec<u32> = sources.iter().map(|&s| relab.new_of_old(s)).collect();
        let ctx = Context::new(&rg);
        let r = algos::msbfs(&ctx, &isrcs);
        let solo = solo_depths(&g, &sources);
        for (l, want) in solo.iter().enumerate() {
            let restored = relab.restore_values(r.lane_depths(l));
            prop_assert_eq!(&restored, want, "lane {}", l);
        }
    }
}
