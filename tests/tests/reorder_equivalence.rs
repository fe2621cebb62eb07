//! Degree-descending relabeling is a pure locality optimization: for
//! every primitive, running on the reordered graph and mapping the
//! results back through the inverse permutation must reproduce the
//! original-graph results — across thread-pool sizes, so neither the
//! permutation nor the pull's bitmap walk may introduce schedule
//! dependence. Depths/distances/components are unique fixed points and
//! compare bit-identical; PageRank accumulates floats in a different
//! order under relabeling, so it compares within the same epsilon the
//! determinism suite uses.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_engine::par::with_threads;
use gunrock_graph::generators::rmat::{rmat, RmatParams};
use gunrock_graph::reorder::{degree_descending, Relabeling};
use gunrock_graph::{Csr, GraphBuilder};

fn test_graph() -> Csr {
    // social-skew rmat: pronounced hubs, so relabeling really clusters
    GraphBuilder::new().random_weights(1, 64, 9).build(rmat(10, 16, RmatParams::social(), 21))
}

/// Canonical component labeling: each label mapped to the minimum
/// vertex id of its component, so representative choice cancels out.
fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut rep = std::collections::HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        rep.entry(l).or_insert(v as u32);
    }
    labels.iter().map(|l| rep[l]).collect()
}

#[test]
fn bfs_depths_are_invariant_under_reorder_and_thread_count() {
    let g = test_graph();
    let relab = degree_descending(&g);
    let gr = relab.apply(&g);
    let want = serial::bfs(&g, 0);
    for threads in [1usize, 2, 8] {
        let (plain, restored, pulls) = with_threads(threads, || {
            let ctx = Context::new(&g).with_reverse(&g);
            let a = algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized());
            let ctx = Context::new(&gr).with_reverse(&gr);
            let b =
                algos::bfs(&ctx, relab.new_of_old(0), algos::BfsOptions::direction_optimized());
            (a.labels, relab.restore_values(&b.labels), b.pull_iterations)
        });
        assert_eq!(plain, want, "plain bfs at {threads} threads");
        assert_eq!(restored, want, "reordered bfs at {threads} threads");
        assert!(pulls > 0, "reordered scale-free bfs must take the sweep path");
    }
}

#[test]
fn sssp_distances_are_invariant_under_reorder_and_thread_count() {
    let g = test_graph();
    let relab = degree_descending(&g);
    let gr = relab.apply(&g);
    let want = serial::dijkstra(&g, 0);
    for threads in [1usize, 2, 8] {
        let (plain, restored) = with_threads(threads, || {
            let ctx = Context::new(&g);
            let a = algos::sssp(&ctx, 0, algos::SsspOptions::default());
            let ctx = Context::new(&gr);
            let b = algos::sssp(&ctx, relab.new_of_old(0), algos::SsspOptions::default());
            (a.dist, relab.restore_values(&b.dist))
        });
        assert_eq!(plain, want, "plain sssp at {threads} threads");
        assert_eq!(restored, want, "reordered sssp at {threads} threads");
    }
}

#[test]
fn cc_partition_is_invariant_under_reorder_and_thread_count() {
    let g = test_graph();
    let relab = degree_descending(&g);
    let gr = relab.apply(&g);
    let want = canonical(&serial::connected_components(&g));
    for threads in [1usize, 2, 8] {
        let (plain, restored) = with_threads(threads, || {
            let a = algos::cc(&Context::new(&g));
            let b = algos::cc(&Context::new(&gr));
            (canonical(&a.labels), canonical(&relab.restore_ids(&b.labels)))
        });
        assert_eq!(plain, want, "plain cc at {threads} threads");
        assert_eq!(restored, want, "reordered cc at {threads} threads");
    }
}

#[test]
fn pagerank_ranks_agree_under_reorder_and_thread_count() {
    let g = test_graph();
    let relab = degree_descending(&g);
    let gr = relab.apply(&g);
    let opts = || algos::PrOptions { epsilon: 1e-10, ..Default::default() };
    let want = {
        let ctx = Context::new(&g);
        algos::pagerank(&ctx, opts()).scores
    };
    for threads in [1usize, 2, 8] {
        let (plain, restored) = with_threads(threads, || {
            let a = algos::pagerank(&Context::new(&g), opts());
            let b = algos::pagerank(&Context::new(&gr), opts());
            (a.scores, relab.restore_values(&b.scores))
        });
        for (v, (x, y)) in plain.iter().zip(&want).enumerate() {
            assert!((x - y).abs() < 1e-9, "plain pr[{v}] at {threads} threads: {x} vs {y}");
        }
        for (v, (x, y)) in restored.iter().zip(&want).enumerate() {
            assert!((x - y).abs() < 1e-9, "reordered pr[{v}] at {threads} threads: {x} vs {y}");
        }
    }
}

#[test]
fn relabeling_round_trips_through_checkpoint_id_translation() {
    // the id maps used by CLI --resume under --reorder: old -> new -> old
    let g = test_graph();
    let relab: Relabeling = degree_descending(&g);
    for v in 0..g.num_vertices() as u32 {
        assert_eq!(relab.old_of_new(relab.new_of_old(v)), v);
    }
}
