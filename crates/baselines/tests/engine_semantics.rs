//! Semantics tests for the baseline engines themselves (beyond the
//! algorithm-level equivalence checks): representation switching in the
//! Ligra-role engine, superstep counting in GAS, and message combining
//! in the Medusa-role engine.

use gunrock_baselines::ligra::{edge_map, VertexSubset};
use gunrock_baselines::{gas, serial};
use gunrock_graph::generators::{erdos_renyi, rmat};
use gunrock_graph::{Coo, GraphBuilder};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn edge_map_small_frontier_stays_sparse_large_goes_dense() {
    let g = GraphBuilder::new().build(rmat(8, 16, Default::default(), 1));
    // tiny frontier: sparse output expected
    let out = edge_map(&g, &g, &VertexSubset::single(0), |_, _, _| true, |_| true);
    assert!(matches!(out, VertexSubset::Sparse(_)), "tiny frontier should push");
    // full frontier: dense output expected
    let out = edge_map(&g, &g, &VertexSubset::full(g.num_vertices()), |_, _, _| true, |_| true);
    assert!(matches!(out, VertexSubset::Dense(_)), "full frontier should pull");
}

#[test]
fn edge_map_update_sees_each_directed_edge_at_most_once_in_sparse_mode() {
    let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (0, 2), (1, 2)]));
    let calls = AtomicU64::new(0);
    let _ = edge_map(
        &g,
        &g,
        &VertexSubset::Sparse(vec![0]),
        |_, _, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        },
        |_| true,
    );
    assert_eq!(calls.load(Ordering::Relaxed), 2); // vertex 0 has 2 out-edges
}

#[test]
fn gas_superstep_count_tracks_graph_diameter() {
    // a path graph needs about diameter supersteps for BFS-like programs
    let g = GraphBuilder::new()
        .build(Coo::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]));
    let depth = gas::bfs(&g, &g, 0, gas::GasMode::Balanced);
    assert_eq!(depth, serial::bfs(&g, 0));
    assert_eq!(depth[5], 5);
}

#[test]
fn gas_modes_agree_on_heavy_skew() {
    let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 3));
    assert_eq!(
        gas::sssp(&g, &g, 0, gas::GasMode::PerVertex),
        gas::sssp(&g, &g, 0, gas::GasMode::Balanced)
    );
}

#[test]
fn serial_oracles_are_internally_consistent() {
    // spot-check the oracles against one another where their domains meet
    let g = GraphBuilder::new()
        .random_weights(1, 1, 7) // unit weights: SSSP == BFS
        .build(erdos_renyi(200, 700, 7));
    assert_eq!(serial::dijkstra(&g, 0), serial::bfs(&g, 0));
}
