//! Quickstart: build a graph, run BFS, inspect the results.
//!
//! Run with: `cargo run --release -p gunrock-examples --example quickstart`

use gunrock::prelude::*;
use gunrock_algos::bfs::{bfs, BfsOptions};
use gunrock_baselines::serial;
use gunrock_graph::prelude::*;

fn main() {
    // 1. Generate a scale-free graph (Graph500 Kronecker parameters) and
    //    prepare it the way the paper does: undirected, deduplicated.
    let coo = generators::rmat(14, 16, generators::RmatParams::graph500(), 42);
    let graph = GraphBuilder::new().build(coo);
    let stats = graph_stats(&graph);
    println!(
        "graph: {} vertices, {} directed edges, max degree {}, diameter ~{}",
        stats.vertices, stats.edges, stats.max_degree, stats.pseudo_diameter
    );

    // 2. Run direction-optimized BFS from vertex 0. The context carries
    //    the reverse graph for pull traversal (the graph itself, since
    //    it is undirected).
    let ctx = Context::new(&graph).with_reverse(&graph);
    let result = bfs(&ctx, 0, BfsOptions::direction_optimized());
    assert_eq!(result.labels, serial::bfs(&graph, 0), "depths match serial BFS");

    // 3. Inspect.
    let reached = result.labels.iter().filter(|&&l| l != INFINITY).count();
    let max_depth = result.labels.iter().filter(|&&l| l != INFINITY).max().unwrap();
    println!(
        "BFS reached {} / {} vertices, max depth {}, {} iterations ({} pull)",
        reached, stats.vertices, max_depth, result.iterations, result.pull_iterations
    );
    println!(
        "traversed {} edges in {:.2} ms -> {:.1} MTEPS",
        result.edges_examined,
        result.elapsed.as_secs_f64() * 1e3,
        result.mteps()
    );

    // 4. The predecessor array is a BFS tree: walk a path back to the
    //    source from the deepest vertex.
    let far = result
        .labels
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l != INFINITY)
        .max_by_key(|&(_, &l)| l)
        .map(|(v, _)| v as u32)
        .unwrap();
    let mut path = vec![far];
    let mut cur = far;
    while result.preds[cur as usize] != INVALID_VERTEX {
        cur = result.preds[cur as usize];
        path.push(cur);
    }
    path.reverse();
    assert_eq!((path[0], path.len() - 1), (0, *max_depth as usize), "a shortest path");
    println!("example shortest hop path 0 -> {far}: {path:?}");
}
