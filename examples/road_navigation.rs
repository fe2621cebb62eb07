//! Road-network routing: the large-diameter workload class (roadNet-CA
//! in the paper). Builds a perturbed grid road map with travel-time
//! weights, runs near-far delta-stepping SSSP, reconstructs a route from
//! the shortest-path tree, and shows the priority queue's work savings
//! over plain Bellman-Ford iteration.
//!
//! Run with: `cargo run --release -p gunrock-examples --example road_navigation`

use gunrock::prelude::*;
use gunrock_algos::sssp::{sssp, SsspOptions};
use gunrock_graph::prelude::*;

fn main() {
    // A 192x96 city grid with 5% closed roads, 2% diagonal shortcuts,
    // and travel times 1..=64 per segment.
    let coo = generators::grid2d(192, 96, 0.05, 0.02, 11);
    let graph = GraphBuilder::new().random_weights(1, 64, 11).build(coo);
    println!(
        "road network: {} intersections, {} road segments, diameter ~{}",
        graph.num_vertices(),
        graph.num_edges() / 2,
        gunrock_graph::stats::pseudo_diameter(&graph)
    );

    // Route from the north-west corner.
    let src: VertexId = 0;
    let ctx = Context::new(&graph);
    let nearfar = sssp(&ctx, src, SsspOptions::default());
    println!(
        "\nnear-far SSSP: {:.1} ms, {} iterations, {} edge relax attempts",
        nearfar.elapsed.as_secs_f64() * 1e3,
        nearfar.iterations,
        nearfar.edges_examined
    );

    // one priority window as wide as the distance range: every improved
    // vertex is expanded next iteration, i.e. plain Bellman-Ford
    let ctx = Context::new(&graph);
    let bellman = sssp(&ctx, src, SsspOptions { delta: Some(u32::MAX), ..Default::default() });
    println!(
        "plain Bellman-Ford: {:.1} ms, {} iterations, {} edge relax attempts",
        bellman.elapsed.as_secs_f64() * 1e3,
        bellman.iterations,
        bellman.edges_examined
    );
    assert_eq!(nearfar.dist, bellman.dist, "both must agree");
    println!(
        "priority queue saved {:.0}% of edge relaxations",
        (1.0 - nearfar.edges_examined as f64 / bellman.edges_examined as f64) * 100.0
    );

    // Reconstruct the route to the farthest reachable intersection.
    let dest = nearfar
        .dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != INFINITY)
        .max_by_key(|&(_, &d)| d)
        .map(|(v, _)| v as u32)
        .unwrap();
    let mut route = vec![dest];
    let mut cur = dest;
    while nearfar.preds[cur as usize] != INVALID_VERTEX {
        cur = nearfar.preds[cur as usize];
        route.push(cur);
    }
    route.reverse();
    println!(
        "\nfastest route {src} -> {dest}: {} segments, travel time {}",
        route.len() - 1,
        nearfar.dist[dest as usize]
    );
    let preview: Vec<u32> = route.iter().copied().take(8).collect();
    println!("route preview: {preview:?} ...");
    // verify the route is a real path with the claimed cost
    let mut cost = 0u32;
    for w in route.windows(2) {
        let e = graph
            .edge_range(w[0])
            .find(|&e| graph.col_indices()[e] == w[1])
            .expect("route uses real road segments");
        cost += graph.weight(e as u32);
    }
    assert_eq!(cost, nearfar.dist[dest as usize]);
    println!("route verified: segment costs sum to the reported distance");
}
