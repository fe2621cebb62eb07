//! Social-network analytics: the workload class the paper's intro
//! motivates. On a scale-free "social" graph, compute PageRank
//! (influence), single-source betweenness (brokerage), and connected
//! components (communities), then cross-reference the three.
//!
//! Run with: `cargo run --release -p gunrock-examples --example social_network`

use gunrock::prelude::*;
use gunrock_algos::{bc, cc, pagerank};
use gunrock_baselines::serial;
use gunrock_graph::prelude::*;

fn top_k(scores: &[f64], k: usize) -> Vec<(u32, f64)> {
    let mut idx: Vec<(u32, f64)> =
        scores.iter().enumerate().map(|(v, &s)| (v as u32, s)).collect();
    idx.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    idx.truncate(k);
    idx
}

fn main() {
    // A LiveJournal-like social topology (mild power-law skew).
    let coo = generators::rmat(13, 16, generators::RmatParams::social(), 7);
    let graph = GraphBuilder::new().build(coo);
    println!(
        "social graph: {} members, {} ties, max degree {}",
        graph.num_vertices(),
        graph.num_edges() / 2,
        graph.max_degree()
    );

    // Influence: PageRank over the whole graph.
    let ctx = Context::new(&graph);
    let pr =
        pagerank::pagerank(&ctx, pagerank::PrOptions { epsilon: 1e-12, ..Default::default() });
    println!(
        "\nPageRank converged in {} iterations ({:.1} ms)",
        pr.iterations,
        pr.elapsed.as_secs_f64() * 1e3
    );
    assert!((pr.scores.iter().sum::<f64>() - 1.0).abs() < 1e-6, "scores are a distribution");
    println!("top influencers (vertex, score):");
    for (v, s) in top_k(&pr.scores, 5) {
        println!("  #{v:<6} score {s:.5}  degree {}", graph.out_degree(v));
    }

    // Brokerage: betweenness contributions from the most influential seed.
    let seed = top_k(&pr.scores, 1)[0].0;
    let ctx = Context::new(&graph);
    let bc_r = bc::bc(&ctx, seed, bc::BcOptions::default());
    assert_eq!(bc_r.labels, serial::bfs(&graph, seed), "BC's forward pass is a BFS");
    println!(
        "\nBC pass from seed #{seed}: {} iterations, {:.1} ms",
        bc_r.iterations,
        bc_r.elapsed.as_secs_f64() * 1e3
    );
    println!("top brokers on shortest paths from #{seed}:");
    for (v, s) in top_k(&bc_r.bc_values, 5) {
        println!("  #{v:<6} dependency {s:.1}");
    }

    // Communities: connected components.
    let ctx = Context::new(&graph);
    let cc_r = cc::cc(&ctx);
    assert_eq!(cc_r.labels, serial::connected_components(&graph), "canonical labels");
    let giant = {
        let mut counts = std::collections::HashMap::new();
        for &l in &cc_r.labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    };
    println!(
        "\ncomponents: {} total; giant component holds {} / {} members",
        cc_r.num_components,
        giant,
        graph.num_vertices()
    );
}
