//! Reproduces **Table 3** (scalability): runtime and MTEPS for the five
//! Gunrock primitives over five consecutively-sized Kronecker graphs
//! (the paper's kron_g500-logn17..21). Runtimes should scale roughly
//! linearly in graph size, with atomic-heavy primitives (BC, SSSP)
//! scaling sub-ideally — the shape the paper reports.
//!
//! Usage: `cargo run --release -p gunrock-bench --bin table3
//!         [--scale N] [--runs N]` (N = smallest scale; default 10)

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_bench::table::{fmt_ms, fmt_mteps, Table};
use gunrock_bench::{arg_value, time_avg_ms, BenchArgs};
use gunrock_graph::generators::{rmat, RmatParams};
use gunrock_graph::GraphBuilder;

fn main() {
    let args = BenchArgs::parse();
    let base: u32 = arg_value("--scale").and_then(|s| s.parse().ok()).unwrap_or(10);
    println!("## Table 3: scalability on Kronecker graphs, scales {}..{}\n", base, base + 4);
    let mut t = Table::new(vec![
        "Dataset",
        "BFS ms",
        "BC ms",
        "SSSP ms",
        "CC ms",
        "PageRank ms",
        "BFS MTEPS",
        "BC MTEPS",
        "SSSP MTEPS",
    ]);
    for scale in base..base + 5 {
        let g = GraphBuilder::new().random_weights(1, 64, 0xC0FFEE).build(rmat(
            scale,
            16,
            RmatParams::graph500(),
            103,
        ));
        let m = g.num_edges() as f64;
        let mteps = |ms: f64| m / (ms / 1e3) / 1e6;
        let bfs_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(&g).with_reverse(&g);
            std::hint::black_box(algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized()))
        });
        let bc_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(&g);
            std::hint::black_box(algos::bc(&ctx, 0, Default::default()))
        });
        let sssp_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(&g);
            std::hint::black_box(algos::sssp(&ctx, 0, Default::default()))
        });
        let cc_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(&g).with_reverse(&g);
            std::hint::black_box(algos::cc(&ctx))
        });
        let pr_ms = time_avg_ms(args.runs, || {
            // undirected by construction: `g` is its own transpose
            let ctx = Context::new(&g).with_reverse(&g);
            std::hint::black_box(algos::pagerank(
                &ctx,
                algos::PrOptions {
                    epsilon: 1e-7 / g.num_vertices() as f64,
                    max_iters: 100,
                    ..Default::default()
                },
            ))
        });
        t.row(vec![
            format!("kron_logn{} (v=2^{}, e={:.1}M)", scale, scale, m / 1e6),
            fmt_ms(bfs_ms),
            fmt_ms(bc_ms),
            fmt_ms(sssp_ms),
            fmt_ms(cc_ms),
            fmt_ms(pr_ms),
            fmt_mteps(mteps(bfs_ms)),
            fmt_mteps(mteps(bc_ms)),
            fmt_mteps(mteps(sssp_ms)),
        ]);
    }
    print!("{}", t.render());
    println!("\nExpect near-linear runtime growth; BC/SSSP MTEPS decline with scale");
    println!("(frontier atomic contention), as in the paper's Table 3.");
}
