//! Ablation **A4** (§4.1.1, §5.2): the two-level near–far priority queue
//! vs plain frontier label-correcting (Bellman-Ford) for SSSP. The
//! paper's argument: prioritizing near-pile work saves total relaxations,
//! most dramatically on long-diameter weighted graphs. Bellman-Ford is
//! the same SSSP with one window as wide as the distance range
//! (`delta: Some(u32::MAX)`), so every claimed vertex stays near.
//!
//! Usage: `cargo run --release -p gunrock-bench --bin ablation_pq
//!         [--scale N] [--runs N]`

use gunrock::prelude::*;
use gunrock_algos::sssp::{sssp, SsspOptions};
use gunrock_bench::table::{fmt_ms, Table};
use gunrock_bench::{standard_datasets, time_avg_ms, BenchArgs};

/// Frontier Bellman-Ford: the whole distance range is the near window.
const BELLMAN_FORD: SsspOptions =
    SsspOptions { delta: Some(u32::MAX), mode: AdvanceMode::Auto };

fn main() {
    let args = BenchArgs::parse();
    println!("## Two-level priority queue vs Bellman-Ford, SSSP (scale {})\n", args.scale);
    let mut t = Table::new(vec![
        "Dataset",
        "NearFar ms",
        "BellmanFord ms",
        "Speedup",
        "NearFar relax",
        "BF relax",
        "Work saved",
    ]);
    for d in standard_datasets(args.scale) {
        let g = &d.graph;
        let nf_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g);
            std::hint::black_box(sssp(&ctx, 0, SsspOptions::default()))
        });
        let bf_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g);
            std::hint::black_box(sssp(&ctx, 0, BELLMAN_FORD))
        });
        let nf = {
            let ctx = Context::new(g);
            sssp(&ctx, 0, SsspOptions::default())
        };
        let bf = sssp(&Context::new(g), 0, BELLMAN_FORD);
        assert_eq!(nf.dist, bf.dist, "{}: both must agree", d.name);
        t.row(vec![
            d.name.to_string(),
            fmt_ms(nf_ms),
            fmt_ms(bf_ms),
            format!("{:.2}x", bf_ms / nf_ms),
            nf.edges_examined.to_string(),
            bf.edges_examined.to_string(),
            format!(
                "{:.0}%",
                (1.0 - nf.edges_examined as f64 / bf.edges_examined as f64) * 100.0
            ),
        ]);
    }
    print!("{}", t.render());
    println!("\nExpected shape: biggest savings on roadnet/bitcoin (long weighted");
    println!("diameters re-relax heavily under Bellman-Ford), modest on scale-free.");
}
