//! Ablation **A2** (§4.1.1): idempotent vs atomic advance, and the
//! contribution of each culling heuristic. Reports runtime plus the
//! frontier inflation (elements entering the filter / vertices reached)
//! showing how many redundant discoveries each heuristic removes.
//!
//! Usage: `cargo run --release -p gunrock-bench --bin ablation_filter
//!         [--scale N] [--runs N]`

use gunrock::prelude::*;
use gunrock_algos::bfs::{bfs, BfsOptions};
use gunrock_bench::table::{fmt_ms, Table};
use gunrock_bench::{bfs_two_kernel, standard_datasets, time_avg_ms, BenchArgs};
use gunrock_graph::INFINITY;

/// The paper's two-kernel BFS (idempotent advance + culling filter) under
/// one culling configuration: average ms and the filter load.
fn run_config(g: &gunrock_graph::Csr, culling: CullingConfig, runs: usize) -> (f64, f64) {
    let ms = time_avg_ms(runs, || {
        let ctx = Context::new(g);
        std::hint::black_box(bfs_two_kernel(&ctx, 0, culling))
    });
    // inflation: filtered elements / reached vertices
    let ctx = Context::new(g);
    let labels = bfs_two_kernel(&ctx, 0, culling);
    let reached = labels.iter().filter(|&&l| l != INFINITY).count().max(1);
    let filtered = ctx.counters.elements_filtered.load(std::sync::atomic::Ordering::Relaxed);
    (ms, filtered as f64 / reached as f64)
}

fn main() {
    let args = BenchArgs::parse();
    println!("## Idempotence & culling heuristics, BFS (scale {})\n", args.scale);
    let mut t = Table::new(vec![
        "Dataset",
        "Atomic ms",
        "Idem both ms",
        "Idem bitmask ms",
        "Idem history ms",
        "Filter load",
    ]);
    for d in standard_datasets(args.scale) {
        let g = &d.graph;
        let atomic_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g);
            std::hint::black_box(bfs(&ctx, 0, BfsOptions::atomic()))
        });
        let both = CullingConfig::default();
        let bitmask_only = CullingConfig { history: false, history_bits: 0, bitmask: true };
        let history_heavy = CullingConfig { history: true, history_bits: 12, bitmask: true };
        let (ms_both, load_both) = run_config(g, both, args.runs);
        let (ms_bm, _) = run_config(g, bitmask_only, args.runs);
        let (ms_hist, _) = run_config(g, history_heavy, args.runs);
        t.row(vec![
            d.name.to_string(),
            fmt_ms(atomic_ms),
            fmt_ms(ms_both),
            fmt_ms(ms_bm),
            fmt_ms(ms_hist),
            format!("{load_both:.2}x"),
        ]);
    }
    print!("{}", t.render());
    println!("\nFilter load = frontier elements entering the filter per reached vertex");
    println!("(a property of the idempotent expand, independent of culling config);");
    println!("values above 1 are the redundant concurrent discoveries the culling");
    println!("heuristics exist to remove. Expected: high inflation on scale-free");
    println!("graphs (shared neighbors), near 1.0 on road-like graphs.");
}
