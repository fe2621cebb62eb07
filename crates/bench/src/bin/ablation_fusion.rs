//! Ablation **A3** (§4.3): kernel fusion, three points on one BFS. The
//! unfused path mimics multi-kernel GAS-style execution — advance
//! materializes the raw neighbor frontier, a separate compute pass does
//! the labeling, a separate filter pass culls — paying the intermediate
//! frontier traffic the paper identifies as the GAS frameworks' key
//! overhead. The standard path is the paper's Gunrock BFS: computation
//! inside the advance (the functor API), then a separate culling filter.
//! The fused path is the library's BFS, whose advance functor claims each
//! vertex on the visited bitmap so no filter runs at all.
//!
//! Usage: `cargo run --release -p gunrock-bench --bin ablation_fusion
//!         [--scale N] [--runs N]`

use gunrock::prelude::*;
use gunrock_algos::bfs::{bfs, BfsOptions};
use gunrock_bench::table::{fmt_ms, Table};
use gunrock_bench::{bfs_two_kernel, standard_datasets, time_avg_ms, BenchArgs};
use gunrock_engine::atomics::atomic_u32_vec;
use gunrock_graph::{Csr, INFINITY};
use std::sync::atomic::Ordering;

/// BFS with *unfused* steps: advance (no computation) -> compute
/// (labeling) -> filter (dedup), each a separate bulk pass over a
/// materialized frontier.
fn bfs_unfused(g: &Csr, src: u32) -> u32 {
    let n = g.num_vertices();
    let ctx = Context::new(g);
    let labels = atomic_u32_vec(n, INFINITY);
    labels[src as usize].store(0, Ordering::Relaxed);
    let visited = AtomicBitmap::new(n);
    visited.set(src as usize);
    let mut frontier = Frontier::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        // kernel 1: pure expansion (computation NOT fused)
        let raw = advance::advance(&ctx, &frontier, AdvanceSpec::v2v(), &AcceptAll);
        // kernel 2: standalone compute pass over the materialized frontier
        let lv = level;
        compute::for_each(&raw, |v| {
            if labels[v as usize].load(Ordering::Relaxed) == INFINITY {
                labels[v as usize].store(lv, Ordering::Relaxed);
            }
        });
        // kernel 3: standalone filter pass
        frontier = filter::culling::filter_with_culling(
            &ctx,
            &raw,
            &visited,
            &VertexCond(|v: u32| labels[v as usize].load(Ordering::Relaxed) == lv),
            CullingConfig::default(),
        );
    }
    level
}

fn main() {
    let args = BenchArgs::parse();
    println!("## Fused vs unfused operator execution, BFS (scale {})\n", args.scale);
    let mut t = Table::new(vec![
        "Dataset",
        "Unfused (3 kernels) ms",
        "Standard (2) ms",
        "Fully fused (1) ms",
        "2-k speedup",
        "1-k speedup",
    ]);
    for d in standard_datasets(args.scale) {
        let g = &d.graph;
        let standard_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g);
            std::hint::black_box(bfs_two_kernel(&ctx, 0, CullingConfig::default()))
        });
        // no reverse graph: every level is the claiming push
        let fully_fused_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g);
            std::hint::black_box(bfs(&ctx, 0, BfsOptions::default()))
        });
        let unfused_ms = time_avg_ms(args.runs, || std::hint::black_box(bfs_unfused(g, 0)));
        t.row(vec![
            d.name.to_string(),
            fmt_ms(unfused_ms),
            fmt_ms(standard_ms),
            fmt_ms(fully_fused_ms),
            format!("{:.2}x", unfused_ms / standard_ms),
            format!("{:.2}x", unfused_ms / fully_fused_ms),
        ]);
    }
    print!("{}", t.render());
    println!("\nThree points on the fusion spectrum of §4.3/§7: unfused (advance,");
    println!("compute, filter as separate kernels — the GAS execution shape),");
    println!("standard Gunrock (computation fused into advance + a separate culling");
    println!("filter), and fully fused (the library BFS: the cull runs inside the");
    println!("advance functor — the hardwired-kernel shape §7 says closes the last gap).");
}
