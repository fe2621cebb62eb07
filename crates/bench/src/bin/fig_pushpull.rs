//! Reproduces the **§4.1.1 footnote figure**: direction-optimized
//! (push/pull) BFS vs forced-push BFS. Push is forced by leaving the
//! reverse graph off the context, so every level pushes. The paper reports a geomean
//! speedup of 1.52 on scale-free graphs and 1.28 on small-degree
//! large-diameter graphs — i.e. both win, scale-free wins bigger. The
//! edge-visit savings column shows *why* pull wins.
//!
//! Usage: `cargo run --release -p gunrock-bench --bin fig_pushpull
//!         [--scale N] [--runs N]`

use gunrock::prelude::*;
use gunrock_algos::bfs::{bfs, BfsOptions};
use gunrock_bench::table::{fmt_ms, geomean, Table};
use gunrock_bench::{load_dataset, time_avg_ms, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    println!("## Push-only vs direction-optimized BFS (scale {})\n", args.scale);
    let mut t = Table::new(vec![
        "Dataset",
        "Class",
        "Push ms",
        "DO ms",
        "Speedup",
        "Push edges",
        "DO edges",
        "Edge savings",
        "Pull iters",
    ]);
    let mut scale_free = Vec::new();
    let mut road_like = Vec::new();
    for (name, class) in [
        ("kron", "scale-free"),
        ("soc", "scale-free"),
        ("roadnet", "road-like"),
        ("bitcoin", "road-like"),
    ] {
        let d = load_dataset(name, args.scale);
        let g = &d.graph;
        let push_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g);
            std::hint::black_box(bfs(&ctx, 0, BfsOptions::default()))
        });
        let do_ms = time_avg_ms(args.runs, || {
            let ctx = Context::new(g).with_reverse(g);
            std::hint::black_box(bfs(&ctx, 0, BfsOptions::direction_optimized()))
        });
        let push_stats = bfs(&Context::new(g), 0, BfsOptions::default());
        let do_stats = {
            let ctx = Context::new(g).with_reverse(g);
            bfs(&ctx, 0, BfsOptions::direction_optimized())
        };
        let speedup = push_ms / do_ms;
        if class == "scale-free" {
            scale_free.push(speedup);
        } else {
            road_like.push(speedup);
        }
        let savings = 1.0 - do_stats.edges_examined as f64 / push_stats.edges_examined as f64;
        t.row(vec![
            name.to_string(),
            class.to_string(),
            fmt_ms(push_ms),
            fmt_ms(do_ms),
            format!("{speedup:.2}x"),
            push_stats.edges_examined.to_string(),
            do_stats.edges_examined.to_string(),
            format!("{:.0}%", savings * 100.0),
            do_stats.pull_iterations.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nGeomean speedup: scale-free {:.2}x (paper: 1.52), road-like {:.2}x (paper: 1.28)",
        geomean(&scale_free),
        geomean(&road_like)
    );
}
