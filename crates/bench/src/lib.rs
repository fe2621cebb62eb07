//! # gunrock-bench
//!
//! Evaluation harness reproducing the paper's tables and figures (§6) at
//! laptop scale. Every artifact has a binary (see DESIGN.md §4):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset description |
//! | `table2` | Table 2 — runtime + MTEPS across seven systems (+ `--geomeans` for the MapGraph speedup figures) |
//! | `table3` | Table 3 — scalability across five Kronecker scales |
//! | `fig_pushpull` | §4.1.1 footnote — push vs direction-optimized geomean speedups |
//! | `ablation_lb` | §4.4 — load-balance strategy comparison |
//! | `ablation_filter` | §4.1.1 — idempotence + culling heuristics |
//! | `ablation_fusion` | §4.3 — fused functors vs separate passes |
//!
//! Graph sizes are scaled down from the paper's (the substrate is a
//! multicore engine, not a K40c); pass `--scale N` to grow them. The
//! *shape* of the results — who wins, by what factor, where crossovers
//! fall — is the reproduction target (EXPERIMENTS.md records both).

#![warn(missing_docs)]

pub mod datasets;
pub mod runner;
pub mod table;

pub use datasets::{load_dataset, standard_datasets, Dataset};
pub use runner::{run_system, Algorithm, Measurement, System};
pub use table::{geomean, Table};

/// Parses `--flag value` style options from `std::env::args`, returning
/// the value for `name` if present.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// True if the bare flag `name` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Common CLI: `--scale N` (default 12), `--runs N` (default 3).
pub struct BenchArgs {
    /// Graph size exponent (~log2 of vertex count).
    pub scale: u32,
    /// Timing repetitions averaged per measurement.
    pub runs: usize,
}

impl BenchArgs {
    /// Parses the common arguments.
    pub fn parse() -> Self {
        BenchArgs {
            scale: arg_value("--scale").and_then(|s| s.parse().ok()).unwrap_or(12),
            runs: arg_value("--runs").and_then(|s| s.parse().ok()).unwrap_or(3),
        }
    }
}

/// BFS as the paper's two-kernel "standard" Gunrock pipeline, built from
/// the core operators: an idempotent advance that tests labels and
/// records a candidate parent on every edge into an unvisited vertex
/// (duplicates included), then the culling filter that drops the
/// duplicates with `culling` and labels the survivors. The library's BFS
/// runs the cull inside the advance instead. Pushes every level; returns
/// the labels.
pub fn bfs_two_kernel(
    ctx: &gunrock::Context<'_>,
    src: u32,
    culling: gunrock::prelude::CullingConfig,
) -> Vec<u32> {
    use gunrock::prelude::*;
    use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32};
    use gunrock_graph::{INFINITY, INVALID_VERTEX};
    use std::sync::atomic::Ordering::Relaxed;
    let n = ctx.num_vertices();
    let labels = atomic_u32_vec(n, INFINITY);
    let preds = atomic_u32_vec(n, INVALID_VERTEX);
    labels[src as usize].store(0, Relaxed);
    let visited = AtomicBitmap::new(n);
    visited.set(src as usize);
    let mut frontier = Frontier::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        // kernel 1: idempotent expand; labels are NOT set here
        let expand = EdgeCond(|s: u32, d: u32, _e: u32| {
            let unvisited = labels[d as usize].load(Relaxed) == INFINITY;
            if unvisited {
                preds[d as usize].store(s, Relaxed);
            }
            unvisited
        });
        let raw = advance::advance(ctx, &frontier, AdvanceSpec::v2v(), &expand);
        // kernel 2: cull the duplicates, label the survivors
        let label = VertexCond(|v: u32| {
            labels[v as usize].store(level, Relaxed);
            true
        });
        let next = filter::culling::filter_with_culling(ctx, &raw, &visited, &label, culling);
        ctx.recycle(raw);
        ctx.recycle(std::mem::replace(&mut frontier, next));
    }
    unwrap_atomic_u32(&labels)
}

/// BFS as the paper's base implementation (§4.1.1), built from the core
/// operators: one advance per level whose functor claims each destination
/// with a CAS on its label ("uses atomics during advance to prevent
/// concurrent vertex discovery"), so each vertex enters the output
/// exactly once and no filter runs. The library's BFS claims on a visited
/// bitmap that loads first instead, so an edge into a visited vertex
/// costs no atomic. Pushes every level with workload mapping `mode`;
/// returns the labels.
pub fn bfs_atomic(
    ctx: &gunrock::Context<'_>,
    src: u32,
    mode: gunrock::prelude::AdvanceMode,
) -> Vec<u32> {
    use gunrock::prelude::*;
    use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32};
    use gunrock_graph::{INFINITY, INVALID_VERTEX};
    use std::sync::atomic::Ordering::Relaxed;
    let labels = atomic_u32_vec(ctx.num_vertices(), INFINITY);
    let preds = atomic_u32_vec(ctx.num_vertices(), INVALID_VERTEX);
    labels[src as usize].store(0, Relaxed);
    let mut frontier = Frontier::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let discover = EdgeCond(|s: u32, d: u32, _e: u32| {
            let won = labels[d as usize].compare_exchange(INFINITY, level, Relaxed, Relaxed);
            if won.is_ok() {
                preds[d as usize].store(s, Relaxed);
            }
            won.is_ok()
        });
        let next =
            advance::advance(ctx, &frontier, AdvanceSpec::v2v().with_mode(mode), &discover);
        ctx.recycle(std::mem::replace(&mut frontier, next));
    }
    unwrap_atomic_u32(&labels)
}

/// Times `f` over `runs` executions, returning the average milliseconds
/// (the paper averages 10 runs; we default to 3 for laptop turnaround).
pub fn time_avg_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs > 0);
    let mut total = 0.0;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        let out = f();
        total += t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
    }
    total / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_kernel_bfs_matches_the_oracle() {
        use gunrock::prelude::CullingConfig;
        use gunrock_graph::generators::rmat;
        let g = gunrock_graph::GraphBuilder::new().build(rmat(9, 8, Default::default(), 3));
        let ctx = gunrock::Context::new(&g);
        let bitmask_only = CullingConfig { history: false, history_bits: 0, bitmask: true };
        for culling in [CullingConfig::default(), bitmask_only] {
            assert_eq!(bfs_two_kernel(&ctx, 0, culling), gunrock_baselines::serial::bfs(&g, 0));
        }
    }

    #[test]
    fn atomic_bfs_matches_the_oracle_in_every_mode() {
        use gunrock::prelude::AdvanceMode;
        use gunrock_graph::generators::rmat;
        let g = gunrock_graph::GraphBuilder::new().build(rmat(9, 8, Default::default(), 3));
        let want = gunrock_baselines::serial::bfs(&g, 0);
        for mode in [
            AdvanceMode::ThreadMapped,
            AdvanceMode::Twc,
            AdvanceMode::LoadBalanced,
            AdvanceMode::Auto,
        ] {
            assert_eq!(bfs_atomic(&gunrock::Context::new(&g), 0, mode), want, "{mode:?}");
        }
    }

    #[test]
    fn time_avg_is_positive() {
        let ms = time_avg_ms(2, || (0..10_000u64).sum::<u64>());
        assert!(ms >= 0.0);
    }
}
