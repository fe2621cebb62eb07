//! Criterion: BFS variants across the four benchmark topologies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gunrock::prelude::*;
use gunrock_algos::bfs::{bfs, BfsOptions};
use gunrock_baselines::{hardwired, serial};
use gunrock_bench::load_dataset;

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    group.sample_size(10);
    for name in ["kron", "roadnet"] {
        let d = load_dataset(name, 11);
        let g = &d.graph;
        group.bench_with_input(BenchmarkId::new("gunrock_do", name), g, |b, g| {
            b.iter(|| {
                let ctx = Context::new(g).with_reverse(g);
                bfs(&ctx, 0, BfsOptions::direction_optimized())
            })
        });
        // without a reverse graph every level is the idempotent push
        group.bench_with_input(BenchmarkId::new("gunrock_idempotent", name), g, |b, g| {
            b.iter(|| {
                let ctx = Context::new(g);
                bfs(&ctx, 0, BfsOptions::default())
            })
        });
        group.bench_with_input(BenchmarkId::new("hardwired", name), g, |b, g| {
            b.iter(|| hardwired::bfs(g, g, 0))
        });
        group.bench_with_input(BenchmarkId::new("serial", name), g, |b, g| {
            b.iter(|| serial::bfs(g, 0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bfs);
criterion_main!(benches);
