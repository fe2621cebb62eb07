//! Criterion: SSSP — near-far delta stepping vs Bellman-Ford vs baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gunrock::prelude::*;
use gunrock_algos::sssp::{sssp, SsspOptions};
use gunrock_baselines::{hardwired, ligra, serial};
use gunrock_bench::load_dataset;

fn bench_sssp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sssp");
    group.sample_size(10);
    for name in ["kron", "roadnet"] {
        let d = load_dataset(name, 11);
        let g = &d.graph;
        group.bench_with_input(BenchmarkId::new("gunrock_nearfar", name), g, |b, g| {
            b.iter(|| {
                let ctx = Context::new(g);
                sssp(&ctx, 0, SsspOptions::default())
            })
        });
        group.bench_with_input(BenchmarkId::new("gunrock_bellmanford", name), g, |b, g| {
            b.iter(|| {
                let ctx = Context::new(g);
                // one window as wide as the distance range
                sssp(&ctx, 0, SsspOptions { delta: Some(u32::MAX), ..Default::default() })
            })
        });
        group.bench_with_input(BenchmarkId::new("hardwired_delta", name), g, |b, g| {
            b.iter(|| hardwired::sssp_delta_stepping(g, 0, 16))
        });
        group.bench_with_input(BenchmarkId::new("ligra_bf", name), g, |b, g| {
            b.iter(|| ligra::sssp_bellman_ford(g, g, 0))
        });
        group.bench_with_input(BenchmarkId::new("serial_dijkstra", name), g, |b, g| {
            b.iter(|| serial::dijkstra(g, 0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sssp);
criterion_main!(benches);
