//! Criterion: connected components.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gunrock::prelude::*;
use gunrock_algos::cc::cc;
use gunrock_baselines::{hardwired, serial};
use gunrock_bench::load_dataset;

fn bench_cc(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc");
    group.sample_size(10);
    for name in ["kron", "roadnet"] {
        let d = load_dataset(name, 11);
        let g = &d.graph;
        group.bench_with_input(BenchmarkId::new("gunrock_union_find", name), g, |b, g| {
            b.iter(|| {
                let ctx = Context::new(g).with_reverse(g);
                cc(&ctx)
            })
        });
        group.bench_with_input(BenchmarkId::new("hardwired_soman", name), g, |b, g| {
            b.iter(|| hardwired::cc_soman(g))
        });
        group.bench_with_input(BenchmarkId::new("serial_unionfind", name), g, |b, g| {
            b.iter(|| serial::connected_components(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cc);
criterion_main!(benches);
