//! The **compute** operator (§4.1): "a programmer-specified computation
//! step defines an operation on all elements in the current frontier;
//! Gunrock then performs that operation in parallel across all elements."
//!
//! Standalone compute exists mainly for primitives that are a single
//! regular pass (degree distributions, value initialization) and for the
//! *unfused* ablation path — in normal primitives the computation is
//! fused into advance/filter via the functor API (§4.3).

use crate::context::Context;
use crate::isolate::isolated;
use gunrock_engine::config::SEQUENTIAL_CUTOFF;
use gunrock_engine::frontier::Frontier;
use gunrock_engine::stats::OperatorKind;
use rayon::prelude::*;
use std::time::Instant;

/// Applies `op` to every element of the frontier in parallel.
pub fn for_each<F>(input: &Frontier, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    if input.len() < SEQUENTIAL_CUTOFF {
        for v in input {
            op(v);
        }
    } else {
        input.as_slice().par_iter().for_each(|&v| op(v));
    }
}

/// Applies `op` to every id in `0..n` (an implicit full frontier, e.g.
/// PageRank initialization) in parallel.
pub fn for_each_id<F>(n: usize, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    if n < SEQUENTIAL_CUTOFF {
        for v in 0..n as u32 {
            op(v);
        }
    } else {
        (0..n as u32).into_par_iter().for_each(op);
    }
}

/// [`for_each`] as an operator step: panic-isolated, and recorded on the
/// context's stats sink (when one is installed) as a compute `StepRecord`
/// whose strategy is `step`, so a primitive made of several compute
/// passes shows which pass the time went to. Edges the pass reports
/// through `ctx.counters` are credited to its record.
pub fn for_each_ctx<F>(ctx: &Context<'_>, step: &'static str, input: &Frontier, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    compute_step(ctx, step, input.len(), || for_each(input, op));
}

/// [`for_each_id`] as an operator step (see [`for_each_ctx`]): a compute
/// pass over the implicit full frontier `0..n`, with nothing materialized.
pub fn for_each_id_ctx<F>(ctx: &Context<'_>, step: &'static str, n: usize, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    compute_step(ctx, step, n, || for_each_id(n, op));
}

fn compute_step(ctx: &Context<'_>, step: &'static str, len: usize, body: impl FnOnce()) {
    // Kernel-launch boundary for the racecheck phase ledger.
    gunrock_engine::racecheck::begin_phase();
    let timer = ctx.sink().map(|_| (Instant::now(), ctx.counters.edges()));
    let result = isolated(ctx, "compute", || {
        if let Some(inj) = ctx.injector() {
            inj.maybe_panic("compute");
        }
        body();
    });
    if result.is_none() {
        return;
    }
    if let (Some((start, edges0)), Some(sink)) = (timer, ctx.sink()) {
        sink.record_step(
            OperatorKind::Compute,
            step,
            None,
            len as u64,
            len as u64,
            ctx.counters.edges() - edges0,
            start.elapsed(),
        );
    }
}

/// Parallel map over a frontier collecting results (used by primitives
/// that derive per-element values, e.g. priorities for the near-far
/// split).
pub fn map<T, F>(input: &Frontier, op: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Send + Sync,
{
    if input.len() < SEQUENTIAL_CUTOFF {
        input.as_slice().iter().map(|&v| op(v)).collect()
    } else {
        input.as_slice().par_iter().map(|&v| op(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn for_each_touches_every_element_small_and_large() {
        for n in [100u32, 50_000] {
            let acc = AtomicU64::new(0);
            let f = Frontier::from_vec((0..n).collect());
            for_each(&f, |v| {
                acc.fetch_add(v as u64, Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
        }
    }

    #[test]
    fn for_each_id_covers_range() {
        let acc = AtomicU64::new(0);
        for_each_id(10_000, |_| {
            acc.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn instrumented_passes_record_their_step_name_and_credited_edges() {
        let g = gunrock_graph::GraphBuilder::new()
            .build(gunrock_graph::Coo::from_edges(8, &[(0, 1)]));
        let ctx = Context::new(&g).with_stats();
        for_each_id_ctx(&ctx, "test:ids", 7, |_| ctx.counters.add_edges(2));
        for_each_ctx(&ctx, "test:list", &Frontier::from_vec(vec![3, 1]), |_| {});
        let steps = ctx.run_stats().steps;
        let seen: Vec<_> =
            steps.iter().map(|s| (s.strategy, s.input_len, s.edges_examined)).collect();
        assert_eq!(seen, [("test:ids", 7, 14), ("test:list", 2, 0)]);
        assert!(steps.iter().all(|s| s.operator == OperatorKind::Compute));
    }

    #[test]
    fn map_preserves_order() {
        let f = Frontier::from_vec(vec![3, 1, 2]);
        assert_eq!(map(&f, |v| v * 10), vec![30, 10, 20]);
        let big = Frontier::from_vec((0..20_000).collect());
        let mapped = map(&big, |v| v + 1);
        assert!(mapped.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }
}
