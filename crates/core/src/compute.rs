//! The **compute** operator (§4.1): "a programmer-specified computation
//! step defines an operation on all elements in the current frontier;
//! Gunrock then performs that operation in parallel across all elements."
//!
//! Standalone compute exists for primitives that are regular passes
//! (CC's hooks, k-core's peels, MST's rounds), for the *unfused*
//! ablation path, and, through [`step`], for any parallel pass of a
//! primitive's iteration — in the traversal primitives the computation
//! is fused into advance/filter via the functor API (§4.3). Every pass
//! launches through the operator frame, so it is isolated, heartbeated
//! and recorded like an advance or a filter.

use crate::context::Context;
use crate::isolate::{launch, Op, Report};
use gunrock_engine::config::{grain_size, id_blocks};
use gunrock_engine::frontier::Frontier;
use gunrock_engine::par;

/// Applies `op` to every element of the frontier in parallel.
fn for_each<F>(input: &Frontier, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    let items = input.as_slice();
    par::for_each(items.chunks(grain_size(items.len())), |c| c.iter().for_each(|&v| op(v)));
}

/// Applies `op` to every id in `0..n` (an implicit full frontier) in
/// parallel, unframed: for a pass that already runs inside a [`step`].
pub fn for_each_id<F>(n: usize, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    par::for_each(id_blocks(n), |ids| ids.for_each(&op));
}

/// Applies `op` to every element of `input` as one compute step: launched
/// through the operator frame (fault site `compute`) and recorded on the
/// context's stats sink, when one is installed, as a compute
/// `StepRecord` whose strategy is `step`, so a primitive made of several
/// compute passes shows which pass the time went to. Edges the pass
/// reports through `ctx.counters` are credited to its record.
pub fn for_each_ctx<F>(ctx: &Context<'_>, step: &'static str, input: &Frontier, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    pass(ctx, Some("compute"), step, input.len(), || for_each(input, op));
}

/// [`for_each_ctx`] over the implicit full frontier `0..n`, with nothing
/// materialized.
pub fn for_each_id_ctx<F>(ctx: &Context<'_>, step: &'static str, n: usize, op: F)
where
    F: Fn(u32) + Send + Sync,
{
    pass(ctx, Some("compute"), step, n, || for_each_id(n, op));
}

/// A primitive's own parallel pass over `len` elements (a merge, a
/// collect, a pointer-jumping round) as a named compute step that returns
/// `body`'s value: launched through the operator frame and recorded like
/// [`for_each_ctx`]. It consults no fault site — the `compute` site
/// belongs to the functor passes — so framing a pass leaves seeded fault
/// schedules as they were. `None` when the context is poisoned (the body
/// did not run) or the body panicked (the context is now poisoned): the
/// run ends `Failed` at its next boundary.
pub fn step<T>(
    ctx: &Context<'_>,
    step: &'static str,
    len: usize,
    body: impl FnOnce() -> T,
) -> Option<T> {
    pass(ctx, None, step, len, body)
}

#[inline]
fn pass<T>(
    ctx: &Context<'_>,
    site: Option<&'static str>,
    step: &'static str,
    len: usize,
    body: impl FnOnce() -> T,
) -> Option<T> {
    let len = len as u64;
    launch(ctx, Op::Compute { site }, body, |_| Report::new(step, None, len, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::stats::OperatorKind;
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
    fn a_step_returns_its_value_and_skips_a_poisoned_context() {
        let g = gunrock_graph::GraphBuilder::new()
            .build(gunrock_graph::Coo::from_edges(8, &[(0, 1)]));
        let ctx = Context::new(&g).with_stats();
        assert_eq!(step(&ctx, "test:sum", 4, || 1 + 2), Some(3));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed: Option<u32> = step(&ctx, "test:panic", 4, || panic!("pass bug"));
        std::panic::set_hook(prev);
        assert_eq!(failed, None);
        assert!(ctx.is_poisoned());
        assert_eq!(step(&ctx, "test:after", 4, || 7), None, "a poisoned run runs no pass");
        let steps = ctx.run_stats().steps;
        let seen: Vec<_> = steps.iter().map(|s| (s.strategy, s.input_len)).collect();
        assert_eq!(seen, [("test:sum", 4)], "only a pass that finished is recorded");
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
}
