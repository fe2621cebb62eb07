//! The **filter** operator (§4.1): "generates a new frontier from the
//! current frontier by choosing a subset of the current frontier based on
//! programmer-specified criteria."
//!
//! Two implementations, as in Gunrock:
//!
//! * [`filter`] — the exact scan-compact filter: order-preserving, no
//!   duplicates survive if the predicate is a uniqueness test.
//! * [`culling`] — the heuristic filter used with *idempotent* advance:
//!   cheap hash/bitmask culling passes that remove most (here: all
//!   already-visited, most intra-frontier) redundant entries without
//!   atomics on the algorithm's data.

pub mod culling;

use crate::context::Context;
use crate::functor::FilterFunctor;
use crate::isolate::{launch, Op, Report};
use gunrock_engine::compact::{compact_indices_into, compact_range_into};
use gunrock_engine::config::FRONTIER_SEQ_CUTOFF;
use gunrock_engine::frontier::Frontier;
use gunrock_engine::par;

/// Exact filter: keeps frontier elements whose `cond` holds, running
/// `apply` on survivors (fused), preserving order via scan-compact.
/// Launches through the operator frame (fault site `filter`): a functor
/// panic poisons the context and returns an empty frontier.
pub fn filter<F: FilterFunctor>(ctx: &Context<'_>, input: &Frontier, functor: &F) -> Frontier {
    filter_step(ctx, "filter", "scan_compact", input.len(), || {
        let items = input.as_slice();
        let mut out = ctx.pool().take_u32(items.len());
        if items.len() < FRONTIER_SEQ_CUTOFF || par::threads() == 1 {
            // small-frontier path (also taken whenever the pool has a
            // single worker thread): one serial pass, zero allocations
            // in the steady state of high-diameter enact loops (the
            // filter half of the serial fast path).
            for &id in items {
                if functor.cond(id) {
                    functor.apply(id);
                    out.push(id);
                }
            }
        } else {
            let keep = |&id: &u32| {
                let kept = functor.cond(id);
                if kept {
                    functor.apply(id);
                }
                kept
            };
            compact_indices_into(items, keep, &mut out);
            // the kept positions become the kept ids, in place
            // CAST: a kept position indexes `items`; widening u32 -> usize.
            out.iter_mut().for_each(|i| *i = items[*i as usize]);
        }
        out
    })
}

/// [`filter`] over the implicit full frontier `0..n`, with nothing
/// materialized on the input side: survivors come out ascending in a
/// pooled buffer (recycle it when done), and the `StepRecord` carries
/// `step` as its strategy. `cond` runs exactly once per id.
pub fn filter_ids<F: FilterFunctor>(
    ctx: &Context<'_>,
    step: &'static str,
    n: usize,
    functor: &F,
) -> Frontier {
    filter_step(ctx, "filter", step, n, || {
        let mut out = ctx.pool().take_u32(n);
        let keep = |id| {
            let kept = functor.cond(id);
            if kept {
                functor.apply(id);
            }
            kept
        };
        compact_range_into(n, keep, &mut out);
        out
    })
}

/// Every filter's launch: through the operator frame with fault site
/// `site` over `input_len` elements, recorded with `step` as its
/// strategy. `body` produces the survivors; a failed launch returns an
/// empty frontier.
fn filter_step(
    ctx: &Context<'_>,
    site: &'static str,
    step: &'static str,
    input_len: usize,
    body: impl FnOnce() -> Vec<u32>,
) -> Frontier {
    let input = input_len as u64;
    let report = |kept: &Vec<u32>| Report::new(step, None, input, kept.len() as u64);
    launch(ctx, Op::Filter { site, input }, body, report)
        .map_or_else(Frontier::new, Frontier::from_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::VertexCond;
    use gunrock_graph::{Coo, GraphBuilder};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn keeps_matching_in_order() {
        let g = GraphBuilder::new().build(Coo::from_edges(10, &[(0, 1)]));
        let ctx = Context::new(&g);
        let input = Frontier::from_vec(vec![5, 2, 8, 3]);
        let out = filter(&ctx, &input, &VertexCond(|v: u32| v.is_multiple_of(2)));
        assert_eq!(out.as_slice(), &[2, 8]);
        assert_eq!(ctx.counters.elements_filtered.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn filter_ids_sweeps_the_vertex_range_into_a_pooled_buffer() {
        let g = GraphBuilder::new().build(Coo::from_edges(10, &[(0, 1)]));
        let ctx = Context::new(&g).with_stats();
        for n in [10usize, 50_000] {
            let out =
                filter_ids(&ctx, "test:thirds", n, &VertexCond(|v: u32| v.is_multiple_of(3)));
            assert_eq!(out.len(), n.div_ceil(3));
            assert!(out.as_slice().iter().enumerate().all(|(i, &v)| v as usize == 3 * i));
            ctx.recycle(out);
        }
        let pool = ctx.pool().stats();
        assert_eq!(pool.releases, pool.checkouts, "the output buffer is the pool's own");
        let stats = ctx.run_stats();
        assert_eq!(stats.steps[1].strategy, "test:thirds");
        assert_eq!((stats.steps[1].input_len, stats.steps[1].output_len), (50_000, 16_667));
        assert_eq!(ctx.counters.elements_filtered.load(Ordering::Relaxed), 50_010);
    }

    #[test]
    fn apply_runs_only_on_survivors() {
        struct Probe {
            applied: AtomicU32,
        }
        impl crate::functor::FilterFunctor for Probe {
            fn cond(&self, id: u32) -> bool {
                id < 100
            }
            fn apply(&self, _: u32) {
                self.applied.fetch_add(1, Ordering::Relaxed);
            }
        }
        let g = GraphBuilder::new().build(Coo::from_edges(2, &[(0, 1)]));
        let ctx = Context::new(&g);
        let probe = Probe { applied: AtomicU32::new(0) };
        let out = filter(&ctx, &Frontier::from_vec(vec![1, 200, 3]), &probe);
        assert_eq!(out.len(), 2);
        assert_eq!(probe.applied.load(Ordering::Relaxed), 2);
    }
}
