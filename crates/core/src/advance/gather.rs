//! Dense gather advance — the neighborhood gather-reduce operator the
//! paper names as future work (§7): "we believe a new gather-reduce
//! operator on neighborhoods associated with vertices in the current
//! frontier both fits nicely into Gunrock's abstraction and will
//! significantly improve performance on this operation."
//!
//! A push advance that accumulates into its destinations needs one
//! atomic per edge. The gather turns the loop around: every vertex of a
//! range owns its output slot and reduces a per-source value over its
//! **in**-edges (the reverse graph's neighbor list), so all writes are
//! plain stores into disjoint slots — GraphBLAST's row-gather SpMV
//! (PAPERS.md). A sweep always scans every in-edge of the range, so it
//! pays off only while the frontier's out-edge volume is a sizeable
//! share of `m`; [`super::policy::prefer_gather`] is the switch.
//!
//! The per-vertex reduction order is the in-edge list order, whatever
//! the thread count: results are bit-identical across pools.

use super::push::INVALID_SLOT;
use crate::context::Context;
use crate::isolate::isolated;
use crate::util::grain_size;
use gunrock_engine::stats::{OperatorKind, StepDirection};
use gunrock_graph::{Csr, EdgeId, VertexId};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Edge-scan interval between cooperative abort polls inside one chunk,
/// the cadence of the other pull-direction operators.
const ABORT_POLL_EDGES: u64 = 4096;

/// Runs one dense gather over the vertices of `range`.
///
/// For each vertex `v`, folds `map(u, v, e)` over its in-edges `(u, v)`
/// with `reduce`, starting from `init` (`e` is the edge id in the
/// *reverse* graph, as in the pull advance), then hands the result to
/// `finish(v, reduced, slot)`, which updates the vertex's slot
/// `out[v - range.start]` and decides whether `v` joins the next
/// frontier. `next` is overwritten with the admitted vertices in
/// ascending order; its capacity is reused, so a caller that ping-pongs
/// two buffers allocates nothing in steady state.
///
/// The operator's input is the vertex range itself — which sources carry
/// a value is the caller's business (`map` returns the identity for the
/// rest) — so the step record reports the vertices swept as `input_len`.
///
/// Like every operator the step runs panic-isolated (site
/// `advance:gather`): a panic poisons the context and leaves `next`
/// empty. A raised cancel flag or passed deadline truncates the sweep
/// unless a checkpoint policy is active: `finish` has then run for only
/// some vertices and `next` may be empty, so an enact loop that ends on
/// an empty frontier must ask its guard before reporting convergence.
///
/// Requires a reverse graph ([`Context::with_reverse`]) and
/// `out.len() == range.len()`.
#[allow(clippy::too_many_arguments)] // one value per role, as in advance_msbfs
pub fn advance_gather<T, M, R, F>(
    ctx: &Context<'_>,
    range: Range<VertexId>,
    out: &mut [T],
    next: &mut Vec<u32>,
    init: T,
    map: M,
    reduce: R,
    finish: F,
) where
    T: Copy + Send + Sync,
    M: Fn(VertexId, VertexId, EdgeId) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
    F: Fn(VertexId, T, &mut T) -> bool + Sync,
{
    let rev = ctx.reverse_graph();
    // CAST: vertex ids widen u32 -> usize for indexing — lossless.
    let (lo, hi) = (range.start as usize, range.end as usize);
    assert!(lo <= hi && hi <= rev.num_vertices(), "gather range must lie inside the graph");
    assert_eq!(out.len(), hi - lo, "one output slot per vertex of the range");
    next.clear();
    if lo == hi {
        return;
    }
    // Kernel-launch boundary for the racecheck phase ledger.
    gunrock_engine::racecheck::begin_phase();
    let timer = ctx.sink().map(|_| (Instant::now(), ctx.counters.edges()));
    let offsets = rev.row_offsets();
    // CAST: EdgeId -> usize widens; the range's in-edge count, O(1) from the CSR.
    let work = (offsets[hi] - offsets[lo]) as usize;
    let t = ctx.config.serial_threshold;
    let serial = t > 0 && hi - lo <= t && work <= t;
    next.resize(hi - lo, INVALID_SLOT);
    let sweep = |first: VertexId, slots: &mut [T], ids: &mut [u32]| {
        sweep_chunk(ctx, rev, first, slots, ids, init, &map, &reduce, &finish)
    };
    let result = isolated(ctx, "advance", || {
        if let Some(inj) = ctx.injector() {
            inj.maybe_panic("advance:gather");
        }
        let edges = if serial {
            sweep(range.start, out, next)
        } else {
            let grain = grain_size(hi - lo);
            out.par_chunks_mut(grain)
                .zip(next.par_chunks_mut(grain))
                .enumerate()
                // CAST: ci * grain < range.len() <= u32::MAX.
                .map(|(ci, (slots, ids))| sweep(range.start + (ci * grain) as u32, slots, ids))
                .sum()
        };
        ctx.counters.add_edges(edges);
    });
    if result.is_none() {
        next.clear();
        return;
    }
    // each chunk filled a prefix of its own window; closing the gaps
    // keeps the ids ascending
    next.retain(|&v| v != INVALID_SLOT);
    if let (Some((start, edges0)), Some(sink)) = (timer, ctx.sink()) {
        sink.record_step(
            OperatorKind::Advance,
            if serial { "pull_gather:serial" } else { "pull_gather" },
            Some(StepDirection::Pull),
            (hi - lo) as u64,
            next.len() as u64,
            ctx.counters.edges() - edges0,
            start.elapsed(),
        );
    }
}

/// Gathers the vertices `first..first + slots.len()`, writing the
/// admitted ones to the front of `ids`. Returns the in-edges scanned.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_chunk<T, M, R, F>(
    ctx: &Context<'_>,
    rev: &Csr,
    first: VertexId,
    slots: &mut [T],
    ids: &mut [u32],
    init: T,
    map: &M,
    reduce: &R,
    finish: &F,
) -> u64
where
    T: Copy,
    M: Fn(VertexId, VertexId, EdgeId) -> T,
    R: Fn(T, T) -> T,
    F: Fn(VertexId, T, &mut T) -> bool,
{
    let cols = rev.col_indices();
    let mut edges = 0u64;
    if ctx.abort_mid_operator() {
        return edges;
    }
    let mut next_poll = ABORT_POLL_EDGES;
    let mut admitted = 0usize;
    for (v, slot) in (first..).zip(slots.iter_mut()) {
        let in_edges = rev.edge_range(v);
        let mut acc = init;
        for (e, &u) in in_edges.clone().zip(&cols[in_edges.clone()]) {
            // CAST: e < num_edges < EdgeId::MAX by Csr::validate.
            acc = reduce(acc, map(u, v, e as EdgeId));
        }
        edges += in_edges.len() as u64;
        if finish(v, acc, slot) {
            ids[admitted] = v;
            admitted += 1;
        }
        if edges >= next_poll {
            next_poll = edges + ABORT_POLL_EDGES;
            if ctx.abort_mid_operator() {
                break;
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::EngineConfig;
    use gunrock_graph::{Coo, GraphBuilder};

    /// Directed weighted star: 0 -> {1, 2, 3}, 4 -> 0.
    fn weighted_star() -> (Csr, Csr) {
        let g = GraphBuilder::new().directed().build(Coo::from_weighted_edges(
            5,
            &[(0, 1, 10), (0, 2, 20), (0, 3, 5), (4, 0, 7)],
        ));
        let rev = g.transpose();
        (g, rev)
    }

    #[test]
    fn sums_in_edge_weights_with_plain_stores() {
        let (g, rev) = weighted_star();
        let ctx = Context::new(&g).with_reverse(&rev);
        let mut sums = vec![0u32; 5];
        let mut next = Vec::new();
        advance_gather(
            &ctx,
            0..5,
            &mut sums,
            &mut next,
            0u32,
            |_u, _v, e| rev.weight(e),
            |a, b| a + b,
            |_v, sum, slot| {
                *slot = sum;
                sum >= 10
            },
        );
        assert_eq!(sums, vec![7, 10, 20, 5, 0]);
        assert_eq!(next, vec![1, 2], "admitted vertices come back ascending");
        assert_eq!(ctx.counters.edges(), 4);
    }

    #[test]
    fn sub_range_touches_only_its_slots() {
        let (g, rev) = weighted_star();
        let ctx = Context::new(&g).with_reverse(&rev);
        let mut mins = vec![u32::MAX; 2];
        let mut next = vec![9, 9, 9];
        advance_gather(
            &ctx,
            2..4,
            &mut mins,
            &mut next,
            u32::MAX,
            |u, _v, _e| u,
            |a, b| a.min(b),
            |_v, min, slot| {
                *slot = min;
                false
            },
        );
        assert_eq!(mins, vec![0, 0], "vertices 2 and 3 both hang off the hub");
        assert!(next.is_empty(), "stale contents are overwritten");
        assert_eq!(ctx.counters.edges(), 2);
    }

    #[test]
    fn chunked_sweep_matches_the_serial_fast_path() {
        use gunrock_graph::generators::rmat;
        let g = GraphBuilder::new().build(rmat(9, 8, Default::default(), 3));
        let n = g.num_vertices();
        let run = |config: EngineConfig| {
            let ctx = Context::new(&g).with_reverse(&g).with_config(config).with_stats();
            let mut sums = vec![0u64; n];
            let mut next = Vec::new();
            advance_gather(
                &ctx,
                0..n as u32,
                &mut sums,
                &mut next,
                0u64,
                |u, _v, _e| u64::from(u),
                |a, b| a + b,
                |v, sum, slot| {
                    *slot = sum;
                    v % 3 == 0
                },
            );
            (sums, next, ctx.run_stats().steps[0].strategy)
        };
        let (chunked, chunked_next, strategy) =
            run(EngineConfig::new().with_serial_threshold(0));
        assert_eq!(strategy, "pull_gather");
        let (serial, serial_next, strategy) =
            run(EngineConfig::new().with_serial_threshold(1 << 20));
        assert_eq!(strategy, "pull_gather:serial");
        assert_eq!(chunked, serial);
        assert_eq!(chunked_next, serial_next);
        assert_eq!(chunked_next, (0..n as u32).filter(|v| v % 3 == 0).collect::<Vec<_>>());
        for (v, &sum) in chunked.iter().enumerate() {
            let want: u64 = g.neighbors(v as u32).iter().map(|&u| u64::from(u)).sum();
            assert_eq!(sum, want, "vertex {v}");
        }
    }

    #[test]
    fn injected_panic_poisons_and_admits_nothing() {
        use gunrock_engine::faults::{FaultInjector, FaultKind, FaultPlan};
        use std::sync::Arc;
        let (g, rev) = weighted_star();
        let plan = FaultPlan::none(3).with_rate(FaultKind::Panic, 1.0);
        let ctx =
            Context::new(&g).with_reverse(&rev).with_faults(Arc::new(FaultInjector::new(plan)));
        let mut out = vec![0u32; 5];
        let mut next = Vec::new();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        advance_gather(
            &ctx,
            0..5,
            &mut out,
            &mut next,
            0,
            |_, _, _| 1,
            |a, b| a + b,
            |_, _, _| true,
        );
        std::panic::set_hook(prev);
        assert!(next.is_empty());
        assert!(ctx.is_poisoned());
    }

    #[test]
    fn raised_cancel_flag_truncates_the_sweep() {
        use crate::policy::RunPolicy;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let n: u32 = 50_000;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = GraphBuilder::new().build(Coo::from_edges(n as usize, &edges));
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = Context::new(&g)
            .with_reverse(&g)
            .with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
        let mut out = vec![0u32; n as usize];
        let mut next = Vec::new();
        let mut run = |ctx: &Context<'_>| {
            advance_gather(
                ctx,
                0..n,
                &mut out,
                &mut next,
                0u32,
                |_, _, _| 1,
                |a, b| a + b,
                |_, _, _| true,
            );
            next.len()
        };
        assert_eq!(run(&ctx), n as usize);
        flag.store(true, Ordering::Release);
        assert!(run(&ctx) < n as usize, "cancel mid-operator must truncate");
        assert!(!ctx.is_poisoned(), "cooperative abort is not a failure");
    }
}
