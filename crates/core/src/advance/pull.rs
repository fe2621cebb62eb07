//! Pull-direction advance (§4.1.1).
//!
//! "Gunrock internally converts the current frontier into a bitmap of
//! vertices, generates a new frontier of all unvisited nodes, then uses
//! an advance step to 'pull' the computation from these nodes'
//! predecessors if they are valid in the bitmap."
//!
//! Each *unvisited* candidate scans its in-neighbors until one is found
//! in the current-frontier bitmap and the functor accepts the edge; the
//! early exit is what saves edge visits once the frontier dwarfs the
//! unvisited set (Beamer et al.). Note the functor sees edge ids of the
//! *reverse* graph (weights transpose along, so weight lookups stay
//! correct).
//!
//! The operator is the masked word sweep [`advance_pull_sweep`]
//! (GraphBLAST's masked-SpMV view): candidates and output are
//! word-addressable [`PooledBitmap`]s, empty mask words are skipped 64
//! bits at a time with `trailing_zeros` iteration inside non-empty ones,
//! and discovered candidates are *cleared from the candidate bitmap in
//! place* — the unvisited set maintains itself incrementally, no O(n)
//! re-prune between iterations. Per-task word ranges are disjoint, so
//! the sweep mutates its bitmaps without a single atomic RMW.

use crate::context::Context;
use crate::functor::AdvanceFunctor;
use crate::isolate::{launch, AbortPoll, Op, Report};
use crate::util::grain_size;
use gunrock_engine::bitmap::{BitSet, PooledBitmap};
use gunrock_engine::config::SEQUENTIAL_CUTOFF;
use gunrock_engine::frontier::Frontier;
use gunrock_engine::par;
use gunrock_engine::stats::StepDirection;
use gunrock_graph::EdgeId;

/// Builds the frontier-membership bitmap for a pull step. Word storage
/// comes from the context's buffer pool (release it back with
/// [`PooledBitmap::release`] when the pull phase ends), so steady-state
/// direction switches perform no heap allocation and the pool counters
/// cover bitmap traffic.
pub fn frontier_bitmap(ctx: &Context<'_>, frontier: &Frontier) -> PooledBitmap {
    let mut bm = PooledBitmap::take(ctx.pool(), ctx.num_vertices());
    if frontier.len() < SEQUENTIAL_CUTOFF {
        bm.fill_from_frontier(frontier);
    } else {
        // CAST: vertex ids are u32 widened to usize for bitmap indexing — lossless.
        let items = frontier.as_slice();
        let set = |c: &[u32]| c.iter().for_each(|&v| bm.set(v as usize));
        par::for_each(items.chunks(grain_size(items.len())), set);
    }
    bm
}

/// The masked word sweep: one pull-direction advance where candidates,
/// current frontier, and output are all dense bitmaps.
///
/// For every non-zero word of `candidates` (zero words — fully visited
/// neighborhoods — are skipped wholesale), each set bit `v` scans its
/// in-neighbors against `in_frontier`; the first accepted edge sets `v`
/// in `out` and *clears it from `candidates`*, so the caller's unvisited
/// set shrinks incrementally with zero bookkeeping. Word ranges are
/// partitioned disjointly across tasks and `out` shares the partition
/// (bit `v` lives at the same word index in both bitmaps), so all bitmap
/// writes are plain stores.
///
/// `out` must be cleared on entry. Returns the number of vertices
/// discovered. All three bitmaps must span `ctx.num_vertices()` bits.
pub fn advance_pull_sweep<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    candidates: &mut PooledBitmap,
    in_frontier: &PooledBitmap,
    out: &mut PooledBitmap,
    functor: &F,
) -> u64 {
    let n = ctx.num_vertices();
    assert_eq!(candidates.len(), n, "candidate bitmap must span the graph");
    assert_eq!(in_frontier.len(), n, "frontier bitmap must span the graph");
    assert_eq!(out.len(), n, "output bitmap must span the graph");
    // the body owns the candidate bitmap's borrow and hands it back
    // shared, for the record's count
    let body = move || {
        let candidates = candidates;
        let rev = ctx.reverse_graph();
        let cols = rev.col_indices();
        let nw = candidates.word_count();
        let wgrain = grain_size(nw);
        let tasks =
            candidates.words_mut().chunks_mut(wgrain).zip(out.words_mut().chunks_mut(wgrain));
        let (discovered, edges) = par::map_reduce(
            tasks.enumerate(),
            (0, 0),
            |(ci, (cand_words, out_words))| {
                let mut found = 0u64;
                let mut edges = 0u64;
                // a raised cancel/deadline truncates this chunk, or skips
                // it when raised before the chunk starts
                let Some(mut poll) = AbortPoll::start(ctx) else { return (found, edges) };
                'sweep: for (i, (cw, ow)) in
                    cand_words.iter_mut().zip(out_words.iter_mut()).enumerate()
                {
                    // whole-word skip: a zero mask word is 64 vertices with
                    // nothing to pull
                    let mut bits = *cw.get_mut();
                    if bits == 0 {
                        continue;
                    }
                    let word_base = ((ci * wgrain + i) * 64) as u64;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as u64;
                        bits &= bits - 1;
                        // CAST: word_base + b < num_vertices < u32::MAX by Csr::validate
                        // (candidate bitmaps mask their tail bits to zero).
                        let v = (word_base + b) as u32;
                        for e in rev.edge_range(v) {
                            edges += 1;
                            let u = cols[e];
                            // CAST: u widens u32 -> usize; e < num_edges < EdgeId::MAX by Csr::validate.
                            if in_frontier.get(u as usize)
                                && functor.cond_edge(u, v, e as EdgeId)
                            {
                                functor.apply_edge(u, v, e as EdgeId);
                                let mask = 1u64 << b;
                                *ow.get_mut() |= mask;
                                *cw.get_mut() &= !mask;
                                found += 1;
                                break; // one valid predecessor suffices
                            }
                        }
                        if poll.stop(edges) {
                            break 'sweep;
                        }
                    }
                }
                (found, edges)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        ctx.counters.add_edges(edges);
        (discovered, &*candidates)
    };
    // the sweep clears what it discovers: the candidates it started from
    // are those left plus those found
    let report = |&(discovered, left): &(u64, &PooledBitmap)| Report {
        candidates: left.count_ones() as u64 + discovered,
        ..Report::new(
            "pull_sweep",
            Some(StepDirection::Pull),
            in_frontier.count_ones() as u64,
            discovered,
        )
    };
    launch(ctx, Op::Advance { site: "advance:pull_sweep", stall: true }, body, report)
        .map_or(0, |(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::AcceptAll;
    use gunrock_graph::{Coo, GraphBuilder};

    /// Runs one sweep from `frontier` over `candidates`, returning the
    /// discovered vertices and the candidates left behind.
    fn sweep(
        ctx: &Context<'_>,
        frontier: &[u32],
        candidates: &[u32],
    ) -> (Vec<usize>, Vec<usize>) {
        let n = ctx.num_vertices();
        let in_frontier = frontier_bitmap(ctx, &Frontier::from_vec(frontier.to_vec()));
        let mut cand = PooledBitmap::take(ctx.pool(), n);
        cand.fill_from_frontier(&Frontier::from_vec(candidates.to_vec()));
        let mut out = PooledBitmap::take(ctx.pool(), n);
        let discovered = advance_pull_sweep(ctx, &mut cand, &in_frontier, &mut out, &AcceptAll);
        let found: Vec<usize> = out.iter_ones().collect();
        assert_eq!(discovered, found.len() as u64);
        (found, cand.iter_ones().collect())
    }

    #[test]
    fn pull_discovers_exactly_the_next_bfs_level() {
        // path 0 - 1 - 2 - 3 (undirected); frontier {1}, 0 already visited
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let ctx = Context::new(&g).with_reverse(&g);
        let (found, left) = sweep(&ctx, &[1], &[2, 3]);
        assert_eq!(found, vec![2]);
        assert_eq!(left, vec![3]);
    }

    #[test]
    fn pull_early_exit_limits_edges_examined() {
        // hub 0 connected to everything; frontier = {0}; all others pull
        let edges: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        let g = GraphBuilder::new().build(Coo::from_edges(100, &edges));
        let ctx = Context::new(&g).with_reverse(&g);
        let candidates: Vec<u32> = (1..100).collect();
        let (found, left) = sweep(&ctx, &[0], &candidates);
        assert_eq!(found.len(), 99);
        assert!(!found.contains(&0));
        // discovered candidates were cleared in place — incremental
        // maintenance, no re-prune pass
        assert!(left.is_empty());
        // each candidate's in-list starts with the hub: one edge each
        assert_eq!(ctx.counters.edges(), 99);
    }

    #[test]
    fn sweep_skips_vertices_with_no_frontier_predecessor() {
        // two disconnected edges: 0-1, 2-3; frontier = {0}
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (2, 3)]));
        let ctx = Context::new(&g).with_reverse(&g);
        let (found, left) = sweep(&ctx, &[0], &[1, 2, 3]);
        assert_eq!(found, vec![1]);
        // non-discovered candidates stay in the candidate set
        assert_eq!(left, vec![2, 3]);
    }

    #[test]
    fn sweep_matches_list_pull_and_maintains_candidates() {
        // directed, so in- and out-lists differ: a ring 0 -> 1 -> ... -> 199
        // -> 0 plus chords v -> 3v mod 200
        let n = 200u32;
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (3 * v) % n)]).collect();
        let g = GraphBuilder::new().directed().build(Coo::from_edges(n as usize, &edges));
        let rev = g.transpose();
        let ctx = Context::new(&g).with_reverse(&rev);
        let frontier: Vec<u32> = (0..n).filter(|v| v % 7 == 0).collect();
        let candidates: Vec<u32> = (0..n).filter(|v| v % 7 != 0).collect();
        // the list form of pull, serially: a candidate is discovered iff
        // one of its in-neighbors is in the frontier
        let list: Vec<usize> = candidates
            .iter()
            .filter(|&&v| rev.neighbors(v).iter().any(|u| u % 7 == 0))
            .map(|&v| v as usize)
            .collect();
        let (found, left) = sweep(&ctx, &frontier, &candidates);
        assert!(!found.is_empty() && found.len() < candidates.len());
        assert_eq!(found, list);
        // discovered candidates were cleared in place; the rest stay
        let expected_left: Vec<usize> =
            candidates.iter().map(|&v| v as usize).filter(|v| !list.contains(v)).collect();
        assert_eq!(left, expected_left);
    }

    #[test]
    fn candidates_with_no_frontier_neighbor_stay_out() {
        // directed 0 -> 1 and 2 -> 0: vertex 2 has the frontier vertex 0
        // as an out-neighbor only, so pulling over in-edges leaves it out
        let g = GraphBuilder::new().directed().build(Coo::from_edges(3, &[(0, 1), (2, 0)]));
        let rev = g.transpose();
        let ctx = Context::new(&g).with_reverse(&rev);
        let (found, left) = sweep(&ctx, &[0], &[1, 2]);
        assert_eq!(found, vec![1]);
        assert_eq!(left, vec![2]);
    }

    #[test]
    fn raised_cancel_flag_truncates_the_word_sweep() {
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
        let in_frontier = frontier_bitmap(&ctx, &Frontier::single(0));
        let all_candidates = Frontier::from_vec((1..n).collect());
        let mut candidates = PooledBitmap::take(ctx.pool(), n as usize);
        candidates.fill_from_frontier(&all_candidates);
        let mut out = PooledBitmap::take(ctx.pool(), n as usize);
        let full =
            advance_pull_sweep(&ctx, &mut candidates, &in_frontier, &mut out, &AcceptAll);
        assert_eq!(full, (n - 1) as u64);
        // reset state, raise the flag: chunks bail at their entry poll
        candidates.clear_all();
        candidates.fill_from_frontier(&all_candidates);
        out.clear_all();
        flag.store(true, Ordering::Release);
        let truncated =
            advance_pull_sweep(&ctx, &mut candidates, &in_frontier, &mut out, &AcceptAll);
        assert!(
            truncated < full,
            "cancel mid-operator must truncate: got {truncated} of {full}"
        );
        assert!(!ctx.is_poisoned(), "cooperative abort is not a failure");
    }

    #[test]
    fn bitmap_reflects_frontier_membership() {
        let g = GraphBuilder::new().build(Coo::from_edges(10, &[(0, 1)]));
        let ctx = Context::new(&g);
        let bm = frontier_bitmap(&ctx, &Frontier::from_vec(vec![1, 7]));
        assert!(bm.get(1) && bm.get(7));
        assert!(!bm.get(0) && !bm.get(9));
        // storage came from (and returns to) the context's pool
        assert_eq!(ctx.pool().stats().checkouts, 1);
        bm.release(ctx.pool());
        assert_eq!(ctx.pool().stats().releases, 1);
    }
}
