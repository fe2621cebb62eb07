//! Pull-direction advance (§4.1.1).
//!
//! "Gunrock internally converts the current frontier into a bitmap of
//! vertices, generates a new frontier of all unvisited nodes, then uses
//! an advance step to 'pull' the computation from these nodes'
//! predecessors if they are valid in the bitmap."
//!
//! The pull is a gather ([`super::gather`]) over the clear bits of a
//! bitmap (GraphBLAST's masked SpMV with a structural-complement mask):
//! each unvisited vertex scans its in-neighbors and its fold stops at the
//! first one that qualifies — Beamer's early exit, which saves edge
//! visits once the frontier dwarfs the unvisited set. BFS runs its pull
//! levels as that gather directly; [`advance_pull_sweep`] is the same
//! gather behind the bitmap-in, bitmap-out interface of an advance
//! functor. The functor sees edge ids of the *reverse* graph (weights
//! transpose along, so weight lookups stay correct).

use super::gather::{advance_gather, GatherSpec};
use crate::context::Context;
use crate::functor::AdvanceFunctor;
use gunrock_engine::atomics::Shared;
use gunrock_engine::bitmap::PooledBitmap;
use gunrock_engine::frontier::Frontier;
use std::ops::ControlFlow::{Break, Continue};

/// Builds the membership bitmap of `frontier`. Word storage comes from
/// the context's buffer pool (release it back with
/// [`PooledBitmap::release`]), so repeated builds allocate nothing and
/// the pool counters cover bitmap traffic.
pub fn frontier_bitmap(ctx: &Context<'_>, frontier: &Frontier) -> PooledBitmap {
    let mut bm = PooledBitmap::take(ctx.pool(), ctx.num_vertices());
    bm.fill_from_frontier(frontier);
    bm
}

/// One pull-direction advance where candidates, current frontier and
/// output are dense bitmaps.
///
/// Each set bit `v` of `candidates` scans its in-neighbors against
/// `in_frontier`; the first edge the functor accepts is applied, sets
/// `v` in `out` and *clears it from `candidates`*, so the caller's
/// unvisited set shrinks in place. The scan is one
/// [`GatherSpec::unset`] gather over the candidates' complement (its
/// step record and fault sites are the gather's).
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
    // a denied checkout poisoned the context: nothing is discovered
    let Some(mut found) = ctx.isolated_setup("setup", || ctx.pool().take_u32(n)) else {
        return 0;
    };
    // the gather visits clear bits: flip the candidates for the call, and
    // back after (bits past `n` flip twice; the gather never visits them)
    let flip = |bits: &mut PooledBitmap| {
        bits.words_mut().iter_mut().for_each(|w| *w.get_mut() = !*w.get_mut());
    };
    flip(candidates);
    // ALLOC-OK(zero-sized slots: a Vec of units holds no heap storage)
    let mut slots = vec![(); n];
    // the first in-neighbor in the frontier whose edge the functor accepts
    // CAST: vertex ids widen u32 -> usize for indexing — lossless.
    let hit = |u: u32, v, e| in_frontier.get(u as usize) && functor.cond_edge(Shared, u, v, e);
    advance_gather(
        ctx,
        GatherSpec::unset(candidates),
        &mut slots,
        Some(&mut found),
        |_| true,
        None,
        |u, v, e| hit(u, v, e).then_some((u, e)),
        |a, b| if b.is_some() { Break(b) } else { Continue(a) },
        |v, hit, _| hit.map(|(u, e)| functor.apply_edge(Shared, u, v, e)).is_some(),
    );
    // a discovered vertex joins `out` and, set in the flipped candidates,
    // leaves them
    let found = Frontier::from_vec(found);
    out.fill_from_frontier(&found);
    candidates.fill_from_frontier(&found);
    flip(candidates);
    let discovered = found.len() as u64;
    ctx.recycle(found);
    discovered
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
