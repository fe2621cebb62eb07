//! Heuristic duplicate culling for idempotent traversal (§4.1.1, §5.1).
//!
//! With an idempotent advance (no atomics guarding discovery), the output
//! frontier contains duplicates whenever frontier vertices share
//! neighbors. "Gunrock's filter step can perform a series of inexpensive
//! heuristics to reduce, but not eliminate, redundant entries":
//!
//! * **history culling** — a small per-task hash table of recently seen
//!   ids catches bursts of duplicates cheaply and *approximately*
//!   (collisions let duplicates through);
//! * **bitmask culling** — a `test_and_set` on the global visited bitmap
//!   guarantees each vertex ultimately enters a frontier at most once.
//!
//! Both are orthogonal to the user functor, which still runs fused on the
//! survivors.

use crate::context::Context;
use crate::functor::FilterFunctor;
use crate::isolate::AbortPoll;
use crate::util::{concat_chunks, grain_size};
use gunrock_engine::bitmap::BitSet;
use gunrock_engine::config::FRONTIER_SEQ_CUTOFF;
use gunrock_engine::frontier::Frontier;
use gunrock_engine::par;

/// Which culling heuristics to run (both on by default, as in Gunrock's
/// fastest BFS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CullingConfig {
    /// Enable the per-task history hash table.
    pub history: bool,
    /// log2 of the history table size.
    pub history_bits: u32,
    /// Enable the global visited-bitmap test-and-set.
    pub bitmask: bool,
}

impl Default for CullingConfig {
    fn default() -> Self {
        CullingConfig { history: true, history_bits: 8, bitmask: true }
    }
}

impl CullingConfig {
    /// No culling at all (duplicates pass straight through to the
    /// functor) — the ablation baseline.
    pub fn none() -> Self {
        CullingConfig { history: false, history_bits: 0, bitmask: false }
    }
}

/// Marks an unoccupied history-table slot. Cannot collide with a real
/// vertex id: graph construction rejects `num_vertices >= u32::MAX`
/// (see `Csr::validate`), so every legal id is strictly smaller.
const EMPTY_SLOT: u32 = u32::MAX;

/// Runs the culling cascade (history hash, then bitmask test-and-set,
/// then the fused user functor) over `chunk`, appending survivors to
/// `out`. `history` must be `1 << cfg.history_bits` slots of
/// `EMPTY_SLOT` when `cfg.history` holds, and may be empty otherwise.
/// A raised cancel/deadline ([`AbortPoll`]) returns early; survivors so
/// far stay in `out`.
fn cull_chunk<F: FilterFunctor, B: BitSet>(
    ctx: &Context<'_>,
    chunk: &[u32],
    cfg: CullingConfig,
    history: &mut [u32],
    visited: &B,
    functor: &F,
    out: &mut Vec<u32>,
) {
    let Some(mut poll) = AbortPoll::start(ctx) else { return };
    let mask = history.len().wrapping_sub(1);
    for (done, &id) in (1..).zip(chunk) {
        if poll.stop(done) {
            return;
        }
        if cfg.history {
            // cheap multiplicative hash into the small table
            // CAST: vertex ids are u32 widened to usize — lossless.
            let slot = (id as usize).wrapping_mul(0x9E37_79B9) & mask;
            if history[slot] == id {
                continue; // recently seen: cull
            }
            history[slot] = id;
        }
        if cfg.bitmask && visited.test_and_set(id as usize) {
            continue; // already discovered: cull
        }
        if functor.cond(id) {
            functor.apply(id);
            out.push(id);
        }
    }
}

/// Heuristic filter: culls redundant ids per `cfg`, then applies the
/// user functor to survivors. `visited` is the algorithm's discovery
/// bitmap (shared with the advance step in idempotent mode).
pub fn filter_with_culling<F: FilterFunctor, B: BitSet>(
    ctx: &Context<'_>,
    input: &Frontier,
    visited: &B,
    functor: &F,
    cfg: CullingConfig,
) -> Frontier {
    super::filter_step(ctx, "filter:culling", "culling", input.len(), || {
        let items = input.as_slice();
        if items.len() < FRONTIER_SEQ_CUTOFF {
            // small-frontier path: serial cull into pooled buffers
            // (output and history table both come back from the pool),
            // so steady-state iterations allocate nothing
            let mut out = ctx.pool().take_u32(items.len());
            let mut history =
                ctx.pool().take_u32(if cfg.history { 1 << cfg.history_bits } else { 0 });
            history.resize(if cfg.history { 1 << cfg.history_bits } else { 0 }, EMPTY_SLOT);
            cull_chunk(ctx, items, cfg, &mut history, visited, functor, &mut out);
            ctx.pool().put_u32(history);
            out
        } else {
            // Large-frontier path: per-task locals sized by the split,
            // merged once. The steady-state loop of a high-diameter
            // traversal takes the pooled serial branch above instead.
            let grain = grain_size(items.len());
            let cull = |chunk: &[u32]| {
                let mut local = Vec::new(); // ALLOC-OK(per-task local on the large-frontier path)
                let mut history = if cfg.history {
                    vec![EMPTY_SLOT; 1 << cfg.history_bits] // ALLOC-OK(per-task history table, large path only)
                } else {
                    Vec::new() // ALLOC-OK(empty sentinel, no heap)
                };
                cull_chunk(ctx, chunk, cfg, &mut history, visited, functor, &mut local);
                local
            };
            let mut chunks = Vec::new(); // ALLOC-OK(one merge per large-frontier launch)
            par::collect_into(items.chunks(grain), cull, &mut chunks);
            concat_chunks(chunks)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::VertexCond;
    use gunrock_engine::bitmap::AtomicBitmap;
    use gunrock_graph::{Coo, GraphBuilder};

    fn ctx_fixture() -> (gunrock_graph::Csr,) {
        (GraphBuilder::new().build(Coo::from_edges(64, &[(0, 1)])),)
    }

    #[test]
    fn bitmask_guarantees_each_id_survives_once() {
        let (g,) = ctx_fixture();
        let ctx = Context::new(&g);
        let visited = AtomicBitmap::new(64);
        let dup_heavy = Frontier::from_vec(vec![3, 3, 5, 3, 5, 7, 3]);
        let out = filter_with_culling(
            &ctx,
            &dup_heavy,
            &visited,
            &VertexCond(|_| true),
            CullingConfig::default(),
        );
        let mut v = out.into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![3, 5, 7]);
        // a second pass culls everything: all already visited
        let again = filter_with_culling(
            &ctx,
            &Frontier::from_vec(vec![3, 5, 7]),
            &visited,
            &VertexCond(|_| true),
            CullingConfig::default(),
        );
        assert!(again.is_empty());
    }

    #[test]
    fn history_only_reduces_but_may_not_eliminate() {
        let (g,) = ctx_fixture();
        let ctx = Context::new(&g);
        let visited = AtomicBitmap::new(64);
        let cfg = CullingConfig { history: true, history_bits: 4, bitmask: false };
        // consecutive duplicates are caught by the history table
        let input = Frontier::from_vec(vec![9, 9, 9, 9, 2, 2]);
        let out = filter_with_culling(&ctx, &input, &visited, &VertexCond(|_| true), cfg);
        assert_eq!(out.len(), 2);
        // visited bitmap untouched in history-only mode
        assert_eq!(visited.count_ones(), 0);
    }

    #[test]
    fn raised_cancel_flag_truncates_the_cull() {
        use crate::policy::RunPolicy;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // large synthetic frontier (well past FRONTIER_SEQ_CUTOFF) of
        // distinct ids, so an uncancelled run keeps every one of them
        let n: u32 = 200_000;
        let g = GraphBuilder::new().build(Coo::from_edges(n as usize, &[(0, 1)]));
        let flag = Arc::new(AtomicBool::new(false));
        let ctx =
            Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
        let input = Frontier::from_vec((0..n).collect());
        let visited = AtomicBitmap::new(n as usize);
        let full = filter_with_culling(
            &ctx,
            &input,
            &visited,
            &VertexCond(|_| true),
            CullingConfig::default(),
        );
        assert_eq!(full.len(), n as usize);
        // flag up before launch: every chunk returns at its entry poll
        flag.store(true, Ordering::Release);
        let fresh_visited = AtomicBitmap::new(n as usize);
        let truncated = filter_with_culling(
            &ctx,
            &input,
            &fresh_visited,
            &VertexCond(|_| true),
            CullingConfig::default(),
        );
        assert!(
            truncated.len() < full.len(),
            "cancel mid-operator must truncate: got {} of {}",
            truncated.len(),
            full.len()
        );
        assert!(!ctx.is_poisoned(), "cooperative abort is not a failure");
    }

    #[test]
    fn no_culling_passes_duplicates_to_functor() {
        let (g,) = ctx_fixture();
        let ctx = Context::new(&g);
        let visited = AtomicBitmap::new(64);
        let input = Frontier::from_vec(vec![1, 1, 1]);
        let out = filter_with_culling(
            &ctx,
            &input,
            &visited,
            &VertexCond(|_| true),
            CullingConfig::none(),
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn functor_cond_still_applies_after_culling() {
        let (g,) = ctx_fixture();
        let ctx = Context::new(&g);
        let visited = AtomicBitmap::new(64);
        let input = Frontier::from_vec(vec![2, 3, 4, 5]);
        let out = filter_with_culling(
            &ctx,
            &input,
            &visited,
            &VertexCond(|v: u32| v.is_multiple_of(2)),
            CullingConfig::default(),
        );
        let mut v = out.into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![2, 4]);
        // note: culled-by-functor ids are still marked visited (they were
        // discovered), matching BFS semantics where cond is a validity
        // test on already-labeled vertices
        assert_eq!(visited.count_ones(), 4);
    }
}
