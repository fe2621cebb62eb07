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
//!
//! Two input shapes are supported: [`filter_with_culling`] takes a sparse
//! id-list frontier (the push-direction form), while
//! [`filter_with_culling_bitmap`] takes the dense [`PooledBitmap`] a
//! masked pull sweep produced and culls a whole word per `fetch_or` —
//! the GraphBLAST masked view, where "filter" degenerates into a word-wise
//! mask merge plus survivor extraction.

use crate::context::Context;
use crate::functor::FilterFunctor;
use crate::isolate::AbortPoll;
use crate::util::{concat_chunks, grain_size};
use gunrock_engine::bitmap::{BitSet, PooledBitmap};
use gunrock_engine::config::{FRONTIER_SEQ_CUTOFF, SEQUENTIAL_CUTOFF};
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

/// Word-range cull for the bitmap input shape: for each non-zero word of
/// `input` in `lo..hi`, one `fetch_or_word` against `visited` marks every
/// incoming id discovered (including ids the functor later rejects —
/// the same discovery semantics as the list path) and yields the
/// newly-discovered subset in a single word op; survivors of the fused
/// functor are appended to `out` in ascending id order. Zero input words
/// (and words `visited` already saturates, which `fetch_or` reports as
/// `newly == 0`) are skipped without per-bit work. Polls for
/// cancel/deadline aborts like [`cull_chunk`].
#[allow(clippy::too_many_arguments)]
fn cull_words<F: FilterFunctor, B: BitSet>(
    ctx: &Context<'_>,
    input: &PooledBitmap,
    lo: usize,
    hi: usize,
    cfg: CullingConfig,
    visited: &B,
    functor: &F,
    out: &mut Vec<u32>,
) {
    let Some(mut poll) = AbortPoll::start(ctx) else { return };
    let mut done = 0u64;
    for wi in lo..hi {
        let w = input.load_word(wi);
        if w == 0 {
            continue; // whole-word skip: 64 absent ids
        }
        let mut bits = if cfg.bitmask { w & !visited.fetch_or_word(wi, w) } else { w };
        // CAST: wi * 64 < num_vertices < u32::MAX by Csr::validate.
        let base = (wi * 64) as u32;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            let id = base + b;
            done += 1;
            if poll.stop(done) {
                return;
            }
            if functor.cond(id) {
                functor.apply(id);
                out.push(id);
            }
        }
    }
}

/// The bitmap-shaped culling filter: takes the dense output of a masked
/// pull sweep, merges it into `visited` one `fetch_or` per word, and
/// extracts the next list frontier from the newly-discovered bits.
///
/// A bitmap cannot hold duplicates, so `cfg.history` is irrelevant here
/// and ignored; `cfg.bitmask` off degenerates into plain extraction of
/// every set bit. The returned frontier's storage comes from the
/// context's buffer pool — hand it back via [`Context::recycle`] (the
/// enact loops already do) to keep steady state allocation-free.
pub fn filter_with_culling_bitmap<F: FilterFunctor, B: BitSet>(
    ctx: &Context<'_>,
    input: &PooledBitmap,
    visited: &B,
    functor: &F,
    cfg: CullingConfig,
) -> Frontier {
    assert_eq!(input.len(), visited.len(), "input and visited bitmaps must span the same ids");
    let input_pop = input.count_ones();
    super::filter_step(ctx, "filter:culling_bitmap", "culling_bitmap", input_pop, || {
        let nw = input.word_count();
        if input.len() < SEQUENTIAL_CUTOFF {
            // small-graph path: one serial sweep into a pooled buffer
            let mut out = ctx.pool().take_u32(input_pop);
            cull_words(ctx, input, 0, nw, cfg, visited, functor, &mut out);
            out
        } else {
            // Parallel path over disjoint word ranges. Each task sizes its
            // pooled buffer by a popcount pre-pass: the count is exact, so
            // pushes never grow the buffer (a grown buffer would land in a
            // different pool size class and leak out of steady state).
            let wgrain = grain_size(nw);
            let cull = |ci: usize| {
                let lo = ci * wgrain;
                let hi = (lo + wgrain).min(nw);
                // CAST: count_ones() of a u64 is at most 64, far below usize::MAX.
                let pop: usize =
                    (lo..hi).map(|wi| input.load_word(wi).count_ones() as usize).sum();
                let mut local = ctx.pool().take_u32(pop);
                cull_words(ctx, input, lo, hi, cfg, visited, functor, &mut local);
                local
            };
            let mut parts = Vec::new(); // ALLOC-OK(one merge per bitmap-filter launch)
            par::collect_into(0..nw.div_ceil(wgrain), cull, &mut parts);
            let total: usize = parts.iter().map(Vec::len).sum();
            let mut out = ctx.pool().take_u32(total);
            for p in parts {
                out.extend_from_slice(&p);
                ctx.pool().put_u32(p);
            }
            out
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
    fn raised_cancel_flag_truncates_the_bitmap_cull() {
        use crate::policy::RunPolicy;
        use gunrock_engine::bitmap::PooledBitmap;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // dense input bitmap well past SEQUENTIAL_CUTOFF, so the parallel
        // word-range path runs and each task hits its entry/mid polls
        let n: u32 = 200_000;
        let g = GraphBuilder::new().build(Coo::from_edges(n as usize, &[(0, 1)]));
        let flag = Arc::new(AtomicBool::new(false));
        let ctx =
            Context::new(&g).with_policy(RunPolicy::unbounded().cancel_flag(flag.clone()));
        let mut input = PooledBitmap::take(ctx.pool(), n as usize);
        input.fill_from_frontier(&Frontier::from_vec((0..n).collect()));
        let visited = AtomicBitmap::new(n as usize);
        let full = filter_with_culling_bitmap(
            &ctx,
            &input,
            &visited,
            &VertexCond(|_| true),
            CullingConfig::default(),
        );
        assert_eq!(full.len(), n as usize);
        // flag up before launch: every word-range task bails at a poll
        flag.store(true, Ordering::Release);
        let fresh_visited = AtomicBitmap::new(n as usize);
        let truncated = filter_with_culling_bitmap(
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
        input.release(ctx.pool());
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
    fn bitmap_filter_extracts_new_bits_and_merges_visited() {
        use gunrock_engine::bitmap::PooledBitmap;
        let g = GraphBuilder::new().build(Coo::from_edges(128, &[(0, 1)]));
        let ctx = Context::new(&g);
        let input = PooledBitmap::take(ctx.pool(), 128);
        for v in [3usize, 5, 7, 70] {
            input.set(v);
        }
        let visited = AtomicBitmap::new(128);
        visited.set(5); // already discovered: must be culled
        let out = filter_with_culling_bitmap(
            &ctx,
            &input,
            &visited,
            &VertexCond(|v: u32| v != 70),
            CullingConfig::default(),
        );
        assert_eq!(out.as_slice(), &[3, 7]);
        // discovery semantics: the cond-rejected id is still marked
        // visited, exactly as the list path does
        assert!(visited.get(70));
        assert_eq!(visited.count_ones(), 4);
        input.release(ctx.pool());
    }

    #[test]
    fn bitmap_filter_parallel_path_matches_serial_semantics() {
        use gunrock_engine::bitmap::PooledBitmap;
        let n = 10_000usize; // past SEQUENTIAL_CUTOFF: exercises word-chunked path
        let g = GraphBuilder::new().build(Coo::from_edges(n, &[(0, 1)]));
        let ctx = Context::new(&g);
        let input = PooledBitmap::take(ctx.pool(), n);
        for v in (0..n).step_by(3) {
            input.set(v);
        }
        let visited = AtomicBitmap::new(n);
        for v in (0..n).step_by(9) {
            visited.set(v);
        }
        let out = filter_with_culling_bitmap(
            &ctx,
            &input,
            &visited,
            &VertexCond(|_| true),
            CullingConfig::default(),
        );
        let expect: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 0 && v % 9 != 0).collect();
        assert_eq!(out.as_slice(), expect.as_slice());
        // every input bit is merged into visited
        assert_eq!(visited.count_ones(), n.div_ceil(3));
        input.release(ctx.pool());
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
