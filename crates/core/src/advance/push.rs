//! Push-direction advance strategies (§4.4).
//!
//! All three strategies call the functor inline per edge (kernel fusion)
//! and produce a compacted output frontier in **global edge-rank order**:
//! `thread_mapped` and `load_balanced` both expand through a scan of
//! frontier degrees into exact output offsets, so their outputs are
//! bit-identical; `twc` concatenates its three degree buckets, each in
//! edge-rank order.
//!
//! The hot paths are zero-allocation in the steady state: every scratch
//! buffer (degrees, scanned offsets, merge-path partitions, slot arrays,
//! compacted outputs) is checked out of the context's
//! [`gunrock_engine::pool::BufferPool`] and returned when the advance
//! finishes, so after a warm-up iteration the pool's `allocations`
//! counter stops moving.

use super::{expansion_vertex, AdvanceSpec, InputKind, OutputKind};
use crate::context::Context;
use crate::functor::AdvanceFunctor;
use crate::util::{concat_chunks, grain_size};
use gunrock_engine::config::{FRONTIER_SEQ_CUTOFF, SEQUENTIAL_CUTOFF};
use gunrock_engine::frontier::Frontier;
use gunrock_engine::scan::scan_exclusive_u32_into;
use gunrock_engine::search::merge_path_partitions_into;
use gunrock_engine::unsafe_slice::UnsafeSlice;
use gunrock_graph::{EdgeId, VertexId};
use rayon::prelude::*;

/// Marks an edge rank whose `cond` failed in a flat output slot array
/// (and, in the gather sweep, an emission slot a chunk left unused).
/// Collision with a real vertex/edge id is impossible because
/// `Csr::validate`/`GraphBuilder` reject graphs with `num_vertices` or
/// `num_edges` at `u32::MAX` — every legal id is strictly smaller.
pub(super) const INVALID_SLOT: u32 = u32::MAX;

/// Total neighbor count of the frontier — the workload size an advance
/// will generate, used by the Auto strategy switch, the serial
/// fast-path gate, and the direction-optimizing policy.
pub fn frontier_neighbor_count(ctx: &Context<'_>, input: &Frontier, kind: InputKind) -> u64 {
    let g = ctx.graph;
    if input.len() < FRONTIER_SEQ_CUTOFF {
        input
            .as_slice()
            .iter()
            .map(|&it| g.out_degree(expansion_vertex(ctx, kind, it)) as u64)
            .sum()
    } else {
        input
            .as_slice()
            .par_iter()
            .map(|&it| g.out_degree(expansion_vertex(ctx, kind, it)) as u64)
            .sum()
    }
}

/// Fills `out` with the out-degree of every frontier item's expansion
/// vertex, reusing `out`'s capacity (pooled in the callers).
fn gather_degrees_into(ctx: &Context<'_>, items: &[u32], input: InputKind, out: &mut Vec<u32>) {
    let g = ctx.graph;
    if items.len() < FRONTIER_SEQ_CUTOFF {
        out.clear();
        out.reserve(items.len());
        for &it in items {
            out.push(g.out_degree(expansion_vertex(ctx, input, it)));
        }
    } else {
        items
            .par_iter()
            .map(|&it| g.out_degree(expansion_vertex(ctx, input, it)))
            .collect_into_vec(out);
    }
}

/// Sum of a degree array, widened to `u64` so overflow is detected
/// rather than wrapped.
fn degree_sum(degrees: &[u32]) -> u64 {
    if degrees.len() < FRONTIER_SEQ_CUTOFF {
        degrees.iter().map(|&d| d as u64).sum()
    } else {
        degrees.par_iter().map(|&d| d as u64).sum()
    }
}

/// Expands one item's neighbor list serially, appending successful
/// traversals to `out`. Returns edges examined.
#[inline]
fn expand_serial<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    functor: &F,
    spec: AdvanceSpec,
    item: u32,
    out: &mut Vec<u32>,
) -> u64 {
    let g = ctx.graph;
    let src = expansion_vertex(ctx, spec.input, item);
    let range = g.edge_range(src);
    let examined = range.len() as u64;
    let cols = g.col_indices();
    for e in range {
        let dst = cols[e];
        if functor.cond_edge(src, dst, e as EdgeId) {
            functor.apply_edge(src, dst, e as EdgeId);
            match spec.output {
                OutputKind::Vertices => out.push(dst),
                OutputKind::Edges => out.push(e as EdgeId),
                OutputKind::None => {}
            }
        }
    }
    examined
}

/// Expands one item's neighbor list into its exact slot range of a flat
/// output array: successes pack at the front of `[offset, offset+degree)`,
/// [`INVALID_SLOT`] fills the tail for culled edges. Every slot in the
/// range is written exactly once.
#[inline]
fn expand_flat<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    functor: &F,
    spec: AdvanceSpec,
    item: u32,
    offset: u32,
    out: &UnsafeSlice<'_, u32>,
) {
    let g = ctx.graph;
    let src = expansion_vertex(ctx, spec.input, item);
    let range = g.edge_range(src);
    // CAST: offset is an edge rank below the caller's u32 total; widening
    // u32 -> usize is lossless.
    let end = offset as usize + range.len();
    let cols = g.col_indices();
    // CAST: same widening as above.
    let mut w = offset as usize;
    for e in range {
        let dst = cols[e];
        if functor.cond_edge(src, dst, e as EdgeId) {
            functor.apply_edge(src, dst, e as EdgeId);
            let v = match spec.output {
                OutputKind::Vertices => dst,
                OutputKind::Edges => e as EdgeId,
                OutputKind::None => unreachable!("flat expansion requires an output kind"),
            };
            // SAFETY: this item's slot range [offset, end) is disjoint
            // from every other item's (exclusive scan of degrees), and w
            // stays within it.
            unsafe { out.write(w, v) };
            w += 1;
        }
    }
    for idx in w..end {
        // SAFETY: same disjoint range; each tail index written once.
        unsafe { out.write(idx, INVALID_SLOT) };
    }
}

/// Appends the non-[`INVALID_SLOT`] values of `slots` onto `out` in
/// order — the order-preserving compaction of the flat scan-offset
/// expansion. Serial below [`SEQUENTIAL_CUTOFF`]; the parallel path
/// scatters through pooled per-chunk counts, so the hot loop stays
/// allocation-free once `out` has capacity.
fn compact_slots_into(ctx: &Context<'_>, slots: &[u32], out: &mut Vec<u32>) {
    let n = slots.len();
    out.reserve(n);
    if n < SEQUENTIAL_CUTOFF || rayon::current_num_threads() == 1 {
        for &v in slots {
            if v != INVALID_SLOT {
                out.push(v);
            }
        }
        return;
    }
    let pool = ctx.pool();
    let chunk = n.div_ceil(rayon::current_num_threads() * 4).max(1);
    let num_chunks = n.div_ceil(chunk);
    let mut counts = pool.take_u32(num_chunks);
    slots
        .par_chunks(chunk)
        // CAST: per-chunk counts are bounded by slots.len(), which the
        // callers guarantee is below u32::MAX (flat rankings are u32).
        .map(|c| c.iter().filter(|&&v| v != INVALID_SLOT).count() as u32)
        .collect_into_vec(&mut counts);
    let mut bases = pool.take_u32(num_chunks);
    let kept = scan_exclusive_u32_into(&counts, &mut bases) as usize;
    pool.put_u32(counts);
    let start = out.len();
    // SAFETY: u32 is Copy with no drop glue, reserve() above guarantees
    // capacity for start + n >= start + kept, and the scatter below
    // writes every index in [start, start + kept) exactly once before
    // any read.
    unsafe { out.set_len(start + kept) };
    {
        gunrock_engine::racecheck::begin_phase();
        let out_ref = UnsafeSlice::new(&mut out[..]);
        slots.par_chunks(chunk).zip(bases.par_iter()).for_each(|(c, &base)| {
            let mut w = start + base as usize;
            for &v in c {
                if v != INVALID_SLOT {
                    // SAFETY: this chunk writes the disjoint range
                    // [start+base, start+base+count) — bases are the
                    // exclusive scan of the per-chunk counts.
                    unsafe { out_ref.write(w, v) };
                    w += 1;
                }
            }
        });
    }
    pool.put_u32(bases);
}

/// Single-threaded advance, used for tiny frontiers (the small-frontier
/// fast path behind `EngineConfig::serial_threshold`) and whenever the
/// pool has a single worker thread: no rayon dispatch, no
/// scan — one pass appending into a pooled buffer whose capacity already
/// covers the `work` estimate, so the loop performs zero heap
/// allocations. Output order is edge-rank order, identical to
/// [`thread_mapped`]. Targets the high-diameter regime (road networks,
/// long-tail BFS levels) where fork/join latency dwarfs the few hundred
/// edges of actual work.
pub fn serial<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
    work: u64,
) -> Frontier {
    let mut out = if spec.output != OutputKind::None {
        // CAST: work counts edges of an in-memory graph; it fits usize on
        // the 64-bit targets we build for (the flat path's u32 ranking
        // limit does not apply here — serial appends, it never ranks).
        ctx.pool().take_u32(work as usize)
    } else {
        // ALLOC-OK(effect-only: expand_serial never pushes, so Vec::new never allocates)
        Vec::new()
    };
    let mut edges = 0u64;
    for &item in input.as_slice() {
        edges += expand_serial(ctx, functor, spec, item, &mut out);
    }
    ctx.counters.add_edges(edges);
    Frontier::from_vec(out)
}

/// Per-thread fine-grained strategy: each task owns a grain of frontier
/// items and walks each item's neighbor list serially. Balanced within a
/// task group, "but not across CTAs" — skewed degrees serialize on the
/// task owning the hub.
///
/// Implemented as a two-pass scan-offset expansion into ONE pooled flat
/// buffer: pass 1 gathers per-item degrees and scans them into exact
/// write offsets; pass 2 expands every item into its disjoint slot range
/// ([`INVALID_SLOT`] holes where `cond` culled); an order-preserving
/// compaction yields the output. No per-task `Vec`s, no concatenation.
pub fn thread_mapped<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    let items = input.as_slice();
    if items.is_empty() {
        return Frontier::new();
    }
    // With a single worker thread the multi-pass scan-offset pipeline
    // (gather degrees, scan, flat expand, compact) is pure overhead:
    // there is no parallelism to balance, and each pass re-touches the
    // whole working set. Delegate to the serial expansion, which emits
    // the same edge-rank order in one pass over the frontier.
    if rayon::current_num_threads() == 1 {
        // Effect-only advances never touch the output buffer, so skip
        // the degree pass that would only be used to size it.
        let work = if spec.output == OutputKind::None {
            0
        } else {
            frontier_neighbor_count(ctx, input, spec.input)
        };
        return serial(ctx, input, spec, functor, work);
    }
    // Effect-only advance: no output buffer, no scan — walk and count.
    if spec.output == OutputKind::None {
        let grain = grain_size(items.len());
        let edges: u64 = items
            .par_chunks(grain)
            .map(|chunk| {
                // ALLOC-OK(effect-only: expand_serial never pushes with OutputKind::None, so this Vec never allocates)
                let mut sink = Vec::new();
                chunk
                    .iter()
                    .map(|&item| expand_serial(ctx, functor, spec, item, &mut sink))
                    .sum::<u64>()
            })
            .sum();
        ctx.counters.add_edges(edges);
        return Frontier::new();
    }
    let pool = ctx.pool();
    // Pass 1: per-item degrees, scanned into exact write offsets.
    let mut degrees = pool.take_u32(items.len());
    gather_degrees_into(ctx, items, spec.input, &mut degrees);
    let total = degree_sum(&degrees);
    if total == 0 {
        pool.put_u32(degrees);
        return Frontier::new();
    }
    if total >= u32::MAX as u64 {
        // The flat ranking is u32-indexed; a frontier expanding to four
        // billion edges falls back to the chunked path.
        pool.put_u32(degrees);
        return thread_mapped_chunked(ctx, input, spec, functor);
    }
    ctx.counters.add_edges(total);
    // CAST: guarded just above — total < u32::MAX fits usize.
    let total = total as usize;
    let mut scanned = pool.take_u32(items.len());
    scan_exclusive_u32_into(&degrees, &mut scanned);
    pool.put_u32(degrees);
    // Pass 2: expand every item into its slot range of one flat buffer.
    let mut slots = pool.take_u32(total);
    // SAFETY: u32 is Copy with no drop glue, the pool guarantees
    // capacity() >= total, and the scatter below writes every index in
    // [0, total) exactly once before any read (successes at the front of
    // each item's range, INVALID_SLOT in the tail).
    unsafe { slots.set_len(total) };
    {
        gunrock_engine::racecheck::begin_phase();
        let out_ref = UnsafeSlice::new(&mut slots);
        let grain = grain_size(items.len());
        items.par_chunks(grain).enumerate().for_each(|(ci, chunk)| {
            let base = ci * grain;
            for (j, &item) in chunk.iter().enumerate() {
                expand_flat(ctx, functor, spec, item, scanned[base + j], &out_ref);
            }
        });
    }
    pool.put_u32(scanned);
    let mut out = pool.take_u32(total);
    compact_slots_into(ctx, &slots, &mut out);
    pool.put_u32(slots);
    Frontier::from_vec(out)
}

/// Chunked fallback for frontiers whose total neighbor count does not
/// fit the u32 flat ranking: per-task local vectors concatenated in
/// chunk order (the pre-pool implementation). Output order matches the
/// flat path exactly.
fn thread_mapped_chunked<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    let grain = grain_size(input.len());
    let per_chunk: Vec<(Vec<u32>, u64)> = input
        .as_slice()
        .par_chunks(grain)
        .map(|chunk| {
            // ALLOC-OK(u32-overflow fallback: only reachable when one frontier expands over four billion edges, never on the pooled steady-state path)
            let mut local = Vec::new();
            let mut edges = 0u64;
            for &item in chunk {
                edges += expand_serial(ctx, functor, spec, item, &mut local);
            }
            (local, edges)
        })
        // ALLOC-OK(u32-overflow fallback, see above)
        .collect();
    let edges: u64 = per_chunk.iter().map(|(_, e)| e).sum();
    ctx.counters.add_edges(edges);
    // ALLOC-OK(u32-overflow fallback, see above)
    let chunks: Vec<Vec<u32>> = per_chunk.into_iter().map(|(v, _)| v).collect();
    Frontier::from_vec(concat_chunks(chunks))
}

/// Splits the frontier into the three TWC degree classes — `(small,
/// medium, large)` = (≤ warp, warp..=cta, > cta) — in ONE pass over the
/// frontier, reading each item's degree exactly once. Relative order
/// within each bucket matches frontier order.
fn classify_degrees(
    ctx: &Context<'_>,
    items: &[u32],
    input: InputKind,
    warp: u32,
    cta: u32,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let g = ctx.graph;
    let place = |item: u32, buckets: &mut (Vec<u32>, Vec<u32>, Vec<u32>)| {
        let d = g.out_degree(expansion_vertex(ctx, input, item));
        if d <= warp {
            buckets.0.push(item);
        } else if d <= cta {
            buckets.1.push(item);
        } else {
            buckets.2.push(item);
        }
    };
    if items.len() < FRONTIER_SEQ_CUTOFF {
        // ALLOC-OK(twc classification buckets; twc is an explicit opt-in strategy outside the pooled Auto path)
        let mut buckets = (Vec::new(), Vec::new(), Vec::new());
        for &item in items {
            place(item, &mut buckets);
        }
        return buckets;
    }
    let per_chunk: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> = items
        .par_chunks(grain_size(items.len()))
        .map(|chunk| {
            // ALLOC-OK(twc per-chunk classification buckets, opt-in strategy)
            let mut buckets = (Vec::new(), Vec::new(), Vec::new());
            for &item in chunk {
                place(item, &mut buckets);
            }
            buckets
        })
        // ALLOC-OK(twc per-chunk classification buckets, opt-in strategy)
        .collect();
    // ALLOC-OK(twc bucket spines, one small Vec per degree class)
    let mut smalls = Vec::with_capacity(per_chunk.len());
    // ALLOC-OK(twc bucket spines, see above)
    let mut mediums = Vec::with_capacity(per_chunk.len());
    // ALLOC-OK(twc bucket spines, see above)
    let mut larges = Vec::with_capacity(per_chunk.len());
    for (s, m, l) in per_chunk {
        smalls.push(s);
        mediums.push(m);
        larges.push(l);
    }
    (concat_chunks(smalls), concat_chunks(mediums), concat_chunks(larges))
}

/// Per-warp / per-CTA coarse-grained strategy (Merrill et al.): the
/// frontier is split into three degree classes, each processed with a
/// cooperation width matched to its size — whole "CTA" chunks for huge
/// lists, per-"warp" tasks for medium lists, per-thread grains for small
/// lists. Higher throughput on high-variance frontiers, at the cost of
/// one classification pass.
pub fn twc<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    let g = ctx.graph;
    // CAST: warp/cta sizes are small powers of two (EngineConfig validates
    // them), far below u32::MAX.
    let warp = ctx.config.warp_size as u32;
    let cta = ctx.config.cta_size as u32;
    let (small, medium, large) = classify_degrees(ctx, input.as_slice(), spec.input, warp, cta);

    // Small lists: fine-grained grains of items (pooled flat expansion).
    let small_f = Frontier::from_vec(small);
    let small_out = thread_mapped(ctx, &small_f, spec, functor);
    ctx.recycle(small_f);
    if medium.is_empty() && large.is_empty() {
        // Single-bucket frontier: hand the pooled output straight
        // through, no merge, no copy.
        return small_out;
    }

    // Medium lists: one task per item (a "warp" cooperates on one list).
    let medium_chunks: Vec<(Vec<u32>, u64)> = medium
        .par_iter()
        .map(|&item| {
            // ALLOC-OK(twc per-item warp local; opt-in strategy outside the pooled Auto path)
            let mut local = Vec::new();
            let edges = expand_serial(ctx, functor, spec, item, &mut local);
            (local, edges)
        })
        // ALLOC-OK(twc per-item warp locals, see above)
        .collect();
    ctx.counters.add_edges(medium_chunks.iter().map(|(_, e)| e).sum());

    // Large lists: the whole "CTA" cooperates on one neighbor list,
    // processing it in cta-sized slices in parallel.
    // ALLOC-OK(twc per-CTA part spine, opt-in strategy)
    let mut large_parts: Vec<Vec<u32>> = Vec::new();
    let mut large_edges = 0u64;
    for &item in &large {
        let src = expansion_vertex(ctx, spec.input, item);
        let range = g.edge_range(src);
        large_edges += range.len() as u64;
        let cols = &g.col_indices()[range.clone()];
        let base = range.start;
        let mut parts: Vec<Vec<u32>> = cols
            .par_chunks(ctx.config.cta_size)
            .enumerate()
            .map(|(ci, slice)| {
                // ALLOC-OK(twc per-CTA local, opt-in strategy)
                let mut local = Vec::new();
                let start = base + ci * ctx.config.cta_size;
                for (i, &dst) in slice.iter().enumerate() {
                    let e = (start + i) as EdgeId;
                    if functor.cond_edge(src, dst, e) {
                        functor.apply_edge(src, dst, e);
                        match spec.output {
                            OutputKind::Vertices => local.push(dst),
                            OutputKind::Edges => local.push(e),
                            OutputKind::None => {}
                        }
                    }
                }
                local
            })
            // ALLOC-OK(twc per-CTA locals, see above)
            .collect();
        large_parts.append(&mut parts);
    }
    ctx.counters.add_edges(large_edges);
    if spec.output == OutputKind::None {
        return Frontier::new();
    }

    // Merge the three buckets with ONE copy per element into a pooled
    // buffer. The old `concat_chunks(vec![small, medium, large])` first
    // materialized the medium/large buckets via concat_chunks and then
    // copied all three again — a double copy of every medium/large
    // element plus a heap-allocated spine.
    let medium_len: usize = medium_chunks.iter().map(|(v, _)| v.len()).sum();
    let large_len: usize = large_parts.iter().map(Vec::len).sum();
    let mut merged = ctx.pool().take_u32(small_out.len() + medium_len + large_len);
    merged.extend_from_slice(small_out.as_slice());
    for (v, _) in &medium_chunks {
        merged.extend_from_slice(v);
    }
    for p in &large_parts {
        merged.extend_from_slice(p);
    }
    ctx.recycle(small_out);
    Frontier::from_vec(merged)
}

/// Load-balanced strategy (Davidson et al.): scan frontier degrees into a
/// global edge ranking, split the ranking into equal-width chunks, locate
/// each chunk's first source by binary search over the scanned offsets
/// (merge-path), then walk. Every task touches exactly `cta_size` edges
/// regardless of degree skew: balanced within and across blocks.
pub fn load_balanced<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    load_balanced_with_limit(ctx, input, spec, functor, u32::MAX as u64)
}

/// Load-balanced advance with an explicit cap on how many edge ranks one
/// merge-path batch may hold. The ranking is scanned in `u32`, so a
/// frontier whose total neighbor count reaches `u32::MAX` would silently
/// wrap and corrupt the partition; when the total reaches `limit` the
/// frontier is split into consecutive batches each below it, preserving
/// the strategy's edge-rank output order across batches. A single item
/// whose own degree reaches the limit is expanded via [`thread_mapped`]
/// (its output for one item is also in edge order).
///
/// `limit` is `u32::MAX` in production ([`load_balanced`]); tests inject
/// small limits to exercise the guard without building 4-billion-edge
/// frontiers.
pub(crate) fn load_balanced_with_limit<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
    limit: u64,
) -> Frontier {
    let items = input.as_slice();
    if items.is_empty() {
        return Frontier::new();
    }
    let pool = ctx.pool();
    // Phase 1: per-item degrees (u64 total so overflow is detected, not
    // wrapped).
    let mut degrees = pool.take_u32(items.len());
    gather_degrees_into(ctx, items, spec.input, &mut degrees);
    let total = degree_sum(&degrees);
    if total == 0 {
        pool.put_u32(degrees);
        return Frontier::new();
    }
    if total < limit {
        ctx.counters.add_edges(total);
        let mut out = if spec.output != OutputKind::None {
            // CAST: guarded — this branch requires total < limit <= u32::MAX.
            pool.take_u32(total as usize)
        } else {
            // ALLOC-OK(effect-only: lb_batch appends nothing, so this Vec never allocates)
            Vec::new()
        };
        // CAST: guarded — total < limit <= u32::MAX.
        lb_batch(ctx, items, &degrees, total as u32, spec, functor, &mut out);
        pool.put_u32(degrees);
        return Frontier::from_vec(out);
    }
    // Guard path: the ranking would overflow u32. Split the frontier into
    // consecutive batches, each with a sub-limit rank total; batch outputs
    // concatenate in frontier order, so the overall output stays in
    // global edge-rank order.
    // ALLOC-OK(u32-overflow guard path: final size unknowable upfront and far beyond any pool class worth pinning, never the steady-state path)
    let mut out: Vec<u32> = Vec::new();
    let mut start = 0usize;
    while start < items.len() {
        // One huge split advance must still honor the enactment's
        // wall-clock budget: check between batches (never mid-batch, so
        // each batch's functor effects stay complete). The enact loop's
        // next guard check reports TimedOut.
        if ctx.deadline_exceeded() {
            break;
        }
        let mut end = start;
        let mut batch_total = 0u64;
        while end < items.len() {
            let d = degrees[end] as u64;
            if d >= limit || batch_total + d >= limit {
                break;
            }
            batch_total += d;
            end += 1;
        }
        if end == start {
            // One item's own degree reaches the limit; merge-path can't
            // rank it, so expand just that item thread-mapped (which
            // counts its own edges).
            let part = thread_mapped(ctx, &Frontier::single(items[start]), spec, functor);
            out.extend_from_slice(part.as_slice());
            ctx.recycle(part);
            start += 1;
        } else {
            if batch_total > 0 {
                ctx.counters.add_edges(batch_total);
                lb_batch(
                    ctx,
                    &items[start..end],
                    &degrees[start..end],
                    // CAST: the batching loop caps batch_total below the u32 limit.
                    batch_total as u32,
                    spec,
                    functor,
                    &mut out,
                );
            }
            start = end;
        }
    }
    pool.put_u32(degrees);
    Frontier::from_vec(out)
}

/// One merge-path batch: scan `degrees` into a `u32` edge ranking
/// (caller guarantees `total < u32::MAX`), partition it into equal-width
/// chunks, walk each chunk. Output slot w belongs to edge rank w, making
/// output order deterministic; the compacted successes are **appended**
/// onto `out` (untouched for for-effect specs). All scratch is pooled.
/// Does NOT touch `ctx.counters` — the caller attributes edges.
#[allow(clippy::too_many_arguments)]
fn lb_batch<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    items: &[u32],
    degrees: &[u32],
    total: u32,
    spec: AdvanceSpec,
    functor: &F,
    out: &mut Vec<u32>,
) {
    let g = ctx.graph;
    let pool = ctx.pool();
    let mut scanned = pool.take_u32(items.len());
    scan_exclusive_u32_into(degrees, &mut scanned);
    let chunk = ctx.config.cta_size;
    // Phase 2: merge-path partition of the edge ranking.
    // CAST: total widens u32 -> usize, lossless.
    let mut starts = pool.take_u32((total as usize).div_ceil(chunk));
    merge_path_partitions_into(&scanned, total, chunk, &mut starts);
    // Phase 3: walk each chunk; slot w of the output belongs to edge rank
    // w, making output order deterministic.
    let collect_output = spec.output != OutputKind::None;
    let mut slots = if collect_output {
        // CAST: lb_batch's contract is total < u32::MAX (callers guard), so edge
        // ranks, chunk bounds, and row starts all fit u32; id widenings are lossless.
        let mut s = pool.take_u32(total as usize);
        s.resize(total as usize, INVALID_SLOT);
        s
    } else {
        // ALLOC-OK(effect-only: no output slots, Vec::new never allocates)
        Vec::new()
    };
    {
        gunrock_engine::racecheck::begin_phase();
        let out_ref = UnsafeSlice::new(&mut slots);
        starts.par_iter().enumerate().for_each(|(ci, &seg_start)| {
            let w0 = (ci * chunk) as u32;
            let w1 = (((ci + 1) * chunk) as u32).min(total);
            let mut seg = seg_start as usize;
            // cache the current segment's expansion data
            let mut src: VertexId = expansion_vertex(ctx, spec.input, items[seg]);
            let mut seg_base = scanned[seg];
            let mut row_start = g.edge_range(src).start as u32;
            let cols = g.col_indices();
            for w in w0..w1 {
                // advance to the segment owning rank w (skips empty lists)
                while seg + 1 < items.len() && scanned[seg + 1] <= w {
                    seg += 1;
                    src = expansion_vertex(ctx, spec.input, items[seg]);
                    seg_base = scanned[seg];
                    row_start = g.edge_range(src).start as u32;
                }
                let e = row_start + (w - seg_base);
                let dst = cols[e as usize];
                if functor.cond_edge(src, dst, e) {
                    functor.apply_edge(src, dst, e);
                    if collect_output {
                        let v = match spec.output {
                            OutputKind::Vertices => dst,
                            OutputKind::Edges => e,
                            OutputKind::None => unreachable!(),
                        };
                        // SAFETY: each rank w written by exactly one chunk.
                        unsafe { out_ref.write(w as usize, v) };
                    }
                }
            }
        });
    }
    pool.put_u32(scanned);
    pool.put_u32(starts);
    if collect_output {
        compact_slots_into(ctx, &slots, out);
        pool.put_u32(slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::{AcceptAll, EdgeCond};
    use gunrock_engine::compact::compact;
    use gunrock_engine::config::EngineConfig;
    use gunrock_graph::generators::rmat;
    use gunrock_graph::{Coo, GraphBuilder};

    fn skewed_graph() -> gunrock_graph::Csr {
        GraphBuilder::new().build(rmat(9, 16, Default::default(), 5))
    }

    fn modes_output(
        g: &gunrock_graph::Csr,
        input: Vec<u32>,
        spec: AdvanceSpec,
    ) -> Vec<Vec<u32>> {
        let ctx = Context::new(g);
        let f = Frontier::from_vec(input);
        [
            thread_mapped(&ctx, &f, spec, &AcceptAll),
            twc(&ctx, &f, spec, &AcceptAll),
            load_balanced(&ctx, &f, spec, &AcceptAll),
        ]
        .into_iter()
        .map(|fr| {
            let mut v = fr.into_vec();
            v.sort_unstable();
            v
        })
        .collect()
    }

    #[test]
    fn strategies_agree_on_skewed_graph() {
        let g = skewed_graph();
        let input: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
        let outs = modes_output(&g, input, AdvanceSpec::v2v());
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
        assert!(!outs[0].is_empty());
    }

    #[test]
    fn strategies_agree_on_edge_output() {
        let g = skewed_graph();
        let input: Vec<u32> = (0..g.num_vertices() as u32).step_by(7).collect();
        let outs = modes_output(&g, input, AdvanceSpec::v2e());
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
    }

    #[test]
    fn load_balanced_output_is_in_edge_rank_order() {
        let g = GraphBuilder::new()
            .directed()
            .build(Coo::from_edges(4, &[(0, 3), (0, 1), (2, 0), (2, 3)]));
        let ctx = Context::new(&g);
        let out = load_balanced(
            &ctx,
            &Frontier::from_vec(vec![0, 2]),
            AdvanceSpec::v2v(),
            &AcceptAll,
        );
        // CSR sorts (0->1),(0->3),(2->0),(2->3); frontier order [0, 2]
        assert_eq!(out.as_slice(), &[1, 3, 0, 3]);
    }

    #[test]
    fn thread_mapped_output_matches_load_balanced_exactly() {
        // the flat scan-offset rewrite makes thread_mapped's output
        // order identical to load_balanced's (global edge-rank order),
        // not merely set-equal
        let g = skewed_graph();
        let input: Vec<u32> = (0..g.num_vertices() as u32).step_by(2).collect();
        let ctx = Context::new(&g);
        let f = Frontier::from_vec(input);
        let tm = thread_mapped(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
        let lb = load_balanced(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
        assert_eq!(tm.as_slice(), lb.as_slice());
    }

    #[test]
    fn flat_expansion_with_culling_preserves_edge_rank_order_at_scale() {
        // large frontier: parallel gather, parallel scan, parallel
        // compaction — with holes from a culling cond
        let g = skewed_graph();
        let keep_odd = EdgeCond(|_s: u32, d: u32, _e: u32| d % 2 == 1);
        let n = g.num_vertices() as u32;
        let items: Vec<u32> = (0..(FRONTIER_SEQ_CUTOFF as u32 * 3)).map(|i| i % n).collect();
        let ctx = Context::new(&g);
        let f = Frontier::from_vec(items.clone());
        let got = thread_mapped(&ctx, &f, AdvanceSpec::v2v(), &keep_odd);
        let mut want = Vec::new();
        for &it in &items {
            for e in g.edge_range(it) {
                let d = g.col_indices()[e];
                if d % 2 == 1 {
                    want.push(d);
                }
            }
        }
        assert_eq!(got.as_slice(), &want[..]);
    }

    #[test]
    fn serial_fast_path_matches_thread_mapped_exactly() {
        let g = skewed_graph();
        let input = Frontier::from_vec(vec![1, 5, 9, 33]);
        let spec = AdvanceSpec::v2v();
        let ctx_serial = Context::new(&g); // default serial_threshold 4096
        let ctx_par =
            Context::new(&g).with_config(EngineConfig::new().with_serial_threshold(0));
        let a = super::super::advance(&ctx_serial, &input, spec, &AcceptAll);
        let b = super::super::advance(&ctx_par, &input, spec, &AcceptAll);
        assert_eq!(a.as_slice(), b.as_slice(), "fast path must be bit-identical");
        assert_eq!(ctx_serial.counters.edges(), ctx_par.counters.edges());
        assert!(ctx_serial.counters.edges() > 0);
    }

    #[test]
    fn twc_merge_preserves_bucket_order_with_single_copy() {
        // one small (deg 2), one medium (deg 64), one large (deg 300)
        // vertex; the merged output must be small ++ medium ++ large,
        // each bucket's successes in CSR edge order (satellite S6)
        let mut edges: Vec<(u32, u32)> = vec![(0, 3), (0, 4)];
        for i in 0..64 {
            edges.push((1, 5 + i));
        }
        for i in 0..300 {
            edges.push((2, 69 + i));
        }
        let g = GraphBuilder::new().directed().build(Coo::from_edges(369, &edges));
        assert!(g.out_degree(0) <= 32);
        assert!(g.out_degree(1) > 32 && g.out_degree(1) <= 256);
        assert!(g.out_degree(2) > 256);
        let ctx = Context::new(&g);
        // frontier deliberately interleaves the buckets
        let f = Frontier::from_vec(vec![2, 0, 1]);
        let out = twc(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
        let mut want: Vec<u32> = Vec::new();
        for v in [0u32, 1, 2] {
            want.extend(g.edge_range(v).map(|e| g.col_indices()[e]));
        }
        assert_eq!(out.as_slice(), &want[..]);
        assert_eq!(ctx.counters.edges(), 366);
    }

    #[test]
    fn pooled_advance_steady_state_performs_zero_allocations() {
        let g = skewed_graph();
        let ctx = Context::new(&g);
        let f = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        // warm-up populates the pool's working set for both strategies
        for _ in 0..3 {
            let out = thread_mapped(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
            ctx.recycle(out);
            let lb = load_balanced(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
            ctx.recycle(lb);
        }
        let warm = ctx.pool().stats().allocations;
        for _ in 0..20 {
            let out = thread_mapped(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
            ctx.recycle(out);
            let lb = load_balanced(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
            ctx.recycle(lb);
        }
        let stats = ctx.pool().stats();
        assert_eq!(stats.allocations, warm, "steady-state advance must not allocate");
        assert_eq!(stats.live, 0, "every scratch buffer returned to the pool");
    }

    #[test]
    fn cond_false_edges_are_culled_everywhere() {
        let g = skewed_graph();
        let keep_even = EdgeCond(|_s: u32, d: u32, _e: u32| d.is_multiple_of(2));
        let ctx = Context::new(&g);
        let input = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        for out in [
            thread_mapped(&ctx, &input, AdvanceSpec::v2v(), &keep_even),
            twc(&ctx, &input, AdvanceSpec::v2v(), &keep_even),
            load_balanced(&ctx, &input, AdvanceSpec::v2v(), &keep_even),
        ] {
            assert!(out.as_slice().iter().all(|&v| v % 2 == 0));
        }
    }

    #[test]
    fn edge_counters_count_full_neighbor_lists() {
        let g = skewed_graph();
        let input = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        let expect = g.num_edges() as u64;
        for mode in [AdvanceMode::ThreadMapped, AdvanceMode::Twc, AdvanceMode::LoadBalanced] {
            let ctx = Context::new(&g);
            let _ = super::super::advance(
                &ctx,
                &input,
                AdvanceSpec::v2v().with_mode(mode),
                &AcceptAll,
            );
            assert_eq!(ctx.counters.edges(), expect, "mode {mode:?}");
        }
    }

    /// Three-compact reference for [`classify_degrees`] — the
    /// implementation this replaced (regression oracle for the
    /// single-pass rewrite).
    fn classify_reference(
        g: &gunrock_graph::Csr,
        items: &[u32],
        warp: u32,
        cta: u32,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let deg = |&it: &u32| g.out_degree(it);
        (
            compact(items, |it| deg(it) <= warp),
            compact(items, |it| {
                let d = deg(it);
                d > warp && d <= cta
            }),
            compact(items, |it| deg(it) > cta),
        )
    }

    #[test]
    fn single_pass_classification_matches_three_compacts() {
        let g = skewed_graph();
        let ctx = Context::new(&g);
        let (warp, cta) = (ctx.config.warp_size as u32, ctx.config.cta_size as u32);
        // small frontier: sequential path
        let small_input: Vec<u32> = (0..g.num_vertices() as u32).step_by(5).collect();
        assert!(small_input.len() < FRONTIER_SEQ_CUTOFF);
        // large frontier (with repeats): parallel path
        let large_input: Vec<u32> = (0..(FRONTIER_SEQ_CUTOFF as u32 * 2))
            .map(|i| i % g.num_vertices() as u32)
            .collect();
        for items in [small_input, large_input] {
            let got = classify_degrees(&ctx, &items, InputKind::Vertices, warp, cta);
            let want = classify_reference(&g, &items, warp, cta);
            assert_eq!(got, want);
            assert_eq!(got.0.len() + got.1.len() + got.2.len(), items.len());
        }
    }

    #[test]
    fn load_balanced_splits_when_rank_total_hits_limit() {
        // hub vertex with degree ~100; frontier repeats it so the rank
        // total crosses a small injected limit and forces the split path
        let deg = 100u32;
        let edges: Vec<(u32, u32)> = (1..=deg).map(|d| (0, d)).collect();
        let g = GraphBuilder::new().directed().build(Coo::from_edges(deg as usize + 1, &edges));
        let input: Vec<u32> = vec![0; 50]; // 50 * 100 = 5000 ranks
        let f = Frontier::from_vec(input);
        let spec = AdvanceSpec::v2v();

        let ctx_ref = Context::new(&g);
        let reference = load_balanced(&ctx_ref, &f, spec, &AcceptAll);

        let ctx = Context::new(&g);
        let guarded = load_balanced_with_limit(&ctx, &f, spec, &AcceptAll, 256);
        assert_eq!(guarded.as_slice(), reference.as_slice(), "split path must preserve order");
        assert_eq!(ctx.counters.edges(), ctx_ref.counters.edges());
        assert_eq!(ctx.counters.edges(), 5000);
    }

    #[test]
    fn load_balanced_falls_back_for_single_oversized_item() {
        // one item whose own degree exceeds the limit: merge-path cannot
        // rank it, so the guard expands it thread-mapped
        let deg = 100u32;
        let edges: Vec<(u32, u32)> = (1..=deg).map(|d| (0, d)).collect();
        let g = GraphBuilder::new().directed().build(Coo::from_edges(deg as usize + 1, &edges));
        let f = Frontier::from_vec(vec![0, 0, 0]);
        let spec = AdvanceSpec::v2v();

        let ctx = Context::new(&g);
        let out = load_balanced_with_limit(&ctx, &f, spec, &AcceptAll, 10);
        let mut got = out.into_vec();
        got.sort_unstable();
        let mut want: Vec<u32> = (1..=deg).flat_map(|d| [d, d, d]).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(ctx.counters.edges(), 300);
    }

    #[test]
    fn split_batches_stop_at_the_wall_clock_deadline() {
        use crate::policy::RunPolicy;
        // same hub shape as the split test: 50 * 100 = 5000 ranks in
        // ~20 batches under limit 256
        let deg = 100u32;
        let edges: Vec<(u32, u32)> = (1..=deg).map(|d| (0, d)).collect();
        let g = GraphBuilder::new().directed().build(Coo::from_edges(deg as usize + 1, &edges));
        let f = Frontier::from_vec(vec![0; 50]);
        let ctx = Context::new(&g)
            .with_policy(RunPolicy::unbounded().wall_clock_budget(std::time::Duration::ZERO));
        let guard = ctx.guard(); // arms the (already-expired) deadline
        let out = load_balanced_with_limit(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll, 256);
        assert!(out.is_empty(), "expired deadline must stop before the first batch");
        assert_eq!(guard.check(0), Some(gunrock_engine::stats::RunOutcome::TimedOut));

        // without arming the guard, the same call runs to completion
        let ctx2 = Context::new(&g);
        let full = load_balanced_with_limit(&ctx2, &f, AdvanceSpec::v2v(), &AcceptAll, 256);
        assert_eq!(full.len(), 5000);
    }

    #[test]
    fn production_limit_never_triggers_split_on_normal_graphs() {
        let g = skewed_graph();
        let f = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        let ctx_a = Context::new(&g);
        let ctx_b = Context::new(&g);
        let a = load_balanced(&ctx_a, &f, AdvanceSpec::v2v(), &AcceptAll);
        let b = load_balanced_with_limit(
            &ctx_b,
            &f,
            AdvanceSpec::v2v(),
            &AcceptAll,
            u32::MAX as u64,
        );
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn neighbor_count_matches_degree_sum() {
        let g = skewed_graph();
        let ctx = Context::new(&g);
        let input = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        assert_eq!(
            frontier_neighbor_count(&ctx, &input, InputKind::Vertices),
            g.num_edges() as u64
        );
    }

    use super::super::AdvanceMode;
}
