//! Push-direction advance strategies (§4.4).
//!
//! All three strategies call the functor inline per edge (kernel fusion)
//! and produce a compacted output frontier in **global edge-rank order**:
//! `thread_mapped` and `load_balanced` both rank the frontier's edges by
//! a scan of its degrees, so their outputs are bit-identical; `twc`
//! concatenates its three degree buckets, each in edge-rank order.
//!
//! Both ranked strategies emit through **chunk windows**: each parallel
//! task owns the slots of the edge ranks it walks, writes its successes
//! to the front of that window and returns a count, and the output is
//! the windows' prefixes copied in task order ([`pack_windows`]). A
//! culled edge writes nothing, and no pass scans the rank range for
//! holes.
//!
//! The hot paths are zero-allocation in the steady state: every scratch
//! buffer (degrees, scanned offsets, merge-path partitions, per-chunk
//! counts, slot windows, compacted outputs) is checked out of the
//! context's [`gunrock_engine::pool::BufferPool`] and returned when the
//! advance finishes, so after a warm-up iteration the pool's
//! `allocations` counter stops moving.

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
use std::ops::Range;

/// Total neighbor count of the frontier — the workload size an advance
/// will generate, used by the serial fast-path gate and the
/// direction-optimizing policy. Sums without a buffer; an advance that
/// ranks edges gathers [`Degrees`] instead.
pub fn frontier_neighbor_count(ctx: &Context<'_>, input: &Frontier, kind: InputKind) -> u64 {
    let degree = |&it: &u32| ctx.graph.out_degree(expansion_vertex(ctx, kind, it)) as u64;
    let items = input.as_slice();
    if items.len() < FRONTIER_SEQ_CUTOFF {
        items.iter().map(degree).sum()
    } else {
        items.par_iter().map(degree).sum()
    }
}

/// A frontier's per-item out-degrees, in a pooled buffer, and their
/// `u64` total (so overflow is detected, not wrapped): the one degree
/// pass an advance makes, handed from the dispatcher down to the
/// strategy that ranks the edges. [`Degrees::release`] returns the
/// buffer.
pub(crate) struct Degrees {
    pub(crate) per_item: Vec<u32>,
    pub(crate) total: u64,
}

impl Degrees {
    /// Gathers the out-degree of every item's expansion vertex.
    pub(crate) fn gather(ctx: &Context<'_>, items: &[u32], input: InputKind) -> Self {
        let g = ctx.graph;
        let degree = |&it: &u32| g.out_degree(expansion_vertex(ctx, input, it));
        let mut per_item = ctx.pool().take_u32(items.len());
        let total = if items.len() < FRONTIER_SEQ_CUTOFF {
            per_item.extend(items.iter().map(degree));
            per_item.iter().map(|&d| d as u64).sum()
        } else {
            items.par_iter().map(degree).collect_into_vec(&mut per_item);
            per_item.par_iter().map(|&d| d as u64).sum()
        };
        Degrees { per_item, total }
    }

    /// Returns the degree buffer to the pool.
    pub(crate) fn release(self, ctx: &Context<'_>) {
        ctx.pool().put_u32(self.per_item);
    }
}

/// Runs the functor over the out-edges `edges` of `src` — its whole
/// neighbor list or one run of it — in order, handing each success's
/// output id to `emit`. The one per-edge loop every push strategy runs.
#[inline]
fn walk<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    functor: &F,
    output: OutputKind,
    src: VertexId,
    edges: Range<usize>,
    mut emit: impl FnMut(u32),
) {
    let cols = ctx.graph.col_indices();
    for e in edges {
        let dst = cols[e];
        // CAST: edge ids of a validated graph lie below u32::MAX
        // (Csr::validate), so usize -> EdgeId is lossless.
        let id = e as EdgeId;
        if functor.cond_edge(src, dst, id) {
            functor.apply_edge(src, dst, id);
            match output {
                OutputKind::Vertices => emit(dst),
                OutputKind::Edges => emit(id),
                OutputKind::None => {}
            }
        }
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
    let src = expansion_vertex(ctx, spec.input, item);
    let range = ctx.graph.edge_range(src);
    let examined = range.len() as u64;
    walk(ctx, functor, spec.output, src, range, |v| out.push(v));
    examined
}

/// Copies the chunk windows' prefixes onto `out` in chunk order — the
/// order-preserving compaction of chunk-window emission: chunk `i` wrote
/// `counts[i]` ids to the front of its window of `slots`, which starts
/// at `window(i)`. Serial below [`SEQUENTIAL_CUTOFF`] kept ids or with
/// one worker; otherwise `counts` is scanned in place into each chunk's
/// output base and the chunks copy in parallel.
fn pack_windows(
    slots: &[u32],
    counts: &mut [u32],
    window: impl Fn(usize) -> usize + Sync,
    out: &mut Vec<u32>,
) {
    // CAST: a count is at most its window's width; u32 -> usize widens.
    let kept: usize = counts.iter().map(|&c| c as usize).sum();
    out.reserve(kept);
    if kept < SEQUENTIAL_CUTOFF || rayon::current_num_threads() == 1 {
        for (ci, &c) in counts.iter().enumerate() {
            let w = window(ci);
            // CAST: same widening as above.
            out.extend_from_slice(&slots[w..w + c as usize]);
        }
        return;
    }
    let mut base = 0u32;
    for c in counts.iter_mut() {
        (*c, base) = (base, base + *c);
    }
    let start = out.len();
    // SAFETY: u32 is Copy with no drop glue, reserve() above guarantees
    // capacity for start + kept, and the copy below writes every index in
    // [start, start + kept) exactly once before any read.
    unsafe { out.set_len(start + kept) };
    gunrock_engine::racecheck::begin_phase();
    let dst = UnsafeSlice::new(&mut out[start..]);
    let bases = &*counts;
    bases.par_iter().enumerate().for_each(|(ci, &b)| {
        // CAST: output bases are below kept; u32 -> usize widens.
        let (b, end) = (b as usize, bases.get(ci + 1).map_or(kept, |&n| n as usize));
        let w = window(ci);
        for (k, &v) in slots[w..w + end - b].iter().enumerate() {
            // SAFETY: chunk ci alone writes [b, end) — the bases are the
            // exclusive scan of the per-chunk counts.
            unsafe { dst.write(b + k, v) };
        }
    });
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
/// Ranks the frontier's edges by an exclusive scan of the item degrees,
/// so a grain's edges own one contiguous window of ONE pooled slot
/// buffer; each grain emits into its window and [`pack_windows`] copies
/// the prefixes out. No per-task `Vec`s, no concatenation.
pub fn thread_mapped<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    if spec.output == OutputKind::None {
        return for_effect(ctx, input, spec, functor);
    }
    let degrees = Degrees::gather(ctx, input.as_slice(), spec.input);
    thread_mapped_from(ctx, input, degrees, spec, functor)
}

/// Effect-only expansion: no output buffer, no ranking — each grain of
/// items walks and counts.
fn for_effect<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    let items = input.as_slice();
    let edges: u64 = items
        .par_chunks(grain_size(items.len()))
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
    Frontier::new()
}

/// [`thread_mapped`] over degrees the caller already gathered (and
/// hands over: they are released here).
pub(crate) fn thread_mapped_from<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    degrees: Degrees,
    spec: AdvanceSpec,
    functor: &F,
) -> Frontier {
    let items = input.as_slice();
    let total = degrees.total;
    if spec.output == OutputKind::None {
        degrees.release(ctx);
        return for_effect(ctx, input, spec, functor);
    }
    // With a single worker thread the ranked pipeline (scan, windowed
    // expand, pack) is pure overhead: there is no parallelism to balance.
    // Delegate to the serial expansion, which emits the same edge-rank
    // order in one pass over the frontier.
    if rayon::current_num_threads() == 1 {
        degrees.release(ctx);
        return serial(ctx, input, spec, functor, total);
    }
    if total == 0 {
        degrees.release(ctx);
        return Frontier::new();
    }
    if total >= u32::MAX as u64 {
        // The ranking is u32-indexed; the load-balanced strategy splits a
        // frontier expanding to four billion edges into ranked batches,
        // with the same output order.
        return load_balanced_from(ctx, input, degrees, spec, functor, u32::MAX as u64);
    }
    ctx.counters.add_edges(total);
    // CAST: guarded just above — total < u32::MAX fits usize.
    let total = total as usize;
    let pool = ctx.pool();
    let mut offsets = pool.take_u32(items.len());
    scan_exclusive_u32_into(&degrees.per_item, &mut offsets);
    degrees.release(ctx);
    let grain = grain_size(items.len());
    let mut counts = pool.take_u32(items.len().div_ceil(grain));
    let mut slots = pool.take_u32(total);
    // SAFETY: u32 is Copy with no drop glue and the pool guarantees
    // capacity() >= total. Each grain writes only a prefix of its own
    // window and pack_windows reads back exactly those prefixes, so no
    // slot is read before it is written.
    unsafe { slots.set_len(total) };
    {
        gunrock_engine::racecheck::begin_phase();
        let out_ref = UnsafeSlice::new(&mut slots);
        items
            .par_chunks(grain)
            .zip(offsets.par_chunks(grain))
            .map(|(chunk, offs)| {
                // CAST: offsets are edge ranks below total < u32::MAX.
                let w0 = offs[0] as usize;
                let mut w = w0;
                for &item in chunk {
                    let src = expansion_vertex(ctx, spec.input, item);
                    walk(ctx, functor, spec.output, src, ctx.graph.edge_range(src), |v| {
                        // SAFETY: the grain's edges rank into the window
                        // [offs[0], next grain's offset), which no other
                        // grain writes, and w never passes its end.
                        unsafe { out_ref.write(w, v) };
                        w += 1;
                    });
                }
                // CAST: a grain emits at most its edge count, < u32::MAX.
                (w - w0) as u32
            })
            .collect_into_vec(&mut counts);
    }
    let mut out = pool.take_u32(total);
    // CAST: a grain's window starts at its first item's rank (u32 -> usize).
    pack_windows(&slots, &mut counts, |ci| offsets[ci * grain] as usize, &mut out);
    pool.put_u32(offsets);
    pool.put_u32(counts);
    pool.put_u32(slots);
    Frontier::from_vec(out)
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
                walk(ctx, functor, spec.output, src, start..start + slice.len(), |v| {
                    local.push(v)
                });
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
    let degrees = Degrees::gather(ctx, input.as_slice(), spec.input);
    load_balanced_from(ctx, input, degrees, spec, functor, u32::MAX as u64)
}

/// [`load_balanced`] over degrees the caller already gathered (and hands
/// over: they are released here), with an explicit cap on how many edge
/// ranks one merge-path batch may hold. The ranking is `u32`, so a
/// frontier whose total neighbor count reaches `u32::MAX` would silently
/// wrap and corrupt the partition; when the total reaches `limit` the
/// frontier is split into consecutive batches each below it, preserving
/// the strategy's edge-rank output order across batches. A single item
/// whose own degree reaches the limit is expanded via [`serial`] (its
/// output for one item is also in edge order).
///
/// `limit` is `u32::MAX` in production; tests inject small limits to
/// exercise the guard without building 4-billion-edge frontiers.
pub(crate) fn load_balanced_from<F: AdvanceFunctor>(
    ctx: &Context<'_>,
    input: &Frontier,
    degrees: Degrees,
    spec: AdvanceSpec,
    functor: &F,
    limit: u64,
) -> Frontier {
    let items = input.as_slice();
    let total = degrees.total;
    if total == 0 {
        degrees.release(ctx);
        return Frontier::new();
    }
    if total < limit {
        ctx.counters.add_edges(total);
        let mut out = if spec.output != OutputKind::None {
            // CAST: guarded — this branch requires total < limit <= u32::MAX.
            ctx.pool().take_u32(total as usize)
        } else {
            // ALLOC-OK(effect-only: lb_batch appends nothing, so this Vec never allocates)
            Vec::new()
        };
        // CAST: guarded — total < limit <= u32::MAX.
        lb_batch(ctx, items, &degrees.per_item, total as u32, spec, functor, &mut out);
        degrees.release(ctx);
        return Frontier::from_vec(out);
    }
    // Guard path: the ranking would overflow u32. Split the frontier into
    // consecutive batches, each with a sub-limit rank total; batch outputs
    // concatenate in frontier order, so the overall output stays in
    // global edge-rank order.
    // ALLOC-OK(u32-overflow guard path: final size unknowable upfront and far beyond any pool class worth pinning, never the steady-state path)
    let mut out: Vec<u32> = Vec::new();
    let per_item = &degrees.per_item;
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
            let d = per_item[end] as u64;
            if d >= limit || batch_total + d >= limit {
                break;
            }
            batch_total += d;
            end += 1;
        }
        if end == start {
            // One item's own degree reaches the limit; merge-path can't
            // rank it, so expand just that item serially (which counts its
            // own edges).
            let item = Frontier::single(items[start]);
            let part = serial(ctx, &item, spec, functor, per_item[start] as u64);
            out.extend_from_slice(part.as_slice());
            ctx.recycle(part);
            start += 1;
        } else {
            if batch_total > 0 {
                ctx.counters.add_edges(batch_total);
                lb_batch(
                    ctx,
                    &items[start..end],
                    &per_item[start..end],
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
    degrees.release(ctx);
    Frontier::from_vec(out)
}

/// One merge-path batch (caller guarantees `total < u32::MAX`): scan
/// `degrees` into edge-rank offsets, split the ranks into `cta_size`-wide
/// chunks and find each chunk's first source by merge-path search. Each
/// chunk then walks its sources one segment at a time — a source's ranks
/// inside the chunk are one run of its neighbor list — and emits into
/// its window of the rank range. The windows' prefixes are **appended**
/// onto `out` in chunk order, i.e. in edge-rank order (untouched for
/// for-effect specs). All scratch is pooled; the partition buffer
/// doubles as the per-chunk counts. Does NOT touch `ctx.counters` — the
/// caller attributes edges.
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
    let mut offsets = pool.take_u32(items.len());
    scan_exclusive_u32_into(degrees, &mut offsets);
    let chunk = ctx.config.cta_size;
    // CAST: lb_batch's contract is total < u32::MAX, so edge ranks, chunk
    // bounds and offsets fit u32 and widen losslessly to usize.
    let ranks = total as usize;
    let mut parts = pool.take_u32(ranks.div_ceil(chunk));
    merge_path_partitions_into(&offsets, total, chunk, &mut parts);
    let collect = spec.output != OutputKind::None;
    let mut slots = if collect {
        let mut s = pool.take_u32(ranks);
        // SAFETY: u32 is Copy with no drop glue and the pool guarantees
        // capacity() >= ranks. Each chunk writes only a prefix of its own
        // window and pack_windows reads back exactly those prefixes, so no
        // slot is read before it is written.
        unsafe { s.set_len(ranks) };
        s
    } else {
        // ALLOC-OK(effect-only: no output slots, Vec::new never allocates)
        Vec::new()
    };
    {
        gunrock_engine::racecheck::begin_phase();
        let out_ref = UnsafeSlice::new(&mut slots);
        // each chunk swaps its partition entry (its first segment) for
        // the number of ids it emitted
        parts.par_iter_mut().enumerate().for_each(|(ci, part)| {
            let (w0, w1) = (ci * chunk, ((ci + 1) * chunk).min(ranks));
            let mut w = w0;
            // CAST: segment indices and ranks widen u32 -> usize (see above).
            let mut seg = *part as usize;
            while seg < items.len() && (offsets[seg] as usize) < w1 {
                let base = offsets[seg] as usize;
                let src = expansion_vertex(ctx, spec.input, items[seg]);
                let row = g.edge_range(src).start;
                // the source's ranks inside [w0, w1), relative to its first
                // edge (empty for a zero-degree item)
                let lo = w0.max(base) - base;
                // CAST: degrees widen u32 -> usize.
                let hi = (base + degrees[seg] as usize).min(w1) - base;
                walk(ctx, functor, spec.output, src, row + lo..row + hi, |v| {
                    // SAFETY: ranks [w0, w1) belong to this chunk alone and
                    // w never passes w1: at most one write per rank.
                    unsafe { out_ref.write(w, v) };
                    w += 1;
                });
                seg += 1;
            }
            // CAST: a chunk emits at most cta_size ids, below u32::MAX.
            *part = (w - w0) as u32;
        });
    }
    pool.put_u32(offsets);
    if collect {
        pack_windows(&slots, &mut parts, |ci| ci * chunk, out);
        pool.put_u32(slots);
    }
    pool.put_u32(parts);
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

    /// [`load_balanced_from`] with an injected rank limit.
    fn lb_limited(ctx: &Context<'_>, f: &Frontier, spec: AdvanceSpec, limit: u64) -> Frontier {
        let degrees = Degrees::gather(ctx, f.as_slice(), spec.input);
        load_balanced_from(ctx, f, degrees, spec, &AcceptAll, limit)
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

    /// Vertices 0..10 with out-degrees [3, 0, 4, 0, 0, 7, 0, 1, 6, 0] into
    /// 10..31, and a frontier walking them twice: the zero-degree items
    /// rank at 3, 7, 14, 21, 24, 28, 35 and 42, on chunk edges for every
    /// chunk width the exact-order test uses.
    fn zero_degree_items_on_chunk_edges() -> (gunrock_graph::Csr, Frontier) {
        let degrees = [3u32, 0, 4, 0, 0, 7, 0, 1, 6, 0];
        let mut edges = Vec::new();
        for (v, &d) in degrees.iter().enumerate() {
            for _ in 0..d {
                edges.push((v as u32, 10 + edges.len() as u32));
            }
        }
        let g = GraphBuilder::new().directed().build(Coo::from_edges(31, &edges));
        (g, Frontier::from_vec((0..10).chain(0..10).collect()))
    }

    #[test]
    fn load_balanced_equals_serial_exactly_for_every_chunk_width() {
        let keep_odd = EdgeCond(|_s: u32, d: u32, _e: u32| d % 2 == 1);
        let (small, small_f) = zero_degree_items_on_chunk_edges();
        let skewed = skewed_graph();
        let n = skewed.num_vertices() as u32;
        // large enough for the parallel gather and the parallel pack
        let large_f = Frontier::from_vec(
            (0..FRONTIER_SEQ_CUTOFF as u32 * 3).map(|i| i * 7 % n).collect(),
        );
        for (g, f) in [(&small, &small_f), (&skewed, &large_f)] {
            for cta_size in [1, 3, 7, 256] {
                for spec in [AdvanceSpec::v2v(), AdvanceSpec::v2e()] {
                    let reference = Context::new(g);
                    let work = frontier_neighbor_count(&reference, f, spec.input);
                    let want = serial(&reference, f, spec, &keep_odd, work);
                    let config = EngineConfig { cta_size, ..EngineConfig::new() };
                    let ctx = Context::new(g).with_config(config);
                    let got = load_balanced(&ctx, f, spec, &keep_odd);
                    assert_eq!(got.as_slice(), want.as_slice(), "cta {cta_size}, {spec:?}");
                    assert_eq!(ctx.counters.edges(), reference.counters.edges());
                    assert!(!got.is_empty());
                }
            }
        }
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
        let guarded = lb_limited(&ctx, &f, spec, 256);
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
        let out = lb_limited(&ctx, &f, spec, 10);
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
        let out = lb_limited(&ctx, &f, AdvanceSpec::v2v(), 256);
        assert!(out.is_empty(), "expired deadline must stop before the first batch");
        assert_eq!(guard.check(0), Some(gunrock_engine::stats::RunOutcome::TimedOut));

        // without arming the guard, the same call runs to completion
        let ctx2 = Context::new(&g);
        let full = lb_limited(&ctx2, &f, AdvanceSpec::v2v(), 256);
        assert_eq!(full.len(), 5000);
    }

    #[test]
    fn production_limit_never_triggers_split_on_normal_graphs() {
        let g = skewed_graph();
        let f = Frontier::from_vec((0..g.num_vertices() as u32).collect());
        let ctx_a = Context::new(&g);
        let ctx_b = Context::new(&g);
        let a = load_balanced(&ctx_a, &f, AdvanceSpec::v2v(), &AcceptAll);
        let b = lb_limited(&ctx_b, &f, AdvanceSpec::v2v(), u32::MAX as u64);
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
