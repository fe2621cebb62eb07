//! Gather advance — the neighborhood gather-reduce operator the paper
//! names as future work (§7): "we believe a new gather-reduce operator on
//! neighborhoods associated with vertices in the current frontier both
//! fits nicely into Gunrock's abstraction and will significantly improve
//! performance on this operation."
//!
//! A push advance that accumulates into its destinations needs one
//! atomic per edge. The gather turns the loop around: every input vertex
//! owns its output slot and reduces a per-neighbor value over its edges,
//! so all writes are plain stores into disjoint slots — GraphBLAST's
//! row-gather SpMV (PAPERS.md). One operator covers every shape an
//! accumulating primitive needs ([`GatherSpec`]):
//!
//! * the input is a vertex **range** (a dense sweep), a **list** (a
//!   frontier's ids, each listed once) or the **unset** bits of a bitmap
//!   (the vertices a traversal has not visited), walked a word at a time:
//!   a word whose 64 bits are all set is skipped whole, and the clear bits
//!   of any other word are visited with `trailing_zeros`;
//! * the edges are the **in**-edges of the reverse graph or the
//!   **out**-edges of the forward graph;
//! * a **mask** skips vertices that are already done before any of their
//!   edges is scanned — GraphBLAST's masked pull, which makes a range
//!   sweep over the unvisited set a direction-optimised level.
//!
//! A range sweep scans every unmasked vertex's edges, so it pays off only
//! while the frontier's out-edge volume is a sizeable share of `m`;
//! [`super::policy::GatherSwitch`] is the switch.
//!
//! `reduce` returns [`ControlFlow`]: a `Break` ends the vertex's fold at
//! that edge, so a search for one qualifying neighbor — BFS's pull, which
//! needs one parent in the frontier — scans a vertex's edges only up to
//! its first hit (Beamer's early exit). The edges counted are those
//! scanned, the hit included.
//!
//! A vertex with at least eight edges folds them into four interleaved
//! accumulators (edge `i` into accumulator `i % 4`), combined pairwise at
//! the end, so a floating-point sum runs as four independent dependency
//! chains rather than one; a shorter list folds in edge-list order. Edges
//! are mapped in edge-list order either way, so the first `Break` is the
//! first hit. The order is fixed per vertex, whatever the thread count:
//! results are bit-identical across pools.

use crate::context::Context;
use crate::isolate::{launch, AbortPoll, Op, Report};
use crate::util::grain_size;
use gunrock_engine::bitmap::{BitSet, PooledBitmap};
use gunrock_engine::par;
use gunrock_engine::stats::StepDirection;
use gunrock_graph::{Csr, EdgeId, VertexId};
use std::ops::{ControlFlow, Range};

/// Shortest edge list [`fold4`] splits into four accumulators.
const FOLD4_MIN_EDGES: usize = 8;

/// Marks an emission slot a chunk left unused. Collision with a real
/// vertex id is impossible because `Csr::validate`/`GraphBuilder` reject
/// graphs with `num_vertices` at `u32::MAX` — every legal id is strictly
/// smaller.
const INVALID_SLOT: u32 = u32::MAX;

/// The vertices a gather visits.
#[derive(Clone, Debug)]
enum Input<'a> {
    Range(Range<VertexId>),
    List(&'a [VertexId]),
    Unset(&'a PooledBitmap),
}

/// Which vertices a gather visits and over which of their edges.
#[derive(Clone, Debug)]
pub struct GatherSpec<'a> {
    input: Input<'a>,
    out_edges: bool,
    name: Option<&'static str>,
}

impl<'a> GatherSpec<'a> {
    /// Every vertex of `range`, over its in-edges.
    pub fn range(range: Range<VertexId>) -> Self {
        GatherSpec { input: Input::Range(range), out_edges: false, name: None }
    }

    /// The vertices of a frontier, over their in-edges. Each id must be
    /// listed at most once: a listed vertex owns its slot.
    pub fn list(ids: &'a [VertexId]) -> Self {
        GatherSpec { input: Input::List(ids), out_edges: false, name: None }
    }

    /// The vertices whose bit is clear in `bits`, over their in-edges.
    /// Slots are indexed by vertex id: the gather takes one per bit of
    /// `bits`, which must span the graph.
    pub fn unset(bits: &'a PooledBitmap) -> Self {
        GatherSpec { input: Input::Unset(bits), out_edges: false, name: None }
    }

    /// Folds over out-edges of the forward graph instead of in-edges of
    /// the reverse graph.
    pub fn out_edges(self) -> Self {
        GatherSpec { out_edges: true, ..self }
    }

    /// Records the step under a primitive's pass name instead of the
    /// gather's shape.
    pub fn named(self, name: &'static str) -> Self {
        GatherSpec { name: Some(name), ..self }
    }

    fn len(&self) -> usize {
        match &self.input {
            Input::Range(r) => r.len(),
            Input::List(ids) => ids.len(),
            Input::Unset(bits) => bits.len(),
        }
    }

    /// The step record's strategy name.
    fn strategy(&self, serial: bool) -> &'static str {
        if let Some(name) = self.name {
            return name;
        }
        match (&self.input, self.out_edges, serial) {
            (Input::Range(_), false, false) => "pull_gather",
            (Input::Range(_), false, true) => "pull_gather:serial",
            (Input::List(_), false, false) => "pull_gather:list",
            (Input::List(_), false, true) => "pull_gather:list:serial",
            (Input::Range(_), true, false) => "out_gather",
            (Input::Range(_), true, true) => "out_gather:serial",
            (Input::List(_), true, false) => "out_gather:list",
            (Input::List(_), true, true) => "out_gather:list:serial",
            (Input::Unset(_), false, false) => "pull_gather:unset",
            (Input::Unset(_), false, true) => "pull_gather:unset:serial",
            (Input::Unset(_), true, false) => "out_gather:unset",
            (Input::Unset(_), true, true) => "out_gather:unset:serial",
        }
    }
}

/// Runs one gather over the vertices `spec` names.
///
/// The `i`-th input vertex `v` owns the slot `out[i]` — `out[v]` for an
/// [`GatherSpec::unset`] input. When `mask(v)` is false, `v` is skipped:
/// none of its edges is scanned, `finish` is not called and `v` is not
/// admitted. Otherwise `map(u, v, e)` is folded with `reduce`
/// (associative and commutative, with `init` its identity: the module
/// docs give the fold order; a `Break` ends the fold with its value),
/// over `v`'s edges to its neighbors `u` — the in-edges `(u, v)` of the
/// reverse graph by default, the out-edges `(v, u)` of the forward graph
/// under [`GatherSpec::out_edges`]; `e` is the edge id in that graph —
/// and the result goes to `finish(v, reduced, slot)`, which updates the
/// slot and decides whether `v` joins the next frontier. The admitted
/// vertices are appended to `next` in input order (ascending for an
/// unset input); the gather needs room for the whole input past `next`'s
/// length, and a buffer whose capacity covers it allocates nothing. With
/// `next` = `None` the gather runs for its effect only and `finish`'s
/// verdict is dropped.
///
/// The step record reports the input's length (the slot count) as
/// `input_len`, and for an unset input the clear bits it visited as
/// `candidates_len` — which vertices carry a value is the caller's
/// business (`map` returns the identity for the rest).
///
/// Launches through the operator frame (fault site `advance:gather`,
/// and `advance:stall` for an unset input, a traversal's pull level): a
/// failed launch appends nothing. A raised cancel or passed deadline
/// truncates the sweep unless a checkpoint policy is active: `finish`
/// has then run for only some vertices, so an enact loop that ends on an
/// empty frontier must ask its guard before reporting convergence.
///
/// Requires `out.len()` equal to the input's length, and a reverse graph
/// ([`Context::with_reverse`]) unless the gather is over out-edges. The
/// closures are `Copy`: each chunk walks with its own copies, so what they
/// capture stays in registers across the edge loop instead of being
/// reloaded at every edge.
#[allow(clippy::too_many_arguments)] // one value per role, as in advance_msbfs
pub fn advance_gather<S, T, K, M, R, F>(
    ctx: &Context<'_>,
    spec: GatherSpec<'_>,
    out: &mut [S],
    mut next: Option<&mut Vec<u32>>,
    mask: K,
    init: T,
    map: M,
    reduce: R,
    finish: F,
) where
    S: Send,
    T: Copy + Send + Sync,
    K: Fn(VertexId) -> bool + Sync + Copy,
    M: Fn(VertexId, VertexId, EdgeId) -> T + Sync + Copy,
    R: Fn(T, T) -> ControlFlow<T, T> + Sync + Copy,
    F: Fn(VertexId, T, &mut S) -> bool + Sync + Copy,
{
    let csr = if spec.out_edges { ctx.graph } else { ctx.reverse_graph() };
    let len = spec.len();
    match &spec.input {
        // CAST: vertex ids widen u32 -> usize for indexing — lossless.
        Input::Range(r) => {
            assert!(
                r.end as usize <= csr.num_vertices(),
                "gather range must lie inside the graph"
            )
        }
        Input::Unset(_) => {
            assert_eq!(len, csr.num_vertices(), "the bitmap must span the graph")
        }
        Input::List(_) => {}
    }
    assert_eq!(out.len(), len, "one output slot per input vertex");
    if len == 0 {
        return;
    }
    // the window past `next`'s end where each chunk emits into its part
    let base = next.as_ref().map_or(0, |next| next.len());
    // the chunk starting at input position `at` (an unset input's chunks
    // start on word boundaries)
    let sweep = |at: usize, slots: &mut [S], ids: Option<&mut [u32]>| {
        let fs = (mask, init, map, reduce, finish);
        match &spec.input {
            // CAST: at < range.len() <= u32::MAX.
            Input::Range(r) => {
                Chunk::each(ctx, csr, ids, (r.start + at as u32..).zip(slots), fs)
            }
            Input::List(list) => {
                Chunk::each(ctx, csr, ids, list[at..].iter().copied().zip(slots), fs)
            }
            Input::Unset(bits) => Chunk::unset(ctx, csr, ids, bits, at, slots, fs),
        }
    };
    let body = || {
        let t = ctx.config.serial_threshold;
        // the edge count is O(1) for a range; a list pays a degree pass, and
        // only once its length already qualifies
        let serial = t > 0
            && len <= t
            && match &spec.input {
                // CAST: EdgeId -> usize widens; offsets of an in-memory graph.
                Input::Range(r) => {
                    let offsets = csr.row_offsets();
                    (offsets[r.end as usize] - offsets[r.start as usize]) as usize <= t
                }
                Input::List(ids) => {
                    ids.iter().map(|&v| csr.out_degree(v) as usize).sum::<usize>() <= t
                }
                Input::Unset(_) => true,
            };
        if let Some(next) = next.as_deref_mut() {
            next.resize(base + len, INVALID_SLOT);
        }
        let window = next.as_deref_mut().map(|next| &mut next[base..]);
        // one chunk on the serial path; an unset input splits into whole words
        let grain = match &spec.input {
            _ if serial => len,
            Input::Unset(bits) => grain_size(bits.word_count()) * 64,
            _ => grain_size(len),
        };
        let add = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
        let (edges, visited) = match window {
            Some(window) => {
                let tasks = out.chunks_mut(grain).zip(window.chunks_mut(grain)).enumerate();
                par::map_reduce(
                    tasks,
                    (0, 0),
                    |(ci, (s, ids))| sweep(ci * grain, s, Some(ids)),
                    add,
                )
            }
            None => {
                let tasks = out.chunks_mut(grain).enumerate();
                par::map_reduce(tasks, (0, 0), |(ci, s)| sweep(ci * grain, s, None), add)
            }
        };
        ctx.counters.add_edges(edges);
        let admitted = next.as_deref_mut().map_or(0, |next| {
            // each chunk filled a prefix of its own window: moving the
            // prefixes together keeps the input order
            let mut kept = base;
            for at in (base..next.len()).step_by(grain) {
                let window = &next[at..next.len().min(at + grain)];
                let filled =
                    window.iter().position(|&v| v == INVALID_SLOT).unwrap_or(window.len());
                next.copy_within(at..at + filled, kept);
                kept += filled;
            }
            next.truncate(kept);
            kept - base
        });
        (admitted, serial, visited)
    };
    let unset = matches!(spec.input, Input::Unset(_));
    let report = |&(admitted, serial, visited): &(usize, bool, u64)| Report {
        candidates: if unset { visited } else { 0 },
        ..Report::new(
            spec.strategy(serial),
            Some(StepDirection::Pull),
            len as u64,
            admitted as u64,
        )
    };
    let op = Op::Advance { site: "advance:gather", stall: unset };
    if launch(ctx, op, body, report).is_none() {
        if let Some(next) = next {
            next.truncate(base);
        }
    }
}

/// One chunk's sweep in flight: each chunk gathers its vertices into
/// their slots, writing the admitted ones to the front of its window of
/// `next` when there is one, and returns the edges scanned and the
/// vertices visited. Each input form walks in a function of its own, with
/// the fold inlined: with all three walks in one function the compiler
/// stopped inlining the fold, and BC's backward gathers on a road graph
/// took 12–17 % longer per step.
struct Chunk<'c, 'i, 'g> {
    csr: &'c Csr,
    edges: u64,
    visited: u64,
    admitted: usize,
    ids: Option<&'i mut [u32]>,
    poll: AbortPoll<'c, 'g>,
}

impl<'c, 'i, 'g> Chunk<'c, 'i, 'g> {
    fn start(ctx: &'c Context<'g>, csr: &'c Csr, ids: Option<&'i mut [u32]>) -> Option<Self> {
        let poll = AbortPoll::start(ctx)?;
        Some(Chunk { csr, edges: 0, visited: 0, admitted: 0, ids, poll })
    }

    /// Gathers the vertices `vertices` yields into their slots.
    #[inline(never)]
    fn each<'s, S: 's, T, K, M, R, F>(
        ctx: &'c Context<'g>,
        csr: &'c Csr,
        ids: Option<&'i mut [u32]>,
        vertices: impl Iterator<Item = (VertexId, &'s mut S)>,
        fs: (K, T, M, R, F),
    ) -> (u64, u64)
    where
        T: Copy,
        K: Fn(VertexId) -> bool + Copy,
        M: Fn(VertexId, VertexId, EdgeId) -> T + Copy,
        R: Fn(T, T) -> ControlFlow<T, T> + Copy,
        F: Fn(VertexId, T, &mut S) -> bool + Copy,
    {
        let Some(mut chunk) = Chunk::start(ctx, csr, ids) else { return (0, 0) };
        for (v, slot) in vertices {
            if chunk.gather(v, slot, fs) {
                break;
            }
        }
        (chunk.edges, chunk.visited)
    }

    /// Gathers the clear bits of `bits` from bit `at` on (a multiple of
    /// 64) into `slots`, indexed from `at`: a word whose bits are all set
    /// is skipped whole, and the bits past the slots are left out.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn unset<S, T, K, M, R, F>(
        ctx: &'c Context<'g>,
        csr: &'c Csr,
        ids: Option<&'i mut [u32]>,
        bits: &PooledBitmap,
        at: usize,
        slots: &mut [S],
        fs: (K, T, M, R, F),
    ) -> (u64, u64)
    where
        T: Copy,
        K: Fn(VertexId) -> bool + Copy,
        M: Fn(VertexId, VertexId, EdgeId) -> T + Copy,
        R: Fn(T, T) -> ControlFlow<T, T> + Copy,
        F: Fn(VertexId, T, &mut S) -> bool + Copy,
    {
        let Some(mut chunk) = Chunk::start(ctx, csr, ids) else { return (0, 0) };
        'walk: for (wi, word_slots) in (at / 64..).zip(slots.chunks_mut(64)) {
            let mut clear = !bits.load_word(wi);
            if word_slots.len() < 64 {
                clear &= (1 << word_slots.len()) - 1;
            }
            while clear != 0 {
                // CAST: trailing_zeros() < 64 widens losslessly.
                let b = clear.trailing_zeros() as usize;
                clear &= clear - 1;
                // CAST: wi * 64 + b < num_vertices < u32::MAX by Csr::validate.
                if chunk.gather((wi * 64 + b) as VertexId, &mut word_slots[b], fs) {
                    break 'walk;
                }
            }
        }
        (chunk.edges, chunk.visited)
    }

    /// Gathers `v` into `slot`; true when the chunk must stop.
    #[inline(always)]
    fn gather<S, T, K, M, R, F>(
        &mut self,
        v: VertexId,
        slot: &mut S,
        (mask, init, map, reduce, finish): (K, T, M, R, F),
    ) -> bool
    where
        T: Copy,
        K: Fn(VertexId) -> bool,
        M: Fn(VertexId, VertexId, EdgeId) -> T,
        R: Fn(T, T) -> ControlFlow<T, T>,
        F: Fn(VertexId, T, &mut S) -> bool,
    {
        self.visited += 1;
        if !mask(v) {
            return false;
        }
        let range = self.csr.edge_range(v);
        let cols = &self.csr.col_indices()[range.clone()];
        let (acc, scanned) = fold4(cols, range.start, init, |u, e| map(u, v, e), &reduce);
        self.edges += scanned as u64;
        if finish(v, acc, slot) {
            if let Some(ids) = self.ids.as_deref_mut() {
                ids[self.admitted] = v;
                self.admitted += 1;
            }
        }
        self.poll.stop(self.edges)
    }
}

/// Folds `map(u, e)` over one vertex's neighbors `us` (edge ids from
/// `e0`) into four interleaved accumulators, then combines them pairwise;
/// returns the result and the edges scanned. The first `Break` ends the
/// fold with its value, its edge the last one scanned. A list shorter
/// than [`FOLD4_MIN_EDGES`] folds as one chain: there is too little work
/// to interleave, and the setup would dominate.
#[inline(always)]
fn fold4<T: Copy>(
    us: &[VertexId],
    e0: usize,
    init: T,
    map: impl Fn(VertexId, EdgeId) -> T,
    reduce: &impl Fn(T, T) -> ControlFlow<T, T>,
) -> (T, usize) {
    // CAST: e0 + j < num_edges < EdgeId::MAX by Csr::validate.
    let edge = |j: usize| (e0 + j) as EdgeId;
    if us.len() < FOLD4_MIN_EDGES {
        let mut acc = init;
        for (j, &u) in us.iter().enumerate() {
            match reduce(acc, map(u, edge(j))) {
                ControlFlow::Continue(a) => acc = a,
                ControlFlow::Break(hit) => return (hit, j + 1),
            }
        }
        return (acc, us.len());
    }
    let mut acc = [init; 4];
    let mut quads = us.chunks_exact(4);
    let mut at = 0;
    for quad in &mut quads {
        for (j, &u) in quad.iter().enumerate() {
            match reduce(acc[j], map(u, edge(at + j))) {
                ControlFlow::Continue(a) => acc[j] = a,
                ControlFlow::Break(hit) => return (hit, at + j + 1),
            }
        }
        at += 4;
    }
    for (j, &u) in quads.remainder().iter().enumerate() {
        match reduce(acc[j], map(u, edge(at + j))) {
            ControlFlow::Continue(a) => acc[j] = a,
            ControlFlow::Break(hit) => return (hit, at + j + 1),
        }
    }
    let value = |c: ControlFlow<T, T>| match c {
        ControlFlow::Continue(v) | ControlFlow::Break(v) => v,
    };
    (value(reduce(value(reduce(acc[0], acc[1])), value(reduce(acc[2], acc[3])))), us.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::EngineConfig;
    use gunrock_graph::{Coo, GraphBuilder};

    use std::ops::ControlFlow::{Break, Continue};

    #[test]
    fn fold4_covers_every_edge_once_at_every_length() {
        for len in 0..14u32 {
            let us: Vec<u32> = (0..len).collect();
            let sum =
                fold4(&us, 100, 0u64, |u, e| u64::from(u) * 1000 + u64::from(e), &|a, b| {
                    Continue(a + b)
                });
            let want: u64 = (0..len).map(|u| u64::from(u) * 1000 + 100 + u64::from(u)).sum();
            assert_eq!(sum, (want, len as usize), "len {len}");
            let min = fold4(&us, 0, u32::MAX, |u, _| 50 - u, &|a: u32, b| Continue(a.min(b)));
            assert_eq!(min.0, if len == 0 { u32::MAX } else { 51 - len }, "len {len}");
        }
    }

    #[test]
    fn fold4_stops_at_the_first_break_in_edge_order() {
        for len in 1..14u32 {
            let us: Vec<u32> = (0..len).rev().collect();
            // the first neighbor below 3 sits at edge len - 3, or the last
            let first = len.saturating_sub(3) as usize;
            let hit = fold4(&us, 0, u32::MAX, |u, _| u, &|a, b| {
                if b < 3 {
                    Break(b)
                } else {
                    Continue(a)
                }
            });
            assert_eq!(hit, (us[first], first + 1), "len {len}");
        }
    }

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
            GatherSpec::range(0..5),
            &mut sums,
            Some(&mut next),
            |_| true,
            0u32,
            |_u, _v, e| rev.weight(e),
            |a, b| Continue(a + b),
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
            GatherSpec::range(2..4),
            &mut mins,
            Some(&mut next),
            |_| true,
            u32::MAX,
            |u, _v, _e| u,
            |a, b| Continue(a.min(b)),
            |_v, min, slot| {
                *slot = min;
                false
            },
        );
        assert_eq!(mins, vec![0, 0], "vertices 2 and 3 both hang off the hub");
        assert_eq!(next, vec![9, 9, 9], "admitted ids are appended to what is there");
        assert_eq!(ctx.counters.edges(), 2);
    }

    #[test]
    fn list_over_out_edges_keeps_input_order_without_a_reverse_graph() {
        let (g, _) = weighted_star();
        let ctx = Context::new(&g);
        let mut sums = vec![0u32; 3];
        let mut next = Vec::new();
        advance_gather(
            &ctx,
            GatherSpec::list(&[4, 1, 0]).out_edges(),
            &mut sums,
            Some(&mut next),
            |_| true,
            0u32,
            |_u, _v, e| g.weight(e),
            |a, b| Continue(a + b),
            |_v, sum, slot| {
                *slot = sum;
                sum > 0
            },
        );
        assert_eq!(sums, vec![7, 0, 35], "slot i belongs to the i-th listed vertex");
        assert_eq!(next, vec![4, 0]);
    }

    #[test]
    fn chunked_sweep_matches_the_serial_fast_path() {
        use gunrock_graph::generators::rmat;
        let g = GraphBuilder::new().build(rmat(9, 8, Default::default(), 3));
        let n = g.num_vertices();
        let list: Vec<u32> = (0..n as u32).rev().filter(|v| v % 5 != 0).collect();
        let run = |config: EngineConfig, spec: GatherSpec<'_>, len: usize| {
            let ctx = Context::new(&g).with_reverse(&g).with_config(config).with_stats();
            let mut sums = vec![0u64; len];
            let mut next = Vec::new();
            advance_gather(
                &ctx,
                spec,
                &mut sums,
                Some(&mut next),
                |v| v % 7 != 0,
                0u64,
                |u, _v, _e| u64::from(u),
                |a, b| Continue(a + b),
                |v, sum, slot| {
                    *slot = sum;
                    v % 3 == 0
                },
            );
            (sums, next, ctx.run_stats().steps[0].strategy)
        };
        let (chunked, serial) = (
            EngineConfig::new().with_serial_threshold(0),
            EngineConfig::new().with_serial_threshold(1 << 20),
        );
        for (spec, ids, name) in [
            (GatherSpec::range(0..n as u32), (0..n as u32).collect::<Vec<_>>(), "pull_gather"),
            (GatherSpec::list(&list), list.clone(), "pull_gather:list"),
        ] {
            let (sums, next, strategy) = run(chunked, spec.clone(), ids.len());
            assert_eq!(strategy, name);
            let (serial_sums, serial_next, strategy) = run(serial, spec, ids.len());
            assert_eq!(strategy, format!("{name}:serial"));
            assert_eq!(sums, serial_sums);
            assert_eq!(next, serial_next);
            let unmasked = |v: &u32| !v.is_multiple_of(7);
            let admitted: Vec<u32> =
                ids.iter().copied().filter(unmasked).filter(|v| v % 3 == 0).collect();
            assert_eq!(next, admitted);
            for (&v, &sum) in ids.iter().zip(&sums) {
                let want: u64 = if unmasked(&v) {
                    g.neighbors(v).iter().map(|&u| u64::from(u)).sum()
                } else {
                    0
                };
                assert_eq!(sum, want, "vertex {v}");
            }
        }
    }

    #[test]
    fn unset_walk_splits_on_words_and_matches_the_serial_path() {
        use gunrock_graph::generators::erdos_renyi;
        // several word chunks, a partial tail word, and whole set words
        let n = 3 * 4096 + 37;
        let g = GraphBuilder::new().build(erdos_renyi(n, 4 * n, 9));
        let run = |threshold: usize| {
            let config = EngineConfig::new().with_serial_threshold(threshold);
            let ctx = Context::new(&g).with_reverse(&g).with_config(config).with_stats();
            let visited = PooledBitmap::take(ctx.pool(), n);
            for v in (0..n).filter(|v| v.is_multiple_of(3) || (640..1280).contains(v)) {
                visited.set(v);
            }
            let mut firsts = vec![u32::MAX; n];
            let mut next = Vec::new();
            advance_gather(
                &ctx,
                GatherSpec::unset(&visited),
                &mut firsts,
                Some(&mut next),
                |_| true,
                u32::MAX,
                |u, _v, _e| if u % 5 == 0 { u } else { u32::MAX },
                |a, b| if b == u32::MAX { Continue(a) } else { Break(b) },
                |_v, first, slot| {
                    *slot = first;
                    first != u32::MAX
                },
            );
            let step = ctx.run_stats().steps[0].clone();
            (firsts, next, ctx.counters.edges(), step)
        };
        let (firsts, next, edges, step) = run(0);
        assert_eq!(step.strategy, "pull_gather:unset");
        let serial = run(1 << 20);
        assert_eq!(serial.3.strategy, "pull_gather:unset:serial");
        assert_eq!((&firsts, &next, edges), (&serial.0, &serial.1, serial.2));
        let clear = |v: &usize| !v.is_multiple_of(3) && !(640..1280).contains(v);
        assert_eq!(step.candidates_len, (0..n).filter(clear).count() as u64);
        assert_eq!(step.output_len, next.len() as u64);
        let mut scanned = 0;
        for (v, &first) in firsts.iter().enumerate() {
            let us = g.neighbors(v as u32);
            let hit = us.iter().position(|u| u % 5 == 0);
            let want = match hit {
                Some(i) if clear(&v) => us[i],
                _ => u32::MAX,
            };
            assert_eq!(first, want, "vertex {v}");
            if clear(&v) {
                scanned += hit.map_or(us.len(), |i| i + 1) as u64;
            }
        }
        assert_eq!(edges, scanned, "edges count up to and including each hit");
        assert!(next.windows(2).all(|w| w[0] < w[1]), "admitted ids come back ascending");
    }

    #[test]
    fn only_the_unset_form_consults_the_stall_site() {
        use gunrock_engine::faults::{FaultInjector, FaultKind, FaultPlan};
        use std::sync::Arc;
        let (g, rev) = weighted_star();
        let visited = PooledBitmap::take(&gunrock_engine::pool::BufferPool::new(), 5);
        for unset in [false, true] {
            // a stall rate that never fires still draws once per consultation
            let plan = FaultPlan::none(3).with_rate(FaultKind::Stall, 1e-12);
            let injector = Arc::new(FaultInjector::new(plan));
            let ctx = Context::new(&g).with_reverse(&rev).with_faults(Arc::clone(&injector));
            let spec =
                if unset { GatherSpec::unset(&visited) } else { GatherSpec::range(0..5) };
            let mut out = vec![0u32; 5];
            advance_gather(
                &ctx,
                spec,
                &mut out,
                None,
                |_| true,
                0,
                |_, _, _| 1,
                |a, b| Continue(a + b),
                |_, _, _| false,
            );
            assert_eq!(injector.draws(), u64::from(unset), "unset {unset}");
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
            GatherSpec::range(0..5),
            &mut out,
            Some(&mut next),
            |_| true,
            0,
            |_, _, _| 1,
            |a, b| Continue(a + b),
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
            next.clear();
            advance_gather(
                ctx,
                GatherSpec::range(0..n),
                &mut out,
                Some(&mut next),
                |_| true,
                0u32,
                |_, _, _| 1,
                |a, b| Continue(a + b),
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
