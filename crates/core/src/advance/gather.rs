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
//! * the input is a vertex **range** (a dense sweep) or a **list** (a
//!   frontier's ids, each listed once);
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
//! A vertex with at least eight edges folds them into four interleaved
//! accumulators (edge `i` into accumulator `i % 4`), combined pairwise at
//! the end, so a floating-point sum runs as four independent dependency
//! chains rather than one; a shorter list folds in edge-list order. The
//! order is fixed per vertex, whatever the thread count: results are
//! bit-identical across pools.

use crate::context::Context;
use crate::isolate::{launch, AbortPoll, Op, Report};
use crate::util::grain_size;
use gunrock_engine::par;
use gunrock_engine::stats::StepDirection;
use gunrock_graph::{Csr, EdgeId, VertexId};
use std::ops::Range;

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
        }
    }
}

/// Runs one gather over the vertices `spec` names.
///
/// The `i`-th input vertex `v` owns the slot `out[i]`. When `mask(v)` is
/// false, `v` is skipped: none of its edges is scanned, `finish` is not
/// called and `v` is not admitted. Otherwise `map(u, v, e)` is folded
/// with `reduce` (associative and commutative, with `init` its identity:
/// the module docs give the fold order), over `v`'s edges to its neighbors
/// `u` — the in-edges `(u, v)` of the reverse graph by default, the
/// out-edges `(v, u)` of the forward graph under
/// [`GatherSpec::out_edges`]; `e` is the edge id in that graph — and the
/// result goes to `finish(v, reduced, slot)`, which updates the slot and
/// decides whether `v` joins the next frontier. The admitted vertices are
/// appended to `next` in input order; the gather needs room for the whole
/// input past `next`'s length, and a buffer whose capacity covers it
/// allocates nothing. With `next` = `None` the gather runs for its effect
/// only and `finish`'s verdict is dropped.
///
/// The step record reports the input's length as `input_len` — which
/// vertices carry a value is the caller's business (`map` returns the
/// identity for the rest).
///
/// Launches through the operator frame (fault site `advance:gather`): a
/// failed launch appends nothing. A raised cancel or passed deadline
/// truncates the sweep unless a checkpoint policy is active: `finish`
/// has then run for only some vertices, so an enact loop that ends on an
/// empty frontier must ask its guard before reporting convergence.
///
/// Requires `out.len()` equal to the input's length, and a reverse graph
/// ([`Context::with_reverse`]) unless the gather is over out-edges.
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
    K: Fn(VertexId) -> bool + Sync,
    M: Fn(VertexId, VertexId, EdgeId) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
    F: Fn(VertexId, T, &mut S) -> bool + Sync,
{
    let csr = if spec.out_edges { ctx.graph } else { ctx.reverse_graph() };
    let len = spec.len();
    if let Input::Range(r) = &spec.input {
        // CAST: vertex ids widen u32 -> usize for indexing — lossless.
        assert!(r.end as usize <= csr.num_vertices(), "gather range must lie inside the graph");
    }
    assert_eq!(out.len(), len, "one output slot per input vertex");
    if len == 0 {
        return;
    }
    // the window past `next`'s end where each chunk emits into its part
    let base = next.as_ref().map_or(0, |next| next.len());
    // the chunk starting at input position `at`
    let sweep = |at: usize, slots: &mut [S], ids: Option<&mut [u32]>| match &spec.input {
        // CAST: at < range.len() <= u32::MAX.
        Input::Range(r) => sweep_chunk(
            ctx,
            csr,
            r.start + at as u32..,
            slots,
            ids,
            &mask,
            init,
            &map,
            &reduce,
            &finish,
        ),
        Input::List(list) => sweep_chunk(
            ctx,
            csr,
            list[at..].iter().copied(),
            slots,
            ids,
            &mask,
            init,
            &map,
            &reduce,
            &finish,
        ),
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
            };
        if let Some(next) = next.as_deref_mut() {
            next.resize(base + len, INVALID_SLOT);
        }
        let window = next.as_deref_mut().map(|next| &mut next[base..]);
        let edges = if serial {
            sweep(0, out, window)
        } else {
            let grain = grain_size(len);
            let add = |a, b| a + b;
            match window {
                Some(window) => {
                    let tasks = out.chunks_mut(grain).zip(window.chunks_mut(grain)).enumerate();
                    par::map_reduce(
                        tasks,
                        0,
                        |(ci, (s, ids))| sweep(ci * grain, s, Some(ids)),
                        add,
                    )
                }
                None => {
                    let tasks = out.chunks_mut(grain).enumerate();
                    par::map_reduce(tasks, 0, |(ci, s)| sweep(ci * grain, s, None), add)
                }
            }
        };
        ctx.counters.add_edges(edges);
        let admitted = next.as_deref_mut().map_or(0, |next| {
            // each chunk filled a prefix of its own window; closing the
            // gaps keeps the input order
            let mut kept = base;
            for i in base..next.len() {
                if next[i] != INVALID_SLOT {
                    next[kept] = next[i];
                    kept += 1;
                }
            }
            next.truncate(kept);
            kept - base
        });
        (admitted, serial)
    };
    let report = |&(admitted, serial): &(usize, bool)| {
        Report::new(
            spec.strategy(serial),
            Some(StepDirection::Pull),
            len as u64,
            admitted as u64,
        )
    };
    if launch(ctx, Op::Advance { site: "advance:gather", stall: false }, body, report).is_none()
    {
        if let Some(next) = next {
            next.truncate(base);
        }
    }
}

/// Gathers the vertices `vertices` yields into `slots` (one each, in
/// order), writing the admitted ones to the front of `ids` when there is
/// one. Returns the edges scanned.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_chunk<S, T, K, M, R, F>(
    ctx: &Context<'_>,
    csr: &Csr,
    vertices: impl Iterator<Item = VertexId>,
    slots: &mut [S],
    mut ids: Option<&mut [u32]>,
    mask: &K,
    init: T,
    map: &M,
    reduce: &R,
    finish: &F,
) -> u64
where
    T: Copy,
    K: Fn(VertexId) -> bool,
    M: Fn(VertexId, VertexId, EdgeId) -> T,
    R: Fn(T, T) -> T,
    F: Fn(VertexId, T, &mut S) -> bool,
{
    let cols = csr.col_indices();
    let mut edges = 0u64;
    let Some(mut poll) = AbortPoll::start(ctx) else { return edges };
    let mut admitted = 0usize;
    for (v, slot) in vertices.zip(slots.iter_mut()) {
        if !mask(v) {
            continue;
        }
        let range = csr.edge_range(v);
        let acc = fold4(&cols[range.clone()], range.start, init, |u, e| map(u, v, e), reduce);
        edges += range.len() as u64;
        if finish(v, acc, slot) {
            if let Some(ids) = ids.as_deref_mut() {
                ids[admitted] = v;
                admitted += 1;
            }
        }
        if poll.stop(edges) {
            break;
        }
    }
    edges
}

/// Folds `map(u, e)` over one vertex's neighbors `us` (edge ids from
/// `e0`) into four interleaved accumulators, then combines them pairwise.
/// A list shorter than [`FOLD4_MIN_EDGES`] folds as one chain: there is
/// too little work to interleave, and the setup would dominate.
#[inline]
fn fold4<T: Copy>(
    us: &[VertexId],
    e0: usize,
    init: T,
    map: impl Fn(VertexId, EdgeId) -> T,
    reduce: &impl Fn(T, T) -> T,
) -> T {
    if us.len() < FOLD4_MIN_EDGES {
        // CAST: e0 + j < num_edges < EdgeId::MAX by Csr::validate.
        return us
            .iter()
            .enumerate()
            .fold(init, |a, (j, &u)| reduce(a, map(u, (e0 + j) as EdgeId)));
    }
    let mut acc = [init; 4];
    let mut quads = us.chunks_exact(4);
    let mut e = e0;
    for quad in &mut quads {
        for (j, &u) in quad.iter().enumerate() {
            // CAST: e + j < num_edges < EdgeId::MAX by Csr::validate.
            acc[j] = reduce(acc[j], map(u, (e + j) as EdgeId));
        }
        e += 4;
    }
    for (j, &u) in quads.remainder().iter().enumerate() {
        // CAST: e + j < num_edges < EdgeId::MAX by Csr::validate.
        acc[j] = reduce(acc[j], map(u, (e + j) as EdgeId));
    }
    reduce(reduce(acc[0], acc[1]), reduce(acc[2], acc[3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::EngineConfig;
    use gunrock_graph::{Coo, GraphBuilder};

    #[test]
    fn fold4_covers_every_edge_once_at_every_length() {
        for len in 0..14u32 {
            let us: Vec<u32> = (0..len).collect();
            let sum =
                fold4(&us, 100, 0u64, |u, e| u64::from(u) * 1000 + u64::from(e), &|a, b| a + b);
            let want: u64 = (0..len).map(|u| u64::from(u) * 1000 + 100 + u64::from(u)).sum();
            assert_eq!(sum, want, "len {len}");
            let min = fold4(&us, 0, u32::MAX, |u, _| 50 - u, &|a: u32, b| a.min(b));
            assert_eq!(min, if len == 0 { u32::MAX } else { 51 - len }, "len {len}");
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
            GatherSpec::range(2..4),
            &mut mins,
            Some(&mut next),
            |_| true,
            u32::MAX,
            |u, _v, _e| u,
            |a, b| a.min(b),
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
            |a, b| a + b,
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
                |a, b| a + b,
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
            next.clear();
            advance_gather(
                ctx,
                GatherSpec::range(0..n),
                &mut out,
                Some(&mut next),
                |_| true,
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
