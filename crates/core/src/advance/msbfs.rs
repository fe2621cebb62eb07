//! Bit-parallel multi-source batched advance (MS-BFS; PAPERS.md).
//!
//! The frontier abstraction amortizes one sweep over many vertices; lane
//! packing amortizes one sweep over many *traversals*. Up to
//! [`LANES`](gunrock_engine::lanes::LANES) independent source queries run
//! in a single traversal: vertex `v` carries one `u64` frontier word
//! whose bit `l` means "lane `l` reached `v` this level", and a matching
//! `seen` word accumulating every lane that has ever reached `v`.
//!
//! One batched level is two phases inside one kernel launch, each a walk
//! of a lane map's occupancy bitmap (`gunrock_engine::lanes`): it visits
//! the vertices whose word is non-zero, in vertex order, and skips the
//! rest 64 at a time. A level costs what is live, not `n` — on a
//! high-diameter graph a few thousand of a quarter million words.
//!
//! 1. **Scatter** — every active vertex ORs its whole frontier word into
//!    each out-neighbor's `next` word with a single `fetch_or`: up to 64
//!    traversals' worth of discovery per atomic, per edge. The OR that
//!    takes a `next` word from zero marks it in `next`'s bitmap. On one
//!    thread the ORs are plain loads and stores (the `Sole` access).
//! 2. **Update** — [`LaneMap::settle`] walks `next`'s bitmap in disjoint
//!    blocks without atomics: `new = next & !seen`, `seen |= new`,
//!    `next = new`, and a word left zero loses its bit. A visitor
//!    callback sees each discovered vertex once with its new-lane word,
//!    which is where per-lane depth extraction lives.
//!
//! Below `EngineConfig::serial_threshold` active vertices both phases
//! walk the whole map as one block on the calling thread (mirroring the
//! push-side serial fast path), so tiny levels skip the fork/join
//! entirely.

use crate::context::Context;
use crate::isolate::{launch, AbortPoll, Op, Report};
use crate::util::grain_size;
use gunrock_engine::atomics::{Access, Shared, Sole};
use gunrock_engine::lanes::{LaneMap, Walk};
use gunrock_engine::par;
use gunrock_engine::stats::StepDirection;

/// Result of one batched advance level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsbfsSweep {
    /// Vertices that gained at least one new lane this level (each
    /// counted once, however many lanes reached it).
    pub discovered: u64,
    /// OR over every discovered vertex's new-lane word: bit `l` set
    /// means lane `l` discovered something this level and is still live.
    /// The caller feeds this back as the next level's `frontier_lanes`.
    pub lanes: u64,
}

/// Runs one bit-parallel multi-source advance level.
///
/// `frontier` holds the current level's lane words, `seen` the
/// accumulated discovery words, and `next` — which **must be all zero on
/// entry** — receives the new frontier: after the sweep `next[v]` is
/// exactly the set of lanes that discovered `v` this level. Callers
/// ping-pong `frontier`/`next` between levels (swap, then clear the new
/// scratch map).
///
/// `active` is the number of vertices with a non-zero `frontier` word
/// (the previous sweep's `discovered`; the distinct-source count at the
/// seed level) and `frontier_lanes` the OR over the frontier's words
/// (the previous sweep's `lanes`; the batch mask at the seed level) —
/// both are carried by the caller so the operator never pays an extra
/// O(n) sweep just for bookkeeping. They feed the serial-fast-path gate
/// and the `msbfs` StepRecord's `lanes_active` field respectively.
///
/// `visitor(v, new_lanes)` is invoked exactly once per discovered vertex
/// from disjoint word ranges (never twice for one vertex in one level),
/// which is where per-lane depth extraction hooks in.
///
/// Launches through the operator frame (fault site `advance:msbfs`): a
/// failed launch returns an empty sweep.
///
/// All three lane maps must span `ctx.num_vertices()` words.
pub fn advance_msbfs<V>(
    ctx: &Context<'_>,
    frontier: &LaneMap,
    seen: &mut LaneMap,
    next: &mut LaneMap,
    active: u64,
    frontier_lanes: u64,
    visitor: V,
) -> MsbfsSweep
where
    V: Fn(u32, u64) + Sync,
{
    let n = ctx.num_vertices();
    assert_eq!(frontier.len(), n, "frontier lane map must span the graph");
    assert_eq!(seen.len(), n, "seen lane map must span the graph");
    assert_eq!(next.len(), n, "next lane map must span the graph");
    let t = ctx.config.serial_threshold;
    // CAST: active is a vertex count < u32::MAX; widening compare only.
    let serial = t > 0 && active as usize <= t;
    let grain = grain_size(n);
    let body = || {
        let (seen_ref, next_ref) = (&*seen, &*next);
        let blocks = frontier.par_walk(grain);
        // with one writer (the serial path, or the blocks on one thread)
        // the ORs into `next` are loads and stores
        let edges = if serial {
            scatter(ctx, frontier.walk(), seen_ref, next_ref, Sole)
        } else if par::threads() == 1 {
            let scan = |w| scatter(ctx, w, seen_ref, next_ref, Sole);
            par::map_reduce(blocks, 0, scan, |a, b| a + b)
        } else {
            let scan = |w| scatter(ctx, w, seen_ref, next_ref, Shared);
            par::map_reduce(blocks, 0, scan, |a, b| a + b)
        };
        ctx.counters.add_edges(edges);
        // Phase boundary: the scatter's atomic ORs and the update's plain
        // stores never overlap in time.
        gunrock_engine::racecheck::begin_phase();
        let (discovered, lanes) = if serial {
            next.settle(seen, &visitor)
        } else {
            next.par_settle(seen, grain, &visitor)
        };
        MsbfsSweep { discovered, lanes }
    };
    let report = |sweep: &MsbfsSweep| Report {
        lanes: u64::from(frontier_lanes.count_ones()),
        ..Report::new(
            if serial { "msbfs:serial" } else { "msbfs" },
            Some(StepDirection::Push),
            active,
            sweep.discovered,
        )
    };
    launch(ctx, Op::Advance { site: "advance:msbfs", stall: false }, body, report)
        .unwrap_or_default()
}

/// One lane-packed push round that a primitive sweeps itself (the
/// multi-source PPR residual push, which mirrors [`advance_msbfs`]'s
/// scatter), launched as an advance that consults the fault site `site`
/// and is recorded with `strategy`. `body` reads the lane words of
/// `frontier`, ORs the lanes it reaches into `next`, and returns the
/// edges it scanned. The record's input is `frontier`'s active vertices,
/// its lanes their union, and its output `next`'s active vertices after
/// the round. Returns `false` when the round did not complete: the
/// context is poisoned and the run ends `Failed` at its next boundary.
pub fn advance_lanes(
    ctx: &Context<'_>,
    strategy: &'static str,
    site: &'static str,
    frontier: &LaneMap,
    next: &LaneMap,
    body: impl FnOnce() -> u64,
) -> bool {
    let report = |_: &()| Report {
        lanes: u64::from(frontier.union_lanes().count_ones()),
        ..Report::new(
            strategy,
            Some(StepDirection::Push),
            frontier.count_active() as u64,
            next.count_active() as u64,
        )
    };
    launch(ctx, Op::Advance { site, stall: false }, || ctx.counters.add_edges(body()), report)
        .is_some()
}

/// Phase 1 over one walk of the frontier (the whole map on the serial
/// path, one block per task otherwise): every active vertex ORs the lanes
/// each out-neighbor `u` has not seen into `next[u]` through `access`,
/// and the walk returns the edges it scanned. Lanes the neighbor has
/// already seen are culled before the OR (the update would drop them
/// anyway via `next & !seen`). A shared writer also culls an OR `next[u]`
/// already holds: a read, not a cache-line-dirtying RMW (two blocks can
/// both pass that check; the OR is idempotent, so the race costs a
/// duplicate RMW, never a lost lane). A sole writer ORs without the
/// branch, as a plain loop would. `seen` is read-only during this
/// phase (the update that mutates it runs strictly after), so the loads
/// race with nothing.
fn scatter<A: Access>(
    ctx: &Context<'_>,
    walk: Walk<'_>,
    seen: &LaneMap,
    next: &LaneMap,
    access: A,
) -> u64 {
    let g = ctx.graph;
    let cols = g.col_indices();
    let mut edges = 0u64;
    // a raised cancel/deadline truncates this walk, or skips it when
    // raised before the walk starts
    let Some(mut poll) = AbortPoll::start(ctx) else { return edges };
    for (v, fword) in walk {
        // CAST: v < num_vertices < u32::MAX by Csr::validate.
        for e in g.edge_range(v as u32) {
            edges += 1;
            // CAST: u widens u32 -> usize for lane-map indexing — lossless.
            let u = cols[e] as usize;
            let want = fword & !seen.load(u);
            if want != 0 && (A::SOLE || next.load(u) & want != want) {
                next.fetch_or(access, u, want);
            }
        }
        if poll.stop(edges) {
            break;
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::lanes::{lane_mask, LaneMap};
    use gunrock_engine::EngineConfig;
    use gunrock_graph::{Coo, GraphBuilder};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn path4() -> gunrock_graph::Csr {
        // directed path 0 -> 1 -> 2 -> 3
        GraphBuilder::new().directed().build(Coo::from_edges(4, &[(0, 1), (1, 2), (2, 3)]))
    }

    fn run_level(
        ctx: &Context<'_>,
        frontier: &LaneMap,
        seen: &mut LaneMap,
        next: &mut LaneMap,
        active: u64,
        lanes: u64,
    ) -> (MsbfsSweep, Vec<(u32, u64)>) {
        let log = std::sync::Mutex::new(Vec::new());
        let sweep = advance_msbfs(ctx, frontier, seen, next, active, lanes, |v, nl| {
            log.lock().unwrap().push((v, nl));
        });
        let mut hits = log.into_inner().unwrap();
        hits.sort_unstable();
        (sweep, hits)
    }

    #[test]
    fn two_lanes_advance_independently() {
        let g = path4();
        let ctx = Context::new(&g);
        let mut frontier = LaneMap::take(ctx.pool(), 4);
        let mut seen = LaneMap::take(ctx.pool(), 4);
        let mut next = LaneMap::take(ctx.pool(), 4);
        // lane 0 from vertex 0, lane 1 from vertex 2
        frontier.set_lane(0, 0);
        frontier.set_lane(2, 1);
        seen.set_lane(0, 0);
        seen.set_lane(2, 1);
        let (s1, hits) = run_level(&ctx, &frontier, &mut seen, &mut next, 2, 0b11);
        assert_eq!(s1.discovered, 2, "lane 0 reaches 1, lane 1 reaches 3");
        assert_eq!(s1.lanes, 0b11);
        assert_eq!(hits, vec![(1, 0b01), (3, 0b10)]);
        // ping-pong: next becomes the frontier, old frontier is scratch
        std::mem::swap(&mut frontier, &mut next);
        next.clear_all();
        let (s2, hits) = run_level(&ctx, &frontier, &mut seen, &mut next, 2, s1.lanes);
        assert_eq!(s2.discovered, 1, "only lane 0 still moving (1 -> 2)");
        assert_eq!(s2.lanes, 0b01, "lane 1 retired at the path end");
        assert_eq!(hits, vec![(2, 0b01)]);
        for lm in [frontier, seen, next] {
            lm.release(ctx.pool());
        }
    }

    #[test]
    fn seen_lanes_are_not_rediscovered() {
        // triangle 0 -> 1 -> 2 -> 0
        let g =
            GraphBuilder::new().directed().build(Coo::from_edges(3, &[(0, 1), (1, 2), (2, 0)]));
        let ctx = Context::new(&g);
        let mut frontier = LaneMap::take(ctx.pool(), 3);
        let mut seen = LaneMap::take(ctx.pool(), 3);
        let mut next = LaneMap::take(ctx.pool(), 3);
        frontier.set_lane(0, 0);
        seen.set_lane(0, 0);
        let mut total = 0;
        let mut active = 1u64;
        let mut lanes = lane_mask(1);
        for _ in 0..4 {
            let (s, _) = run_level(&ctx, &frontier, &mut seen, &mut next, active, lanes);
            total += s.discovered;
            active = s.discovered;
            lanes = s.lanes;
            std::mem::swap(&mut frontier, &mut next);
            next.clear_all();
        }
        assert_eq!(total, 2, "lane 0 visits 1 and 2 once, then goes quiet");
        assert_eq!(lanes, 0);
        for lm in [frontier, seen, next] {
            lm.release(ctx.pool());
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        // star hub plus a tail, 64 lanes all seeded at the hub
        let mut edges: Vec<(u32, u32)> = (1..40).map(|v| (0, v)).collect();
        edges.push((39, 40));
        let g = GraphBuilder::new().directed().build(Coo::from_edges(41, &edges));
        let n = 41usize;
        let depths_for = |config: EngineConfig| {
            let ctx = Context::new(&g).with_config(config);
            let mut frontier = LaneMap::take(ctx.pool(), n);
            let mut seen = LaneMap::take(ctx.pool(), n);
            let mut next = LaneMap::take(ctx.pool(), n);
            for l in 0..64 {
                frontier.set_lane(0, l);
                seen.set_lane(0, l);
            }
            let depths: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
            let mut active = 1u64;
            let mut lanes = u64::MAX;
            let mut level = 1u32;
            while active > 0 {
                let s = advance_msbfs(
                    &ctx,
                    &frontier,
                    &mut seen,
                    &mut next,
                    active,
                    lanes,
                    |v, _| {
                        depths[v as usize].store(level, Ordering::Relaxed);
                    },
                );
                active = s.discovered;
                lanes = s.lanes;
                level += 1;
                std::mem::swap(&mut frontier, &mut next);
                next.clear_all();
            }
            for lm in [frontier, seen, next] {
                lm.release(ctx.pool());
            }
            depths.into_iter().map(|d| d.into_inner()).collect::<Vec<_>>()
        };
        // threshold 0 disables the serial path; a huge threshold forces it
        let parallel = depths_for(EngineConfig::default().with_serial_threshold(0));
        let serial = depths_for(EngineConfig::default().with_serial_threshold(1 << 20));
        assert_eq!(parallel, serial);
        assert_eq!(parallel[1], 1);
        assert_eq!(parallel[40], 2);
    }

    #[test]
    fn msbfs_steps_carry_lane_counts() {
        let g = path4();
        let ctx = Context::new(&g).with_stats();
        let frontier = LaneMap::take(ctx.pool(), 4);
        let mut seen = LaneMap::take(ctx.pool(), 4);
        let mut next = LaneMap::take(ctx.pool(), 4);
        frontier.set_lane(0, 0);
        frontier.set_lane(0, 5);
        seen.set_lane(0, 0);
        seen.set_lane(0, 5);
        let s = advance_msbfs(&ctx, &frontier, &mut seen, &mut next, 1, 0b100001, |_, _| {});
        assert_eq!(s.discovered, 1);
        let stats = ctx.run_stats();
        let step = &stats.steps[0];
        assert_eq!(step.strategy, "msbfs:serial");
        assert_eq!(step.lanes_active, 2);
        assert_eq!(step.output_len, 1);
        for lm in [frontier, seen, next] {
            lm.release(ctx.pool());
        }
    }

    #[test]
    fn injected_panic_poisons_and_returns_empty_sweep() {
        use gunrock_engine::faults::{FaultInjector, FaultKind, FaultPlan};
        use std::sync::Arc;
        let g = path4();
        let plan = FaultPlan::none(3).with_rate(FaultKind::Panic, 1.0);
        let ctx = Context::new(&g).with_faults(Arc::new(FaultInjector::new(plan)));
        let frontier = LaneMap::take(ctx.pool(), 4);
        let mut seen = LaneMap::take(ctx.pool(), 4);
        let mut next = LaneMap::take(ctx.pool(), 4);
        frontier.set_lane(0, 0);
        seen.set_lane(0, 0);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let s = advance_msbfs(&ctx, &frontier, &mut seen, &mut next, 1, 1, |_, _| {});
        std::panic::set_hook(prev);
        assert_eq!(s, MsbfsSweep::default());
        assert!(ctx.is_poisoned());
        for lm in [frontier, seen, next] {
            lm.release(ctx.pool());
        }
    }
}
