//! Primitives from the paper's "developing or actively developing" list
//! (§5.5): maximal independent set and graph coloring — both natural
//! fits for the filter-centric abstraction (priority-based selection is
//! a frontier filter).

use gunrock::prelude::*;
use gunrock_graph::Csr;
use rayon::prelude::*;

/// Deterministic per-vertex random priority (splitmix-style hash).
#[inline]
fn priority(v: u32, seed: u64) -> u64 {
    let mut x = seed ^ ((v as u64) << 1 | 1);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// MIS output.
#[derive(Clone, Debug)]
pub struct MisResult {
    /// Membership mask: `true` means the vertex is in the set.
    pub in_set: Vec<bool>,
    /// Selection rounds executed.
    pub rounds: u32,
    /// How the loop ended. On a partial outcome the mask is independent
    /// (no two members adjacent) but possibly not yet *maximal*: some
    /// vertices are still undecided and marked `false`.
    pub outcome: RunOutcome,
}

/// Luby's maximal independent set: iteratively select undecided vertices
/// whose random priority beats every undecided neighbor, then drop their
/// neighbors; repeat until all vertices are decided.
pub fn maximal_independent_set(ctx: &Context<'_>, seed: u64) -> MisResult {
    let g = ctx.graph;
    let n = g.num_vertices();
    const UNDECIDED: u8 = 0;
    const IN_SET: u8 = 1;
    const EXCLUDED: u8 = 2;
    let state: Vec<std::sync::atomic::AtomicU8> =
        (0..n).map(|_| std::sync::atomic::AtomicU8::new(UNDECIDED)).collect();
    use std::sync::atomic::Ordering;
    let mut frontier = Frontier::full(n);
    let mut run = Enactment::arm(ctx, 0);
    while !frontier.is_empty() && !run.boundary(no_snapshot) {
        let rseed = seed.wrapping_add(u64::from(run.iterations()) + 1);
        // selection filter: local maxima among undecided neighbors join
        let winners: Vec<u32> = frontier
            .as_slice()
            .par_iter()
            .copied()
            .filter(|&v| {
                let pv = priority(v, rseed);
                g.neighbors(v).iter().all(|&u| {
                    u == v
                        // ORDERING: Relaxed — per-cell status flips are idempotent race winners;
                        // round-to-round visibility comes from the join barrier.
                        || state[u as usize].load(Ordering::Relaxed) != UNDECIDED
                        || (priority(u, rseed), u) < (pv, v)
                })
            })
            .collect();
        for &v in &winners {
            state[v as usize].store(IN_SET, Ordering::Relaxed);
        }
        // exclusion compute: winners' neighbors leave the game
        compute::for_each(&Frontier::from_vec(winners), |v| {
            for &u in g.neighbors(v) {
                let _ = state[u as usize].compare_exchange(
                    UNDECIDED,
                    EXCLUDED,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        });
        // filter: undecided vertices continue
        frontier = filter::filter(
            ctx,
            &frontier,
            &VertexCond(|v: u32| state[v as usize].load(Ordering::Relaxed) == UNDECIDED),
        );
        run.end_iteration(false);
    }
    let done = run.finish(no_snapshot);
    MisResult {
        in_set: state.into_iter().map(|s| s.into_inner() == IN_SET).collect(),
        rounds: done.iterations,
        outcome: done.outcome,
    }
}

/// Checks the two MIS invariants: independence (no two members adjacent)
/// and maximality (every non-member has a member neighbor).
pub fn verify_mis(g: &Csr, mis: &[bool]) -> bool {
    for v in 0..g.num_vertices() {
        if mis[v] {
            if g.neighbors(v as u32).iter().any(|&u| u as usize != v && mis[u as usize]) {
                return false; // not independent
            }
        } else if !g.neighbors(v as u32).iter().any(|&u| mis[u as usize]) {
            return false; // not maximal
        }
    }
    true
}

/// Coloring output.
#[derive(Clone, Debug)]
pub struct ColoringResult {
    /// Color per vertex (0-based); `u32::MAX` means still uncolored
    /// (only possible on a partial outcome).
    pub colors: Vec<u32>,
    /// Coloring rounds executed.
    pub rounds: u32,
    /// How the loop ended. On a partial outcome the assigned colors are
    /// still a proper partial coloring (no two adjacent vertices share
    /// one), but some vertices remain `u32::MAX`.
    pub outcome: RunOutcome,
}

/// Jones–Plassmann greedy coloring: a vertex colors itself with the
/// smallest color unused by its neighbors once all higher-priority
/// uncolored neighbors are done.
pub fn greedy_coloring(ctx: &Context<'_>, seed: u64) -> ColoringResult {
    let g = ctx.graph;
    let n = g.num_vertices();
    const UNCOLORED: u32 = u32::MAX;
    let colors = gunrock_engine::atomics::atomic_u32_vec(n, UNCOLORED);
    use std::sync::atomic::Ordering;
    let mut frontier = Frontier::full(n);
    let mut run = Enactment::arm(ctx, 0);
    while !frontier.is_empty() && !run.boundary(no_snapshot) {
        // color the local priority maxima among uncolored neighbors
        let ready: Vec<u32> = frontier
            .as_slice()
            .par_iter()
            .copied()
            .filter(|&v| {
                let pv = priority(v, seed);
                g.neighbors(v).iter().all(|&u| {
                    u == v
                        // ORDERING: Relaxed — per-cell status flips are idempotent race winners;
                        // round-to-round visibility comes from the join barrier.
                        || colors[u as usize].load(Ordering::Relaxed) != UNCOLORED
                        || (priority(u, seed), u) < (pv, v)
                })
            })
            .collect();
        ready.par_iter().for_each(|&v| {
            // smallest color free among colored neighbors
            let mut used: Vec<u32> = g
                .neighbors(v)
                .iter()
                .filter_map(|&u| {
                    let c = colors[u as usize].load(Ordering::Relaxed);
                    (c != UNCOLORED).then_some(c)
                })
                .collect();
            used.sort_unstable();
            used.dedup();
            let mut c = 0u32;
            for &x in &used {
                if x == c {
                    c += 1;
                } else if x > c {
                    break;
                }
            }
            colors[v as usize].store(c, Ordering::Relaxed);
        });
        frontier = filter::filter(
            ctx,
            &frontier,
            &VertexCond(|v: u32| colors[v as usize].load(Ordering::Relaxed) == UNCOLORED),
        );
        run.end_iteration(false);
    }
    let done = run.finish(no_snapshot);
    ColoringResult {
        colors: gunrock_engine::atomics::unwrap_atomic_u32(&colors),
        rounds: done.iterations,
        outcome: done.outcome,
    }
}

/// Checks a proper coloring: adjacent vertices have different colors.
pub fn verify_coloring(g: &Csr, colors: &[u32]) -> bool {
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v as u32) {
            if u as usize != v && colors[u as usize] == colors[v] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::generators::{erdos_renyi, grid2d, rmat};
    use gunrock_graph::GraphBuilder;

    fn suite() -> Vec<Csr> {
        vec![
            GraphBuilder::new().build(erdos_renyi(300, 900, 1)),
            GraphBuilder::new().build(rmat(8, 8, Default::default(), 2)),
            GraphBuilder::new().build(grid2d(12, 12, 0.0, 0.0, 3)),
        ]
    }

    #[test]
    fn mis_is_independent_and_maximal() {
        for (i, g) in suite().iter().enumerate() {
            let ctx = Context::new(g);
            let mis = maximal_independent_set(&ctx, 42);
            assert_eq!(mis.outcome, RunOutcome::Converged, "graph {i}");
            assert!(verify_mis(g, &mis.in_set), "graph {i}");
            assert!(mis.in_set.iter().any(|&b| b), "graph {i}: MIS nonempty");
        }
    }

    #[test]
    fn mis_of_isolated_vertices_is_everything() {
        let g = GraphBuilder::new().build(gunrock_graph::Coo::new(5));
        let ctx = Context::new(&g);
        let mis = maximal_independent_set(&ctx, 1);
        assert!(mis.in_set.iter().all(|&b| b));
    }

    #[test]
    fn coloring_is_proper_and_bounded() {
        for (i, g) in suite().iter().enumerate() {
            let ctx = Context::new(g);
            let r = greedy_coloring(&ctx, 7);
            assert_eq!(r.outcome, RunOutcome::Converged, "graph {i}");
            assert!(verify_coloring(g, &r.colors), "graph {i}");
            let max_color = r.colors.iter().copied().max().unwrap_or(0);
            assert!(max_color <= g.max_degree(), "greedy bound: {max_color}");
        }
    }

    #[test]
    fn grid_colors_with_few_colors() {
        // bipartite-ish grid: greedy should stay well under degree bound
        let g = GraphBuilder::new().build(grid2d(20, 20, 0.0, 0.0, 5));
        let ctx = Context::new(&g);
        let r = greedy_coloring(&ctx, 3);
        assert!(verify_coloring(&g, &r.colors));
        assert!(*r.colors.iter().max().unwrap() <= 4);
    }

    #[test]
    fn capped_mis_is_independent_but_may_be_incomplete() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1500, 13));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(1));
        let mis = maximal_independent_set(&ctx, 42);
        assert_eq!(mis.outcome, RunOutcome::IterationCapped);
        assert_eq!(mis.rounds, 1);
        // independence holds at every round boundary, maximality may not
        for v in 0..g.num_vertices() {
            if mis.in_set[v] {
                assert!(
                    !g.neighbors(v as u32)
                        .iter()
                        .any(|&u| u as usize != v && mis.in_set[u as usize]),
                    "vertex {v} adjacent to another member"
                );
            }
        }
    }

    #[test]
    fn capped_coloring_is_a_proper_partial_coloring() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1500, 17));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(1));
        let r = greedy_coloring(&ctx, 7);
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.rounds, 1);
        for v in 0..g.num_vertices() {
            if r.colors[v] == u32::MAX {
                continue;
            }
            for &u in g.neighbors(v as u32) {
                if u as usize != v && r.colors[u as usize] != u32::MAX {
                    assert_ne!(r.colors[u as usize], r.colors[v], "edge {v}-{u}");
                }
            }
        }
    }
}
