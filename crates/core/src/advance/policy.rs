//! Direction-optimizing traversal policy (Beamer et al., adopted by
//! Gunrock in §4.1.1).
//!
//! Push is cheap while the frontier is small; once the frontier's
//! outgoing edge count rivals the edges left to the unvisited set, pull
//! wins because most pushes would land on already-visited vertices. The
//! classic two-threshold hysteresis: switch push -> pull when
//! `m_f > m_u / alpha`, and pull -> push when `n_f < n / beta`.
//!
//! The paper reports this optimization gives a geomean speedup of 1.52 on
//! scale-free graphs and 1.28 on road-like graphs (reproduced by the
//! `fig_pushpull` bench binary).

use crate::context::Context;
use gunrock_engine::stats::StepDirection;

/// Current traversal direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraversalDirection {
    /// Expand frontier out-edges ("scatter").
    #[default]
    Push,
    /// Unvisited vertices scan in-edges against the frontier ("gather").
    Pull,
}

/// The push/pull direction of a direction-optimizing traversal, chosen
/// once per iteration by Beamer's hysteresis with his thresholds. Every
/// change of direction is recorded as a `DirectionSwitch` naming the
/// inequality that fired. A traversal starts out pushing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectionPolicy {
    /// The direction the last iteration ran in.
    pub direction: TraversalDirection,
}

impl DirectionPolicy {
    /// Push -> pull when frontier edges exceed `unvisited_edges / ALPHA`.
    pub const ALPHA: f64 = 15.0;
    /// Pull -> push when frontier vertices drop below `n / BETA`.
    pub const BETA: f64 = 18.0;

    /// This iteration's direction from the current frontier's out-edges
    /// `m_f` and vertex count `n_f` and the still-unvisited vertices'
    /// out-edges `m_u`. `can_pull` is asked before a pull iteration and
    /// may keep the traversal pushing (a budget rung).
    pub fn choose(
        &mut self,
        ctx: &Context<'_>,
        m_f: u64,
        m_u: u64,
        n_f: usize,
        can_pull: impl FnOnce() -> bool,
    ) -> TraversalDirection {
        let (alpha, beta, n) = (Self::ALPHA, Self::BETA, ctx.num_vertices());
        let big = (n_f as f64) >= (n as f64) / beta;
        let pull = match self.direction {
            // Entering pull requires both triggers: the frontier's edges
            // rival the unvisited edges (Beamer's alpha test) AND the
            // frontier is big enough that it would not bounce straight
            // back under the beta test. Without the second condition,
            // high-diameter graphs whose unvisited set drains slowly
            // re-enter pull at every tail level and pay the full
            // unvisited scan repeatedly for one level of discovery.
            TraversalDirection::Push => (m_f as f64) > (m_u as f64) / alpha && big,
            TraversalDirection::Pull => big,
        } && can_pull();
        let next = if pull { TraversalDirection::Pull } else { TraversalDirection::Push };
        if next != self.direction {
            self.direction = next;
            if let Some(sink) = ctx.sink() {
                // only built when instrumented: the reason names the
                // hysteresis inequality that fired
                let (from, to, reason) = match next {
                    TraversalDirection::Pull => (
                        StepDirection::Push,
                        StepDirection::Pull,
                        format!(
                            "m_f={m_f} > m_u={m_u}/alpha={alpha} \
                             and n_f={n_f} >= n={n}/beta={beta}"
                        ),
                    ),
                    TraversalDirection::Push => (
                        StepDirection::Pull,
                        StepDirection::Push,
                        format!("n_f={n_f} < n={n}/beta={beta}"),
                    ),
                };
                sink.record_switch(from, to, reason);
            }
        }
        next
    }
}

/// A dense gather scans all `m` in-edges at roughly a sixth to an
/// eighth of an atomic push's per-edge cost (EXPERIMENTS.md, PR19), so it
/// wins once the frontier's out-edge volume exceeds `m / this`.
pub const GATHER_EDGE_DIVISOR: u64 = 6;

/// Push-vs-gather choice for an accumulating advance
/// ([`super::gather::advance_gather`]): gather while the frontier's
/// out-edges `frontier_edges` are more than `1 / GATHER_EDGE_DIVISOR` of
/// the graph's `graph_edges`. The test is on edges, not vertices:
/// low-degree vertices converge first while the hubs keep most edges
/// live, so a vertex count would fall back to the atomic push too early.
#[inline]
pub fn prefer_gather(frontier_edges: u64, graph_edges: u64) -> bool {
    frontier_edges > graph_edges / GATHER_EDGE_DIVISOR
}

/// The push/gather direction of an accumulating enact loop, chosen once
/// per iteration by [`prefer_gather`] — and only when the context has a
/// reverse graph to gather over. Every change of direction is recorded
/// as a `DirectionSwitch` naming the inequality that fired. A run starts
/// out pushing.
#[derive(Debug, Default)]
pub struct GatherSwitch {
    gathering: bool,
}

impl GatherSwitch {
    /// This iteration's direction for a frontier with `frontier_edges`
    /// out-edges: true to gather.
    pub fn choose(&mut self, ctx: &Context<'_>, frontier_edges: u64) -> bool {
        let m = ctx.num_edges() as u64;
        let gather = ctx.reverse.is_some() && prefer_gather(frontier_edges, m);
        if gather != self.gathering {
            self.gathering = gather;
            if let Some(sink) = ctx.sink() {
                let (from, to, cmp) = if gather {
                    (StepDirection::Push, StepDirection::Pull, ">")
                } else {
                    (StepDirection::Pull, StepDirection::Push, "<=")
                };
                sink.record_switch(
                    from,
                    to,
                    format!("m_f={frontier_edges} {cmp} m={m}/{GATHER_EDGE_DIVISOR}"),
                );
            }
        }
        gather
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, Csr, GraphBuilder};
    use TraversalDirection::{Pull, Push};

    /// `n` isolated vertices: the policy reads only the vertex count.
    fn vertices(n: usize) -> Csr {
        GraphBuilder::new().build(Coo::from_edges(n, &[]))
    }

    fn choose(
        from: TraversalDirection,
        m_f: u64,
        m_u: u64,
        n_f: usize,
        n: usize,
    ) -> TraversalDirection {
        let g = vertices(n);
        let mut policy = DirectionPolicy { direction: from };
        policy.choose(&Context::new(&g), m_f, m_u, n_f, || true)
    }

    #[test]
    fn stays_push_while_frontier_is_small() {
        assert_eq!(choose(Push, 10, 1_000_000, 5, 1000), Push);
    }

    #[test]
    fn switches_to_pull_when_frontier_edges_dominate() {
        // m_f = 200_000 > 1_000_000 / 15, and n_f = 5000 >= 10_000 / 18
        assert_eq!(choose(Push, 200_000, 1_000_000, 5000, 10_000), Pull);
    }

    #[test]
    fn small_frontier_never_enters_pull_even_with_edge_trigger() {
        // the tail of a high-diameter traversal: unvisited edges tiny,
        // so the alpha test fires, but the frontier itself is tiny too
        assert_eq!(choose(Push, 100, 200, 30, 10_000), Push);
    }

    #[test]
    fn switches_back_to_push_when_frontier_shrinks() {
        assert_eq!(choose(Pull, 10, 10, 10, 10_000), Push);
        // still big: stay pull
        assert_eq!(choose(Pull, 10, 10, 5_000, 10_000), Pull);
    }

    #[test]
    fn a_refused_pull_stays_push_and_every_switch_is_recorded() {
        let g = vertices(10_000);
        let ctx = Context::new(&g).with_stats();
        let mut policy = DirectionPolicy { direction: Push };
        assert_eq!(policy.choose(&ctx, 200_000, 1_000_000, 5000, || false), Push);
        assert_eq!(policy.choose(&ctx, 200_000, 1_000_000, 5000, || true), Pull);
        assert_eq!(policy.choose(&ctx, 10, 10, 10, || true), Push);
        let reasons: Vec<String> =
            ctx.run_stats().switches.iter().map(|s| s.reason.clone()).collect();
        assert_eq!(
            reasons,
            [
                "m_f=200000 > m_u=1000000/alpha=15 and n_f=5000 >= n=10000/beta=18",
                "n_f=10 < n=10000/beta=18"
            ]
        );
    }

    #[test]
    fn gather_switch_is_on_edge_volume() {
        assert!(prefer_gather(1_000, 1_000), "full frontier gathers");
        assert!(prefer_gather(167, 1_000));
        assert!(!prefer_gather(166, 1_000), "a sixth of m or less pushes");
        assert!(!prefer_gather(0, 0), "an edgeless graph never gathers");
    }
}
