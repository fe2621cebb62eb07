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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraversalDirection {
    /// Expand frontier out-edges ("scatter").
    Push,
    /// Unvisited vertices scan in-edges against the frontier ("gather").
    Pull,
}

/// Tunable direction-switch policy with Beamer's default thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirectionPolicy {
    /// Push -> pull when frontier edges exceed `unvisited_edges / alpha`.
    pub alpha: f64,
    /// Pull -> push when frontier vertices drop below `n / beta`.
    pub beta: f64,
}

impl Default for DirectionPolicy {
    fn default() -> Self {
        DirectionPolicy { alpha: 15.0, beta: 18.0 }
    }
}

impl DirectionPolicy {
    /// Decides the next iteration's direction from the current state.
    ///
    /// * `frontier_edges` — out-edges of the current frontier (`m_f`)
    /// * `unvisited_edges` — out-edges of still-unvisited vertices (`m_u`)
    /// * `frontier_vertices` — current frontier size (`n_f`)
    /// * `num_vertices` — total vertices (`n`)
    pub fn decide(
        &self,
        current: TraversalDirection,
        frontier_edges: u64,
        unvisited_edges: u64,
        frontier_vertices: usize,
        num_vertices: usize,
    ) -> TraversalDirection {
        match current {
            TraversalDirection::Push => {
                // Entering pull requires both triggers: the frontier's
                // edges rival the unvisited edges (Beamer's alpha test)
                // AND the frontier is big enough that it would not bounce
                // straight back under the beta test. Without the second
                // condition, high-diameter graphs whose unvisited set
                // drains slowly re-enter pull at every tail level and pay
                // the full unvisited scan repeatedly for one level of
                // discovery.
                if self.alpha.is_finite()
                    && (frontier_edges as f64) > (unvisited_edges as f64) / self.alpha
                    && (frontier_vertices as f64) >= (num_vertices as f64) / self.beta
                {
                    TraversalDirection::Pull
                } else {
                    TraversalDirection::Push
                }
            }
            TraversalDirection::Pull => {
                if (frontier_vertices as f64) < (num_vertices as f64) / self.beta {
                    TraversalDirection::Push
                } else {
                    TraversalDirection::Pull
                }
            }
        }
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
    use TraversalDirection::{Pull, Push};

    #[test]
    fn stays_push_while_frontier_is_small() {
        let p = DirectionPolicy::default();
        assert_eq!(p.decide(Push, 10, 1_000_000, 5, 1000), Push);
    }

    #[test]
    fn switches_to_pull_when_frontier_edges_dominate() {
        let p = DirectionPolicy::default();
        // m_f = 200_000 > 1_000_000 / 15, and n_f = 5000 >= 10_000 / 18
        assert_eq!(p.decide(Push, 200_000, 1_000_000, 5000, 10_000), Pull);
    }

    #[test]
    fn small_frontier_never_enters_pull_even_with_edge_trigger() {
        // the tail of a high-diameter traversal: unvisited edges tiny,
        // so the alpha test fires, but the frontier itself is tiny too
        let p = DirectionPolicy::default();
        assert_eq!(p.decide(Push, 100, 200, 30, 10_000), Push);
    }

    #[test]
    fn switches_back_to_push_when_frontier_shrinks() {
        let p = DirectionPolicy::default();
        assert_eq!(p.decide(Pull, 10, 10, 10, 10_000), Push);
        // still big: stay pull
        assert_eq!(p.decide(Pull, 10, 10, 5_000, 10_000), Pull);
    }

    #[test]
    fn gather_switch_is_on_edge_volume() {
        assert!(prefer_gather(1_000, 1_000), "full frontier gathers");
        assert!(prefer_gather(167, 1_000));
        assert!(!prefer_gather(166, 1_000), "a sixth of m or less pushes");
        assert!(!prefer_gather(0, 0), "an edgeless graph never gathers");
    }
}
