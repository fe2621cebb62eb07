//! Bipartite node-ranking extensions (§5.5): the algorithms of Geil et
//! al.'s "WTF, GPU!" — HITS, SALSA, and the composed Twitter
//! who-to-follow ("Money") pipeline — demonstrating that the advance
//! operator "is flexible enough to encompass all three node-ranking
//! algorithms, including a 2-hop traversal in a bipartite graph".
//!
//! Graphs here are directed left->right bipartite (`0..n_left` hubs,
//! `n_left..n` authorities); the context must carry the reverse graph.
//! Each half of a HITS or SALSA round is one [`advance_gather`]: the
//! authorities sum their in-neighbors' hub scores over the reverse graph,
//! then the hubs sum their out-neighbors' authority scores over the
//! forward graph. Every vertex owns its slot, so both halves are plain
//! stores — GraphBLAST's row gather (PAPERS.md) — and both run on the
//! caller's context: its run policy, fault plan, budget, pool and stats
//! sink.

use crate::msppr::{msppr, MspprOptions};
use gunrock::prelude::*;
use gunrock_engine::par;
use gunrock_graph::{Csr, VertexId};
use std::ops::ControlFlow::Continue;

/// Scores from a HITS or SALSA run.
#[derive(Clone, Debug)]
pub struct HubAuthScores {
    /// Hub score per vertex (zero on the right partition).
    pub hubs: Vec<f64>,
    /// Authority score per vertex (zero on the left partition).
    pub auths: Vec<f64>,
    /// Mutual-reinforcement iterations executed.
    pub iterations: u32,
    /// How the loop ended. Each round recomputes both sides, so a capped
    /// run just has fewer rounds than requested; a cancel or deadline that
    /// lands mid-round leaves that round's scores partly updated.
    pub outcome: RunOutcome,
}

fn l2_normalize(v: &mut [f64]) {
    let grain = grain_size(v.len());
    let squares = |c: &[f64]| c.iter().map(|x| x * x).sum::<f64>();
    let norm = par::map_reduce(v.chunks(grain), 0.0, squares, |a, b| a + b).sqrt();
    if norm > 0.0 {
        par::for_each(v.chunks_mut(grain), |c| c.iter_mut().for_each(|x| *x /= norm));
    }
}

/// A gather `finish` that stores the reduced sum and admits nothing.
fn store(_v: VertexId, sum: f64, slot: &mut f64) -> bool {
    *slot = sum;
    false
}

/// Hyperlink-Induced Topic Search: authority = sum of in-neighbor hub
/// scores, hub = sum of out-neighbor authority scores, L2-normalized
/// each iteration.
pub fn hits(ctx: &Context<'_>, n_left: usize, iters: u32) -> HubAuthScores {
    run_hub_auth(ctx, n_left, iters, false)
}

/// Stochastic Approach for Link-Structure Analysis: like HITS but each
/// contribution is degree-normalized (a random walk alternating
/// direction), so scores converge to stationary visit frequencies.
pub fn salsa(ctx: &Context<'_>, n_left: usize, iters: u32) -> HubAuthScores {
    run_hub_auth(ctx, n_left, iters, true)
}

fn run_hub_auth(
    ctx: &Context<'_>,
    n_left: usize,
    iters: u32,
    degree_norm: bool,
) -> HubAuthScores {
    let g = ctx.graph;
    let rev = ctx.reverse_graph();
    let n = g.num_vertices();
    assert!(n_left <= n);
    // CAST: n < u32::MAX by Csr::validate, and n_left <= n.
    let (left, right) = (0..n_left as u32, n_left as u32..n as u32);
    let mut hubs = vec![0.0f64; n];
    let mut auths = vec![0.0f64; n];
    hubs[..n_left].fill(1.0);
    // what `u` sends along each of its edges in `csr`: SALSA splits its
    // score evenly over them
    let share = |score: &[f64], csr: &Csr, u: VertexId| {
        let s = score[u as usize];
        if degree_norm {
            s / csr.out_degree(u) as f64
        } else {
            s
        }
    };
    let mut run = Enactment::arm(ctx, 0);
    while run.iterations() < iters && !run.boundary(no_snapshot) {
        // authorities gather hub mass over their in-edges
        advance_gather(
            ctx,
            GatherSpec::range(right.clone()),
            &mut auths[n_left..],
            None,
            |_| true,
            0.0,
            |u, _, _| share(&hubs, g, u),
            |a, b| Continue(a + b),
            store,
        );
        if !degree_norm {
            l2_normalize(&mut auths[n_left..]);
        }
        // hubs gather authority mass over their out-edges
        advance_gather(
            ctx,
            GatherSpec::range(left.clone()).out_edges(),
            &mut hubs[..n_left],
            None,
            |_| true,
            0.0,
            |w, _, _| share(&auths, rev, w),
            |a, b| Continue(a + b),
            store,
        );
        if !degree_norm {
            l2_normalize(&mut hubs[..n_left]);
        }
        run.end_iteration(false);
    }
    let done = run.finish(no_snapshot);
    HubAuthScores { hubs, auths, iterations: done.iterations, outcome: done.outcome }
}

/// A who-to-follow recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// The recommended account (right-partition vertex).
    pub vertex: VertexId,
    /// SALSA-style engagement score from the circle of trust.
    pub score: f64,
}

/// The Twitter "Money" who-to-follow pipeline (Geil et al.), returning
/// the top-k recommendations from the right partition.
///
/// 1. The circle of trust is `user` plus the `circle_size - 1` left
///    vertices with the most personalized PageRank mass from `user`:
///    lane 0 of a one-source [`msppr`] batch over `ctx.graph`, which
///    should therefore walk both ways (follower -> account -> co-follower).
/// 2. Each right vertex gathers, over its in-edges in the reverse graph
///    (the engagements), an even share of every circle member's vote:
///    `1 / (|circle| * deg(u))` from member `u`, `deg` its degree in
///    `ctx.graph`. This is one SALSA hub -> authority step seeded at the
///    circle.
/// 3. Accounts `user` already neighbors in `ctx.graph` are excluded.
pub fn who_to_follow(
    ctx: &Context<'_>,
    user: VertexId,
    n_left: usize,
    circle_size: usize,
    k: usize,
) -> Vec<Recommendation> {
    let g = ctx.graph;
    let n = g.num_vertices();
    // 1. circle of trust: top PPR vertices on the left partition
    let ppr = msppr(ctx, &[user], MspprOptions { alpha: 0.15, epsilon: 1e-10 });
    let ppr = ppr.lane_scores(0);
    let mut left_scores: Vec<(VertexId, f64)> = (0..n_left as u32)
        .map(|v| (v, ppr[v as usize]))
        .filter(|&(v, s)| s > 0.0 && v != user)
        .collect();
    left_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut circle: Vec<VertexId> =
        left_scores.into_iter().take(circle_size.saturating_sub(1)).map(|(v, _)| v).collect();
    circle.push(user);
    // 2. SALSA-style scoring: the right partition gathers the circle's votes
    let mut vote = vec![0.0f64; n];
    for &c in &circle {
        vote[c as usize] = 1.0 / (circle.len() as f64 * g.out_degree(c).max(1) as f64);
    }
    // CAST: n < u32::MAX by Csr::validate, and n_left <= n.
    let right = n_left as u32..n as u32;
    let mut scores = vec![0.0f64; right.len()];
    advance_gather(
        ctx,
        GatherSpec::range(right.clone()),
        &mut scores,
        None,
        |_| true,
        0.0,
        |u, _, _| vote[u as usize],
        |a, b| Continue(a + b),
        store,
    );
    // 3. exclude the user's existing follows
    let followed: std::collections::HashSet<VertexId> =
        g.neighbors(user).iter().copied().collect();
    let mut recs: Vec<Recommendation> = right
        .zip(scores)
        .map(|(vertex, score)| Recommendation { vertex, score })
        .filter(|r| r.score > 0.0 && !followed.contains(&r.vertex))
        .collect();
    recs.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.vertex.cmp(&b.vertex)));
    recs.truncate(k);
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::generators::bipartite_random;
    use gunrock_graph::{Coo, Csr, GraphBuilder};

    fn small_bipartite() -> (Csr, Csr, usize) {
        // left {0,1,2}, right {3,4}: 0->3, 1->3, 2->3, 2->4
        let coo = Coo::from_edges(5, &[(0, 3), (1, 3), (2, 3), (2, 4)]);
        let g = GraphBuilder::new().directed().build(coo);
        let rev = g.transpose();
        (g, rev, 3)
    }

    #[test]
    fn hits_identifies_the_popular_authority() {
        let (g, rev, n_left) = small_bipartite();
        let ctx = Context::new(&g).with_reverse(&rev);
        let s = hits(&ctx, n_left, 20);
        assert!(s.auths[3] > s.auths[4], "3 has more in-links");
        // vertex 2 links to both authorities: best hub
        assert!(s.hubs[2] > s.hubs[0]);
        assert!(s.hubs[2] > s.hubs[1]);
    }

    #[test]
    fn salsa_scores_are_degree_normalized_visits() {
        let (g, rev, n_left) = small_bipartite();
        let ctx = Context::new(&g).with_reverse(&rev);
        let s = salsa(&ctx, n_left, 30);
        assert!(s.auths[3] > s.auths[4]);
        assert!(s.auths.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn ppr_concentrates_mass_near_source() {
        // the circle-of-trust PPR walks the symmetrized graph
        let und =
            GraphBuilder::new().build(Coo::from_edges(5, &[(0, 3), (1, 3), (2, 3), (2, 4)]));
        let ctx = Context::new(&und);
        let r = msppr(&ctx, &[0], MspprOptions { alpha: 0.15, epsilon: 1e-12 });
        let p = r.lane_scores(0);
        assert!(p[0] > p[1], "source outranks distant vertices");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn policy_cap_stops_hits_early_with_valid_scores() {
        let (g, rev, n_left) = small_bipartite();
        let ctx = Context::new(&g)
            .with_reverse(&rev)
            .with_policy(RunPolicy::unbounded().max_iterations(2));
        let s = hits(&ctx, n_left, 20);
        assert_eq!(s.outcome, RunOutcome::IterationCapped);
        assert_eq!(s.iterations, 2);
        // two full rounds are enough for the qualitative ordering
        assert!(s.auths[3] > s.auths[4]);
    }

    #[test]
    fn wtf_recommends_unfollowed_popular_accounts() {
        let (coo, shape) = bipartite_random(200, 100, 6, 42);
        let g = GraphBuilder::new().directed().build(coo);
        let rev = g.transpose();
        // PPR needs to walk back from authorities: use the symmetrized
        // graph for the circle computation, directed for the push
        let und = GraphBuilder::new().build(g.to_coo());
        let ctx = Context::new(&und).with_reverse(&rev);
        let recs = who_to_follow(&ctx, 0, shape.n_left, 10, 5);
        assert!(!recs.is_empty());
        assert!(recs.len() <= 5);
        let followed: std::collections::HashSet<u32> =
            und.neighbors(0).iter().copied().collect();
        for r in &recs {
            assert!((r.vertex as usize) >= shape.n_left, "right partition only");
            assert!(!followed.contains(&r.vertex), "never recommend followed");
        }
        // scores descend
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
