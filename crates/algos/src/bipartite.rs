//! Bipartite node-ranking extensions (§5.5): the algorithms of Geil et
//! al.'s "WTF, GPU!" — HITS, SALSA, personalized PageRank, and the
//! composed Twitter who-to-follow ("Money") pipeline — demonstrating that
//! the advance operator "is flexible enough to encompass all three
//! node-ranking algorithms, including a 2-hop traversal in a bipartite
//! graph".
//!
//! Graphs here are directed left->right bipartite (`0..n_left` hubs,
//! `n_left..n` authorities); the context must carry the reverse graph.

use gunrock::prelude::*;
use gunrock_engine::atomics::AtomicF64;
use gunrock_graph::{EdgeId, VertexId};
use rayon::prelude::*;

/// Scores from a HITS or SALSA run.
#[derive(Clone, Debug)]
pub struct HubAuthScores {
    /// Hub score per vertex (meaningful on the left partition).
    pub hubs: Vec<f64>,
    /// Authority score per vertex (meaningful on the right partition).
    pub auths: Vec<f64>,
    /// Mutual-reinforcement iterations executed.
    pub iterations: u32,
    /// How the loop ended. Scores are valid at every iteration boundary
    /// (each round fully recomputes both sides), so a partial outcome
    /// just means fewer reinforcement rounds than requested.
    pub outcome: RunOutcome,
}

/// Accumulate-into functor: adds `weight(src) = source_score[src] /
/// norm(src)` into `sink[dst]` for every traversed edge.
struct Accumulate<'a> {
    source_score: &'a [f64],
    norm: &'a [f64],
    sink: &'a [AtomicF64],
}

impl AdvanceFunctor for Accumulate<'_> {
    #[inline]
    fn cond_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        let n = self.norm[src as usize];
        if n > 0.0 {
            let _ = self.sink[dst as usize].fetch_add(self.source_score[src as usize] / n);
        }
        false
    }
}

fn l2_normalize(v: &mut [f64]) {
    let norm: f64 = v.par_iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.par_iter_mut().for_each(|x| *x /= norm);
    }
}

fn ones_norm(n: usize) -> Vec<f64> {
    vec![1.0; n]
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
    let left: Frontier = Frontier::from_vec((0..n_left as u32).collect());
    let right: Frontier = Frontier::from_vec((n_left as u32..n as u32).collect());
    let mut hubs = vec![0.0f64; n];
    let mut auths = vec![0.0f64; n];
    hubs[..n_left].iter_mut().for_each(|x| *x = 1.0);
    let out_norm: Vec<f64> = if degree_norm {
        (0..n as u32).map(|v| g.out_degree(v) as f64).collect()
    } else {
        ones_norm(n)
    };
    let in_norm: Vec<f64> = if degree_norm {
        (0..n as u32).map(|v| rev.out_degree(v) as f64).collect()
    } else {
        ones_norm(n)
    };
    let mut run = Enactment::arm(ctx, 0);
    while run.iterations() < iters && !run.boundary(no_snapshot) {
        // authority update: pull hub mass along forward edges
        let sink: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        let f = Accumulate { source_score: &hubs, norm: &out_norm, sink: &sink };
        let _ = advance::advance(ctx, &left, AdvanceSpec::for_effect(), &f);
        auths = sink.iter().map(|a| a.load()).collect();
        if !degree_norm {
            l2_normalize(&mut auths);
        }
        // hub update: push authority mass along reverse edges
        let sink: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        let f = Accumulate { source_score: &auths, norm: &in_norm, sink: &sink };
        // advance over the right partition on the reverse graph
        let rev_ctx = Context::new(rev);
        let _ = advance::advance(&rev_ctx, &right, AdvanceSpec::for_effect(), &f);
        ctx.counters.add_edges(rev_ctx.counters.edges());
        hubs = sink.iter().map(|a| a.load()).collect();
        if !degree_norm {
            l2_normalize(&mut hubs);
        }
        run.end_iteration(false);
    }
    let done = run.finish(no_snapshot);
    HubAuthScores { hubs, auths, iterations: done.iterations, outcome: done.outcome }
}

/// Personalized PageRank: residual push with all teleport mass on
/// `sources`. Returns scores concentrated around the sources.
pub fn personalized_pagerank(
    ctx: &Context<'_>,
    sources: &[VertexId],
    damping: f64,
    epsilon: f64,
    max_iters: usize,
) -> Vec<f64> {
    let g = ctx.graph;
    let n = g.num_vertices();
    let mut scores = vec![0.0f64; n];
    let mut residual = vec![0.0f64; n];
    let share = (1.0 - damping) / sources.len().max(1) as f64;
    for &s in sources {
        residual[s as usize] += share;
    }
    let mut frontier = Frontier::from_vec(sources.to_vec());
    // honor the context's run policy: a trip folds the pending residual
    // back into the scores below, keeping mass conserved
    let mut run = Enactment::arm(ctx, 0);
    while !frontier.is_empty()
        && (run.iterations() as usize) < max_iters
        && !run.boundary(no_snapshot)
    {
        // dangling mass restarts at the sources (PPR semantics)
        let mut dangling = 0.0f64;
        for &v in frontier.as_slice() {
            scores[v as usize] += residual[v as usize];
            if g.out_degree(v) == 0 {
                dangling += damping * residual[v as usize];
            }
        }
        let acc: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        struct Push<'a> {
            g: &'a gunrock_graph::Csr,
            residual: &'a [f64],
            acc: &'a [AtomicF64],
            damping: f64,
        }
        impl AdvanceFunctor for Push<'_> {
            #[inline]
            fn cond_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
                let deg = self.g.out_degree(src) as f64;
                let _ = self.acc[dst as usize]
                    .fetch_add(self.damping * self.residual[src as usize] / deg);
                false
            }
        }
        let f = Push { g, residual: &residual, acc: &acc, damping };
        let _ = advance::advance(ctx, &frontier, AdvanceSpec::for_effect(), &f);
        for &v in frontier.as_slice() {
            residual[v as usize] = 0.0;
        }
        residual.par_iter_mut().zip(acc.par_iter()).for_each(|(r, a)| *r += a.load());
        if dangling > 0.0 {
            let share = dangling / sources.len().max(1) as f64;
            for &s in sources {
                residual[s as usize] += share;
            }
        }
        frontier =
            Frontier::from_vec(gunrock_engine::compact::compact_indices(&residual, |&r| {
                r > epsilon
            }));
        run.end_iteration(false);
    }
    scores.par_iter_mut().zip(residual.par_iter()).for_each(|(s, r)| *s += r);
    scores
}

/// A who-to-follow recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// The recommended account (right-partition vertex).
    pub vertex: VertexId,
    /// SALSA-style engagement score from the circle of trust.
    pub score: f64,
}

/// The Twitter "Money" who-to-follow pipeline (Geil et al.): compute the
/// user's circle of trust via personalized PageRank, then rank
/// authorities with SALSA restricted to the circle's engagements,
/// excluding accounts the user already follows. Returns the top-k
/// recommendations from the right partition.
pub fn who_to_follow(
    ctx: &Context<'_>,
    user: VertexId,
    n_left: usize,
    circle_size: usize,
    k: usize,
) -> Vec<Recommendation> {
    let g = ctx.graph;
    // 1. circle of trust: top PPR vertices on the left partition
    let ppr = personalized_pagerank(ctx, &[user], 0.85, 1e-10, 200);
    let mut left_scores: Vec<(VertexId, f64)> = (0..n_left as u32)
        .map(|v| (v, ppr[v as usize]))
        .filter(|&(v, s)| s > 0.0 && v != user)
        .collect();
    left_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut circle: Vec<VertexId> =
        left_scores.into_iter().take(circle_size.saturating_sub(1)).map(|(v, _)| v).collect();
    circle.push(user);
    // 2. SALSA-style scoring: one hub->auth push from the circle
    // (degree-normalized), i.e. a 2-hop bipartite traversal seeded at
    // the circle
    let n = g.num_vertices();
    let sink: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    let norms: Vec<f64> = (0..n as u32).map(|v| g.out_degree(v) as f64).collect();
    let hubs: Vec<f64> = {
        let mut h = vec![0.0; n];
        for &c in &circle {
            h[c as usize] = 1.0 / circle.len() as f64;
        }
        h
    };
    let f = Accumulate { source_score: &hubs, norm: &norms, sink: &sink };
    let circle_frontier = Frontier::from_vec(circle.clone());
    let _ = advance::advance(ctx, &circle_frontier, AdvanceSpec::for_effect(), &f);
    // 3. exclude the user's existing follows and the user itself
    let followed: std::collections::HashSet<VertexId> =
        g.neighbors(user).iter().copied().collect();
    let mut recs: Vec<Recommendation> = (n_left as u32..n as u32)
        .map(|v| Recommendation { vertex: v, score: sink[v as usize].load() })
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
        let (g, rev, _) = small_bipartite();
        // make it walkable both ways for PPR
        let und =
            GraphBuilder::new().build(Coo::from_edges(5, &[(0, 3), (1, 3), (2, 3), (2, 4)]));
        let _ = (g, rev);
        let ctx = Context::new(&und);
        let p = personalized_pagerank(&ctx, &[0], 0.85, 1e-12, 500);
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
