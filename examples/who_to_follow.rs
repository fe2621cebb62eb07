//! Twitter-style "who to follow" (§5.5, after Geil et al.'s "WTF,
//! GPU!"): personalized PageRank builds a circle of trust, a SALSA step
//! ranks the accounts that circle follows, and already-followed accounts
//! are excluded.
//!
//! Run with: `cargo run --release -p gunrock-examples --example who_to_follow`

use gunrock::prelude::*;
use gunrock_algos::bipartite::{hits, salsa, who_to_follow};
use gunrock_graph::prelude::*;

fn main() {
    // A follower graph: 6000 users following 3000 accounts, follow
    // counts and popularity both skewed.
    let (coo, shape) = generators::bipartite_random(6000, 3000, 12, 2024);
    let directed = GraphBuilder::new().directed().build(coo);
    let reverse = directed.transpose();
    println!(
        "follower graph: {} users -> {} accounts, {} follow edges",
        shape.n_left,
        shape.n_right,
        directed.num_edges()
    );

    // Global hub/authority structure for context.
    let ctx = Context::new(&directed).with_reverse(&reverse);
    let h = hits(&ctx, shape.n_left, 25);
    let s = salsa(&ctx, shape.n_left, 25);
    let best_auth = (shape.n_left..shape.n_left + shape.n_right)
        .max_by(|&a, &b| h.auths[a].total_cmp(&h.auths[b]))
        .unwrap();
    println!(
        "\nHITS top authority: account #{} (auth {:.4}, salsa {:.4}, followers {})",
        best_auth,
        h.auths[best_auth],
        s.auths[best_auth],
        reverse.out_degree(best_auth as u32)
    );

    // Recommendations for one user. PPR walks both directions (user ->
    // account -> co-follower), so the context's graph is the symmetrized
    // one; the SALSA step gathers each account's followers over the
    // reverse graph, the transpose of the directed follows.
    let user: VertexId = 17;
    let undirected = GraphBuilder::new().build(directed.to_coo());
    let ctx = Context::new(&undirected).with_reverse(&reverse);
    let recs = who_to_follow(&ctx, user, shape.n_left, 40, 8);
    println!("\nuser #{user} follows {} accounts; recommending:", directed.out_degree(user));
    for (rank, r) in recs.iter().enumerate() {
        println!(
            "  {}. account #{:<5} score {:.5} ({} followers)",
            rank + 1,
            r.vertex,
            r.score,
            reverse.out_degree(r.vertex)
        );
    }
    assert!(!recs.is_empty(), "a connected user always gets suggestions");
    for r in &recs {
        assert!(r.vertex as usize >= shape.n_left, "only accounts are recommended");
        assert!(!directed.neighbors(user).contains(&r.vertex), "already followed");
    }
    assert!(recs.windows(2).all(|w| w[0].score >= w[1].score), "ranked by score");
}
