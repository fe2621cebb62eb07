//! Integration tests for the extension primitives (§5.5 bipartite
//! node-ranking, §7 future-work operators, and the Gunrock-family
//! additions) over the shared graph suite.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::generators::bipartite_random;
use gunrock_graph::GraphBuilder;
use gunrock_integration::graph_suite;

#[test]
fn triangles_match_oracle_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::triangle_count(&ctx);
        assert_eq!(r.total, serial::triangle_count(&g), "{name}");
        assert_eq!(r.per_vertex.iter().sum::<u64>(), 3 * r.total, "{name}");
    }
}

#[test]
fn kcore_matches_peeling_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::k_core(&ctx);
        assert_eq!(r.core_numbers, algos::kcore::k_core_serial(&g), "{name}");
        // degeneracy bounds: between min degree of densest part and max degree
        assert!(r.degeneracy <= g.max_degree(), "{name}");
        // every vertex's core number is at most its degree
        for v in 0..g.num_vertices() as u32 {
            assert!(r.core_numbers[v as usize] <= g.out_degree(v), "{name} v{v}");
        }
    }
}

#[test]
fn kcore_is_consistent_with_triangles() {
    // every vertex of a triangle has core number >= 2
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let tri = algos::triangle_count(&ctx);
        let ctx = Context::new(&g);
        let core = algos::k_core(&ctx);
        for v in 0..g.num_vertices() {
            if tri.per_vertex[v] > 0 {
                assert!(core.core_numbers[v] >= 2, "{name} v{v}");
            }
        }
    }
}

#[test]
fn gathered_in_degree_sum_equals_edge_count() {
    for (name, g) in graph_suite() {
        let n = g.num_vertices();
        let ctx = Context::new(&g).with_reverse(&g);
        let mut ones = vec![0u64; n];
        advance_gather(
            &ctx,
            GatherSpec::range(0..n as u32),
            &mut ones,
            None,
            |_| true,
            0u64,
            |_, _, _| 1,
            |a, b| a + b,
            |_, sum, slot| {
                *slot = sum;
                false
            },
        );
        assert_eq!(ones.iter().sum::<u64>(), g.num_edges() as u64, "{name}");
    }
}

#[test]
fn hits_and_salsa_are_finite_and_nonnegative() {
    let (coo, shape) = bipartite_random(500, 250, 8, 1);
    let g = GraphBuilder::new().directed().build(coo);
    let rev = g.transpose();
    let ctx = Context::new(&g).with_reverse(&rev);
    for scores in [
        algos::bipartite::hits(&ctx, shape.n_left, 20),
        algos::bipartite::salsa(&ctx, shape.n_left, 20),
    ] {
        assert!(scores.hubs.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!(scores.auths.iter().all(|x| x.is_finite() && *x >= 0.0));
        // hubs live on the left, authorities on the right
        assert!(scores.auths[..shape.n_left].iter().all(|&x| x == 0.0));
    }
}

#[test]
fn ppr_is_localized_while_global_pr_is_not() {
    // on a barbell-ish graph, PPR from one side should put more mass
    // there than global PR does
    let mut edges = Vec::new();
    for i in 0..20u32 {
        for j in (i + 1)..20 {
            edges.push((i, j));
        }
    }
    for i in 20..40u32 {
        for j in (i + 1)..40 {
            edges.push((i, j));
        }
    }
    edges.push((19, 20)); // bridge
    let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(40, &edges));
    let ctx = Context::new(&g);
    let ppr = algos::bipartite::personalized_pagerank(&ctx, &[0], 0.85, 1e-12, 500);
    let ctx = Context::new(&g);
    let pr = algos::pagerank(&ctx, algos::PrOptions { epsilon: 1e-12, ..Default::default() });
    let left_ppr: f64 = ppr[..20].iter().sum();
    let left_pr: f64 = pr.scores[..20].iter().sum();
    assert!(left_ppr > 0.8, "PPR concentrates: {left_ppr}");
    assert!(left_pr < 0.6, "global PR splits: {left_pr}");
}

#[test]
fn mis_and_coloring_run_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let mis = algos::extras::maximal_independent_set(&ctx, 5);
        assert!(algos::extras::verify_mis(&g, &mis.in_set), "{name}");
        let ctx = Context::new(&g);
        let coloring = algos::extras::greedy_coloring(&ctx, 5);
        assert!(algos::extras::verify_coloring(&g, &coloring.colors), "{name}");
    }
}
