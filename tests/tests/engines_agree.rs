//! Figure 4 made executable: the same primitive expressed in every
//! abstraction — Gunrock's frontier operators, Ligra's edgeMap, the GAS
//! engine, the Medusa-style message engine, the hardwired kernels, and
//! the serial reference — must agree on every graph in the suite.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::{gas, hardwired, ligra, medusa, serial};
use gunrock_graph::INFINITY;
use gunrock_integration::graph_suite;

#[test]
fn bfs_all_engines_agree() {
    for (name, g) in graph_suite() {
        let want = serial::bfs(&g, 0);
        let ctx = Context::new(&g).with_reverse(&g);
        let gr = algos::bfs(&ctx, 0, algos::BfsOptions::direction_optimized());
        assert_eq!(gr.labels, want, "gunrock on {name}");
        assert_eq!(ligra::bfs(&g, &g, 0).0, want, "ligra on {name}");
        assert_eq!(gas::bfs(&g, &g, 0, gas::GasMode::PerVertex), want, "gas-pv on {name}");
        assert_eq!(gas::bfs(&g, &g, 0, gas::GasMode::Balanced), want, "gas-bal on {name}");
        assert_eq!(medusa::bfs(&g, 0), want, "medusa on {name}");
        assert_eq!(hardwired::bfs(&g, &g, 0), want, "hardwired on {name}");
    }
}

#[test]
fn sssp_all_engines_agree() {
    for (name, g) in graph_suite() {
        let want = serial::dijkstra(&g, 0);
        let ctx = Context::new(&g);
        let gr = algos::sssp(&ctx, 0, algos::SsspOptions::default());
        assert_eq!(gr.dist, want, "gunrock on {name}");
        assert_eq!(ligra::sssp_bellman_ford(&g, &g, 0), want, "ligra on {name}");
        assert_eq!(gas::sssp(&g, &g, 0, gas::GasMode::Balanced), want, "gas on {name}");
        assert_eq!(medusa::sssp(&g, 0), want, "medusa on {name}");
        assert_eq!(
            hardwired::sssp_delta_stepping(&g, 0, algos::sssp::default_delta(&g)),
            want,
            "hardwired on {name}"
        );
    }
}

#[test]
fn cc_all_engines_agree() {
    for (name, g) in graph_suite() {
        let want = serial::connected_components(&g);
        let ctx = Context::new(&g);
        let gr = algos::cc(&ctx);
        assert_eq!(gr.labels, want, "gunrock on {name}");
        assert_eq!(gr.num_components, serial::num_components(&want), "count on {name}");
        assert_eq!(ligra::connected_components(&g, &g), want, "ligra on {name}");
        assert_eq!(
            gas::connected_components(&g, &g, gas::GasMode::Balanced),
            want,
            "gas on {name}"
        );
        assert_eq!(hardwired::cc_soman(&g), want, "hardwired on {name}");
    }
}

#[test]
fn bc_all_engines_agree() {
    for (name, g) in graph_suite() {
        let want = serial::brandes_single_source(&g, 0);
        for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
            let gr = algos::bc(&ctx, 0, algos::BcOptions::default());
            for (v, (a, b)) in gr.bc_values.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-6, "gunrock on {name} vertex {v}: {a} vs {b}");
            }
        }
        let lg = ligra::bc(&g, &g, 0);
        for (v, (a, b)) in lg.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "ligra on {name} vertex {v}: {a} vs {b}");
        }
        let hw = hardwired::bc(&g, 0);
        for (v, (a, b)) in hw.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "hardwired on {name} vertex {v}: {a} vs {b}");
        }
    }
}

/// Shortest-path counts past `f64` (a long grid axis from its corner) are
/// +inf, and the scores they feed NaN: the engine's NaN set is the
/// oracle's, pushing or gathering, and the finite scores agree.
#[test]
fn bc_overflows_to_nan_exactly_where_brandes_does() {
    use gunrock_graph::generators::grid2d;
    use gunrock_graph::GraphBuilder;
    // C(1138, 379) ~ 1e313 shortest paths reach the far corner, past
    // f64::MAX ~ 1.8e308; a 100-vertex path hanging off the corner keeps
    // finite, positive scores
    let grid = grid2d(760, 380, 0.0, 0.0, 1);
    let n = grid.num_vertices as u32;
    let mut edges: Vec<(u32, u32)> = grid.edges().collect();
    edges.extend((n..n + 100).map(|v| (if v == n { 0 } else { v - 1 }, v)));
    let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(n as usize + 100, &edges));
    let want = serial::brandes_single_source(&g, 0);
    let nan = |scores: &[f64]| scores.iter().map(|s| s.is_nan()).collect::<Vec<bool>>();
    assert!(want.iter().any(|s| s.is_nan()), "the oracle overflows");
    assert!(want.iter().any(|s| s.is_finite() && *s > 0.0), "and keeps finite scores");
    for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
        let r = algos::bc(&ctx, 0, algos::BcOptions::default());
        assert!(r.sigmas.iter().any(|s| s.is_infinite()), "sigma overflows to +inf");
        assert_eq!(nan(&r.bc_values), nan(&want));
        for (v, (a, b)) in r.bc_values.iter().zip(&want).enumerate() {
            if b.is_finite() {
                assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "vertex {v}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn pagerank_all_engines_agree() {
    for (name, g) in graph_suite() {
        let want = serial::pagerank(&g, 0.85, 1e-14, 2000);
        let ctx = Context::new(&g);
        let gr =
            algos::pagerank(&ctx, algos::PrOptions { epsilon: 1e-13, ..Default::default() });
        for (v, (a, b)) in gr.scores.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "gunrock on {name} vertex {v}: {a} vs {b}");
        }
        let lg = ligra::pagerank(&g, &g, 0.85, 1e-14, 2000);
        for (v, (a, b)) in lg.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "ligra on {name} vertex {v}: {a} vs {b}");
        }
        let hw = hardwired::pagerank(&g, &g, 0.85, 1e-14, 2000);
        for (v, (a, b)) in hw.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "hardwired on {name} vertex {v}: {a} vs {b}");
        }
        let md = medusa::pagerank(&g, 0.85, 1e-14, 2000);
        for (v, (a, b)) in md.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "medusa on {name} vertex {v}: {a} vs {b}");
        }
    }
}

/// Every advance mode on every graph, push-only (no reverse graph) and
/// direction-optimized (with one).
#[test]
fn bfs_variants_and_modes_cross_product() {
    use algos::bfs::{bfs, BfsOptions};
    for (name, g) in graph_suite() {
        let want = serial::bfs(&g, 0);
        for mode in [AdvanceMode::ThreadMapped, AdvanceMode::Twc, AdvanceMode::LoadBalanced] {
            for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
                let r = bfs(&ctx, 0, BfsOptions::default().with_mode(mode));
                assert_eq!(r.labels, want, "{name} {mode:?} reverse={}", ctx.reverse.is_some());
            }
        }
    }
}

#[test]
fn sssp_dist_satisfies_triangle_inequality() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::sssp(&ctx, 0, algos::SsspOptions::default());
        for u in 0..g.num_vertices() as u32 {
            if r.dist[u as usize] == INFINITY {
                continue;
            }
            for e in g.edge_range(u) {
                let v = g.col_indices()[e];
                assert!(
                    r.dist[v as usize] <= r.dist[u as usize].saturating_add(g.weight(e as u32)),
                    "{name}: edge ({u},{v}) violates relaxation"
                );
            }
        }
    }
}
