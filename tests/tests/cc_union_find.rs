//! Connected components by sampled hooking + giant-component skip: the
//! graphs on which a wrong skip, a missing in-edge sweep or a missing
//! no-reverse fallback gives a wrong partition, and the stats that show
//! how many edges the skip saved.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::generators::{erdos_renyi, rmat};
use gunrock_graph::{Coo, Csr, GraphBuilder};

/// Labels must equal the serial union-find's on every way a context can
/// be built over `g`: no reverse graph (no skip), a real transpose, and
/// — when `g` is symmetric — the graph as its own reverse.
fn check(name: &str, g: &Csr) {
    let want = serial::connected_components(g);
    let rev = g.transpose();
    let mut contexts = vec![
        ("no reverse", Context::new(g)),
        ("transpose", Context::new(g).with_reverse(&rev)),
    ];
    if g.is_symmetric() {
        contexts.push(("own reverse", Context::new(g).with_reverse(g)));
    }
    for (how, ctx) in contexts {
        let r = algos::cc(&ctx);
        assert_eq!(r.outcome, RunOutcome::Converged, "{name}, {how}");
        assert_eq!(r.labels, want, "{name}, {how}");
        assert_eq!(r.num_components, serial::num_components(&want), "{name}, {how}");
    }
}

/// A dense giant component over `0..size`, both directions of every edge.
fn giant(size: u32, seed: u64) -> Vec<(u32, u32)> {
    let coo = erdos_renyi(size as usize, 6 * size as usize, seed);
    coo.edges().flat_map(|(s, d)| [(s, d), (d, s)]).collect()
}

/// One-way edges out of the giant component: `19 -> w` is the third
/// out-edge of 19 (sampling never sees it) and `w` itself has two
/// out-edges, so with the skip taken only a sweep over `w`'s *in*-edges
/// finds it; without a reverse graph only the advance over 19's own
/// out-edges does.
#[test]
fn one_way_edges_out_of_the_giant_component_are_found() {
    let mut edges = giant(20, 3);
    let w = 30;
    edges.extend([(19, w), (w, 31), (w, 32), (32, 33), (33, 34), (34, 35)]);
    let g = GraphBuilder::new().directed().build(Coo::from_edges(40, &edges));
    assert!(g.neighbors(19).iter().position(|&v| v == w).expect("19 -> w") >= 2);
    let want = serial::connected_components(&g);
    assert_eq!(want[35], want[0], "the chain hangs off the giant component");
    check("one-way chain", &g);

    // the in-edge sweep is what found it: it ran over w alone
    let rev = g.transpose();
    let ctx = Context::new(&g).with_reverse(&rev).with_stats();
    algos::cc(&ctx);
    let stats = ctx.run_stats();
    let sweep = stats.steps.iter().find(|s| s.strategy == "cc:in_edges").expect("an in-sweep");
    assert_eq!((sweep.input_len, sweep.edges_examined), (1, 1), "w alone, its one in-edge");
}

#[test]
fn components_the_sampling_passes_cannot_finish() {
    // 500 six-vertex components next to a giant one. In each, the edge
    // x - y is the third neighbour of both ends (a1 < a2 < b1 < b2 < x < y,
    // x ~ {a1, a2, y}, y ~ {b1, b2, x}), so sampling leaves two halves and
    // only the finish advance over x and y joins them.
    let base = 2000;
    let mut edges: Vec<(u32, u32)> = erdos_renyi(base as usize, 8000, 7).edges().collect();
    for c in 0..500 {
        let [a1, a2, b1, b2, x, y] = [0, 1, 2, 3, 4, 5].map(|k| base + 6 * c + k);
        edges.extend([(x, a1), (x, a2), (y, b1), (y, b2), (x, y)]);
    }
    let g = GraphBuilder::new().build(Coo::from_edges(base as usize + 3000, &edges));
    let want = serial::connected_components(&g);
    assert_eq!(want[(base + 5) as usize], base, "x - y joins the two halves");
    check("giant + 500 small", &g);

    // two giants of equal size: whichever the split names, the other one
    // is residual and gets finished
    let mut two = giant(300, 1);
    two.extend(giant(300, 2).into_iter().map(|(s, d)| (s + 300, d + 300)));
    check("two equal giants", &GraphBuilder::new().build(Coo::from_edges(600, &two)));

    // a star whose hub is the largest id: every link hooks the hub's tree
    // under a leaf, never the other way round
    let star: Vec<(u32, u32)> = (0..99).map(|leaf| (99, leaf)).collect();
    check("hub is the max id", &GraphBuilder::new().build(Coo::from_edges(100, &star)));
    check("no edges", &GraphBuilder::new().build(Coo::new(10)));
    check("no vertices", &GraphBuilder::new().build(Coo::new(0)));
}

/// `RunStats` names CC's passes and counts the edges it looked at: on a
/// symmetric R-MAT graph with its reverse attached the finish looks at
/// almost none of them, without one at almost all.
#[test]
fn stats_show_the_edges_the_skip_saved() {
    let g = GraphBuilder::new().build(rmat(12, 16, Default::default(), 11));
    let m = g.num_edges() as u64;
    let ctx = Context::new(&g).with_reverse(&g).with_stats();
    let passes = algos::cc(&ctx).iterations;
    let stats = ctx.run_stats();
    let passes_named =
        ["cc:sample_hook", "cc:compress", "cc:split"].map(|p| named_in(&stats, p));
    assert_eq!(passes_named, [2, 2, 1]);
    let split = stats.steps.iter().find(|s| s.strategy == "cc:split").expect("a split");
    assert_eq!(split.operator, OperatorKind::Filter);
    // passes are stamped 1..=4; the finish is the last one
    let finish_edges: u64 =
        stats.steps.iter().filter(|s| s.iteration == passes).map(|s| s.edges_examined).sum();
    assert!(finish_edges < m / 10, "finish examined {finish_edges} of {m} edges");
    assert_eq!(stats.edges_examined(), finish_edges, "no other pass walks edge lists");
    // the finish runs only over what the split kept
    let advanced = stats.steps.iter().find(|s| s.operator == OperatorKind::Advance);
    assert_eq!(advanced.map_or(0, |s| s.input_len), split.output_len);

    let ctx = Context::new(&g).with_stats();
    algos::cc(&ctx);
    let stats = ctx.run_stats();
    let advance =
        stats.steps.iter().find(|s| s.operator == OperatorKind::Advance).expect("an advance");
    assert_eq!(advance.iteration, passes);
    assert!(advance.edges_examined > m / 2, "no reverse graph, no skip");
    assert_eq!(named_in(&stats, "cc:finish"), 1, "links were made, so labels are compressed");
}

fn named_in(stats: &RunStats, step: &str) -> usize {
    stats.steps.iter().filter(|s| s.strategy == step).count()
}
