//! Integration tests for the topology-modifying primitives (MST) and
//! community detection (label propagation) over the shared suite.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_integration::graph_suite;

#[test]
fn mst_weight_matches_kruskal_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::mst(&ctx);
        assert_eq!(r.total_weight, algos::mst::mst_weight_kruskal(&g), "{name}");
        // tree count equals component count
        let cc = serial::connected_components(&g);
        assert_eq!(r.num_trees, serial::num_components(&cc), "{name}");
        // edge count is the forest size
        assert_eq!(r.edges.len(), g.num_vertices() - r.num_trees, "{name}");
    }
}

#[test]
fn mst_edges_connect_what_cc_connects() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::mst(&ctx);
        // build a graph from only the chosen edges: same components
        let mut coo = gunrock_graph::Coo::new(g.num_vertices());
        for &e in &r.edges {
            coo.push(g.edge_source(e), g.edge_dest(e));
        }
        let forest = gunrock_graph::GraphBuilder::new().build(coo);
        assert_eq!(
            serial::connected_components(&forest),
            serial::connected_components(&g),
            "{name}: forest must span every component"
        );
    }
}

#[test]
fn label_propagation_respects_components_on_suite() {
    for (name, g) in graph_suite() {
        let ctx = Context::new(&g);
        let r = algos::label_prop::label_propagation(&ctx, 30);
        assert_eq!(r.labels.len(), g.num_vertices(), "{name}");
        // communities at least as fine as components (labels cannot cross)
        let cc = serial::connected_components(&g);
        let comp_count = serial::num_components(&cc);
        assert!(r.num_communities >= comp_count, "{name}");
        // every label is a real vertex id within the same component
        for v in 0..g.num_vertices() {
            let l = r.labels[v] as usize;
            if g.out_degree(v as u32) > 0 {
                assert_eq!(cc[l], cc[v], "{name}: label from another component");
            }
        }
    }
}
