//! The data-centric abstraction's frontier-type flexibility (§4.1):
//! vertex and edge frontiers interconvert freely through advance, up to
//! the 2-hop edge-frontier traversal the paper highlights ("pull values
//! from all vertices 2 hops away by starting from an edge frontier").

use gunrock::prelude::*;
use gunrock_graph::{Coo, Csr, GraphBuilder};
use std::ops::ControlFlow::Continue;

fn line_graph() -> Csr {
    // 0 -> 1 -> 2 -> 3 -> 4 (directed path)
    GraphBuilder::new().directed().build(Coo::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]))
}

fn sorted(f: Frontier) -> Vec<u32> {
    let mut v = f.into_vec();
    v.sort_unstable();
    v
}

#[test]
fn v2e_then_e2v_is_a_two_hop_traversal() {
    let g = line_graph();
    let ctx = Context::new(&g);
    // hop 1: vertex 0 -> its out-edge ids
    let edges = advance::advance(&ctx, &Frontier::single(0), AdvanceSpec::v2e(), &AcceptAll);
    assert_eq!(edges.len(), 1);
    // hop 2: those edges expand from their far endpoints
    let two_hop = advance::advance(&ctx, &edges, AdvanceSpec::e2v(), &AcceptAll);
    assert_eq!(sorted(two_hop), vec![2]); // vertex 2 is exactly 2 hops away
}

#[test]
fn e2e_chains_edge_frontiers() {
    let g = line_graph();
    let ctx = Context::new(&g);
    let e0 = advance::advance(&ctx, &Frontier::single(0), AdvanceSpec::v2e(), &AcceptAll);
    let spec = AdvanceSpec {
        input: InputKind::Edges,
        output: OutputKind::Edges,
        ..Default::default()
    };
    let e1 = advance::advance(&ctx, &e0, spec, &AcceptAll);
    // edge (0->1) expands to edge (1->2)
    assert_eq!(e1.len(), 1);
    assert_eq!(g.edge_source(e1.as_slice()[0]), 1);
    assert_eq!(g.edge_dest(e1.as_slice()[0]), 2);
}

#[test]
fn repeated_v2v_reaches_the_whole_path() {
    let g = line_graph();
    let ctx = Context::new(&g);
    let mut f = Frontier::single(0);
    let mut reached = vec![0u32];
    while !f.is_empty() {
        f = advance::advance(&ctx, &f, AdvanceSpec::v2v(), &AcceptAll);
        reached.extend(f.as_slice());
    }
    assert_eq!(reached, vec![0, 1, 2, 3, 4]);
}

#[test]
fn functor_sees_consistent_src_dst_eid_in_all_kinds() {
    use std::sync::atomic::{AtomicBool, Ordering};
    struct Check<'a> {
        g: &'a Csr,
        ok: &'a AtomicBool,
    }
    impl AdvanceFunctor for Check<'_> {
        fn cond_edge<A: Access>(&self, _: A, src: u32, dst: u32, e: u32) -> bool {
            // (src, dst) must be exactly the endpoints of edge e
            if self.g.edge_source(e) != src || self.g.edge_dest(e) != dst {
                self.ok.store(false, Ordering::Relaxed);
            }
            true
        }
    }
    let g = GraphBuilder::new()
        .build(Coo::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (1, 4)]));
    let ctx = Context::new(&g);
    let ok = AtomicBool::new(true);
    let check = Check { g: &g, ok: &ok };
    let all: Frontier = Frontier::full(g.num_vertices());
    for mode in [AdvanceMode::ThreadMapped, AdvanceMode::Twc, AdvanceMode::LoadBalanced] {
        let _ = advance::advance(&ctx, &all, AdvanceSpec::v2v().with_mode(mode), &check);
        let _ = advance::advance(&ctx, &all, AdvanceSpec::v2e().with_mode(mode), &check);
    }
    assert!(ok.load(Ordering::Relaxed), "functor saw inconsistent edge data");
}

#[test]
fn gather_agrees_with_advance_counting() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let g = GraphBuilder::new().build(Coo::from_edges(
        8,
        &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (0, 7)],
    ));
    let ctx = Context::new(&g).with_reverse(&g);
    let f = Frontier::full(g.num_vertices());
    // gathered in-degree sum == total edges a push advance visits
    let mut degs = vec![0u64; g.num_vertices()];
    advance_gather(
        &ctx,
        GatherSpec::range(0..g.num_vertices() as u32),
        &mut degs,
        None,
        |_| true,
        0u64,
        |_u, _v, _e| 1u64,
        |a, b| Continue(a + b),
        |_v, sum, slot| {
            *slot = sum;
            false
        },
    );
    let total: u64 = degs.iter().sum();
    assert_eq!(ctx.counters.edges(), total);
    let visited = AtomicU64::new(0);
    let counter = EdgeCond(|_s: u32, _d: u32, _e: u32| {
        visited.fetch_add(1, Ordering::Relaxed);
        false
    });
    let _ = advance::advance(&ctx, &f, AdvanceSpec::for_effect(), &counter);
    assert_eq!(total, visited.load(Ordering::Relaxed));
    assert_eq!(total, g.num_edges() as u64);
}

#[test]
fn sampled_frontier_advances_like_a_sub_frontier() {
    let g = GraphBuilder::new().build(Coo::from_edges(
        10,
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
    ));
    let ctx = Context::new(&g);
    let full = Frontier::full(10);
    // every other vertex: a deterministic half-sample of the frontier
    let half = Frontier::from_vec((0..10).step_by(2).collect());
    let out_full = sorted(advance::advance(&ctx, &full, AdvanceSpec::v2v(), &AcceptAll));
    let out_half = sorted(advance::advance(&ctx, &half, AdvanceSpec::v2v(), &AcceptAll));
    // a sample's expansion is a sub-multiset of the full expansion
    assert!(out_half.len() <= out_full.len());
    for v in &out_half {
        assert!(out_full.contains(v));
    }
}
