//! Thread-count determinism: every push strategy and the pull kernel
//! must produce the same frontier (as a multiset) and examine the same
//! number of edges regardless of how many workers the launches chunk for.
//! Chunked expansion plus order-preserving concatenation makes the push
//! outputs literally identical; pull admits each candidate at most once,
//! so its output is a set either way.

use gunrock::prelude::*;
use gunrock_engine::par::with_threads;
use gunrock_graph::generators::rmat::{rmat, RmatParams};
use gunrock_graph::{Csr, GraphBuilder};

fn test_graph() -> Csr {
    GraphBuilder::new().build(rmat(9, 8, RmatParams::social(), 42))
}

fn sorted(f: Frontier) -> Vec<u32> {
    let mut v = f.into_vec();
    v.sort_unstable();
    v
}

/// A frontier with hubs and leaves mixed, so every TWC bucket and every
/// load-balance partition boundary is exercised.
fn mixed_frontier(g: &Csr) -> Frontier {
    let mut items: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
    // repeat the highest-degree vertex so skew lands in one chunk
    let hub = (0..g.num_vertices() as u32).max_by_key(|&v| g.out_degree(v)).unwrap();
    items.extend([hub; 4]);
    Frontier::from_vec(items)
}

#[test]
fn push_strategies_are_thread_count_invariant() {
    let g = test_graph();
    let input = mixed_frontier(&g);
    type Strat = fn(&Context<'_>, &Frontier, AdvanceSpec, &AcceptAll) -> Frontier;
    let strategies: [(&str, Strat); 3] = [
        ("thread_mapped", advance::push::thread_mapped),
        ("twc", advance::push::twc),
        ("load_balanced", advance::push::load_balanced),
    ];
    for (name, strat) in strategies {
        let mut baseline: Option<(Vec<u32>, u64)> = None;
        for threads in [1usize, 2, 8] {
            let (out, edges) = with_threads(threads, || {
                let ctx = Context::new(&g);
                let out = strat(&ctx, &input, AdvanceSpec::v2v(), &AcceptAll);
                (sorted(out), ctx.counters.edges())
            });
            match &baseline {
                None => baseline = Some((out, edges)),
                Some((b_out, b_edges)) => {
                    assert_eq!(&out, b_out, "{name}: output differs at {threads} threads");
                    assert_eq!(
                        edges, *b_edges,
                        "{name}: edges_examined differs at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn pull_sweep_is_thread_count_invariant() {
    let g = test_graph();
    let input = mixed_frontier(&g);
    let n = g.num_vertices();
    let mut baseline: Option<(Vec<u32>, Vec<u32>, u64)> = None;
    for threads in [1usize, 2, 8] {
        let (out, remaining, edges) = with_threads(threads, || {
            let ctx = Context::new(&g).with_reverse(&g);
            let in_frontier = advance::pull::frontier_bitmap(&ctx, &input);
            let mut candidates = PooledBitmap::take(ctx.pool(), n);
            // all vertices are candidates
            for v in 0..n as u32 {
                candidates.set(v as usize);
            }
            let mut out = PooledBitmap::take(ctx.pool(), n);
            advance::pull::advance_pull_sweep(
                &ctx,
                &mut candidates,
                &in_frontier,
                &mut out,
                &AcceptAll,
            );
            let discovered: Vec<u32> = out.iter_ones().map(|i| i as u32).collect();
            let remaining: Vec<u32> = candidates.iter_ones().map(|i| i as u32).collect();
            let edges = ctx.counters.edges();
            in_frontier.release(ctx.pool());
            candidates.release(ctx.pool());
            out.release(ctx.pool());
            (discovered, remaining, edges)
        });
        match &baseline {
            None => baseline = Some((out, remaining, edges)),
            Some((b_out, b_rem, b_edges)) => {
                assert_eq!(&out, b_out, "sweep: discovered set differs at {threads} threads");
                assert_eq!(
                    &remaining, b_rem,
                    "sweep: surviving candidates differ at {threads} threads"
                );
                assert_eq!(
                    edges, *b_edges,
                    "sweep: edges_examined differs at {threads} threads"
                );
            }
        }
    }
}
