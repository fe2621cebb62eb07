//! Algebraic laws of the operator set, property-tested over arbitrary
//! graphs: these are the contracts primitives rely on when composing
//! advance/filter/compute steps.

use gunrock::prelude::*;
use gunrock_graph::{Coo, Csr, GraphBuilder};
use proptest::prelude::*;

fn arb_graph_and_frontier() -> impl Strategy<Value = (Csr, Vec<u32>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec(((0..n as u32), (0..n as u32)), 0..100);
        let frontier = proptest::collection::btree_set(0..n as u32, 0..n);
        (edges, frontier).prop_map(move |(edges, frontier)| {
            (
                GraphBuilder::new().build(Coo::from_edges(n, &edges)),
                frontier.into_iter().collect::<Vec<u32>>(),
            )
        })
    })
}

fn multiset(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All push strategies produce the same output multiset.
    #[test]
    fn advance_strategies_are_equivalent((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(&g);
        let input = Frontier::from_vec(frontier);
        let outs: Vec<Vec<u32>> = [AdvanceMode::ThreadMapped, AdvanceMode::Twc, AdvanceMode::LoadBalanced]
            .into_iter()
            .map(|m| {
                multiset(
                    advance::advance(&ctx, &input, AdvanceSpec::v2v().with_mode(m), &AcceptAll)
                        .into_vec(),
                )
            })
            .collect();
        prop_assert_eq!(&outs[0], &outs[1]);
        prop_assert_eq!(&outs[0], &outs[2]);
    }

    /// Advance output size equals the frontier's total neighbor count
    /// when the functor accepts everything.
    #[test]
    fn advance_accept_all_emits_every_edge((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(&g);
        let input = Frontier::from_vec(frontier.clone());
        let out = advance::advance(&ctx, &input, AdvanceSpec::v2v(), &AcceptAll);
        let want: usize = frontier.iter().map(|&v| g.out_degree(v) as usize).sum();
        prop_assert_eq!(out.len(), want);
        prop_assert_eq!(ctx.counters.edges(), want as u64);
    }

    /// filter(p) then filter(q) == filter(p && q).
    #[test]
    fn filter_composes((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(&g);
        let input = Frontier::from_vec(frontier);
        let p = |v: u32| v.is_multiple_of(2);
        let q = |v: u32| v.is_multiple_of(3);
        let two_steps = filter::filter(&ctx, &filter::filter(&ctx, &input, &VertexCond(p)), &VertexCond(q));
        let one_step = filter::filter(&ctx, &input, &VertexCond(|v| p(v) && q(v)));
        prop_assert_eq!(two_steps.as_slice(), one_step.as_slice());
    }

    /// Pull advance discovers exactly the candidates adjacent to the
    /// frontier.
    #[test]
    fn pull_equals_push_reachability((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(&g).with_reverse(&g);
        let input = Frontier::from_vec(frontier.clone());
        // push: set of destinations
        let push: std::collections::BTreeSet<u32> =
            advance::advance(&ctx, &input, AdvanceSpec::v2v(), &AcceptAll)
                .into_vec()
                .into_iter()
                .collect();
        // pull: candidates = all vertices; kept iff some in-neighbor in frontier
        let bm = frontier_bitmap(&ctx, &input);
        let candidates: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let pull: std::collections::BTreeSet<u32> =
            advance_pull(&ctx, &candidates, &bm, &AcceptAll)
                .into_vec()
                .into_iter()
                .collect();
        prop_assert_eq!(push, pull);
    }

    /// The masked word sweep agrees with the list-based pull (and hence
    /// with push reachability), and clears exactly the discovered bits
    /// from the candidate set.
    #[test]
    fn sweep_pull_equals_list_pull((g, frontier) in arb_graph_and_frontier()) {
        let n = g.num_vertices();
        let ctx = Context::new(&g).with_reverse(&g);
        let input = Frontier::from_vec(frontier);
        // list pull over the all-vertices candidate set
        let bm = frontier_bitmap(&ctx, &input);
        let candidates: Vec<u32> = (0..n as u32).collect();
        let list: std::collections::BTreeSet<u32> =
            advance_pull(&ctx, &candidates, &bm, &AcceptAll).into_vec().into_iter().collect();
        // word sweep over the same candidate set
        let mut cand = PooledBitmap::take(ctx.pool(), n);
        cand.fill_complement(&AtomicBitmap::new(n)); // complement of empty: all ones
        let mut out = PooledBitmap::take(ctx.pool(), n);
        advance_pull_sweep(&ctx, &mut cand, &bm, &mut out, &AcceptAll);
        let sweep: std::collections::BTreeSet<u32> =
            out.iter_ones().map(|i| i as u32).collect();
        // discovered bits left the candidate set; the rest survived
        prop_assert_eq!(cand.count_ones(), n - sweep.len());
        for &v in &sweep {
            prop_assert!(!cand.get(v as usize), "discovered {v} still a candidate");
        }
        bm.release(ctx.pool());
        cand.release(ctx.pool());
        out.release(ctx.pool());
        prop_assert_eq!(list, sweep);
    }

    /// The dense gather equals the serial per-vertex sum over in-edges
    /// of a directed graph, admits exactly the vertices its `finish`
    /// accepts (ascending), scans every in-edge of its range once, and
    /// records one step.
    #[test]
    fn gather_equals_serial_in_edge_sum((g, frontier) in arb_graph_and_frontier()) {
        // orient the undirected sample so in- and out-lists differ
        let coo = g.to_coo();
        let arcs: Vec<(u32, u32)> = coo.edges().filter(|(s, d)| s < d).collect();
        let dg = GraphBuilder::new().directed().build(Coo::from_edges(g.num_vertices(), &arcs));
        let rev = dg.transpose();
        let n = dg.num_vertices();
        let value = |u: u32| u64::from(u) * 3 + 1;
        let member: std::collections::BTreeSet<u32> = frontier.iter().copied().collect();
        let ctx = Context::new(&dg).with_reverse(&rev).with_stats();
        let mut sums = vec![0u64; n];
        let mut next = vec![u32::MAX; 3];
        advance_gather(
            &ctx,
            0..n as u32,
            &mut sums,
            &mut next,
            0u64,
            |u, _v, _e| if member.contains(&u) { value(u) } else { 0 },
            |a, b| a + b,
            |_v, sum, slot| {
                *slot = sum;
                sum > 0
            },
        );
        let mut want = vec![0u64; n];
        for &u in &frontier {
            for &v in dg.neighbors(u) {
                want[v as usize] += value(u);
            }
        }
        prop_assert_eq!(&sums, &want);
        let admitted: Vec<u32> = (0..n as u32).filter(|&v| want[v as usize] > 0).collect();
        prop_assert_eq!(next, admitted);
        prop_assert_eq!(ctx.counters.edges(), dg.num_edges() as u64);
        let stats = ctx.run_stats();
        prop_assert_eq!(stats.steps.len(), 1);
        let step = &stats.steps[0];
        prop_assert!(step.strategy.starts_with("pull_gather"));
        prop_assert_eq!(step.direction, Some(StepDirection::Pull));
        prop_assert_eq!(step.input_len, n as u64);
        prop_assert_eq!(step.edges_examined, dg.num_edges() as u64);
    }

    /// The culling filter with bitmask is a one-shot set semantics: over
    /// any sequence of inputs, each id survives globally at most once.
    #[test]
    fn culling_bitmask_is_global_dedup((g, frontier) in arb_graph_and_frontier()) {
        let n = g.num_vertices();
        let ctx = Context::new(&g);
        let visited = AtomicBitmap::new(n);
        let mut survivors = Vec::new();
        for chunk in frontier.chunks(3) {
            let mut doubled: Vec<u32> = chunk.to_vec();
            doubled.extend_from_slice(chunk); // force duplicates
            let out = filter::culling::filter_with_culling(
                &ctx,
                &Frontier::from_vec(doubled),
                &visited,
                &VertexCond(|_| true),
                CullingConfig::default(),
            );
            survivors.extend(out.into_vec());
        }
        let unique: std::collections::BTreeSet<u32> = survivors.iter().copied().collect();
        prop_assert_eq!(unique.len(), survivors.len(), "no id survives twice");
        prop_assert_eq!(unique, frontier.iter().copied().collect());
    }

    /// Near-far queue conservation: every element split in is either
    /// returned near, returned by a refill, or provably stale.
    #[test]
    fn near_far_conserves_elements(prios in proptest::collection::vec(0u32..100, 1..60)) {
        let n = prios.len() as u32;
        let mut q = NearFarQueue::new(10);
        let input = Frontier::from_vec((0..n).collect());
        let mut seen: Vec<u32> = q.split(input, |v| prios[v as usize]).into_vec();
        loop {
            let next = q.refill(|v| prios[v as usize]);
            if next.is_empty() {
                break;
            }
            seen.extend(next.as_slice());
        }
        // priorities are static here, so nothing is stale: all return
        prop_assert_eq!(multiset(seen), (0..n).collect::<Vec<u32>>());
        prop_assert!(q.is_exhausted());
    }
}
