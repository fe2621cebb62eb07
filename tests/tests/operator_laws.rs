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

/// `g` with each undirected edge kept in one orientation, so in- and
/// out-lists differ, and its transpose.
fn oriented(g: &Csr) -> (Csr, Csr) {
    let coo = g.to_coo();
    let arcs: Vec<(u32, u32)> = coo.edges().filter(|(s, d)| s < d).collect();
    let dg = GraphBuilder::new().directed().build(Coo::from_edges(g.num_vertices(), &arcs));
    let rev = dg.transpose();
    (dg, rev)
}

/// The list form of a pull advance, serially: each candidate whose
/// in-list (a row of `rev`) holds a frontier vertex is discovered.
fn list_pull(
    rev: &Csr,
    candidates: &[u32],
    frontier: &[u32],
) -> std::collections::BTreeSet<u32> {
    let in_frontier: std::collections::BTreeSet<u32> = frontier.iter().copied().collect();
    candidates
        .iter()
        .copied()
        .filter(|&v| rev.neighbors(v).iter().any(|u| in_frontier.contains(u)))
        .collect()
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

    /// The pull sweep discovers exactly the candidates push reaches —
    /// over a directed graph, so it must pull along in-edges — and
    /// clears exactly the discovered bits from the candidate set.
    #[test]
    fn pull_equals_push_reachability((g, frontier) in arb_graph_and_frontier()) {
        let n = g.num_vertices();
        let (dg, rev) = oriented(&g);
        let ctx = Context::new(&dg).with_reverse(&rev);
        let input = Frontier::from_vec(frontier);
        // push: set of destinations
        let push: std::collections::BTreeSet<u32> =
            advance::advance(&ctx, &input, AdvanceSpec::v2v(), &AcceptAll)
                .into_vec()
                .into_iter()
                .collect();
        // pull: candidates = all vertices; kept iff some in-neighbor in frontier
        let bm = frontier_bitmap(&ctx, &input);
        let mut cand = PooledBitmap::take(ctx.pool(), n);
        cand.fill_complement(&AtomicBitmap::new(n)); // complement of empty: all ones
        let mut out = PooledBitmap::take(ctx.pool(), n);
        let discovered = advance_pull_sweep(&ctx, &mut cand, &bm, &mut out, &AcceptAll);
        let pull: std::collections::BTreeSet<u32> =
            out.iter_ones().map(|i| i as u32).collect();
        prop_assert_eq!(discovered as usize, pull.len());
        // discovered bits left the candidate set; the rest survived
        prop_assert_eq!(cand.count_ones(), n - pull.len());
        for &v in &pull {
            prop_assert!(!cand.get(v as usize), "discovered {v} still a candidate");
        }
        bm.release(ctx.pool());
        cand.release(ctx.pool());
        out.release(ctx.pool());
        prop_assert_eq!(push, pull);
    }

    /// The masked word sweep agrees with the list form of pull over the
    /// BFS candidate set (every vertex outside the frontier) of a
    /// directed graph, and clears exactly the discovered bits from it.
    #[test]
    fn sweep_pull_equals_list_pull((g, frontier) in arb_graph_and_frontier()) {
        let n = g.num_vertices();
        let (dg, rev) = oriented(&g);
        let ctx = Context::new(&dg).with_reverse(&rev);
        let candidates: Vec<u32> =
            (0..n as u32).filter(|v| frontier.binary_search(v).is_err()).collect();
        let list = list_pull(&rev, &candidates, &frontier);
        let input = Frontier::from_vec(frontier);
        let bm = frontier_bitmap(&ctx, &input);
        let mut cand = PooledBitmap::take(ctx.pool(), n);
        cand.fill_from_frontier(&Frontier::from_vec(candidates.clone()));
        let mut out = PooledBitmap::take(ctx.pool(), n);
        let discovered = advance_pull_sweep(&ctx, &mut cand, &bm, &mut out, &AcceptAll);
        let sweep: std::collections::BTreeSet<u32> =
            out.iter_ones().map(|i| i as u32).collect();
        prop_assert_eq!(discovered as usize, sweep.len());
        // the candidates left are exactly those not discovered
        let left: Vec<u32> = cand.iter_ones().map(|i| i as u32).collect();
        let expected_left: Vec<u32> =
            candidates.iter().copied().filter(|v| !list.contains(v)).collect();
        prop_assert_eq!(left, expected_left);
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
        let (dg, rev) = oriented(&g);
        let n = dg.num_vertices();
        let value = |u: u32| u64::from(u) * 3 + 1;
        let member: std::collections::BTreeSet<u32> = frontier.iter().copied().collect();
        let ctx = Context::new(&dg).with_reverse(&rev).with_stats();
        let mut sums = vec![0u64; n];
        let mut next = Vec::new();
        advance_gather(
            &ctx,
            GatherSpec::range(0..n as u32),
            &mut sums,
            Some(&mut next),
            |_| true,
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

    /// A masked list gather, over in-edges or over out-edges of a directed
    /// graph, equals the serial fold of each listed vertex's neighbors on
    /// that side: slot `i` belongs to the `i`-th listed vertex, masked
    /// vertices scan zero edges and keep their slots, the admitted ids
    /// follow the list's order, and the call writes one step.
    #[test]
    fn masked_list_gather_equals_serial_fold((g, frontier) in arb_graph_and_frontier()) {
        let (dg, rev) = oriented(&g);
        // descending, so list order is not id order
        let list: Vec<u32> = frontier.iter().rev().copied().collect();
        let masked = |v: u32| v.is_multiple_of(3);
        for out_edges in [false, true] {
            let side = if out_edges { &dg } else { &rev };
            let ctx = Context::new(&dg).with_reverse(&rev).with_stats();
            let spec = if out_edges {
                GatherSpec::list(&list).out_edges()
            } else {
                GatherSpec::list(&list)
            };
            let mut sums = vec![u64::MAX; list.len()];
            let mut next = vec![7];
            advance_gather(
                &ctx,
                spec,
                &mut sums,
                Some(&mut next),
                |v| !masked(v),
                0u64,
                |u, v, e| {
                    // the edge id names (v, u) on the swept side
                    assert_eq!(side.edge_dest(e), u);
                    u64::from(u) + 1 + u64::from(v)
                },
                |a, b| a + b,
                |_v, sum, slot| {
                    *slot = sum;
                    sum % 2 == 0
                },
            );
            let fold = |v: u32| -> u64 {
                side.neighbors(v).iter().map(|&u| u64::from(u) + 1 + u64::from(v)).sum()
            };
            let want: Vec<u64> =
                list.iter().map(|&v| if masked(v) { u64::MAX } else { fold(v) }).collect();
            prop_assert_eq!(&sums, &want, "out_edges={}", out_edges);
            let mut admitted = vec![7];
            admitted.extend(list.iter().copied().filter(|&v| !masked(v) && fold(v) % 2 == 0));
            prop_assert_eq!(&next, &admitted, "out_edges={}", out_edges);
            let scanned: u64 =
                list.iter().filter(|&&v| !masked(v)).map(|&v| u64::from(side.out_degree(v))).sum();
            prop_assert_eq!(ctx.counters.edges(), scanned, "masked vertices scan nothing");
            let stats = ctx.run_stats();
            prop_assert_eq!(stats.steps.len(), usize::from(!list.is_empty()));
            if let Some(step) = stats.steps.first() {
                let name = if out_edges { "out_gather:list" } else { "pull_gather:list" };
                prop_assert!(step.strategy.starts_with(name), "{}", step.strategy);
                prop_assert_eq!(step.input_len, list.len() as u64);
                prop_assert_eq!(step.output_len, admitted.len() as u64 - 1);
                prop_assert_eq!(step.edges_examined, scanned);
            }
        }
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

    /// Culling inside the advance is the culling filter: an advance whose
    /// functor claims each destination on the visited bitmap emits the
    /// same set as an advance followed by `filter_with_culling` over the
    /// same bitmap, and leaves the bitmap in the same state, under every
    /// workload mapping.
    #[test]
    fn claiming_advance_equals_advance_then_culling_filter(
        (g, frontier) in arb_graph_and_frontier()
    ) {
        let n = g.num_vertices();
        let ctx = Context::new(&g);
        let input = Frontier::from_vec(frontier);
        // the frontier is already visited, as in a traversal
        let seeded = || {
            let visited = AtomicBitmap::new(n);
            for &v in input.as_slice() {
                visited.set(v as usize);
            }
            visited
        };
        for mode in [
            AdvanceMode::ThreadMapped,
            AdvanceMode::Twc,
            AdvanceMode::LoadBalanced,
            AdvanceMode::Auto,
        ] {
            let spec = AdvanceSpec::v2v().with_mode(mode);
            let claimed_by = seeded();
            let claim = EdgeCond(|_s: u32, d: u32, _e: u32| !claimed_by.test_and_set(d as usize));
            let claimed = advance::advance(&ctx, &input, spec, &claim).into_vec();
            let culled_by = seeded();
            let raw = advance::advance(&ctx, &input, spec, &AcceptAll);
            let culled = filter::culling::filter_with_culling(
                &ctx,
                &raw,
                &culled_by,
                &VertexCond(|_| true),
                CullingConfig::default(),
            )
            .into_vec();
            // both are duplicate-free, so equal multisets are equal sets
            prop_assert_eq!(multiset(claimed), multiset(culled), "{:?}", mode);
            prop_assert_eq!(
                claimed_by.iter_ones().collect::<Vec<_>>(),
                culled_by.iter_ones().collect::<Vec<_>>(),
                "{:?}",
                mode
            );
        }
    }

    /// Near-far queue conservation: every element split in is either
    /// returned near, returned by a refill, or provably stale.
    #[test]
    fn near_far_conserves_elements(prios in proptest::collection::vec(0u32..100, 1..60)) {
        let n = prios.len() as u32;
        let pool = gunrock_engine::pool::BufferPool::new();
        let mut q = NearFarQueue::new(10);
        let input = Frontier::from_vec((0..n).collect());
        let mut seen: Vec<u32> = q.split(input, |v| prios[v as usize]).into_vec();
        loop {
            let next = q.refill(&pool, |v| prios[v as usize], |_| true);
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

/// BC picks each forward level's direction by PageRank's edge-volume rule:
/// a gather level scans the in-edges of the unvisited vertices only, and
/// each switch is recorded with the inequality that fired.
#[test]
fn bc_records_its_push_gather_switches() {
    let g = GraphBuilder::new().build(gunrock_graph::generators::rmat(
        10,
        16,
        Default::default(),
        4,
    ));
    let m = g.num_edges() as u64;
    let ctx = Context::new(&g).with_reverse(&g).with_stats();
    let r = gunrock_algos::bc(&ctx, 0, Default::default());
    let want = gunrock_baselines::serial::brandes_single_source(&g, 0);
    for (v, (x, y)) in r.bc_values.iter().zip(&want).enumerate() {
        assert!((x - y).abs() <= 1e-6 * y.abs().max(1.0), "vertex {v}: {x} vs {y}");
    }
    let stats = ctx.run_stats();
    let dense: Vec<&StepRecord> = stats
        .steps
        .iter()
        .filter(|s| matches!(s.strategy, "pull_gather" | "pull_gather:serial"))
        .collect();
    assert!(!dense.is_empty(), "the hub's second level is dense");
    for s in &dense {
        assert_eq!(
            s.input_len,
            g.num_vertices() as u64,
            "a dense level sweeps the vertex range"
        );
        assert!(s.edges_examined < m, "visited vertices are masked out of the sweep");
    }
    assert_eq!(ctx.counters.pull_iters(), dense.len() as u64);
    assert!(stats.switches.len() >= 2);
    assert_eq!(stats.switches[0].to, StepDirection::Pull);
    assert!(stats.switches[0].reason.contains(&format!("> m={m}/6")));
    let last = stats.switches.last().expect("a switch");
    assert_eq!(last.to, StepDirection::Push);
    assert!(last.reason.contains("<= m="));
}
