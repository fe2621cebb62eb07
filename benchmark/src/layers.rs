//! Per-layer numbers for the `algos` crate: the same rounds as the
//! end-to-end pass, rerun under the public `RunStats` sink, on a cold
//! context, and under the governance stack.

use crate::batch::{default_context, mismatch, run_op, run_rounds, OpCount};
use crate::probes::Values;
use crate::report::{absent, algos_name};
use crate::trace::Tracer;
use crate::workload::{Inputs, Prim};
use gunrock::prelude::*;
use gunrock_engine::budget::MemoryBudget;
use gunrock_engine::pool::BufferPool;
use gunrock_engine::watchdog::Heartbeat;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Rounds after which `engine.pool_allocations` is read: a fixed point, so
/// the count repeats exactly however many rounds fit the budget.
const WARM_ROUNDS: usize = 2;

pub fn algos(inp: &Inputs, budget: Duration, tracer: &Tracer) -> (Values, OpCount) {
    let g = &*inp.graph;
    let m = g.num_edges() as f64;
    let mut out = Values::new();
    let mut ops = OpCount::default();
    let pool = Arc::new(BufferPool::new());
    let context = || Context::new(g).with_reverse(g).with_shared_pool(pool.clone());

    // Stats off: the end-to-end quantities, measured with spans on. Their
    // distance from the untraced pass is what the spans cost.
    let warm = context();
    let warm_calls: usize =
        WARM_ROUNDS * Prim::ALL.iter().map(|p| p.calls_per_round()).sum::<usize>();
    let (mut calls, mut warm_allocations) = (0, 0);
    let plain = run_rounds(&Prim::ALL, budget.mul_f64(0.3), WARM_ROUNDS, |p, i| {
        let timed = run_op(&warm, inp, p, i, tracer);
        calls += 1;
        if calls == warm_calls {
            warm_allocations = pool.stats().allocations;
        }
        timed
    });
    out.push(("engine.pool_allocations".into(), warm_allocations as f64));
    ops.add(&plain.ops);

    // Stats on: a fresh sink per call over the same warm pool, so each
    // summary covers exactly one call.
    let mut summaries: [Vec<Vec<RunStatsSummary>>; 6] =
        Prim::ALL.map(|p| vec![Vec::new(); p.calls_per_round()]);
    let with_stats = run_rounds(&Prim::ALL, budget.mul_f64(0.3), WARM_ROUNDS, |p, i| {
        let ctx = context().with_stats();
        let made = run_op(&ctx, inp, p, i, tracer);
        summaries[p as usize][i].push(ctx.run_stats().summary().with_wall_clock(made.ms));
        made
    });
    ops.add(&with_stats.ops);

    for p in Prim::ALL {
        let calls = p.calls_per_round() as f64;
        // the breakdown of each call's best round, as `best_ms` reports it
        let best: Vec<&RunStatsSummary> = summaries[p as usize]
            .iter()
            .map(|rounds| {
                rounds
                    .iter()
                    .min_by(|a, b| a.wall_millis.total_cmp(&b.wall_millis))
                    .expect("a round")
            })
            .collect();
        let edges: u64 = best.iter().map(|s| s.edges_examined).sum();
        let iterations: u64 = best.iter().map(|s| u64::from(s.iterations)).sum();
        let mean_of = |f: &dyn Fn(&RunStatsSummary) -> f64| {
            best.iter().map(|s| f(s)).sum::<f64>() / calls
        };
        let mut push = |suffix: &str, v: f64| {
            if !absent(p, suffix) {
                out.push((algos_name(p, suffix), v));
            }
        };
        push("iterations", iterations as f64);
        push("edges_examined", edges as f64);
        push("edge_ratio", edges as f64 / (calls * m));
        push("advance_ms", mean_of(&|s| s.advance_millis));
        push("filter_ms", mean_of(&|s| s.filter_millis));
        push("loop_ms", mean_of(&|s| s.wall_millis - s.operator_sum_millis()));
        push("oracle_ratio", plain.vs_serial(p));
        let cold = run_op(&default_context(inp), inp, p, 0, tracer);
        ops.record(mismatch(p, cold.ok));
        push("cold_ms", cold.ms);
        push("stats_overhead", with_stats.vs_serial(p) / plain.vs_serial(p));
        push("best_ms", plain.best_ms(p));
    }

    // The whole governance stack a serving layer can put on a request
    // context: run policy (cancel flag + deadline), memory budget, heartbeat.
    let governed = Context::new(g)
        .with_reverse(g)
        .with_budget(Arc::new(MemoryBudget::new(u64::MAX / 2)))
        .with_heartbeat(Arc::new(Heartbeat::new()))
        .with_policy(
            RunPolicy::unbounded()
                .cancel_flag(Arc::new(AtomicBool::new(false)))
                .wall_clock_budget(Duration::from_secs(3600)),
        );
    let prims = [Prim::Bfs, Prim::Pagerank];
    // one round more than the others, to warm the governed context's own pool
    let governed = run_rounds(&prims, Duration::ZERO, WARM_ROUNDS + 1, |p, i| {
        run_op(&governed, inp, p, i, tracer)
    });
    for p in prims {
        out.push((algos_name(p, "governed_ratio"), governed.vs_serial(p) / plain.vs_serial(p)));
    }
    ops.add(&governed.ops);
    (out, ops)
}
