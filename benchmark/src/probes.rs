//! Per-layer probes for the traced pass: each times calls into one crate's
//! public functions from outside. Every probe returns (metric name, value).

use crate::serve::{check_response, request_line, MiniClient, METRICS_REQUEST};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Inputs, Prim};
use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_engine::compact::compact_indices;
use gunrock_engine::json::{JsonBuilder, JsonValue};
use gunrock_engine::pool::BufferPool;
use gunrock_engine::queue::BoundedQueue;
use gunrock_engine::scan::scan_exclusive_u32_into;
use gunrock_graph::{reorder, Csr};
use gunrock_server::{handle_request, protocol::parse_request, ServerHandle};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

pub type Values = Vec<(String, f64)>;

/// Best seconds of `reps` calls of `f`, each timed alone (`prepare` runs
/// untimed before each). Best, as everywhere a CPU-bound time is
/// reported: see `Rounds::best_ms`.
fn best_secs<S>(reps: usize, mut prepare: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    (0..reps)
        .map(|_| {
            let state = prepare();
            let start = Instant::now();
            f(state);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds per call, for calls too short to time alone: the best of ten
/// tight loops of `calls / 10`.
fn secs_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let batch = calls / 10;
    best_secs(10, || (), |()| (0..batch).for_each(&mut f)) / batch as f64
}

/// Arrays: offsets (n+1), neighbours (m) and weights (m), 4 bytes each.
fn csr_bytes(g: &Csr) -> f64 {
    (4 * (g.num_vertices() + 1 + 2 * g.num_edges())) as f64
}

/// The write-side probe: what reorder-by-default would add to set-up.
pub fn graph(g: &Csr, tracer: &Tracer) -> Values {
    let ((), d) = tracer.timed("graph", "reorder", 0, || {
        black_box(reorder::degree_descending(g).apply(g));
    });
    vec![
        ("graph.csr_bytes".into(), csr_bytes(g)),
        ("graph.reorder_ms".into(), d.as_secs_f64() * 1e3),
    ]
}

const BULK_ELEMS: usize = 1 << 22;
const REPS: usize = 5;

const CANONICAL_REQUEST: &str = r#"{"id":"c0-123","primitive":"bfs","src":4242}"#;

fn canonical_response() -> String {
    let mut b = JsonBuilder::new();
    b.begin_object();
    b.field_str("schema", gunrock_server::SCHEMA);
    b.field_str("id", "c0-123");
    b.field_str("status", "ok");
    b.field_str("primitive", "bfs");
    b.field_str("outcome", "converged");
    b.field_u64("iterations", 6);
    b.field_f64("elapsed_ms", 0.123456);
    b.field_str("result_hash", "cbf29ce484222325");
    b.field_u64("reached", 90206);
    b.field_bool("resumed", false);
    b.end_object();
    b.finish()
}

pub fn engine(tracer: &Tracer) -> Values {
    let mut out = Values::new();
    let input: Vec<u32> = (0..BULK_ELEMS as u32).map(|i| i % 7).collect();
    let melems = BULK_ELEMS as f64 / 1e6;

    tracer.timed("engine", "scan", 0, || {
        let mut scanned = Vec::with_capacity(BULK_ELEMS);
        let s = best_secs(
            REPS,
            || (),
            |()| {
                black_box(scan_exclusive_u32_into(black_box(&input), &mut scanned));
            },
        );
        out.push(("engine.scan_melems_s".into(), melems / s));
    });
    tracer.timed("engine", "compact", 0, || {
        let s = best_secs(
            REPS,
            || (),
            |()| {
                black_box(compact_indices(black_box(&input), |&x| x % 2 == 0));
            },
        );
        out.push(("engine.compact_melems_s".into(), melems / s));
    });
    tracer.timed("engine", "pool", 0, || {
        let pool = BufferPool::new();
        pool.put_u32(pool.take_u32(1024));
        let s = secs_per_call(200_000, |_| pool.put_u32(black_box(pool.take_u32(1024))));
        out.push(("engine.pool_cycle_ns".into(), s * 1e9));
    });
    tracer.timed("engine", "json", 0, || {
        let s = secs_per_call(20_000, |_| {
            black_box(JsonValue::parse(black_box(CANONICAL_REQUEST)).is_ok());
        });
        out.push(("engine.json_parse_us".into(), s * 1e6));
        let s = secs_per_call(20_000, |_| {
            black_box(canonical_response());
        });
        out.push(("engine.json_build_us".into(), s * 1e6));
    });
    tracer.timed("engine", "queue", 0, || {
        let q = BoundedQueue::new(16);
        let s = secs_per_call(200_000, |i| {
            let _ = q.try_push(i);
            black_box(q.pop());
        });
        out.push(("engine.queue_cycle_ns".into(), s * 1e9));
    });
    out
}

/// Accepts every edge, but keeps the call from being optimised away.
fn accept_all() -> EdgeCond<impl Fn(u32, u32, u32) -> bool + Sync> {
    EdgeCond(|_src, dst, _eid| black_box(dst) != u32::MAX)
}

/// Elements of the small frontier: the per-call fixed cost of an operator
/// that takes the serial fast path.
const SMALL: usize = 32;

pub fn core(inp: &Inputs, tracer: &Tracer) -> Values {
    let g = &*inp.graph;
    let ctx = crate::batch::default_context(inp);
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut out = Values::new();

    let everything = Frontier::full(n);
    for (name, label, mode) in [
        ("core.advance_tm_meps", "advance_tm", AdvanceMode::ThreadMapped),
        ("core.advance_twc_meps", "advance_twc", AdvanceMode::Twc),
        ("core.advance_lb_meps", "advance_lb", AdvanceMode::LoadBalanced),
    ] {
        tracer.timed("core", label, 0, || {
            let spec = AdvanceSpec::for_effect().with_mode(mode);
            let s = best_secs(
                REPS,
                || (),
                |()| {
                    ctx.recycle(advance::advance(&ctx, &everything, spec, &accept_all()));
                },
            );
            out.push((name.into(), m as f64 / 1e6 / s));
        });
    }

    tracer.timed("core", "advance_pull", 0, || {
        let every_other = Frontier::from_vec((0..n as u32).step_by(2).collect());
        let mut in_frontier = PooledBitmap::take(ctx.pool(), n);
        in_frontier.fill_from_frontier(&every_other);
        let mut edges = 0;
        let s = best_secs(
            REPS,
            || {
                let mut candidates = PooledBitmap::take(ctx.pool(), n);
                candidates.fill_from_frontier(&everything);
                (candidates, PooledBitmap::take(ctx.pool(), n))
            },
            |(mut candidates, mut found)| {
                let before = ctx.counters.edges();
                advance_pull_sweep(
                    &ctx,
                    &mut candidates,
                    &in_frontier,
                    &mut found,
                    &accept_all(),
                );
                edges = ctx.counters.edges() - before;
                candidates.release(ctx.pool());
                found.release(ctx.pool());
            },
        );
        out.push(("core.advance_pull_meps".into(), edges as f64 / 1e6 / s));
    });

    // m/4 ids, each present twice
    let ids: Vec<u32> = (0..m / 4).map(|i| ((i / 2) % n) as u32).collect();
    let ids = Frontier::from_vec(ids);
    let keep_even = VertexCond(|v: u32| black_box(v).is_multiple_of(2));
    tracer.timed("core", "filter_exact", 0, || {
        let s =
            best_secs(REPS, || (), |()| ctx.recycle(filter::filter(&ctx, &ids, &keep_even)));
        out.push(("core.filter_exact_melems_s".into(), ids.len() as f64 / 1e6 / s));
    });
    tracer.timed("core", "filter_culling", 0, || {
        let s = best_secs(
            REPS,
            || AtomicBitmap::new(n),
            |visited| {
                let kept = filter::culling::filter_with_culling(
                    &ctx,
                    &ids,
                    &visited,
                    &keep_even,
                    CullingConfig::default(),
                );
                ctx.recycle(kept);
            },
        );
        out.push(("core.filter_culling_melems_s".into(), ids.len() as f64 / 1e6 / s));
    });

    // the lowest-degree sources, so the frontier stays under the serial
    // threshold on every graph
    let mut small = inp.sources.clone();
    small.sort_by_key(|&v| (g.out_degree(v), v));
    small.truncate(SMALL);
    let small = Frontier::from_vec(small);
    tracer.timed("core", "advance_small", 0, || {
        let s = secs_per_call(20_000, |_| {
            ctx.recycle(advance::advance(&ctx, &small, AdvanceSpec::v2v(), &accept_all()));
        });
        out.push(("core.advance_small_us".into(), s * 1e6));
    });
    tracer.timed("core", "filter_small", 0, || {
        let s =
            secs_per_call(20_000, |_| ctx.recycle(filter::filter(&ctx, &small, &keep_even)));
        out.push(("core.filter_small_us".into(), s * 1e6));
    });
    out
}

/// Sources the server ladder walks; each is asked `reps / LADDER_SOURCES`
/// times.
const LADDER_SOURCES: usize = 8;

/// The same point bfs on the same sources, one rung at a time: the engine
/// call alone, through `handle_request` (parse, admission, queue, worker
/// hand-off, response), then over TCP. Each rung reports the best time per
/// source, averaged over the sources; a rung's self time is the difference
/// to the rung below.
pub fn server(handle: &ServerHandle, inp: &Inputs, reps: usize, tracer: &Tracer) -> Values {
    let g = &*inp.graph;
    let mut out = Values::new();
    let line = |p: Prim, i: usize| request_line("probe", p, inp.sources[i % LADDER_SOURCES]);
    let timed_each = |f: &mut dyn FnMut(usize)| -> Vec<f64> {
        (0..reps)
            .map(|i| {
                let start = Instant::now();
                f(i);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    let rung_us = |samples: &[f64]| {
        let best_of = |src: usize| {
            samples
                .iter()
                .skip(src)
                .step_by(LADDER_SOURCES)
                .copied()
                .fold(f64::INFINITY, f64::min)
        };
        (0..LADDER_SOURCES).map(best_of).sum::<f64>() / LADDER_SOURCES as f64
    };

    tracer.timed("server", "probe_parse", 0, || {
        let request = line(Prim::Bfs, 0);
        let s = secs_per_call(20_000, |_| {
            black_box(parse_request(black_box(&request)).is_ok());
        });
        out.push(("server.parse_us".into(), s * 1e6));
    });

    let (direct, _) = tracer.timed("server", "probe_direct", 0, || {
        let pool = Arc::new(BufferPool::new());
        let cancel = Arc::new(AtomicBool::new(false));
        rung_us(&timed_each(&mut |i| {
            // a request context as `server::jobs` builds it
            let ctx = Context::new(g)
                .with_reverse(g)
                .with_shared_pool(pool.clone())
                .with_policy(RunPolicy::unbounded().cancel_flag(cancel.clone()));
            let src = inp.sources[i % LADDER_SOURCES];
            black_box(algos::bfs(&ctx, src, algos::BfsOptions::default()));
        }))
    });
    let (handled, _) = tracer.timed("server", "probe_handle", 0, || {
        rung_us(&timed_each(&mut |i| {
            black_box(handle_request(handle.state(), &line(Prim::Bfs, i)));
        }))
    });
    let mut client = MiniClient::connect(handle.addr()).expect("connect to the server");
    let (metrics_rtt, _) = tracer.timed("server", "probe_metrics", 0, || {
        median(&timed_each(&mut |_| {
            black_box(client.request(METRICS_REQUEST).expect("metrics reply"));
        }))
    });
    out.push(("server.direct_us".into(), direct));
    out.push(("server.handle_us".into(), handled));
    out.push(("server.metrics_rtt_us".into(), metrics_rtt));
    out.push(("server.admission_us".into(), handled - direct));

    // per-primitive round trips on one idle connection
    for p in [Prim::Bfs, Prim::Sssp, Prim::Bc] {
        let (rtts, _) = tracer.timed("server", "probe_rtt", 0, || {
            timed_each(&mut |i| {
                let reply = client.request(&line(p, i)).expect("probe reply");
                check_response(&reply, inp, p, i % LADDER_SOURCES)
                    .expect("probe answer matches the oracle");
            })
        });
        out.push((format!("server.{}_p50_ms", p.name()), median(&rtts) / 1e3));
        if p == Prim::Bfs {
            out.push(("server.socket_us".into(), rung_us(&rtts) - handled));
        }
    }
    out
}
