//! The repo benchmark. See `benchmark/README.md`.
//!
//! `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and ends with the driver's JSON line.
//! Without `--workload` it runs every workload, untraced then traced, each
//! in a fresh process so peaks do not leak across.

mod batch;
mod layers;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use batch::OpCount;
use gunrock_engine::json::JsonValue;
use gunrock_graph::Csr;
use gunrock_server::ServerHandle;
use report::{Measured, END_TO_END, RUN_SECONDS};
use stats::{quantile, summarize};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Prim, Spec, SMOKE_SCALE, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    manifest: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--repeat K] [--smoke] [--manifest]";

/// Seconds one run measures under `--smoke`.
const SMOKE_SECONDS: f64 = 0.8;

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
        manifest: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                seconds_given = true;
            }
            "--trace" => a.trace = value()? == "1",
            "--repeat" => a.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.smoke && !seconds_given {
        a.seconds = SMOKE_SECONDS;
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 || a.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => match workload::find(name) {
            Some(spec) => run_one(spec, &args),
            None => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?} (one of {names:?})");
                ExitCode::from(2)
            }
        },
        None => run_all(&args),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct SetUp {
    graph: Arc<Csr>,
    server: ServerHandle,
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
    start_ms: Vec<f64>,
}

/// Generator, `GraphBuilder::build`, and `start` until the first `metrics`
/// reply — repeated, because one set-up is too short to time steadily on
/// the small graphs. The last graph and server are the ones measured on.
fn set_up(spec: &Spec, scale: u32, args: &Args, tracer: &Tracer) -> SetUp {
    let (min_reps, min_total) = if args.smoke { (3, 0.0) } else { (3, 1500.0) };
    let (mut generate_ms, mut build_ms, mut start_ms) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let (coo, d) = tracer.timed("graph", "generate", 0, || workload::generate(spec, scale));
        generate_ms.push(ms(d));
        let (graph, d) = tracer.timed("graph", "build", 0, || Arc::new(workload::build(coo)));
        build_ms.push(ms(d));
        let (server, d) = tracer.timed("server", "start", 0, || {
            let server = serve::start_server(graph.clone());
            serve::MiniClient::connect(server.addr())
                .and_then(|mut c| c.request(serve::METRICS_REQUEST))
                .expect("first metrics reply");
            server
        });
        start_ms.push(ms(d));
        let spent: f64 = generate_ms.iter().chain(&build_ms).chain(&start_ms).sum();
        if generate_ms.len() >= min_reps && (spent >= min_total || generate_ms.len() >= 25) {
            return SetUp { graph, server, generate_ms, build_ms, start_ms };
        }
        server.shutdown();
        server.join();
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

fn sampled(name: impl Into<String>, samples: &[f64]) -> Measured {
    let s = summarize(samples);
    Measured { name: name.into(), value: s.median, samples: Some(s) }
}

fn single(name: impl Into<String>, value: f64) -> Measured {
    Measured { name: name.into(), value, samples: None }
}

/// Counts of the drain summary: (received, completed_ok, rejected_total,
/// queue_full).
fn drain_counts(summary: &str) -> [f64; 4] {
    let v = JsonValue::parse(summary).expect("drain summary is JSON");
    let count = |group: &str, key: &str| {
        v.get(group).and_then(|g| g.get(key)).and_then(JsonValue::as_u64).unwrap_or(0) as f64
    };
    let rejected = match v.get("rejected") {
        Some(JsonValue::Object(pairs)) => pairs.iter().filter_map(|(_, n)| n.as_f64()).sum(),
        _ => 0.0,
    };
    [
        count("requests", "received"),
        count("requests", "completed_ok"),
        rejected,
        count("rejected", "queue_full"),
    ]
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let tracer = Tracer::new(args.trace);
    let scale = if args.smoke { spec.scale.min(SMOKE_SCALE) } else { spec.scale };
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "== {} seed {} scale {scale} {}s {} ({} cores)",
        spec.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        serve::num_clients(),
    );

    let started = Instant::now();
    let up = set_up(spec, scale, args, &tracer);
    let set_up_wall = started.elapsed();
    let setup_s: Vec<f64> = (0..up.generate_ms.len())
        .map(|i| (up.generate_ms[i] + up.build_ms[i] + up.start_ms[i]) / 1e3)
        .collect();
    let inp = workload::prepare(up.graph.clone(), &tracer);
    let oracle_wall = started.elapsed() - set_up_wall;
    println!(
        "   graph: {} vertices, {} directed edges; set up {} times in {:.1} s; oracles {:.1} s",
        inp.graph.num_vertices(),
        inp.graph.num_edges(),
        setup_s.len(),
        set_up_wall.as_secs_f64(),
        oracle_wall.as_secs_f64(),
    );

    // 60 % of the measuring time goes to in-process rounds, 40 % to the
    // served window, whose latencies a timer steadies. The rounds run in
    // two stretches around the window: this sandbox slows down for many
    // seconds at a time, and two stretches ten seconds apart are likelier
    // to see it at full speed.
    let stretch = budget.mul_f64(0.3);
    let wire = budget.mul_f64(0.4);
    let warmup = wire.mul_f64(0.15);
    let mut ops = OpCount::default();
    let mut metrics = Vec::new();

    if !args.trace {
        let ctx = batch::default_context(&inp);
        let run_stretch = || {
            batch::run_rounds(&Prim::ALL, stretch, 2, |p, i| {
                batch::run_op(&ctx, &inp, p, i, &tracer)
            })
        };
        let mut rounds = run_stretch();
        let window = serve::run_window(
            up.server.addr(),
            &inp,
            spec.mix,
            args.seed,
            warmup,
            wire - warmup,
            &tracer,
        );
        rounds.extend(run_stretch());
        println!("   best round, ms per source or per run (not part of the result line):");
        for p in Prim::ALL {
            println!("     {:<10} {:>12.4}", p.name(), rounds.best_ms(p));
            let name = format!("{}_vs_serial", p.name());
            let samples = Some(summarize(&rounds.ratios(p)));
            metrics.push(Measured { name, value: rounds.vs_serial(p), samples });
        }
        let mut latency = window.latency_ms.clone();
        latency.sort_by(f64::total_cmp);
        let dist = Some(summarize(&latency));
        metrics.push(single("qps", window.qps));
        metrics.push(Measured {
            name: "p50_ms".into(),
            value: quantile(&latency, 0.5),
            samples: dist,
        });
        metrics.push(Measured {
            name: "p95_ms".into(),
            value: quantile(&latency, 0.95),
            samples: dist,
        });
        metrics.push(sampled("setup_s", &setup_s));
        println!(
            "   rounds: {}; requests in the window: {}",
            rounds.count(),
            window.ops.attempted
        );
        ops.add(&rounds.ops);
        ops.add(&window.ops);
    } else {
        metrics.push(sampled("graph.generate_ms", &up.generate_ms));
        metrics.push(sampled("graph.build_ms", &up.build_ms));
        metrics.push(sampled("server.start_ms", &up.start_ms));
        // rounds first, as on the untraced pass: the probes free buffers
        // large enough to raise glibc's mmap threshold, after which a
        // round's big allocations stop paying for fresh pages
        let (mut values, algo_ops) = layers::algos(&inp, budget.mul_f64(0.5), &tracer);
        values.extend(probes::graph(&inp.graph, &tracer));
        values.extend(probes::engine(&tracer));
        values.extend(probes::core(&inp, &tracer));
        let probe_reps = if args.smoke { 8 } else { 32 };
        values.extend(probes::server(&up.server, &inp, probe_reps, &tracer));
        let window = serve::run_window(
            up.server.addr(),
            &inp,
            spec.mix,
            args.seed,
            warmup.mul_f64(0.5),
            (wire - warmup).mul_f64(0.5),
            &tracer,
        );
        let mut latency = window.latency_ms.clone();
        latency.sort_by(f64::total_cmp);
        values.push((
            "server.engine_share".into(),
            window.engine_ms / latency.iter().sum::<f64>(),
        ));
        values.push(("server.p99_ms".into(), quantile(&latency, 0.99)));
        values.push(("server.traced_p50_ms".into(), quantile(&latency, 0.5)));
        values.push(("server.traced_qps".into(), window.qps));
        metrics.extend(values.into_iter().map(|(n, v)| single(n, v)));
        ops.add(&algo_ops);
        ops.add(&window.ops);
    }

    up.server.shutdown();
    let summary = up.server.join();
    if args.trace {
        let names = [
            "server.received",
            "server.completed_ok",
            "server.rejected_total",
            "server.queue_full",
        ];
        metrics.extend(names.iter().zip(drain_counts(&summary)).map(|(n, v)| single(*n, v)));
    } else {
        metrics.push(single("peak_rss_mb", peak_rss_mib()));
    }

    let rows = report::rows(&metrics, args.trace);
    report::print_table(
        if args.trace { "per-layer metrics" } else { "end-to-end metrics" },
        &rows,
    );
    println!("wall: {:.1} s", started.elapsed().as_secs_f64());
    let failed = ops.failures();
    println!("ops: attempted {} ok {} failed {failed}", ops.attempted, ops.attempted - failed);
    for (what, n) in &ops.failed {
        println!("  failed with {what}: {n}");
    }
    if let Some(doc) = tracer.to_json() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}.json", spec.name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, doc))
            .expect("write the trace");
        println!("trace: {path}");
    }
    let correct = failed == 0;
    println!("{}", report::result_line(correct, ops.attempted.max(1), failed, &rows));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in a fresh process; echoes its report and returns the
/// metrics of its result line.
fn child_run(spec: &Spec, args: &Args, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !out.status.success() {
        return Err(format!("{} exited with {}", spec.name, out.status));
    }
    let doc =
        JsonValue::parse(line).map_err(|e| format!("{}: bad result line: {e}", spec.name))?;
    match doc.get("metrics") {
        Some(JsonValue::Object(pairs)) => Ok(pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect()),
        _ => Err(format!("{}: result line has no metrics", spec.name)),
    }
}

/// Per-layer counts that must repeat exactly between two runs of one seed.
fn repeats_exactly(name: &str) -> bool {
    name.ends_with(".iterations")
        || name.ends_with(".edges_examined")
        || name == "engine.pool_allocations"
}

fn run_all(args: &Args) -> ExitCode {
    // sets[k][workload] = (end-to-end metrics, per-layer metrics)
    let mut sets = Vec::new();
    for _ in 0..args.repeat {
        let mut set = Vec::new();
        for spec in &WORKLOADS {
            let both = child_run(spec, args, false)
                .and_then(|e| Ok((e, child_run(spec, args, true)?)));
            match both {
                Ok(pair) => set.push(pair),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }

    println!("\n== end-to-end metrics, seed {} (first set)", args.seed);
    print!("{:<28}", "metric");
    WORKLOADS.iter().for_each(|w| print!("{:>18}", w.name));
    println!();
    for (name, unit, ..) in END_TO_END {
        print!("{:<28}", format!("{name} [{unit}]"));
        sets[0].iter().for_each(|(e2e, _)| print!("{:>18.4}", e2e[name]));
        println!();
    }
    println!(
        "\n== the same quantities with spans on (traced pass), as a ratio to the untraced pass"
    );
    for (w, (e2e, layer)) in WORKLOADS.iter().zip(&sets[0]) {
        let mut pairs: Vec<(String, f64)> = Prim::ALL
            .iter()
            .map(|p| {
                (
                    format!("{}_vs_serial", p.name()),
                    layer[&report::algos_name(*p, "oracle_ratio")],
                )
            })
            .collect();
        pairs.push(("p50_ms".into(), layer["server.traced_p50_ms"]));
        pairs.push(("qps".into(), layer["server.traced_qps"]));
        let ratios: Vec<String> =
            pairs.iter().map(|(n, v)| format!("{n} {:.3}", v / e2e[n])).collect();
        println!("  {:<16} {}", w.name, ratios.join("  "));
    }

    let mut agree = true;
    for k in 1..sets.len() {
        println!(
            "\n== set {} against set 1: relative difference, and the metric's bound",
            k + 1
        );
        for (w, (first, again)) in WORKLOADS.iter().zip(sets[0].iter().zip(&sets[k])) {
            for (name, _, _, bound) in END_TO_END {
                let diff = (again.0[name] - first.0[name]).abs() / first.0[name];
                let verdict = if diff <= bound { "ok" } else { "DISAGREES" };
                println!(
                    "  {:<16} {name:<12} {:>7.2}%  bound {:>4.0}%  {verdict}",
                    w.name,
                    diff * 100.0,
                    bound * 100.0
                );
                agree &= diff <= bound;
            }
            for (name, v) in first.1.iter().filter(|(n, _)| repeats_exactly(n)) {
                if again.1[name] != *v {
                    println!("  {:<16} {name} {} != {v}  DISAGREES", w.name, again.1[name]);
                    agree = false;
                }
            }
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
