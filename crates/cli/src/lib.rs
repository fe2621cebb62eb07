//! Command-line driver for the Gunrock reproduction; [`USAGE`] lists the
//! primitives, generators and flags. Exit codes: `0` converged, `1` error
//! (bad arguments, unreadable or malformed graph, failed verification, a
//! faulted run), `2` a guard tripped and the printed result is partial
//! (with checkpointing on, it leaves a resumable snapshot behind).
//!
//! The flags fill one `gunrock_server::Invocation`, run through
//! `gunrock_server::invoke` like every served request, on the graph a
//! `GraphSpec` loads: a run here and a served request on the same graph
//! flags report the same `result_hash`. `--verify` looks the entry's
//! serial oracle up in [`oracle`], keyed by entry name.

#![warn(missing_docs)]

mod oracle;

use gunrock::prelude::*;
use gunrock_algos::registry::{self, Arity, Entry, Output, Query, Run};
use gunrock_engine::budget::MemoryBudget;
use gunrock_engine::pool::BufferPool;
use gunrock_engine::watchdog::{Heartbeat, Watchdog, WatchdogConfig};
use gunrock_graph::prelude::*;
use gunrock_graph::stats;
use gunrock_server::cli::{Flags, GraphSpec};
use gunrock_server::{invoke, Graphs, Invocation};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Usage text printed for `--help` and argument errors.
pub const USAGE: &str = "\
usage: gunrock <primitive> [--graph FILE | --gen KIND --scale N] [options]

primitives: bfs sssp bc cc pagerank msbfs msppr mst kcore triangles labelprop stats
generators: kron soc roadnet bitcoin random smallworld
service:    gunrock serve --help  |  gunrock query --help

options:
  --graph FILE       load a graph (.bin, .mtx, .gr, or edge list)
  --gen KIND         generate a synthetic graph (default: kron)
  --scale N          generator size exponent (default: 12)
  --seed N           generator seed (default: 42)
  --src N            source vertex (first lane of a batch; default: 0)
  --sources N        msbfs/msppr: N lanes (1..=64, default 64) from
                     consecutive ids at --src (mod |V|); prints aggregate
                     sources/sec
  --weights LO..HI   random edge weights of generated graphs (default: 1..64)
  --reorder          degree-descending relabeling (results keep original
                     ids; resume a reordered run with the same flag)
  --verify           cross-check against the serial oracle
  --top K            print the top-K vertices by score (default: 5)
  --max-iters N      stop after N bulk-synchronous iterations (exit 2)
  --timeout-ms N     stop after N milliseconds of wall clock (exit 2)
  --stats-json PATH  write the per-operator trace (see DESIGN.md) as JSON
  --retries N        retry recoverable advance failures N times (default: 0)
  --memory-budget B  cap outstanding pooled bytes (k/m/g suffixes; 0: unlimited)
  --watchdog-ms N    cancel a silent run after N ms, kill at 1.5N (0: off)
  --inject-faults SPEC  seeded faults: panic=RATE,alloc=RATE,pool-alloc=RATE,io=RATE,stall=RATE
  --fault-seed N     seed for the fault schedule (default: 42)
  --checkpoint-every N  snapshot every N iterations (0: only on guard trip)
  --checkpoint-dir D directory for checkpoint files (default: .)
  --resume PATH      resume from a gunrock-ckpt/v1 snapshot (same graph flags)";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The registry entry (or `stats`) to run.
    pub primitive: String,
    /// `--flag value` options.
    pub flags: Flags,
    /// Cross-check results against the serial oracle.
    pub verify: bool,
    /// Run on the degree-descending relabeled graph (results are mapped
    /// back to original ids before printing or verification).
    pub reorder: bool,
}

/// Parses raw arguments; `Err` carries a message for the user.
pub fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut it = raw.into_iter();
    let primitive = match it.next() {
        Some(p) if p == "--help" || p == "-h" => return Err(USAGE.to_string()),
        Some(p) if !p.starts_with('-') => p,
        Some(p) => return Err(format!("expected a primitive, got {p:?}\n\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    };
    let flags = Flags::parse(it).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    let (verify, reorder) = (flags.contains_key("verify"), flags.contains_key("reorder"));
    Ok(Args { primitive, flags, verify, reorder })
}

/// PageRank-style convergence threshold for every CLI run: tight enough
/// that `--verify` holds scores to 1e-6 of the oracle's.
const EPSILON: f64 = 1e-10;

/// The run the flags ask for, minus its sources: the guards, the
/// snapshot policy, the retries, the pool (with `--memory-budget`) and
/// the trace switch.
fn invocation(
    entry: &'static Entry,
    flags: &Flags,
    faults: Option<Arc<FaultInjector>>,
) -> Result<Invocation, String> {
    let mut policy = RunPolicy::unbounded();
    if let Some(cap) = flags.opt("max-iters")? {
        policy = policy.max_iterations(cap);
    }
    if let Some(ms) = flags.opt("timeout-ms")? {
        policy = policy.wall_clock_budget(Duration::from_millis(ms));
    }
    let (every, dir) = (flags.opt("checkpoint-every")?, flags.get("checkpoint-dir"));
    if every.is_none() && dir.is_some() {
        return Err("--checkpoint-dir requires --checkpoint-every".to_string());
    }
    let pool = match flags.bytes("memory-budget")? {
        0 => BufferPool::new(),
        bytes => BufferPool::new().with_budget(Arc::new(MemoryBudget::new(bytes))),
    };
    Ok(Invocation {
        entry,
        sources: Vec::new(),
        epsilon: Some(EPSILON),
        policy,
        faults,
        checkpoints: every.map(|e| CheckpointPolicy::new(e, dir.map_or(".", String::as_str))),
        resume: flags.get("resume").map(PathBuf::from),
        heartbeat: None,
        pool: Arc::new(pool),
        retries: flags.num("retries", 0)?,
        stats: flags.contains_key("stats-json"),
    })
}

/// Executes the parsed command, printing results. `Ok` carries how the
/// enact loop ended: anything but [`RunOutcome::Converged`] means the
/// printed result is partial (exit code 2).
pub fn execute(args: &Args) -> Result<RunOutcome, String> {
    let flags = &args.flags;
    let spec = GraphSpec::parse(flags)?;
    let faults = flags.fault_plan()?.map(|plan| Arc::new(FaultInjector::new(plan)));
    if args.primitive == "stats" {
        print_stats(&spec.load(faults.as_ref())?);
        return Ok(RunOutcome::Converged);
    }
    // reject unknown primitives before paying for graph construction
    let entry = registry::find(&args.primitive)
        .ok_or_else(|| format!("unknown primitive {:?}\n\n{USAGE}", args.primitive))?;
    let lanes = match (entry.arity, flags.contains_key("sources")) {
        (Arity::Lanes, _) => flags.num("sources", LANES)?,
        (_, false) => 1,
        (_, true) => {
            let batched = registry::names(&[Arity::Lanes]);
            return Err(format!("--sources applies to lane-packed primitives ({batched})"));
        }
    };
    if lanes == 0 || lanes > LANES {
        return Err(format!("--sources expects 1..={LANES}, got {lanes}"));
    }
    if flags.contains_key("resume") && entry.resume.is_none() {
        return Err(format!("--resume does not support {:?}", entry.name));
    }
    let mut inv = invocation(entry, flags, faults.clone())?;
    let (src, k) = (flags.num("src", 0)?, flags.num("top", 5)?);
    // The hung-run watchdog shares the guard's cancel flag: a stalled
    // run is cancelled cooperatively first, and only killed (via the
    // heartbeat's kill flag, which the guard also polls) if it stays
    // silent through the grace period.
    let watchdog = match flags.num("watchdog-ms", 0)? {
        0 => None,
        ms => Some(Watchdog::new(WatchdogConfig::new(Duration::from_millis(ms)))),
    };
    let _watch = watchdog.as_ref().map(|dog| {
        let (cancel, hb) = (Arc::new(AtomicBool::new(false)), Arc::new(Heartbeat::new()));
        inv.policy = std::mem::take(&mut inv.policy).cancel_flag(Arc::clone(&cancel));
        inv.heartbeat = Some(Arc::clone(&hb));
        dog.watch(hb, cancel, Box::new(|| eprintln!("gunrock: watchdog killed a hung run")))
    });
    let input = spec.load(faults.as_ref())?;
    // --verify runs the oracle on the input graph, against results
    // restored to original ids
    let original = (args.reorder && args.verify).then(|| input.clone());
    let (graph, relab) = spec.arrange(input);
    let graphs = Graphs::new(graph, relab);
    let g = &graphs.graph;
    let n = g.num_vertices();
    if entry.arity == Arity::One && inv.resume.is_none() && src >= n {
        return Err(format!("--src {src} out of range (graph has {n} vertices)"));
    }
    // original-id sources: one, or `lanes` consecutive ids from --src so
    // a batch is reproducible without listing 64 vertices
    if entry.arity != Arity::None {
        inv.sources = (0..lanes).map(|l| ((src + l) % n.max(1)) as VertexId).collect();
    }
    println!(
        "graph: {} vertices, {} directed edges, max degree {}",
        n,
        g.num_edges(),
        g.max_degree()
    );
    let done = invoke(&graphs, inv).map_err(|e| e.message)?;
    let run = &done.run;
    print_run(entry, run, &done.ctx, k);
    // dump the trace (faulted runs included), then surface a poisoned
    // run as the structured error that caused it (exit code 1)
    if let Some(path) = flags.get("stats-json") {
        dump_stats(path, entry.name, g, run, &done.ctx)?;
    }
    if let Some(e) = done.failure() {
        return Err(e.message);
    }
    // --verify against a converged oracle only makes sense for a
    // converged run; a tripped guard skips it with a note instead of
    // reporting a spurious mismatch
    match (args.verify, oracle::oracle(entry)) {
        (true, _) if !run.outcome.is_converged() => {
            println!("skipping --verify: result is partial ({})", run.outcome);
        }
        (true, Some(oracle)) => {
            let og = original.as_ref().unwrap_or(g);
            let query = Query { sources: run.sources.clone(), epsilon: Some(EPSILON) };
            run.output.check(&oracle(og, &query))?;
            println!("verified against serial oracle");
        }
        (true, None) => println!("skipping --verify: {} has no serial oracle", entry.name),
        (false, _) => {}
    }
    if !run.outcome.is_converged() {
        println!("partial result: {}", run.outcome);
        if let Some(p) = &done.checkpoint {
            println!("resumable checkpoint: {}", p.display());
        }
    }
    Ok(run.outcome)
}

/// The `stats` subcommand: degree distribution and pseudo-diameter.
fn print_stats(g: &Csr) {
    let s = stats::graph_stats(g);
    println!(
        "avg degree {:.2}, pseudo-diameter {}, {:.1}% of vertices below degree 128",
        s.avg_degree,
        s.pseudo_diameter,
        s.frac_degree_lt_128 * 100.0
    );
    let hist = stats::degree_histogram(g);
    for (i, &c) in hist.iter().enumerate().filter(|&(_, &c)| c > 0) {
        let lo = if i == 0 { 0 } else { 1 << (i - 1) };
        let hi = if i == 0 { 0 } else { (1 << i) - 1 };
        println!("  degree {lo:>6}..{hi:<6} : {c} vertices");
    }
}

/// One summary line for any run, its `result_hash` (the served
/// response's field), then what its output shape calls for: reached
/// slots, component count, the top-K scores or the count.
fn print_run(entry: &Entry, run: &Run, ctx: &Context<'_>, k: usize) {
    let secs = run.elapsed.as_secs_f64();
    let from = match run.sources.as_slice() {
        [] => String::new(),
        [s] => format!(" from {s}"),
        [first, ..] => format!(" x{} from {first}", run.sources.len()),
    };
    let mut line = format!(
        "{}{from}: {} iterations ({} pull), {:.2} ms, {:.1} MTEPS",
        entry.name,
        run.iterations,
        ctx.counters.pull_iters(),
        secs * 1e3,
        Timing { elapsed: run.elapsed, edges_examined: ctx.counters.edges() }.mteps()
    );
    if run.sources.len() > 1 && secs > 0.0 {
        line += &format!(", {:.0} sources/sec", run.sources.len() as f64 / secs);
    }
    println!("{line}");
    println!("  result_hash {:016x}", run.output.hash());
    match &run.output {
        Output::Depths(_) => {
            println!("  reached {} vertex slots", run.output.reached().unwrap_or(0))
        }
        Output::Components(_) => {
            println!("  {} components", run.output.components().unwrap_or(0))
        }
        Output::Scores(scores) => {
            println!("  top scores:");
            let mut top: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (v, s) in top.into_iter().take(k) {
                println!("  #{v:<8} {s:.6}");
            }
        }
        Output::Count(c) => println!("  count {c}"),
    }
}

/// Writes the instrumentation trace collected by `ctx`'s sink as a JSON
/// document (schema `gunrock-stats/v1`, documented in DESIGN.md): run
/// metadata, aggregate totals with derived MTEPS, the per-operator
/// summary breakdown, and the full per-iteration step/switch trace.
fn dump_stats(
    path: &str,
    primitive: &str,
    g: &Csr,
    run: &Run,
    ctx: &Context<'_>,
) -> Result<(), String> {
    use gunrock_engine::json::JsonBuilder;
    let stats = ctx.run_stats();
    let timing = Timing { elapsed: run.elapsed, edges_examined: ctx.counters.edges() };
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.field_str("schema", "gunrock-stats/v1");
    j.field_str("primitive", primitive);
    j.field_u64("num_vertices", g.num_vertices() as u64);
    j.field_u64("num_edges", g.num_edges() as u64);
    j.field_str("outcome", &run.outcome.to_string());
    j.field_f64("total_millis", timing.millis());
    j.field_f64("mteps", timing.mteps());
    j.key("counters");
    j.begin_object();
    j.field_u64("iterations", ctx.counters.iters());
    j.field_u64("pull_iterations", ctx.counters.pull_iters());
    j.field_u64("edges_examined", ctx.counters.edges());
    j.end_object();
    j.key("summary");
    j.begin_object();
    stats.summary().with_pool(ctx.pool().stats()).write_json_fields(&mut j);
    j.end_object();
    j.key("trace");
    stats.write_json(&mut j);
    j.end_object();
    std::fs::write(path, j.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("stats trace ({} steps) written to {path}", stats.steps.len());
    Ok(())
}

/// Entry point used by `main`: returns the process exit code.
/// `0` converged, `1` error, `2` partial result (a guard tripped).
///
/// `serve` and `query` are delegated to the service crate: `gunrock
/// serve` is the in-process twin of the `gunrock-serve` binary and
/// `gunrock query` is its line-protocol client.
pub fn run(raw: Vec<String>) -> i32 {
    match raw.first().map(String::as_str) {
        Some("serve") => return gunrock_server::cli::run_serve(raw[1..].to_vec()),
        Some("query") => return gunrock_server::cli::run_query(raw[1..].to_vec()),
        _ => {}
    }
    match parse_args(raw).and_then(|args| execute(&args)) {
        Ok(outcome) if outcome.is_converged() => 0,
        Ok(_) => 2,
        Err(msg) => {
            eprintln!("{msg}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::io;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn load_or_generate(a: &Args) -> Result<Csr, String> {
        GraphSpec::parse(&a.flags)?.load(None)
    }

    /// The invocation `a`'s flags build for its primitive.
    fn invocation_of(a: &Args) -> Result<Invocation, String> {
        invocation(registry::find(&a.primitive).unwrap(), &a.flags, None)
    }

    #[test]
    fn parse_primitive_and_flags() {
        let a = parse_args(args(&["bfs", "--scale", "8", "--verify", "--src", "3"])).unwrap();
        assert_eq!(a.primitive, "bfs");
        assert!(a.verify);
        assert!(!a.reorder);
        assert!(parse_args(args(&["bfs", "--reorder"])).unwrap().reorder);
        assert_eq!(a.flags.get("scale").unwrap(), "8");
        assert_eq!(a.flags.get("src").unwrap(), "3");
    }

    #[test]
    fn parse_errors_are_helpful() {
        assert!(parse_args(args(&[])).unwrap_err().contains("usage"));
        assert!(parse_args(args(&["--scale", "8"])).unwrap_err().contains("primitive"));
        assert!(parse_args(args(&["bfs", "--scale"]))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_args(args(&["bfs", "stray"])).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn weights_spec_parsing() {
        let weights = |a: &Args| GraphSpec::parse(&a.flags).map(|spec| spec.weights);
        let a = parse_args(args(&["sssp", "--weights", "1..9"])).unwrap();
        assert_eq!(weights(&a).unwrap(), (1, 9));
        let bad = parse_args(args(&["sssp", "--weights", "9..1"])).unwrap();
        assert!(weights(&bad).is_err());
        let malformed = parse_args(args(&["sssp", "--weights", "7"])).unwrap();
        assert!(weights(&malformed).is_err());
    }

    #[test]
    fn memory_budget_flag_fails_structured_and_rejects_garbage() {
        // a tiny budget: every core primitive must fail with the
        // structured BudgetExceeded error, never an allocator abort
        for prim in ["bfs", "sssp", "bc", "cc", "pagerank"] {
            let a = parse_args(args(&[prim, "--scale", "7", "--memory-budget", "1k"])).unwrap();
            let err = execute(&a).unwrap_err();
            assert!(err.contains("memory budget"), "{prim}: {err}");
        }
        // a generous budget leaves the run unaffected
        let a =
            parse_args(args(&["bfs", "--scale", "7", "--memory-budget", "64m", "--verify"]))
                .unwrap();
        assert_eq!(execute(&a).unwrap(), RunOutcome::Converged);
        let bad =
            parse_args(args(&["bfs", "--scale", "7", "--memory-budget", "lots"])).unwrap();
        assert!(execute(&bad).unwrap_err().contains("--memory-budget"));
    }

    #[test]
    fn watchdog_flag_leaves_healthy_runs_alone() {
        let a = parse_args(args(&["bfs", "--scale", "7", "--watchdog-ms", "5000", "--verify"]))
            .unwrap();
        assert_eq!(execute(&a).unwrap(), RunOutcome::Converged);
    }

    #[test]
    fn generators_produce_graphs() {
        for kind in ["kron", "soc", "roadnet", "bitcoin", "random", "smallworld"] {
            let a = parse_args(args(&["stats", "--gen", kind, "--scale", "7"])).unwrap();
            let g = load_or_generate(&a).unwrap();
            assert!(g.num_vertices() > 0, "{kind}");
        }
        let bad = parse_args(args(&["stats", "--gen", "nope"])).unwrap();
        assert!(load_or_generate(&bad).is_err());
    }

    #[test]
    fn execute_every_primitive_with_verify() {
        for prim in registry::REGISTRY.iter().map(|e| e.name).chain(["stats"]) {
            assert!(USAGE.contains(prim), "usage must list {prim}");
            let a = parse_args(args(&[prim, "--scale", "7", "--verify"])).unwrap();
            let outcome = execute(&a).unwrap_or_else(|e| panic!("{prim}: {e}"));
            assert!(outcome.is_converged(), "{prim}");
        }
    }

    #[test]
    fn reorder_restores_original_ids_for_every_primitive() {
        // soc at scale 8 has pronounced hubs, so the relabeling is a real
        // permutation; --verify compares restored results against oracles
        // run on the ORIGINAL graph, so any translation slip fails loudly
        for prim in
            registry::REGISTRY.iter().filter(|e| oracle::oracle(e).is_some()).map(|e| e.name)
        {
            let a = parse_args(args(&[
                prim,
                "--gen",
                "soc",
                "--scale",
                "8",
                "--src",
                "5",
                "--reorder",
                "--verify",
            ]))
            .unwrap();
            let outcome = execute(&a).unwrap_or_else(|e| panic!("{prim}: {e}"));
            assert!(outcome.is_converged(), "{prim}");
        }
    }

    #[test]
    fn reordered_run_resumes_from_checkpoint() {
        // the snapshot stores internal (relabeled) ids; resuming with the
        // same --reorder flag must round-trip the source and the labels
        let dir =
            std::env::temp_dir().join(format!("gunrock_cli_rckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap().to_string();
        let partial = args(&[
            "bfs",
            "--gen",
            "soc",
            "--scale",
            "8",
            "--src",
            "5",
            "--reorder",
            "--max-iters",
            "2",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            &d,
        ]);
        assert_eq!(run(partial), 2);
        let ckpt = dir.join("bfs.ckpt");
        assert!(ckpt.exists());
        let resumed = args(&[
            "bfs",
            "--gen",
            "soc",
            "--scale",
            "8",
            "--reorder",
            "--resume",
            ckpt.to_str().unwrap(),
            "--verify",
        ]);
        assert_eq!(run(resumed), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_flags_build_a_run_policy() {
        let policy = |a: &Args| invocation_of(a).map(|inv| inv.policy);
        let a = parse_args(args(&["bfs", "--max-iters", "3", "--timeout-ms", "500"])).unwrap();
        let p = policy(&a).unwrap();
        assert!(!p.is_unbounded());
        let bad = parse_args(args(&["bfs", "--max-iters", "lots"])).unwrap();
        assert!(policy(&bad).unwrap_err().contains("--max-iters"));
        let bad = parse_args(args(&["bfs", "--timeout-ms", "-1"])).unwrap();
        assert!(policy(&bad).unwrap_err().contains("--timeout-ms"));
    }

    #[test]
    fn capped_run_reports_partial_and_exit_code_2() {
        // scale-9 kron BFS needs more than one level to converge
        let a = parse_args(args(&["bfs", "--scale", "9", "--max-iters", "1"])).unwrap();
        let outcome = execute(&a).unwrap();
        assert_eq!(outcome, RunOutcome::IterationCapped);
        assert_eq!(run(args(&["bfs", "--scale", "9", "--max-iters", "1"])), 2);
        // verify is skipped (not failed) on a partial result
        let a =
            parse_args(args(&["bfs", "--scale", "9", "--max-iters", "1", "--verify"])).unwrap();
        assert!(execute(&a).is_ok());
        // unbounded runs still exit 0
        assert_eq!(run(args(&["bfs", "--scale", "7"])), 0);
    }

    #[test]
    fn every_primitive_honors_the_iteration_cap() {
        // every iterative primitive must come back quickly with a
        // partial outcome under a 1-iteration policy, never hang or panic
        for prim in registry::REGISTRY.iter().map(|e| e.name) {
            let a = parse_args(args(&[prim, "--scale", "8", "--max-iters", "1"])).unwrap();
            let outcome = execute(&a).unwrap_or_else(|e| panic!("{prim}: {e}"));
            assert_eq!(outcome, RunOutcome::IterationCapped, "{prim}");
        }
    }

    #[test]
    fn stats_json_emits_step_records_for_all_five_primitives() {
        let dir = std::env::temp_dir();
        for prim in ["bfs", "sssp", "bc", "cc", "pagerank"] {
            let path =
                dir.join(format!("gunrock_cli_stats_{prim}_{}.json", std::process::id()));
            let path_s = path.to_str().unwrap().to_string();
            let a = parse_args(args(&[prim, "--scale", "8", "--stats-json", &path_s])).unwrap();
            execute(&a).unwrap_or_else(|e| panic!("{prim}: {e}"));
            let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{prim}: {e}"));
            assert!(json.contains(r#""schema":"gunrock-stats/v1""#), "{prim}");
            assert!(json.contains(&format!(r#""primitive":"{prim}""#)));
            // at least one recorded operator step with a strategy and a
            // frontier size; cc names its passes (its finish advance only
            // runs when the split leaves a residual), the rest advance
            let expected = if prim == "cc" {
                r#""operator":"filter","strategy":"cc:split""#
            } else {
                r#""operator":"advance""#
            };
            assert!(json.contains(expected), "{prim}: {json}");
            assert!(json.contains(r#""strategy":"#), "{prim}");
            assert!(json.contains(r#""input_len":"#), "{prim}");
            assert!(json.contains(r#""duration_ms":"#), "{prim}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Runs `primitive` with `--verify` on a directed `.bin` of `edges`
    /// over `n` vertices whose in- and out-lists differ, so pulling over
    /// `g` itself would be wrong, and checks that the trace shows the
    /// in-edge `strategy`.
    fn pulls_over_real_in_edges_of_a_directed_bin(
        primitive: &str,
        n: usize,
        edges: &[(u32, u32)],
        strategy: &str,
    ) {
        let coo = gunrock_graph::Coo::from_edges(n, edges);
        let g = GraphBuilder::new().directed().build(coo);
        let dir = std::env::temp_dir();
        let tag = format!("{primitive}_{}", std::process::id());
        let bin = dir.join(format!("gunrock_cli_directed_{tag}.bin"));
        io::write_csr_binary(&g, std::fs::File::create(&bin).unwrap()).unwrap();
        let stats = dir.join(format!("gunrock_cli_directed_{tag}.json"));
        let a = parse_args(args(&[
            primitive,
            "--graph",
            bin.to_str().unwrap(),
            "--verify",
            "--stats-json",
            stats.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(execute(&a).unwrap(), RunOutcome::Converged);
        let json = std::fs::read_to_string(&stats).unwrap();
        assert!(json.contains(strategy), "the run must have pulled: {json}");
        std::fs::remove_file(&bin).ok();
        std::fs::remove_file(&stats).ok();
    }

    /// 0 -> 1 -> 2 -> 0 plus 0 -> 2 and a dangling 3 <- 1.
    const TRIANGLE_PLUS_ONE: [(u32, u32); 5] = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 3)];

    #[test]
    fn pagerank_gathers_over_real_in_edges_of_a_directed_bin() {
        pulls_over_real_in_edges_of_a_directed_bin(
            "pagerank",
            4,
            &TRIANGLE_PLUS_ONE,
            "pull_gather",
        );
    }

    #[test]
    fn bc_gathers_over_real_in_edges_of_a_directed_bin() {
        pulls_over_real_in_edges_of_a_directed_bin("bc", 4, &TRIANGLE_PLUS_ONE, "pull_gather");
    }

    /// The star 0 -> 1..=20, every leaf -> 22, and 21 -> 1: level 2 is 20
    /// vertices with 20 out-edges against one unvisited edge, so BFS
    /// pulls. Pulling over out-lists would label the unreachable 21 and
    /// miss 22.
    #[test]
    fn bfs_pulls_over_real_in_edges_of_a_directed_bin() {
        let mut edges: Vec<(u32, u32)> = (1..=20).flat_map(|i| [(0, i), (i, 22)]).collect();
        edges.push((21, 1));
        pulls_over_real_in_edges_of_a_directed_bin("bfs", 23, &edges, "pull_gather:unset");
    }

    #[test]
    fn bc_verify_matches_nan_only_with_nan() {
        let verify_bc = |got: &[f64], want: &[f64]| {
            Output::Scores(got.to_vec()).check(&Output::Scores(want.to_vec()))
        };
        assert!(verify_bc(&[f64::NAN], &[1.0]).is_err(), "NaN is not any score");
        assert!(verify_bc(&[1.0], &[f64::NAN]).is_err());
        assert!(verify_bc(&[f64::NAN, 0.5], &[f64::NAN, 0.5]).is_ok());
        // relative above 1: another summation order moves the last digits
        assert!(verify_bc(&[4e5 * (1.0 + 1e-9)], &[4e5]).is_ok());
        assert!(verify_bc(&[4e5 + 1.0], &[4e5]).is_err());
        assert!(verify_bc(&[2e-6], &[0.0]).is_err(), "absolute below 1");
    }

    #[test]
    fn robustness_flags_parse() {
        let a = parse_args(args(&[
            "bfs",
            "--retries",
            "2",
            "--inject-faults",
            "panic=0.5,io=0.1",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        let retry_policy =
            |a: &Args| invocation_of(a).map(|inv| RetryPolicy::retries(inv.retries));
        let checkpoint_policy = |a: &Args| invocation_of(a).map(|inv| inv.checkpoints);
        assert_eq!(retry_policy(&a).unwrap(), RetryPolicy::retries(2));
        let plan = a.flags.fault_plan().unwrap().unwrap();
        assert_eq!(plan.seed, 7);
        assert!(plan.is_active());
        let bad = parse_args(args(&["bfs", "--inject-faults", "bogus=1"])).unwrap();
        assert!(bad.flags.fault_plan().unwrap_err().contains("--inject-faults"));
        let a =
            parse_args(args(&["bfs", "--checkpoint-every", "2", "--checkpoint-dir", "/tmp"]))
                .unwrap();
        let cp = checkpoint_policy(&a).unwrap().unwrap();
        assert_eq!(cp.every, 2);
        assert_eq!(cp.path("bfs"), std::path::Path::new("/tmp/bfs.ckpt"));
        let orphan = parse_args(args(&["bfs", "--checkpoint-dir", "/tmp"])).unwrap();
        assert!(checkpoint_policy(&orphan).unwrap_err().contains("--checkpoint-every"));
    }

    #[test]
    fn interrupted_run_resumes_from_checkpoint() {
        let dir = std::env::temp_dir().join(format!("gunrock_cli_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap().to_string();
        for prim in ["bfs", "pagerank"] {
            // a capped run exits 2 and leaves a resumable snapshot behind
            let partial = args(&[
                prim,
                "--scale",
                "8",
                "--max-iters",
                "2",
                "--checkpoint-every",
                "1",
                "--checkpoint-dir",
                &d,
            ]);
            assert_eq!(run(partial), 2, "{prim}");
            let ckpt = dir.join(format!("{prim}.ckpt"));
            assert!(ckpt.exists(), "{prim}: no checkpoint at {}", ckpt.display());
            // resuming it converges and matches the serial oracle
            let resumed =
                args(&[prim, "--scale", "8", "--resume", ckpt.to_str().unwrap(), "--verify"]);
            assert_eq!(run(resumed), 0, "{prim}");
            std::fs::remove_file(&ckpt).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_bad_inputs() {
        // a checkpoint for one primitive cannot seed another
        let dir =
            std::env::temp_dir().join(format!("gunrock_cli_xckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap().to_string();
        let partial = args(&[
            "bfs",
            "--scale",
            "7",
            "--max-iters",
            "1",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            &d,
        ]);
        assert_eq!(run(partial), 2);
        let ckpt = dir.join("bfs.ckpt");
        let a = parse_args(args(&["sssp", "--scale", "7", "--resume", ckpt.to_str().unwrap()]))
            .unwrap();
        assert!(execute(&a).unwrap_err().contains("holds a bfs run"));
        // unsupported primitive and missing file are structured errors too
        let a = parse_args(args(&["mst", "--resume", "nope.ckpt"])).unwrap();
        assert!(execute(&a).unwrap_err().contains("--resume does not support"));
        let a = parse_args(args(&["bfs", "--resume", "nope.ckpt"])).unwrap();
        assert!(execute(&a).unwrap_err().contains("cannot resume"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_panics_surface_as_structured_errors() {
        // rate 1.0 poisons the very first operator: exit 1, never an abort
        let cmd = ["bfs", "--scale", "7", "--inject-faults", "panic=1.0"];
        let a = parse_args(args(&cmd)).unwrap();
        let err = execute(&a).unwrap_err();
        assert!(err.contains("run failed"), "{err}");
        assert_eq!(run(args(&cmd)), 1);
    }

    #[test]
    fn msbfs_sources_flag_matches_solo_oracle() {
        // --verify compares every lane against the serial oracle from
        // that lane's source, with and without --reorder restore
        let a = parse_args(args(&[
            "msbfs",
            "--gen",
            "soc",
            "--scale",
            "7",
            "--sources",
            "9",
            "--verify",
        ]))
        .unwrap();
        assert_eq!(execute(&a).unwrap(), RunOutcome::Converged);
        let a = parse_args(args(&[
            "msbfs",
            "--gen",
            "soc",
            "--scale",
            "7",
            "--src",
            "3",
            "--sources",
            "5",
            "--reorder",
            "--verify",
        ]))
        .unwrap();
        assert_eq!(execute(&a).unwrap(), RunOutcome::Converged);
        for bad in [
            ["msbfs", "--sources", "65"],
            ["msbfs", "--sources", "0"],
            ["bfs", "--sources", "3"],
        ] {
            let bad = parse_args(args(&bad)).unwrap();
            assert!(execute(&bad).unwrap_err().contains("--sources"));
        }
    }

    #[test]
    fn msbfs_batch_resumes_from_checkpoint() {
        let dir =
            std::env::temp_dir().join(format!("gunrock_cli_msckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap().to_string();
        let partial = args(&[
            "msbfs",
            "--gen",
            "kron",
            "--scale",
            "8",
            "--sources",
            "6",
            "--max-iters",
            "1",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            &d,
        ]);
        assert_eq!(run(partial), 2);
        let ckpt = dir.join("msbfs.ckpt");
        assert!(ckpt.exists(), "no batch checkpoint at {}", ckpt.display());
        // a plain bfs resume must refuse the batch snapshot...
        let a = parse_args(args(&[
            "bfs",
            "--gen",
            "kron",
            "--scale",
            "8",
            "--resume",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(execute(&a).unwrap_err().contains("holds a msbfs run"));
        // ...and the batched resume converges and verifies every lane
        let resumed = args(&[
            "msbfs",
            "--gen",
            "kron",
            "--scale",
            "8",
            "--resume",
            ckpt.to_str().unwrap(),
            "--verify",
        ]);
        assert_eq!(run(resumed), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn src_out_of_range_is_an_error() {
        let a = parse_args(args(&["bfs", "--scale", "7", "--src", "99999999"])).unwrap();
        assert!(execute(&a).unwrap_err().contains("out of range"));
    }

    #[test]
    fn unknown_primitive_fails_before_building_a_graph() {
        let a = parse_args(args(&["frobnicate"])).unwrap();
        let t = std::time::Instant::now();
        let err = execute(&a).unwrap_err();
        assert!(err.contains("unknown primitive"));
        // rejection must not pay for the default scale-12 generation
        assert!(t.elapsed() < std::time::Duration::from_millis(200));
    }

    #[test]
    fn run_returns_exit_codes() {
        assert_eq!(run(args(&["stats", "--scale", "6"])), 0);
        assert_eq!(run(args(&["bogus"])), 1);
    }
}
