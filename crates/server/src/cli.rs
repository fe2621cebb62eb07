//! Front-end argument handling for the `gunrock-serve` binary and the
//! `gunrock serve` / `gunrock query` subcommands — both delegate here so
//! the two entry points cannot drift apart.

use crate::client;
use crate::protocol::SCHEMA;
use crate::server::{serve_stdin, start, ServerConfig};
use crate::signal;
use gunrock_engine::faults::FaultPlan;
use gunrock_engine::json::{JsonBuilder, JsonValue};
use gunrock_graph::{generators, io as graph_io, Csr, GraphBuilder};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Usage text for `gunrock-serve` / `gunrock serve`.
pub const SERVE_USAGE: &str = "\
usage: gunrock-serve [--port N | --stdin] [graph flags] [options]

graph flags:
  --graph FILE          load a graph (.bin, .mtx, or edge list)
  --gen KIND            generate: kron soc roadnet bitcoin random smallworld
  --scale N             generator size exponent (default: 12)
  --seed N              generator seed (default: 42)
  --weights LO..HI      random edge weights (default: 1..64, for sssp)
  --reorder             serve the degree-descending relabeled graph;
                        requests still name original vertex ids and
                        result hashes are computed on restored results

options:
  --port N              listen on 127.0.0.1:N (0: pick a free port; default 0)
  --stdin               serve line-delimited requests on stdin instead of TCP
  --workers N           worker-pool size (default: 4)
  --queue-cap N         bounded job-queue capacity (default: 16)
  --breaker-threshold N consecutive panics that open a breaker (default: 3)
  --breaker-cooldown-ms N  open-breaker shed window (default: 1000)
  --retry-after-ms N    retry hint on queue-full rejections (default: 100)
  --checkpoint-dir D    root for per-request snapshots (default: .)
  --serial-threshold N  small-frontier serial fast-path cutoff
  --memory-budget B     cap outstanding pooled bytes across all workers
                        (suffix k/m/g for KiB/MiB/GiB; 0: unlimited, the
                        default); requests whose estimated footprint
                        cannot fit are rejected with over-budget
  --watchdog-ms N       reap jobs silent for N ms (cancel at N, kill at
                        1.5N; 0: disabled, the default)
  --batch-window-ms N   coalesce compatible point BFS queries arriving
                        within N ms into one lane-packed multi-source
                        job (0: disabled, the default)
  --batch-lanes N       lane cap per coalesced batch (default: 64,
                        clamped to 1..=64)
  --inject-faults SPEC  server-wide seeded faults:
                        panic=RATE,alloc=RATE,pool-alloc=RATE,io=RATE,stall=RATE
  --fault-seed N        seed for the fault schedule (default: 42)

The server answers line-delimited JSON requests (see DESIGN.md §service
layer) and drains gracefully on SIGTERM/SIGINT, printing a final
gunrock-serve/v1 summary. Exit code 0 after a clean drain, 1 on setup
errors.";

/// Usage text for `gunrock query`.
pub const QUERY_USAGE: &str = "\
usage: gunrock query --addr HOST:PORT [--request JSON | request flags]

request flags (assembled into one request line):
  --primitive P         bfs sssp bc cc pagerank mst kcore triangles labelprop,
                        sleep or metrics (default: bfs)
  --id ID               correlation id echoed in the response
  --src N               source vertex (default: 0)
  --deadline-ms N       wall-clock budget, counted from arrival
  --max-iters N         iteration cap
  --duration-ms N       sleep primitive duration
  --epsilon X           pagerank convergence threshold
  --checkpoint          ask for a resumable snapshot on a guard trip
  --resume PATH         resume a gunrock-ckpt/v1 snapshot
  --inject SPEC         per-request faults: panic=RATE,alloc=RATE,pool-alloc=RATE,io=RATE,stall=RATE
  --fault-seed N        per-request fault seed
  --timeout-ms N        client receive timeout (default: 30000)

Prints the response line. Exit code 0 when status is \"ok\", 2 for a
partial result, 1 for rejections, failures, and transport errors.";

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 3] = ["stdin", "checkpoint", "reorder"];

fn parse_flags(raw: Vec<String>) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Err("help".to_string()),
            flag if flag.starts_with("--") => {
                let key = flag.trim_start_matches("--").to_string();
                if BOOLEAN_FLAGS.contains(&key.as_str()) {
                    flags.insert(key, "true".to_string());
                } else {
                    let value =
                        it.next().ok_or_else(|| format!("flag {flag} requires a value"))?;
                    flags.insert(key, value);
                }
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(flags)
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}")),
        None => Ok(default),
    }
}

/// Byte-count parsing with `k`/`m`/`g` suffixes, shared with the CLI.
pub use gunrock_engine::budget::parse_bytes;

/// Builds the served graph from `--graph` or the generator flags.
fn build_graph(flags: &HashMap<String, String>) -> Result<Csr, String> {
    if let Some(path) = flags.get("graph") {
        return graph_io::load_graph(std::path::Path::new(path))
            .map_err(|e| format!("cannot load {path}: {e}"));
    }
    let scale = get_u64(flags, "scale", 12)? as u32;
    let seed = get_u64(flags, "seed", 42)?;
    let kind = flags.get("gen").map(String::as_str).unwrap_or("kron");
    // The service runs sssp and mst too, so served graphs always carry
    // weights.
    let (lo, hi) = match flags.get("weights") {
        None => (1, 64),
        Some(spec) => {
            let (lo, hi) = spec
                .split_once("..")
                .ok_or_else(|| format!("--weights expects LO..HI, got {spec:?}"))?;
            let lo: u32 = lo.parse().map_err(|_| format!("bad weight {lo:?}"))?;
            let hi: u32 = hi.parse().map_err(|_| format!("bad weight {hi:?}"))?;
            if lo > hi || lo == 0 {
                return Err(format!("--weights needs 1 <= LO <= HI, got {spec:?}"));
            }
            (lo, hi)
        }
    };
    let coo = generators::from_spec(kind, scale, seed)?;
    Ok(GraphBuilder::new().random_weights(lo, hi, seed).build(coo))
}

fn build_config(flags: &HashMap<String, String>) -> Result<ServerConfig, String> {
    let fault_plan = match flags.get("inject-faults") {
        None => None,
        Some(spec) => Some(
            FaultPlan::parse(spec, get_u64(flags, "fault-seed", 42)?)
                .map_err(|e| format!("--inject-faults: {e}"))?,
        ),
    };
    Ok(ServerConfig {
        workers: get_u64(flags, "workers", 4)? as usize,
        queue_capacity: get_u64(flags, "queue-cap", 16)? as usize,
        breaker_threshold: get_u64(flags, "breaker-threshold", 3)? as u32,
        breaker_cooldown: Duration::from_millis(get_u64(flags, "breaker-cooldown-ms", 1000)?),
        retry_after: Duration::from_millis(get_u64(flags, "retry-after-ms", 100)?),
        checkpoint_dir: PathBuf::from(
            flags.get("checkpoint-dir").map(String::as_str).unwrap_or("."),
        ),
        fault_plan,
        serial_threshold: flags
            .get("serial-threshold")
            .map(|v| v.parse().map_err(|_| format!("--serial-threshold: bad number {v:?}")))
            .transpose()?,
        // filled by run_serve once the graph exists
        relabeling: None,
        memory_budget: flags
            .get("memory-budget")
            .map(|v| parse_bytes(v).map_err(|e| format!("--memory-budget: {e}")))
            .transpose()?
            .unwrap_or(0),
        watchdog_interval: match get_u64(flags, "watchdog-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        batch_window: Duration::from_millis(get_u64(flags, "batch-window-ms", 0)?),
        batch_lanes: get_u64(flags, "batch-lanes", 64)? as usize,
    })
}

/// `gunrock-serve` / `gunrock serve`: boots the service, blocks until
/// drain, prints the summary. Returns the process exit code.
pub fn run_serve(raw: Vec<String>) -> i32 {
    let flags = match parse_flags(raw) {
        Ok(f) => f,
        Err(e) if e == "help" => {
            println!("{SERVE_USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("{e}\n\n{SERVE_USAGE}");
            return 1;
        }
    };
    let mut graph = match build_graph(&flags) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    // --reorder: serve the hub-clustered graph; jobs translate request
    // sources in and restore per-vertex results before hashing
    let relabeling = flags.contains_key("reorder").then(|| {
        let r = gunrock_graph::reorder::degree_descending(&graph);
        graph = r.apply(&graph);
        Arc::new(r)
    });
    let graph = Arc::new(graph);
    let mut cfg = match build_config(&flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n\n{SERVE_USAGE}");
            return 1;
        }
    };
    cfg.relabeling = relabeling;
    eprintln!(
        "gunrock-serve: {} vertices, {} edges, {} workers, queue capacity {}",
        graph.num_vertices(),
        graph.num_edges(),
        cfg.workers.max(1),
        cfg.queue_capacity.max(1)
    );
    signal::install();
    let summary = if flags.contains_key("stdin") {
        serve_stdin(graph, cfg)
    } else {
        let port = get_u64(&flags, "port", 0).ok().and_then(|p| u16::try_from(p).ok());
        let Some(port) = port else {
            eprintln!("--port expects a TCP port number");
            return 1;
        };
        let handle = match start(graph, cfg, port) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        println!("listening on {}", handle.addr());
        let _ = std::io::stdout().flush();
        handle.join()
    };
    println!("{summary}");
    0
}

/// Assembles a request line from `gunrock query` flags.
fn build_request_line(flags: &HashMap<String, String>) -> Result<String, String> {
    if let Some(raw) = flags.get("request") {
        return Ok(raw.clone());
    }
    let mut b = JsonBuilder::new();
    b.begin_object();
    b.field_str("primitive", flags.get("primitive").map(String::as_str).unwrap_or("bfs"));
    if let Some(id) = flags.get("id") {
        b.field_str("id", id);
    }
    for key in ["src", "deadline_ms", "max_iters", "duration_ms", "fault_seed"] {
        let flag = key.replace('_', "-");
        if let Some(v) = flags.get(&flag) {
            let n: u64 =
                v.parse().map_err(|_| format!("--{flag} expects a number, got {v:?}"))?;
            b.field_u64(key, n);
        }
    }
    if let Some(v) = flags.get("epsilon") {
        let eps: f64 =
            v.parse().map_err(|_| format!("--epsilon expects a number, got {v:?}"))?;
        b.field_f64("epsilon", eps);
    }
    if flags.contains_key("checkpoint") {
        b.field_bool("checkpoint", true);
    }
    if let Some(path) = flags.get("resume") {
        b.field_str("resume", path);
    }
    if let Some(spec) = flags.get("inject") {
        b.field_str("inject", spec);
    }
    b.end_object();
    Ok(b.finish())
}

/// `gunrock query`: sends one request and prints the response line.
/// Returns the process exit code (0 ok, 2 partial, 1 otherwise).
pub fn run_query(raw: Vec<String>) -> i32 {
    let flags = match parse_flags(raw) {
        Ok(f) => f,
        Err(e) if e == "help" => {
            println!("{QUERY_USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("{e}\n\n{QUERY_USAGE}");
            return 1;
        }
    };
    let Some(addr) = flags.get("addr") else {
        eprintln!("--addr HOST:PORT is required\n\n{QUERY_USAGE}");
        return 1;
    };
    let line = match build_request_line(&flags) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}\n\n{QUERY_USAGE}");
            return 1;
        }
    };
    let timeout = match get_u64(&flags, "timeout-ms", 30_000) {
        Ok(ms) => Duration::from_millis(ms),
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    match client::query_once(addr, &line, timeout) {
        Ok(response) => {
            println!("{response}");
            match JsonValue::parse(&response)
                .ok()
                .as_ref()
                .and_then(|v| v.get("status"))
                .and_then(JsonValue::as_str)
            {
                Some("ok") => 0,
                // the metrics meta request has no status field but is a
                // successful exchange
                None if response.contains(SCHEMA) => 0,
                Some("partial") => 2,
                _ => 1,
            }
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(v: &[&str]) -> HashMap<String, String> {
        parse_flags(v.iter().map(|s| s.to_string()).collect()).unwrap()
    }

    #[test]
    fn boolean_and_valued_flags_parse() {
        let f = flags(&["--stdin", "--workers", "2", "--checkpoint"]);
        assert_eq!(f.get("stdin").map(String::as_str), Some("true"));
        assert_eq!(f.get("workers").map(String::as_str), Some("2"));
        assert!(f.contains_key("checkpoint"));
        assert!(parse_flags(vec!["--workers".to_string()]).is_err());
    }

    #[test]
    fn request_lines_assemble_and_pass_through() {
        let f = flags(&["--primitive", "sssp", "--src", "4", "--deadline-ms", "250"]);
        let line = build_request_line(&f).unwrap();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("primitive").and_then(JsonValue::as_str), Some("sssp"));
        assert_eq!(v.get("src").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("deadline_ms").and_then(JsonValue::as_u64), Some(250));
        let raw = flags(&["--request", r#"{"primitive":"cc"}"#]);
        assert_eq!(build_request_line(&raw).unwrap(), r#"{"primitive":"cc"}"#);
    }

    #[test]
    fn server_config_reads_every_knob() {
        let f = flags(&[
            "--workers",
            "2",
            "--queue-cap",
            "4",
            "--breaker-threshold",
            "5",
            "--breaker-cooldown-ms",
            "300",
            "--retry-after-ms",
            "50",
            "--checkpoint-dir",
            "/tmp/x",
            "--serial-threshold",
            "9",
            "--memory-budget",
            "64m",
            "--watchdog-ms",
            "250",
            "--batch-window-ms",
            "2",
            "--batch-lanes",
            "32",
        ]);
        let cfg = build_config(&f).unwrap();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_capacity, 4);
        assert_eq!(cfg.breaker_threshold, 5);
        assert_eq!(cfg.breaker_cooldown, Duration::from_millis(300));
        assert_eq!(cfg.retry_after, Duration::from_millis(50));
        assert_eq!(cfg.checkpoint_dir, PathBuf::from("/tmp/x"));
        assert_eq!(cfg.serial_threshold, Some(9));
        assert_eq!(cfg.memory_budget, 64 << 20);
        assert_eq!(cfg.watchdog_interval, Some(Duration::from_millis(250)));
        assert_eq!(cfg.batch_window, Duration::from_millis(2));
        assert_eq!(cfg.batch_lanes, 32);
        // governance defaults: unlimited, no watchdog, no coalescing
        let plain = build_config(&flags(&[])).unwrap();
        assert_eq!(plain.memory_budget, 0);
        assert_eq!(plain.watchdog_interval, None);
        assert_eq!(plain.batch_window, Duration::ZERO);
        assert_eq!(plain.batch_lanes, 64);
    }

    #[test]
    fn byte_counts_parse_with_binary_suffixes() {
        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("512M").unwrap(), 512 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("999999999999g").is_err(), "overflow is an error, not a wrap");
    }

    #[test]
    fn graph_flags_build_a_served_graph() {
        let g = build_graph(&flags(&["--gen", "random", "--scale", "6"])).unwrap();
        assert_eq!(g.num_vertices(), 64);
        assert!(g.edge_values().is_some(), "served graphs always carry weights");
        assert!(build_graph(&flags(&["--gen", "nope"])).is_err());
    }
}
