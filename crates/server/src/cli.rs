//! Front-end argument handling for the `gunrock-serve` binary and the
//! `gunrock serve` / `gunrock query` subcommands — both delegate here so
//! the two entry points cannot drift apart.

use crate::client;
use crate::protocol::SCHEMA;
use crate::server::{serve_stdin, start, ServerConfig};
use crate::signal;
use gunrock_engine::faults::{FaultInjector, FaultKind, FaultPlan};
use gunrock_engine::json::{JsonBuilder, JsonValue};
use gunrock_graph::reorder::{degree_descending, Relabeling};
use gunrock_graph::{generators, io as graph_io, Csr, GraphBuilder};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::str::FromStr;
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

/// Flags that take no value: each front end reads the ones it knows.
const SWITCHES: [&str; 5] = ["help", "verify", "reorder", "stdin", "checkpoint"];

/// `--flag value` options and `--switch`es (stored as `"true"`): the one
/// flag parser behind `gunrock`, `gunrock-serve` and `gunrock query`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Flags(HashMap<String, String>);

impl std::ops::Deref for Flags {
    type Target = HashMap<String, String>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Flags {
    /// Parses `raw`; `-h` is `--help`. `Err` carries a message for the
    /// user.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = HashMap::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--").or((a == "-h").then_some("help")) else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = match SWITCHES.contains(&key) {
                true => "true".to_string(),
                false => it.next().ok_or_else(|| format!("flag {a} requires a value"))?,
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Flags(flags))
    }

    /// `--key`'s number, if given.
    pub fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}")))
            .transpose()
    }

    /// `--key`'s number, or `default`.
    pub fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// `--key`'s byte count (`k`/`m`/`g` suffixes), or 0.
    pub fn bytes(&self, key: &str) -> Result<u64, String> {
        let bytes = self.get(key).map(|v| parse_bytes(v).map_err(|e| format!("--{key}: {e}")));
        Ok(bytes.transpose()?.unwrap_or(0))
    }

    /// The seeded fault schedule of `--inject-faults` / `--fault-seed`.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        let seed = self.num("fault-seed", 42)?;
        let plan = self.get("inject-faults").map(|spec| FaultPlan::parse(spec, seed));
        plan.transpose().map_err(|e| format!("--inject-faults: {e}"))
    }
}

/// Byte-count parsing with `k`/`m`/`g` suffixes (see [`Flags::bytes`]).
pub use gunrock_engine::budget::parse_bytes;

/// Which graph a front end runs on: `--graph`, or `--gen` / `--scale` /
/// `--seed` / `--weights`, and `--reorder`.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSpec {
    /// A `.bin`, `.mtx`, `.gr` or edge-list file; generate when `None`.
    file: Option<PathBuf>,
    gen: String,
    scale: u32,
    seed: u64,
    /// Range of the random edge weights of a generated graph.
    pub weights: (u32, u32),
    /// Run on the degree-descending relabeling (hub clustering).
    reorder: bool,
}

impl GraphSpec {
    /// Reads the graph flags.
    pub fn parse(flags: &Flags) -> Result<GraphSpec, String> {
        let weights = match flags.get("weights") {
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
        Ok(GraphSpec {
            file: flags.get("graph").map(PathBuf::from),
            gen: flags.get("gen").map_or("kron", String::as_str).to_string(),
            scale: flags.num("scale", 12)?,
            seed: flags.num("seed", 42)?,
            weights,
            reorder: flags.contains_key("reorder"),
        })
    }

    /// Loads or generates the input graph. `faults`' `io=` rate damages
    /// file reads for the duration of the load. Generated graphs are
    /// weighted, so `sssp` and `mst` see real weights.
    pub fn load(&self, faults: Option<&Arc<FaultInjector>>) -> Result<Csr, String> {
        let _hook = faults
            .filter(|f| f.plan().rate(FaultKind::Io) > 0.0)
            .map(|f| install_read_faults(Arc::clone(f)));
        if let Some(path) = &self.file {
            return graph_io::load_graph(path)
                .map_err(|e| format!("cannot load {}: {e}", path.display()));
        }
        let coo = generators::from_spec(&self.gen, self.scale, self.seed)?;
        let (lo, hi) = self.weights;
        Ok(GraphBuilder::new().random_weights(lo, hi, self.seed).build(coo))
    }

    /// `input` as runs see it: under `--reorder`, relabeled
    /// degree-descending, with the relabeling that maps results back.
    pub fn arrange(&self, input: Csr) -> (Arc<Csr>, Option<Arc<Relabeling>>) {
        if !self.reorder {
            return (Arc::new(input), None);
        }
        let r = degree_descending(&input);
        (Arc::new(r.apply(&input)), Some(Arc::new(r)))
    }
}

/// Uninstalls the loader fault hook when dropped, so a load's faults
/// cannot leak into the next (tests share the process).
struct ReadFaultGuard;

impl Drop for ReadFaultGuard {
    fn drop(&mut self) {
        graph_io::set_read_fault_hook(None);
    }
}

/// Installs the process-wide loader hook that turns `io=RATE` faults
/// into deterministic truncations and bit-flips of the file under read.
fn install_read_faults(inj: Arc<FaultInjector>) -> ReadFaultGuard {
    graph_io::set_read_fault_hook(Some(Arc::new(move |path: &str, len: u64| {
        if !inj.should_fail(FaultKind::Io, path) {
            return None;
        }
        Some(if inj.uniform(path, 2) == 0 {
            graph_io::IoFault::Truncate { at: inj.uniform(path, len) }
        } else {
            graph_io::IoFault::Corrupt { at: inj.uniform(path, len), mask: 0x40 }
        })
    })));
    ReadFaultGuard
}

fn build_config(flags: &Flags) -> Result<ServerConfig, String> {
    Ok(ServerConfig {
        workers: flags.num("workers", 4)?,
        queue_capacity: flags.num("queue-cap", 16)?,
        breaker_threshold: flags.num("breaker-threshold", 3)?,
        breaker_cooldown: Duration::from_millis(flags.num("breaker-cooldown-ms", 1000)?),
        retry_after: Duration::from_millis(flags.num("retry-after-ms", 100)?),
        checkpoint_dir: PathBuf::from(flags.get("checkpoint-dir").map_or(".", String::as_str)),
        fault_plan: flags.fault_plan()?,
        // filled by `serve` once the graph exists
        relabeling: None,
        memory_budget: flags.bytes("memory-budget")?,
        watchdog_interval: match flags.num("watchdog-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        batch_window: Duration::from_millis(flags.num("batch-window-ms", 0)?),
        batch_lanes: flags.num("batch-lanes", 64)?,
    })
}

/// `gunrock-serve` / `gunrock serve`: boots the service, blocks until
/// drain, prints the summary. Returns the process exit code.
pub fn run_serve(raw: Vec<String>) -> i32 {
    match serve(raw) {
        Ok(summary) => {
            println!("{summary}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// The service's life: the drain summary, or why it never started.
fn serve(raw: Vec<String>) -> Result<String, String> {
    let usage = |e: String| format!("{e}\n\n{SERVE_USAGE}");
    let flags = Flags::parse(raw).map_err(usage)?;
    if flags.contains_key("help") {
        return Ok(SERVE_USAGE.to_string());
    }
    let spec = GraphSpec::parse(&flags).map_err(usage)?;
    let mut cfg = build_config(&flags).map_err(usage)?;
    let port = flags.num::<u16>("port", 0).map_err(usage)?;
    let faults = cfg.fault_plan.map(|plan| Arc::new(FaultInjector::new(plan)));
    // --reorder: serve the hub-clustered graph; jobs translate request
    // sources in and restore per-vertex results before hashing
    let (graph, relabeling) = spec.arrange(spec.load(faults.as_ref())?);
    cfg.relabeling = relabeling;
    eprintln!(
        "gunrock-serve: {} vertices, {} edges, {} workers, queue capacity {}",
        graph.num_vertices(),
        graph.num_edges(),
        cfg.workers.max(1),
        cfg.queue_capacity.max(1)
    );
    signal::install();
    if flags.contains_key("stdin") {
        return Ok(serve_stdin(graph, cfg));
    }
    let handle = start(graph, cfg, port)?;
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    Ok(handle.join())
}

/// Assembles a request line from `gunrock query` flags.
fn build_request_line(flags: &Flags) -> Result<String, String> {
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
    let usage = |e: String| format!("{e}\n\n{QUERY_USAGE}");
    let flags = match Flags::parse(raw).map_err(usage) {
        Ok(f) if f.contains_key("help") => {
            println!("{QUERY_USAGE}");
            return 0;
        }
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let sent = flags
        .get("addr")
        .ok_or_else(|| usage("--addr HOST:PORT is required".to_string()))
        .and_then(|addr| Ok((addr, build_request_line(&flags).map_err(usage)?)))
        .and_then(|(addr, line)| {
            let timeout = Duration::from_millis(flags.num("timeout-ms", 30_000)?);
            client::query_once(addr, &line, timeout)
        });
    let response = match sent {
        Ok(response) => response,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!("{response}");
    match JsonValue::parse(&response).ok().as_ref().and_then(|v| v.get("status")?.as_str()) {
        Some("ok") => 0,
        // the metrics meta request has no status field but is a
        // successful exchange
        None if response.contains(SCHEMA) => 0,
        Some("partial") => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(v: &[&str]) -> Flags {
        Flags::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn boolean_and_valued_flags_parse() {
        let f = flags(&["--stdin", "--workers", "2", "--checkpoint"]);
        assert_eq!(f.get("stdin").map(String::as_str), Some("true"));
        assert_eq!(f.get("workers").map(String::as_str), Some("2"));
        assert!(f.contains_key("checkpoint"));
        assert!(Flags::parse(vec!["--workers".to_string()]).is_err());
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
        let build_graph = |f: &Flags| GraphSpec::parse(f)?.load(None);
        let g = build_graph(&flags(&["--gen", "random", "--scale", "6"])).unwrap();
        assert_eq!(g.num_vertices(), 64);
        assert!(g.edge_values().is_some(), "served graphs always carry weights");
        assert!(build_graph(&flags(&["--gen", "nope"])).is_err());
    }
}
