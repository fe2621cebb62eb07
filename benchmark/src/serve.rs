//! Load generator: closed-loop TCP clients (callers that wait for a reply)
//! against an in-process `gunrock_server`.

use crate::batch::OpCount;
use crate::trace::Tracer;
use crate::workload::{Inputs, Prim, Schedule};
use gunrock_engine::json::JsonValue;
use gunrock_graph::Csr;
use gunrock_server::{start, ServerConfig, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, and server workers: one per core, at most 4.
pub fn num_clients() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

/// The default configuration with one worker per core; the coalescing
/// window stays off.
pub fn start_server(graph: Arc<Csr>) -> ServerHandle {
    let cfg = ServerConfig { workers: num_clients(), ..ServerConfig::default() };
    start(graph, cfg, 0).expect("bind a loopback port")
}

/// The benchmark's own client: persistent connection, `TCP_NODELAY`, one
/// write per request. `gunrock_server::Client` writes the line and the
/// newline separately, which doubles the delayed-ACK stall it measures.
pub struct MiniClient {
    stream: TcpStream,
    pending: Vec<u8>,
    line: Vec<u8>,
}

impl MiniClient {
    pub fn connect(addr: SocketAddr) -> io::Result<MiniClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(MiniClient { stream, pending: Vec::new(), line: Vec::new() })
    }

    /// Sends one request line and returns the full response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.line.clear();
        self.line.extend_from_slice(line.as_bytes());
        self.line.push(b'\n');
        self.stream.write_all(&self.line)?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut reply = std::mem::replace(&mut self.pending, rest);
                reply.pop();
                return String::from_utf8(reply)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.pending.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

pub const METRICS_REQUEST: &str = r#"{"primitive":"metrics"}"#;

pub fn request_line(id: &str, p: Prim, src: u32) -> String {
    format!(r#"{{"id":"{id}","primitive":"{}","src":{src}}}"#, p.name())
}

/// What one response says: `Ok(engine elapsed_ms)` when the status is ok
/// and, for bfs and sssp, the result hash equals the oracle's; otherwise
/// the error code (or what was wrong).
pub fn check_response(reply: &str, inp: &Inputs, p: Prim, idx: usize) -> Result<f64, String> {
    let v = JsonValue::parse(reply).map_err(|_| "unparsable".to_string())?;
    if v.get("status").and_then(JsonValue::as_str) != Some("ok") {
        let code = v.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
        return Err(code
            .or(v.get("status").and_then(JsonValue::as_str))
            .unwrap_or("no-status")
            .into());
    }
    let want = match p {
        Prim::Bfs => Some(inp.oracle.bfs_hash[idx]),
        Prim::Sssp => Some(inp.oracle.sssp_hash[idx]),
        _ => None,
    };
    let got = v.get("result_hash").and_then(JsonValue::as_str);
    if want.is_some_and(|h| got != Some(format!("{h:016x}").as_str())) {
        return Err("wrong-result".into());
    }
    v.get("elapsed_ms").and_then(JsonValue::as_f64).ok_or_else(|| "no-elapsed".to_string())
}

/// What the clients saw inside the measuring window.
#[derive(Default)]
pub struct Window {
    /// Client-side latency, send to full response line, of every ok request.
    pub latency_ms: Vec<f64>,
    /// Σ of the server-reported engine time of those requests.
    pub engine_ms: f64,
    /// Requests; the failed ones by error code.
    pub ops: OpCount,
    /// Σ over clients of ok requests / the time that client took over
    /// them: a continuous reading, where ok requests / window length
    /// moves in steps of one request.
    pub qps: f64,
}

/// Drives `clients` closed-loop connections for `warmup + window`; only
/// requests sent after the warm-up and answered before the end count.
pub fn run_window(
    addr: SocketAddr,
    inp: &Inputs,
    mix: [u32; 3],
    seed: u64,
    warmup: Duration,
    window: Duration,
    tracer: &Tracer,
) -> Window {
    let open = Instant::now() + warmup;
    let close = open + window;
    let per_client: Vec<Window> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..num_clients())
            .map(|c| {
                s.spawn(move || {
                    let mut client = MiniClient::connect(addr).expect("connect to the server");
                    let mut schedule = Schedule::new(seed, c, mix);
                    let mut seen = Window::default();
                    let (mut first_sent, mut last_done) = (None, open);
                    for n in 0.. {
                        let (p, idx) = schedule.next();
                        let line = request_line(&format!("c{c}-{n}"), p, inp.sources[idx]);
                        let sent = Instant::now();
                        if sent >= close {
                            break;
                        }
                        let (reply, took) =
                            tracer.timed("server", p.name(), tracer.next_op(), || {
                                client.request(&line)
                            });
                        if sent < open || sent + took > close {
                            continue;
                        }
                        let verdict = reply
                            .map_err(|e| format!("io-{:?}", e.kind()))
                            .and_then(|r| check_response(&r, inp, p, idx));
                        seen.ops.record(verdict.map(|engine_ms| {
                            seen.latency_ms.push(took.as_secs_f64() * 1e3);
                            seen.engine_ms += engine_ms;
                        }));
                        first_sent.get_or_insert(sent);
                        last_done = sent + took;
                    }
                    if let Some(first) = first_sent {
                        seen.qps =
                            seen.latency_ms.len() as f64 / (last_done - first).as_secs_f64();
                    }
                    seen
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    let mut all = Window::default();
    for w in per_client {
        all.latency_ms.extend(w.latency_ms);
        all.engine_ms += w.engine_ms;
        all.ops.add(&w.ops);
        all.qps += w.qps;
    }
    all
}
