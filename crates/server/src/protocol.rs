//! The `gunrock-serve/v1` wire protocol: line-delimited JSON.
//!
//! One request per line, one response line per request, over TCP or
//! stdin — no HTTP machinery, so the whole protocol fits the hand-rolled
//! [`gunrock_engine::json`] layer. A request names a primitive and its
//! parameters; a response reports either a result summary or a
//! *structured* rejection/failure from the error taxonomy below. Clients
//! never get a silent drop: overload, expiry, breaker shedding and drain
//! all answer with a machine-readable `error.code` (and `retry_after_ms`
//! when retrying is sensible).
//!
//! Request fields (`id` and `primitive` are the only strings; all else
//! is optional):
//!
//! ```text
//! {"id":"r1","primitive":"bfs","src":0,"deadline_ms":5000,
//!  "max_iters":100,"checkpoint":true,"checkpoint_every":0,
//!  "resume":"/path/to/bfs.ckpt","epsilon":1e-10,
//!  "duration_ms":250,"inject":"panic=1.0","fault_seed":7}
//! ```
//!
//! `primitive` names any single-source or whole-graph entry of
//! `gunrock_algos::registry` (`bfs`, `sssp`, `bc`, `cc`, `pagerank`,
//! `mst`, `kcore`, `triangles`, `labelprop`), the diagnostic `sleep`
//! (busy-waits `duration_ms`, honoring deadline and drain — used to
//! exercise queueing deterministically), or the meta request `metrics`
//! (answered inline, never queued).

use gunrock_engine::faults::FaultPlan;
use gunrock_engine::json::JsonValue;

/// Schema tag stamped on every response and metrics document.
pub const SCHEMA: &str = "gunrock-serve/v1";

/// Machine-readable rejection/failure codes — the protocol's complete
/// error taxonomy. Everything a client can observe going wrong maps to
/// exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON or missing required fields.
    BadRequest,
    /// The named primitive is not served.
    UnknownPrimitive,
    /// The source vertex is outside the loaded graph.
    SrcOutOfRange,
    /// The bounded job queue is full — back off and retry.
    QueueFull,
    /// The deadline budget was already spent (at admission or before
    /// dispatch); running the query could only waste worker time.
    DeadlineExpired,
    /// The primitive's circuit breaker is open after repeated failures;
    /// the request was shed without running.
    CircuitOpen,
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// The request's estimated memory footprint does not fit the
    /// server's memory budget. With `retry_after_ms` the pressure is
    /// transient (other jobs hold the headroom — retry later); without
    /// it the graph is simply too large for the configured budget and
    /// retrying cannot help.
    OverBudget,
    /// The watchdog killed this request: its job stopped heartbeating
    /// and ignored cooperative cancellation. The worker slot is
    /// reclaimed; the failure feeds the primitive's circuit breaker.
    WatchdogKilled,
    /// An operator panicked inside this request; only this request
    /// failed (the worker and server keep serving).
    OperatorPanic,
    /// The `resume` snapshot could not be loaded or replayed.
    ResumeFailed,
    /// An unexpected server-side fault (a bug, not an overload signal).
    Internal,
}

impl ErrorCode {
    /// Every code, in taxonomy order. Exists so downstream exhaustiveness
    /// checks (`metrics::CODE_COUNTERS`, the `cargo xtask audit` taxonomy
    /// pass) can iterate the closed set without a match statement.
    pub const ALL: [ErrorCode; 12] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownPrimitive,
        ErrorCode::SrcOutOfRange,
        ErrorCode::QueueFull,
        ErrorCode::DeadlineExpired,
        ErrorCode::CircuitOpen,
        ErrorCode::ShuttingDown,
        ErrorCode::OverBudget,
        ErrorCode::WatchdogKilled,
        ErrorCode::OperatorPanic,
        ErrorCode::ResumeFailed,
        ErrorCode::Internal,
    ];

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownPrimitive => "unknown-primitive",
            ErrorCode::SrcOutOfRange => "src-out-of-range",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::DeadlineExpired => "deadline-expired",
            ErrorCode::CircuitOpen => "circuit-open",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::OverBudget => "over-budget",
            ErrorCode::WatchdogKilled => "watchdog-killed",
            ErrorCode::OperatorPanic => "operator-panic",
            ErrorCode::ResumeFailed => "resume-failed",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim (may be empty).
    pub id: String,
    /// The primitive to run (or `metrics`).
    pub primitive: String,
    /// Source vertex for single-source primitives.
    pub src: u32,
    /// Wall-clock budget in milliseconds, counted from arrival.
    pub deadline_ms: Option<u64>,
    /// Bulk-synchronous iteration cap.
    pub max_iters: Option<u32>,
    /// Sleep duration for the `sleep` diagnostic primitive.
    pub duration_ms: u64,
    /// Snapshot state so a guard trip (or drain) leaves a resumable file.
    pub checkpoint: bool,
    /// Snapshot cadence in iterations (0: only when a guard trips).
    pub checkpoint_every: u32,
    /// Path of a `gunrock-ckpt/v1` snapshot to resume instead of
    /// starting fresh.
    pub resume: Option<String>,
    /// Convergence threshold override for the ranking primitives.
    pub epsilon: Option<f64>,
    /// Per-request fault schedule, parsed from the `inject` spec
    /// (`panic=RATE,alloc=RATE,pool-alloc=RATE,io=RATE,stall=RATE`) and
    /// `fault_seed` (default 42), overriding any server-wide plan.
    pub inject: Option<FaultPlan>,
}

fn get_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key:?} must be a boolean")),
    }
}

fn get_str(v: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => field
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{key:?} must be a string")),
    }
}

/// Parses one request line. Errors are client errors (`bad-request`).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = JsonValue::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let primitive = get_str(&v, "primitive")?.ok_or("missing \"primitive\"")?;
    let src_raw = get_u64(&v, "src")?.unwrap_or(0);
    let src = u32::try_from(src_raw).map_err(|_| "\"src\" does not fit u32".to_string())?;
    let max_iters = match get_u64(&v, "max_iters")? {
        None => None,
        Some(n) => {
            Some(u32::try_from(n).map_err(|_| "\"max_iters\" does not fit u32".to_string())?)
        }
    };
    let checkpoint_every = match get_u64(&v, "checkpoint_every")? {
        None => 0,
        Some(n) => {
            u32::try_from(n).map_err(|_| "\"checkpoint_every\" does not fit u32".to_string())?
        }
    };
    let epsilon = match v.get("epsilon") {
        None | Some(JsonValue::Null) => None,
        Some(field) => {
            Some(field.as_f64().ok_or_else(|| "\"epsilon\" must be a number".to_string())?)
        }
    };
    let fault_seed = get_u64(&v, "fault_seed")?.unwrap_or(42);
    Ok(Request {
        id: get_str(&v, "id")?.unwrap_or_default(),
        primitive,
        src,
        deadline_ms: get_u64(&v, "deadline_ms")?,
        max_iters,
        duration_ms: get_u64(&v, "duration_ms")?.unwrap_or(0),
        checkpoint: get_bool(&v, "checkpoint")?,
        checkpoint_every,
        resume: get_str(&v, "resume")?,
        epsilon,
        inject: get_str(&v, "inject")?
            .map(|spec| FaultPlan::parse(&spec, fault_seed).map_err(|e| format!("inject: {e}")))
            .transpose()?,
    })
}

/// Renders a structured rejection/failure response.
pub fn error_response(
    id: &str,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut b = gunrock_engine::json::JsonBuilder::new();
    b.begin_object();
    b.field_str("schema", SCHEMA);
    b.field_str("id", id);
    let status = match code {
        ErrorCode::OperatorPanic
        | ErrorCode::ResumeFailed
        | ErrorCode::WatchdogKilled
        | ErrorCode::Internal => "failed",
        _ => "rejected",
    };
    b.field_str("status", status);
    b.key("error");
    b.begin_object();
    b.field_str("code", code.as_str());
    b.field_str("message", message);
    b.end_object();
    if let Some(ms) = retry_after_ms {
        b.field_u64("retry_after_ms", ms);
    }
    b.end_object();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id":"q7","primitive":"bfs","src":3,"deadline_ms":500,"max_iters":9,
                "checkpoint":true,"inject":"panic=1.0","fault_seed":11}"#,
        )
        .unwrap();
        assert_eq!(r.id, "q7");
        assert_eq!(r.primitive, "bfs");
        assert_eq!(r.src, 3);
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.max_iters, Some(9));
        assert!(r.checkpoint);
        assert_eq!(r.inject, Some(FaultPlan::parse("panic=1.0", 11).unwrap()));
    }

    #[test]
    fn defaults_are_permissive() {
        let r = parse_request(r#"{"primitive":"cc"}"#).unwrap();
        assert_eq!(r.id, "");
        assert_eq!(r.src, 0);
        assert_eq!(r.deadline_ms, None);
        assert!(!r.checkpoint);
        assert_eq!(r.inject, None);
        let seeded = parse_request(r#"{"primitive":"cc","inject":"panic=0.5"}"#).unwrap();
        assert_eq!(seeded.inject.map(|p| p.seed), Some(42));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"src":1}"#).unwrap_err().contains("primitive"));
        assert!(parse_request(r#"{"primitive":"bfs","src":-1}"#).is_err());
        assert!(parse_request(r#"{"primitive":"bfs","checkpoint":"yes"}"#).is_err());
        assert!(parse_request(r#"{"primitive":"bfs","inject":"bogus=1"}"#)
            .unwrap_err()
            .contains("inject"));
    }

    #[test]
    fn error_responses_carry_the_taxonomy() {
        let resp = error_response("x", ErrorCode::QueueFull, "queue is full", Some(100));
        let v = JsonValue::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("rejected"));
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str),
            Some("queue-full")
        );
        assert_eq!(v.get("retry_after_ms").and_then(JsonValue::as_u64), Some(100));
        let failed = error_response("x", ErrorCode::OperatorPanic, "boom", None);
        let v = JsonValue::parse(&failed).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("failed"));
    }

    #[test]
    fn governance_codes_have_the_right_status() {
        let resp = error_response("x", ErrorCode::OverBudget, "estimated 1 GiB", Some(150));
        let v = JsonValue::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("rejected"));
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str),
            Some("over-budget")
        );
        assert_eq!(v.get("retry_after_ms").and_then(JsonValue::as_u64), Some(150));
        let killed = error_response("x", ErrorCode::WatchdogKilled, "job stalled", None);
        let v = JsonValue::parse(&killed).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("failed"));
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str),
            Some("watchdog-killed")
        );
    }
}
