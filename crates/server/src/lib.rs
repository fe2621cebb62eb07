//! `gunrock-server`: a long-lived query service over one shared,
//! immutable in-memory graph.
//!
//! The batch CLI pays graph construction on every invocation; this crate
//! loads (or generates) the graph once behind an `Arc<Csr>` and serves
//! BFS/SSSP/PageRank/CC/BC queries over a line-delimited JSON protocol —
//! TCP or stdin, no HTTP dependency. The robustness machinery grown by
//! earlier layers composes into the serving path:
//!
//! * **bounded admission** — a [`gunrock_engine::queue::BoundedQueue`]
//!   in front of a fixed worker pool; overflow is answered with a
//!   structured `queue-full` rejection and a retry hint, never buffered
//!   or dropped;
//! * **admission control** — per-request deadlines and iteration budgets
//!   become the [`gunrock::prelude::RunPolicy`] of that request's
//!   context; already-expired deadlines are rejected up front and
//!   re-checked at dispatch;
//! * **panic isolation** — operator panics poison only the failing
//!   request's context (`operator-panic` response); workers survive;
//! * **circuit breaking** — a
//!   [`gunrock_engine::breaker::CircuitBreaker`] per primitive sheds
//!   load after repeated panics and recovers through a half-open probe;
//! * **graceful drain** — SIGTERM/SIGINT stops admission, cancels
//!   in-flight work at the next operator boundary (leaving resumable
//!   `gunrock-ckpt/v1` snapshots when requested), joins the pool, and
//!   prints a final `gunrock-serve/v1` metrics summary.
//!
//! See `DESIGN.md` (service layer) for the protocol schema and the
//! complete error taxonomy, and `tests/tests/server_resilience.rs` for
//! the end-to-end overload/panic/breaker/drain scenarios.

#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod coalesce;
pub mod invoke;
pub mod jobs;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod signal;

pub use client::{query_once, Client};
pub use invoke::{invoke, Graphs, Invocation, InvokeError, Invoked};
pub use protocol::{ErrorCode, Request, SCHEMA};
pub use server::{handle_request, serve_stdin, start, ServerConfig, ServerHandle, ServerState};
