//! Failure-aware wrappers and checkpoint plumbing shared by the five
//! paper primitives.
//!
//! Each primitive keeps its plain entry point (`bfs`, `sssp`, ...)
//! returning best-so-far results plus a [`RunOutcome`]; the `try_*`
//! wrappers here convert a `Failed` outcome into the structured
//! [`GunrockError`] that poisoned the context, for callers that want
//! `Result` semantics. The small helpers below convert between the
//! checkpointed plain vectors and the atomic working form primitives
//! use. Resuming a snapshot by the primitive name it carries goes
//! through [`crate::registry`].

use crate::bc::{bc, BcOptions, BcResult};
use crate::bfs::{bfs, BfsOptions, BfsResult};
use crate::cc::{cc, CcResult};
use crate::pagerank::{pagerank, PrOptions, PrResult};
use crate::sssp::{sssp, SsspOptions, SsspResult};
use gunrock::prelude::*;
use gunrock_engine::atomics::AtomicF64;
use gunrock_graph::VertexId;
use std::sync::atomic::AtomicU32;

/// Rebuilds the atomic working form from a checkpointed vector.
pub(crate) fn to_atomic_u32(values: &[u32]) -> Vec<AtomicU32> {
    values.iter().map(|&v| AtomicU32::new(v)).collect()
}

/// Rebuilds the atomic working form from a checkpointed vector.
pub(crate) fn to_atomic_f64(values: &[f64]) -> Vec<AtomicF64> {
    values.iter().map(|&v| AtomicF64::new(v)).collect()
}

/// Reads one named scalar out of a checkpoint's scalar section,
/// reporting a malformed checkpoint instead of panicking when the
/// section is shorter than this build expects.
pub(crate) fn scalar(scalars: &[u32], idx: usize, what: &str) -> Result<u32, GunrockError> {
    scalars.get(idx).copied().ok_or_else(|| {
        GunrockError::Checkpoint(CheckpointError::Malformed(format!(
            "scalar section too short: missing {what}"
        )))
    })
}

/// A malformed-checkpoint error with a human-readable reason.
pub(crate) fn malformed(msg: impl Into<String>) -> GunrockError {
    GunrockError::Checkpoint(CheckpointError::Malformed(msg.into()))
}

/// Rejects checkpointed id lists that reference vertices beyond this
/// graph — the checksum only proves integrity, not that the checkpoint
/// was written against the same graph.
pub(crate) fn expect_vertex_ids(ids: &[u32], n: usize, what: &str) -> Result<(), GunrockError> {
    match ids.iter().find(|&&v| v as usize >= n) {
        Some(&v) => {
            Err(malformed(format!("{what} contains vertex {v} but the graph has {n} vertices")))
        }
        None => Ok(()),
    }
}

/// Validates that a checkpointed per-vertex section matches the graph
/// the run was restarted against.
pub(crate) fn expect_len(len: usize, n: usize, what: &str) -> Result<(), GunrockError> {
    if len == n {
        Ok(())
    } else {
        Err(GunrockError::Checkpoint(CheckpointError::Malformed(format!(
            "{what} has {len} entries but the graph has {n} vertices"
        ))))
    }
}

/// The failure that poisoned `ctx`. Falls back to a synthesized error
/// when the slot was already drained (the poison flag itself never
/// resets, so the outcome is still `Failed`).
pub(crate) fn failure_of(ctx: &Context<'_>) -> GunrockError {
    ctx.take_failure().unwrap_or(GunrockError::OperatorPanic {
        operator: "unknown",
        iteration: 0,
        payload: "failure already taken".to_string(),
    })
}

/// Converts a `Failed` outcome into the poisoning error.
pub(crate) fn check_failed<T>(
    ctx: &Context<'_>,
    outcome: RunOutcome,
    result: T,
) -> Result<T, GunrockError> {
    if outcome == RunOutcome::Failed {
        Err(failure_of(ctx))
    } else {
        Ok(result)
    }
}

/// [`bfs`] with `Result` semantics: `Err` carries the structured
/// failure when an operator panicked or allocation retries ran out.
pub fn try_bfs(
    ctx: &Context<'_>,
    src: VertexId,
    opts: BfsOptions,
) -> Result<BfsResult, GunrockError> {
    let r = bfs(ctx, src, opts);
    check_failed(ctx, r.outcome, r)
}

/// [`sssp`] with `Result` semantics.
pub fn try_sssp(
    ctx: &Context<'_>,
    src: VertexId,
    opts: SsspOptions,
) -> Result<SsspResult, GunrockError> {
    let r = sssp(ctx, src, opts);
    check_failed(ctx, r.outcome, r)
}

/// [`bc`] with `Result` semantics.
pub fn try_bc(
    ctx: &Context<'_>,
    src: VertexId,
    opts: BcOptions,
) -> Result<BcResult, GunrockError> {
    let r = bc(ctx, src, opts);
    check_failed(ctx, r.outcome, r)
}

/// [`cc`] with `Result` semantics.
pub fn try_cc(ctx: &Context<'_>) -> Result<CcResult, GunrockError> {
    let r = cc(ctx);
    check_failed(ctx, r.outcome, r)
}

/// [`pagerank`] with `Result` semantics.
pub fn try_pagerank(ctx: &Context<'_>, opts: PrOptions) -> Result<PrResult, GunrockError> {
    let r = pagerank(ctx, opts);
    check_failed(ctx, r.outcome, r)
}
