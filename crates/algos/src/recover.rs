//! Checkpoint plumbing shared by the primitives' resume paths.
//!
//! Each primitive's entry point (`bfs`, `sssp`, ...) returns best-so-far
//! results plus a [`RunOutcome`]; a caller that wants the structured
//! [`GunrockError`] behind a `Failed` outcome takes it with
//! [`Context::take_failure`]. The `*_resume` entry points return
//! `Result`, converting a `Failed` outcome with `check_failed`. The
//! small helpers below validate checkpoint sections and convert between
//! the checkpointed plain vectors and the atomic working form primitives
//! use. Resuming a snapshot by the primitive name it carries goes through
//! [`crate::registry`].

use gunrock::prelude::*;
use gunrock_engine::atomics::AtomicF64;
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

/// Reads slot `idx` of the scalar section, the 0/1 flag `what` that
/// recorded a BFS or SSSP setting the library no longer has, and rejects
/// a snapshot written with it off: without predecessors its `preds`
/// section is empty, and without SSSP's priority queue it belongs to a
/// different loop than the one a resume would continue. Every front end
/// wrote 1, the one value left.
pub(crate) fn expect_setting_on(
    scalars: &[u32],
    idx: usize,
    what: &str,
) -> Result<(), GunrockError> {
    match scalar(scalars, idx, what)? {
        1 => Ok(()),
        0 => Err(malformed(format!("snapshot was written with {what} = 0, a retired setting"))),
        other => Err(malformed(format!("unknown {what} flag {other}"))),
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
