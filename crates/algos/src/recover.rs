//! Resume plumbing shared by the primitives.
//!
//! Each primitive's entry point (`bfs`, `sssp`, ...) returns best-so-far
//! results plus a [`RunOutcome`]; a caller that wants the structured
//! [`GunrockError`] behind a `Failed` outcome takes it with
//! [`Context::take_failure`]. The `*_resume` entry points return
//! `Result`, converting a `Failed` outcome with `check_failed`. A
//! snapshot's lengths, vertex ids and slots are checked by the
//! primitive's [`Schema`](gunrock_engine::checkpoint::Schema); the
//! helpers here report what only the primitive can check and convert
//! the snapshot's plain vectors to the atomic working form. Resuming a
//! snapshot by the primitive name it carries goes through
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

/// A malformed-checkpoint error with a human-readable reason.
pub(crate) fn malformed(msg: impl Into<String>) -> GunrockError {
    GunrockError::Checkpoint(CheckpointError::Malformed(msg.into()))
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
