//! Engine configuration: the knobs of the virtual GPU.
//!
//! The constants mirror the Kepler-class hardware the paper evaluates on
//! (§3) and the paper's tuned thresholds (§4.4).

use std::ops::Range;

/// Threads per warp on the modeled GPU; also the chunklet size for the
/// TWC medium bucket.
pub const WARP_SIZE: usize = 32;

/// Threads per cooperative thread array (block); also the chunk size for
/// the TWC large bucket and the default load-balanced edge-chunk length.
pub const CTA_SIZE: usize = 256;

/// The paper's tuned frontier-neighbor-count threshold (§4.4) selecting
/// between the fine-grained (thread-mapped) and coarse-grained
/// (load-balanced) advance strategies: "we set this value to 4096".
pub const LB_THRESHOLD: usize = 4096;

/// Minimum items per parallel task; below this, operations run
/// sequentially to avoid scheduling overhead (the CPU analog of not
/// launching a kernel for tiny inputs).
pub const SEQUENTIAL_CUTOFF: usize = 4096;

/// Sequential cutoff for frontier-sized work in the advance path
/// (neighbor-count reduction, degree gathering). Lower than
/// [`SEQUENTIAL_CUTOFF`] because each frontier item fans out to a full
/// neighbor list, so even small frontiers carry enough work to parallelize.
pub const FRONTIER_SEQ_CUTOFF: usize = 2048;

/// Default work-estimate threshold (frontier items and total neighbors)
/// below which an advance runs the single-threaded fast path: no chunked
/// launch, no scan, one pooled output buffer. Targets the
/// high-diameter regime (road networks, long-tail BFS levels) where
/// fork/join overhead dwarfs the few hundred edges of actual work.
pub const SERIAL_THRESHOLD: usize = 4096;

/// Watchdog escalation: a job silent for the configured interval is
/// cancelled; one silent for a further `interval / this` is killed.
/// With the default divisor the total reap latency stays under twice
/// the interval, the bound the resilience tests assert.
pub const WATCHDOG_GRACE_DIVISOR: u32 = 2;

/// Watchdog reaper poll cadence: `interval / this` (floored at 1ms).
/// Polling well inside the interval keeps detection latency a small
/// additive term on top of the interval-plus-grace schedule.
pub const WATCHDOG_POLL_DIVISOR: u32 = 8;

/// Default base for load-proportional `retry_after_ms` hints on
/// transient rejections (queue full, budget pressure). The hint scales
/// with load and carries deterministic jitter; see
/// [`crate::queue::retry_after_hint`].
pub const RETRY_AFTER_BASE_MS: u64 = 100;

/// Runtime configuration for the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Work chunk emulating a CTA.
    pub cta_size: usize,
    /// Advance strategy switch threshold on frontier neighbor count
    /// (users "can change this value easily in the Enactor module", §4.4).
    pub lb_threshold: usize,
    /// Small-frontier serial fast-path threshold: an advance whose
    /// frontier length and neighbor count are both at or below this
    /// expands single-threaded (`--serial-threshold` on the CLI; 0
    /// disables the fast path entirely).
    pub serial_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cta_size: CTA_SIZE,
            lb_threshold: LB_THRESHOLD,
            serial_threshold: SERIAL_THRESHOLD,
        }
    }
}

impl EngineConfig {
    /// Default configuration (paper-tuned values).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the load-balance threshold.
    pub fn with_lb_threshold(mut self, t: usize) -> Self {
        self.lb_threshold = t;
        self
    }

    /// Overrides the serial fast-path threshold (0 disables it).
    pub fn with_serial_threshold(mut self, t: usize) -> Self {
        self.serial_threshold = t;
        self
    }
}

/// Splits `len` items into per-task grains: enough chunks to keep every
/// worker busy without oversubscribing tiny inputs.
pub fn grain_size(len: usize) -> usize {
    len.div_ceil(crate::par::threads() * 8).max(64)
}

/// The ids `0..n` in consecutive blocks of [`grain_size`]`(n)` ids, in
/// order: the tasks of a pass over an implicit full frontier.
pub fn id_blocks(n: usize) -> impl Iterator<Item = Range<u32>> {
    // CAST: ids fit u32 — asserted here, so every block bound does too.
    assert!(n <= u32::MAX as usize);
    let grain = grain_size(n);
    (0..n).step_by(grain).map(move |lo| lo as u32..(lo + grain).min(n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = EngineConfig::new();
        assert_eq!(WARP_SIZE, 32);
        assert_eq!(c.cta_size, 256);
        assert_eq!(c.lb_threshold, 4096);
        assert_eq!(c.serial_threshold, 4096);
    }

    #[test]
    fn builder_overrides() {
        let c = EngineConfig::new().with_lb_threshold(128).with_serial_threshold(0);
        assert_eq!(c.lb_threshold, 128);
        assert_eq!(c.serial_threshold, 0);
    }

    #[test]
    fn id_blocks_cover_the_ids_in_order() {
        for n in [0usize, 1, 64, 65, 10_000] {
            let ids: Vec<u32> = id_blocks(n).flatten().collect();
            assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "n = {n}");
        }
    }
}
