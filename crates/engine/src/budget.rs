//! Memory budget accounting for pooled allocations.
//!
//! A [`MemoryBudget`] is a process- or context-wide cap on *outstanding*
//! (checked-out) buffer bytes. The [`BufferPool`](crate::pool::BufferPool)
//! charges it on every `take_*` and credits it on every `put_*`, so
//! buffers parked in the pool's free lists cost nothing against the
//! budget — the accounting model matches the pool's own `bytes_live`
//! counter (outstanding bytes, not resident bytes).
//!
//! Exceeding the budget is a *structured* condition, not an abort: the
//! pool raises a typed [`BudgetDenied`] panic payload that the operator
//! isolation layer (`catch_unwind` in `gunrock::isolate`) downcasts into
//! `GunrockError::BudgetExceeded`, so a run under memory pressure fails
//! (or degrades) the same way a faulted run does. Callers that want to
//! *avoid* the failure path probe [`MemoryBudget::can_fit`] (or the
//! pool's `can_reserve`) first and take a degradation rung instead —
//! see the ladder in DESIGN §11.
//!
//! [`pooled_bytes`] and [`advance_workspace_bytes`] are the admission-
//! control half: the pool's power-of-two charging units and the widest
//! advance working set, from which each primitive's registry entry
//! (`gunrock_algos::registry`) builds its worst-case footprint so a
//! server can reject a request *before* any work is done.

use std::sync::atomic::{AtomicU64, Ordering};

/// The denial record raised (as a typed panic payload) when a reserve
/// would exceed the budget, and returned by the fallible `try_*` APIs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetDenied {
    /// Bytes the failed reservation asked for.
    pub requested: u64,
    /// Outstanding reserved bytes at the time of the denial.
    pub reserved: u64,
    /// The budget's hard limit in bytes.
    pub limit: u64,
}

impl std::fmt::Display for BudgetDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: requested {} bytes with {} of {} reserved",
            self.requested, self.reserved, self.limit
        )
    }
}

/// An atomic reserve/release byte budget with a high-water mark.
///
/// Shared (via `Arc`) between a `BufferPool` and whoever wants to
/// observe pressure: reservations are a CAS loop so concurrent workers
/// can never overshoot `limit`, releases saturate at zero so foreign
/// buffers recycled into the pool (which were never reserved) cannot
/// wedge the counter.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: u64,
    reserved: AtomicU64,
    high_water: AtomicU64,
    denials: AtomicU64,
}

impl MemoryBudget {
    /// A budget capping outstanding pooled bytes at `limit_bytes`.
    pub fn new(limit_bytes: u64) -> MemoryBudget {
        MemoryBudget {
            limit: limit_bytes,
            reserved: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            denials: AtomicU64::new(0),
        }
    }

    /// The hard limit in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Currently reserved (outstanding) bytes.
    pub fn reserved(&self) -> u64 {
        // ORDERING: Relaxed — monitoring read of an independent counter.
        self.reserved.load(Ordering::Relaxed)
    }

    /// Peak reserved bytes over the budget's lifetime.
    pub fn high_water(&self) -> u64 {
        // ORDERING: Relaxed — monitoring read of an independent counter.
        self.high_water.load(Ordering::Relaxed)
    }

    /// How many reservations have been denied.
    pub fn denials(&self) -> u64 {
        // ORDERING: Relaxed — monitoring read of an independent counter.
        self.denials.load(Ordering::Relaxed)
    }

    /// Bytes still available before the limit.
    pub fn headroom(&self) -> u64 {
        self.limit.saturating_sub(self.reserved())
    }

    /// Whether a `bytes`-sized reservation would currently succeed.
    /// Advisory only (another thread may reserve in between); the
    /// degradation ladder uses it to *prefer* a cheaper strategy, while
    /// [`try_reserve`](Self::try_reserve) remains the enforcement point.
    pub fn can_fit(&self, bytes: u64) -> bool {
        self.headroom() >= bytes
    }

    /// Reserves `bytes` against the budget, or reports the denial.
    pub fn try_reserve(&self, bytes: u64) -> Result<(), BudgetDenied> {
        // ORDERING: Relaxed CAS loop — the budget is an independent
        // counter guarding capacity, not an ownership handoff; no other
        // memory is published by a successful reservation.
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(next) if next <= self.limit => next,
                _ => {
                    self.denials.fetch_add(1, Ordering::Relaxed);
                    return Err(BudgetDenied {
                        requested: bytes,
                        reserved: cur,
                        limit: self.limit,
                    });
                }
            };
            match self.reserved.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases `bytes`, saturating at zero (foreign buffers recycled
    /// into the pool were never reserved here).
    pub fn release(&self, bytes: u64) {
        // ORDERING: Relaxed — see try_reserve; fetch_update makes the
        // saturating subtraction atomic against concurrent releases.
        let _ = self.reserved.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }
}

/// Rounds an element count up to the capacity the pool would actually
/// hand out: the next power of two, floored at the pool's minimum class
/// (64 elements) — see `pool::class_for`.
pub fn pooled_elems(elems: u64) -> u64 {
    elems.next_power_of_two().max(64)
}

/// Bytes the pool charges for a checked-out buffer of `elems` elements
/// of `elem_size` bytes.
pub fn pooled_bytes(elems: u64, elem_size: u64) -> u64 {
    pooled_elems(elems).saturating_mul(elem_size)
}

/// Worst-case advance working set (bytes) for one strategy at a given
/// frontier size and neighbor count: the scan-offset expansion takes a
/// degree buffer and an offset buffer over the frontier plus slot and
/// output buffers over the gathered neighbors; the serial path writes
/// straight into one output buffer.
pub fn advance_workspace_bytes(frontier_len: u64, neighbors: u64, strategy: &str) -> u64 {
    let frontier = pooled_bytes(frontier_len, 4);
    let gathered = pooled_bytes(neighbors, 4);
    match strategy {
        // one pooled output buffer, no scan scratch
        "serial" => gathered,
        // load_balanced adds the per-batch edge index over the slots
        "load_balanced" => 2 * frontier + 3 * gathered,
        // thread_mapped (and twc, which merges per-bucket expansions):
        // degrees + offsets + slots + compacted output
        _ => 2 * frontier + 2 * gathered,
    }
}

/// Parses a byte count with an optional binary suffix: `4096`, `64k`,
/// `512m`, `2g` (case-insensitive). Shared by every front end that
/// accepts a `--memory-budget` flag.
pub fn parse_bytes(spec: &str) -> Result<u64, String> {
    let spec = spec.trim();
    let (digits, shift) = match spec.char_indices().last() {
        Some((i, 'k' | 'K')) => (&spec[..i], 10),
        Some((i, 'm' | 'M')) => (&spec[..i], 20),
        Some((i, 'g' | 'G')) => (&spec[..i], 30),
        _ => (spec, 0),
    };
    let n: u64 = digits.trim().parse().map_err(|_| format!("bad byte count {spec:?}"))?;
    n.checked_shl(shift)
        .filter(|scaled| scaled >> shift == n)
        .ok_or_else(|| format!("byte count {spec:?} overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_and_high_water() {
        let b = MemoryBudget::new(1000);
        assert!(b.try_reserve(600).is_ok());
        assert!(b.try_reserve(400).is_ok());
        assert_eq!(b.reserved(), 1000);
        assert_eq!(b.headroom(), 0);
        let denied = b.try_reserve(1).unwrap_err();
        assert_eq!(denied, BudgetDenied { requested: 1, reserved: 1000, limit: 1000 });
        assert_eq!(b.denials(), 1);
        b.release(700);
        assert_eq!(b.reserved(), 300);
        assert!(b.can_fit(700));
        assert!(!b.can_fit(701));
        // the peak survives the release
        assert_eq!(b.high_water(), 1000);
        // releases saturate: a foreign buffer's bytes cannot go negative
        b.release(10_000);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn reserve_overflow_is_a_denial_not_a_wrap() {
        let b = MemoryBudget::new(u64::MAX);
        assert!(b.try_reserve(u64::MAX - 1).is_ok());
        assert!(b.try_reserve(2).is_err());
    }

    #[test]
    fn concurrent_reservations_never_overshoot() {
        let b = std::sync::Arc::new(MemoryBudget::new(64));
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut granted = 0u64;
                    for _ in 0..1000 {
                        if b.try_reserve(1).is_ok() {
                            granted += 1;
                        }
                    }
                    granted
                })
            })
            .collect();
        let granted: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(granted, 64, "exactly the limit is granted");
        assert_eq!(b.reserved(), 64);
        assert!(b.high_water() <= 64);
    }

    #[test]
    fn pooled_rounding_matches_the_pool_classes() {
        assert_eq!(pooled_elems(0), 64);
        assert_eq!(pooled_elems(64), 64);
        assert_eq!(pooled_elems(65), 128);
        assert_eq!(pooled_bytes(100, 4), 128 * 4);
    }

    #[test]
    fn lb_workspace_dominates_thread_mapped() {
        let lb = advance_workspace_bytes(1 << 10, 1 << 14, "load_balanced");
        let tm = advance_workspace_bytes(1 << 10, 1 << 14, "thread_mapped");
        let serial = advance_workspace_bytes(1 << 10, 1 << 14, "serial");
        assert!(lb > tm, "the degrade rung must actually shrink the footprint");
        assert!(tm > serial);
    }
}
