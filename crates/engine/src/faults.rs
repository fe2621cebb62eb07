//! Seeded, deterministic fault injection.
//!
//! Production graph services meet faults the paper's benchmark setting
//! never sees: a functor that panics on one adversarial vertex, an
//! allocation that fails under memory pressure, a dataset file that was
//! truncated in transit. This module provides a [`FaultInjector`] that
//! *simulates* those failures at configurable rates, fully reproducible
//! from a single `u64` seed, so the recovery paths (catch_unwind
//! isolation, retry-with-fallback, checkpoint/resume) can be exercised
//! and asserted in tests instead of trusted on faith.
//!
//! Determinism: every decision is a pure function of `(seed, site,
//! draw-counter)` — a SplitMix64 finalizer over the seed XOR an FNV-1a
//! hash of the site name XOR the per-injector draw count. Because the
//! engine's parallel loop ([`crate::par`]) runs a launch's tasks in order,
//! the draw order is identical across runs, so a failing seed replays
//! exactly.
//!
//! The injector is carried by the core `Context`, where the operator
//! frame consults it at every launch (library use); the CLI also
//! installs the `gunrock-graph` loaders' process-wide hook
//! (`--inject-faults`). When no injector is present every hook is a
//! single relaxed atomic load.

use crate::fnv::fnv1a;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which failure class a hook is asking about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A panic thrown from inside an operator's functor loop.
    Panic,
    /// A simulated allocation / scratch-buffer failure, reported *before*
    /// the operator has any side effects (the retryable class).
    Alloc,
    /// An injected denial at the `pool:alloc` buffer-pool checkout site.
    /// Unlike [`FaultKind::Alloc`], this class is *not* absorbed by the
    /// advance retry-with-fallback guard: a fired checkout surfaces as a
    /// structured `BudgetDenied`, exactly like a real budget denial.
    PoolAlloc,
    /// A truncated or corrupted read in the graph loaders.
    Io,
    /// An operator that stops making progress (and stops heartbeating)
    /// without panicking — the hung-job class the watchdog reaps. A
    /// stalled site ignores the cooperative cancel flag by design; only
    /// a watchdog kill (or a hard cap) releases it.
    Stall,
}

impl FaultKind {
    /// Stable lowercase name used in messages and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Alloc => "alloc",
            FaultKind::PoolAlloc => "pool-alloc",
            FaultKind::Io => "io",
            FaultKind::Stall => "stall",
        }
    }
}

/// Injection rates per fault class plus the reproducibility seed.
///
/// A rate of `0.0` disables that class; `1.0` fires on every draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a functor-panic site fires.
    pub panic_rate: f64,
    /// Probability a simulated allocation failure fires.
    pub alloc_rate: f64,
    /// Probability a buffer-pool checkout is denied (structured failure).
    pub pool_alloc_rate: f64,
    /// Probability a loader read is truncated/corrupted.
    pub io_rate: f64,
    /// Probability an operator entry stalls (stops heartbeating) until
    /// the watchdog kills it.
    pub stall_rate: f64,
}

impl FaultPlan {
    /// A plan that never fires (all rates zero).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_rate: 0.0,
            alloc_rate: 0.0,
            pool_alloc_rate: 0.0,
            io_rate: 0.0,
            stall_rate: 0.0,
        }
    }

    /// Sets one class's rate (builder form for tests and tools).
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        match kind {
            FaultKind::Panic => self.panic_rate = rate,
            FaultKind::Alloc => self.alloc_rate = rate,
            FaultKind::PoolAlloc => self.pool_alloc_rate = rate,
            FaultKind::Io => self.io_rate = rate,
            FaultKind::Stall => self.stall_rate = rate,
        }
        self
    }

    /// Parses a `panic=R,alloc=R,pool-alloc=R,io=R,stall=R` spec (any subset,
    /// comma-separated, rates in `[0, 1]`), as accepted by the CLI's
    /// `--inject-faults`.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::none(seed);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec {part:?}: expected kind=rate"))?;
            let rate: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad fault rate {value:?} for {key:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} for {key:?} outside [0, 1]"));
            }
            match key.trim() {
                "panic" => plan.panic_rate = rate,
                "alloc" => plan.alloc_rate = rate,
                "pool-alloc" => plan.pool_alloc_rate = rate,
                "io" => plan.io_rate = rate,
                "stall" => plan.stall_rate = rate,
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The rate configured for one fault class.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Panic => self.panic_rate,
            FaultKind::Alloc => self.alloc_rate,
            FaultKind::PoolAlloc => self.pool_alloc_rate,
            FaultKind::Io => self.io_rate,
            FaultKind::Stall => self.stall_rate,
        }
    }

    /// True when at least one class can fire.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0
            || self.alloc_rate > 0.0
            || self.pool_alloc_rate > 0.0
            || self.io_rate > 0.0
            || self.stall_rate > 0.0
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix used to turn
/// `(seed, site, counter)` into an independent uniform draw.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic fault source: hands out reproducible fail/pass
/// decisions keyed by `(seed, site, draw counter)`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    draws: AtomicU64,
}

impl FaultInjector {
    /// Injector over a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, draws: AtomicU64::new(0) }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The reproducibility seed.
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// Number of decisions drawn so far.
    pub fn draws(&self) -> u64 {
        // ORDERING: Relaxed — relaxed-load; fetch_add's modification order
        // alone hands every draw a unique slot, no payload is published
        // through it.
        self.draws.load(Ordering::Relaxed)
    }

    /// One uniform draw in `[0, 1)` for `site`, consuming a counter slot.
    fn draw(&self, site: &str) -> f64 {
        // ORDERING: Relaxed — relaxed-counter; fetch_add's modification
        // order alone hands every draw a unique slot, no payload is
        // published through it.
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let bits = splitmix64(self.plan.seed ^ fnv1a(site.as_bytes()) ^ n.rotate_left(17));
        // 53 mantissa bits -> uniform in [0, 1)
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should the `kind` fault at `site` fire now? Always consumes one
    /// draw when the class is enabled, so enabling one class never
    /// perturbs another class's schedule.
    pub fn should_fail(&self, kind: FaultKind, site: &str) -> bool {
        let rate = self.plan.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        self.draw(site) < rate
    }

    /// Panics (an injected functor panic) if the panic class fires at
    /// `site`. Callers sit inside the operator `catch_unwind` boundary,
    /// so the panic surfaces as `GunrockError::OperatorPanic`.
    pub fn maybe_panic(&self, site: &str) {
        if self.should_fail(FaultKind::Panic, site) {
            // LINT-ALLOW(panic): the injected fault IS a panic — the chaos
            // harness exists to prove the catch_unwind boundary contains it.
            panic!("injected fault: functor panic at {site} (seed {:#x})", self.plan.seed);
        }
    }

    /// A deterministic value in `[0, n)` for choosing e.g. a byte offset
    /// to truncate or corrupt at. Returns 0 when `n == 0`.
    pub fn uniform(&self, site: &str, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let x = self.draw(site);
        ((x * n as f64) as u64).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_subsets_and_rejects_garbage() {
        let p = FaultPlan::parse("panic=0.25,io=1.0", 7).expect("valid spec");
        assert_eq!(p.panic_rate, 0.25);
        assert_eq!(p.alloc_rate, 0.0);
        assert_eq!(p.io_rate, 1.0);
        assert_eq!(p.seed, 7);
        assert!(p.is_active());
        let p = FaultPlan::parse("pool-alloc=0.5", 7).expect("valid spec");
        assert_eq!(p.pool_alloc_rate, 0.5);
        assert_eq!(p.rate(FaultKind::PoolAlloc), 0.5);
        assert!(p.is_active());
        assert!(FaultPlan::parse("panic", 0).is_err());
        assert!(FaultPlan::parse("panic=2.0", 0).is_err());
        assert!(FaultPlan::parse("frobnicate=0.1", 0).is_err());
        assert!(!FaultPlan::parse("", 0).expect("empty spec is a no-op plan").is_active());
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultPlan {
                seed,
                panic_rate: 0.3,
                alloc_rate: 0.3,
                pool_alloc_rate: 0.0,
                io_rate: 0.0,
                stall_rate: 0.0,
            });
            (0..64)
                .map(|i| {
                    let kind = if i % 2 == 0 { FaultKind::Panic } else { FaultKind::Alloc };
                    inj.should_fail(kind, "advance:load_balanced")
                })
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should give different schedules");
    }

    #[test]
    fn zero_rate_never_fires_and_consumes_no_draws() {
        let inj = FaultInjector::new(FaultPlan::none(9));
        for _ in 0..100 {
            assert!(!inj.should_fail(FaultKind::Panic, "x"));
        }
        assert_eq!(inj.draws(), 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            panic_rate: 1.0,
            alloc_rate: 1.0,
            pool_alloc_rate: 1.0,
            io_rate: 1.0,
            stall_rate: 1.0,
        });
        for kind in [FaultKind::Panic, FaultKind::Alloc, FaultKind::PoolAlloc, FaultKind::Io] {
            assert!(inj.should_fail(kind, "site"));
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            panic_rate: 0.2,
            alloc_rate: 0.0,
            pool_alloc_rate: 0.0,
            io_rate: 0.0,
            stall_rate: 0.0,
        });
        let fired = (0..10_000).filter(|_| inj.should_fail(FaultKind::Panic, "filter")).count();
        assert!((1_500..2_500).contains(&fired), "0.2 rate fired {fired}/10000 times");
    }

    #[test]
    fn maybe_panic_panics_with_site_in_payload() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 2,
            panic_rate: 1.0,
            alloc_rate: 0.0,
            pool_alloc_rate: 0.0,
            io_rate: 0.0,
            stall_rate: 0.0,
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.maybe_panic("compute:for_each")
        }))
        .expect_err("rate 1.0 must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string payload".to_string());
        assert!(msg.contains("compute:for_each"), "{msg}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let inj = FaultInjector::new(FaultPlan::none(3));
        assert_eq!(inj.uniform("io", 0), 0);
        for _ in 0..1000 {
            assert!(inj.uniform("io", 17) < 17);
        }
    }
}
