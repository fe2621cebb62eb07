//! Hung-job detection: per-job heartbeats and a reaper thread.
//!
//! Safe Rust cannot kill a thread, so the watchdog escalates through
//! the same cooperative machinery the run guards already use:
//!
//! 1. **Healthy** — the job's [`Heartbeat`] ticks at every operator
//!    boundary (the stats `StepRecord` tick points: operator entry and
//!    `end_iteration`).
//! 2. **Stalled** — no tick for `interval`: the watchdog raises the
//!    job's cancel flag, so a job that still polls its guard exits with
//!    `RunOutcome::Cancelled` at the next boundary.
//! 3. **Killed** — still no tick `grace` later: the watchdog marks the
//!    heartbeat killed and fires the job's `on_kill` callback exactly
//!    once. The callback is the server's chance to answer the client
//!    (`watchdog_killed`), feed the circuit breaker, and count the
//!    kill; a *cooperatively* stalled operator (the `stall` fault site)
//!    polls [`Heartbeat::is_killed`] and panics, handing the worker
//!    back through the usual `catch_unwind` → poisoned-context path. A
//!    truly wedged operator cannot be reclaimed from safe code — the
//!    callback still unblocks the client and the breaker sheds load
//!    from the burned worker's primitive.
//!
//! Detection latency is bounded: the reaper polls at `interval / 8`
//! (floored at 1ms), so a stall is cancelled within `interval +
//! interval/8` and killed within `interval + grace + interval/4` — with
//! the default `grace = interval / 2` that is `< 2 * interval`, the
//! bound the acceptance tests assert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A job's liveness pulse, shared between the running job (which
/// [`tick`](Heartbeat::tick)s it) and the watchdog (which watches the
/// counter move).
#[derive(Debug, Default)]
pub struct Heartbeat {
    ticks: AtomicU64,
    killed: AtomicBool,
}

impl Heartbeat {
    /// A fresh, healthy heartbeat.
    pub fn new() -> Heartbeat {
        Heartbeat::default()
    }

    /// Records one unit of progress (called at operator boundaries).
    pub fn tick(&self) {
        // ORDERING: Relaxed — the counter is a monotonic progress
        // signal; the watchdog only compares successive reads.
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Progress ticks so far.
    pub fn ticks(&self) -> u64 {
        // ORDERING: Relaxed — see tick.
        self.ticks.load(Ordering::Relaxed)
    }

    /// Marks the job reaped. Idempotent.
    pub fn kill(&self) {
        // ORDERING: Release — pairs with the Acquire in is_killed so a
        // stalled operator that observes the kill also observes every
        // write the watchdog made before it.
        self.killed.store(true, Ordering::Release);
    }

    /// Whether the watchdog has given up on this job.
    pub fn is_killed(&self) -> bool {
        // ORDERING: Acquire — pairs with the Release in kill.
        self.killed.load(Ordering::Acquire)
    }
}

/// Watchdog timing knobs.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// No heartbeat tick for this long marks a job stalled (cancel).
    pub interval: Duration,
    /// A stalled job that stays silent this much longer is killed.
    pub grace: Duration,
}

impl WatchdogConfig {
    /// The default escalation schedule: cancel after `interval`, kill
    /// `interval / 2` later (total reap time `< 2 * interval`).
    pub fn new(interval: Duration) -> WatchdogConfig {
        WatchdogConfig { interval, grace: interval / crate::config::WATCHDOG_GRACE_DIVISOR }
    }
}

/// What the reaper does when a job exhausts its grace period.
type KillCallback = Box<dyn FnOnce() + Send>;

struct WatchedJob {
    heartbeat: Arc<Heartbeat>,
    cancel: Arc<AtomicBool>,
    on_kill: Option<KillCallback>,
    /// Tick count at the last poll that showed progress.
    last_ticks: u64,
    /// When that progress was observed.
    last_progress: Instant,
    /// Set when the cancel flag was raised for silence.
    stalled_at: Option<Instant>,
}

#[derive(Default)]
struct Registry {
    jobs: HashMap<u64, WatchedJob>,
    shutdown: bool,
}

struct Shared {
    registry: Mutex<Registry>,
    /// Wakes the reaper early on shutdown (prompt drain).
    wake: Condvar,
    kills: AtomicU64,
}

impl Shared {
    fn registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        // A panicking kill callback must not wedge every later job
        // (same poison stance as BoundedQueue).
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Deregisters its job when dropped, so a finished job can never be
/// reaped retroactively.
pub struct WatchGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.shared.registry().jobs.remove(&self.id);
    }
}

/// The reaper: one background thread polling every registered job's
/// heartbeat against the configured stall schedule.
pub struct Watchdog {
    shared: Arc<Shared>,
    cfg: WatchdogConfig,
    next_id: AtomicU64,
    reaper: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the reaper thread.
    pub fn new(cfg: WatchdogConfig) -> Watchdog {
        let shared = Arc::new(Shared {
            registry: Mutex::new(Registry::default()),
            wake: Condvar::new(),
            kills: AtomicU64::new(0),
        });
        let poll =
            (cfg.interval / crate::config::WATCHDOG_POLL_DIVISOR).max(Duration::from_millis(1));
        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gunrock-watchdog".into())
                .spawn(move || reaper_loop(&shared, cfg, poll))
                .ok()
        };
        Watchdog { shared, cfg, next_id: AtomicU64::new(0), reaper }
    }

    /// The schedule this watchdog enforces.
    pub fn config(&self) -> WatchdogConfig {
        self.cfg
    }

    /// Jobs killed over the watchdog's lifetime.
    pub fn kills(&self) -> u64 {
        // ORDERING: Relaxed — monitoring counter.
        self.shared.kills.load(Ordering::Relaxed)
    }

    /// Starts watching a job: `cancel` is raised when the heartbeat
    /// goes silent for `interval`, `on_kill` fires once if the silence
    /// outlives the grace period too. Dropping the guard stops the
    /// watch.
    pub fn watch(
        &self,
        heartbeat: Arc<Heartbeat>,
        cancel: Arc<AtomicBool>,
        on_kill: KillCallback,
    ) -> WatchGuard {
        // ORDERING: Relaxed — the id is only a unique key.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = WatchedJob {
            last_ticks: heartbeat.ticks(),
            last_progress: Instant::now(),
            stalled_at: None,
            heartbeat,
            cancel,
            on_kill: Some(on_kill),
        };
        self.shared.registry().jobs.insert(id, job);
        WatchGuard { shared: Arc::clone(&self.shared), id }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.registry().shutdown = true;
        self.shared.wake.notify_all();
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
    }
}

fn reaper_loop(shared: &Shared, cfg: WatchdogConfig, poll: Duration) {
    loop {
        // fire callbacks outside the registry lock: a kill callback is
        // arbitrary server code and must not deadlock registration
        // ALLOC-OK(reaper thread, not an operator hot path; empty unless a kill fires)
        let mut fired: Vec<KillCallback> = Vec::new();
        {
            let mut reg = shared.registry();
            if reg.shutdown {
                return;
            }
            let now = Instant::now();
            // ALLOC-OK(reaper thread, not an operator hot path; empty unless a kill fires)
            let mut reaped: Vec<u64> = Vec::new();
            for (&id, job) in reg.jobs.iter_mut() {
                let ticks = job.heartbeat.ticks();
                if ticks != job.last_ticks {
                    // progress: a stalled job that resumes is healthy
                    // again and gets a fresh escalation clock
                    job.last_ticks = ticks;
                    job.last_progress = now;
                    job.stalled_at = None;
                    continue;
                }
                if now.duration_since(job.last_progress) < cfg.interval {
                    continue;
                }
                let stalled_at = *job.stalled_at.get_or_insert_with(|| {
                    // ORDERING: Release — pairs with the Acquire in the
                    // run guard's cancel_requested poll.
                    job.cancel.store(true, Ordering::Release);
                    now
                });
                if now.duration_since(stalled_at) >= cfg.grace {
                    job.heartbeat.kill();
                    if let Some(cb) = job.on_kill.take() {
                        fired.push(cb);
                    }
                    reaped.push(id);
                }
            }
            for id in reaped {
                reg.jobs.remove(&id);
            }
        }
        // ORDERING: Relaxed — monitoring counter.
        shared.kills.fetch_add(fired.len() as u64, Ordering::Relaxed);
        for cb in fired {
            cb();
        }
        let reg = shared.registry();
        if reg.shutdown {
            return;
        }
        // the guard returned by wait_timeout is dropped immediately;
        // the next iteration re-locks and re-checks shutdown
        let _ = shared.wake.wait_timeout(reg, poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: Duration = Duration::from_millis(80);

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        done()
    }

    #[test]
    fn silent_job_is_cancelled_then_killed_within_two_intervals() {
        let dog = Watchdog::new(WatchdogConfig::new(INTERVAL));
        let hb = Arc::new(Heartbeat::new());
        let cancel = Arc::new(AtomicBool::new(false));
        let killed_cb = Arc::new(AtomicBool::new(false));
        let cb = Arc::clone(&killed_cb);
        let start = Instant::now();
        let _watch = dog.watch(
            Arc::clone(&hb),
            Arc::clone(&cancel),
            Box::new(move || {
                cb.store(true, Ordering::Release);
            }),
        );
        // never tick: the escalation ladder must fire in order
        assert!(
            wait_until(4 * INTERVAL, || cancel.load(Ordering::Acquire)),
            "stall never raised the cancel flag"
        );
        assert!(
            wait_until(4 * INTERVAL, || hb.is_killed()),
            "stall was never escalated to a kill"
        );
        // the acceptance bound: reaped within 2x the configured interval
        assert!(
            start.elapsed() < 2 * INTERVAL + Duration::from_millis(20),
            "kill took {:?}, bound is 2 * {INTERVAL:?}",
            start.elapsed()
        );
        assert!(wait_until(INTERVAL, || killed_cb.load(Ordering::Acquire)));
        assert_eq!(dog.kills(), 1);
    }

    #[test]
    fn heartbeating_job_is_never_killed() {
        // the false-positive case: slow (ticking at interval/4) but alive
        let dog = Watchdog::new(WatchdogConfig::new(INTERVAL));
        let hb = Arc::new(Heartbeat::new());
        let cancel = Arc::new(AtomicBool::new(false));
        let _watch = dog.watch(
            Arc::clone(&hb),
            Arc::clone(&cancel),
            Box::new(|| panic!("false-positive kill")),
        );
        let start = Instant::now();
        while start.elapsed() < 6 * INTERVAL {
            hb.tick();
            std::thread::sleep(INTERVAL / 4);
        }
        assert!(!cancel.load(Ordering::Acquire), "slow job was cancelled");
        assert!(!hb.is_killed(), "slow job was killed");
        assert_eq!(dog.kills(), 0);
    }

    #[test]
    fn dropping_the_guard_stops_the_watch() {
        let dog = Watchdog::new(WatchdogConfig::new(INTERVAL));
        let hb = Arc::new(Heartbeat::new());
        let cancel = Arc::new(AtomicBool::new(false));
        let watch =
            dog.watch(Arc::clone(&hb), Arc::clone(&cancel), Box::new(|| panic!("reaped")));
        drop(watch);
        std::thread::sleep(3 * INTERVAL);
        assert!(!cancel.load(Ordering::Acquire));
        assert!(!hb.is_killed());
    }

    #[test]
    fn a_recovered_stall_resets_the_escalation_clock() {
        // long grace so the job is stalled-but-not-killed when it recovers
        let dog = Watchdog::new(WatchdogConfig {
            grace: 10 * INTERVAL,
            ..WatchdogConfig::new(INTERVAL)
        });
        let hb = Arc::new(Heartbeat::new());
        let cancel = Arc::new(AtomicBool::new(false));
        let _watch = dog.watch(Arc::clone(&hb), Arc::clone(&cancel), Box::new(|| {}));
        assert!(wait_until(4 * INTERVAL, || cancel.load(Ordering::Acquire)));
        // progress arrives: the job must be healthy again
        hb.tick();
        assert!(wait_until(INTERVAL, || {
            cancel.store(false, Ordering::Release);
            !hb.is_killed()
        }));
        std::thread::sleep(INTERVAL / 2);
        assert!(!cancel.load(Ordering::Acquire), "recovered job re-flagged without a stall");
        assert!(!hb.is_killed());
    }

    #[test]
    fn watchdog_drop_joins_the_reaper_promptly() {
        let dog = Watchdog::new(WatchdogConfig::new(Duration::from_secs(3600)));
        let start = Instant::now();
        drop(dog);
        assert!(start.elapsed() < Duration::from_secs(5), "drop blocked on the poll period");
    }
}
