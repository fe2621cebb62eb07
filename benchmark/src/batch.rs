//! In-process rounds: every primitive called directly on one graph, each
//! output checked against the serial oracle outside the timed region.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{bc_close, pagerank_close, run_serial, same_partition, Inputs, Prim};
use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_server::jobs::hash_u32s;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Operations attempted, and the failed ones by what failed: a primitive
/// whose output missed the oracle, or a request's error code.
#[derive(Clone, Debug, Default)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: BTreeMap<String, u64>,
}

impl OpCount {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = outcome {
            *self.failed.entry(what).or_default() += 1;
        }
    }

    pub fn add(&mut self, other: &OpCount) {
        self.attempted += other.attempted;
        for (what, n) in &other.failed {
            *self.failed.entry(what.clone()).or_default() += n;
        }
    }

    pub fn failures(&self) -> u64 {
        self.failed.values().sum()
    }
}

/// The failure name of a primitive call whose output missed the oracle.
pub fn mismatch(p: Prim, ok: bool) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| format!("{}-mismatch", p.name()))
}

/// One timed call, and the serial oracle timed on the same question
/// just before it.
#[derive(Clone, Copy)]
pub struct Call {
    pub ms: f64,
    pub serial_ms: f64,
    /// The output matched the oracle's answer.
    pub ok: bool,
}

/// Calls primitive `p` on its `i`-th source, the serial oracle first. The
/// wall times cover the calls alone; the check runs after them.
pub fn run_op(ctx: &Context<'_>, inp: &Inputs, p: Prim, i: usize, tracer: &Tracer) -> Call {
    let (oracle, src, op) = (&inp.oracle, inp.sources[i], tracer.next_op());
    // The serial side of a 64-lane batch is its 64 traversals; half run
    // before the batch and half after, so that a pair a second long still
    // sees one stretch of machine time.
    let lanes = inp.sources.len();
    let (before, after) =
        if p == Prim::Msbfs64 { (0..lanes / 2, lanes / 2..lanes) } else { (i..i + 1, 0..0) };
    let ((), mut serial) =
        tracer.timed("baselines", p.name(), op, || run_serial(inp, p, before));
    let (ok, wall) = match p {
        Prim::Bfs => {
            let (r, d) = tracer.timed("algos", "bfs", op, || {
                algos::bfs(ctx, src, algos::BfsOptions::direction_optimized())
            });
            (r.outcome.is_converged() && hash_u32s(&r.labels) == oracle.bfs_hash[i], d)
        }
        Prim::Sssp => {
            let (r, d) = tracer.timed("algos", "sssp", op, || {
                algos::sssp(ctx, src, algos::SsspOptions::default())
            });
            (r.outcome.is_converged() && hash_u32s(&r.dist) == oracle.sssp_hash[i], d)
        }
        Prim::Bc => {
            let (r, d) = tracer
                .timed("algos", "bc", op, || algos::bc(ctx, src, algos::BcOptions::default()));
            (r.outcome.is_converged() && bc_close(&r.bc_values, &oracle.bc[i]), d)
        }
        Prim::Cc => {
            let (r, d) = tracer.timed("algos", "cc", op, || algos::cc(ctx));
            (r.outcome.is_converged() && same_partition(&r.labels, &oracle.cc), d)
        }
        Prim::Pagerank => {
            let (r, d) = tracer.timed("algos", "pagerank", op, || {
                algos::pagerank(ctx, algos::PrOptions::default())
            });
            (r.outcome.is_converged() && pagerank_close(&r.scores, &oracle.pagerank), d)
        }
        Prim::Msbfs64 => {
            let (r, d) =
                tracer.timed("algos", "msbfs64", op, || algos::msbfs(ctx, &inp.sources));
            let lanes_ok =
                (0..r.lanes()).all(|l| hash_u32s(r.lane_depths(l)) == oracle.bfs_hash[l]);
            (r.outcome.is_converged() && r.lanes() == inp.sources.len() && lanes_ok, d)
        }
    };
    if !after.is_empty() {
        serial += tracer.timed("baselines", p.name(), op, || run_serial(inp, p, after)).1;
    }
    Call { ms: wall.as_secs_f64() * 1e3, serial_ms: serial.as_secs_f64() * 1e3, ok }
}

/// What the rounds measured: `calls[p][i]` holds every call of primitive
/// `p` (in `Prim::ALL` order) on its `i`-th source, one per round.
pub struct Rounds {
    pub calls: [Vec<Vec<Call>>; 6],
    pub ops: OpCount,
}

impl Rounds {
    pub fn count(&self) -> usize {
        self.calls[Prim::Bfs as usize][0].len()
    }

    /// Each round's time for primitive `p` over the serial oracle's time
    /// for the same calls, made in alternation.
    pub fn ratios(&self, p: Prim) -> Vec<f64> {
        let calls = &self.calls[p as usize];
        let total = |r: usize, f: fn(&Call) -> f64| calls.iter().map(|c| f(&c[r])).sum::<f64>();
        (0..self.count()).map(|r| total(r, |c| c.ms) / total(r, |c| c.serial_ms)).collect()
    }

    /// The reported figure for primitive `p`: the median round's time as
    /// a multiple of the serial oracle's.
    ///
    /// A ratio, not milliseconds: this sandbox's cores switch between
    /// full speed and a state 30–40 % slower, and stay slow for minutes
    /// at a time, so no statistic of a 24 s run's wall times repeats to
    /// better than 25 %. Two calls made back to back on the same graph
    /// slow down together, and their ratio repeats to 2–6 %. See
    /// README.md, "Steadiness".
    pub fn vs_serial(&self, p: Prim) -> f64 {
        median(&self.ratios(p))
    }

    /// The best round of each call, averaged over the primitive's
    /// sources (ms per source, or per run): the time at the fastest
    /// state the run saw.
    pub fn best_ms(&self, p: Prim) -> f64 {
        let calls = &self.calls[p as usize];
        let best =
            |rounds: &Vec<Call>| rounds.iter().map(|c| c.ms).fold(f64::INFINITY, f64::min);
        calls.iter().map(best).sum::<f64>() / calls.len() as f64
    }

    /// Appends the rounds of a later stretch of the same run.
    pub fn extend(&mut self, later: Rounds) {
        for (calls, more) in self.calls.iter_mut().zip(later.calls) {
            calls.iter_mut().zip(more).for_each(|(rounds, more)| rounds.extend(more));
        }
        self.ops.add(&later.ops);
    }
}

/// Runs identical rounds — every primitive of `prims`, in order — until
/// the next one would not fit in `budget`, and at least `min_rounds`.
pub fn run_rounds(
    prims: &[Prim],
    budget: Duration,
    min_rounds: usize,
    mut call: impl FnMut(Prim, usize) -> Call,
) -> Rounds {
    let mut out = Rounds {
        calls: Prim::ALL.map(|p| vec![Vec::new(); p.calls_per_round()]),
        ops: OpCount::default(),
    };
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    for round in 0.. {
        if round >= min_rounds && start.elapsed() + longest > budget {
            break;
        }
        let round_start = Instant::now();
        for &p in prims {
            for i in 0..p.calls_per_round() {
                let made = call(p, i);
                out.calls[p as usize][i].push(made);
                out.ops.record(mismatch(p, made.ok));
            }
        }
        longest = longest.max(round_start.elapsed());
    }
    out
}

/// A context with defaults only — no thread count, no `serial_threshold` —
/// so the numbers are what a library user gets. The graph is symmetric,
/// hence its own reverse.
pub fn default_context(inp: &Inputs) -> Context<'_> {
    Context::new(&inp.graph).with_reverse(&inp.graph)
}
