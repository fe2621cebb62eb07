//! Uniform runner over every (system, algorithm) pair of Table 2.

use crate::datasets::Dataset;
use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_algos::registry::{self, Arity, Entry, Query};
use gunrock_baselines::{gas, hardwired, ligra, medusa, serial};

/// The five benchmarked primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest path.
    Sssp,
    /// Betweenness centrality (single source).
    Bc,
    /// PageRank to convergence.
    PageRank,
    /// Connected components.
    Cc,
}

impl Algorithm {
    /// All five, in the paper's row order.
    pub const ALL: [Algorithm; 5] =
        [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Bc, Algorithm::PageRank, Algorithm::Cc];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Bfs => "BFS",
            Algorithm::Sssp => "SSSP",
            Algorithm::Bc => "BC",
            Algorithm::PageRank => "PageRank",
            Algorithm::Cc => "CC",
        }
    }

    /// The primitive's registry entry (what the Gunrock column runs).
    pub fn entry(&self) -> &'static Entry {
        // the registry names are the display names, lower-cased
        registry::find(&self.name().to_ascii_lowercase())
            .expect("every Table 2 primitive is registered")
    }
}

/// The seven compared systems (Table 2's columns), each mapped to its
/// role in this reproduction (DESIGN.md §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Boost Graph Library role: serial reference.
    Bgl,
    /// PowerGraph role: GAS engine, per-vertex parallelism.
    PowerGraph,
    /// Medusa role: message-passing BSP engine.
    Medusa,
    /// MapGraph role: GAS engine, balanced chunks.
    MapGraph,
    /// Hardwired-kernel role: framework-free tuned implementations.
    Hardwired,
    /// Ligra role: edgeMap/vertexMap with sparse/dense switching.
    Ligra,
    /// This paper's system.
    Gunrock,
}

impl System {
    /// All seven, in the paper's column order.
    pub const ALL: [System; 7] = [
        System::Bgl,
        System::PowerGraph,
        System::Medusa,
        System::MapGraph,
        System::Hardwired,
        System::Ligra,
        System::Gunrock,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Bgl => "BGL",
            System::PowerGraph => "PG",
            System::Medusa => "Medusa",
            System::MapGraph => "MapGraph",
            System::Hardwired => "Hardwired",
            System::Ligra => "Ligra",
            System::Gunrock => "Gunrock",
        }
    }
}

/// One timed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Average wall time per run.
    pub millis: f64,
    /// Millions of traversed edges per second, normalized as `|E| /
    /// time` so systems are comparable (the paper's convention).
    pub mteps: f64,
    /// Per-operator trace aggregate from one instrumented run. Only
    /// Gunrock runs carry one; the timed runs themselves stay
    /// uninstrumented so the numbers are not polluted by trace capture.
    pub stats: Option<RunStatsSummary>,
}

/// PageRank parameters shared by every system so the work is identical:
/// the damping and iteration cap are the registry entry's defaults, which
/// the Gunrock column runs.
const PR_DAMPING: f64 = 0.85;
const PR_TOL: f64 = 1e-7;
const PR_MAX_ITERS: usize = 1000;

/// Runs `alg` on `sys` over the dataset, timing `runs` executions.
/// Returns `None` for combinations with no implementation (mirroring the
/// dashes in Table 2: Medusa has no BC/CC, the GAS engines have no BC).
pub fn run_system(
    sys: System,
    alg: Algorithm,
    d: &Dataset,
    runs: usize,
) -> Option<Measurement> {
    let g = &d.graph;
    let rev = d.reverse();
    let src = 0u32;
    let m = g.num_edges() as f64;
    let run: Box<dyn FnMut()> = match (sys, alg) {
        (System::Bgl, Algorithm::Bfs) => Box::new(move || {
            std::hint::black_box(serial::bfs(g, src));
        }),
        (System::Bgl, Algorithm::Sssp) => Box::new(move || {
            std::hint::black_box(serial::dijkstra(g, src));
        }),
        (System::Bgl, Algorithm::Bc) => Box::new(move || {
            std::hint::black_box(serial::brandes_single_source(g, src));
        }),
        (System::Bgl, Algorithm::PageRank) => Box::new(move || {
            std::hint::black_box(serial::pagerank(g, PR_DAMPING, PR_TOL, PR_MAX_ITERS));
        }),
        (System::Bgl, Algorithm::Cc) => Box::new(move || {
            std::hint::black_box(serial::connected_components(g));
        }),

        (System::PowerGraph, Algorithm::Bfs) => Box::new(move || {
            std::hint::black_box(gas::bfs(g, rev, src, gas::GasMode::PerVertex));
        }),
        (System::PowerGraph, Algorithm::Sssp) => Box::new(move || {
            std::hint::black_box(gas::sssp(g, rev, src, gas::GasMode::PerVertex));
        }),
        (System::PowerGraph, Algorithm::Bc) => return None,
        (System::PowerGraph, Algorithm::PageRank) => Box::new(move || {
            std::hint::black_box(gas::pagerank(
                g,
                rev,
                PR_DAMPING,
                PR_TOL,
                PR_MAX_ITERS,
                gas::GasMode::PerVertex,
            ));
        }),
        (System::PowerGraph, Algorithm::Cc) => Box::new(move || {
            std::hint::black_box(gas::connected_components(g, rev, gas::GasMode::PerVertex));
        }),

        (System::Medusa, Algorithm::Bfs) => Box::new(move || {
            std::hint::black_box(medusa::bfs(g, src));
        }),
        (System::Medusa, Algorithm::Sssp) => Box::new(move || {
            std::hint::black_box(medusa::sssp(g, src));
        }),
        (System::Medusa, Algorithm::Bc) => return None,
        (System::Medusa, Algorithm::PageRank) => Box::new(move || {
            std::hint::black_box(medusa::pagerank(g, PR_DAMPING, PR_TOL, PR_MAX_ITERS));
        }),
        (System::Medusa, Algorithm::Cc) => return None,

        (System::MapGraph, Algorithm::Bfs) => Box::new(move || {
            std::hint::black_box(gas::bfs(g, rev, src, gas::GasMode::Balanced));
        }),
        (System::MapGraph, Algorithm::Sssp) => Box::new(move || {
            std::hint::black_box(gas::sssp(g, rev, src, gas::GasMode::Balanced));
        }),
        (System::MapGraph, Algorithm::Bc) => return None,
        (System::MapGraph, Algorithm::PageRank) => Box::new(move || {
            std::hint::black_box(gas::pagerank(
                g,
                rev,
                PR_DAMPING,
                PR_TOL,
                PR_MAX_ITERS,
                gas::GasMode::Balanced,
            ));
        }),
        (System::MapGraph, Algorithm::Cc) => Box::new(move || {
            std::hint::black_box(gas::connected_components(g, rev, gas::GasMode::Balanced));
        }),

        (System::Hardwired, Algorithm::Bfs) => Box::new(move || {
            std::hint::black_box(hardwired::bfs(g, rev, src));
        }),
        (System::Hardwired, Algorithm::Sssp) => Box::new(move || {
            let delta = algos::sssp::default_delta(g);
            std::hint::black_box(hardwired::sssp_delta_stepping(g, src, delta));
        }),
        (System::Hardwired, Algorithm::Bc) => Box::new(move || {
            std::hint::black_box(hardwired::bc(g, src));
        }),
        (System::Hardwired, Algorithm::PageRank) => Box::new(move || {
            std::hint::black_box(hardwired::pagerank(g, rev, PR_DAMPING, PR_TOL, PR_MAX_ITERS));
        }),
        (System::Hardwired, Algorithm::Cc) => Box::new(move || {
            std::hint::black_box(hardwired::cc_soman(g));
        }),

        (System::Ligra, Algorithm::Bfs) => Box::new(move || {
            std::hint::black_box(ligra::bfs(g, rev, src));
        }),
        (System::Ligra, Algorithm::Sssp) => Box::new(move || {
            std::hint::black_box(ligra::sssp_bellman_ford(g, rev, src));
        }),
        (System::Ligra, Algorithm::Bc) => Box::new(move || {
            std::hint::black_box(ligra::bc(g, rev, src));
        }),
        (System::Ligra, Algorithm::PageRank) => Box::new(move || {
            std::hint::black_box(ligra::pagerank(g, rev, PR_DAMPING, PR_TOL, PR_MAX_ITERS));
        }),
        (System::Ligra, Algorithm::Cc) => Box::new(move || {
            std::hint::black_box(ligra::connected_components(g, rev));
        }),

        (System::Gunrock, _) => {
            let (entry, query) = (alg.entry(), gunrock_query(alg.entry()));
            Box::new(move || {
                std::hint::black_box((entry.run)(&gunrock_context(d), &query));
            })
        }
    };
    let run = run;
    let millis = crate::time_avg_ms(runs, run);
    let stats = (sys == System::Gunrock).then(|| gunrock_stats(alg, d));
    Some(Measurement { millis, mteps: m / (millis / 1e3) / 1e6, stats })
}

/// The Gunrock context: one rule for every primitive, the CLI's — the
/// reverse graph attached, so BFS can pull and BC, CC and PageRank
/// gather.
fn gunrock_context(d: &Dataset) -> Context<'_> {
    Context::new(&d.graph).with_reverse(d.reverse())
}

/// The Gunrock query: source 0 for single-source primitives, and the
/// PageRank residual tolerance every system shares — per-vertex pending
/// mass, the same per-vertex granularity the other engines use.
fn gunrock_query(entry: &Entry) -> Query {
    let sources = if entry.arity == Arity::One { vec![0] } else { Vec::new() };
    Query { sources, epsilon: Some(PR_TOL) }
}

/// One extra instrumented Gunrock run to collect the per-operator trace.
/// Kept separate from the timed loop so sink bookkeeping never shows up
/// in the reported wall times. The summary is stamped with this run's own
/// wall clock (so per-operator sums can be sanity-capped against it) and
/// the context's buffer-pool counters.
fn gunrock_stats(alg: Algorithm, d: &Dataset) -> RunStatsSummary {
    let ctx = Context::with_stats(gunrock_context(d));
    let start = std::time::Instant::now();
    std::hint::black_box((alg.entry().run)(&ctx, &gunrock_query(alg.entry())));
    let wall = start.elapsed().as_secs_f64() * 1e3;
    ctx.run_stats().summary().with_wall_clock(wall).with_pool(ctx.pool().stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::load_dataset;

    #[test]
    fn every_supported_pair_produces_a_measurement() {
        let pr = algos::PrOptions::default();
        assert_eq!((PR_DAMPING, PR_MAX_ITERS), (pr.damping, pr.max_iters), "one PageRank cap");
        let d = load_dataset("kron", 8);
        for sys in System::ALL {
            for alg in Algorithm::ALL {
                let skip = matches!(
                    (sys, alg),
                    (System::PowerGraph, Algorithm::Bc)
                        | (System::MapGraph, Algorithm::Bc)
                        | (System::Medusa, Algorithm::Bc)
                        | (System::Medusa, Algorithm::Cc)
                );
                let got = run_system(sys, alg, &d, 1);
                assert_eq!(got.is_none(), skip, "{sys:?} {alg:?}");
                if let Some(m) = got {
                    assert!(m.millis >= 0.0 && m.mteps >= 0.0);
                    // only Gunrock runs carry a trace aggregate, and it
                    // must have seen at least one operator step
                    assert_eq!(m.stats.is_some(), sys == System::Gunrock, "{sys:?} {alg:?}");
                    if let Some(s) = m.stats {
                        assert!(s.steps > 0, "{sys:?} {alg:?} trace is empty");
                        assert!(s.wall_millis > 0.0, "{sys:?} {alg:?} missing wall clock");
                        assert!(
                            s.operator_sum_millis() <= s.wall_millis + 1e-9,
                            "{sys:?} {alg:?} operator sum exceeds wall time"
                        );
                        // PageRank gathers into its own arrays and owns its
                        // frontier buffers, so it may never touch the pool:
                        // it must have gathered
                        if alg == Algorithm::PageRank {
                            assert!(s.pull_iterations > 0, "{sys:?} pagerank never gathered");
                        } else {
                            assert!(
                                s.pool.checkouts > 0,
                                "{sys:?} {alg:?} never used the pool"
                            );
                        }
                        // PageRank and CC hand back exactly what they took
                        if matches!(alg, Algorithm::PageRank | Algorithm::Cc) {
                            assert_eq!(
                                s.pool.releases, s.pool.checkouts,
                                "{sys:?} {alg:?} left the pool unbalanced"
                            );
                        }
                        // BC runs on the reverse graph its sigma gather needs
                        if alg == Algorithm::Bc {
                            let ctx = gunrock_context(&d).with_stats();
                            (alg.entry().run)(&ctx, &gunrock_query(alg.entry()));
                            let steps = ctx.run_stats().steps;
                            assert!(
                                steps.iter().any(|s| s.strategy.contains("gather")),
                                "{sys:?} BC never gathered"
                            );
                        }
                    }
                }
            }
        }
    }
}
