//! The primitive registry: one static table, one [`Entry`] per primitive
//! name. Every front end — the CLI, the server, resume and the bench
//! runner — reads a primitive's source arity, its run and resume and its
//! footprint estimate here instead of dispatching by name, so no front
//! end holds a copy that can drift.
//!
//! Each entry is derived from its primitive's
//! [`Primitive`](crate::primitive::Primitive) declaration by [`entry`]:
//! a new primitive is one file plus one `entry::<P>()` line in
//! [`REGISTRY`]. An entry fixes its primitive's one default
//! configuration; the only per-call inputs are a [`Query`]'s sources and
//! PageRank-style convergence threshold. Results come back as a uniform
//! [`Run`] whose [`Output`] knows how to map itself back to original
//! vertex ids, hash itself, and compare against an oracle.

use crate::bc::Bc;
use crate::bfs::Bfs;
use crate::cc::Cc;
use crate::kcore::Kcore;
use crate::label_prop::LabelProp;
use crate::msbfs::Msbfs;
use crate::msppr::Msppr;
use crate::mst::Mst;
use crate::pagerank::PageRank;
use crate::primitive::entry;
use crate::sssp::Sssp;
use crate::triangles::Triangles;
use gunrock::prelude::*;
use gunrock_engine::fnv::{fnv1a, hash_f64s, hash_u32s};
use gunrock_graph::reorder::Relabeling;
use gunrock_graph::{VertexId, INFINITY};
use std::time::Duration;

/// How many source vertices a primitive takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// Whole-graph primitives (components, ranks, counts).
    None,
    /// Single-source traversals; [`Query::sources`] holds one vertex.
    One,
    /// Lane-packed batches of `1..=LANES` sources.
    Lanes,
}

/// The per-call inputs of a run — the only values a front end sets.
#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Source vertices: none, one, or one per lane (see [`Arity`]). A
    /// single-source entry given none starts from vertex 0.
    pub sources: Vec<VertexId>,
    /// Convergence threshold override for the ranking primitives.
    pub epsilon: Option<f64>,
}

/// A finished run of any primitive.
#[derive(Clone, Debug)]
pub struct Run {
    /// How the enact loop ended.
    pub outcome: RunOutcome,
    /// Bulk-synchronous iterations (rounds, passes) executed.
    pub iterations: u32,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// The sources the run started from: the query's, or the ones a
    /// resumed checkpoint pinned.
    pub sources: Vec<VertexId>,
    /// The result.
    pub output: Output,
}

/// A primitive's result, in one of four shapes. Lane-packed batches are
/// lane-major: lane `l`'s values are the `l`-th `n`-sized chunk.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Per-vertex values: BFS depths, distances, core numbers
    /// (`INFINITY` = unreached).
    Depths(Vec<u32>),
    /// Per-vertex component / community labels, themselves vertex ids.
    Components(Vec<VertexId>),
    /// Per-vertex `f64` scores.
    Scores(Vec<f64>),
    /// One whole-graph count (triangles, spanning-forest weight).
    Count(u64),
}

impl Output {
    /// The output in original-id order for a run on a relabeled graph:
    /// values move to their original positions, and component labels —
    /// vertex ids themselves — are translated back too.
    pub fn restore(&self, relab: &Relabeling) -> Output {
        let n = relab.len().max(1);
        match self {
            Output::Depths(v) => {
                Output::Depths(v.chunks(n).flat_map(|c| relab.restore_values(c)).collect())
            }
            Output::Components(v) => {
                Output::Components(v.chunks(n).flat_map(|c| relab.restore_ids(c)).collect())
            }
            Output::Scores(v) => {
                Output::Scores(v.chunks(n).flat_map(|c| relab.restore_values(c)).collect())
            }
            Output::Count(c) => Output::Count(*c),
        }
    }

    /// FNV-1a over the result's bytes: equal hashes mean bit-identical
    /// results.
    pub fn hash(&self) -> u64 {
        match self {
            Output::Depths(v) | Output::Components(v) => hash_u32s(v),
            Output::Scores(v) => hash_f64s(v),
            Output::Count(c) => fnv1a(&c.to_le_bytes()),
        }
    }

    /// Vertex slots a traversal reached (`None` unless per-vertex values).
    pub fn reached(&self) -> Option<u64> {
        match self {
            Output::Depths(v) => Some(v.iter().filter(|&&d| d != INFINITY).count() as u64),
            _ => None,
        }
    }

    /// Number of distinct labels (`None` unless component labels).
    pub fn components(&self) -> Option<u64> {
        match self {
            Output::Components(v) => {
                // labels are vertex ids: one flag per id marks its first sight
                let mut seen = vec![false; v.len()];
                let first = |l: &&u32| {
                    seen.get_mut(**l as usize).is_some_and(|s| !std::mem::replace(s, true))
                };
                Some(v.iter().filter(first).count() as u64)
            }
            _ => None,
        }
    }

    /// Compares against an oracle's output: values and counts exactly,
    /// labels as partitions (representatives may differ), scores within
    /// 1e-6 of the oracle's (relative above 1; NaN — shortest-path counts
    /// past `f64` — matches only NaN).
    pub fn check(&self, want: &Output) -> Result<(), String> {
        match (self, want) {
            (Output::Depths(a), Output::Depths(b)) => first_mismatch(a, b, |x, y| x == y),
            (Output::Components(a), Output::Components(b)) => {
                first_mismatch(&canonical(a), &canonical(b), |x, y| x == y)
            }
            (Output::Scores(a), Output::Scores(b)) => first_mismatch(a, b, |x, y| {
                (x - y).abs() <= 1e-6 * y.abs().max(1.0) || (x.is_nan() && y.is_nan())
            }),
            (Output::Count(a), Output::Count(b)) if a == b => Ok(()),
            _ => Err(format!("VERIFY FAILED: {self:?} vs oracle {want:?}")),
        }
    }
}

fn first_mismatch<T: std::fmt::Debug>(
    got: &[T],
    want: &[T],
    same: impl Fn(&T, &T) -> bool,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("VERIFY FAILED: {} values vs oracle {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| !same(a, b)) {
        Some(i) => {
            Err(format!("VERIFY FAILED: [{i}] = {:?}, oracle says {:?}", got[i], want[i]))
        }
        None => Ok(()),
    }
}

/// Rewrites labels to "first vertex carrying the label", so labelings
/// that picked different representatives of one partition compare equal.
fn canonical(labels: &[VertexId]) -> Vec<VertexId> {
    let mut rep = std::collections::HashMap::new();
    labels.iter().enumerate().map(|(v, &l)| *rep.entry(l).or_insert(v as VertexId)).collect()
}

/// Continues a run from a checkpoint its primitive wrote.
pub type Resume = fn(&Context<'_>, &Checkpoint) -> Result<Run, GunrockError>;

/// One primitive: everything a front end needs to run, resume and price
/// it.
pub struct Entry {
    /// The name requests, command lines and checkpoints use.
    pub name: &'static str,
    /// How many sources a [`Query`] carries.
    pub arity: Arity,
    /// Runs the primitive in its default configuration.
    pub run: fn(&Context<'_>, &Query) -> Run,
    /// Continues a run from a `gunrock-ckpt/v1` snapshot it wrote.
    pub resume: Option<Resume>,
    /// Pessimistic up-front footprint (bytes, in pool charging units) of
    /// one run on a graph with `n` vertices and `m` directed edges: the
    /// widest single iteration, so admission errs toward rejecting, never
    /// toward aborting (DESIGN §11.2).
    pub estimate_bytes: fn(u64, u64) -> u64,
}

/// The registry, one entry per primitive.
pub static REGISTRY: &[Entry] = &[
    entry::<Bfs>(),
    entry::<Sssp>(),
    entry::<Bc>(),
    entry::<Cc>(),
    entry::<PageRank>(),
    entry::<Msbfs>(),
    entry::<Msppr>(),
    entry::<Mst>(),
    entry::<Kcore>(),
    entry::<Triangles>(),
    entry::<LabelProp>(),
];

/// The entry named `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The names of the entries of the given arities, in table order,
/// space-separated (for usage and rejection messages).
pub fn names(arities: &[Arity]) -> String {
    let names: Vec<&str> =
        REGISTRY.iter().filter(|e| arities.contains(&e.arity)).map(|e| e.name).collect();
    names.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for e in REGISTRY {
            assert!(std::ptr::eq(find(e.name).unwrap(), e), "{}", e.name);
        }
        assert!(find("sleep").is_none());
        assert_eq!(names(&[Arity::Lanes]), "msbfs msppr");
    }

    /// Every pass of every primitive launches through the operator
    /// frame, so a stats-enabled run records at least one step per
    /// completed iteration, each stamped inside the run.
    #[test]
    fn every_entry_records_its_passes() {
        use gunrock_graph::generators::{rmat, RmatParams};
        use gunrock_graph::GraphBuilder;
        let g = GraphBuilder::new().random_weights(1, 64, 7).build(rmat(
            8,
            8,
            RmatParams::graph500(),
            7,
        ));
        for e in REGISTRY {
            let sources = if e.arity == Arity::Lanes { (0..8).collect() } else { Vec::new() };
            let ctx = Context::new(&g).with_reverse(&g).with_stats();
            let run = (e.run)(&ctx, &Query { sources, epsilon: None });
            assert_eq!(run.outcome, RunOutcome::Converged, "{}", e.name);
            let steps = ctx.run_stats().steps;
            assert!(
                steps.len() >= run.iterations as usize,
                "{}: {} steps for {} iterations",
                e.name,
                steps.len(),
                run.iterations
            );
            let traced: u64 = steps.iter().map(|s| s.edges_examined).sum();
            assert_eq!(
                traced,
                ctx.counters.edges(),
                "{}: every counted edge is a step's",
                e.name
            );
            let last = steps.iter().map(|s| s.iteration).max();
            assert!(
                last <= Some(run.iterations),
                "{}: stamp {last:?} past {}",
                e.name,
                run.iterations
            );
        }
    }

    #[test]
    fn estimates_are_monotone_and_primitive_shaped() {
        let (n, m) = (1 << 12, 1 << 16);
        let est = |name| (find(name).unwrap().estimate_bytes)(n, m);
        for e in REGISTRY {
            let small = (e.estimate_bytes)(n, m);
            let large = (e.estimate_bytes)(n * 4, m * 4);
            assert!(small > 0, "{}", e.name);
            assert!(large > small, "{}: estimate must grow with the graph", e.name);
        }
        // bc carries two f64 arrays, so it must out-weigh bfs
        assert!(est("bc") > est("bfs"));
    }

    #[test]
    fn restore_maps_every_lane_and_translates_labels() {
        // new id of old vertex v is 2 - v
        let relab = Relabeling::from_forward(vec![2, 1, 0]);
        let lanes = Output::Depths(vec![0, 1, 2, 5, 6, 7]);
        assert_eq!(lanes.restore(&relab), Output::Depths(vec![2, 1, 0, 7, 6, 5]));
        let labels = Output::Components(vec![0, 0, 2]);
        assert_eq!(labels.restore(&relab), Output::Components(vec![0, 2, 2]));
        assert_eq!(Output::Count(9).restore(&relab), Output::Count(9));
    }

    #[test]
    fn summaries_follow_the_output_shape() {
        assert_eq!(Output::Depths(vec![0, INFINITY, 3]).reached(), Some(2));
        assert_eq!(Output::Components(vec![0, 0, 2, 2, 4]).components(), Some(3));
        assert_eq!(Output::Scores(vec![1.0]).reached(), None);
        assert_eq!(Output::Count(3).components(), None);
        assert_ne!(Output::Count(1).hash(), Output::Count(2).hash());
    }

    #[test]
    fn check_compares_partitions_and_scores_with_tolerance() {
        let a = Output::Components(vec![1, 1, 0]);
        assert!(a.check(&Output::Components(vec![0, 0, 2])).is_ok());
        assert!(a.check(&Output::Components(vec![0, 1, 2])).is_err());
        assert!(Output::Scores(vec![f64::NAN]).check(&Output::Scores(vec![1.0])).is_err());
        assert!(Output::Count(1).check(&Output::Depths(vec![1])).is_err());
        assert!(Output::Depths(vec![1]).check(&Output::Depths(vec![1, 2])).is_err());
    }
}
