//! Connected component labeling (§5.4) at union-find speed.
//!
//! The paper hooks over "an edge frontier [that] starts with all edges"
//! and pointer-jumps in between (Soman et al.; that formulation lives on
//! as `baselines::hardwired::cc_soman`). This primitive departs from it:
//! it never builds the all-edges frontier, because on every graph with a
//! giant component almost no edge needs to be looked at (DESIGN §5.4).
//!
//! Labels are a lock-free parent forest ([`link`] / [`root`]:
//! `labels[v] <= v`, the larger root hooked under the smaller, so the
//! converged label is the component's minimum id). A run is four passes,
//! one bulk-synchronous iteration each:
//!
//! 1. and 2. *sampled hooking* — compute pass `r` links every vertex to
//!    its `r`-th neighbour, then a compress pass points every label at
//!    its root;
//! 3. *split* — the most frequent label in a fixed strided sample names
//!    the giant component, and an exact filter keeps the residual
//!    frontier: vertices outside it with more neighbours than the two
//!    already linked;
//! 4. *finish* — one advance links every edge of the residual frontier,
//!    then a last compress.
//!
//! Skipping the giant component is sound only if every edge can be seen
//! from its endpoint outside it, so the skip needs a reverse graph on the
//! context; without one the residual frontier is every vertex with more
//! than two neighbours — still a single pass over the edges.

use crate::primitive::{failure_of, malformed, run, to_atomic_u32, Primitive};
use crate::registry::{Arity, Output};
use gunrock::prelude::*;
use gunrock_engine::atomics::{into_plain_u32, link, root, unwrap_atomic_u32, Shared};
use gunrock_engine::budget::pooled_bytes;
use gunrock_engine::checkpoint::{Field, Kind::*, Schema, Slot::*, Snapshot, SnapshotWriter};
use gunrock_graph::{Csr, EdgeId, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// CC output.
#[derive(Clone, Debug)]
pub struct CcResult {
    /// Component label per vertex: the minimum vertex id in its component
    /// (canonical labeling).
    pub labels: Vec<VertexId>,
    /// Number of connected components (isolated vertices count).
    pub num_components: usize,
    /// Passes executed (four on a full run).
    pub iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the enact loop ended. On a partial outcome `labels` is a
    /// valid *refinement* of the final components (vertices with equal
    /// labels really are connected; some components may still be split
    /// across several labels) and `num_components` counts the current
    /// label roots, an upper bound on the true component count. A trip
    /// found after the last pass is reported too, with complete labels.
    pub outcome: RunOutcome,
}

/// Sampled-hooking passes — the neighbours of each vertex linked before
/// the split. Pass `r` has phase tag `r`; the other passes follow.
const SAMPLE_ROUNDS: u32 = 2;
const PHASE_SPLIT: u32 = SAMPLE_ROUNDS;
const PHASE_FINISH: u32 = PHASE_SPLIT + 1;
const PHASE_DONE: u32 = PHASE_FINISH + 1;
/// Most vertices the split looks at to name the giant component.
const SPLIT_SAMPLE: usize = 1024;
/// The giant label while none is skipped: before the split, and after it
/// on a context without a reverse graph. No vertex id reaches `u32::MAX`.
const NO_GIANT: u32 = u32::MAX;

/// A vertex's neighbourhood as CC sees it: its out-neighbours, then — on
/// a context whose reverse graph is a different graph — its in-neighbours.
struct Adjacency<'g> {
    out: &'g Csr,
    inn: Option<&'g Csr>,
}

impl<'g> Adjacency<'g> {
    fn of(ctx: &Context<'g>) -> Self {
        // a graph attached as its own reverse is symmetric: its in-lists
        // are its out-lists, already covered
        let inn = ctx.reverse.filter(|&rev| !std::ptr::eq(rev, ctx.graph));
        Adjacency { out: ctx.graph, inn }
    }

    fn degree(&self, v: VertexId) -> usize {
        // CAST: u32 -> usize widening is lossless.
        (self.out.out_degree(v) + self.inn.map_or(0, |rev| rev.out_degree(v))) as usize
    }

    fn nth(&self, v: VertexId, r: usize) -> Option<VertexId> {
        let out = self.out.neighbors(v);
        let inn = || self.inn?.neighbors(v).get(r - out.len());
        out.get(r).or_else(inn).copied()
    }
}

/// Split functor: a vertex stays when it has neighbours the sampling
/// passes did not link and it is not in the skipped component.
struct Residual<'a> {
    adj: &'a Adjacency<'a>,
    labels: &'a [AtomicU32],
    giant: u32,
}

impl FilterFunctor for Residual<'_> {
    #[inline]
    fn cond(&self, v: u32) -> bool {
        // ORDERING: Relaxed — relaxed-load; the split runs between link passes,
        // nothing writes labels concurrently.
        self.adj.degree(v) > SAMPLE_ROUNDS as usize
            && self.labels[v as usize].load(Ordering::Relaxed) != self.giant
    }
}

/// Finish functor: links the endpoints of every visited edge, emits nothing.
struct LinkEdge<'a>(&'a [AtomicU32]);

impl AdvanceFunctor for LinkEdge<'_> {
    #[inline]
    fn cond_edge<A: Access>(&self, a: A, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        link(a, self.0, src, dst);
        false
    }
}

/// The most frequent label among at most [`SPLIT_SAMPLE`] evenly strided
/// vertices. A function of the labels alone — no RNG — so a resumed run
/// splits exactly as the uninterrupted one would.
fn sample_giant(labels: &[AtomicU32]) -> u32 {
    let stride = labels.len().div_ceil(SPLIT_SAMPLE).max(1);
    let mut sample = [NO_GIANT; SPLIT_SAMPLE];
    let mut taken = 0;
    for (slot, label) in sample.iter_mut().zip(labels.iter().step_by(stride)) {
        // ORDERING: Relaxed — relaxed-load between passes, as in `Residual`.
        *slot = label.load(Ordering::Relaxed);
        taken += 1;
    }
    let sample = &mut sample[..taken];
    sample.sort_unstable();
    let runs = sample.chunk_by(|a, b| a == b);
    runs.max_by_key(|run| run.len()).map_or(NO_GIANT, |run| run[0])
}

/// Compress pass: points every label at its tree's root.
fn compress(ctx: &Context<'_>, step: &'static str, labels: &[AtomicU32]) {
    compute::for_each_id_ctx(ctx, step, labels.len(), |v| {
        // ORDERING: Relaxed — relaxed-store of a monotone pointer: no link runs
        // during a compress pass, each slot has one writer, and a racing
        // `root` walk through it sees the old parent or the root — both
        // ancestors. The join barrier orders the pass for the next one.
        labels[v as usize].store(root(labels, v), Ordering::Relaxed);
    });
}

/// CC as a [`Primitive`]: the in-flight state at an iteration boundary,
/// all of which a snapshot captures.
pub struct Cc {
    labels: Vec<AtomicU32>,
    /// The residual frontier, from the pool; empty before the split.
    residual: Frontier,
    /// The pass to run next: `0..SAMPLE_ROUNDS`, then the `PHASE_*` tags.
    phase: u32,
    giant: u32,
}

/// Labels connected components. Works on the undirected interpretation
/// of the graph (each undirected edge may appear in either or both
/// directions; both work). A reverse graph on the context (the graph
/// itself when it is symmetric) lets the run skip the giant component.
pub fn cc(ctx: &Context<'_>) -> CcResult {
    run::<Cc>(ctx, &[], ())
}

impl Primitive for Cc {
    const NAME: &'static str = "cc";
    const ARITY: Arity = Arity::None;
    const ADVANCES: bool = true;
    const SNAPSHOT: Option<&'static Schema> = Some(&Schema {
        primitive: "cc",
        fields: &[
            Field("labels", "u32", PerVertex),
            Field("frontier", "u32", VertexIds),
            Field("scalars", "u32", Slots(&[Plain("phase"), Plain("giant")])),
        ],
    });
    // The boundary is also consulted after the last pass: a cancel or
    // deadline can cut the finish advance short, and a truncated link
    // pass must not read as convergence.
    const BOUNDARY_AFTER_LAST: bool = true;
    type Options = ();
    type Result = CcResult;

    // the parent forest, and the pooled residual frontier the split
    // filters out of the vertex set
    fn state_bytes(n: u64, _m: u64) -> u64 {
        n * 4 + pooled_bytes(n, 4)
    }

    fn init(ctx: &Context<'_>, _sources: &[VertexId], _opts: ()) -> Self {
        // CAST: vertex ids fit u32 (Csr invariant).
        let labels = (0..ctx.num_vertices() as u32).map(AtomicU32::new).collect();
        Cc { labels, residual: Frontier::new(), phase: 0, giant: NO_GIANT }
    }

    fn load(ctx: &Context<'_>, snap: &Snapshot<'_>, _opts: ()) -> Result<Self, GunrockError> {
        let labels = snap.section("labels")?;
        if let Some(v) = labels.iter().zip(0u32..).find_map(|(&l, v)| (l > v).then_some(v)) {
            return Err(malformed(format!("label of vertex {v} is not a smaller-or-equal id")));
        }
        let (frontier, phase, giant) =
            (snap.section("frontier")?, snap.slot("phase")?, snap.slot("giant")?);
        if phase > PHASE_DONE {
            return Err(malformed(format!("unknown CC phase tag {phase}")));
        }
        // the residual frontier goes back to the pool when the run ends, so
        // it has to come from there
        let residual = ctx
            .pooled_copy("filter", frontier, frontier.len())
            .map(Frontier::from_vec)
            .ok_or_else(|| failure_of(ctx))?;
        Ok(Cc { labels: to_atomic_u32(labels), residual, phase, giant })
    }

    fn save(&self, snapshot: SnapshotWriter) -> SnapshotWriter {
        snapshot
            .section("labels", unwrap_atomic_u32(&self.labels))
            .section("frontier", self.residual.as_slice().to_vec())
            .slots("scalars", &[("phase", self.phase), ("giant", self.giant)])
    }

    fn live(&self, _iterations: u32) -> bool {
        self.phase != PHASE_DONE
    }

    fn step(&mut self, ctx: &Context<'_>, run: &mut Enactment<'_, '_>, mode: AdvanceMode) {
        run.end_iteration(false);
        let adj = Adjacency::of(ctx);
        let n = self.labels.len();
        let labels = &self.labels[..];
        match self.phase {
            PHASE_SPLIT => {
                self.giant =
                    if ctx.reverse.is_some() { sample_giant(labels) } else { NO_GIANT };
                let keep = Residual { adj: &adj, labels, giant: self.giant };
                let kept = filter::filter_ids(ctx, "cc:split", n, &keep);
                ctx.recycle(std::mem::replace(&mut self.residual, kept));
            }
            PHASE_FINISH if self.residual.is_empty() => {} // labels are roots already
            PHASE_FINISH => {
                let spec = AdvanceSpec::for_effect().with_mode(mode);
                let _ = advance::advance(ctx, &self.residual, spec, &LinkEdge(labels));
                if let Some(rev) = adj.inn {
                    compute::for_each_ctx(ctx, "cc:in_edges", &self.residual, |v| {
                        let sources = rev.neighbors(v);
                        for &u in sources {
                            link(Shared, labels, v, u);
                        }
                        ctx.counters.add_edges(sources.len() as u64);
                    });
                }
                compress(ctx, "cc:finish", labels);
            }
            r => {
                compute::for_each_id_ctx(ctx, "cc:sample_hook", n, |v| {
                    // CAST: r < SAMPLE_ROUNDS, u32 -> usize widening.
                    if let Some(u) = adj.nth(v, r as usize) {
                        link(Shared, labels, v, u);
                    }
                });
                compress(ctx, "cc:compress", labels);
            }
        }
        self.phase += 1;
    }

    fn finish(self, ctx: &Context<'_>, done: Enacted) -> CcResult {
        ctx.recycle(self.residual);
        let labels = into_plain_u32(self.labels);
        let num_components = labels.iter().zip(0u32..).filter(|&(&l, v)| l == v).count();
        CcResult {
            labels,
            num_components,
            iterations: done.iterations,
            elapsed: done.elapsed,
            outcome: done.outcome,
        }
    }

    fn output(result: CcResult) -> Output {
        Output::Components(result.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, grid2d, hub_chain, rmat};
    use gunrock_graph::{Coo, GraphBuilder};

    /// Oracle-equal without a reverse graph (no skip) and with the graph
    /// as its own reverse (skip taken): these graphs are all symmetric.
    fn check(g: &Csr) {
        let want = serial::connected_components(g);
        for ctx in [Context::new(g), Context::new(g).with_reverse(g)] {
            let r = cc(&ctx);
            assert_eq!(r.labels, want);
            assert_eq!(r.num_components, serial::num_components(&want));
            assert_eq!((r.outcome, r.iterations), (RunOutcome::Converged, PHASE_DONE));
        }
    }

    #[test]
    fn matches_union_find_on_suite() {
        check(&GraphBuilder::new().build(erdos_renyi(400, 450, 1)));
        check(&GraphBuilder::new().build(rmat(8, 4, Default::default(), 2)));
        check(&GraphBuilder::new().build(grid2d(15, 15, 0.3, 0.0, 3)));
        check(&GraphBuilder::new().build(hub_chain(300, 0.05, 20, 4)));
        // no edges at all, one path, and two stars of equal size
        check(&GraphBuilder::new().build(Coo::new(10)));
        check(
            &GraphBuilder::new()
                .build(Coo::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])),
        );
        let stars: Vec<_> = (1..50).map(|i| (0, i)).chain((51..100).map(|i| (50, i))).collect();
        check(&GraphBuilder::new().build(Coo::from_edges(100, &stars)));
    }

    /// Soundness must not depend on what the sample finds. Every sampled
    /// vertex here is isolated but the pair {0, stride}, which the split
    /// names the giant; the real one is a path of hubs on the unsampled ids,
    /// each with two smaller-id leaves that are all the sampling passes link.
    #[test]
    fn a_split_that_picks_a_tiny_component_still_matches_the_oracle() {
        let (n, stride) = (4 * SPLIT_SAMPLE as u32, 4);
        let free: Vec<u32> = (0..n).filter(|v| v % stride != 0).collect();
        let (leaves, hubs) = free.split_at(2 * SPLIT_SAMPLE);
        let mut edges = vec![(0, stride)];
        edges.extend(hubs.windows(2).map(|h| (h[0], h[1])));
        edges.extend(leaves.iter().zip(0..).map(|(&leaf, i)| (hubs[i / 2], leaf)));
        let g = GraphBuilder::new().build(Coo::from_edges(n as usize, &edges));
        let ctx = Context::new(&g).with_reverse(&g).with_stats();
        let r = cc(&ctx);
        assert_eq!(r.labels, serial::connected_components(&g));
        assert_eq!(r.labels[hubs[0] as usize], 1, "one component over the unsampled ids");
        let residual =
            ctx.run_stats().steps.iter().find(|s| s.strategy == "cc:split").unwrap().output_len;
        assert_eq!(residual, hubs.len() as u64, "every hub is residual");
    }
}
