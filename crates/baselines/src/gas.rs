//! A gather-apply-scatter engine — the PowerGraph / MapGraph role in the
//! evaluation (§2.2, §4.5).
//!
//! Faithful to the property the paper blames for the GAS performance
//! gap: "the significant fragmentation of GAS programs across many
//! kernels" (§4.5). Every superstep here runs three *separate* parallel
//! passes — gather, apply, scatter — with the gather accumulator
//! **materialized to memory** between them (no fusion), exactly like the
//! multi-kernel GAS+GPU frameworks. Two workload-mapping modes stand in
//! for the two frameworks: [`GasMode::PerVertex`] (PowerGraph-style
//! vertex parallelism, load-imbalanced on skewed degrees) and
//! [`GasMode::Balanced`] (MapGraph-style dynamic chunking).

use crate::concat;
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32};
use gunrock_engine::bitmap::AtomicBitmap;
use gunrock_engine::config::grain_size;
use gunrock_engine::par;
use gunrock_graph::{Csr, VertexId, INFINITY};
use std::sync::atomic::{AtomicU32, Ordering};

/// Workload mapping for the gather/scatter passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GasMode {
    /// One task per active vertex (PowerGraph role).
    PerVertex,
    /// Edge-count-balanced dynamic chunks (MapGraph role).
    Balanced,
}

/// A vertex program in the GAS model. `G` is the gather accumulator.
pub trait VertexProgram: Sync {
    /// Gather accumulator type.
    type Gather: Copy + Send + Sync;

    /// Identity of the gather sum.
    fn gather_identity(&self) -> Self::Gather;

    /// Per-in-edge gather: contribution of edge `(u, v)` (weight `w`) to
    /// `v`'s accumulator.
    fn gather(&self, u: VertexId, v: VertexId, w: u32) -> Self::Gather;

    /// Associative combiner of gather contributions.
    fn sum(&self, a: Self::Gather, b: Self::Gather) -> Self::Gather;

    /// Apply the accumulated gather to `v`'s state; return true if the
    /// state changed (activating the scatter).
    fn apply(&self, v: VertexId, acc: Self::Gather) -> bool;

    /// Per-out-edge scatter from a changed vertex: return true to
    /// activate the neighbor `v` for the next superstep.
    fn scatter(&self, u: VertexId, v: VertexId, w: u32) -> bool;
}

/// Runs the GAS engine to convergence (empty active set) or `max_iters`.
/// Returns the number of supersteps executed.
pub fn run<P: VertexProgram>(
    g: &Csr,
    rev: &Csr,
    program: &P,
    initial_active: Vec<u32>,
    mode: GasMode,
    max_iters: usize,
) -> usize {
    let n = g.num_vertices();
    let mut active = initial_active;
    let mut iters = 0usize;
    while !active.is_empty() && iters < max_iters {
        iters += 1;
        // ---- Kernel 1: GATHER (materialized accumulator array) ----
        let acc: Vec<Option<P::Gather>> = match mode {
            GasMode::PerVertex => {
                // one task per active vertex
                let mut acc = Vec::new();
                par::collect_into(&active, |&v| gather_one(rev, program, v), &mut acc);
                acc
            }
            GasMode::Balanced => {
                // one task per chunk of 64 vertices, smoothing degree skew
                let gather = |&v: &u32| gather_one(rev, program, v);
                concat(active.chunks(64), |chunk| chunk.iter().map(gather).collect())
            }
        };
        let grain = grain_size(active.len());
        // ---- Kernel 2: APPLY (separate full pass over active set) ----
        let apply = |(&v, a): (&u32, &Option<P::Gather>)| match a {
            Some(acc) => program.apply(v, *acc),
            None => false,
        };
        let changed = concat(active.chunks(grain).zip(acc.chunks(grain)), |(vs, accs)| {
            vs.iter().zip(accs).map(apply).collect()
        });
        // ---- Kernel 3: SCATTER (third pass; activation set dedup) ----
        let next_bitmap = AtomicBitmap::new(n);
        let scatter = |(&u, &ch): (&u32, &bool)| {
            let mut local = Vec::new();
            if ch {
                for e in g.edge_range(u) {
                    let v = g.col_indices()[e];
                    if program.scatter(u, v, g.weight(e as u32))
                        && !next_bitmap.test_and_set(v as usize)
                    {
                        local.push(v);
                    }
                }
            }
            local
        };
        active = concat(active.chunks(grain).zip(changed.chunks(grain)), |(us, chs)| {
            us.iter().zip(chs).flat_map(scatter).collect()
        });
    }
    iters
}

fn gather_one<P: VertexProgram>(rev: &Csr, program: &P, v: VertexId) -> Option<P::Gather> {
    let mut acc: Option<P::Gather> = None;
    for e in rev.edge_range(v) {
        let u = rev.col_indices()[e];
        let contrib = program.gather(u, v, rev.weight(e as u32));
        acc = Some(match acc {
            Some(a) => program.sum(a, contrib),
            None => contrib,
        });
    }
    acc
}

// ---------------------------------------------------------------------
// Vertex programs
// ---------------------------------------------------------------------

use gunrock_engine::atomics::AtomicF64;

/// BFS as a GAS vertex program: gather min(parent depth) + 1.
struct BfsProgram<'a> {
    depth: &'a [AtomicU32],
}

impl VertexProgram for BfsProgram<'_> {
    type Gather = u32;
    fn gather_identity(&self) -> u32 {
        INFINITY
    }
    fn gather(&self, u: VertexId, _v: VertexId, _w: u32) -> u32 {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        self.depth[u as usize].load(Ordering::Relaxed).saturating_add(1)
    }
    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, v: VertexId, acc: u32) -> bool {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        acc < self.depth[v as usize].load(Ordering::Relaxed) && {
            self.depth[v as usize].fetch_min(acc, Ordering::Relaxed) > acc
        }
    }
    fn scatter(&self, _u: VertexId, v: VertexId, _w: u32) -> bool {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        self.depth[v as usize].load(Ordering::Relaxed) == INFINITY
    }
}

/// BFS depths via the GAS engine.
pub fn bfs(g: &Csr, rev: &Csr, src: VertexId, mode: GasMode) -> Vec<u32> {
    let depth = atomic_u32_vec(g.num_vertices(), INFINITY);
    // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
    // the GAS super-step barrier publishes them.
    depth[src as usize].store(0, Ordering::Relaxed);
    // seed: activate the source's neighbors (source itself has no gather)
    let initial: Vec<u32> = g.neighbors(src).to_vec();
    run(g, rev, &BfsProgram { depth: &depth }, initial, mode, g.num_vertices() + 1);
    unwrap_atomic_u32(&depth)
}

/// SSSP as a GAS vertex program: gather min(dist[u] + w).
struct SsspProgram<'a> {
    dist: &'a [AtomicU32],
}

impl VertexProgram for SsspProgram<'_> {
    type Gather = u32;
    fn gather_identity(&self) -> u32 {
        INFINITY
    }
    fn gather(&self, u: VertexId, _v: VertexId, w: u32) -> u32 {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        self.dist[u as usize].load(Ordering::Relaxed).saturating_add(w)
    }
    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, v: VertexId, acc: u32) -> bool {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        self.dist[v as usize].fetch_min(acc, Ordering::Relaxed) > acc
    }
    fn scatter(&self, _u: VertexId, _v: VertexId, _w: u32) -> bool {
        true // any neighbor of a changed vertex may improve
    }
}

/// SSSP distances via the GAS engine.
pub fn sssp(g: &Csr, rev: &Csr, src: VertexId, mode: GasMode) -> Vec<u32> {
    let dist = atomic_u32_vec(g.num_vertices(), INFINITY);
    // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
    // the GAS super-step barrier publishes them.
    dist[src as usize].store(0, Ordering::Relaxed);
    let initial: Vec<u32> = g.neighbors(src).to_vec();
    run(g, rev, &SsspProgram { dist: &dist }, initial, mode, usize::MAX);
    unwrap_atomic_u32(&dist)
}

/// Connected components as a GAS vertex program: gather min neighbor
/// label.
struct CcProgram<'a> {
    label: &'a [AtomicU32],
}

impl VertexProgram for CcProgram<'_> {
    type Gather = u32;
    fn gather_identity(&self) -> u32 {
        u32::MAX
    }
    fn gather(&self, u: VertexId, _v: VertexId, _w: u32) -> u32 {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        self.label[u as usize].load(Ordering::Relaxed)
    }
    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, v: VertexId, acc: u32) -> bool {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        self.label[v as usize].fetch_min(acc, Ordering::Relaxed) > acc
    }
    fn scatter(&self, _u: VertexId, _v: VertexId, _w: u32) -> bool {
        true
    }
}

/// Connected component labels (min-id canonical) via the GAS engine.
pub fn connected_components(g: &Csr, rev: &Csr, mode: GasMode) -> Vec<VertexId> {
    let n = g.num_vertices();
    let label = atomic_u32_vec(n, 0);
    for (v, l) in label.iter().enumerate() {
        // ORDERING: Relaxed — gather/apply cells take monotonic fetch_min updates;
        // the GAS super-step barrier publishes them.
        l.store(v as u32, Ordering::Relaxed);
    }
    let initial: Vec<u32> = (0..n as u32).collect();
    run(g, rev, &CcProgram { label: &label }, initial, mode, n + 1);
    unwrap_atomic_u32(&label)
}

/// PageRank as a GAS vertex program with per-superstep tolerance-based
/// activation.
struct PrProgram<'a> {
    g: &'a Csr,
    pr: &'a [AtomicF64],
    damping: f64,
    base: f64,
    tol: f64,
}

impl VertexProgram for PrProgram<'_> {
    type Gather = f64;
    fn gather_identity(&self) -> f64 {
        0.0
    }
    fn gather(&self, u: VertexId, _v: VertexId, _w: u32) -> f64 {
        let deg = self.g.out_degree(u);
        if deg == 0 {
            0.0
        } else {
            self.pr[u as usize].load() / deg as f64
        }
    }
    fn sum(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn apply(&self, v: VertexId, acc: f64) -> bool {
        let new = self.base + self.damping * acc;
        let old = self.pr[v as usize].load();
        self.pr[v as usize].store(new);
        (new - old).abs() > self.tol
    }
    fn scatter(&self, _u: VertexId, _v: VertexId, _w: u32) -> bool {
        true
    }
}

/// PageRank via the GAS engine (synchronous; vertices deactivate when
/// their score settles under `tol`). Graphs with dangling vertices are
/// supported by uniform teleport only (dangling mass is dropped, as in
/// the GAS frameworks).
pub fn pagerank(
    g: &Csr,
    rev: &Csr,
    damping: f64,
    tol: f64,
    max_iters: usize,
    mode: GasMode,
) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let pr: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(1.0 / n as f64)).collect();
    let program = PrProgram { g, pr: &pr, damping, base: (1.0 - damping) / n as f64, tol };
    let initial: Vec<u32> = (0..n as u32).collect();
    run(g, rev, &program, initial, mode, max_iters);
    pr.iter().map(|a| a.load()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use gunrock_graph::generators::{erdos_renyi, rmat};
    use gunrock_graph::GraphBuilder;

    fn graphs() -> Vec<Csr> {
        vec![
            GraphBuilder::new().random_weights(1, 64, 1).build(erdos_renyi(250, 700, 1)),
            GraphBuilder::new().random_weights(1, 64, 2).build(rmat(
                8,
                8,
                Default::default(),
                2,
            )),
        ]
    }

    #[test]
    fn bfs_matches_serial_in_both_modes() {
        for g in graphs() {
            let want = serial::bfs(&g, 0);
            assert_eq!(bfs(&g, &g, 0, GasMode::PerVertex), want);
            assert_eq!(bfs(&g, &g, 0, GasMode::Balanced), want);
        }
    }

    #[test]
    fn sssp_matches_dijkstra() {
        for g in graphs() {
            let want = serial::dijkstra(&g, 0);
            assert_eq!(sssp(&g, &g, 0, GasMode::PerVertex), want);
            assert_eq!(sssp(&g, &g, 0, GasMode::Balanced), want);
        }
    }

    #[test]
    fn cc_matches_union_find() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 320, 4));
        let want = serial::connected_components(&g);
        assert_eq!(connected_components(&g, &g, GasMode::PerVertex), want);
        assert_eq!(connected_components(&g, &g, GasMode::Balanced), want);
    }

    #[test]
    fn pagerank_close_to_power_iteration() {
        let g = GraphBuilder::new().build(erdos_renyi(200, 800, 7));
        let got = pagerank(&g, &g, 0.85, 1e-12, 100, GasMode::Balanced);
        let want = serial::pagerank(&g, 0.85, 1e-12, 100);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
