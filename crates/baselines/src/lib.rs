//! # gunrock-baselines
//!
//! Every comparison system from the paper's evaluation (§6, Table 2),
//! rebuilt on the same graph substrate so that the framework-overhead
//! comparisons are apples-to-apples (see DESIGN.md §2):
//!
//! * [`serial`] — textbook single-threaded implementations, playing the
//!   Boost Graph Library role (and doubling as the correctness oracle for
//!   every other engine).
//! * [`ligra`] — an edgeMap/vertexMap engine with sparse/dense
//!   auto-switching, playing the Ligra role.
//! * [`gas`] — a gather-apply-scatter engine with unfused multi-pass
//!   phases, playing the PowerGraph/MapGraph role.
//! * [`medusa`] — a message-passing BSP engine with materialized message
//!   buffers, playing the Medusa role.
//! * [`hardwired`] — framework-free, per-primitive hand-tuned parallel
//!   implementations, playing the role of the hardwired GPU kernels
//!   (b40c BFS, delta-stepping SSSP, gpu_BC, conn CC).
//! * [`sort`] — the LSD radix sort [`medusa`] groups its messages by
//!   destination with.

#![warn(missing_docs)]

pub mod gas;
pub mod hardwired;
pub mod ligra;
pub mod medusa;
pub mod serial;
pub mod sort;

use gunrock_engine::config::{grain_size, id_blocks};
use gunrock_engine::par;
use gunrock_graph::{Csr, VertexId};

/// Runs `f` on every task and concatenates the per-task outputs in task
/// order: the engines' "per-task local buffers, then one merge" shape.
fn concat<I, T, F>(tasks: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Clone + Send,
    F: Fn(I::Item) -> Vec<T> + Sync,
{
    let mut parts = Vec::new();
    par::collect_into(tasks, f, &mut parts);
    parts.concat()
}

/// Total out-degree of `ids`: a frontier's edge count.
fn out_degrees(g: &Csr, ids: &[VertexId]) -> u64 {
    let degrees = |c: &[VertexId]| c.iter().map(|&u| u64::from(g.out_degree(u))).sum::<u64>();
    par::map_reduce(ids.chunks(grain_size(ids.len())), 0, degrees, |a, b| a + b)
}

/// The PageRank mass `pr` holds on dangling (out-degree 0) vertices.
fn dangling_mass(g: &Csr, pr: &[f64]) -> f64 {
    let block = |ids: std::ops::Range<u32>| {
        ids.filter(|&v| g.out_degree(v) == 0).map(|v| pr[v as usize]).sum::<f64>()
    };
    par::map_reduce(id_blocks(g.num_vertices()), 0.0, block, |a, b| a + b)
}

/// `‖a − b‖₁`, the power iterations' convergence test.
fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    let grain = grain_size(a.len());
    let block =
        |(x, y): (&[f64], &[f64])| x.iter().zip(y).map(|(p, q)| (p - q).abs()).sum::<f64>();
    par::map_reduce(a.chunks(grain).zip(b.chunks(grain)), 0.0, block, |s, t| s + t)
}
