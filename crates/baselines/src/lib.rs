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
