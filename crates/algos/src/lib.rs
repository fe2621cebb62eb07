//! # gunrock-algos
//!
//! The graph primitives of the Gunrock paper (§5), written against the
//! [`gunrock`] operator set exactly as the paper describes — each
//! primitive is a short enactor loop over advance/filter/compute steps
//! with fused functors (Figure 5's flow charts are these loops), its
//! iteration boundary — guards, snapshots, counting — shared through
//! [`gunrock::enact::Enactment`]:
//!
//! * [`bfs`] — direction-optimized (claiming push advance that culls on
//!   the visited bitmap, bitmap pull when a reverse graph is attached)
//!   and atomic variants (§5.1);
//! * [`sssp`] — relax-and-claim advance + two-level priority queue /
//!   delta stepping (§5.2, Algorithm 1);
//! * [`bc`] — Brandes betweenness, forward sigma + backward dependency
//!   advances (§5.3);
//! * [`cc`] — sampled hooking on a lock-free parent forest, a split
//!   that skips the giant component, and one advance over the residual
//!   frontier (§5.4; the paper's all-edges hook/jump is a baseline);
//! * [`pagerank`] — full-frontier residual hand-over (dense atomic-free
//!   gather while most edges are live, atomic push once the frontier is
//!   sparse) and a convergence filter (§5.5, §7);
//! * [`bipartite`] — HITS / SALSA / personalized PageRank and the
//!   who-to-follow pipeline (§5.5, "WTF, GPU!");
//! * [`extras`] — maximal independent set and greedy coloring, from the
//!   paper's in-development list;
//! * [`triangles`] / [`kcore`] — edge-frontier triangle counting and
//!   filter-loop k-core peeling, common Gunrock-family additions;
//! * [`registry`] — one table entry per primitive name (arity, run,
//!   resume, footprint estimate) that every front end reads.
//!
//! ```
//! use gunrock::prelude::*;
//! use gunrock_algos::bfs::{bfs, BfsOptions};
//! use gunrock_graph::{generators, GraphBuilder};
//!
//! let g = GraphBuilder::new().build(generators::rmat(8, 8, Default::default(), 1));
//! let ctx = Context::new(&g);
//! let result = bfs(&ctx, 0, BfsOptions::default());
//! assert_eq!(result.labels[0], 0);
//! ```

#![warn(missing_docs)]

mod admission;
pub mod bc;
pub mod bfs;
pub mod bipartite;
pub mod cc;
pub mod extras;
pub mod kcore;
pub mod label_prop;
pub mod msbfs;
pub mod msppr;
pub mod mst;
pub mod pagerank;
pub mod recover;
pub mod registry;
pub mod sssp;
pub mod triangles;

pub use bc::{bc, bc_resume, BcOptions, BcResult};
pub use bfs::{bfs, bfs_resume, BfsOptions, BfsResult, BfsVariant};
pub use cc::{cc, cc_resume, CcResult};
pub use kcore::{k_core, KcoreResult};
pub use msbfs::{msbfs, msbfs_resume, try_msbfs, MsbfsResult};
pub use msppr::{msppr, msppr_resume, try_msppr, MspprOptions, MspprResult};
pub use mst::{mst, MstResult};
pub use pagerank::{pagerank, pagerank_resume, PrOptions, PrResult};
pub use recover::{try_bc, try_bfs, try_cc, try_pagerank, try_sssp};
pub use sssp::{sssp, sssp_resume, SsspOptions, SsspResult};
pub use triangles::{triangle_count, TriangleResult};
