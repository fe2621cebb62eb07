//! # gunrock-algos
//!
//! The graph primitives of the Gunrock paper (§5), written against the
//! [`gunrock`] operator set exactly as the paper describes — each
//! primitive is one iteration body over advance/filter/compute steps
//! with fused functors (Figure 5's flow charts are these bodies), and one
//! enact loop in [`primitive`] runs them all, its iteration boundary —
//! guards, snapshots, counting — shared through
//! [`gunrock::enact::Enactment`]:
//!
//! * [`bfs`] — direction-optimized: a claiming push advance that culls
//!   on the visited bitmap, and a bitmap pull when a reverse graph is
//!   attached (§5.1);
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
//! * [`bipartite`] — HITS and SALSA, each half-round one gather, and the
//!   who-to-follow pipeline over an [`msppr`](msppr::msppr) circle of
//!   trust (§5.5, "WTF, GPU!");
//! * [`triangles`] / [`kcore`] — edge-frontier triangle counting and
//!   filter-loop k-core peeling, common Gunrock-family additions;
//! * [`registry`] — one table entry per primitive name (arity, run,
//!   resume, footprint estimate) that every front end reads.
//!
//! Each primitive is one [`Primitive`] declaration — its state's `init`,
//! `save` and `load`, a pooled `setup`, one `step` and a `finish` — and
//! the framework derives the rest from it (DESIGN §6.3): [`run`],
//! [`resume`], budget admission and the registry entry.
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
pub mod kcore;
pub mod label_prop;
pub mod msbfs;
pub mod msppr;
pub mod mst;
pub mod pagerank;
pub mod primitive;
pub mod registry;
pub mod sssp;
pub mod triangles;

pub use bc::{bc, Bc, BcOptions, BcResult};
pub use bfs::{bfs, Bfs, BfsOptions, BfsResult};
pub use cc::{cc, Cc, CcResult};
pub use kcore::{k_core, Kcore, KcoreResult};
pub use label_prop::LabelProp;
pub use msbfs::{msbfs, Msbfs, MsbfsResult};
pub use msppr::{msppr, Msppr, MspprOptions, MspprResult};
pub use mst::{mst, Mst, MstResult};
pub use pagerank::{pagerank, PageRank, PrOptions, PrResult};
pub use primitive::{resume, run, Primitive};
pub use sssp::{sssp, Sssp, SsspOptions, SsspResult};
pub use triangles::{triangle_count, TriangleResult, Triangles};
