//! # gunrock
//!
//! A Rust reproduction of **Gunrock: A High-Performance Graph Processing
//! Library on the GPU** (Wang et al., PPoPP 2015) — the data-centric,
//! frontier-focused bulk-synchronous programming model, with the paper's
//! GPU kernels realized over a multicore data-parallel engine
//! ([`gunrock_engine`]; see DESIGN.md for the substitution rationale).
//!
//! ## The abstraction
//!
//! Graph primitives are iterative convergent processes over a
//! **frontier** — the subset of vertices or edges currently of interest —
//! assembled from three bulk-synchronous steps:
//!
//! * [`advance`](crate::advance) — visit frontier neighbors, producing a
//!   new frontier (push or pull, under several load-balance strategies);
//! * [`filter`](crate::filter) — select a frontier subset (exact
//!   scan-compact or heuristic culling);
//! * [`compute`](crate::compute) — regular per-element work, normally
//!   *fused* into advance/filter via the [`functor`] API.
//!
//! Plus the [`priority_queue`] near-far split generalizing delta-stepping,
//! and [`enact::Enactment`], the iteration boundary (guards, snapshots,
//! iteration counting) every primitive's enact loop shares.
//!
//! ## Example: two BFS levels by hand
//!
//! ```
//! use gunrock::prelude::*;
//! use gunrock_graph::{Coo, GraphBuilder};
//!
//! let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
//! let ctx = Context::new(&g);
//! let level1 = advance::advance(&ctx, &Frontier::single(0), AdvanceSpec::v2v(), &AcceptAll);
//! assert_eq!(level1.as_slice(), &[1]);
//! let level2 = advance::advance(&ctx, &level1, AdvanceSpec::v2v(), &AcceptAll);
//! let mut v = level2.into_vec();
//! v.sort_unstable();
//! assert_eq!(v, vec![0, 2]); // undirected: includes the parent
//! ```

#![warn(missing_docs)]

pub mod advance;
pub mod compute;
pub mod context;
pub mod enact;
pub mod error;
pub mod filter;
pub mod functor;
pub(crate) mod isolate;
pub mod policy;
pub mod priority_queue;
pub(crate) mod util;

/// Commonly used items for writing primitives.
pub mod prelude {
    pub use crate::advance::{
        self,
        gather::{advance_gather, GatherSpec},
        msbfs::{advance_msbfs, MsbfsSweep},
        policy::{DirectionPolicy, GatherSwitch, TraversalDirection},
        pull::{advance_pull_sweep, frontier_bitmap},
        AdvanceMode, AdvanceSpec, InputKind, OutputKind,
    };
    pub use crate::compute;
    pub use crate::context::{Context, ContextGuard};
    pub use crate::enact::{no_snapshot, Enacted, Enactment};
    pub use crate::error::GunrockError;
    pub use crate::filter::{
        self,
        culling::{filter_with_culling_bitmap, CullingConfig},
    };
    pub use crate::functor::{AcceptAll, AdvanceFunctor, EdgeCond, FilterFunctor, VertexCond};
    pub use crate::policy::{CheckpointPolicy, RetryPolicy, RunGuard, RunPolicy};
    pub use crate::priority_queue::NearFarQueue;
    pub use gunrock_engine::bitmap::{AtomicBitmap, BitSet, PooledBitmap};
    pub use gunrock_engine::checkpoint::{Checkpoint, CheckpointError};
    pub use gunrock_engine::faults::{FaultInjector, FaultKind, FaultPlan};
    pub use gunrock_engine::frontier::Frontier;
    pub use gunrock_engine::lanes::{lane_mask, LaneMap, LANES};
    pub use gunrock_engine::stats::{
        OperatorKind, RecoveryEvent, RecoveryKind, RunOutcome, RunStats, RunStatsSummary,
        StatsSink, StepDirection, StepRecord, Timing, WorkCounters,
    };
    pub use gunrock_engine::EngineConfig;
}

pub use context::{Context, ContextGuard};
pub use enact::Enactment;
pub use error::GunrockError;
pub use functor::{AdvanceFunctor, FilterFunctor};
pub use gunrock_engine::checkpoint::{Checkpoint, CheckpointError};
pub use gunrock_engine::faults::{FaultInjector, FaultKind, FaultPlan};
pub use gunrock_engine::stats::RunOutcome;
pub use policy::{CheckpointPolicy, RetryPolicy, RunGuard, RunPolicy};
