//! # gunrock-engine
//!
//! The bulk-synchronous data-parallel substrate standing in for the
//! paper's GPU (see DESIGN.md §2 and §5): one chunked parallel loop
//! ([`par`]) plays the SIMT grid, chunklets of [`config::WARP_SIZE`] play warps,
//! chunks of [`config::CTA_SIZE`] play cooperative thread arrays, and the
//! primitives the paper leans on — scan, compact, sorted search /
//! merge-path partitioning, atomic bitmaps — are implemented here for
//! multicore.
//!
//! Every operation is bulk-synchronous: it returns only when all parallel
//! work has completed, exactly like a CUDA kernel boundary.
//!
//! ```
//! use gunrock_engine::scan::scan_exclusive_u32;
//!
//! let degrees = [3u32, 0, 5, 2];
//! let (offsets, total) = scan_exclusive_u32(&degrees);
//! assert_eq!(offsets, vec![0, 3, 3, 8]);
//! assert_eq!(total, 10);
//! ```

#![warn(missing_docs)]

pub mod atomics;
pub mod bitmap;
pub mod breaker;
pub mod budget;
pub mod checkpoint;
pub mod compact;
pub mod config;
pub mod faults;
pub mod fnv;
pub mod frontier;
pub mod json;
pub mod lanes;
pub mod par;
pub mod pool;
pub mod queue;
pub mod racecheck;
pub mod scan;
pub mod search;
pub mod stats;
pub mod unsafe_slice;
pub mod watchdog;

pub use config::EngineConfig;
pub use frontier::Frontier;
