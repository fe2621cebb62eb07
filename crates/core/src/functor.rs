//! User-defined computation: the `cond`/`apply` functor API of Figure 1.
//!
//! §4.3: hardwired GPU primitives win by *fusing* computation into the
//! irregular advance/filter kernels instead of launching separate passes.
//! Gunrock exposes computation as functors that the operators call inline
//! — the same fusion, expressed as static dispatch: the functor methods
//! are monomorphized into each operator's loops, so a Gunrock "kernel"
//! compiles to one fused loop exactly like the CUDA template instantiation
//! in the original.
//!
//! Functors receive shared references and use interior mutability
//! (atomics) for updates, mirroring device functors operating on global
//! memory. All methods take `&self`; implementations must be thread-safe.
//!
//! **Who writes** is the operator's to say: an advance functor routes
//! each contended update through the [`Access`] token its per-edge
//! methods take. The single-threaded push path passes `Sole` (Relaxed
//! loads and stores), every wide strategy and the pull sweep `Shared`
//! (RMWs). The contract: a functor's state belongs to its advance while
//! the advance runs, and no other thread writes it until it returns.

use gunrock_engine::atomics::Access;
use gunrock_graph::{EdgeId, VertexId};

/// Per-edge functor for [advance](crate::advance): called once per
/// traversed edge `(src, dst, eid)`.
///
/// Semantics follow the paper's API: `cond_edge` decides whether the edge
/// is valid (for SSSP this is where the `atomicMin` relaxation happens);
/// if valid, `apply_edge` runs the per-edge computation (e.g. set the
/// predecessor) and the destination (or the edge) joins the output
/// frontier.
pub trait AdvanceFunctor: Sync {
    /// Returns true if this edge's traversal succeeds (destination should
    /// enter the output frontier). Contended updates go through `access`.
    fn cond_edge<A: Access>(&self, access: A, src: VertexId, dst: VertexId, e: EdgeId) -> bool;

    /// Computation applied to edges that passed `cond_edge`.
    #[inline]
    fn apply_edge<A: Access>(&self, access: A, src: VertexId, dst: VertexId, e: EdgeId) {
        let _ = (access, src, dst, e);
    }
}

/// Per-element functor for [filter](crate::filter): called once per
/// frontier element.
pub trait FilterFunctor: Sync {
    /// Returns true if the element survives the filter.
    fn cond(&self, id: u32) -> bool;

    /// Computation applied to surviving elements.
    #[inline]
    fn apply(&self, id: u32) {
        let _ = id;
    }
}

/// Blanket adapter: use a plain closure as an advance functor when no
/// `apply` step is needed.
pub struct EdgeCond<F>(pub F);

impl<F> AdvanceFunctor for EdgeCond<F>
where
    F: Fn(VertexId, VertexId, EdgeId) -> bool + Sync,
{
    #[inline]
    fn cond_edge<A: Access>(&self, _: A, src: VertexId, dst: VertexId, eid: EdgeId) -> bool {
        (self.0)(src, dst, eid)
    }
}

/// Blanket adapter: use a plain closure as a filter functor.
pub struct VertexCond<F>(pub F);

impl<F> FilterFunctor for VertexCond<F>
where
    F: Fn(u32) -> bool + Sync,
{
    #[inline]
    fn cond(&self, id: u32) -> bool {
        (self.0)(id)
    }
}

/// An advance functor that accepts every edge — used by the *unfused*
/// execution path (ablation A3 in DESIGN.md) and by plain neighborhood
/// expansion.
pub struct AcceptAll;

impl AdvanceFunctor for AcceptAll {
    #[inline]
    fn cond_edge<A: Access>(&self, _: A, _: VertexId, _: VertexId, _: EdgeId) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::atomics::{Shared, Sole};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn closure_adapters() {
        let f = EdgeCond(|s: VertexId, d: VertexId, _e: EdgeId| s < d);
        assert!(f.cond_edge(Shared, 1, 2, 0));
        assert!(!f.cond_edge(Sole, 2, 1, 0));
        let g = VertexCond(|v: u32| v.is_multiple_of(2));
        assert!(g.cond(4));
        assert!(!g.cond(5));
    }

    #[test]
    fn apply_default_is_noop_and_overridable() {
        struct Counting(AtomicU32);
        impl AdvanceFunctor for Counting {
            fn cond_edge<A: Access>(&self, _: A, _: VertexId, _: VertexId, _: EdgeId) -> bool {
                true
            }
            fn apply_edge<A: Access>(&self, _: A, _: VertexId, _: VertexId, _: EdgeId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let c = Counting(AtomicU32::new(0));
        assert!(c.cond_edge(Shared, 0, 1, 0));
        c.apply_edge(Shared, 0, 1, 0);
        assert_eq!(c.0.load(Ordering::Relaxed), 1);
        // default apply compiles and does nothing
        AcceptAll.apply_edge(Sole, 0, 1, 0);
    }
}
