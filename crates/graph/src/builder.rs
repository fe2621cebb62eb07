//! Dataset preparation pipeline: edge list -> cleaned CSR.
//!
//! Mirrors the paper's preprocessing (§6): all datasets are converted to
//! undirected graphs, and SSSP weights are random integers in `1..=64`.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::types::{VertexId, Weight};

/// Options controlling how an edge list is turned into a [`Csr`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    undirected: bool,
    random_weights: Option<(Weight, Weight, u64)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder { undirected: true, random_weights: None }
    }
}

impl GraphBuilder {
    /// A builder with the paper's defaults: undirected, deduplicated,
    /// self-loop-free, unweighted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep the graph directed (skip symmetrization).
    pub fn directed(mut self) -> Self {
        self.undirected = false;
        self
    }

    /// Assign uniform random weights in `lo..=hi` with the given seed
    /// (paper: `1..=64`).
    pub fn random_weights(mut self, lo: Weight, hi: Weight, seed: u64) -> Self {
        self.random_weights = Some((lo, hi, seed));
        self
    }

    /// Runs the pipeline. The input COO is consumed.
    ///
    /// Panics if the graph has `u32::MAX` or more vertices: the operators
    /// reserve `u32::MAX` as a sentinel (INVALID_SLOT / EMPTY_SLOT), so
    /// every legal id must be strictly smaller. Checked here, before any
    /// per-vertex allocation.
    pub fn build(&self, mut coo: Coo) -> Csr {
        assert!(
            coo.num_vertices < VertexId::MAX as usize,
            "vertex count exceeds VertexId range (u32::MAX is reserved as a sentinel)"
        );
        coo.remove_self_loops();
        if self.undirected {
            coo.symmetrize();
        }
        coo.sort_and_dedup();
        if let Some((lo, hi, seed)) = self.random_weights {
            if self.undirected {
                // undirected edges carry one weight shared by both
                // directions, so the graph equals its own transpose
                coo.randomize_weights_symmetric(lo, hi, seed);
            } else {
                coo.randomize_weights(lo, hi, seed);
            }
        }
        Csr::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_produces_clean_undirected_graph() {
        let coo = Coo::from_edges(4, &[(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)]);
        let g = GraphBuilder::new().build(coo);
        assert!(g.is_symmetric());
        // self loop gone; duplicates gone; (0,1) both ways + (1,2) both ways
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn directed_builder_keeps_direction() {
        let coo = Coo::from_edges(3, &[(0, 1), (1, 2)]);
        let g = GraphBuilder::new().directed().build(coo);
        assert!(!g.is_symmetric());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn weights_assigned_after_symmetrization() {
        let coo = Coo::from_edges(3, &[(0, 1), (1, 2)]);
        let g = GraphBuilder::new().random_weights(1, 64, 7).build(coo);
        let vals = g.edge_values().unwrap();
        assert_eq!(vals.len(), g.num_edges());
        assert!(vals.iter().all(|&w| (1..=64).contains(&w)));
    }

    #[test]
    fn keep_duplicates_preserves_parallel_edges() {
        // the builder always deduplicates; a CSR built straight from the
        // edge list keeps parallel edges
        let coo = Coo::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(Csr::from_coo(&coo).num_edges(), 2);
        assert_eq!(GraphBuilder::new().directed().build(coo).num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved as a sentinel")]
    fn vertex_count_at_sentinel_is_rejected() {
        // u32::MAX vertices would make the top id collide with the
        // operators' INVALID_SLOT/EMPTY_SLOT sentinel; Coo::new allocates
        // nothing, so the guard must trip before any allocation
        let coo = Coo::new(u32::MAX as usize);
        let _ = GraphBuilder::new().build(coo);
    }

    #[test]
    fn vertex_count_below_sentinel_passes_the_guard() {
        let g = GraphBuilder::new().build(Coo::from_edges(3, &[(0, 1)]));
        assert_eq!(g.num_vertices(), 3);
    }
}
