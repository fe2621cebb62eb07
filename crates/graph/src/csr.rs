//! Compressed-sparse-row graph storage.
//!
//! CSR is Gunrock's default representation (§3 of the paper): a
//! `row_offsets` array `R` of length `n + 1` and a `col_indices` array `C`
//! of length `m`, with optional structure-of-arrays edge weights. The
//! offsets let scan-based operators turn sparse, uneven workloads into
//! dense uniform ones.

use crate::coo::Coo;
use crate::error::{GraphError, GraphResult};
use crate::types::{EdgeId, VertexId, Weight};

/// An immutable CSR graph.
#[derive(Clone, Debug)]
pub struct Csr {
    row_offsets: Box<[EdgeId]>,
    col_indices: Box<[VertexId]>,
    edge_values: Option<Box<[Weight]>>,
}

impl Csr {
    /// Builds a CSR from an edge list using a counting sort over sources
    /// (linear time, stable within a neighbor list).
    pub fn from_coo(coo: &Coo) -> Self {
        let n = coo.num_vertices;
        let m = coo.num_edges();
        // Strict inequalities: u32::MAX itself is reserved as a sentinel
        // (INVALID_SLOT / EMPTY_SLOT in the operators), so the maximum
        // legal id is u32::MAX - 1. Checked before allocating offsets.
        assert!(n < VertexId::MAX as usize, "vertex count exceeds VertexId range");
        assert!(m < EdgeId::MAX as usize, "edge count exceeds EdgeId range");
        let mut offsets = vec![0 as EdgeId; n + 1];
        for &s in &coo.src {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<EdgeId> = offsets[..n].to_vec();
        let mut cols = vec![0 as VertexId; m];
        let mut vals = coo.weights.as_ref().map(|_| vec![0 as Weight; m]);
        for i in 0..m {
            let s = coo.src[i] as usize;
            let pos = cursor[s] as usize;
            cursor[s] += 1;
            cols[pos] = coo.dst[i];
            if let (Some(v), Some(w)) = (&mut vals, &coo.weights) {
                v[pos] = w[i];
            }
        }
        Csr {
            row_offsets: offsets.into_boxed_slice(),
            col_indices: cols.into_boxed_slice(),
            edge_values: vals.map(Vec::into_boxed_slice),
        }
    }

    /// Builds a CSR directly from raw arrays. `row_offsets` must be
    /// monotone with `row_offsets[0] == 0` and final entry equal to
    /// `col_indices.len()`.
    pub fn from_raw(
        row_offsets: Vec<EdgeId>,
        col_indices: Vec<VertexId>,
        edge_values: Option<Vec<Weight>>,
    ) -> Self {
        assert!(!row_offsets.is_empty());
        assert!(
            row_offsets.len() - 1 < VertexId::MAX as usize,
            "vertex count exceeds VertexId range"
        );
        assert!(col_indices.len() < EdgeId::MAX as usize, "edge count exceeds EdgeId range");
        assert_eq!(row_offsets[0], 0);
        assert_eq!(row_offsets.last().copied().unwrap_or(0) as usize, col_indices.len());
        debug_assert!(row_offsets.windows(2).all(|w| w[0] <= w[1]));
        if let Some(v) = &edge_values {
            assert_eq!(v.len(), col_indices.len());
        }
        Csr {
            row_offsets: row_offsets.into_boxed_slice(),
            col_indices: col_indices.into_boxed_slice(),
            edge_values: edge_values.map(Vec::into_boxed_slice),
        }
    }

    /// Builds a CSR from raw arrays loaded from an *untrusted* source,
    /// validating every invariant instead of asserting. See
    /// [`Csr::validate`] for the checks performed.
    pub fn try_from_raw(
        row_offsets: Vec<EdgeId>,
        col_indices: Vec<VertexId>,
        edge_values: Option<Vec<Weight>>,
    ) -> GraphResult<Self> {
        let csr = Csr {
            row_offsets: row_offsets.into_boxed_slice(),
            col_indices: col_indices.into_boxed_slice(),
            edge_values: edge_values.map(Vec::into_boxed_slice),
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Checks every structural invariant, returning the first violation:
    /// a non-empty offsets array starting at 0, monotone non-decreasing
    /// offsets ending at `col_indices.len()`, every column index in
    /// `[0, num_vertices)`, and a weight array (when present) exactly as
    /// long as the column array. Run this on anything loaded from an
    /// untrusted source before handing it to the operators, which index
    /// with these arrays unchecked on hot paths.
    pub fn validate(&self) -> GraphResult<()> {
        if self.row_offsets.is_empty() {
            return Err(GraphError::invalid("row_offsets is empty"));
        }
        if self.row_offsets[0] != 0 {
            return Err(GraphError::invalid(format!(
                "row_offsets[0] = {}, expected 0",
                self.row_offsets[0]
            )));
        }
        let n = self.row_offsets.len() - 1;
        // `>=`, not `>`: u32::MAX is reserved as an operator sentinel
        // (INVALID_SLOT / EMPTY_SLOT), so ids must stay strictly below it.
        if n >= VertexId::MAX as usize {
            return Err(GraphError::invalid(format!("{n} vertices exceed the VertexId range")));
        }
        if self.col_indices.len() >= EdgeId::MAX as usize {
            return Err(GraphError::invalid(format!(
                "{} edges exceed the EdgeId range",
                self.col_indices.len()
            )));
        }
        if let Some(w) = self.row_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::invalid(format!(
                "row_offsets not monotone at vertex {w}: {} > {}",
                self.row_offsets[w],
                self.row_offsets[w + 1]
            )));
        }
        let m = self.col_indices.len();
        let end = self.row_offsets.last().copied().unwrap_or(0);
        if end as usize != m {
            return Err(GraphError::invalid(format!(
                "row_offsets end at {end} but there are {m} edges"
            )));
        }
        if let Some(e) = self.col_indices.iter().position(|&c| c as usize >= n) {
            return Err(GraphError::invalid(format!(
                "edge {e} points at vertex {} of {n}",
                self.col_indices[e]
            )));
        }
        if let Some(vals) = &self.edge_values {
            if vals.len() != m {
                return Err(GraphError::invalid(format!(
                    "{} edge weights for {m} edges",
                    vals.len()
                )));
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of (directed) edges. An undirected graph stores each edge in
    /// both directions, so this counts 2x the undirected edge count.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// The row-offsets array `R` (length `num_vertices() + 1`).
    #[inline]
    pub fn row_offsets(&self) -> &[EdgeId] {
        &self.row_offsets
    }

    /// The column-indices array `C` (length `num_edges()`).
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col_indices
    }

    /// Per-edge weights, if the graph is weighted.
    #[inline]
    pub fn edge_values(&self) -> Option<&[Weight]> {
        self.edge_values.as_deref()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]
    }

    /// Range of edge ids owned by `v`.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.row_offsets[v as usize] as usize..self.row_offsets[v as usize + 1] as usize
    }

    /// Neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.col_indices[self.edge_range(v)]
    }

    /// Destination of edge `e`.
    #[inline]
    pub fn edge_dest(&self, e: EdgeId) -> VertexId {
        self.col_indices[e as usize]
    }

    /// Weight of edge `e`; 1 for unweighted graphs (BFS-as-SSSP semantics).
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        match &self.edge_values {
            Some(v) => v[e as usize],
            None => 1,
        }
    }

    /// Finds the source vertex owning edge id `e` by binary search over the
    /// row offsets (the paper's "sorted search" used by the load-balanced
    /// advance).
    pub fn edge_source(&self, e: EdgeId) -> VertexId {
        debug_assert!((e as usize) < self.num_edges());
        // partition_point returns the first vertex whose offset exceeds e;
        // its predecessor owns the edge.
        let idx = self.row_offsets.partition_point(|&off| off <= e);
        (idx - 1) as VertexId
    }

    /// Builds the transpose (CSC view as a CSR of the reversed graph).
    /// Weights follow their edges.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let m = self.num_edges();
        let mut offsets = vec![0 as EdgeId; n + 1];
        for &d in self.col_indices.iter() {
            offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<EdgeId> = offsets[..n].to_vec();
        let mut cols = vec![0 as VertexId; m];
        let mut vals = self.edge_values.as_ref().map(|_| vec![0 as Weight; m]);
        for s in 0..n as VertexId {
            for e in self.edge_range(s) {
                let d = self.col_indices[e] as usize;
                let pos = cursor[d] as usize;
                cursor[d] += 1;
                cols[pos] = s;
                if let (Some(v), Some(w)) = (&mut vals, &self.edge_values) {
                    v[pos] = w[e];
                }
            }
        }
        Csr {
            row_offsets: offsets.into_boxed_slice(),
            col_indices: cols.into_boxed_slice(),
            edge_values: vals.map(Vec::into_boxed_slice),
        }
    }

    /// True if the graph equals its [`transpose`](Csr::transpose) — the
    /// same neighbor lists in the same order, with the same weights — so
    /// it can serve as its own reverse graph. One pass over the edges and
    /// no `m`-sized allocation: the transpose lists each vertex's sources
    /// in ascending order, so edge `(u, v)` must be the next unmatched
    /// entry of `v`'s list.
    pub fn equals_transpose(&self) -> bool {
        let mut cursor: Vec<EdgeId> = self.row_offsets[..self.num_vertices()].to_vec();
        for u in 0..self.num_vertices() as VertexId {
            for e in self.edge_range(u) {
                let v = self.col_indices[e] as usize;
                let c = cursor[v] as usize;
                let weight = |i: usize| self.edge_values.as_ref().map(|w| w[i]);
                if c >= self.row_offsets[v + 1] as usize
                    || self.col_indices[c] != u
                    || weight(c) != weight(e)
                {
                    return false;
                }
                cursor[v] += 1;
            }
        }
        // every edge advanced one cursor without passing its row's end,
        // and the rows hold m entries in all: every row is matched
        true
    }

    /// True if for every edge `(u, v)` the edge `(v, u)` also exists
    /// (ignoring weights). Quadratic in max degree; intended for tests and
    /// dataset validation.
    pub fn is_symmetric(&self) -> bool {
        for u in 0..self.num_vertices() as VertexId {
            for &v in self.neighbors(u) {
                if !self.neighbors(v).contains(&u) {
                    return false;
                }
            }
        }
        true
    }

    /// Converts back to an edge list.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.num_vertices());
        coo.src.reserve(self.num_edges());
        coo.dst.reserve(self.num_edges());
        if self.edge_values.is_some() {
            coo.weights = Some(Vec::with_capacity(self.num_edges()));
        }
        for s in 0..self.num_vertices() as VertexId {
            for e in self.edge_range(s) {
                coo.src.push(s);
                coo.dst.push(self.col_indices[e]);
                if let (Some(w), Some(v)) = (&mut coo.weights, &self.edge_values) {
                    w.push(v[e]);
                }
            }
        }
        coo
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices() as VertexId).map(|v| self.out_degree(v)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> 1, 2; 1 -> 2; 2 -> 0; 3 isolated
        Csr::from_coo(&Coo::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 0)]))
    }

    #[test]
    fn basic_shape() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn edge_source_binary_search() {
        let g = sample();
        assert_eq!(g.edge_source(0), 0);
        assert_eq!(g.edge_source(1), 0);
        assert_eq!(g.edge_source(2), 1);
        assert_eq!(g.edge_source(3), 2);
    }

    #[test]
    fn edge_source_skips_isolated_vertices() {
        let g = Csr::from_coo(&Coo::from_edges(5, &[(0, 1), (4, 0)]));
        assert_eq!(g.edge_source(0), 0);
        assert_eq!(g.edge_source(1), 4);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = sample();
        let t = g.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(3), &[] as &[VertexId]);
        // double transpose round-trips
        let tt = t.transpose();
        assert_eq!(tt.row_offsets(), g.row_offsets());
        assert_eq!(tt.col_indices(), g.col_indices());
    }

    #[test]
    fn equals_transpose_needs_the_same_lists_and_weights() {
        let undirected = |w: &[(u32, u32, u32)]| {
            let mut coo = Coo::from_weighted_edges(4, w);
            coo.symmetrize();
            coo.sort_and_dedup();
            Csr::from_coo(&coo)
        };
        let g = undirected(&[(0, 1, 5), (1, 2, 6), (0, 3, 7)]);
        assert!(g.equals_transpose());
        assert!(!sample().equals_transpose(), "directed");
        // the same structure with one direction's weight changed
        let coo = Coo::from_weighted_edges(2, &[(0, 1, 5), (1, 0, 6)]);
        assert!(!Csr::from_coo(&coo).equals_transpose());
        // symmetric, but a list out of ascending order
        let coo = Coo::from_edges(3, &[(0, 2), (0, 1), (1, 0), (2, 0)]);
        assert!(!Csr::from_coo(&coo).equals_transpose());
        let t = Csr::from_coo(&Coo::from_edges(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]));
        assert!(t.equals_transpose());
    }

    #[test]
    fn transpose_carries_weights() {
        let coo = Coo::from_weighted_edges(3, &[(0, 1, 10), (1, 2, 20)]);
        let g = Csr::from_coo(&coo);
        let t = g.transpose();
        assert_eq!(t.weight(0), 10); // edge 1 -> 0 in transpose
        assert_eq!(t.weight(1), 20);
    }

    #[test]
    fn symmetric_detection() {
        let mut coo = Coo::from_edges(3, &[(0, 1), (1, 2)]);
        let g = Csr::from_coo(&coo);
        assert!(!g.is_symmetric());
        coo.symmetrize();
        assert!(Csr::from_coo(&coo).is_symmetric());
    }

    #[test]
    fn unweighted_weight_defaults_to_one() {
        let g = sample();
        assert_eq!(g.weight(0), 1);
    }

    #[test]
    fn coo_round_trip() {
        let g = sample();
        let back = Csr::from_coo(&g.to_coo());
        assert_eq!(back.row_offsets(), g.row_offsets());
        assert_eq!(back.col_indices(), g.col_indices());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_coo(&Coo::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_mismatched_lengths() {
        Csr::from_raw(vec![0, 2], vec![1], None);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(sample().validate().is_ok());
        assert!(Csr::from_coo(&Coo::new(0)).validate().is_ok());
    }

    #[test]
    fn try_from_raw_rejects_each_invariant_violation() {
        // non-monotone offsets
        let e = Csr::try_from_raw(vec![0, 2, 1, 3], vec![0, 1, 2], None).unwrap_err();
        assert!(e.to_string().contains("monotone"), "{e}");
        // offsets end short of the edge array
        let e = Csr::try_from_raw(vec![0, 1], vec![0, 0], None).unwrap_err();
        assert!(e.to_string().contains("edges"), "{e}");
        // column index out of range
        let e = Csr::try_from_raw(vec![0, 1], vec![7], None).unwrap_err();
        assert!(e.to_string().contains("points at vertex 7"), "{e}");
        // weight array length mismatch
        let e = Csr::try_from_raw(vec![0, 1], vec![0], Some(vec![1, 2])).unwrap_err();
        assert!(e.to_string().contains("weights"), "{e}");
        // nonzero first offset
        let e = Csr::try_from_raw(vec![1, 1], vec![0], None).unwrap_err();
        assert!(e.to_string().contains("expected 0"), "{e}");
        // empty offsets
        assert!(Csr::try_from_raw(vec![], vec![], None).is_err());
    }
}
