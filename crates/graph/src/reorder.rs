//! Vertex relabeling (preprocessing for bitmap-frontier locality).
//!
//! Direction-optimized traversal sweeps dense bitmap frontiers one u64
//! word at a time (paper §4.1.1's bitmap-of-predecessors, GraphBLAST's
//! masked view). On a scale-free graph the high-degree hubs — the
//! vertices a pull iteration tests most often — are scattered across the
//! id space, so every mask word is lukewarm. Relabeling vertices in
//! degree-descending order clusters the hubs into the first few words:
//! hot words stay resident in cache, and the empty-word skip of the
//! sweep fires on the long cold tail.
//!
//! The permutation is a preprocessing step: run the algorithm on the
//! relabeled graph, then map results back with [`Relabeling::old_of_new`]
//! / the `restore_*` helpers so callers never observe internal ids.

use crate::csr::Csr;
use crate::types::{VertexId, Weight, INVALID_VERTEX};

/// A bijection between original ("old") and relabeled ("new") vertex ids,
/// plus helpers to translate per-vertex results back.
#[derive(Clone, Debug)]
pub struct Relabeling {
    /// `new_of_old[old] = new`: where each original vertex went.
    new_of_old: Vec<VertexId>,
    /// `old_of_new[new] = old`: the inverse permutation.
    old_of_new: Vec<VertexId>,
}

impl Relabeling {
    /// Builds a relabeling from the forward map `new_of_old`, which must
    /// be a permutation of `0..n`.
    pub fn from_forward(new_of_old: Vec<VertexId>) -> Self {
        let n = new_of_old.len();
        let mut old_of_new = vec![INVALID_VERTEX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            assert!(
                (new as usize) < n,
                "relabeling target {new} out of range for {n} vertices"
            );
            assert_eq!(
                old_of_new[new as usize], INVALID_VERTEX,
                "relabeling maps two vertices to {new}"
            );
            old_of_new[new as usize] = old as VertexId;
        }
        Relabeling { new_of_old, old_of_new }
    }

    /// The identity relabeling (useful as a no-op default).
    pub fn identity(n: usize) -> Self {
        // CAST: n is a vertex count, capped below VertexId::MAX by Csr::validate.
        let ids: Vec<VertexId> = (0..n as VertexId).collect();
        Relabeling { new_of_old: ids.clone(), old_of_new: ids }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True for the empty (zero-vertex) relabeling.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of original vertex `old`.
    #[inline]
    pub fn new_of_old(&self, old: VertexId) -> VertexId {
        self.new_of_old[old as usize]
    }

    /// The original id of relabeled vertex `new`.
    #[inline]
    pub fn old_of_new(&self, new: VertexId) -> VertexId {
        self.old_of_new[new as usize]
    }

    /// Rebuilds `graph` under this relabeling: vertex `old` becomes
    /// `new_of_old[old]`, edges (and their weights) follow their
    /// endpoints, and each neighbor list is re-sorted by new id so the
    /// result keeps the builder's sorted-adjacency invariant (triangle
    /// counting and merge-based intersection rely on it).
    pub fn apply(&self, graph: &Csr) -> Csr {
        let n = graph.num_vertices();
        assert_eq!(n, self.len(), "relabeling covers {} vertices, graph has {n}", self.len());
        let m = graph.num_edges();
        let mut offsets = vec![0u32; n + 1];
        for old in 0..n {
            // CAST: old < n < VertexId::MAX by Csr::validate.
            offsets[self.new_of_old[old] as usize + 1] = graph.out_degree(old as VertexId);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cols = vec![0 as VertexId; m];
        let mut vals = graph.edge_values().map(|_| vec![0 as Weight; m]);
        for old in 0..n as VertexId {
            let new = self.new_of_old[old as usize];
            let mut pos = offsets[new as usize] as usize;
            for e in graph.edge_range(old) {
                cols[pos] = self.new_of_old[graph.col_indices()[e] as usize];
                if let (Some(v), Some(w)) = (&mut vals, graph.edge_values()) {
                    v[pos] = w[e];
                }
                pos += 1;
            }
            // restore sorted adjacency under the new ids
            let range = offsets[new as usize] as usize..pos;
            match &mut vals {
                None => cols[range].sort_unstable(),
                Some(v) => {
                    let mut row: Vec<(VertexId, Weight)> = cols[range.clone()]
                        .iter()
                        .copied()
                        .zip(v[range.clone()].iter().copied())
                        .collect();
                    row.sort_unstable_by_key(|&(c, _)| c);
                    for (i, (c, w)) in row.into_iter().enumerate() {
                        cols[range.start + i] = c;
                        v[range.start + i] = w;
                    }
                }
            }
        }
        Csr::from_raw(offsets, cols, vals)
    }

    /// Restores a per-vertex value array computed on the relabeled graph
    /// to original-id order: `result[old] = values[new_of_old[old]]`.
    pub fn restore_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len());
        self.new_of_old.iter().map(|&new| values[new as usize]).collect()
    }

    /// Restores a per-vertex array whose *elements are themselves vertex
    /// ids* (BFS predecessors, CC component labels): reorders to original
    /// positions AND translates each stored id back, preserving sentinel
    /// values (e.g. `INVALID_VERTEX`) that are not legal ids.
    pub fn restore_ids(&self, values: &[VertexId]) -> Vec<VertexId> {
        assert_eq!(values.len(), self.len());
        self.new_of_old
            .iter()
            .map(|&new| {
                let v = values[new as usize];
                if (v as usize) < self.len() {
                    self.old_of_new[v as usize]
                } else {
                    v // sentinel (INVALID_VERTEX / INFINITY-as-id): pass through
                }
            })
            .collect()
    }
}

/// Builds the degree-descending (hub-clustering) relabeling: vertex ids
/// are reassigned so that `out_degree` is non-increasing in the new id
/// order, ties broken by original id for determinism. New id 0 is the
/// biggest hub; isolated vertices sink to the top of the id space.
pub fn degree_descending(graph: &Csr) -> Relabeling {
    let n = graph.num_vertices();
    // CAST: n < VertexId::MAX by Csr::validate.
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
    let mut new_of_old = vec![0 as VertexId; n];
    for (new, &old) in by_degree.iter().enumerate() {
        // CAST: new < n < VertexId::MAX by Csr::validate.
        new_of_old[old as usize] = new as VertexId;
    }
    Relabeling { new_of_old, old_of_new: by_degree }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::generators;

    fn star_plus_path() -> Csr {
        // hub 2 with degree 4; path tail 5-6; isolated 7
        Csr::from_coo(&Coo::from_edges(
            8,
            &[(2, 0), (2, 1), (2, 3), (2, 4), (5, 6), (6, 5), (0, 2)],
        ))
    }

    #[test]
    fn degree_descending_puts_hubs_first() {
        let g = star_plus_path();
        let r = degree_descending(&g);
        assert_eq!(r.new_of_old(2), 0, "the hub takes id 0");
        // degrees are non-increasing in new id order
        let gr = r.apply(&g);
        let degs: Vec<u32> =
            (0..gr.num_vertices() as VertexId).map(|v| gr.out_degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "{degs:?}");
        // same totals
        assert_eq!(gr.num_edges(), g.num_edges());
        assert_eq!(gr.num_vertices(), g.num_vertices());
    }

    #[test]
    fn apply_preserves_adjacency_under_translation() {
        let g = Csr::from_coo(&generators::rmat(7, 8, Default::default(), 11));
        let r = degree_descending(&g);
        let gr = r.apply(&g);
        for old in 0..g.num_vertices() as VertexId {
            let mut want: Vec<VertexId> =
                g.neighbors(old).iter().map(|&u| r.new_of_old(u)).collect();
            let mut got: Vec<VertexId> = gr.neighbors(r.new_of_old(old)).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "vertex {old}");
        }
    }

    #[test]
    fn apply_carries_weights_with_their_edges() {
        let g = Csr::from_coo(&Coo::from_weighted_edges(
            4,
            &[(0, 1, 10), (1, 2, 20), (1, 3, 30), (2, 0, 40)],
        ));
        let r = degree_descending(&g);
        let gr = r.apply(&g);
        // collect (src_old, dst_old, w) triples from the relabeled graph
        let mut got: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        for s in 0..gr.num_vertices() as VertexId {
            for e in gr.edge_range(s) {
                // CAST: e < num_edges < EdgeId::MAX by Csr::validate.
                got.push((
                    r.old_of_new(s),
                    r.old_of_new(gr.col_indices()[e]),
                    gr.weight(e as crate::types::EdgeId),
                ));
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1, 10), (1, 2, 20), (1, 3, 30), (2, 0, 40)]);
    }

    #[test]
    fn restore_round_trips_values_and_ids() {
        let g = star_plus_path();
        let r = degree_descending(&g);
        // a per-vertex value array in new-id order holding each vertex's
        // OLD id: restoring must give the identity
        let tagged: Vec<u32> =
            (0..g.num_vertices() as VertexId).map(|v| r.old_of_new(v)).collect();
        assert_eq!(r.restore_values(&tagged), (0..8).collect::<Vec<u32>>());
        // id-valued arrays translate their contents too
        let preds_new: Vec<VertexId> =
            (0..8).map(|v| if v == 0 { INVALID_VERTEX } else { 0 }).collect();
        let restored = r.restore_ids(&preds_new);
        // new id 0 is the hub (old 2): every other old position points at it
        assert_eq!(restored[2], INVALID_VERTEX);
        assert!(restored.iter().enumerate().all(|(old, &p)| old == 2 || p == 2));
    }

    #[test]
    fn identity_is_a_no_op() {
        let g = star_plus_path();
        let r = Relabeling::identity(g.num_vertices());
        let gr = r.apply(&g);
        assert_eq!(gr.row_offsets(), g.row_offsets());
        assert_eq!(gr.col_indices(), g.col_indices());
        assert_eq!(
            r.restore_values(&[5u32, 6, 7, 8, 9, 10, 11, 12]),
            vec![5, 6, 7, 8, 9, 10, 11, 12]
        );
    }

    #[test]
    #[should_panic(expected = "maps two vertices")]
    fn from_forward_rejects_non_permutations() {
        Relabeling::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn relabeled_graph_validates() {
        let g = Csr::from_coo(&generators::rmat(6, 8, Default::default(), 3));
        let r = degree_descending(&g);
        let gr = r.apply(&g);
        assert!(gr.validate().is_ok());
        // sorted-adjacency invariant survives the permutation
        assert!((0..gr.num_vertices() as VertexId)
            .all(|v| gr.neighbors(v).windows(2).all(|w| w[0] <= w[1])));
    }
}
