//! Serial reference implementations — the Boost Graph Library role in
//! Table 2, and the correctness oracle every parallel engine is tested
//! against.
//!
//! These are deliberately textbook: queue BFS, binary-heap Dijkstra,
//! Brandes betweenness, union-find connected components, and power
//! iteration PageRank.

use gunrock_graph::{Csr, VertexId, Weight, INFINITY, INVALID_VERTEX};
use std::collections::VecDeque;

/// BFS depths from `src` (`INFINITY` = unreachable).
pub fn bfs(g: &Csr, src: VertexId) -> Vec<u32> {
    bfs_with_parents(g, src).0
}

/// BFS depths and a BFS-tree parent array (`INVALID_VERTEX` for the
/// source and unreachable vertices).
pub fn bfs_with_parents(g: &Csr, src: VertexId) -> (Vec<u32>, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut depth = vec![INFINITY; n];
    let mut parent = vec![INVALID_VERTEX; n];
    let mut q = VecDeque::new();
    depth[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = depth[u as usize];
        for &v in g.neighbors(u) {
            if depth[v as usize] == INFINITY {
                depth[v as usize] = du + 1;
                parent[v as usize] = u;
                q.push_back(v);
            }
        }
    }
    (depth, parent)
}

/// Dijkstra shortest-path distances from `src` over non-negative edge
/// weights (`INFINITY` = unreachable). Unweighted graphs use weight 1
/// per edge.
pub fn dijkstra(g: &Csr, src: VertexId) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0u32, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for e in g.edge_range(u) {
            let v = g.col_indices()[e];
            let w: Weight = g.weight(e as u32);
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Single-source Brandes pass: returns the dependency scores
/// (betweenness contributions) of one source — the quantity the paper's
/// BC primitive computes per enactment. `sigma` path counts use f64.
pub fn brandes_single_source(g: &Csr, src: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0.0f64; n];
    let mut depth = vec![INFINITY; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut q = VecDeque::new();
    sigma[src as usize] = 1.0;
    depth[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        order.push(u);
        let du = depth[u as usize];
        for &v in g.neighbors(u) {
            if depth[v as usize] == INFINITY {
                depth[v as usize] = du + 1;
                q.push_back(v);
            }
            if depth[v as usize] == du + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &u in order.iter().rev() {
        let du = depth[u as usize];
        for &v in g.neighbors(u) {
            if depth[v as usize] == du + 1 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    delta[src as usize] = 0.0;
    delta
}

/// Full betweenness centrality (sum of dependency scores over all
/// sources). Quadratic-ish; for tests and small graphs only.
pub fn betweenness_centrality(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0f64; n];
    for s in 0..n as VertexId {
        for (v, d) in brandes_single_source(g, s).into_iter().enumerate() {
            bc[v] += d;
        }
    }
    bc
}

/// Connected component labels via union-find: every vertex is labeled
/// with the smallest vertex id in its component (canonical labeling).
pub fn connected_components(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for u in 0..n as VertexId {
        for &v in g.neighbors(u) {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                // union by smaller id keeps the canonical label invariant
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Number of distinct components given a label array.
pub fn num_components(labels: &[VertexId]) -> usize {
    let mut roots: Vec<VertexId> =
        labels.iter().enumerate().filter(|&(v, &l)| v as u32 == l).map(|(_, &l)| l).collect();
    roots.dedup();
    roots.len()
}

/// Brute-force triangle count: for every ordered edge `(u, v)`, count
/// common neighbors above `v` (requires sorted adjacency, which the
/// builder guarantees).
pub fn triangle_count(g: &Csr) -> u64 {
    let mut total = 0u64;
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.neighbors(u) {
            if u >= v {
                continue;
            }
            let nu = g.neighbors(u);
            let nv = g.neighbors(v);
            let (mut i, mut j) =
                (nu.partition_point(|&x| x <= v), nv.partition_point(|&x| x <= v));
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        total += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    total
}

/// Synchronous power-iteration PageRank with damping `d`, teleport
/// `(1-d)/n`, dangling mass redistributed uniformly. Runs until the L1
/// change drops below `tol` or `max_iters` elapses. Returns scores that
/// sum to ~1.
pub fn pagerank(g: &Csr, d: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut pr = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..max_iters {
        let dangling: f64 =
            (0..n as VertexId).filter(|&v| g.out_degree(v) == 0).map(|v| pr[v as usize]).sum();
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        next.iter_mut().for_each(|x| *x = base);
        for u in 0..n as VertexId {
            let deg = g.out_degree(u);
            if deg == 0 {
                continue;
            }
            let share = d * pr[u as usize] / deg as f64;
            for &v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        let l1: f64 = pr.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pr, &mut next);
        if l1 < tol {
            break;
        }
    }
    pr
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::{Coo, GraphBuilder};

    fn path5() -> Csr {
        GraphBuilder::new().build(Coo::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]))
    }

    fn weighted_diamond() -> Csr {
        // 0 -1- 1 -1- 3 ; 0 -5- 2 -1- 3 : shortest 0..3 = 2 via 1
        GraphBuilder::new()
            .build(Coo::from_weighted_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 2, 5), (2, 3, 1)]))
    }

    #[test]
    fn bfs_depths_on_path() {
        assert_eq!(bfs(&path5(), 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs(&path5(), 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_parents_form_tree() {
        let (depth, parent) = bfs_with_parents(&path5(), 0);
        assert_eq!(parent[0], INVALID_VERTEX);
        for v in 1..5usize {
            assert_eq!(depth[parent[v] as usize] + 1, depth[v]);
        }
    }

    #[test]
    fn bfs_unreachable_is_infinity() {
        let g = GraphBuilder::new().build(Coo::from_edges(4, &[(0, 1), (2, 3)]));
        let d = bfs(&g, 0);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn dijkstra_picks_light_path() {
        let d = dijkstra(&weighted_diamond(), 0);
        assert_eq!(d, vec![0, 1, 3, 2]); // vertex 2 reached via 3 (2+1=3) not direct 5
    }

    #[test]
    fn brandes_path_center_scores() {
        // on a path 0-1-2-3-4 from source 0: delta[v] counts downstream
        let d = brandes_single_source(&path5(), 0);
        assert_eq!(d, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn full_bc_path_graph() {
        // classic: for path of 5, center vertex has highest BC
        let bc = betweenness_centrality(&path5());
        assert!(bc[2] > bc[1] && bc[1] > bc[0]);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[2], 8.0); // pairs (0,3),(0,4),(1,3),(1,4) x2 directions
    }

    #[test]
    fn cc_labels_components_canonically() {
        let g = GraphBuilder::new().build(Coo::from_edges(6, &[(0, 1), (1, 2), (4, 5)]));
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 4, 4]);
        assert_eq!(num_components(&labels), 3);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub_highest() {
        // star: hub 0 with 4 leaves
        let g =
            GraphBuilder::new().build(Coo::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]));
        let pr = pagerank(&g, 0.85, 1e-12, 200);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(pr[0] > pr[1]);
        assert!((pr[1] - pr[4]).abs() < 1e-12);
    }

    #[test]
    fn pagerank_handles_isolated_vertices() {
        let g = GraphBuilder::new().build(Coo::from_edges(3, &[(0, 1)]));
        let pr = pagerank(&g, 0.85, 1e-12, 200);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[2] < pr[0]);
    }
}
