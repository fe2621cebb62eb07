//! A Ligra-role engine (Shun & Blelloch, PPoPP 2013): `edgeMap` /
//! `vertexMap` over vertex subsets with automatic sparse (push) / dense
//! (pull) representation switching.
//!
//! The paper compares against Ligra as the strongest shared-memory CPU
//! framework; per §6 its SSSP is Bellman-Ford (which explains the SSSP
//! performance inversion the paper discusses), so this engine implements
//! Bellman-Ford too.

use crate::{concat, dangling_mass, l1_distance, out_degrees};
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32, Access, AtomicF64, Shared};
use gunrock_engine::bitmap::AtomicBitmap;
use gunrock_engine::config::{grain_size, id_blocks};
use gunrock_engine::par;
use gunrock_graph::{Csr, VertexId, INFINITY, INVALID_VERTEX};
use std::sync::atomic::{AtomicU32, Ordering};

/// A subset of vertices: sparse id list or dense membership flags.
#[derive(Clone, Debug)]
pub enum VertexSubset {
    /// Explicit member id list (small subsets).
    Sparse(Vec<u32>),
    /// Per-vertex membership flags (large subsets).
    Dense(Vec<bool>),
}

impl VertexSubset {
    /// Subset containing a single vertex.
    pub fn single(v: VertexId) -> Self {
        VertexSubset::Sparse(vec![v])
    }

    /// Subset of all `n` vertices.
    pub fn full(n: usize) -> Self {
        VertexSubset::Dense(vec![true; n])
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        match self {
            VertexSubset::Sparse(v) => v.len(),
            VertexSubset::Dense(d) => d.iter().filter(|&&b| b).count(),
        }
    }

    /// True when no vertices are members.
    pub fn is_empty(&self) -> bool {
        match self {
            VertexSubset::Sparse(v) => v.is_empty(),
            VertexSubset::Dense(d) => !d.iter().any(|&b| b),
        }
    }

    /// Member ids as a vector (materializes dense subsets).
    pub fn to_vec(&self) -> Vec<u32> {
        match self {
            VertexSubset::Sparse(v) => v.clone(),
            VertexSubset::Dense(d) => {
                d.iter().enumerate().filter_map(|(i, &b)| b.then_some(i as u32)).collect()
            }
        }
    }
}

/// Ligra's representation-switch threshold: go dense when the frontier
/// plus its out-edges exceed `m / 20`.
fn should_densify(g: &Csr, frontier_len: usize, frontier_edges: u64) -> bool {
    frontier_len as u64 + frontier_edges > (g.num_edges() as u64) / 20
}

/// edgeMap: applies `update(u, v, w)` over edges leaving the subset
/// (`w` is the edge weight, resolved against whichever graph the active
/// mode iterates — forward in sparse/push, reverse in dense/pull; the
/// transpose carries weights, so both see the weight of edge `(u, v)`).
/// Vertices for which an update returns true enter the output subset.
/// `cond(v)` gates targets (dense mode stops scanning a target once its
/// cond fails).
pub fn edge_map<U, C>(
    g: &Csr,
    rev: &Csr,
    frontier: &VertexSubset,
    update: U,
    cond: C,
) -> VertexSubset
where
    U: Fn(VertexId, VertexId, u32) -> bool + Send + Sync,
    C: Fn(VertexId) -> bool + Send + Sync,
{
    let n = g.num_vertices();
    let sparse_ids;
    let (frontier_len, frontier_edges, ids): (usize, u64, &[u32]) = match frontier {
        VertexSubset::Sparse(v) => (v.len(), out_degrees(g, v), v.as_slice()),
        VertexSubset::Dense(_) => {
            sparse_ids = frontier.to_vec();
            (sparse_ids.len(), out_degrees(g, &sparse_ids), sparse_ids.as_slice())
        }
    };
    if should_densify(g, frontier_len, frontier_edges) {
        // Dense (pull): for every target passing cond, scan in-neighbors.
        let member = AtomicBitmap::new(n);
        par::for_each(ids.chunks(grain_size(ids.len())), |c| {
            c.iter().for_each(|&u| member.set(u as usize))
        });
        let pull = |v: u32| {
            if !cond(v) {
                return false;
            }
            let mut hit = false;
            for e in rev.edge_range(v) {
                let u = rev.col_indices()[e];
                if member.get(u as usize) && update(u, v, rev.weight(e as u32)) {
                    hit = true;
                    if !cond(v) {
                        break;
                    }
                }
            }
            hit
        };
        VertexSubset::Dense(concat(id_blocks(n), |ids| ids.map(pull).collect()))
    } else {
        // Sparse (push): expand out-edges, flag output vertices once.
        let claimed = AtomicBitmap::new(n);
        let grain = 256.max(ids.len() / (par::threads() * 8).max(1));
        let push = |chunk: &[u32]| {
            let mut local = Vec::new();
            for &u in chunk {
                for e in g.edge_range(u) {
                    let v = g.col_indices()[e];
                    if cond(v)
                        && update(u, v, g.weight(e as u32))
                        && !claimed.test_and_set(v as usize)
                    {
                        local.push(v);
                    }
                }
            }
            local
        };
        VertexSubset::Sparse(concat(ids.chunks(grain), push))
    }
}

/// BFS on the Ligra engine: parent-setting with CAS, as in the Ligra
/// paper. Returns `(depths, parents)`.
pub fn bfs(g: &Csr, rev: &Csr, src: VertexId) -> (Vec<u32>, Vec<VertexId>) {
    let n = g.num_vertices();
    let parents = atomic_u32_vec(n, INVALID_VERTEX);
    // ORDERING: Relaxed — per-cell CAS/fetch_min updates in edgeMap race
    // benignly; Ligra's frontier barrier publishes them.
    parents[src as usize].store(src, Ordering::Relaxed);
    let mut depth = vec![INFINITY; n];
    depth[src as usize] = 0;
    let mut frontier = VertexSubset::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        let next = edge_map(
            g,
            rev,
            &frontier,
            |u, v, _| {
                parents[v as usize]
                    .compare_exchange(INVALID_VERTEX, u, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            },
            |v| parents[v as usize].load(Ordering::Relaxed) == INVALID_VERTEX,
        );
        level += 1;
        for v in next.to_vec() {
            depth[v as usize] = level;
        }
        frontier = next;
    }
    let mut parents = unwrap_atomic_u32(&parents);
    parents[src as usize] = INVALID_VERTEX;
    (depth, parents)
}

/// Bellman-Ford SSSP on the Ligra engine (the algorithm Ligra itself
/// ships, per the paper's §6 discussion).
pub fn sssp_bellman_ford(g: &Csr, rev: &Csr, src: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let dist = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — per-cell CAS/fetch_min updates in edgeMap race
    // benignly; Ligra's frontier barrier publishes them.
    dist[src as usize].store(0, Ordering::Relaxed);
    let visited = atomic_u32_vec(n, 0); // per-round re-add guard
    let mut frontier = VertexSubset::single(src);
    let mut round = 0u32;
    while !frontier.is_empty() && (round as usize) <= n {
        round += 1;
        let next = edge_map(
            g,
            rev,
            &frontier,
            |u, v, w| {
                let du = dist[u as usize].load(Ordering::Relaxed);
                if du == INFINITY {
                    return false;
                }
                let nd = du.saturating_add(w);
                if Shared.fetch_min_u32(&dist[v as usize], nd) {
                    // enter output once per round
                    dist_round_claim(&visited[v as usize], round)
                } else {
                    false
                }
            },
            |_| true,
        );
        frontier = next;
    }
    unwrap_atomic_u32(&dist)
}

fn dist_round_claim(cell: &AtomicU32, round: u32) -> bool {
    // ORDERING: Relaxed — per-cell CAS/fetch_min updates in edgeMap race
    // benignly; Ligra's frontier barrier publishes them.
    cell.swap(round, Ordering::Relaxed) != round
}

/// Label-propagation connected components on the Ligra engine.
/// Canonicalized to minimum-vertex-id labels.
pub fn connected_components(g: &Csr, rev: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    let labels = atomic_u32_vec(n, 0);
    for (v, l) in labels.iter().enumerate() {
        // ORDERING: Relaxed — per-cell CAS/fetch_min updates in edgeMap race
        // benignly; Ligra's frontier barrier publishes them.
        l.store(v as u32, Ordering::Relaxed);
    }
    let round = atomic_u32_vec(n, 0);
    let mut frontier = VertexSubset::full(n);
    let mut r = 0u32;
    while !frontier.is_empty() {
        r += 1;
        let next = edge_map(
            g,
            rev,
            &frontier,
            |u, v, _| {
                let lu = labels[u as usize].load(Ordering::Relaxed);
                if Shared.fetch_min_u32(&labels[v as usize], lu) {
                    dist_round_claim(&round[v as usize], r)
                } else {
                    false
                }
            },
            |_| true,
        );
        frontier = next;
    }
    unwrap_atomic_u32(&labels)
}

/// PageRank on the Ligra engine: synchronous dense iterations, `iters`
/// rounds or until L1 convergence under `tol`.
pub fn pagerank(g: &Csr, rev: &Csr, d: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut pr = vec![1.0 / n as f64; n];
    for _ in 0..max_iters {
        let dangling = dangling_mass(g, &pr);
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let next: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(base)).collect();
        let frontier = VertexSubset::full(n);
        let pr_ref = &pr;
        let next_ref = &next;
        edge_map(
            g,
            rev,
            &frontier,
            |u, v, _| {
                let deg = g.out_degree(u) as f64;
                let _ = next_ref[v as usize].fetch_add(d * pr_ref[u as usize] / deg);
                false // no output frontier needed
            },
            |_| true,
        );
        let next: Vec<f64> = next.iter().map(|a| a.load()).collect();
        let l1 = l1_distance(&pr, &next);
        pr = next;
        if l1 < tol {
            break;
        }
    }
    pr
}

/// Single-source Brandes dependency scores on the Ligra engine (forward
/// BFS levels + backward accumulation with edgeMaps).
pub fn bc(g: &Csr, rev: &Csr, src: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let depth = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — per-cell CAS/fetch_min updates in edgeMap race
    // benignly; Ligra's frontier barrier publishes them.
    depth[src as usize].store(0, Ordering::Relaxed);
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    sigma[src as usize].store(1.0);
    let mut levels: Vec<Vec<u32>> = vec![vec![src]];
    let mut frontier = VertexSubset::single(src);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let claimed = AtomicBitmap::new(n);
        let lv = level;
        let next = edge_map(
            g,
            rev,
            &frontier,
            |u, v, _| {
                let dv = depth[v as usize].load(Ordering::Relaxed);
                if dv == INFINITY {
                    let _ = depth[v as usize].compare_exchange(
                        INFINITY,
                        lv,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                if depth[v as usize].load(Ordering::Relaxed) == lv {
                    let _ = sigma[v as usize].fetch_add(sigma[u as usize].load());
                    !claimed.test_and_set(v as usize)
                } else {
                    false
                }
            },
            |v| depth[v as usize].load(Ordering::Relaxed) >= lv,
        );
        let ids = next.to_vec();
        if ids.is_empty() {
            break;
        }
        levels.push(ids);
        frontier = next;
    }
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    for lvl in (0..levels.len().saturating_sub(1)).rev() {
        let fr = VertexSubset::Sparse(levels[lvl].clone());
        let lv = lvl as u32;
        edge_map(
            g,
            rev,
            &fr,
            |u, v, _| {
                if depth[v as usize].load(Ordering::Relaxed) == lv + 1 {
                    let su = sigma[u as usize].load();
                    let sv = sigma[v as usize].load();
                    let _ =
                        delta[u as usize].fetch_add(su / sv * (1.0 + delta[v as usize].load()));
                }
                false
            },
            |_| true,
        );
    }
    let mut out: Vec<f64> = delta.iter().map(|a| a.load()).collect();
    out[src as usize] = 0.0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use gunrock_graph::generators::{erdos_renyi, rmat};
    use gunrock_graph::{Coo, GraphBuilder};

    fn random_graph(seed: u64) -> Csr {
        GraphBuilder::new().random_weights(1, 64, seed).build(erdos_renyi(300, 900, seed))
    }

    #[test]
    fn subset_representations() {
        let s = VertexSubset::Sparse(vec![1, 3]);
        let d = VertexSubset::Dense(vec![false, true, false, true]);
        assert_eq!(s.len(), d.len());
        assert_eq!(s.to_vec(), d.to_vec());
        assert!(!s.is_empty());
        assert!(VertexSubset::Sparse(vec![]).is_empty());
    }

    #[test]
    fn bfs_matches_serial_on_random_graphs() {
        for seed in 0..3 {
            let g = random_graph(seed);
            let (depth, parents) = bfs(&g, &g, 0);
            assert_eq!(depth, serial::bfs(&g, 0), "seed {seed}");
            // parents consistent with depths
            for v in 0..g.num_vertices() {
                if depth[v] != INFINITY && depth[v] != 0 {
                    assert_eq!(depth[parents[v] as usize] + 1, depth[v]);
                }
            }
        }
    }

    #[test]
    fn bfs_dense_mode_engages_on_scale_free() {
        // rmat with a huge frontier forces the dense path
        let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 3));
        let (depth, _) = bfs(&g, &g, 0);
        assert_eq!(depth, serial::bfs(&g, 0));
    }

    #[test]
    fn sssp_matches_dijkstra() {
        for seed in 0..3 {
            let g = random_graph(seed + 10);
            assert_eq!(sssp_bellman_ford(&g, &g, 0), serial::dijkstra(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn cc_matches_union_find() {
        let g = GraphBuilder::new().build(erdos_renyi(200, 220, 5));
        assert_eq!(connected_components(&g, &g), serial::connected_components(&g));
    }

    #[test]
    fn pagerank_matches_power_iteration() {
        let g = random_graph(77);
        let got = pagerank(&g, &g, 0.85, 1e-10, 100);
        let want = serial::pagerank(&g, 0.85, 1e-10, 100);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn bc_matches_brandes() {
        let g = GraphBuilder::new().build(Coo::from_edges(
            7,
            &[(0, 1), (1, 2), (2, 3), (1, 4), (4, 3), (3, 5), (5, 6)],
        ));
        let got = bc(&g, &g, 0);
        let want = serial::brandes_single_source(&g, 0);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn bc_matches_brandes_on_random() {
        let g = GraphBuilder::new().build(erdos_renyi(120, 300, 9));
        let got = bc(&g, &g, 3);
        let want = serial::brandes_single_source(&g, 3);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
