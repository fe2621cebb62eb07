//! Framework-free, per-primitive tuned implementations — the role of the
//! hardwired GPU kernels in Table 2: b40c (BFS), deltaStep (SSSP),
//! gpu_BC (BC), and conn (CC).
//!
//! These share no operator machinery: each primitive is a hand-fused
//! parallel loop nest over raw arrays, the upper bound that Gunrock's
//! programmable operators are measured against.

use crate::{concat, dangling_mass, l1_distance, out_degrees};
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32, Access, AtomicF64, Shared};
use gunrock_engine::bitmap::AtomicBitmap;
use gunrock_engine::config::{grain_size, id_blocks};
use gunrock_engine::par;
use gunrock_graph::{Csr, VertexId, INFINITY};
use std::sync::atomic::{AtomicBool, Ordering};

/// Direction-optimized BFS (the b40c/Beamer recipe, hand-fused): push
/// while the frontier is small, switch to a bitmap pull sweep when the
/// frontier's edges dominate, switch back for the tail. Returns depths.
pub fn bfs(g: &Csr, rev: &Csr, src: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let depth = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — same benign-race discipline as the modeled hardwired
    // kernels: idempotent or monotonic per-cell updates, published by the level barrier.
    depth[src as usize].store(0, Ordering::Relaxed);
    let visited = AtomicBitmap::new(n);
    visited.set(src as usize);
    let mut frontier: Vec<u32> = vec![src];
    let mut level = 0u32;
    let mut unvisited_edges: u64 = g.num_edges() as u64 - g.out_degree(src) as u64;
    while !frontier.is_empty() {
        level += 1;
        let frontier_edges = out_degrees(g, &frontier);
        let next: Vec<u32> = if frontier_edges * 15 > unvisited_edges {
            // pull sweep over unvisited vertices
            let in_frontier = AtomicBitmap::new(n);
            let grain = grain_size(frontier.len());
            par::for_each(frontier.chunks(grain), |c| {
                c.iter().for_each(|&u| in_frontier.set(u as usize))
            });
            let pull = |v: u32| {
                if visited.get(v as usize) {
                    return None;
                }
                for e in rev.edge_range(v) {
                    let u = rev.col_indices()[e];
                    if in_frontier.get(u as usize) {
                        depth[v as usize].store(level, Ordering::Relaxed);
                        visited.set(v as usize);
                        return Some(v);
                    }
                }
                None
            };
            concat(id_blocks(n), |ids| ids.filter_map(pull).collect())
        } else {
            // push with test-and-set discovery
            let push = |&u: &u32| {
                let mut local = Vec::new();
                for e in g.edge_range(u) {
                    let v = g.col_indices()[e];
                    if !visited.test_and_set(v as usize) {
                        depth[v as usize].store(level, Ordering::Relaxed);
                        local.push(v);
                    }
                }
                local
            };
            concat(frontier.chunks(grain_size(frontier.len())), |c| {
                c.iter().flat_map(push).collect()
            })
        };
        unvisited_edges = unvisited_edges.saturating_sub(out_degrees(g, &next));
        frontier = next;
    }
    unwrap_atomic_u32(&depth)
}

/// Delta-stepping SSSP (the Davidson et al. deltaStep recipe): explicit
/// distance buckets of width `delta`, light relaxations settle a bucket
/// before moving on. Returns distances.
pub fn sssp_delta_stepping(g: &Csr, src: VertexId, delta: u32) -> Vec<u32> {
    assert!(delta > 0);
    let n = g.num_vertices();
    let dist = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — same benign-race discipline as the modeled hardwired
    // kernels: idempotent or monotonic per-cell updates, published by the level barrier.
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut buckets: Vec<Vec<u32>> = vec![vec![src]];
    let mut bi = 0usize;
    while bi < buckets.len() {
        // settle bucket bi to a fixpoint
        loop {
            let current = std::mem::take(&mut buckets[bi]);
            if current.is_empty() {
                break;
            }
            let lo = (bi as u64 * delta as u64) as u32;
            let hi = ((bi as u64 + 1) * delta as u64).min(u32::MAX as u64) as u32;
            // relax out-edges of bucket members whose dist is in range
            let relax = |&u: &u32| {
                let mut local = Vec::new();
                let du = dist[u as usize].load(Ordering::Relaxed);
                if du < lo || du >= hi {
                    return local; // stale entry
                }
                for e in g.edge_range(u) {
                    let v = g.col_indices()[e];
                    let nd = du.saturating_add(g.weight(e as u32));
                    if Shared.fetch_min_u32(&dist[v as usize], nd) {
                        local.push((v, nd));
                    }
                }
                local
            };
            let grain = grain_size(current.len());
            let updates = concat(current.chunks(grain), |c| c.iter().flat_map(relax).collect());
            for (v, nd) in updates {
                let b = (nd / delta) as usize;
                if buckets.len() <= b {
                    buckets.resize(b + 1, Vec::new());
                }
                buckets[b].push(v);
            }
        }
        bi += 1;
    }
    unwrap_atomic_u32(&dist)
}

/// Edge-parallel single-source Brandes pass (the gpu_BC recipe):
/// level-synchronized forward sigma accumulation, backward dependency
/// accumulation. Returns dependency scores.
pub fn bc(g: &Csr, src: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let depth = atomic_u32_vec(n, INFINITY);
    // ORDERING: Relaxed — same benign-race discipline as the modeled hardwired
    // kernels: idempotent or monotonic per-cell updates, published by the level barrier.
    depth[src as usize].store(0, Ordering::Relaxed);
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    sigma[src as usize].store(1.0);
    let mut levels: Vec<Vec<u32>> = vec![vec![src]];
    let mut level = 0u32;
    loop {
        level += 1;
        // LINT-ALLOW(panic): `levels` starts with the source level and only
        // ever grows, so `last()` cannot fail.
        let frontier = levels.last().unwrap();
        let claimed = AtomicBitmap::new(n);
        let expand = |&u: &u32| {
            let mut local = Vec::new();
            for &v in g.neighbors(u) {
                if depth[v as usize].load(Ordering::Relaxed) == INFINITY {
                    let _ = depth[v as usize].compare_exchange(
                        INFINITY,
                        level,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                if depth[v as usize].load(Ordering::Relaxed) == level {
                    let _ = sigma[v as usize].fetch_add(sigma[u as usize].load());
                    if !claimed.test_and_set(v as usize) {
                        local.push(v);
                    }
                }
            }
            local
        };
        let grain = grain_size(frontier.len());
        let next = concat(frontier.chunks(grain), |c| c.iter().flat_map(expand).collect());
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    for lvl in (0..levels.len() - 1).rev() {
        let lv = lvl as u32;
        let grain = grain_size(levels[lvl].len());
        par::for_each(levels[lvl].chunks(grain), |c| {
            for &u in c {
                let mut acc = 0.0;
                for &v in g.neighbors(u) {
                    if depth[v as usize].load(Ordering::Relaxed) == lv + 1 {
                        acc += sigma[u as usize].load() / sigma[v as usize].load()
                            * (1.0 + delta[v as usize].load());
                    }
                }
                if acc != 0.0 {
                    let _ = delta[u as usize].fetch_add(acc);
                }
            }
        });
    }
    let mut out: Vec<f64> = delta.iter().map(|a| a.load()).collect();
    out[src as usize] = 0.0;
    out
}

/// Soman et al.'s connected components (the conn recipe): alternating
/// hooking over all edges plus full pointer jumping, directly on a label
/// array. Returns canonical (min-id) labels.
pub fn cc_soman(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    let label = atomic_u32_vec(n, 0);
    for (v, l) in label.iter().enumerate() {
        // ORDERING: Relaxed — same benign-race discipline as the modeled hardwired
        // kernels: idempotent or monotonic per-cell updates, published by the level barrier.
        l.store(v as u32, Ordering::Relaxed);
    }
    let mut iter = 0u32;
    loop {
        iter += 1;
        let hooked = AtomicBool::new(false);
        // hooking: treat labels as a pointer forest; for each edge with
        // differently-labeled endpoints, hook the larger label's cell
        // under the smaller label (Soman alternates hook direction per
        // iteration to break chains; with the min-label discipline the
        // monotone direction converges and keeps labels canonical)
        let _ = iter;
        par::for_each(id_blocks(n), |ids| {
            for u in ids {
                for &v in g.neighbors(u) {
                    let lu = label[u as usize].load(Ordering::Relaxed);
                    let lv = label[v as usize].load(Ordering::Relaxed);
                    if lu == lv {
                        continue;
                    }
                    let (hi, lo) = if lu > lv { (lu, lv) } else { (lv, lu) };
                    if label[hi as usize].fetch_min(lo, Ordering::Relaxed) > lo {
                        hooked.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        // pointer jumping: flatten label trees to stars
        loop {
            let jumped = AtomicBool::new(false);
            par::for_each(id_blocks(n), |ids| {
                for v in ids {
                    let l = label[v as usize].load(Ordering::Relaxed);
                    let ll = label[l as usize].load(Ordering::Relaxed);
                    if ll < l {
                        label[v as usize].fetch_min(ll, Ordering::Relaxed);
                        jumped.store(true, Ordering::Relaxed);
                    }
                }
            });
            if !jumped.load(Ordering::Relaxed) {
                break;
            }
        }
        if !hooked.load(Ordering::Relaxed) {
            break;
        }
    }
    unwrap_atomic_u32(&label)
}

/// Parallel synchronous power-iteration PageRank (dense, hand-fused).
pub fn pagerank(g: &Csr, rev: &Csr, damping: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut pr = vec![1.0 / n as f64; n];
    for _ in 0..max_iters {
        let dangling = dangling_mass(g, &pr);
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let pr_ref = &pr;
        // pull form: no atomics needed — each vertex sums its in-edges
        let pull = |v: u32| {
            let mut acc = 0.0;
            for e in rev.edge_range(v) {
                let u = rev.col_indices()[e];
                acc += pr_ref[u as usize] / g.out_degree(u) as f64;
            }
            base + damping * acc
        };
        let next = concat(id_blocks(n), |ids| ids.map(pull).collect());
        let l1 = l1_distance(&pr, &next);
        pr = next;
        if l1 < tol {
            break;
        }
    }
    pr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use gunrock_graph::generators::{erdos_renyi, grid2d, rmat};
    use gunrock_graph::GraphBuilder;

    fn suite() -> Vec<Csr> {
        vec![
            GraphBuilder::new().random_weights(1, 64, 1).build(erdos_renyi(300, 900, 1)),
            GraphBuilder::new().random_weights(1, 64, 2).build(rmat(
                8,
                8,
                Default::default(),
                2,
            )),
            GraphBuilder::new().random_weights(1, 64, 3).build(grid2d(18, 18, 0.1, 0.05, 3)),
        ]
    }

    #[test]
    fn bfs_matches_serial_incl_direction_switches() {
        for (i, g) in suite().iter().enumerate() {
            assert_eq!(bfs(g, g, 0), serial::bfs(g, 0), "graph {i}");
        }
    }

    #[test]
    fn delta_stepping_matches_dijkstra_across_deltas() {
        for g in suite() {
            let want = serial::dijkstra(&g, 0);
            for delta in [1u32, 8, 32, 1024] {
                assert_eq!(sssp_delta_stepping(&g, 0, delta), want, "delta {delta}");
            }
        }
    }

    #[test]
    fn bc_matches_brandes() {
        for g in suite() {
            let got = bc(&g, 0);
            let want = serial::brandes_single_source(&g, 0);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cc_matches_union_find() {
        for g in suite() {
            assert_eq!(cc_soman(&g), serial::connected_components(&g));
        }
        // plus a disconnected graph
        let g = GraphBuilder::new().build(erdos_renyi(400, 380, 9));
        assert_eq!(cc_soman(&g), serial::connected_components(&g));
    }

    #[test]
    fn pagerank_matches_power_iteration() {
        let g = &suite()[0];
        let got = pagerank(g, g, 0.85, 1e-12, 100);
        let want = serial::pagerank(g, 0.85, 1e-12, 100);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
