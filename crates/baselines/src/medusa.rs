//! A message-passing BSP engine — the Medusa role (Zhong & He, TPDS
//! 2014) in the evaluation.
//!
//! Faithful to the overhead the paper calls out (§4.5): "the overhead of
//! *any* management of messages is a significant contributor to
//! runtime." Each superstep **materializes a message buffer** (edge
//! processors emit `(dst, payload)` pairs), then a combiner pass folds
//! messages per destination, then a vertex processor pass consumes the
//! combined values — three passes plus buffer traffic, versus Gunrock's
//! fused single pass.

use crate::{concat, dangling_mass, l1_distance};
use gunrock_engine::atomics::{atomic_u32_vec, unwrap_atomic_u32, AtomicF64};
use gunrock_engine::bitmap::AtomicBitmap;
use gunrock_engine::config::{grain_size, id_blocks};
use gunrock_graph::{Csr, VertexId, INFINITY};
use std::sync::atomic::{AtomicU32, Ordering};

/// A message addressed to a vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Message<T> {
    /// Receiving vertex.
    pub dst: VertexId,
    /// Message body (combined per destination before delivery).
    pub payload: T,
}

/// One BSP superstep of the message-passing model:
///
/// 1. **edge processor** — for each out-edge of each active vertex, emit
///    an optional message (materialized into a buffer);
/// 2. **combiner** — fold messages per destination with `combine`;
/// 3. **vertex processor** — each messaged vertex consumes its combined
///    value; returning true re-activates it.
///
/// Returns the next active set (deduplicated).
pub fn superstep<T, E, C, V>(
    g: &Csr,
    active: &[u32],
    edge_proc: E,
    combine: C,
    vertex_proc: V,
) -> Vec<u32>
where
    T: Copy + Send + Sync,
    E: Fn(VertexId, VertexId, u32) -> Option<T> + Send + Sync,
    C: Fn(T, T) -> T + Send + Sync,
    V: Fn(VertexId, T) -> bool + Send + Sync,
{
    // Pass 1: edge processors fill the message buffer.
    let emit = |&u: &u32| {
        let mut local = Vec::new();
        for e in g.edge_range(u) {
            let v = g.col_indices()[e];
            if let Some(payload) = edge_proc(u, v, g.weight(e as u32)) {
                local.push(Message { dst: v, payload });
            }
        }
        local
    };
    let messages =
        concat(active.chunks(grain_size(active.len())), |c| c.iter().flat_map(emit).collect());
    if messages.is_empty() {
        return Vec::new();
    }
    // Pass 2: combiner — radix sort by destination, fold runs (the
    // GPU-native grouping primitive; see gunrock_engine::sort).
    let mut sorted = messages;
    crate::sort::radix_sort_by_key(&mut sorted, |m| m.dst);
    let mut combined: Vec<Message<T>> = Vec::new();
    for m in sorted {
        match combined.last_mut() {
            Some(last) if last.dst == m.dst => last.payload = combine(last.payload, m.payload),
            _ => combined.push(m),
        }
    }
    // Pass 3: vertex processors consume combined messages.
    let n = g.num_vertices();
    let next_bitmap = AtomicBitmap::new(n);
    let consume = |m: &Message<T>| {
        let mut local = Vec::new();
        if vertex_proc(m.dst, m.payload) && !next_bitmap.test_and_set(m.dst as usize) {
            local.push(m.dst);
        }
        local
    };
    concat(combined.chunks(grain_size(combined.len())), |c| {
        c.iter().flat_map(consume).collect()
    })
}

/// BFS depths via the message-passing engine.
pub fn bfs(g: &Csr, src: VertexId) -> Vec<u32> {
    let depth = atomic_u32_vec(g.num_vertices(), INFINITY);
    // ORDERING: Relaxed — message-combine cells take monotonic fetch_min
    // updates; the BSP super-step barrier publishes them.
    depth[src as usize].store(0, Ordering::Relaxed);
    let mut active = vec![src];
    while !active.is_empty() {
        let depth_ref: &[AtomicU32] = &depth;
        active = superstep(
            g,
            &active,
            |u, v, _w| {
                if depth_ref[v as usize].load(Ordering::Relaxed) == INFINITY {
                    Some(depth_ref[u as usize].load(Ordering::Relaxed).saturating_add(1))
                } else {
                    None
                }
            },
            |a: u32, b: u32| a.min(b),
            |v, d| depth_ref[v as usize].fetch_min(d, Ordering::Relaxed) > d,
        );
    }
    unwrap_atomic_u32(&depth)
}

/// SSSP distances via the message-passing engine (label-correcting).
pub fn sssp(g: &Csr, src: VertexId) -> Vec<u32> {
    let dist = atomic_u32_vec(g.num_vertices(), INFINITY);
    // ORDERING: Relaxed — message-combine cells take monotonic fetch_min
    // updates; the BSP super-step barrier publishes them.
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut active = vec![src];
    while !active.is_empty() {
        let dist_ref: &[AtomicU32] = &dist;
        active = superstep(
            g,
            &active,
            |u, _v, w| {
                let du = dist_ref[u as usize].load(Ordering::Relaxed);
                (du != INFINITY).then(|| du.saturating_add(w))
            },
            |a: u32, b: u32| a.min(b),
            |v, d| dist_ref[v as usize].fetch_min(d, Ordering::Relaxed) > d,
        );
    }
    unwrap_atomic_u32(&dist)
}

/// PageRank via the message-passing engine: every superstep messages all
/// neighbors with rank shares; runs `max_iters` full iterations or until
/// L1 convergence.
pub fn pagerank(g: &Csr, damping: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut pr = vec![1.0 / n as f64; n];
    let all: Vec<u32> = (0..n as u32).collect();
    for _ in 0..max_iters {
        let dangling = dangling_mass(g, &pr);
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let acc: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        let pr_ref = &pr;
        let acc_ref = &acc;
        superstep(
            g,
            &all,
            |u, _v, _w| {
                let deg = g.out_degree(u) as f64;
                Some(pr_ref[u as usize] / deg)
            },
            |a: f64, b: f64| a + b,
            |v, sum| {
                acc_ref[v as usize].store(sum);
                false
            },
        );
        let next = concat(id_blocks(n), |ids| {
            ids.map(|v| base + damping * acc[v as usize].load()).collect()
        });
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
    use gunrock_graph::generators::erdos_renyi;
    use gunrock_graph::GraphBuilder;

    fn weighted_random(seed: u64) -> Csr {
        GraphBuilder::new().random_weights(1, 64, seed).build(erdos_renyi(250, 800, seed))
    }

    #[test]
    fn superstep_combines_messages_per_destination() {
        // star: 0 -> {1, 2}; 1 -> 0; 2 -> 0. active {1, 2} both message 0
        let g = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(3, &[(0, 1), (0, 2)]));
        let seen = atomic_u32_vec(3, 0);
        let seen_ref: &[AtomicU32] = &seen;
        let next = superstep(
            &g,
            &[1, 2],
            |_u, _v, _w| Some(1u32),
            |a, b| a + b,
            |v, total| {
                seen_ref[v as usize].store(total, Ordering::Relaxed);
                true
            },
        );
        assert_eq!(next, vec![0]);
        assert_eq!(seen[0].load(Ordering::Relaxed), 2); // combined, not twice
    }

    #[test]
    fn bfs_matches_serial() {
        for seed in [3u64, 4] {
            let g = weighted_random(seed);
            assert_eq!(bfs(&g, 0), serial::bfs(&g, 0));
        }
    }

    #[test]
    fn sssp_matches_dijkstra() {
        for seed in [5u64, 6] {
            let g = weighted_random(seed);
            assert_eq!(sssp(&g, 0), serial::dijkstra(&g, 0));
        }
    }

    #[test]
    fn pagerank_matches_power_iteration() {
        let g = weighted_random(9);
        let got = pagerank(&g, 0.85, 1e-12, 100);
        let want = serial::pagerank(&g, 0.85, 1e-12, 100);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_active_set_is_stable() {
        let g = weighted_random(1);
        let next = superstep(&g, &[], |_, _, _| Some(0u32), |a, _| a, |_, _| true);
        assert!(next.is_empty());
    }
}
