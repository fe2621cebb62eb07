//! The serial reference results `--verify` compares against, one per
//! registry entry that has one (`msppr` and `labelprop` have none).
//!
//! The table lives in the CLI, not in `gunrock_algos::registry`, so the
//! library crates do not link the serial baselines: only `--verify`
//! needs them.

use gunrock_algos::kcore::k_core_serial;
use gunrock_algos::mst::mst_weight_kruskal;
use gunrock_algos::registry::{Entry, Output, Query};
use gunrock_baselines::serial;
use gunrock_graph::{Csr, VertexId};

/// A serial reference run of one query.
pub type Oracle = fn(&Csr, &Query) -> Output;

/// Registry entry name → its serial oracle.
const ORACLES: &[(&str, Oracle)] = &[
    ("bfs", |g, q| Output::Depths(serial::bfs(g, source(q)))),
    ("sssp", |g, q| Output::Depths(serial::dijkstra(g, source(q)))),
    ("bc", |g, q| Output::Scores(serial::brandes_single_source(g, source(q)))),
    ("cc", |g, _| Output::Components(serial::connected_components(g))),
    ("pagerank", |g, _| Output::Scores(serial::pagerank(g, 0.85, 1e-12, 2000))),
    ("msbfs", |g, q| {
        Output::Depths(q.sources.iter().flat_map(|&s| serial::bfs(g, s)).collect())
    }),
    ("mst", |g, _| Output::Count(mst_weight_kruskal(g))),
    ("kcore", |g, _| Output::Depths(k_core_serial(g))),
    ("triangles", |g, _| Output::Count(serial::triangle_count(g))),
];

/// The serial oracle of `entry`, if it has one.
pub fn oracle(entry: &Entry) -> Option<Oracle> {
    ORACLES.iter().find(|(name, _)| *name == entry.name).map(|&(_, f)| f)
}

/// A single-source query's source (vertex 0 when it names none), as the
/// registry's runs read it.
fn source(q: &Query) -> VertexId {
    q.sources.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_algos::registry;

    #[test]
    fn every_oracle_belongs_to_a_registry_entry() {
        for (name, _) in ORACLES {
            assert!(registry::find(name).is_some(), "{name} is not a registry entry");
        }
        let missing: Vec<&str> =
            registry::REGISTRY.iter().filter(|e| oracle(e).is_none()).map(|e| e.name).collect();
        assert_eq!(missing, ["msppr", "labelprop"]);
    }
}
