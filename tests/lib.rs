//! Shared fixtures for the cross-crate integration tests.

use gunrock::prelude::{Context, GunrockError, RunOutcome};
use gunrock_graph::generators::{erdos_renyi, grid2d, hub_chain, rmat, watts_strogatz};
use gunrock_graph::{Coo, Csr, GraphBuilder};

/// A run's `result`, or, when its `outcome` is `Failed`, the structured
/// error that poisoned `ctx` (taken with [`Context::take_failure`]).
pub fn failure_or<T>(
    ctx: &Context<'_>,
    outcome: RunOutcome,
    result: T,
) -> Result<T, GunrockError> {
    match outcome {
        RunOutcome::Failed => {
            Err(ctx.take_failure().expect("a failed run records its failure"))
        }
        _ => Ok(result),
    }
}

/// A varied suite of small graphs covering every topology class the
/// paper evaluates plus degenerate shapes.
pub fn graph_suite() -> Vec<(String, Csr)> {
    let weighted =
        |coo: Coo, seed: u64| GraphBuilder::new().random_weights(1, 64, seed).build(coo);
    vec![
        ("erdos".into(), weighted(erdos_renyi(300, 900, 1), 1)),
        ("kron".into(), weighted(rmat(8, 8, Default::default(), 2), 2)),
        ("grid".into(), weighted(grid2d(16, 16, 0.1, 0.05, 3), 3)),
        ("hubchain".into(), weighted(hub_chain(400, 0.1, 60, 4), 4)),
        ("smallworld".into(), weighted(watts_strogatz(200, 3, 0.2, 5), 5)),
        ("disconnected".into(), weighted(erdos_renyi(300, 120, 6), 6)),
        ("single_edge".into(), weighted(Coo::from_edges(2, &[(0, 1)]), 7)),
        ("star".into(), {
            let edges: Vec<(u32, u32)> = (1..80).map(|v| (0, v)).collect();
            weighted(Coo::from_edges(80, &edges), 8)
        }),
    ]
}
