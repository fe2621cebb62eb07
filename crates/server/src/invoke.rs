//! One invocation path: `gunrock`, every served request and every
//! coalesced batch fill an [`Invocation`] and call [`invoke`], which
//! assembles the [`Context`], loads and checks a resume snapshot, runs or
//! resumes the registry entry, maps sources and output back to original
//! ids, and classifies a failure into one [`ErrorCode`]. The front ends
//! only render the result: as text and an exit code, or a response line.

use crate::protocol::ErrorCode;
use gunrock::prelude::*;
use gunrock_algos::registry::{Entry, Query, Run};
use gunrock_engine::pool::BufferPool;
use gunrock_engine::watchdog::Heartbeat;
use gunrock_graph::reorder::Relabeling;
use gunrock_graph::{Csr, VertexId};
use std::path::PathBuf;
use std::sync::Arc;

/// The graph queries run on, with what every run needs beside it.
pub struct Graphs {
    /// The graph runs traverse: the input, or its relabeling.
    pub graph: Arc<Csr>,
    /// Its in-edges (a directed graph's transpose), for pulls and gathers.
    pub reverse: Arc<Csr>,
    /// Set when `graph` is a `--reorder` relabeling of the input.
    pub relab: Option<Arc<Relabeling>>,
}

impl Graphs {
    /// Computes `graph`'s reverse once; an undirected graph is its own.
    pub fn new(graph: Arc<Csr>, relab: Option<Arc<Relabeling>>) -> Graphs {
        let transpose = (!graph.equals_transpose()).then(|| Arc::new(graph.transpose()));
        Graphs { reverse: transpose.unwrap_or_else(|| Arc::clone(&graph)), graph, relab }
    }
}

/// Everything one run takes.
pub struct Invocation {
    /// The registry entry to run.
    pub entry: &'static Entry,
    /// Sources in original ids: none, one, or one per lane. A resumed
    /// run uses the ones its snapshot pinned.
    pub sources: Vec<VertexId>,
    /// Convergence threshold override for the ranking primitives.
    pub epsilon: Option<f64>,
    /// Iteration cap, wall-clock budget and cancel flag.
    pub policy: RunPolicy,
    /// Seeded fault schedule.
    pub faults: Option<Arc<FaultInjector>>,
    /// Where and how often to snapshot.
    pub checkpoints: Option<CheckpointPolicy>,
    /// A `gunrock-ckpt/v1` snapshot to resume instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Watchdog heartbeat, ticked at operator boundaries.
    pub heartbeat: Option<Arc<Heartbeat>>,
    /// The buffer pool, carrying the memory budget if there is one. A
    /// pool no one else holds also carries `faults`' `pool:alloc` site.
    pub pool: Arc<BufferPool>,
    /// Recoverable advance failures retried before falling back.
    pub retries: u32,
    /// Record the per-operator trace.
    pub stats: bool,
}

/// A run that happened, faulted or not.
pub struct Invoked<'g> {
    /// The run's context: counters, trace, pool, failure and degrades.
    pub ctx: Context<'g>,
    /// The run, with its sources and output in original ids.
    pub run: Run,
    /// The exit snapshot a partial run left behind.
    pub checkpoint: Option<PathBuf>,
}

/// Why an invocation produced no result.
#[derive(Clone, Debug, PartialEq)]
pub struct InvokeError {
    /// The taxonomy code the server answers with.
    pub code: ErrorCode,
    /// What went wrong, for a person.
    pub message: String,
}

impl InvokeError {
    fn resume(message: String) -> InvokeError {
        InvokeError { code: ErrorCode::ResumeFailed, message }
    }
}

impl Invoked<'_> {
    /// The run's failure, classified, when the outcome is `Failed`: a
    /// budget denial is `over-budget` (a resource condition, retryable
    /// once pressure clears), anything else `operator-panic`.
    pub fn failure(&self) -> Option<InvokeError> {
        if self.run.outcome != RunOutcome::Failed {
            return None;
        }
        let cause = self.ctx.take_failure();
        let code = match cause {
            Some(GunrockError::BudgetExceeded { .. }) => ErrorCode::OverBudget,
            _ => ErrorCode::OperatorPanic,
        };
        let cause =
            cause.map_or("operator fault (no recorded cause)".into(), |e| e.to_string());
        Some(InvokeError { code, message: format!("run failed: {cause}") })
    }
}

/// Runs (or resumes) `inv` on `graphs`. `Err` is a snapshot that cannot
/// be resumed; a run that faulted comes back `Ok`, with
/// [`Invoked::failure`] saying why.
pub fn invoke(graphs: &Graphs, inv: Invocation) -> Result<Invoked<'_>, InvokeError> {
    let entry = inv.entry;
    let mut ctx = Context::new(&graphs.graph)
        .with_reverse(&graphs.reverse)
        .with_shared_pool(inv.pool)
        .with_policy(inv.policy)
        .with_retry(RetryPolicy::retries(inv.retries));
    if inv.stats {
        ctx = ctx.with_stats();
    }
    if let Some(cp) = inv.checkpoints {
        ctx = ctx.with_checkpoints(cp);
    }
    if let Some(faults) = inv.faults {
        ctx = ctx.with_faults(faults);
    }
    if let Some(hb) = inv.heartbeat {
        ctx = ctx.with_heartbeat(hb);
    }
    let relab = graphs.relab.as_deref();
    let mut run = match &inv.resume {
        Some(path) => {
            let resume = entry.resume.ok_or_else(|| {
                InvokeError::resume(format!("{} runs cannot be resumed", entry.name))
            })?;
            let ckpt = Checkpoint::load(path).map_err(|e| {
                InvokeError::resume(format!("cannot resume from {}: {e}", path.display()))
            })?;
            if ckpt.primitive() != entry.name {
                return Err(InvokeError::resume(format!(
                    "checkpoint {} holds a {} run, not {}",
                    path.display(),
                    ckpt.primitive(),
                    entry.name
                )));
            }
            resume(&ctx, &ckpt)
                .map_err(|e| InvokeError::resume(format!("resume failed: {e}")))?
        }
        None => {
            let sources = inv.sources.iter().map(|&s| relab.map_or(s, |r| r.new_of_old(s)));
            (entry.run)(&ctx, &Query { sources: sources.collect(), epsilon: inv.epsilon })
        }
    };
    if let Some(r) = relab {
        run.sources.iter_mut().for_each(|s| *s = r.old_of_new(*s));
        run.output = run.output.restore(r);
    }
    let checkpoint = ctx
        .checkpoint_policy()
        .map(|cp| cp.path(entry.name))
        .filter(|path| !run.outcome.is_converged() && path.exists());
    Ok(Invoked { ctx, run, checkpoint })
}
