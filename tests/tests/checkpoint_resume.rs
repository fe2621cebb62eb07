//! Kill-and-resume round trips for all five paper primitives.
//!
//! Each test interrupts a run at an iteration boundary (via the
//! iteration-cap guard, standing in for a timeout or kill), which
//! leaves a `gunrock-ckpt/v1` snapshot behind, then resumes from that
//! file in a fresh context and demands results **bit-identical** to an
//! uninterrupted run — including `f64` payloads: PageRank's push sums in
//! fixed point and the gathers fold in a fixed order, so they reproduce
//! exactly at any thread count. What follows the schedule — BFS parents —
//! is compared bit for bit on one thread, and checked against the oracles
//! at full width.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_algos::registry::{self, Arity, Output, Query};
use gunrock_engine::checkpoint::SectionData;
use gunrock_engine::par::with_threads;
use gunrock_graph::generators::{self, rmat};
use gunrock_graph::{Csr, GraphBuilder};

/// Scale-10 Kronecker graph: enough levels that a 2-iteration cap
/// interrupts every primitive mid-flight.
fn kron10() -> Csr {
    GraphBuilder::new().random_weights(1, 64, 42).build(rmat(
        10,
        8,
        generators::RmatParams::graph500(),
        42,
    ))
}

fn ckpt_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gunrock_resume_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// Interrupts `primitive` after `cap` iterations with `every`-periodic
/// checkpointing on, and returns the loaded exit snapshot.
fn interrupt<'g, R>(
    g: &'g Csr,
    dir: &std::path::Path,
    primitive: &str,
    cap: u32,
    run: impl FnOnce(&Context<'g>) -> (R, RunOutcome),
) -> Checkpoint {
    interrupt_on(Context::new(g).with_reverse(g), dir, primitive, cap, run)
}

/// [`interrupt`] on a caller-built context (PageRank's direction depends
/// on whether a reverse graph is attached).
fn interrupt_on<'g, R>(
    base: Context<'g>,
    dir: &std::path::Path,
    primitive: &str,
    cap: u32,
    run: impl FnOnce(&Context<'g>) -> (R, RunOutcome),
) -> Checkpoint {
    let ctx = base
        .with_policy(RunPolicy::unbounded().max_iterations(cap))
        .with_checkpoints(CheckpointPolicy::new(1, dir));
    let (_, outcome) = run(&ctx);
    assert_eq!(outcome, RunOutcome::IterationCapped, "{primitive}");
    let path = CheckpointPolicy::new(1, dir).path(primitive);
    let ckpt = Checkpoint::load(&path).expect("interrupted run leaves a checkpoint");
    assert_eq!(ckpt.primitive(), primitive);
    assert!(ckpt.iteration() > 0);
    ckpt
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn bfs_resume_is_bit_identical() {
    // on one thread: which parent claims a vertex on a push level
    // follows the schedule, and the preds record it (the labels do not:
    // bfs_resumed_at_full_width_reaches_the_oracle)
    with_threads(1, || {
        let g = kron10();
        let dir = ckpt_dir("bfs");
        let opts = algos::BfsOptions::direction_optimized();
        let full = algos::bfs(&Context::new(&g).with_reverse(&g), 0, opts);
        let ckpt = interrupt(&g, &dir, "bfs", 2, |ctx| {
            let r = algos::bfs(ctx, 0, opts);
            (r.labels, r.outcome)
        });
        let ctx = Context::new(&g).with_reverse(&g);
        let r = algos::resume::<algos::Bfs>(&ctx, opts, &ckpt).expect("resume");
        assert_eq!(r.outcome, RunOutcome::Converged);
        assert_eq!(r.labels, full.labels);
        assert_eq!(r.preds, full.preds);
        // total level count is preserved across the interruption
        assert_eq!(r.iterations, full.iterations);
        assert_eq!(r.pull_iterations, full.pull_iterations);
        std::fs::remove_dir_all(&dir).ok();
    })
}

#[test]
fn sssp_resume_is_bit_identical() {
    let g = kron10();
    let dir = ckpt_dir("sssp");
    let opts = algos::SsspOptions::default();
    let full = algos::sssp(&Context::new(&g), 0, opts);
    let ckpt = interrupt(&g, &dir, "sssp", 2, |ctx| {
        let r = algos::sssp(ctx, 0, opts);
        (r.dist, r.outcome)
    });
    let r = algos::resume::<algos::Sssp>(&Context::new(&g), opts, &ckpt).expect("resume");
    assert_eq!(r.outcome, RunOutcome::Converged);
    assert_eq!(r.dist, full.dist);
    assert_eq!(r.iterations, full.iterations);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sssp_priority_queue_resume_is_bit_identical() {
    let g = kron10();
    let dir = ckpt_dir("sssp_pq");
    let opts = algos::SsspOptions::default();
    let full = algos::sssp(&Context::new(&g), 0, opts);
    let ckpt = interrupt(&g, &dir, "sssp", 3, |ctx| {
        let r = algos::sssp(ctx, 0, opts);
        (r.dist, r.outcome)
    });
    // the checkpoint restores the near-far queue (delta, pivot, far
    // pile); options are taken from the snapshot, not the caller
    let r =
        algos::resume::<algos::Sssp>(&Context::new(&g), algos::SsspOptions::default(), &ckpt)
            .expect("resume");
    assert_eq!(r.outcome, RunOutcome::Converged);
    assert_eq!(r.dist, full.dist);
    std::fs::remove_dir_all(&dir).ok();
}

/// The full-width twin of `bfs_resume_is_bit_identical`: a BFS
/// interrupted and resumed at 2 and 4 threads reaches the oracle's
/// labels, and every parent sits one level up along an edge.
#[test]
fn bfs_resumed_at_full_width_reaches_the_oracle() {
    let g = kron10();
    let want = gunrock_baselines::serial::bfs(&g, 0);
    for width in [2, 4] {
        with_threads(width, || {
            let dir = ckpt_dir(&format!("wide_bfs{width}"));
            let opts = algos::BfsOptions::direction_optimized();
            let ckpt = interrupt(&g, &dir, "bfs", 2, |ctx| {
                let r = algos::bfs(ctx, 0, opts);
                (r.labels, r.outcome)
            });
            let ctx = Context::new(&g).with_reverse(&g);
            let r = algos::resume::<algos::Bfs>(&ctx, opts, &ckpt).expect("resume");
            assert_eq!(r.outcome, RunOutcome::Converged, "{width} threads");
            assert_eq!(r.labels, want, "{width} threads");
            for (v, &p) in r.preds.iter().enumerate() {
                if v != 0 && want[v] != u32::MAX {
                    assert_eq!(r.labels[p as usize] + 1, r.labels[v], "vertex {v} parent {p}");
                    assert!(g.neighbors(p).contains(&(v as u32)), "vertex {v} parent {p}");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        });
    }
}

/// `ckpt` as a build before the pooled level stack wrote it: with a `tags`
/// section (the per-level claim filter's marks) between sigma and delta.
fn with_tags(ckpt: &Checkpoint) -> Checkpoint {
    let section = |name| ckpt.u32s(name).expect("u32 section").to_vec();
    let mut old = Checkpoint::new("bc", ckpt.iteration());
    old.push_u32("depth", section("depth"));
    old.push_f64("sigma", ckpt.f64s("sigma").expect("sigma").to_vec());
    old.push_u32("tags", section("depth"));
    old.push_f64("delta", ckpt.f64s("delta").expect("delta").to_vec());
    for name in ["levels_flat", "level_offsets", "scalars"] {
        old.push_u32(name, section(name));
    }
    Checkpoint::decode(&old.encode()).expect("well-formed container")
}

#[test]
fn bc_resume_is_bit_identical() {
    let g = kron10();
    let dir = ckpt_dir("bc");
    let opts = algos::BcOptions::default();
    // without a reverse graph every forward level pushes and adds sigma
    // atomically; with one, levels are sparse pushes or dense gathers
    for reverse in [false, true] {
        let context = || {
            let ctx = Context::new(&g);
            if reverse {
                ctx.with_reverse(&g)
            } else {
                ctx
            }
        };
        let traced = context().with_stats();
        let full = algos::bc(&traced, 0, opts);
        let caps = if reverse {
            // the first iteration running each kind of level
            let steps = traced.run_stats().steps;
            let first = |kind: &dyn Fn(&StepRecord) -> bool| {
                steps.iter().find(|s| kind(s)).expect("kron10 from 0 runs every kind").iteration
            };
            let dense = first(&|s| matches!(s.strategy, "pull_gather" | "pull_gather:serial"));
            let sparse =
                first(&|s| s.direction == Some(StepDirection::Push) && s.iteration > dense);
            let backward = first(&|s| s.strategy.starts_with("out_gather"));
            // a dense forward level, a sparse one after it, the first
            // backward level and the middle of the backward sweep
            vec![dense - 1, sparse - 1, backward - 1, full.iterations - 2]
        } else {
            // cap 2 lands inside the forward sweep; a cap two short of the
            // full iteration count lands in the backward sweep
            assert!(full.iterations > 4, "graph too shallow to interrupt both phases");
            vec![2, full.iterations - 2]
        };
        for cap in caps {
            let ckpt = interrupt_on(context(), &dir, "bc", cap, |ctx| {
                let r = algos::bc(ctx, 0, opts);
                (r.iterations, r.outcome)
            });
            // from the snapshot as written and as an older build wrote it
            for snapshot in [with_tags(&ckpt), ckpt] {
                let r =
                    algos::resume::<algos::Bc>(&context(), opts, &snapshot).expect("resume");
                let at = format!("reverse {reverse}, cap {cap}");
                assert_eq!(r.outcome, RunOutcome::Converged, "{at}");
                assert_eq!(r.iterations, full.iterations, "{at}");
                assert_eq!(bits(&r.bc_values), bits(&full.bc_values), "{at}");
                assert_eq!(bits(&r.sigmas), bits(&full.sigmas), "{at}");
                assert_eq!(r.labels, full.labels, "{at}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cc_resume_is_bit_identical() {
    let g = kron10();
    let dir = ckpt_dir("cc");
    // with the graph as its own reverse the split skips the giant
    // component; without one the finish advances over every edge
    for reverse in [true, false] {
        let context = || {
            let ctx = Context::new(&g);
            if reverse {
                ctx.with_reverse(&g)
            } else {
                ctx
            }
        };
        let full = algos::cc(&context());
        assert_eq!((full.outcome, full.iterations), (RunOutcome::Converged, 4));
        // every pass boundary: after each sampling pass, after the split
        // and after the finish (the guard is consulted there too)
        for cap in 1..=4 {
            let ckpt = interrupt_on(context(), &dir, "cc", cap, |ctx| {
                let r = algos::cc(ctx);
                (r.labels, r.outcome)
            });
            assert_eq!(ckpt.iteration(), cap);
            let r = algos::resume::<algos::Cc>(&context(), (), &ckpt).expect("resume");
            assert_eq!(r.outcome, RunOutcome::Converged, "cap {cap}");
            assert_eq!(r.labels, full.labels, "cap {cap}");
            assert_eq!(r.num_components, full.num_components, "cap {cap}");
            assert_eq!(r.iterations, full.iterations, "cap {cap}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshots `cc_resume` must refuse with a structured checkpoint error
/// rather than a panic or a hang: the pre-union-find layout (edge and
/// vertex frontiers, a lone phase scalar), and labels that are not a
/// parent forest — a cycle would never reach a root.
#[test]
fn cc_resume_rejects_foreign_snapshots() {
    let g = kron10();
    let n = g.num_vertices() as u32;
    let identity: Vec<u32> = (0..n).collect();
    let mut old = Checkpoint::new("cc", 2);
    old.push_u32("labels", identity.clone());
    old.push_u32("edge_frontier", vec![0, 1, 2]);
    old.push_u32("vertex_frontier", vec![]);
    old.push_u32("scalars", vec![1]);
    let mut cycle = Checkpoint::new("cc", 1);
    let mut labels = identity;
    labels.swap(1, 2);
    cycle.push_u32("labels", labels);
    cycle.push_u32("frontier", vec![]);
    cycle.push_u32("scalars", vec![1, u32::MAX]);
    for (what, ckpt) in [("pre-PR20 layout", old), ("label cycle", cycle)] {
        let reread = Checkpoint::decode(&ckpt.encode()).expect("well-formed container");
        match algos::resume::<algos::Cc>(&Context::new(&g), (), &reread) {
            Err(GunrockError::Checkpoint(
                CheckpointError::MissingSection(_) | CheckpointError::Malformed(_),
            )) => {}
            other => panic!("{what}: expected a malformed-checkpoint error, got {other:?}"),
        }
    }
}

#[test]
fn pagerank_resume_is_bit_identical() {
    let g = kron10();
    let opts = algos::PrOptions::default();
    // damping/epsilon come from the snapshot; a caller passing
    // different knobs cannot skew the resumed run
    let wrong = algos::PrOptions { damping: 0.5, epsilon: 1e-2, ..Default::default() };
    let round_trip = |name: &str, cap: u32, reverse: bool| {
        let context = || {
            let ctx = Context::new(&g);
            if reverse {
                ctx.with_reverse(&g)
            } else {
                ctx
            }
        };
        let dir = ckpt_dir(name);
        let full = algos::pagerank(&context(), opts);
        let ckpt = interrupt_on(context(), &dir, "pagerank", cap, |ctx| {
            let r = algos::pagerank(ctx, opts);
            (r.iterations, r.outcome)
        });
        let r = algos::resume::<algos::PageRank>(&context(), wrong, &ckpt).expect("resume");
        assert_eq!(r.outcome, RunOutcome::Converged, "{name}");
        assert_eq!(r.iterations, full.iterations, "{name}");
        assert_eq!(bits(&r.scores), bits(&full.scores), "{name}");
        std::fs::remove_dir_all(&dir).ok();
    };
    // push only: no reverse graph attached
    round_trip("pagerank_push", 3, false);
    // reverse graph attached: dense iterations gather, the tail pushes;
    // interrupt before, at and after the gather -> push switch
    let traced = Context::new(&g).with_reverse(&g).with_stats();
    algos::pagerank(&traced, opts);
    let stats = traced.run_stats();
    let first_push = stats
        .steps
        .iter()
        .find(|s| s.direction == Some(StepDirection::Push))
        .expect("the sparse tail pushes")
        .iteration;
    assert!(first_push > 2, "kron10 starts dense");
    assert!(first_push < stats.iterations, "and pushes for more than one iteration");
    for cap in [first_push - 2, first_push - 1, first_push] {
        round_trip(&format!("pagerank_gather_{cap}"), cap, true);
    }
}

/// The registry routes a snapshot to the entry it names, another entry's
/// resume refuses it, and an unknown name finds no entry.
#[test]
fn resume_dispatcher_routes_by_primitive() {
    let g = kron10();
    let dir = ckpt_dir("dispatch");
    let full = algos::cc(&Context::new(&g));
    let ckpt = interrupt(&g, &dir, "cc", 1, |ctx| {
        let r = algos::cc(ctx);
        (r.labels, r.outcome)
    });
    let resume = |name: &str| registry::find(name).and_then(|e| e.resume).expect("resumable");
    let run = resume(ckpt.primitive())(&Context::new(&g), &ckpt).expect("dispatch");
    assert_eq!(run.output, Output::Components(full.labels));
    assert!(resume("bfs")(&Context::new(&g), &ckpt).is_err(), "a cc snapshot is not a bfs run");
    assert!(registry::find(Checkpoint::new("frobnicate", 3).primitive()).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every registry entry that resumes round-trips a capped run: the
/// resumed run converges to the uninterrupted run's output bit for bit,
/// at the same total iteration count.
#[test]
fn every_resumable_entry_round_trips_a_capped_run() {
    let g = kron10();
    for entry in registry::REGISTRY.iter().filter(|e| e.resume.is_some()) {
        let dir = ckpt_dir(&format!("registry_{}", entry.name));
        let sources = match entry.arity {
            Arity::None => Vec::new(),
            Arity::One => vec![0],
            Arity::Lanes => (0..8).collect(),
        };
        let query = Query { sources, epsilon: None };
        let full = (entry.run)(&Context::new(&g).with_reverse(&g), &query);
        let ckpt = interrupt(&g, &dir, entry.name, 2, |ctx| {
            let r = (entry.run)(ctx, &query);
            (r.iterations, r.outcome)
        });
        let resume = entry.resume.expect("filtered on resume");
        let r = resume(&Context::new(&g).with_reverse(&g), &ckpt).expect("resume");
        assert_eq!(r.outcome, RunOutcome::Converged, "{}", entry.name);
        assert_eq!(r.iterations, full.iterations, "{}", entry.name);
        assert_eq!(r.sources, full.sources, "{}", entry.name);
        assert_eq!(r.output.hash(), full.output.hash(), "{}: not bit-identical", entry.name);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `ckpt` with each section replaced by what `edit` makes of it (`None`
/// drops it), re-read through the container codec.
fn rewritten(
    ckpt: &Checkpoint,
    edit: impl Fn(&str, &SectionData) -> Option<SectionData>,
) -> Checkpoint {
    let mut out = Checkpoint::new(ckpt.primitive(), ckpt.iteration());
    for section in ckpt.sections() {
        match edit(&section.name, &section.data) {
            Some(SectionData::U32(v)) => out.push_u32(&section.name, v),
            Some(SectionData::U64(v)) => out.push_u64(&section.name, v),
            Some(SectionData::F64(v)) => out.push_f64(&section.name, v),
            None => &mut out,
        };
    }
    Checkpoint::decode(&out.encode()).expect("well-formed container")
}

/// Every section of every resumable entry's snapshot is checked: with
/// the section dropped, its element type changed, or one element valued
/// `n` appended, resuming fails with a checkpoint error, never a panic
/// and never a run. So does an MS-PPR snapshot whose `params` are empty,
/// which must not fall back to default teleport and threshold.
#[test]
fn every_mutated_snapshot_section_is_a_checkpoint_error() {
    let g = kron10();
    let n = g.num_vertices();
    let mut cases = Vec::new();
    for entry in registry::REGISTRY.iter().filter(|e| e.resume.is_some()) {
        let dir = ckpt_dir(&format!("mutate_{}", entry.name));
        let sources = match entry.arity {
            Arity::None => Vec::new(),
            Arity::One => vec![0],
            Arity::Lanes => (0..8).collect(),
        };
        let query = Query { sources, epsilon: None };
        let ckpt = interrupt(&g, &dir, entry.name, 2, |ctx| {
            let r = (entry.run)(ctx, &query);
            (r.iterations, r.outcome)
        });
        std::fs::remove_dir_all(&dir).ok();
        for section in ckpt.sections() {
            let only = |edit: fn(&SectionData, usize) -> Option<SectionData>| {
                rewritten(&ckpt, |name, data| {
                    if name == section.name {
                        edit(data, n)
                    } else {
                        Some(data.clone())
                    }
                })
            };
            let at = |how: &str| format!("{} {} {how}", entry.name, section.name);
            cases.push((at("dropped"), only(|_, _| None)));
            cases.push((
                at("retyped"),
                only(|data, _| {
                    Some(match data {
                        SectionData::U32(v) => {
                            SectionData::U64(v.iter().map(|&x| x.into()).collect())
                        }
                        SectionData::U64(v) => {
                            SectionData::F64(v.iter().map(|&x| x as f64).collect())
                        }
                        SectionData::F64(v) => {
                            SectionData::U32(v.iter().map(|&x| x as u32).collect())
                        }
                    })
                }),
            ));
            cases.push((
                at("with n appended"),
                only(|data, n| {
                    let mut data = data.clone();
                    match &mut data {
                        SectionData::U32(v) => v.push(n as u32),
                        SectionData::U64(v) => v.push(n as u64),
                        SectionData::F64(v) => v.push(n as f64),
                    }
                    Some(data)
                }),
            ));
        }
        if entry.name == "msppr" {
            let empty = rewritten(&ckpt, |name, data| match name {
                "params" => Some(SectionData::F64(Vec::new())),
                _ => Some(data.clone()),
            });
            cases.push(("msppr params empty".to_string(), empty));
        }
    }
    for (what, bad) in cases {
        let resume = registry::find(bad.primitive()).and_then(|e| e.resume).expect("resumable");
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resume(&Context::new(&g).with_reverse(&g), &bad).map(|r| r.outcome)
        }));
        match got {
            Ok(Err(GunrockError::Checkpoint(_))) => {}
            other => panic!("{what}: expected a checkpoint error, got {other:?}"),
        }
    }
}

/// `ckpt` with slot `slot` of its packed `scalars` section set to
/// `value`, every other section as written.
fn with_scalar(ckpt: &Checkpoint, slot: usize, value: u32) -> Checkpoint {
    let mut out = Checkpoint::new(ckpt.primitive(), ckpt.iteration());
    for section in ckpt.sections() {
        match &section.data {
            SectionData::U32(v) if section.name == "scalars" => {
                let mut v = v.clone();
                v[slot] = value;
                out.push_u32("scalars", v);
            }
            SectionData::U32(v) => {
                out.push_u32(&section.name, v.clone());
            }
            SectionData::U64(v) => {
                out.push_u64(&section.name, v.clone());
            }
            SectionData::F64(v) => {
                out.push_f64(&section.name, v.clone());
            }
        }
    }
    Checkpoint::decode(&out.encode()).expect("well-formed container")
}

/// `ckpt`, a push-only BFS snapshot, rewritten as the retired variant
/// `tag` would have written it.
fn as_bfs_variant(ckpt: &Checkpoint, tag: u32) -> Checkpoint {
    with_scalar(ckpt, 4, tag)
}

/// A snapshot of a retired variant resumes as the direction-optimized
/// BFS, whose push levels are that variant's levels: depths equal the
/// oracle's and the preds form a BFS tree, with and without a reverse
/// graph to pull over.
fn retired_bfs_variant_resumes_as_direction_optimized(tag: u32) {
    let g = kron10();
    let dir = ckpt_dir(&format!("bfs_tag{tag}"));
    // no reverse graph: every level pushes, the old variant's exact state
    let ckpt = interrupt_on(Context::new(&g), &dir, "bfs", 2, |ctx| {
        let r = algos::bfs(ctx, 0, algos::BfsOptions::default());
        (r.labels, r.outcome)
    });
    let old = as_bfs_variant(&ckpt, tag);
    let want = gunrock_baselines::serial::bfs(&g, 0);
    for ctx in [Context::new(&g), Context::new(&g).with_reverse(&g)] {
        let r = algos::resume::<algos::Bfs>(&ctx, algos::BfsOptions::default(), &old)
            .expect("resume");
        assert_eq!(r.outcome, RunOutcome::Converged, "tag {tag}");
        assert_eq!(r.labels, want, "tag {tag}");
        for (v, &p) in r.preds.iter().enumerate() {
            if v == 0 || want[v] == u32::MAX {
                assert_eq!(p, u32::MAX, "tag {tag} vertex {v}");
            } else {
                assert_eq!(r.labels[p as usize] + 1, r.labels[v], "vertex {v} parent {p}");
                assert!(g.neighbors(p).contains(&(v as u32)), "vertex {v} parent {p}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Tag 0: the retired atomic variant. Its labels, preds and frontier are
/// the state a claiming push level resumes from (each discovered vertex
/// labeled once, each in the frontier once); the visited bitmap is
/// rebuilt from the labels.
#[test]
fn atomic_bfs_snapshot_resumes_as_direction_optimized() {
    retired_bfs_variant_resumes_as_direction_optimized(0);
}

/// Tag 1: the retired push-only idempotent variant.
#[test]
fn idempotent_bfs_snapshot_resumes_as_direction_optimized() {
    retired_bfs_variant_resumes_as_direction_optimized(1);
}

/// Tag 3: the retired fused variant.
#[test]
fn fused_bfs_snapshot_resumes_as_direction_optimized() {
    retired_bfs_variant_resumes_as_direction_optimized(3);
}

/// Asserts that resuming `ckpt` fails as a malformed checkpoint whose
/// reason names `setting`.
fn assert_retired<R: std::fmt::Debug>(result: Result<R, GunrockError>, setting: &str) {
    match result {
        Err(GunrockError::Checkpoint(CheckpointError::Malformed(msg))) => {
            assert!(msg.contains(setting), "{setting}: {msg}");
        }
        other => panic!("{setting}: expected a malformed checkpoint, got {other:?}"),
    }
}

/// Snapshots of the retired settings (BFS or SSSP without predecessors,
/// SSSP without the priority queue) are rejected, never misread: their
/// `preds` section is empty, and a queue-less SSSP parked nothing in the
/// far pile the resumed loop would refill from.
#[test]
fn retired_settings_are_rejected_as_malformed() {
    let g = kron10();
    let dir = ckpt_dir("retired_settings");
    let bfs = interrupt(&g, &dir, "bfs", 2, |ctx| {
        let r = algos::bfs(ctx, 0, algos::BfsOptions::default());
        (r.labels, r.outcome)
    });
    let sssp = interrupt(&g, &dir, "sssp", 2, |ctx| {
        let r = algos::sssp(ctx, 0, algos::SsspOptions::default());
        (r.dist, r.outcome)
    });
    let ctx = Context::new(&g);
    assert_retired(
        algos::resume::<algos::Bfs>(&ctx, Default::default(), &with_scalar(&bfs, 5, 0)),
        "record_predecessors",
    );
    assert_retired(
        algos::resume::<algos::Sssp>(&ctx, Default::default(), &with_scalar(&sssp, 5, 0)),
        "record_predecessors",
    );
    assert_retired(
        algos::resume::<algos::Sssp>(&ctx, Default::default(), &with_scalar(&sssp, 4, 0)),
        "use_priority_queue",
    );
    // the registry's resume reports the same error
    let entry = registry::find("sssp").expect("sssp entry");
    let resume = entry.resume.expect("sssp resumes");
    assert_retired(
        resume(&ctx, &with_scalar(&sssp, 4, 0)).map(|r| r.iterations),
        "use_priority_queue",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A default-configuration SSSP snapshot in the layout the queue-and-
/// predecessor options wrote (`scalars = [src, queue_id, delta, pivot,
/// use_priority_queue = 1, record_preds = 1]`) is the layout written
/// today, and resumes to the uninterrupted run's distances and
/// predecessors bit for bit.
#[test]
fn sssp_snapshot_in_the_optioned_layout_resumes_bit_identically() {
    let g = kron10();
    let dir = ckpt_dir("sssp_layout");
    let opts = algos::SsspOptions::default();
    let full = algos::sssp(&Context::new(&g), 0, opts);
    let ckpt = interrupt(&g, &dir, "sssp", 3, |ctx| {
        let r = algos::sssp(ctx, 0, opts);
        (r.dist, r.outcome)
    });
    let u32s = |name| ckpt.u32s(name).expect("u32 section").to_vec();
    let scalars = u32s("scalars");
    let mut old = Checkpoint::new("sssp", ckpt.iteration());
    for name in ["dist", "preds", "tags", "frontier", "far"] {
        old.push_u32(name, u32s(name));
    }
    old.push_u32("scalars", vec![0, scalars[1], scalars[2], scalars[3], 1, 1]);
    assert_eq!(old.encode(), ckpt.encode(), "the snapshot layout is unchanged");
    let old = Checkpoint::decode(&old.encode()).expect("well-formed container");
    let r = algos::resume::<algos::Sssp>(&Context::new(&g), opts, &old).expect("resume");
    assert_eq!(r.outcome, RunOutcome::Converged);
    assert_eq!(r.dist, full.dist);
    assert_eq!(r.preds, full.preds);
    assert_eq!(r.iterations, full.iterations);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every mid-run SSSP snapshot — taken after the claiming advance and the
/// near–far split of each iteration so far — resumes to the uninterrupted
/// run's distances, predecessors and iteration count, bit for bit.
#[test]
fn sssp_mid_run_snapshots_resume_bit_identically() {
    let g = kron10();
    let opts = algos::SsspOptions::default();
    let full = algos::sssp(&Context::new(&g), 0, opts);
    assert!(full.iterations > 6);
    for cap in 1..=6 {
        let dir = ckpt_dir(&format!("sssp_mid{cap}"));
        let ckpt = interrupt(&g, &dir, "sssp", cap, |ctx| {
            let r = algos::sssp(ctx, 0, opts);
            (r.dist, r.outcome)
        });
        let r = algos::resume::<algos::Sssp>(&Context::new(&g), opts, &ckpt).expect("resume");
        assert_eq!(r.outcome, RunOutcome::Converged, "cap {cap}");
        assert_eq!(r.dist, full.dist, "cap {cap}");
        assert_eq!(r.preds, full.preds, "cap {cap}");
        assert_eq!(r.iterations, full.iterations, "cap {cap}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The refill claims the next window's vertices in `tags` and moves
/// `queue_id` on; a snapshot taken at the boundary right after a refill
/// (the first one whose pivot moved) resumes to the uninterrupted run
/// bit for bit.
#[test]
fn sssp_snapshot_right_after_a_refill_resumes_bit_identically() {
    let g = kron10();
    let opts = algos::SsspOptions::default();
    let full = algos::sssp(&Context::new(&g), 0, opts);
    let pivot = |ckpt: &Checkpoint| ckpt.u32s("scalars").expect("scalars")[3];
    let mut before = None;
    for cap in 1..full.iterations {
        let dir = ckpt_dir(&format!("sssp_refill{cap}"));
        let ckpt = interrupt(&g, &dir, "sssp", cap, |ctx| {
            let r = algos::sssp(ctx, 0, opts);
            (r.dist, r.outcome)
        });
        std::fs::remove_dir_all(&dir).ok();
        if before.is_some_and(|p| p != pivot(&ckpt)) {
            let r =
                algos::resume::<algos::Sssp>(&Context::new(&g), opts, &ckpt).expect("resume");
            assert_eq!(r.outcome, RunOutcome::Converged, "cap {cap}");
            assert_eq!(r.dist, full.dist, "cap {cap}");
            assert_eq!(r.preds, full.preds, "cap {cap}");
            assert_eq!(r.iterations, full.iterations, "cap {cap}");
            return;
        }
        before = Some(pivot(&ckpt));
    }
    panic!("no refill in {} iterations", full.iterations);
}

/// Periodic snapshots are also resumable on their own — not just the
/// exit snapshot: resuming the *mid-run* file converges to the same
/// fixpoint even though later iterations overwrote it in the
/// interrupted run.
#[test]
fn periodic_snapshot_resumes_too() {
    let g = kron10();
    let dir = ckpt_dir("periodic");
    let opts = algos::BfsOptions::default();
    let full = algos::bfs(&Context::new(&g).with_reverse(&g), 0, opts);
    // checkpoint every iteration, stop at 3: the surviving file is the
    // exit snapshot at iteration 3; delete nothing and resume it
    let ckpt = interrupt(&g, &dir, "bfs", 3, |ctx| {
        let r = algos::bfs(ctx, 0, opts);
        (r.labels, r.outcome)
    });
    let bytes = ckpt.encode();
    let reread = Checkpoint::decode(&bytes).expect("encode/decode round trip");
    let r = algos::resume::<algos::Bfs>(&Context::new(&g).with_reverse(&g), opts, &reread)
        .expect("resume");
    assert_eq!(r.labels, full.labels);
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot from one graph must not silently resume on another: the
/// defensive decoder rejects out-of-range state instead of panicking.
#[test]
fn resume_on_the_wrong_graph_is_a_structured_error() {
    let g = kron10();
    let small = GraphBuilder::new().build(gunrock_graph::Coo::from_edges(2, &[(0, 1)]));
    let dir = ckpt_dir("wronggraph");
    let ckpt = interrupt(&g, &dir, "bfs", 2, |ctx| {
        let r = algos::bfs(ctx, 0, algos::BfsOptions::default());
        (r.labels, r.outcome)
    });
    let err =
        algos::resume::<algos::Bfs>(&Context::new(&small), algos::BfsOptions::default(), &ckpt);
    assert!(err.is_err(), "a 1024-vertex snapshot cannot drive a 2-vertex graph");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a crash between the snapshot's tmp-file fsync and its
/// atomic rename (injected at the `checkpoint:rename` fault site) must
/// never corrupt the resumable file — the crash artifact is the orphan
/// tmp, the previous snapshot survives byte-for-byte, and it still
/// resumes bit-identically.
#[test]
fn crashed_snapshot_rename_never_corrupts_the_resumable_file() {
    use std::sync::Arc;
    let g = kron10();
    let dir = ckpt_dir("crash_rename");
    let opts = algos::BfsOptions::direction_optimized();
    let full = algos::bfs(&Context::new(&g).with_reverse(&g), 0, opts);
    // first interruption leaves a healthy snapshot behind
    interrupt(&g, &dir, "bfs", 2, |ctx| {
        let r = algos::bfs(ctx, 0, opts);
        (r.labels, r.outcome)
    });
    let path = CheckpointPolicy::new(1, &dir).path("bfs");
    let golden = std::fs::read(&path).expect("healthy snapshot bytes");

    // seeded io-fault plan: every subsequent save crashes mid-rename
    let plan = FaultPlan::parse("io=1.0", 7).expect("plan");
    let ctx = Context::new(&g)
        .with_reverse(&g)
        .with_policy(RunPolicy::unbounded().max_iterations(3))
        .with_checkpoints(CheckpointPolicy::new(1, &dir))
        .with_faults(Arc::new(FaultInjector::new(plan)))
        .with_stats();
    let r = algos::bfs(&ctx, 0, opts);
    assert_eq!(r.outcome, RunOutcome::IterationCapped);
    assert!(!ctx.is_poisoned(), "a crashed snapshot never kills the run");
    // every attempted save (periodic + exit) crashed before its rename:
    // the fully-written tmp artifact is on disk...
    assert!(path.with_extension("ckpt.tmp").exists(), "crash leaves the tmp artifact");
    // ...the failures were recorded as recovery events...
    let recoveries = ctx.run_stats().recoveries;
    assert!(
        recoveries.iter().any(|e| e.kind == RecoveryKind::CheckpointFailed),
        "crashed saves surface as checkpoint-failed recovery events: {recoveries:?}"
    );
    // ...and the resumable file still holds the previous snapshot
    assert_eq!(std::fs::read(&path).expect("read"), golden, "previous snapshot survives");
    let ckpt = Checkpoint::load(&path).expect("surviving snapshot still loads");
    let resumed = algos::resume::<algos::Bfs>(&Context::new(&g).with_reverse(&g), opts, &ckpt)
        .expect("surviving snapshot still resumes");
    assert_eq!(resumed.outcome, RunOutcome::Converged);
    assert_eq!(resumed.labels, full.labels, "resume from the survivor is bit-identical");
    std::fs::remove_dir_all(&dir).ok();
}
