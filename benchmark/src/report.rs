//! The metric registry — every name the benchmark prints, with its unit
//! and direction — and the two output forms: a table for people, one JSON
//! line for the driver. `BENCHMARK.json` is generated from this file.

use crate::stats::Summary;
use crate::workload::{Prim, WORKLOADS};
use gunrock_engine::json::JsonBuilder;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: (name, unit, direction, bound — the share of the
/// parent's median a later change may lose before it is rejected). The
/// bounds are about three times the spread ten runs show on this
/// sandbox (README.md, "Steadiness"); the driver allows no more than 0.25.
pub const END_TO_END: [(&str, &str, Better, f64); 11] = [
    ("bfs_vs_serial", "ratio", Lower, 0.15),
    ("sssp_vs_serial", "ratio", Lower, 0.15),
    ("bc_vs_serial", "ratio", Lower, 0.15),
    ("cc_vs_serial", "ratio", Lower, 0.25),
    ("pagerank_vs_serial", "ratio", Lower, 0.15),
    ("msbfs64_vs_serial", "ratio", Lower, 0.25),
    ("qps", "1/s", Higher, 0.25),
    ("p50_ms", "ms", Lower, 0.25),
    ("p95_ms", "ms", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MiB", Lower, 0.2),
];

const GRAPH: [(&str, &str, Better); 4] = [
    ("graph.generate_ms", "ms", Lower),
    ("graph.build_ms", "ms", Lower),
    ("graph.csr_bytes", "bytes", Lower),
    ("graph.reorder_ms", "ms", Lower),
];

const ENGINE: [(&str, &str, Better); 7] = [
    ("engine.scan_melems_s", "Melem/s", Higher),
    ("engine.compact_melems_s", "Melem/s", Higher),
    ("engine.pool_cycle_ns", "ns", Lower),
    ("engine.pool_allocations", "count", Lower),
    ("engine.json_parse_us", "us", Lower),
    ("engine.json_build_us", "us", Lower),
    ("engine.queue_cycle_ns", "ns", Lower),
];

const CORE: [(&str, &str, Better); 8] = [
    ("core.advance_tm_meps", "Medge/s", Higher),
    ("core.advance_twc_meps", "Medge/s", Higher),
    ("core.advance_lb_meps", "Medge/s", Higher),
    ("core.advance_pull_meps", "Medge/s", Higher),
    ("core.filter_exact_melems_s", "Melem/s", Higher),
    ("core.filter_culling_melems_s", "Melem/s", Higher),
    ("core.advance_small_us", "us", Lower),
    ("core.filter_small_us", "us", Lower),
];

/// Per primitive `P`: `algos.P.<suffix>`. There is no `compute_ms`: none
/// of the six primitives calls the compute operator.
const ALGOS: [(&str, &str, Better); 10] = [
    ("iterations", "count", Lower),
    ("edges_examined", "count", Lower),
    ("edge_ratio", "ratio", Lower),
    ("advance_ms", "ms", Lower),
    ("filter_ms", "ms", Lower),
    ("loop_ms", "ms", Lower),
    ("oracle_ratio", "ratio", Lower),
    ("cold_ms", "ms", Lower),
    ("stats_overhead", "ratio", Lower),
    ("best_ms", "ms", Lower),
];

const GOVERNED: [(&str, &str, Better); 2] = [
    ("algos.bfs.governed_ratio", "ratio", Lower),
    ("algos.pagerank.governed_ratio", "ratio", Lower),
];

const SERVER: [(&str, &str, Better); 18] = [
    ("server.parse_us", "us", Lower),
    ("server.direct_us", "us", Lower),
    ("server.handle_us", "us", Lower),
    ("server.metrics_rtt_us", "us", Lower),
    ("server.admission_us", "us", Lower),
    ("server.socket_us", "us", Lower),
    ("server.engine_share", "ratio", Higher),
    ("server.bfs_p50_ms", "ms", Lower),
    ("server.sssp_p50_ms", "ms", Lower),
    ("server.bc_p50_ms", "ms", Lower),
    ("server.p99_ms", "ms", Lower),
    ("server.traced_p50_ms", "ms", Lower),
    ("server.traced_qps", "1/s", Higher),
    ("server.start_ms", "ms", Lower),
    ("server.received", "count", Higher),
    ("server.completed_ok", "count", Higher),
    ("server.rejected_total", "count", Lower),
    ("server.queue_full", "count", Lower),
];

/// What `RunStats` never records for a primitive, so the metric would read
/// 0 on every run: cc counts no edges and records no advance step;
/// pagerank and msbfs64 record no filter step.
pub fn absent(p: Prim, suffix: &str) -> bool {
    matches!(
        (p, suffix),
        (Prim::Cc, "edges_examined" | "edge_ratio" | "advance_ms")
            | (Prim::Pagerank | Prim::Msbfs64, "filter_ms")
    )
}

pub fn algos_name(p: Prim, suffix: &str) -> String {
    format!("algos.{}.{suffix}", p.name())
}

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let fixed = |defs: &[(&str, &'static str, Better)]| {
        defs.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect::<Vec<_>>()
    };
    let mut all = fixed(&GRAPH);
    all.extend(fixed(&ENGINE));
    all.extend(fixed(&CORE));
    for p in Prim::ALL {
        let present = ALGOS.iter().filter(|m| !absent(p, m.0));
        all.extend(present.map(|&(suffix, u, b)| (algos_name(p, suffix), u, b)));
    }
    all.extend(fixed(&GOVERNED));
    all.extend(fixed(&SERVER));
    all
}

/// One measured metric: the reported value and, for sampled timings, the
/// distribution it is the median (or a percentile) of.
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: Option<Summary>,
}

/// Measured metrics in registry order, each with its unit.
pub type Rows<'a> = Vec<(&'a Measured, &'static str)>;

/// Puts one pass's measurements in registry order; panics if a registered
/// metric was not measured, or one was measured that is not registered.
pub fn rows(metrics: &[Measured], traced: bool) -> Rows<'_> {
    let registry: Vec<(String, &'static str)> = if traced {
        per_layer().into_iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect()
    };
    assert_eq!(metrics.len(), registry.len(), "every registered metric is measured once");
    registry
        .into_iter()
        .map(|(name, unit)| {
            let m = metrics.iter().find(|m| m.name == name);
            (m.unwrap_or_else(|| panic!("{name} was not measured")), unit)
        })
        .collect()
}

pub fn print_table(title: &str, rows: &Rows<'_>) {
    println!("{title}");
    for (m, unit) in rows {
        let dist = m.samples.map_or(String::new(), |s| {
            format!(
                "  n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4}",
                s.n, s.min, s.q1, s.median, s.q3, s.max
            )
        });
        println!("  {:<32} {:>16.4} {unit:<8}{dist}", m.name, m.value);
    }
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, rows: &Rows<'_>) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.field_bool("correct", correct);
    j.field_u64("attempted", attempted);
    j.field_u64("failed", failed);
    j.key("metrics");
    j.begin_object();
    for (m, unit) in rows {
        j.key(&m.name);
        j.begin_object();
        j.field_f64("value", m.value);
        j.field_str("unit", unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    j.finish()
}

/// What a full run costs the driver: one run measures this long.
pub const RUN_SECONDS: u64 = 24;

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted(&command));
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out += &(rows.join(",\n") + "\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|&(n, u, b, bound)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {bound}}}",
                b.name()
            )
        })
        .collect();
    out += &(rows.join(",\n") + "\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                b.name()
            )
        })
        .collect();
    out + &rows.join(",\n") + "\n  ]\n}\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::json::JsonValue;

    #[test]
    fn benchmark_json_is_what_the_registry_generates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_meets_the_contract_limits() {
        let doc = JsonValue::parse(&manifest()).unwrap();
        let len = |k: &str| doc.get(k).and_then(JsonValue::as_array).unwrap().len();
        assert_eq!(len("workloads"), 4);
        assert!(len("end_to_end") <= 16 && len("per_layer") <= 128);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(manifest().len() <= 64 * 1024);
    }
}
