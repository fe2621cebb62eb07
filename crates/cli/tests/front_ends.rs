//! The `gunrock` binary against `gunrock serve`, its in-process twin of
//! `gunrock-serve`: both front ends read one graph spec and run every
//! query through one invocation path, so they must agree bit for bit.

use gunrock_algos::registry::{Arity, REGISTRY};
use gunrock_engine::json::JsonValue;
use gunrock_graph::{generators, io, GraphBuilder};
use std::io::Write;
use std::process::{Command, Output, Stdio};

const GUNROCK: &str = env!("CARGO_BIN_EXE_gunrock");

fn gunrock(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(GUNROCK)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gunrock");
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    child.wait_with_output().expect("gunrock runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// For every single-source and whole-graph entry, `gunrock <entry>` and a
/// served request on the same graph flags print the same
/// `result_hash`, with the relabeling off and on.
#[test]
fn cli_runs_and_served_requests_hash_equal_for_every_served_entry() {
    let served: Vec<&str> =
        REGISTRY.iter().filter(|e| e.arity != Arity::Lanes).map(|e| e.name).collect();
    assert_eq!(served.len(), 9);
    for reorder in [&[][..], &["--reorder"][..]] {
        let graph = [&["--gen", "soc", "--scale", "8"][..], reorder].concat();
        let cli: Vec<String> = served
            .iter()
            .map(|name| {
                let out = gunrock(&[&[*name, "--src", "3"][..], &graph].concat(), "");
                let stdout = text(&out.stdout);
                assert!(out.status.success(), "{name}: {stdout}{}", text(&out.stderr));
                let line = stdout.lines().find(|l| l.contains("result_hash")).unwrap();
                line.split_whitespace().last().unwrap().to_string()
            })
            .collect();
        // the CLI's epsilon, sent with every request as the CLI passes it
        let requests: String = served
            .iter()
            .map(|name| format!("{{\"primitive\":\"{name}\",\"src\":3,\"epsilon\":1e-10}}\n"))
            .collect();
        let out = gunrock(&[&["serve", "--stdin"][..], &graph].concat(), &requests);
        assert!(out.status.success(), "{}", text(&out.stderr));
        let stdout = text(&out.stdout);
        let responses: Vec<JsonValue> =
            stdout.lines().take(served.len()).map(|l| JsonValue::parse(l).unwrap()).collect();
        for ((name, want), resp) in served.iter().zip(&cli).zip(&responses) {
            let field = |key| resp.get(key).and_then(JsonValue::as_str);
            assert_eq!(field("status"), Some("ok"), "{name} {reorder:?}: {stdout}");
            assert_eq!(field("result_hash"), Some(want.as_str()), "{name} {reorder:?}");
        }
    }
}

/// `io=` faults damage the graph file's read in both front ends: the load
/// fails with a structured error and exit code 1.
#[test]
fn io_faults_fail_the_graph_load_in_both_front_ends() {
    let g = GraphBuilder::new().build(generators::from_spec("kron", 6, 1).unwrap());
    let bin =
        std::env::temp_dir().join(format!("gunrock_front_ends_{}.bin", std::process::id()));
    io::write_csr_binary(&g, std::fs::File::create(&bin).unwrap()).unwrap();
    let path = bin.to_str().unwrap();
    for args in [&["bfs", "--graph", path][..], &["serve", "--stdin", "--graph", path][..]] {
        let clean = gunrock(args, "");
        assert!(clean.status.success(), "{args:?}: {}", text(&clean.stderr));
        let faulted = gunrock(&[args, &["--inject-faults", "io=1.0"][..]].concat(), "");
        assert_eq!(faulted.status.code(), Some(1), "{args:?}");
        let stderr = text(&faulted.stderr);
        assert!(stderr.contains(&format!("cannot load {path}")), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&bin).ok();
}
