//! The `gunrock-serve` binary's graph load honours `--inject-faults io=R`.

use gunrock_graph::{generators, io, GraphBuilder};
use std::process::{Command, Stdio};

#[test]
fn io_faults_fail_the_served_graph_load() {
    let g = GraphBuilder::new().build(generators::from_spec("kron", 6, 1).unwrap());
    let bin = std::env::temp_dir().join(format!("gunrock_serve_io_{}.bin", std::process::id()));
    io::write_csr_binary(&g, std::fs::File::create(&bin).unwrap()).unwrap();
    let path = bin.to_str().unwrap();
    let serve = |faults: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_gunrock-serve"))
            .args([&["--stdin", "--graph", path][..], faults].concat())
            .stdin(Stdio::null())
            .output()
            .expect("gunrock-serve runs")
    };
    let clean = serve(&[]);
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));
    let faulted = serve(&["--inject-faults", "io=1.0"]);
    assert_eq!(faulted.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&faulted.stderr);
    assert!(stderr.contains(&format!("cannot load {path}")), "{stderr}");
    std::fs::remove_file(&bin).ok();
}
