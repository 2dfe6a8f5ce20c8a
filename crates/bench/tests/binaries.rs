//! Run the perf-gate binaries end to end and check what they write.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn atpg_phase_bench_writes_json() {
    let dir = std::env::temp_dir().join("modsoc_phase_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("phases.json");
    let text = run(
        env!("CARGO_BIN_EXE_atpg_phase_bench"),
        &["--quick", "--json", path.to_str().unwrap()],
    );
    assert!(text.contains("s1423"), "{text}");
    let json = std::fs::read_to_string(&path).unwrap();
    for key in [
        "\"bench\": \"atpg_phase_bench\"",
        "\"index_ms\"",
        "\"collapse_ms\"",
        "\"podem_sweep_ms\"",
        "\"engine_ms\"",
        "\"patterns\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    std::fs::remove_file(&path).ok();
}
