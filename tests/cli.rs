//! Integration tests for the `modsoc` CLI binary.

use std::process::Command;

fn modsoc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = modsoc(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_subcommand_rejected() {
    let out = modsoc(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn loadgen_has_no_bench_mode() {
    // Serving performance is measured by the benchmark, not by loadgen:
    // its former bench flags are plain unknown flags, rejected before any
    // connection is made.
    for flag in ["--json", "--label", "--check", "--tolerance"] {
        let out = modsoc(&["loadgen", "--addr", "127.0.0.1:9", flag, "x"]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
}

#[test]
fn demo_soc1_prints_paper_numbers() {
    let out = modsoc(&["demo", "soc1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("45,183"), "{text}");
    assert!(text.contains("129,816"));
}

#[test]
fn demo_unknown_mode_exits_1_and_lists_every_mode() {
    let out = modsoc(&["demo", "table5"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let first = err.lines().next().unwrap_or_default();
    assert!(first.contains("\"table5\""), "{err}");
    let usage_line = err
        .lines()
        .find(|l| l.trim_start().starts_with("modsoc demo "))
        .unwrap_or_default();
    for (mode, _) in modsoc::demo::MODES {
        assert!(first.contains(mode), "{mode} missing from {first:?}");
        assert!(
            usage_line.contains(mode),
            "{mode} missing from {usage_line:?}"
        );
    }
}

#[test]
fn demo_table4_prints_all_socs() {
    let out = modsoc(&["demo", "table4"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for soc in ["d695", "g12710", "a586710", "p34392"] {
        assert!(text.contains(soc), "{soc} missing");
    }
}

#[test]
fn tam_packs_soc2_with_ceiling_and_json() {
    let dir = std::env::temp_dir().join(format!("modsoc_tam_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("tam.json");
    let out = modsoc(&[
        "tam",
        "soc2",
        "--width",
        "16",
        "--power-ceiling",
        "4000",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("soc2"), "{text}");
    assert!(text.contains("constrained"), "{text}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"pack_time\""), "{doc}");
    assert!(doc.contains("\"constrained_time\""), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tam_rejects_unknown_soc_and_zero_width() {
    let out = modsoc(&["tam", "nosuchsoc"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown soc"));
    let out = modsoc(&["tam", "soc1", "--width", "0"]);
    assert!(!out.status.success());
}

#[test]
fn generate_atpg_analyze_pipeline() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bench = dir.join("core.bench");
    let patterns = dir.join("core.pat");
    let verilog = dir.join("core.v");

    // generate
    let out = modsoc(&[
        "generate",
        "--inputs",
        "6",
        "--outputs",
        "3",
        "--scan",
        "4",
        "--seed",
        "11",
        "--bench-out",
        bench.to_str().expect("utf8 path"),
        "--verilog-out",
        verilog.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(bench.exists() && verilog.exists());

    // atpg over the generated bench
    let out = modsoc(&[
        "atpg",
        bench.to_str().expect("utf8 path"),
        "--dynamic",
        "--patterns-out",
        patterns.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fault coverage"), "{text}");
    let pat_text = std::fs::read_to_string(&patterns).expect("patterns written");
    assert!(!pat_text.trim().is_empty());
    // 6 PIs + 4 scan cells = width 10 lines.
    assert!(pat_text.lines().all(|l| l.len() == 10), "{pat_text}");

    // cones over the same bench
    let out = modsoc(&["cones", bench.to_str().expect("utf8 path")]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("cones"));

    // analyze a .soc file
    let soc_path = dir.join("t.soc");
    std::fs::write(
        &soc_path,
        "soc demo\ncore top i=8 o=4 s=0 t=2 children=a\ncore a i=4 o=2 s=16 t=40\n",
    )
    .expect("write soc");
    let out = modsoc(&[
        "analyze",
        soc_path.to_str().expect("utf8 path"),
        "--reuse",
        "0.5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("modular change"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_bad_flags() {
    let out = modsoc(&["analyze", "/nonexistent.soc"]);
    assert!(!out.status.success());
    let out = modsoc(&["atpg", "/nonexistent.bench"]);
    assert!(!out.status.success());
}

/// Write a small generated bench into a fresh temp dir; returns
/// `(dir, bench_path)`.
fn generated_bench(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bench = dir.join("core.bench");
    let out = modsoc(&[
        "generate",
        "--inputs",
        "8",
        "--outputs",
        "4",
        "--scan",
        "6",
        "--seed",
        "7",
        "--bench-out",
        bench.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, bench)
}

#[test]
fn atpg_timeout_zero_is_immediate_partial_with_exit_2() {
    let (dir, bench) = generated_bench("t0");
    let started = std::time::Instant::now();
    let out = modsoc(&[
        "atpg",
        bench.to_str().expect("utf8 path"),
        "--timeout-ms",
        "0",
    ]);
    // The run must come back essentially immediately (allow generous
    // slack for process startup on a loaded machine).
    assert!(started.elapsed() < std::time::Duration::from_secs(10));
    assert_eq!(out.status.code(), Some(2), "partial exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("partial"), "{err}");
    assert!(err.contains("deadline"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atpg_pattern_cap_returns_partial_with_exit_2() {
    let (dir, bench) = generated_bench("cap");
    let out = modsoc(&[
        "atpg",
        bench.to_str().expect("utf8 path"),
        "--max-patterns",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("pattern cap"));
    // The uncapped run over the same bench completes with exit 0.
    let out = modsoc(&["atpg", bench.to_str().expect("utf8 path")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_poisoned_core_errors_strict_but_degrades_with_keep_going() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_kg_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let soc_path = dir.join("poisoned.soc");
    std::fs::write(
        &soc_path,
        "soc mixed\n\
         core good_a i=4 o=3 s=20 t=100\n\
         core poisoned i=1 o=1 s=18446744073709551615 t=18446744073709551615\n\
         core good_b i=2 o=2 s=10 t=50\n",
    )
    .expect("write soc");
    let path = soc_path.to_str().expect("utf8 path");

    // Strict mode: hard error, exit 1.
    let out = modsoc(&["analyze", path]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("overflow"), "{err}");
    assert!(err.contains("--keep-going"), "{err}");

    // Degraded mode: healthy cores still get rows, the poisoned core a
    // typed FAILED outcome, exit 2.
    let out = modsoc(&["analyze", path, "--keep-going"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("good_a"), "{text}");
    assert!(text.contains("good_b"), "{text}");
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("overflow"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Three cores whose rows each fit in `u64` but whose SOC-level sums do
/// not: the totals must be reported as an overflow, never clamped.
const SOC_LEVEL_OVERFLOW: &str = "soc big\n\
     core a i=4 o=3 s=3000000000 t=2000000000\n\
     core b i=4 o=3 s=3000000000 t=2000000000\n\
     core c i=4 o=3 s=3000000000 t=2000000000\n";

#[test]
fn analyze_soc_level_overflow_errors_strict_and_suppresses_totals_with_keep_going() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_ovf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let soc_path = dir.join("big.soc");
    std::fs::write(&soc_path, SOC_LEVEL_OVERFLOW).expect("write soc");
    let path = soc_path.to_str().expect("utf8 path");

    // Strict mode: hard error, exit 1, and no clamped total on stdout.
    let out = modsoc(&["analyze", path]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("SOC-level modular TDV (Eq. 4) overflows"),
        "{err}"
    );
    assert!(err.contains("--keep-going"), "{err}");
    assert!(out.stdout.is_empty());

    // Degraded mode: every row, no SOC-level line, exit 2.
    let out = modsoc(&["analyze", path, "--keep-going"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.matches("TDV 12,000,000,014,000,000,000").count(),
        3,
        "{text}"
    );
    for suppressed in [
        "18,446,744,073,709,551,615",
        "SOC (modular)",
        "modular change",
    ] {
        assert!(!text.contains(suppressed), "{text}");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("SOC-level totals suppressed"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runtime_errors_print_no_usage_but_command_line_errors_do() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let soc_path = dir.join("big.soc");
    std::fs::write(&soc_path, SOC_LEVEL_OVERFLOW).expect("write soc");
    let path = soc_path.to_str().expect("utf8 path");
    let stderr = |args: &[&str]| {
        let out = modsoc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // The work failed: the one error line, nothing after it.
    let err = stderr(&["analyze", path]);
    assert!(err.starts_with("error: "), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");

    // The command line is wrong: the error, then the usage.
    for args in [
        &["analyze", path, "--jobs", "x"][..],
        &["analyze", path, "--frobnicate"],
        &["experiment", "nope"],
    ] {
        let err = stderr(args);
        assert!(err.starts_with("error: "), "{err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_keep_going_on_healthy_soc_exits_0() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_kg0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let soc_path = dir.join("ok.soc");
    std::fs::write(
        &soc_path,
        "soc demo\ncore top i=8 o=4 s=0 t=2 children=a\ncore a i=4 o=2 s=16 t=40\n",
    )
    .expect("write soc");
    let out = modsoc(&[
        "analyze",
        soc_path.to_str().expect("utf8 path"),
        "--keep-going",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ok"), "{text}");
    assert!(text.contains("modular change"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_budget_flag_values_are_errors() {
    let (dir, bench) = generated_bench("badflag");
    let out = modsoc(&[
        "atpg",
        bench.to_str().expect("utf8 path"),
        "--timeout-ms",
        "never",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--timeout-ms"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_and_dangling_flags_are_errors() {
    let (dir, bench) = generated_bench("strictflags");
    let path = bench.to_str().expect("utf8 path");

    // A typo'd flag must not silently run unbudgeted.
    let out = modsoc(&["atpg", path, "--frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--frobnicate"));

    // A value flag with no value is an error, not a no-op.
    let out = modsoc(&["atpg", path, "--timeout-ms"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));

    // Same when the "value" is actually the next flag.
    let out = modsoc(&["atpg", path, "--timeout-ms", "--dynamic"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_mini_is_jobs_invariant_byte_for_byte() {
    let run = |jobs: &str| {
        let out = modsoc(&["experiment", "mini", "--skip-monolithic", "--jobs", jobs]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "jobs={jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "stdout must be identical at any --jobs");
    assert_eq!(serial, run("0"));
    let text = String::from_utf8_lossy(&serial);
    assert!(text.contains("coreA"), "{text}");
    assert!(text.contains("monolithic phase skipped"), "{text}");
}

#[test]
fn experiment_budget_trip_exits_2_with_outcome_table() {
    let out = modsoc(&["experiment", "mini", "--max-patterns", "2", "--fail-fast"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("partial"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("partial result"));
}

#[test]
fn experiment_rejects_unknown_target_and_bad_jobs() {
    let out = modsoc(&["experiment", "maxi"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mini|soc1|soc2"));

    let out = modsoc(&["experiment", "mini", "--jobs", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

/// Strip the volatile lines of a metrics report — wall times (`*_ms`),
/// the single-line `sched` objects, the `jobs` field, and the store
/// traffic counters (`store_*`, which depend on cache warmth) — exactly
/// like the shell-level determinism gate in ci.sh does with grep.
fn volatile_filtered(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            !(l.contains("_ms\":")
                || l.contains("\"sched\": ")
                || l.contains("\"jobs\": ")
                || l.contains("\"store_"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn experiment_metrics_report_is_valid_json_and_jobs_invariant() {
    use modsoc::analysis::metrics::json::{self, JsonValue};
    let dir = std::env::temp_dir().join(format!("modsoc_cli_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let run = |jobs: &str, file: &str| {
        let path = dir.join(file);
        let out = modsoc(&[
            "experiment",
            "mini",
            "--jobs",
            jobs,
            "--metrics",
            path.to_str().expect("utf8 path"),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "jobs={jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("wrote metrics"));
        std::fs::read_to_string(&path).expect("metrics file written")
    };
    let m1 = run("1", "m1.json");
    let m4 = run("4", "m4.json");

    // The report parses with the workspace's own JSON parser and carries
    // real engine observations.
    let parsed = json::parse(&m1).expect("valid metrics JSON");
    let field = |key: &str| parsed.get(key).and_then(JsonValue::as_str);
    assert_eq!(field("command"), Some("experiment"));
    assert_eq!(field("target"), Some("MiniSOC"));
    let counter = |name: &str| {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .expect("counter present")
    };
    assert!(counter("patterns_final") > 0);
    assert!(counter("podem_calls") > 0);
    let cores = parsed
        .get("cores")
        .and_then(JsonValue::as_array)
        .expect("cores");
    let last = cores.last().and_then(|c| c.get("core"));
    assert_eq!(last.and_then(JsonValue::as_str), Some("<monolithic>"));
    assert!(!m1.contains("NaN") && !m1.contains("inf"), "{m1}");

    // Deterministic sections are byte-identical at --jobs 1 vs 4 through
    // the shell-style line filter.
    assert_eq!(volatile_filtered(&m1), volatile_filtered(&m4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_zero_runs_one_worker_per_hardware_thread() {
    use modsoc::analysis::metrics::json::{self, JsonValue};
    let dir = std::env::temp_dir().join(format!("modsoc_cli_jobs0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("m.json");
    let out = modsoc(&[
        "experiment",
        "mini",
        "--jobs",
        "0",
        "--metrics",
        path.to_str().expect("utf8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let parsed = json::parse(&text).expect("valid metrics JSON");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert_eq!(
        parsed.get("jobs").and_then(JsonValue::as_u64),
        Some(threads as u64),
        "--jobs 0 means auto"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_keep_going_partial_failure_still_writes_metrics() {
    use modsoc::analysis::metrics::json::{self, JsonValue};
    let dir = std::env::temp_dir().join(format!("modsoc_cli_metkg_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let soc_path = dir.join("poisoned.soc");
    std::fs::write(
        &soc_path,
        "soc mixed\n\
         core good_a i=4 o=3 s=20 t=100\n\
         core poisoned i=1 o=1 s=18446744073709551615 t=18446744073709551615\n",
    )
    .expect("write soc");
    let metrics_path = dir.join("m.json");
    let out = modsoc(&[
        "analyze",
        soc_path.to_str().expect("utf8 path"),
        "--keep-going",
        "--metrics",
        metrics_path.to_str().expect("utf8 path"),
    ]);
    // Degraded run: exit 2, but the metrics report is still written and
    // records the per-core outcomes, failure included.
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics_path).expect("metrics written on partial run");
    let parsed = json::parse(&text).expect("valid metrics JSON");
    assert_eq!(
        parsed.get("command").and_then(JsonValue::as_str),
        Some("analyze")
    );
    let outcomes: Vec<(&str, &str)> = parsed
        .get("cores")
        .and_then(JsonValue::as_array)
        .expect("cores")
        .iter()
        .map(|c| {
            let field = |key: &str| c.get(key).and_then(JsonValue::as_str).unwrap_or_default();
            (field("core"), field("outcome"))
        })
        .collect();
    assert!(outcomes.contains(&("good_a", "ok")), "{outcomes:?}");
    assert!(outcomes.contains(&("poisoned", "FAILED")), "{outcomes:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_budget_trip_on_monolithic_only_exits_2() {
    // mini's cores stay under a 70-pattern cap end to end, but the
    // flattened monolithic run does not: the budget trips only in the
    // "<monolithic>" pseudo-core, and that alone must make the run
    // partial (exit 2) while every real core still reports ok.
    let out = modsoc(&["experiment", "mini", "--max-patterns", "70"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Only the outcome table (after its "core ... outcome" header) has
    // per-core ok/partial labels; the TDV table above it also starts
    // rows with core names.
    let outcome_table: Vec<&str> = text
        .lines()
        .skip_while(|l| !(l.starts_with("core") && l.contains("outcome")))
        .collect();
    assert!(!outcome_table.is_empty(), "{text}");
    for line in &outcome_table {
        if line.starts_with("coreA") || line.starts_with("coreB") {
            assert!(line.contains("ok"), "core rows must be complete: {line}");
        }
        if line.starts_with("<monolithic>") {
            assert!(line.contains("partial"), "monolithic must trip: {line}");
        }
    }
    assert!(text.contains("<monolithic>"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("partial result"));
}

#[test]
fn version_flag_prints_the_crate_version() {
    for flag in ["--version", "-V"] {
        let out = modsoc(&[flag]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.trim(), concat!("modsoc ", env!("CARGO_PKG_VERSION")));
    }
}

#[test]
fn experiment_store_warm_run_is_byte_identical_with_cache_hits() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    let run = |jobs: &str| {
        let out = modsoc(&[
            "experiment",
            "mini",
            "--jobs",
            jobs,
            "--store",
            store.to_str().expect("utf8 path"),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8_lossy(&out.stderr).to_string())
    };
    let (cold_stdout, cold_stderr) = run("1");
    // Cold: 2 cores + monolithic, all computed and written.
    assert!(
        cold_stderr.contains("store: 0 hits, 3 misses, 3 writes"),
        "{cold_stderr}"
    );
    // Warm runs are byte-identical on stdout at any --jobs, with one
    // cache hit per engine run reported on stderr.
    for jobs in ["1", "4"] {
        let (warm_stdout, warm_stderr) = run(jobs);
        assert_eq!(warm_stdout, cold_stdout, "jobs={jobs}");
        assert!(
            warm_stderr.contains("store: 3 hits, 0 misses, 0 writes"),
            "{warm_stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_runs_then_resumes_by_skipping_journaled_units() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_campaign_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"schema":1,"name":"cli","units":[
            {"name":"m7","soc":"mini","seed":7},
            {"name":"m9","soc":"mini","seed":9}
        ]}"#,
    )
    .expect("write spec");
    let store = dir.join("store");
    let run = || {
        let out = modsoc(&[
            "campaign",
            spec.to_str().expect("utf8 path"),
            "--store",
            store.to_str().expect("utf8 path"),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let first = run();
    assert!(first.contains("campaign cli (2 units)"), "{first}");
    assert_eq!(first.matches(" ok ").count(), 2, "{first}");
    let second = run();
    assert_eq!(second.matches("skipped").count(), 2, "{second}");
    // Skipped rows reprint the journaled numbers: the reports agree
    // apart from the status column.
    let normalized = |report: &str| {
        report
            .lines()
            .map(|l| {
                let l = l.split_whitespace().collect::<Vec<_>>().join(" ");
                l.replace(" ok ", " * ").replace(" skipped ", " * ")
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(normalized(&first), normalized(&second));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_without_store_is_an_error() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_campns_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"schema":1,"name":"x","units":[{"name":"m","soc":"mini"}]}"#,
    )
    .expect("write spec");
    let out = modsoc(&["campaign", spec.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_soc1_fixture_reproduces_table_1() {
    let out = modsoc(&[
        "analyze",
        "testdata/soc1.soc",
        "--exclude-chip-pins",
        "--measured-tmono",
        "216",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("45,183"), "{text}");
    assert!(text.contains("129,816"), "{text}");
}

#[test]
fn index_summarizes_soc_files() {
    let out = modsoc(&["index", "testdata/soc2.soc"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cores"), "{text}");
    assert!(text.contains("scan cells"), "{text}");
}

#[test]
fn index_summarizes_bench_files_and_counts_dead_logic() {
    // The flip-flop becomes a scan input plus a scan output (n1), so only
    // `dead` reaches no output of the test model.
    let dir = std::env::temp_dir().join(format!("modsoc_cli_index_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bench = dir.join("dead.bench");
    std::fs::write(
        &bench,
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nf = DFF(n1)\nn1 = AND(a, f)\ndead = NOT(b)\ny = OR(n1, b)\n",
    )
    .expect("write bench");
    let out = modsoc(&["index", bench.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "6 nodes | 5 fanout edges | depth 2 | 1 dead nodes | mean fanout cone 2.2\n"
    );
}

#[test]
fn analyze_keep_going_output_is_jobs_invariant() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_jobs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let soc_path = dir.join("inv.soc");
    std::fs::write(
        &soc_path,
        "soc demo\ncore top i=8 o=4 s=0 t=2 children=a,b\ncore a i=4 o=2 s=16 t=40\ncore b i=3 o=3 s=8 t=20\n",
    )
    .expect("write soc");
    let path = soc_path.to_str().expect("utf8 path");
    let run = |jobs: &str| {
        let out = modsoc(&["analyze", path, "--keep-going", "--jobs", jobs]);
        assert_eq!(out.status.code(), Some(0));
        out.stdout
    };
    assert_eq!(run("1"), run("4"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_keep_going_honours_measured_tmono() {
    let out = modsoc(&[
        "analyze",
        "testdata/soc1.soc",
        "--exclude-chip-pins",
        "--measured-tmono",
        "216",
        "--keep-going",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("129,816"), "{text}");
    assert!(text.contains("reduction ratio = 2.87"), "{text}");
}

#[test]
fn stray_positionals_and_repeated_flags_are_errors() {
    for (args, message) in [
        (
            &["analyze", "a.soc", "b.soc"][..],
            "unexpected argument `b.soc`",
        ),
        (
            &["experiment", "mini", "soc2"][..],
            "unexpected argument `soc2`",
        ),
        (
            &["experiment", "mini", "--jobs", "2", "--jobs", "4"][..],
            "--jobs given twice",
        ),
    ] {
        let out = modsoc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}

#[test]
fn store_sweeps_refuse_a_directory_without_a_store() {
    let dir = std::env::temp_dir().join(format!("modsoc_cli_nostore_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let missing = dir.join("typo");
    let missing = missing.to_str().expect("utf8 path");
    for args in [
        &["store", "verify", missing][..],
        &["store", "gc", missing, "--max-bytes", "1"][..],
    ] {
        let out = modsoc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("no store at"));
        assert!(!dir.exists(), "{args:?} created {}", dir.display());
    }
    // An existing directory that holds no store stays untouched too.
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = modsoc(&["store", "verify", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(std::fs::read_dir(&dir).expect("readable").count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_pipe_does_not_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args(["index", "testdata/soc2.soc"])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
