//! Per-phase ATPG wall-clock benchmark over circuitgen profiles.
//!
//! Times the pieces the shared-structural-index rework touches, one
//! profile per row: index construction, fault collapsing, a PODEM sweep
//! over the collapsed representatives, and the full engine run (whose
//! pattern counts are the paper's core quantity). Each row also embeds
//! the engine's deterministic metrics counters (PODEM decisions,
//! fault-sim evaluations, …), so a perf diff can distinguish "the same
//! work got slower" from "the algorithm did different work".
//!
//! * `--json <path>` writes the measurements as a JSON document so
//!   successive runs can be diffed; the checked-in `BENCH_pr7.json`
//!   records the numbers at the time the wide-word fault-sim kernel
//!   landed.
//! * `--check <baseline.json>` re-runs the benchmark and compares each
//!   profile's phase times against the baseline document: any phase more
//!   than `--tolerance` (default 0.25 = +25%) slower, or any drift in
//!   the deterministic `patterns` count, is a regression and the process
//!   exits nonzero. Phase fields absent from a baseline row are skipped,
//!   so old baselines keep working. To re-baseline after an intentional
//!   perf change, run with `--json BENCH_pr7.json` on a quiet machine and
//!   commit the file.
//! * `--quick` drops the largest profile (for CI smoke runs).
//! * `--repeat <n>` (default 3) measures each profile `n` times and keeps
//!   the per-phase minimum — the robust estimator for a timing gate on a
//!   machine with background noise. Deterministic fields (pattern counts,
//!   engine counters) must agree across repeats or the bench errors out.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use modsoc_atpg::collapse::collapse_faults_with;
use modsoc_atpg::engine::{Atpg, AtpgOptions};
use modsoc_atpg::fault::Fault;
use modsoc_atpg::fault_sim::FaultSimulator;
use modsoc_atpg::podem::{Podem, PodemOutcome};
use modsoc_circuitgen::profile::iscas;
use modsoc_circuitgen::{generate, CoreProfile};
use modsoc_metrics::json::JsonValue;
use modsoc_metrics::{json, Counter, MetricsSink, MetricsSnapshot, NullSink, RecordingSink};
use modsoc_netlist::StructuralIndex;

struct PhaseRow {
    profile: String,
    gates: usize,
    collapsed_faults: usize,
    index_ms: f64,
    collapse_ms: f64,
    podem_sweep_ms: f64,
    podem_tests: usize,
    engine_ms: f64,
    /// Wide-kernel fault-sim sweep (the engine's final filled patterns
    /// against every collapsed representative) — the gated hot loop.
    fault_sim_ms: f64,
    /// The same sweep on the narrow 64-pattern reference path; reported
    /// for the speedup ratio but never gated (it is the old code).
    fault_sim_ref_ms: f64,
    patterns: usize,
    /// Deterministic engine counters for the full-engine run.
    engine_metrics: MetricsSnapshot,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn measure(profile: &CoreProfile) -> Result<PhaseRow, Box<dyn std::error::Error>> {
    let circuit = generate(profile)?;
    let model = circuit.to_test_model()?.circuit;

    let t = Instant::now();
    let index = Arc::new(StructuralIndex::build(&model)?);
    let index_ms = ms(t);

    let t = Instant::now();
    let collapsed = collapse_faults_with(&model, &index);
    let collapse_ms = ms(t);
    let reps: Vec<Fault> = collapsed.representatives().to_vec();

    let t = Instant::now();
    let mut podem = Podem::with_index(&model, Arc::clone(&index), 200)?;
    let mut podem_tests = 0usize;
    for &f in &reps {
        if matches!(podem.generate(f)?, PodemOutcome::Test(_)) {
            podem_tests += 1;
        }
    }
    let podem_sweep_ms = ms(t);

    let sink = Arc::new(RecordingSink::new());
    let t = Instant::now();
    let result = Atpg::with_sink(
        AtpgOptions::default(),
        Arc::clone(&sink) as Arc<dyn MetricsSink>,
    )
    .run(&circuit)?;
    let engine_ms = ms(t);

    // Fault-sim sweep: per-fault n-detect counts of the engine's final
    // filled patterns over every collapsed representative — the
    // full-matrix workload (no fault dropping) behind
    // `AtpgResult::n_detect_counts` and the diagnosis matrix (reverse
    // compaction is a dropping last-detector sweep, and no longer one of
    // these), where the narrow path must re-propagate every fault once
    // per 64-pattern chunk. Measured once on the wide blocked kernel and
    // once on the narrow reference; the counts must agree exactly, so
    // the bench doubles as a differential oracle on real-sized profiles.
    let filled = result.patterns.fill_all(result.fill);
    let mut fsim = FaultSimulator::with_index(&model, Arc::clone(&index))?;
    let t = Instant::now();
    let wide_counts = fsim.detection_counts(&filled, &reps, 1, &NullSink)?;
    let fault_sim_ms = ms(t);

    let t = Instant::now();
    let mut narrow_counts = vec![0u32; reps.len()];
    for chunk in filled.chunks(64) {
        for (c, m) in narrow_counts
            .iter_mut()
            .zip(fsim.detection_masks(chunk, &reps)?)
        {
            *c += m.count_ones();
        }
    }
    let fault_sim_ref_ms = ms(t);
    if wide_counts != narrow_counts {
        return Err(format!(
            "profile {}: wide and narrow fault-sim kernels disagree",
            profile.name
        )
        .into());
    }

    Ok(PhaseRow {
        profile: profile.name.clone(),
        gates: model.node_count(),
        collapsed_faults: reps.len(),
        index_ms,
        collapse_ms,
        podem_sweep_ms,
        podem_tests,
        engine_ms,
        fault_sim_ms,
        fault_sim_ref_ms,
        patterns: result.pattern_count(),
        engine_metrics: sink.snapshot(),
    })
}

/// Measure `profile` `repeat` times, keeping the minimum of each timing
/// field. Timing minima are robust against background-load noise;
/// deterministic fields must be identical across repeats.
fn measure_best_of(
    profile: &CoreProfile,
    repeat: usize,
) -> Result<PhaseRow, Box<dyn std::error::Error>> {
    let mut best = measure(profile)?;
    for _ in 1..repeat {
        let next = measure(profile)?;
        if next.patterns != best.patterns
            || !next.engine_metrics.deterministic_eq(&best.engine_metrics)
        {
            return Err(format!(
                "profile {}: deterministic fields diverged between repeats \
                 (patterns {} vs {})",
                profile.name, best.patterns, next.patterns
            )
            .into());
        }
        best.index_ms = best.index_ms.min(next.index_ms);
        best.collapse_ms = best.collapse_ms.min(next.collapse_ms);
        best.podem_sweep_ms = best.podem_sweep_ms.min(next.podem_sweep_ms);
        best.engine_ms = best.engine_ms.min(next.engine_ms);
        best.fault_sim_ms = best.fault_sim_ms.min(next.fault_sim_ms);
        best.fault_sim_ref_ms = best.fault_sim_ref_ms.min(next.fault_sim_ref_ms);
    }
    Ok(best)
}

fn json_document(rows: &[PhaseRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"atpg_phase_bench\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let mut counters = String::new();
        for (j, c) in Counter::ALL.iter().enumerate() {
            if j > 0 {
                counters.push_str(", ");
            }
            let _ = write!(
                counters,
                "\"{}\": {}",
                c.name(),
                r.engine_metrics.counter(*c)
            );
        }
        let _ = writeln!(
            out,
            "    {{\"profile\": \"{}\", \"gates\": {}, \"collapsed_faults\": {}, \
             \"index_ms\": {:.3}, \"collapse_ms\": {:.3}, \"podem_sweep_ms\": {:.3}, \
             \"podem_tests\": {}, \"engine_ms\": {:.3}, \"fault_sim_ms\": {:.3}, \
             \"fault_sim_ref_ms\": {:.3}, \"patterns\": {}, \
             \"counters\": {{{counters}}}}}{sep}",
            r.profile,
            r.gates,
            r.collapsed_faults,
            r.index_ms,
            r.collapse_ms,
            r.podem_sweep_ms,
            r.podem_tests,
            r.engine_ms,
            r.fault_sim_ms,
            r.fault_sim_ref_ms,
            r.patterns,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The phase-time fields a baseline row is compared on. A field missing
/// from a baseline row is skipped, so gating against a pre-`fault_sim_ms`
/// baseline still works. `fault_sim_ref_ms` is deliberately not gated —
/// it exists only to report the wide/narrow speedup ratio.
const CHECKED_PHASES: [&str; 5] = [
    "index_ms",
    "collapse_ms",
    "podem_sweep_ms",
    "engine_ms",
    "fault_sim_ms",
];

fn row_phase(row: &PhaseRow, field: &str) -> f64 {
    match field {
        "index_ms" => row.index_ms,
        "collapse_ms" => row.collapse_ms,
        "podem_sweep_ms" => row.podem_sweep_ms,
        "engine_ms" => row.engine_ms,
        "fault_sim_ms" => row.fault_sim_ms,
        _ => unreachable!("unknown checked phase field"),
    }
}

/// Compare measured rows against a baseline document; returns the list
/// of regression descriptions (empty = gate passes). Profiles missing
/// from either side are skipped (e.g. `--quick` vs a full baseline).
fn check_against_baseline(
    rows: &[PhaseRow],
    baseline: &JsonValue,
    tolerance: f64,
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let base_rows = baseline
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("baseline has no \"rows\" array")?;
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for row in rows {
        let Some(base) = base_rows
            .iter()
            .find(|b| b.get("profile").and_then(JsonValue::as_str) == Some(row.profile.as_str()))
        else {
            eprintln!("note: profile {} not in baseline, skipping", row.profile);
            continue;
        };
        compared += 1;
        // Pattern counts are deterministic: any drift means the engine
        // now does different work, which a timing tolerance must not
        // absorb silently.
        if let Some(base_patterns) = base.get("patterns").and_then(JsonValue::as_u64) {
            if base_patterns != row.patterns as u64 {
                failures.push(format!(
                    "{}: patterns changed {} -> {} (deterministic field; \
                     re-baseline only with an intentional algorithm change)",
                    row.profile, base_patterns, row.patterns
                ));
            }
        }
        for field in CHECKED_PHASES {
            let Some(base_ms) = base.get(field).and_then(JsonValue::as_f64) else {
                continue;
            };
            let now_ms = row_phase(row, field);
            let limit = base_ms * (1.0 + tolerance);
            if now_ms > limit {
                failures.push(format!(
                    "{}: {} regressed {:.3}ms -> {:.3}ms (limit {:.3}ms at +{:.0}%)",
                    row.profile,
                    field,
                    base_ms,
                    now_ms,
                    limit,
                    tolerance * 100.0
                ));
            }
        }
    }
    if compared == 0 {
        return Err("no profile overlaps between this run and the baseline".into());
    }
    Ok(failures)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut quick = false;
    let mut repeat = 3usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(it.next().ok_or("--json requires a path argument")?.clone());
            }
            "--check" => {
                check_path = Some(
                    it.next()
                        .ok_or("--check requires a baseline path argument")?
                        .clone(),
                );
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance requires a fraction argument")?
                    .parse()
                    .map_err(|_| "--tolerance must be a number (e.g. 0.25)")?;
                if tolerance.is_nan() || tolerance < 0.0 {
                    return Err("--tolerance must be non-negative".into());
                }
            }
            "--quick" => quick = true,
            "--repeat" => {
                repeat = it
                    .next()
                    .ok_or("--repeat requires a count argument")?
                    .parse()
                    .map_err(|_| "--repeat must be a positive integer")?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    let mut profiles = vec![iscas::s713(1), iscas::s1423(1)];
    if !quick {
        profiles.push(iscas::s13207(1));
        profiles.push(iscas::s15850(1));
    }
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>7} {:>7} {:>10} {:>12} {:>14} {:>10} {:>9} {:>9} {:>7} {:>10}",
        "profile",
        "gates",
        "faults",
        "index ms",
        "collapse ms",
        "podem ms",
        "engine ms",
        "fsim ms",
        "ref ms",
        "x",
        "patterns"
    );
    for p in &profiles {
        let row = measure_best_of(p, repeat)?;
        let speedup = if row.fault_sim_ms > 0.0 {
            row.fault_sim_ref_ms / row.fault_sim_ms
        } else {
            0.0
        };
        println!(
            "{:<10} {:>7} {:>7} {:>10.3} {:>12.3} {:>14.1} {:>10.1} {:>9.2} {:>9.2} {:>7.1} {:>10}",
            row.profile,
            row.gates,
            row.collapsed_faults,
            row.index_ms,
            row.collapse_ms,
            row.podem_sweep_ms,
            row.engine_ms,
            row.fault_sim_ms,
            row.fault_sim_ref_ms,
            speedup,
            row.patterns
        );
        rows.push(row);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, json_document(&rows))?;
        println!("wrote {path}");
    }

    if let Some(path) = check_path {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let baseline = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let failures = check_against_baseline(&rows, &baseline, tolerance)?;
        if failures.is_empty() {
            println!(
                "perf gate: OK vs {path} (tolerance +{:.0}%)",
                tolerance * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("perf gate: REGRESSION — {f}");
            }
            return Err(format!(
                "{} perf regression(s) vs {path}; re-baseline with --json if intentional",
                failures.len()
            )
            .into());
        }
    }
    Ok(())
}
