//! Rectangle bin-packing wrapper/TAM co-optimizer benchmark over the
//! ITC'02 SOCs.
//!
//! One row per SOC: the diagonal-length-first strip packer
//! (`modsoc_tam::binpack::pack`) at a 16-wire TAM budget, the existing
//! architecture sweep's best at the same width for comparison, and the
//! power-ceiling-constrained variant. The timing field sums packs over
//! widths {8, 16, 32, 64} so the gated number is a real workload rather
//! than a single microsecond-scale call. Deterministic fields
//! (`pack_time`, `best_time`, `constrained_time`, `backfills`) are pure
//! functions of the SOC tables — any drift means the heuristic changed,
//! which a timing tolerance must not absorb silently.
//!
//! * `--json <path>` writes the measurements as a JSON document; the
//!   checked-in `BENCH_tam.json` records the numbers at the time the
//!   packer landed. To re-baseline after an intentional change, run with
//!   `--json BENCH_tam.json` on a quiet machine and commit the file.
//! * `--check <baseline.json>` compares each SOC's `pack_ms` against the
//!   baseline (default tolerance +25%) and every deterministic field
//!   exactly; regressions exit nonzero.
//! * `--quick` drops the two largest SOCs (for CI smoke runs).
//! * `--repeat <n>` (default 3) keeps the per-row timing minimum;
//!   deterministic fields must agree across repeats.

use std::fmt::Write as _;
use std::time::Instant;

use modsoc_core::reconstruct::table4_socs;
use modsoc_metrics::json::{self, JsonValue};
use modsoc_soc::itc02;
use modsoc_soc::Soc;
use modsoc_tam::binpack::pack;
use modsoc_tam::constraints::{pack_constrained, packed_peak_power, power_cores, scan_power_model};
use modsoc_tam::optimize::best_at_width;
use modsoc_tam::wrapper::WrapperCore;

/// The width the deterministic comparison fields are recorded at.
const REPORT_WIDTH: usize = 16;
/// The widths summed into the gated `pack_ms` timing.
const TIMED_WIDTHS: [usize; 4] = [8, 16, 32, 64];
const CHAINS_PER_CORE: usize = 8;

struct PackRow {
    soc: String,
    cores: usize,
    pack_ms: f64,
    pack_time: u64,
    best_time: u64,
    backfills: usize,
    utilization: f64,
    constrained_time: u64,
    peak_power: u64,
    ceiling: u64,
}

fn soc_list() -> Result<Vec<(String, Soc)>, Box<dyn std::error::Error>> {
    let mut socs = vec![
        ("soc1".to_string(), itc02::soc1()),
        ("soc2".to_string(), itc02::soc2()),
    ];
    let table4 = table4_socs().map_err(|e| format!("reconstructing Table 4: {e}"))?;
    socs.extend(table4.into_iter().map(|soc| (soc.name().to_string(), soc)));
    Ok(socs)
}

fn measure(name: &str, soc: &Soc) -> Result<PackRow, Box<dyn std::error::Error>> {
    let cores: Vec<WrapperCore> = soc
        .iter()
        .filter(|(_, c)| c.patterns > 0)
        .map(|(_, c)| WrapperCore::from_core_spec(c, CHAINS_PER_CORE))
        .collect();

    let t = Instant::now();
    for w in TIMED_WIDTHS {
        let _ = pack(&cores, w).map_err(|e| format!("{name} at width {w}: {e}"))?;
    }
    let pack_ms = t.elapsed().as_secs_f64() * 1e3;

    let packed = pack(&cores, REPORT_WIDTH)?;
    let best = best_at_width(&cores, REPORT_WIDTH)?;

    // A ceiling midway between "one core at a time" and "everything at
    // once": half the total rating, floored at the hungriest single core
    // so the packing is always feasible.
    let pcs = power_cores(&cores);
    let total: u64 = cores.iter().map(scan_power_model).sum();
    let hungriest = cores.iter().map(scan_power_model).max().unwrap_or(0);
    let ceiling = hungriest.max(total / 2);
    let constrained = pack_constrained(&pcs, REPORT_WIDTH, ceiling)
        .map_err(|e| format!("{name} constrained: {e}"))?;

    Ok(PackRow {
        soc: name.to_string(),
        cores: cores.len(),
        pack_ms,
        pack_time: packed.makespan(),
        best_time: best.time,
        backfills: packed.backfills(),
        utilization: packed.utilization(),
        constrained_time: constrained.makespan(),
        peak_power: packed_peak_power(&constrained, &pcs),
        ceiling,
    })
}

/// Measure `repeat` times keeping the timing minimum; deterministic
/// fields must be identical across repeats.
fn measure_best_of(
    name: &str,
    soc: &Soc,
    repeat: usize,
) -> Result<PackRow, Box<dyn std::error::Error>> {
    let mut best = measure(name, soc)?;
    for _ in 1..repeat {
        let next = measure(name, soc)?;
        if next.pack_time != best.pack_time
            || next.best_time != best.best_time
            || next.constrained_time != best.constrained_time
            || next.backfills != best.backfills
        {
            return Err(format!(
                "soc {name}: deterministic fields diverged between repeats \
                 (pack_time {} vs {})",
                best.pack_time, next.pack_time
            )
            .into());
        }
        best.pack_ms = best.pack_ms.min(next.pack_ms);
    }
    Ok(best)
}

fn json_document(rows: &[PackRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"tam_pack_bench\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"soc\": \"{}\", \"cores\": {}, \"pack_ms\": {:.3}, \"pack_time\": {}, \
             \"best_time\": {}, \"backfills\": {}, \"utilization\": {:.4}, \
             \"constrained_time\": {}, \"peak_power\": {}, \"ceiling\": {}}}{sep}",
            r.soc,
            r.cores,
            r.pack_ms,
            r.pack_time,
            r.best_time,
            r.backfills,
            r.utilization,
            r.constrained_time,
            r.peak_power,
            r.ceiling,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The deterministic baseline fields compared exactly; drift in any of
/// them means the heuristic now makes different placements.
const DETERMINISTIC_FIELDS: [&str; 4] = ["pack_time", "best_time", "constrained_time", "backfills"];

fn row_field(row: &PackRow, field: &str) -> u64 {
    match field {
        "pack_time" => row.pack_time,
        "best_time" => row.best_time,
        "constrained_time" => row.constrained_time,
        "backfills" => row.backfills as u64,
        _ => unreachable!("unknown deterministic field"),
    }
}

/// Compare measured rows against a baseline document; returns regression
/// descriptions (empty = gate passes). SOCs missing from either side are
/// skipped (e.g. `--quick` vs a full baseline).
fn check_against_baseline(
    rows: &[PackRow],
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
            .find(|b| b.get("soc").and_then(JsonValue::as_str) == Some(row.soc.as_str()))
        else {
            eprintln!("note: soc {} not in baseline, skipping", row.soc);
            continue;
        };
        compared += 1;
        for field in DETERMINISTIC_FIELDS {
            let Some(base_v) = base.get(field).and_then(JsonValue::as_u64) else {
                continue;
            };
            let now = row_field(row, field);
            if base_v != now {
                failures.push(format!(
                    "{}: {field} changed {base_v} -> {now} (deterministic field; \
                     re-baseline only with an intentional heuristic change)",
                    row.soc
                ));
            }
        }
        if let Some(base_ms) = base.get("pack_ms").and_then(JsonValue::as_f64) {
            let limit = base_ms * (1.0 + tolerance);
            if row.pack_ms > limit {
                failures.push(format!(
                    "{}: pack_ms regressed {:.3}ms -> {:.3}ms (limit {:.3}ms at +{:.0}%)",
                    row.soc,
                    base_ms,
                    row.pack_ms,
                    limit,
                    tolerance * 100.0
                ));
            }
        }
    }
    if compared == 0 {
        return Err("no SOC overlaps between this run and the baseline".into());
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

    let mut socs = soc_list()?;
    if quick {
        // The two largest reconstructions dominate wall time; CI smoke
        // runs gate on the rest.
        socs.retain(|(n, _)| n != "t512505" && n != "a586710");
    }

    let mut rows = Vec::new();
    println!(
        "{:<10} {:>5} {:>9} {:>13} {:>13} {:>9} {:>6} {:>13} {:>11} {:>11}",
        "soc",
        "cores",
        "pack ms",
        "pack time",
        "best time",
        "backfill",
        "util%",
        "constrained",
        "peak",
        "ceiling"
    );
    for (name, soc) in &socs {
        let row = measure_best_of(name, soc, repeat)?;
        println!(
            "{:<10} {:>5} {:>9.3} {:>13} {:>13} {:>9} {:>6.1} {:>13} {:>11} {:>11}",
            row.soc,
            row.cores,
            row.pack_ms,
            row.pack_time,
            row.best_time,
            row.backfills,
            row.utilization * 100.0,
            row.constrained_time,
            row.peak_power,
            row.ceiling
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
                "{} regression(s) vs {path}; re-baseline with --json if intentional",
                failures.len()
            )
            .into());
        }
    }
    Ok(())
}
