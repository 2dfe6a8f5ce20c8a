//! `modsoc tam`: rectangle bin-packing wrapper/TAM co-optimization
//! over the ITC'02 SOCs.

use modsoc::analysis::metrics::{analysis_run_metrics, Phase, PhaseTimer, RecordingSink};
use modsoc::analysis::report::fmt_u64;
use modsoc::analysis::RunBudget;
use modsoc::metrics::json::write_json_string;
use modsoc::soc::itc02;

use crate::{write_file, write_metrics, Args, CliError, RunStatus};

/// One `modsoc tam` comparison row.
struct TamRow {
    soc: String,
    cores: usize,
    pack_time: u64,
    utilization: f64,
    backfills: usize,
    best_arch: &'static str,
    best_time: u64,
    /// `Some(Ok((time, peak)))` when a `--power-ceiling` packing exists,
    /// `Some(Err(reason))` when it is infeasible, `None` when no ceiling
    /// was requested.
    constrained: Option<Result<(u64, u64), String>>,
}

fn tam_arch_label(arch: Option<modsoc::tam::TamArchitecture>) -> &'static str {
    use modsoc::tam::TamArchitecture;
    match arch {
        None => "rectangles",
        Some(TamArchitecture::Multiplexing) => "multiplexing",
        Some(TamArchitecture::Daisychain) => "daisychain",
        Some(TamArchitecture::Distribution) => "distribution",
    }
}

/// The `modsoc tam` sweep set: the builtin SOCs plus every Table 4
/// ITC'02 SOC (p34392 from the embedded Table 3 data, the other nine
/// analytically reconstructed). `only` restricts to one name.
fn tam_soc_list(only: Option<&str>) -> Result<Vec<(String, modsoc::soc::Soc)>, CliError> {
    let mut socs = vec![
        ("soc1".to_string(), itc02::soc1()),
        ("soc2".to_string(), itc02::soc2()),
    ];
    let table4 = modsoc::analysis::reconstruct::table4_socs()
        .map_err(|e| format!("reconstructing Table 4: {e}"))?;
    socs.extend(table4.into_iter().map(|soc| (soc.name().to_string(), soc)));
    match only {
        None => Ok(socs),
        Some(name) => {
            socs.retain(|(n, _)| n == name);
            if socs.is_empty() {
                return Err(CliError::Usage(format!(
                    "unknown soc `{name}` (expected soc1, soc2, or a Table 4 name)"
                )));
            }
            Ok(socs)
        }
    }
}

/// Rectangle bin-packing wrapper/TAM co-optimization over the ITC'02
/// SOCs: pack each SOC's Pareto wrapper rectangles under a TAM width
/// budget (diagonal-length-first, idle-time backfill) and compare test
/// time and utilization against the existing architecture sweep's best.
pub(crate) fn tam(a: &Args) -> Result<RunStatus, CliError> {
    use modsoc::tam::binpack::pack_metered;
    use modsoc::tam::constraints::{pack_constrained_metered, packed_peak_power, power_cores};
    use modsoc::tam::optimize::best_at_width;
    use modsoc::tam::wrapper::WrapperCore;
    use modsoc::tam::TamError;

    let started = std::time::Instant::now();
    let width: usize = a.num_or("--width", 16)?;
    if width == 0 {
        return Err(CliError::Usage("--width must be at least one".into()));
    }
    let chains: usize = a.num_or("--chains", 8)?;
    if chains == 0 {
        return Err(CliError::Usage("--chains must be at least one".into()));
    }
    let ceiling: Option<u64> = a.num("--power-ceiling")?;
    let jobs = a.jobs()?;
    let socs = tam_soc_list(a.positional)?;

    // Per-SOC packing fans across the pool; each row is a pure function
    // of (SOC, width, chains, ceiling), so the table, JSON and every
    // non-wall-time metrics field are byte-identical at any --jobs.
    let sink = RecordingSink::new();
    let pool = modsoc::analysis::WorkerPool::new(jobs);
    let rows: Vec<Result<TamRow, String>> = pool.map_with_sink(&socs, &sink, |_, (name, soc)| {
        let cores: Vec<WrapperCore> = soc
            .iter()
            .filter(|(_, c)| c.patterns > 0)
            .map(|(_, c)| WrapperCore::from_core_spec(c, chains))
            .collect();
        if cores.is_empty() {
            return Err(format!("soc {name} has no cores with patterns"));
        }
        let _t = PhaseTimer::start(&sink, Phase::TamPack);
        let packed = pack_metered(&cores, width, &sink).map_err(|e| format!("{name}: {e}"))?;
        let best = best_at_width(&cores, width).map_err(|e| format!("{name}: {e}"))?;
        let constrained = ceiling.map(|ceiling| {
            let pcs = power_cores(&cores);
            match pack_constrained_metered(&pcs, width, ceiling, &sink) {
                Ok(s) => Ok((s.makespan(), packed_peak_power(&s, &pcs))),
                Err(e @ TamError::Infeasible { .. }) => Err(e.to_string()),
                Err(e) => Err(format!("{name}: {e}")),
            }
        });
        Ok(TamRow {
            soc: name.clone(),
            cores: cores.len(),
            pack_time: packed.makespan(),
            utilization: packed.utilization(),
            backfills: packed.backfills(),
            best_arch: tam_arch_label(best.architecture),
            best_time: best.time,
            constrained,
        })
    });
    let rows: Vec<TamRow> = rows.into_iter().collect::<Result<_, _>>()?;

    match ceiling {
        Some(c) => {
            println!("tam co-optimization: width {width}, {chains} chains/core, power ceiling {c}")
        }
        None => println!("tam co-optimization: width {width}, {chains} chains/core"),
    }
    println!(
        "{:<10} {:>5} {:>13} {:>6} {:>9}  {:<13} {:>13} {:>8}  verdict",
        "soc", "cores", "packed", "util%", "backfills", "best sweep", "time", "delta%"
    );
    let mut wins = 0usize;
    for r in &rows {
        let delta = if r.best_time == 0 {
            0.0
        } else {
            (r.pack_time as f64 - r.best_time as f64) / r.best_time as f64 * 100.0
        };
        let verdict = if r.pack_time < r.best_time {
            wins += 1;
            "wins"
        } else if r.pack_time == r.best_time {
            wins += 1;
            "ties"
        } else {
            // The acceptance contract: losses are explicit, not hidden.
            "LOSES"
        };
        print!(
            "{:<10} {:>5} {:>13} {:>6.1} {:>9}  {:<13} {:>13} {:>+8.1}  {}",
            r.soc,
            r.cores,
            fmt_u64(r.pack_time),
            r.utilization * 100.0,
            r.backfills,
            r.best_arch,
            fmt_u64(r.best_time),
            delta,
            verdict
        );
        match &r.constrained {
            None => println!(),
            Some(Ok((time, peak))) => println!("  | constrained {} peak {peak}", fmt_u64(*time)),
            Some(Err(reason)) => println!("  | constrained infeasible: {reason}"),
        }
    }
    println!("packed time <= best sweep on {wins} of {} SOCs", rows.len());

    if let Some(path) = a.get("--json") {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"command\": \"tam\",\n");
        use std::fmt::Write as _;
        let _ = writeln!(out, "  \"width\": {width},");
        let _ = writeln!(out, "  \"chains\": {chains},");
        match ceiling {
            Some(c) => {
                let _ = writeln!(out, "  \"power_ceiling\": {c},");
            }
            None => out.push_str("  \"power_ceiling\": null,\n"),
        }
        out.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str("    {\"soc\": ");
            write_json_string(&r.soc, &mut out);
            let _ = write!(
                out,
                ", \"cores\": {}, \"pack_time\": {}, \"utilization\": {:.4}, \
                 \"backfills\": {}, \"best_arch\": \"{}\", \"best_time\": {}",
                r.cores, r.pack_time, r.utilization, r.backfills, r.best_arch, r.best_time,
            );
            match &r.constrained {
                None => {}
                Some(Ok((time, peak))) => {
                    let _ = write!(
                        out,
                        ", \"constrained_time\": {time}, \"peak_power\": {peak}"
                    );
                }
                Some(Err(reason)) => {
                    out.push_str(", \"infeasible\": ");
                    write_json_string(reason, &mut out);
                }
            }
            out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
        }
        out.push_str("  ]\n}\n");
        write_file(path, out)?;
        println!("wrote {path}");
    }

    if let Some(out) = a.get("--metrics") {
        let target = a.positional.unwrap_or("itc02");
        let metrics = analysis_run_metrics(
            "tam",
            target,
            jobs,
            started.elapsed().as_secs_f64() * 1e3,
            &RunBudget::unlimited(),
            &sink,
            &[],
        );
        write_metrics(out, &metrics)?;
    }
    Ok(RunStatus::Complete)
}
