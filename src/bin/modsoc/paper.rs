//! The paper's pipeline: `analyze` (Eq. 1–8 over a `.soc` file),
//! `experiment` (live Tables 1/2), `campaign`, the `store` sweeps and
//! `demo`.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use modsoc::analysis::campaign::{run_campaign, CampaignSpec, ClaimOptions, UnitStatus};
use modsoc::analysis::experiment::{run_soc_experiment_guarded, ExperimentOptions};
use modsoc::analysis::metrics::{
    analysis_run_metrics, run_soc_experiment_metered, Phase, PhaseTimer, RecordingSink,
};
use modsoc::analysis::remote::HttpBackend;
use modsoc::analysis::report::{
    fmt_u64, render_analyze_report, render_core_table, render_metrics_table, render_outcome_table,
};
use modsoc::analysis::runctl::analyze_soc_guarded;
use modsoc::analysis::{AnalysisError, RunBudget, SocTdvAnalysis, TdvOptions};
use modsoc::metrics::NullSink;
use modsoc::soc::format::parse_soc;
use modsoc::soc::Soc;
use modsoc::store::{LocalBackend, ResultStore};

use crate::{read_file, write_metrics, Args, CliError, RunStatus};

/// The SOC's TDV analysis, against the `--measured-tmono` monolithic
/// pattern count when one is given.
fn soc_analysis(
    soc: &Soc,
    options: &TdvOptions,
    measured_tmono: Option<u64>,
) -> Result<SocTdvAnalysis, AnalysisError> {
    match measured_tmono {
        Some(t) => SocTdvAnalysis::compute_with_measured_tmono(soc, options, t),
        None => SocTdvAnalysis::compute(soc, options),
    }
}

pub(crate) fn analyze(a: &Args) -> Result<RunStatus, CliError> {
    let started = std::time::Instant::now();
    let sink = RecordingSink::new();
    let path = a.operand();
    let text = read_file(path)?;
    let soc = {
        let _t = PhaseTimer::start(&sink, Phase::Parse);
        parse_soc(&text).map_err(|e| e.to_string())?
    };
    let mut options = if a.has("--exclude-chip-pins") {
        TdvOptions::tables_1_2()
    } else {
        TdvOptions::tables_3_4()
    };
    if let Some(r) = a.num::<f64>("--reuse")? {
        if !(0.0..=1.0).contains(&r) {
            return Err(CliError::Usage("--reuse must be between 0 and 1".into()));
        }
        options = options.with_functional_reuse(r);
    }
    let measured_tmono = a.num("--measured-tmono")?;
    let jobs = a.jobs()?;
    let (status, outcomes) = if a.has("--keep-going") {
        // Degraded mode: poisoned cores become typed per-core outcomes;
        // healthy cores still get their rows and the outcome table shows
        // who failed and why. Per-core arithmetic fans across the pool;
        // the output is identical at any --jobs value.
        let completion = analyze_soc_guarded(&soc, &options, jobs, &sink);
        // Every core is healthy, so the full analysis is valid too,
        // unless a SOC-level quantity overflows.
        let analysis = if completion.is_complete() {
            match soc_analysis(&soc, &options, measured_tmono) {
                Ok(analysis) => Ok(analysis),
                Err(e @ AnalysisError::Overflow { .. }) => Err(e.to_string()),
                Err(e) => return Err(e.to_string().into()),
            }
        } else {
            Err(format!(
                "{} of {} cores failed",
                completion.failed_cores().len(),
                completion.per_core_outcomes.len()
            ))
        };
        println!("{soc}");
        for row in &completion.result {
            println!(
                "{:<16} ISOCOST {:>8}  TDV {:>15}",
                row.name,
                row.isocost,
                fmt_u64(row.volume.total())
            );
        }
        if let Some(analysis) = analysis.as_ref().ok().filter(|an| an.t_mono_is_measured()) {
            // The strict table's SOC-level lines: totals, the measured
            // monolithic row and the reduction ratios.
            let table = render_core_table(&soc, analysis);
            for line in table.lines().skip(1 + soc.core_count()) {
                println!("{line}");
            }
        }
        println!();
        println!("{}", render_outcome_table(&completion.per_core_outcomes));
        let status = match &analysis {
            Ok(analysis) => {
                println!(
                    "modular change vs optimistic monolithic: {:+.1}%",
                    analysis.modular_change_pct()
                );
                RunStatus::Complete
            }
            Err(why) => {
                eprintln!("warning: {why}; SOC-level totals suppressed");
                RunStatus::Partial
            }
        };
        (status, completion.per_core_outcomes)
    } else {
        // Strict mode: a core or SOC-level quantity that overflows the
        // TDV equations is a hard error.
        let analysis = {
            let _t = PhaseTimer::start(&sink, Phase::TdvAnalysis);
            soc_analysis(&soc, &options, measured_tmono).map_err(|e| match e {
                AnalysisError::Overflow { .. } => {
                    format!("{e}; rerun with --keep-going for the per-core rows that fit")
                }
                e => e.to_string(),
            })?
        };
        // One shared renderer with `modsoc serve`'s text mode, so the CI
        // serve gate can byte-diff a served report against this stdout.
        print!("{}", render_analyze_report(&soc, &analysis));
        (RunStatus::Complete, Vec::new())
    };
    if let Some(out) = a.get("--metrics") {
        let metrics = analysis_run_metrics(
            "analyze",
            path,
            jobs,
            started.elapsed().as_secs_f64() * 1e3,
            &RunBudget::unlimited(),
            &sink,
            &outcomes,
        );
        write_metrics(out, &metrics)?;
    }
    Ok(status)
}

/// Run the live modular-vs-monolithic experiment on one of the built-in
/// SOC netlist constructions, guarded and budgeted, with the per-core
/// phase fanned across `--jobs` pool workers and the monolithic run's
/// fault-sim sweeps sharded across as many.
pub(crate) fn experiment(a: &Args) -> Result<RunStatus, CliError> {
    let seed: u64 = a.num_or("--seed", 1)?;
    let netlist = match a.operand() {
        "mini" => modsoc::circuitgen::soc::mini_soc(seed),
        "soc1" => modsoc::circuitgen::soc::soc1(seed),
        "soc2" => modsoc::circuitgen::soc::soc2(seed),
        other => {
            return Err(CliError::Usage(format!(
                "experiment needs one of mini|soc1|soc2, got {other:?}"
            )))
        }
    }
    .map_err(|e| e.to_string())?;

    let mut options = ExperimentOptions::paper_tables_1_2()
        .with_jobs(a.jobs()?)
        .with_fail_fast(a.has("--fail-fast"));
    if a.has("--skip-monolithic") {
        options = options.modular_only();
    }
    let store = a.store()?;
    if let Some(store) = &store {
        options = options
            .with_store(Arc::clone(store))
            .with_store_read(!a.has("--no-store-read"));
    }
    let budget = a.budget()?;
    let metrics_out = a.get("--metrics");
    let (completion, metrics) = if metrics_out.is_some() {
        // Metered run: each core's engine (and the monolithic run)
        // reports into its own recording sink; results are
        // byte-identical to the unmetered path.
        let metered =
            run_soc_experiment_metered(&netlist, &options, &budget).map_err(|e| e.to_string())?;
        (metered.completion, Some(metered.metrics))
    } else {
        (
            run_soc_experiment_guarded(&netlist, &options, &budget).map_err(|e| e.to_string())?,
            None,
        )
    };

    let exp = &completion.result;
    println!("{}", render_core_table(&exp.soc, &exp.analysis));
    if options.monolithic {
        println!(
            "monolithic ATPG: T_mono = {} (max core {}), coverage {:.2}%, eq.2 strict: {}",
            exp.t_mono,
            exp.soc.max_core_patterns(),
            exp.mono_coverage * 100.0,
            exp.eq2_strict
        );
    } else {
        println!(
            "monolithic phase skipped: T_mono bounded below by max core = {}",
            exp.t_mono
        );
    }
    println!();
    println!("{}", render_outcome_table(&completion.per_core_outcomes));
    if let (Some(out), Some(metrics)) = (metrics_out, &metrics) {
        println!("{}", render_metrics_table(metrics));
        write_metrics(out, metrics)?;
    }
    if let Some(store) = &store {
        // Stderr, so warm and cold stdout reports diff clean.
        eprintln!("store: {}", store.traffic_summary());
    }
    if completion.is_complete() {
        return Ok(RunStatus::Complete);
    }
    if let Some(e) = &completion.exhausted {
        eprintln!("warning: partial result — {e}");
    }
    let failed = completion.failed_cores().len();
    if failed > 0 {
        eprintln!(
            "warning: {failed} of {} stages failed",
            completion.per_core_outcomes.len()
        );
    }
    Ok(RunStatus::Partial)
}

/// Run a resumable campaign of SOC experiments from a JSON spec,
/// journaling per-unit completion into the `--store` directory so a
/// re-invocation skips everything that already finished.
pub(crate) fn campaign(a: &Args) -> Result<RunStatus, CliError> {
    let spec = CampaignSpec::from_json(&read_file(a.operand())?).map_err(|e| e.to_string())?;
    // The journal lives in the store, so a store is not optional here:
    // either a local directory or the URL of a `modsoc serve --store`
    // daemon shared by concurrent workers.
    let url = a.get("--store-url");
    let store = match (a.store()?, url) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "give either --store DIR or --store-url URL, not both".into(),
            ))
        }
        (Some(store), None) => store,
        (None, Some(url)) => {
            let backend = HttpBackend::connect(url, Duration::from_secs(10))
                .map_err(|e| format!("connecting to store daemon: {e}"))?;
            Arc::new(ResultStore::with_backend(Arc::new(backend)))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "campaign requires --store DIR or --store-url URL (the journal lives there)".into(),
            ))
        }
    };
    let options = ExperimentOptions::paper_tables_1_2()
        .with_jobs(a.jobs()?)
        .with_store(Arc::clone(&store))
        .with_store_read(!a.has("--no-store-read"));
    // Units are claimed through the store, so concurrent workers over
    // one spec and one store partition the work.
    let mut claims = a
        .get("--owner")
        .map_or_else(ClaimOptions::default, ClaimOptions::new);
    if let Some(ms) = a.num("--claim-lease-ms")? {
        claims = claims.with_lease(Duration::from_millis(ms));
    }
    if let Some(ms) = a.num("--claim-wait-ms")? {
        claims = claims.with_wait(Duration::from_millis(ms));
    }
    let report = run_campaign(
        &spec,
        &options,
        &a.budget()?,
        &store,
        a.has("--keep-going"),
        &claims,
        &NullSink,
    )
    .map_err(|e| e.to_string())?;

    println!("campaign {} ({} units)", report.name, report.units.len());
    println!(
        "{:<16} {:<8} {:>8} {:>15} {:>15} {:>7}",
        "unit", "status", "T_mono", "TDV modular", "TDV monolithic", "ratio"
    );
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), fmt_u64);
    for row in &report.units {
        println!(
            "{:<16} {:<8} {:>8} {:>15} {:>15} {:>7}{}",
            row.unit,
            row.status.label(),
            row.t_mono
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            opt(row.tdv_modular),
            opt(row.tdv_monolithic),
            row.reduction_ratio
                .map_or_else(|| "-".to_string(), |r| format!("{r:.2}")),
            if row.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", row.note)
            }
        );
    }
    eprintln!("store: {}", store.traffic_summary());
    if report.is_complete() {
        Ok(RunStatus::Complete)
    } else {
        let skipped = report.count(&UnitStatus::Skipped);
        let done = report.count(&UnitStatus::Complete);
        eprintln!(
            "warning: campaign incomplete ({} of {} units done); re-run to resume",
            skipped + done,
            report.units.len()
        );
        Ok(RunStatus::Partial)
    }
}

/// Open the store that `modsoc store <gc|verify> <DIR>` sweeps. These
/// run where the bytes live: to bound or audit the store behind a
/// `modsoc serve --store` daemon, run them on the daemon's directory
/// (entries are advisory-locked per key, so a sweep is safe next to a
/// live server). A directory that holds no store is an error, never a
/// fresh empty store.
fn existing_store(dir: &str) -> Result<ResultStore, String> {
    let dir_path = Path::new(dir);
    if !LocalBackend::exists_at(dir_path) {
        return Err(format!("no store at {dir}"));
    }
    ResultStore::open(dir_path).map_err(|e| format!("opening store {dir}: {e}"))
}

pub(crate) fn store_gc(a: &Args) -> Result<RunStatus, CliError> {
    let max_bytes: u64 = a.required("--max-bytes")?;
    let store = existing_store(a.operand())?;
    let report = store.gc(max_bytes, &NullSink).map_err(|e| e.to_string())?;
    println!(
        "store gc: scanned {}, evicted {} ({} bytes), kept {} ({} bytes, bound {})",
        report.scanned,
        report.evicted.len(),
        report.evicted_bytes,
        report.kept,
        report.kept_bytes,
        max_bytes
    );
    Ok(RunStatus::Complete)
}

pub(crate) fn store_verify(a: &Args) -> Result<RunStatus, CliError> {
    let store = existing_store(a.operand())?;
    let (valid, corrupt) = store.verify_all().map_err(|e| e.to_string())?;
    println!("store verify: {valid} valid, {corrupt} corrupt");
    if corrupt == 0 {
        Ok(RunStatus::Complete)
    } else {
        Err(format!("{corrupt} corrupt store entries").into())
    }
}

pub(crate) fn demo(a: &Args) -> Result<RunStatus, CliError> {
    let mode = a.operand();
    let known = modsoc::demo::MODES.iter().any(|(name, _)| *name == mode);
    let report = modsoc::demo::run(mode).map_err(|e| {
        if known {
            CliError::Failed(e.to_string())
        } else {
            CliError::Usage(e.to_string())
        }
    })?;
    print!("{report}");
    Ok(RunStatus::Complete)
}
