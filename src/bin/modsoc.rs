//! The `modsoc` command-line tool.
//!
//! `usage()` below is the one description of the subcommands, their
//! flags, the `--jobs`/`--metrics`/`--store` conventions and the exit
//! codes; the tool prints it after every argument error.
//!
//! Arguments are deliberately hand-parsed — the workspace's dependency
//! policy keeps the tree to the approved offline crates.

use std::process::ExitCode;
use std::time::Duration;

use std::sync::Arc;

use modsoc::analysis::campaign::{
    run_campaign, run_campaign_claimed, CampaignSpec, ClaimOptions, UnitStatus,
};
use modsoc::analysis::experiment::{run_soc_experiment_guarded, ExperimentOptions};
use modsoc::analysis::metrics::{
    analysis_run_metrics, run_soc_experiment_metered, Phase, PhaseTimer, RecordingSink, RunMetrics,
};
use modsoc::analysis::remote::HttpBackend;
use modsoc::analysis::report::{
    fmt_u64, render_analyze_report, render_core_table, render_metrics_table, render_outcome_table,
};
use modsoc::analysis::runctl::analyze_soc_guarded_jobs_metered;
use modsoc::analysis::serve::{http_request, HttpClient, HttpResponse, ServeConfig, Server};
use modsoc::analysis::tdv::core_tdv_checked;
use modsoc::analysis::{RunBudget, SocTdvAnalysis, TdvOptions};
use modsoc::atpg::{Atpg, AtpgOptions};
use modsoc::circuitgen::{generate, CoreProfile};
use modsoc::metrics::NullSink;
use modsoc::netlist::bench_format::{parse_bench, write_bench};
use modsoc::netlist::cone::extract_cones;
use modsoc::netlist::verilog::{dff_module, write_verilog};
use modsoc::netlist::CircuitStats;
use modsoc::soc::format::parse_soc;
use modsoc::soc::itc02;
use modsoc::store::ResultStore;

/// How a subcommand ended when it did not error.
enum RunStatus {
    /// Everything ran to completion.
    Complete,
    /// A budget tripped or a core degraded; partial output was produced.
    Partial,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(RunStatus::Complete) => ExitCode::SUCCESS,
        Ok(RunStatus::Partial) => ExitCode::from(2),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// The usage text: every subcommand with its flags, the demo modes
/// included.
fn usage() -> String {
    format!(
        "usage:
  modsoc analyze <file.soc> [--measured-tmono N] [--exclude-chip-pins] [--reuse F] [--keep-going]
                            [--jobs N] [--metrics FILE]
  modsoc experiment <mini|soc1|soc2> [--seed S] [--jobs N] [--fail-fast] [--skip-monolithic]
                                     [--timeout-ms N] [--max-patterns N] [--max-backtracks N]
                                     [--metrics FILE] [--store DIR] [--no-store-read]
  modsoc campaign <spec.json> (--store DIR | --store-url URL) [--jobs N] [--keep-going]
                              [--no-store-read] [--owner NAME] [--claim-lease-ms N]
                              [--claim-wait-ms N] [--timeout-ms N] [--max-patterns N]
                              [--max-backtracks N]
  modsoc store gc <DIR> --max-bytes N
  modsoc store verify <DIR>
  modsoc serve [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N]
               [--max-body-bytes N] [--request-timeout-ms N] [--read-timeout-ms N]
               [--write-timeout-ms N] [--retry-after-secs N] [--jobs N]
               [--keep-alive] [--keep-alive-max N] [--idle-timeout-ms N]
               [--batch-max N] [--batch-window-ms N] [--lane-weights L:H]
               [--store DIR] [--no-store-read]
  modsoc loadgen --addr HOST:PORT [--requests N] [--concurrency N] [--seed S]
                 [--keep-alive] [--bodies-out FILE] [--flood N] [--analyze-file FILE.soc]
                 [--shutdown] [--dump-metrics]
  modsoc atpg <file.bench> [--dynamic] [--timeout-ms N] [--max-patterns N] [--max-backtracks N]
                           [--patterns-out FILE] [--verilog-out FILE]
  modsoc generate --inputs N --outputs N --scan N [--seed S] [--bench-out FILE] [--verilog-out FILE]
  modsoc cones <file.bench>
  modsoc index <file.bench|file.soc>
  modsoc tdf <file.bench> [--timeout-ms N] [--max-backtracks N] [--patterns-out FILE]
  modsoc demo <{demo_modes}>
  modsoc tam [SOC] [--width N] [--chains N] [--power-ceiling P] [--jobs N] [--json FILE]
             [--metrics FILE]

--jobs N runs independent per-core work on N pool workers (0 = auto);
reports are identical at any value.
--metrics FILE writes a structured JSON run report; everything except
wall times, jobs and sched objects is identical at any --jobs value.
--store DIR caches engine results content-addressed on disk (warm runs
fetch instead of recomputing; reports stay byte-identical) and holds
campaign journals so interrupted campaigns resume where they stopped.
--store-url URL points campaign at a `modsoc serve --store` daemon
instead of a local directory; concurrent workers claim units through
the daemon so each unit's engine work runs exactly once.
modsoc store gc/verify sweep a local store directory: gc evicts
least-recently-used objects until the store fits --max-bytes, verify
reports corrupt entries (exit 1 when any are found).
exit codes: 0 complete, 2 partial (budget tripped / degraded cores), 1 error",
        demo_modes = modsoc::demo::mode_list()
    )
}

fn run(args: &[String]) -> Result<RunStatus, String> {
    match args.first().map(String::as_str) {
        Some("--version" | "-V") => {
            println!("modsoc {}", env!("CARGO_PKG_VERSION"));
            Ok(RunStatus::Complete)
        }
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("atpg") => cmd_atpg(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("cones") => cmd_cones(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("tdf") => cmd_tdf(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("tam") => cmd_tam(&args[1..]),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("a subcommand is required".into()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn positional(args: &[String]) -> Option<&str> {
    // First arg that is not a flag and not a flag's value.
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !matches!(
                a.as_str(),
                "--dynamic"
                    | "--exclude-chip-pins"
                    | "--keep-going"
                    | "--fail-fast"
                    | "--skip-monolithic"
                    | "--no-store-read"
                    | "--keep-alive"
                    | "--shutdown"
                    | "--dump-metrics"
            );
            continue;
        }
        return Some(a);
    }
    None
}

/// Reject unknown `--flags` and value flags with no following value, so
/// a typo'd or dangling flag is a hard error rather than a silently
/// unbudgeted run.
fn check_flags(args: &[String], bools: &[&str], values: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if values.contains(&a) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 1,
                    _ => return Err(format!("{a} requires a value")),
                }
            } else if !bools.contains(&a) {
                return Err(format!("unknown flag `{a}`"));
            }
        }
        i += 1;
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{what} is not a valid number: `{s}`"))
}

/// Build a [`RunBudget`] from the shared `--timeout-ms`,
/// `--max-patterns` and `--max-backtracks` flags (absent flags leave
/// that axis unlimited).
fn budget_from_flags(args: &[String]) -> Result<RunBudget, String> {
    let mut budget = RunBudget::unlimited();
    if let Some(ms) = flag_value(args, "--timeout-ms") {
        let ms: u64 = parse_num(ms, "--timeout-ms")?;
        budget = budget.with_timeout(Duration::from_millis(ms));
    }
    if let Some(n) = flag_value(args, "--max-patterns") {
        budget = budget.with_max_patterns(parse_num(n, "--max-patterns")?);
    }
    if let Some(n) = flag_value(args, "--max-backtracks") {
        budget = budget.with_max_backtracks(parse_num(n, "--max-backtracks")?);
    }
    Ok(budget)
}

/// Parse the shared `--jobs` flag (`0` = auto; absent = 1, sequential).
fn jobs_from_flags(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs") {
        Some(n) => parse_num(n, "--jobs"),
        None => Ok(1),
    }
}

/// Open the `--store` result store, if the flag was given.
fn open_store_from_flags(args: &[String]) -> Result<Option<Arc<ResultStore>>, String> {
    match flag_value(args, "--store") {
        Some(dir) => ResultStore::open(std::path::Path::new(dir))
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("opening store {dir}: {e}")),
        None => Ok(None),
    }
}

/// Write a `--metrics` report to `path`.
fn write_metrics(path: &str, metrics: &RunMetrics) -> Result<(), String> {
    std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote metrics to {path}");
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &["--exclude-chip-pins", "--keep-going"],
        &["--measured-tmono", "--reuse", "--jobs", "--metrics"],
    )?;
    let started = std::time::Instant::now();
    let sink = RecordingSink::new();
    let path = positional(args).ok_or("analyze needs a .soc file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let soc = {
        let _t = PhaseTimer::start(&sink, Phase::Parse);
        parse_soc(&text).map_err(|e| e.to_string())?
    };
    let mut options = if has_flag(args, "--exclude-chip-pins") {
        TdvOptions::tables_1_2()
    } else {
        TdvOptions::tables_3_4()
    };
    if let Some(r) = flag_value(args, "--reuse") {
        let r: f64 = parse_num(r, "--reuse")?;
        if !(0.0..=1.0).contains(&r) {
            return Err("--reuse must be between 0 and 1".into());
        }
        options = options.with_functional_reuse(r);
    }
    let jobs = jobs_from_flags(args)?;
    if has_flag(args, "--keep-going") {
        // Degraded mode: poisoned cores become typed per-core outcomes;
        // healthy cores still get their rows and the outcome table shows
        // who failed and why. Per-core arithmetic fans across the pool;
        // the output is identical at any --jobs value.
        let completion = analyze_soc_guarded_jobs_metered(&soc, &options, jobs, &sink);
        println!("{soc}");
        for row in &completion.result {
            println!(
                "{:<16} ISOCOST {:>8}  TDV {:>15}",
                row.name,
                row.isocost,
                fmt_u64(row.volume.total())
            );
        }
        println!();
        println!("{}", render_outcome_table(&completion.per_core_outcomes));
        let status = if completion.is_complete() {
            // Every core is healthy, so the full analysis is valid too.
            let analysis = SocTdvAnalysis::compute(&soc, &options).map_err(|e| e.to_string())?;
            println!(
                "modular change vs optimistic monolithic: {:+.1}%",
                analysis.modular_change_pct()
            );
            RunStatus::Complete
        } else {
            eprintln!(
                "warning: {} of {} cores failed; SOC-level totals suppressed",
                completion.failed_cores().len(),
                completion.per_core_outcomes.len()
            );
            RunStatus::Partial
        };
        if let Some(out) = flag_value(args, "--metrics") {
            let metrics = analysis_run_metrics(
                "analyze",
                path,
                jobs,
                started.elapsed().as_secs_f64() * 1e3,
                &RunBudget::unlimited(),
                &sink,
                &completion.per_core_outcomes,
            );
            write_metrics(out, &metrics)?;
        }
        return Ok(status);
    }
    // Strict mode: a core whose parameters overflow the TDV equations is
    // a hard error (the saturating equations would silently flatten it).
    for (id, core) in soc.iter() {
        if core_tdv_checked(&soc, id, &options).is_none() {
            return Err(format!(
                "core `{}` overflows the TDV equations (corrupt counts?); \
                 rerun with --keep-going to analyze the remaining cores",
                core.name
            ));
        }
    }
    let analysis = {
        let _t = PhaseTimer::start(&sink, Phase::TdvAnalysis);
        match flag_value(args, "--measured-tmono") {
            Some(t) => {
                let t: u64 = parse_num(t, "--measured-tmono")?;
                SocTdvAnalysis::compute_with_measured_tmono(&soc, &options, t)
                    .map_err(|e| e.to_string())?
            }
            None => SocTdvAnalysis::compute(&soc, &options).map_err(|e| e.to_string())?,
        }
    };
    // One shared renderer with `modsoc serve`'s text mode, so the CI
    // serve gate can byte-diff a served report against this stdout.
    print!("{}", render_analyze_report(&soc, &analysis));
    if let Some(out) = flag_value(args, "--metrics") {
        let metrics = analysis_run_metrics(
            "analyze",
            path,
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

/// Run the live modular-vs-monolithic experiment on one of the built-in
/// SOC netlist constructions, guarded and budgeted, with the per-core
/// phase fanned across `--jobs` pool workers.
fn cmd_experiment(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &["--fail-fast", "--skip-monolithic", "--no-store-read"],
        &[
            "--seed",
            "--jobs",
            "--timeout-ms",
            "--max-patterns",
            "--max-backtracks",
            "--metrics",
            "--store",
        ],
    )?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse_num(s, "--seed")?,
        None => 1,
    };
    let netlist = match positional(args) {
        Some("mini") => modsoc::circuitgen::soc::mini_soc(seed),
        Some("soc1") => modsoc::circuitgen::soc::soc1(seed),
        Some("soc2") => modsoc::circuitgen::soc::soc2(seed),
        other => {
            return Err(format!(
                "experiment needs one of mini|soc1|soc2, got {other:?}"
            ))
        }
    }
    .map_err(|e| e.to_string())?;

    let mut options = ExperimentOptions::paper_tables_1_2()
        .with_jobs(jobs_from_flags(args)?)
        .with_fail_fast(has_flag(args, "--fail-fast"));
    if has_flag(args, "--skip-monolithic") {
        options = options.modular_only();
    }
    let store = open_store_from_flags(args)?;
    if let Some(store) = &store {
        options = options
            .with_store(Arc::clone(store))
            .with_store_read(!has_flag(args, "--no-store-read"));
    }
    let budget = budget_from_flags(args)?;
    let (completion, metrics) = match flag_value(args, "--metrics") {
        Some(_) => {
            // Metered run: each core's engine (and the monolithic run)
            // reports into its own recording sink; results are
            // byte-identical to the unmetered path.
            let metered = run_soc_experiment_metered(&netlist, &options, &budget)
                .map_err(|e| e.to_string())?;
            (metered.completion, Some(metered.metrics))
        }
        None => (
            run_soc_experiment_guarded(&netlist, &options, &budget).map_err(|e| e.to_string())?,
            None,
        ),
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
    if let (Some(out), Some(metrics)) = (flag_value(args, "--metrics"), &metrics) {
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

/// Best-effort SIGINT/SIGTERM hooks for the serve daemon's graceful
/// drain. The bin target carries the workspace's only `unsafe` block: a
/// single `signal(2)` registration (no libc crate under the offline
/// dependency policy). The handler just sets an atomic flag — the only
/// async-signal-safe thing worth doing — and a watcher thread turns the
/// flag into [`ServerHandle::shutdown`].
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Run the long-lived ATPG service daemon (see `DESIGN.md` §13).
///
/// Prints the bound address (`--addr 127.0.0.1:0` picks an ephemeral
/// port) on stdout and serves until SIGINT/SIGTERM or `POST /shutdown`,
/// then drains admitted requests and exits 0.
fn cmd_serve(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &["--no-store-read", "--keep-alive"],
        &[
            "--addr",
            "--workers",
            "--queue",
            "--max-conns",
            "--max-body-bytes",
            "--request-timeout-ms",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--retry-after-secs",
            "--keep-alive-max",
            "--idle-timeout-ms",
            "--batch-max",
            "--batch-window-ms",
            "--lane-weights",
            "--jobs",
            "--store",
        ],
    )?;
    let mut config = ServeConfig {
        jobs: jobs_from_flags(args)?,
        store: open_store_from_flags(args)?,
        store_read: !has_flag(args, "--no-store-read"),
        ..ServeConfig::default()
    };
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = flag_value(args, "--workers") {
        config.workers = parse_num(n, "--workers")?;
    }
    if let Some(n) = flag_value(args, "--queue") {
        config.queue_capacity = parse_num(n, "--queue")?;
    }
    if let Some(n) = flag_value(args, "--max-conns") {
        config.max_connections = parse_num(n, "--max-conns")?;
    }
    if let Some(n) = flag_value(args, "--max-body-bytes") {
        config.max_body_bytes = parse_num(n, "--max-body-bytes")?;
    }
    if let Some(n) = flag_value(args, "--request-timeout-ms") {
        config.max_request_ms = parse_num(n, "--request-timeout-ms")?;
    }
    if let Some(n) = flag_value(args, "--read-timeout-ms") {
        config.read_timeout = Duration::from_millis(parse_num(n, "--read-timeout-ms")?);
    }
    if let Some(n) = flag_value(args, "--write-timeout-ms") {
        config.write_timeout = Duration::from_millis(parse_num(n, "--write-timeout-ms")?);
    }
    if let Some(n) = flag_value(args, "--retry-after-secs") {
        config.retry_after_secs = parse_num(n, "--retry-after-secs")?;
    }
    config.keep_alive = has_flag(args, "--keep-alive");
    if let Some(n) = flag_value(args, "--keep-alive-max") {
        config.keep_alive_max_requests = parse_num(n, "--keep-alive-max")?;
    }
    if let Some(n) = flag_value(args, "--idle-timeout-ms") {
        config.idle_timeout = Duration::from_millis(parse_num(n, "--idle-timeout-ms")?);
    }
    if let Some(n) = flag_value(args, "--batch-max") {
        config.batch_max = parse_num(n, "--batch-max")?;
    }
    if let Some(n) = flag_value(args, "--batch-window-ms") {
        config.batch_window = Duration::from_millis(parse_num(n, "--batch-window-ms")?);
    }
    if let Some(w) = flag_value(args, "--lane-weights") {
        let (light, heavy) = w
            .split_once(':')
            .ok_or("--lane-weights wants LIGHT:HEAVY, e.g. 4:1")?;
        config.lane_weights = (
            parse_num(light, "--lane-weights")?,
            parse_num(heavy, "--lane-weights")?,
        );
        if config.lane_weights.0 == 0 || config.lane_weights.1 == 0 {
            return Err("--lane-weights must both be >= 1".into());
        }
    }
    let requested = config.addr.clone();
    let server = Server::bind(config).map_err(|e| format!("binding {requested}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (the CI serve gate) parse this line for the ephemeral
    // port, so flush it before blocking in the accept loop.
    println!("modsoc serve listening on http://{addr}");
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    let handle = server.handle();
    #[cfg(unix)]
    {
        sig::install();
        let handle = handle.clone();
        std::thread::spawn(move || loop {
            if sig::SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
                handle.shutdown();
                return;
            }
            if handle.is_shutdown() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    let snapshot = server.run().map_err(|e| e.to_string())?;
    use modsoc::metrics::Counter;
    eprintln!(
        "serve: drained after {} requests ({} shed, {} coalesce hits, {} deadline trips, {} panics)",
        snapshot.counter(Counter::ServeRequests),
        snapshot.counter(Counter::ServeShed),
        snapshot.counter(Counter::ServeCoalesceHits),
        snapshot.counter(Counter::ServeDeadlineTrips),
        snapshot.counter(Counter::ServePanics),
    );
    eprintln!(
        "serve: {} keep-alive reuses, {} batches covering {} units, lanes light/heavy {}/{}",
        snapshot.counter(Counter::ServeKeepAliveReuses),
        snapshot.counter(Counter::ServeBatches),
        snapshot.counter(Counter::ServeBatchedUnits),
        snapshot.counter(Counter::ServeLaneLight),
        snapshot.counter(Counter::ServeLaneHeavy),
    );
    Ok(RunStatus::Complete)
}

/// Advance an xorshift64 state (the workload mix generator; seeded,
/// reproducible).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One loadgen request outcome.
struct LoadgenOutcome {
    /// Workload index — recovers deterministic ordering after the
    /// work-stealing workers scramble completion order.
    index: usize,
    status: u16,
    latency: Duration,
    class: &'static str,
    /// Response body for `hot` requests — all of these must be
    /// byte-identical (one engine run fanned out by coalescing/store).
    hot_body: Option<String>,
    /// Whether a 503 carried the mandatory `Retry-After` header.
    retry_after_ok: bool,
    /// 503 retries spent before this outcome settled.
    retries: u64,
    /// SHA-256 of the response body (`io-error` on transport failure) —
    /// the keep-alive parity smoke diffs these across transport modes.
    body_sha: String,
}

/// The loadgen client side of one worker: either a persistent
/// keep-alive [`HttpClient`] or the PR 7 one-connection-per-request
/// path, so the same workload can measure both.
struct Transport {
    addr: String,
    client: Option<HttpClient>,
}

impl Transport {
    fn new(addr: &str, keep_alive: bool) -> Result<Transport, String> {
        let client = if keep_alive {
            Some(HttpClient::new(addr, Duration::from_secs(60)).map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Transport {
            addr: addr.to_string(),
            client,
        })
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        match &mut self.client {
            Some(c) => c.request(method, path, body),
            None => http_request(&self.addr, method, path, body, Duration::from_secs(60)),
        }
    }

    /// (requests, connects, reused) for the keep-alive client; zeros in
    /// one-shot mode.
    fn stats(&self) -> (u64, u64, u64) {
        self.client.as_ref().map_or((0, 0, 0), HttpClient::stats)
    }
}

/// Attempts per request: the first send plus up to four seeded-backoff
/// retries when the server sheds with `503` + `Retry-After`.
const LOADGEN_MAX_ATTEMPTS: u64 = 5;

fn loadgen_request(transport: &mut Transport, seed: u64, i: usize, salt: u64) -> LoadgenOutcome {
    let mut rng = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    let roll = xorshift(&mut rng) % 100;
    // Mix: 40% hot (identical unit: store hits + coalescing), 25% cold
    // (unique seeds), 15% duplicate-burst (identical within the run but
    // distinct from `hot`), 10% oversized (413), 10% analyze text.
    let (class, method, path, body) = if roll < 40 {
        (
            "hot",
            "POST",
            "/experiment",
            format!("{{\"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 20000}}"),
        )
    } else if roll < 65 {
        let unique = seed
            .wrapping_add(1000)
            .wrapping_add(xorshift(&mut rng) % 32);
        (
            "cold",
            "POST",
            "/experiment",
            format!("{{\"soc\": \"mini\", \"seed\": {unique}, \"timeout_ms\": 20000}}"),
        )
    } else if roll < 80 {
        (
            "dup",
            "POST",
            "/experiment",
            format!(
                "{{\"soc\": \"mini\", \"seed\": {}, \"timeout_ms\": 20000}}",
                seed.wrapping_add(salt)
            ),
        )
    } else if roll < 90 {
        ("oversized", "POST", "/analyze", "x".repeat(2 * 1024 * 1024))
    } else {
        (
            "analyze",
            "POST",
            "/analyze",
            "{\"soc\": \"soc demo\\ncore a i=4 o=3 b=0 s=10 t=50\\ncore b i=2 o=2 b=0 s=8 t=30\\n\", \"format\": \"text\"}"
                .to_string(),
        )
    };
    let started = std::time::Instant::now();
    let mut retries = 0u64;
    let resp = loop {
        let resp = transport.send(method, path, Some(&body));
        match resp {
            // A tagged shed is advice, not failure: honor Retry-After
            // with seeded jitter so the retry herd spreads out, then
            // re-submit. Untagged 503s stay terminal (and flagged).
            Ok(r)
                if r.status == 503
                    && retries + 1 < LOADGEN_MAX_ATTEMPTS
                    && r.header("retry-after").is_some() =>
            {
                let after_ms = r
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map_or(100, |s| (s * 1000).min(400));
                retries += 1;
                std::thread::sleep(Duration::from_millis(after_ms + xorshift(&mut rng) % 200));
            }
            other => break other,
        }
    };
    let latency = started.elapsed();
    let sha = |bytes: &[u8]| modsoc::store::sha256::hex(&modsoc::store::sha256::digest(bytes));
    match resp {
        Ok(r) => LoadgenOutcome {
            index: i,
            status: r.status,
            latency,
            class,
            hot_body: (class == "hot" && r.status == 200).then(|| r.body_text()),
            retry_after_ok: r.status != 503 || r.header("retry-after").is_some(),
            retries,
            body_sha: sha(&r.body),
        },
        Err(_) => LoadgenOutcome {
            index: i,
            status: 0,
            latency,
            class,
            hot_body: None,
            retry_after_ok: true,
            retries,
            body_sha: "io-error".to_string(),
        },
    }
}

/// Nearest-rank percentile (milliseconds) over an ascending-sorted
/// sample: the smallest value with at least `ceil(p * n)` observations
/// at or below it. The previous interpolated-index rounding overshot on
/// small samples (p50 of a 2-sample set returned the *larger* value;
/// p99 of 99 samples skipped the true rank).
fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (p * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1].as_secs_f64() * 1e3
}

/// Drive a running `modsoc serve` with a seeded mixed workload and
/// check the service-level invariants (identical requests get identical
/// bytes, sheds carry `Retry-After`, nothing hangs or corrupts).
fn cmd_loadgen(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &["--shutdown", "--keep-alive", "--dump-metrics"],
        &[
            "--addr",
            "--requests",
            "--concurrency",
            "--seed",
            "--flood",
            "--analyze-file",
            "--bodies-out",
        ],
    )?;
    let addr = flag_value(args, "--addr")
        .ok_or("loadgen needs --addr HOST:PORT of a running `modsoc serve`")?
        .to_string();
    // Single-shot text analyze: emit the served report verbatim so the
    // CI gate can byte-diff it against `modsoc analyze` stdout.
    if let Some(path) = flag_value(args, "--analyze-file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let body = modsoc::metrics::json::JsonValue::Object(vec![
            (
                "soc".to_string(),
                modsoc::metrics::json::JsonValue::String(text),
            ),
            (
                "format".to_string(),
                modsoc::metrics::json::JsonValue::String("text".to_string()),
            ),
        ])
        .to_compact();
        let resp = http_request(
            &addr,
            "POST",
            "/analyze",
            Some(&body),
            Duration::from_secs(30),
        )
        .map_err(|e| format!("POST /analyze: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "served analyze failed with {}: {}",
                resp.status,
                resp.body_text()
            ));
        }
        print!("{}", resp.body_text());
        return Ok(RunStatus::Complete);
    }
    if has_flag(args, "--shutdown") {
        let resp = http_request(&addr, "POST", "/shutdown", None, Duration::from_secs(10))
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        println!("shutdown: {} {}", resp.status, resp.body_text());
        return Ok(RunStatus::Complete);
    }
    // Single-shot metrics scrape: print the server's /metrics document
    // verbatim so scripts (the CI distributed gate) can read counters
    // like store_writes without an HTTP client of their own.
    if has_flag(args, "--dump-metrics") {
        let resp = http_request(&addr, "GET", "/metrics", None, Duration::from_secs(10))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics failed with {}", resp.status));
        }
        println!("{}", resp.body_text());
        return Ok(RunStatus::Complete);
    }
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse_num(s, "--seed")?,
        None => 1,
    };
    // Flood mode: hammer the daemon with more concurrent requests than
    // its queue can hold and report the shed behavior. Distinct seeds
    // defeat coalescing so every request wants a worker.
    if let Some(n) = flag_value(args, "--flood") {
        let n: usize = parse_num(n, "--flood")?;
        let outcomes: Vec<HttpResponse> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let body = format!(
                            "{{\"soc\": \"mini\", \"seed\": {}, \"timeout_ms\": 20000}}",
                            seed.wrapping_add(5000 + i as u64)
                        );
                        http_request(
                            &addr,
                            "POST",
                            "/experiment",
                            Some(&body),
                            Duration::from_secs(60),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().ok().and_then(Result::ok))
                .collect()
        });
        let ok = outcomes.iter().filter(|r| r.status == 200).count();
        let shed = outcomes.iter().filter(|r| r.status == 503).count();
        let shed_with_header = outcomes
            .iter()
            .filter(|r| r.status == 503 && r.header("retry-after").is_some())
            .count();
        println!(
            "flood: {n} fired, {} answered, {ok} ok, {shed} shed with 503",
            outcomes.len()
        );
        println!(
            "retry-after on all 503s: {}",
            if shed_with_header == shed {
                "PASS"
            } else {
                "FAIL"
            }
        );
        // Every fired request must get *some* answer — shedding means
        // refusing loudly, never hanging or dropping admitted work.
        if outcomes.len() == n && shed_with_header == shed {
            return Ok(RunStatus::Complete);
        }
        return Err("flood outcomes violated the shed contract".into());
    }
    // Mixed-workload mode.
    let requests: usize = match flag_value(args, "--requests") {
        Some(n) => parse_num(n, "--requests")?,
        None => 64,
    };
    let concurrency: usize = match flag_value(args, "--concurrency") {
        Some(n) => parse_num(n, "--concurrency")?,
        None => 8,
    };
    let keep_alive = has_flag(args, "--keep-alive");
    let next = std::sync::atomic::AtomicUsize::new(0);
    let started = std::time::Instant::now();
    let per_worker: Vec<(Vec<LoadgenOutcome>, (u64, u64, u64))> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency.max(1))
            .map(|_| {
                let addr = addr.clone();
                let next = &next;
                s.spawn(move || {
                    let mut transport = Transport::new(&addr, keep_alive)?;
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if i >= requests {
                            return Ok((mine, transport.stats()));
                        }
                        mine.push(loadgen_request(&mut transport, seed, i, 100));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect::<Result<_, String>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    let (mut ka_requests, mut ka_connects, mut ka_reused) = (0u64, 0u64, 0u64);
    let mut outcomes: Vec<LoadgenOutcome> = Vec::with_capacity(requests);
    for (mine, (rq, co, re)) in per_worker {
        outcomes.extend(mine);
        ka_requests += rq;
        ka_connects += co;
        ka_reused += re;
    }
    outcomes.sort_unstable_by_key(|o| o.index);
    let mut by_status: Vec<(u16, usize)> = Vec::new();
    for o in &outcomes {
        match by_status.iter_mut().find(|(s, _)| *s == o.status) {
            Some((_, c)) => *c += 1,
            None => by_status.push((o.status, 1)),
        }
    }
    by_status.sort_unstable();
    let mut latencies: Vec<Duration> = outcomes.iter().map(|o| o.latency).collect();
    latencies.sort_unstable();
    println!(
        "loadgen: {} requests, {concurrency} workers, {wall:.2}s wall, {:.1} req/s",
        outcomes.len(),
        outcomes.len() as f64 / wall.max(1e-9)
    );
    let histogram: Vec<String> = by_status
        .iter()
        .map(|(s, c)| {
            if *s == 0 {
                format!("io-error: {c}")
            } else {
                format!("{s}: {c}")
            }
        })
        .collect();
    println!("status {}", histogram.join("  "));
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "latency ms: p50 {p50:.1}  p90 {:.1}  p99 {p99:.1}",
        percentile(&latencies, 0.90),
    );
    let mut analyze_lat: Vec<Duration> = outcomes
        .iter()
        .filter(|o| o.class == "analyze")
        .map(|o| o.latency)
        .collect();
    analyze_lat.sort_unstable();
    let analyze_p99 = percentile(&analyze_lat, 0.99);
    if !analyze_lat.is_empty() {
        println!(
            "analyze latency ms: p50 {:.1}  p99 {analyze_p99:.1} ({} requests)",
            percentile(&analyze_lat, 0.50),
            analyze_lat.len()
        );
    }
    let total_retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    println!("retries after 503: {total_retries}");
    if keep_alive {
        println!(
            "keep-alive: {ka_requests} requests over {ka_connects} connections ({ka_reused} reused)"
        );
    }
    if let Some(path) = flag_value(args, "--bodies-out") {
        let mut lines = String::new();
        for o in &outcomes {
            use std::fmt::Write as _;
            let _ = writeln!(lines, "{} {} {} {}", o.index, o.class, o.status, o.body_sha);
        }
        std::fs::write(path, lines).map_err(|e| format!("writing {path}: {e}"))?;
    }
    // Invariants behind the corruption check:
    //  * every identical "hot" request answered 200 with identical
    //    bytes (one engine result fanned out, never a torn mix);
    //  * oversized bodies always 413 (the cap held);
    //  * every 503 carried Retry-After;
    //  * no request ended in an I/O error or hung past its timeout.
    let hot_bodies: Vec<&String> = outcomes
        .iter()
        .filter_map(|o| o.hot_body.as_ref())
        .collect();
    let hot_consistent = hot_bodies.windows(2).all(|w| w[0] == w[1]);
    let hot_all_ok = outcomes
        .iter()
        .filter(|o| o.class == "hot")
        .all(|o| o.status == 200);
    let oversized_ok = outcomes
        .iter()
        .filter(|o| o.class == "oversized")
        .all(|o| o.status == 413);
    let sheds_tagged = outcomes.iter().all(|o| o.retry_after_ok);
    let no_io_errors = outcomes.iter().all(|o| o.status != 0);
    let pass = hot_consistent && hot_all_ok && oversized_ok && sheds_tagged && no_io_errors;
    println!(
        "zero-corruption check: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        return Err(format!(
            "corruption check failed (hot consistent: {hot_consistent}, hot ok: {hot_all_ok}, \
             oversized 413: {oversized_ok}, sheds tagged: {sheds_tagged}, no io errors: {no_io_errors})"
        ));
    }
    Ok(RunStatus::Complete)
}

/// Run a resumable campaign of SOC experiments from a JSON spec,
/// journaling per-unit completion into the `--store` directory so a
/// re-invocation skips everything that already finished.
fn cmd_campaign(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &["--keep-going", "--no-store-read"],
        &[
            "--store",
            "--store-url",
            "--owner",
            "--claim-lease-ms",
            "--claim-wait-ms",
            "--jobs",
            "--timeout-ms",
            "--max-patterns",
            "--max-backtracks",
        ],
    )?;
    let path = positional(args).ok_or("campaign needs a spec.json file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = CampaignSpec::from_json(&text).map_err(|e| e.to_string())?;
    // The journal lives in the store, so a store is not optional here:
    // either a local directory or the URL of a `modsoc serve --store`
    // daemon shared by concurrent workers.
    let local = open_store_from_flags(args)?;
    let store = match (local, flag_value(args, "--store-url")) {
        (Some(_), Some(_)) => {
            return Err("give either --store DIR or --store-url URL, not both".into())
        }
        (Some(store), None) => store,
        (None, Some(url)) => {
            let backend = HttpBackend::connect(url, Duration::from_secs(10))
                .map_err(|e| format!("connecting to store daemon: {e}"))?;
            Arc::new(ResultStore::with_backend(Arc::new(backend)))
        }
        (None, None) => {
            return Err(
                "campaign requires --store DIR or --store-url URL (the journal lives there)".into(),
            )
        }
    };
    let options = ExperimentOptions::paper_tables_1_2()
        .with_jobs(jobs_from_flags(args)?)
        .with_store(Arc::clone(&store))
        .with_store_read(!has_flag(args, "--no-store-read"));
    let budget = budget_from_flags(args)?;
    let keep_going = has_flag(args, "--keep-going");
    let report = if flag_value(args, "--store-url").is_some() {
        // Remote store: claim units through the daemon so concurrent
        // workers over the same spec partition the work.
        let mut claims = ClaimOptions::new(
            flag_value(args, "--owner").map_or_else(ClaimOptions::default_owner, String::from),
        );
        if let Some(ms) = flag_value(args, "--claim-lease-ms") {
            claims = claims.with_lease(Duration::from_millis(parse_num(ms, "--claim-lease-ms")?));
        }
        if let Some(ms) = flag_value(args, "--claim-wait-ms") {
            claims = claims.with_wait(Duration::from_millis(parse_num(ms, "--claim-wait-ms")?));
        }
        run_campaign_claimed(
            &spec, &options, &budget, &store, keep_going, &claims, &NullSink,
        )
    } else {
        run_campaign(&spec, &options, &budget, &store, keep_going, &NullSink)
    }
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

/// `modsoc store <gc|verify> <DIR>` — maintenance sweeps over a local
/// store directory. These run where the bytes live: to bound or audit
/// the store behind a `modsoc serve --store` daemon, run them on the
/// daemon's directory (entries are advisory-locked per key, so a sweep
/// is safe next to a live server).
fn cmd_store(args: &[String]) -> Result<RunStatus, String> {
    let open = |rest: &[String]| -> Result<ResultStore, String> {
        let dir = positional(rest).ok_or("store needs a store DIR")?;
        ResultStore::open(std::path::Path::new(dir))
            .map_err(|e| format!("opening store {dir}: {e}"))
    };
    match args.first().map(String::as_str) {
        Some("gc") => {
            check_flags(&args[1..], &[], &["--max-bytes"])?;
            let max_bytes: u64 = parse_num(
                flag_value(&args[1..], "--max-bytes").ok_or("store gc requires --max-bytes N")?,
                "--max-bytes",
            )?;
            let store = open(&args[1..])?;
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
        Some("verify") => {
            check_flags(&args[1..], &[], &[])?;
            let store = open(&args[1..])?;
            let (valid, corrupt) = store.verify_all().map_err(|e| e.to_string())?;
            println!("store verify: {valid} valid, {corrupt} corrupt");
            if corrupt == 0 {
                Ok(RunStatus::Complete)
            } else {
                Err(format!("{corrupt} corrupt store entries"))
            }
        }
        Some(other) => Err(format!("unknown store action `{other}` (gc|verify)")),
        None => Err("store needs an action: gc or verify".into()),
    }
}

fn cmd_atpg(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &["--dynamic"],
        &[
            "--timeout-ms",
            "--max-patterns",
            "--max-backtracks",
            "--patterns-out",
            "--verilog-out",
        ],
    )?;
    let path = positional(args).ok_or("atpg needs a .bench file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    let circuit = parse_bench(name, &text).map_err(|e| e.to_string())?;
    println!("{}", CircuitStats::of(&circuit).map_err(|e| e.to_string())?);

    let budget = budget_from_flags(args)?;
    let options = AtpgOptions {
        dynamic_compaction: has_flag(args, "--dynamic"),
        ..AtpgOptions::default()
    };
    let result = Atpg::new(options)
        .run_budgeted(&circuit, &budget)
        .map_err(|e| e.to_string())?;
    println!(
        "{} patterns, {:.2}% fault coverage ({} classes: {} detected, {} redundant, {} aborted)",
        result.pattern_count(),
        result.fault_coverage() * 100.0,
        result.stats.collapsed_faults,
        result.stats.detected,
        result.stats.redundant,
        result.stats.aborted
    );
    if let Some(out) = flag_value(args, "--patterns-out") {
        std::fs::write(out, result.patterns.to_text())
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote patterns to {out}");
    }
    if let Some(out) = flag_value(args, "--verilog-out") {
        let mut v = write_verilog(&circuit).map_err(|e| e.to_string())?;
        if circuit.dff_count() > 0 {
            v.push('\n');
            v.push_str(dff_module());
        }
        std::fs::write(out, v).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote verilog to {out}");
    }
    if let Some(e) = &result.exhausted {
        eprintln!("warning: partial result — {e}");
        return Ok(RunStatus::Partial);
    }
    Ok(RunStatus::Complete)
}

fn cmd_generate(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &[],
        &[
            "--inputs",
            "--outputs",
            "--scan",
            "--seed",
            "--bench-out",
            "--verilog-out",
        ],
    )?;
    let inputs: usize = parse_num(
        flag_value(args, "--inputs").ok_or("--inputs is required")?,
        "--inputs",
    )?;
    let outputs: usize = parse_num(
        flag_value(args, "--outputs").ok_or("--outputs is required")?,
        "--outputs",
    )?;
    let scan: usize = parse_num(
        flag_value(args, "--scan").ok_or("--scan is required")?,
        "--scan",
    )?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse_num(s, "--seed")?,
        None => 1,
    };
    let profile = CoreProfile::new("generated", inputs, outputs, scan).with_seed(seed);
    let circuit = generate(&profile).map_err(|e| e.to_string())?;
    println!("{}", CircuitStats::of(&circuit).map_err(|e| e.to_string())?);
    if let Some(out) = flag_value(args, "--bench-out") {
        std::fs::write(out, write_bench(&circuit)).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote bench to {out}");
    }
    if let Some(out) = flag_value(args, "--verilog-out") {
        let mut v = write_verilog(&circuit).map_err(|e| e.to_string())?;
        if circuit.dff_count() > 0 {
            v.push('\n');
            v.push_str(dff_module());
        }
        std::fs::write(out, v).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote verilog to {out}");
    }
    Ok(RunStatus::Complete)
}

fn cmd_cones(args: &[String]) -> Result<RunStatus, String> {
    check_flags(args, &[], &[])?;
    let path = positional(args).ok_or("cones needs a .bench file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let circuit = parse_bench("c", &text).map_err(|e| e.to_string())?;
    let model = if circuit.is_combinational() {
        circuit
    } else {
        circuit.to_test_model().map_err(|e| e.to_string())?.circuit
    };
    let cones = extract_cones(&model).map_err(|e| e.to_string())?;
    println!(
        "{} cones | widths: min {} max {} mean {:.1} | overlapping pairs {} | overlap fraction {:.3}",
        cones.cones().len(),
        cones.cones().iter().map(|c| c.width()).min().unwrap_or(0),
        cones.max_width(),
        cones.mean_width(),
        cones.overlapping_pairs(),
        cones.overlap_fraction()
    );
    Ok(RunStatus::Complete)
}

fn cmd_index(args: &[String]) -> Result<RunStatus, String> {
    check_flags(args, &[], &[])?;
    let path = positional(args).ok_or("index needs a .bench or .soc file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if path.ends_with(".soc") {
        // SOC parameter files have no gate-level netlist to index;
        // summarize the core hierarchy instead.
        let soc = parse_soc(&text).map_err(|e| e.to_string())?;
        let leaves = soc.iter().filter(|(_, c)| c.children.is_empty()).count();
        let scan: u64 = soc.iter().map(|(_, c)| c.scan_cells).sum();
        let patterns: u64 = soc.iter().map(|(_, c)| c.patterns).sum();
        println!(
            "{} cores ({} leaves) | {} scan cells | {} total patterns | max core T {}",
            soc.core_count(),
            leaves,
            fmt_u64(scan),
            fmt_u64(patterns),
            fmt_u64(soc.max_core_patterns())
        );
        return Ok(RunStatus::Complete);
    }
    let circuit = parse_bench("c", &text).map_err(|e| e.to_string())?;
    let model = if circuit.is_combinational() {
        circuit
    } else {
        circuit.to_test_model().map_err(|e| e.to_string())?.circuit
    };
    let index = modsoc::netlist::StructuralIndex::build(&model).map_err(|e| e.to_string())?;
    let n = index.node_count();
    let edges = (0..n)
        .map(|i| index.fanout_degree(modsoc::netlist::NodeId::from_index(i)))
        .sum::<usize>();
    let max_level = (0..n)
        .map(|i| index.level(modsoc::netlist::NodeId::from_index(i)))
        .max()
        .unwrap_or(0);
    let dead = (0..n)
        .filter(|&i| !index.reaches_any_output(modsoc::netlist::NodeId::from_index(i)))
        .count();
    let mean_cone = if n == 0 {
        0.0
    } else {
        (0..n)
            .map(|i| {
                index
                    .fanout_cone(modsoc::netlist::NodeId::from_index(i))
                    .len()
            })
            .sum::<usize>() as f64
            / n as f64
    };
    println!(
        "{n} nodes | {edges} fanout edges | depth {max_level} | {dead} dead nodes | mean fanout cone {mean_cone:.1}"
    );
    Ok(RunStatus::Complete)
}

fn cmd_tdf(args: &[String]) -> Result<RunStatus, String> {
    check_flags(
        args,
        &[],
        &["--timeout-ms", "--max-backtracks", "--patterns-out"],
    )?;
    let path = positional(args).ok_or("tdf needs a .bench file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let circuit = parse_bench("circuit", &text).map_err(|e| e.to_string())?;
    let budget = budget_from_flags(args)?;
    let result = modsoc::atpg::tdf::run_tdf_atpg_budgeted(
        &circuit,
        400,
        modsoc::atpg::tdf::LaunchScheme::Capture,
        &budget,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "transition faults: {} total, {} detected, {} LOC-untestable, {} aborted",
        result.total, result.detected, result.untestable, result.aborted
    );
    println!(
        "{} launch-on-capture patterns, {:.2}% coverage over LOC-testable faults",
        result.patterns.len(),
        result.coverage() * 100.0
    );
    if let Some(out) = flag_value(args, "--patterns-out") {
        std::fs::write(out, result.patterns.to_text())
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote patterns to {out}");
    }
    if let Some(e) = &result.exhausted {
        eprintln!("warning: partial result — {e}");
        return Ok(RunStatus::Partial);
    }
    Ok(RunStatus::Complete)
}

fn cmd_demo(args: &[String]) -> Result<RunStatus, String> {
    check_flags(args, &[], &[])?;
    let text =
        modsoc::demo::run(positional(args).unwrap_or_default()).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(RunStatus::Complete)
}

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
fn tam_soc_list(only: Option<&str>) -> Result<Vec<(String, modsoc::soc::Soc)>, String> {
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
                return Err(format!(
                    "unknown soc `{name}` (expected soc1, soc2, or a Table 4 name)"
                ));
            }
            Ok(socs)
        }
    }
}

/// Rectangle bin-packing wrapper/TAM co-optimization over the ITC'02
/// SOCs: pack each SOC's Pareto wrapper rectangles under a TAM width
/// budget (diagonal-length-first, idle-time backfill) and compare test
/// time and utilization against the existing architecture sweep's best.
fn cmd_tam(args: &[String]) -> Result<RunStatus, String> {
    use modsoc::tam::binpack::pack_metered;
    use modsoc::tam::constraints::{pack_constrained_metered, packed_peak_power, power_cores};
    use modsoc::tam::optimize::best_at_width;
    use modsoc::tam::wrapper::WrapperCore;
    use modsoc::tam::TamError;

    check_flags(
        args,
        &[],
        &[
            "--width",
            "--chains",
            "--power-ceiling",
            "--jobs",
            "--json",
            "--metrics",
        ],
    )?;
    let started = std::time::Instant::now();
    let width: usize = match flag_value(args, "--width") {
        Some(w) => parse_num(w, "--width")?,
        None => 16,
    };
    if width == 0 {
        return Err("--width must be at least one".into());
    }
    let chains: usize = match flag_value(args, "--chains") {
        Some(c) => parse_num(c, "--chains")?,
        None => 8,
    };
    if chains == 0 {
        return Err("--chains must be at least one".into());
    }
    let ceiling: Option<u64> = match flag_value(args, "--power-ceiling") {
        Some(c) => Some(parse_num(c, "--power-ceiling")?),
        None => None,
    };
    let jobs = jobs_from_flags(args)?;
    let socs = tam_soc_list(positional(args))?;

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

    if let Some(path) = flag_value(args, "--json") {
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
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let mut extra = String::new();
            match &r.constrained {
                None => {}
                Some(Ok((time, peak))) => {
                    let _ = write!(
                        extra,
                        ", \"constrained_time\": {time}, \"peak_power\": {peak}"
                    );
                }
                Some(Err(reason)) => {
                    let _ = write!(
                        extra,
                        ", \"infeasible\": \"{}\"",
                        reason.replace('\\', "\\\\").replace('"', "\\\"")
                    );
                }
            }
            let _ = writeln!(
                out,
                "    {{\"soc\": \"{}\", \"cores\": {}, \"pack_time\": {}, \
                 \"utilization\": {:.4}, \"backfills\": {}, \"best_arch\": \"{}\", \
                 \"best_time\": {}{extra}}}{sep}",
                r.soc, r.cores, r.pack_time, r.utilization, r.backfills, r.best_arch, r.best_time,
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some(out) = flag_value(args, "--metrics") {
        let target = positional(args).unwrap_or("itc02");
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

#[cfg(test)]
mod tests {
    use super::percentile;
    use std::time::Duration;

    fn ms(values: &[u64]) -> Vec<Duration> {
        values.iter().map(|&v| Duration::from_millis(v)).collect()
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 0.50), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        let s = ms(&[7]);
        assert_eq!(percentile(&s, 0.50), 7.0);
        assert_eq!(percentile(&s, 0.90), 7.0);
        assert_eq!(percentile(&s, 0.99), 7.0);
    }

    #[test]
    fn percentile_two_samples_median_is_lower() {
        // Nearest rank: ceil(0.5 * 2) = 1 -> the first sample, not the
        // second (the old rounding picked index 1 here).
        let s = ms(&[10, 20]);
        assert_eq!(percentile(&s, 0.50), 10.0);
        assert_eq!(percentile(&s, 0.99), 20.0);
    }

    #[test]
    fn percentile_n99_hits_true_ranks() {
        let s = ms(&(1..=99).collect::<Vec<u64>>());
        // ceil(0.5 * 99) = 50 -> 50 ms; ceil(0.9 * 99) = 90;
        // ceil(0.99 * 99) = 99 -> the maximum (old code returned 98).
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
    }

    #[test]
    fn percentile_n100_hits_true_ranks() {
        let s = ms(&(1..=100).collect::<Vec<u64>>());
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.00), 100.0);
    }
}
