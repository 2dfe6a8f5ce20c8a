//! The `modsoc` command-line tool.
//!
//! [`SPECS`] declares every subcommand once: its positional, its flags,
//! which of them take a value and which are required. [`Args::parse`]
//! checks a command line against that entry and [`usage`] renders the
//! help text from the same table, which the tool prints after every
//! argument error.
//!
//! Arguments are deliberately hand-parsed — the workspace's dependency
//! policy keeps the tree to the approved offline crates.

mod circuit;
mod paper;
mod serve;
mod tam;

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use modsoc::analysis::metrics::RunMetrics;
use modsoc::analysis::RunBudget;
use modsoc::store::ResultStore;

/// Why a subcommand failed: a command line it cannot run, which prints
/// the usage after the message, or a failure of the work itself.
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Failed(message)
    }
}

/// How a subcommand ended when it did not error.
enum RunStatus {
    /// Everything ran to completion.
    Complete,
    /// A budget tripped or a core degraded; partial output was produced.
    Partial,
}

/// A flag: its name, the metavar of its value (`None` for a switch)
/// and whether it is required.
type Flag = (&'static str, Option<&'static str>, bool);

const fn opt(name: &'static str, metavar: &'static str) -> Flag {
    (name, Some(metavar), false)
}

const fn req(name: &'static str, metavar: &'static str) -> Flag {
    (name, Some(metavar), true)
}

const fn switch(name: &'static str) -> Flag {
    (name, None, false)
}

/// One subcommand's command line.
struct Spec {
    /// The words that select it (`"store gc"` for a store action).
    name: &'static str,
    /// The positional's metavar: `<X>` is required, `[X]` optional.
    positional: Option<&'static str>,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<RunStatus, CliError>,
}

/// Every subcommand, in usage order.
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec { name: "analyze", positional: Some("<file.soc>"), flags: &[
        opt("--measured-tmono", "N"), switch("--exclude-chip-pins"), opt("--reuse", "F"),
        switch("--keep-going"), opt("--jobs", "N"), opt("--metrics", "FILE"),
    ], run: paper::analyze },
    Spec { name: "experiment", positional: Some("<mini|soc1|soc2>"), flags: &[
        opt("--seed", "S"), opt("--jobs", "N"), switch("--fail-fast"), switch("--skip-monolithic"),
        opt("--timeout-ms", "N"), opt("--max-patterns", "N"), opt("--max-backtracks", "N"),
        opt("--metrics", "FILE"), opt("--store", "DIR"), switch("--no-store-read"),
    ], run: paper::experiment },
    Spec { name: "campaign", positional: Some("<spec.json>"), flags: &[
        opt("--store", "DIR"), opt("--store-url", "URL"), opt("--jobs", "N"),
        switch("--keep-going"), switch("--no-store-read"), opt("--owner", "NAME"),
        opt("--claim-lease-ms", "N"), opt("--claim-wait-ms", "N"), opt("--timeout-ms", "N"),
        opt("--max-patterns", "N"), opt("--max-backtracks", "N"),
    ], run: paper::campaign },
    Spec { name: "store gc", positional: Some("<DIR>"), flags: &[req("--max-bytes", "N")],
           run: paper::store_gc },
    Spec { name: "store verify", positional: Some("<DIR>"), flags: &[], run: paper::store_verify },
    Spec { name: "serve", positional: None, flags: &[
        opt("--addr", "HOST:PORT"), opt("--workers", "N"), opt("--queue", "N"),
        opt("--max-conns", "N"), opt("--max-body-bytes", "N"), opt("--request-timeout-ms", "N"),
        opt("--read-timeout-ms", "N"), opt("--write-timeout-ms", "N"),
        opt("--retry-after-secs", "N"), opt("--jobs", "N"), switch("--keep-alive"),
        opt("--keep-alive-max", "N"), opt("--idle-timeout-ms", "N"), opt("--batch-max", "N"),
        opt("--batch-window-ms", "N"), opt("--store", "DIR"), switch("--no-store-read"),
    ], run: serve::serve },
    Spec { name: "loadgen", positional: None, flags: &[
        req("--addr", "HOST:PORT"), opt("--requests", "N"), opt("--concurrency", "N"),
        opt("--seed", "S"), switch("--keep-alive"), opt("--bodies-out", "FILE"),
        opt("--flood", "N"), opt("--analyze-file", "FILE.soc"), switch("--shutdown"),
        switch("--dump-metrics"),
    ], run: serve::loadgen },
    Spec { name: "atpg", positional: Some("<file.bench>"), flags: &[
        switch("--dynamic"), opt("--timeout-ms", "N"), opt("--max-patterns", "N"),
        opt("--max-backtracks", "N"), opt("--patterns-out", "FILE"), opt("--verilog-out", "FILE"),
    ], run: circuit::atpg },
    Spec { name: "generate", positional: None, flags: &[
        req("--inputs", "N"), req("--outputs", "N"), req("--scan", "N"), opt("--seed", "S"),
        opt("--bench-out", "FILE"), opt("--verilog-out", "FILE"),
    ], run: circuit::generate },
    Spec { name: "cones", positional: Some("<file.bench>"), flags: &[], run: circuit::cones },
    Spec { name: "index", positional: Some("<file.bench|file.soc>"), flags: &[],
           run: circuit::index },
    Spec { name: "tdf", positional: Some("<file.bench>"), flags: &[
        opt("--timeout-ms", "N"), opt("--max-backtracks", "N"), opt("--patterns-out", "FILE"),
    ], run: circuit::tdf },
    Spec { name: "demo", positional: Some("<MODE>"), flags: &[], run: paper::demo },
    Spec { name: "tam", positional: Some("[SOC]"), flags: &[
        opt("--width", "N"), opt("--chains", "N"), opt("--power-ceiling", "P"), opt("--jobs", "N"),
        opt("--json", "FILE"), opt("--metrics", "FILE"),
    ], run: tam::tam },
];

/// The usage text after the subcommand lines: the shared flag
/// conventions and the exit codes.
const CONVENTIONS: &str = "--jobs N runs independent per-core work on N pool workers, then
shards the monolithic run's fault-sim sweeps across N workers (0 = auto);
reports are identical at any value.
--metrics FILE writes a structured JSON run report; everything except
wall times, jobs and sched objects is identical at any --jobs value.
--store DIR caches engine results content-addressed on disk (warm runs
fetch instead of recomputing; reports stay byte-identical) and holds
campaign journals so interrupted campaigns resume where they stopped.
--store-url URL points campaign at a `modsoc serve --store` daemon
instead of a local directory. Campaign workers sharing one store (DIR or
URL) claim each unit before running it (--owner names the worker,
--claim-lease-ms sets the lease, --claim-wait-ms the patience for units
peers hold), so each unit's engine work runs exactly once; a rerun after
a SIGKILL waits out the killed worker's lease (default 30 s).
modsoc store gc/verify sweep a local store directory: gc evicts
least-recently-used objects until the store fits --max-bytes, verify
reports corrupt entries (exit 1 when any are found).
exit codes: 0 complete, 2 partial (budget tripped / degraded cores), 1 error";

/// Usage lines wrap before this column.
const USAGE_WIDTH: usize = 100;

/// The usage text, rendered from [`SPECS`]: one entry per subcommand
/// with every flag (`[--x V]` optional, `--x V` required, `[--x]` a
/// switch), then [`CONVENTIONS`].
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for spec in SPECS {
        let mut line = format!("  modsoc {}", spec.name);
        if let Some(metavar) = spec.positional {
            // The demo modes are listed by modsoc::demo, not the table.
            line.push(' ');
            line.push_str(&metavar.replace("MODE", &modsoc::demo::mode_list()));
        }
        let indent = line.len();
        for &(name, metavar, required) in spec.flags {
            let item = match (metavar, required) {
                (Some(m), true) => format!("{name} {m}"),
                (Some(m), false) => format!("[{name} {m}]"),
                (None, _) => format!("[{name}]"),
            };
            if line.len() + 1 + item.len() > USAGE_WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent);
            }
            line.push(' ');
            line.push_str(&item);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push('\n');
    out.push_str(CONVENTIONS);
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(RunStatus::Complete) => ExitCode::SUCCESS,
        Ok(RunStatus::Partial) => ExitCode::from(2),
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(CliError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<RunStatus, CliError> {
    // serve, loadgen and campaign talk HTTP and keep Rust's ignored
    // SIGPIPE: HttpClient's stale-socket retry and loadgen's io-error
    // class need a write to a closed socket to come back as EPIPE. Every
    // other subcommand only writes stdout and files, so a closed stdout
    // pipe ends it quietly, like any filter, instead of a println panic.
    #[cfg(unix)]
    if !matches!(
        args.first().map(String::as_str),
        Some("serve" | "loadgen" | "campaign")
    ) {
        serve::sig::default_sigpipe();
    }
    let (name, rest) = match args {
        [] => return Err(CliError::Usage("a subcommand is required".into())),
        [flag, ..] if flag == "--version" || flag == "-V" => {
            println!("modsoc {}", env!("CARGO_PKG_VERSION"));
            return Ok(RunStatus::Complete);
        }
        [store] if store == "store" => {
            return Err(CliError::Usage(
                "store needs an action: gc or verify".into(),
            ))
        }
        [store, action, rest @ ..] if store == "store" => (format!("store {action}"), rest),
        [name, rest @ ..] => (name.clone(), rest),
    };
    let spec = SPECS.iter().find(|spec| spec.name == name).ok_or_else(|| {
        CliError::Usage(match name.strip_prefix("store ") {
            Some(action) => format!("unknown store action `{action}` (gc|verify)"),
            None => format!("unknown subcommand `{name}`"),
        })
    })?;
    (spec.run)(&Args::parse(spec, rest).map_err(CliError::Usage)?)
}

/// A command line checked against its [`Spec`].
struct Args<'a> {
    spec: &'static Spec,
    positional: Option<&'a str>,
    /// The flags given, each with its value (`None` for a switch).
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Check `args` against `spec`. Unknown flags, value flags with no
    /// value, repeated flags, stray positionals and missing required
    /// arguments are errors, so no input is ever silently dropped.
    fn parse(spec: &'static Spec, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            spec,
            positional: None,
            given: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if spec.positional.is_none() || parsed.positional.is_some() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                parsed.positional = Some(arg);
                continue;
            }
            let &(name, metavar, _) = spec
                .flags
                .iter()
                .find(|flag| flag.0 == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            if parsed.given.iter().any(|given| given.0 == name) {
                return Err(format!("{name} given twice"));
            }
            let value = match metavar {
                None => None,
                Some(_) => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    _ => return Err(format!("{name} requires a value")),
                },
            };
            parsed.given.push((name, value));
        }
        if let Some(metavar) = spec.positional.filter(|m| m.starts_with('<')) {
            if parsed.positional.is_none() {
                return Err(format!("{} needs {metavar}", spec.name));
            }
        }
        for &(name, metavar, required) in spec.flags {
            if required && !parsed.given.iter().any(|given| given.0 == name) {
                let metavar = metavar.unwrap_or_default();
                return Err(format!("{} requires {name} {metavar}", spec.name));
            }
        }
        Ok(parsed)
    }

    /// Whether `name` was given, and its value. Debug builds reject a
    /// name the entry does not declare as this kind of flag, so
    /// handlers cannot drift from the table.
    fn lookup(&self, name: &str, takes_value: bool) -> Option<Option<&'a str>> {
        debug_assert!(
            self.spec
                .flags
                .iter()
                .any(|f| f.0 == name && f.1.is_some() == takes_value),
            "`{}` does not declare {name}",
            self.spec.name
        );
        self.given.iter().find(|g| g.0 == name).map(|g| g.1)
    }

    /// The value of flag `name`, if given.
    fn get(&self, name: &str) -> Option<&'a str> {
        self.lookup(name, true).flatten()
    }

    /// Whether switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.lookup(name, false).is_some()
    }

    /// The value of flag `name` parsed as a `T`, if given.
    fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|s| parse_num(s, name).map_err(CliError::Usage))
            .transpose()
    }

    fn num_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.num(name)?.unwrap_or(default))
    }

    /// The value of flag `name` as milliseconds, or `default`.
    fn ms_or(&self, name: &str, default: Duration) -> Result<Duration, CliError> {
        Ok(self.num(name)?.map_or(default, Duration::from_millis))
    }

    /// The value of a required flag, parsed as a `T`.
    fn required<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        Ok(self
            .num(name)?
            .expect("Args::parse rejects a missing required flag"))
    }

    /// The required `<X>` positional.
    fn operand(&self) -> &'a str {
        self.positional
            .expect("Args::parse rejects a missing required positional")
    }

    /// The shared `--jobs` flag (`0` = auto; absent = 1, sequential).
    fn jobs(&self) -> Result<usize, CliError> {
        self.num_or("--jobs", 1)
    }

    /// A [`RunBudget`] from the shared `--timeout-ms`, `--max-patterns`
    /// and `--max-backtracks` flags (absent flags leave that axis
    /// unlimited; `tdf` takes no `--max-patterns`).
    fn budget(&self) -> Result<RunBudget, CliError> {
        let mut budget = RunBudget::unlimited();
        if let Some(ms) = self.num("--timeout-ms")? {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        if self.spec.flags.iter().any(|f| f.0 == "--max-patterns") {
            if let Some(n) = self.num("--max-patterns")? {
                budget = budget.with_max_patterns(n);
            }
        }
        if let Some(n) = self.num("--max-backtracks")? {
            budget = budget.with_max_backtracks(n);
        }
        Ok(budget)
    }

    /// Open the `--store` result store, if the flag was given.
    fn store(&self) -> Result<Option<Arc<ResultStore>>, String> {
        self.get("--store")
            .map(|dir| {
                ResultStore::open(std::path::Path::new(dir))
                    .map(Arc::new)
                    .map_err(|e| format!("opening store {dir}: {e}"))
            })
            .transpose()
    }
}

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{what} is not a valid number: `{s}`"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// Write a `--metrics` report to `path`.
fn write_metrics(path: &str, metrics: &RunMetrics) -> Result<(), String> {
    write_file(path, metrics.to_json())?;
    println!("wrote metrics to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{usage, Args, SPECS};

    /// Every entry rejects an unknown flag and a value flag given no
    /// value, and its own usage lines show every flag with its metavar.
    #[test]
    fn every_table_entry_checks_its_flags_and_is_in_usage() {
        let text = usage();
        let parse_err = |spec, arg: &str| Args::parse(spec, &[arg.to_string()]).err();
        for spec in SPECS {
            let err = parse_err(spec, "--frobnicate").unwrap_or_default();
            assert!(err.contains("unknown flag"), "{}: {err}", spec.name);
            let head = format!("  modsoc {} ", spec.name);
            let mut lines = text.lines().skip_while(|l| !l.starts_with(&head));
            let first = lines.next().unwrap_or_default();
            let continued = lines.take_while(|l| l.starts_with("   "));
            let entry: String = std::iter::once(first).chain(continued).collect();
            assert!(!entry.is_empty(), "{head:?} missing from usage");
            for &(name, metavar, _) in spec.flags {
                let shown = metavar.map_or(name.to_string(), |m| format!("{name} {m}"));
                assert!(
                    entry.contains(&shown),
                    "{}: {shown} not in {entry:?}",
                    spec.name
                );
                if metavar.is_some() {
                    let err = parse_err(spec, name).unwrap_or_default();
                    let what = format!("{} {name}: {err}", spec.name);
                    assert!(err.contains("requires a value"), "{what}");
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not declare --seed")]
    fn undeclared_lookups_fail_in_debug_builds() {
        let spec = SPECS.iter().find(|s| s.name == "cones").expect("declared");
        let args = ["x.bench".to_string()];
        let _ = Args::parse(spec, &args).expect("valid").get("--seed");
    }
}
