//! Structured run metrics: assembling [`MetricsSnapshot`]s from the
//! engine, pool, and experiment pipeline into a machine-readable
//! [`RunMetrics`] report.
//!
//! The paper's analysis is an accounting exercise — pattern counts,
//! top-off waste, ISOCOST bits — and downstream wrapper/TAM
//! co-optimization work consumes exactly this kind of per-core cost
//! table as machine-readable input rather than printed text. This module
//! is the bridge: the primitive counters/timers live in the dependency-
//! free [`modsoc_metrics`] crate (re-exported here), while the
//! SOC-shaped composition — one recording sink per core, one for the
//! monolithic run, one for the pipeline itself — lives here.
//!
//! # Determinism contract
//!
//! Everything in a serialized report is deterministic (identical at
//! `--jobs 1` vs `--jobs N`) **except**:
//!
//! * any field whose key ends in `_ms` (wall-clock times),
//! * the `"sched"` objects (per-worker utilization rows), always
//!   serialized on a single line,
//! * the top-level `"jobs"` field itself,
//! * the `store_*` counters (`store_hits`/`store_misses`/…): they are
//!   *cache-state*-dependent — a cold `--store` run records misses and
//!   writes where a warm run records hits — while still `--jobs`-
//!   invariant at a fixed cache state.
//!
//! The serializer guarantees each of those lands on its own line, so a
//! shell-level `grep -vE '"(sched|jobs)": |_ms":|"store_'` strips the
//! volatile subset and the remainder must diff clean between runs — that
//! is the CI determinism gate.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

pub use modsoc_metrics::{
    json, BudgetSnapshot, Counter, MetricsSink, MetricsSnapshot, NullSink, Phase, PhaseTimer,
    RecordingSink, WorkerRow, COUNTER_COUNT, PHASE_COUNT,
};

use modsoc_atpg::{Atpg, AtpgResult};
use modsoc_circuitgen::SocNetlist;
use modsoc_metrics::json::{fmt_f64, write_json_string};

use crate::error::AnalysisError;
use crate::experiment::{run_soc_experiment_guarded_full, ExperimentOptions, SocExperiment};
use crate::runctl::{Completion, RunBudget};

/// Report schema version (bump on incompatible layout changes).
pub const RUN_METRICS_SCHEMA: u64 = 1;

/// Metrics for one unit of work (a core, or the `"<monolithic>"`
/// pseudo-core): its outcome row plus the counter/phase snapshot of the
/// recording sink that watched its engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRunMetrics {
    /// Core name (or `"<monolithic>"`).
    pub core: String,
    /// Outcome label: `"ok"`, `"partial"`, or `"FAILED"`.
    pub outcome: String,
    /// Final pattern count (absent when the core failed).
    pub patterns: Option<u64>,
    /// Fault coverage (absent when the core failed).
    pub fault_coverage: Option<f64>,
    /// Counter and phase snapshot of this core's engine run.
    pub snapshot: MetricsSnapshot,
}

/// A complete, serializable metrics report for one CLI-level run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Schema version ([`RUN_METRICS_SCHEMA`]).
    pub schema: u64,
    /// The command that produced the report (`"experiment"`,
    /// `"analyze"`, `"engine"`, …).
    pub command: String,
    /// What was run (SOC name, netlist file, profile name).
    pub target: String,
    /// Worker-thread setting of the run (volatile by contract: excluded
    /// from determinism comparisons).
    pub jobs: u64,
    /// End-to-end wall time in milliseconds (volatile).
    pub wall_ms: f64,
    /// Budget configuration and consumption at the end of the run.
    pub budget: BudgetSnapshot,
    /// Aggregated snapshot: sum of every per-core snapshot (in core
    /// order) plus the pipeline sink. Deterministic except wall times
    /// and worker rows.
    pub totals: MetricsSnapshot,
    /// Per-core breakdown, in core order (monolithic pseudo-core last).
    pub cores: Vec<CoreRunMetrics>,
}

impl RunMetrics {
    /// Serialize the report as pretty-printed JSON with the layout the
    /// determinism gate relies on: two-space indent, one field per line,
    /// except each `"sched"` object which is emitted entirely on one
    /// line. Field order is fixed by [`Counter::ALL`] / [`Phase::ALL`],
    /// and every number is finite (non-finite values become `null`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        push_kv(&mut out, 1, "schema", &self.schema.to_string(), true);
        push_kv_str(&mut out, 1, "command", &self.command, true);
        push_kv_str(&mut out, 1, "target", &self.target, true);
        push_kv(&mut out, 1, "jobs", &self.jobs.to_string(), true);
        push_kv(&mut out, 1, "wall_ms", &fmt_f64(self.wall_ms), true);
        write_budget(&mut out, 1, &self.budget);
        out.push_str(",\n");
        write_snapshot_sections(&mut out, 1, &self.totals, false);
        out.push_str(",\n");
        push_indent(&mut out, 1);
        out.push_str("\"cores\": [");
        for (i, core) in self.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            push_indent(&mut out, 2);
            out.push_str("{\n");
            push_kv_str(&mut out, 3, "core", &core.core, true);
            push_kv_str(&mut out, 3, "outcome", &core.outcome, true);
            push_kv(
                &mut out,
                3,
                "patterns",
                &core.patterns.map_or("null".to_string(), |p| p.to_string()),
                true,
            );
            push_kv(
                &mut out,
                3,
                "fault_coverage",
                &core.fault_coverage.map_or("null".to_string(), fmt_f64),
                true,
            );
            write_snapshot_sections(&mut out, 3, &core.snapshot, true);
            out.push('\n');
            push_indent(&mut out, 2);
            out.push('}');
        }
        if !self.cores.is_empty() {
            out.push('\n');
            push_indent(&mut out, 1);
        }
        out.push_str("]\n}\n");
        out
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn push_kv(out: &mut String, depth: usize, key: &str, value: &str, comma: bool) {
    push_indent(out, depth);
    let _ = write!(out, "\"{key}\": {value}");
    if comma {
        out.push_str(",\n");
    }
}

fn push_kv_str(out: &mut String, depth: usize, key: &str, value: &str, comma: bool) {
    push_indent(out, depth);
    let _ = write!(out, "\"{key}\": ");
    write_json_string(value, out);
    if comma {
        out.push_str(",\n");
    }
}

fn write_budget(out: &mut String, depth: usize, b: &BudgetSnapshot) {
    push_indent(out, depth);
    out.push_str("\"budget\": {\n");
    push_kv(
        out,
        depth + 1,
        "backtracks_used",
        &b.backtracks_used.to_string(),
        true,
    );
    push_kv(
        out,
        depth + 1,
        "max_backtracks",
        &b.max_backtracks
            .map_or("null".to_string(), |v| v.to_string()),
        true,
    );
    push_kv(
        out,
        depth + 1,
        "max_patterns",
        &b.max_patterns.map_or("null".to_string(), |v| v.to_string()),
        true,
    );
    push_kv(
        out,
        depth + 1,
        "deadline_set",
        bool_str(b.deadline_set),
        true,
    );
    push_kv(out, depth + 1, "cancelled", bool_str(b.cancelled), false);
    out.push('\n');
    push_indent(out, depth);
    out.push('}');
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// Write the `counters`/`phases`/`sched` sections of one snapshot.
/// `sparse` omits zero counters and never-entered phases (used for the
/// per-core breakdown); the totals section always writes the full
/// tables. Does NOT emit a trailing comma or newline.
fn write_snapshot_sections(out: &mut String, depth: usize, snap: &MetricsSnapshot, sparse: bool) {
    push_indent(out, depth);
    out.push_str("\"counters\": {\n");
    let mut first = true;
    for c in Counter::ALL {
        let v = snap.counter(c);
        if sparse && v == 0 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        push_kv(out, depth + 1, c.name(), &v.to_string(), false);
    }
    out.push('\n');
    push_indent(out, depth);
    out.push_str("},\n");

    push_indent(out, depth);
    out.push_str("\"phases\": {\n");
    let mut first = true;
    for p in Phase::ALL {
        let calls = snap.phase_calls(p);
        if sparse && calls == 0 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        push_indent(out, depth + 1);
        let _ = writeln!(out, "\"{}\": {{", p.name());
        push_kv(out, depth + 2, "calls", &calls.to_string(), true);
        push_kv(out, depth + 2, "wall_ms", &fmt_f64(snap.phase_ms(p)), false);
        out.push('\n');
        push_indent(out, depth + 1);
        out.push('}');
    }
    out.push('\n');
    push_indent(out, depth);
    out.push_str("},\n");

    // The whole sched object lives on ONE line so the shell-level
    // determinism filter can drop it with a single line-match.
    push_indent(out, depth);
    out.push_str("\"sched\": {\"workers\": [");
    for (i, w) in snap.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `saturated` is emitted only when set so ordinary reports keep
        // their historical byte layout.
        let _ = write!(
            out,
            "{{\"worker\": {}, \"claimed\": {}, \"busy_ms\": {}{}}}",
            w.worker,
            w.claimed,
            fmt_f64(w.busy_nanos as f64 / 1e6),
            if w.saturated {
                ", \"saturated\": true"
            } else {
                ""
            }
        );
    }
    out.push_str("]}");
}

/// A guarded experiment completion paired with its metrics report.
#[derive(Debug)]
pub struct MeteredExperiment {
    /// The experiment completion (identical to what
    /// [`crate::experiment::run_soc_experiment_guarded`] returns).
    pub completion: Completion<SocExperiment>,
    /// The assembled metrics report.
    pub metrics: RunMetrics,
}

/// Run the guarded modular-vs-monolithic experiment with full metrics:
/// each core's engine reports into its own [`RecordingSink`], the
/// monolithic run into another, and the pipeline (dispatch, flatten,
/// TDV analysis, pool utilization) into a third; the report aggregates
/// them in core order.
///
/// The experiment results are byte-identical to
/// [`crate::experiment::run_soc_experiment_guarded`] — recording is
/// observation only — and every deterministic report field is identical
/// at any [`AtpgOptions::jobs`](modsoc_atpg::AtpgOptions::jobs) value.
///
/// # Errors
///
/// As [`crate::experiment::run_soc_experiment_guarded`].
pub fn run_soc_experiment_metered(
    netlist: &SocNetlist,
    options: &ExperimentOptions,
    budget: &RunBudget,
) -> Result<MeteredExperiment, AnalysisError> {
    let start = Instant::now();
    let pipeline = RecordingSink::new();
    let core_sinks: Vec<Arc<RecordingSink>> = (0..netlist.cores().len())
        .map(|_| Arc::new(RecordingSink::new()))
        .collect();
    let mono_sink = Arc::new(RecordingSink::new());

    let completion = run_soc_experiment_guarded_full(
        netlist,
        options,
        budget,
        &pipeline,
        |i, circuit| {
            let engine = Atpg::with_sink(
                options.atpg.clone(),
                Arc::clone(&core_sinks[i]) as Arc<dyn MetricsSink>,
            );
            options.run_engine(&engine, circuit, budget)
        },
        |flat| -> Result<AtpgResult, AnalysisError> {
            let engine = Atpg::with_sink(
                options.atpg.clone(),
                Arc::clone(&mono_sink) as Arc<dyn MetricsSink>,
            );
            options.run_engine(&engine, flat, budget)
        },
    )?;

    // Assemble the per-core breakdown from the outcome rows (one per
    // core in netlist order, then optionally "<monolithic>"), pairing
    // each with its sink's snapshot.
    let mut cores = Vec::with_capacity(completion.per_core_outcomes.len());
    for (i, outcome) in completion.per_core_outcomes.iter().enumerate() {
        let snapshot = if outcome.core == "<monolithic>" {
            mono_sink.snapshot()
        } else {
            core_sinks.get(i).map(|s| s.snapshot()).unwrap_or_default()
        };
        cores.push(CoreRunMetrics {
            core: outcome.core.clone(),
            outcome: outcome.kind.label().to_string(),
            patterns: outcome.patterns,
            fault_coverage: outcome.fault_coverage,
            snapshot,
        });
    }
    let mut totals = MetricsSnapshot::default();
    for core in &cores {
        totals.absorb(&core.snapshot);
    }
    totals.absorb(&pipeline.snapshot());

    let metrics = RunMetrics {
        schema: RUN_METRICS_SCHEMA,
        command: "experiment".to_string(),
        target: netlist.name().to_string(),
        jobs: modsoc_atpg::pool::effective_jobs(options.atpg.jobs) as u64,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        budget: budget.snapshot(),
        totals,
        cores,
    };
    Ok(MeteredExperiment {
        completion,
        metrics,
    })
}

/// Assemble a [`RunMetrics`] report for a guarded TDV *analysis* run
/// (no ATPG engine: the per-core rows carry outcomes only, and the
/// totals come from the pipeline sink that watched the pool dispatch).
#[must_use]
pub fn analysis_run_metrics(
    command: &str,
    target: &str,
    jobs: usize,
    wall_ms: f64,
    budget: &RunBudget,
    pipeline: &RecordingSink,
    completion_outcomes: &[crate::runctl::CoreOutcome],
) -> RunMetrics {
    let cores = completion_outcomes
        .iter()
        .map(|o| CoreRunMetrics {
            core: o.core.clone(),
            outcome: o.kind.label().to_string(),
            patterns: o.patterns,
            fault_coverage: o.fault_coverage,
            snapshot: MetricsSnapshot::default(),
        })
        .collect();
    RunMetrics {
        schema: RUN_METRICS_SCHEMA,
        command: command.to_string(),
        target: target.to_string(),
        jobs: modsoc_atpg::pool::effective_jobs(jobs) as u64,
        wall_ms,
        budget: budget.snapshot(),
        totals: pipeline.snapshot(),
        cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_circuitgen::soc::mini_soc;

    fn sample_metrics() -> RunMetrics {
        let netlist = mini_soc(7).unwrap();
        let metered = run_soc_experiment_metered(
            &netlist,
            &ExperimentOptions::paper_tables_1_2(),
            &RunBudget::unlimited(),
        )
        .unwrap();
        metered.metrics
    }

    #[test]
    fn metered_experiment_matches_unmetered_results() {
        let netlist = mini_soc(7).unwrap();
        let options = ExperimentOptions::paper_tables_1_2();
        let plain = crate::experiment::run_soc_experiment_guarded(
            &netlist,
            &options,
            &RunBudget::unlimited(),
        )
        .unwrap();
        let metered =
            run_soc_experiment_metered(&netlist, &options, &RunBudget::unlimited()).unwrap();
        assert_eq!(metered.completion.result.t_mono, plain.result.t_mono);
        assert_eq!(
            metered
                .completion
                .result
                .cores
                .iter()
                .map(|c| c.patterns)
                .collect::<Vec<_>>(),
            plain
                .result
                .cores
                .iter()
                .map(|c| c.patterns)
                .collect::<Vec<_>>()
        );
        // The report actually observed the engine runs.
        assert!(metered.metrics.totals.counter(Counter::PatternsFinal) > 0);
        assert!(metered.metrics.totals.counter(Counter::FaultsCollapsed) > 0);
        assert!(metered.metrics.totals.phase_calls(Phase::PodemPhase) >= 3);
        // 2 cores + monolithic pseudo-core.
        assert_eq!(metered.metrics.cores.len(), 3);
        assert_eq!(metered.metrics.cores[2].core, "<monolithic>");
    }

    /// The report without the lines the CI determinism gate drops
    /// (`grep -vE '"(sched|jobs)": |_ms":|"store_'`).
    fn deterministic_lines(text: &str) -> String {
        text.lines()
            .filter(|l| {
                !(l.contains("\"sched\": ")
                    || l.contains("\"jobs\": ")
                    || l.contains("_ms\":")
                    || l.contains("\"store_"))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn json_round_trip_is_lossless_and_stable() {
        let m = sample_metrics();
        let text = m.to_json();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // The crate's own parser reads back every counter, in
        // `Counter::ALL` order, and every core row.
        let doc = json::parse(&text).unwrap();
        let Some(json::JsonValue::Object(counters)) = doc.get("counters") else {
            panic!("no counters object: {text}");
        };
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, Counter::ALL.map(Counter::name));
        for c in Counter::ALL {
            assert_eq!(
                doc.get("counters")
                    .and_then(|o| o.get(c.name()))
                    .and_then(json::JsonValue::as_u64),
                Some(m.totals.counter(c)),
                "{}",
                c.name()
            );
        }
        let rows = doc
            .get("cores")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert_eq!(rows.len(), m.cores.len());
        for (row, core) in rows.iter().zip(&m.cores) {
            assert_eq!(
                row.get("core").and_then(json::JsonValue::as_str),
                Some(core.core.as_str())
            );
            assert_eq!(
                row.get("patterns").and_then(json::JsonValue::as_u64),
                core.patterns
            );
        }
        // Serializing twice gives the same bytes.
        assert_eq!(m.to_json(), text);
    }

    #[test]
    fn volatile_fields_obey_line_layout() {
        let m = sample_metrics();
        let text = m.to_json();
        for line in text.lines() {
            let volatile = line.contains("_ms\":")
                || line.contains("\"sched\": ")
                || line.contains("\"jobs\": ");
            if line.contains("\"sched\": ") {
                // The whole sched object (with its busy_ms values) is on
                // this single line.
                assert!(line.trim_end().ends_with("]}") || line.trim_end().ends_with("]},"));
            }
            if line.contains("\"calls\":") {
                assert!(!volatile, "calls must survive the volatile filter: {line}");
            }
        }
        // The grep-level filter leaves the deterministic skeleton.
        let filtered: Vec<&str> = text
            .lines()
            .filter(|l| {
                !(l.contains("_ms\":") || l.contains("\"sched\": ") || l.contains("\"jobs\": "))
            })
            .collect();
        assert!(filtered.iter().any(|l| l.contains("\"counters\"")));
        assert!(!filtered.iter().any(|l| l.contains("busy_ms")));
    }

    #[test]
    fn jobs_invariance_of_deterministic_sections() {
        let netlist = mini_soc(7).unwrap();
        let base = run_soc_experiment_metered(
            &netlist,
            &ExperimentOptions::paper_tables_1_2(),
            &RunBudget::unlimited(),
        )
        .unwrap()
        .metrics;
        for jobs in [2, 4] {
            let other = run_soc_experiment_metered(
                &netlist,
                &ExperimentOptions::paper_tables_1_2().with_jobs(jobs),
                &RunBudget::unlimited(),
            )
            .unwrap()
            .metrics;
            assert_eq!(
                deterministic_lines(&base.to_json()),
                deterministic_lines(&other.to_json()),
                "jobs={jobs}: counter drift"
            );
        }
    }

    #[test]
    fn budget_snapshot_round_trips() {
        let budget = RunBudget::unlimited()
            .with_max_backtracks(1000)
            .with_max_patterns(50);
        let netlist = mini_soc(5).unwrap();
        let m =
            run_soc_experiment_metered(&netlist, &ExperimentOptions::paper_tables_1_2(), &budget)
                .unwrap()
                .metrics;
        assert_eq!(m.budget.max_backtracks, Some(1000));
        assert_eq!(m.budget.max_patterns, Some(50));
        let doc = json::parse(&m.to_json()).unwrap();
        let budget = doc.get("budget").unwrap();
        let field = |key: &str| budget.get(key).unwrap().clone();
        assert_eq!(
            field("backtracks_used").as_u64(),
            Some(m.budget.backtracks_used)
        );
        assert_eq!(field("max_backtracks").as_u64(), Some(1000));
        assert_eq!(field("max_patterns").as_u64(), Some(50));
        assert_eq!(field("deadline_set").as_bool(), Some(false));
        assert_eq!(field("cancelled").as_bool(), Some(false));
    }
}
