//! Cross-crate tests for the metrics layer: the determinism contract
//! (deterministic report sections are identical at any `--jobs` value)
//! and the JSON report's layout.

use proptest::prelude::*;

use modsoc::analysis::experiment::ExperimentOptions;
use modsoc::analysis::metrics::{
    json, run_soc_experiment_metered, Counter, MetricsSink, Phase, RecordingSink, RunMetrics,
};
use modsoc::analysis::RunBudget;
use modsoc::atpg::{Atpg, AtpgOptions};
use modsoc::circuitgen::soc::mini_soc;
use modsoc::circuitgen::{generate, CoreProfile};
use std::sync::Arc;

#[path = "cli/volatile.rs"]
mod volatile;
use volatile::volatile_filtered;

/// Run the metered experiment on `mini_soc(seed)` at a given job count
/// and return the report.
fn metered_report(seed: u64, jobs: usize) -> RunMetrics {
    let netlist = mini_soc(seed).expect("mini soc builds");
    let options = ExperimentOptions::paper_tables_1_2().with_jobs(jobs);
    run_soc_experiment_metered(&netlist, &options, &RunBudget::unlimited())
        .expect("experiment runs")
        .metrics
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline contract: for any netlist seed, every deterministic
    /// report section (counters, phase call counts, outcomes, pattern
    /// counts) is identical at jobs 1, 2 and 4.
    #[test]
    fn metered_counters_are_jobs_invariant(seed in 1u64..500) {
        let base = volatile_filtered(&metered_report(seed, 1).to_json());
        for jobs in [2usize, 4] {
            let other = volatile_filtered(&metered_report(seed, jobs).to_json());
            prop_assert_eq!(&base, &other, "seed {} jobs {}", seed, jobs);
        }
    }
}

#[test]
fn report_round_trip_and_field_order_are_stable() {
    let report = metered_report(7, 2);
    let text = report.to_json();
    assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    // The generic parser reads the report back: top-level fields in
    // their fixed order, and every total counter with its value.
    let doc = json::parse(&text).expect("parses");
    let json::JsonValue::Object(fields) = &doc else {
        panic!("report is not an object: {text}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema", "command", "target", "jobs", "wall_ms", "budget", "counters", "phases",
            "sched", "cores"
        ]
    );
    for c in Counter::ALL {
        let value = doc
            .get("counters")
            .and_then(|o| o.get(c.name()))
            .and_then(json::JsonValue::as_u64);
        assert_eq!(value, Some(report.totals.counter(c)), "{}", c.name());
    }
    // Serialization is deterministic: the same report gives the same bytes.
    assert_eq!(report.to_json(), text);
}

#[test]
fn recording_sink_observes_engine_without_changing_results() {
    let core = generate(&CoreProfile::new("obs", 10, 5, 8).with_seed(3)).expect("generates");
    let plain = Atpg::new(AtpgOptions::default()).run(&core).expect("runs");
    let sink = Arc::new(RecordingSink::new());
    let metered = Atpg::with_sink(
        AtpgOptions::default(),
        Arc::clone(&sink) as Arc<dyn MetricsSink>,
    )
    .run(&core)
    .expect("runs");
    // Observation must not perturb the engine.
    assert_eq!(plain.pattern_count(), metered.pattern_count());
    assert_eq!(plain.stats.detected, metered.stats.detected);
    let snap = sink.snapshot();
    assert_eq!(
        snap.counter(Counter::PatternsFinal),
        metered.pattern_count() as u64
    );
    assert_eq!(
        snap.counter(Counter::FaultsCollapsed),
        metered.stats.collapsed_faults as u64
    );
    assert_eq!(snap.phase_calls(Phase::IndexBuild), 1);
    assert_eq!(snap.phase_calls(Phase::PodemPhase), 1);
    // The detection counter matches the stats' detected classes.
    assert_eq!(
        snap.counter(Counter::FaultSimDetections),
        metered.stats.detected as u64
    );
}
