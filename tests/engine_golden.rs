//! Golden pins for the ATPG engine.
//!
//! Each core of `mini_soc(7)` and its flattened netlist runs under four
//! option sets: the defaults, no random phase, dynamic compaction, and
//! dynamic compaction without the random phase.
//! Every run pins three things: the SHA-256 of the pattern text, the
//! run's `AtpgStats`, and every nonzero metrics counter together with
//! the budget's backtrack total. Any change to the engine's search,
//! fault dropping or compaction order shows up here as a diff, so a
//! refactor that claims byte-identical output has to keep these lines.

use std::sync::Arc;

use modsoc::analysis::RunBudget;
use modsoc::atpg::{Atpg, AtpgOptions};
use modsoc::circuitgen::soc::mini_soc;
use modsoc::metrics::{Counter, RecordingSink};
use modsoc::netlist::Circuit;
use modsoc::store::sha256;

/// One line per run, in `circuits() × configs()` order.
const GOLDEN: &[&str] = &[
    "coreA/default sha256=2b7312f49bec82bda3e51ab8945291b777a6b2911d0990e5cc173969ea715226 universe=556 collapsed=367 detected=367 redundant=0 aborted=0 random=48 det_cubes=0 repair=0 before_reverse=48 final=36 backtracks_used=0 faults_universe=556 faults_collapsed=367 random_patterns_kept=48 fault_sim_batches=6 fault_sim_fault_evals=1115 fault_sim_detections=367 reverse_compaction_removed=12 patterns_final=36",
    "coreA/random0 sha256=a3e79c1fac6acc4077f505927b7790212a79955d72d5e82cb604584376594d25 universe=556 collapsed=367 detected=367 redundant=0 aborted=0 random=0 det_cubes=40 repair=24 before_reverse=42 final=35 backtracks_used=29 faults_universe=556 faults_collapsed=367 podem_calls=64 podem_tests=64 podem_decisions=492 podem_backtracks=29 fault_sim_batches=42 fault_sim_fault_evals=3173 fault_sim_detections=367 static_merge_saved=22 repair_patterns=24 reverse_compaction_removed=7 patterns_final=35",
    "coreA/dynamic sha256=2b7312f49bec82bda3e51ab8945291b777a6b2911d0990e5cc173969ea715226 universe=556 collapsed=367 detected=367 redundant=0 aborted=0 random=48 det_cubes=0 repair=0 before_reverse=48 final=36 backtracks_used=0 faults_universe=556 faults_collapsed=367 random_patterns_kept=48 fault_sim_batches=6 fault_sim_fault_evals=1115 fault_sim_detections=367 reverse_compaction_removed=12 patterns_final=36",
    "coreA/dynamic_random0 sha256=60b5135c29d3b66704efd8a4931caa27baa010a3f5afd020e81a58fc036a38d6 universe=556 collapsed=367 detected=367 redundant=0 aborted=0 random=0 det_cubes=42 repair=11 before_reverse=36 final=33 backtracks_used=24 faults_universe=556 faults_collapsed=367 podem_calls=53 podem_tests=53 podem_decisions=399 podem_backtracks=24 fault_sim_batches=44 fault_sim_fault_evals=3260 fault_sim_detections=367 repair_patterns=11 reverse_compaction_removed=3 patterns_final=33",
    "coreB/default sha256=e0f7f80387d3fc2b6a6401ec9e50af3fd5849e969ad6609ccf4d65712a0d2741 universe=358 collapsed=208 detected=208 redundant=0 aborted=0 random=42 det_cubes=9 repair=0 before_reverse=50 final=34 backtracks_used=1 faults_universe=358 faults_collapsed=208 random_patterns_kept=42 podem_calls=9 podem_tests=9 podem_decisions=93 podem_backtracks=1 fault_sim_batches=15 fault_sim_fault_evals=698 fault_sim_detections=208 static_merge_saved=1 reverse_compaction_removed=16 patterns_final=34",
    "coreB/random0 sha256=e256d5d897ffc1ebd3880c42f83ed9fad4a10e794573f96326caa53e337f66d4 universe=358 collapsed=208 detected=208 redundant=0 aborted=0 random=0 det_cubes=44 repair=10 before_reverse=36 final=34 backtracks_used=8 faults_universe=358 faults_collapsed=208 podem_calls=54 podem_tests=54 podem_decisions=374 podem_backtracks=8 fault_sim_batches=46 fault_sim_fault_evals=2214 fault_sim_detections=208 static_merge_saved=18 repair_patterns=10 reverse_compaction_removed=2 patterns_final=34",
    "coreB/dynamic sha256=658a96b570b2345ce5e23770d8f9c078bef132f49eda2a5c94d3cf6a41d981e1 universe=358 collapsed=208 detected=208 redundant=0 aborted=0 random=42 det_cubes=9 repair=0 before_reverse=50 final=34 backtracks_used=1 faults_universe=358 faults_collapsed=208 random_patterns_kept=42 podem_calls=9 podem_tests=9 podem_decisions=93 podem_backtracks=1 fault_sim_batches=15 fault_sim_fault_evals=698 fault_sim_detections=208 reverse_compaction_removed=16 patterns_final=34",
    "coreB/dynamic_random0 sha256=540482a298c0085775f83534b97913d937bb913e47ff382f13f02b1753fb5414 universe=358 collapsed=208 detected=208 redundant=0 aborted=0 random=0 det_cubes=44 repair=9 before_reverse=38 final=36 backtracks_used=8 faults_universe=358 faults_collapsed=208 podem_calls=53 podem_tests=53 podem_decisions=371 podem_backtracks=8 fault_sim_batches=46 fault_sim_fault_evals=2191 fault_sim_detections=208 repair_patterns=9 reverse_compaction_removed=2 patterns_final=36",
    "flat/default sha256=7cac2c2a9967010340e4c9e28c96b66adea76eb2f0169c7ebdad01c436198c14 universe=902 collapsed=563 detected=563 redundant=0 aborted=0 random=74 det_cubes=9 repair=0 before_reverse=83 final=53 backtracks_used=21 faults_universe=902 faults_collapsed=563 random_patterns_kept=74 podem_calls=9 podem_tests=9 podem_decisions=165 podem_backtracks=21 fault_sim_batches=16 fault_sim_fault_evals=2390 fault_sim_detections=563 reverse_compaction_removed=30 patterns_final=53",
    "flat/random0 sha256=207d83566d999f01d630bca16a70d1a9cafc5b175118b960224bd00ba5fb0820 universe=902 collapsed=563 detected=563 redundant=0 aborted=0 random=0 det_cubes=57 repair=25 before_reverse=63 final=53 backtracks_used=95 faults_universe=902 faults_collapsed=563 podem_calls=82 podem_tests=82 podem_decisions=947 podem_backtracks=95 fault_sim_batches=59 fault_sim_fault_evals=5477 fault_sim_detections=563 static_merge_saved=19 repair_patterns=25 reverse_compaction_removed=10 patterns_final=53",
    "flat/dynamic sha256=41cbe1580abf8539bce5e65d80e84b19ed4cb214e6b33c1e4f0ce0eb730f35ef universe=902 collapsed=563 detected=563 redundant=0 aborted=0 random=74 det_cubes=9 repair=0 before_reverse=83 final=53 backtracks_used=21 faults_universe=902 faults_collapsed=563 random_patterns_kept=74 podem_calls=9 podem_tests=9 podem_decisions=165 podem_backtracks=21 fault_sim_batches=16 fault_sim_fault_evals=2390 fault_sim_detections=563 reverse_compaction_removed=30 patterns_final=53",
    "flat/dynamic_random0 sha256=496d992a8ea5ae60bb42eeeda9b162874069bbb934d3f6df75e89dd4b9b584b4 universe=902 collapsed=563 detected=563 redundant=0 aborted=0 random=0 det_cubes=60 repair=15 before_reverse=54 final=53 backtracks_used=93 faults_universe=902 faults_collapsed=563 podem_calls=75 podem_tests=75 podem_decisions=857 podem_backtracks=93 fault_sim_batches=62 fault_sim_fault_evals=5723 fault_sim_detections=563 repair_patterns=15 reverse_compaction_removed=1 patterns_final=53",
];

fn circuits() -> Vec<(String, Circuit)> {
    let soc = mini_soc(7).expect("mini soc builds");
    let mut out: Vec<(String, Circuit)> = soc
        .cores()
        .iter()
        .map(|c| (c.name().to_string(), c.clone()))
        .collect();
    out.push((
        "flat".to_string(),
        soc.flatten().expect("mini soc flattens"),
    ));
    out
}

fn configs() -> Vec<(&'static str, AtpgOptions)> {
    vec![
        ("default", AtpgOptions::default()),
        ("random0", AtpgOptions::deterministic_only()),
        (
            "dynamic",
            AtpgOptions {
                dynamic_compaction: true,
                ..AtpgOptions::default()
            },
        ),
        // Without the random phase PODEM generates every cube, so the
        // dynamic merge runs on dozens of cubes instead of a handful.
        (
            "dynamic_random0",
            AtpgOptions {
                dynamic_compaction: true,
                ..AtpgOptions::deterministic_only()
            },
        ),
    ]
}

/// Render one run as its golden line.
fn golden_line(name: &str, config: &str, circuit: &Circuit, options: AtpgOptions) -> String {
    let sink = Arc::new(RecordingSink::new());
    let budget = RunBudget::unlimited();
    let result = Atpg::with_sink(options, sink.clone())
        .run_budgeted(circuit, &budget)
        .expect("atpg runs");
    let digest = sha256::hex(&sha256::digest(result.patterns.to_text().as_bytes()));
    let s = &result.stats;
    let snapshot = sink.snapshot();
    let counters: Vec<String> = Counter::ALL
        .iter()
        .filter(|&&c| snapshot.counter(c) != 0)
        .map(|&c| format!("{}={}", c.name(), snapshot.counter(c)))
        .collect();
    format!(
        "{name}/{config} sha256={digest} universe={} collapsed={} detected={} redundant={} \
         aborted={} random={} det_cubes={} repair={} before_reverse={} final={} \
         backtracks_used={} {}",
        s.universe_faults,
        s.collapsed_faults,
        s.detected,
        s.redundant,
        s.aborted,
        s.random_patterns,
        s.deterministic_cubes,
        s.repair_patterns,
        s.patterns_before_reverse,
        s.final_patterns,
        budget.backtracks_used(),
        counters.join(" ")
    )
}

#[test]
fn engine_output_matches_golden() {
    let mut lines = Vec::new();
    for (name, circuit) in circuits() {
        for (config, options) in configs() {
            lines.push(golden_line(&name, config, &circuit, options));
        }
    }
    assert_eq!(
        lines.len(),
        GOLDEN.len(),
        "golden rows:\n{}",
        lines.join("\n")
    );
    for (got, want) in lines.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}
