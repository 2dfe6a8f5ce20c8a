//! At-speed transition-delay fault testing (launch-on-capture).
//!
//! Runs the TDF flow on a generated full-scan core and compares its
//! pattern economics against the stuck-at flow on the same design —
//! at-speed patterns are the other big consumer of tester data volume in
//! practice, and they obey the same per-core-count arithmetic the paper
//! analyses.
//!
//! Run with: `cargo run --release --example transition_faults`

use modsoc::atpg::budget::RunBudget;
use modsoc::atpg::tdf::{enumerate_transition_faults, run_tdf_atpg, LaunchScheme};
use modsoc::atpg::{Atpg, AtpgOptions};
use modsoc::circuitgen::{generate, CoreProfile};
use modsoc::metrics::NullSink;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = CoreProfile::new("core", 10, 6, 16).with_seed(8);
    let circuit = generate(&profile)?;
    let model = circuit.to_test_model()?;
    println!(
        "core: {} gates, {} scan cells; TDF universe: {} faults",
        circuit.gate_count(),
        circuit.dff_count(),
        enumerate_transition_faults(&model.circuit).len()
    );

    let stuck = Atpg::new(AtpgOptions::default()).run(&circuit)?;
    println!(
        "\nstuck-at flow:   {:>4} patterns, {:>6.2}% coverage",
        stuck.pattern_count(),
        stuck.fault_coverage() * 100.0
    );

    let tdf = run_tdf_atpg(
        &circuit,
        400,
        LaunchScheme::Capture,
        &RunBudget::unlimited(),
        &NullSink,
    )?;
    println!(
        "transition flow: {:>4} patterns, {:>6.2}% coverage over LOC-testable \
         ({} detected, {} LOC-untestable, {} aborted of {})",
        tdf.patterns.len(),
        tdf.coverage() * 100.0,
        tdf.detected,
        tdf.untestable,
        tdf.aborted,
        tdf.total
    );
    println!(
        "\nTDF patterns usually outnumber stuck-at patterns on the same core —\n\
         so an SOC's at-speed TDV obeys the same modular-vs-monolithic\n\
         arithmetic the paper derives, with even higher stakes."
    );
    Ok(())
}
