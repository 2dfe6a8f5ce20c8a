//! The full live pipeline on a small SOC: generate core netlists, run
//! ATPG per core, flatten, run monolithic ATPG, and compare test data
//! volumes — the Tables 1/2 experiment at example scale.
//!
//! Run with: `cargo run --release --example modular_vs_monolithic`

use modsoc::analysis::experiment::{run_soc_experiment_guarded, ExperimentOptions};
use modsoc::analysis::report::render_core_table;
use modsoc::analysis::RunBudget;
use modsoc::circuitgen::soc::mini_soc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-core SOC with deliberately different core difficulty: coreA
    // is XOR-rich (many patterns), coreB is easy (few patterns). The
    // difference is exactly what modular testing monetizes.
    let netlist = mini_soc(7)?;
    println!(
        "SOC `{}`: {} cores, chip I/O {}/{}, {} scan cells total",
        netlist.name(),
        netlist.cores().len(),
        netlist.chip_input_count(),
        netlist.chip_output_count(),
        netlist.total_scan_cells()
    );
    for core in netlist.cores() {
        println!("  {core}");
    }

    let experiment = run_soc_experiment_guarded(
        &netlist,
        &ExperimentOptions::paper_tables_1_2(),
        &RunBudget::unlimited(),
    )?
    .into_complete()?;
    println!("\nper-core ATPG:");
    for m in &experiment.cores {
        println!(
            "  {}: {} patterns, {:.1}% fault coverage ({} faults collapsed from {})",
            m.name,
            m.patterns,
            m.fault_coverage * 100.0,
            m.stats.collapsed_faults,
            m.stats.universe_faults
        );
    }
    println!(
        "\nmonolithic (flattened, isolation ripped out): {} patterns, {:.1}% coverage",
        experiment.t_mono,
        experiment.mono_coverage * 100.0
    );
    println!(
        "equation 2 (T_mono >= max core T): {} >= {} — strict: {}",
        experiment.t_mono,
        experiment.soc.max_core_patterns(),
        experiment.eq2_strict
    );

    println!(
        "\n{}",
        render_core_table(&experiment.soc, &experiment.analysis)
    );
    println!(
        "verdict: modular testing needs {:.2}x less test data than the monolithic run",
        experiment.analysis.reduction_ratio()
    );
    Ok(())
}
