//! Shared helpers for the experiment binaries and benches.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §5 for the index); each Criterion bench under
//! `benches/` measures the regeneration workload. The helpers here keep
//! the two in sync.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use modsoc_circuitgen::SocNetlist;
use modsoc_core::analysis::SocTdvAnalysis;
use modsoc_core::experiment::{run_soc_experiment_guarded, ExperimentOptions, SocExperiment};
use modsoc_core::runctl::RunBudget;
use modsoc_core::tdv::TdvOptions;
use modsoc_core::AnalysisError;

/// Percent difference of `ours` versus `paper`.
#[must_use]
pub fn pct_delta(ours: f64, paper: f64) -> f64 {
    if paper == 0.0 {
        return 0.0;
    }
    (ours - paper) / paper * 100.0
}

/// Parse a `--jobs N` flag from a binary's argument list (`0` = auto).
/// Returns `1` (sequential) when the flag is absent.
///
/// # Errors
///
/// Returns a message when the flag has a missing or non-numeric value.
pub fn jobs_from_args(args: &[String]) -> Result<usize, String> {
    match args.iter().position(|a| a == "--jobs") {
        None => Ok(1),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| "--jobs requires a value".to_string())?
            .parse()
            .map_err(|_| "--jobs is not a valid number".to_string()),
    }
}

/// Run the live (netlist + ATPG) experiment for one of the paper's SOC
/// constructions and print the comparison against the published
/// numbers.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn run_live_soc(
    label: &str,
    netlist: &SocNetlist,
    paper_ratio: f64,
    paper_pessimistic: f64,
) -> Result<SocExperiment, AnalysisError> {
    run_live_soc_opts(
        label,
        netlist,
        paper_ratio,
        paper_pessimistic,
        &ExperimentOptions::paper_tables_1_2(),
    )
}

/// [`run_live_soc`] with explicit [`ExperimentOptions`] — the bins use
/// this to thread `--jobs` through to the per-core phase.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn run_live_soc_opts(
    label: &str,
    netlist: &SocNetlist,
    paper_ratio: f64,
    paper_pessimistic: f64,
    options: &ExperimentOptions,
) -> Result<SocExperiment, AnalysisError> {
    eprintln!(
        "[{label}] running per-core ATPG ({} jobs) + flattened monolithic ATPG ...",
        modsoc_core::parallel::effective_jobs(options.jobs)
    );
    let exp =
        run_soc_experiment_guarded(netlist, options, &RunBudget::unlimited())?.into_complete()?;
    println!("== {label}: live regeneration (synthetic ISCAS'89 lookalikes) ==");
    println!(
        "{}",
        modsoc_core::report::render_core_table(&exp.soc, &exp.analysis)
    );
    println!(
        "monolithic ATPG: T_mono = {} (max core {}), coverage {:.2}%, eq.2 strict: {}",
        exp.t_mono,
        exp.soc.max_core_patterns(),
        exp.mono_coverage * 100.0,
        exp.eq2_strict
    );
    println!(
        "reduction ratio: ours {:.2} vs paper {:.2} ({:+.1}%)",
        exp.analysis.reduction_ratio(),
        paper_ratio,
        pct_delta(exp.analysis.reduction_ratio(), paper_ratio)
    );
    println!(
        "pessimistic ratio: ours {:.2} vs paper {:.2}",
        exp.analysis.pessimistic_reduction_ratio(),
        paper_pessimistic
    );
    Ok(exp)
}

/// Print the paper-data version of a Tables 1/2 analysis.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn print_paper_table(
    label: &str,
    soc: &modsoc_soc::Soc,
    t_mono: u64,
) -> Result<SocTdvAnalysis, AnalysisError> {
    let analysis =
        SocTdvAnalysis::compute_with_measured_tmono(soc, &TdvOptions::tables_1_2(), t_mono)?;
    println!("== {label}: published data (Table transcription) ==");
    println!("{}", modsoc_core::report::render_core_table(soc, &analysis));
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_delta_basic() {
        assert!((pct_delta(2.2, 2.0) - 10.0).abs() < 1e-9);
        assert_eq!(pct_delta(1.0, 0.0), 0.0);
    }

    #[test]
    fn paper_table_prints() {
        let soc = modsoc_soc::itc02::soc1();
        let a = print_paper_table("t", &soc, modsoc_soc::itc02::SOC1_MEASURED_TMONO).unwrap();
        assert_eq!(a.modular().total(), 45_183);
    }
}
