//! Plain-text table renderers matching the paper's layouts.

use std::fmt::Write as _;

use modsoc_soc::Soc;

use crate::analysis::SocTdvAnalysis;
use crate::metrics::{Counter, RunMetrics};
use crate::runctl::{CoreOutcome, CoreOutcomeKind};

/// Format an integer with thousands separators (`28538030` →
/// `28,538,030`), as the paper's tables print volumes.
#[must_use]
pub fn fmt_u64(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Render the full `modsoc analyze` report — SOC summary line, per-core
/// table, modular-change footer — byte-identical to what the CLI's
/// strict path writes to stdout. `modsoc serve`'s `/analyze` endpoint
/// with `"format": "text"` returns exactly this string, which is what
/// the CI serve gate byte-diffs against a CLI run.
#[must_use]
pub fn render_analyze_report(soc: &Soc, analysis: &SocTdvAnalysis) -> String {
    format!(
        "{soc}\n{}\nmodular change vs optimistic monolithic: {:+.1}%\n",
        render_core_table(soc, analysis),
        analysis.modular_change_pct()
    )
}

/// Render a Tables 1–3 style per-core TDV table.
///
/// Columns: core, I, O, B, S, T, ISOCOST, TDV; followed by the SOC
/// modular total, the monolithic row(s), and the penalty/benefit
/// decomposition.
#[must_use]
pub fn render_core_table(soc: &Soc, analysis: &SocTdvAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>5} {:>7} {:>7} {:>8} {:>15}",
        "core", "I", "O", "B", "S", "T", "ISOCOST", "TDV"
    );
    for ((_, spec), row) in soc.iter().zip(analysis.rows()) {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>5} {:>7} {:>7} {:>8} {:>15}",
            spec.name,
            spec.inputs,
            spec.outputs,
            spec.bidirs,
            spec.scan_cells,
            spec.patterns,
            row.isocost,
            fmt_u64(row.volume.total())
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>65}",
        "SOC (modular)",
        fmt_u64(analysis.modular().total())
    );
    if analysis.t_mono_is_measured() {
        let _ = writeln!(
            out,
            "{:<16} T={:<7} {:>48}",
            "Mono",
            analysis.t_mono(),
            fmt_u64(analysis.monolithic().total())
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>65}",
        "Mono opt",
        fmt_u64(analysis.monolithic_optimistic().total())
    );
    let _ = writeln!(
        out,
        "TDVpenalty = {}   TDVbenefit = {}",
        fmt_u64(analysis.penalty()),
        fmt_u64(analysis.benefit())
    );
    if analysis.t_mono_is_measured() {
        let _ = writeln!(
            out,
            "reduction ratio = {:.2}   pessimistic ratio = {:.2}   pessimism = {:.1}x",
            analysis.reduction_ratio(),
            analysis.pessimistic_reduction_ratio(),
            analysis.pessimism_factor()
        );
    }
    out
}

/// Render a Table 4 style survey over several analysed SOCs.
///
/// Columns: SOC, cores, normalized std-dev of pattern counts, optimistic
/// monolithic TDV, penalty (bits and %), benefit (bits and %), modular
/// TDV (bits and %); followed by the column averages the paper reports.
#[must_use]
pub fn render_survey(analyses: &[SocTdvAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>6} {:>16} {:>16} {:>8} {:>18} {:>8} {:>16} {:>8}",
        "SOC", "cores", "nstd", "TDVopt_mono", "penalty", "%", "benefit", "%", "TDVmodular", "%"
    );
    let mut sums = (0.0f64, 0.0f64, 0.0f64);
    for a in analyses {
        let st = a.pattern_stats();
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>6.2} {:>16} {:>16} {:>+7.1}% {:>18} {:>+7.1}% {:>16} {:>+7.1}%",
            a.soc_name(),
            st.n,
            st.normalized_stdev(),
            fmt_u64(a.monolithic_optimistic().total()),
            fmt_u64(a.penalty()),
            a.penalty_pct(),
            fmt_u64(a.benefit()),
            a.benefit_pct(),
            fmt_u64(a.modular().total()),
            a.modular_change_pct(),
        );
        sums.0 += a.penalty_pct();
        sums.1 += a.benefit_pct();
        sums.2 += a.modular_change_pct();
    }
    if !analyses.is_empty() {
        let n = analyses.len() as f64;
        let _ = writeln!(
            out,
            "{:<10} {:>46} {:>+7.1}% {:>27.1}% {:>25.1}%",
            "Average",
            "",
            sums.0 / n,
            sums.1 / n,
            sums.2 / n
        );
    }
    out
}

/// Render the per-core outcome column of a guarded run: one row per
/// core with `ok` / `partial` / `FAILED`, the patterns it contributed,
/// and the diagnostic for anything that did not complete.
#[must_use]
pub fn render_outcome_table(outcomes: &[CoreOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {:>8} {:>9}  detail", "core", "outcome", "T");
    for o in outcomes {
        let patterns = o
            .patterns
            .map_or_else(|| "-".to_string(), |t| t.to_string());
        let detail = match &o.kind {
            CoreOutcomeKind::Complete => String::new(),
            CoreOutcomeKind::Partial(e) => e.to_string(),
            CoreOutcomeKind::Failed(f) => f.to_string(),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>9}  {}",
            o.core,
            o.kind.label(),
            patterns,
            detail
        );
    }
    out
}

/// Render a per-core metrics breakdown from a [`RunMetrics`] report:
/// one row per core (monolithic pseudo-core included) with the headline
/// engine counters and that core's accumulated phase wall time, then a
/// totals row. Wall-time columns are scheduling-dependent; everything
/// else is deterministic.
#[must_use]
pub fn render_metrics_table(metrics: &RunMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>9} {:>9} {:>11} {:>13} {:>10}",
        "core", "outcome", "T", "podem", "backtracks", "sim_evals", "wall_ms"
    );
    let row_wall_ms =
        |snap: &crate::metrics::MetricsSnapshot| snap.phase_nanos.iter().sum::<u64>() as f64 / 1e6;
    for core in &metrics.cores {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>9} {:>9} {:>11} {:>13} {:>10.1}",
            core.core,
            core.outcome,
            core.patterns
                .map_or_else(|| "-".to_string(), |t| t.to_string()),
            core.snapshot.counter(Counter::PodemCalls),
            core.snapshot.counter(Counter::PodemBacktracks),
            fmt_u64(core.snapshot.counter(Counter::FaultSimFaultEvals)),
            row_wall_ms(&core.snapshot)
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>9} {:>9} {:>11} {:>13} {:>10.1}",
        "(totals)",
        "-",
        metrics.totals.counter(Counter::PatternsFinal),
        metrics.totals.counter(Counter::PodemCalls),
        metrics.totals.counter(Counter::PodemBacktracks),
        fmt_u64(metrics.totals.counter(Counter::FaultSimFaultEvals)),
        metrics.wall_ms
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::{analyze_soc_guarded, CoreFailure};
    use crate::tdv::TdvOptions;
    use modsoc_soc::{itc02, CoreSpec};

    #[test]
    fn thousands_separators() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1_000), "1,000");
        assert_eq!(fmt_u64(28_538_030), "28,538,030");
        assert_eq!(fmt_u64(144_302_301_808), "144,302,301,808");
    }

    #[test]
    fn core_table_contains_paper_numbers() {
        let soc = itc02::soc1();
        let a = SocTdvAnalysis::compute_with_measured_tmono(
            &soc,
            &TdvOptions::tables_1_2(),
            itc02::SOC1_MEASURED_TMONO,
        )
        .unwrap();
        let text = render_core_table(&soc, &a);
        assert!(text.contains("4,992"), "{text}");
        assert!(text.contains("45,183"));
        assert!(text.contains("129,816"));
        assert!(text.contains("51,085"));
        assert!(text.contains("2.87"));
    }

    #[test]
    fn survey_renders_rows_and_average() {
        let soc = itc02::p34392();
        let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).unwrap();
        let text = render_survey(&[a]);
        assert!(text.contains("p34392"));
        assert!(text.contains("522,738,000"));
        assert!(text.contains("Average"));
    }

    #[test]
    fn empty_survey_is_header_only() {
        let text = render_survey(&[]);
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn outcome_table_shows_failures_inline() {
        let mut soc = modsoc_soc::Soc::new("mixed");
        soc.add_core(CoreSpec::leaf("healthy", 4, 3, 0, 20, 100))
            .unwrap();
        soc.add_core(CoreSpec::leaf("poisoned", 1, 1, 0, u64::MAX, u64::MAX))
            .unwrap();
        let completion = analyze_soc_guarded(
            &soc,
            &TdvOptions::tables_1_2(),
            1,
            &modsoc_metrics::NullSink,
        );
        let text = render_outcome_table(&completion.per_core_outcomes);
        assert!(text.contains("healthy"), "{text}");
        assert!(text.contains("ok"), "{text}");
        assert!(text.contains("FAILED"), "{text}");
        assert!(text.contains("overflow"), "{text}");
        let failed = completion.failed_cores();
        assert!(matches!(
            failed[0].kind,
            CoreOutcomeKind::Failed(CoreFailure::Overflow)
        ));
    }
}
