//! The monolithic-vs-modular comparison engine.

use modsoc_soc::stats::{pattern_count_stats, SampleStats};
use modsoc_soc::{CoreId, Soc};

use crate::error::AnalysisError;
use crate::tdv::{
    benefit_eq8, benefit_exact, core_tdv, isocost, modular_tdv, monolithic_tdv,
    monolithic_tdv_optimistic, penalty, TdvOptions, TdvVolume,
};

/// One per-core line of the analysis (a row of Tables 1–3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreTdvRow {
    /// Which core.
    pub id: CoreId,
    /// Core name.
    pub name: String,
    /// Per-pattern wrapper cost (Equation 5).
    pub isocost: u64,
    /// Stand-alone test data volume (Equation 4 term).
    pub volume: TdvVolume,
}

/// Core `id`'s row, or `None` when its `ISOCOST`, volume or total
/// overflows `u64`. The strict analysis and the guarded per-core one
/// (`runctl::analyze_soc_guarded`) both build their rows here.
pub(crate) fn core_row(soc: &Soc, id: CoreId, options: &TdvOptions) -> Option<CoreTdvRow> {
    Some(CoreTdvRow {
        id,
        name: soc.core(id).name.clone(),
        isocost: isocost(soc, id, options)?,
        volume: core_tdv(soc, id, options)?,
    })
}

/// The complete TDV analysis of one SOC.
///
/// Create with [`SocTdvAnalysis::compute`] (optimistic monolithic
/// pattern count, Equation 3) or
/// [`SocTdvAnalysis::compute_with_measured_tmono`] (a monolithic pattern
/// count measured by flattened-design ATPG, as in Tables 1–2).
///
/// # Example
///
/// Reproduce the paper's Table 1 headline from its published data:
///
/// ```
/// use modsoc_core::{SocTdvAnalysis, TdvOptions};
/// use modsoc_soc::itc02;
///
/// # fn main() -> Result<(), modsoc_core::AnalysisError> {
/// let soc = itc02::soc1();
/// let analysis = SocTdvAnalysis::compute_with_measured_tmono(
///     &soc,
///     &TdvOptions::tables_1_2(),
///     itc02::SOC1_MEASURED_TMONO,
/// )?;
/// assert_eq!(analysis.modular().total(), 45_183);
/// assert!((analysis.reduction_ratio() - 2.87).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocTdvAnalysis {
    soc_name: String,
    rows: Vec<CoreTdvRow>,
    t_mono: u64,
    t_mono_is_measured: bool,
    modular: TdvVolume,
    monolithic: TdvVolume,
    monolithic_optimistic: TdvVolume,
    penalty: u64,
    benefit_eq8: u64,
    benefit_exact: u64,
    pattern_stats: SampleStats,
}

impl SocTdvAnalysis {
    /// Analyse with the Equation 2/3 optimistic monolithic pattern count
    /// (`T_mono = max_i T_i`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Overflow`] when a core's row or a
    /// SOC-level quantity overflows `u64`, and propagates SOC validation
    /// errors.
    pub fn compute(soc: &Soc, options: &TdvOptions) -> Result<SocTdvAnalysis, AnalysisError> {
        soc.validate()?;
        Self::build(soc, options, soc.max_core_patterns(), false)
    }

    /// Analyse with a measured monolithic pattern count (from a real
    /// flattened-design ATPG run).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::TmonoBelowBound`] if `t_mono` undercuts
    /// the Equation 2 lower bound, [`AnalysisError::Overflow`] as
    /// [`SocTdvAnalysis::compute`] does, and propagates validation
    /// errors.
    pub fn compute_with_measured_tmono(
        soc: &Soc,
        options: &TdvOptions,
        t_mono: u64,
    ) -> Result<SocTdvAnalysis, AnalysisError> {
        soc.validate()?;
        let max_core = soc.max_core_patterns();
        if t_mono < max_core {
            return Err(AnalysisError::TmonoBelowBound { t_mono, max_core });
        }
        Self::build(soc, options, t_mono, true)
    }

    /// The one place where an equation's overflow becomes an error.
    fn build(
        soc: &Soc,
        options: &TdvOptions,
        t_mono: u64,
        measured: bool,
    ) -> Result<SocTdvAnalysis, AnalysisError> {
        let overflow = |what: String| AnalysisError::Overflow { what };
        let rows = soc
            .iter()
            .map(|(id, c)| {
                core_row(soc, id, options).ok_or_else(|| overflow(format!("core `{}`", c.name)))
            })
            .collect::<Result<_, _>>()?;
        let soc_level = |quantity: &str| overflow(format!("the SOC-level {quantity}"));
        Ok(SocTdvAnalysis {
            soc_name: soc.name().to_string(),
            rows,
            t_mono,
            t_mono_is_measured: measured,
            modular: modular_tdv(soc, options).ok_or_else(|| soc_level("modular TDV (Eq. 4)"))?,
            monolithic: monolithic_tdv(soc, t_mono)
                .ok_or_else(|| soc_level("monolithic TDV (Eq. 1)"))?,
            monolithic_optimistic: monolithic_tdv_optimistic(soc)
                .ok_or_else(|| soc_level("optimistic monolithic TDV (Eq. 3)"))?,
            penalty: penalty(soc, options).ok_or_else(|| soc_level("penalty (Eq. 7)"))?,
            benefit_eq8: benefit_eq8(soc, t_mono).ok_or_else(|| soc_level("benefit (Eq. 8)"))?,
            benefit_exact: benefit_exact(soc, t_mono, options)
                .ok_or_else(|| soc_level("exact benefit (Eq. 6)"))?,
            pattern_stats: pattern_count_stats(soc),
        })
    }

    /// SOC name.
    #[must_use]
    pub fn soc_name(&self) -> &str {
        &self.soc_name
    }

    /// Per-core rows, in SOC core order.
    #[must_use]
    pub fn rows(&self) -> &[CoreTdvRow] {
        &self.rows
    }

    /// The monolithic pattern count used (measured or the Equation 2
    /// bound).
    #[must_use]
    pub fn t_mono(&self) -> u64 {
        self.t_mono
    }

    /// Whether [`SocTdvAnalysis::t_mono`] was measured (vs optimistic).
    #[must_use]
    pub fn t_mono_is_measured(&self) -> bool {
        self.t_mono_is_measured
    }

    /// Modular test data volume (Equation 4).
    #[must_use]
    pub fn modular(&self) -> TdvVolume {
        self.modular
    }

    /// Monolithic test data volume at the used `T_mono` (Equation 1).
    #[must_use]
    pub fn monolithic(&self) -> TdvVolume {
        self.monolithic
    }

    /// Optimistic monolithic test data volume (Equation 3).
    #[must_use]
    pub fn monolithic_optimistic(&self) -> TdvVolume {
        self.monolithic_optimistic
    }

    /// Isolation penalty (Equation 7).
    #[must_use]
    pub fn penalty(&self) -> u64 {
        self.penalty
    }

    /// Benefit as printed in Equation 8 (no chip-pin term).
    #[must_use]
    pub fn benefit_eq8(&self) -> u64 {
        self.benefit_eq8
    }

    /// Exact benefit, defined so Equation 6 balances identically.
    #[must_use]
    pub fn benefit(&self) -> u64 {
        self.benefit_exact
    }

    /// TDV reduction ratio of modular testing against the monolithic
    /// volume at the used `T_mono` (Table 1: 2.87, Table 2: 2.22).
    #[must_use]
    pub fn reduction_ratio(&self) -> f64 {
        self.monolithic.total() as f64 / self.modular.total() as f64
    }

    /// Pessimistic reduction ratio: against the optimistic monolithic
    /// volume (Table 1: 1.13, Table 2: 1.06).
    #[must_use]
    pub fn pessimistic_reduction_ratio(&self) -> f64 {
        self.monolithic_optimistic.total() as f64 / self.modular.total() as f64
    }

    /// The pessimism factor `T_mono / max_i T_i` (2.5× for SOC1, 2.1×
    /// for SOC2 in the paper) — only meaningful when `T_mono` was
    /// measured.
    #[must_use]
    pub fn pessimism_factor(&self) -> f64 {
        // Both volumes are linear in the pattern count, so this equals
        // t_mono / max_i T_i.
        let opt = self.monolithic_optimistic.total();
        if opt == 0 {
            return 1.0;
        }
        self.monolithic.total() as f64 / opt as f64
    }

    /// Modular TDV change versus the *optimistic* monolithic TDV, in
    /// percent (Table 4 column 7; negative = reduction).
    #[must_use]
    pub fn modular_change_pct(&self) -> f64 {
        let opt = self.monolithic_optimistic.total() as f64;
        if opt == 0.0 {
            return 0.0;
        }
        (self.modular.total() as f64 - opt) / opt * 100.0
    }

    /// Penalty as a percentage of the optimistic monolithic TDV
    /// (Table 4 column 5).
    #[must_use]
    pub fn penalty_pct(&self) -> f64 {
        let opt = self.monolithic_optimistic.total() as f64;
        if opt == 0.0 {
            return 0.0;
        }
        self.penalty as f64 / opt * 100.0
    }

    /// Exact benefit as a (negative) percentage of the optimistic
    /// monolithic TDV (Table 4 column 6).
    #[must_use]
    pub fn benefit_pct(&self) -> f64 {
        let opt = self.monolithic_optimistic.total() as f64;
        if opt == 0.0 {
            return 0.0;
        }
        -(self.benefit_exact as f64) / opt * 100.0
    }

    /// Pattern-count statistics over module cores (Table 4 column 3 is
    /// [`SampleStats::normalized_stdev`]).
    #[must_use]
    pub fn pattern_stats(&self) -> SampleStats {
        self.pattern_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_soc::itc02;

    #[test]
    fn soc1_headline_numbers() {
        let soc = itc02::soc1();
        let a = SocTdvAnalysis::compute_with_measured_tmono(
            &soc,
            &TdvOptions::tables_1_2(),
            itc02::SOC1_MEASURED_TMONO,
        )
        .unwrap();
        assert_eq!(a.modular().total(), 45_183);
        assert_eq!(a.monolithic().total(), 129_816);
        assert_eq!(a.monolithic_optimistic().total(), 51_085);
        // Paper: reduction ratio 2.87, pessimistic 1.13, pessimism ~2.5x.
        assert!((a.reduction_ratio() - 2.873).abs() < 0.01);
        assert!((a.pessimistic_reduction_ratio() - 1.131).abs() < 0.01);
        assert!((a.pessimism_factor() - 2.541).abs() < 0.01);
        // Self-consistent penalty/benefit (paper prints 10,627 / 95,260;
        // both are 122 lower than its own per-row data implies).
        assert_eq!(a.penalty(), 10_749);
        assert_eq!(a.benefit(), 95_382);
        // Equation 6 balances exactly.
        assert_eq!(
            a.monolithic().total() + a.penalty() - a.benefit(),
            a.modular().total()
        );
    }

    #[test]
    fn soc2_headline_numbers() {
        let soc = itc02::soc2();
        let a = SocTdvAnalysis::compute_with_measured_tmono(
            &soc,
            &TdvOptions::tables_1_2(),
            itc02::SOC2_MEASURED_TMONO,
        )
        .unwrap();
        assert_eq!(a.modular().total(), 1_344_585);
        assert_eq!(a.monolithic().total(), 2_986_200);
        assert!((a.reduction_ratio() - 2.221).abs() < 0.01);
        assert!((a.pessimistic_reduction_ratio() - 1.062).abs() < 0.01);
        assert!((a.pessimism_factor() - 2.091).abs() < 0.01);
    }

    #[test]
    fn p34392_matches_table4_row() {
        let soc = itc02::p34392();
        let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).unwrap();
        let row = itc02::table4_row("p34392").unwrap();
        assert_eq!(a.monolithic_optimistic().total(), row.tdv_opt_mono);
        assert_eq!(a.modular().total(), row.tdv_modular);
        assert!(!a.t_mono_is_measured());
        assert_eq!(a.t_mono(), 12_336);
        // Percentages: benefit −95.5%, modular −86.0%... the paper's
        // modular_pct inherits its penalty decimal typo; the true value
        // is −94.5%.
        assert!(
            (a.benefit_pct() - row.benefit_pct).abs() < 0.06,
            "{}",
            a.benefit_pct()
        );
        assert!((a.modular_change_pct() + 94.54).abs() < 0.05);
        assert!((a.penalty_pct() - 0.9548).abs() < 0.01);
    }

    #[test]
    fn tmono_below_bound_rejected() {
        let soc = itc02::soc1();
        let err = SocTdvAnalysis::compute_with_measured_tmono(&soc, &TdvOptions::tables_1_2(), 3)
            .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::TmonoBelowBound { max_core: 85, .. }
        ));
    }

    #[test]
    fn rows_cover_all_cores() {
        let soc = itc02::p34392();
        let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).unwrap();
        assert_eq!(a.rows().len(), 20);
        let total: u64 = a.rows().iter().map(|r| r.volume.total()).sum();
        assert_eq!(total, a.modular().total());
    }

    #[test]
    fn pattern_stats_surface() {
        let soc = itc02::p34392();
        let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).unwrap();
        assert_eq!(a.pattern_stats().n, 19);
        assert!(a.pattern_stats().normalized_stdev() > 1.0);
    }

    #[test]
    fn eq8_residual_is_chip_pin_term() {
        let soc = itc02::p34392();
        let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).unwrap();
        let (i, o, b) = soc.chip_pins().unwrap();
        // The Equation 6 residual of the printed Equation 8.
        assert_eq!(a.benefit() - a.benefit_eq8(), (i + o + 2 * b) * a.t_mono());
    }
}
