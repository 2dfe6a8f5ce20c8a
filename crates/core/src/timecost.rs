//! Joint test-data-volume / test-time analysis.
//!
//! The paper's introduction lists test *time* reduction among modular
//! testing's benefits but scopes its analysis to data volume only. This
//! module bridges the two: for the same [`Soc`] parameters the TDV
//! equations consume, it computes modular and monolithic test
//! application time over a TAM of width `w` (via `modsoc-tam`), so both
//! dimensions of the trade can be reported side by side — e.g. for the
//! paper-cited observation (its refs 20 and 21) that modularity helps
//! time as well as data.

use modsoc_soc::Soc;
use modsoc_tam::schedule::schedule_rectangles;
use modsoc_tam::wrapper::{design_wrapper, WrapperCore};
use modsoc_tam::TamError;

use crate::analysis::SocTdvAnalysis;
use crate::error::AnalysisError;
use crate::tdv::TdvOptions;

/// Joint TDV + time comparison at one TAM width.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeCost {
    /// TAM width used for both sides.
    pub width: usize,
    /// Internal scan chains assumed per core (and for the flattened
    /// chip, scaled by width).
    pub chains_per_core: usize,
    /// Modular test time: all wrapped cores scheduled on the TAM.
    pub modular_time: u64,
    /// Monolithic test time: the flattened chip's scan cells in
    /// `width` balanced chains, `T_mono` loads.
    pub monolithic_time: u64,
    /// The TDV analysis the times accompany.
    pub tdv: SocTdvAnalysis,
}

/// Compute the joint comparison at TAM width `width`, with each core's
/// scan cells split into `chains_per_core` internal chains.
///
/// The monolithic side models the paper's flattened design: all scan
/// cells in `width` balanced chains, loaded `T_mono` times (the
/// analysis' monolithic pattern count — measured if provided, else the
/// Equation 2 bound).
///
/// # Errors
///
/// Propagates SOC validation and scheduling errors.
pub fn time_cost(
    soc: &Soc,
    options: &TdvOptions,
    t_mono: Option<u64>,
    width: usize,
    chains_per_core: usize,
) -> Result<TimeCost, AnalysisError> {
    let tdv = match t_mono {
        Some(t) => SocTdvAnalysis::compute_with_measured_tmono(soc, options, t)?,
        None => SocTdvAnalysis::compute(soc, options)?,
    };

    // Modular: wrapped cores with nonzero pattern counts, flexibly
    // scheduled on the TAM.
    let cores: Vec<WrapperCore> = soc
        .iter()
        .filter(|(_, c)| c.patterns > 0)
        .map(|(_, c)| WrapperCore::from_core_spec(c, chains_per_core))
        .collect();
    let modular_time = if cores.is_empty() {
        0
    } else {
        schedule_rectangles(&cores, width)
            .map_err(tam_to_analysis)?
            .makespan()
    };

    // Monolithic: one flat design, scan split over `width` chains (one
    // chain per TAM wire — the paper's balanced-chain assumption).
    let flat = soc
        .flattened_spec(tdv.t_mono())
        .expect("the TDV analysis checked the chip pins and scan cells");
    let flat = WrapperCore::from_core_spec(&flat, width);
    let monolithic_time = design_wrapper(&flat, width).test_time_self();

    Ok(TimeCost {
        width,
        chains_per_core,
        modular_time,
        monolithic_time,
        tdv,
    })
}

fn tam_to_analysis(e: TamError) -> AnalysisError {
    AnalysisError::Soc(modsoc_soc::SocError::Infeasible {
        message: format!("tam scheduling failed: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_soc::itc02;

    #[test]
    fn p34392_modular_time_wins() {
        let soc = itc02::p34392();
        let tc = time_cost(&soc, &TdvOptions::tables_3_4(), None, 16, 8).unwrap();
        assert!(tc.modular_time > 0);
        assert!(tc.monolithic_time > 0);
        // The paper's intro claim, quantified: modular scheduling beats
        // loading every scan cell with the max pattern count.
        assert!(
            tc.modular_time < tc.monolithic_time,
            "modular {} vs monolithic {}",
            tc.modular_time,
            tc.monolithic_time
        );
        // And the TDV side is the familiar one.
        assert_eq!(tc.tdv.modular().total(), itc02::P34392_TDV_MODULAR);
    }

    #[test]
    fn soc1_with_measured_tmono() {
        let soc = itc02::soc1();
        let tc = time_cost(
            &soc,
            &TdvOptions::tables_1_2(),
            Some(itc02::SOC1_MEASURED_TMONO),
            8,
            4,
        )
        .unwrap();
        assert_eq!(tc.tdv.t_mono(), 216);
        assert!(tc.modular_time < tc.monolithic_time);
    }

    #[test]
    fn wider_tam_shrinks_both_times() {
        let soc = itc02::soc2();
        let narrow = time_cost(&soc, &TdvOptions::tables_1_2(), None, 2, 4).unwrap();
        let wide = time_cost(&soc, &TdvOptions::tables_1_2(), None, 16, 4).unwrap();
        assert!(wide.modular_time <= narrow.modular_time);
        assert!(wide.monolithic_time <= narrow.monolithic_time);
    }

    #[test]
    fn tdv_is_width_independent() {
        // Data volume is the paper's TAM-independent quantity; time is
        // not. Check the separation holds.
        let soc = itc02::soc1();
        let a = time_cost(&soc, &TdvOptions::tables_1_2(), None, 2, 4).unwrap();
        let b = time_cost(&soc, &TdvOptions::tables_1_2(), None, 32, 4).unwrap();
        assert_eq!(a.tdv.modular(), b.tdv.modular());
        assert_ne!(a.modular_time, b.modular_time);
    }
}
