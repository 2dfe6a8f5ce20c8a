//! Error type for the analysis crate.

use std::fmt;

/// Errors from TDV analysis, reconstruction and netlist-backed
/// experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The SOC data model reported a problem.
    Soc(modsoc_soc::SocError),
    /// A netlist problem during an experiment.
    Netlist(modsoc_netlist::NetlistError),
    /// An ATPG problem during an experiment.
    Atpg(modsoc_atpg::AtpgError),
    /// The supplied measured monolithic pattern count violates the
    /// Equation 2 lower bound.
    TmonoBelowBound {
        /// The supplied monolithic pattern count.
        t_mono: u64,
        /// The maximum per-core pattern count it must not undercut.
        max_core: u64,
    },
    /// A campaign spec could not be parsed or validated.
    Campaign {
        /// What was wrong with the spec.
        message: String,
    },
    /// A TDV equation overflows `u64` (corrupt counts): a core's row
    /// (Equations 4–5) or a SOC-level quantity (Equations 1, 3, 6–8).
    Overflow {
        /// What overflows: `` core `NAME` `` or the SOC-level quantity.
        what: String,
    },
    /// A caller that requires every core of a guarded run to complete
    /// got one that failed or returned budget-partial work.
    Incomplete {
        /// The first core (or pseudo-stage) that did not complete.
        core: String,
        /// How it ended.
        outcome: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Soc(e) => write!(f, "soc error: {e}"),
            AnalysisError::Netlist(e) => write!(f, "netlist error: {e}"),
            AnalysisError::Atpg(e) => write!(f, "atpg error: {e}"),
            AnalysisError::TmonoBelowBound { t_mono, max_core } => write!(
                f,
                "monolithic pattern count {t_mono} is below the equation 2 bound {max_core}"
            ),
            AnalysisError::Overflow { what } => {
                write!(f, "{what} overflows the TDV equations (corrupt counts?)")
            }
            AnalysisError::Campaign { message } => write!(f, "campaign spec error: {message}"),
            AnalysisError::Incomplete { core, outcome } => {
                write!(f, "core {core} did not complete: {outcome}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Soc(e) => Some(e),
            AnalysisError::Netlist(e) => Some(e),
            AnalysisError::Atpg(e) => Some(e),
            AnalysisError::TmonoBelowBound { .. }
            | AnalysisError::Overflow { .. }
            | AnalysisError::Campaign { .. }
            | AnalysisError::Incomplete { .. } => None,
        }
    }
}

impl From<modsoc_soc::SocError> for AnalysisError {
    fn from(e: modsoc_soc::SocError) -> AnalysisError {
        AnalysisError::Soc(e)
    }
}

impl From<modsoc_netlist::NetlistError> for AnalysisError {
    fn from(e: modsoc_netlist::NetlistError) -> AnalysisError {
        AnalysisError::Netlist(e)
    }
}

impl From<modsoc_atpg::AtpgError> for AnalysisError {
    fn from(e: modsoc_atpg::AtpgError) -> AnalysisError {
        AnalysisError::Atpg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error;
        let e: AnalysisError = modsoc_soc::SocError::Empty.into();
        assert!(e.to_string().contains("soc"));
        assert!(e.source().is_some());
        let e = AnalysisError::TmonoBelowBound {
            t_mono: 3,
            max_core: 10,
        };
        assert!(e.to_string().contains("equation 2"));
        assert!(e.source().is_none());
    }
}
