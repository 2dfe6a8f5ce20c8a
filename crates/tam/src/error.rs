//! Error type for the TAM crate.

use std::fmt;

/// Errors from wrapper/TAM design and scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TamError {
    /// A TAM or wrapper width of zero was requested.
    ZeroWidth,
    /// A TAM architecture needs at least one core.
    NoCores,
    /// The Distribution architecture needs at least one wire per core.
    WidthBelowCoreCount {
        /// Requested total width.
        width: usize,
        /// Number of cores that each need a wire.
        cores: usize,
    },
    /// The rectangle packer exhausted a core's wrapper configurations:
    /// none fits the TAM width budget under the power ceiling.
    Infeasible {
        /// The core that could not be placed.
        core: String,
        /// The total TAM width budget in effect.
        width: usize,
        /// The power ceiling in effect (`u64::MAX` = unconstrained).
        ceiling: u64,
    },
}

impl fmt::Display for TamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamError::ZeroWidth => write!(f, "tam width must be at least one"),
            TamError::NoCores => write!(f, "at least one core is required"),
            TamError::WidthBelowCoreCount { width, cores } => write!(
                f,
                "distribution architecture needs width >= cores ({width} < {cores})"
            ),
            TamError::Infeasible {
                core,
                width,
                ceiling,
            } => {
                write!(
                    f,
                    "no wrapper configuration of core `{core}` fits tam width {width}"
                )?;
                if *ceiling != u64::MAX {
                    write!(f, " under power ceiling {ceiling}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(TamError::ZeroWidth.to_string().contains("width"));
        assert!(TamError::NoCores.to_string().contains("core"));
        let e = TamError::WidthBelowCoreCount { width: 2, cores: 5 };
        assert!(e.to_string().contains("2 < 5"));
    }

    #[test]
    fn infeasible_names_core_width_and_ceiling() {
        let e = TamError::Infeasible {
            core: "c7".into(),
            width: 12,
            ceiling: 90,
        };
        let text = e.to_string();
        assert!(text.contains("c7"), "{text}");
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("90"), "{text}");
    }

    #[test]
    fn infeasible_unconstrained_omits_ceiling() {
        let e = TamError::Infeasible {
            core: "c".into(),
            width: 4,
            ceiling: u64::MAX,
        };
        assert!(!e.to_string().contains("ceiling"));
    }
}
