//! TAM width sweeps and architecture selection.
//!
//! The classic SOC test-planning question (Goel & Marinissen, the
//! paper's ref 13): given a TAM width budget, which architecture and
//! width minimize test time — and where does adding wires stop paying?
//! This module sweeps widths across the architectures, reports the
//! full curves, and picks the best configuration.

use crate::arch::{soc_test_time, TamArchitecture, TamEvaluation};
use crate::error::TamError;
use crate::schedule::{schedule_rectangles, Schedule};
use crate::wrapper::WrapperCore;

/// One point of a width sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// TAM width.
    pub width: usize,
    /// SOC test time at this width.
    pub time: u64,
}

/// The sweep of one architecture over a width range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthSweep {
    /// The architecture swept (`None` = flexible rectangles).
    pub architecture: Option<TamArchitecture>,
    /// Points in ascending width order (infeasible widths skipped, e.g.
    /// Distribution below the core count).
    pub points: Vec<SweepPoint>,
}

impl WidthSweep {
    /// The width where the curve stops improving by at least
    /// `threshold` (relative): the knee a test planner would pick.
    ///
    /// The comparison is anchored at the current knee, not the previous
    /// point, so non-monotone curves behave: a later point *worse* than
    /// the knee never becomes the new anchor (it is simply skipped), and
    /// a dip below the threshold does not end the scan if a later width
    /// still improves on the knee by at least `threshold`.
    #[must_use]
    pub fn knee(&self, threshold: f64) -> Option<&SweepPoint> {
        let mut knee = self.points.first()?;
        for p in &self.points[1..] {
            if p.time < knee.time {
                let improvement = (knee.time - p.time) as f64 / knee.time as f64;
                if improvement >= threshold {
                    knee = p;
                }
            }
        }
        Some(knee)
    }
}

/// Sweep one architecture over `1..=max_width`.
///
/// # Errors
///
/// Returns [`TamError::NoCores`]; infeasible widths within the sweep are
/// skipped rather than failing the whole sweep.
pub fn sweep_architecture(
    arch: TamArchitecture,
    cores: &[WrapperCore],
    max_width: usize,
) -> Result<WidthSweep, TamError> {
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }
    let points = (1..=max_width)
        .filter_map(|w| {
            soc_test_time(arch, cores, w)
                .ok()
                .map(|e: TamEvaluation| SweepPoint {
                    width: w,
                    time: e.total_time,
                })
        })
        .collect();
    Ok(WidthSweep {
        architecture: Some(arch),
        points,
    })
}

/// Sweep the flexible rectangle scheduler over `1..=max_width`.
///
/// # Errors
///
/// Returns [`TamError::NoCores`].
pub fn sweep_rectangles(cores: &[WrapperCore], max_width: usize) -> Result<WidthSweep, TamError> {
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }
    let points = (1..=max_width)
        .filter_map(|w| {
            schedule_rectangles(cores, w)
                .ok()
                .map(|s: Schedule| SweepPoint {
                    width: w,
                    time: s.makespan(),
                })
        })
        .collect();
    Ok(WidthSweep {
        architecture: None,
        points,
    })
}

/// The best configuration found across all architectures at one width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestConfiguration {
    /// Winning architecture (`None` = flexible rectangles).
    pub architecture: Option<TamArchitecture>,
    /// The test time achieved.
    pub time: u64,
}

/// Pick the fastest architecture (including flexible rectangles) at a
/// fixed TAM width.
///
/// # Errors
///
/// Returns [`TamError::ZeroWidth`] / [`TamError::NoCores`].
pub fn best_at_width(cores: &[WrapperCore], width: usize) -> Result<BestConfiguration, TamError> {
    if width == 0 {
        return Err(TamError::ZeroWidth);
    }
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }
    let mut best = BestConfiguration {
        architecture: None,
        time: schedule_rectangles(cores, width)?.makespan(),
    };
    for arch in [
        TamArchitecture::Multiplexing,
        TamArchitecture::Daisychain,
        TamArchitecture::Distribution,
    ] {
        if let Ok(eval) = soc_test_time(arch, cores, width) {
            if eval.total_time < best.time {
                best = BestConfiguration {
                    architecture: Some(arch),
                    time: eval.total_time,
                };
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores() -> Vec<WrapperCore> {
        vec![
            WrapperCore::new("a", 8, 8, vec![64, 64]).with_patterns(100),
            WrapperCore::new("b", 4, 4, vec![32]).with_patterns(300),
            WrapperCore::new("c", 16, 2, vec![128, 16, 16]).with_patterns(50),
            WrapperCore::new("d", 2, 6, vec![48, 48]).with_patterns(80),
        ]
    }

    #[test]
    fn sweeps_are_monotone_nonincreasing() {
        for arch in [TamArchitecture::Multiplexing, TamArchitecture::Distribution] {
            let sweep = sweep_architecture(arch, &cores(), 12).unwrap();
            for pair in sweep.points.windows(2) {
                assert!(pair[1].time <= pair[0].time, "{arch:?}");
            }
        }
        let flex = sweep_rectangles(&cores(), 12).unwrap();
        assert!(!flex.points.is_empty());
    }

    #[test]
    fn distribution_skips_infeasible_widths() {
        let sweep = sweep_architecture(TamArchitecture::Distribution, &cores(), 8).unwrap();
        assert_eq!(sweep.points.first().map(|p| p.width), Some(4));
    }

    #[test]
    fn knee_detection() {
        let sweep = WidthSweep {
            architecture: None,
            points: vec![
                SweepPoint {
                    width: 1,
                    time: 1000,
                },
                SweepPoint {
                    width: 2,
                    time: 500,
                },
                SweepPoint {
                    width: 3,
                    time: 490,
                },
                SweepPoint {
                    width: 4,
                    time: 489,
                },
            ],
        };
        assert_eq!(sweep.knee(0.05).map(|p| p.width), Some(2));
        // Threshold 0: any improvement keeps going.
        assert_eq!(sweep.knee(0.0).map(|p| p.width), Some(4));
    }

    fn sweep_of(times: &[u64]) -> WidthSweep {
        WidthSweep {
            architecture: None,
            points: times
                .iter()
                .enumerate()
                .map(|(i, &time)| SweepPoint { width: i + 1, time })
                .collect(),
        }
    }

    #[test]
    fn knee_of_empty_sweep_is_none() {
        assert!(sweep_of(&[]).knee(0.05).is_none());
    }

    #[test]
    fn knee_of_single_point_is_that_point() {
        assert_eq!(sweep_of(&[777]).knee(0.05).map(|p| p.width), Some(1));
        assert_eq!(sweep_of(&[777]).knee(0.0).map(|p| p.width), Some(1));
    }

    #[test]
    fn knee_of_flat_sweep_is_the_first_point() {
        // No point ever improves, so even threshold 0 stays at width 1
        // (the old pairwise scan drifted to the last point here).
        let flat = sweep_of(&[500, 500, 500, 500]);
        assert_eq!(flat.knee(0.0).map(|p| p.width), Some(1));
        assert_eq!(flat.knee(0.05).map(|p| p.width), Some(1));
    }

    #[test]
    fn knee_ignores_worse_points_on_non_monotone_sweeps() {
        // Width 3 regresses; it must neither become the knee nor end the
        // scan — width 4's big improvement over the width-2 knee counts.
        let bumpy = sweep_of(&[1_000, 600, 650, 200]);
        assert_eq!(bumpy.knee(0.05).map(|p| p.width), Some(4));
        // With everything after the bump weak, the knee stays at the
        // pre-bump point instead of resetting to the worse one.
        let weak_tail = sweep_of(&[1_000, 600, 650, 595]);
        assert_eq!(weak_tail.knee(0.05).map(|p| p.width), Some(2));
    }

    #[test]
    fn best_configuration_is_never_worse_than_serial() {
        let cs = cores();
        for w in [1usize, 4, 8, 16] {
            let serial = soc_test_time(TamArchitecture::Multiplexing, &cs, w)
                .unwrap()
                .total_time;
            let best = best_at_width(&cs, w).unwrap();
            assert!(best.time <= serial, "width {w}");
        }
    }

    #[test]
    fn rectangles_usually_win_at_moderate_width() {
        let best = best_at_width(&cores(), 8).unwrap();
        // At width 8 the flexible scheduler should beat the rigid
        // architectures on this imbalanced workload.
        assert!(
            best.architecture.is_none() || best.architecture == Some(TamArchitecture::Distribution)
        );
    }

    #[test]
    fn errors() {
        assert!(sweep_architecture(TamArchitecture::Multiplexing, &[], 4).is_err());
        assert!(sweep_rectangles(&[], 4).is_err());
        assert!(best_at_width(&cores(), 0).is_err());
    }
}
