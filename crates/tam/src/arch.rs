//! TAM architectures and SOC test time.
//!
//! The three classic architectures from Aerts & Marinissen (the paper's
//! reference 12):
//!
//! * **Multiplexing** — all cores share the full TAM width; tests run
//!   one after another.
//! * **Distribution** — the TAM width is partitioned over cores; all
//!   tests run in parallel and the slowest core dominates.
//! * **Daisychain** — one TAM threads through every core; with bypass
//!   flip-flops, shifting through `k` inactive cores costs one cycle
//!   each per scan operation.

use crate::error::TamError;
use crate::wrapper::{design_wrapper, WrapperCore};

/// Which TAM architecture to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TamArchitecture {
    /// All cores on one full-width TAM, tested sequentially.
    Multiplexing,
    /// One full-width TAM threaded through all cores with 1-bit
    /// bypasses.
    Daisychain,
    /// Width partitioned over cores; all tested in parallel.
    Distribution,
}

/// Per-core outcome of an SOC-level TAM evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreTamAssignment {
    /// Core name.
    pub name: String,
    /// TAM wires given to this core.
    pub width: usize,
    /// Core test time in cycles (excluding bypass overhead).
    pub time: u64,
}

/// SOC-level TAM evaluation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamEvaluation {
    /// The architecture evaluated.
    pub architecture: TamArchitecture,
    /// Total TAM width used.
    pub width: usize,
    /// Per-core assignments.
    pub cores: Vec<CoreTamAssignment>,
    /// SOC test completion time in cycles.
    pub total_time: u64,
}

/// Evaluate an architecture over a set of cores at TAM width `width`.
///
/// # Errors
///
/// Returns [`TamError::ZeroWidth`] or [`TamError::NoCores`]; for
/// [`TamArchitecture::Distribution`],
/// [`TamError::WidthBelowCoreCount`] when each core cannot get a wire.
pub fn soc_test_time(
    arch: TamArchitecture,
    cores: &[WrapperCore],
    width: usize,
) -> Result<TamEvaluation, TamError> {
    if width == 0 {
        return Err(TamError::ZeroWidth);
    }
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }
    match arch {
        TamArchitecture::Multiplexing => {
            let assignments: Vec<CoreTamAssignment> = cores
                .iter()
                .map(|c| CoreTamAssignment {
                    name: c.name.clone(),
                    width,
                    time: design_wrapper(c, width).test_time_self(),
                })
                .collect();
            let total_time = assignments.iter().map(|a| a.time).sum();
            Ok(TamEvaluation {
                architecture: arch,
                width,
                cores: assignments,
                total_time,
            })
        }
        TamArchitecture::Daisychain => {
            // Sequential like multiplexing, plus one bypass cycle per
            // inactive core per scan shift (each of the other cores'
            // bypass flip-flops sits on the path).
            let times: Vec<u64> = cores
                .iter()
                .map(|c| design_wrapper(c, width).test_time_self())
                .collect();
            let bypass_per_core = cores.len() as u64 - 1;
            let assignments: Vec<CoreTamAssignment> = cores
                .iter()
                .zip(&times)
                .map(|(c, &t)| CoreTamAssignment {
                    name: c.name.clone(),
                    width,
                    time: t + bypass_per_core * c.patterns,
                })
                .collect();
            let total_time = assignments.iter().map(|a| a.time).sum();
            Ok(TamEvaluation {
                architecture: arch,
                width,
                cores: assignments,
                total_time,
            })
        }
        TamArchitecture::Distribution => {
            if width < cores.len() {
                return Err(TamError::WidthBelowCoreCount {
                    width,
                    cores: cores.len(),
                });
            }
            // Start with one wire each; repeatedly give a wire to the
            // currently slowest core (greedy makespan reduction).
            let mut widths = vec![1usize; cores.len()];
            let time_of = |c: &WrapperCore, w: usize| design_wrapper(c, w).test_time_self();
            let mut times: Vec<u64> = cores
                .iter()
                .zip(&widths)
                .map(|(c, &w)| time_of(c, w))
                .collect();
            for _ in 0..(width - cores.len()) {
                let slowest = (0..cores.len())
                    .max_by_key(|&i| times[i])
                    .expect("nonempty");
                widths[slowest] += 1;
                times[slowest] = time_of(&cores[slowest], widths[slowest]);
            }
            let assignments: Vec<CoreTamAssignment> = cores
                .iter()
                .zip(widths.iter().zip(&times))
                .map(|(c, (&w, &t))| CoreTamAssignment {
                    name: c.name.clone(),
                    width: w,
                    time: t,
                })
                .collect();
            let total_time = times.iter().copied().max().unwrap_or(0);
            Ok(TamEvaluation {
                architecture: arch,
                width,
                cores: assignments,
                total_time,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores() -> Vec<WrapperCore> {
        vec![
            WrapperCore::new("a", 8, 8, vec![64, 64]).with_patterns(100),
            WrapperCore::new("b", 4, 4, vec![32]).with_patterns(300),
            WrapperCore::new("c", 16, 2, vec![128, 16, 16]).with_patterns(50),
        ]
    }

    #[test]
    fn multiplexing_sums_times() {
        let e = soc_test_time(TamArchitecture::Multiplexing, &cores(), 4).unwrap();
        let sum: u64 = e.cores.iter().map(|c| c.time).sum();
        assert_eq!(e.total_time, sum);
        assert!(e.cores.iter().all(|c| c.width == 4));
    }

    #[test]
    fn distribution_is_makespan() {
        let e = soc_test_time(TamArchitecture::Distribution, &cores(), 8).unwrap();
        let max = e.cores.iter().map(|c| c.time).max().unwrap();
        assert_eq!(e.total_time, max);
        let widths: usize = e.cores.iter().map(|c| c.width).sum();
        assert_eq!(widths, 8);
        assert!(e.cores.iter().all(|c| c.width >= 1));
    }

    #[test]
    fn daisychain_slower_than_multiplexing() {
        let m = soc_test_time(TamArchitecture::Multiplexing, &cores(), 4).unwrap();
        let d = soc_test_time(TamArchitecture::Daisychain, &cores(), 4).unwrap();
        assert!(d.total_time > m.total_time);
    }

    #[test]
    fn wider_tam_never_slower() {
        for arch in [TamArchitecture::Multiplexing, TamArchitecture::Distribution] {
            let mut last = u64::MAX;
            for w in 3..10 {
                let t = soc_test_time(arch, &cores(), w).unwrap().total_time;
                assert!(t <= last, "{arch:?} width {w}");
                last = t;
            }
        }
    }

    #[test]
    fn distribution_beats_multiplexing_at_same_width() {
        // With enough width to parallelize, distribution wins on this
        // workload.
        let m = soc_test_time(TamArchitecture::Multiplexing, &cores(), 9).unwrap();
        let d = soc_test_time(TamArchitecture::Distribution, &cores(), 9).unwrap();
        assert!(d.total_time < m.total_time);
    }

    #[test]
    fn errors() {
        assert!(matches!(
            soc_test_time(TamArchitecture::Multiplexing, &cores(), 0),
            Err(TamError::ZeroWidth)
        ));
        assert!(matches!(
            soc_test_time(TamArchitecture::Multiplexing, &[], 4),
            Err(TamError::NoCores)
        ));
        assert!(matches!(
            soc_test_time(TamArchitecture::Distribution, &cores(), 2),
            Err(TamError::WidthBelowCoreCount { .. })
        ));
    }
}
