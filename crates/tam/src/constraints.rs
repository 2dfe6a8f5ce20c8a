//! Power-constrained rectangle packing.
//!
//! The second half of the co-optimization family (arXiv 1008.4446):
//! parallel core tests multiply scan switching activity, so a realistic
//! strip packing must keep the *concurrent power sum* under a chip-wide
//! ceiling at every instant. This module runs the same diagonal-length
//! packer as [`crate::binpack`] with that extra feasibility term — a
//! placement whose interval would push the summed ratings of all
//! simultaneously-running tests over the ceiling is rejected, and the
//! core slides to a later event point (or a narrower rectangle) instead.
//!
//! Power ratings ride on [`PowerCore`] from [`crate::power`]. For cores
//! that carry no measured rating, [`scan_power_model`] derives one from
//! the wrapper view: switching power during scan shift scales with the
//! number of cells toggling per cycle, so the rating is the core's total
//! wrapper cell count. The units are arbitrary but consistent — ceilings
//! are expressed on the same scale.

use modsoc_metrics::MetricsSink;

use crate::binpack::{pack_impl, PackedSchedule};
use crate::error::TamError;
use crate::power::PowerCore;
use crate::wrapper::WrapperCore;

/// Default power model: scan switching activity scales with the cells a
/// wrapper moves per pattern, so a core's rating is its total cell count
/// (`I + O + Σ scan`).
#[must_use]
pub fn scan_power_model(core: &WrapperCore) -> u64 {
    core.total_cells() as u64
}

/// Pair every core with its [`scan_power_model`] rating.
#[must_use]
pub fn power_cores(cores: &[WrapperCore]) -> Vec<PowerCore> {
    cores
        .iter()
        .map(|c| PowerCore::new(c.clone(), scan_power_model(c)))
        .collect()
}

/// Pack under both a TAM width budget and a concurrent-power ceiling,
/// with counters reported through `sink` (adds `tam_pack_power_rejects`
/// to the [`pack_metered`](crate::binpack::pack_metered) set).
///
/// # Errors
///
/// Returns [`TamError::ZeroWidth`] / [`TamError::NoCores`], or
/// [`TamError::Infeasible`] naming the first core (in placement order)
/// for which no wrapper configuration fits — in practice a core whose
/// own rating already exceeds the ceiling, since an empty strip always
/// has the wires.
pub fn pack_constrained_metered(
    cores: &[PowerCore],
    width: usize,
    ceiling: u64,
    sink: &dyn MetricsSink,
) -> Result<PackedSchedule, TamError> {
    let wrappers: Vec<WrapperCore> = cores.iter().map(|c| c.core.clone()).collect();
    let powers: Vec<u64> = cores.iter().map(|c| c.test_power).collect();
    pack_impl(&wrappers, Some(&powers), width, ceiling, sink)
}

/// Peak concurrent power of a packed schedule.
#[must_use]
pub fn packed_peak_power(schedule: &PackedSchedule, cores: &[PowerCore]) -> u64 {
    crate::power::peak_power(&schedule.to_schedule(), cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{soc_test_time, TamArchitecture};
    use crate::binpack::pack_metered;
    use modsoc_metrics::{Counter, NullSink, RecordingSink};

    fn cores() -> Vec<PowerCore> {
        vec![
            PowerCore::new(
                WrapperCore::new("a", 8, 8, vec![64, 64]).with_patterns(100),
                40,
            ),
            PowerCore::new(WrapperCore::new("b", 4, 4, vec![32]).with_patterns(300), 30),
            PowerCore::new(
                WrapperCore::new("c", 16, 2, vec![128, 16]).with_patterns(50),
                50,
            ),
            PowerCore::new(
                WrapperCore::new("d", 2, 6, vec![48, 48]).with_patterns(80),
                25,
            ),
        ]
    }

    #[test]
    fn ceiling_is_never_exceeded() {
        let cs = cores();
        for ceiling in [50u64, 70, 95, 1_000] {
            let s = pack_constrained_metered(&cs, 8, ceiling, &NullSink).unwrap();
            assert_eq!(s.placements.len(), cs.len());
            assert!(
                packed_peak_power(&s, &cs) <= ceiling,
                "ceiling {ceiling} exceeded: {}",
                packed_peak_power(&s, &cs)
            );
        }
    }

    #[test]
    fn tighter_ceiling_never_packs_faster() {
        let cs = cores();
        let loose = pack_constrained_metered(&cs, 8, 1_000, &NullSink).unwrap();
        let tight = pack_constrained_metered(&cs, 8, 55, &NullSink).unwrap();
        assert!(tight.makespan() >= loose.makespan());
        // And even the tight packing stays within the serial bound.
        let wrappers: Vec<WrapperCore> = cs.iter().map(|c| c.core.clone()).collect();
        let serial = soc_test_time(TamArchitecture::Multiplexing, &wrappers, 8)
            .unwrap()
            .total_time;
        assert!(tight.makespan() <= serial);
    }

    #[test]
    fn unconstrained_ceiling_matches_plain_pack() {
        let cs = cores();
        let wrappers: Vec<WrapperCore> = cs.iter().map(|c| c.core.clone()).collect();
        let constrained = pack_constrained_metered(&cs, 8, u64::MAX, &NullSink).unwrap();
        let plain = pack_metered(&wrappers, 8, &NullSink).unwrap();
        assert_eq!(constrained, plain);
    }

    #[test]
    fn core_over_ceiling_is_infeasible_with_details() {
        let cs = cores();
        let err = pack_constrained_metered(&cs, 8, 45, &NullSink).unwrap_err();
        match err {
            TamError::Infeasible {
                core,
                width,
                ceiling,
            } => {
                assert_eq!(core, "c", "core `c` draws 50 > 45");
                assert_eq!(width, 8);
                assert_eq!(ceiling, 45);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn power_rejects_are_counted() {
        let cs = cores();
        let sink = RecordingSink::new();
        let s = pack_constrained_metered(&cs, 8, 55, &sink).unwrap();
        assert_eq!(s, pack_constrained_metered(&cs, 8, 55, &NullSink).unwrap());
        // A 55 ceiling forces serialization of the 40/30/50 cores, so
        // the packer must have bounced off the power check.
        assert!(sink.snapshot().counter(Counter::TamPackPowerRejects) > 0);
    }

    #[test]
    fn scan_power_model_counts_cells() {
        let c = WrapperCore::new("x", 3, 2, vec![10, 5]);
        assert_eq!(scan_power_model(&c), 20);
        let pcs = power_cores(&[c]);
        assert_eq!(pcs[0].test_power, 20);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(pack_constrained_metered(&[], 4, 100, &NullSink).is_err());
        assert!(pack_constrained_metered(&cores(), 0, 100, &NullSink).is_err());
    }
}
