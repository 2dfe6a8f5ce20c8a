//! Differential oracle for the bulk fault-simulation sweeps.
//!
//! `FaultSimulator::detected` and `FaultSimulator::detection_counts` run
//! on the 512-pattern block kernel and shard the fault list across
//! threads. Both must agree exactly with a reference built from the
//! 64-pattern `detection_masks` path, one `chunks(64)` batch at a time,
//! at every block tail and at any job count.

use modsoc::atpg::collapse::collapse_faults;
use modsoc::atpg::fault::Fault;
use modsoc::atpg::fault_sim::FaultSimulator;
use modsoc::circuitgen::generate;
use modsoc::circuitgen::profile::iscas;
use modsoc::metrics::NullSink;
use modsoc::netlist::Circuit;

/// Per-fault detected flags and detection counts, one 64-pattern batch
/// at a time on the narrow kernel.
fn narrow_reference(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    faults: &[Fault],
) -> (Vec<bool>, Vec<u32>) {
    let mut fsim = FaultSimulator::new(circuit).expect("fsim");
    let mut detected = vec![false; faults.len()];
    let mut counts = vec![0u32; faults.len()];
    for chunk in patterns.chunks(64) {
        let masks = fsim.detection_masks(chunk, faults).expect("masks");
        for ((d, n), m) in detected.iter_mut().zip(&mut counts).zip(masks) {
            *d |= m != 0;
            *n += m.count_ones();
        }
    }
    (detected, counts)
}

/// Deterministic patterns of mixed density (xorshift stream).
fn patterns(inputs: usize, count: usize) -> Vec<Vec<bool>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state.is_multiple_of(3)
                })
                .collect()
        })
        .collect()
}

#[test]
fn wide_sweeps_match_the_narrow_reference_on_an_s953_core() {
    let core = generate(&iscas::s953(5)).expect("generates");
    let circuit = core.to_test_model().expect("test model").circuit;
    let faults = collapse_faults(&circuit).representatives().to_vec();
    let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
    for count in [1usize, 64, 65, 512, 513] {
        let patterns = patterns(circuit.input_count(), count);
        let (want_detected, want_counts) = narrow_reference(&circuit, &patterns, &faults);
        assert!(want_detected.contains(&true), "count={count}");
        for jobs in [1, 4] {
            let detected = fsim
                .detected(&patterns, &faults, jobs, &NullSink)
                .expect("detected");
            assert_eq!(
                detected, want_detected,
                "detected count={count} jobs={jobs}"
            );
            let counts = fsim
                .detection_counts(&patterns, &faults, jobs, &NullSink)
                .expect("counts");
            assert_eq!(counts, want_counts, "counts count={count} jobs={jobs}");
        }
    }
}
