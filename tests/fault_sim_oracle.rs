//! Differential oracle for the bulk fault-simulation sweeps.
//!
//! `FaultSimulator::detected` and `FaultSimulator::detection_counts` run
//! on the 512-pattern block kernel and shard the fault list across
//! threads. Both must agree exactly with a reference built from the
//! 64-pattern `detection_masks` path, one `chunks(64)` batch at a time,
//! at every block tail and at any job count. Reverse-order compaction,
//! one last-detector sweep on the same kernel, must keep exactly the
//! patterns the detection-matrix scan keeps. On SOC1's flattened
//! monolithic model, whose core inputs fan out across cores and
//! reconverge, both sweeps must also agree with a kernel-independent
//! oracle: plain re-simulation with each stem forced.

use modsoc::atpg::collapse::collapse_faults;
use modsoc::atpg::compact::reverse_order_compaction;
use modsoc::atpg::fault::{enumerate_faults, Fault, FaultSite};
use modsoc::atpg::fault_sim::FaultSimulator;
use modsoc::atpg::{Atpg, AtpgOptions, Bit, FaultStatus, FillStrategy, TestCube, TestSet};
use modsoc::circuitgen::generate;
use modsoc::circuitgen::profile::iscas;
use modsoc::circuitgen::soc::soc1;
use modsoc::metrics::NullSink;
use modsoc::netlist::sim::Simulator;
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

/// One step of an xorshift stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic patterns of mixed density.
fn patterns(inputs: usize, count: usize) -> Vec<Vec<bool>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| xorshift(&mut state).is_multiple_of(3))
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

/// Per-fault detected flags and detection counts of stem faults by
/// plain re-simulation: per 64-pattern batch, each fault's stem is
/// forced to its stuck value and every output compared with the good
/// circuit's.
fn forced_node_reference(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    faults: &[Fault],
) -> (Vec<bool>, Vec<u32>) {
    let sim = Simulator::new(circuit).expect("simulator");
    let mut detected = vec![false; faults.len()];
    let mut counts = vec![0u32; faults.len()];
    for chunk in patterns.chunks(64) {
        let mut words = vec![0u64; circuit.input_count()];
        for (slot, p) in chunk.iter().enumerate() {
            for (w, &bit) in words.iter_mut().zip(p) {
                *w |= u64::from(bit) << slot;
            }
        }
        let active = u64::MAX >> (64 - chunk.len());
        let good = sim.run_on(circuit, &words);
        for ((fault, d), n) in faults.iter().zip(&mut detected).zip(&mut counts) {
            let FaultSite::Stem(site) = fault.site else {
                panic!("stem faults only");
            };
            let forced = if fault.stuck_at_one { u64::MAX } else { 0 };
            let bad = sim.run_with_forced_node(circuit, &words, site, forced);
            let mask = circuit
                .outputs()
                .iter()
                .fold(0, |m, o| m | (good[o.index()] ^ bad[o.index()]))
                & active;
            *d |= mask != 0;
            *n += mask.count_ones();
        }
    }
    (detected, counts)
}

#[test]
fn sweeps_match_forced_node_simulation_on_the_soc1_monolithic_model() {
    let circuit = soc1(1)
        .expect("builds")
        .flatten()
        .expect("flattens")
        .to_test_model()
        .expect("test model")
        .circuit;
    let faults: Vec<Fault> = enumerate_faults(&circuit)
        .into_iter()
        .filter(|f| matches!(f.site, FaultSite::Stem(_)))
        .collect();
    let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
    for count in [1usize, 64, 513] {
        let patterns = patterns(circuit.input_count(), count);
        let (want_detected, want_counts) = forced_node_reference(&circuit, &patterns, &faults);
        assert!(want_detected.contains(&true), "count={count}");
        for jobs in [1, 3] {
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

/// Reverse-order compaction by the detection matrix: per pattern, the
/// faults it detects (from per-64 `detection_masks`), scanned from last
/// to first, keeping a pattern iff it detects a fault no later-kept
/// pattern does. Returns the kept indices in ascending order.
fn matrix_compaction(
    circuit: &Circuit,
    patterns: &TestSet,
    faults: &[Fault],
    fill: FillStrategy,
) -> Vec<usize> {
    let filled = patterns.fill_all(fill);
    let mut fsim = FaultSimulator::new(circuit).expect("fsim");
    let mut detects: Vec<Vec<usize>> = vec![Vec::new(); filled.len()];
    for (batch, chunk) in filled.chunks(64).enumerate() {
        let masks = fsim.detection_masks(chunk, faults).expect("masks");
        for (fi, mut m) in masks.into_iter().enumerate() {
            while m != 0 {
                detects[batch * 64 + m.trailing_zeros() as usize].push(fi);
                m &= m - 1;
            }
        }
    }
    let mut covered = vec![false; faults.len()];
    let mut keep = Vec::new();
    for p in (0..filled.len()).rev() {
        if detects[p].iter().any(|&f| !covered[f]) {
            for &f in &detects[p] {
                covered[f] = true;
            }
            keep.push(p);
        }
    }
    keep.reverse();
    keep
}

/// `count` random cubes with about half their bits X. Every seventh
/// cube repeats an earlier one, and the last (for `count > 1`) is
/// `blank`.
fn cubes(width: usize, count: usize, blank: &TestCube) -> TestSet {
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut set = TestSet::new(width);
    for k in 0..count {
        let cube = if count > 1 && k == count - 1 {
            blank.clone()
        } else if k % 7 == 6 {
            set.cubes()[k / 2].clone()
        } else {
            let bits = (0..width)
                .map(|_| match xorshift(&mut state) % 4 {
                    0 => Bit::Zero,
                    1 => Bit::One,
                    _ => Bit::X,
                })
                .collect();
            TestCube::from_bits(bits)
        };
        set.push(cube);
    }
    set
}

/// `FaultSimulator::detected` of `set` under `fill`, on a fresh simulator.
fn detected(
    circuit: &Circuit,
    set: &TestSet,
    faults: &[Fault],
    fill: FillStrategy,
    jobs: usize,
) -> Vec<bool> {
    FaultSimulator::new(circuit)
        .expect("fsim")
        .detected(&set.fill_all(fill), faults, jobs, &NullSink)
        .expect("detected")
}

#[test]
fn reverse_compaction_matches_the_matrix_scan_across_block_boundaries() {
    let core = generate(&iscas::s953(5)).expect("generates");
    let circuit = core.to_test_model().expect("test model").circuit;
    let width = circuit.input_count();
    // A fully specified all-zero cube, and the faults it misses: on that
    // list the blank cube detects nothing under any fill.
    let blank = TestCube::from_bits(vec![Bit::Zero; width]);
    let all = collapse_faults(&circuit).representatives().to_vec();
    let hit = FaultSimulator::new(&circuit)
        .expect("fsim")
        .detected(&[vec![false; width]], &all, 1, &NullSink)
        .expect("detected");
    let faults: Vec<Fault> = all
        .iter()
        .zip(&hit)
        .filter(|(_, &h)| !h)
        .map(|(&f, _)| f)
        .collect();
    assert!(
        faults.len() > all.len() / 2,
        "{} of {}",
        faults.len(),
        all.len()
    );

    for count in [1usize, 64, 511, 512, 513, 1025, 1100] {
        let set = cubes(width, count, &blank);
        for fill in [FillStrategy::Zeros, FillStrategy::default()] {
            let want = matrix_compaction(&circuit, &set, &faults, fill);
            assert!(!want.is_empty(), "count={count}");
            if count > 1 {
                assert!(
                    !want.contains(&(count - 1)),
                    "blank cube kept, count={count}"
                );
            }
            let mut expected = set.clone();
            expected.retain_indices(&want);
            let kept = reverse_order_compaction(&circuit, &set, &faults, fill).expect("compacts");
            assert_eq!(kept, expected, "kept set count={count} fill={fill:?}");
            for jobs in [1, 4] {
                assert_eq!(
                    detected(&circuit, &kept, &faults, fill, jobs),
                    detected(&circuit, &set, &faults, fill, jobs),
                    "coverage count={count} fill={fill:?} jobs={jobs}"
                );
            }
        }
    }

    // Empty inputs come back unchanged.
    let set = cubes(width, 64, &blank);
    let kept =
        reverse_order_compaction(&circuit, &set, &[], FillStrategy::Zeros).expect("compacts");
    assert_eq!(kept, set, "no faults keeps every pattern");
    let empty = TestSet::new(width);
    let kept =
        reverse_order_compaction(&circuit, &empty, &faults, FillStrategy::Zeros).expect("compacts");
    assert!(kept.is_empty());
}

#[test]
fn engine_compaction_and_accounting_match_the_matrix_scan_at_any_jobs() {
    // The engine's phase 5 and final accounting run one pooled
    // last-detector sweep: the kept set must be the matrix scan's over
    // the uncompacted run's patterns, and the detected statuses must be
    // what that kept set detects.
    let core = generate(&iscas::s953(5)).expect("generates");
    let circuit = core.to_test_model().expect("test model").circuit;
    let uncompacted = Atpg::new(AtpgOptions {
        reverse_compaction: false,
        ..AtpgOptions::default()
    })
    .run(&circuit)
    .expect("atpg");
    let faults: Vec<Fault> = uncompacted.fault_statuses.iter().map(|&(f, _)| f).collect();
    let fill = uncompacted.fill;
    let mut expected = uncompacted.patterns.clone();
    expected.retain_indices(&matrix_compaction(
        &circuit,
        &uncompacted.patterns,
        &faults,
        fill,
    ));
    assert!(expected.len() < uncompacted.patterns.len());
    let want_detected = detected(&circuit, &expected, &faults, fill, 1);
    for jobs in [1, 4] {
        let r = Atpg::new(AtpgOptions {
            jobs,
            ..AtpgOptions::default()
        })
        .run(&circuit)
        .expect("atpg");
        assert_eq!(r.patterns, expected, "jobs={jobs}");
        let got: Vec<bool> = r
            .fault_statuses
            .iter()
            .map(|&(_, s)| s == FaultStatus::Detected)
            .collect();
        assert_eq!(got, want_detected, "jobs={jobs}");
        assert_eq!(
            r.stats.detected,
            want_detected.iter().filter(|&&d| d).count()
        );
    }
}
