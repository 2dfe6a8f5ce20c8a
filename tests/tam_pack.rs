//! Property-based and deterministic invariants of the rectangle
//! bin-packing wrapper/TAM co-optimizer.
//!
//! The invariants hold over three input families: random wrapper cores
//! (proptest), circuitgen ISCAS'89-lookalike profiles, and the full
//! ITC'02 reconstruction sweep. Every check is independent of the packer
//! internals — overlap and power are recomputed from the raw placements.

use proptest::prelude::*;

use modsoc::analysis::reconstruct::table4_socs;
use modsoc::circuitgen::profile::iscas;
use modsoc::metrics::NullSink;
use modsoc::soc::itc02;
use modsoc::tam::arch::{soc_test_time, TamArchitecture};
use modsoc::tam::binpack::{pack_metered, PackedSchedule};
use modsoc::tam::constraints::{pack_constrained_metered, power_cores, scan_power_model};
use modsoc::tam::wrapper::WrapperCore;

/// Every placement's wires are in-budget, distinct, and no wire carries
/// two placements over overlapping time intervals.
fn assert_no_overlap(s: &PackedSchedule) {
    for p in &s.placements {
        assert_eq!(p.wires.len(), p.width, "{}: wire count != width", p.name);
        assert!(p.start < p.end, "{}: empty interval", p.name);
        for &w in &p.wires {
            assert!(
                w < s.width,
                "{}: wire {w} outside budget {}",
                p.name,
                s.width
            );
        }
        let mut sorted = p.wires.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p.width, "{}: duplicate wires", p.name);
    }
    for (i, a) in s.placements.iter().enumerate() {
        for b in &s.placements[i + 1..] {
            if a.start < b.end && b.start < a.end {
                for w in &a.wires {
                    assert!(
                        !b.wires.contains(w),
                        "wire {w} double-booked by {} and {}",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }
}

/// Concurrent power, recomputed from raw placements at every start
/// event, never exceeds the ceiling.
fn assert_power_within(s: &PackedSchedule, powers: &[u64], ceiling: u64) {
    for p in &s.placements {
        let at = p.start;
        let concurrent: u64 = s
            .placements
            .iter()
            .filter(|q| q.start <= at && at < q.end)
            .map(|q| powers[q.core])
            .sum();
        assert!(
            concurrent <= ceiling,
            "power {concurrent} > ceiling {ceiling} at t={at}"
        );
    }
}

/// The serial upper bound: one core at a time, each on the full TAM.
fn serial_time(cores: &[WrapperCore], width: usize) -> u64 {
    soc_test_time(TamArchitecture::Multiplexing, cores, width)
        .expect("serial schedule exists")
        .total_time
}

fn arb_core(idx: usize) -> impl Strategy<Value = WrapperCore> {
    (
        1usize..120,
        1usize..120,
        proptest::collection::vec(1usize..200, 1..5),
        1u64..500,
    )
        .prop_map(move |(i, o, chains, p)| {
            WrapperCore::new(format!("c{idx}"), i, o, chains).with_patterns(p)
        })
}

fn arb_cores() -> impl Strategy<Value = Vec<WrapperCore>> {
    (1usize..8).prop_flat_map(|n| (0..n).map(arb_core).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packing_invariants_hold_for_random_cores(
        cores in arb_cores(),
        width in 1usize..32,
    ) {
        let s = pack_metered(&cores, width, &NullSink).unwrap();
        prop_assert_eq!(s.placements.len(), cores.len());
        assert_no_overlap(&s);
        prop_assert!(s.makespan() <= serial_time(&cores, width));
    }

    #[test]
    fn constrained_packing_respects_the_ceiling(
        cores in arb_cores(),
        width in 1usize..32,
        slack in 0u64..2000,
    ) {
        let pcs = power_cores(&cores);
        let powers: Vec<u64> = cores.iter().map(scan_power_model).collect();
        // Any ceiling at or above the hungriest core is feasible; sweep
        // from barely-feasible (forced serialization) up to no-op.
        let ceiling = powers.iter().copied().max().unwrap() + slack;
        let s = pack_constrained_metered(&pcs, width, ceiling, &NullSink).unwrap();
        prop_assert_eq!(s.placements.len(), cores.len());
        assert_no_overlap(&s);
        assert_power_within(&s, &powers, ceiling);
        prop_assert!(s.makespan() <= serial_time(&cores, width));
    }

    #[test]
    fn packing_is_deterministic(cores in arb_cores(), width in 1usize..32) {
        prop_assert_eq!(pack_metered(&cores, width, &NullSink).unwrap(), pack_metered(&cores, width, &NullSink).unwrap());
    }
}

/// Wrapper cores derived from the circuitgen ISCAS'89-lookalike
/// profiles: exact interface counts, scan cells split over four chains.
fn circuitgen_cores() -> Vec<WrapperCore> {
    [
        iscas::s713(1),
        iscas::s1423(1),
        iscas::s5378(1),
        iscas::s13207(1),
        iscas::s15850(1),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, p)| {
        let chains = 4usize;
        let base = p.scan_cells / chains;
        let extra = p.scan_cells % chains;
        let lens: Vec<usize> = (0..chains)
            .map(|k| base + usize::from(k < extra))
            .filter(|&l| l > 0)
            .collect();
        WrapperCore::new(p.name, p.inputs, p.outputs, lens).with_patterns(50 + 25 * i as u64)
    })
    .collect()
}

#[test]
fn circuitgen_profiles_pack_within_bounds() {
    let cores = circuitgen_cores();
    for width in [4usize, 8, 16] {
        let s = pack_metered(&cores, width, &NullSink).unwrap();
        assert_eq!(s.placements.len(), cores.len());
        assert_no_overlap(&s);
        assert!(s.makespan() <= serial_time(&cores, width));

        let pcs = power_cores(&cores);
        let powers: Vec<u64> = cores.iter().map(scan_power_model).collect();
        let ceiling = powers.iter().copied().max().unwrap() + powers.iter().sum::<u64>() / 4;
        let c = pack_constrained_metered(&pcs, width, ceiling, &NullSink).unwrap();
        assert_no_overlap(&c);
        assert_power_within(&c, &powers, ceiling);
        assert!(c.makespan() >= s.makespan() || c == s);
    }
}

fn itc02_socs() -> Vec<(String, modsoc::soc::Soc)> {
    let mut socs = vec![
        ("soc1".to_string(), itc02::soc1()),
        ("soc2".to_string(), itc02::soc2()),
    ];
    let table4 = table4_socs().expect("table 4 reconstructs");
    socs.extend(table4.into_iter().map(|soc| (soc.name().to_string(), soc)));
    socs
}

#[test]
fn itc02_sweep_packs_within_bounds_at_every_width() {
    for (name, soc) in itc02_socs() {
        let cores: Vec<WrapperCore> = soc
            .iter()
            .filter(|(_, c)| c.patterns > 0)
            .map(|(_, c)| WrapperCore::from_core_spec(c, 8))
            .collect();
        for width in [8usize, 16, 32] {
            let s = pack_metered(&cores, width, &NullSink).unwrap();
            assert_eq!(s.placements.len(), cores.len(), "{name} at width {width}");
            assert_no_overlap(&s);
            let serial = serial_time(&cores, width);
            assert!(
                s.makespan() <= serial,
                "{name} at width {width}: packed {} > serial {serial}",
                s.makespan()
            );
            // Byte-identical on a second run: the packer has no hidden
            // state and its tie-breaks are total.
            assert_eq!(
                s,
                pack_metered(&cores, width, &NullSink).unwrap(),
                "{name} at width {width}"
            );
        }
    }
}

#[test]
fn itc02_constrained_sweep_respects_the_ceiling() {
    for (name, soc) in itc02_socs() {
        let cores: Vec<WrapperCore> = soc
            .iter()
            .filter(|(_, c)| c.patterns > 0)
            .map(|(_, c)| WrapperCore::from_core_spec(c, 8))
            .collect();
        let pcs = power_cores(&cores);
        let powers: Vec<u64> = cores.iter().map(scan_power_model).collect();
        let hungriest = powers.iter().copied().max().unwrap();
        let ceiling = hungriest.max(powers.iter().sum::<u64>() / 2);
        let s = pack_constrained_metered(&pcs, 16, ceiling, &NullSink)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_no_overlap(&s);
        assert_power_within(&s, &powers, ceiling);
        assert!(s.makespan() <= serial_time(&cores, 16), "{name}");
    }
}
