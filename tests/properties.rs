//! Cross-crate property-based tests (proptest).

use proptest::prelude::*;

use modsoc::analysis::tdv::{benefit_exact, modular_tdv, monolithic_tdv, penalty, TdvOptions};
use modsoc::analysis::SocTdvAnalysis;
use modsoc::atpg::{Bit, TestCube};
use modsoc::soc::format::{parse_soc, write_soc};
use modsoc::soc::{CoreSpec, Soc};

fn arb_core(name: String) -> impl Strategy<Value = CoreSpec> {
    (0u64..200, 0u64..200, 0u64..20, 0u64..5000, 1u64..10_000)
        .prop_map(move |(i, o, b, s, t)| CoreSpec::leaf(name.clone(), i, o, b, s, t))
}

fn arb_soc() -> impl Strategy<Value = Soc> {
    // 1..8 leaf cores under one top.
    (1usize..8)
        .prop_flat_map(|n| {
            let cores: Vec<_> = (0..n).map(|i| arb_core(format!("c{i}"))).collect();
            (cores, 0u64..100, 0u64..100, 0u64..10, 0u64..50)
        })
        .prop_map(|(cores, ti, to, tb, tt)| {
            let mut soc = Soc::new("prop");
            let mut children = Vec::new();
            for c in cores {
                children.push(soc.add_core(c).expect("leaf adds"));
            }
            soc.add_core(CoreSpec::parent("top", ti, to, tb, 0, tt, children))
                .expect("top adds");
            soc
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eq6_balances_exactly_for_any_soc(soc in arb_soc()) {
        for opts in [TdvOptions::tables_1_2(), TdvOptions::tables_3_4()] {
            let t_mono = soc.max_core_patterns();
            let mono = monolithic_tdv(&soc, t_mono).total();
            let pen = penalty(&soc, &opts);
            let ben = benefit_exact(&soc, t_mono, &opts);
            let modular = modular_tdv(&soc, &opts).total();
            prop_assert_eq!(mono + pen - ben, modular);
        }
    }

    #[test]
    fn volumes_scale_linearly_with_tmono(soc in arb_soc(), k in 1u64..5) {
        let t = soc.max_core_patterns();
        let v1 = monolithic_tdv(&soc, t).total();
        let vk = monolithic_tdv(&soc, t * k).total();
        prop_assert_eq!(vk, v1 * k);
    }

    #[test]
    fn modular_tdv_at_least_scan_payload(soc in arb_soc()) {
        // Every pattern must at least carry its core's scan bits.
        let opts = TdvOptions::tables_1_2();
        let floor: u64 = soc.iter().map(|(_, c)| c.patterns * 2 * c.scan_cells).sum();
        prop_assert!(modular_tdv(&soc, &opts).total() >= floor);
    }

    #[test]
    fn include_policy_never_cheaper(soc in arb_soc()) {
        // Charging chip pins can only add bits.
        let ex = modular_tdv(&soc, &TdvOptions::tables_1_2()).total();
        let inc = modular_tdv(&soc, &TdvOptions::tables_3_4()).total();
        prop_assert!(inc >= ex);
    }

    #[test]
    fn analysis_matches_standalone_equations(soc in arb_soc()) {
        let opts = TdvOptions::tables_3_4();
        let a = SocTdvAnalysis::compute(&soc, &opts).expect("analysis");
        prop_assert_eq!(a.modular().total(), modular_tdv(&soc, &opts).total());
        prop_assert_eq!(a.penalty(), penalty(&soc, &opts));
        let row_sum: u64 = a.rows().iter().map(|r| r.volume.total()).sum();
        prop_assert_eq!(row_sum, a.modular().total());
    }

    #[test]
    fn soc_format_round_trips(soc in arb_soc()) {
        let text = write_soc(&soc);
        let back = parse_soc(&text).expect("parses");
        prop_assert_eq!(back.core_count(), soc.core_count());
        for (_, c) in soc.iter() {
            let id = back.find(&c.name).expect("core preserved");
            let c2 = back.core(id);
            prop_assert_eq!(
                (c.inputs, c.outputs, c.bidirs, c.scan_cells, c.patterns),
                (c2.inputs, c2.outputs, c2.bidirs, c2.scan_cells, c2.patterns)
            );
        }
    }

    #[test]
    fn cube_merge_is_commutative_and_preserves_bits(
        bits_a in proptest::collection::vec(0u8..3, 1..40),
        bits_b in proptest::collection::vec(0u8..3, 1..40),
    ) {
        let n = bits_a.len().min(bits_b.len());
        let to_cube = |bits: &[u8]| {
            TestCube::from_bits(
                bits.iter()
                    .take(n)
                    .map(|&b| match b {
                        0 => Bit::Zero,
                        1 => Bit::One,
                        _ => Bit::X,
                    })
                    .collect(),
            )
        };
        let a = to_cube(&bits_a);
        let b = to_cube(&bits_b);
        prop_assert_eq!(a.compatible(&b), b.compatible(&a));
        if a.compatible(&b) {
            let m1 = a.merged(&b);
            let m2 = b.merged(&a);
            prop_assert_eq!(&m1, &m2);
            // Merging never unspecifies a bit.
            for i in 0..n {
                if a.bit(i) != Bit::X {
                    prop_assert_eq!(m1.bit(i), a.bit(i));
                }
                if b.bit(i) != Bit::X {
                    prop_assert_eq!(m1.bit(i), b.bit(i));
                }
            }
        }
    }
}

proptest! {
    // Full guarded experiments per case: keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallel determinism contract end to end: the guarded
    /// experiment produces an identical report at `jobs=1` and `jobs=4`
    /// — same per-core outcome table, pattern counts and TDV rows — for
    /// any netlist seed, including when injected per-core panics knock
    /// cores out.
    #[test]
    fn guarded_experiment_is_jobs_invariant(seed in 1u64..64, panic_mask in 0u8..4) {
        use modsoc::analysis::experiment::{
            run_soc_experiment_guarded_full, ExperimentOptions,
        };
        use modsoc::analysis::{AnalysisError, RunBudget};
        use modsoc::atpg::{Atpg, AtpgOptions};
        use modsoc::circuitgen::soc::mini_soc;
        use modsoc::metrics::NullSink;

        let netlist = mini_soc(seed).expect("builds");
        let engine = Atpg::new(AtpgOptions::default());
        let run = |jobs: usize| {
            let options = ExperimentOptions::paper_tables_1_2().with_jobs(jobs);
            run_soc_experiment_guarded_full(
                &netlist,
                &options,
                &RunBudget::unlimited(),
                &NullSink,
                |i, circuit| {
                    if panic_mask & (1 << i) != 0 {
                        panic!("injected panic in core {i}");
                    }
                    engine
                        .run_budgeted(circuit, &RunBudget::unlimited())
                        .map_err(AnalysisError::from)
                },
                |flat| {
                    engine
                        .run_budgeted(flat, &RunBudget::unlimited())
                        .map_err(AnalysisError::from)
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(&p.per_core_outcomes, &s.per_core_outcomes);
                prop_assert_eq!(p.exhausted, s.exhausted);
                prop_assert_eq!(p.result.t_mono, s.result.t_mono);
                prop_assert_eq!(p.result.eq2_strict, s.result.eq2_strict);
                let rows = |e: &modsoc::analysis::experiment::SocExperiment| {
                    e.cores
                        .iter()
                        .map(|c| (c.name.clone(), c.patterns, c.stats.detected))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(rows(&p.result), rows(&s.result));
                prop_assert_eq!(
                    p.result.analysis.modular().total(),
                    s.result.analysis.modular().total()
                );
                prop_assert_eq!(
                    p.result.analysis.reduction_ratio(),
                    s.result.analysis.reduction_ratio()
                );
            }
            // Every core panicked: both job counts must agree on the
            // terminal error too.
            (Err(se), Err(pe)) => prop_assert_eq!(pe.to_string(), se.to_string()),
            (s, p) => prop_assert!(false, "divergent termination: {s:?} vs {p:?}"),
        }
    }
}
