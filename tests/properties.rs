//! Cross-crate property-based tests (proptest).

use proptest::prelude::*;

use modsoc::analysis::tdv::{
    benefit_exact, core_tdv, isocost, modular_tdv, monolithic_tdv, penalty, ChipPinPolicy,
    TdvOptions,
};
use modsoc::analysis::{AnalysisError, SocTdvAnalysis};
use modsoc::atpg::{Bit, TestCube};
use modsoc::soc::format::{parse_soc, write_soc};
use modsoc::soc::{CoreSpec, Soc};

fn arb_core(name: String) -> impl Strategy<Value = CoreSpec> {
    (0u64..200, 0u64..200, 0u64..20, 0u64..5000, 1u64..10_000)
        .prop_map(move |(i, o, b, s, t)| CoreSpec::leaf(name.clone(), i, o, b, s, t))
}

/// 1..8 leaf cores under one top.
fn soc_of(cores: Vec<CoreSpec>, (ti, to, tb, tt): (u64, u64, u64, u64)) -> Soc {
    let mut soc = Soc::new("prop");
    let mut children = Vec::new();
    for c in cores {
        children.push(soc.add_core(c).expect("leaf adds"));
    }
    soc.add_core(CoreSpec::parent("top", ti, to, tb, 0, tt, children))
        .expect("top adds");
    soc
}

fn arb_soc() -> impl Strategy<Value = Soc> {
    (1usize..8)
        .prop_flat_map(|n| {
            let cores: Vec<_> = (0..n).map(|i| arb_core(format!("c{i}"))).collect();
            (cores, (0u64..100, 0u64..100, 0u64..10, 0u64..50))
        })
        .prop_map(|(cores, top)| soc_of(cores, top))
}

/// A count of up to about 2^40, spread over its bit lengths.
fn wide() -> impl Strategy<Value = u64> {
    (0u64..1 << 40, 0u32..=40).prop_map(|(v, shift)| v >> shift)
}

/// SOCs whose counts reach about 2^40, so that some products and sums
/// overflow `u64`.
fn arb_wide_soc() -> impl Strategy<Value = Soc> {
    (1usize..8)
        .prop_flat_map(|n| {
            let cores: Vec<_> = (0..n)
                .map(|i| {
                    (wide(), wide(), wide(), wide(), wide()).prop_map(move |(i_, o, b, s, t)| {
                        CoreSpec::leaf(format!("c{i}"), i_, o, b, s, t)
                    })
                })
                .collect();
            (cores, (wide(), wide(), wide(), wide()))
        })
        .prop_map(|(cores, top)| soc_of(cores, top))
}

/// Every Eq. 1–8 quantity of `soc` in `u128`: per core
/// `(ISOCOST, stimulus, response, total)`, then the SOC-level values in
/// the order `modular`, `monolithic`, `monolithic_optimistic` (each as
/// stimulus, response, total), penalty, Eq. 8 benefit, exact benefit.
fn reference(soc: &Soc, opts: &TdvOptions, t_mono: u64) -> (Vec<[u128; 4]>, Vec<u128>) {
    let tops = soc.top_level_cores();
    let mut rows = Vec::new();
    for (id, c) in soc.iter() {
        let (mut iso_s, mut iso_r) =
            if opts.chip_pin_policy == ChipPinPolicy::Exclude && tops.contains(&id) {
                (0u128, 0u128)
            } else {
                (
                    u128::from(c.inputs + c.bidirs),
                    u128::from(c.outputs + c.bidirs),
                )
            };
        for &ch in &c.children {
            let k = soc.core(ch);
            iso_s += u128::from(k.outputs + k.bidirs);
            iso_r += u128::from(k.inputs + k.bidirs);
        }
        let (t, s) = (u128::from(c.patterns), u128::from(c.scan_cells));
        let (stim, resp) = (t * (s + iso_s), t * (s + iso_r));
        rows.push([iso_s + iso_r, stim, resp, stim + resp]);
    }
    let (mut i, mut o, mut b) = (0u128, 0u128, 0u128);
    for &id in &tops {
        let c = soc.core(id);
        (i, o, b) = (
            i + u128::from(c.inputs),
            o + u128::from(c.outputs),
            b + u128::from(c.bidirs),
        );
    }
    let s_chip: u128 = soc.iter().map(|(_, c)| u128::from(c.scan_cells)).sum();
    let mono = |t: u64| {
        let t = u128::from(t);
        let (stim, resp) = (t * (i + b + s_chip), t * (o + b + s_chip));
        [stim, resp, stim + resp]
    };
    let modular_s: u128 = rows.iter().map(|r| r[1]).sum();
    let modular_r: u128 = rows.iter().map(|r| r[2]).sum();
    let pen: u128 = soc
        .iter()
        .zip(&rows)
        .map(|((_, c), r)| u128::from(c.patterns) * r[0])
        .sum();
    let eq8: u128 = soc
        .iter()
        .map(|(_, c)| u128::from(t_mono - c.patterns) * 2 * u128::from(c.scan_cells))
        .sum();
    let (measured, optimistic) = (mono(t_mono), mono(soc.max_core_patterns()));
    let exact = measured[2] + pen - (modular_s + modular_r);
    let mut soc_level = vec![modular_s, modular_r, modular_s + modular_r];
    soc_level.extend(measured);
    soc_level.extend(optimistic);
    soc_level.extend([pen, eq8, exact]);
    (rows, soc_level)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eq6_balances_exactly_for_any_soc(soc in arb_soc()) {
        for opts in [TdvOptions::tables_1_2(), TdvOptions::tables_3_4()] {
            let t_mono = soc.max_core_patterns();
            let mono = monolithic_tdv(&soc, t_mono).unwrap().total();
            let pen = penalty(&soc, &opts).unwrap();
            let ben = benefit_exact(&soc, t_mono, &opts).unwrap();
            let modular = modular_tdv(&soc, &opts).unwrap().total();
            prop_assert_eq!(mono + pen - ben, modular);
        }
    }

    #[test]
    fn volumes_scale_linearly_with_tmono(soc in arb_soc(), k in 1u64..5) {
        let t = soc.max_core_patterns();
        let v1 = monolithic_tdv(&soc, t).unwrap().total();
        let vk = monolithic_tdv(&soc, t * k).unwrap().total();
        prop_assert_eq!(vk, v1 * k);
    }

    #[test]
    fn modular_tdv_at_least_scan_payload(soc in arb_soc()) {
        // Every pattern must at least carry its core's scan bits.
        let opts = TdvOptions::tables_1_2();
        let floor: u64 = soc.iter().map(|(_, c)| c.patterns * 2 * c.scan_cells).sum();
        prop_assert!(modular_tdv(&soc, &opts).unwrap().total() >= floor);
    }

    #[test]
    fn include_policy_never_cheaper(soc in arb_soc()) {
        // Charging chip pins can only add bits.
        let ex = modular_tdv(&soc, &TdvOptions::tables_1_2()).unwrap().total();
        let inc = modular_tdv(&soc, &TdvOptions::tables_3_4()).unwrap().total();
        prop_assert!(inc >= ex);
    }

    #[test]
    fn analysis_matches_standalone_equations(soc in arb_soc()) {
        let opts = TdvOptions::tables_3_4();
        let a = SocTdvAnalysis::compute(&soc, &opts).expect("analysis");
        prop_assert_eq!(a.modular().total(), modular_tdv(&soc, &opts).unwrap().total());
        prop_assert_eq!(a.penalty(), penalty(&soc, &opts).unwrap());
        let row_sum: u64 = a.rows().iter().map(|r| r.volume.total()).sum();
        prop_assert_eq!(row_sum, a.modular().total());
    }

    /// The checked equations against a `u128` reference: the analysis
    /// is `Ok` exactly when every quantity fits in `u64`, and then equal
    /// to the reference; otherwise it reports the overflow.
    #[test]
    fn checked_equations_match_a_u128_reference(soc in arb_wide_soc(), extra in wide()) {
        for opts in [TdvOptions::tables_1_2(), TdvOptions::tables_3_4()] {
            let max_core = soc.max_core_patterns();
            for t_mono in [None, Some(max_core + extra)] {
                let t = t_mono.unwrap_or(max_core);
                let (rows, soc_level) = reference(&soc, &opts, t);
                let fit = |v: &u128| *v <= u128::from(u64::MAX);
                // Each row on its own, whatever the SOC-level sums do.
                for ((id, _), row) in soc.iter().zip(&rows) {
                    let got = isocost(&soc, id, &opts)
                        .zip(core_tdv(&soc, id, &opts))
                        .map(|(iso, v)| [iso, v.stimulus, v.response, v.total()].map(u128::from));
                    prop_assert_eq!(got, row.iter().all(fit).then_some(*row));
                }
                let fits = rows.iter().flatten().chain(&soc_level).all(fit);
                let analysis = match t_mono {
                    Some(t) => SocTdvAnalysis::compute_with_measured_tmono(&soc, &opts, t),
                    None => SocTdvAnalysis::compute(&soc, &opts),
                };
                match analysis {
                    Ok(a) => {
                        prop_assert!(fits);
                        let got: Vec<[u128; 4]> = a
                            .rows()
                            .iter()
                            .map(|r| [r.isocost, r.volume.stimulus, r.volume.response, r.volume.total()].map(u128::from))
                            .collect();
                        prop_assert_eq!(got, rows);
                        let mut got = Vec::new();
                        for v in [a.modular(), a.monolithic(), a.monolithic_optimistic()] {
                            got.extend([v.stimulus, v.response, v.total()]);
                        }
                        got.extend([a.penalty(), a.benefit_eq8(), a.benefit()]);
                        prop_assert_eq!(got.into_iter().map(u128::from).collect::<Vec<_>>(), soc_level);
                    }
                    Err(e) => {
                        prop_assert!(!fits);
                        // The error names the first core whose row
                        // overflows, or else the first SOC-level quantity.
                        let first_core = soc
                            .iter()
                            .zip(&rows)
                            .find(|(_, row)| !row.iter().all(fit))
                            .map(|((_, c), _)| format!("core `{}`", c.name));
                        let first_soc_level = soc_level.iter().position(|v| !fit(v)).map(|k| {
                            let quantity = [
                                "modular TDV (Eq. 4)",
                                "monolithic TDV (Eq. 1)",
                                "optimistic monolithic TDV (Eq. 3)",
                                "penalty (Eq. 7)",
                                "benefit (Eq. 8)",
                                "exact benefit (Eq. 6)",
                            ][if k < 9 { k / 3 } else { k - 6 }];
                            format!("the SOC-level {quantity}")
                        });
                        match e {
                            AnalysisError::Overflow { what } => {
                                prop_assert_eq!(Some(what), first_core.or(first_soc_level));
                            }
                            e => prop_assert!(false, "{}", e),
                        }
                    }
                }
            }
        }
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
