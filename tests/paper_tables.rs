//! Integration: every published table regenerates through the facade.

use modsoc::analysis::reconstruct::table4_socs;
use modsoc::analysis::report::render_survey;
use modsoc::analysis::{SocTdvAnalysis, TdvOptions};
use modsoc::demo;
use modsoc::soc::itc02;
use modsoc::soc::stats::pattern_count_stats;

fn demo_text(mode: &str) -> String {
    demo::run(mode).unwrap_or_else(|e| panic!("demo {mode}: {e}"))
}

#[test]
fn table1_soc1_headline() {
    let soc = itc02::soc1();
    let a = SocTdvAnalysis::compute_with_measured_tmono(
        &soc,
        &TdvOptions::tables_1_2(),
        itc02::SOC1_MEASURED_TMONO,
    )
    .expect("analysis");
    assert_eq!(a.modular().total(), 45_183);
    assert_eq!(a.monolithic().total(), 129_816);
    assert_eq!(a.monolithic_optimistic().total(), 51_085);
    assert!((a.reduction_ratio() - 2.87).abs() < 0.01);
    assert!((a.pessimistic_reduction_ratio() - 1.13).abs() < 0.01);
}

#[test]
fn table2_soc2_headline() {
    let soc = itc02::soc2();
    let a = SocTdvAnalysis::compute_with_measured_tmono(
        &soc,
        &TdvOptions::tables_1_2(),
        itc02::SOC2_MEASURED_TMONO,
    )
    .expect("analysis");
    assert_eq!(a.modular().total(), 1_344_585);
    assert_eq!(a.monolithic().total(), 2_986_200);
    assert_eq!(a.monolithic_optimistic().total(), 1_428_320);
    assert!((a.reduction_ratio() - 2.22).abs() < 0.01);
    assert!((a.pessimistic_reduction_ratio() - 1.06).abs() < 0.01);
}

#[test]
fn table3_p34392_bit_exact() {
    let soc = itc02::p34392();
    let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4()).expect("analysis");
    assert_eq!(a.modular().total(), itc02::P34392_TDV_MODULAR);
    assert_eq!(a.monolithic_optimistic().total(), 522_738_000);
}

#[test]
fn table4_all_rows_within_tolerance() {
    let opts = TdvOptions::tables_3_4();
    let socs = table4_socs().expect("reconstruction");
    for (soc, row) in socs.iter().zip(itc02::table4()) {
        let a = SocTdvAnalysis::compute(soc, &opts).expect("analysis");
        let mono = a.monolithic_optimistic().total();
        assert!(
            (mono as f64 - row.tdv_opt_mono as f64).abs() / (row.tdv_opt_mono as f64) < 1e-3,
            "{}: mono {mono} vs {}",
            row.name,
            row.tdv_opt_mono
        );
        // Winner must agree with the paper for every row.
        let ours_modular_wins = a.modular_change_pct() < 0.0;
        let paper_modular_wins = row.modular_pct < 0.0;
        assert_eq!(ours_modular_wins, paper_modular_wins, "{}", row.name);
    }
}

#[test]
fn table4_correlation_negative() {
    let opts = TdvOptions::tables_3_4();
    let mut pairs = Vec::new();
    for soc in table4_socs().expect("reconstruction") {
        let a = SocTdvAnalysis::compute(&soc, &opts).expect("analysis");
        pairs.push((
            pattern_count_stats(&soc).normalized_stdev(),
            a.modular_change_pct(),
        ));
    }
    // Pearson correlation between variation and modular change must be
    // strongly negative (more variation -> more reduction).
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pairs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pairs.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    let syy: f64 = pairs.iter().map(|(_, y)| (y - my).powi(2)).sum();
    let r = sxy / (sxx.sqrt() * syy.sqrt());
    assert!(r < -0.6, "correlation should be strongly negative, got {r}");
}

#[test]
fn survey_renders_all_ten() {
    let opts = TdvOptions::tables_3_4();
    let analyses: Vec<_> = table4_socs()
        .expect("reconstruction")
        .iter()
        .map(|soc| SocTdvAnalysis::compute(soc, &opts).expect("analysis"))
        .collect();
    let text = render_survey(&analyses);
    for row in itc02::table4() {
        assert!(text.contains(row.name), "{} missing from survey", row.name);
    }
}

#[test]
fn figure_1_2_worked_example() {
    use modsoc::soc::{CoreSpec, Soc};
    let mut soc = Soc::new("fig1");
    for (name, ffs, patterns) in [("A", 20, 200), ("B", 10, 300), ("C", 20, 400)] {
        soc.add_core(CoreSpec::leaf(name, 0, 0, 0, ffs, patterns))
            .expect("add");
    }
    let a = SocTdvAnalysis::compute(&soc, &TdvOptions::default()).expect("analysis");
    assert_eq!(a.monolithic_optimistic().stimulus, 20_000);
    assert_eq!(a.modular().stimulus, 15_000);
}

#[test]
fn demo_soc1_and_soc2_print_the_published_summaries() {
    let text = demo_text("soc1");
    assert!(text.contains("45,183"), "{text}");
    assert!(text.contains("129,816"));
    assert!(text.contains(
        "paper's own summary: ratio 2.87, pessimistic 1.13, pessimism 2.5x; \
         ours from its data: 2.87 / 1.13 / 2.5x"
    ));
    let text = demo_text("soc2");
    assert!(text.contains("1,344,585"), "{text}");
    assert!(text.contains("2,986,200"));
    assert!(text.contains(
        "paper's own summary: ratio 2.22, pessimistic 1.06, pessimism 2.1x; \
         ours from its data: 2.22 / 1.06 / 2.1x"
    ));
}

#[test]
fn demo_p34392_is_bit_exact() {
    let text = demo_text("p34392");
    assert!(text.contains("28,538,030"), "{text}");
    assert!(text.contains("bit-exact match: yes"));
    assert!(text.contains("522,738,000"));
    assert!(text.contains("Table 4 cross-check"));
}

#[test]
fn demo_table4_covers_all_socs_and_the_correlation() {
    let text = demo_text("table4");
    for row in itc02::table4() {
        assert!(text.contains(row.name), "{} missing", row.name);
    }
    assert!(text.contains("correlation"));
    // The two extremes keep their signs.
    assert!(text.contains("+38.6%"), "{text}");
    assert!(text.contains("-99.3%"));
}

#[test]
fn demo_fig1_reproduces_the_worked_example() {
    let text = demo_text("fig1");
    assert!(text.contains("monolithic stimulus bits: 20000"), "{text}");
    assert!(text.contains("modular stimulus bits:    15000"));
    assert!(text.contains("25.0%"));
}

#[test]
fn demo_ablation_reports_all_sweeps() {
    let text = demo_text("ablation");
    for section in ["Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4"] {
        assert!(text.contains(section), "{section} missing: {text}");
    }
    assert!(text.contains("crossover observed: true"));
}

#[test]
fn demo_atspeed_quotes_the_measured_stuck_at_ratio() {
    // The stuck-at figure is `modsoc experiment soc1`'s reduction ratio,
    // computed on the same netlist and options, not a quoted constant.
    let text = demo_text("atspeed");
    assert!(
        text.contains("(stuck-at version of this experiment: 2.17)"),
        "{text}"
    );
}

/// `modsoc demo bist` and `modsoc demo atspeed`, whole: the only demos
/// whose numbers come from the per-fault fault-sim entry points (BIST
/// coverage ramps and transition-fault masks), so no sweep-level pin
/// covers them.
#[test]
fn demo_bist_and_atspeed_match_their_goldens() {
    for (mode, golden) in [
        ("bist", include_str!("../testdata/demo_bist.golden")),
        ("atspeed", include_str!("../testdata/demo_atspeed.golden")),
    ] {
        assert_eq!(demo_text(mode), golden, "demo {mode}");
    }
}
