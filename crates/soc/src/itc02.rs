//! Embedded benchmark data from the paper.
//!
//! Three kinds of data, each transcribed from the published tables:
//!
//! * [`soc1`] / [`soc2`] — the ISCAS'89-based SOCs of Tables 1 and 2,
//!   including the measured monolithic pattern counts
//!   ([`SOC1_MEASURED_TMONO`], [`SOC2_MEASURED_TMONO`]);
//! * [`p34392`] — the full per-core table of the hierarchical ITC'02 SOC
//!   p34392 (Table 3), with two self-consistency corrections documented
//!   in `DESIGN.md`: core 0's embed list includes core 10 (as Figure 3
//!   shows), and core 10's output count is 107 (the printed 207 fails the
//!   row's own TDV check);
//! * [`table4`] — the paper-reported aggregates for all ten ITC'02
//!   benchmark SOCs (Table 4), used both as reconstruction targets and as
//!   the reference the regenerated experiments are compared against.

use crate::core::CoreSpec;
use crate::soc::Soc;

/// Monolithic ATPG pattern count the paper measured for SOC1 (ATALANTA
/// on the flattened design).
pub const SOC1_MEASURED_TMONO: u64 = 216;

/// Monolithic ATPG pattern count the paper measured for SOC2.
pub const SOC2_MEASURED_TMONO: u64 = 945;

/// SOC1 of Table 1: s713 + s953 + 3×s1423 under a top-level glue core.
///
/// # Panics
///
/// Never panics; the embedded data is valid by construction.
#[must_use]
pub fn soc1() -> Soc {
    let mut soc = Soc::new("SOC1");
    let add = |soc: &mut Soc, spec| soc.add_core(spec).expect("embedded data is valid");
    let c1 = add(&mut soc, CoreSpec::leaf("core1_s713", 35, 23, 0, 19, 52));
    let c2 = add(&mut soc, CoreSpec::leaf("core2_s953", 16, 23, 0, 29, 85));
    let c3 = add(&mut soc, CoreSpec::leaf("core3_s1423", 17, 5, 0, 74, 62));
    let c4 = add(&mut soc, CoreSpec::leaf("core4_s1423", 17, 5, 0, 74, 62));
    let c5 = add(&mut soc, CoreSpec::leaf("core5_s1423", 17, 5, 0, 74, 62));
    add(
        &mut soc,
        CoreSpec::parent("top", 51, 10, 0, 0, 2, vec![c1, c2, c3, c4, c5]),
    );
    soc
}

/// SOC2 of Table 2: s953 + s5378 + s13207 + s15850 under a top-level
/// glue core.
#[must_use]
pub fn soc2() -> Soc {
    let mut soc = Soc::new("SOC2");
    let add = |soc: &mut Soc, spec| soc.add_core(spec).expect("embedded data is valid");
    let c1 = add(&mut soc, CoreSpec::leaf("core1_s953", 16, 23, 0, 29, 85));
    let c2 = add(&mut soc, CoreSpec::leaf("core2_s5378", 35, 49, 0, 179, 244));
    let c3 = add(
        &mut soc,
        CoreSpec::leaf("core3_s13207", 31, 121, 0, 669, 452),
    );
    let c4 = add(
        &mut soc,
        CoreSpec::leaf("core4_s15850", 14, 87, 0, 597, 428),
    );
    add(
        &mut soc,
        CoreSpec::parent("top", 14, 198, 0, 0, 2, vec![c1, c2, c3, c4]),
    );
    soc
}

/// The hierarchical ITC'02 SOC p34392 (Table 3 / Figure 3).
///
/// Hierarchy: the top core 0 embeds cores 1, 2, 10 and 18; core 2 embeds
/// 3–9; core 10 embeds 11–17; core 18 embeds 19.
#[must_use]
pub fn p34392() -> Soc {
    // (name, I, O, B, S, T); children attached below.
    const ROWS: [(&str, u64, u64, u64, u64, u64); 20] = [
        ("core0", 32, 27, 114, 0, 27),
        ("core1", 15, 94, 0, 806, 210),
        ("core2", 165, 263, 0, 8856, 514),
        ("core3", 37, 25, 0, 0, 3108),
        ("core4", 38, 25, 0, 0, 6180),
        ("core5", 62, 25, 0, 0, 12336),
        ("core6", 11, 8, 0, 0, 1965),
        ("core7", 9, 8, 0, 0, 512),
        ("core8", 46, 17, 0, 0, 9930),
        ("core9", 41, 33, 0, 0, 228),
        ("core10", 129, 107, 0, 4827, 454),
        ("core11", 23, 8, 0, 0, 9285),
        ("core12", 7, 4, 0, 0, 173),
        ("core13", 12, 16, 0, 0, 2560),
        ("core14", 11, 8, 0, 0, 432),
        ("core15", 22, 8, 0, 0, 4440),
        ("core16", 7, 7, 0, 0, 128),
        ("core17", 15, 4, 0, 0, 786),
        ("core18", 175, 212, 0, 6555, 745),
        ("core19", 62, 25, 0, 0, 12336),
    ];
    let children_of = |idx: usize| -> Vec<usize> {
        match idx {
            0 => vec![1, 2, 10, 18],
            2 => (3..=9).collect(),
            10 => (11..=17).collect(),
            18 => vec![19],
            _ => Vec::new(),
        }
    };
    // Add leaves-first so child ids exist: process indices in an order
    // where children precede parents (19, 11..17, 3..9, 1, then parents).
    let order: Vec<usize> = {
        let mut order = Vec::new();
        fn visit(
            idx: usize,
            children_of: &dyn Fn(usize) -> Vec<usize>,
            order: &mut Vec<usize>,
            seen: &mut [bool],
        ) {
            if seen[idx] {
                return;
            }
            seen[idx] = true;
            for ch in children_of(idx) {
                visit(ch, children_of, order, seen);
            }
            order.push(idx);
        }
        let mut seen = [false; 20];
        visit(0, &children_of, &mut order, &mut seen);
        order
    };
    let mut soc = Soc::new("p34392");
    let mut ids = [None; 20];
    for idx in order {
        let (name, i, o, b, s, t) = ROWS[idx];
        let children = children_of(idx)
            .into_iter()
            .map(|c| ids[c].expect("children added first"))
            .collect();
        let id = soc
            .add_core(CoreSpec::parent(name, i, o, b, s, t, children))
            .expect("embedded data is valid");
        ids[idx] = Some(id);
    }
    soc
}

/// Modular TDV of p34392 as printed in Table 3's final row.
pub const P34392_TDV_MODULAR: u64 = 28_538_030;

/// One row of the paper's Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// ITC'02 SOC name.
    pub name: &'static str,
    /// Number of module cores (excluding top-level glue).
    pub cores: usize,
    /// Normalized (sample) standard deviation of core pattern counts.
    pub norm_stdev: f64,
    /// Optimistic monolithic TDV (Equation 3), bits.
    pub tdv_opt_mono: u64,
    /// Isolation penalty (Equation 7), bits.
    pub penalty: u64,
    /// Modular-testing benefit (Equation 8 as tabulated), bits.
    pub benefit: u64,
    /// Modular TDV (Equation 6), bits.
    pub tdv_modular: u64,
    /// Penalty as a percentage of the optimistic monolithic TDV
    /// (Table 4 column 5, positive = cost).
    pub penalty_pct: f64,
    /// Benefit percentage (column 6, negative = saving).
    pub benefit_pct: f64,
    /// Modular TDV change vs optimistic monolithic (column 7; negative =
    /// reduction delivered by modular testing).
    pub modular_pct: f64,
}

impl Table4Row {
    /// The TDV reduction ratio `TDV_opt_mono / TDV_modular` (> 1 means
    /// modular wins).
    #[must_use]
    pub fn reduction_ratio(&self) -> f64 {
        self.tdv_opt_mono as f64 / self.tdv_modular as f64
    }
}

/// The paper's Table 4, verbatim.
#[must_use]
pub fn table4() -> &'static [Table4Row; 10] {
    const TABLE: [Table4Row; 10] = [
        Table4Row {
            name: "d695",
            cores: 10,
            norm_stdev: 0.70,
            tdv_opt_mono: 2_987_712,
            penalty: 164_894,
            benefit: 1_935_953,
            tdv_modular: 1_216_653,
            penalty_pct: 5.5,
            benefit_pct: -64.8,
            modular_pct: -59.3,
        },
        Table4Row {
            name: "h953",
            cores: 8,
            norm_stdev: 0.92,
            tdv_opt_mono: 3_176_074,
            penalty: 147_298,
            benefit: 1_121_480,
            tdv_modular: 2_201_892,
            penalty_pct: 4.6,
            benefit_pct: -35.3,
            modular_pct: -30.7,
        },
        Table4Row {
            name: "f2126",
            cores: 4,
            norm_stdev: 0.68,
            tdv_opt_mono: 11_812_624,
            penalty: 400_418,
            benefit: 1_982_992,
            tdv_modular: 10_230_050,
            penalty_pct: 3.4,
            benefit_pct: -16.8,
            modular_pct: -13.4,
        },
        Table4Row {
            name: "g1023",
            cores: 14,
            norm_stdev: 1.05,
            tdv_opt_mono: 828_120,
            penalty: 233_207,
            benefit: 479_124,
            tdv_modular: 582_203,
            penalty_pct: 28.2,
            benefit_pct: -57.9,
            modular_pct: -29.7,
        },
        Table4Row {
            name: "g12710",
            cores: 4,
            norm_stdev: 0.18,
            tdv_opt_mono: 34_140_348,
            penalty: 16_223_802,
            benefit: 3_036_376,
            tdv_modular: 47_327_774,
            penalty_pct: 47.5,
            benefit_pct: -8.9,
            modular_pct: 38.6,
        },
        Table4Row {
            name: "p22810",
            cores: 28,
            norm_stdev: 2.72,
            tdv_opt_mono: 612_736_956,
            penalty: 2_657_286,
            benefit: 601_177_672,
            tdv_modular: 13_616_570,
            penalty_pct: 0.4,
            benefit_pct: -98.1,
            modular_pct: -97.7,
        },
        Table4Row {
            name: "p34392",
            cores: 19,
            norm_stdev: 1.29,
            tdv_opt_mono: 522_738_000,
            penalty: 4_991_278,
            benefit: 499_191_248,
            tdv_modular: 28_538_030,
            penalty_pct: 9.5,
            benefit_pct: -95.5,
            modular_pct: -86.0,
        },
        Table4Row {
            name: "p93791",
            cores: 32,
            norm_stdev: 1.79,
            tdv_opt_mono: 1_101_977_712,
            penalty: 5_451_526,
            benefit: 1_060_719_663,
            tdv_modular: 46_709_575,
            penalty_pct: 0.5,
            benefit_pct: -96.3,
            modular_pct: -95.8,
        },
        Table4Row {
            name: "t512505",
            cores: 31,
            norm_stdev: 0.93,
            tdv_opt_mono: 459_196_200,
            penalty: 4_293_188,
            benefit: 136_793_570,
            tdv_modular: 326_695_818,
            penalty_pct: 0.9,
            benefit_pct: -29.8,
            modular_pct: -28.9,
        },
        Table4Row {
            name: "a586710",
            cores: 7,
            norm_stdev: 1.95,
            tdv_opt_mono: 144_302_301_808,
            penalty: 728_526_992,
            benefit: 144_080_555_088,
            tdv_modular: 950_273_712,
            penalty_pct: 0.5,
            benefit_pct: -99.8,
            modular_pct: -99.3,
        },
    ];
    &TABLE
}

/// Look up a Table 4 row by SOC name.
#[must_use]
pub fn table4_row(name: &str) -> Option<&'static Table4Row> {
    table4().iter().find(|r| r.name == name)
}

/// g12710's published per-core pattern counts (§5.2), the paper's example
/// of insignificant variation.
pub const G12710_PATTERN_COUNTS: [u64; 4] = [852, 1314, 1223, 1223];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pattern_count_stats;

    #[test]
    fn soc1_matches_table1_interface() {
        let s = soc1();
        s.validate().unwrap();
        assert_eq!(s.core_count(), 6);
        assert_eq!(s.chip_pins(), Some((51, 10, 0)));
        assert_eq!(s.total_scan_cells(), Some(270));
        assert_eq!(s.max_core_patterns(), 85);
    }

    #[test]
    fn soc2_matches_table2_interface() {
        let s = soc2();
        s.validate().unwrap();
        assert_eq!(s.chip_pins(), Some((14, 198, 0)));
        assert_eq!(s.total_scan_cells(), Some(1474));
        assert_eq!(s.max_core_patterns(), 452);
    }

    #[test]
    fn p34392_hierarchy() {
        let s = p34392();
        s.validate().unwrap();
        assert_eq!(s.core_count(), 20);
        let top = s.find("core0").unwrap();
        assert_eq!(s.top_level_cores(), vec![top]);
        assert_eq!(s.core(top).children.len(), 4);
        assert_eq!(s.chip_pins(), Some((32, 27, 114)));
        assert_eq!(s.total_scan_cells(), Some(806 + 8856 + 4827 + 6555));
        assert_eq!(s.max_core_patterns(), 12336);
    }

    #[test]
    fn p34392_nstd_close_to_table4() {
        let st = pattern_count_stats(&p34392());
        assert_eq!(st.n, 19);
        let row = table4_row("p34392").unwrap();
        assert!(
            (st.normalized_stdev() - row.norm_stdev).abs() < 0.06,
            "nstd {} vs paper {}",
            st.normalized_stdev(),
            row.norm_stdev
        );
    }

    #[test]
    fn table4_is_complete_and_consistent() {
        let t = table4();
        assert_eq!(t.len(), 10);
        for row in t {
            // Equation 6 should balance in the printed data. It does for
            // nine rows; p22810 is off by exactly 600,000 in the paper
            // itself (a typo in one of its bit columns — the percentage
            // columns confirm all three printed values), so tolerate a
            // residual of up to 0.2% of the monolithic TDV.
            let lhs = row.tdv_opt_mono as i128 + row.penalty as i128 - row.benefit as i128;
            let residual = (lhs - row.tdv_modular as i128).unsigned_abs();
            assert!(
                residual as f64 <= 0.002 * row.tdv_opt_mono as f64,
                "{}: residual {residual}",
                row.name
            );
            if row.name != "p22810" {
                assert_eq!(lhs, row.tdv_modular as i128, "{}", row.name);
            }
            // The paper computes the modular percentage as the sum of the
            // penalty and benefit percentages; every printed row obeys
            // that identity.
            assert!(
                (row.penalty_pct + row.benefit_pct - row.modular_pct).abs() < 0.11,
                "{}",
                row.name
            );
            // Percentage columns consistent with the bit columns (±0.1pp)
            // — except p34392's penalty, where the paper prints +9.5% for
            // a ratio of 0.95% (misplaced decimal; the bit columns and
            // Table 3 confirm 4,991,278 / 522,738,000).
            let ben = -(row.benefit as f64) / row.tdv_opt_mono as f64 * 100.0;
            assert!((ben - row.benefit_pct).abs() < 0.11, "{}: {ben}", row.name);
            let pen = row.penalty as f64 / row.tdv_opt_mono as f64 * 100.0;
            if row.name == "p34392" {
                assert!(
                    (pen - row.penalty_pct / 10.0).abs() < 0.011,
                    "{}: {pen}",
                    row.name
                );
            } else {
                assert!((pen - row.penalty_pct).abs() < 0.11, "{}: {pen}", row.name);
            }
        }
    }

    #[test]
    fn table4_averages_match_paper() {
        let t = table4();
        let avg = |f: fn(&Table4Row) -> f64| t.iter().map(f).sum::<f64>() / t.len() as f64;
        assert!((avg(|r| r.penalty_pct) - 10.1).abs() < 0.15);
        assert!((avg(|r| r.benefit_pct) + 60.3).abs() < 0.15);
        assert!((avg(|r| r.modular_pct) + 50.2).abs() < 0.15);
    }

    #[test]
    fn g12710_counts_published() {
        let st = crate::stats::SampleStats::of(&G12710_PATTERN_COUNTS);
        assert!((st.normalized_stdev() - 0.18).abs() < 0.01);
    }
}
