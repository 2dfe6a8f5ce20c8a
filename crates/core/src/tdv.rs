//! The paper's test data volume equations (Equations 1–8).
//!
//! Notation follows the paper: `I`/`O`/`B`/`S` are input/output/
//! bidirectional/scan-cell counts, `T` pattern counts. Volumes are split
//! into stimulus and response bits so that stimulus-only analyses (like
//! the worked example of Figures 1–2) fall out of the same code.
//!
//! Each equation has one implementation, in checked arithmetic: it
//! returns `None` when any sum or product it forms overflows `u64`. A
//! corrupt `.soc` can carry near-`u64::MAX` counts, and a clamped number
//! would pass for a result. [`crate::SocTdvAnalysis`] turns the `None`
//! into [`crate::AnalysisError::Overflow`].

use modsoc_soc::{CoreId, Soc};

/// Whether a top-level core's own chip pins count toward its `ISOCOST`.
///
/// Equation 5 as printed includes `I_P + O_P + 2B_P` for every parent
/// `P`. The paper itself applies this inconsistently: Table 3 (p34392)
/// includes the chip pins of the top core, while Table 1/2 (SOC1/SOC2)
/// exclude them — chip pins are ATE-accessible and need no wrapper
/// cells there. Both conventions are legitimate; pick per analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChipPinPolicy {
    /// Count chip pins in the top-level core's `ISOCOST` (Equation 5
    /// verbatim; matches Table 3).
    #[default]
    Include,
    /// Do not charge wrapper bits for chip pins of top-level cores
    /// (matches Tables 1 and 2).
    Exclude,
}

/// Options shared by every TDV computation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TdvOptions {
    /// Chip-pin handling for top-level cores.
    pub chip_pin_policy: ChipPinPolicy,
    /// Fraction (`0.0..=1.0`) of wrapper terminals isolated by *reusing
    /// functional registers* instead of dedicated cells.
    ///
    /// The paper's analysis assumes dedicated cells on every core I/O
    /// and calls that "a pessimistic approach in terms of test data
    /// volume" (§3) — a functional register pressed into wrapper duty is
    /// already counted in the core's `2S` term, so it adds no extra
    /// bits. This knob models that relaxation: each core's `ISOCOST` is
    /// scaled by `1 − functional_reuse`. The paper's tables use `0.0`.
    pub functional_reuse: f64,
}

impl TdvOptions {
    /// Options matching Table 1/2 of the paper (chip pins excluded from
    /// the top core's `ISOCOST`).
    #[must_use]
    pub fn tables_1_2() -> TdvOptions {
        TdvOptions {
            chip_pin_policy: ChipPinPolicy::Exclude,
            functional_reuse: 0.0,
        }
    }

    /// Options matching Table 3/4 of the paper (Equation 5 verbatim).
    #[must_use]
    pub fn tables_3_4() -> TdvOptions {
        TdvOptions {
            chip_pin_policy: ChipPinPolicy::Include,
            functional_reuse: 0.0,
        }
    }

    /// Builder-style functional-register reuse fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_functional_reuse(mut self, fraction: f64) -> TdvOptions {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "reuse fraction must be in 0..=1"
        );
        self.functional_reuse = fraction;
        self
    }
}

/// A test data volume split into stimulus and response bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TdvVolume {
    /// Bits shifted/driven into the design.
    pub stimulus: u64,
    /// Bits captured/compared out of the design.
    pub response: u64,
}

impl TdvVolume {
    /// Total bits (the quantity the paper's tables report). Every volume
    /// the equations below return has a total that fits in `u64`.
    ///
    /// # Panics
    ///
    /// Panics if a volume built by hand has a total beyond `u64`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stimulus
            .checked_add(self.response)
            .expect("the equations return only volumes whose total fits in u64")
    }
}

/// The volume `(stimulus, response)`, or `None` when its total overflows
/// `u64`.
fn volume(stimulus: u64, response: u64) -> Option<TdvVolume> {
    stimulus.checked_add(response)?;
    Some(TdvVolume { stimulus, response })
}

/// Per-pattern wrapper bit cost of testing core `id` (Equation 5),
/// split into (stimulus, response) parts.
///
/// Stimulus side: the parent's inputs and bidirs plus each direct
/// child's outputs and bidirs must be *controlled*; response side: the
/// parent's outputs and bidirs plus each child's inputs and bidirs must
/// be *observed*. Under [`ChipPinPolicy::Exclude`], a top-level core's
/// own pins are dropped from both sides.
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn isocost_split(soc: &Soc, id: CoreId, options: &TdvOptions) -> Option<(u64, u64)> {
    let core = soc.core(id);
    let is_top = soc.is_top_level(id);
    let (mut stimulus, mut response) = match (options.chip_pin_policy, is_top) {
        (ChipPinPolicy::Exclude, true) => (0, 0),
        _ => (
            core.inputs.checked_add(core.bidirs)?,
            core.outputs.checked_add(core.bidirs)?,
        ),
    };
    for &ch in &core.children {
        let c = soc.core(ch);
        stimulus = stimulus.checked_add(c.outputs.checked_add(c.bidirs)?)?;
        response = response.checked_add(c.inputs.checked_add(c.bidirs)?)?;
    }
    let scale = |v: u64| -> u64 {
        if options.functional_reuse == 0.0 {
            v
        } else {
            ((1.0 - options.functional_reuse) * v as f64).round() as u64
        }
    };
    Some((scale(stimulus), scale(response)))
}

/// Total per-pattern wrapper bit cost of testing core `id` — `ISOCOST`
/// of Equation 5.
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn isocost(soc: &Soc, id: CoreId, options: &TdvOptions) -> Option<u64> {
    let (s, r) = isocost_split(soc, id, options)?;
    s.checked_add(r)
}

/// Stand-alone test data volume of core `id` (one term of Equation 4):
/// `T · (2S + ISOCOST)`, split into stimulus and response.
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn core_tdv(soc: &Soc, id: CoreId, options: &TdvOptions) -> Option<TdvVolume> {
    let core = soc.core(id);
    let (iso_s, iso_r) = isocost_split(soc, id, options)?;
    volume(
        core.patterns
            .checked_mul(core.scan_cells.checked_add(iso_s)?)?,
        core.patterns
            .checked_mul(core.scan_cells.checked_add(iso_r)?)?,
    )
}

/// Modular SOC test data volume (Equation 4): the sum of every core's
/// stand-alone volume.
#[must_use]
pub fn modular_tdv(soc: &Soc, options: &TdvOptions) -> Option<TdvVolume> {
    soc.iter().try_fold(TdvVolume::default(), |sum, (id, _)| {
        let v = core_tdv(soc, id, options)?;
        volume(
            sum.stimulus.checked_add(v.stimulus)?,
            sum.response.checked_add(v.response)?,
        )
    })
}

/// Monolithic test data volume (Equation 1) for a given flattened-design
/// pattern count `t_mono`:
/// `(I_chip + O_chip + 2B_chip + 2S_chip) · T_mono`.
#[must_use]
pub fn monolithic_tdv(soc: &Soc, t_mono: u64) -> Option<TdvVolume> {
    let (i, o, b) = soc.chip_pins()?;
    let s = soc.total_scan_cells()?;
    volume(
        t_mono.checked_mul(i.checked_add(b)?.checked_add(s)?)?,
        t_mono.checked_mul(o.checked_add(b)?.checked_add(s)?)?,
    )
}

/// Optimistic monolithic test data volume (Equation 3): Equation 1 with
/// the Equation 2 lower bound `T_mono = max_i T_i`.
#[must_use]
pub fn monolithic_tdv_optimistic(soc: &Soc) -> Option<TdvVolume> {
    monolithic_tdv(soc, soc.max_core_patterns())
}

/// Isolation penalty (Equation 7): wrapper bits summed over all cores,
/// `Σ T_A · ISOCOST_A`.
#[must_use]
pub fn penalty(soc: &Soc, options: &TdvOptions) -> Option<u64> {
    soc.iter().try_fold(0u64, |sum, (id, c)| {
        sum.checked_add(c.patterns.checked_mul(isocost(soc, id, options)?)?)
    })
}

/// Benefit as printed in Equation 8: `Σ (T_mono − T_A) · 2 S_A`; `None`
/// also when `t_mono` undercuts a core's `T_A` (Equation 2).
///
/// Note this omits the chip-pin term, so Equation 6 as printed is not an
/// exact identity; see [`benefit_exact`].
#[must_use]
pub fn benefit_eq8(soc: &Soc, t_mono: u64) -> Option<u64> {
    soc.iter().try_fold(0u64, |sum, (_, c)| {
        sum.checked_add(
            t_mono
                .checked_sub(c.patterns)?
                .checked_mul(2)?
                .checked_mul(c.scan_cells)?,
        )
    })
}

/// Exact benefit: defined so Equation 6 balances identically,
/// `benefit = TDV_mono + penalty − TDV_modular`. Expanding the
/// definitions gives `Σ (T_mono − T_A)·2S_A + (I+O+2B)_chip · T_mono`
/// (under [`ChipPinPolicy::Include`]) — Equation 8 plus the chip-pin
/// term the printed equation drops. The paper's Table 4 "benefit" column
/// matches this exact form, not Equation 8. `None` also when the balance
/// is negative, which takes a `t_mono` below some core's `T_A`.
#[must_use]
pub fn benefit_exact(soc: &Soc, t_mono: u64, options: &TdvOptions) -> Option<u64> {
    let mono = i128::from(monolithic_tdv(soc, t_mono)?.total());
    let pen = i128::from(penalty(soc, options)?);
    let modular = i128::from(modular_tdv(soc, options)?.total());
    u64::try_from(mono + pen - modular).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_soc::itc02;
    use modsoc_soc::CoreSpec;

    fn fig1_soc() -> Soc {
        let mut soc = Soc::new("fig1");
        for (name, ffs, t) in [("A", 20, 200), ("B", 10, 300), ("C", 20, 400)] {
            soc.add_core(CoreSpec::leaf(name, 0, 0, 0, ffs, t)).unwrap();
        }
        soc
    }

    #[test]
    fn figure_1_2_worked_example() {
        // §3: 400 patterns × 50 FFs = 20,000 monolithic stimulus bits;
        // modular: 600×20 + 300×10 = 15,000 bits (25% reduction).
        let soc = fig1_soc();
        let opts = TdvOptions::default();
        let mono = monolithic_tdv_optimistic(&soc).unwrap();
        assert_eq!(mono.stimulus, 20_000);
        let modular = modular_tdv(&soc, &opts).unwrap();
        assert_eq!(modular.stimulus, 15_000);
        let reduction = 1.0 - modular.stimulus as f64 / mono.stimulus as f64;
        assert!((reduction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table1_core_rows_exact() {
        // Table 1 per-core TDVs: 4,992 / 8,245 / 3×10,540 / 326.
        let soc = itc02::soc1();
        let opts = TdvOptions::tables_1_2();
        let expect = [4_992u64, 8_245, 10_540, 10_540, 10_540, 326];
        for ((id, _), want) in soc.iter().zip(expect) {
            assert_eq!(core_tdv(&soc, id, &opts).unwrap().total(), want, "{id}");
        }
        assert_eq!(modular_tdv(&soc, &opts).unwrap().total(), 45_183);
    }

    #[test]
    fn table1_monolithic_exact() {
        let soc = itc02::soc1();
        assert_eq!(
            monolithic_tdv(&soc, itc02::SOC1_MEASURED_TMONO)
                .unwrap()
                .total(),
            129_816
        );
        assert_eq!(monolithic_tdv_optimistic(&soc).unwrap().total(), 51_085);
    }

    #[test]
    fn table2_rows_exact() {
        // Table 2 per-core TDVs: 8,245 / 107,848 / 673,480 / 554,260 / 752.
        let soc = itc02::soc2();
        let opts = TdvOptions::tables_1_2();
        let expect = [8_245u64, 107_848, 673_480, 554_260, 752];
        for ((id, _), want) in soc.iter().zip(expect) {
            assert_eq!(core_tdv(&soc, id, &opts).unwrap().total(), want, "{id}");
        }
        assert_eq!(modular_tdv(&soc, &opts).unwrap().total(), 1_344_585);
        assert_eq!(
            monolithic_tdv(&soc, itc02::SOC2_MEASURED_TMONO)
                .unwrap()
                .total(),
            2_986_200
        );
        assert_eq!(monolithic_tdv_optimistic(&soc).unwrap().total(), 1_428_320);
    }

    #[test]
    fn table3_rows_exact() {
        // Table 3 per-core TDVs for p34392, bit-exact (looked up by name
        // since the Soc stores cores children-first).
        let soc = itc02::p34392();
        let opts = TdvOptions::tables_3_4();
        let expect: [u64; 20] = [
            39_069, 361_410, 9_521_850, 192_696, 389_340, 1_073_232, 37_335, 8_704, 625_590,
            16_872, 4_559_068, 287_835, 1_903, 71_680, 8_208, 133_200, 1_792, 14_934, 10_120_080,
            1_073_232,
        ];
        for (k, want) in expect.iter().enumerate() {
            let id = soc.find(&format!("core{k}")).expect("core exists");
            assert_eq!(core_tdv(&soc, id, &opts).unwrap().total(), *want, "core{k}");
        }
        assert_eq!(
            modular_tdv(&soc, &opts).unwrap().total(),
            itc02::P34392_TDV_MODULAR
        );
    }

    #[test]
    fn table4_p34392_aggregates() {
        let soc = itc02::p34392();
        let opts = TdvOptions::tables_3_4();
        let row = itc02::table4_row("p34392").unwrap();
        assert_eq!(
            monolithic_tdv_optimistic(&soc).unwrap().total(),
            row.tdv_opt_mono
        );
        // The paper's penalty column for p34392 was evidently computed
        // with core 10's O=207 (the Table 3 typo); our self-consistent
        // O=107 lands 45,602 lower (0.9%). Benefit inherits the same
        // delta through Equation 6.
        let pen = penalty(&soc, &opts).unwrap();
        assert!(
            ((pen as i64 - row.penalty as i64).unsigned_abs() as f64) / (row.penalty as f64) < 0.01,
            "penalty {pen} vs paper {}",
            row.penalty
        );
        let ben = benefit_exact(&soc, soc.max_core_patterns(), &opts).unwrap();
        assert!(
            ((ben as i64 - row.benefit as i64).unsigned_abs() as f64) / (row.benefit as f64)
                < 0.001,
            "benefit {ben} vs paper {}",
            row.benefit
        );
    }

    #[test]
    fn eq6_exact_identity() {
        for soc in [itc02::soc1(), itc02::soc2(), itc02::p34392(), fig1_soc()] {
            for opts in [TdvOptions::tables_1_2(), TdvOptions::tables_3_4()] {
                let t_mono = soc.max_core_patterns();
                let lhs = modular_tdv(&soc, &opts).unwrap().total() as i128;
                let rhs = monolithic_tdv(&soc, t_mono).unwrap().total() as i128
                    + penalty(&soc, &opts).unwrap() as i128
                    - benefit_exact(&soc, t_mono, &opts).unwrap() as i128;
                assert_eq!(lhs, rhs, "{}", soc.name());
            }
        }
    }

    #[test]
    fn eq8_vs_exact_differ_by_chip_term() {
        let soc = itc02::p34392();
        let opts = TdvOptions::tables_3_4();
        let t = soc.max_core_patterns();
        let (i, o, b) = soc.chip_pins().unwrap();
        let exact = benefit_exact(&soc, t, &opts).unwrap();
        let eq8 = benefit_eq8(&soc, t).unwrap();
        assert_eq!(exact, eq8 + (i + o + 2 * b) * t);
    }

    #[test]
    fn isocost_policies() {
        let soc = itc02::soc1();
        let top = soc.find("top").unwrap();
        // Exclude: only child terminals: Σ(I+O) = 58+39+3·22 = 163.
        assert_eq!(isocost(&soc, top, &TdvOptions::tables_1_2()), Some(163));
        // Include: + own pins 51+10.
        assert_eq!(isocost(&soc, top, &TdvOptions::tables_3_4()), Some(224));
        // Leaf cores unaffected by policy.
        let leaf = soc.find("core1_s713").unwrap();
        assert_eq!(isocost(&soc, leaf, &TdvOptions::tables_1_2()), Some(58));
        assert_eq!(isocost(&soc, leaf, &TdvOptions::tables_3_4()), Some(58));

        // Two levels: only `top` is top-level. `mid` is a parent but is
        // embedded, so Exclude drops top's own pins and keeps mid's.
        let mut soc = Soc::new("nested");
        let leaf = soc
            .add_core(CoreSpec::leaf("leaf", 2, 3, 0, 8, 10))
            .unwrap();
        let mid = soc
            .add_core(CoreSpec::parent("mid", 4, 5, 1, 0, 10, vec![leaf]))
            .unwrap();
        let top = soc
            .add_core(CoreSpec::parent("top", 6, 7, 0, 0, 10, vec![mid]))
            .unwrap();
        let exclude = TdvOptions::tables_1_2();
        // top: only mid's terminals, (O + B, I + B).
        assert_eq!(isocost_split(&soc, top, &exclude), Some((6, 5)));
        // mid: its own (I + B, O + B) plus leaf's (O, I).
        assert_eq!(isocost_split(&soc, mid, &exclude), Some((8, 8)));
        assert_eq!(isocost_split(&soc, leaf, &exclude), Some((2, 3)));
        // Include adds top's own pins.
        let include = TdvOptions::tables_3_4();
        assert_eq!(isocost_split(&soc, top, &include), Some((12, 12)));
    }

    #[test]
    fn functional_reuse_shrinks_penalty() {
        let soc = itc02::soc1();
        let t = itc02::SOC1_MEASURED_TMONO;
        let dedicated = TdvOptions::tables_1_2();
        let half = dedicated.with_functional_reuse(0.5);
        let full = dedicated.with_functional_reuse(1.0);
        assert!(penalty(&soc, &half).unwrap() < penalty(&soc, &dedicated).unwrap());
        assert_eq!(
            penalty(&soc, &full),
            Some(0),
            "full reuse erases the penalty"
        );
        // With zero ISOCOST, modular TDV is the pure scan payload and the
        // exact benefit equals the monolithic surplus.
        let modular = modular_tdv(&soc, &full).unwrap().total();
        let floor: u64 = soc.iter().map(|(_, c)| c.patterns * 2 * c.scan_cells).sum();
        assert_eq!(modular, floor);
        assert_eq!(
            benefit_exact(&soc, t, &full).unwrap(),
            monolithic_tdv(&soc, t).unwrap().total() - modular
        );
    }

    #[test]
    fn reuse_zero_is_identity() {
        let soc = itc02::p34392();
        let a = TdvOptions::tables_3_4();
        let b = TdvOptions::tables_3_4().with_functional_reuse(0.0);
        assert_eq!(modular_tdv(&soc, &a), modular_tdv(&soc, &b));
    }

    #[test]
    #[should_panic(expected = "reuse fraction")]
    fn reuse_out_of_range_panics() {
        let _ = TdvOptions::tables_1_2().with_functional_reuse(1.5);
    }

    #[test]
    fn flattened_spec_reproduces_equation_1() {
        // Feeding the SOC's flattened single-core view through the
        // modular equation (chip pins included) is exactly Equation 1.
        for soc in [itc02::soc1(), itc02::soc2(), itc02::p34392()] {
            let t_mono = soc.max_core_patterns();
            let mut flat_soc = Soc::new("flat");
            flat_soc
                .add_core(soc.flattened_spec(t_mono).unwrap())
                .unwrap();
            let via_modular = modular_tdv(&flat_soc, &TdvOptions::tables_3_4());
            let via_eq1 = monolithic_tdv(&soc, t_mono);
            assert_eq!(via_modular, via_eq1, "{}", soc.name());
        }
    }

    #[test]
    fn every_equation_is_none_on_the_u64_max_core() {
        // A corrupted .soc can carry counts near u64::MAX: no equation
        // may clamp them (nor overflow-panic in debug builds).
        let m = u64::MAX;
        let mut soc = Soc::new("huge");
        let id = soc
            .add_core(CoreSpec::leaf("x", m, m, m, m, m - 1))
            .unwrap();
        soc.add_core(CoreSpec::parent("top", 0, 0, 0, 0, 1, vec![id]))
            .unwrap();
        for opts in [TdvOptions::tables_1_2(), TdvOptions::tables_3_4()] {
            assert_eq!(core_tdv(&soc, id, &opts), None);
            assert_eq!(modular_tdv(&soc, &opts), None);
            assert_eq!(penalty(&soc, &opts), None);
            assert_eq!(benefit_exact(&soc, m, &opts), None);
        }
        let opts = TdvOptions::tables_3_4();
        assert_eq!(isocost_split(&soc, id, &opts), None);
        assert_eq!(isocost(&soc, id, &opts), None);
        assert_eq!(monolithic_tdv(&soc, m), None);
        assert_eq!(monolithic_tdv_optimistic(&soc), None);
        assert_eq!(benefit_eq8(&soc, m), None);
    }

    #[test]
    fn totals_and_undercut_t_mono_are_checked_too() {
        // Stimulus and response each fit, their total does not.
        let mut soc = Soc::new("wide");
        soc.add_core(CoreSpec::leaf("c", 0, 0, 0, 1 << 62, 2))
            .unwrap();
        let id = soc.find("c").unwrap();
        let opts = TdvOptions::tables_3_4();
        assert_eq!(isocost(&soc, id, &opts), Some(0));
        assert_eq!(core_tdv(&soc, id, &opts), None);
        assert_eq!(monolithic_tdv(&soc, 2), None);
        assert_eq!(monolithic_tdv(&soc, 1).unwrap().total(), 1 << 63);
        // Two stimulus-only rows of 2^63 bits each: the sum overflows
        // even though it would wrap to a total that fits.
        let mut soc = Soc::new("skewed");
        for name in ["a", "b"] {
            soc.add_core(CoreSpec::leaf(name, 1 << 62, 0, 0, 0, 2))
                .unwrap();
        }
        assert_eq!(
            core_tdv(&soc, CoreId::from_index(0), &opts)
                .unwrap()
                .total(),
            1 << 63
        );
        assert_eq!(modular_tdv(&soc, &opts), None);
        // A T_mono below a core's T (Equation 2) has no benefit.
        let soc = itc02::soc1();
        assert_eq!(benefit_eq8(&soc, 3), None);
        assert_eq!(benefit_exact(&soc, 3, &TdvOptions::tables_1_2()), None);
    }

    #[test]
    fn bidirs_count_twice() {
        let mut soc = Soc::new("b");
        soc.add_core(CoreSpec::leaf("c", 0, 0, 3, 0, 10)).unwrap();
        // Each bidir adds one stimulus and one response bit per pattern.
        let v = modular_tdv(&soc, &TdvOptions::tables_3_4()).unwrap();
        assert_eq!(v.stimulus, 30);
        assert_eq!(v.response, 30);
        let m = monolithic_tdv(&soc, 10).unwrap();
        assert_eq!(m.total(), 60);
    }
}
