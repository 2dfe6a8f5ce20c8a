//! The paper's test data volume equations (Equations 1–8).
//!
//! Notation follows the paper: `I`/`O`/`B`/`S` are input/output/
//! bidirectional/scan-cell counts, `T` pattern counts. Volumes are split
//! into stimulus and response bits so that stimulus-only analyses (like
//! the worked example of Figures 1–2) fall out of the same code.

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
    /// Total bits (the quantity the paper's tables report). Saturates at
    /// `u64::MAX` instead of overflowing.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stimulus.saturating_add(self.response)
    }
}

impl std::ops::Add for TdvVolume {
    type Output = TdvVolume;
    fn add(self, rhs: TdvVolume) -> TdvVolume {
        TdvVolume {
            stimulus: self.stimulus.saturating_add(rhs.stimulus),
            response: self.response.saturating_add(rhs.response),
        }
    }
}

impl std::iter::Sum for TdvVolume {
    fn sum<I: Iterator<Item = TdvVolume>>(iter: I) -> TdvVolume {
        iter.fold(TdvVolume::default(), std::ops::Add::add)
    }
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
pub fn isocost_split(soc: &Soc, id: CoreId, options: &TdvOptions) -> (u64, u64) {
    let core = soc.core(id);
    let is_top = soc.top_level_cores().contains(&id);
    let own = match (options.chip_pin_policy, is_top) {
        (ChipPinPolicy::Exclude, true) => (0, 0),
        _ => (
            core.inputs.saturating_add(core.bidirs),
            core.outputs.saturating_add(core.bidirs),
        ),
    };
    let children = core
        .children
        .iter()
        .map(|&ch| {
            let c = soc.core(ch);
            (
                c.outputs.saturating_add(c.bidirs),
                c.inputs.saturating_add(c.bidirs),
            )
        })
        .fold((0u64, 0u64), |(s, r), (cs, cr)| {
            (s.saturating_add(cs), r.saturating_add(cr))
        });
    let scale = |v: u64| -> u64 {
        if options.functional_reuse == 0.0 {
            v
        } else {
            ((1.0 - options.functional_reuse) * v as f64).round() as u64
        }
    };
    (
        scale(own.0.saturating_add(children.0)),
        scale(own.1.saturating_add(children.1)),
    )
}

/// Total per-pattern wrapper bit cost of testing core `id` — `ISOCOST`
/// of Equation 5.
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn isocost(soc: &Soc, id: CoreId, options: &TdvOptions) -> u64 {
    let (s, r) = isocost_split(soc, id, options);
    s.saturating_add(r)
}

/// Stand-alone test data volume of core `id` (one term of Equation 4):
/// `T · (2S + ISOCOST)`, split into stimulus and response.
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn core_tdv(soc: &Soc, id: CoreId, options: &TdvOptions) -> TdvVolume {
    let core = soc.core(id);
    let (iso_s, iso_r) = isocost_split(soc, id, options);
    TdvVolume {
        stimulus: core
            .patterns
            .saturating_mul(core.scan_cells.saturating_add(iso_s)),
        response: core
            .patterns
            .saturating_mul(core.scan_cells.saturating_add(iso_r)),
    }
}

/// [`core_tdv`] with overflow detection: `None` when any intermediate
/// product or sum exceeds `u64` — the typed "this core's numbers are
/// absurd" signal the guarded analysis layer turns into a per-core
/// diagnostic instead of a panic (or a silently saturated row).
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn core_tdv_checked(soc: &Soc, id: CoreId, options: &TdvOptions) -> Option<TdvVolume> {
    let core = soc.core(id);
    let (iso_s, iso_r) = isocost_split_checked(soc, id, options)?;
    Some(TdvVolume {
        stimulus: core
            .patterns
            .checked_mul(core.scan_cells.checked_add(iso_s)?)?,
        response: core
            .patterns
            .checked_mul(core.scan_cells.checked_add(iso_r)?)?,
    })
}

/// [`isocost_split`] with overflow detection (see [`core_tdv_checked`]).
///
/// # Panics
///
/// Panics if `id` does not belong to `soc`.
#[must_use]
pub fn isocost_split_checked(soc: &Soc, id: CoreId, options: &TdvOptions) -> Option<(u64, u64)> {
    let core = soc.core(id);
    let is_top = soc.top_level_cores().contains(&id);
    let own = match (options.chip_pin_policy, is_top) {
        (ChipPinPolicy::Exclude, true) => (0, 0),
        _ => (
            core.inputs.checked_add(core.bidirs)?,
            core.outputs.checked_add(core.bidirs)?,
        ),
    };
    let mut children = (0u64, 0u64);
    for &ch in &core.children {
        let c = soc.core(ch);
        children.0 = children.0.checked_add(c.outputs.checked_add(c.bidirs)?)?;
        children.1 = children.1.checked_add(c.inputs.checked_add(c.bidirs)?)?;
    }
    let scale = |v: u64| -> u64 {
        if options.functional_reuse == 0.0 {
            v
        } else {
            ((1.0 - options.functional_reuse) * v as f64).round() as u64
        }
    };
    Some((
        scale(own.0.checked_add(children.0)?),
        scale(own.1.checked_add(children.1)?),
    ))
}

/// Modular SOC test data volume (Equation 4): the sum of every core's
/// stand-alone volume.
#[must_use]
pub fn modular_tdv(soc: &Soc, options: &TdvOptions) -> TdvVolume {
    soc.iter().map(|(id, _)| core_tdv(soc, id, options)).sum()
}

/// Monolithic test data volume (Equation 1) for a given flattened-design
/// pattern count `t_mono`:
/// `(I_chip + O_chip + 2B_chip + 2S_chip) · T_mono`.
#[must_use]
pub fn monolithic_tdv(soc: &Soc, t_mono: u64) -> TdvVolume {
    let (i, o, b) = soc.chip_pins();
    let s = soc.total_scan_cells();
    TdvVolume {
        stimulus: t_mono.saturating_mul(i.saturating_add(b).saturating_add(s)),
        response: t_mono.saturating_mul(o.saturating_add(b).saturating_add(s)),
    }
}

/// Optimistic monolithic test data volume (Equation 3): Equation 1 with
/// the Equation 2 lower bound `T_mono = max_i T_i`.
#[must_use]
pub fn monolithic_tdv_optimistic(soc: &Soc) -> TdvVolume {
    monolithic_tdv(soc, soc.max_core_patterns())
}

/// Isolation penalty (Equation 7): wrapper bits summed over all cores,
/// `Σ T_A · ISOCOST_A`.
#[must_use]
pub fn penalty(soc: &Soc, options: &TdvOptions) -> u64 {
    soc.iter()
        .map(|(id, c)| c.patterns.saturating_mul(isocost(soc, id, options)))
        .fold(0u64, u64::saturating_add)
}

/// Benefit as printed in Equation 8: `Σ (T_mono − T_A) · 2 S_A`.
///
/// Note this omits the chip-pin term, so Equation 6 as printed is not an
/// exact identity; see [`benefit_exact`].
#[must_use]
pub fn benefit_eq8(soc: &Soc, t_mono: u64) -> u64 {
    soc.iter()
        .map(|(_, c)| {
            t_mono
                .saturating_sub(c.patterns)
                .saturating_mul(2)
                .saturating_mul(c.scan_cells)
        })
        .fold(0u64, u64::saturating_add)
}

/// Exact benefit: defined so Equation 6 balances identically,
/// `benefit = TDV_mono + penalty − TDV_modular`. Expanding the
/// definitions gives `Σ (T_mono − T_A)·2S_A + (I+O+2B)_chip · T_mono`
/// (under [`ChipPinPolicy::Include`]) — Equation 8 plus the chip-pin
/// term the printed equation drops. The paper's Table 4 "benefit" column
/// matches this exact form, not Equation 8.
#[must_use]
pub fn benefit_exact(soc: &Soc, t_mono: u64, options: &TdvOptions) -> u64 {
    let mono = monolithic_tdv(soc, t_mono).total() as i128;
    let pen = penalty(soc, options) as i128;
    let modular = modular_tdv(soc, options).total() as i128;
    let b = mono + pen - modular;
    u64::try_from(b.max(0)).unwrap_or(0)
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
        let mono = monolithic_tdv_optimistic(&soc);
        assert_eq!(mono.stimulus, 20_000);
        let modular = modular_tdv(&soc, &opts);
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
            assert_eq!(core_tdv(&soc, id, &opts).total(), want, "{id}");
        }
        assert_eq!(modular_tdv(&soc, &opts).total(), 45_183);
    }

    #[test]
    fn table1_monolithic_exact() {
        let soc = itc02::soc1();
        assert_eq!(
            monolithic_tdv(&soc, itc02::SOC1_MEASURED_TMONO).total(),
            129_816
        );
        assert_eq!(monolithic_tdv_optimistic(&soc).total(), 51_085);
    }

    #[test]
    fn table2_rows_exact() {
        // Table 2 per-core TDVs: 8,245 / 107,848 / 673,480 / 554,260 / 752.
        let soc = itc02::soc2();
        let opts = TdvOptions::tables_1_2();
        let expect = [8_245u64, 107_848, 673_480, 554_260, 752];
        for ((id, _), want) in soc.iter().zip(expect) {
            assert_eq!(core_tdv(&soc, id, &opts).total(), want, "{id}");
        }
        assert_eq!(modular_tdv(&soc, &opts).total(), 1_344_585);
        assert_eq!(
            monolithic_tdv(&soc, itc02::SOC2_MEASURED_TMONO).total(),
            2_986_200
        );
        assert_eq!(monolithic_tdv_optimistic(&soc).total(), 1_428_320);
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
            assert_eq!(core_tdv(&soc, id, &opts).total(), *want, "core{k}");
        }
        assert_eq!(modular_tdv(&soc, &opts).total(), itc02::P34392_TDV_MODULAR);
    }

    #[test]
    fn table4_p34392_aggregates() {
        let soc = itc02::p34392();
        let opts = TdvOptions::tables_3_4();
        let row = itc02::table4_row("p34392").unwrap();
        assert_eq!(monolithic_tdv_optimistic(&soc).total(), row.tdv_opt_mono);
        // The paper's penalty column for p34392 was evidently computed
        // with core 10's O=207 (the Table 3 typo); our self-consistent
        // O=107 lands 45,602 lower (0.9%). Benefit inherits the same
        // delta through Equation 6.
        let pen = penalty(&soc, &opts);
        assert!(
            ((pen as i64 - row.penalty as i64).unsigned_abs() as f64) / (row.penalty as f64) < 0.01,
            "penalty {pen} vs paper {}",
            row.penalty
        );
        let ben = benefit_exact(&soc, soc.max_core_patterns(), &opts);
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
                let lhs = modular_tdv(&soc, &opts).total() as i128;
                let rhs = monolithic_tdv(&soc, t_mono).total() as i128
                    + penalty(&soc, &opts) as i128
                    - benefit_exact(&soc, t_mono, &opts) as i128;
                assert_eq!(lhs, rhs, "{}", soc.name());
            }
        }
    }

    #[test]
    fn eq8_vs_exact_differ_by_chip_term() {
        let soc = itc02::p34392();
        let opts = TdvOptions::tables_3_4();
        let t = soc.max_core_patterns();
        let (i, o, b) = soc.chip_pins();
        let exact = benefit_exact(&soc, t, &opts);
        let eq8 = benefit_eq8(&soc, t);
        assert_eq!(exact, eq8 + (i + o + 2 * b) * t);
    }

    #[test]
    fn isocost_policies() {
        let soc = itc02::soc1();
        let top = soc.find("top").unwrap();
        // Exclude: only child terminals: Σ(I+O) = 58+39+3·22 = 163.
        assert_eq!(isocost(&soc, top, &TdvOptions::tables_1_2()), 163);
        // Include: + own pins 51+10.
        assert_eq!(isocost(&soc, top, &TdvOptions::tables_3_4()), 224);
        // Leaf cores unaffected by policy.
        let leaf = soc.find("core1_s713").unwrap();
        assert_eq!(isocost(&soc, leaf, &TdvOptions::tables_1_2()), 58);
        assert_eq!(isocost(&soc, leaf, &TdvOptions::tables_3_4()), 58);
    }

    #[test]
    fn volumes_add_and_sum() {
        let a = TdvVolume {
            stimulus: 1,
            response: 2,
        };
        let b = TdvVolume {
            stimulus: 10,
            response: 20,
        };
        assert_eq!((a + b).total(), 33);
        let s: TdvVolume = [a, b].into_iter().sum();
        assert_eq!(s.total(), 33);
    }

    #[test]
    fn functional_reuse_shrinks_penalty() {
        let soc = itc02::soc1();
        let t = itc02::SOC1_MEASURED_TMONO;
        let dedicated = TdvOptions::tables_1_2();
        let half = dedicated.with_functional_reuse(0.5);
        let full = dedicated.with_functional_reuse(1.0);
        assert!(penalty(&soc, &half) < penalty(&soc, &dedicated));
        assert_eq!(penalty(&soc, &full), 0, "full reuse erases the penalty");
        // With zero ISOCOST, modular TDV is the pure scan payload and the
        // exact benefit equals the monolithic surplus.
        let modular = modular_tdv(&soc, &full).total();
        let floor: u64 = soc.iter().map(|(_, c)| c.patterns * 2 * c.scan_cells).sum();
        assert_eq!(modular, floor);
        assert_eq!(
            benefit_exact(&soc, t, &full),
            monolithic_tdv(&soc, t).total() - modular
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
            flat_soc.add_core(soc.flattened_spec(t_mono)).unwrap();
            let via_modular = modular_tdv(&flat_soc, &TdvOptions::tables_3_4());
            let via_eq1 = monolithic_tdv(&soc, t_mono);
            assert_eq!(via_modular, via_eq1, "{}", soc.name());
        }
    }

    #[test]
    fn absurd_counts_saturate_instead_of_panicking() {
        // A corrupted .soc can carry counts near u64::MAX; the raw
        // equations must saturate (never overflow-panic in debug builds)
        // and the checked variants must flag the overflow.
        let mut soc = Soc::new("huge");
        soc.add_core(CoreSpec::leaf("x", 3, 2, 1, u64::MAX, u64::MAX))
            .unwrap();
        let opts = TdvOptions::tables_3_4();
        let id = soc.find("x").unwrap();
        assert_eq!(core_tdv(&soc, id, &opts).total(), u64::MAX);
        assert_eq!(modular_tdv(&soc, &opts).total(), u64::MAX);
        assert_eq!(monolithic_tdv(&soc, u64::MAX).total(), u64::MAX);
        assert_eq!(penalty(&soc, &opts), u64::MAX);
        let _ = benefit_eq8(&soc, u64::MAX);
        let _ = benefit_exact(&soc, u64::MAX, &opts);
        assert_eq!(core_tdv_checked(&soc, id, &opts), None);
    }

    #[test]
    fn checked_matches_raw_in_normal_range() {
        for soc in [itc02::soc1(), itc02::soc2(), itc02::p34392()] {
            for opts in [TdvOptions::tables_1_2(), TdvOptions::tables_3_4()] {
                for (id, _) in soc.iter() {
                    assert_eq!(
                        core_tdv_checked(&soc, id, &opts),
                        Some(core_tdv(&soc, id, &opts)),
                        "{} {id}",
                        soc.name()
                    );
                    assert_eq!(
                        isocost_split_checked(&soc, id, &opts),
                        Some(isocost_split(&soc, id, &opts))
                    );
                }
            }
        }
    }

    #[test]
    fn bidirs_count_twice() {
        let mut soc = Soc::new("b");
        soc.add_core(CoreSpec::leaf("c", 0, 0, 3, 0, 10)).unwrap();
        // Each bidir adds one stimulus and one response bit per pattern.
        let v = modular_tdv(&soc, &TdvOptions::tables_3_4());
        assert_eq!(v.stimulus, 30);
        assert_eq!(v.response, 30);
        let m = monolithic_tdv(&soc, 10);
        assert_eq!(m.total(), 60);
    }
}
