//! Core generation profiles, including ISCAS'89 lookalikes.

/// A generation profile: the interface is exact, the internal cone
/// structure is statistical (driven by the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProfile {
    /// Circuit name.
    pub name: String,
    /// Exact number of primary inputs.
    pub inputs: usize,
    /// Exact number of primary outputs.
    pub outputs: usize,
    /// Exact number of scan flip-flops.
    pub scan_cells: usize,
    /// Minimum cone support width (clamped to the available sources).
    pub min_cone_width: usize,
    /// Maximum cone support width (clamped to the available sources).
    pub max_cone_width: usize,
    /// Fraction of 2-input gates drawn from the XOR family; XOR-rich
    /// cones resist pattern merging and incidental detection, raising
    /// pattern counts.
    pub xor_fraction: f64,
    /// Probability of inserting an inverter between tree levels.
    pub inverter_rate: f64,
    /// Support locality in `[0, 1]`: 0 samples each cone's support from a
    /// narrow window of the source pool (nearly disjoint cones, Figure
    /// 1(a) of the paper); 1 samples uniformly from all sources (heavy
    /// overlap, Figure 1(b)).
    pub overlap: f64,
    /// Spread of per-cone difficulty in `[0, 1]`: the fraction of cones
    /// that are *hard* (max width, extra XOR mixing). Differences in this
    /// knob across cores are what create the pattern-count variation the
    /// paper's benefit hinges on.
    pub hard_cone_fraction: f64,
    /// RNG seed; two generations with equal profiles are identical.
    pub seed: u64,
}

impl CoreProfile {
    /// A balanced default profile with the given exact interface.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        scan_cells: usize,
    ) -> CoreProfile {
        CoreProfile {
            name: name.into(),
            inputs,
            outputs,
            scan_cells,
            min_cone_width: 3,
            max_cone_width: 12,
            xor_fraction: 0.15,
            inverter_rate: 0.25,
            overlap: 0.35,
            hard_cone_fraction: 0.2,
            seed: 1,
        }
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> CoreProfile {
        self.seed = seed;
        self
    }

    /// Number of logic cones the generated circuit will have
    /// (one per output plus one per scan cell).
    #[must_use]
    pub fn cone_count(&self) -> usize {
        self.outputs + self.scan_cells
    }

    /// Number of controllable sources (inputs plus scan-cell outputs).
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.inputs + self.scan_cells
    }
}

/// ISCAS'89 lookalike profiles.
///
/// Interface counts (I, O, S) are taken verbatim from Tables 1 and 2 of
/// the paper; the cone-structure knobs are calibrated so that the
/// workspace ATPG produces pattern counts in the published ballpark
/// (tens for the small cores, hundreds for the large ones) with the wide
/// cross-core variation the analysis depends on.
pub mod iscas {
    use super::CoreProfile;

    /// s713 lookalike: I=35, O=23, S=19 (paper: 52 patterns).
    #[must_use]
    pub fn s713(seed: u64) -> CoreProfile {
        CoreProfile {
            min_cone_width: 3,
            max_cone_width: 7,
            xor_fraction: 0.05,
            overlap: 0.40,
            hard_cone_fraction: 0.02,
            ..CoreProfile::new("s713", 35, 23, 19).with_seed(seed)
        }
    }

    /// s953 lookalike: I=16, O=23, S=29 (paper: 85 patterns).
    #[must_use]
    pub fn s953(seed: u64) -> CoreProfile {
        CoreProfile {
            min_cone_width: 5,
            max_cone_width: 14,
            xor_fraction: 0.32,
            overlap: 0.55,
            hard_cone_fraction: 0.40,
            ..CoreProfile::new("s953", 16, 23, 29).with_seed(seed)
        }
    }

    /// s1423 lookalike: I=17, O=5, S=74 (paper: 62 patterns).
    #[must_use]
    pub fn s1423(seed: u64) -> CoreProfile {
        CoreProfile {
            min_cone_width: 2,
            max_cone_width: 6,
            xor_fraction: 0.03,
            overlap: 0.35,
            hard_cone_fraction: 0.02,
            ..CoreProfile::new("s1423", 17, 5, 74).with_seed(seed)
        }
    }

    /// s5378 lookalike: I=35, O=49, S=179 (paper: 244 patterns).
    #[must_use]
    pub fn s5378(seed: u64) -> CoreProfile {
        CoreProfile {
            min_cone_width: 5,
            max_cone_width: 20,
            xor_fraction: 0.35,
            overlap: 0.45,
            hard_cone_fraction: 0.40,
            ..CoreProfile::new("s5378", 35, 49, 179).with_seed(seed)
        }
    }

    /// s13207 lookalike: I=31, O=121, S=669 (paper: 452 patterns).
    #[must_use]
    pub fn s13207(seed: u64) -> CoreProfile {
        CoreProfile {
            min_cone_width: 6,
            max_cone_width: 24,
            xor_fraction: 0.38,
            overlap: 0.40,
            hard_cone_fraction: 0.45,
            ..CoreProfile::new("s13207", 31, 121, 669).with_seed(seed)
        }
    }

    /// s15850 lookalike: I=14, O=87, S=597 (paper: 428 patterns).
    #[must_use]
    pub fn s15850(seed: u64) -> CoreProfile {
        CoreProfile {
            min_cone_width: 6,
            max_cone_width: 24,
            xor_fraction: 0.36,
            overlap: 0.42,
            hard_cone_fraction: 0.45,
            ..CoreProfile::new("s15850", 14, 87, 597).with_seed(seed)
        }
    }
}

/// The one ISCAS'89 circuit small enough to embed verbatim: s27
/// (4 inputs, 1 output, 3 flip-flops, 10 gates). Useful as a
/// genuine-netlist anchor for validating the ATPG against a circuit
/// whose structure is not synthetic.
pub const S27_BENCH: &str = "\
# s27 (ISCAS'89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

/// Parse the embedded s27 netlist.
///
/// # Panics
///
/// Never panics; the embedded text is valid.
#[must_use]
pub fn s27() -> modsoc_netlist::Circuit {
    modsoc_netlist::bench_format::parse_bench("s27", S27_BENCH)
        .expect("embedded s27 netlist is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_structure() {
        let c = s27();
        assert_eq!(c.input_count(), 4);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.dff_count(), 3);
        assert_eq!(c.gate_count(), 10);
        c.validate().unwrap();
    }

    #[test]
    fn s27_fully_testable() {
        use modsoc_atpg::{Atpg, AtpgOptions};
        let r = Atpg::new(AtpgOptions::default()).run(&s27()).unwrap();
        // s27's full-scan stuck-at fault set is fully testable.
        assert!(
            (r.fault_coverage() - 1.0).abs() < 1e-12,
            "{}",
            r.fault_coverage()
        );
        assert!(r.pattern_count() <= 12, "{} patterns", r.pattern_count());
    }

    #[test]
    fn interface_counts_match_paper() {
        let p = iscas::s713(1);
        assert_eq!((p.inputs, p.outputs, p.scan_cells), (35, 23, 19));
        let p = iscas::s953(1);
        assert_eq!((p.inputs, p.outputs, p.scan_cells), (16, 23, 29));
        let p = iscas::s1423(1);
        assert_eq!((p.inputs, p.outputs, p.scan_cells), (17, 5, 74));
        let p = iscas::s5378(1);
        assert_eq!((p.inputs, p.outputs, p.scan_cells), (35, 49, 179));
        let p = iscas::s13207(1);
        assert_eq!((p.inputs, p.outputs, p.scan_cells), (31, 121, 669));
        let p = iscas::s15850(1);
        assert_eq!((p.inputs, p.outputs, p.scan_cells), (14, 87, 597));
    }

    #[test]
    fn derived_counts() {
        let p = CoreProfile::new("x", 10, 4, 6);
        assert_eq!(p.cone_count(), 10);
        assert_eq!(p.source_count(), 16);
        assert_eq!(p.with_seed(9).seed, 9);
    }
}
