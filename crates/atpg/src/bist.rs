//! Logic BIST: LFSR pattern generation and MISR response compaction.
//!
//! The paper's reference architecture (Zorian et al., its ref 1) allows
//! each module's test source/sink to be *on-chip* — an LFSR feeding the
//! scan chains and a MISR compacting responses — instead of ATE-stored
//! patterns. BIST trades external test data volume (zero stimulus bits
//! from the tester) against pattern count and coverage; this module makes
//! that trade measurable with the same fault-simulation machinery the
//! deterministic flow uses.

use modsoc_metrics::NullSink;
use modsoc_netlist::Circuit;

use crate::error::AtpgError;
use crate::fault::Fault;
use crate::fault_sim::FaultSimulator;

/// A Fibonacci LFSR with a programmable feedback polynomial.
///
/// Bit 0 is the output bit; `taps` holds the exponents of the feedback
/// polynomial (e.g. `x^16 + x^14 + x^13 + x^11 + 1` is
/// `Lfsr::new(16, &[16, 14, 13, 11], seed)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    width: u32,
    tap_mask: u64,
    state: u64,
}

impl Lfsr {
    /// A maximal-length default: the 32-bit polynomial
    /// `x^32 + x^22 + x^2 + x^1 + 1`.
    #[must_use]
    pub fn standard(seed: u64) -> Lfsr {
        Lfsr::new(32, &[32, 22, 2, 1], seed)
    }

    /// Build an LFSR with the given width (1..=64) and tap exponents.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64` or a tap exceeds the width.
    #[must_use]
    pub fn new(width: u32, taps: &[u32], seed: u64) -> Lfsr {
        assert!((1..=64).contains(&width), "lfsr width must be 1..=64");
        let mut tap_mask = 0u64;
        for &t in taps {
            assert!(t >= 1 && t <= width, "tap {t} outside 1..={width}");
            tap_mask |= 1 << (t - 1);
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        let mut state = seed & mask;
        if state == 0 {
            state = 1; // the all-zero state is the LFSR's fixed point
        }
        Lfsr {
            width,
            tap_mask,
            state,
        }
    }

    /// Advance one cycle (Galois form) and return the output bit.
    pub fn step(&mut self) -> bool {
        let out = self.state & 1 == 1;
        self.state >>= 1;
        if out {
            self.state ^= self.tap_mask;
        }
        out
    }

    /// Produce the next `n`-bit test vector (one step per bit).
    pub fn next_pattern(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.step()).collect()
    }

    /// The current internal state.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// A multiple-input signature register: compacts per-pattern responses
/// into one signature word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    width: u32,
    tap_mask: u64,
    state: u64,
}

impl Misr {
    /// A 32-bit MISR with the same polynomial as [`Lfsr::standard`].
    #[must_use]
    pub fn standard() -> Misr {
        Misr::new(32, &[32, 22, 2, 1])
    }

    /// Build a MISR (same parameter rules as [`Lfsr::new`]).
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Lfsr::new`].
    #[must_use]
    pub fn new(width: u32, taps: &[u32]) -> Misr {
        let lfsr = Lfsr::new(width, taps, 0);
        Misr {
            width,
            tap_mask: lfsr.tap_mask,
            state: 0,
        }
    }

    /// Absorb one response slice (e.g. one pattern's primary outputs and
    /// scan-out bits): a Galois LFSR step per bit with the bit injected
    /// at the top of the register.
    pub fn absorb(&mut self, response: &[bool]) {
        for &bit in response {
            let out = self.state & 1 == 1;
            self.state >>= 1;
            if out {
                self.state ^= self.tap_mask;
            }
            if bit {
                self.state ^= 1 << (self.width - 1);
            }
        }
    }

    /// The accumulated signature.
    #[must_use]
    pub fn signature(&self) -> u64 {
        self.state
    }
}

/// Result of a BIST coverage evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BistOutcome {
    /// Patterns applied.
    pub patterns: usize,
    /// Fault coverage over the supplied fault list.
    pub coverage: f64,
    /// The good-circuit MISR signature (what the comparator would be
    /// programmed with).
    pub good_signature: u64,
    /// Coverage after each 64-pattern block (the coverage ramp used to
    /// pick a pattern budget).
    pub ramp: Vec<f64>,
}

/// Evaluate pseudo-random BIST on a combinational (test-model) circuit:
/// run `pattern_count` LFSR patterns, fault-simulate against `faults`,
/// and compute the good signature.
///
/// # Example
///
/// ```
/// use modsoc_atpg::bist::{evaluate_bist, Lfsr};
/// use modsoc_atpg::collapse::collapse_faults;
/// use modsoc_netlist::bench_format::parse_bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = parse_bench("x", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")?;
/// let faults = collapse_faults(&circuit).representatives().to_vec();
/// let outcome = evaluate_bist(&circuit, &faults, Lfsr::standard(1), 64)?;
/// assert!((outcome.coverage - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates fault-simulator errors.
pub fn evaluate_bist(
    circuit: &Circuit,
    faults: &[Fault],
    lfsr: Lfsr,
    pattern_count: usize,
) -> Result<BistOutcome, AtpgError> {
    let mut fsim = FaultSimulator::new(circuit)?;
    Ok(bist_pass(&mut fsim, circuit, faults, lfsr, pattern_count)?.outcome)
}

/// What one BIST fault-simulation pass finds.
struct BistPass {
    outcome: BistOutcome,
    /// Each fault's detection flag.
    detected: Vec<bool>,
    /// The patterns through the first 64-pattern chunk that starts with
    /// every fault already detected, or all of them when none does: the
    /// count the hybrid flow reports as applied.
    applied: usize,
}

/// [`evaluate_bist`] on `fsim`: the LFSR stream in 64-pattern chunks.
/// Each chunk's good values are computed once; the faults still
/// undetected are swept against them (so the ramp has per-64
/// granularity), and their outputs are absorbed into the good-machine
/// MISR.
fn bist_pass(
    fsim: &mut FaultSimulator<'_>,
    circuit: &Circuit,
    faults: &[Fault],
    mut lfsr: Lfsr,
    pattern_count: usize,
) -> Result<BistPass, AtpgError> {
    let width = circuit.input_count();
    let mut detected = vec![false; faults.len()];
    let mut undetected: Vec<usize> = (0..faults.len()).collect();
    let mut misr = Misr::standard();
    let mut ramp = Vec::new();
    let mut generated = 0usize;
    let mut applied = None;
    while generated < pattern_count {
        let chunk: Vec<Vec<bool>> = (0..64.min(pattern_count - generated))
            .map(|_| lfsr.next_pattern(width))
            .collect();
        generated += chunk.len();
        let (good, n) = fsim.good_values(&chunk)?;
        if undetected.is_empty() {
            applied.get_or_insert(generated);
        } else {
            let targets: Vec<Fault> = undetected.iter().map(|&i| faults[i]).collect();
            let (masks, _) = fsim.mask_sweep(&good, n, &targets, None, 1, &NullSink);
            for (&i, mask) in undetected.iter().zip(masks) {
                detected[i] = mask != 0;
            }
            undetected.retain(|&i| !detected[i]);
        }
        ramp.push((faults.len() - undetected.len()) as f64 / faults.len().max(1) as f64);
        // Good-machine signature over primary outputs, per pattern.
        for slot in 0..chunk.len() {
            let response: Vec<bool> = circuit
                .outputs()
                .iter()
                .map(|o| good[o.index()] & (1 << slot) != 0)
                .collect();
            misr.absorb(&response);
        }
    }
    let coverage = ramp.last().copied().unwrap_or(0.0);
    Ok(BistPass {
        outcome: BistOutcome {
            patterns: generated,
            coverage,
            good_signature: misr.signature(),
            ramp,
        },
        detected,
        applied: applied.unwrap_or(generated),
    })
}

/// Outcome of a hybrid BIST + deterministic top-up flow.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// The BIST phase's result.
    pub bist: BistOutcome,
    /// Deterministic top-up patterns (external data) for the faults BIST
    /// missed.
    pub top_up: crate::pattern::TestSet,
    /// Combined fault coverage.
    pub coverage: f64,
    /// External stimulus bits of the top-up set (the only tester-stored
    /// stimulus in the hybrid flow).
    pub external_stimulus_bits: u64,
}

/// Run the hybrid flow on a combinational (test-model) circuit:
/// `bist_patterns` LFSR patterns first, then PODEM top-up for whatever
/// remains undetected.
///
/// This is the industrial compromise the paper's TDV analysis applies
/// to: the *external* data volume is only the top-up set, and its size
/// still scales with the per-core pattern counts that drive Equations
/// 1–8.
///
/// The whole flow is timed into `sink` as one `bist` phase, with the
/// applied-BIST and top-up pattern counts on the BIST counters.
///
/// # Errors
///
/// Propagates fault-simulation and test-generation errors.
pub fn run_hybrid(
    circuit: &Circuit,
    lfsr: Lfsr,
    bist_patterns: usize,
    backtrack_limit: u32,
    sink: &dyn modsoc_metrics::MetricsSink,
) -> Result<HybridOutcome, AtpgError> {
    use crate::pattern::TestSet;
    use crate::podem::{Podem, PodemOutcome};
    use modsoc_metrics::{Counter, Phase, PhaseTimer};

    let timer = PhaseTimer::start(sink, Phase::Bist);

    let sindex = std::sync::Arc::new(modsoc_netlist::StructuralIndex::build(circuit)?);
    let reps =
        crate::collapse::collapse_faults_metered(circuit, &sindex, &modsoc_metrics::NullSink)
            .representatives()
            .to_vec();
    let width = circuit.input_count();
    let mut fsim = FaultSimulator::with_index(circuit, std::sync::Arc::clone(&sindex))?;
    let BistPass {
        outcome: bist,
        mut detected,
        applied,
    } = bist_pass(&mut fsim, circuit, &reps, lfsr, bist_patterns)?;

    // Deterministic top-up for the leftovers, with fault dropping.
    let mut podem = Podem::with_index(circuit, sindex, backtrack_limit)?;
    let mut top_up = TestSet::new(width);
    for i in 0..reps.len() {
        if detected[i] {
            continue;
        }
        if let PodemOutcome::Test(cube) = podem.generate(reps[i])? {
            detected[i] = true;
            let filled = vec![cube.fill_keyed(crate::pattern::FillStrategy::default())];
            let undetected: Vec<usize> = (0..reps.len()).filter(|&j| !detected[j]).collect();
            let targets: Vec<crate::fault::Fault> = undetected.iter().map(|&j| reps[j]).collect();
            for (k, m) in fsim
                .detection_masks(&filled, &targets)?
                .into_iter()
                .enumerate()
            {
                if m != 0 {
                    detected[undetected[k]] = true;
                }
            }
            top_up.push(cube);
        }
    }

    let coverage = detected.iter().filter(|&&d| d).count() as f64 / reps.len().max(1) as f64;
    let external_stimulus_bits = top_up.stimulus_bits();
    drop(timer);
    sink.add(Counter::BistPatterns, applied as u64);
    sink.add(Counter::BistTopUpPatterns, top_up.len() as u64);
    Ok(HybridOutcome {
        bist,
        top_up,
        coverage,
        external_stimulus_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse_faults;
    use modsoc_netlist::bench_format::parse_bench;

    fn c17() -> Circuit {
        parse_bench(
            "c17",
            "
INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)
OUTPUT(g22)\nOUTPUT(g23)
g10 = NAND(g1, g3)
g11 = NAND(g3, g6)
g16 = NAND(g2, g11)
g19 = NAND(g11, g7)
g22 = NAND(g10, g16)
g23 = NAND(g16, g19)
",
        )
        .unwrap()
    }

    /// The outcome (per-64 ramp, coverage, signature) and the hybrid
    /// flow's `BistPatterns` counter across chunk and block tails, pinned
    /// to recorded values. Each ramp is pinned as detected-fault counts
    /// over the fault count, which is how it is computed. `BistPatterns`
    /// counts the patterns through the first 64-pattern chunk that
    /// starts with every fault already detected, or all of them.
    #[test]
    fn bist_outcomes_match_recorded_pins() {
        use modsoc_metrics::{Counter, RecordingSink};
        type Pin = (usize, Vec<usize>, u64, u64);
        let core =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(11)).unwrap();
        let generated = core.to_test_model().unwrap().circuit;
        let c17_pins: Vec<Pin> = vec![
            (1, vec![4], 0xc000_0000, 1),
            (64, vec![22], 0xe9d8_eb66, 64),
            (65, vec![22, 22], 0x7a56_3ada, 65),
            (512, vec![22; 8], 0xdf16_e6e9, 128),
            (513, vec![22; 9], 0x37f5_b9b8, 128),
            (1100, vec![22; 18], 0x6556_3af1, 128),
        ];
        let ramp = [478, 491, 495, 497, 498, 500, 500, 500, 500, 500];
        let generated_pins: Vec<Pin> = vec![
            (1, vec![102], 0xfb44_782a, 1),
            (64, vec![478], 0x179d_fb84, 64),
            (65, vec![478, 478], 0x0eb7_29a3, 65),
            (512, ramp[..8].to_vec(), 0x66ce_e6d6, 512),
            (513, ramp[..9].to_vec(), 0xc134_1034, 513),
            (1100, [&ramp[..], &[501; 8]].concat(), 0xd96e_1d7a, 768),
        ];
        for (circuit, total, pins) in [(c17(), 22, c17_pins), (generated, 501, generated_pins)] {
            let faults = collapse_faults(&circuit).representatives().to_vec();
            assert_eq!(faults.len(), total, "{}", circuit.name());
            for (count, detected, signature, applied) in pins {
                let what = format!("{} count={count}", circuit.name());
                let ramp: Vec<f64> = detected.iter().map(|&d| d as f64 / total as f64).collect();
                let outcome = evaluate_bist(&circuit, &faults, Lfsr::standard(5), count).unwrap();
                assert_eq!(
                    outcome,
                    BistOutcome {
                        patterns: count,
                        coverage: ramp[ramp.len() - 1],
                        good_signature: signature,
                        ramp,
                    },
                    "{what}"
                );

                let sink = RecordingSink::new();
                run_hybrid(&circuit, Lfsr::standard(5), count, 200, &sink).unwrap();
                assert_eq!(
                    sink.snapshot().counter(Counter::BistPatterns),
                    applied,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn lfsr_is_maximal_enough() {
        // A 16-bit maximal polynomial must not repeat within 1000 steps.
        let mut l = Lfsr::new(16, &[16, 14, 13, 11], 0xACE1);
        let start = l.state();
        for step in 1..1000u32 {
            l.step();
            assert_ne!(l.state(), start, "period too short at {step}");
        }
    }

    #[test]
    fn lfsr_zero_seed_coerced() {
        let mut l = Lfsr::new(8, &[8, 6, 5, 4], 0);
        assert_ne!(l.state(), 0);
        l.step();
        assert_ne!(l.state(), 0);
    }

    #[test]
    fn lfsr_deterministic() {
        let mut a = Lfsr::standard(42);
        let mut b = Lfsr::standard(42);
        assert_eq!(a.next_pattern(100), b.next_pattern(100));
    }

    #[test]
    fn misr_distinguishes_responses() {
        let mut good = Misr::standard();
        let mut bad = Misr::standard();
        for k in 0..50u32 {
            let resp: Vec<bool> = (0..8).map(|i| (k >> (i % 4)) & 1 == 1).collect();
            good.absorb(&resp);
            let mut flipped = resp.clone();
            if k == 25 {
                flipped[3] = !flipped[3]; // single-bit error once
            }
            bad.absorb(&flipped);
        }
        assert_ne!(good.signature(), bad.signature());
    }

    #[test]
    fn misr_same_stream_same_signature() {
        let mut a = Misr::standard();
        let mut b = Misr::standard();
        for k in 0..20u32 {
            let resp: Vec<bool> = (0..5).map(|i| (k >> i) & 1 == 1).collect();
            a.absorb(&resp);
            b.absorb(&resp);
        }
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn bist_coverage_ramps_on_c17() {
        let c = c17();
        let faults = collapse_faults(&c).representatives().to_vec();
        let outcome = evaluate_bist(&c, &faults, Lfsr::standard(7), 256).unwrap();
        assert_eq!(outcome.patterns, 256);
        assert!(
            (outcome.coverage - 1.0).abs() < 1e-12,
            "c17 is random-testable: {}",
            outcome.coverage
        );
        // Ramp is monotone nondecreasing.
        for pair in outcome.ramp.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }

    #[test]
    fn bist_signature_reproducible() {
        let c = parse_bench("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let faults = collapse_faults(&c).representatives().to_vec();
        let a = evaluate_bist(&c, &faults, Lfsr::standard(1), 128).unwrap();
        let b = evaluate_bist(&c, &faults, Lfsr::standard(1), 128).unwrap();
        assert_eq!(a.good_signature, b.good_signature);
        let other_seed = evaluate_bist(&c, &faults, Lfsr::standard(2), 128).unwrap();
        assert_ne!(a.good_signature, other_seed.good_signature);
    }

    #[test]
    fn hybrid_reaches_full_coverage_with_less_external_data() {
        // A random-resistant-ish circuit: the hybrid flow should reach
        // the deterministic flow's coverage with fewer external bits.
        let src = "
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)
OUTPUT(y)\nOUTPUT(z)
t1 = AND(a, b, c)
t2 = AND(d, e, f)
t3 = AND(t1, t2)
t4 = NOR(a, d)
y = OR(t3, t4)
z = XOR(t1, t2)
";
        let c = parse_bench("rr", src).unwrap();
        let full_det = crate::engine::Atpg::new(crate::engine::AtpgOptions::deterministic_only())
            .run(&c)
            .unwrap();
        let hybrid =
            run_hybrid(&c, Lfsr::standard(3), 128, 200, &modsoc_metrics::NullSink).unwrap();
        assert!(
            (hybrid.coverage - full_det.fault_coverage()).abs() < 1e-9,
            "hybrid {} vs det {}",
            hybrid.coverage,
            full_det.fault_coverage()
        );
        let det_bits = full_det.pattern_count() as u64 * c.input_count() as u64;
        assert!(
            hybrid.external_stimulus_bits <= det_bits,
            "hybrid external {} vs det {det_bits}",
            hybrid.external_stimulus_bits
        );
    }

    #[test]
    fn hybrid_with_zero_bist_equals_pure_deterministic_coverage() {
        let c = c17();
        let hybrid = run_hybrid(&c, Lfsr::standard(1), 0, 200, &modsoc_metrics::NullSink).unwrap();
        assert!((hybrid.coverage - 1.0).abs() < 1e-12);
        assert!(!hybrid.top_up.is_empty());
        assert_eq!(hybrid.bist.patterns, 0);
    }

    #[test]
    #[should_panic(expected = "lfsr width")]
    fn bad_width_panics() {
        let _ = Lfsr::new(0, &[], 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_tap_panics() {
        let _ = Lfsr::new(8, &[9], 1);
    }
}
