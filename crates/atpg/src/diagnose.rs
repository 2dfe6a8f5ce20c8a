//! Cause-effect fault diagnosis.
//!
//! Given the observed pass/fail *syndrome* of a device under test (which
//! patterns failed, and on which outputs), rank the stuck-at fault
//! candidates whose simulated behaviour best explains it. This is the
//! classic dictionary-free diagnosis loop: re-simulate every candidate
//! fault against the applied patterns and score the match.

use modsoc_netlist::Circuit;

use crate::error::AtpgError;
use crate::fault::Fault;
use crate::fault_sim::{active_mask, FaultSimulator};

/// The observed behaviour of one applied pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedPattern {
    /// The fully-specified input vector that was applied.
    pub inputs: Vec<bool>,
    /// Which primary outputs mismatched the expected (good) response.
    /// Empty means the pattern passed.
    pub failing_outputs: Vec<usize>,
}

/// A ranked diagnosis candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate fault.
    pub fault: Fault,
    /// Patterns where prediction and observation both fail (TFSF).
    pub matched_failures: usize,
    /// Observed failures the candidate does not predict (TFSP misses).
    pub missed_failures: usize,
    /// Predicted failures that did not occur (TPSF false alarms).
    pub false_alarms: usize,
}

impl Candidate {
    /// Match score in `[0, 1]`: Jaccard index of predicted vs observed
    /// failing-pattern sets (1.0 = perfect explanation).
    #[must_use]
    pub fn score(&self) -> f64 {
        let union = self.matched_failures + self.missed_failures + self.false_alarms;
        if union == 0 {
            return 0.0;
        }
        self.matched_failures as f64 / union as f64
    }

    /// Whether the candidate exactly explains the syndrome.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.matched_failures > 0 && self.missed_failures == 0 && self.false_alarms == 0
    }
}

/// Diagnose a failing device: rank `candidates` by how well each
/// explains the observed syndrome.
///
/// Pattern-level granularity is used for matching (a candidate "predicts
/// a failure" when any output mismatches); output-level refinement
/// breaks ties via [`diagnose_with_outputs`].
///
/// # Example
///
/// ```
/// use modsoc_atpg::collapse::collapse_faults;
/// use modsoc_atpg::diagnose::{diagnose, rank_of, syndrome_of_fault};
/// use modsoc_netlist::bench_format::parse_bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = parse_bench("x", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let candidates = collapse_faults(&circuit).representatives().to_vec();
/// let patterns: Vec<Vec<bool>> = (0..4)
///     .map(|k| vec![k & 1 == 1, k & 2 == 2])
///     .collect();
/// // "Manufacture" a defect and read back its tester syndrome.
/// let secret = candidates[0];
/// let syndrome = syndrome_of_fault(&circuit, &patterns, secret)?;
/// let ranked = diagnose(&circuit, &syndrome, &candidates)?;
/// // The true fault ties the top score.
/// let r = rank_of(&ranked, secret).expect("candidate present");
/// assert_eq!(ranked[r].score(), ranked[0].score());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates simulator construction and pattern-width errors.
pub fn diagnose(
    circuit: &Circuit,
    observations: &[ObservedPattern],
    candidates: &[Fault],
) -> Result<Vec<Candidate>, AtpgError> {
    let mut fsim = FaultSimulator::new(circuit)?;
    let observed_fail: Vec<bool> = observations
        .iter()
        .map(|o| !o.failing_outputs.is_empty())
        .collect();

    // Predicted failing-pattern masks per candidate.
    let mut predicted: Vec<Vec<bool>> = vec![vec![false; observations.len()]; candidates.len()];
    let patterns: Vec<Vec<bool>> = observations.iter().map(|o| o.inputs.clone()).collect();
    fsim.for_each_detection(&patterns, candidates, |ci, p| predicted[ci][p] = true)?;

    let mut out: Vec<Candidate> = candidates
        .iter()
        .zip(predicted)
        .map(|(&fault, pred)| {
            let mut matched = 0;
            let mut missed = 0;
            let mut alarms = 0;
            for (p, &obs) in pred.iter().zip(&observed_fail) {
                match (*p, obs) {
                    (true, true) => matched += 1,
                    (false, true) => missed += 1,
                    (true, false) => alarms += 1,
                    (false, false) => {}
                }
            }
            Candidate {
                fault,
                matched_failures: matched,
                missed_failures: missed,
                false_alarms: alarms,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.score()
            .total_cmp(&a.score())
            .then_with(|| a.fault.cmp(&b.fault))
    });
    Ok(out)
}

/// Build the observed syndrome for a device whose behaviour is the
/// circuit with `actual_fault` injected — a testbench helper for
/// diagnosis experiments and tests.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn syndrome_of_fault(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    actual_fault: Fault,
) -> Result<Vec<ObservedPattern>, AtpgError> {
    let mut fsim = FaultSimulator::new(circuit)?;
    let mut observations = Vec::with_capacity(patterns.len());
    for chunk in patterns.chunks(64) {
        let (good, n) = fsim.good_values(chunk)?;
        let active = active_mask(n);
        let per_output = fsim.output_detection_masks(&good, active, actual_fault);
        for (slot, pattern) in chunk.iter().enumerate() {
            let failing: Vec<usize> = per_output
                .iter()
                .enumerate()
                .filter(|(_, m)| *m & (1 << slot) != 0)
                .map(|(k, _)| k)
                .collect();
            observations.push(ObservedPattern {
                inputs: pattern.clone(),
                failing_outputs: failing,
            });
        }
    }
    Ok(observations)
}

/// Relative diagnosis quality: position (0-based) of the true fault in
/// the ranked candidate list, if present.
#[must_use]
pub fn rank_of(candidates: &[Candidate], fault: Fault) -> Option<usize> {
    candidates.iter().position(|c| c.fault == fault)
}

/// Like [`diagnose`] but scoring at output granularity: candidates must
/// predict not just *that* a pattern fails but *which outputs* fail.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn diagnose_with_outputs(
    circuit: &Circuit,
    observations: &[ObservedPattern],
    candidates: &[Fault],
) -> Result<Vec<Candidate>, AtpgError> {
    let mut fsim = FaultSimulator::new(circuit)?;
    let patterns: Vec<Vec<bool>> = observations.iter().map(|o| o.inputs.clone()).collect();
    let mut out: Vec<Candidate> = Vec::with_capacity(candidates.len());
    for &fault in candidates {
        let mut matched = 0;
        let mut missed = 0;
        let mut alarms = 0;
        for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
            let (good, n) = fsim.good_values(chunk)?;
            let active = active_mask(n);
            let per_output = fsim.output_detection_masks(&good, active, fault);
            for slot in 0..n {
                let obs = &observations[chunk_idx * 64 + slot];
                for (k, m) in per_output.iter().enumerate() {
                    let predicted = m & (1 << slot) != 0;
                    let observed = obs.failing_outputs.contains(&k);
                    match (predicted, observed) {
                        (true, true) => matched += 1,
                        (true, false) => alarms += 1,
                        (false, true) => missed += 1,
                        (false, false) => {}
                    }
                }
            }
        }
        out.push(Candidate {
            fault,
            matched_failures: matched,
            missed_failures: missed,
            false_alarms: alarms,
        });
    }
    out.sort_by(|a, b| {
        b.score()
            .total_cmp(&a.score())
            .then_with(|| a.fault.cmp(&b.fault))
    });
    Ok(out)
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

    fn all_patterns() -> Vec<Vec<bool>> {
        (0..32usize)
            .map(|row| (0..5).map(|i| (row >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn true_fault_ranks_first_or_equivalent() {
        let c = c17();
        let candidates = collapse_faults(&c).representatives().to_vec();
        let patterns = all_patterns();
        for &actual in candidates.iter().step_by(3) {
            let syndrome = syndrome_of_fault(&c, &patterns, actual).unwrap();
            let ranked = diagnose(&c, &syndrome, &candidates).unwrap();
            let top_score = ranked[0].score();
            let actual_score = ranked[rank_of(&ranked, actual).unwrap()].score();
            assert_eq!(
                actual_score, top_score,
                "true fault {actual} must tie the best score"
            );
            assert!(ranked[rank_of(&ranked, actual).unwrap()].is_perfect());
        }
    }

    #[test]
    fn output_granularity_refines_ranking() {
        let c = c17();
        let candidates = collapse_faults(&c).representatives().to_vec();
        let patterns = all_patterns();
        let actual = candidates[0];
        let syndrome = syndrome_of_fault(&c, &patterns, actual).unwrap();
        let refined = diagnose_with_outputs(&c, &syndrome, &candidates).unwrap();
        let coarse = diagnose(&c, &syndrome, &candidates).unwrap();
        // Output-level matching can only shrink the perfect set.
        let perfect_refined = refined.iter().filter(|c| c.is_perfect()).count();
        let perfect_coarse = coarse.iter().filter(|c| c.is_perfect()).count();
        assert!(perfect_refined <= perfect_coarse);
        assert!(refined[rank_of(&refined, actual).unwrap()].is_perfect());
    }

    #[test]
    fn passing_device_has_no_perfect_candidate() {
        let c = c17();
        let candidates = collapse_faults(&c).representatives().to_vec();
        let observations: Vec<ObservedPattern> = all_patterns()
            .into_iter()
            .map(|inputs| ObservedPattern {
                inputs,
                failing_outputs: Vec::new(),
            })
            .collect();
        let ranked = diagnose(&c, &observations, &candidates).unwrap();
        assert!(ranked.iter().all(|c| !c.is_perfect()));
        assert!(ranked.iter().all(|c| c.score() == 0.0));
    }

    #[test]
    fn candidate_scoring() {
        let f = Fault::stem_sa0(modsoc_netlist::NodeId::from_index(0));
        let c = Candidate {
            fault: f,
            matched_failures: 3,
            missed_failures: 1,
            false_alarms: 0,
        };
        assert!((c.score() - 0.75).abs() < 1e-12);
        assert!(!c.is_perfect());
    }
}
