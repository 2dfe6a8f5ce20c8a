//! Test-set compaction.
//!
//! Two strategies, usually applied in sequence:
//!
//! * **Static cube merging** ([`merge_compatible`]): greedily merges
//!   compatible (non-conflicting) test cubes, the mechanism §3 of the
//!   paper describes for combining per-cone partial patterns into
//!   circuit-level patterns. Overlapping cones produce conflicting cubes
//!   that refuse to merge — exactly why monolithic pattern counts exceed
//!   the per-cone maximum.
//! * **Reverse-order fault simulation** ([`reverse_order_compaction`]):
//!   scans the final filled patterns from last to first and drops any
//!   pattern that detects no fault the later-kept patterns miss.
//!
//! The reverse scan needs no detection matrix. Pattern `p` is kept
//! exactly when it is the *last* pattern detecting some fault `f`:
//!
//! * If `p = last(f)`, no later pattern detects `f`, so `f` is still
//!   uncovered when the scan reaches `p`, and `p` is kept.
//! * If `p` is kept for an uncovered `f` but `q = last(f) > p`, then `q`
//!   was scanned first, kept, and covered `f` — a contradiction.
//!
//! So the kept set is the set of distinct last detectors, one
//! `FaultSimulator::last_detectors` sweep. It covers every fault any
//! pattern detects, and since fills are content-keyed
//! ([`TestSet::fill_all`]) a kept pattern ships with the fill it was
//! simulated with: the faults the kept set detects are exactly those
//! with a last detector. The engine reads its final accounting off the
//! same sweep.

use modsoc_metrics::NullSink;
use modsoc_netlist::Circuit;

use crate::error::AtpgError;
use crate::fault::Fault;
use crate::fault_sim::FaultSimulator;
use crate::pattern::{FillStrategy, TestCube, TestSet};

/// Greedy first-fit merging of compatible cubes.
///
/// Cubes are considered in descending care-bit order (hardest first) and
/// merged into the first existing pattern they are compatible with; the
/// result is a smaller set of more-specified cubes. The merge preserves
/// detection: a merged pattern subsumes each constituent cube, so any
/// fault detected by a cube under *every* fill remains detected (faults
/// detected incidentally by specific fills are re-established by the
/// engine's final fault-simulation pass).
#[must_use]
pub fn merge_compatible(cubes: &TestSet) -> TestSet {
    let mut order: Vec<(std::cmp::Reverse<usize>, usize)> = cubes
        .iter()
        .enumerate()
        .map(|(i, c)| (std::cmp::Reverse(c.specified_count()), i))
        .collect();
    order.sort_unstable();
    let mut merged: Vec<TestCube> = Vec::new();
    for (_, i) in order {
        let cube = &cubes.cubes()[i];
        match merged.iter_mut().find(|m| m.compatible(cube)) {
            Some(m) => m.merge_in_place(cube),
            None => merged.push(cube.clone()),
        }
    }
    let mut out = TestSet::new(cubes.width());
    out.extend(merged);
    out
}

/// Drop patterns that contribute no unique detection, scanning in reverse
/// order of application.
///
/// `faults` is the target list; patterns are filled with `fill` before
/// simulation (the same strategy the engine uses for its final pattern
/// set, so what is measured is what ships). Returns the retained set, in
/// original relative order: the last detector of every detected fault
/// (see the [module docs](self) for why that is the reverse scan's
/// result). An empty pattern or fault list comes back unchanged.
///
/// # Errors
///
/// Propagates fault-simulator construction and width errors.
pub fn reverse_order_compaction(
    circuit: &Circuit,
    patterns: &TestSet,
    faults: &[Fault],
    fill: FillStrategy,
) -> Result<TestSet, AtpgError> {
    if patterns.is_empty() || faults.is_empty() {
        return Ok(patterns.clone());
    }
    let last = FaultSimulator::new(circuit)?.last_detectors(
        &patterns.fill_all(fill),
        faults,
        1,
        &NullSink,
    )?;
    Ok(keep_last_detectors(patterns, &last))
}

/// The patterns reverse-order compaction keeps, given each fault's last
/// detector ([`FaultSimulator::last_detectors`] over `patterns`): the
/// distinct last detectors, in original order. An empty `last` (no
/// faults) keeps every pattern.
pub(crate) fn keep_last_detectors(patterns: &TestSet, last: &[Option<u32>]) -> TestSet {
    if last.is_empty() {
        return patterns.clone();
    }
    let mut keep: Vec<usize> = last.iter().flatten().map(|&p| p as usize).collect();
    keep.sort_unstable();
    keep.dedup();
    let mut out = TestSet::new(patterns.width());
    out.extend(keep.into_iter().map(|p| patterns.cubes()[p].clone()));
    out
}

/// Conflict statistics of a cube set — the §3 mechanism made
/// measurable: conflicting cubes cannot merge, so the final pattern
/// count is wedged between a clique-based lower bound and the greedy
/// merge result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictStats {
    /// Number of cubes analysed.
    pub cubes: usize,
    /// Cube pairs that conflict (some input assigned opposite values).
    pub conflicting_pairs: usize,
    /// Fraction of pairs that conflict, in `[0, 1]`.
    pub conflict_density: f64,
    /// A lower bound on the achievable pattern count: the size of a
    /// greedily-grown clique in the conflict graph (every member
    /// pairwise conflicts, so each needs its own pattern).
    pub clique_lower_bound: usize,
    /// The greedy merge result ([`merge_compatible`]) — an upper bound
    /// on the minimum pattern count.
    pub merge_upper_bound: usize,
}

/// Analyse pairwise cube conflicts in a test set.
///
/// `O(n²·w)`; intended for the cube sets real ATPG runs produce
/// (hundreds of cubes), not for millions.
#[must_use]
pub fn conflict_stats(cubes: &TestSet) -> ConflictStats {
    let n = cubes.len();
    let mut conflicting_pairs = 0usize;
    let mut conflicts: Vec<Vec<bool>> = vec![vec![false; n]; n];
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill
    for i in 0..n {
        for j in (i + 1)..n {
            if !cubes.cubes()[i].compatible(&cubes.cubes()[j]) {
                conflicting_pairs += 1;
                conflicts[i][j] = true;
                conflicts[j][i] = true;
            }
        }
    }
    // Greedy clique: repeatedly add the cube conflicting with all
    // current members, preferring high conflict degree.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(conflicts[i].iter().filter(|&&c| c).count()));
    let mut clique: Vec<usize> = Vec::new();
    for &i in &order {
        if clique.iter().all(|&m| conflicts[i][m]) {
            clique.push(i);
        }
    }
    let pairs = n * n.saturating_sub(1) / 2;
    ConflictStats {
        cubes: n,
        conflicting_pairs,
        conflict_density: if pairs == 0 {
            0.0
        } else {
            conflicting_pairs as f64 / pairs as f64
        },
        clique_lower_bound: clique.len().max(usize::from(n > 0)),
        merge_upper_bound: merge_compatible(cubes).len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::enumerate_faults;
    use crate::fault_sim::fault_coverage;
    use crate::pattern::Bit;
    use modsoc_netlist::bench_format::parse_bench;

    #[test]
    fn merge_disjoint_cubes() {
        let mut s = TestSet::new(4);
        s.push(TestCube::from_bits(vec![Bit::One, Bit::X, Bit::X, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::X, Bit::X]));
        s.push(TestCube::from_bits(vec![
            Bit::X,
            Bit::X,
            Bit::One,
            Bit::One,
        ]));
        let m = merge_compatible(&s);
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].specified_count(), 4);
    }

    #[test]
    fn merge_respects_conflicts() {
        let mut s = TestSet::new(2);
        s.push(TestCube::from_bits(vec![Bit::One, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::Zero, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::X, Bit::One]));
        let m = merge_compatible(&s);
        assert_eq!(m.len(), 2, "conflicting first bits cannot merge");
    }

    #[test]
    fn merge_never_increases_count() {
        let mut s = TestSet::new(3);
        for bits in [
            [Bit::One, Bit::One, Bit::X],
            [Bit::One, Bit::X, Bit::Zero],
            [Bit::Zero, Bit::X, Bit::X],
            [Bit::X, Bit::Zero, Bit::One],
        ] {
            s.push(TestCube::from_bits(bits.to_vec()));
        }
        let m = merge_compatible(&s);
        assert!(m.len() <= s.len());
    }

    #[test]
    fn reverse_compaction_preserves_coverage() {
        let c = parse_bench(
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
        .unwrap();
        let faults = enumerate_faults(&c);
        // All 32 exhaustive patterns, fully specified.
        let mut s = TestSet::new(5);
        for row in 0..32usize {
            s.push(TestCube::from_bools(
                &(0..5).map(|i| (row >> i) & 1 == 1).collect::<Vec<_>>(),
            ));
        }
        let fill = FillStrategy::Zeros;
        let before = {
            let filled = s.fill_all(fill);
            fault_coverage(&c, &filled, &faults).unwrap()
        };
        let compacted = reverse_order_compaction(&c, &s, &faults, fill).unwrap();
        assert!(compacted.len() < s.len(), "redundant patterns dropped");
        let after = {
            let filled = compacted.fill_all(fill);
            fault_coverage(&c, &filled, &faults).unwrap()
        };
        assert!(
            after >= before - 1e-12,
            "coverage preserved: {before} -> {after}"
        );
    }

    #[test]
    fn conflict_stats_bounds_are_ordered() {
        // Disjoint cubes: no conflicts, everything merges to 1.
        let mut disjoint = TestSet::new(4);
        disjoint.push(TestCube::from_bits(vec![Bit::One, Bit::X, Bit::X, Bit::X]));
        disjoint.push(TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::X, Bit::X]));
        let s = conflict_stats(&disjoint);
        assert_eq!(s.conflicting_pairs, 0);
        assert_eq!(s.conflict_density, 0.0);
        assert_eq!(s.clique_lower_bound, 1);
        assert_eq!(s.merge_upper_bound, 1);

        // Pairwise conflicting cubes: clique = n = merge result.
        let mut clash = TestSet::new(2);
        clash.push(TestCube::from_bits(vec![Bit::Zero, Bit::Zero]));
        clash.push(TestCube::from_bits(vec![Bit::Zero, Bit::One]));
        clash.push(TestCube::from_bits(vec![Bit::One, Bit::X]));
        let s = conflict_stats(&clash);
        assert_eq!(s.conflicting_pairs, 3);
        assert!((s.conflict_density - 1.0).abs() < 1e-12);
        assert_eq!(s.clique_lower_bound, 3);
        assert_eq!(s.merge_upper_bound, 3);
        assert!(s.clique_lower_bound <= s.merge_upper_bound);
    }

    #[test]
    fn conflict_stats_on_real_atpg_cubes() {
        use crate::engine::{Atpg, AtpgOptions};
        let c = parse_bench(
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
        .unwrap();
        let mut opts = AtpgOptions::deterministic_only();
        opts.merge_cubes = false;
        opts.reverse_compaction = false;
        let r = Atpg::new(opts).run(&c).unwrap();
        let s = conflict_stats(&r.patterns);
        assert!(s.clique_lower_bound <= s.merge_upper_bound);
        assert!(s.merge_upper_bound <= s.cubes);
        // c17's cones overlap heavily, so real cube sets do conflict.
        assert!(s.conflicting_pairs > 0);
    }

    #[test]
    fn reverse_compaction_empty_inputs() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let s = TestSet::new(1);
        let out = reverse_order_compaction(&c, &s, &[], FillStrategy::Zeros).unwrap();
        assert!(out.is_empty());
    }
}
