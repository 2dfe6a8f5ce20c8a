//! Power-constrained test scheduling.
//!
//! Running many core tests in parallel multiplies switching activity;
//! real SOC test schedules cap the summed test power at every instant
//! (the paper's cited context, refs 17, Iyengar & Chakrabarty, and 18,
//! Larsson & Peng). This module extends the rectangle scheduler with a
//! per-core power rating and a chip-wide budget.

use crate::error::TamError;
use crate::schedule::{Schedule, ScheduleEntry};
use crate::wrapper::{design_wrapper, WrapperCore};

/// A core plus its test power rating (arbitrary consistent units, e.g.
/// milliwatts of scan switching power).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerCore {
    /// The wrapper-design view of the core.
    pub core: WrapperCore,
    /// Power drawn while this core's test runs.
    pub test_power: u64,
}

impl PowerCore {
    /// Pair a core with its power rating.
    #[must_use]
    pub fn new(core: WrapperCore, test_power: u64) -> PowerCore {
        PowerCore { core, test_power }
    }
}

/// Greedy power- and width-constrained rectangle scheduling.
///
/// Cores are placed longest-test-first. Each core tries every TAM width
/// `1..=width` and every candidate start time (schedule event points),
/// and takes the placement minimizing its end time subject to both
/// resource caps holding over its whole duration.
///
/// # Errors
///
/// Returns [`TamError::ZeroWidth`] / [`TamError::NoCores`], or
/// [`TamError::PowerBudgetTooSmall`] if some single core already exceeds
/// the budget.
pub fn schedule_power_constrained(
    cores: &[PowerCore],
    width: usize,
    power_budget: u64,
) -> Result<Schedule, TamError> {
    if width == 0 {
        return Err(TamError::ZeroWidth);
    }
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }
    if let Some(over) = cores.iter().find(|c| c.test_power > power_budget) {
        return Err(TamError::PowerBudgetTooSmall {
            core: over.core.name.clone(),
            power: over.test_power,
            budget: power_budget,
        });
    }

    let mut placed: Vec<(ScheduleEntry, u64)> = Vec::new(); // entry + power
    let mut order: Vec<usize> = (0..cores.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(design_wrapper(&cores[i].core, 1).test_time_self()));

    for &i in &order {
        let pc = &cores[i];
        let mut best: Option<(u64, u64, usize)> = None; // (start, end, width)
        for w in 1..=width {
            let duration = design_wrapper(&pc.core, w).test_time_self();
            // Candidate starts: time 0 and every placed end.
            let mut candidates: Vec<u64> = std::iter::once(0)
                .chain(placed.iter().map(|(e, _)| e.end))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            for &start in &candidates {
                let end = start + duration;
                if fits(&placed, start, end, w, pc.test_power, width, power_budget) {
                    if best.is_none_or(|(_, be, _)| end < be) {
                        best = Some((start, end, w));
                    }
                    break; // earliest feasible start for this width
                }
            }
        }
        let (start, end, w) = best.expect("time 0 with width 1 is always feasible eventually");
        placed.push((
            ScheduleEntry {
                name: pc.core.name.clone(),
                start,
                end,
                width: w,
            },
            pc.test_power,
        ));
    }

    let mut entries: Vec<ScheduleEntry> = placed.into_iter().map(|(e, _)| e).collect();
    entries.sort_by_key(|e| (e.start, e.name.clone()));
    Ok(Schedule { entries, width })
}

/// Peak power of a schedule given per-core powers (by core name).
#[must_use]
pub fn peak_power(schedule: &Schedule, cores: &[PowerCore]) -> u64 {
    let power_of = |name: &str| {
        cores
            .iter()
            .find(|c| c.core.name == name)
            .map_or(0, |c| c.test_power)
    };
    let mut events: Vec<u64> = schedule
        .entries
        .iter()
        .flat_map(|e| [e.start, e.end])
        .collect();
    events.sort_unstable();
    events.dedup();
    events
        .iter()
        .map(|&t| {
            schedule
                .entries
                .iter()
                .filter(|e| e.start <= t && t < e.end)
                .map(|e| power_of(&e.name))
                .sum()
        })
        .max()
        .unwrap_or(0)
}

fn fits(
    placed: &[(ScheduleEntry, u64)],
    start: u64,
    end: u64,
    w: usize,
    power: u64,
    width: usize,
    budget: u64,
) -> bool {
    // Check wires and power at every event point inside [start, end).
    let mut points: Vec<u64> = vec![start];
    for (e, _) in placed {
        if e.start > start && e.start < end {
            points.push(e.start);
        }
    }
    for &t in &points {
        let wires: usize = placed
            .iter()
            .filter(|(e, _)| e.start <= t && t < e.end)
            .map(|(e, _)| e.width)
            .sum();
        let pw: u64 = placed
            .iter()
            .filter(|(e, _)| e.start <= t && t < e.end)
            .map(|(_, p)| *p)
            .sum();
        if wires + w > width || pw + power > budget {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores() -> Vec<PowerCore> {
        vec![
            PowerCore::new(
                WrapperCore::new("a", 8, 8, vec![64, 64]).with_patterns(100),
                40,
            ),
            PowerCore::new(WrapperCore::new("b", 4, 4, vec![32]).with_patterns(300), 30),
            PowerCore::new(
                WrapperCore::new("c", 16, 2, vec![128, 16]).with_patterns(50),
                50,
            ),
        ]
    }

    fn assert_valid(s: &Schedule, cs: &[PowerCore], width: usize, budget: u64) {
        let mut events: Vec<u64> = s.entries.iter().flat_map(|e| [e.start, e.end]).collect();
        events.sort_unstable();
        events.dedup();
        for &t in &events {
            let wires: usize = s
                .entries
                .iter()
                .filter(|e| e.start <= t && t < e.end)
                .map(|e| e.width)
                .sum();
            assert!(wires <= width, "wires oversubscribed at {t}");
        }
        assert!(peak_power(s, cs) <= budget, "power exceeded");
        assert_eq!(s.entries.len(), cs.len(), "every core scheduled");
    }

    #[test]
    fn generous_budget_allows_parallelism() {
        let cs = cores();
        let s = schedule_power_constrained(&cs, 8, 1_000).unwrap();
        assert_valid(&s, &cs, 8, 1_000);
        // At least two cores overlap.
        let overlapping = s.entries.iter().any(|a| {
            s.entries
                .iter()
                .any(|b| a.name != b.name && a.start < b.end && b.start < a.end)
        });
        assert!(overlapping);
    }

    #[test]
    fn tight_budget_serializes() {
        let cs = cores();
        // Budget 55 allows at most one of {40, 30, 50}+any other pair.
        let s = schedule_power_constrained(&cs, 8, 55).unwrap();
        assert_valid(&s, &cs, 8, 55);
        // No two cores with combined power > 55 may overlap.
        for a in &s.entries {
            for b in &s.entries {
                if a.name < b.name && a.start < b.end && b.start < a.end {
                    let pa = cs
                        .iter()
                        .find(|c| c.core.name == a.name)
                        .unwrap()
                        .test_power;
                    let pb = cs
                        .iter()
                        .find(|c| c.core.name == b.name)
                        .unwrap()
                        .test_power;
                    assert!(pa + pb <= 55);
                }
            }
        }
    }

    #[test]
    fn tighter_budget_never_faster() {
        let cs = cores();
        let loose = schedule_power_constrained(&cs, 8, 1_000).unwrap();
        let tight = schedule_power_constrained(&cs, 8, 55).unwrap();
        assert!(tight.makespan() >= loose.makespan());
    }

    #[test]
    fn single_core_over_budget_rejected() {
        let cs = cores();
        let err = schedule_power_constrained(&cs, 8, 45).unwrap_err();
        assert!(matches!(err, TamError::PowerBudgetTooSmall { .. }));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(schedule_power_constrained(&[], 4, 100).is_err());
        assert!(schedule_power_constrained(&cores(), 0, 100).is_err());
    }

    #[test]
    fn peak_power_computed() {
        let cs = cores();
        let s = schedule_power_constrained(&cs, 8, 1_000).unwrap();
        let p = peak_power(&s, &cs);
        assert!(p >= 50, "at least the biggest single core");
        assert!(p <= 120, "at most the sum");
    }
}
