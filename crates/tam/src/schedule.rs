//! Explicit SOC test schedules and idle-bit accounting.

use crate::error::TamError;
use crate::wrapper::{design_wrapper, WrapperCore};

/// One scheduled core test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Core name.
    pub name: String,
    /// Start time (cycles).
    pub start: u64,
    /// End time (cycles).
    pub end: u64,
    /// TAM wires used.
    pub width: usize,
}

/// A complete SOC test schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Scheduled core tests, by start time.
    pub entries: Vec<ScheduleEntry>,
    /// TAM width of the schedule.
    pub width: usize,
}

impl Schedule {
    /// Completion time: the latest entry end.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.entries.iter().map(|e| e.end).max().unwrap_or(0)
    }

    /// TAM utilization in `[0, 1]`: wire-cycles carrying a scheduled
    /// test over total wire-cycles until completion. The complement is
    /// the *idle bandwidth* that the paper's useful-bits analysis
    /// excludes by design.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == 0 || self.width == 0 {
            return 0.0;
        }
        let busy: u64 = self
            .entries
            .iter()
            .map(|e| (e.end - e.start) * e.width as u64)
            .sum();
        busy as f64 / (makespan * self.width as u64) as f64
    }
}

/// Two-dimensional greedy rectangle scheduling: cores may get any width
/// in `1..=width`, starting as wires free up (a simplified version of
/// the wrapper/TAM co-optimization literature, the paper's ref 14).
///
/// Cores are placed longest-single-wire-test first; each core takes as
/// many currently-free wires as reduce its time, bounded by `width`.
///
/// # Errors
///
/// Returns [`TamError::ZeroWidth`] or [`TamError::NoCores`].
pub fn schedule_rectangles(cores: &[WrapperCore], width: usize) -> Result<Schedule, TamError> {
    if width == 0 {
        return Err(TamError::ZeroWidth);
    }
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }
    // free_at[w] = time when wire w becomes free.
    let mut free_at = vec![0u64; width];
    let mut order: Vec<usize> = (0..cores.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(design_wrapper(&cores[i], 1).test_time_self()));
    let mut entries = Vec::with_capacity(cores.len());
    for i in order {
        let core = &cores[i];
        // Try every width: pick the (start, end) minimizing end.
        let mut sorted = free_at.clone();
        sorted.sort_unstable();
        let mut best: Option<(u64, u64, usize)> = None;
        for w in 1..=width {
            let start = sorted[w - 1]; // earliest time w wires are free
            let time = design_wrapper(core, w).test_time_self();
            let end = start + time;
            if best.is_none_or(|(_, be, _)| end < be) {
                best = Some((start, end, w));
            }
        }
        let (start, end, w) = best.expect("width >= 1");
        // Occupy the w earliest-free wires.
        let mut idx: Vec<usize> = (0..width).collect();
        idx.sort_by_key(|&k| free_at[k]);
        for &k in idx.iter().take(w) {
            free_at[k] = end;
        }
        entries.push(ScheduleEntry {
            name: core.name.clone(),
            start,
            end,
            width: w,
        });
    }
    entries.sort_by_key(|e| (e.start, e.name.clone()));
    Ok(Schedule { entries, width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{soc_test_time, TamArchitecture};

    fn cores() -> Vec<WrapperCore> {
        vec![
            WrapperCore::new("a", 8, 8, vec![64, 64]).with_patterns(100),
            WrapperCore::new("b", 4, 4, vec![32]).with_patterns(300),
            WrapperCore::new("c", 16, 2, vec![128, 16, 16]).with_patterns(50),
        ]
    }

    #[test]
    fn rectangle_schedule_valid_and_competitive() {
        let w = 6;
        let s = schedule_rectangles(&cores(), w).unwrap();
        // No over-subscription at any event point.
        let mut events: Vec<u64> = s.entries.iter().flat_map(|e| [e.start, e.end]).collect();
        events.sort_unstable();
        events.dedup();
        for &t in &events {
            let used: usize = s
                .entries
                .iter()
                .filter(|e| e.start <= t && t < e.end)
                .map(|e| e.width)
                .sum();
            assert!(used <= w, "oversubscribed at {t}: {used}");
        }
        // At least as good as pure serial at the same width.
        let serial = soc_test_time(TamArchitecture::Multiplexing, &cores(), w)
            .unwrap()
            .total_time;
        assert!(s.makespan() <= serial);
    }

    #[test]
    fn rectangle_schedule_single_wire() {
        let s = schedule_rectangles(&cores(), 1).unwrap();
        assert_eq!(s.entries.len(), 3);
        assert!(s.utilization() > 0.99);
    }

    #[test]
    fn empty_and_zero_rejected() {
        assert!(schedule_rectangles(&[], 4).is_err());
        assert!(schedule_rectangles(&cores(), 0).is_err());
    }
}
