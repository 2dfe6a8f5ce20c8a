//! Run-control budgets for long-running test generation.
//!
//! ATPG is the paper's canonical blow-up workload: a single hard cone can
//! sink a whole SOC run (§3's cone model predicts pattern counts
//! dominated by the hardest cone). [`RunBudget`] bounds a run four ways —
//! wall-clock deadline, a *global* backtrack budget shared by every PODEM
//! invocation in the run, a pattern-count cap, and cooperative
//! cancellation — and every bounded entry point returns its partial work
//! plus a [`BudgetExhausted`] diagnostic instead of running unbounded.
//!
//! A budget is cheap to clone; clones share the same cancellation flag
//! and backtrack counter, so one budget can govern a whole multi-core
//! experiment (cores drain a common pool) or be cloned per core for
//! per-core quotas.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use modsoc_atpg::budget::{ExhaustReason, RunBudget};
//!
//! let budget = RunBudget::unlimited().with_timeout(Duration::ZERO);
//! // A zero timeout trips immediately:
//! assert_eq!(budget.check(), Some(ExhaustReason::Deadline));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use modsoc_metrics::BudgetSnapshot;

/// Which limit a run hit first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation flag was raised.
    Cancelled,
    /// The global backtrack budget drained.
    Backtracks,
    /// The pattern-count cap was reached.
    Patterns,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustReason::Deadline => write!(f, "deadline"),
            ExhaustReason::Cancelled => write!(f, "cancelled"),
            ExhaustReason::Backtracks => write!(f, "backtrack budget"),
            ExhaustReason::Patterns => write!(f, "pattern cap"),
        }
    }
}

/// Diagnostic attached to a partial result: what tripped, where, and how
/// much work had been banked by then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The limit that tripped.
    pub reason: ExhaustReason,
    /// Pipeline stage that observed the trip (e.g. `"random-phase"`,
    /// `"podem"`).
    pub phase: &'static str,
    /// Patterns already generated when the budget tripped.
    pub patterns_so_far: usize,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted ({}) during {} with {} patterns banked",
            self.reason, self.phase, self.patterns_so_far
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// Limits for one run. The default is unlimited on every axis, so
/// `RunBudget::default()` reproduces historical unbounded behaviour.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Global backtrack pool shared by every PODEM call under this
    /// budget (clones share the counter).
    pub max_backtracks_total: Option<u64>,
    /// Cap on generated patterns; generation stops once reached.
    pub max_patterns: Option<usize>,
    /// Cooperative cancellation flag; see [`RunBudget::cancel`].
    pub cancel: Arc<AtomicBool>,
    backtracks_used: Arc<AtomicU64>,
}

impl RunBudget {
    /// A budget with no limits (never trips).
    #[must_use]
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Set an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> RunBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Set a deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> RunBudget {
        // Saturate rather than panic near the end of Instant's range.
        let deadline = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(Instant::now);
        self.with_deadline(deadline)
    }

    /// Cap the total backtracks across all PODEM calls under this budget.
    #[must_use]
    pub fn with_max_backtracks(mut self, n: u64) -> RunBudget {
        self.max_backtracks_total = Some(n);
        self
    }

    /// Cap the number of generated patterns.
    #[must_use]
    pub fn with_max_patterns(mut self, n: usize) -> RunBudget {
        self.max_patterns = Some(n);
        self
    }

    /// Raise the cancellation flag.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the cancellation flag is raised.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Total backtracks charged so far (across clones).
    #[must_use]
    pub fn backtracks_used(&self) -> u64 {
        self.backtracks_used.load(Ordering::Relaxed)
    }

    /// Check the deadline and cancellation flag.
    #[must_use]
    pub fn check(&self) -> Option<ExhaustReason> {
        if self.is_cancelled() {
            return Some(ExhaustReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(ExhaustReason::Deadline);
            }
        }
        None
    }

    /// Charge one backtrack against the shared pool, then check every
    /// limit. Called from PODEM's backtrack step.
    #[must_use]
    pub fn charge_backtrack(&self) -> Option<ExhaustReason> {
        let used = self.backtracks_used.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.max_backtracks_total {
            if used > max {
                return Some(ExhaustReason::Backtracks);
            }
        }
        self.check()
    }

    /// Return `n` charged backtracks to the pool: the engine refunds
    /// speculative searches whose outcome it discards, so the total
    /// counts committed searches only.
    pub(crate) fn refund_backtracks(&self, n: u64) {
        self.backtracks_used.fetch_sub(n, Ordering::Relaxed);
    }

    /// Check every limit given `patterns` generated so far.
    #[must_use]
    pub fn check_with_patterns(&self, patterns: usize) -> Option<ExhaustReason> {
        if let Some(max) = self.max_patterns {
            if patterns >= max {
                return Some(ExhaustReason::Patterns);
            }
        }
        if let Some(max) = self.max_backtracks_total {
            if self.backtracks_used() >= max {
                return Some(ExhaustReason::Backtracks);
            }
        }
        self.check()
    }

    /// Point-in-time consumption snapshot for metrics reports: what this
    /// budget was configured with and how much has drained so far.
    /// Consumption counters are shared across clones, so a snapshot taken
    /// from any clone reflects the whole run.
    #[must_use]
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            backtracks_used: self.backtracks_used(),
            max_backtracks: self.max_backtracks_total,
            max_patterns: self.max_patterns.map(|n| n as u64),
            deadline_set: self.deadline.is_some(),
            cancelled: self.is_cancelled(),
        }
    }

    /// Build the diagnostic for a trip observed in `phase`.
    #[must_use]
    pub fn exhausted(
        &self,
        reason: ExhaustReason,
        phase: &'static str,
        patterns: usize,
    ) -> BudgetExhausted {
        BudgetExhausted {
            reason,
            phase,
            patterns_so_far: patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = RunBudget::unlimited();
        assert_eq!(b.check(), None);
        assert_eq!(b.check_with_patterns(usize::MAX), None);
        for _ in 0..100 {
            assert_eq!(b.charge_backtrack(), None);
        }
        assert_eq!(b.backtracks_used(), 100);
    }

    #[test]
    fn snapshot_reflects_configuration_and_consumption() {
        let b = RunBudget::unlimited()
            .with_max_backtracks(10)
            .with_max_patterns(5);
        for _ in 0..3 {
            let _ = b.charge_backtrack();
        }
        let snap = b.snapshot();
        assert_eq!(snap.backtracks_used, 3);
        assert_eq!(snap.max_backtracks, Some(10));
        assert_eq!(snap.max_patterns, Some(5));
        assert!(!snap.deadline_set);
        assert!(!snap.cancelled);
        b.cancel();
        assert!(b.snapshot().cancelled);
        // A clone shares the same pools, so its snapshot agrees.
        assert_eq!(b.clone().snapshot(), b.snapshot());
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let b = RunBudget::unlimited().with_timeout(Duration::ZERO);
        assert_eq!(b.check(), Some(ExhaustReason::Deadline));
    }

    #[test]
    fn cancellation_shared_across_clones() {
        let b = RunBudget::unlimited();
        let clone = b.clone();
        assert_eq!(clone.check(), None);
        b.cancel();
        assert_eq!(clone.check(), Some(ExhaustReason::Cancelled));
        assert_eq!(b.check(), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn backtrack_pool_shared_across_clones() {
        let b = RunBudget::unlimited().with_max_backtracks(3);
        let clone = b.clone();
        assert_eq!(b.charge_backtrack(), None);
        assert_eq!(clone.charge_backtrack(), None);
        assert_eq!(b.charge_backtrack(), None);
        assert_eq!(clone.charge_backtrack(), Some(ExhaustReason::Backtracks));
        assert_eq!(b.check_with_patterns(0), Some(ExhaustReason::Backtracks));
    }

    #[test]
    fn pattern_cap() {
        let b = RunBudget::unlimited().with_max_patterns(5);
        assert_eq!(b.check_with_patterns(4), None);
        assert_eq!(b.check_with_patterns(5), Some(ExhaustReason::Patterns));
    }

    #[test]
    fn diagnostics_render() {
        let b = RunBudget::unlimited();
        let e = b.exhausted(ExhaustReason::Deadline, "podem", 7);
        let text = e.to_string();
        assert!(
            text.contains("deadline") && text.contains("podem") && text.contains('7'),
            "{text}"
        );
        for r in [
            ExhaustReason::Deadline,
            ExhaustReason::Cancelled,
            ExhaustReason::Backtracks,
            ExhaustReason::Patterns,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
