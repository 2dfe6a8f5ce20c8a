//! Run control: budgets, panic isolation and graceful per-core
//! degradation for the experiment pipeline.
//!
//! The paper's pitch for modular testing is *independence*: each core is
//! tested on its own terms. This module gives the pipeline the matching
//! failure semantics — one poisoned core (absurd `.soc` numbers, a
//! pathological netlist, an internal bug) degrades to a typed per-core
//! diagnostic while the healthy cores still produce their Table-1/2-style
//! rows, and a [`RunBudget`] bounds the whole run so no single cone can
//! hold an experiment hostage.
//!
//! Entry points return a [`Completion`]: the (possibly partial) result,
//! an optional [`BudgetExhausted`] marker, and one [`CoreOutcome`] per
//! core saying whether that core completed, returned partial work on a
//! tripped budget, or failed with a diagnostic.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use modsoc_soc::Soc;

pub use modsoc_atpg::budget::{BudgetExhausted, ExhaustReason, RunBudget};

use crate::analysis::{core_row, CoreTdvRow};
use crate::error::AnalysisError;
use crate::tdv::TdvOptions;

/// Why a core's slice of the pipeline failed (as opposed to completing
/// or returning budget-partial work).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreFailure {
    /// The per-core computation panicked; the payload message is
    /// preserved. The panic was contained — other cores are unaffected.
    Panicked(String),
    /// The per-core computation returned a typed error.
    Error(String),
    /// The core's parameters overflow the TDV equations (`u64`): the
    /// numbers are physically absurd, usually a corrupted `.soc`.
    Overflow,
}

impl fmt::Display for CoreFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            CoreFailure::Error(msg) => write!(f, "error: {msg}"),
            CoreFailure::Overflow => write!(f, "parameter overflow in TDV equations"),
        }
    }
}

impl std::error::Error for CoreFailure {}

/// How one core's slice of a guarded run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreOutcomeKind {
    /// Finished normally.
    Complete,
    /// A budget limit tripped; the core contributed partial work.
    Partial(BudgetExhausted),
    /// The core failed; it contributes nothing, with a diagnostic.
    Failed(CoreFailure),
}

impl CoreOutcomeKind {
    /// Short column label for tables: `ok` / `partial` / `FAILED`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CoreOutcomeKind::Complete => "ok",
            CoreOutcomeKind::Partial(_) => "partial",
            CoreOutcomeKind::Failed(_) => "FAILED",
        }
    }
}

/// Per-core outcome row of a guarded run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOutcome {
    /// Core (or pseudo-stage, e.g. `"<monolithic>"`) name.
    pub core: String,
    /// How the core ended.
    pub kind: CoreOutcomeKind,
    /// Patterns the core contributed, when it produced any.
    pub patterns: Option<u64>,
    /// Fault coverage reached, when measurable.
    pub fault_coverage: Option<f64>,
}

impl CoreOutcome {
    /// Whether the core contributed usable (complete or partial) work.
    #[must_use]
    pub fn contributed(&self) -> bool {
        !matches!(self.kind, CoreOutcomeKind::Failed(_))
    }
}

/// The result of a guarded, budgeted entry point: the work that was
/// done, whether a budget limit cut it short, and per-core outcomes.
#[derive(Debug, Clone)]
pub struct Completion<T> {
    /// The (possibly partial) result.
    pub result: T,
    /// `Some` when a budget limit tripped anywhere in the run.
    pub exhausted: Option<BudgetExhausted>,
    /// One outcome per core (plus pipeline pseudo-stages), in run order.
    pub per_core_outcomes: Vec<CoreOutcome>,
}

impl<T> Completion<T> {
    /// Whether every core completed and no budget tripped.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
            && self
                .per_core_outcomes
                .iter()
                .all(|o| matches!(o.kind, CoreOutcomeKind::Complete))
    }

    /// Cores that failed outright.
    #[must_use]
    pub fn failed_cores(&self) -> Vec<&CoreOutcome> {
        self.per_core_outcomes
            .iter()
            .filter(|o| matches!(o.kind, CoreOutcomeKind::Failed(_)))
            .collect()
    }

    /// The result, provided every core completed and no budget tripped:
    /// the strict mode for callers that treat any degradation as a
    /// failure.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Incomplete`] naming the first core that failed or
    /// returned budget-partial work.
    pub fn into_complete(self) -> Result<T, AnalysisError> {
        if self.is_complete() {
            return Ok(self.result);
        }
        let first = self.per_core_outcomes.iter().find_map(|o| {
            let outcome = match &o.kind {
                CoreOutcomeKind::Complete => return None,
                CoreOutcomeKind::Partial(e) => e.to_string(),
                CoreOutcomeKind::Failed(f) => f.to_string(),
            };
            Some((o.core.clone(), outcome))
        });
        let (core, outcome) = first.unwrap_or_else(|| {
            let budget = self.exhausted.map(|e| e.to_string());
            ("<run>".to_string(), budget.unwrap_or_default())
        });
        Err(AnalysisError::Incomplete { core, outcome })
    }

    /// Map the result, keeping outcomes and budget state.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Completion<U> {
        Completion {
            result: f(self.result),
            exhausted: self.exhausted,
            per_core_outcomes: self.per_core_outcomes,
        }
    }
}

/// Extract a printable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` with panic isolation: a panic becomes
/// [`CoreFailure::Panicked`] instead of unwinding through the pipeline.
///
/// The closure is treated as unwind-safe: the workspace forbids unsafe
/// code, and guarded closures only touch data that is discarded on
/// failure, so a broken invariant cannot leak into surviving state.
///
/// # Errors
///
/// Returns [`CoreFailure::Panicked`] when `f` panics.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, CoreFailure> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| CoreFailure::Panicked(panic_message(payload)))
}

/// [`guard`] for fallible closures: panics become
/// [`CoreFailure::Panicked`], typed errors become [`CoreFailure::Error`].
///
/// # Errors
///
/// Returns a [`CoreFailure`] when `f` panics or returns `Err`.
pub fn guard_result<T, E: fmt::Display>(
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, CoreFailure> {
    match guard(f) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(CoreFailure::Error(e.to_string())),
        Err(failure) => Err(failure),
    }
}

/// Per-core TDV analysis with graceful degradation: every core whose
/// parameters fit the `u64` equations gets its Table-1/2-style row;
/// a poisoned core (overflow, panic) gets a typed [`CoreOutcome`]
/// diagnostic instead of taking the whole analysis down.
///
/// The returned rows cover exactly the cores whose outcome
/// [contributed](CoreOutcome::contributed); `per_core_outcomes` covers
/// every core in SOC order.
///
/// Each core's TDV arithmetic is an independent guarded job on `jobs`
/// pool workers (`0` = auto); the merge is order-preserving, so the
/// completion is identical to the sequential run at any job count. The
/// TDV-analysis phase timing and pool utilization are reported into
/// `sink`.
#[must_use]
pub fn analyze_soc_guarded(
    soc: &Soc,
    options: &TdvOptions,
    jobs: usize,
    sink: &dyn modsoc_metrics::MetricsSink,
) -> Completion<Vec<CoreTdvRow>> {
    let _analysis_timer =
        modsoc_metrics::PhaseTimer::start(sink, modsoc_metrics::Phase::TdvAnalysis);
    let ids: Vec<_> = soc.iter().collect();
    let computed =
        modsoc_atpg::pool::WorkerPool::new(jobs).map_with_sink(&ids, sink, |_, (id, _)| {
            guard(|| core_row(soc, *id, options))
        });

    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for ((_, core), computed) in ids.into_iter().zip(computed) {
        match computed {
            Ok(Some(row)) => {
                rows.push(row);
                outcomes.push(CoreOutcome {
                    core: core.name.clone(),
                    kind: CoreOutcomeKind::Complete,
                    patterns: Some(core.patterns),
                    fault_coverage: None,
                });
            }
            Ok(None) => outcomes.push(CoreOutcome {
                core: core.name.clone(),
                kind: CoreOutcomeKind::Failed(CoreFailure::Overflow),
                patterns: Some(core.patterns),
                fault_coverage: None,
            }),
            Err(failure) => outcomes.push(CoreOutcome {
                core: core.name.clone(),
                kind: CoreOutcomeKind::Failed(failure),
                patterns: None,
                fault_coverage: None,
            }),
        }
    }
    Completion {
        result: rows,
        exhausted: None,
        per_core_outcomes: outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::NullSink;
    use modsoc_soc::CoreSpec;

    #[test]
    fn guard_contains_panics() {
        let err = guard(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(err, CoreFailure::Panicked("boom 42".to_string()));
        assert_eq!(guard(|| 7).unwrap(), 7);
    }

    #[test]
    fn guard_result_separates_errors_from_panics() {
        let ok: Result<u32, CoreFailure> = guard_result(|| Ok::<_, String>(3));
        assert_eq!(ok.unwrap(), 3);
        let err = guard_result(|| Err::<u32, _>("bad input".to_string())).unwrap_err();
        assert_eq!(err, CoreFailure::Error("bad input".to_string()));
        let p = guard_result(|| -> Result<u32, String> { panic!("kaboom") }).unwrap_err();
        assert!(matches!(p, CoreFailure::Panicked(m) if m == "kaboom"));
    }

    #[test]
    fn poisoned_core_degrades_to_diagnostic() {
        let mut soc = Soc::new("mixed");
        soc.add_core(CoreSpec::leaf("good_a", 4, 3, 0, 20, 100))
            .unwrap();
        soc.add_core(CoreSpec::leaf("poisoned", 1, 1, 0, u64::MAX, u64::MAX))
            .unwrap();
        soc.add_core(CoreSpec::leaf("good_b", 2, 2, 0, 10, 50))
            .unwrap();
        let completion = analyze_soc_guarded(&soc, &TdvOptions::tables_3_4(), 1, &NullSink);
        assert_eq!(completion.per_core_outcomes.len(), 3);
        assert_eq!(completion.result.len(), 2, "healthy cores still get rows");
        assert!(completion.result.iter().any(|r| r.name == "good_a"));
        assert!(completion.result.iter().any(|r| r.name == "good_b"));
        let failed = completion.failed_cores();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].core, "poisoned");
        assert!(matches!(
            failed[0].kind,
            CoreOutcomeKind::Failed(CoreFailure::Overflow)
        ));
        assert!(!completion.is_complete());
        let strict = completion.into_complete().unwrap_err();
        assert_eq!(
            strict.to_string(),
            "core poisoned did not complete: parameter overflow in TDV equations"
        );
    }

    #[test]
    fn healthy_soc_is_complete() {
        let mut soc = Soc::new("ok");
        soc.add_core(CoreSpec::leaf("a", 4, 3, 0, 20, 100)).unwrap();
        let completion = analyze_soc_guarded(&soc, &TdvOptions::tables_1_2(), 1, &NullSink);
        assert!(completion.is_complete());
        assert_eq!(completion.result.len(), 1);
        assert_eq!(completion.per_core_outcomes[0].kind.label(), "ok");
        assert_eq!(completion.into_complete().unwrap().len(), 1);
    }

    #[test]
    fn guarded_analysis_is_jobs_invariant() {
        let mut soc = Soc::new("mixed");
        soc.add_core(CoreSpec::leaf("good_a", 4, 3, 0, 20, 100))
            .unwrap();
        soc.add_core(CoreSpec::leaf("poisoned", 1, 1, 0, u64::MAX, u64::MAX))
            .unwrap();
        soc.add_core(CoreSpec::leaf("good_b", 2, 2, 0, 10, 50))
            .unwrap();
        let serial = analyze_soc_guarded(&soc, &TdvOptions::tables_3_4(), 1, &NullSink);
        for jobs in [0, 2, 4] {
            let parallel = analyze_soc_guarded(&soc, &TdvOptions::tables_3_4(), jobs, &NullSink);
            assert_eq!(
                parallel.per_core_outcomes, serial.per_core_outcomes,
                "jobs={jobs}"
            );
            assert_eq!(parallel.result.len(), serial.result.len());
            for (p, s) in parallel.result.iter().zip(serial.result.iter()) {
                assert_eq!((p.id, &p.name, p.isocost), (s.id, &s.name, s.isocost));
                assert_eq!(p.volume, s.volume);
            }
        }
    }

    #[test]
    fn completion_map_preserves_outcomes() {
        let c = Completion {
            result: 5u32,
            exhausted: None,
            per_core_outcomes: vec![],
        };
        let mapped = c.map(|v| v * 2);
        assert_eq!(mapped.result, 10);
        assert!(mapped.is_complete());
    }
}
