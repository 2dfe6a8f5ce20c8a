//! Hand-rolled observability primitives for the modsoc workspace.
//!
//! The paper's analysis (§4–§5, Tables 1–4) is an accounting exercise —
//! pattern counts, top-off waste, ISOCOST bits — and the engine work that
//! feeds it (PODEM sweeps, fault-simulation passes, per-core dispatch)
//! is exactly the kind of pipeline where a perf regression hides until a
//! table takes minutes instead of seconds. This crate is the counter and
//! timer substrate that makes those runs observable without adding any
//! external dependency, in the same hand-rolled style as
//! `modsoc_atpg::pool` and `modsoc_core::runctl`:
//!
//! * [`Counter`] — a *fixed*, enum-indexed set of run counters (PODEM
//!   decisions/backtracks, fault-sim events, pool tasks, …). Fixed so a
//!   sink is a flat atomic array and a report has a stable field order.
//! * [`Phase`] — the pipeline phases whose wall time is worth charging
//!   separately (fault enumeration, collapse, PODEM, compaction, the
//!   modular/monolithic experiment stages, …).
//! * [`MetricsSink`] — the trait instrumented code reports into. The
//!   default implementation of every method is a no-op, so the disabled
//!   path ([`NullSink`]) costs one virtual call per *phase*, not per
//!   event: hot loops count into plain `u64` locals and flush once.
//! * [`RecordingSink`] — the enabled implementation: relaxed atomic
//!   counters plus per-phase call/nanosecond accumulators, snapshotted
//!   into a plain [`MetricsSnapshot`] for reporting.
//! * [`json`] — a minimal JSON writer/parser (objects, arrays, strings,
//!   finite numbers) used for metrics reports and bench baselines.
//!
//! # Determinism contract
//!
//! Counters and phase *call counts* are deterministic wherever the
//! engine is deterministic: a `--jobs 1` and a `--jobs N` run of the
//! same workload produce identical values (the instrumented code only
//! counts partition-invariant quantities). Wall-clock fields
//! (`*_nanos`, worker rows) are explicitly exempt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Declares one fixed metric kind from a single `Variant => "name"`
/// list: the enum (its declaration order is the canonical report order
/// and each discriminant is the sink's array index), `ALL` in that
/// order, `index()` and the stable snake_case `name()`.
macro_rules! metric_kind {
    (
        $(#[$doc:meta])*
        $Kind:ident { $($Variant:ident => $name:literal,)* }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)] // names + `name()` strings are the documentation
        pub enum $Kind {
            $($Variant,)*
        }

        impl $Kind {
            #[doc = concat!("Every `", stringify!($Kind), "`, in canonical report order.")]
            pub const ALL: [$Kind; [$($name),*].len()] = [$($Kind::$Variant),*];

            #[doc = concat!("Position in [`", stringify!($Kind), "::ALL`] (the sink's array index).")]
            #[must_use]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case report name.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $($Kind::$Variant => $name,)*
                }
            }
        }
    };
}

metric_kind! {
    /// Identifiers for the fixed set of run counters.
    ///
    /// The list order is the canonical report order; `Counter::ALL` and
    /// [`Counter::name`] keep serialization stable across runs and
    /// releases (new counters are appended, never reordered).
    Counter {
        FaultsUniverse => "faults_universe",
        FaultsCollapsed => "faults_collapsed",
        RandomPatternsKept => "random_patterns_kept",
        PodemCalls => "podem_calls",
        PodemTests => "podem_tests",
        PodemRedundant => "podem_redundant",
        PodemAborted => "podem_aborted",
        PodemDecisions => "podem_decisions",
        PodemBacktracks => "podem_backtracks",
        FaultSimBatches => "fault_sim_batches",
        FaultSimFaultEvals => "fault_sim_fault_evals",
        FaultSimDetections => "fault_sim_detections",
        StaticMergeSaved => "static_merge_saved",
        RepairPatterns => "repair_patterns",
        ReverseCompactionRemoved => "reverse_compaction_removed",
        PatternsFinal => "patterns_final",
        TdfFaults => "tdf_faults",
        TdfDetected => "tdf_detected",
        TdfPatterns => "tdf_patterns",
        BistPatterns => "bist_patterns",
        BistTopUpPatterns => "bist_top_up_patterns",
        BudgetTrips => "budget_trips",
        PoolTasks => "pool_tasks",
        PoolPanics => "pool_panics",
        // The store_* counters are *cache-state-dependent*: a warm
        // run reports hits where the cold run reported misses and
        // writes. They are excluded from the cross-run determinism
        // gates (the `"store_` filter) but are still deterministic
        // at a fixed cache state and --jobs-invariant.
        StoreHits => "store_hits",
        StoreMisses => "store_misses",
        StoreWrites => "store_writes",
        StoreEvictions => "store_evictions",
        // Retries depend on transient filesystem weather, so they
        // ride the same `"store_` exemption as the other store rows.
        StoreRetries => "store_retries",
        // The serve_* counters only move inside `modsoc serve`; CLI
        // runs report them as constant zeros, which keeps the
        // cross-run determinism diffs trivially green.
        ServeRequests => "serve_requests",
        ServeShed => "serve_shed",
        ServeCoalesceHits => "serve_coalesce_hits",
        ServePanics => "serve_panics",
        ServeDeadlineTrips => "serve_deadline_trips",
        ServeBatches => "serve_batches",
        ServeBatchedUnits => "serve_batched_units",
        ServeLaneLight => "serve_lane_light",
        ServeLaneHeavy => "serve_lane_heavy",
        ServeKeepAliveReuses => "serve_keepalive_reuses",
        ServeRequestTimeouts => "serve_request_timeouts",
        // Remote-store traffic: counted by the `modsoc serve`
        // daemon's `/store/*` endpoints (and by an `HttpBackend`
        // client on its side). Cache-state- and topology-dependent,
        // so they ride the `"store_` determinism-filter exemption.
        StoreRemoteGets => "store_remote_gets",
        StoreRemotePuts => "store_remote_puts",
        StoreRemoteJournalOps => "store_remote_journal_ops",
        // Claim/lease traffic from distributed `modsoc campaign`
        // workers partitioning a shared spec (CAS on unit + content
        // key). Contention-dependent, hence `store_`-exempted too.
        StoreClaimsAcquired => "store_claims_acquired",
        StoreClaimsHeld => "store_claims_held",
        StoreClaimsExpired => "store_claims_expired",
        // Rectangle bin-packing co-optimizer (`modsoc tam`): cores
        // packed, Pareto wrapper candidates enumerated, placements
        // that backfilled idle TAM windows, and placements bounced
        // off the power ceiling. All four are pure functions of the
        // input SOC and flags, so they sit under the full
        // determinism contract (no exemptions).
        TamPackCores => "tam_pack_cores",
        TamPackCandidates => "tam_pack_candidates",
        TamPackBackfills => "tam_pack_backfills",
        TamPackPowerRejects => "tam_pack_power_rejects",
    }
}

/// Number of counters (the sink's array width).
pub const COUNTER_COUNT: usize = Counter::ALL.len();

metric_kind! {
    /// Pipeline phases whose wall time is charged separately.
    Phase {
        IndexBuild => "index_build",
        FaultEnumerate => "fault_enumerate",
        FaultCollapse => "fault_collapse",
        RandomPhase => "random_phase",
        PodemPhase => "podem_phase",
        StaticCompaction => "static_compaction",
        CoverageRepair => "coverage_repair",
        ReverseCompaction => "reverse_compaction",
        FinalAccounting => "final_accounting",
        Tdf => "tdf",
        Bist => "bist",
        Flatten => "flatten",
        ModularDispatch => "modular_dispatch",
        MonolithicAtpg => "monolithic_atpg",
        TdvAnalysis => "tdv_analysis",
        Parse => "parse",
        ServeRequest => "serve_request",
        // Lane-queue wait time inside `modsoc serve`: how long a
        // parsed request sat in its admission lane before a worker
        // dispatched it. Like the serve_* counters, these never
        // move in CLI runs.
        ServeWaitLight => "serve_wait_light",
        ServeWaitHeavy => "serve_wait_heavy",
        TamPack => "tam_pack",
    }
}

/// Number of phases (the sink's array width).
pub const PHASE_COUNT: usize = Phase::ALL.len();

/// Where instrumented code reports counters and phase timings.
///
/// Every method defaults to a no-op so that [`NullSink`] — the default
/// everywhere — keeps the disabled path branch-light: instrumented hot
/// loops accumulate into plain `u64` locals and *flush* through the sink
/// once per phase, so disabling metrics costs a handful of virtual
/// no-op calls per engine run, not per event.
pub trait MetricsSink: Send + Sync + std::fmt::Debug {
    /// Whether this sink records anything. Gates the `Instant::now()`
    /// calls in [`PhaseTimer`] so the null path never reads the clock.
    fn enabled(&self) -> bool {
        false
    }

    /// Add `delta` to a counter.
    fn add(&self, _counter: Counter, _delta: u64) {}

    /// Record one completed pass of `phase` taking `nanos` wall time.
    fn time(&self, _phase: Phase, _nanos: u64) {}

    /// Record a worker/shard row: `claimed` jobs executed in `busy_nanos`
    /// of wall time. `saturated` flags a `busy_nanos` that overflowed
    /// `u64` and was clamped — consumers must treat the clamped value as
    /// a floor, not a measurement. Worker rows are *scheduling-dependent*
    /// and excluded from the determinism contract.
    fn worker(&self, _worker: usize, _claimed: u64, _busy_nanos: u64, _saturated: bool) {}
}

/// The default sink: records nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl MetricsSink for NullSink {}

/// A sink that forwards every event to each of its children.
///
/// Used where one instrumented run must feed two observers at once —
/// e.g. the result store captures an engine run's counters for the cache
/// entry while the caller's own sink keeps seeing the run as usual.
#[derive(Debug, Clone, Default)]
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn MetricsSink>>,
}

impl TeeSink {
    /// A tee over the given children (order is the forwarding order).
    #[must_use]
    pub fn new(sinks: Vec<std::sync::Arc<dyn MetricsSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl MetricsSink for TeeSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn add(&self, counter: Counter, delta: u64) {
        for s in &self.sinks {
            s.add(counter, delta);
        }
    }

    fn time(&self, phase: Phase, nanos: u64) {
        for s in &self.sinks {
            s.time(phase, nanos);
        }
    }

    fn worker(&self, worker: usize, claimed: u64, busy_nanos: u64, saturated: bool) {
        for s in &self.sinks {
            s.worker(worker, claimed, busy_nanos, saturated);
        }
    }
}

/// One worker/shard utilization row (scheduling-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerRow {
    /// Worker (or shard) index within its pool.
    pub worker: usize,
    /// Jobs this worker claimed and executed.
    pub claimed: u64,
    /// Wall time spent executing jobs, in nanoseconds.
    pub busy_nanos: u64,
    /// Whether `busy_nanos` overflowed `u64` and was clamped to
    /// `u64::MAX` — the value is then a floor, not a measurement.
    pub saturated: bool,
}

/// The enabled sink: relaxed atomic counters and phase accumulators.
///
/// Cheap enough to leave on for whole-experiment runs (a few dozen
/// relaxed `fetch_add`s per engine run); snapshot with
/// [`RecordingSink::snapshot`].
#[derive(Debug)]
pub struct RecordingSink {
    counters: [AtomicU64; COUNTER_COUNT],
    phase_calls: [AtomicU64; PHASE_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    workers: Mutex<Vec<WorkerRow>>,
}

impl Default for RecordingSink {
    fn default() -> RecordingSink {
        RecordingSink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            workers: Mutex::new(Vec::new()),
        }
    }
}

impl RecordingSink {
    /// A fresh sink with every counter at zero.
    #[must_use]
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// Copy the current state into a plain snapshot. Worker rows are
    /// sorted by `(worker, claimed, busy_nanos)` so a snapshot's
    /// non-deterministic section at least has a canonical layout.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut workers = self
            .workers
            .lock()
            .expect("metrics worker lock is never poisoned")
            .clone();
        workers.sort_unstable_by_key(|w| (w.worker, w.claimed, w.busy_nanos));
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            phase_calls: self
                .phase_calls
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            phase_nanos: self
                .phase_nanos
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            workers,
        }
    }
}

impl MetricsSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    fn time(&self, phase: Phase, nanos: u64) {
        self.phase_calls[phase.index()].fetch_add(1, Ordering::Relaxed);
        self.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    fn worker(&self, worker: usize, claimed: u64, busy_nanos: u64, saturated: bool) {
        self.workers
            .lock()
            .expect("metrics worker lock is never poisoned")
            .push(WorkerRow {
                worker,
                claimed,
                busy_nanos,
                saturated,
            });
    }
}

/// A plain-data copy of a sink's state: counters in [`Counter::ALL`]
/// order, phase accumulators in [`Phase::ALL`] order, plus the
/// scheduling-dependent worker rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by [`Counter::index`].
    pub counters: Vec<u64>,
    /// Completed passes per phase, indexed by [`Phase::index`].
    pub phase_calls: Vec<u64>,
    /// Accumulated wall nanoseconds per phase (non-deterministic).
    pub phase_nanos: Vec<u64>,
    /// Worker utilization rows (non-deterministic).
    pub workers: Vec<WorkerRow>,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![0; COUNTER_COUNT],
            phase_calls: vec![0; PHASE_COUNT],
            phase_nanos: vec![0; PHASE_COUNT],
            workers: Vec::new(),
        }
    }
}

impl MetricsSnapshot {
    /// Value of one counter (zero when the snapshot predates the
    /// counter's introduction).
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.index()).copied().unwrap_or(0)
    }

    /// Completed passes of one phase.
    #[must_use]
    pub fn phase_calls(&self, p: Phase) -> u64 {
        self.phase_calls.get(p.index()).copied().unwrap_or(0)
    }

    /// Accumulated wall milliseconds of one phase (non-deterministic).
    #[must_use]
    pub fn phase_ms(&self, p: Phase) -> f64 {
        self.phase_nanos.get(p.index()).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Element-wise add `other` into `self` (worker rows are appended).
    /// Used to aggregate per-core snapshots into run totals — addition is
    /// order-invariant, so totals stay deterministic.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.phase_calls.iter_mut().zip(&other.phase_calls) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.phase_nanos.iter_mut().zip(&other.phase_nanos) {
            *a = a.saturating_add(*b);
        }
        self.workers.extend(other.workers.iter().copied());
    }
}

/// RAII wall-clock timer for one phase pass: reads the clock only when
/// the sink is enabled, and reports on drop.
///
/// ```
/// use modsoc_metrics::{MetricsSink, Phase, PhaseTimer, RecordingSink};
/// let sink = RecordingSink::new();
/// {
///     let _t = PhaseTimer::start(&sink, Phase::PodemPhase);
///     // ... timed work ...
/// }
/// assert_eq!(sink.snapshot().phase_calls(Phase::PodemPhase), 1);
/// ```
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    sink: &'a dyn MetricsSink,
    phase: Phase,
    start: Option<Instant>,
}

impl<'a> PhaseTimer<'a> {
    /// Start timing `phase`. When the sink is disabled this never reads
    /// the clock and drop is a no-op.
    #[must_use]
    pub fn start(sink: &'a dyn MetricsSink, phase: Phase) -> PhaseTimer<'a> {
        PhaseTimer {
            sink,
            phase,
            start: sink.enabled().then(Instant::now),
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sink.time(self.phase, nanos);
        }
    }
}

/// Point-in-time consumption snapshot of a run budget — what was
/// configured and how much was drained. Produced by
/// `RunBudget::snapshot()` in `modsoc-atpg` and embedded in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSnapshot {
    /// Backtracks charged against the shared pool so far.
    pub backtracks_used: u64,
    /// Configured backtrack cap (`None` = unlimited).
    pub max_backtracks: Option<u64>,
    /// Configured pattern cap (`None` = unlimited).
    pub max_patterns: Option<u64>,
    /// Whether a wall-clock deadline was configured.
    pub deadline_set: bool,
    /// Whether the cancellation flag was raised.
    pub cancelled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_phase_tables_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        // Names are unique (they become JSON keys).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
        let mut pnames: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        pnames.sort_unstable();
        pnames.dedup();
        assert_eq!(pnames.len(), PHASE_COUNT);
    }

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.add(Counter::PodemCalls, 5);
        sink.time(Phase::PodemPhase, 100);
        sink.worker(0, 1, 1, false);
        // Nothing observable — NullSink has no state to inspect, the test
        // is that none of this panics and the timer skips the clock.
        let t = PhaseTimer::start(&sink, Phase::IndexBuild);
        assert!(t.start.is_none());
    }

    #[test]
    fn recording_sink_accumulates() {
        let sink = RecordingSink::new();
        sink.add(Counter::PodemDecisions, 3);
        sink.add(Counter::PodemDecisions, 4);
        sink.time(Phase::PodemPhase, 1_000);
        sink.time(Phase::PodemPhase, 2_000);
        sink.worker(1, 7, 500, false);
        sink.worker(2, 1, u64::MAX, true);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(Counter::PodemDecisions), 7);
        assert_eq!(snap.counter(Counter::PodemBacktracks), 0);
        assert_eq!(snap.phase_calls(Phase::PodemPhase), 2);
        assert!((snap.phase_ms(Phase::PodemPhase) - 0.003).abs() < 1e-9);
        assert_eq!(
            snap.workers,
            vec![
                WorkerRow {
                    worker: 1,
                    claimed: 7,
                    busy_nanos: 500,
                    saturated: false
                },
                WorkerRow {
                    worker: 2,
                    claimed: 1,
                    busy_nanos: u64::MAX,
                    saturated: true
                }
            ]
        );
    }

    #[test]
    fn phase_timer_records_once_on_drop() {
        let sink = RecordingSink::new();
        {
            let _t = PhaseTimer::start(&sink, Phase::FaultCollapse);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.phase_calls(Phase::FaultCollapse), 1);
        assert_eq!(snap.phase_calls(Phase::IndexBuild), 0);
    }

    #[test]
    fn snapshot_absorb_sums_counters_phases_and_workers() {
        let a_sink = RecordingSink::new();
        a_sink.add(Counter::PoolTasks, 2);
        a_sink.time(Phase::ModularDispatch, 10);
        let b_sink = RecordingSink::new();
        b_sink.add(Counter::PoolTasks, 3);
        b_sink.time(Phase::ModularDispatch, 99_999);
        b_sink.worker(0, 3, 42, false);

        let mut total = MetricsSnapshot::default();
        total.absorb(&a_sink.snapshot());
        total.absorb(&b_sink.snapshot());
        assert_eq!(total.counter(Counter::PoolTasks), 5);
        assert_eq!(total.phase_calls(Phase::ModularDispatch), 2);
        assert_eq!(total.workers.len(), 1);
        assert_eq!(total.phase_nanos[Phase::ModularDispatch.index()], 100_009);
    }
}
