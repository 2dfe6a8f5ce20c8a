//! The top-level ATPG engine.
//!
//! Sequences the classic flow: fault collapsing → random-pattern bootstrap
//! (with fault dropping) → deterministic PODEM per remaining fault →
//! static cube merging → coverage-verification repair → reverse-order
//! fault-simulation compaction. Every stage is deterministic for a given
//! seed, so pattern counts — the quantity the DATE 2008 paper's analysis
//! is built on — are reproducible.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use modsoc_metrics::{Counter, MetricsSink, NullSink, Phase, PhaseTimer};
use modsoc_netlist::{Circuit, StructuralIndex, TestModel};

use crate::budget::{BudgetExhausted, RunBudget};
use crate::collapse::collapse_faults_metered;
use crate::compact::{keep_last_detectors, merge_compatible};
use crate::error::AtpgError;
use crate::fault::{Fault, FaultStatus};
use crate::fault_sim::FaultSimulator;
use crate::pattern::{FillStrategy, TestCube, TestSet};
use crate::podem::{Podem, PodemOutcome, PodemSearchStats};
use crate::pool::{effective_jobs, WorkerPool};

/// Configuration for an ATPG run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgOptions {
    /// PODEM backtrack limit per fault (hitting it marks the fault
    /// [`FaultStatus::Aborted`]).
    pub backtrack_limit: u32,
    /// Number of 64-pattern random batches to try before deterministic
    /// generation. `0` disables the random phase.
    pub random_batches: usize,
    /// Seed for the random phase and for random fill.
    pub seed: u64,
    /// Fill strategy for don't-care bits in shipped patterns.
    pub fill: FillStrategy,
    /// Merge compatible deterministic cubes (static compaction).
    pub merge_cubes: bool,
    /// Merge each new PODEM cube into the growing pattern set *as it is
    /// generated* (dynamic compaction) instead of post-processing. Fault
    /// dropping then simulates the merged pattern, so incidental
    /// detection improves and pattern counts typically shrink further.
    pub dynamic_compaction: bool,
    /// Run reverse-order fault-simulation compaction on the final set.
    pub reverse_compaction: bool,
    /// Worker threads for every fault-simulation sweep of the run (the
    /// random batches, the PODEM windows, coverage repair and the
    /// last-detector sweep): the fault list is cut into chunks that the
    /// workers of a [`WorkerPool`] claim, each
    /// on its own [`FaultSimulator`] clone, with an order-preserving
    /// merge, so results are identical at any value. An engine that runs
    /// on a pool worker sweeps serially whatever its `jobs` (parallelism
    /// is one level deep). `0` means "all available hardware threads";
    /// `1` (the default) is fully sequential.
    pub jobs: usize,
}

impl Default for AtpgOptions {
    fn default() -> AtpgOptions {
        AtpgOptions {
            backtrack_limit: 200,
            random_batches: 4,
            seed: 0x5EED_50C1,
            fill: FillStrategy::default(),
            merge_cubes: true,
            dynamic_compaction: false,
            reverse_compaction: true,
            jobs: 1,
        }
    }
}

impl AtpgOptions {
    /// Options tuned for deterministic-only runs (no random phase);
    /// useful when minimal pattern counts matter more than runtime.
    #[must_use]
    pub fn deterministic_only() -> AtpgOptions {
        AtpgOptions {
            random_batches: 0,
            ..AtpgOptions::default()
        }
    }
}

/// Counters describing an ATPG run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Size of the uncollapsed fault universe.
    pub universe_faults: usize,
    /// Number of collapsed fault classes targeted.
    pub collapsed_faults: usize,
    /// Classes detected by the final pattern set.
    pub detected: usize,
    /// Classes proven redundant.
    pub redundant: usize,
    /// Classes aborted at the backtrack limit.
    pub aborted: usize,
    /// Random patterns kept (each detected a then-new fault).
    pub random_patterns: usize,
    /// Deterministic cubes generated by PODEM.
    pub deterministic_cubes: usize,
    /// Patterns appended by the post-merge coverage repair pass.
    pub repair_patterns: usize,
    /// Pattern count after static merging (before reverse compaction).
    pub patterns_before_reverse: usize,
    /// Final pattern count.
    pub final_patterns: usize,
}

/// Result of an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The final test set (cubes may retain X bits; use
    /// [`TestSet::fill_all`] with [`AtpgResult::fill`] for shipped
    /// vectors).
    pub patterns: TestSet,
    /// Final status per collapsed fault class representative.
    pub fault_statuses: Vec<(Fault, FaultStatus)>,
    /// Run counters.
    pub stats: AtpgStats,
    /// The fill strategy the coverage numbers were verified with.
    pub fill: FillStrategy,
    /// The full-scan test model the run operated on (present when the
    /// input circuit was sequential).
    pub test_model: Option<TestModel>,
    /// `Some` when a [`RunBudget`] limit tripped and the result is
    /// partial: `patterns` holds everything generated before the trip and
    /// `fault_statuses` reflect only the work actually done.
    pub exhausted: Option<BudgetExhausted>,
}

impl AtpgResult {
    /// Fault coverage over collapsed classes: `detected / (classes −
    /// redundant)` (redundant faults are untestable by definition and
    /// conventionally excluded).
    ///
    /// Edge cases are explicit rather than incidental: an *empty fault
    /// list* is vacuously covered (`1.0`) only when the run actually
    /// examined the circuit — a budget that tripped before fault
    /// collapsing (`exhausted` set with zero classes) reports `0.0`,
    /// since claiming 100% coverage for work never done would corrupt
    /// the experiment tables. A corrupted/partial run where `redundant`
    /// exceeds `collapsed_faults` saturates instead of panicking.
    #[must_use]
    pub fn fault_coverage(&self) -> f64 {
        if self.stats.collapsed_faults == 0 {
            return if self.exhausted.is_some() { 0.0 } else { 1.0 };
        }
        let testable = self
            .stats
            .collapsed_faults
            .saturating_sub(self.stats.redundant);
        if testable == 0 {
            return 1.0;
        }
        self.stats.detected as f64 / testable as f64
    }

    /// Number of test patterns — the `T` that enters the paper's TDV
    /// equations for this circuit.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the run finished without tripping a budget limit.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
    }

    /// Per-fault n-detect counts of the final (filled) pattern set over
    /// the collapsed representatives, in `fault_statuses` order — the
    /// industrial pattern-quality metric (see
    /// [`FaultSimulator::detection_counts`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn n_detect_counts(&self, circuit: &Circuit) -> Result<Vec<u32>, AtpgError> {
        // The faults and patterns of a sequential run live on its test
        // model, not on the netlist it was given.
        let circuit = self.test_model.as_ref().map_or(circuit, |m| &m.circuit);
        let faults: Vec<Fault> = self.fault_statuses.iter().map(|(f, _)| *f).collect();
        let filled = self.patterns.fill_all(self.fill);
        FaultSimulator::new(circuit)?.detection_counts(&filled, &faults, 1, &NullSink)
    }
}

/// Targets per window of the PODEM phase: one 64-bit detection mask
/// holds a lane per target.
const PODEM_WINDOW: usize = 64;

/// A PODEM phase: [`Atpg::podem_windows`], or the serial reference loop
/// in the tests.
type PodemPhaseFn = fn(
    &Atpg,
    &mut Searchers<'_>,
    &mut FaultSimulator<'_>,
    &[Fault],
    &mut [FaultStatus],
    &RunBudget,
    &TestSet,
) -> Result<PodemPhase, AtpgError>;

/// A coverage-repair phase: [`Atpg::repair`], or the serial reference
/// loop in the tests. It searches the faults `lost` names and appends
/// their tests to the pattern set.
type RepairPhaseFn = fn(
    &Atpg,
    &mut Searchers<'_>,
    &[Fault],
    &[usize],
    &mut [FaultStatus],
    &RunBudget,
    &mut TestSet,
) -> Result<RepairPhase, AtpgError>;

/// The run's PODEM generators: the engine's own, which the calling
/// thread searches on, and one clone per spawned pool worker. A clone is
/// made the first time a pooled search needs it and kept for the rest of
/// the run, so each worker starts a window on the state it left, warm in
/// its core's cache, instead of on a fresh copy.
struct Searchers<'a> {
    podem: Podem<'a>,
    spares: Vec<Podem<'a>>,
}

/// The two search phases of a run: the pooled ones, or the serial
/// reference loops in the tests.
#[derive(Clone, Copy)]
struct SearchPhases {
    podem: PodemPhaseFn,
    repair: RepairPhaseFn,
}

/// What the PODEM phase hands back to the rest of the run.
struct PodemPhase {
    /// Committed cubes, in commit order.
    det_cubes: TestSet,
    /// Test cubes committed (before any dynamic merge).
    generated: usize,
    /// Set when a budget check stopped the phase.
    exhausted: Option<BudgetExhausted>,
    /// Fault-sim work, charged per committed cube.
    sim_batches: u64,
    sim_evals: u64,
    /// Effort of the committed searches.
    searched: PodemSearchStats,
}

impl PodemPhase {
    fn new(width: usize) -> PodemPhase {
        PodemPhase {
            det_cubes: TestSet::new(width),
            generated: 0,
            exhausted: None,
            sim_batches: 0,
            sim_evals: 0,
            searched: PodemSearchStats::default(),
        }
    }
}

/// What coverage repair hands back to the rest of the run.
#[derive(Default)]
struct RepairPhase {
    /// Tests appended to the pattern set.
    patterns: usize,
    /// Set when a budget check stopped the phase.
    exhausted: Option<BudgetExhausted>,
    /// Effort of the committed searches.
    searched: PodemSearchStats,
}

/// The ATPG engine. See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Atpg {
    options: AtpgOptions,
    /// Observability sink: [`NullSink`] by default, so plain runs pay a
    /// handful of no-op virtual calls per run (counters are accumulated
    /// in locals and flushed at phase boundaries, never per event).
    sink: Arc<dyn MetricsSink>,
}

impl Default for Atpg {
    fn default() -> Atpg {
        Atpg::new(AtpgOptions::default())
    }
}

impl Atpg {
    /// Create an engine with the given options (metrics disabled).
    #[must_use]
    pub fn new(options: AtpgOptions) -> Atpg {
        Atpg {
            options,
            sink: Arc::new(NullSink),
        }
    }

    /// Create an engine that reports phase timings and run counters into
    /// `sink`. The generated patterns and statuses are byte-identical to
    /// a sink-less run; only observability differs.
    #[must_use]
    pub fn with_sink(options: AtpgOptions, sink: Arc<dyn MetricsSink>) -> Atpg {
        Atpg { options, sink }
    }

    /// The engine's options.
    #[must_use]
    pub fn options(&self) -> &AtpgOptions {
        &self.options
    }

    /// Shared handle to the engine's sink (for wrappers that must
    /// observe or tee the same sink, e.g. the result-store seam).
    pub(crate) fn sink_arc(&self) -> Arc<dyn MetricsSink> {
        Arc::clone(&self.sink)
    }

    /// Run ATPG on a circuit.
    ///
    /// Sequential circuits are converted to their full-scan
    /// [test model](modsoc_netlist::scan) first; pattern bits then cover
    /// primary inputs followed by scan cells.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn run(&self, circuit: &Circuit) -> Result<AtpgResult, AtpgError> {
        self.run_budgeted(circuit, &RunBudget::unlimited())
    }

    /// Run ATPG under a [`RunBudget`].
    ///
    /// Identical to [`Atpg::run`] when the budget is unlimited. When a
    /// limit trips mid-run, generation stops at the next check point and
    /// the result carries everything produced so far with
    /// [`AtpgResult::exhausted`] set — a tripped budget is a *partial
    /// result*, not an error.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn run_budgeted(
        &self,
        circuit: &Circuit,
        budget: &RunBudget,
    ) -> Result<AtpgResult, AtpgError> {
        let pooled = SearchPhases {
            podem: Atpg::podem_windows,
            repair: Atpg::repair,
        };
        self.run_with(circuit, budget, pooled)
    }

    /// [`Atpg::run_budgeted`] with the search phases as a parameter, so
    /// the tests can run the serial reference loops through the same
    /// flow.
    fn run_with(
        &self,
        circuit: &Circuit,
        budget: &RunBudget,
        phases: SearchPhases,
    ) -> Result<AtpgResult, AtpgError> {
        if circuit.is_combinational() {
            circuit.validate().map_err(AtpgError::from)?;
            self.run_model(circuit, budget, phases)
        } else {
            let model = circuit.to_test_model()?;
            let mut result = self.run_model(&model.circuit, budget, phases)?;
            result.test_model = Some(model);
            Ok(result)
        }
    }

    fn run_model(
        &self,
        circuit: &Circuit,
        budget: &RunBudget,
        phases: SearchPhases,
    ) -> Result<AtpgResult, AtpgError> {
        let sink: &dyn MetricsSink = &*self.sink;
        let width = circuit.input_count();
        // A budget that is already spent (e.g. `--timeout-ms 0`) returns
        // an empty partial result before any work is attempted.
        if let Some(reason) = budget.check_with_patterns(0) {
            sink.add(Counter::BudgetTrips, 1);
            return Ok(AtpgResult {
                patterns: TestSet::new(width),
                fault_statuses: Vec::new(),
                stats: AtpgStats::default(),
                fill: self.options.fill,
                test_model: None,
                exhausted: Some(budget.exhausted(reason, "setup", 0)),
            });
        }
        let mut exhausted: Option<BudgetExhausted> = None;
        // One structural index serves the whole run: collapsing, both
        // PODEM phases, every fault-simulation pass, and compaction.
        let sindex = {
            let _t = PhaseTimer::start(sink, Phase::IndexBuild);
            Arc::new(StructuralIndex::build(circuit)?)
        };
        let collapsed = collapse_faults_metered(circuit, &sindex, sink);
        let reps: Vec<Fault> = collapsed.representatives().to_vec();
        let mut status = vec![FaultStatus::Undetected; reps.len()];
        let mut stats = AtpgStats {
            universe_faults: collapsed.universe_size(),
            collapsed_faults: reps.len(),
            ..AtpgStats::default()
        };

        let mut fsim = FaultSimulator::with_index(circuit, Arc::clone(&sindex))?;
        let mut random_set = TestSet::new(width);
        // Fault-sim work counters, accumulated in locals and flushed once
        // at the end of the run. Defined *at the call sites* in
        // partition-invariant terms (batches submitted, fault evaluations
        // requested), so totals are identical at any `jobs` value.
        let mut sim_batches = 0u64;
        let mut sim_evals = 0u64;
        let jobs = effective_jobs(self.options.jobs);

        // --- Phase 1: random patterns with fault dropping. ---
        let random_timer = PhaseTimer::start(sink, Phase::RandomPhase);
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        for _batch in 0..self.options.random_batches {
            if let Some(reason) = budget.check_with_patterns(random_set.len()) {
                exhausted = Some(budget.exhausted(reason, "random-phase", random_set.len()));
                break;
            }
            let batch: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..width).map(|_| rng.gen::<bool>()).collect())
                .collect();
            let undetected: Vec<usize> = (0..reps.len())
                .filter(|&i| status[i] == FaultStatus::Undetected)
                .collect();
            if undetected.is_empty() {
                break;
            }
            let targets: Vec<Fault> = undetected.iter().map(|&i| reps[i]).collect();
            sim_batches += 1;
            sim_evals += targets.len() as u64;
            let (masks, fsim_trip) =
                fsim.detection_masks_budgeted(&batch, &targets, budget, jobs, sink)?;
            // Per pattern slot, in order: keep the pattern iff it detects a
            // fault no earlier-kept pattern in this or previous batches has.
            // Every target is undetected when the batch starts, so it is
            // detected by its mask's lowest slot, and the kept slots are
            // the OR of the masks' lowest bits. A budget trip at a kept
            // slot leaves the faults of the later slots undetected.
            let firsts = masks
                .iter()
                .fold(0u64, |acc, m| acc | (m & m.wrapping_neg()));
            let mut slots_done = 64;
            let mut kept = firsts;
            while kept != 0 {
                let slot = kept.trailing_zeros() as usize;
                kept &= kept - 1;
                random_set.push(TestCube::from_bools(&batch[slot]));
                if let Some(reason) = budget.check_with_patterns(random_set.len()) {
                    exhausted = Some(budget.exhausted(reason, "random-phase", random_set.len()));
                    slots_done = slot + 1;
                    break;
                }
            }
            for (k, &fi) in undetected.iter().enumerate() {
                if masks[k] != 0 && (masks[k].trailing_zeros() as usize) < slots_done {
                    status[fi] = FaultStatus::Detected;
                }
            }
            if exhausted.is_none() {
                if let Some(reason) = fsim_trip {
                    exhausted = Some(budget.exhausted(reason, "fault-sim", random_set.len()));
                }
            }
            if exhausted.is_some() {
                break;
            }
            if firsts == 0 {
                break; // diminishing returns
            }
        }
        drop(random_timer);
        stats.random_patterns = random_set.len();
        sink.add(Counter::RandomPatternsKept, random_set.len() as u64);

        // --- Phase 2: deterministic PODEM with fault dropping. ---
        let mut searchers = Searchers {
            podem: Podem::with_index(circuit, Arc::clone(&sindex), self.options.backtrack_limit)?,
            spares: Vec::new(),
        };
        let podem_timer = PhaseTimer::start(sink, Phase::PodemPhase);
        let phase2 = if exhausted.is_none() {
            (phases.podem)(
                self,
                &mut searchers,
                &mut fsim,
                &reps,
                &mut status,
                budget,
                &random_set,
            )?
        } else {
            // A budget spent in the random phase stops generation before
            // the first search.
            PodemPhase::new(width)
        };
        drop(podem_timer);
        exhausted = exhausted.or(phase2.exhausted);
        sim_batches += phase2.sim_batches;
        sim_evals += phase2.sim_evals;
        stats.deterministic_cubes = phase2.generated;
        let mut searched = phase2.searched;
        let det_cubes = phase2.det_cubes;

        // --- Phase 3: static merge of deterministic cubes (skipped when
        // dynamic compaction already merged them). ---
        let det_cube_count = det_cubes.len();
        let merged = if self.options.merge_cubes && !self.options.dynamic_compaction {
            let _t = PhaseTimer::start(sink, Phase::StaticCompaction);
            merge_compatible(&det_cubes)
        } else {
            det_cubes
        };
        sink.add(
            Counter::StaticMergeSaved,
            det_cube_count.saturating_sub(merged.len()) as u64,
        );
        let mut patterns = random_set;
        patterns.extend(merged.cubes().iter().cloned());

        // --- Phase 4: coverage-verification repair. ---
        // Merging can lose *incidental* detections (a fault dropped thanks
        // to one cube's specific fill). Re-simulate and regenerate for any
        // lost fault; PODEM cubes detect their target under every fill, so
        // one repair round suffices.
        let repair_timer = PhaseTimer::start(sink, Phase::CoverageRepair);
        // Both post-PODEM sweeps charge the fault-sim counters in 64-slot
        // batch units whatever the kernel's block width: the metrics
        // contract predates the wide kernel and reports must not drift.
        sim_batches += patterns.len().div_ceil(64) as u64;
        sim_evals += (patterns.len().div_ceil(64) * reps.len()) as u64;
        let mut filled = patterns.fill_all(self.options.fill);
        let detected_now = fsim.detected(&filled, &reps, jobs, sink)?;
        let lost: Vec<usize> = (0..reps.len())
            .filter(|&i| status[i] == FaultStatus::Detected && !detected_now[i])
            .collect();
        // A budget spent earlier stops repair before its first search.
        let repair = if exhausted.is_none() {
            (phases.repair)(
                self,
                &mut searchers,
                &reps,
                &lost,
                &mut status,
                budget,
                &mut patterns,
            )?
        } else {
            RepairPhase::default()
        };
        drop(repair_timer);
        exhausted = exhausted.or(repair.exhausted);
        stats.repair_patterns = repair.patterns;
        searched += repair.searched;
        sink.add(Counter::RepairPatterns, stats.repair_patterns as u64);
        stats.patterns_before_reverse = patterns.len();

        // --- Phase 5 and final accounting: one last-detector sweep over
        // the shipped fill. Compaction keeps the distinct last detectors
        // (skipped on a tripped budget — the set is already partial); the
        // faults with a last detector are exactly those the kept set
        // detects, so the sweep is also the final accounting. ---
        let compact = self.options.reverse_compaction && exhausted.is_none();
        let sweep_timer = PhaseTimer::start(
            sink,
            if compact {
                Phase::ReverseCompaction
            } else {
                Phase::FinalAccounting
            },
        );
        // Repair only appends, and fills are content-keyed, so the
        // pre-repair fills stay valid.
        filled.extend(
            patterns.cubes()[filled.len()..]
                .iter()
                .map(|c| c.fill_keyed(self.options.fill)),
        );
        let last = fsim.last_detectors(&filled, &reps, jobs, sink)?;
        drop(filled);
        let accounting_timer = if compact {
            patterns = keep_last_detectors(&patterns, &last);
            drop(sweep_timer);
            PhaseTimer::start(sink, Phase::FinalAccounting)
        } else {
            sweep_timer
        };
        sink.add(
            Counter::ReverseCompactionRemoved,
            stats.patterns_before_reverse.saturating_sub(patterns.len()) as u64,
        );
        // Charged as a `detected` pass over the final set, whose
        // detections `last` gives, so the counters match that pass.
        sim_batches += patterns.len().div_ceil(64) as u64;
        sim_evals += (patterns.len().div_ceil(64) * reps.len()) as u64;
        for i in 0..reps.len() {
            match status[i] {
                FaultStatus::Redundant => {}
                _ if last[i].is_some() => status[i] = FaultStatus::Detected,
                FaultStatus::Detected => status[i] = FaultStatus::Undetected,
                _ => {}
            }
        }
        stats.detected = status
            .iter()
            .filter(|&&s| s == FaultStatus::Detected)
            .count();
        stats.redundant = status
            .iter()
            .filter(|&&s| s == FaultStatus::Redundant)
            .count();
        stats.aborted = status
            .iter()
            .filter(|&&s| s == FaultStatus::Aborted)
            .count();
        stats.final_patterns = patterns.len();
        drop(accounting_timer);

        // Flush the locally-accumulated counters. Detections are counted
        // from the *final* per-fault booleans (not per-simulation-event),
        // so every flushed value is a function of the deterministic result
        // and identical at any `jobs` level.
        sink.add(Counter::FaultSimBatches, sim_batches);
        sink.add(Counter::FaultSimFaultEvals, sim_evals);
        sink.add(
            Counter::FaultSimDetections,
            last.iter().filter(|l| l.is_some()).count() as u64,
        );
        // Summed from the committed searches' own efforts: a discarded
        // search never happened in the serial order, and the sum does not
        // depend on which worker ran a search.
        sink.add(Counter::PodemCalls, searched.calls);
        sink.add(Counter::PodemTests, searched.tests);
        sink.add(Counter::PodemRedundant, searched.redundant);
        sink.add(Counter::PodemAborted, searched.aborted);
        sink.add(Counter::PodemDecisions, searched.decisions);
        sink.add(Counter::PodemBacktracks, searched.backtracks);
        sink.add(Counter::PatternsFinal, patterns.len() as u64);
        if exhausted.is_some() {
            sink.add(Counter::BudgetTrips, 1);
        }

        Ok(AtpgResult {
            patterns,
            fault_statuses: reps.into_iter().zip(status).collect(),
            stats,
            fill: self.options.fill,
            test_model: None,
            exhausted,
        })
    }

    /// Phase 2: deterministic PODEM with windowed fault dropping.
    ///
    /// Each window holds the next [`PODEM_WINDOW`] targets that are still
    /// undetected, in fault-index order. The window's searches run on the
    /// pool ([`Atpg::search`]), one fault simulation covers every test
    /// cube of the window (one lane each) over the faults undetected at
    /// the window's start, and the outcomes are then committed in fault
    /// order. A target that an earlier committed lane of the same window
    /// detects is skipped, because the serial loop would never have
    /// searched it: its search is discarded, its backtracks refunded and
    /// its effort left out of the counters. Since a search is a pure
    /// function of its fault and a lane's detections do not depend on
    /// fault status, the patterns, statuses and counters are exactly
    /// those of searching and simulating one target at a time, at any
    /// `jobs` (DESIGN.md §10).
    ///
    /// The window shrinks to one target, which is the serial loop, when
    /// the run may not search ahead ([`Atpg::speculates`]).
    fn podem_windows(
        &self,
        searchers: &mut Searchers<'_>,
        fsim: &mut FaultSimulator<'_>,
        reps: &[Fault],
        status: &mut [FaultStatus],
        budget: &RunBudget,
        banked: &TestSet,
    ) -> Result<PodemPhase, AtpgError> {
        let window_len = if self.speculates(budget) {
            PODEM_WINDOW
        } else {
            1
        };
        let jobs = effective_jobs(self.options.jobs);
        let mut out = PodemPhase::new(banked.width());
        let mut undetected = status
            .iter()
            .filter(|&&s| s == FaultStatus::Undetected)
            .count();
        let mut next = 0;
        while out.exhausted.is_none() {
            let window: Vec<usize> = (next..reps.len())
                .filter(|&i| status[i] == FaultStatus::Undetected)
                .take(window_len)
                .collect();
            let Some(&last) = window.last() else {
                break;
            };
            next = last + 1;
            // The serial loop's check before its first search; the later
            // targets are checked as they are committed.
            let total = banked.len() + out.det_cubes.len();
            if let Some(reason) = budget.check_with_patterns(total) {
                out.exhausted = Some(budget.exhausted(reason, "podem", total));
                break;
            }

            // Generate. `lanes` holds the pattern each test would commit:
            // the cube, or under dynamic compaction (a window of one) the
            // cube merged into the first compatible pattern it replaces.
            let mut lanes: Vec<(Option<usize>, TestCube)> = Vec::new();
            let searches: Vec<(usize, FaultStatus, PodemSearchStats)> = window
                .iter()
                .zip(self.search(searchers, reps, &window, budget)?)
                .map(|(&target, (outcome, effort))| {
                    let verdict = match outcome {
                        PodemOutcome::Test(cube) => {
                            lanes.push(self.placed(&out.det_cubes, cube));
                            FaultStatus::Detected
                        }
                        PodemOutcome::Redundant => FaultStatus::Redundant,
                        PodemOutcome::Aborted => FaultStatus::Aborted,
                    };
                    (target, verdict, effort)
                })
                .collect();

            // Simulate every lane in one pass under the engine fill; the
            // incidental detections it drops are re-verified after
            // merging (phase 4).
            let sim_faults: Vec<usize> = (0..reps.len())
                .filter(|&j| status[j] == FaultStatus::Undetected)
                .collect();
            let masks = if lanes.is_empty() {
                Vec::new()
            } else {
                let filled: Vec<Vec<bool>> = lanes
                    .iter()
                    .map(|(_, pattern)| pattern.fill_keyed(self.options.fill))
                    .collect();
                let targets: Vec<Fault> = sim_faults.iter().map(|&j| reps[j]).collect();
                let (good, n) = fsim.good_values(&filled)?;
                fsim.mask_sweep(&good, n, &targets, None, jobs, &*self.sink)
                    .0
            };

            // Commit in fault order.
            let mut lanes = lanes.into_iter().enumerate();
            for (pos, (target, verdict, effort)) in searches.into_iter().enumerate() {
                let placed = (verdict == FaultStatus::Detected)
                    .then(|| lanes.next().expect("one lane per test cube"));
                if pos > 0 && out.exhausted.is_none() && status[target] == FaultStatus::Undetected {
                    let total = banked.len() + out.det_cubes.len();
                    if let Some(reason) = budget.check_with_patterns(total) {
                        out.exhausted = Some(budget.exhausted(reason, "podem", total));
                    }
                }
                if out.exhausted.is_some() || status[target] != FaultStatus::Undetected {
                    // The serial loop never ran this search.
                    budget.refund_backtracks(searchers.podem.budget_charge(effort));
                    continue;
                }
                out.searched += effort;
                status[target] = verdict;
                undetected -= 1;
                let Some((lane, (replaces, pattern))) = placed else {
                    continue;
                };
                out.generated += 1;
                if let Some(k) = replaces {
                    out.det_cubes.remove(k);
                }
                out.det_cubes.push(pattern);
                // Charged as the serial loop's one-pattern simulation over
                // the faults still undetected once the target is marked.
                out.sim_batches += 1;
                out.sim_evals += undetected as u64;
                let bit = 1u64 << lane;
                for (k, &j) in sim_faults.iter().enumerate() {
                    if masks[k] & bit != 0 && status[j] == FaultStatus::Undetected {
                        status[j] = FaultStatus::Detected;
                        undetected -= 1;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Phase 4's searches: one PODEM search per fault `lost` names, in
    /// order, each test appended to `patterns`. Repair drops no faults
    /// between its searches, so they all run in one pooled
    /// [`Atpg::search`] and commit in order under the serial loop's
    /// budget checks; a search past a trip is discarded, refunded and
    /// left out of the counters, as in [`Atpg::podem_windows`]. When the
    /// run may not search ahead ([`Atpg::speculates`]) the searches run
    /// one at a time.
    fn repair(
        &self,
        searchers: &mut Searchers<'_>,
        reps: &[Fault],
        lost: &[usize],
        status: &mut [FaultStatus],
        budget: &RunBudget,
        patterns: &mut TestSet,
    ) -> Result<RepairPhase, AtpgError> {
        let window_len = if self.speculates(budget) {
            lost.len().max(1)
        } else {
            1
        };
        let mut out = RepairPhase::default();
        for window in lost.chunks(window_len) {
            // The serial loop's check before the window's first search;
            // the later faults are checked as they are committed.
            if let Some(reason) = budget.check_with_patterns(patterns.len()) {
                out.exhausted = Some(budget.exhausted(reason, "repair", patterns.len()));
                break;
            }
            let searches = self.search(searchers, reps, window, budget)?;
            for (pos, (&i, (outcome, effort))) in window.iter().zip(searches).enumerate() {
                if pos > 0 && out.exhausted.is_none() {
                    if let Some(reason) = budget.check_with_patterns(patterns.len()) {
                        out.exhausted = Some(budget.exhausted(reason, "repair", patterns.len()));
                    }
                }
                if out.exhausted.is_some() {
                    // The serial loop never ran this search.
                    budget.refund_backtracks(searchers.podem.budget_charge(effort));
                    continue;
                }
                out.searched += effort;
                match outcome {
                    PodemOutcome::Test(cube) => {
                        patterns.push(cube);
                        out.patterns += 1;
                    }
                    PodemOutcome::Redundant => status[i] = FaultStatus::Redundant,
                    PodemOutcome::Aborted => status[i] = FaultStatus::Aborted,
                }
            }
            if out.exhausted.is_some() {
                break;
            }
        }
        Ok(out)
    }

    /// Whether the run may search ahead of the commits that decide which
    /// searches it needs. Not when the simulated pattern depends on
    /// earlier commits (dynamic compaction simulates the merged pattern),
    /// and not when the budget caps the backtrack pool, which a search
    /// that is later discarded must not spend.
    fn speculates(&self, budget: &RunBudget) -> bool {
        !self.options.dynamic_compaction && budget.max_backtracks_total.is_none()
    }

    /// One PODEM search per target, returned in target order, each with
    /// its own effort. The searches run on a [`WorkerPool`] of the run's
    /// `jobs`: the calling thread on the engine's generator, each spawned
    /// worker on its [`Searchers`] clone. A search is a pure function of
    /// its fault, so the outcomes do not depend on the worker count, and
    /// counters summed from the per-search efforts do not depend on which
    /// worker ran a search. At `jobs: 1`, or on a pool worker, the map is
    /// a plain loop on the engine's generator.
    fn search(
        &self,
        searchers: &mut Searchers<'_>,
        reps: &[Fault],
        targets: &[usize],
        budget: &RunBudget,
    ) -> Result<Vec<(PodemOutcome, PodemSearchStats)>, AtpgError> {
        let Searchers { podem, spares } = searchers;
        WorkerPool::new(self.options.jobs)
            .map_with_state(targets, podem, spares, &*self.sink, |podem, _, &i| {
                let before = podem.search_stats();
                let outcome =
                    podem.generate_with_constraints_budgeted(reps[i], &[], Some(budget))?;
                Ok((outcome, podem.search_stats() - before))
            })
            .into_iter()
            .collect()
    }

    /// Where a fresh cube goes in the deterministic set: appended as it
    /// is, or under dynamic compaction merged into the first compatible
    /// pattern, which it replaces (the merged pattern is appended; order
    /// does not matter for detection).
    fn placed(&self, det_cubes: &TestSet, cube: TestCube) -> (Option<usize>, TestCube) {
        if self.options.dynamic_compaction {
            if let Some(k) = det_cubes.cubes().iter().position(|m| m.compatible(&cube)) {
                return (Some(k), det_cubes.cubes()[k].merged(&cube));
            }
        }
        (None, cube)
    }
}

/// The serial search loops the pooled phases replaced: search one
/// target, commit it (in phase 2, simulate its cube alone and drop what
/// it detects), move on. Kept as the oracles of the differential tests,
/// as `ReferencePodem` is kept for the incremental search.
#[cfg(test)]
mod reference {
    use super::*;

    /// Both phases as serial loops.
    pub(super) const SERIAL: SearchPhases = SearchPhases {
        podem: podem_serial,
        repair: repair_serial,
    };

    /// One search on `podem` and its effort.
    fn searched(
        podem: &mut Podem<'_>,
        fault: Fault,
        budget: &RunBudget,
    ) -> Result<(PodemOutcome, PodemSearchStats), AtpgError> {
        let before = podem.search_stats();
        let outcome = podem.generate_with_constraints_budgeted(fault, &[], Some(budget))?;
        Ok((outcome, podem.search_stats() - before))
    }

    /// A [`PodemPhaseFn`] that runs the serial loop.
    fn podem_serial(
        atpg: &Atpg,
        searchers: &mut Searchers<'_>,
        fsim: &mut FaultSimulator<'_>,
        reps: &[Fault],
        status: &mut [FaultStatus],
        budget: &RunBudget,
        banked: &TestSet,
    ) -> Result<PodemPhase, AtpgError> {
        let mut out = PodemPhase::new(banked.width());
        for i in 0..reps.len() {
            if status[i] != FaultStatus::Undetected {
                continue;
            }
            let total = banked.len() + out.det_cubes.len();
            if let Some(reason) = budget.check_with_patterns(total) {
                out.exhausted = Some(budget.exhausted(reason, "podem", total));
                break;
            }
            let (outcome, effort) = searched(&mut searchers.podem, reps[i], budget)?;
            out.searched += effort;
            match outcome {
                PodemOutcome::Test(cube) => {
                    status[i] = FaultStatus::Detected;
                    out.generated += 1;
                    let det_cubes = &mut out.det_cubes;
                    let slot = if atpg.options.dynamic_compaction {
                        match det_cubes.cubes().iter().position(|m| m.compatible(&cube)) {
                            Some(k) => {
                                let mut merged = det_cubes.cubes()[k].clone();
                                merged.merge_in_place(&cube);
                                det_cubes.remove(k);
                                det_cubes.push(merged);
                                det_cubes.len() - 1
                            }
                            None => {
                                det_cubes.push(cube);
                                det_cubes.len() - 1
                            }
                        }
                    } else {
                        det_cubes.push(cube);
                        det_cubes.len() - 1
                    };
                    let filled = vec![det_cubes.cubes()[slot].fill_keyed(atpg.options.fill)];
                    let undetected: Vec<usize> = (0..reps.len())
                        .filter(|&j| status[j] == FaultStatus::Undetected)
                        .collect();
                    let targets: Vec<Fault> = undetected.iter().map(|&j| reps[j]).collect();
                    out.sim_batches += 1;
                    out.sim_evals += targets.len() as u64;
                    for (k, m) in fsim.detection_masks(&filled, &targets)?.iter().enumerate() {
                        if *m != 0 {
                            status[undetected[k]] = FaultStatus::Detected;
                        }
                    }
                }
                PodemOutcome::Redundant => status[i] = FaultStatus::Redundant,
                PodemOutcome::Aborted => status[i] = FaultStatus::Aborted,
            }
        }
        Ok(out)
    }

    /// A [`RepairPhaseFn`] that runs the serial loop: check the budget,
    /// search, append the test, move on.
    fn repair_serial(
        _atpg: &Atpg,
        searchers: &mut Searchers<'_>,
        reps: &[Fault],
        lost: &[usize],
        status: &mut [FaultStatus],
        budget: &RunBudget,
        patterns: &mut TestSet,
    ) -> Result<RepairPhase, AtpgError> {
        let mut out = RepairPhase::default();
        for &i in lost {
            if let Some(reason) = budget.check_with_patterns(patterns.len()) {
                out.exhausted = Some(budget.exhausted(reason, "repair", patterns.len()));
                break;
            }
            let (outcome, effort) = searched(&mut searchers.podem, reps[i], budget)?;
            out.searched += effort;
            match outcome {
                PodemOutcome::Test(cube) => {
                    patterns.push(cube);
                    out.patterns += 1;
                }
                PodemOutcome::Redundant => status[i] = FaultStatus::Redundant,
                PodemOutcome::Aborted => status[i] = FaultStatus::Aborted,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::RecordingSink;
    use modsoc_netlist::bench_format::parse_bench;
    use modsoc_netlist::GateKind;

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

    #[test]
    fn c17_full_coverage() {
        let r = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        assert!((r.fault_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(r.stats.aborted, 0);
        assert_eq!(r.stats.redundant, 0);
        assert!(r.pattern_count() >= 4 && r.pattern_count() <= 12);
    }

    #[test]
    fn deterministic_only_is_reproducible() {
        let opts = AtpgOptions::deterministic_only();
        let r1 = Atpg::new(opts.clone()).run(&c17()).unwrap();
        let r2 = Atpg::new(opts).run(&c17()).unwrap();
        assert_eq!(r1.patterns, r2.patterns);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn same_seed_same_result() {
        let r1 = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        let r2 = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        assert_eq!(r1.patterns, r2.patterns);
    }

    #[test]
    fn redundant_fault_reported() {
        // g = OR(a, NOT(a)) makes g s-a-1 redundant.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Or, &[a, n]).unwrap();
        c.mark_output(g);
        let r = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c)
            .unwrap();
        assert!(r.stats.redundant >= 1);
        // Coverage still 1.0 over testable faults.
        assert!((r.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_circuit_uses_test_model() {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[g]).unwrap();
        let h = c.add_gate("h", GateKind::And, &[ff, a]).unwrap();
        c.mark_output(h);
        let r = Atpg::new(AtpgOptions::default()).run(&c).unwrap();
        assert!(r.test_model.is_some());
        assert_eq!(r.patterns.width(), 2); // a + scan cell
        assert!((r.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_phase_reduces_deterministic_work() {
        let with_random = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        let without = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c17())
            .unwrap();
        assert!(with_random.stats.deterministic_cubes <= without.stats.deterministic_cubes);
    }

    #[test]
    fn compaction_reduces_or_preserves_count() {
        let mut no_compact = AtpgOptions::deterministic_only();
        no_compact.merge_cubes = false;
        no_compact.reverse_compaction = false;
        let loose = Atpg::new(no_compact).run(&c17()).unwrap();
        let tight = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c17())
            .unwrap();
        assert!(tight.pattern_count() <= loose.pattern_count());
        assert!((tight.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_compaction_preserves_coverage() {
        let mut opts = AtpgOptions::deterministic_only();
        opts.dynamic_compaction = true;
        let dynamic = Atpg::new(opts).run(&c17()).unwrap();
        let static_ = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c17())
            .unwrap();
        assert!((dynamic.fault_coverage() - 1.0).abs() < 1e-12);
        // Dynamic merging sees incidental detections earlier, so it
        // should never need more patterns than the static flow.
        assert!(dynamic.pattern_count() <= static_.pattern_count() + 1);
    }

    #[test]
    fn n_detect_counts_consistent_with_statuses() {
        // The s713 core is sequential, so its counts must simulate the
        // run's test model (they used to fail on the raw netlist).
        let s713 =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(5)).unwrap();
        for c in [c17(), s713] {
            let r = Atpg::new(AtpgOptions::default()).run(&c).unwrap();
            let counts = r.n_detect_counts(&c).unwrap();
            assert_eq!(counts.len(), r.fault_statuses.len());
            for ((fault, status), &n) in r.fault_statuses.iter().zip(&counts) {
                match status {
                    FaultStatus::Detected => assert!(n >= 1, "{fault} marked detected but n=0"),
                    FaultStatus::Redundant => assert_eq!(n, 0),
                    _ => {}
                }
            }
        }
    }

    /// One run through the given search phases: the result, every
    /// recorded counter, and the budget's backtrack total.
    fn observed_run(
        circuit: &Circuit,
        options: &AtpgOptions,
        budget: RunBudget,
        phases: SearchPhases,
    ) -> (AtpgResult, Vec<u64>, u64) {
        let sink = Arc::new(RecordingSink::new());
        let atpg = Atpg::with_sink(options.clone(), sink.clone());
        let result = atpg.run_with(circuit, &budget, phases).unwrap();
        (result, sink.snapshot().counters, budget.backtracks_used())
    }

    #[test]
    fn window_loop_matches_the_serial_reference() {
        use modsoc_circuitgen::profile::iscas;
        let pooled = SearchPhases {
            podem: Atpg::podem_windows,
            repair: Atpg::repair,
        };
        let mut circuits = vec![("c17".to_string(), c17())];
        for profile in [iscas::s713(3), iscas::s953(3), iscas::s5378(3)] {
            let name = profile.name.clone();
            circuits.push((name, modsoc_circuitgen::generate(&profile).unwrap()));
        }
        let configs = [
            ("default", AtpgOptions::default()),
            ("random0", AtpgOptions::deterministic_only()),
            (
                "dynamic",
                AtpgOptions {
                    dynamic_compaction: true,
                    ..AtpgOptions::deterministic_only()
                },
            ),
        ];
        let mut windows_split = false;
        let mut repair_tripped = false;
        for (name, circuit) in &circuits {
            for (config, options) in &configs {
                let unlimited =
                    observed_run(circuit, options, RunBudget::unlimited(), reference::SERIAL);
                let full = &unlimited.0.stats;
                let half_det = (full.deterministic_cubes / 2).max(1);
                windows_split |= full.deterministic_cubes > PODEM_WINDOW;
                // Above every count the PODEM phase checks, so a run that
                // repairs past it trips inside repair.
                let podem_peak = full.random_patterns + full.deterministic_cubes;
                // Clones share a budget's pools, so each run gets its own.
                let budgets: [(&str, &dyn Fn() -> RunBudget); 4] = [
                    ("unlimited", &RunBudget::unlimited),
                    ("pattern cap", &|| {
                        RunBudget::unlimited().with_max_patterns(full.random_patterns + half_det)
                    }),
                    ("repair cap", &|| {
                        RunBudget::unlimited().with_max_patterns(podem_peak + 1)
                    }),
                    ("backtrack cap", &|| {
                        RunBudget::unlimited().with_max_backtracks(unlimited.2 / 2)
                    }),
                ];
                for (label, budget) in budgets {
                    let serial = observed_run(circuit, options, budget(), reference::SERIAL);
                    let pooled_options = AtpgOptions {
                        jobs: 3,
                        ..options.clone()
                    };
                    let windows = observed_run(circuit, &pooled_options, budget(), pooled);
                    let what = format!("{name} / {config} / {label}");
                    assert_eq!(windows.0.patterns, serial.0.patterns, "{what}");
                    assert_eq!(windows.0.fault_statuses, serial.0.fault_statuses, "{what}");
                    assert_eq!(windows.0.stats, serial.0.stats, "{what}");
                    assert_eq!(windows.0.exhausted, serial.0.exhausted, "{what}");
                    assert_eq!(windows.1, serial.1, "{what}: counters");
                    assert_eq!(windows.2, serial.2, "{what}: backtracks used");
                    if let Some(trip) = &serial.0.exhausted {
                        repair_tripped |= trip.phase == "repair";
                    }
                }
            }
        }
        assert!(windows_split, "no run needed more than one window");
        assert!(repair_tripped, "no budget tripped inside repair");
    }

    #[test]
    fn coverage_of_empty_fault_list_is_explicit() {
        // Regression: a budget that trips before fault collapsing used to
        // report 100% coverage for zero work.
        let width_only = TestSet::new(3);
        let complete = AtpgResult {
            patterns: width_only.clone(),
            fault_statuses: Vec::new(),
            stats: AtpgStats::default(),
            fill: FillStrategy::default(),
            test_model: None,
            exhausted: None,
        };
        assert_eq!(complete.fault_coverage(), 1.0, "vacuously covered");
        let tripped = AtpgResult {
            exhausted: Some(BudgetExhausted {
                reason: crate::budget::ExhaustReason::Deadline,
                phase: "setup",
                patterns_so_far: 0,
            }),
            patterns: width_only,
            fault_statuses: Vec::new(),
            stats: AtpgStats::default(),
            fill: FillStrategy::default(),
            test_model: None,
        };
        assert_eq!(tripped.fault_coverage(), 0.0, "no work, no coverage");
    }

    #[test]
    fn coverage_saturates_on_corrupt_redundant_count() {
        // Regression: `collapsed_faults - redundant` used to debug-panic
        // when a corrupted/partial run left redundant > collapsed.
        let r = AtpgResult {
            patterns: TestSet::new(1),
            fault_statuses: Vec::new(),
            stats: AtpgStats {
                collapsed_faults: 3,
                redundant: 7,
                detected: 1,
                ..AtpgStats::default()
            },
            fill: FillStrategy::default(),
            test_model: None,
            exhausted: None,
        };
        assert_eq!(r.fault_coverage(), 1.0, "saturated testable count");
    }

    #[test]
    fn zero_timeout_partial_reports_zero_coverage() {
        let budget = RunBudget::unlimited().with_timeout(std::time::Duration::ZERO);
        let r = Atpg::new(AtpgOptions::default())
            .run_budgeted(&c17(), &budget)
            .unwrap();
        assert!(r.exhausted.is_some());
        assert_eq!(r.stats.collapsed_faults, 0);
        assert_eq!(r.fault_coverage(), 0.0);
    }

    #[test]
    fn jobs_value_does_not_change_results() {
        let serial = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        for jobs in [0, 2, 4] {
            let opts = AtpgOptions {
                jobs,
                ..AtpgOptions::default()
            };
            let parallel = Atpg::new(opts).run(&c17()).unwrap();
            assert_eq!(parallel.patterns, serial.patterns, "jobs={jobs}");
            assert_eq!(parallel.stats, serial.stats, "jobs={jobs}");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let r = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        assert_eq!(
            r.stats.detected
                + r.stats.redundant
                + r.stats.aborted
                + r.fault_statuses
                    .iter()
                    .filter(|(_, s)| *s == FaultStatus::Undetected)
                    .count(),
            r.stats.collapsed_faults
        );
        assert_eq!(r.stats.final_patterns, r.pattern_count());
        assert!(r.stats.universe_faults >= r.stats.collapsed_faults);
    }
}
