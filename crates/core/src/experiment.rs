//! Netlist-backed monolithic-vs-modular experiments.
//!
//! This is the live pipeline behind Tables 1 and 2: take a structural
//! SOC (cores + wiring, from `modsoc-circuitgen`), run ATPG on every
//! core stand-alone, run ATPG once more on the flattened monolithic
//! netlist, and compare the measured test data volumes. The paper's
//! Equation 2 claim (`T_mono ≥ max_i T_i`, observed strictly greater)
//! falls out of the measured pattern counts.
//!
//! Because the paper's whole point is that the per-core ATPG problems
//! are *independent*, the modular phase dispatches them across a
//! [`WorkerPool`] of [`ExperimentOptions::with_jobs`] workers and merges
//! the [`CoreMeasurement`]s in core-index order — reports are
//! byte-identical to the sequential run at any job count. The same
//! worker count then goes to the monolithic run, which starts once the
//! pool has drained and shards its fault-simulation sweeps across it;
//! the per-core engines, running on pool workers, sweep serially.

use std::sync::Arc;

use modsoc_atpg::pool::WorkerPool;
use modsoc_atpg::{Atpg, AtpgOptions, AtpgResult};
use modsoc_circuitgen::SocNetlist;
use modsoc_metrics::{MetricsSink, NullSink, Phase, PhaseTimer};
use modsoc_netlist::Circuit;
use modsoc_soc::{CoreSpec, Soc};
use modsoc_store::ResultStore;

use crate::analysis::SocTdvAnalysis;
use crate::error::AnalysisError;
use crate::runctl::{
    guard_result, BudgetExhausted, Completion, CoreFailure, CoreOutcome, CoreOutcomeKind, RunBudget,
};
use crate::tdv::TdvOptions;

/// Options for a netlist-backed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// ATPG engine configuration (same settings for per-core and
    /// monolithic runs, mirroring the paper's "identical parameters").
    /// Its [`AtpgOptions::jobs`] is the experiment's one worker count:
    /// the modular phase's pool width and the engines' sweep width.
    pub atpg: AtpgOptions,
    /// TDV accounting options.
    pub tdv: TdvOptions,
    /// Pattern count charged to the top-level glue core's ExTest
    /// (interconnect test). The paper measured 2 for SOC1/SOC2.
    pub glue_patterns: u64,
    /// In the guarded entry points: as soon as one core fails or trips
    /// the budget, raise the budget's cross-thread cancel flag so
    /// in-flight sibling cores (and the monolithic phase) stop at their
    /// next poll instead of running to completion. The run still returns
    /// a [`Completion`] with one outcome per core. Which siblings finish
    /// before observing the flag is scheduling-dependent, so fail-fast
    /// runs trade the determinism guarantee for latency.
    pub fail_fast: bool,
    /// Run the flattened monolithic ATPG phase (default). When `false`,
    /// the accounting falls back to the Equation 2 optimistic bound
    /// `T_mono = max_i T_i` and no `"<monolithic>"` outcome row is
    /// emitted — the modular-only mode of `experiment --skip-monolithic`
    /// and of campaign units marked `skip_monolithic`.
    pub monolithic: bool,
    /// Content-addressed result store (`--store <dir>`): every engine
    /// run — per-core and monolithic — is fetched from the store when a
    /// complete result for the same `(circuit, options)` content address
    /// exists, and written back after a cold computation. `None` (the
    /// default) computes everything in-process.
    pub store: Option<Arc<ResultStore>>,
    /// Whether store lookups are performed (`false` = `--no-store-read`):
    /// results are recomputed and rewritten, refreshing suspect entries.
    pub store_read: bool,
}

impl Default for ExperimentOptions {
    fn default() -> ExperimentOptions {
        ExperimentOptions {
            atpg: AtpgOptions::default(),
            tdv: TdvOptions::default(),
            glue_patterns: 0,
            fail_fast: false,
            monolithic: true,
            store: None,
            store_read: true,
        }
    }
}

impl ExperimentOptions {
    /// The configuration used by the Table 1/2 regenerations: paper
    /// accounting (chip pins excluded at the top) and 2 glue patterns.
    #[must_use]
    pub fn paper_tables_1_2() -> ExperimentOptions {
        ExperimentOptions {
            tdv: TdvOptions::tables_1_2(),
            glue_patterns: 2,
            ..ExperimentOptions::default()
        }
    }

    /// Set the worker count (`0` = auto, all hardware threads; the
    /// default is 1, sequential) as [`AtpgOptions::jobs`]: each core's
    /// ATPG is an independent job on a pool this wide, and the
    /// monolithic run shards its fault-simulation sweeps across as many
    /// workers. Any value produces identical reports — every merge is
    /// order-preserving.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> ExperimentOptions {
        self.atpg.jobs = jobs;
        self
    }

    /// Enable fail-fast sibling cancellation (guarded entry points).
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> ExperimentOptions {
        self.fail_fast = fail_fast;
        self
    }

    /// Skip the flattened monolithic phase (Equation 2 bound instead).
    #[must_use]
    pub fn modular_only(mut self) -> ExperimentOptions {
        self.monolithic = false;
        self
    }

    /// Attach a content-addressed result store (see
    /// [`ExperimentOptions::store`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ResultStore>) -> ExperimentOptions {
        self.store = Some(store);
        self
    }

    /// Enable or disable store lookups (see
    /// [`ExperimentOptions::store_read`]).
    #[must_use]
    pub fn with_store_read(mut self, read: bool) -> ExperimentOptions {
        self.store_read = read;
        self
    }

    /// Stable fingerprint of every field that influences *result bytes*.
    ///
    /// Two option sets with equal fingerprints produce byte-identical
    /// reports for the same unit, so work keyed on different content
    /// addresses but equal fingerprints may share one dispatch (the
    /// serve layer's batch-compatibility test). Excluded by
    /// construction: `atpg.jobs` (order-preserving merges), `fail_fast`
    /// (latency-only), and the store fields (caching never changes
    /// bytes).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "atpg={};tdv={:?};glue={};mono={}",
            modsoc_atpg::options_fingerprint(&self.atpg),
            self.tdv,
            self.glue_patterns,
            u8::from(self.monolithic),
        )
    }

    /// Run one engine job through the configured store (cache fetch +
    /// write-back), or directly when no store is attached. The single
    /// seam every stuck-at experiment entry point funnels engine runs
    /// through, so `--store` behaves identically for per-core and
    /// monolithic runs on the guarded and metered paths.
    pub(crate) fn run_engine(
        &self,
        engine: &Atpg,
        circuit: &Circuit,
        budget: &RunBudget,
    ) -> Result<AtpgResult, AnalysisError> {
        match &self.store {
            Some(store) => engine
                .run_budgeted_stored(circuit, budget, store, self.store_read)
                .map_err(AnalysisError::from),
            None => engine
                .run_budgeted(circuit, budget)
                .map_err(AnalysisError::from),
        }
    }
}

/// Per-core measurement from the modular phase.
#[derive(Debug, Clone)]
pub struct CoreMeasurement {
    /// Core name.
    pub name: String,
    /// Measured ATPG pattern count.
    pub patterns: u64,
    /// Fault coverage over collapsed classes.
    pub fault_coverage: f64,
    /// Final ATPG statistics.
    pub stats: modsoc_atpg::AtpgStats,
}

/// The outcome of a full experiment.
#[derive(Debug, Clone)]
pub struct SocExperiment {
    /// The SOC parameter model assembled from measurements.
    pub soc: Soc,
    /// The TDV analysis with the *measured* monolithic pattern count.
    pub analysis: SocTdvAnalysis,
    /// Per-core measurements, in core order.
    pub cores: Vec<CoreMeasurement>,
    /// Measured monolithic pattern count (flattened-design ATPG), or the
    /// Equation 2 optimistic bound when the monolithic phase was skipped
    /// or failed.
    pub t_mono: u64,
    /// Monolithic-run fault coverage (0 when the phase did not run).
    pub mono_coverage: f64,
    /// Whether Equation 2 held strictly (`T_mono > max_i T_i`), the
    /// paper's observation on both SOCs.
    pub eq2_strict: bool,
}

/// Run the modular-vs-monolithic experiment under a [`RunBudget`] with
/// per-core panic isolation.
///
/// Each core's ATPG runs guarded on the worker pool
/// ([`ExperimentOptions::with_jobs`]): a panic or typed error in one core
/// becomes a [`CoreOutcome`] diagnostic while the remaining cores still
/// produce their rows; a tripped budget yields each core's partial
/// pattern set. Measurements are merged in core-index order, so the
/// report is byte-identical to the sequential run at any job count. With
/// [`ExperimentOptions::fail_fast`], the first core to fail or trip the
/// budget raises the budget's cross-thread cancel flag and in-flight
/// siblings stop at their next poll. The flattened monolithic run is
/// guarded the same way (pseudo-core `"<monolithic>"`) — when it fails
/// or is skipped, the accounting falls back to the Equation 2 optimistic
/// bound `T_mono = max_i T_i`. Callers that need every core to complete
/// use [`Completion::into_complete`].
///
/// # Errors
///
/// Errors only when *nothing* analyzable remains: every core failed, or
/// the assembled SOC model itself is invalid. Individual core failures
/// and budget exhaustion are reported in the [`Completion`], not as
/// errors.
pub fn run_soc_experiment_guarded(
    netlist: &SocNetlist,
    options: &ExperimentOptions,
    budget: &RunBudget,
) -> Result<Completion<SocExperiment>, AnalysisError> {
    let engine = Atpg::new(options.atpg.clone());
    run_soc_experiment_guarded_full(
        netlist,
        options,
        budget,
        &NullSink,
        |_, circuit| options.run_engine(&engine, circuit, budget),
        |flat| options.run_engine(&engine, flat, budget),
    )
}

/// The fully-injectable guarded pipeline behind
/// [`run_soc_experiment_guarded`]: both the per-core and the monolithic
/// ATPG functions are caller-supplied, and pipeline-level observability
/// (modular dispatch / flatten / monolithic / TDV analysis phase
/// timings, pool utilization) reports into `sink`.
///
/// `run_core(i, circuit)` is invoked once per core on a pool worker;
/// panics and errors it (or `run_mono`) raises are contained to that
/// core's [`CoreOutcome`] exactly like engine failures. This is the
/// chaos/fault-injection seam the test suite uses to inject per-core
/// panics, and the seam the metered experiment runner
/// ([`crate::metrics::run_soc_experiment_metered`]) uses to give every
/// core its own recording sink while keeping one pipeline sink for the
/// dispatch phases. Results are byte-identical to
/// [`run_soc_experiment_guarded`] for engine-backed closures.
///
/// # Errors
///
/// As [`run_soc_experiment_guarded`].
pub fn run_soc_experiment_guarded_full<F, G>(
    netlist: &SocNetlist,
    options: &ExperimentOptions,
    budget: &RunBudget,
    sink: &dyn MetricsSink,
    run_core: F,
    run_mono: G,
) -> Result<Completion<SocExperiment>, AnalysisError>
where
    F: Fn(usize, &Circuit) -> Result<AtpgResult, AnalysisError> + Sync,
    G: FnOnce(&Circuit) -> Result<AtpgResult, AnalysisError>,
{
    let mut exhausted = None;
    let mut outcomes: Vec<CoreOutcome> = Vec::new();

    // Modular phase: every core stand-alone, each isolated, dispatched
    // across the pool. The jobs only touch per-core state (plus the
    // budget's atomics), so the merge below sees exactly what a
    // sequential loop would have seen.
    let dispatch_timer = PhaseTimer::start(sink, Phase::ModularDispatch);
    let results: Vec<Result<AtpgResult, CoreFailure>> = WorkerPool::new(options.atpg.jobs)
        .map_with_sink(netlist.cores(), sink, |i, circuit| {
            let result = guard_result(|| run_core(i, circuit));
            if options.fail_fast {
                let tripped = match &result {
                    Ok(r) => r.exhausted.is_some(),
                    Err(_) => true,
                };
                if tripped {
                    budget.cancel();
                }
            }
            result
        });
    drop(dispatch_timer);

    // Order-preserving merge, in core-index order; a failed core
    // contributes an outcome row but no measurement.
    let measured: Vec<(&Circuit, CoreMeasurement)> = netlist
        .cores()
        .iter()
        .zip(results)
        .filter_map(|(circuit, result)| {
            outcomes.push(outcome_row(circuit.name(), &result, &mut exhausted));
            let r = result.ok()?;
            let measurement = CoreMeasurement {
                name: circuit.name().to_string(),
                patterns: r.pattern_count() as u64,
                fault_coverage: r.fault_coverage(),
                stats: r.stats,
            };
            Some((circuit, measurement))
        })
        .collect();
    if measured.is_empty() {
        // Nothing survived; there is no analyzable SOC model.
        return Err(AnalysisError::Soc(modsoc_soc::SocError::Empty));
    }

    // Monolithic phase, isolated the same way; a failure falls back to
    // the Equation 2 bound.
    let experiment = assemble(
        netlist,
        netlist.name().to_string(),
        options,
        measured.into_iter().map(Ok),
        || {
            let mono = guard_result(|| {
                let flat = {
                    let _t = PhaseTimer::start(sink, Phase::Flatten);
                    netlist.flatten()?
                };
                let _t = PhaseTimer::start(sink, Phase::MonolithicAtpg);
                run_mono(&flat)
            });
            outcomes.push(outcome_row("<monolithic>", &mono, &mut exhausted));
            Ok(mono
                .ok()
                .map(|r| (r.pattern_count() as u64, r.fault_coverage())))
        },
        sink,
    )?;
    Ok(Completion {
        result: experiment,
        exhausted,
        per_core_outcomes: outcomes,
    })
}

/// The outcome row of one guarded engine run, recording the first budget
/// trip of the whole run into `exhausted`.
fn outcome_row(
    core: &str,
    result: &Result<AtpgResult, CoreFailure>,
    exhausted: &mut Option<BudgetExhausted>,
) -> CoreOutcome {
    match result {
        Ok(r) => {
            let kind = match &r.exhausted {
                Some(e) => {
                    exhausted.get_or_insert_with(|| e.clone());
                    CoreOutcomeKind::Partial(e.clone())
                }
                None => CoreOutcomeKind::Complete,
            };
            CoreOutcome {
                core: core.to_string(),
                kind,
                patterns: Some(r.pattern_count() as u64),
                fault_coverage: Some(r.fault_coverage()),
            }
        }
        Err(failure) => CoreOutcome {
            core: core.to_string(),
            kind: CoreOutcomeKind::Failed(failure.clone()),
            patterns: None,
            fault_coverage: None,
        },
    }
}

/// Assemble the SOC model from per-core measurements and run the
/// accounting: one leaf per measured core plus the `top` glue parent,
/// then the monolithic phase, the Equation 2 clamp and the TDV analysis.
/// `measured` is consumed in core order and its first error is returned
/// as is. `run_mono` runs only when [`ExperimentOptions::monolithic`] is
/// set and yields the raw `(T_mono, coverage)`, or `None` to fall back
/// to the Equation 2 optimistic bound `T_mono = max_i T_i`.
fn assemble<'n>(
    netlist: &SocNetlist,
    soc_name: String,
    options: &ExperimentOptions,
    measured: impl IntoIterator<Item = Result<(&'n Circuit, CoreMeasurement), AnalysisError>>,
    run_mono: impl FnOnce() -> Result<Option<(u64, f64)>, AnalysisError>,
    sink: &dyn MetricsSink,
) -> Result<SocExperiment, AnalysisError> {
    let mut soc = Soc::new(soc_name);
    let mut cores = Vec::with_capacity(netlist.cores().len());
    let mut children = Vec::with_capacity(netlist.cores().len());
    for measurement in measured {
        let (circuit, measurement) = measurement?;
        children.push(soc.add_core(CoreSpec::leaf(
            circuit.name(),
            circuit.input_count() as u64,
            circuit.output_count() as u64,
            0,
            circuit.dff_count() as u64,
            measurement.patterns,
        ))?);
        cores.push(measurement);
    }
    soc.add_core(CoreSpec::parent(
        "top",
        netlist.chip_input_count() as u64,
        netlist.chip_output_count() as u64,
        0,
        0,
        options.glue_patterns,
        children,
    ))?;

    let max_core = soc.max_core_patterns();
    let mono = if options.monolithic {
        run_mono()?
    } else {
        None
    };
    let (t_mono_raw, mono_coverage) = mono.unwrap_or((max_core, 0.0));
    let eq2_strict = t_mono_raw > max_core;
    // Equation 2 guarantees T_mono ≥ max core count for a *consistent*
    // compaction; independent ATPG runs can rarely dip below, so clamp
    // for the accounting (and report the raw value via `t_mono`).
    let t_mono = t_mono_raw.max(max_core);

    let analysis = {
        let _t = PhaseTimer::start(sink, Phase::TdvAnalysis);
        SocTdvAnalysis::compute_with_measured_tmono(&soc, &options.tdv, t_mono)?
    };
    Ok(SocExperiment {
        soc,
        analysis,
        cores,
        t_mono: t_mono_raw,
        mono_coverage,
        eq2_strict,
    })
}

/// Run the modular-vs-monolithic experiment with **transition-delay**
/// (launch-on-capture) pattern counts instead of stuck-at — the at-speed
/// extension of the paper's Tables 1–2 methodology. Per-core TDF
/// generation fans out across the pool like the stuck-at path.
///
/// # Errors
///
/// Propagates netlist flattening and test-generation errors (the error
/// of the lowest-indexed failing core, matching the sequential run).
pub fn run_soc_experiment_tdf(
    netlist: &SocNetlist,
    backtrack_limit: u32,
    options: &ExperimentOptions,
) -> Result<SocExperiment, AnalysisError> {
    use modsoc_atpg::tdf::run_tdf_atpg;

    let budget = RunBudget::unlimited();
    let tdf = |circuit: &Circuit| run_tdf_atpg(circuit, backtrack_limit, &budget, &NullSink);
    let results =
        WorkerPool::new(options.atpg.jobs).map(netlist.cores(), |_, circuit| tdf(circuit));
    let measured = netlist
        .cores()
        .iter()
        .zip(results)
        .map(|(circuit, result)| {
            let result = result?;
            let measurement = CoreMeasurement {
                name: circuit.name().to_string(),
                patterns: result.patterns.len() as u64,
                fault_coverage: result.coverage(),
                stats: modsoc_atpg::AtpgStats {
                    collapsed_faults: result.total,
                    detected: result.detected,
                    aborted: result.aborted,
                    final_patterns: result.patterns.len(),
                    ..modsoc_atpg::AtpgStats::default()
                },
            };
            Ok((circuit, measurement))
        });
    assemble(
        netlist,
        format!("{}.atspeed", netlist.name()),
        options,
        measured,
        || {
            let mono = tdf(&netlist.flatten()?)?;
            Ok(Some((mono.patterns.len() as u64, mono.coverage())))
        },
        &NullSink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_circuitgen::soc::mini_soc;

    /// The guarded pipeline with an unlimited budget, failing on any
    /// outcome that is not complete.
    fn run(netlist: &SocNetlist, options: &ExperimentOptions) -> SocExperiment {
        run_soc_experiment_guarded(netlist, options, &RunBudget::unlimited())
            .unwrap()
            .into_complete()
            .unwrap()
    }

    /// [`run_soc_experiment_guarded_full`] with an injected per-core
    /// function and the configured engine for the monolithic phase.
    fn run_injected(
        netlist: &SocNetlist,
        options: &ExperimentOptions,
        budget: &RunBudget,
        run_core: impl Fn(usize, &Circuit) -> Result<AtpgResult, AnalysisError> + Sync,
    ) -> Result<Completion<SocExperiment>, AnalysisError> {
        let engine = Atpg::new(options.atpg.clone());
        run_soc_experiment_guarded_full(netlist, options, budget, &NullSink, run_core, |flat| {
            options.run_engine(&engine, flat, budget)
        })
    }

    #[test]
    fn mini_soc_experiment_end_to_end() {
        let netlist = mini_soc(7).unwrap();
        let exp = run(&netlist, &ExperimentOptions::paper_tables_1_2());
        assert_eq!(exp.cores.len(), 2);
        for c in &exp.cores {
            assert!(c.fault_coverage > 0.9, "{}: {}", c.name, c.fault_coverage);
            assert!(c.patterns > 0);
        }
        assert!(exp.mono_coverage > 0.9);
        // The analysis used a t_mono at least the per-core max.
        assert!(exp.analysis.t_mono() >= exp.soc.max_core_patterns());
        assert!(exp.analysis.t_mono_is_measured());
        // Modular TDV should beat monolithic on this SOC.
        assert!(exp.analysis.reduction_ratio() > 1.0);
    }

    #[test]
    fn experiment_is_deterministic() {
        let netlist = mini_soc(7).unwrap();
        let o = ExperimentOptions::paper_tables_1_2();
        let a = run(&netlist, &o);
        let b = run(&netlist, &o);
        assert_eq!(a.t_mono, b.t_mono);
        assert_eq!(
            a.cores.iter().map(|c| c.patterns).collect::<Vec<_>>(),
            b.cores.iter().map(|c| c.patterns).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_experiment_matches_sequential() {
        let netlist = mini_soc(7).unwrap();
        let sequential = run(&netlist, &ExperimentOptions::paper_tables_1_2());
        for jobs in [0, 2, 4] {
            let parallel = run(
                &netlist,
                &ExperimentOptions::paper_tables_1_2().with_jobs(jobs),
            );
            assert_eq!(parallel.t_mono, sequential.t_mono, "jobs={jobs}");
            assert_eq!(parallel.eq2_strict, sequential.eq2_strict);
            assert_eq!(
                parallel
                    .cores
                    .iter()
                    .map(|c| c.patterns)
                    .collect::<Vec<_>>(),
                sequential
                    .cores
                    .iter()
                    .map(|c| c.patterns)
                    .collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn modular_only_uses_equation_2_bound() {
        let netlist = mini_soc(7).unwrap();
        let guarded = run_soc_experiment_guarded(
            &netlist,
            &ExperimentOptions::paper_tables_1_2().modular_only(),
            &RunBudget::unlimited(),
        )
        .unwrap();
        // The pseudo-stage row is skipped entirely.
        assert!(guarded
            .per_core_outcomes
            .iter()
            .all(|o| o.core != "<monolithic>"));
        let exp = guarded.into_complete().unwrap();
        assert_eq!(exp.t_mono, exp.soc.max_core_patterns());
        assert!(!exp.eq2_strict);
        assert_eq!(exp.mono_coverage, 0.0);
    }

    #[test]
    fn tdf_experiment_end_to_end() {
        let netlist = mini_soc(7).unwrap();
        let exp =
            run_soc_experiment_tdf(&netlist, 200, &ExperimentOptions::paper_tables_1_2()).unwrap();
        assert_eq!(exp.cores.len(), 2);
        for c in &exp.cores {
            assert!(c.patterns > 0, "{}", c.name);
            assert!(c.fault_coverage > 0.5, "{}: {}", c.name, c.fault_coverage);
        }
        assert!(exp.analysis.t_mono() >= exp.soc.max_core_patterns());
        // Equation 6 balances on the at-speed accounting too.
        assert_eq!(
            exp.analysis.monolithic().total() + exp.analysis.penalty() - exp.analysis.benefit(),
            exp.analysis.modular().total()
        );
    }

    #[test]
    fn soc_model_mirrors_netlist_interface() {
        let netlist = mini_soc(3).unwrap();
        let exp = run(&netlist, &ExperimentOptions::paper_tables_1_2());
        let top = exp.soc.find("top").unwrap();
        let t = exp.soc.core(top);
        assert_eq!(t.inputs, netlist.chip_input_count() as u64);
        assert_eq!(t.outputs, netlist.chip_output_count() as u64);
        assert_eq!(
            exp.soc.total_scan_cells(),
            Some(netlist.total_scan_cells() as u64)
        );
    }

    #[test]
    fn injected_core_panic_is_isolated_at_any_job_count() {
        let netlist = mini_soc(7).unwrap();
        let engine = Atpg::new(AtpgOptions::default());
        for jobs in [1, 4] {
            let options = ExperimentOptions::paper_tables_1_2().with_jobs(jobs);
            let completion =
                run_injected(&netlist, &options, &RunBudget::unlimited(), |i, circuit| {
                    if i == 0 {
                        panic!("injected core panic");
                    }
                    engine
                        .run_budgeted(circuit, &RunBudget::unlimited())
                        .map_err(AnalysisError::from)
                })
                .unwrap();
            let failed = completion.failed_cores();
            assert_eq!(failed.len(), 1, "jobs={jobs}");
            assert!(matches!(
                &failed[0].kind,
                CoreOutcomeKind::Failed(CoreFailure::Panicked(m)) if m == "injected core panic"
            ));
            assert_eq!(completion.result.cores.len(), 1);
            let strict = completion.into_complete().unwrap_err();
            assert!(
                matches!(&strict, AnalysisError::Incomplete { core, .. } if *core == netlist.cores()[0].name()),
                "{strict}"
            );
        }
    }

    #[test]
    fn stored_experiment_matches_cold_run_and_skips_recompute() {
        let dir = std::env::temp_dir().join(format!(
            "modsoc_experiment_store_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let netlist = mini_soc(7).unwrap();
        let baseline = run(&netlist, &ExperimentOptions::paper_tables_1_2());

        let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
        let cold = run(&netlist, &options);
        // Cold: 2 cores + monolithic, all misses, all written.
        assert_eq!((store.hits(), store.misses(), store.writes()), (0, 3, 3));
        assert_eq!(cold.t_mono, baseline.t_mono);

        for jobs in [1, 4] {
            let warm = run(&netlist, &options.clone().with_jobs(jobs));
            assert_eq!(warm.t_mono, baseline.t_mono, "jobs={jobs}");
            assert_eq!(
                warm.cores.iter().map(|c| c.patterns).collect::<Vec<_>>(),
                baseline
                    .cores
                    .iter()
                    .map(|c| c.patterns)
                    .collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert_eq!(warm.eq2_strict, baseline.eq2_strict);
        }
        // Two warm runs × 3 units each, no further misses or writes.
        assert_eq!((store.hits(), store.misses(), store.writes()), (6, 3, 3));

        // --no-store-read recomputes (no new hits) but refreshes entries.
        run(&netlist, &options.clone().with_store_read(false));
        assert_eq!(store.hits(), 6);
        assert_eq!(store.writes(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_fast_cancels_in_flight_siblings() {
        let netlist = mini_soc(7).unwrap();
        let options = ExperimentOptions::paper_tables_1_2()
            .with_jobs(1)
            .with_fail_fast(true);
        let budget = RunBudget::unlimited();
        let completion = run_injected(&netlist, &options, &budget, |i, _| {
            if i == 0 {
                return Err(AnalysisError::Soc(modsoc_soc::SocError::Empty));
            }
            // A healthy sibling: would succeed, but fail-fast has already
            // raised the shared cancel flag by the time it runs (jobs=1
            // ⇒ strictly after core 0).
            assert!(budget.is_cancelled(), "sibling sees the cancel flag");
            Err(AnalysisError::Soc(modsoc_soc::SocError::Empty))
        });
        // Both cores failed ⇒ nothing analyzable remains.
        assert!(completion.is_err());
        assert!(budget.is_cancelled());
    }
}
