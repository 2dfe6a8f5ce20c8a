//! `soc2_cold` and `soc2_warm`: the paper's Table 2 experiment.
//!
//! Both run the modular-vs-monolithic pipeline on SOC2 at `--jobs 2`.
//! Cold computes every ATPG run; warm serves all five (four cores and the
//! flattened design) from a result store that set-up filled, so it times
//! key derivation, entry reads and the JSON codec instead of the engine.
//! The circuits are the paper's at every `--seed`: other generation
//! seeds change the ATPG work by about ±20%, which would drown the
//! bounds, and the committed report digest pins these circuits.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use modsoc::analysis::experiment::{
    run_soc_experiment_guarded, run_soc_experiment_guarded_full, ExperimentOptions, SocExperiment,
};
use modsoc::analysis::report::{render_core_table, render_outcome_table};
use modsoc::analysis::{AnalysisError, Completion, RunBudget};
use modsoc::atpg::{cache_key, Atpg, AtpgResult, TestSet};
use modsoc::circuitgen::soc::{mini_soc, soc2};
use modsoc::circuitgen::SocNetlist;
use modsoc::metrics::json::{self, JsonValue};
use modsoc::metrics::{Counter, MetricsSink, MetricsSnapshot, NullSink, Phase, RecordingSink};
use modsoc::netlist::{canonical_bytes, Circuit};
use modsoc::store::{payload_check, sha256, RawDoc, ResultStore};

use crate::harness::{ms, timed, Checks, Extra, Iteration, Layers, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Generation seed of the paper's SOC2 (and of the quick-mode mini SOC).
const PAPER_SEED: u64 = 1;
/// SHA-256 of the report for SOC2 at seed 1 — byte for byte the stdout
/// of `modsoc experiment soc2` (T = 83/200/410/378, T_mono = 686).
const SOC2_REPORT_SHA256: &str = "9e5fb990b4cd500e89e13e730005765c2e4b0117dd79f5d14339d5f2882d1dfd";
/// The same for `modsoc experiment mini` (quick mode).
const MINI_REPORT_SHA256: &str = "f66d2b7eb4b368b566a834a3f8817379055f0f7856f75c2503c0195f5a404a01";
/// Engine jobs: the machine's two cores.
const JOBS: usize = 2;
/// Coverage at or above this prints as 100.00%.
const FULL_COVERAGE: f64 = 0.99995;

/// ATPG phases reported per layer, with their metric stems.
const ATPG_PHASES: [(Phase, &str); 7] = [
    (Phase::FaultCollapse, "collapse"),
    (Phase::RandomPhase, "random"),
    (Phase::PodemPhase, "podem"),
    (Phase::StaticCompaction, "static_compaction"),
    (Phase::CoverageRepair, "repair"),
    (Phase::ReverseCompaction, "reverse_compaction"),
    (Phase::FinalAccounting, "final_accounting"),
];

pub struct Soc2Experiment {
    warm: bool,
    quick: bool,
    work_dir: PathBuf,
    setups: usize,
    netlist: Option<SocNetlist>,
    store: Option<(Arc<ResultStore>, PathBuf)>,
    /// The cold report the warm iterations must reproduce.
    reference: Option<String>,
    generate_ms: Vec<f64>,
    traced_walls_ms: Vec<f64>,
}

impl Soc2Experiment {
    pub fn new(warm: bool, quick: bool, work_dir: PathBuf) -> Soc2Experiment {
        Soc2Experiment {
            warm,
            quick,
            work_dir,
            setups: 0,
            netlist: None,
            store: None,
            reference: None,
            generate_ms: Vec::new(),
            traced_walls_ms: Vec::new(),
        }
    }

    fn options(&self) -> ExperimentOptions {
        let options = ExperimentOptions::paper_tables_1_2().with_jobs(JOBS);
        match &self.store {
            Some((store, _)) => options.with_store(Arc::clone(store)),
            None => options,
        }
    }

    fn netlist(&self) -> Result<&SocNetlist, String> {
        self.netlist
            .as_ref()
            .ok_or("iterate before setup".to_string())
    }

    fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.as_ref().map(|(s, _)| s)
    }

    /// One experiment through the metered seam: every engine run gets
    /// its own recording sink and span, the pipeline its own sink; the
    /// flatten and dispatch spans are placed from the pipeline's phase
    /// timings, since both run inside the single call.
    fn traced_run(
        &self,
        tracer: &Tracer,
        root: Option<usize>,
    ) -> Result<(Completion<SocExperiment>, Duration, Layers), String> {
        let netlist = self.netlist()?;
        let options = self.options();
        let budget = RunBudget::unlimited();
        let pipeline = RecordingSink::new();
        let core_sinks: Vec<Arc<RecordingSink>> = (0..netlist.cores().len())
            .map(|_| Arc::new(RecordingSink::new()))
            .collect();
        let mono_sink = Arc::new(RecordingSink::new());
        let engine_run = |sink: &Arc<RecordingSink>, circuit: &Circuit| {
            let engine = Atpg::with_sink(
                options.atpg.clone(),
                Arc::clone(sink) as Arc<dyn MetricsSink>,
            );
            match self.store() {
                Some(store) => engine.run_budgeted_stored(circuit, &budget, store, true),
                None => engine.run_budgeted(circuit, &budget),
            }
            .map_err(AnalysisError::from)
        };
        let call = if self.store.is_some() {
            "Atpg::run_budgeted_stored"
        } else {
            "Atpg::run_budgeted"
        };
        let experiment = tracer.reserve();
        let dispatch = tracer.reserve();
        let mono_start = Cell::new(None);
        let start_ns = tracer.now_ns();
        let t = Instant::now();
        let completion = run_soc_experiment_guarded_full(
            netlist,
            &options,
            &budget,
            &pipeline,
            |i, circuit| {
                tracer.span(
                    "atpg",
                    &format!("{call} {}", circuit.name()),
                    dispatch,
                    0,
                    |_| engine_run(&core_sinks[i], circuit),
                )
            },
            |flat| -> Result<AtpgResult, AnalysisError> {
                mono_start.set(Some(tracer.now_ns()));
                tracer.span(
                    "atpg",
                    &format!("{call} <monolithic>"),
                    experiment,
                    0,
                    |_| engine_run(&mono_sink, flat),
                )
            },
        )
        .map_err(|e| e.to_string())?;
        let wall = t.elapsed();
        let end_ns = tracer.now_ns();

        let pipe = pipeline.snapshot();
        let nanos = |p: Phase| pipe.phase_nanos[p.index()];
        tracer.record(
            dispatch,
            "core.parallel",
            "WorkerPool::map_with_sink",
            experiment,
            0,
            start_ns,
            start_ns + nanos(Phase::ModularDispatch),
        );
        if let Some(at) = mono_start.get() {
            let flatten = nanos(Phase::Flatten);
            tracer.record(
                None,
                "netlist",
                "SocNetlist::flatten",
                experiment,
                0,
                at.saturating_sub(flatten),
                at,
            );
        }
        tracer.record(
            experiment,
            "core.experiment",
            "run_soc_experiment_guarded_full",
            root,
            0,
            start_ns,
            end_ns,
        );

        let mut cores = MetricsSnapshot::default();
        for sink in &core_sinks {
            cores.absorb(&sink.snapshot());
        }
        let mono = mono_sink.snapshot();
        let mut all = cores.clone();
        all.absorb(&mono);
        let mut layers = Layers::new();
        for (phase, stem) in ATPG_PHASES {
            layers.insert(format!("atpg.{stem}_ms.cores"), cores.phase_ms(phase));
            layers.insert(format!("atpg.{stem}_ms.mono"), mono.phase_ms(phase));
        }
        let count = |c: Counter| all.counter(c) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        for (counter, name) in [
            (Counter::PodemCalls, "atpg.podem_calls"),
            (Counter::PodemBacktracks, "atpg.podem_backtracks"),
            (Counter::FaultSimFaultEvals, "atpg.fault_sim_evals"),
            (Counter::PatternsFinal, "atpg.patterns_final"),
        ] {
            layers.insert(name.to_string(), count(counter));
        }
        layers.insert(
            "atpg.podem_success_ratio".to_string(),
            ratio(count(Counter::PodemTests), count(Counter::PodemCalls)),
        );
        layers.insert(
            "atpg.evals_per_detection".to_string(),
            ratio(
                count(Counter::FaultSimFaultEvals),
                count(Counter::FaultSimDetections),
            ),
        );
        let removed = count(Counter::ReverseCompactionRemoved);
        layers.insert(
            "atpg.reverse_removed_ratio".to_string(),
            ratio(removed, removed + count(Counter::PatternsFinal)),
        );
        layers.insert(
            "netlist.flatten_ms".to_string(),
            pipe.phase_ms(Phase::Flatten),
        );
        layers.insert(
            "netlist.index_build_ms".to_string(),
            all.phase_ms(Phase::IndexBuild),
        );
        let modular = pipe.phase_ms(Phase::ModularDispatch);
        let mono_ms = pipe.phase_ms(Phase::MonolithicAtpg);
        layers.insert("experiment.modular_ms".to_string(), modular);
        layers.insert("experiment.mono_ms".to_string(), mono_ms);
        layers.insert(
            "experiment.tdv_ms".to_string(),
            pipe.phase_ms(Phase::TdvAnalysis),
        );
        layers.insert(
            "experiment.serial_gap_ms".to_string(),
            ms(wall) - modular.max(mono_ms),
        );
        let mut busy = [0.0; JOBS];
        for row in &pipe.workers {
            if let Some(b) = busy.get_mut(row.worker) {
                *b += row.busy_nanos as f64 / 1e6;
            }
        }
        for (w, b) in busy.iter().enumerate() {
            layers.insert(format!("pool.busy_ms.w{w}"), *b);
        }
        let capacity = JOBS as f64 * modular;
        layers.insert(
            "pool.idle_frac".to_string(),
            ratio(capacity - busy.iter().sum::<f64>(), capacity),
        );
        Ok((completion, wall, layers))
    }
}

/// The report exactly as `modsoc experiment` prints it.
fn render_report(c: &Completion<SocExperiment>) -> String {
    let exp = &c.result;
    format!(
        "{}\nmonolithic ATPG: T_mono = {} (max core {}), coverage {:.2}%, eq.2 strict: {}\n\n{}\n",
        render_core_table(&exp.soc, &exp.analysis),
        exp.t_mono,
        exp.soc.max_core_patterns(),
        exp.mono_coverage * 100.0,
        exp.eq2_strict,
        render_outcome_table(&c.per_core_outcomes)
    )
}

fn store_counts(store: Option<&Arc<ResultStore>>) -> [u64; 3] {
    store.map_or([0; 3], |s| [s.hits(), s.misses(), s.evictions()])
}

impl Workload for Soc2Experiment {
    fn setup(&mut self) -> Result<Duration, String> {
        let previous = self.store.take();
        let t = Instant::now();
        let g = Instant::now();
        let netlist = if self.quick {
            mini_soc(PAPER_SEED)
        } else {
            soc2(PAPER_SEED)
        }
        .map_err(|e| e.to_string())?;
        self.generate_ms.push(ms(g.elapsed()));
        self.netlist = Some(netlist);
        if self.warm {
            let dir = self.work_dir.join(format!("store-{}", self.setups));
            let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
            self.store = Some((Arc::new(store), dir));
            let completion = run_soc_experiment_guarded(
                self.netlist()?,
                &self.options(),
                &RunBudget::unlimited(),
            )
            .map_err(|e| e.to_string())?;
            self.reference = Some(render_report(&completion));
        }
        let elapsed = t.elapsed();
        self.setups += 1;
        if let Some((_, dir)) = previous {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(elapsed)
    }

    fn warm_up(&self) -> bool {
        !self.warm
    }

    fn iterate(
        &mut self,
        tracer: &Tracer,
        root: Option<usize>,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let before = store_counts(self.store());
        let (completion, wall, mut layers) = if tracer.enabled() {
            self.traced_run(tracer, root)?
        } else {
            let options = self.options();
            let t = Instant::now();
            let completion =
                run_soc_experiment_guarded(self.netlist()?, &options, &RunBudget::unlimited())
                    .map_err(|e| e.to_string())?;
            (completion, t.elapsed(), Layers::new())
        };
        let after = store_counts(self.store());
        let [hits, misses, evictions] = [0, 1, 2].map(|i| (after[i] - before[i]) as f64);

        let report = render_report(&completion);
        let exp = &completion.result;
        let expected = if self.quick {
            MINI_REPORT_SHA256
        } else {
            SOC2_REPORT_SHA256
        };
        let digest = sha256::hex(&sha256::digest(report.as_bytes()));
        let mut ok = checks.check(completion.is_complete(), || {
            "experiment did not complete every stage".to_string()
        });
        ok &= checks.check(digest == expected, || {
            format!("report digest {digest} differs from the committed {expected}")
        });
        ok &= checks.check(exp.eq2_strict, || "Equation 2 is not strict".to_string());
        let coverages = completion
            .per_core_outcomes
            .iter()
            .map(|o| o.fault_coverage.unwrap_or(0.0));
        ok &= checks.check(
            coverages
                .chain([exp.mono_coverage])
                .all(|c| c >= FULL_COVERAGE),
            || "fault coverage below 100%".to_string(),
        );
        ok &= checks.check(
            exp.analysis.modular().total() < exp.analysis.monolithic().total(),
            || "modular TDV does not beat monolithic TDV".to_string(),
        );
        if let Some(reference) = &self.reference {
            let entries = self.netlist()?.cores().len() as f64 + 1.0;
            ok &= checks.check(&report == reference, || {
                "warm report differs from the cold one".to_string()
            });
            ok &= checks.check(
                hits == entries && misses == 0.0 && evictions == 0.0,
                || format!("store traffic {hits} hits, {misses} misses, {evictions} evictions; want {entries} hits only"),
            );
        }
        if tracer.enabled() {
            self.traced_walls_ms.push(ms(wall));
            let lookups = hits + misses;
            layers.insert("store.hits".to_string(), hits);
            layers.insert("store.misses".to_string(), misses);
            layers.insert("store.evictions".to_string(), evictions);
            layers.insert(
                "store.hit_ratio".to_string(),
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            );
        }
        Ok(Iteration {
            wall,
            ops_ms: vec![ms(wall)],
            failed: u64::from(!ok),
            layers,
        })
    }

    /// Set-up cost per layer, and for warm the store hit path replayed
    /// step by step through the store's public calls on the same five
    /// entries: key derivation, raw read, JSON parse, checksum, pattern
    /// decode — plus the write each entry cost when set-up filled it.
    fn extra(&mut self, tracer: &Tracer, checks: &mut Checks) -> Result<Extra, String> {
        let mut extra = Extra::default();
        extra.layers.insert(
            "circuitgen.generate_ms".to_string(),
            median(&self.generate_ms).unwrap_or(0.0),
        );
        let Some(store) = self.store().cloned() else {
            return Ok(extra);
        };
        let netlist = self.netlist()?;
        let mut circuits: Vec<Circuit> = netlist.cores().to_vec();
        circuits.push(netlist.flatten().map_err(|e| e.to_string())?);
        let atpg = self.options().atpg;
        let replay_dir = self.work_dir.join("put-replay");
        let _ = std::fs::remove_dir_all(&replay_dir);
        let replay = ResultStore::open(&replay_dir).map_err(|e| e.to_string())?;
        let mut steps = Layers::new();
        let mut add =
            |name: &str, value: f64| *steps.entry(name.to_string()).or_insert(0.0) += value;
        let replayed = tracer.span("bench", "store hit path", None, 0, |parent| {
            for (i, circuit) in circuits.iter().enumerate() {
                let req = i as u64;
                let name = circuit.name();
                let (key, t) = timed(tracer, "store", "cache_key", parent, req, |_| {
                    cache_key(circuit, &atpg)
                });
                add("store.key_ms", t);
                let key = key.map_err(|e| e.to_string())?;
                let (_, t) = timed(tracer, "netlist", "canonical_bytes", parent, req, |_| {
                    std::hint::black_box(canonical_bytes(circuit))
                });
                add("netlist.canonical_ms", t);
                let (raw, t) = timed(tracer, "store", "load_entry_raw", parent, req, |_| {
                    store.load_entry_raw(&key.hex())
                });
                add("store.load_ms", t);
                let RawDoc::Present(text) = raw else {
                    return Err(format!("no store entry for {name}"));
                };
                add("store.entry_bytes", text.len() as f64);
                let (doc, t) = timed(tracer, "store", "json::parse", parent, req, |_| {
                    json::parse(&text)
                });
                add("store.parse_ms", t);
                let doc = doc.map_err(|e| format!("entry for {name}: {e}"))?;
                let payload = doc
                    .get("payload")
                    .ok_or(format!("entry for {name} has no payload"))?;
                let (check, t) = timed(tracer, "store", "payload_check", parent, req, |_| {
                    payload_check(payload)
                });
                add("store.check_ms", t);
                checks.check(
                    doc.get("check").and_then(JsonValue::as_str) == Some(check.as_str()),
                    || format!("checksum mismatch in the entry for {name}"),
                );
                let patterns = payload.get("patterns").and_then(JsonValue::as_str);
                let (decoded, t) =
                    timed(tracer, "store", "TestSet::from_text", parent, req, |_| {
                        patterns.map(TestSet::from_text)
                    });
                add("store.decode_ms", t);
                checks.check(matches!(decoded, Some(Ok(_))), || {
                    format!("patterns of {name} do not decode")
                });
                let (put, t) = timed(tracer, "store", "ResultStore::put", parent, req, |_| {
                    replay.put(&key, payload, &NullSink)
                });
                add("store.put_ms", t);
                put.map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&replay_dir);
        replayed?;
        let step = |name: &str| steps.get(name).copied().unwrap_or(0.0);
        let [key_ms, load_ms, parse_ms, check_ms, decode_ms] = [
            "store.key_ms",
            "store.load_ms",
            "store.parse_ms",
            "store.check_ms",
            "store.decode_ms",
        ]
        .map(step);
        let hit_path = key_ms + load_ms + parse_ms + check_ms + decode_ms;
        let wall = median(&self.traced_walls_ms).unwrap_or(0.0);
        extra.notes.push(format!(
            "store hit path replayed on the {} entries: {hit_path:.1} ms = {:.1}% of the \
             traced iteration wall {wall:.1} ms (key {key_ms:.1}, load {load_ms:.1}, \
             parse {parse_ms:.1}, check {check_ms:.1}, decode {decode_ms:.1})",
            circuits.len(),
            100.0 * hit_path / wall.max(f64::MIN_POSITIVE),
        ));
        extra.layers.extend(steps);
        Ok(extra)
    }
}

impl Drop for Soc2Experiment {
    fn drop(&mut self) {
        if let Some((_, dir)) = self.store.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
