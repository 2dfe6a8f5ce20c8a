//! `itc02_survey`: the paper's Table 4 and the TAM packer over the ITC'02
//! SOCs — no ATPG, store or HTTP, so only TDV and TAM changes move it.
//!
//! Set-up builds the inputs: soc1, soc2 and p34392 from their published
//! per-core data, the other nine Table 4 SOCs rebuilt from the table's
//! aggregates by `reconstruct_table4`. One iteration analyses the ten
//! Table 4 SOCs with the normalized standard-deviation correlation, then
//! packs all twelve at TAM widths 8, 16, 32 and 64: the rectangle
//! packer, the architecture sweep's best, and the power-constrained
//! packer at the per-SOC ceiling `BENCH_tam.json` records. The seed does
//! not affect it.

use std::time::{Duration, Instant};

use modsoc::analysis::reconstruct::reconstruct_table4;
use modsoc::analysis::{SocTdvAnalysis, TdvOptions};
use modsoc::metrics::json::{self, JsonValue};
use modsoc::metrics::{Counter, MetricsSink, NullSink, RecordingSink};
use modsoc::soc::itc02;
use modsoc::soc::Soc;
use modsoc::tam::binpack::pack_metered;
use modsoc::tam::constraints::{pack_constrained_metered, power_cores};
use modsoc::tam::optimize::best_at_width;
use modsoc::tam::wrapper::WrapperCore;

use crate::harness::{ms, timed, Checks, Extra, Iteration, Layers, Workload};
use crate::stats::median;
use crate::trace::Tracer;

const WIDTHS: [usize; 4] = [8, 16, 32, 64];
/// Quick mode packs at the one width the reference rows exist for.
const QUICK_WIDTHS: [usize; 1] = [CHECK_WIDTH];
/// Width `tam_pack_bench` records its deterministic fields at.
const CHECK_WIDTH: usize = 16;
const CHAINS_PER_CORE: usize = 8;

/// `tam_pack_bench`'s committed results, three directories up from this
/// file. Its deterministic fields are the reference: any drift means
/// the packer or the sweep now makes different placements.
const TAM_REFERENCE: &str = include_str!("../../../BENCH_tam.json");

/// One SOC's row of `BENCH_tam.json`, at [`CHECK_WIDTH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    pack_time: u64,
    best_time: u64,
    constrained_time: u64,
    backfills: u64,
    /// Concurrent-power ceiling of the constrained packs, at every width.
    ceiling: u64,
}

/// The rows of `BENCH_tam.json` by SOC name.
fn reference_rows() -> Result<Vec<(String, Reference)>, String> {
    let doc = json::parse(TAM_REFERENCE).map_err(|e| format!("BENCH_tam.json: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("BENCH_tam.json has no rows")?;
    rows.iter()
        .map(|row| {
            let soc = row
                .get("soc")
                .and_then(JsonValue::as_str)
                .ok_or("BENCH_tam.json row without 'soc'")?;
            let field = |f: &str| {
                row.get(f)
                    .and_then(JsonValue::as_f64)
                    .map(|v| v as u64)
                    .ok_or(format!("BENCH_tam.json row {soc} without '{f}'"))
            };
            let reference = Reference {
                pack_time: field("pack_time")?,
                best_time: field("best_time")?,
                constrained_time: field("constrained_time")?,
                backfills: field("backfills")?,
                ceiling: field("ceiling")?,
            };
            Ok((soc.to_string(), reference))
        })
        .collect()
}

/// One SOC of the survey.
struct SurveySoc {
    name: &'static str,
    soc: Soc,
    in_table4: bool,
    reference: Reference,
}

pub struct Itc02Survey {
    quick: bool,
    references: Vec<(String, Reference)>,
    /// soc1 and soc2 first, then the Table 4 SOCs.
    socs: Vec<SurveySoc>,
    reconstruct_ms: Vec<f64>,
}

impl Itc02Survey {
    pub fn new(quick: bool) -> Itc02Survey {
        Itc02Survey {
            quick,
            references: Vec::new(),
            socs: Vec::new(),
            reconstruct_ms: Vec::new(),
        }
    }

    fn reference(&self, name: &str) -> Result<Reference, String> {
        self.references
            .iter()
            .find(|(soc, _)| soc == name)
            .map(|(_, r)| *r)
            .ok_or(format!("BENCH_tam.json has no row for {name}"))
    }
}

fn pearson(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pairs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pairs.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    let syy: f64 = pairs.iter().map(|(_, y)| (y - my).powi(2)).sum();
    sxy / (sxx.sqrt() * syy.sqrt())
}

impl Workload for Itc02Survey {
    /// Build the survey's inputs: the SOCs with published per-core data
    /// and the nine rebuilt from Table 4's aggregates.
    fn setup(&mut self) -> Result<Duration, String> {
        if self.references.is_empty() {
            self.references = reference_rows()?;
        }
        let t = Instant::now();
        let mut models = vec![
            ("soc1", itc02::soc1(), false),
            ("soc2", itc02::soc2(), false),
        ];
        let mut rebuilding = Duration::ZERO;
        for row in itc02::table4() {
            let soc = if row.name == "p34392" {
                itc02::p34392()
            } else {
                let r = Instant::now();
                let soc = reconstruct_table4(row)
                    .map_err(|e| format!("reconstructing {}: {e}", row.name))?;
                rebuilding += r.elapsed();
                soc
            };
            models.push((row.name, soc, true));
        }
        let elapsed = t.elapsed();
        self.socs = models
            .into_iter()
            .map(|(name, soc, in_table4)| {
                Ok(SurveySoc {
                    name,
                    soc,
                    in_table4,
                    reference: self.reference(name)?,
                })
            })
            .collect::<Result<_, String>>()?;
        self.reconstruct_ms.push(ms(rebuilding));
        Ok(elapsed)
    }

    fn iterate(
        &mut self,
        tracer: &Tracer,
        root: Option<usize>,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let recording = RecordingSink::new();
        let sink: &dyn MetricsSink = if tracer.enabled() {
            &recording
        } else {
            &NullSink
        };
        let widths: &[usize] = if self.quick { &QUICK_WIDTHS } else { &WIDTHS };
        let tdv = TdvOptions::tables_3_4();
        let mut spent = Layers::new();
        let mut add = |name: &str, v: f64| *spent.entry(name.to_string()).or_insert(0.0) += v;
        let mut pairs = Vec::new();
        let mut ops_ms = Vec::new();
        let mut failed = 0;
        let start = Instant::now();
        for (i, survey) in self.socs.iter().enumerate() {
            let SurveySoc {
                name,
                soc,
                in_table4,
                reference,
            } = survey;
            let req = i as u64;
            let (row, op) = timed(tracer, "bench", name, root, req, |parent| {
                if *in_table4 {
                    let (analysis, t) = timed(
                        tracer,
                        "core.tdv",
                        "SocTdvAnalysis::compute",
                        parent,
                        req,
                        |_| SocTdvAnalysis::compute(soc, &tdv),
                    );
                    add("tdv.analysis_ms", t);
                    let a = analysis.map_err(|e| format!("analysing {name}: {e}"))?;
                    pairs.push((a.pattern_stats().normalized_stdev(), a.modular_change_pct()));
                }
                let cores: Vec<WrapperCore> = soc
                    .iter()
                    .filter(|(_, c)| c.patterns > 0)
                    .map(|(_, c)| WrapperCore::from_core_spec(c, CHAINS_PER_CORE))
                    .collect();
                let powered = power_cores(&cores);
                let ceiling = reference.ceiling;
                let mut ok = true;
                for &w in widths {
                    let (packed, t) = timed(tracer, "tam", "pack_metered", parent, req, |_| {
                        pack_metered(&cores, w, sink)
                    });
                    add("tam.pack_ms", t);
                    let (best, t) = timed(tracer, "tam", "best_at_width", parent, req, |_| {
                        best_at_width(&cores, w)
                    });
                    add("tam.sweep_ms", t);
                    let (constrained, t) = timed(
                        tracer,
                        "tam",
                        "pack_constrained_metered",
                        parent,
                        req,
                        |_| pack_constrained_metered(&powered, w, ceiling, sink),
                    );
                    add("tam.pack_constrained_ms", t);
                    let err = |e: modsoc::tam::TamError| format!("{name} at width {w}: {e}");
                    let (packed, best, constrained) = (
                        packed.map_err(err)?,
                        best.map_err(err)?,
                        constrained.map_err(err)?,
                    );
                    if w == CHECK_WIDTH {
                        let got = Reference {
                            pack_time: packed.makespan(),
                            best_time: best.time,
                            constrained_time: constrained.makespan(),
                            backfills: packed.backfills() as u64,
                            ceiling,
                        };
                        ok &= checks.check(got == *reference, || {
                            format!(
                                "{name} at width {w}: {got:?}, BENCH_tam.json has {reference:?}"
                            )
                        });
                    }
                }
                Ok::<bool, String>(ok)
            });
            ops_ms.push(op);
            if !row? {
                failed += 1;
            }
        }
        let (r, t) = timed(tracer, "core.tdv", "correlation", root, 0, |_| {
            pearson(&pairs)
        });
        add("tdv.analysis_ms", t);
        let wall = start.elapsed();
        if !checks.check(r < 0.0, || {
            format!("pattern-count variation correlates with modular change at r = {r}")
        }) {
            failed += 1;
        }
        let layers = if tracer.enabled() {
            let snap = recording.snapshot();
            let counts = [
                (Counter::TamPackCandidates, "tam.candidates"),
                (Counter::TamPackBackfills, "tam.backfills"),
                (Counter::TamPackPowerRejects, "tam.power_rejects"),
            ]
            .map(|(c, name)| (name.to_string(), snap.counter(c) as f64));
            spent.into_iter().chain(counts).collect()
        } else {
            Layers::new()
        };
        Ok(Iteration {
            wall,
            ops_ms,
            failed,
            layers,
        })
    }

    fn extra(&mut self, _tracer: &Tracer, _checks: &mut Checks) -> Result<Extra, String> {
        let mut extra = Extra::default();
        extra.layers.insert(
            "reconstruct.ms".to_string(),
            median(&self.reconstruct_ms).unwrap_or(0.0),
        );
        Ok(extra)
    }
}
