//! The measurement loop shared by every workload: repeated set-ups,
//! timed iterations (alternating with traced ones in a traced run),
//! correctness checks, and the result document.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use modsoc::metrics::json::JsonValue;

use crate::spec::Spec;
use crate::stats;
use crate::trace::{self, Tracer};

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Set-up repeats: at least `MIN_SETUPS`, then more until `SETUP_TARGET`
/// seconds were spent or `MAX_SETUPS` ran, so a cheap set-up's median
/// rests on many samples and an expensive one costs three.
const MIN_SETUPS: usize = 3;
const SETUP_TARGET: f64 = 4.0;
const MAX_SETUPS: usize = 500;

/// Samples a tail percentile must have beyond it to be reported as such.
const TAIL_MIN_BEYOND: usize = 10;

/// Layer and name of the span around each traced iteration.
const ROOT_LAYER: &str = "bench";
const ROOT_NAME: &str = "iteration";

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Keep iterating until this many seconds of iterations ran...
    pub seconds: f64,
    /// ...and at least this many timed iterations completed.
    pub min_iterations: usize,
    /// Alternate each timed iteration with a traced one and report the
    /// per-layer metrics.
    pub trace: bool,
    /// Small inputs (mini SOC, 60 requests, one TAM width) for tests.
    pub quick: bool,
    /// Scratch directory the workload may create and fill.
    pub work_dir: PathBuf,
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Wall time of the measured work.
    pub wall: Duration,
    /// Latency of each operation in the iteration, milliseconds.
    pub ops_ms: Vec<f64>,
    /// Operations that errored or failed their check.
    pub failed: u64,
    /// Per-layer values (traced iterations only).
    pub layers: Layers,
}

/// Per-layer values and remarks measured outside the iterations.
#[derive(Debug, Default)]
pub struct Extra {
    pub layers: Layers,
    pub notes: Vec<String>,
}

/// Correctness checks: counts every check, keeps the first failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Build fresh inputs, replacing the previous set-up's, and return
    /// how long that took (tear-down of the previous set-up excluded).
    fn setup(&mut self) -> Result<Duration, String>;

    /// Whether one untimed iteration runs before the timed ones.
    fn warm_up(&self) -> bool {
        false
    }

    /// Run and check one iteration; `root` is the iteration's span. A
    /// disabled tracer must leave the measured calls exactly as a user
    /// would make them.
    fn iterate(
        &mut self,
        tracer: &Tracer,
        root: Option<usize>,
        checks: &mut Checks,
    ) -> Result<Iteration, String>;

    /// Per-layer values measured outside the iterations (traced runs).
    fn extra(&mut self, _tracer: &Tracer, _checks: &mut Checks) -> Result<Extra, String> {
        Ok(Extra::default())
    }
}

/// Time `f` inside a span; returns its value and its wall milliseconds.
pub fn timed<T>(
    tracer: &Tracer,
    layer: &'static str,
    name: &str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.span(layer, name, parent, request, f);
    (out, ms(t.elapsed()))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub trace: bool,
    pub setups_s: Vec<f64>,
    pub walls_s: Vec<f64>,
    /// Operations per timed iteration (the latency sample size).
    pub ops_per_iteration: usize,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub layers: Layers,
    pub traced_iterations: usize,
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

/// Run one workload under `cfg`.
pub fn run(name: &str, w: &mut dyn Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let (min_setups, target) = if cfg.quick {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_TARGET)
    };
    let mut setups_s: Vec<f64> = Vec::new();
    while setups_s.len() < min_setups
        || (setups_s.iter().sum::<f64>() < target && setups_s.len() < MAX_SETUPS)
    {
        setups_s.push(w.setup()?.as_secs_f64());
    }

    let off = Tracer::new(false);
    let tracer = Tracer::new(cfg.trace);
    let mut checks = Checks::default();
    if w.warm_up() && !cfg.quick {
        w.iterate(&off, None, &mut checks)?;
    }
    let mut timed_its = Vec::new();
    let mut traced_its = Vec::new();
    let start = Instant::now();
    while timed_its.len() < cfg.min_iterations.max(1) || start.elapsed().as_secs_f64() < cfg.seconds
    {
        timed_its.push(w.iterate(&off, None, &mut checks)?);
        if cfg.trace {
            let index = traced_its.len() as u64;
            traced_its.push(tracer.span(ROOT_LAYER, ROOT_NAME, None, index, |root| {
                w.iterate(&tracer, root, &mut checks)
            })?);
        }
    }

    let walls =
        |its: &[Iteration]| -> Vec<f64> { its.iter().map(|it| it.wall.as_secs_f64()).collect() };
    let mut layers = Layers::new();
    let mut notes = Vec::new();
    if cfg.trace {
        let keys: BTreeSet<&String> = traced_its.iter().flat_map(|it| it.layers.keys()).collect();
        for key in keys {
            let values: Vec<f64> = traced_its
                .iter()
                .filter_map(|it| it.layers.get(key).copied())
                .collect();
            layers.insert(key.clone(), stats::median(&values).unwrap_or(0.0));
        }
        layers.extend(latency_layers(&timed_its));
        let extra = w.extra(&tracer, &mut checks)?;
        layers.extend(extra.layers);
        notes.extend(extra.notes);
        let timed_wall = stats::median(&walls(&timed_its)).unwrap_or(0.0);
        let traced_wall = stats::median(&walls(&traced_its)).unwrap_or(0.0);
        if timed_wall > 0.0 {
            layers.insert(
                "trace.overhead_pct".to_string(),
                (traced_wall / timed_wall - 1.0) * 100.0,
            );
        }
    }

    let all = || timed_its.iter().chain(&traced_its);
    let op_counts: Vec<f64> = timed_its.iter().map(|it| it.ops_ms.len() as f64).collect();
    Ok(RunResult {
        workload: name.to_string(),
        seed: cfg.seed,
        quick: cfg.quick,
        trace: cfg.trace,
        setups_s,
        walls_s: walls(&timed_its),
        ops_per_iteration: stats::median(&op_counts).unwrap_or(0.0) as usize,
        peak_rss_mb: peak_rss_mb()?,
        attempted: all().map(|it| it.ops_ms.len() as u64).sum(),
        failed: all().map(|it| it.failed).sum(),
        checks,
        layers,
        traced_iterations: traced_its.len(),
        notes,
        spans: tracer.spans(),
    })
}

/// `latency_p50_ms` and `latency_p99_ms`: medians over the timed
/// iterations of each one's operation-latency percentiles. Reported only
/// where every iteration leaves `TAIL_MIN_BEYOND` samples beyond p99
/// (`serve_mix`'s requests): a tail from fewer is one outlier, and with
/// one operation per iteration both would repeat `wall_s`.
fn latency_layers(timed: &[Iteration]) -> Layers {
    let supported = !timed.is_empty()
        && timed.iter().all(|it| {
            stats::tail_percentile(it.ops_ms.len(), TAIL_MIN_BEYOND).is_some_and(|p| p >= 99.0)
        });
    if !supported {
        return Layers::new();
    }
    [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)]
        .into_iter()
        .filter_map(|(name, p)| {
            let per_iteration: Vec<f64> = timed
                .iter()
                .filter_map(|it| stats::percentile(&stats::sorted(&it.ops_ms), p))
                .collect();
            stats::median(&per_iteration).map(|m| (name.to_string(), m))
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.failed == 0
    }

    /// The end-to-end metrics: name, value and the samples it is the
    /// median of.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, Vec<f64>)> {
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        vec![
            ("wall_s", med(&self.walls_s), self.walls_s.clone()),
            ("setup_s", med(&self.setups_s), self.setups_s.clone()),
            ("peak_rss_mb", self.peak_rss_mb, vec![self.peak_rss_mb]),
        ]
    }

    /// The result document `--json` writes and `--compare` reads.
    pub fn to_json(&self, spec: &Spec) -> JsonValue {
        let num = JsonValue::Number;
        let e2e = self
            .end_to_end()
            .into_iter()
            .map(|(name, value, samples)| metric_entry(spec, name, value, Some(samples)))
            .collect();
        let layers = if self.trace {
            self.per_layer(spec)
                .into_iter()
                .map(|(name, value)| metric_entry(spec, name, value, None))
                .collect()
        } else {
            Vec::new()
        };
        JsonValue::Object(vec![
            (
                "workload".to_string(),
                JsonValue::String(self.workload.clone()),
            ),
            ("seed".to_string(), num(self.seed as f64)),
            ("quick".to_string(), JsonValue::Bool(self.quick)),
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            ("attempted".to_string(), num(self.attempted as f64)),
            ("failed".to_string(), num(self.failed as f64)),
            ("checks_passed".to_string(), num(self.checks.passed as f64)),
            (
                "check_failures".to_string(),
                JsonValue::Array(
                    self.checks
                        .failures
                        .iter()
                        .map(|f| JsonValue::String(f.clone()))
                        .collect(),
                ),
            ),
            ("end_to_end".to_string(), JsonValue::Object(e2e)),
            ("per_layer".to_string(), JsonValue::Object(layers)),
        ])
    }

    /// Every per-layer metric `BENCHMARK.json` names, 0 where this
    /// workload does not exercise the layer.
    pub fn per_layer<'s>(&self, spec: &'s Spec) -> Vec<(&'s str, f64)> {
        spec.per_layer
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    self.layers.get(&m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// The one-line result that ends a single-workload run: end-to-end
    /// metrics for an untimed run, per-layer metrics for a traced one.
    pub fn result_line(&self, spec: &Spec) -> String {
        let metrics = if self.trace {
            self.per_layer(spec)
                .into_iter()
                .map(|(n, v)| metric_entry(spec, n, v, None))
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(n, v, _)| metric_entry(spec, n, v, None))
                .collect()
        };
        JsonValue::Object(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::Number(self.attempted as f64),
            ),
            ("failed".to_string(), JsonValue::Number(self.failed as f64)),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ])
        .to_compact()
    }

    /// Human-readable report: every metric with its unit, the sample
    /// counts behind it, and the checks.
    pub fn render(&self, spec: &Spec) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} (seed {}{}): {} timed iterations of {} operation(s), {} set-ups; \
             {} operations, {} failed (failed_frac {}); checks {} passed, {} failed",
            self.workload,
            self.seed,
            if self.quick { ", quick" } else { "" },
            self.walls_s.len(),
            self.ops_per_iteration,
            self.setups_s.len(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.checks.passed,
            self.checks.failed,
        );
        for failure in &self.checks.failures {
            let _ = writeln!(out, "  CHECK FAILED: {failure}");
        }
        for (name, value, samples) in self.end_to_end() {
            let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
            let detail = if name == "peak_rss_mb" {
                "process peak (VmHWM)".to_string()
            } else {
                let [q1, _, q3] = stats::quartiles(&samples).unwrap_or([0.0; 3]);
                format!("median of {}, q1 {q1:.6} q3 {q3:.6}", samples.len())
            };
            let _ = writeln!(out, "  {name:<16} {value:>14.6} {unit:<6} {detail}");
        }
        if self.trace {
            let n = self.ops_per_iteration;
            let tail = match stats::tail_percentile(n, TAIL_MIN_BEYOND) {
                Some(p) => format!("p{p} is the highest percentile with {TAIL_MIN_BEYOND} beyond"),
                None => format!("no percentile has {TAIL_MIN_BEYOND} beyond"),
            };
            let _ = writeln!(
                out,
                "  per-layer metrics (median over {} traced iterations; latencies over \
                 {} timed iterations of {n} operations, {tail}):",
                self.traced_iterations,
                self.walls_s.len(),
            );
            for (name, value) in self.per_layer(spec) {
                let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
                let _ = writeln!(out, "    {name:<36} {value:>14.4} {unit}");
            }
            let by_layer = trace::self_ms_by_layer(&self.spans);
            if !by_layer.is_empty() {
                let cells: Vec<String> = by_layer
                    .iter()
                    .map(|(layer, ms)| format!("{layer} {ms:.1}"))
                    .collect();
                let _ = writeln!(out, "  span self time by layer (ms): {}", cells.join(", "));
            }
            let roots: Vec<f64> = self
                .spans
                .iter()
                .filter(|s| s.layer == ROOT_LAYER && s.name == ROOT_NAME)
                .map(|s| {
                    1.0 - trace::self_time_ns(s, &self.spans) as f64 / s.dur_ns().max(1) as f64
                })
                .collect();
            if let Some(c) = stats::median(&roots) {
                let _ = writeln!(
                    out,
                    "  layer spans cover {:.1}% of the traced iteration wall (median of {})",
                    c * 100.0,
                    roots.len()
                );
            }
            for note in &self.notes {
                let _ = writeln!(out, "  {note}");
            }
        }
        out
    }
}

/// `name: {"value", "unit"[, "samples"]}` for a result document.
fn metric_entry(
    spec: &Spec,
    name: &str,
    value: f64,
    samples: Option<Vec<f64>>,
) -> (String, JsonValue) {
    let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
    let mut fields = vec![
        ("value".to_string(), JsonValue::Number(value)),
        ("unit".to_string(), JsonValue::String(unit.to_string())),
    ];
    if let Some(samples) = samples {
        let samples = samples.into_iter().map(JsonValue::Number).collect();
        fields.push(("samples".to_string(), JsonValue::Array(samples)));
    }
    (name.to_string(), JsonValue::Object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(ops: usize) -> Iteration {
        Iteration {
            ops_ms: (1..=ops).map(|i| i as f64).collect(),
            ..Iteration::default()
        }
    }

    #[test]
    fn latencies_need_ten_samples_beyond_p99() {
        // 1000 operations leave exactly 10 beyond p99 (rank 990).
        let layers = latency_layers(&[iteration(1000), iteration(1000)]);
        assert_eq!(layers.get("latency_p50_ms"), Some(&500.0));
        assert_eq!(layers.get("latency_p99_ms"), Some(&990.0));
        // One operation per iteration, a dozen rows, or one short
        // iteration among long ones: no latency metrics at all.
        for its in [
            (0..5).map(|_| iteration(1)).collect(),
            (0..5).map(|_| iteration(12)).collect(),
            vec![iteration(2000), iteration(999)],
            vec![],
        ] {
            assert!(latency_layers(&its).is_empty());
        }
    }
}
