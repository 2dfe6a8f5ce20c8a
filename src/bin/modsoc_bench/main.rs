//! `modsoc_bench` — the benchmark of the modsoc pipeline, end to end and
//! layer by layer.
//!
//! # Workloads
//!
//! | workload       | what one iteration runs | why |
//! |----------------|-------------------------|-----|
//! | `soc2_cold`    | Table 2 through `run_soc_experiment_guarded`, `--jobs 2`, no store, after one untimed warm-up | the engine does all the work and the monolithic ATPG waits for the modular phase: engine and pipeline changes show here |
//! | `soc2_warm`    | the same experiment against a store set-up filled: five store hits | store, key derivation and JSON codec do all the work and the engine none: engine changes must not move it, store and codec changes move only it |
//! | `serve_mix`    | 2,000 requests from 2 keep-alive callers in a closed loop against an in-process `Server` (2 workers, `batch_max` 4, own store): 40% hot unit, 20% warm pool of 32, 10% fresh units, 20% `/analyze`, 10% oversized | HTTP handling, lanes, coalescing and store traffic dominate; the engine runs only for fresh units |
//! | `itc02_survey` | Table 4 over the ten ITC'02 SOCs plus the correlation, then the TAM packer, the architecture sweep and the power-constrained packer for twelve SOCs at widths 8/16/32/64 | no ATPG, store or HTTP: only TDV and TAM changes move it |
//!
//! The SOC2 workloads run the paper's circuits (generation seed 1) at
//! every `--seed`; the seed drives the serve mix and the units it asks
//! for. `itc02_survey` has no random input.
//!
//! # End-to-end metrics
//!
//! Measured with tracing off. An *operation* is one experiment
//! (`soc2_*`), one request (`serve_mix`) or one SOC's row
//! (`itc02_survey`); an operation fails when it errors or its check
//! fails, and every run reports operations attempted and failed.
//!
//! | metric        | unit | meaning |
//! |---------------|------|---------|
//! | `wall_s`      | s    | median wall time of one iteration (`serve_mix`: 2,000 requests, so req/s = 2000 / `wall_s`) |
//! | `setup_s`     | s    | median of the repeated set-ups: netlist generation, store filling, server bind and prefill, Table 4 reconstruction |
//! | `peak_rss_mb` | MB   | the process's peak resident set (each workload runs in its own process) |
//!
//! `BENCHMARK.json` fixes each metric's direction and the share of the
//! base median by which it may worsen; `--compare` also applies an
//! absolute floor of 0.05 s to `setup_s`. Request latencies did not
//! repeat within a tenth from run to run, so they are per-layer metrics
//! of `serve_mix`, the one workload with enough operations for a p99.
//!
//! # Per-layer metrics
//!
//! A traced run alternates timed and traced iterations and reports, as
//! medians over the traced ones, what each layer did and which
//! end-to-end metric that should move:
//!
//! | layer | metrics | should move |
//! |-------|---------|-------------|
//! | `circuitgen` | `circuitgen.generate_ms` | `setup_s` on the soc2 workloads |
//! | `netlist` | `netlist.flatten_ms`, `netlist.index_build_ms` | `wall_s` on `soc2_cold` |
//! | `netlist` | `netlist.canonical_ms` | `wall_s` on `soc2_warm` |
//! | `atpg` | `atpg.{collapse,random,podem,static_compaction,repair,reverse_compaction,final_accounting}_ms.{cores,mono}` | `wall_s` on `soc2_cold`; nothing elsewhere |
//! | `atpg` | counts `atpg.{podem_calls,podem_backtracks,fault_sim_evals,patterns_final}`; ratios `atpg.{podem_success_ratio,evals_per_detection,reverse_removed_ratio}` | (work and waste, not time) |
//! | `core.experiment` | `experiment.{modular,mono,tdv}_ms`, `experiment.serial_gap_ms` = wall − max(modular, mono) | `wall_s` on `soc2_cold` |
//! | `core.parallel` | `pool.busy_ms.w0`, `pool.busy_ms.w1`, `pool.idle_frac` | `wall_s` on `soc2_cold` |
//! | `store` | `store.{key,load,parse,check,decode}_ms`, `store.entry_bytes`, `store.{hits,misses,evictions,hit_ratio}` | `wall_s` on `soc2_warm` |
//! | `store` | `store.put_ms` | `setup_s` on `soc2_warm`, `wall_s` on `serve_mix` |
//! | client | `latency_p50_ms`, `latency_p99_ms`: medians over the timed iterations of each one's request-latency percentiles over 2,000 requests (20 beyond p99); reported only where at least 10 lie beyond p99 | `wall_s` on `serve_mix` |
//! | `core.serve` | `serve.wait_{light,heavy}_ms` | `latency_p99_ms` on `serve_mix` |
//! | `core.serve` | `serve.request_ms` | `latency_p50_ms` on `serve_mix` |
//! | `core.serve` | `serve.lat_p50_ms.{hot,warm,fresh,analyze,oversized}`, `serve.lat_p95_ms.analyze` | (which class moved) |
//! | `core.serve` | `serve.{coalesce_hits,batches,batched_units,keepalive_reuses,shed,engine_runs,connects}`, `serve.coalesce_ratio` | `wall_s` on `serve_mix` |
//! | `core.reconstruct` | `reconstruct.ms` | `setup_s` on `itc02_survey` |
//! | `core.tdv` | `tdv.analysis_ms` | `wall_s` on `itc02_survey` |
//! | `tam` | `tam.{pack,pack_constrained,sweep}_ms`, `tam.{candidates,backfills,power_rejects}` | `wall_s` on `itc02_survey` |
//! | all | `trace.overhead_pct` (traced vs timed iteration wall) | — |
//!
//! A workload prints 0 for layers it does not exercise. The spans — one
//! per call the benchmark makes into a layer, with parent, thread and
//! request id — go to a Chrome trace (`--trace-out`); the report prints
//! span self time per layer and how much of the iteration the spans
//! cover. The warm store timings replay the hit path step by step
//! through the store's public calls on the same five entries.
//!
//! # Running
//!
//! ```text
//! cargo run --release --bin modsoc_bench                     # every workload, timed then traced
//! cargo run --release --bin modsoc_bench -- --json run.json  # ...and keep the results
//! cargo run --release --bin modsoc_bench -- --workload serve_mix --seed 7 --seconds 10 --trace 0
//! cargo run --release --bin modsoc_bench -- --workload soc2_cold --trace 1 --trace-out cold.trace.json
//! cargo run --release --bin modsoc_bench -- --compare base.json run.json
//! ```
//!
//! Without `--workload`, each workload runs in a child process of its
//! own (so peak RSS is per workload): five timed iterations, then one
//! timed-and-traced pair. `--seconds S` instead keeps iterating, or
//! making pairs, until S seconds passed. A single-workload run ends
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`):
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. `--quick` shrinks the inputs (mini SOC, 1,000 requests,
//! one TAM width). `--compare` marks each workload and end-to-end
//! metric better, same, worse or unresolved (spread wider than the
//! bound) and exits 1 on any worse.
//! `baseline.json` beside this file is a full run at the commit that
//! added the benchmark, on a 2-core x86-64 Linux machine.
//!
//! The same sources also build as a package of their own, which is how
//! `BENCHMARK.json`'s command builds the benchmark from its directory
//! alone: `cargo run --release --manifest-path src/bin/modsoc_bench/Cargo.toml -- …`.
//! Scratch files go to `.modsoc_bench/` in the working directory and
//! are removed on exit.

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod itc02;
mod serve_mix;
mod soc2;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use modsoc::metrics::json::{self, JsonValue};

use crate::harness::{RunConfig, Workload};
use crate::spec::Spec;

/// Timed iterations per workload when no `--seconds` is given.
const DEFAULT_ITERATIONS: usize = 5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    trace_out: Option<String>,
    json: Option<String>,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag} wants a non-negative number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                out.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed wants an integer, got '{v}'"))?,
                );
            }
            "--seconds" => out.seconds = Some(number(value()?)?),
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                });
            }
            "--trace-out" => out.trace_out = Some(value()?),
            "--json" => out.json = Some(value()?),
            "--quick" => out.quick = true,
            "--compare" => out.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument '{other}' (see the module docs)")),
        }
    }
    if out.workload.is_none() && out.trace.is_some() {
        return Err("--trace needs --workload (a full run traces every workload)".to_string());
    }
    Ok(out)
}

fn workload(name: &str, cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
    let dir = cfg.work_dir.clone();
    Ok(match name {
        "soc2_cold" => Box::new(soc2::Soc2Experiment::new(false, cfg.quick, dir)),
        "soc2_warm" => Box::new(soc2::Soc2Experiment::new(true, cfg.quick, dir)),
        "serve_mix" => Box::new(serve_mix::ServeMix::new(cfg.seed, cfg.quick, dir)),
        "itc02_survey" => Box::new(itc02::Itc02Survey::new(cfg.quick)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// A work directory under `.modsoc_bench/` in the working
/// directory, removed (with `.modsoc_bench/` once empty) on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".modsoc_bench")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// One workload in this process; prints its report and the result line.
fn run_workload(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(format!(
            "unknown workload '{name}' (one of {})",
            spec.workloads.join(", ")
        ));
    }
    let work = WorkDir::create(name)?;
    let trace = args.trace.unwrap_or(false);
    let cfg = RunConfig {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(0.0),
        min_iterations: if trace || args.seconds.is_some() {
            1
        } else {
            DEFAULT_ITERATIONS
        },
        trace,
        quick: args.quick,
        work_dir: work.0.clone(),
    };
    let result = {
        let mut w = workload(name, &cfg)?;
        harness::run(name, w.as_mut(), &cfg)?
    };
    print!("{}", result.render(spec));
    if let Some(path) = &args.json {
        write(path, &result.to_json(spec).to_compact())?;
    }
    if let Some(path) = &args.trace_out {
        write(path, &trace::chrome_trace(&result.spans).to_compact())?;
    }
    println!("{}", result.result_line(spec));
    Ok(result.correct())
}

/// `trace.json` → `trace.<workload>.json`.
fn suffixed(path: &str, workload: &str) -> String {
    let p = Path::new(path);
    match (p.file_stem(), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!(
                "{}.{workload}.{}",
                stem.to_string_lossy(),
                ext.to_string_lossy()
            ))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}.{workload}"),
    }
}

/// Every workload, each timed and then traced in a child process.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = WorkDir::create("run")?;
    let seed = args.seed.unwrap_or(1);
    let mut all_ok = true;
    let mut docs = Vec::new();
    for name in &spec.workloads {
        let mut pair = Vec::new();
        for trace in [false, true] {
            let out = work.0.join(format!("{name}-{}.json", u8::from(trace)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--json")
                .arg(&out);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            if let (true, Some(path)) = (trace, &args.trace_out) {
                cmd.args(["--trace-out", &suffixed(path, name)]);
            }
            let status = cmd.status().map_err(|e| format!("running {name}: {e}"))?;
            all_ok &= status.success();
            match std::fs::read_to_string(&out)
                .ok()
                .and_then(|t| json::parse(&t).ok())
            {
                Some(doc) => pair.push(doc),
                None => {
                    all_ok = false;
                    eprintln!(
                        "modsoc_bench: {name} (trace {}) left no result",
                        u8::from(trace)
                    );
                }
            }
        }
        if let [timed, traced] = &pair[..] {
            docs.push(merge(timed, traced));
        }
    }
    println!("\nsummary (seed {seed}):");
    for doc in &docs {
        let get = |k: &str| doc.get(k).cloned().unwrap_or(JsonValue::Null);
        println!(
            "  {:<14} correct {} attempted {} failed {}",
            get("workload").as_str().unwrap_or("?"),
            get("correct").as_bool().unwrap_or(false),
            get("attempted").as_f64().unwrap_or(0.0),
            get("failed").as_f64().unwrap_or(0.0),
        );
        for m in &spec.end_to_end {
            let value = doc
                .get("end_to_end")
                .and_then(|e| e.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            println!("    {:<16} {value:>14.6} {}", m.name, m.unit);
        }
    }
    if let Some(path) = &args.json {
        let doc = JsonValue::Object(vec![
            ("seed".to_string(), JsonValue::Number(seed as f64)),
            ("quick".to_string(), JsonValue::Bool(args.quick)),
            ("workloads".to_string(), JsonValue::Array(docs)),
        ]);
        write(path, &doc.to_compact())?;
    }
    Ok(all_ok)
}

/// The timed run's document with the traced run's per-layer metrics;
/// correctness and operation counts cover both runs.
fn merge(timed: &JsonValue, traced: &JsonValue) -> JsonValue {
    let JsonValue::Object(fields) = timed else {
        return timed.clone();
    };
    let num = |d: &JsonValue, k: &str| d.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let ok = |d: &JsonValue| d.get("correct").and_then(JsonValue::as_bool) == Some(true);
    JsonValue::Object(
        fields
            .iter()
            .map(|(k, v)| {
                let v = match k.as_str() {
                    "correct" => JsonValue::Bool(ok(timed) && ok(traced)),
                    "attempted" | "failed" => JsonValue::Number(num(timed, k) + num(traced, k)),
                    "per_layer" => traced.get(k).cloned().unwrap_or(JsonValue::Null),
                    _ => v.clone(),
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((base, new)) = &args.compare {
            let rows = compare::compare(&spec, base, new)?;
            return Ok(!rows.iter().any(|r| r.2 == stats::Verdict::Worse));
        }
        match &args.workload {
            Some(name) => run_workload(&spec, &args, name),
            None => run_all(&spec, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("modsoc_bench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn quick_run_prints_every_metric_with_its_unit_and_passes_its_checks() {
        let spec = Spec::load();
        let mut measured = BTreeSet::new();
        for name in &spec.workloads {
            let dir = std::env::temp_dir()
                .join(format!("modsoc_bench_quick_{}_{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("work dir");
            let cfg = RunConfig {
                seed: 1,
                seconds: 0.0,
                min_iterations: 1,
                trace: true,
                quick: true,
                work_dir: dir.clone(),
            };
            let result = {
                let mut w = workload(name, &cfg).expect("known workload");
                harness::run(name, w.as_mut(), &cfg)
            };
            let _ = std::fs::remove_dir_all(&dir);
            let mut result = result.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(result.correct(), "{name}: {:?}", result.checks.failures);
            assert!(result.attempted > 0 && result.checks.passed > 0, "{name}");

            let text = result.render(&spec);
            for m in spec.end_to_end.iter().chain(&spec.per_layer) {
                let printed = text.lines().any(|line| {
                    let cells: Vec<&str> = line.split_whitespace().collect();
                    cells.first() == Some(&m.name.as_str())
                        && cells.get(2) == Some(&m.unit.as_str())
                });
                assert!(
                    printed,
                    "{name}: {} [{}] not printed:\n{text}",
                    m.name, m.unit
                );
            }
            for trace in [true, false] {
                result.trace = trace;
                let line = json::parse(&result.result_line(&spec)).expect("result line is JSON");
                let JsonValue::Object(fields) = &line else {
                    panic!("result line is an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let want = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let Some(JsonValue::Object(metrics)) = line.get("metrics") else {
                    panic!("metrics object")
                };
                assert_eq!(metrics.len(), want.len(), "{name} trace={trace}");
                for m in want {
                    let got = line.get("metrics").and_then(|x| x.get(&m.name));
                    let unit = got.and_then(|g| g.get("unit")).and_then(JsonValue::as_str);
                    assert_eq!(unit, Some(m.unit.as_str()), "{name}: {}", m.name);
                    let value = got.and_then(|g| g.get("value")).and_then(JsonValue::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name}: {}", m.name);
                    if !trace {
                        assert!(value.is_some_and(|v| v > 0.0), "{name}: {} is 0", m.name);
                    }
                }
            }
            measured.extend(result.layers.keys().cloned());
        }
        // Every declared per-layer metric is measured by some workload,
        // and no workload measures an undeclared one.
        let declared: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(measured, declared);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("run flags parse");
        assert_eq!(ok.workload.as_deref(), Some("serve_mix"));
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace),
            (Some(7), Some(10.0), Some(true))
        );
        for bad in [
            &["--trace", "2", "--workload", "x"][..],
            &["--trace", "1"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
        assert_eq!(suffixed("out/t.json", "serve_mix"), "out/t.serve_mix.json");
        assert_eq!(suffixed("trace", "soc2_cold"), "trace.soc2_cold");
    }
}
