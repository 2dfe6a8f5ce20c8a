//! `--compare base.json new.json`: one row per workload and end-to-end
//! metric, judged against the bounds in `BENCHMARK.json`.

use modsoc::metrics::json::{self, JsonValue};

use crate::spec::Spec;
use crate::stats::{self, Verdict};

/// The workload documents in a result file: a full run's `workloads`
/// list, or a single workload's document.
fn workloads(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    match doc.get("workloads").and_then(JsonValue::as_array) {
        Some(list) => Ok(list.to_vec()),
        None if doc.get("workload").is_some() => Ok(vec![doc]),
        None => Err(format!("{path} is not a modsoc_bench result")),
    }
}

fn samples(doc: &JsonValue, metric: &str) -> Vec<f64> {
    doc.get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(JsonValue::as_array)
        .map(|s| s.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

/// Print the comparison table; returns the rows as `(workload, metric,
/// verdict)`.
pub fn compare(
    spec: &Spec,
    base_path: &str,
    new_path: &str,
) -> Result<Vec<(String, String, Verdict)>, String> {
    let base = workloads(base_path)?;
    let new = workloads(new_path)?;
    let name = |d: &JsonValue| {
        d.get("workload")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    let mut rows = Vec::new();
    for n in &new {
        let workload = name(n);
        let Some(b) = base.iter().find(|b| name(b) == workload) else {
            println!("{workload:<14} (not in {base_path})");
            continue;
        };
        for m in &spec.end_to_end {
            let (bs, ns) = (samples(b, &m.name), samples(n, &m.name));
            let bound = m.bound.unwrap_or(0.0);
            let verdict = stats::verdict(&bs, &ns, m.better, bound, m.floor());
            let (bm, nm) = (stats::median(&bs), stats::median(&ns));
            let change = match (bm, nm) {
                (Some(b), Some(n)) if b != 0.0 => format!("{:+.1}%", (n / b - 1.0) * 100.0),
                _ => "-".to_string(),
            };
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
            println!(
                "{workload:<14} {:<16} {:>14} {:>14} {change:>9} {:>6.0}%  {} ({} {} samples)",
                m.name,
                show(bm),
                show(nm),
                bound * 100.0,
                verdict.label(),
                m.unit,
                ns.len(),
            );
            rows.push((workload.clone(), m.name.clone(), verdict));
        }
    }
    Ok(rows)
}
