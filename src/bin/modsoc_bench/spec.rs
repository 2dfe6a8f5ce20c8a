//! The metric and workload definitions in the repository's
//! `BENCHMARK.json`, compiled into the binary so the harness, the
//! result line and `--compare` read one list of names, units, directions and
//! bounds.

use modsoc::metrics::json::{self, JsonValue};

use crate::stats::Better;

/// `BENCHMARK.json`, three directories up from this file.
const SPEC: &str = include_str!("../../../BENCHMARK.json");

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl Metric {
    /// Absolute floor under the relative bound: a set-up of a few
    /// milliseconds sits near the scheduler's resolution, where a
    /// relative bound alone would flag jitter.
    pub fn floor(&self) -> f64 {
        if self.name == "setup_s" {
            0.05
        } else {
            0.0
        }
    }
}

/// The parsed definitions.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parse the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// When the embedded file is malformed — the build then ships a
    /// broken benchmark, which the unit tests catch first.
    pub fn load() -> Spec {
        Spec::parse(SPEC).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("BENCHMARK.json has no '{key}' list"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key} entry without '{f}'"))
                    };
                    let better = match field("better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("unknown direction '{other}'")),
                    };
                    Ok(Metric {
                        name: field("name")?,
                        unit: field("unit")?,
                        better,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or("workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Definition of any metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_consistent() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["soc2_cold", "soc2_warm", "serve_mix", "itc02_survey"]
        );
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
        // At least a tenth; the BENCHMARK.json format admits at most a
        // quarter, so a metric noisier than that cannot be end-to-end.
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.1..=0.25).contains(&bound), "{}: {bound}", m.name);
        }
        let setup = spec.metric("setup_s").expect("setup_s is defined");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert_eq!(setup.floor(), 0.05);
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn parse_rejects_incomplete_specs() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse(
            r#"{"workloads":[],"end_to_end":[{"name":"x","unit":"s","better":"up"}],"per_layer":[]}"#
        )
        .is_err());
    }
}
