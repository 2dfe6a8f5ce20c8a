//! The one copy of the metrics determinism filter, shared by the CLI
//! and metrics integration suites.

/// The deterministic part of a metrics report: every line except wall
/// times (`*_ms`), the single-line `sched` objects, the `jobs` field and
/// the store traffic counters (`store_*`, which depend on cache warmth).
/// The serializer puts each volatile field on its own line, so dropping
/// lines drops exactly the volatile subset. Each kept line ends in a
/// newline: `testdata/metrics_{mini,soc2}.golden` hold this form.
pub fn volatile_filtered(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            !(l.contains("_ms\":")
                || l.contains("\"sched\": ")
                || l.contains("\"jobs\": ")
                || l.contains("\"store_"))
        })
        .flat_map(|l| [l, "\n"])
        .collect()
}
