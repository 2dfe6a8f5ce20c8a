//! Content-addressed caching of complete ATPG runs.
//!
//! The experiment pipeline re-solves the same cores constantly: every
//! `modsoc experiment soc2` regenerates the same four circuits from the
//! same seeds and runs the same engine configuration over them. This
//! module gives [`Atpg`] a store-backed entry point,
//! [`Atpg::run_budgeted_stored`], that keys each `(circuit, options)`
//! pair by a SHA-256 content address and fetches the finished result
//! instead of recomputing it.
//!
//! **Key derivation.** [`cache_key`] hashes a context tag
//! ([`CACHE_CONTEXT`]), the circuit's canonical byte serialization
//! ([`modsoc_netlist::canonical_bytes`] — stable under gate-line
//! reordering and renames that preserve name order), and
//! [`options_fingerprint`] — every [`AtpgOptions`] field that influences
//! the generated patterns. `jobs` is deliberately excluded: the engine's
//! results are identical at any thread count, so a result computed at
//! `--jobs 4` is served to a `--jobs 1` run and vice versa.
//!
//! **What is cached.** Only *complete* results (no tripped budget):
//! a partial result is an artifact of one run's time limit, not a
//! property of the circuit. The entry stores the patterns (text form),
//! the run stats, and the run's own metrics (counters + phase call
//! counts, captured through a [`TeeSink`]); on a hit those metrics are
//! *replayed* into the caller's sink so a warm metered report matches a
//! cold one everywhere outside the wall-time fields.
//!
//! **What a hit does not restore.** Per-fault statuses are not stored
//! (they scale with circuit size and nothing downstream of the
//! experiment pipeline reads them); a cache-served result has an empty
//! `fault_statuses` list, while `stats`/`fault_coverage()` are exact.
//! Nor is the full-scan test model rebuilt: a hit's `test_model` is
//! `None` even for a sequential circuit, and the entry's pattern width
//! is checked against the model's input count (primary inputs plus
//! flip-flops) without building it. Callers needing per-fault data or
//! the model should run uncached.

use std::sync::Arc;

use modsoc_metrics::json::JsonValue;
use modsoc_metrics::{Counter, MetricsSink, Phase, RecordingSink, TeeSink};
use modsoc_netlist::{canonical_bytes, Circuit};
use modsoc_store::sha256::Sha256;
use modsoc_store::{ResultStore, StoreKey};

use crate::budget::RunBudget;
use crate::engine::{Atpg, AtpgOptions, AtpgResult, AtpgStats};
use crate::error::AtpgError;
use crate::pattern::{FillStrategy, TestSet};

/// Context tag hashed into every cache key. Bump when the entry layout
/// or replay semantics change: old entries then key-miss instead of
/// being misdecoded.
pub const CACHE_CONTEXT: &str = "modsoc-atpg-cache-v1";

/// Stable fingerprint of the options fields that influence generated
/// patterns. `jobs` is excluded — thread count never changes results
/// (the pool merge is order-preserving), so it must not split the cache.
#[must_use]
pub fn options_fingerprint(options: &AtpgOptions) -> String {
    let fill = match options.fill {
        FillStrategy::Zeros => "zeros".to_string(),
        FillStrategy::Ones => "ones".to_string(),
        FillStrategy::Random { seed } => format!("random:{seed}"),
    };
    format!(
        "bt={};rb={};seed={};fill={};merge={};dyn={};rev={}",
        options.backtrack_limit,
        options.random_batches,
        options.seed,
        fill,
        u8::from(options.merge_cubes),
        u8::from(options.dynamic_compaction),
        u8::from(options.reverse_compaction),
    )
}

/// Content address of an ATPG run: context tag ‖ canonical circuit
/// bytes ‖ options fingerprint, all SHA-256'd.
///
/// # Errors
///
/// Propagates canonicalization failures (combinational cycles).
pub fn cache_key(circuit: &Circuit, options: &AtpgOptions) -> Result<StoreKey, AtpgError> {
    let mut h = Sha256::new();
    h.update(CACHE_CONTEXT.as_bytes());
    h.update(&canonical_bytes(circuit)?);
    h.update(options_fingerprint(options).as_bytes());
    Ok(StoreKey(h.finalize()))
}

const STAT_FIELDS: [&str; 10] = [
    "universe_faults",
    "collapsed_faults",
    "detected",
    "redundant",
    "aborted",
    "random_patterns",
    "deterministic_cubes",
    "repair_patterns",
    "patterns_before_reverse",
    "final_patterns",
];

fn stat_values(stats: &AtpgStats) -> [usize; 10] {
    [
        stats.universe_faults,
        stats.collapsed_faults,
        stats.detected,
        stats.redundant,
        stats.aborted,
        stats.random_patterns,
        stats.deterministic_cubes,
        stats.repair_patterns,
        stats.patterns_before_reverse,
        stats.final_patterns,
    ]
}

/// Serialize a complete result plus its captured run metrics into a
/// store payload.
fn encode_entry(result: &AtpgResult, metrics: &modsoc_metrics::MetricsSnapshot) -> JsonValue {
    let stats = JsonValue::Object(
        STAT_FIELDS
            .iter()
            .zip(stat_values(&result.stats))
            .map(|(name, v)| ((*name).to_string(), JsonValue::Number(v as f64)))
            .collect(),
    );
    // Counters and phase call counts are stored sparsely by name, so
    // entries survive append-only growth of the enums in either
    // direction (unknown names are ignored on replay).
    let counters = JsonValue::Object(
        Counter::ALL
            .iter()
            .filter(|c| metrics.counter(**c) > 0)
            .map(|c| {
                (
                    c.name().to_string(),
                    JsonValue::Number(metrics.counter(*c) as f64),
                )
            })
            .collect(),
    );
    let phase_calls = JsonValue::Object(
        Phase::ALL
            .iter()
            .filter(|p| metrics.phase_calls(**p) > 0)
            .map(|p| {
                (
                    p.name().to_string(),
                    JsonValue::Number(metrics.phase_calls(*p) as f64),
                )
            })
            .collect(),
    );
    JsonValue::Object(vec![
        (
            "width".to_string(),
            JsonValue::Number(result.patterns.width() as f64),
        ),
        (
            "patterns".to_string(),
            JsonValue::String(result.patterns.to_text()),
        ),
        ("stats".to_string(), stats),
        ("counters".to_string(), counters),
        ("phase_calls".to_string(), phase_calls),
    ])
}

fn decode_stats(payload: &JsonValue) -> Option<AtpgStats> {
    let stats = payload.get("stats")?;
    let mut values = [0usize; 10];
    for (slot, name) in values.iter_mut().zip(STAT_FIELDS) {
        *slot = usize::try_from(stats.get(name)?.as_u64()?).ok()?;
    }
    let [universe_faults, collapsed_faults, detected, redundant, aborted, random_patterns, deterministic_cubes, repair_patterns, patterns_before_reverse, final_patterns] =
        values;
    Some(AtpgStats {
        universe_faults,
        collapsed_faults,
        detected,
        redundant,
        aborted,
        random_patterns,
        deterministic_cubes,
        repair_patterns,
        patterns_before_reverse,
        final_patterns,
    })
}

/// Rebuild an [`AtpgResult`] for `circuit` from a store payload.
/// Returns a reason string on any shape mismatch; the caller evicts.
fn decode_entry(
    payload: &JsonValue,
    circuit: &Circuit,
    options: &AtpgOptions,
) -> Result<AtpgResult, String> {
    let width = payload
        .get("width")
        .and_then(JsonValue::as_u64)
        .ok_or("missing width")? as usize;
    // The scan model's inputs: primary inputs, then one per flip-flop.
    let expected_width = circuit.input_count() + circuit.dff_count();
    if width != expected_width {
        return Err(format!(
            "width mismatch: entry {width}, circuit {expected_width}"
        ));
    }
    let text = payload
        .get("patterns")
        .and_then(JsonValue::as_str)
        .ok_or("missing patterns")?;
    let patterns = if text.lines().all(|l| l.trim().is_empty()) {
        TestSet::new(width)
    } else {
        let set = TestSet::from_text(text).map_err(|e| e.to_string())?;
        if set.width() != width {
            return Err(format!(
                "pattern width mismatch: entry says {width}, text has {}",
                set.width()
            ));
        }
        set
    };
    let stats = decode_stats(payload).ok_or("malformed stats")?;
    Ok(AtpgResult {
        patterns,
        fault_statuses: Vec::new(),
        stats,
        fill: options.fill,
        test_model: None,
        exhausted: None,
    })
}

/// Replay the entry's captured run metrics into `sink`: counters are
/// re-added, phase passes re-counted with zero wall time (wall times are
/// outside the determinism contract — a hit costs no solver time and
/// must not pretend otherwise). Names that no longer exist are skipped.
fn replay_metrics(payload: &JsonValue, sink: &dyn MetricsSink) {
    if !sink.enabled() {
        return;
    }
    if let Some(JsonValue::Object(fields)) = payload.get("counters") {
        for (name, value) in fields {
            if let (Some(counter), Some(v)) = (
                Counter::ALL.iter().find(|c| c.name() == name),
                value.as_u64(),
            ) {
                sink.add(*counter, v);
            }
        }
    }
    if let Some(JsonValue::Object(fields)) = payload.get("phase_calls") {
        for (name, value) in fields {
            if let (Some(phase), Some(calls)) =
                (Phase::ALL.iter().find(|p| p.name() == name), value.as_u64())
            {
                for _ in 0..calls {
                    sink.time(*phase, 0);
                }
            }
        }
    }
}

impl Atpg {
    /// Run ATPG through a [`ResultStore`]: fetch the finished result for
    /// this `(circuit, options)` content address when present, otherwise
    /// compute it with [`Atpg::run_budgeted`] and store it for next
    /// time.
    ///
    /// * `read = false` (`--no-store-read`) skips the lookup but still
    ///   writes the computed result — a "repopulate this key" escape
    ///   hatch for a suspect entry.
    /// * Only complete results are written; a budget-tripped partial is
    ///   returned to the caller but never cached.
    /// * A hit replays the original run's counters and phase passes into
    ///   this engine's sink, so metered reports agree with a cold run on
    ///   every deterministic field.
    /// * Store write failures are logged and swallowed — the computed
    ///   result is still returned.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors, exactly as
    /// [`Atpg::run_budgeted`] does.
    pub fn run_budgeted_stored(
        &self,
        circuit: &Circuit,
        budget: &RunBudget,
        store: &ResultStore,
        read: bool,
    ) -> Result<AtpgResult, AtpgError> {
        let key = cache_key(circuit, self.options())?;
        let sink = self.sink_arc();
        if read {
            if let Some(payload) = store.get(&key, &*sink) {
                match decode_entry(&payload, circuit, self.options()) {
                    Ok(result) => {
                        replay_metrics(&payload, &*sink);
                        return Ok(result);
                    }
                    Err(why) => store.evict(&key, &why, &*sink),
                }
            }
        }
        // Miss (or read disabled): compute, capturing the run's own
        // metrics through a tee so the entry can replay them later.
        let capture = Arc::new(RecordingSink::new());
        let tee: Arc<dyn MetricsSink> = Arc::new(TeeSink::new(vec![
            Arc::clone(&capture) as Arc<dyn MetricsSink>,
            Arc::clone(&sink),
        ]));
        let engine = Atpg::with_sink(self.options().clone(), tee);
        let result = engine.run_budgeted(circuit, budget)?;
        if result.is_complete() {
            let payload = encode_entry(&result, &capture.snapshot());
            if let Err(e) = store.put(&key, &payload, &*sink) {
                eprintln!("store: cache write failed for {key}: {e}");
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::NullSink;
    use modsoc_netlist::bench_format::parse_bench;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> (PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!(
            "modsoc_atpg_cache_test_{}_{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        (dir, store)
    }

    fn c17ish() -> Circuit {
        parse_bench(
            "c17ish",
            "
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)
OUTPUT(y1)\nOUTPUT(y2)
n1 = NAND(a, b)
n2 = NAND(c, d)
n3 = NAND(b, n2)
y1 = NAND(n1, n3)
y2 = NAND(n3, e)
",
        )
        .unwrap()
    }

    fn seq_circuit() -> Circuit {
        parse_bench(
            "seq",
            "
INPUT(a)\nINPUT(b)
OUTPUT(q)
f1 = DFF(g1)
f2 = DFF(g2)
g1 = AND(a, f2)
g2 = OR(b, f1)
q = XOR(g1, g2)
",
        )
        .unwrap()
    }

    #[test]
    fn key_is_stable_and_jobs_invariant() {
        let c = c17ish();
        let mut options = AtpgOptions::default();
        let k1 = cache_key(&c, &options).unwrap();
        options.jobs = 8;
        let k2 = cache_key(&c, &options).unwrap();
        assert_eq!(k1, k2, "jobs must not split the cache");
        options.seed ^= 1;
        let k3 = cache_key(&c, &options).unwrap();
        assert_ne!(k1, k3, "seed is part of the identity");
    }

    #[test]
    fn fingerprint_covers_every_result_affecting_field() {
        let base = AtpgOptions::default();
        let fp = options_fingerprint(&base);
        let variants = [
            AtpgOptions {
                backtrack_limit: base.backtrack_limit + 1,
                ..base.clone()
            },
            AtpgOptions {
                random_batches: base.random_batches + 1,
                ..base.clone()
            },
            AtpgOptions {
                seed: base.seed ^ 1,
                ..base.clone()
            },
            AtpgOptions {
                fill: FillStrategy::Zeros,
                ..base.clone()
            },
            AtpgOptions {
                merge_cubes: !base.merge_cubes,
                ..base.clone()
            },
            AtpgOptions {
                dynamic_compaction: !base.dynamic_compaction,
                ..base.clone()
            },
            AtpgOptions {
                reverse_compaction: !base.reverse_compaction,
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(options_fingerprint(&v), fp, "{v:?}");
        }
        // ...and jobs is the one field that must NOT move it.
        let jobs = AtpgOptions { jobs: 7, ..base };
        assert_eq!(options_fingerprint(&jobs), fp);
    }

    #[test]
    fn hit_matches_cold_run() {
        let (dir, store) = temp_store("hit");
        let c = c17ish();
        let engine = Atpg::default();
        let budget = RunBudget::unlimited();
        let cold = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        assert_eq!((store.hits(), store.misses(), store.writes()), (0, 1, 1));
        let warm = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        assert_eq!(store.hits(), 1);
        assert_eq!(warm.patterns.to_text(), cold.patterns.to_text());
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.fault_coverage(), cold.fault_coverage());
        assert!(warm.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequential_hit_checks_the_scan_width_and_builds_no_test_model() {
        let (dir, store) = temp_store("seq");
        let c = seq_circuit();
        let engine = Atpg::default();
        let budget = RunBudget::unlimited();
        let cold = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        let warm = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        assert_eq!(store.hits(), 1);
        assert_eq!(warm.patterns.to_text(), cold.patterns.to_text());
        assert_eq!(warm.stats, cold.stats);
        assert!(cold.test_model.is_some(), "a cold run keeps its scan model");
        assert!(warm.test_model.is_none(), "a hit builds no scan model");
        assert_eq!(
            warm.patterns.width(),
            c.input_count() + c.dff_count(),
            "pattern bits cover inputs + scan cells"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_with_a_width_one_off_is_evicted_and_recomputed() {
        let (dir, store) = temp_store("width");
        let c = seq_circuit();
        let engine = Atpg::default();
        let budget = RunBudget::unlimited();
        let cold = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        let key = cache_key(&c, engine.options()).unwrap();
        let width = c.input_count() + c.dff_count();
        // Checksum-valid entries, consistent in themselves (every pattern
        // has the recorded width), one bit wider or narrower than the
        // circuit's scan width: only the width check can refuse them.
        let reshape = |line: &str, off_width: usize| {
            let mut line = line[..width.min(off_width)].to_string();
            line.extend(std::iter::repeat_n('X', off_width.saturating_sub(width)));
            line
        };
        for (evictions, off_width) in (1..).zip([width + 1, width - 1]) {
            let Some(JsonValue::Object(mut fields)) = store.get(&key, &NullSink) else {
                panic!("the entry is present");
            };
            for (name, value) in &mut fields {
                match (name.as_str(), &*value) {
                    ("width", _) => *value = JsonValue::Number(off_width as f64),
                    ("patterns", JsonValue::String(text)) => {
                        let lines: String =
                            text.lines().map(|l| reshape(l, off_width) + "\n").collect();
                        *value = JsonValue::String(lines);
                    }
                    _ => {}
                }
            }
            store
                .put(&key, &JsonValue::Object(fields), &NullSink)
                .unwrap();
            let again = engine
                .run_budgeted_stored(&c, &budget, &store, true)
                .unwrap();
            assert_eq!(store.evictions(), evictions, "width {off_width} evicted");
            assert_eq!(again.patterns.to_text(), cold.patterns.to_text());
            assert!(again.test_model.is_some(), "recomputed, not served");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_read_recomputes_but_still_writes() {
        let (dir, store) = temp_store("noread");
        let c = c17ish();
        let engine = Atpg::default();
        let budget = RunBudget::unlimited();
        engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        engine
            .run_budgeted_stored(&c, &budget, &store, false)
            .unwrap();
        assert_eq!(store.hits(), 0, "read disabled: no hit recorded");
        assert_eq!(store.writes(), 2, "recomputed entry is rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_results_are_not_cached() {
        let (dir, store) = temp_store("partial");
        let c = c17ish();
        let engine = Atpg::default();
        let budget = RunBudget::unlimited().with_max_patterns(0);
        let result = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        assert!(!result.is_complete());
        assert_eq!(store.writes(), 0, "partial result must not be cached");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_recomputed() {
        let (dir, store) = temp_store("corrupt");
        let c = c17ish();
        let engine = Atpg::default();
        let budget = RunBudget::unlimited();
        let cold = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        // Flip bytes in the entry on disk.
        let key = cache_key(&c, engine.options()).unwrap();
        let path = dir.join("objects").join(format!("{}.json", key.hex()));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("patterns", "patterms")).unwrap();
        let again = engine
            .run_budgeted_stored(&c, &budget, &store, true)
            .unwrap();
        assert_eq!(store.evictions(), 1);
        assert_eq!(again.patterns.to_text(), cold.patterns.to_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_replays_counters_and_phases() {
        let (dir, store) = temp_store("replay");
        let c = c17ish();
        let budget = RunBudget::unlimited();
        let cold_sink = Arc::new(RecordingSink::new());
        Atpg::with_sink(
            AtpgOptions::default(),
            Arc::clone(&cold_sink) as Arc<dyn MetricsSink>,
        )
        .run_budgeted_stored(&c, &budget, &store, true)
        .unwrap();
        let warm_sink = Arc::new(RecordingSink::new());
        Atpg::with_sink(
            AtpgOptions::default(),
            Arc::clone(&warm_sink) as Arc<dyn MetricsSink>,
        )
        .run_budgeted_stored(&c, &budget, &store, true)
        .unwrap();
        let cold = cold_sink.snapshot();
        let warm = warm_sink.snapshot();
        // Engine counters and phase passes agree; only the store's own
        // traffic counters (hit vs miss+write) differ by design.
        for c in Counter::ALL {
            if c.name().starts_with("store_") {
                continue;
            }
            assert_eq!(warm.counter(c), cold.counter(c), "{}", c.name());
        }
        assert_eq!(warm.phase_calls, cold.phase_calls);
        assert_eq!(warm.counter(Counter::StoreHits), 1);
        assert_eq!(cold.counter(Counter::StoreMisses), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_shaped_entry_is_evicted_and_recomputed() {
        let (dir, store) = temp_store("stale");
        let c = c17ish();
        let engine = Atpg::default();
        let key = cache_key(&c, engine.options()).unwrap();
        // A checksum-valid entry whose payload is not a result.
        let bogus = modsoc_metrics::json::parse(r#"{"surprise":true}"#).unwrap();
        store.put(&key, &bogus, &NullSink).unwrap();
        let result = engine
            .run_budgeted_stored(&c, &RunBudget::unlimited(), &store, true)
            .unwrap();
        assert!(result.is_complete());
        assert!(result.stats.collapsed_faults > 0);
        assert_eq!(store.evictions(), 1, "undecodable entry evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
