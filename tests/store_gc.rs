//! Properties of the size-bounded store GC (`modsoc store gc`):
//! after `gc(max_bytes)` the store fits the bound, every survivor still
//! verifies clean, and a warm consumer recomputes *exactly* the evicted
//! set — no survivor is ever recomputed, no evictee is ever trusted.

use proptest::prelude::*;
use std::sync::Arc;

use modsoc::analysis::campaign::{run_campaign, CampaignSpec, ClaimOptions};
use modsoc::analysis::experiment::ExperimentOptions;
use modsoc::analysis::RunBudget;
use modsoc::metrics::json::JsonValue;
use modsoc::metrics::NullSink;
use modsoc::store::sha256::Sha256;
use modsoc::store::{ResultStore, StoreKey};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("modsoc_store_gc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn key_of(tag: &str) -> StoreKey {
    let mut h = Sha256::new();
    h.update(tag.as_bytes());
    StoreKey(h.finalize())
}

fn payload(tag: &str, bulk: usize) -> JsonValue {
    JsonValue::Object(vec![
        ("tag".to_string(), JsonValue::String(tag.to_string())),
        ("bulk".to_string(), JsonValue::String("x".repeat(bulk))),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gc_bounds_size_and_evicts_exactly_what_it_reports(
        sizes in proptest::collection::vec(0usize..600, 1..14),
        bound_permille in 0u64..1100,
    ) {
        let dir = temp_dir("prop");
        let store = ResultStore::open(&dir).expect("open");
        let mut keys = Vec::new();
        for (i, bulk) in sizes.iter().enumerate() {
            let tag = format!("entry-{i}");
            let key = key_of(&tag);
            store.put(&key, &payload(&tag, *bulk), &NullSink).expect("put");
            keys.push(key);
        }
        let total: u64 = dir.join("objects").read_dir().expect("ls")
            .map(|e| e.expect("entry").metadata().expect("meta").len())
            .sum();
        // Bounds from 0 (evict everything) past the total (no-op).
        let max_bytes = total * bound_permille / 1000;

        let report = store.gc(max_bytes, &NullSink).expect("gc");

        // Size bound holds, and the report is internally consistent.
        prop_assert!(report.kept_bytes <= max_bytes || report.evicted.is_empty());
        prop_assert_eq!(report.scanned, keys.len());
        prop_assert_eq!(report.kept + report.evicted.len(), report.scanned);
        prop_assert_eq!(store.evictions(), report.evicted.len() as u64);

        // Survivors sweep clean; the damage ledger is empty.
        let (valid, corrupt) = store.verify_all().expect("verify");
        prop_assert_eq!(valid, report.kept);
        prop_assert_eq!(corrupt, 0);

        // A warm consumer misses exactly the evicted set and hits all
        // survivors — recompute cost equals what GC chose to drop.
        for key in &keys {
            let evicted = report.evicted.contains(&key.hex());
            prop_assert_eq!(store.get(key, &NullSink).is_none(), evicted, "{}", key.hex());
        }
        prop_assert_eq!(store.misses(), report.evicted.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn campaign_after_gc_recomputes_only_the_evicted_entries() {
    let dir = temp_dir("campaign");
    let store = Arc::new(ResultStore::open(&dir).expect("open"));
    let spec = CampaignSpec::from_json(
        r#"{"schema":1,"name":"gc","units":[{"name":"m","soc":"mini","seed":7}]}"#,
    )
    .expect("spec");
    let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
    let budget = RunBudget::unlimited();
    let claims = ClaimOptions::default();
    run_campaign(&spec, &options, &budget, &store, false, &claims, &NullSink).expect("cold run");
    let cold_writes = store.writes();
    assert!(cold_writes >= 3, "2 cores + monolithic cached");

    // Evict everything but the largest-that-fits suffix: keep roughly
    // half the store.
    let total: u64 = dir
        .join("objects")
        .read_dir()
        .expect("ls")
        .map(|e| e.expect("entry").metadata().expect("meta").len())
        .sum();
    let report = store.gc(total / 2, &NullSink).expect("gc");
    let evicted = report.evicted.len() as u64;
    assert!(evicted > 0, "half-size bound must evict something");
    assert!(report.kept > 0, "half-size bound must keep something");

    // Force the unit to re-run (journals are never GC'd — drop it by
    // hand) and confirm the warm run recomputes exactly the evicted
    // entries: misses == evicted, hits == kept, writes grow by evicted.
    std::fs::remove_dir_all(dir.join("journals")).expect("drop journal");
    std::fs::create_dir_all(dir.join("journals")).expect("recreate");
    let (hits_before, misses_before) = (store.hits(), store.misses());
    let report2 =
        run_campaign(&spec, &options, &budget, &store, false, &claims, &NullSink).expect("warm");
    assert!(report2.is_complete());
    assert_eq!(
        store.misses() - misses_before,
        evicted,
        "misses must equal evictions"
    );
    assert_eq!(
        store.hits() - hits_before,
        report.kept as u64,
        "survivors all hit"
    );
    assert_eq!(store.writes(), cold_writes + evicted, "recompute bound");
    let _ = std::fs::remove_dir_all(&dir);
}
