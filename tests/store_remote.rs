//! Acceptance suite for the remote store backend: a `ResultStore` over
//! [`HttpBackend`] speaking to an in-process `modsoc serve --store`
//! daemon must behave observably like one over a local directory — the
//! same corruption taxonomy (server-side damage surfaces as client-side
//! evictions and recompute, never a crash), plus the claim protocol
//! that lets concurrent campaign workers partition units: CAS with one
//! winner under contention, and lease expiry re-offering the units of a
//! killed worker.

use std::sync::Arc;
use std::time::Duration;

use modsoc::analysis::campaign::{run_campaign, CampaignSpec, ClaimOptions, UnitStatus};
use modsoc::analysis::experiment::ExperimentOptions;
use modsoc::analysis::remote::HttpBackend;
use modsoc::analysis::serve::{ServeConfig, Server};
use modsoc::analysis::RunBudget;
use modsoc::metrics::json::JsonValue;
use modsoc::metrics::NullSink;
use modsoc::store::backend::ClaimOutcome;
use modsoc::store::sha256::Sha256;
use modsoc::store::{ResultStore, StoreKey};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("modsoc_store_remote_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Start an in-process serve daemon fronting `store_dir`; returns the
/// address, the server's own store handle (for write-count parity
/// checks) and a shutdown closure.
fn start_daemon(
    store_dir: &std::path::Path,
) -> (
    String,
    Arc<ResultStore>,
    impl FnOnce() -> modsoc::metrics::MetricsSnapshot,
) {
    let store = Arc::new(ResultStore::open(store_dir).expect("open server store"));
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store: Some(Arc::clone(&store)),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, store, move || {
        handle.shutdown();
        join.join().expect("join")
    })
}

fn remote_store(addr: &str) -> ResultStore {
    let backend = HttpBackend::connect(addr, Duration::from_secs(10)).expect("connect");
    ResultStore::with_backend(Arc::new(backend))
}

fn key_of(tag: &str) -> StoreKey {
    let mut h = Sha256::new();
    h.update(tag.as_bytes());
    StoreKey(h.finalize())
}

fn payload(tag: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("tag".to_string(), JsonValue::String(tag.to_string())),
        ("value".to_string(), JsonValue::Number(42.0)),
    ])
}

/// The server-side object file for `key` under `dir`.
fn entry_path(dir: &std::path::Path, key: &StoreKey) -> std::path::PathBuf {
    dir.join("objects").join(format!("{}.json", key.hex()))
}

#[test]
fn remote_roundtrip_is_byte_identical_to_local() {
    let local_dir = temp_dir("parity_local");
    let remote_dir = temp_dir("parity_remote");
    let (addr, _server_store, stop) = start_daemon(&remote_dir);

    let local = ResultStore::open(&local_dir).expect("open local");
    let remote = remote_store(&addr);
    for tag in ["a", "b", "c"] {
        let key = key_of(tag);
        local
            .put(&key, &payload(tag), &NullSink)
            .expect("local put");
        remote
            .put(&key, &payload(tag), &NullSink)
            .expect("remote put");
        // The wire entry lands byte-identical to the local write.
        let on_local = std::fs::read(entry_path(&local_dir, &key)).expect("local bytes");
        let on_remote = std::fs::read(entry_path(&remote_dir, &key)).expect("remote bytes");
        assert_eq!(on_local, on_remote, "{tag}: stored bytes must match");
        // And reads agree.
        assert_eq!(
            local.get(&key, &NullSink),
            remote.get(&key, &NullSink),
            "{tag}"
        );
    }
    assert_eq!(remote.hits(), 3);
    assert_eq!(remote.writes(), 3);
    stop();
}

#[test]
fn server_side_corruption_matches_local_taxonomy() {
    // Each corruption is applied identically to a local store file and
    // to the serve daemon's copy of the same entry; the client-side
    // observables (miss + eviction + entry gone) must match exactly.
    type Corruptor = fn(&mut Vec<u8>);
    let corruptions: &[(&str, Corruptor)] = &[
        ("byte-flip", |b: &mut Vec<u8>| {
            let mid = b.len() / 2;
            b[mid] ^= 0x20;
        }),
        ("truncation", |b: &mut Vec<u8>| {
            b.truncate(b.len() / 2);
        }),
        ("garbage", |b: &mut Vec<u8>| {
            *b = b"not json at all".to_vec();
        }),
        ("emptied", |b: &mut Vec<u8>| {
            b.clear();
        }),
    ];
    let local_dir = temp_dir("corrupt_local");
    let remote_dir = temp_dir("corrupt_remote");
    let (addr, _server_store, stop) = start_daemon(&remote_dir);
    let local = ResultStore::open(&local_dir).expect("open local");
    let remote = remote_store(&addr);

    for (name, corrupt) in corruptions {
        let key = key_of(name);
        local.put(&key, &payload(name), &NullSink).expect("put");
        remote.put(&key, &payload(name), &NullSink).expect("put");
        for dir in [&local_dir, &remote_dir] {
            let path = entry_path(dir, &key);
            let mut bytes = std::fs::read(&path).expect("read entry");
            corrupt(&mut bytes);
            std::fs::write(&path, &bytes).expect("write corruption");
        }
        let evictions_before = (local.evictions(), remote.evictions());
        assert_eq!(local.get(&key, &NullSink), None, "{name}: local miss");
        assert_eq!(remote.get(&key, &NullSink), None, "{name}: remote miss");
        assert_eq!(
            local.evictions(),
            evictions_before.0 + 1,
            "{name}: local eviction"
        );
        assert_eq!(
            remote.evictions(),
            evictions_before.1 + 1,
            "{name}: remote eviction"
        );
        // Damage is gone on both sides; a re-put recomputes cleanly.
        assert!(!entry_path(&local_dir, &key).exists(), "{name}");
        assert!(!entry_path(&remote_dir, &key).exists(), "{name}");
        remote.put(&key, &payload(name), &NullSink).expect("re-put");
        assert!(remote.get(&key, &NullSink).is_some(), "{name}: recomputed");
    }
    stop();
}

#[test]
fn wrong_key_and_wrong_schema_are_evicted_remotely() {
    // Entry contents that parse as JSON but fail envelope validation:
    // stored under key A, claiming key B (or a future schema). The
    // client must evict rather than trust them.
    let remote_dir = temp_dir("envelope");
    let (addr, _server_store, stop) = start_daemon(&remote_dir);
    let remote = remote_store(&addr);
    let key = key_of("envelope");
    remote
        .put(&key, &payload("envelope"), &NullSink)
        .expect("put");
    let path = entry_path(&remote_dir, &key);
    let text = std::fs::read_to_string(&path).expect("read");
    let swapped = text.replace(&key.hex(), &key_of("other").hex());
    assert_ne!(swapped, text, "replacement must hit");
    std::fs::write(&path, swapped).expect("write");
    assert_eq!(remote.get(&key, &NullSink), None, "key mismatch is a miss");
    assert_eq!(remote.evictions(), 1);
    assert!(!path.exists(), "evicted server-side");
    stop();
}

#[test]
fn claim_contention_has_exactly_one_winner() {
    let remote_dir = temp_dir("claim_cas");
    let (addr, _server_store, stop) = start_daemon(&remote_dir);
    let a = remote_store(&addr);
    let b = remote_store(&addr);
    let lease = Duration::from_secs(30);
    let key = key_of("unit").hex();

    let oa = a
        .claim_unit("j", "u1", &key, "worker-a", lease)
        .expect("claim a");
    let ob = b
        .claim_unit("j", "u1", &key, "worker-b", lease)
        .expect("claim b");
    match (&oa, &ob) {
        (ClaimOutcome::Acquired { .. }, ClaimOutcome::Held { owner }) => {
            assert_eq!(owner, "worker-a");
        }
        other => panic!("expected a to win and b to be held, got {other:?}"),
    }
    // Re-claiming one's own live unit renews rather than conflicts.
    assert!(matches!(
        a.claim_unit("j", "u1", &key, "worker-a", lease)
            .expect("renew"),
        ClaimOutcome::Acquired { broke_stale: false }
    ));
    // Release by the loser is refused; release by the winner frees it.
    assert!(matches!(
        b.release_claim("j", "u1", "worker-b").expect("bad release"),
        ClaimOutcome::NotOwner
    ));
    assert!(matches!(
        a.release_claim("j", "u1", "worker-a").expect("release"),
        ClaimOutcome::Released
    ));
    assert!(matches!(
        b.claim_unit("j", "u1", &key, "worker-b", lease)
            .expect("reclaim"),
        ClaimOutcome::Acquired { broke_stale: false }
    ));
    stop();
}

#[test]
fn expired_lease_of_a_killed_worker_is_broken() {
    let remote_dir = temp_dir("claim_lease");
    let (addr, _server_store, stop) = start_daemon(&remote_dir);
    let dead = remote_store(&addr);
    let heir = remote_store(&addr);
    let key = key_of("unit").hex();

    // "Kill" a worker: it claims with a short lease and never renews.
    assert!(matches!(
        dead.claim_unit("j", "u1", &key, "doomed", Duration::from_millis(60))
            .expect("claim"),
        ClaimOutcome::Acquired { .. }
    ));
    // While the lease is live the unit stays held...
    assert!(matches!(
        heir.claim_unit("j", "u1", &key, "heir", Duration::from_millis(60))
            .expect("early"),
        ClaimOutcome::Held { .. }
    ));
    // ...and once it expires, the claim is broken and re-offered.
    std::thread::sleep(Duration::from_millis(200));
    assert!(matches!(
        heir.claim_unit("j", "u1", &key, "heir", Duration::from_millis(60))
            .expect("late"),
        ClaimOutcome::Acquired { broke_stale: true }
    ));
    stop();
}

const SPEC: &str = r#"{
    "schema": 1,
    "name": "remote",
    "units": [
        {"name": "m7", "soc": "mini", "seed": 7},
        {"name": "m9", "soc": "mini", "seed": 9},
        {"name": "m11", "soc": "mini", "seed": 11}
    ]
}"#;

/// Run one claimed worker over the shared spec through its own remote
/// store handle.
fn run_worker(addr: &str, owner: &str) -> modsoc::analysis::CampaignReport {
    let store = Arc::new(remote_store(addr));
    let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
    let claims = ClaimOptions::new(owner)
        .with_lease(Duration::from_secs(10))
        .with_wait(Duration::from_secs(120));
    run_campaign(
        &CampaignSpec::from_json(SPEC).expect("spec"),
        &options,
        &RunBudget::unlimited(),
        &store,
        false,
        &claims,
        &NullSink,
    )
    .expect("claimed campaign")
}

#[test]
fn concurrent_workers_partition_units_with_no_duplicate_work() {
    // Baseline: the same spec against a local store, to know how many
    // engine results a full campaign writes.
    let local_dir = temp_dir("dist_local");
    let local = Arc::new(ResultStore::open(&local_dir).expect("open"));
    let spec = CampaignSpec::from_json(SPEC).expect("spec");
    let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&local));
    let baseline = run_campaign(
        &spec,
        &options,
        &RunBudget::unlimited(),
        &local,
        false,
        &ClaimOptions::default(),
        &NullSink,
    )
    .expect("baseline");
    assert!(baseline.is_complete());
    let baseline_writes = local.writes();

    // Two workers race the spec through one serve daemon.
    let remote_dir = temp_dir("dist_remote");
    let (addr, server_store, stop) = start_daemon(&remote_dir);
    let (ra, rb) = std::thread::scope(|s| {
        let a = s.spawn(|| run_worker(&addr, "worker-a"));
        let b = s.spawn(|| run_worker(&addr, "worker-b"));
        (a.join().expect("a"), b.join().expect("b"))
    });

    // Every unit resolved on both sides, none failed, and between the
    // two reports each unit was *run* exactly once (the other side
    // skipped it from the shared journal or never saw it free).
    for report in [&ra, &rb] {
        assert!(report.is_complete(), "{report:?}");
    }
    for (i, unit) in spec.units.iter().enumerate() {
        let ran = [&ra, &rb]
            .iter()
            .filter(|r| r.units[i].status == UnitStatus::Complete)
            .count();
        assert!(ran <= 1, "unit '{}' ran on both workers", unit.name);
    }
    // Write-count parity: the shared store saw exactly the single-run
    // number of engine writes — nothing was computed twice.
    assert_eq!(
        server_store.writes(),
        baseline_writes,
        "duplicate engine work reached the shared store"
    );
    // The merged journal is complete: a third worker skips everything.
    let resumed = run_worker(&addr, "worker-c");
    assert_eq!(resumed.count(&UnitStatus::Skipped), spec.units.len());
    assert_eq!(server_store.writes(), baseline_writes, "resume recomputed");
    // Reports carry identical numbers to the local baseline.
    for (i, row) in baseline.units.iter().enumerate() {
        assert_eq!(row.t_mono, resumed.units[i].t_mono, "{}", row.unit);
        assert_eq!(row.tdv_modular, resumed.units[i].tdv_modular);
        assert_eq!(row.tdv_monolithic, resumed.units[i].tdv_monolithic);
    }
    // And the store the daemon leaves behind sweeps clean.
    assert_eq!(server_store.verify_all().expect("verify").1, 0);
    stop();
}

#[test]
fn connect_fails_fast_when_daemon_has_no_store() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    let err = HttpBackend::connect(&addr, Duration::from_secs(5))
        .expect_err("must refuse a storeless daemon");
    assert!(
        err.to_string().contains("no --store"),
        "unhelpful error: {err}"
    );
    handle.shutdown();
    join.join().expect("join");
}
