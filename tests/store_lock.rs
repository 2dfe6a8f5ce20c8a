//! Store contention: two `modsoc` processes sharing one store directory
//! must serialize writes through the advisory locks and merge journal
//! updates instead of losing them, and two campaign workers over one
//! local store must split the units through claims.

use std::process::Command;
use std::sync::Arc;

use modsoc::analysis::campaign::{run_campaign, CampaignSpec, ClaimOptions, UnitStatus};
use modsoc::analysis::experiment::ExperimentOptions;
use modsoc::analysis::{CampaignReport, RunBudget};
use modsoc::metrics::NullSink;
use modsoc::store::ResultStore;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("modsoc_store_lock_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn campaign_spec() -> &'static str {
    r#"{
  "schema": 1,
  "name": "contention",
  "units": [
    {"name": "u1", "soc": "mini", "seed": 1},
    {"name": "u2", "soc": "mini", "seed": 2},
    {"name": "u3", "soc": "mini", "seed": 3}
  ]
}"#
}

#[test]
fn two_campaign_processes_share_one_store_without_corruption() {
    let dir = temp_dir("two_campaigns");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, campaign_spec()).expect("write spec");
    let store_dir = dir.join("store");

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_modsoc"))
            .args([
                "campaign",
                spec.to_str().expect("utf8"),
                "--store",
                store_dir.to_str().expect("utf8"),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn campaign")
    };
    // Two writers race over the same units, entries and journal.
    let mut a = spawn();
    let mut b = spawn();
    let sa = a.wait().expect("a exits");
    let sb = b.wait().expect("b exits");
    // Either order of completion is fine; both must succeed (exit 0 —
    // each process sees every unit complete, whether it computed the
    // unit itself or found the other's journal entry).
    assert!(sa.success(), "first campaign: {sa}");
    assert!(sb.success(), "second campaign: {sb}");

    // A third run must find everything journaled and skip all units.
    let third = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--store",
            store_dir.to_str().expect("utf8"),
        ])
        .output()
        .expect("third run");
    assert!(third.status.success(), "{third:?}");
    let stdout = String::from_utf8_lossy(&third.stdout);
    for unit in ["u1", "u2", "u3"] {
        assert!(stdout.contains(unit), "unit {unit} missing:\n{stdout}");
    }
    assert_eq!(
        stdout.matches("skipped").count(),
        3,
        "all three units must resume from the journal:\n{stdout}"
    );

    // No torn objects, no leaked locks.
    let store = ResultStore::open(&store_dir).expect("reopen");
    let (valid, corrupt) = store.verify_all().expect("sweep");
    assert_eq!(corrupt, 0, "{valid} valid, {corrupt} corrupt");
    assert!(valid > 0, "the campaigns must have written entries");
    let locks: Vec<_> = std::fs::read_dir(store_dir.join("locks"))
        .expect("locks dir")
        .flatten()
        .collect();
    assert!(
        locks.is_empty(),
        "locks must be released after clean exits: {locks:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One in-process campaign worker over the store at `dir`: its report
/// and the engine writes its own store handle made.
fn local_worker(dir: &std::path::Path, owner: &str) -> (CampaignReport, u64) {
    let spec = CampaignSpec::from_json(campaign_spec()).expect("spec");
    let store = Arc::new(ResultStore::open(dir).expect("open store"));
    let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
    let report = run_campaign(
        &spec,
        &options,
        &RunBudget::unlimited(),
        &store,
        false,
        &ClaimOptions::new(owner),
        &NullSink,
    )
    .expect("campaign");
    (report, store.writes())
}

#[test]
fn two_local_workers_split_one_campaign_without_duplicate_work() {
    let single = temp_dir("claims_single");
    let (_, single_writes) = local_worker(&single, "solo");
    let dir = temp_dir("claims_shared");
    let ((ra, wa), (rb, wb)) = std::thread::scope(|s| {
        let a = s.spawn(|| local_worker(&dir, "w1"));
        let b = s.spawn(|| local_worker(&dir, "w2"));
        (a.join().expect("w1"), b.join().expect("w2"))
    });
    // Both workers see every unit done, and each unit ran on at most one
    // of them: the other skipped it from the shared journal.
    assert!(ra.is_complete() && rb.is_complete(), "{ra:?}\n{rb:?}");
    for (a, b) in ra.units.iter().zip(&rb.units) {
        let ran = [a, b]
            .iter()
            .filter(|u| u.status == UnitStatus::Complete)
            .count();
        assert!(ran <= 1, "unit '{}' ran on both workers", a.unit);
    }
    assert_eq!(
        wa + wb,
        single_writes,
        "two workers must write exactly what one run writes"
    );
    let claims: Vec<_> = std::fs::read_dir(dir.join("claims"))
        .expect("claims dir")
        .flatten()
        .collect();
    assert!(claims.is_empty(), "claims must be released: {claims:?}");
    let _ = std::fs::remove_dir_all(&single);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_and_sidecar_campaign_share_one_store() {
    use modsoc::analysis::serve::http_request;
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    let dir = temp_dir("daemon_sidecar");
    let store_dir = dir.join("store");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, campaign_spec()).expect("write spec");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--store",
            store_dir.to_str().expect("utf8"),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(daemon.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("listen line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .expect("address")
        .to_string();

    // The sidecar campaign writes units u1..u3 while the daemon serves
    // overlapping units (same seeds, so the same content keys) — every
    // entry write for a shared key goes through the same advisory lock.
    let mut campaign = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--store",
            store_dir.to_str().expect("utf8"),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn campaign");
    for seed in [1u64, 2, 3] {
        let body = format!("{{\"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 20000}}");
        let resp = http_request(
            &addr,
            "POST",
            "/experiment",
            Some(&body),
            Duration::from_secs(60),
        )
        .expect("served experiment");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    assert!(campaign.wait().expect("campaign exits").success());
    let shutdown =
        http_request(&addr, "POST", "/shutdown", None, Duration::from_secs(10)).expect("shutdown");
    assert_eq!(shutdown.status, 200);
    assert!(daemon.wait().expect("daemon exits").success());

    let store = ResultStore::open(&store_dir).expect("reopen");
    let (valid, corrupt) = store.verify_all().expect("sweep");
    assert_eq!(corrupt, 0, "{valid} valid, {corrupt} corrupt");
    assert!(valid > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
