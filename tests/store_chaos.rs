//! Store-corruption acceptance suite: truncated or bit-flipped store
//! entries and campaign journals must degrade to a logged eviction and a
//! recompute — never a crash, and never a silently wrong result.
//!
//! The sweeps use a fixed seed so a failure names a reproducible case.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use modsoc::analysis::campaign::{run_campaign, CampaignSpec, UnitStatus};
use modsoc::analysis::experiment::{run_soc_experiment_guarded, ExperimentOptions, SocExperiment};
use modsoc::analysis::RunBudget;
use modsoc::circuitgen::soc::mini_soc;
use modsoc::circuitgen::SocNetlist;
use modsoc::metrics::NullSink;
use modsoc::store::ResultStore;

const CHAOS_SEED: u64 = 0x5EED_CAC4_EBAD;

/// Minimal xorshift so corruption positions are deterministic without
/// pulling in an RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modsoc_store_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn object_files(store_dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store_dir.join("objects"))
        .expect("objects dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

/// Truncate a file to half its length.
fn truncate(path: &Path) {
    let bytes = std::fs::read(path).expect("read entry");
    std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate entry");
}

/// Flip one seed-chosen byte of a file.
fn flip_byte(path: &Path, rng: &mut Rng) {
    let mut bytes = std::fs::read(path).expect("read entry");
    assert!(!bytes.is_empty());
    let idx = (rng.next() % bytes.len() as u64) as usize;
    bytes[idx] ^= 0xFF;
    std::fs::write(path, bytes).expect("write corrupted entry");
}

fn assert_same_experiment(a: &SocExperiment, b: &SocExperiment) {
    assert_eq!(a.t_mono, b.t_mono);
    assert_eq!(a.eq2_strict, b.eq2_strict);
    assert_eq!(
        a.cores.iter().map(|c| c.patterns).collect::<Vec<_>>(),
        b.cores.iter().map(|c| c.patterns).collect::<Vec<_>>()
    );
    assert_eq!(a.analysis.modular().total(), b.analysis.modular().total());
}

fn warm_store(dir: &Path, netlist: &SocNetlist) -> (Arc<ResultStore>, SocExperiment) {
    let store = Arc::new(ResultStore::open(dir).expect("open store"));
    let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
    let exp = run_soc_experiment_guarded(netlist, &options, &RunBudget::unlimited())
        .and_then(|c| c.into_complete())
        .expect("cold run");
    (store, exp)
}

#[test]
fn truncated_store_entries_are_evicted_and_recomputed() {
    let dir = temp_dir("truncate");
    let netlist = mini_soc(7).expect("mini soc");
    let (store, baseline) = warm_store(&dir, &netlist);
    assert_eq!(store.writes(), 3, "2 cores + monolithic cached");
    drop(store);

    let files = object_files(&dir);
    assert_eq!(files.len(), 3);
    for f in &files {
        truncate(f);
    }

    // A fresh process image: every lookup sees a truncated entry, evicts
    // it, recomputes, and rewrites — results identical to the baseline.
    let (store, recomputed) = warm_store(&dir, &netlist);
    assert_same_experiment(&baseline, &recomputed);
    assert_eq!(store.hits(), 0);
    assert_eq!(store.evictions(), 3, "every truncated entry evicted");
    assert_eq!(store.writes(), 3, "every entry refreshed");

    // And the refreshed store serves hits again.
    let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
    let warm = run_soc_experiment_guarded(&netlist, &options, &RunBudget::unlimited())
        .and_then(|c| c.into_complete())
        .expect("warm run");
    assert_same_experiment(&baseline, &warm);
    assert_eq!(store.hits(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_store_entries_fail_checksum_and_recompute() {
    let netlist = mini_soc(7).expect("mini soc");
    let mut rng = Rng(CHAOS_SEED);
    // Sweep several corruption positions; each case corrupts every entry
    // at a different seed-chosen byte.
    for case in 0..5 {
        let dir = temp_dir(&format!("flip{case}"));
        let (store, baseline) = warm_store(&dir, &netlist);
        drop(store);
        for f in &object_files(&dir) {
            flip_byte(f, &mut rng);
        }
        let (store, recomputed) = warm_store(&dir, &netlist);
        assert_same_experiment(&baseline, &recomputed);
        assert_eq!(store.hits(), 0, "case {case}: no corrupt entry may hit");
        // A flip in the payload trips the checksum; a flip in the JSON
        // framing trips the parser; a flip in the recorded key trips the
        // key check. All paths must evict.
        assert_eq!(store.evictions(), 3, "case {case}");
        assert_eq!(store.writes(), 3, "case {case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_campaign_journal_reruns_units_instead_of_crashing() {
    let spec = CampaignSpec::from_json(
        r#"{"schema":1,"name":"chaos","units":[
            {"name":"m7","soc":"mini","seed":7},
            {"name":"m9","soc":"mini","seed":9}
        ]}"#,
    )
    .expect("spec");
    let options = ExperimentOptions::paper_tables_1_2();
    let budget = RunBudget::unlimited();
    for (case, corrupt) in [truncate as fn(&Path), |p: &Path| {
        let mut r = Rng(CHAOS_SEED);
        flip_byte(p, &mut r);
    }]
    .iter()
    .enumerate()
    {
        let dir = temp_dir(&format!("journal{case}"));
        let store = ResultStore::open(&dir).expect("open store");
        let first = run_campaign(&spec, &options, &budget, &store, false, &NullSink)
            .expect("first campaign run");
        assert!(first.is_complete());
        drop(store);

        let journal = dir.join("journals").join("campaign-chaos.json");
        assert!(journal.exists(), "journal written");
        corrupt(&journal);

        // Resume over the corrupt journal: the journal is discarded (one
        // eviction), both units re-run to completion, and the journal is
        // rebuilt — no crash, no skipped-but-wrong rows.
        let store = ResultStore::open(&dir).expect("reopen store");
        let resumed = run_campaign(&spec, &options, &budget, &store, false, &NullSink)
            .expect("resume over corrupt journal");
        assert!(resumed.is_complete(), "case {case}");
        assert_eq!(resumed.units.len(), 2);
        for (a, b) in first.units.iter().zip(&resumed.units) {
            assert_eq!(b.status, UnitStatus::Complete, "case {case}: must re-run");
            assert_eq!(a.t_mono, b.t_mono, "case {case}");
            assert_eq!(a.tdv_modular, b.tdv_modular, "case {case}");
        }
        assert_eq!(store.evictions(), 1, "case {case}: corrupt journal evicted");

        // Third run: the rebuilt journal skips both units again.
        let third = run_campaign(&spec, &options, &budget, &store, false, &NullSink)
            .expect("third campaign run");
        assert!(third.units.iter().all(|u| u.status == UnitStatus::Skipped));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
