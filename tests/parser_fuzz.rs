//! Parser robustness properties: arbitrary byte-level mutations of
//! valid `.bench`, `.soc` and JSON sources must never panic the parsers —
//! every input either parses or is rejected with a typed error whose
//! `Display` also does not panic. Deeply nested JSON must be rejected,
//! not overflow the stack. A mutated store entry either fails the
//! envelope check or yields exactly the payload that was stored.

use std::sync::OnceLock;

use proptest::prelude::*;

use modsoc::analysis::experiment::ExperimentOptions;
use modsoc::analysis::metrics::run_soc_experiment_metered;
use modsoc::analysis::RunBudget;
use modsoc::atpg::{cache_key, Atpg, AtpgOptions};
use modsoc::circuitgen::soc::mini_soc;
use modsoc::metrics::json;
use modsoc::netlist::bench_format::parse_bench;
use modsoc::soc::format::parse_soc;
use modsoc::store::{validate_entry_doc, RawDoc, ResultStore};

const BASE_BENCH: &str = "# fuzz base
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(q)
f1 = DFF(n2)
n1 = NAND(a, b)
n2 = NOR(b, c)
y = AND(n1, n2)
q = OR(f1, a)
";

const BASE_SOC: &str = "# fuzz base
soc fuzz
core top i=8 o=4 b=1 s=0 t=2 children=a,b
core a i=4 o=2 b=0 s=16 t=40
core b i=2 o=2 b=0 s=8 t=90
";

/// A real metrics report: a metered run of the mini SOC experiment.
fn base_json() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let netlist = mini_soc(7).expect("mini soc builds");
        let options = ExperimentOptions::paper_tables_1_2();
        run_soc_experiment_metered(&netlist, &options, &RunBudget::unlimited())
            .expect("experiment runs")
            .metrics
            .to_json()
    })
}

/// A real store entry: the key and envelope the store wrote for an ATPG
/// result of the base `.bench` circuit, and the payload it holds.
fn base_entry() -> &'static (String, String, json::JsonValue) {
    static ENTRY: OnceLock<(String, String, json::JsonValue)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("modsoc_entry_fuzz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("store opens");
        let circuit = parse_bench("fuzz", BASE_BENCH).expect("base parses");
        let atpg = Atpg::new(AtpgOptions::default());
        atpg.run_budgeted_stored(&circuit, &RunBudget::unlimited(), &store, true)
            .expect("atpg runs");
        let key = cache_key(&circuit, atpg.options()).expect("key").hex();
        let RawDoc::Present(text) = store.load_entry_raw(&key) else {
            panic!("the run stored its result");
        };
        let _ = std::fs::remove_dir_all(&dir);
        let payload = validate_entry_doc(&key, &text).expect("the stored entry validates");
        (key, text, payload)
    })
}

/// Apply `(offset, mutation)` pairs to the base bytes: each mutation
/// XORs a byte, deletes it, or inserts a raw byte before it. The result
/// is deliberately NOT re-validated as UTF-8 — the parsers take `&str`,
/// so we recover a string lossily, which is exactly what a CLI reading a
/// corrupted file would hand them.
fn mutate(base: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for &(offset, op, payload) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = offset % bytes.len();
        match op % 3 {
            0 => bytes[at] ^= payload,
            1 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, payload),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn mutated_bench_never_panics_parser(
        edits in collection::vec((0usize..4096, 0u8..=255, 0u8..=255), 1..24)
    ) {
        let source = mutate(BASE_BENCH, &edits);
        match parse_bench("fuzz", &source) {
            Ok(circuit) => {
                // A surviving parse must produce an internally
                // consistent circuit.
                circuit.validate().expect("parsed circuits validate");
            }
            Err(err) => {
                prop_assert!(!err.to_string().is_empty());
            }
        }
    }

    #[test]
    fn mutated_soc_never_panics_parser(
        edits in collection::vec((0usize..4096, 0u8..=255, 0u8..=255), 1..24)
    ) {
        let source = mutate(BASE_SOC, &edits);
        match parse_soc(&source) {
            Ok(soc) => {
                soc.validate().expect("parsed socs validate");
            }
            Err(err) => {
                prop_assert!(!err.to_string().is_empty());
            }
        }
    }

    #[test]
    fn mutated_json_never_panics_parser(
        edits in collection::vec((0usize..8192, 0u8..=255, 0u8..=255), 1..24)
    ) {
        let source = mutate(base_json(), &edits);
        if let Err(err) = json::parse(&source) {
            prop_assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn mutated_store_entries_never_panic_validation(
        edits in collection::vec((0usize..8192, 0u8..=255, 0u8..=255), 1..24)
    ) {
        let (key, text, payload) = base_entry();
        match validate_entry_doc(key, &mutate(text, &edits)) {
            // The checksum refuses every payload but the stored one.
            Ok(accepted) => prop_assert_eq!(&accepted, payload),
            Err(why) => prop_assert!(!why.is_empty()),
        }
    }

    #[test]
    fn truncations_never_panic_parsers(cut in 0usize..512) {
        let bench = &BASE_BENCH[..cut.min(BASE_BENCH.len())];
        if let Ok(c) = parse_bench("trunc", bench) {
            c.validate().expect("valid");
        }
        let soc = &BASE_SOC[..cut.min(BASE_SOC.len())];
        if let Ok(s) = parse_soc(soc) {
            s.validate().expect("valid");
        }
    }
}

/// Parse `source` on a fresh thread with the default stack size, the
/// stack a request handler or CLI worker thread gets.
fn parse_on_default_stack(source: String) -> Result<json::JsonValue, json::JsonError> {
    std::thread::spawn(move || json::parse(&source))
        .join()
        .expect("parser thread does not panic")
}

#[test]
fn deeply_nested_json_is_rejected_not_a_stack_overflow() {
    for source in [
        "[".repeat(10_000),
        "[".repeat(1_000_000),
        "{\"a\":".repeat(100_000),
    ] {
        let len = source.len();
        let err = parse_on_default_stack(source).expect_err("too deep to accept");
        assert!(err.to_string().contains("nesting"), "{len} bytes: {err}");
    }
    assert!(json::parse(base_json()).is_ok());
}
