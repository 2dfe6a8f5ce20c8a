//! Chaos / fault-injection suite for the experiment pipeline: corrupted
//! `.bench`/`.soc` sources and injected run budgets must end in a typed
//! error or a (possibly partial) result — never a panic or a hang.
//!
//! The sweeps run with fixed seeds so a failure names a reproducible case
//! index (`PROPTEST_SEED` does not apply here: the harness in
//! `chaos/harness.rs` has its own deterministic RNG).

use std::time::{Duration, Instant};

use modsoc::analysis::runctl::{
    analyze_soc_guarded, guard, guard_result, CoreFailure, CoreOutcomeKind,
};
use modsoc::analysis::{RunBudget, SocTdvAnalysis, TdvOptions};
use modsoc::atpg::pool::WorkerPool;
use modsoc::atpg::{Atpg, AtpgOptions, ExhaustReason};
use modsoc::metrics::NullSink;
use modsoc::netlist::bench_format::parse_bench;
use modsoc::soc::format::parse_soc;

#[path = "chaos/harness.rs"]
mod harness;

use harness::{run_bench_chaos, run_soc_chaos, ChaosRng, ALL_CORRUPTIONS};

const CHAOS_SEED: u64 = 0x5EED_50C0_DA7A;

const BASE_BENCH: &str = "# chaos base
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
f1 = DFF(n3)
n1 = NAND(a, b)
n2 = NOR(c, d)
n3 = XOR(n1, n2)
y = AND(n3, f1)
z = OR(n1, d)
";

const BASE_SOC: &str = "# chaos base
soc chaos
core top i=12 o=6 b=0 s=0 t=4 children=a,b,c
core a i=6 o=3 b=0 s=24 t=120
core b i=4 o=2 b=1 s=12 t=64
core c i=2 o=2 b=0 s=8 t=30
";

#[test]
fn bench_chaos_sweep_200_cases_no_panics() {
    // Fan the fixed-seed sweep across the pool; per-case RNG derivation
    // keeps every case identical to a serial run.
    let report = run_bench_chaos(BASE_BENCH, 200, CHAOS_SEED, 0);
    assert_eq!(report.cases, 200);
    assert!(report.no_panics(), "panics escaped: {:?}", report.panics);
    // Every case lands in exactly one bucket.
    assert_eq!(report.ok + report.partial + report.typed_errors, 200);
    // With 1-3 corruption ops per case, a healthy mix of rejections and
    // surviving (possibly budget-limited) runs is expected; all three
    // buckets must be exercised or the harness is not really probing.
    assert!(report.typed_errors > 0, "{report:?}");
    assert!(report.ok + report.partial > 0, "{report:?}");
}

#[test]
fn soc_chaos_sweep_200_cases_no_panics() {
    let report = run_soc_chaos(BASE_SOC, 200, CHAOS_SEED, 0);
    assert_eq!(report.cases, 200);
    assert!(report.no_panics(), "panics escaped: {:?}", report.panics);
    assert_eq!(report.ok + report.degraded + report.typed_errors, 200);
    assert!(report.typed_errors > 0, "{report:?}");
    assert!(report.ok + report.degraded > 0, "{report:?}");
}

#[test]
fn chaos_sweeps_are_deterministic_for_a_seed() {
    let a = run_bench_chaos(BASE_BENCH, 40, 1234, 1);
    let b = run_bench_chaos(BASE_BENCH, 40, 1234, 1);
    assert_eq!(a, b);
    let c = run_soc_chaos(BASE_SOC, 40, 1234, 1);
    let d = run_soc_chaos(BASE_SOC, 40, 1234, 1);
    assert_eq!(c, d);
}

/// The pooled sweep classifies exactly the cases the serial sweep does.
/// (`.soc` cases have no wall-clock budgets, so the reports are equal
/// field for field at every job count.)
#[test]
fn parallel_soc_chaos_sweep_matches_serial() {
    let serial = run_soc_chaos(BASE_SOC, 200, CHAOS_SEED, 1);
    for jobs in [2, 4, 8] {
        let parallel = run_soc_chaos(BASE_SOC, 200, CHAOS_SEED, jobs);
        assert_eq!(parallel, serial, "jobs={jobs}");
    }
}

/// Acceptance criterion: a corrupted `.soc` whose poisoned core carries
/// absurd counts still produces TDV rows for the healthy cores plus a
/// typed per-core failure.
#[test]
fn poisoned_soc_core_degrades_not_destroys() {
    let source = "soc wounded
core good_a i=4 o=3 b=0 s=20 t=100
core poisoned i=1 o=1 b=0 s=18446744073709551615 t=18446744073709551615
core good_b i=2 o=2 b=0 s=10 t=50
";
    let soc = parse_soc(source).expect("parses: the counts are valid u64s");
    let completion = analyze_soc_guarded(&soc, &TdvOptions::tables_1_2(), 1, &NullSink);
    assert_eq!(completion.result.len(), 2, "healthy cores keep their rows");
    assert!(completion.result.iter().any(|r| r.name == "good_a"));
    assert!(completion.result.iter().any(|r| r.name == "good_b"));
    let failed = completion.failed_cores();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].core, "poisoned");
    assert!(matches!(
        failed[0].kind,
        CoreOutcomeKind::Failed(CoreFailure::Overflow)
    ));
    assert!(!completion.is_complete());
    // The strict analysis names the same core.
    let err = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_1_2()).unwrap_err();
    assert!(
        err.to_string().contains("core `poisoned` overflows"),
        "{err}"
    );
}

/// Injected budget exhaustion at every limit type terminates the ATPG
/// run with a partial result carrying the matching typed reason.
#[test]
fn injected_budget_exhaustion_terminates_with_typed_partial() {
    let circuit = parse_bench("chaos", BASE_BENCH).expect("valid base");
    let engine = Atpg::new(AtpgOptions::default());

    // Pre-cancelled: nothing runs, partial comes back from setup.
    let budget = RunBudget::unlimited();
    budget.cancel();
    let r = engine.run_budgeted(&circuit, &budget).expect("no error");
    let e = r.exhausted.as_ref().expect("partial");
    assert_eq!(e.reason, ExhaustReason::Cancelled);
    assert_eq!(r.pattern_count(), 0);

    // Expired deadline: must return promptly, not hang.
    let started = Instant::now();
    let budget = RunBudget::unlimited().with_timeout(Duration::ZERO);
    let r = engine.run_budgeted(&circuit, &budget).expect("no error");
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(
        r.exhausted.as_ref().expect("partial").reason,
        ExhaustReason::Deadline
    );

    // Pattern cap: the banked pattern count respects the cap.
    let budget = RunBudget::unlimited().with_max_patterns(1);
    let r = engine.run_budgeted(&circuit, &budget).expect("no error");
    assert_eq!(
        r.exhausted.as_ref().expect("partial").reason,
        ExhaustReason::Patterns
    );
    assert!(r.pattern_count() <= 1, "{}", r.pattern_count());

    // Zero backtrack pool: PODEM aborts its searches but the run still
    // finishes (random-phase patterns need no backtracking, so this may
    // complete rather than trip — both are legal, panicking is not).
    let budget = RunBudget::unlimited().with_max_backtracks(0);
    let r = engine.run_budgeted(&circuit, &budget).expect("no error");
    assert!(r.pattern_count() < 10_000);
}

/// An unlimited budget must reproduce the plain `run` exactly —
/// the budgeted path cannot perturb the published table numbers.
#[test]
fn unlimited_budget_is_identical_to_plain_run() {
    let circuit = parse_bench("chaos", BASE_BENCH).expect("valid base");
    let engine = Atpg::new(AtpgOptions::default());
    let plain = engine.run(&circuit).expect("plain run");
    let budgeted = engine
        .run_budgeted(&circuit, &RunBudget::unlimited())
        .expect("budgeted run");
    assert!(plain.exhausted.is_none());
    assert!(budgeted.exhausted.is_none());
    assert_eq!(plain.pattern_count(), budgeted.pattern_count());
    assert_eq!(plain.fault_coverage(), budgeted.fault_coverage());
    assert_eq!(plain.stats.detected, budgeted.stats.detected);
}

/// Every corruption operator individually keeps the pipeline panic-free
/// (the sweep draws operators randomly; this leaves no operator to
/// chance).
#[test]
fn every_corruption_operator_is_survivable() {
    for op in ALL_CORRUPTIONS {
        for seed in 0..20u64 {
            let mut rng = ChaosRng::new(seed);
            let source = op.apply(BASE_BENCH, &mut rng);
            match parse_bench("op", &source) {
                Ok(c) => {
                    c.validate().expect("parsed circuits validate");
                }
                Err(e) => assert!(!e.to_string().is_empty(), "{op:?}"),
            }
            let mut rng = ChaosRng::new(seed);
            let source = op.apply(BASE_SOC, &mut rng);
            match parse_soc(&source) {
                Ok(s) => {
                    let _ = analyze_soc_guarded(&s, &TdvOptions::tables_3_4(), 1, &NullSink);
                }
                Err(e) => assert!(!e.to_string().is_empty(), "{op:?}"),
            }
        }
    }
}
