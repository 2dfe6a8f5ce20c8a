//! Unit tests of the chaos harness.
//!
//! The harness is test code and lives in the test tree
//! (`tests/chaos/harness.rs`), where the `chaos` integration suite
//! includes it as well; this module includes it for the crate's own unit
//! tests and supplies the pipeline items it drives.

use modsoc_atpg::pool::WorkerPool;
use modsoc_atpg::{Atpg, AtpgOptions};
use modsoc_metrics::NullSink;
use modsoc_netlist::bench_format::parse_bench;
use modsoc_soc::format::parse_soc;

use crate::analysis::SocTdvAnalysis;
use crate::runctl::{analyze_soc_guarded, guard, guard_result, CoreFailure, RunBudget};
use crate::tdv::TdvOptions;

#[path = "../../../tests/chaos/harness.rs"]
mod harness;

mod tests {
    use super::harness::*;

    const BENCH: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nn1 = NAND(a, b)\nn2 = NAND(b, c)\ny = NAND(n1, n2)\n";

    #[test]
    fn corruption_operators_are_deterministic() {
        for op in ALL_CORRUPTIONS {
            let a = op.apply(BENCH, &mut ChaosRng::new(9));
            let b = op.apply(BENCH, &mut ChaosRng::new(9));
            assert_eq!(a, b, "{op:?}");
        }
        assert_eq!(
            corrupt(BENCH, &mut ChaosRng::new(3)),
            corrupt(BENCH, &mut ChaosRng::new(3))
        );
    }

    #[test]
    fn self_loop_operator_creates_cycle_candidate() {
        // Applied to a line with an assignment, the self-loop operator
        // must reference the LHS on its own RHS.
        let src = "y = NAND(a, b)";
        let out = Corruption::SelfLoop.apply(src, &mut ChaosRng::new(0));
        assert!(out.contains("NAND(y"), "{out}");
    }

    #[test]
    fn inflate_number_plants_absurd_value() {
        let src = "core c1 s=12 t=34";
        let out = Corruption::InflateNumber.apply(src, &mut ChaosRng::new(1));
        assert!(out.contains("18446744073709551615"), "{out}");
    }

    #[test]
    fn small_bench_sweep_never_panics() {
        let report = run_bench_chaos(BENCH, 50, 0xC0FFEE, 1);
        assert_eq!(report.cases, 50);
        assert!(report.no_panics(), "{:?}", report.panics);
        assert_eq!(
            report.ok + report.partial + report.typed_errors,
            report.cases
        );
    }

    #[test]
    fn case_rng_streams_are_independent_of_sweep_order() {
        // The derivation only depends on (seed, case), never on how many
        // cases ran before — the property the parallel sweep rests on.
        let a = corrupt(BENCH, &mut case_rng(7, 13));
        let b = corrupt(BENCH, &mut case_rng(7, 13));
        assert_eq!(a, b);
        let other = corrupt(BENCH, &mut case_rng(7, 14));
        // Not a hard guarantee, but these streams diverge immediately.
        assert_ne!(a, other);
    }

    #[test]
    fn parallel_bench_sweep_matches_serial() {
        let serial = run_bench_chaos(BENCH, 40, 0xDECADE, 1);
        for jobs in [2, 4] {
            let parallel = run_bench_chaos(BENCH, 40, 0xDECADE, jobs);
            assert_eq!(parallel.cases, serial.cases, "jobs={jobs}");
            assert_eq!(parallel.panics, serial.panics, "jobs={jobs}");
            // Parse-level classification never depends on scheduling.
            assert_eq!(parallel.typed_errors, serial.typed_errors, "jobs={jobs}");
            // Ok-vs-partial can flip only for wall-clock (timeout) budgets,
            // which are load-dependent even serially; the sum cannot.
            assert_eq!(
                parallel.ok + parallel.partial,
                serial.ok + serial.partial,
                "jobs={jobs}"
            );
        }
    }

    const SOC: &str =
        "soc chaos\ncore top i=8 o=5 b=0 s=0 t=2 children=a,b\ncore a i=4 o=3 b=0 s=20 t=100\ncore b i=2 o=2 b=0 s=10 t=50\n";

    #[test]
    fn parallel_soc_sweep_is_identical_to_serial() {
        // No wall-clock budgets in the `.soc` path: exact report equality.
        let serial = run_soc_chaos(SOC, 60, 0xFEED, 1);
        for jobs in [0, 2, 4] {
            let parallel = run_soc_chaos(SOC, 60, 0xFEED, jobs);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }
}
