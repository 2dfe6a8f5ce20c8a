//! Property-based tests for wrapper design and scheduling.

use proptest::prelude::*;

use modsoc_soc::CoreSpec;
use modsoc_tam::schedule::schedule_rectangles;
use modsoc_tam::wrapper::{design_wrapper, WrapperCore};

fn arb_core(i: usize) -> impl Strategy<Value = WrapperCore> {
    (
        0usize..40,
        0usize..40,
        proptest::collection::vec(1usize..200, 0..6),
        1u64..300,
    )
        .prop_map(move |(inputs, outputs, chains, patterns)| {
            WrapperCore::new(format!("c{i}"), inputs, outputs, chains).with_patterns(patterns)
        })
}

fn arb_cores() -> impl Strategy<Value = Vec<WrapperCore>> {
    (1usize..6).prop_flat_map(|n| (0..n).map(arb_core).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wrapper_design_conserves_cells(core in arb_core(0), width in 1usize..10) {
        let d = design_wrapper(&core, width);
        let scan: usize = d.chains().iter().map(|c| c.scan_cells).sum();
        let ins: usize = d.chains().iter().map(|c| c.input_cells).sum();
        let outs: usize = d.chains().iter().map(|c| c.output_cells).sum();
        prop_assert_eq!(scan, core.scan_chains.iter().sum::<usize>());
        prop_assert_eq!(ins, core.inputs);
        prop_assert_eq!(outs, core.outputs);
        prop_assert_eq!(d.chains().len(), width);
    }

    #[test]
    fn wrapper_max_bounded_by_total_and_lower_bound(core in arb_core(0), width in 1usize..10) {
        let d = design_wrapper(&core, width);
        let total_in = core.inputs + core.scan_chains.iter().sum::<usize>();
        // Lower bound: ceil(total / width) or the longest single chain.
        let longest = core.scan_chains.iter().copied().max().unwrap_or(0);
        let lower = longest.max(total_in.div_ceil(width));
        prop_assert!(d.max_scan_in() >= lower.min(total_in));
        prop_assert!(d.max_scan_in() <= total_in);
    }

    #[test]
    fn from_core_spec_chain_sum_matches(scan in 0u64..5000, chains in 1usize..9) {
        let spec = CoreSpec::leaf("x", 3, 3, 0, scan, 10);
        let w = WrapperCore::from_core_spec(&spec, chains);
        prop_assert_eq!(w.scan_chains.iter().sum::<usize>() as u64, scan);
        // Balanced: lengths differ by at most one.
        if let (Some(&max), Some(&min)) =
            (w.scan_chains.iter().max(), w.scan_chains.iter().min())
        {
            prop_assert!(max - min <= 1);
        }
    }

    #[test]
    fn rectangle_schedule_never_oversubscribes(cores in arb_cores(), width in 1usize..8) {
        let s = schedule_rectangles(&cores, width).expect("schedules");
        prop_assert_eq!(s.entries.len(), cores.len());
        let mut events: Vec<u64> = s.entries.iter().flat_map(|e| [e.start, e.end]).collect();
        events.sort_unstable();
        events.dedup();
        for &t in &events {
            let used: usize = s
                .entries
                .iter()
                .filter(|e| e.start <= t && t < e.end)
                .map(|e| e.width)
                .sum();
            prop_assert!(used <= width, "oversubscribed at {}", t);
        }
        prop_assert!(s.utilization() <= 1.0 + 1e-9);
    }

}
