//! Transition-delay fault (TDF) test generation, launch-on-capture.
//!
//! At-speed testing targets *slow* gates rather than stuck ones: a
//! slow-to-rise fault at a line delays its 0→1 transition past the
//! functional clock period. Under the launch-on-capture (LOC) scheme on
//! a full-scan design, a TDF test is a scan-loaded state plus held
//! primary inputs; the first functional clock *launches* the transition
//! and the second *captures* its (possibly late) result.
//!
//! Mechanically, LOC reduces to stuck-at machinery on a **two-frame
//! unrolling** of the combinational test model:
//!
//! * frame 1 computes the launch state from `(PI, scan state)`;
//! * frame 2 re-evaluates the logic on `(same PI, launch state)`;
//! * a slow-to-rise TDF at line `s` is detected iff `s = 0` in frame 1
//!   (initialization) and the frame-2 copy of `s` is detected as
//!   stuck-at-0 (the late transition looks stuck for one cycle).
//!
//! The frame-1 initialization is exactly a PODEM side constraint
//! ([`crate::podem::Podem::generate_with_constraints`]).

use modsoc_netlist::{Circuit, GateKind, NodeId, TestModel, TestPoint};

use crate::error::AtpgError;
use crate::fault::Fault;
use crate::fault_sim::{block_active_mask, FaultSimulator, PackedWord, SimBlock, BLOCK_BITS};
use crate::pattern::{FillStrategy, TestSet};
use crate::podem::{Podem, PodemOutcome};

/// A transition-delay fault on a test-model line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// The faulted node in the (single-frame) test model.
    pub site: NodeId,
    /// `true` for slow-to-rise (0→1 delayed), `false` for slow-to-fall.
    pub slow_to_rise: bool,
}

impl TransitionFault {
    /// Render with circuit names, e.g. `g7 slow-to-rise`.
    #[must_use]
    pub fn describe(&self, model: &Circuit) -> String {
        format!(
            "{} slow-to-{}",
            model.node(self.site).name,
            if self.slow_to_rise { "rise" } else { "fall" }
        )
    }
}

/// The two-frame LOC unrolling of a combinational test model.
#[derive(Debug, Clone)]
pub struct TwoFrame {
    /// The unrolled combinational circuit. Inputs: the model's primary
    /// inputs (held over both frames) followed by its scan cells
    /// (frame-1 state). Outputs: the model's frame-2 outputs.
    pub circuit: Circuit,
    /// Frame-1 copy of each model node.
    pub frame1: Vec<NodeId>,
    /// Frame-2 copy of each model node.
    pub frame2: Vec<NodeId>,
}

/// Build the two-frame unrolling of a full-scan test model.
///
/// `model` must be the output of
/// [`Circuit::to_test_model`](modsoc_netlist::Circuit::to_test_model):
/// its inputs are primary inputs followed by scan cells, its outputs
/// primary outputs followed by scan captures. Frame 2's scan inputs are
/// driven by frame 1's capture values; primary inputs are shared
/// (launch-on-capture holds them).
///
/// # Errors
///
/// Propagates circuit construction errors.
pub fn unroll_two_frames(model: &TestModel) -> Result<TwoFrame, AtpgError> {
    let m = &model.circuit;
    let mut out = Circuit::new(format!("{}.loc2", m.name()));
    let order = m.topo_order().map_err(AtpgError::from)?;

    // Shared PIs and frame-1 scan inputs.
    let mut f1: Vec<Option<NodeId>> = vec![None; m.node_count()];
    let mut f2: Vec<Option<NodeId>> = vec![None; m.node_count()];
    for (k, &pi) in m.inputs().iter().enumerate() {
        let name = &m.node(pi).name;
        let shared = out.add_input(name.to_string());
        match model.inputs[k] {
            TestPoint::Primary(_) => {
                // Held over both frames.
                f1[pi.index()] = Some(shared);
                f2[pi.index()] = Some(shared);
            }
            TestPoint::ScanCell(_) => {
                // Frame-1 state input; frame 2's copy is wired to the
                // frame-1 capture below.
                f1[pi.index()] = Some(shared);
            }
        }
    }
    // Frame 1 logic.
    for &id in &order {
        if f1[id.index()].is_some() {
            continue;
        }
        let node = m.node(id);
        let fanin: Vec<NodeId> = node
            .fanin
            .iter()
            .map(|f| f1[f.index()].expect("frame-1 fanin placed"))
            .collect();
        let nid = out
            .add_gate(format!("f1.{}", node.name), node.kind, &fanin)
            .map_err(AtpgError::from)?;
        f1[id.index()] = Some(nid);
    }
    // Frame-2 scan inputs = frame-1 captures (model outputs beyond the
    // primary ones, in scan order).
    let mut capture_iter = model
        .outputs
        .iter()
        .zip(m.outputs())
        .filter(|(p, _)| p.is_scan());
    let scan_inputs: Vec<usize> = model
        .inputs
        .iter()
        .zip(m.inputs())
        .filter(|(p, _)| p.is_scan())
        .map(|(_, id)| id.index())
        .collect();
    for scan_in_index in scan_inputs {
        let (_, &capture_driver) = capture_iter
            .next()
            .expect("one capture per scan cell, same order");
        f2[scan_in_index] = Some(f1[capture_driver.index()].expect("frame-1 capture placed"));
    }
    // Frame 2 logic.
    for &id in &order {
        if f2[id.index()].is_some() {
            continue;
        }
        let node = m.node(id);
        if node.kind == GateKind::Input {
            // A scan input whose frame-2 copy was wired above, or a PI
            // already shared — both handled; reaching here means a scan
            // cell ordering bug.
            unreachable!("frame-2 input not wired: {}", node.name);
        }
        let fanin: Vec<NodeId> = node
            .fanin
            .iter()
            .map(|f| f2[f.index()].expect("frame-2 fanin placed"))
            .collect();
        let nid = out
            .add_gate(format!("f2.{}", node.name), node.kind, &fanin)
            .map_err(AtpgError::from)?;
        f2[id.index()] = Some(nid);
    }
    // Observe frame-2 outputs (POs and captures).
    for &po in m.outputs() {
        out.mark_output(f2[po.index()].expect("frame-2 output placed"));
    }
    out.validate().map_err(AtpgError::from)?;
    Ok(TwoFrame {
        circuit: out,
        frame1: f1.into_iter().map(|x| x.expect("all placed")).collect(),
        frame2: f2.into_iter().map(|x| x.expect("all placed")).collect(),
    })
}

/// Enumerate the transition-fault universe: both polarities on every
/// logic line of the model (inputs and constants excluded — PIs are held
/// in LOC and cannot launch a transition from the scan load alone; they
/// are conventionally covered by launch-on-shift or stuck-at tests).
#[must_use]
pub fn enumerate_transition_faults(model: &Circuit) -> Vec<TransitionFault> {
    model
        .iter()
        .filter(|(_, n)| n.kind.is_logic())
        .flat_map(|(id, _)| {
            [
                TransitionFault {
                    site: id,
                    slow_to_rise: true,
                },
                TransitionFault {
                    site: id,
                    slow_to_rise: false,
                },
            ]
        })
        .collect()
}

/// Result of a transition-fault ATPG run.
#[derive(Debug, Clone)]
pub struct TdfResult {
    /// Test cubes over `(PI, frame-1 scan state)` — the unrolled
    /// circuit's input order.
    pub patterns: TestSet,
    /// Faults detected.
    pub detected: usize,
    /// Faults proven untestable under LOC.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Total faults targeted.
    pub total: usize,
    /// `Some` when a [`RunBudget`](crate::budget::RunBudget) tripped and
    /// the result is partial (untargeted faults count as undetected).
    pub exhausted: Option<crate::budget::BudgetExhausted>,
}

impl TdfResult {
    /// Coverage over LOC-testable faults.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let testable = self.total - self.untestable;
        if testable == 0 {
            return 1.0;
        }
        self.detected as f64 / testable as f64
    }
}

/// Which launch scheme to generate transition tests for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaunchScheme {
    /// Launch-on-capture: frame 2 is the functional image of frame 1.
    #[default]
    Capture,
    /// Launch-on-shift: frame 2 is the scan vector shifted one position
    /// (single chain, declaration order).
    Shift,
}

/// Build the launch-on-shift (LOS) unrolling of a full-scan test model
/// with a **single scan chain** in flip-flop declaration order.
///
/// Under LOS the launch cycle is the last *shift* clock: the frame-2
/// state is the frame-1 scan vector shifted by one position, with a
/// fresh `scan_in` bit entering at chain position 0. Both states are
/// therefore directly controllable (unlike LOC, where frame 2 is the
/// functional image of frame 1) — which is why LOS typically reaches
/// higher transition coverage, at the price of a fast scan-enable.
///
/// The unrolled circuit's inputs are the model's primary inputs (held),
/// the frame-1 scan state, plus the extra `scan_in` bit.
///
/// # Errors
///
/// Propagates circuit construction errors.
pub fn unroll_los(model: &TestModel) -> Result<TwoFrame, AtpgError> {
    let m = &model.circuit;
    let mut out = Circuit::new(format!("{}.los2", m.name()));
    let order = m.topo_order().map_err(AtpgError::from)?;

    let mut f1: Vec<Option<NodeId>> = vec![None; m.node_count()];
    let mut f2: Vec<Option<NodeId>> = vec![None; m.node_count()];
    let mut scan_nodes: Vec<usize> = Vec::new();
    for (k, &pi) in m.inputs().iter().enumerate() {
        let name = &m.node(pi).name;
        let shared = out.add_input(name.to_string());
        match model.inputs[k] {
            TestPoint::Primary(_) => {
                f1[pi.index()] = Some(shared);
                f2[pi.index()] = Some(shared);
            }
            TestPoint::ScanCell(_) => {
                f1[pi.index()] = Some(shared);
                scan_nodes.push(pi.index());
            }
        }
    }
    // The bit shifted in during the launch cycle.
    let scan_in = out.add_input("scan_in".to_string());
    // Frame-2 state: chain position j takes frame-1 position j−1;
    // position 0 takes the fresh scan-in bit.
    for (j, &node_index) in scan_nodes.iter().enumerate() {
        f2[node_index] = Some(if j == 0 {
            scan_in
        } else {
            f1[scan_nodes[j - 1]].expect("frame-1 scan input placed")
        });
    }
    for (frame, prefix) in [(&mut f1, "f1"), (&mut f2, "f2")] {
        for &id in &order {
            if frame[id.index()].is_some() {
                continue;
            }
            let node = m.node(id);
            if node.kind == GateKind::Input {
                unreachable!("input not wired in {prefix}: {}", node.name);
            }
            let fanin: Vec<NodeId> = node
                .fanin
                .iter()
                .map(|f| frame[f.index()].expect("fanin placed"))
                .collect();
            let nid = out
                .add_gate(format!("{prefix}.{}", node.name), node.kind, &fanin)
                .map_err(AtpgError::from)?;
            frame[id.index()] = Some(nid);
        }
    }
    for &po in m.outputs() {
        out.mark_output(f2[po.index()].expect("frame-2 output placed"));
    }
    out.validate().map_err(AtpgError::from)?;
    Ok(TwoFrame {
        circuit: out,
        frame1: f1.into_iter().map(|x| x.expect("all placed")).collect(),
        frame2: f2.into_iter().map(|x| x.expect("all placed")).collect(),
    })
}

/// Generate transition tests for every transition fault of a full-scan
/// circuit (or test model) under the chosen launch scheme.
///
/// The budget is polled between faults and charged per PODEM
/// backtrack; on a trip the remaining faults stay untargeted and
/// [`TdfResult::exhausted`] is set. The whole flow is timed into `sink`
/// as one `tdf` phase, and the fault/detection/pattern totals land on
/// the TDF counters.
///
/// # Errors
///
/// Propagates netlist and test-generation errors.
///
/// # Example
///
/// ```
/// use modsoc_atpg::budget::RunBudget;
/// use modsoc_atpg::tdf::{run_tdf_atpg, LaunchScheme};
/// use modsoc_metrics::NullSink;
/// use modsoc_netlist::bench_format::parse_bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = parse_bench("t", "
/// INPUT(a)\nINPUT(b)\nOUTPUT(y)
/// f1 = DFF(n1)
/// n1 = AND(a, b)
/// y = AND(f1, b)
/// ")?;
/// let budget = RunBudget::unlimited();
/// let result = run_tdf_atpg(&circuit, 200, LaunchScheme::Capture, &budget, &NullSink)?;
/// assert!(result.detected > 0);
/// assert!(!result.patterns.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn run_tdf_atpg(
    circuit: &Circuit,
    backtrack_limit: u32,
    scheme: LaunchScheme,
    budget: &crate::budget::RunBudget,
    sink: &dyn modsoc_metrics::MetricsSink,
) -> Result<TdfResult, AtpgError> {
    use modsoc_metrics::{Counter, Phase, PhaseTimer};
    let result = {
        let _t = PhaseTimer::start(sink, Phase::Tdf);
        // Sequential circuits convert to their full-scan model; a purely
        // combinational design has no launch state, so every TDF comes
        // out untestable (still well-defined).
        let model = circuit.to_test_model().map_err(AtpgError::from)?;
        let two = match scheme {
            LaunchScheme::Capture => unroll_two_frames(&model)?,
            LaunchScheme::Shift => unroll_los(&model)?,
        };
        run_tdf_over(&model, &two, backtrack_limit, budget)?
    };
    sink.add(Counter::TdfFaults, result.total as u64);
    sink.add(Counter::TdfDetected, result.detected as u64);
    sink.add(Counter::TdfPatterns, result.patterns.len() as u64);
    if result.exhausted.is_some() {
        sink.add(Counter::BudgetTrips, 1);
    }
    Ok(result)
}

fn run_tdf_over(
    model: &TestModel,
    two: &TwoFrame,
    backtrack_limit: u32,
    budget: &crate::budget::RunBudget,
) -> Result<TdfResult, AtpgError> {
    let faults = enumerate_transition_faults(&model.circuit);
    // The unrolled circuit's structural index is shared between the
    // generator and the simulator.
    let sindex = std::sync::Arc::new(modsoc_netlist::StructuralIndex::build(&two.circuit)?);
    let mut podem = Podem::with_index(
        &two.circuit,
        std::sync::Arc::clone(&sindex),
        backtrack_limit,
    )?;
    let mut fsim = FaultSimulator::with_index(&two.circuit, sindex)?;

    let width = two.circuit.input_count();
    let mut patterns = TestSet::new(width);
    let mut detected_flags = vec![false; faults.len()];
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut exhausted = None;

    for (i, tf) in faults.iter().enumerate() {
        if detected_flags[i] {
            continue;
        }
        if let Some(reason) = budget.check_with_patterns(patterns.len()) {
            exhausted = Some(budget.exhausted(reason, "tdf", patterns.len()));
            break;
        }
        let init = !tf.slow_to_rise; // frame-1 value before the transition
        let stuck = Fault {
            site: crate::fault::FaultSite::Stem(two.frame2[tf.site.index()]),
            stuck_at_one: init,
        };
        let constraint = (two.frame1[tf.site.index()], init);
        match podem.generate_with_constraints_budgeted(stuck, &[constraint], Some(budget))? {
            PodemOutcome::Test(cube) => {
                detected_flags[i] = true;
                // Drop other TDFs detected by the filled pattern; the
                // good-circuit evaluation is shared across all faults.
                let filled = vec![cube.fill_keyed(FillStrategy::default())];
                let (good, _) = fsim.good_values(&filled)?;
                for (j, other) in faults.iter().enumerate().skip(i + 1) {
                    if detected_flags[j] {
                        continue;
                    }
                    if tdf_mask(&mut fsim, two, other, &good, 1) != 0 {
                        detected_flags[j] = true;
                    }
                }
                patterns.push(cube);
            }
            PodemOutcome::Redundant => untestable += 1,
            PodemOutcome::Aborted => aborted += 1,
        }
    }
    Ok(TdfResult {
        patterns,
        detected: detected_flags.iter().filter(|&&d| d).count(),
        untestable,
        aborted,
        total: faults.len(),
        exhausted,
    })
}

/// Per-slot detection mask of one transition fault against a batch whose
/// good values are already computed: the frame-2 stuck-at mask gated by
/// the frame-1 initialization word.
fn tdf_mask(
    fsim: &mut FaultSimulator<'_>,
    two: &TwoFrame,
    tf: &TransitionFault,
    good: &[u64],
    active: u64,
) -> u64 {
    let init = !tf.slow_to_rise;
    let stuck = Fault {
        site: crate::fault::FaultSite::Stem(two.frame2[tf.site.index()]),
        stuck_at_one: init,
    };
    let stuck_mask = fsim.detection_mask(good, active, stuck);
    let f1_word = good[two.frame1[tf.site.index()].index()];
    let init_mask = if init { f1_word } else { !f1_word };
    stuck_mask & init_mask & active
}

/// [`tdf_mask`] at block width: launch detection via the frame-2 stuck
/// fault, gated by the frame-1 initialization value, per 512-pattern
/// block.
fn tdf_block_mask(
    fsim: &mut FaultSimulator<'_>,
    two: &TwoFrame,
    tf: &TransitionFault,
    good: &[SimBlock],
    active: &SimBlock,
) -> SimBlock {
    let init = !tf.slow_to_rise;
    let stuck = Fault {
        site: crate::fault::FaultSite::Stem(two.frame2[tf.site.index()]),
        stuck_at_one: init,
    };
    let stuck_mask = fsim.block_detection_mask(good, active, stuck);
    let f1 = good[two.frame1[tf.site.index()].index()];
    let init_mask = if init { f1 } else { f1.not() };
    stuck_mask.and(init_mask).and(*active)
}

/// Fault-simulate a pattern set against the full TDF universe and return
/// per-fault detection flags (reference/reporting path).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn tdf_coverage(
    model: &TestModel,
    patterns: &[Vec<bool>],
) -> Result<(Vec<TransitionFault>, Vec<bool>), AtpgError> {
    let faults = enumerate_transition_faults(&model.circuit);
    let two = unroll_two_frames(model)?;
    let mut fsim = FaultSimulator::new(&two.circuit)?;
    // The two-frame good values are evaluated once per 512-pattern block
    // and streamed against every still-undetected fault (blocks outer,
    // faults inner — the same cache blocking as the stuck-at sweeps).
    let mut flags = vec![false; faults.len()];
    for chunk in patterns.chunks(BLOCK_BITS) {
        let (good, n) = fsim.good_blocks(chunk)?;
        let active = block_active_mask(n);
        for (flag, tf) in flags.iter_mut().zip(&faults) {
            if *flag {
                continue;
            }
            if !tdf_block_mask(&mut fsim, &two, tf, &good, &active).is_zero() {
                *flag = true;
            }
        }
    }
    Ok((faults, flags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::active_mask;
    use modsoc_netlist::bench_format::parse_bench;

    /// Unbudgeted, unmetered [`run_tdf_atpg`].
    fn tdf(circuit: &Circuit, backtrack_limit: u32, scheme: LaunchScheme) -> TdfResult {
        let budget = crate::budget::RunBudget::unlimited();
        run_tdf_atpg(
            circuit,
            backtrack_limit,
            scheme,
            &budget,
            &modsoc_metrics::NullSink,
        )
        .unwrap()
    }

    /// Reference: whether `patterns` (fully specified, unrolled-input
    /// order) detect the transition fault, one 64-pattern chunk at a
    /// time on the narrow kernel (good values re-simulated per fault).
    fn tdf_detected(
        fsim: &mut FaultSimulator<'_>,
        two: &TwoFrame,
        tf: &TransitionFault,
        patterns: &[Vec<bool>],
    ) -> bool {
        patterns.chunks(64).any(|chunk| {
            let (good, n) = fsim.good_values(chunk).unwrap();
            tdf_mask(fsim, two, tf, &good, active_mask(n)) != 0
        })
    }

    /// A small sequential circuit with a controllable transition path:
    /// the scan cell drives an AND observed at the output.
    fn seq() -> Circuit {
        parse_bench(
            "t",
            "
INPUT(a)
INPUT(b)
OUTPUT(y)
f1 = DFF(n1)
n1 = AND(a, b)
y = AND(f1, b)
",
        )
        .unwrap()
    }

    /// The blocked TDF coverage sweep vs the per-64 narrow reference on
    /// a generated scan core, across block tails and a multi-block set.
    #[test]
    fn blocked_tdf_coverage_matches_narrow_reference() {
        let core =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(11)).unwrap();
        let model = core.to_test_model().unwrap();
        let two = unroll_two_frames(&model).unwrap();
        let mut fsim = FaultSimulator::new(&two.circuit).unwrap();
        let width = two.circuit.input_count();
        for count in [1usize, 64, 65, 512, 600] {
            let patterns: Vec<Vec<bool>> = (0..count)
                .map(|k| {
                    (0..width)
                        .map(|i| (k * 31 + i * 7 + (k >> 3)) % 5 < 2)
                        .collect()
                })
                .collect();
            let (faults, flags) = tdf_coverage(&model, &patterns).unwrap();
            let want: Vec<bool> = faults
                .iter()
                .map(|tf| tdf_detected(&mut fsim, &two, tf, &patterns))
                .collect();
            assert_eq!(flags, want, "count={count}");
            assert!(count < 64 || flags.contains(&true), "count={count}");
        }
    }

    #[test]
    fn unrolling_shape() {
        let c = seq();
        let model = c.to_test_model().unwrap();
        let two = unroll_two_frames(&model).unwrap();
        // Inputs: a, b (shared) + f1 frame-1 state.
        assert_eq!(two.circuit.input_count(), 3);
        // Outputs: y@f2 + capture of n1@f2.
        assert_eq!(two.circuit.output_count(), 2);
        // Gates doubled.
        assert_eq!(two.circuit.gate_count(), 2 * model.circuit.gate_count());
        two.circuit.validate().unwrap();
    }

    #[test]
    fn unrolled_frame2_state_is_frame1_capture() {
        use modsoc_netlist::sim::simulate_single;
        let c = seq();
        let model = c.to_test_model().unwrap();
        let two = unroll_two_frames(&model).unwrap();
        // a=1, b=1, f1(frame1)=0:
        // frame1: n1 = 1 (capture), y@f1 = 0.
        // frame2: f1 = 1 -> y@f2 = 1.
        let vals = simulate_single(&two.circuit, &[true, true, false]).unwrap();
        let y2 = two.circuit.outputs()[0];
        assert!(vals[y2.index()], "frame-2 output sees the launched state");
    }

    #[test]
    fn tdf_atpg_finds_transitions() {
        let result = tdf(&seq(), 200, LaunchScheme::Capture);
        assert!(result.total > 0);
        assert!(result.detected > 0, "some transitions are testable");
        assert_eq!(result.aborted, 0);
        assert!(result.coverage() > 0.5, "coverage {}", result.coverage());
        assert!(!result.patterns.is_empty());
    }

    #[test]
    fn tdf_patterns_verified_by_simulation() {
        // Re-simulate the generated patterns against the universe: the
        // reported detected count must be reachable by the final set.
        let c = seq();
        let model = c.to_test_model().unwrap();
        let result = tdf(&c, 200, LaunchScheme::Capture);
        let filled = result.patterns.fill_all(FillStrategy::default());
        let (_, flags) = tdf_coverage(&model, &filled).unwrap();
        let sim_detected = flags.iter().filter(|&&f| f).count();
        assert!(
            sim_detected >= result.detected,
            "sim {sim_detected} vs reported {}",
            result.detected
        );
    }

    #[test]
    fn loc_untestable_fault_reported() {
        // A combinational-only circuit has no launch state: every TDF is
        // untestable under LOC (PIs are held).
        let comb = parse_bench("c", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let result = tdf(&comb, 100, LaunchScheme::Capture);
        assert_eq!(result.detected, 0);
        assert_eq!(result.untestable, result.total);
        assert!((result.coverage() - 1.0).abs() < 1e-12, "0/0 testable");
    }

    #[test]
    fn los_unrolling_shifts_state() {
        use modsoc_netlist::sim::simulate_single;
        let c = seq();
        let model = c.to_test_model().unwrap();
        let two = unroll_los(&model).unwrap();
        // Inputs: a, b, f1-state, scan_in.
        assert_eq!(two.circuit.input_count(), 4);
        // With one scan cell, frame-2 state = scan_in directly.
        // a=0, b=1, f1=0, scan_in=1: frame2 y = AND(1, b=1) = 1.
        let vals = simulate_single(&two.circuit, &[false, true, false, true]).unwrap();
        let y2 = two.circuit.outputs()[0];
        assert!(vals[y2.index()]);
    }

    #[test]
    fn los_coverage_at_least_loc() {
        // LOS controls both frames directly, so it should never detect
        // fewer transition faults than LOC on the same circuit.
        let src = "
INPUT(a)\nINPUT(b)\nINPUT(c)
OUTPUT(y)
f1 = DFF(n1)
f2 = DFF(n2)
f3 = DFF(n3)
n1 = XOR(a, f2)
n2 = NAND(b, f1)
n3 = OR(n1, f3)
y = AND(n3, f1, c)
";
        let circuit = parse_bench("los", src).unwrap();
        let loc = tdf(&circuit, 400, LaunchScheme::Capture);
        let los = tdf(&circuit, 400, LaunchScheme::Shift);
        assert!(
            los.detected >= loc.detected,
            "los {} vs loc {}",
            los.detected,
            loc.detected
        );
        assert_eq!(los.aborted, 0);
    }

    #[test]
    fn larger_circuit_tdf_runs() {
        let src = "
INPUT(a)\nINPUT(b)\nINPUT(c)
OUTPUT(y)
f1 = DFF(n1)
f2 = DFF(n2)
n1 = XOR(a, f2)
n2 = NAND(b, f1)
n3 = OR(n1, c)
y = AND(n3, f1)
";
        let circuit = parse_bench("bigger", src).unwrap();
        let result = tdf(&circuit, 500, LaunchScheme::Capture);
        assert!(result.coverage() > 0.6, "coverage {}", result.coverage());
        assert_eq!(result.aborted, 0);
    }
}
