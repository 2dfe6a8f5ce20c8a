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
//! ([`crate::podem::Podem::generate_with_constraints_budgeted`]), and
//! fault simulation is one stuck-at sweep over the frame-2 lines gated
//! by their frame-1 values.

use modsoc_metrics::NullSink;
use modsoc_netlist::{Circuit, GateKind, NodeId, TestModel, TestPoint};

use crate::error::AtpgError;
use crate::fault::{Fault, FaultSite};
use crate::fault_sim::FaultSimulator;
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

/// Generate transition tests for every transition fault of a full-scan
/// circuit (or test model) under launch-on-capture.
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
/// use modsoc_atpg::tdf::run_tdf_atpg;
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
/// let result = run_tdf_atpg(&circuit, 200, &budget, &NullSink)?;
/// assert!(result.detected > 0);
/// assert!(!result.patterns.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn run_tdf_atpg(
    circuit: &Circuit,
    backtrack_limit: u32,
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
        let two = unroll_two_frames(&model)?;
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
        let stuck = frame2_stuck(two, tf);
        let constraint = (two.frame1[tf.site.index()], stuck.stuck_at_one);
        match podem.generate_with_constraints_budgeted(stuck, &[constraint], Some(budget))? {
            PodemOutcome::Test(cube) => {
                detected_flags[i] = true;
                // Drop the later TDFs the filled pattern detects, in one
                // sweep.
                let filled = vec![cube.fill_keyed(FillStrategy::default())];
                let rest: Vec<usize> = (i + 1..faults.len())
                    .filter(|&j| !detected_flags[j])
                    .collect();
                let targets: Vec<TransitionFault> = rest.iter().map(|&j| faults[j]).collect();
                for (j, mask) in rest
                    .into_iter()
                    .zip(tdf_masks(&mut fsim, two, &targets, &filled)?)
                {
                    detected_flags[j] |= mask != 0;
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

/// The stuck-at fault that stands for `tf` in the unrolling: its
/// frame-2 line stuck at the frame-1 initialization value (the late
/// transition looks stuck for one cycle).
pub(crate) fn frame2_stuck(two: &TwoFrame, tf: &TransitionFault) -> Fault {
    Fault {
        site: FaultSite::Stem(two.frame2[tf.site.index()]),
        stuck_at_one: !tf.slow_to_rise,
    }
}

/// Detection masks of `faults` against a batch of ≤64 patterns in the
/// unrolled circuit's input order: one 64-slot sweep over their frame-2
/// stuck-at faults, each mask ANDed with the slots where the fault's
/// frame-1 line holds its initialization value (read from the good
/// values the sweep ran on).
fn tdf_masks(
    fsim: &mut FaultSimulator<'_>,
    two: &TwoFrame,
    faults: &[TransitionFault],
    patterns: &[Vec<bool>],
) -> Result<Vec<u64>, AtpgError> {
    let stuck: Vec<Fault> = faults.iter().map(|tf| frame2_stuck(two, tf)).collect();
    let (good, n) = fsim.good_values(patterns)?;
    let (masks, _) = fsim.mask_sweep(&good, n, &stuck, None, 1, &NullSink);
    Ok(faults
        .iter()
        .zip(masks)
        .map(|(tf, mask)| {
            let f1 = good[two.frame1[tf.site.index()].index()];
            mask & if tf.slow_to_rise { !f1 } else { f1 }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_netlist::bench_format::parse_bench;

    /// Unbudgeted, unmetered [`run_tdf_atpg`].
    fn tdf(circuit: &Circuit, backtrack_limit: u32) -> TdfResult {
        let budget = crate::budget::RunBudget::unlimited();
        run_tdf_atpg(circuit, backtrack_limit, &budget, &modsoc_metrics::NullSink).unwrap()
    }

    /// Per-fault detection flags of `patterns` (fully specified,
    /// unrolled-input order) over the model's whole TDF universe, one
    /// 64-pattern chunk at a time through [`tdf_masks`].
    fn simulated_flags(model: &TestModel, patterns: &[Vec<bool>]) -> Vec<bool> {
        let faults = enumerate_transition_faults(&model.circuit);
        let two = unroll_two_frames(model).unwrap();
        let mut fsim = FaultSimulator::new(&two.circuit).unwrap();
        let mut flags = vec![false; faults.len()];
        for chunk in patterns.chunks(64) {
            for (flag, mask) in flags
                .iter_mut()
                .zip(tdf_masks(&mut fsim, &two, &faults, chunk).unwrap())
            {
                *flag |= mask != 0;
            }
        }
        flags
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

    /// [`tdf_masks`] against a naive oracle on a generated scan core's
    /// unrolling, over three 64-pattern chunks and a 1-pattern tail: the
    /// whole circuit re-simulated with the frame-2 line forced to its
    /// stuck value, the outputs compared, and the mismatch gated by the
    /// frame-1 initialization value.
    #[test]
    fn tdf_masks_match_a_forced_node_oracle() {
        use modsoc_netlist::sim::Simulator;
        let core =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(11)).unwrap();
        let model = core.to_test_model().unwrap();
        let two = unroll_two_frames(&model).unwrap();
        let c = &two.circuit;
        let faults = enumerate_transition_faults(&model.circuit);
        let mut fsim = FaultSimulator::new(c).unwrap();
        let sim = Simulator::new(c).unwrap();
        let patterns: Vec<Vec<bool>> = (0..3 * 64 + 1)
            .map(|k| {
                (0..c.input_count())
                    .map(|i| (k * 31 + i * 7 + (k >> 3)) % 5 < 2)
                    .collect()
            })
            .collect();
        let (mut detected, mut gated) = (0, 0);
        for (n, chunk) in patterns.chunks(64).enumerate() {
            let mut words = vec![0u64; c.input_count()];
            for (slot, p) in chunk.iter().enumerate() {
                for (i, &b) in p.iter().enumerate() {
                    words[i] |= u64::from(b) << slot;
                }
            }
            let active = crate::fault_sim::active_mask(chunk.len());
            let good = sim.run_on(c, &words);
            let masks = tdf_masks(&mut fsim, &two, &faults, chunk).unwrap();
            for (tf, &mask) in faults.iter().zip(&masks) {
                let init = !tf.slow_to_rise;
                let forced = if init { u64::MAX } else { 0 };
                let bad = sim.run_with_forced_node(c, &words, two.frame2[tf.site.index()], forced);
                let stuck = c
                    .outputs()
                    .iter()
                    .fold(0, |m, o| m | (good[o.index()] ^ bad[o.index()]))
                    & active;
                let f1 = good[two.frame1[tf.site.index()].index()];
                let want = stuck & if init { f1 } else { !f1 };
                assert_eq!(mask, want, "chunk {n}: {}", tf.describe(&model.circuit));
                detected += usize::from(want != 0);
                gated += usize::from(stuck & !want != 0);
            }
        }
        assert!(
            detected > 0 && gated > 0,
            "{detected} detected, {gated} gated"
        );
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
        let result = tdf(&seq(), 200);
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
        let result = tdf(&c, 200);
        let filled = result.patterns.fill_all(FillStrategy::default());
        let flags = simulated_flags(&model, &filled);
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
        let result = tdf(&comb, 100);
        assert_eq!(result.detected, 0);
        assert_eq!(result.untestable, result.total);
        assert!((result.coverage() - 1.0).abs() < 1e-12, "0/0 testable");
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
        let result = tdf(&circuit, 500);
        assert!(result.coverage() > 0.6, "coverage {}", result.coverage());
        assert_eq!(result.aborted, 0);
    }
}
