//! Full-scan test model extraction.
//!
//! Under full scan, every flip-flop is both controllable (scan-in) and
//! observable (scan-out), so for ATPG purposes the sequential circuit is
//! equivalent to a purely combinational one in which:
//!
//! * each flip-flop **output** becomes a *pseudo primary input* (the value
//!   shifted into the scan cell), and
//! * each flip-flop **data input** becomes a *pseudo primary output* (the
//!   value captured and shifted out).
//!
//! This is exactly the circuit model the DATE 2008 paper assumes when it
//! counts "2·S" stimulus+response bits per scan cell in Equations 1 and 4.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;

/// Where a test-model input or output comes from in the original circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestPoint {
    /// A real chip-level primary input or output.
    Primary(NodeId),
    /// A scan cell (the original flip-flop's node id).
    ScanCell(NodeId),
}

impl TestPoint {
    /// Whether this point is a scan cell.
    #[must_use]
    pub fn is_scan(self) -> bool {
        matches!(self, TestPoint::ScanCell(_))
    }
}

/// A combinational test model of a full-scan circuit.
///
/// `circuit` is purely combinational; `inputs[i]`/`outputs[i]` describe
/// where the i-th model input/output lives in the original design, in the
/// same order as `circuit.inputs()` / `circuit.outputs()`.
#[derive(Debug, Clone)]
pub struct TestModel {
    /// The combinational model (no flip-flops).
    pub circuit: Circuit,
    /// Provenance of each model input.
    pub inputs: Vec<TestPoint>,
    /// Provenance of each model output.
    pub outputs: Vec<TestPoint>,
}

impl TestModel {
    /// Number of scan cells in the original circuit.
    #[must_use]
    pub fn scan_cell_count(&self) -> usize {
        self.inputs.iter().filter(|p| p.is_scan()).count()
    }
}

impl Circuit {
    /// Extract the combinational full-scan test model.
    ///
    /// Flip-flops are replaced by pseudo primary inputs (named
    /// `<ff>.scan`), and each flip-flop's data fanin becomes an additional
    /// output. Ordering: model inputs are the original primary inputs
    /// followed by scan cells in scan-chain order; model outputs are the
    /// original primary outputs followed by scan-cell capture points.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoObservationPoints`] for a circuit with no
    /// outputs and no flip-flops, or propagates validation errors.
    pub fn to_test_model(&self) -> Result<TestModel, NetlistError> {
        self.validate()?;
        if self.outputs().is_empty() && self.dffs().is_empty() {
            return Err(NetlistError::NoObservationPoints);
        }
        let mut model = Circuit::new(format!("{}.testmodel", self.name()));
        // Map original node id -> model node id, built in original id order
        // so fanin references resolve (original circuits are created in
        // definition order; validate() guarantees fanins exist, and ids are
        // creation-ordered, but a fanin may still have a *larger* id than
        // its user only through a Dff... which we replace by an input, so
        // we must create model nodes in topological order instead).
        let order = self.topo_order()?;
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_count()];
        // First pass: create all Dff replacements (they are sources) and
        // inputs, preserving the documented ordering.
        for &pi in self.inputs() {
            let mid = model.add_input(self.node(pi).name.clone());
            map[pi.index()] = Some(mid);
        }
        for &ff in self.dffs() {
            let mid = model.add_input(format!("{}.scan", self.node(ff).name));
            map[ff.index()] = Some(mid);
        }
        // Second pass: logic gates in topological order.
        for id in order {
            if map[id.index()].is_some() {
                continue; // input or dff already placed
            }
            let node = self.node(id);
            let fanin: Vec<NodeId> = node
                .fanin
                .iter()
                .map(|f| map[f.index()].expect("topo order guarantees fanin placed"))
                .collect();
            let mid = model.add_gate(node.name.clone(), node.kind, &fanin)?;
            map[id.index()] = Some(mid);
        }
        // Outputs: primary outputs first, then scan capture points.
        let mut inputs: Vec<TestPoint> = self
            .inputs()
            .iter()
            .map(|&id| TestPoint::Primary(id))
            .collect();
        inputs.extend(self.dffs().iter().map(|&id| TestPoint::ScanCell(id)));
        let mut outputs = Vec::new();
        for &po in self.outputs() {
            model.mark_output(map[po.index()].expect("all nodes placed"));
            outputs.push(TestPoint::Primary(po));
        }
        for &ff in self.dffs() {
            let data_src = self.node(ff).fanin[0];
            model.mark_output(map[data_src.index()].expect("all nodes placed"));
            outputs.push(TestPoint::ScanCell(ff));
        }
        debug_assert!(model.is_combinational());
        Ok(TestModel {
            circuit: model,
            inputs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn seq_circuit() -> Circuit {
        // a --+--[AND g]--[DFF ff]--+--[OR h]--> out
        //     |_____________________|
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::And, &[a, b]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[g]).unwrap();
        let h = c.add_gate("h", GateKind::Or, &[ff, a]).unwrap();
        c.mark_output(h);
        c
    }

    #[test]
    fn model_is_combinational() {
        let m = seq_circuit().to_test_model().unwrap();
        assert!(m.circuit.is_combinational());
        m.circuit.validate().unwrap();
    }

    #[test]
    fn model_io_counts() {
        let m = seq_circuit().to_test_model().unwrap();
        assert_eq!(m.circuit.input_count(), 3); // a, b, ff.scan
        assert_eq!(m.circuit.output_count(), 2); // h, capture of g
        assert_eq!(m.scan_cell_count(), 1);
    }

    #[test]
    fn model_ordering_pis_before_scan() {
        let m = seq_circuit().to_test_model().unwrap();
        assert!(matches!(m.inputs[0], TestPoint::Primary(_)));
        assert!(matches!(m.inputs[1], TestPoint::Primary(_)));
        assert!(matches!(m.inputs[2], TestPoint::ScanCell(_)));
        assert!(matches!(m.outputs[0], TestPoint::Primary(_)));
        assert!(matches!(m.outputs[1], TestPoint::ScanCell(_)));
    }

    #[test]
    fn scan_input_named_after_ff() {
        let m = seq_circuit().to_test_model().unwrap();
        assert!(m.circuit.find("ff.scan").is_some());
    }

    #[test]
    fn feedback_through_ff_is_handled() {
        // ff = DFF(g), g = AND(a, ff): true sequential feedback.
        let mut c = Circuit::new("fb");
        let a = c.add_input("a");
        // Build with a two-step dance: add a buf placeholder is not
        // possible without forward refs, so express feedback as the .bench
        // parser would: create ff first referencing g later is impossible
        // here; instead create g over (a, a), then ff, then rewire is not
        // supported. Use the natural order: ff's fanin must exist first, so
        // feedback loops need the parser's two-phase build. Emulate a
        // self-loop via: g = AND(a, ff) with ff = DFF(g) built as
        // g0 = AND(a,a); ff = DFF(g0) — structural, not a true loop. The
        // parser tests cover true feedback.
        let g0 = c.add_gate("g0", GateKind::And, &[a, a]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[g0]).unwrap();
        let h = c.add_gate("h", GateKind::Xor, &[ff, a]).unwrap();
        c.mark_output(h);
        let m = c.to_test_model().unwrap();
        assert_eq!(m.circuit.input_count(), 2);
        assert_eq!(m.circuit.output_count(), 2);
    }

    #[test]
    fn no_observation_points_rejected() {
        let mut c = Circuit::new("empty");
        c.add_input("a");
        let err = c.to_test_model().unwrap_err();
        assert!(matches!(err, NetlistError::NoObservationPoints));
    }

    #[test]
    fn combinational_circuit_passes_through() {
        let mut c = Circuit::new("comb");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a]).unwrap();
        c.mark_output(g);
        let m = c.to_test_model().unwrap();
        assert_eq!(m.circuit.input_count(), 1);
        assert_eq!(m.circuit.output_count(), 1);
        assert_eq!(m.scan_cell_count(), 0);
    }
}
