//! Bit-parallel two-valued logic simulation.
//!
//! Simulates 64 independent input assignments per pass by packing one
//! assignment per bit of a `u64`. This is the workhorse behind fault
//! simulation in `modsoc-atpg` and behind the generator's testability
//! estimation.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::wide::PackedWord;

/// A bit-parallel simulator bound to one (combinational) circuit.
///
/// The simulator pre-computes the topological order once; each
/// [`Simulator::run_on`] call then evaluates all nodes for 64 packed
/// assignments.
///
/// # Example
///
/// ```
/// use modsoc_netlist::{Circuit, GateKind};
/// use modsoc_netlist::sim::Simulator;
///
/// # fn main() -> Result<(), modsoc_netlist::NetlistError> {
/// let mut c = Circuit::new("xor2");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.add_gate("g", GateKind::Xor, &[a, b])?;
/// c.mark_output(g);
///
/// let sim = Simulator::new(&c)?;
/// // Two packed assignments: bit0 = (a=1,b=0), bit1 = (a=1,b=1).
/// let vals = sim.run_on(&c, &[0b11, 0b10]);
/// assert_eq!(vals[g.index()] & 0b11, 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    order: Vec<NodeId>,
    node_count: usize,
    input_count: usize,
}

impl Simulator {
    /// Build a simulator for `circuit`.
    ///
    /// # Errors
    ///
    /// Fails if the circuit is sequential ([`NetlistError::NotCombinational`];
    /// convert with [`Circuit::to_test_model`] first) or invalid.
    pub fn new(circuit: &Circuit) -> Result<Simulator, NetlistError> {
        if let Some(&ff) = circuit.dffs().first() {
            return Err(NetlistError::NotCombinational {
                node: circuit.node(ff).name.clone(),
            });
        }
        Ok(Simulator {
            order: circuit.validate()?,
            node_count: circuit.node_count(),
            input_count: circuit.input_count(),
        })
    }

    /// Evaluate all nodes for 64 packed assignments.
    ///
    /// `input_words[i]` carries the 64 values of circuit input `i` (in
    /// `circuit.inputs()` order). Returns one word per node, indexed by
    /// [`NodeId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the circuit's input count
    /// or if the simulator is used with a different circuit than it was
    /// built for.
    #[must_use]
    pub fn run_on(&self, circuit: &Circuit, input_words: &[u64]) -> Vec<u64> {
        self.run_packed_on(circuit, input_words)
    }

    /// [`Simulator::run_on`] generalized over any [`PackedWord`] width:
    /// one topological sweep evaluates 64 (`u64`) or 512
    /// ([`crate::wide::SimBlock`]) packed assignments per call. Values
    /// are node-major — each node's whole block is contiguous — so the
    /// wide instantiation streams cache lines instead of gathering
    /// strided words.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulator::run_on`].
    #[must_use]
    pub fn run_packed_on<W: PackedWord>(&self, circuit: &Circuit, input_words: &[W]) -> Vec<W> {
        assert_eq!(
            input_words.len(),
            self.input_count,
            "one input word per primary input"
        );
        assert_eq!(circuit.node_count(), self.node_count, "circuit mismatch");
        let mut values = vec![W::ZERO; self.node_count];
        for (w, &pi) in input_words.iter().zip(circuit.inputs()) {
            values[pi.index()] = *w;
        }
        let mut fanin_buf: Vec<W> = Vec::with_capacity(8);
        for &id in &self.order {
            let node = circuit.node(id);
            match node.kind {
                GateKind::Input => {}
                _ => {
                    fanin_buf.clear();
                    fanin_buf.extend(node.fanin.iter().map(|f| values[f.index()]));
                    values[id.index()] = node.kind.eval_packed(&fanin_buf);
                }
            }
        }
        values
    }

    /// Evaluate and return only output words, in `circuit.outputs()` order.
    #[must_use]
    pub fn run_outputs(&self, circuit: &Circuit, input_words: &[u64]) -> Vec<u64> {
        let values = self.run_on(circuit, input_words);
        circuit
            .outputs()
            .iter()
            .map(|o| values[o.index()])
            .collect()
    }

    /// Evaluate all nodes, forcing the node `fault_site` to `forced_value`
    /// (bit-parallel) before propagating — the core primitive for stuck-at
    /// fault simulation.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulator::run_on`].
    #[must_use]
    pub fn run_with_forced_node(
        &self,
        circuit: &Circuit,
        input_words: &[u64],
        fault_site: NodeId,
        forced_value: u64,
    ) -> Vec<u64> {
        assert_eq!(input_words.len(), self.input_count);
        let mut values = vec![0u64; self.node_count];
        for (w, &pi) in input_words.iter().zip(circuit.inputs()) {
            values[pi.index()] = *w;
        }
        if circuit.node(fault_site).kind == GateKind::Input {
            values[fault_site.index()] = forced_value;
        }
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        for &id in &self.order {
            let node = circuit.node(id);
            if node.kind == GateKind::Input {
                continue;
            }
            fanin_buf.clear();
            fanin_buf.extend(node.fanin.iter().map(|f| values[f.index()]));
            let v = node.kind.eval64(&fanin_buf);
            values[id.index()] = if id == fault_site { forced_value } else { v };
        }
        values
    }
}

/// Convenience: simulate one single assignment given as booleans, returning
/// per-node boolean values.
///
/// # Errors
///
/// Same conditions as [`Simulator::new`].
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the circuit input count.
pub fn simulate_single(circuit: &Circuit, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
    let sim = Simulator::new(circuit)?;
    let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
    let values = sim.run_on(circuit, &words);
    Ok(values.into_iter().map(|w| w & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> (Circuit, NodeId, NodeId) {
        // sum = a ^ b ^ cin; cout = (a&b) | (cin & (a^b))
        let mut c = Circuit::new("fa");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let cin = c.add_input("cin");
        let axb = c.add_gate("axb", GateKind::Xor, &[a, b]).unwrap();
        let sum = c.add_gate("sum", GateKind::Xor, &[axb, cin]).unwrap();
        let ab = c.add_gate("ab", GateKind::And, &[a, b]).unwrap();
        let cx = c.add_gate("cx", GateKind::And, &[cin, axb]).unwrap();
        let cout = c.add_gate("cout", GateKind::Or, &[ab, cx]).unwrap();
        c.mark_output(sum);
        c.mark_output(cout);
        (c, sum, cout)
    }

    #[test]
    fn full_adder_truth_table() {
        let (c, sum, cout) = full_adder();
        let sim = Simulator::new(&c).unwrap();
        // Pack all 8 rows into bits 0..8.
        let mut a = 0u64;
        let mut b = 0u64;
        let mut cin = 0u64;
        for row in 0..8u64 {
            if row & 4 != 0 {
                a |= 1 << row;
            }
            if row & 2 != 0 {
                b |= 1 << row;
            }
            if row & 1 != 0 {
                cin |= 1 << row;
            }
        }
        let vals = sim.run_on(&c, &[a, b, cin]);
        for row in 0..8u64 {
            let abit = (row >> 2) & 1;
            let bbit = (row >> 1) & 1;
            let cbit = row & 1;
            let total = abit + bbit + cbit;
            assert_eq!((vals[sum.index()] >> row) & 1, total & 1, "sum row {row}");
            assert_eq!(
                (vals[cout.index()] >> row) & 1,
                u64::from(total >= 2),
                "cout row {row}"
            );
        }
    }

    #[test]
    fn run_outputs_ordering() {
        let (c, ..) = full_adder();
        let sim = Simulator::new(&c).unwrap();
        let outs = sim.run_outputs(&c, &[u64::MAX, u64::MAX, 0]);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], 0); // sum = 1^1^0 = 0
        assert_eq!(outs[1], u64::MAX); // cout = 1
    }

    #[test]
    fn forced_node_injects_fault() {
        let (c, sum, _) = full_adder();
        let sim = Simulator::new(&c).unwrap();
        let axb = c.find("axb").unwrap();
        // With all zero inputs, sum=0; force axb stuck-at-1 -> sum=1.
        let faulty = sim.run_with_forced_node(&c, &[0, 0, 0], axb, u64::MAX);
        assert_eq!(faulty[sum.index()], u64::MAX);
    }

    #[test]
    fn forced_input_fault() {
        let (c, sum, _) = full_adder();
        let sim = Simulator::new(&c).unwrap();
        let a = c.inputs()[0];
        let faulty = sim.run_with_forced_node(&c, &[0, 0, 0], a, u64::MAX);
        assert_eq!(faulty[sum.index()], u64::MAX, "a stuck-at-1 flips sum");
    }

    #[test]
    fn sequential_circuit_rejected() {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let ff = c.add_gate("ff", GateKind::Dff, &[a]).unwrap();
        c.mark_output(ff);
        assert!(matches!(
            Simulator::new(&c),
            Err(NetlistError::NotCombinational { .. })
        ));
    }

    #[test]
    fn simulate_single_convenience() {
        let (c, sum, cout) = full_adder();
        let vals = simulate_single(&c, &[true, true, true]).unwrap();
        assert!(vals[sum.index()]);
        assert!(vals[cout.index()]);
    }
}
