//! IEEE 1500-style wrapper-cell insertion at the netlist level.
//!
//! The paper's modular test model isolates each core with *dedicated
//! wrapper cells* on every core I/O (its explicitly "pessimistic"
//! assumption in §3). At the netlist level a dedicated wrapper cell is a
//! scan flip-flop spliced into the port path:
//!
//! * an **input wrapper cell** sits between the core's port and the logic
//!   it drives, so in InTest mode the stimulus bit comes from the wrapper
//!   scan chain;
//! * an **output wrapper cell** captures the port's value, so the response
//!   bit leaves through the wrapper scan chain.
//!
//! After [`wrap_circuit`], the full-scan test model of the wrapped core has
//! `I + O` extra scan cells — exactly the `ISOCOST` of Equation 5 for a
//! leaf core — so the TDV accounting in `modsoc-core` can be cross-checked
//! against real netlists.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Result of wrapping a core: the new circuit plus the wrapper-cell ids.
#[derive(Debug, Clone)]
pub struct WrappedCircuit {
    /// The wrapped circuit. Its primary inputs/outputs are the original
    /// functional ports; the wrapper cells are flip-flops.
    pub circuit: Circuit,
    /// Wrapper cells on inputs, in original input order.
    pub input_cells: Vec<NodeId>,
    /// Wrapper cells on outputs, in original output order.
    pub output_cells: Vec<NodeId>,
}

impl WrappedCircuit {
    /// Total number of dedicated wrapper cells (`I + O` of the original
    /// core) — the per-pattern `ISOCOST` contribution of this core as a
    /// leaf (Equation 5 with no bidirectionals and no children).
    #[must_use]
    pub fn isolation_cell_count(&self) -> usize {
        self.input_cells.len() + self.output_cells.len()
    }
}

/// Insert a dedicated wrapper cell on every primary input and output.
///
/// The transformation preserves the functional interface: the wrapped
/// circuit still has the same primary inputs and outputs, but each input
/// now drives logic through a wrapper flip-flop, and each output is also
/// captured into a wrapper flip-flop. In the full-scan test model of the
/// result, the core logic is controlled/observed exclusively through scan
/// cells (core + wrapper), which is what makes stand-alone core test
/// patterns portable to the SOC level.
///
/// # Errors
///
/// Propagates validation errors from the input circuit.
///
/// # Example
///
/// ```
/// use modsoc_netlist::{Circuit, GateKind};
/// use modsoc_netlist::wrapper::wrap_circuit;
///
/// # fn main() -> Result<(), modsoc_netlist::NetlistError> {
/// let mut c = Circuit::new("leaf");
/// let a = c.add_input("a");
/// let g = c.add_gate("g", GateKind::Not, &[a])?;
/// c.mark_output(g);
///
/// let w = wrap_circuit(&c)?;
/// assert_eq!(w.isolation_cell_count(), 2); // 1 input + 1 output
/// assert_eq!(w.circuit.dff_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn wrap_circuit(core: &Circuit) -> Result<WrappedCircuit, NetlistError> {
    let order = core.validate()?;
    let mut out = Circuit::new(format!("{}.wrapped", core.name()));
    let mut map: Vec<Option<NodeId>> = vec![None; core.node_count()];
    let mut input_cells = Vec::with_capacity(core.input_count());

    // Inputs: port -> wrapper cell -> (logic sees the wrapper cell).
    for &pi in core.inputs() {
        let name = &core.node(pi).name;
        let port = out.add_input(name.clone());
        let cell = out.add_gate(format!("{name}.wir"), GateKind::Dff, &[port])?;
        map[pi.index()] = Some(cell);
        input_cells.push(cell);
    }
    // Core flip-flops first, with deferred fanins (their outputs are
    // sequential sources usable by any gate, including feedback through
    // the logic built next); then the combinational body in topological
    // order; then close the flip-flop fanins.
    for &ff in core.dffs() {
        let id = out.add_dff_deferred(core.node(ff).name.clone())?;
        map[ff.index()] = Some(id);
    }
    for id in order {
        if map[id.index()].is_some() {
            continue;
        }
        let node = core.node(id);
        let fanin: Vec<NodeId> = node
            .fanin
            .iter()
            .map(|f| map[f.index()].expect("topo order places fanins first"))
            .collect();
        let nid = out.add_gate(node.name.clone(), node.kind, &fanin)?;
        map[id.index()] = Some(nid);
    }
    for &ff in core.dffs() {
        let data = core.node(ff).fanin[0];
        out.set_fanin(
            map[ff.index()].expect("dff placed"),
            &[map[data.index()].expect("all nodes placed")],
        )?;
    }

    // Outputs: capture into a wrapper cell; the port observes the capture
    // cell (so the functional path is port <- wrapper cell <- logic, and
    // the cell is scanned out during test).
    let mut output_cells = Vec::with_capacity(core.output_count());
    for (k, &po) in core.outputs().iter().enumerate() {
        let drv = map[po.index()].expect("all nodes mapped");
        let name = format!("{}.wor{k}", core.node(po).name);
        let cell = out.add_gate(name, GateKind::Dff, &[drv])?;
        out.mark_output(cell);
        output_cells.push(cell);
    }
    out.validate()?;
    Ok(WrappedCircuit {
        circuit: out,
        input_cells,
        output_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Circuit {
        let mut c = Circuit::new("core");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::And, &[a, b]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[g]).unwrap();
        let h = c.add_gate("h", GateKind::Or, &[ff, b]).unwrap();
        c.mark_output(h);
        c
    }

    #[test]
    fn wrapper_adds_io_cells() {
        let w = wrap_circuit(&core()).unwrap();
        assert_eq!(w.input_cells.len(), 2);
        assert_eq!(w.output_cells.len(), 1);
        assert_eq!(w.isolation_cell_count(), 3);
        // 1 core ff + 3 wrapper cells.
        assert_eq!(w.circuit.dff_count(), 4);
    }

    #[test]
    fn functional_interface_preserved() {
        let w = wrap_circuit(&core()).unwrap();
        assert_eq!(w.circuit.input_count(), 2);
        assert_eq!(w.circuit.output_count(), 1);
    }

    #[test]
    fn test_model_scan_count_matches_isocost() {
        let c = core();
        let w = wrap_circuit(&c).unwrap();
        let m = w.circuit.to_test_model().unwrap();
        // Scan cells = core ffs + I + O.
        assert_eq!(
            m.scan_cell_count(),
            c.dff_count() + c.input_count() + c.output_count()
        );
    }

    #[test]
    fn wrapped_circuit_validates() {
        let w = wrap_circuit(&core()).unwrap();
        w.circuit.validate().unwrap();
    }

    #[test]
    fn combinational_core_wraps() {
        let mut c = Circuit::new("comb");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a]).unwrap();
        c.mark_output(g);
        let w = wrap_circuit(&c).unwrap();
        assert_eq!(w.circuit.dff_count(), 2);
        let m = w.circuit.to_test_model().unwrap();
        assert_eq!(m.scan_cell_count(), 2);
    }

    #[test]
    fn multiply_marked_output_gets_cell_per_pin() {
        let mut c = Circuit::new("mo");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Buf, &[a]).unwrap();
        c.mark_output(g);
        c.mark_output(g);
        let w = wrap_circuit(&c).unwrap();
        assert_eq!(w.output_cells.len(), 2);
    }
}
