//! SCOAP-style testability measures.
//!
//! Combinational controllability `CC0`/`CC1` (effort to set a line to
//! 0/1) and observability `CO` (effort to propagate a line to an output).
//! PODEM uses these to pick the cheapest backtrace path; they are also
//! exposed for circuit-difficulty reporting in the synthetic generator.

use modsoc_netlist::{Circuit, GateKind, NodeId};

use crate::error::AtpgError;

/// Per-node SCOAP measures.
#[derive(Debug, Clone)]
pub struct Testability {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

/// Saturating cap so unreachable lines do not overflow.
const CAP: u32 = 1_000_000;

impl Testability {
    /// Compute SCOAP measures for a combinational circuit.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors (including sequential
    /// circuits).
    pub fn compute(circuit: &Circuit) -> Result<Testability, AtpgError> {
        Testability::compute_in_order(circuit, &circuit.topo_order()?)
    }

    /// [`Testability::compute`] over a topological order the caller
    /// already holds (PODEM passes its [`modsoc_netlist::StructuralIndex`]'s).
    pub(crate) fn compute_in_order(
        circuit: &Circuit,
        order: &[NodeId],
    ) -> Result<Testability, AtpgError> {
        if let Some(&ff) = circuit.dffs().first() {
            return Err(modsoc_netlist::NetlistError::NotCombinational {
                node: circuit.node(ff).name.clone(),
            }
            .into());
        }
        let n = circuit.node_count();
        let mut cc0 = vec![CAP; n];
        let mut cc1 = vec![CAP; n];

        for &id in order {
            let node = circuit.node(id);
            let i = id.index();
            match node.kind {
                GateKind::Input => {
                    cc0[i] = 1;
                    cc1[i] = 1;
                }
                GateKind::Const0 => {
                    cc0[i] = 0;
                    cc1[i] = CAP;
                }
                GateKind::Const1 => {
                    cc0[i] = CAP;
                    cc1[i] = 0;
                }
                GateKind::Buf | GateKind::Dff => {
                    cc0[i] = sat(cc0[node.fanin[0].index()], 1);
                    cc1[i] = sat(cc1[node.fanin[0].index()], 1);
                }
                GateKind::Not => {
                    cc0[i] = sat(cc1[node.fanin[0].index()], 1);
                    cc1[i] = sat(cc0[node.fanin[0].index()], 1);
                }
                GateKind::And | GateKind::Nand => {
                    let all1: u32 = node
                        .fanin
                        .iter()
                        .fold(0u32, |a, f| a.saturating_add(cc1[f.index()]));
                    let any0: u32 = node
                        .fanin
                        .iter()
                        .map(|f| cc0[f.index()])
                        .min()
                        .unwrap_or(CAP);
                    let (zero, one) = (sat(any0, 1), sat(all1, 1));
                    if node.kind == GateKind::And {
                        cc0[i] = zero;
                        cc1[i] = one;
                    } else {
                        cc0[i] = one;
                        cc1[i] = zero;
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let all0: u32 = node
                        .fanin
                        .iter()
                        .fold(0u32, |a, f| a.saturating_add(cc0[f.index()]));
                    let any1: u32 = node
                        .fanin
                        .iter()
                        .map(|f| cc1[f.index()])
                        .min()
                        .unwrap_or(CAP);
                    let (zero, one) = (sat(all0, 1), sat(any1, 1));
                    if node.kind == GateKind::Or {
                        cc0[i] = zero;
                        cc1[i] = one;
                    } else {
                        cc0[i] = one;
                        cc1[i] = zero;
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Exact parity-combination over fanins, folded
                    // pairwise: cost of parity-0 / parity-1.
                    let mut c0 = 0u32; // cost of producing parity 0 so far
                    let mut c1 = CAP; // cost of producing parity 1 so far
                    let mut first = true;
                    for f in &node.fanin {
                        let f0 = cc0[f.index()];
                        let f1 = cc1[f.index()];
                        if first {
                            c0 = f0;
                            c1 = f1;
                            first = false;
                        } else {
                            let n0 = (c0.saturating_add(f0)).min(c1.saturating_add(f1));
                            let n1 = (c0.saturating_add(f1)).min(c1.saturating_add(f0));
                            c0 = n0;
                            c1 = n1;
                        }
                    }
                    let (zero, one) = (sat(c0, 1), sat(c1, 1));
                    if node.kind == GateKind::Xor {
                        cc0[i] = zero;
                        cc1[i] = one;
                    } else {
                        cc0[i] = one;
                        cc1[i] = zero;
                    }
                }
            }
        }

        // Observability: reverse topological sweep.
        let mut co = vec![CAP; n];
        for &po in circuit.outputs() {
            co[po.index()] = 0;
        }
        for &id in order.iter().rev() {
            let node = circuit.node(id);
            let gate_co = co[id.index()];
            if gate_co >= CAP {
                continue;
            }
            match node.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
                GateKind::Buf | GateKind::Not | GateKind::Dff => {
                    let f = node.fanin[0].index();
                    co[f] = co[f].min(sat(gate_co, 1));
                }
                GateKind::And | GateKind::Nand => {
                    for (k, f) in node.fanin.iter().enumerate() {
                        // Other inputs must be non-controlling (1).
                        let side: u32 = node
                            .fanin
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != k)
                            .fold(0u32, |a, (_, g)| a.saturating_add(cc1[g.index()]));
                        let f = f.index();
                        co[f] = co[f].min(sat(gate_co.saturating_add(side), 1));
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    for (k, f) in node.fanin.iter().enumerate() {
                        let side: u32 = node
                            .fanin
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != k)
                            .fold(0u32, |a, (_, g)| a.saturating_add(cc0[g.index()]));
                        let f = f.index();
                        co[f] = co[f].min(sat(gate_co.saturating_add(side), 1));
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    for (k, f) in node.fanin.iter().enumerate() {
                        // Other inputs need *some* known value; use the
                        // cheaper of each.
                        let side: u32 = node
                            .fanin
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != k)
                            .fold(0u32, |a, (_, g)| {
                                a.saturating_add(cc0[g.index()].min(cc1[g.index()]))
                            });
                        let f = f.index();
                        co[f] = co[f].min(sat(gate_co.saturating_add(side), 1));
                    }
                }
            }
        }

        Ok(Testability { cc0, cc1, co })
    }

    /// Effort to control the node to 0.
    #[must_use]
    pub fn cc0(&self, id: NodeId) -> u32 {
        self.cc0[id.index()]
    }

    /// Effort to control the node to 1.
    #[must_use]
    pub fn cc1(&self, id: NodeId) -> u32 {
        self.cc1[id.index()]
    }

    /// Effort to control the node to the given value.
    #[must_use]
    pub fn cc(&self, id: NodeId, value: bool) -> u32 {
        if value {
            self.cc1(id)
        } else {
            self.cc0(id)
        }
    }

    /// Effort to observe the node at an output.
    #[must_use]
    pub fn co(&self, id: NodeId) -> u32 {
        self.co[id.index()]
    }
}

fn sat(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_netlist::Circuit;

    #[test]
    fn inputs_cost_one() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        c.mark_output(n);
        let t = Testability::compute(&c).unwrap();
        assert_eq!(t.cc0(a), 1);
        assert_eq!(t.cc1(a), 1);
        assert_eq!(t.cc0(n), 2); // via a=1
        assert_eq!(t.co(n), 0);
        assert_eq!(t.co(a), 1);
    }

    #[test]
    fn and_controllability_asymmetry() {
        // 3-input AND: cc1 = 3 inputs + 1 = 4; cc0 = 1 + 1 = 2.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g = c.add_gate("g", GateKind::And, &[a, b, d]).unwrap();
        c.mark_output(g);
        let t = Testability::compute(&c).unwrap();
        assert_eq!(t.cc1(g), 4);
        assert_eq!(t.cc0(g), 2);
        // Observing `a` requires b=1, d=1: co = 0 + 2 + 1 = 3.
        assert_eq!(t.co(a), 3);
    }

    #[test]
    fn deep_chain_costs_grow() {
        let mut c = Circuit::new("chain");
        let mut prev = c.add_input("i");
        for k in 0..10 {
            prev = c.add_gate(format!("b{k}"), GateKind::Buf, &[prev]).unwrap();
        }
        c.mark_output(prev);
        let t = Testability::compute(&c).unwrap();
        assert_eq!(t.cc0(prev), 11);
        assert_eq!(t.co(c.inputs()[0]), 10);
    }

    #[test]
    fn xor_controllability() {
        let mut c = Circuit::new("x");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::Xor, &[a, b]).unwrap();
        c.mark_output(g);
        let t = Testability::compute(&c).unwrap();
        // parity0: (0,0) or (1,1) -> 2; parity1 likewise 2; +1 each.
        assert_eq!(t.cc0(g), 3);
        assert_eq!(t.cc1(g), 3);
    }

    #[test]
    fn unobservable_line_saturates() {
        let mut c = Circuit::new("dead");
        let a = c.add_input("a");
        let _dead = c.add_gate("dead", GateKind::Not, &[a]).unwrap();
        let live = c.add_gate("live", GateKind::Buf, &[a]).unwrap();
        c.mark_output(live);
        let t = Testability::compute(&c).unwrap();
        assert_eq!(t.co(c.find("dead").unwrap()), CAP);
    }

    #[test]
    fn sequential_rejected() {
        let mut c = Circuit::new("s");
        let a = c.add_input("a");
        let ff = c.add_gate("ff", GateKind::Dff, &[a]).unwrap();
        c.mark_output(ff);
        assert!(Testability::compute(&c).is_err());
    }
}
