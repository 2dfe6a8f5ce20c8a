//! The single stuck-at fault model.
//!
//! Faults live on *lines*: either a gate's output stem, or one input pin
//! of a gate (a fanout branch when the driver has multiple fanouts). The
//! universe of (stem + pin) faults, collapsed by structural equivalence
//! (see [`crate::collapse`]), is the standard target list a stuck-at ATPG
//! works through.

use std::fmt;

use modsoc_netlist::{Circuit, GateKind, NodeId, StructuralIndex};

/// Where a fault sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// On the output stem of a node (gate, input, or pseudo-input).
    Stem(NodeId),
    /// On input pin `pin` of gate `gate`.
    Pin {
        /// The gate whose input pin is faulted.
        gate: NodeId,
        /// Zero-based pin index into the gate's fanin list.
        pin: usize,
    },
}

impl FaultSite {
    /// The node whose *evaluation* the fault affects: the stem node itself,
    /// or the gate owning the faulted pin.
    #[must_use]
    pub fn affected_gate(self) -> NodeId {
        match self {
            FaultSite::Stem(id) => id,
            FaultSite::Pin { gate, .. } => gate,
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// The faulted line.
    pub site: FaultSite,
    /// The stuck value: `true` for stuck-at-1.
    pub stuck_at_one: bool,
}

impl Fault {
    /// Stuck-at-0 on a stem.
    #[must_use]
    pub fn stem_sa0(node: NodeId) -> Fault {
        Fault {
            site: FaultSite::Stem(node),
            stuck_at_one: false,
        }
    }

    /// Stuck-at-1 on a stem.
    #[must_use]
    pub fn stem_sa1(node: NodeId) -> Fault {
        Fault {
            site: FaultSite::Stem(node),
            stuck_at_one: true,
        }
    }

    /// Stuck-at fault on an input pin.
    #[must_use]
    pub fn pin(gate: NodeId, pin: usize, stuck_at_one: bool) -> Fault {
        Fault {
            site: FaultSite::Pin { gate, pin },
            stuck_at_one,
        }
    }

    /// Render the fault with circuit names, e.g. `g7/2 s-a-1`.
    #[must_use]
    pub fn describe(&self, circuit: &Circuit) -> String {
        let sa = if self.stuck_at_one { 1 } else { 0 };
        match self.site {
            FaultSite::Stem(id) => format!("{} s-a-{sa}", circuit.node(id).name),
            FaultSite::Pin { gate, pin } => {
                format!("{}/{pin} s-a-{sa}", circuit.node(gate).name)
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sa = if self.stuck_at_one { 1 } else { 0 };
        match self.site {
            FaultSite::Stem(id) => write!(f, "{id} s-a-{sa}"),
            FaultSite::Pin { gate, pin } => write!(f, "{gate}/{pin} s-a-{sa}"),
        }
    }
}

/// Lifecycle state of a fault during an ATPG run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultStatus {
    /// Not yet targeted or detected.
    #[default]
    Undetected,
    /// Detected by some pattern.
    Detected,
    /// Proven untestable (PODEM exhausted the search space).
    Redundant,
    /// Search hit the backtrack limit; testability unknown.
    Aborted,
}

/// Enumerate the full (uncollapsed) stuck-at fault universe of a
/// combinational circuit: both polarities on every stem, and on every
/// input pin whose driver fans out to more than one consumer (fanout
/// branches). Pins of single-fanout drivers are equivalent to the driver's
/// stem and therefore skipped at enumeration time already.
#[must_use]
pub fn enumerate_faults(circuit: &Circuit) -> Vec<Fault> {
    let index = StructuralIndex::build(circuit)
        .expect("fault enumeration requires an indexable (acyclic) circuit");
    enumerate_faults_with(circuit, &index)
}

/// [`enumerate_faults`] against a prebuilt [`StructuralIndex`], so callers
/// that already hold one (the engine, collapsing) skip rebuilding the
/// fanout adjacency per call.
#[must_use]
pub fn enumerate_faults_with(circuit: &Circuit, index: &StructuralIndex) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (id, node) in circuit.iter() {
        if matches!(node.kind, GateKind::Const0 | GateKind::Const1) {
            continue;
        }
        for sa1 in [false, true] {
            faults.push(Fault {
                site: FaultSite::Stem(id),
                stuck_at_one: sa1,
            });
        }
        // Branch faults: one per pin whose driving stem has fanout > 1
        // (counting output pins as fanout consumers).
        for (pin, f) in node.fanin.iter().enumerate() {
            if index.branch_count(*f) > 1 {
                for sa1 in [false, true] {
                    faults.push(Fault {
                        site: FaultSite::Pin { gate: id, pin },
                        stuck_at_one: sa1,
                    });
                }
            }
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branching_circuit() -> Circuit {
        // a fans out to g1 and g2; b feeds only g1.
        let mut c = Circuit::new("br");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Not, &[a]).unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        c
    }

    #[test]
    fn enumerates_stems_and_branches() {
        let c = branching_circuit();
        let faults = enumerate_faults(&c);
        // Stems: a, b, g1, g2 -> 8 faults.
        // Branches: a has fanout 2, so g1/0 and g2/0 pins -> 4 faults.
        // b has fanout 1 -> no branch faults.
        assert_eq!(faults.len(), 12);
        let branch_count = faults
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Pin { .. }))
            .count();
        assert_eq!(branch_count, 4);
    }

    #[test]
    fn po_marking_counts_as_fanout() {
        // a drives g and is also a primary output: pin a->g is a branch.
        let mut c = Circuit::new("po");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a]).unwrap();
        c.mark_output(a);
        c.mark_output(g);
        let faults = enumerate_faults(&c);
        let branch_count = faults
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Pin { .. }))
            .count();
        assert_eq!(branch_count, 2);
    }

    #[test]
    fn describe_names_lines() {
        let c = branching_circuit();
        let f = Fault::pin(c.find("g1").unwrap(), 1, true);
        assert_eq!(f.describe(&c), "g1/1 s-a-1");
        let s = Fault::stem_sa0(c.find("a").unwrap());
        assert_eq!(s.describe(&c), "a s-a-0");
    }

    #[test]
    fn constants_not_faulted() {
        let mut c = Circuit::new("k");
        let k = c.add_gate("k", GateKind::Const1, &[]).unwrap();
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::And, &[k, a]).unwrap();
        c.mark_output(g);
        let faults = enumerate_faults(&c);
        assert!(faults
            .iter()
            .all(|f| f.site.affected_gate() != k || matches!(f.site, FaultSite::Pin { .. })));
    }

    #[test]
    fn display_and_ordering() {
        let f0 = Fault::stem_sa0(NodeId::from_index(1));
        let f1 = Fault::stem_sa1(NodeId::from_index(1));
        assert!(f0 < f1);
        assert!(f0.to_string().contains("s-a-0"));
    }
}
