//! Structural fault-equivalence collapsing.
//!
//! Two faults are *equivalent* when every test for one detects the other;
//! targeting one representative per equivalence class shrinks the ATPG's
//! work list without losing coverage. The classic structural rules are:
//!
//! * `BUF`: input s-a-v ≡ output s-a-v; `NOT`: input s-a-v ≡ output s-a-v̄.
//! * `AND`: any input s-a-0 ≡ output s-a-0 (`NAND`: ≡ output s-a-1).
//! * `OR`: any input s-a-1 ≡ output s-a-1 (`NOR`: ≡ output s-a-0).
//! * A single-fanout stem is equivalent to the pin it drives (handled at
//!   enumeration time by [`crate::fault::enumerate_faults`], which only
//!   creates pin faults on true fanout branches).
//!
//! XOR-family gates admit no structural collapsing.

use std::collections::HashMap;

use modsoc_metrics::{Counter, MetricsSink, NullSink, Phase, PhaseTimer};
use modsoc_netlist::{Circuit, GateKind, StructuralIndex};

use crate::fault::{enumerate_faults_with, Fault, FaultSite};

/// The result of collapsing: representative faults plus the class map.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    representatives: Vec<Fault>,
    class_of: HashMap<Fault, usize>,
}

impl CollapsedFaults {
    /// The representative fault of each equivalence class.
    #[must_use]
    pub fn representatives(&self) -> &[Fault] {
        &self.representatives
    }

    /// Number of equivalence classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.representatives.len()
    }

    /// The class index of a fault from the original universe, if known.
    #[must_use]
    pub fn class_of(&self, fault: Fault) -> Option<usize> {
        self.class_of.get(&fault).copied()
    }

    /// Total faults in the original universe.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.class_of.len()
    }

    /// Collapse ratio `universe / classes` (≥ 1).
    #[must_use]
    pub fn collapse_ratio(&self) -> f64 {
        if self.representatives.is_empty() {
            return 1.0;
        }
        self.class_of.len() as f64 / self.representatives.len() as f64
    }
}

/// Enumerate and collapse the stuck-at fault universe of a circuit.
///
/// Uses union-find over the structural equivalence rules above. The
/// representative of each class is its smallest fault in the natural
/// ordering, which puts representatives as close to primary inputs as the
/// rules allow (checkpoint-like behaviour).
#[must_use]
pub fn collapse_faults(circuit: &Circuit) -> CollapsedFaults {
    let index = StructuralIndex::build(circuit)
        .expect("fault collapsing requires an indexable (acyclic) circuit");
    collapse_faults_metered(circuit, &index, &NullSink)
}

/// [`collapse_faults`] against a prebuilt [`StructuralIndex`] (the
/// engine threads its per-run index through here so the fanout
/// adjacency is computed exactly once per circuit), reporting into a
/// [`MetricsSink`]: enumeration and collapsing are timed as separate
/// phases, and the universe/class sizes land on the
/// [`Counter::FaultsUniverse`] / [`Counter::FaultsCollapsed`] counters.
#[must_use]
pub fn collapse_faults_metered(
    circuit: &Circuit,
    sidx: &StructuralIndex,
    sink: &dyn MetricsSink,
) -> CollapsedFaults {
    let universe = {
        let _t = PhaseTimer::start(sink, Phase::FaultEnumerate);
        enumerate_faults_with(circuit, sidx)
    };
    let _t = PhaseTimer::start(sink, Phase::FaultCollapse);
    let index: HashMap<Fault, usize> = universe.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut uf = UnionFind::new(universe.len());

    // The fault on the line feeding pin `pin` of `gate`: a true branch has
    // its own pin fault; a single-fanout line aliases the driver's stem.
    let line_fault = |gate: modsoc_netlist::NodeId, pin: usize, sa1: bool| -> Fault {
        let driver = circuit.node(gate).fanin[pin];
        if sidx.branch_count(driver) > 1 {
            Fault::pin(gate, pin, sa1)
        } else {
            Fault {
                site: FaultSite::Stem(driver),
                stuck_at_one: sa1,
            }
        }
    };

    for (id, node) in circuit.iter() {
        let out_sa = |sa1: bool| Fault {
            site: FaultSite::Stem(id),
            stuck_at_one: sa1,
        };
        match node.kind {
            GateKind::Buf | GateKind::Dff => {
                for sa1 in [false, true] {
                    join(&mut uf, &index, line_fault(id, 0, sa1), out_sa(sa1));
                }
            }
            GateKind::Not => {
                for sa1 in [false, true] {
                    join(&mut uf, &index, line_fault(id, 0, sa1), out_sa(!sa1));
                }
            }
            GateKind::And | GateKind::Nand => {
                let out = out_sa(node.kind == GateKind::Nand);
                for pin in 0..node.fanin.len() {
                    join(&mut uf, &index, line_fault(id, pin, false), out);
                }
            }
            GateKind::Or | GateKind::Nor => {
                let out = out_sa(node.kind == GateKind::Nor);
                for pin in 0..node.fanin.len() {
                    join(&mut uf, &index, line_fault(id, pin, true), out);
                }
            }
            _ => {}
        }
    }

    // Pick the smallest member of each class as representative.
    let mut best: HashMap<usize, Fault> = HashMap::new();
    for (i, &f) in universe.iter().enumerate() {
        let root = uf.find(i);
        best.entry(root)
            .and_modify(|b| {
                if f < *b {
                    *b = f;
                }
            })
            .or_insert(f);
    }
    let mut class_of = HashMap::with_capacity(universe.len());
    let mut class_index: HashMap<usize, usize> = HashMap::new();
    let mut representatives: Vec<Fault> = Vec::with_capacity(best.len());
    // Deterministic order: sort representatives.
    let mut roots: Vec<(Fault, usize)> = best.iter().map(|(&r, &f)| (f, r)).collect();
    roots.sort_unstable();
    for (f, r) in roots {
        class_index.insert(r, representatives.len());
        representatives.push(f);
    }
    for (i, &f) in universe.iter().enumerate() {
        let root = uf.find(i);
        class_of.insert(f, class_index[&root]);
    }
    sink.add(Counter::FaultsUniverse, class_of.len() as u64);
    sink.add(Counter::FaultsCollapsed, representatives.len() as u64);
    CollapsedFaults {
        representatives,
        class_of,
    }
}

fn join(uf: &mut UnionFind, index: &HashMap<Fault, usize>, a: Fault, b: Fault) {
    if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
        uf.union(ia, ib);
    }
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_netlist::Circuit;

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        // a -> NOT -> NOT -> out: all 6 stem faults collapse to 2 classes.
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let n1 = c.add_gate("n1", GateKind::Not, &[a]).unwrap();
        let n2 = c.add_gate("n2", GateKind::Not, &[n1]).unwrap();
        c.mark_output(n2);
        let col = collapse_faults(&c);
        assert_eq!(col.universe_size(), 6);
        assert_eq!(col.class_count(), 2);
        // a s-a-0 ≡ n1 s-a-1 ≡ n2 s-a-0.
        let ca = col.class_of(Fault::stem_sa0(a)).unwrap();
        let cn1 = col.class_of(Fault::stem_sa1(n1)).unwrap();
        let cn2 = col.class_of(Fault::stem_sa0(n2)).unwrap();
        assert_eq!(ca, cn1);
        assert_eq!(ca, cn2);
    }

    #[test]
    fn and_gate_collapse() {
        // 2-input AND, no fanout: universe = 3 stems * 2 = 6.
        // a sa0 ≡ b sa0 ≡ g sa0 -> classes: {a0,b0,g0}, {a1}, {b1}, {g1} = 4.
        let mut c = Circuit::new("and");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::And, &[a, b]).unwrap();
        c.mark_output(g);
        let col = collapse_faults(&c);
        assert_eq!(col.universe_size(), 6);
        assert_eq!(col.class_count(), 4);
        assert_eq!(
            col.class_of(Fault::stem_sa0(a)),
            col.class_of(Fault::stem_sa0(g))
        );
        assert_ne!(
            col.class_of(Fault::stem_sa1(a)),
            col.class_of(Fault::stem_sa1(g))
        );
    }

    #[test]
    fn nand_collapse_inverts_output_polarity() {
        let mut c = Circuit::new("nand");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::Nand, &[a, b]).unwrap();
        c.mark_output(g);
        let col = collapse_faults(&c);
        assert_eq!(
            col.class_of(Fault::stem_sa0(a)),
            col.class_of(Fault::stem_sa1(g))
        );
    }

    #[test]
    fn fanout_branches_not_collapsed_across_stem() {
        // a fans out to g1 (AND with b) and g2 (OR with b): the branch
        // faults a->g1 sa0 and a->g2 sa0 are NOT equivalent.
        let mut c = Circuit::new("fan");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Or, &[a, b]).unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        let col = collapse_faults(&c);
        let f1 = col.class_of(Fault::pin(g1, 0, false)).unwrap();
        let f2 = col.class_of(Fault::pin(g2, 0, false)).unwrap();
        assert_ne!(f1, f2);
        // But a->g1 sa0 ≡ g1 sa0 (AND rule).
        assert_eq!(Some(f1), col.class_of(Fault::stem_sa0(g1)));
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut c = Circuit::new("xor");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::Xor, &[a, b]).unwrap();
        c.mark_output(g);
        let col = collapse_faults(&c);
        assert_eq!(col.class_count(), col.universe_size());
    }

    #[test]
    fn collapse_ratio_at_least_one() {
        let mut c = Circuit::new("r");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        c.mark_output(n);
        let col = collapse_faults(&c);
        assert!(col.collapse_ratio() >= 1.0);
    }
}
