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
//!
//! # Dense fault ids
//!
//! Collapsing never hashes a [`Fault`]. It numbers the universe from the
//! [`StructuralIndex`] instead: the stem fault of node `n` is `2·n + sa1`,
//! and the pin faults (one pair per true fanout branch) follow all the
//! stems in `(gate, pin, sa1)` order, placed by a per-node prefix of
//! branch pins. That order is exactly `Fault`'s derived `Ord` (`Stem`
//! before `Pin`, then node, pin, polarity). A union-find over the ids
//! that links the larger root under the smaller therefore keeps each
//! class's smallest fault at its root, and one ascending pass emits the
//! representatives already sorted. Constant nodes have no stem faults:
//! their ids name nothing, and a rule that touches one joins nothing.

use modsoc_metrics::{Counter, MetricsSink, NullSink, Phase, PhaseTimer};
use modsoc_netlist::{Circuit, GateKind, NodeId, StructuralIndex};

use crate::fault::{Fault, FaultSite};

/// The class of an id that names no fault: a constant node's stem.
const NO_CLASS: u32 = u32::MAX;

/// The result of collapsing: representative faults plus the class map.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    representatives: Vec<Fault>,
    /// The class index of every dense fault id (see the module doc),
    /// [`NO_CLASS`] where the id names no fault.
    class_of: Vec<u32>,
    /// Gate `g`'s branch pins, ascending, are
    /// `branch_pins[branch_start[g]..branch_start[g + 1]]`.
    branch_start: Vec<u32>,
    branch_pins: Vec<u32>,
    /// Faults in the original universe.
    universe: usize,
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
        let class = *self.class_of.get(self.id(fault)?)?;
        (class != NO_CLASS).then_some(class as usize)
    }

    /// Total faults in the original universe.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Collapse ratio `universe / classes` (≥ 1).
    #[must_use]
    pub fn collapse_ratio(&self) -> f64 {
        if self.representatives.is_empty() {
            return 1.0;
        }
        self.universe as f64 / self.representatives.len() as f64
    }

    /// The dense id of `fault`, if it names a line of the circuit.
    fn id(&self, fault: Fault) -> Option<usize> {
        let nodes = self.branch_start.len() - 1;
        let line = match fault.site {
            FaultSite::Stem(node) => (node.index() < nodes).then(|| 2 * node.index())?,
            FaultSite::Pin { gate, pin } => {
                let g = gate.index();
                if g >= nodes {
                    return None;
                }
                let first = self.branch_start[g] as usize;
                let pins = &self.branch_pins[first..self.branch_start[g + 1] as usize];
                let rank = pins.iter().position(|&p| p as usize == pin)?;
                2 * (nodes + first + rank)
            }
        };
        Some(line + usize::from(fault.stuck_at_one))
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
/// [`MetricsSink`]: numbering the universe and collapsing it are timed
/// as the enumeration and collapsing phases, and the universe/class
/// sizes land on the [`Counter::FaultsUniverse`] /
/// [`Counter::FaultsCollapsed`] counters.
#[must_use]
pub fn collapse_faults_metered(
    circuit: &Circuit,
    sidx: &StructuralIndex,
    sink: &dyn MetricsSink,
) -> CollapsedFaults {
    let nodes = circuit.node_count();
    // Number the universe: the per-node prefix of branch pins, the pins
    // `enumerate_faults` gives pin faults.
    let (branch_start, branch_pins) = {
        let _t = PhaseTimer::start(sink, Phase::FaultEnumerate);
        let mut start = Vec::with_capacity(nodes + 1);
        let mut pins = Vec::new();
        start.push(0);
        for (_, node) in circuit.iter() {
            for (pin, &driver) in node.fanin.iter().enumerate() {
                if sidx.branch_count(driver) > 1 {
                    pins.push(u32::try_from(pin).expect("pin index fits in u32"));
                }
            }
            start.push(u32::try_from(pins.len()).expect("branch pins fit in u32"));
        }
        (start, pins)
    };
    let _t = PhaseTimer::start(sink, Phase::FaultCollapse);
    let stems = 2 * nodes;
    let ids = stems + 2 * branch_pins.len();
    let mut uf = UnionFind::new(u32::try_from(ids).expect("fault ids fit in u32"));
    let constant = |node: usize| {
        matches!(
            sidx.kind(NodeId::from_index(node)),
            GateKind::Const0 | GateKind::Const1
        )
    };
    // Joins a pair of ids; one that names no fault joins nothing.
    let mut join = |a: usize, b: usize| {
        if (a >= stems || !constant(a / 2)) && (b >= stems || !constant(b / 2)) {
            uf.union(a as u32, b as u32);
        }
    };

    // The s-a-0 id of the line feeding each pin of the current gate: a
    // true branch has its own pin fault; a single-fanout line aliases
    // the driver's stem.
    let mut lines: Vec<usize> = Vec::new();
    for (id, node) in circuit.iter() {
        let mut branch = branch_start[id.index()] as usize;
        lines.clear();
        for &driver in &node.fanin {
            if sidx.branch_count(driver) > 1 {
                lines.push(stems + 2 * branch);
                branch += 1;
            } else {
                lines.push(2 * driver.index());
            }
        }
        let out = 2 * id.index();
        match node.kind {
            GateKind::Buf | GateKind::Dff => {
                join(lines[0], out);
                join(lines[0] + 1, out + 1);
            }
            GateKind::Not => {
                join(lines[0], out + 1);
                join(lines[0] + 1, out);
            }
            GateKind::And | GateKind::Nand => {
                let out = out + usize::from(node.kind == GateKind::Nand);
                for &line in &lines {
                    join(line, out);
                }
            }
            GateKind::Or | GateKind::Nor => {
                // The polarity the engine has always collapsed with, the
                // opposite of the rule above: an input s-a-1 joins the
                // output s-a-0 on `OR` and s-a-1 on `NOR`. Every pinned
                // pattern count depends on it.
                let out = out + usize::from(node.kind == GateKind::Nor);
                for &line in &lines {
                    join(line + 1, out);
                }
            }
            _ => {}
        }
    }

    // A root is its class's smallest id, and every parent link points to
    // a smaller id of the same class, so one ascending pass meets each
    // class at its representative first and resolves every other id from
    // an id it has already seen.
    let mut class_of = vec![NO_CLASS; ids];
    let mut representatives = Vec::new();
    let mut universe = 0;
    let mut emit = |id: usize, fault: Fault| {
        let up = uf.parent[id] as usize;
        class_of[id] = if up == id {
            representatives.push(fault);
            u32::try_from(representatives.len() - 1).expect("classes fit in u32")
        } else {
            class_of[up]
        };
        universe += 1;
    };
    for (node, _) in circuit.iter().filter(|&(node, _)| !constant(node.index())) {
        emit(2 * node.index(), Fault::stem_sa0(node));
        emit(2 * node.index() + 1, Fault::stem_sa1(node));
    }
    for g in 0..nodes {
        let gate = NodeId::from_index(g);
        let (first, end) = (branch_start[g] as usize, branch_start[g + 1] as usize);
        for (k, &pin) in branch_pins[first..end].iter().enumerate() {
            let id = stems + 2 * (first + k);
            emit(id, Fault::pin(gate, pin as usize, false));
            emit(id + 1, Fault::pin(gate, pin as usize, true));
        }
    }
    sink.add(Counter::FaultsUniverse, universe as u64);
    sink.add(Counter::FaultsCollapsed, representatives.len() as u64);
    CollapsedFaults {
        representatives,
        class_of,
        branch_start,
        branch_pins,
        universe,
    }
}

/// Union-find over dense fault ids whose every parent link points to a
/// smaller id, so a root is the smallest id of its set.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: u32) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[x as usize];
            self.parent[x as usize] = self.parent[up as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
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
