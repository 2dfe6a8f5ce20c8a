//! The gate-level circuit data structure.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;

/// Identifier of a node (gate, input, or flip-flop) inside a [`Circuit`].
///
/// Node ids are dense indices assigned in creation order; they are only
/// meaningful relative to the circuit that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a node id from a raw index.
    ///
    /// Mostly useful for tables that were themselves indexed by
    /// [`NodeId::index`].
    #[must_use]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the circuit graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Gate kind.
    pub kind: GateKind,
    /// Fanin node ids, in pin order.
    pub fanin: Vec<NodeId>,
    /// Human-readable unique name.
    pub name: String,
}

/// A gate-level netlist with optional full-scan flip-flops.
///
/// The circuit is a DAG of [`Node`]s; flip-flop outputs act as sequential
/// cut points so the combinational part must be acyclic *through logic*, but
/// feedback through flip-flops is allowed (as in any sequential circuit).
///
/// Primary outputs are *references* to driver nodes: a node can be both an
/// internal net and a primary output, exactly as in `.bench` files.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    by_name: HashMap<String, NodeId>,
}

impl Circuit {
    /// Create an empty circuit with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            name: name.into(),
            ..Circuit::default()
        }
    }

    /// The circuit's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (inputs + gates + flip-flops).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops (scan cells under full scan).
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Number of combinational logic gates (excludes inputs, constants,
    /// flip-flops).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_logic()).count()
    }

    /// Primary input node ids, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output driver node ids, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Flip-flop node ids, in declaration order (scan-chain order under
    /// full scan).
    #[must_use]
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterate over `(NodeId, &Node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Look up a node by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Add a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (inputs are normally created
    /// before anything can clash; use [`Circuit::add_gate`] for fallible
    /// creation).
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.try_add_node(name.into(), GateKind::Input, Vec::new())
            .expect("input arity is always valid and name must be fresh")
    }

    /// Add a gate (or flip-flop, or constant) driven by `fanin`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the fanin count is illegal for
    /// `kind`, [`NetlistError::DuplicateName`] if the name is taken, or
    /// [`NetlistError::DanglingFanin`] if a fanin id is out of range.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        self.try_add_node(name.into(), kind, fanin.to_vec())
    }

    fn try_add_node(
        &mut self,
        name: String,
        kind: GateKind,
        fanin: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if !kind.arity_ok(fanin.len()) {
            return Err(NetlistError::BadArity {
                gate: name,
                kind,
                got: fanin.len(),
            });
        }
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        for f in &fanin {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingFanin {
                    gate: name,
                    id: f.0,
                });
            }
        }
        let id = NodeId::from_index(self.nodes.len());
        self.by_name.insert(name.clone(), id);
        match kind {
            GateKind::Input => self.inputs.push(id),
            GateKind::Dff => self.dffs.push(id),
            _ => {}
        }
        self.nodes.push(Node { kind, fanin, name });
        Ok(id)
    }

    /// Add a flip-flop whose data fanin will be connected later with
    /// [`Circuit::set_fanin`].
    ///
    /// This is how sequential feedback loops are built (the flip-flop's
    /// driver may itself depend on the flip-flop's output). Until the
    /// fanin is connected, [`Circuit::validate`] reports
    /// [`NetlistError::BadArity`] for this node.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_dff_deferred(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let id = NodeId::from_index(self.nodes.len());
        self.by_name.insert(name.clone(), id);
        self.dffs.push(id);
        self.nodes.push(Node {
            kind: GateKind::Dff,
            fanin: Vec::new(),
            name,
        });
        Ok(id)
    }

    /// Reconnect the fanin of an existing node.
    ///
    /// Intended for closing feedback loops through flip-flops created with
    /// [`Circuit::add_dff_deferred`], but works for any node whose kind
    /// accepts the new arity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] or [`NetlistError::DanglingFanin`]
    /// if the new fanin is illegal. Combinational cycles introduced by a
    /// rewire surface at the next [`Circuit::validate`] /
    /// [`Circuit::topo_order`] call.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn set_fanin(&mut self, id: NodeId, fanin: &[NodeId]) -> Result<(), NetlistError> {
        let node = &self.nodes[id.index()];
        if !node.kind.arity_ok(fanin.len()) {
            return Err(NetlistError::BadArity {
                gate: node.name.clone(),
                kind: node.kind,
                got: fanin.len(),
            });
        }
        for f in fanin {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingFanin {
                    gate: node.name.clone(),
                    id: f.0,
                });
            }
        }
        self.nodes[id.index()].fanin = fanin.to_vec();
        Ok(())
    }

    /// Mark an existing node as a primary output. A node may be marked more
    /// than once (multiple output pins on the same net), matching `.bench`
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn mark_output(&mut self, id: NodeId) {
        assert!(id.index() < self.nodes.len(), "output id out of range");
        self.outputs.push(id);
    }

    /// Validate structural invariants: arities are legal (a flip-flop
    /// from [`Circuit::add_dff_deferred`] is connected), and the
    /// combinational logic is acyclic (flip-flops break cycles). Fanins
    /// always resolve: [`Circuit::add_gate`] and [`Circuit::set_fanin`]
    /// check them. Returns the [`Circuit::topo_order`] the cycle check
    /// computed.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<Vec<NodeId>, NetlistError> {
        for node in &self.nodes {
            if !node.kind.arity_ok(node.fanin.len()) {
                return Err(NetlistError::BadArity {
                    gate: node.name.clone(),
                    kind: node.kind,
                    got: node.fanin.len(),
                });
            }
        }
        self.topo_order()
    }

    /// Compute a topological order of the *combinational* graph: flip-flop
    /// outputs and primary inputs are sources; flip-flop data inputs are
    /// sinks. Every node appears exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the logic (excluding
    /// paths through flip-flops) contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        self.kahn(&self.fanout_csr(), VecDeque::new())
    }

    /// The fanout lists of [`Circuit::fanouts`] in CSR form: one entry per
    /// pin edge (combinational *and* sequential), consumers in ascending
    /// id order.
    pub(crate) fn fanout_csr(&self) -> Csr {
        let n = self.nodes.len();
        let mut start = vec![0u32; n + 1];
        for f in self.nodes.iter().flat_map(|node| &node.fanin) {
            start[f.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start[..n].to_vec();
        let mut adj = vec![NodeId(0); start[n] as usize];
        for (id, node) in self.iter() {
            for f in &node.fanin {
                adj[cursor[f.index()] as usize] = id;
                cursor[f.index()] += 1;
            }
        }
        Csr { start, adj }
    }

    /// Kahn's algorithm over the combinational edges of `fanout` (this
    /// circuit's [`Circuit::fanout_csr`]). A flip-flop consumes its fanin
    /// (sink side) but its own output is a source: edges *into* a
    /// flip-flop do not order it. `ready` holds the nodes whose fanins
    /// are all placed, and its pop order picks among them.
    pub(crate) fn kahn(
        &self,
        fanout: &Csr,
        mut ready: impl ReadySet,
    ) -> Result<Vec<NodeId>, NetlistError> {
        // A flip-flop starts ready. Its count goes negative as its data
        // pin's driver is placed, so it is never pushed again.
        let mut indegree: Vec<i32> = self
            .nodes
            .iter()
            .map(|node| match node.kind {
                GateKind::Dff => 0,
                _ => node.fanin.len() as i32,
            })
            .collect();
        for v in (0..self.nodes.len()).filter(|&v| indegree[v] == 0) {
            ready.push(NodeId::from_index(v));
        }
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(v) = ready.pop() {
            order.push(v);
            for &w in fanout.of(v) {
                indegree[w.index()] -= 1;
                if indegree[w.index()] == 0 {
                    ready.push(w);
                }
            }
        }
        if let Some(stuck) = indegree.iter().position(|&d| d > 0) {
            return Err(NetlistError::CombinationalCycle {
                node: self.nodes[stuck].name.clone(),
            });
        }
        Ok(order)
    }

    /// Compute per-node logic depth over `order`, a
    /// [`Circuit::topo_order`]: inputs, constants and flip-flop outputs
    /// are level 0; every other node is 1 + max fanin level (through
    /// combinational edges).
    #[must_use]
    pub fn levels(&self, order: &[NodeId]) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for &id in order {
            let node = &self.nodes[id.index()];
            if node.kind == GateKind::Dff || node.fanin.is_empty() {
                level[id.index()] = 0;
            } else {
                level[id.index()] = 1 + node
                    .fanin
                    .iter()
                    .map(|f| level[f.index()])
                    .max()
                    .unwrap_or(0);
            }
        }
        level
    }

    /// Build the fanout lists (combinational *and* sequential edges).
    #[must_use]
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut fo: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for f in &node.fanin {
                fo[f.index()].push(NodeId::from_index(i));
            }
        }
        fo
    }

    /// Whether the circuit is purely combinational (contains no flip-flops).
    #[must_use]
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }
}

/// Adjacency lists in CSR form: the list of node `n` occupies
/// `adj[start[n] .. start[n + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    pub(crate) start: Vec<u32>,
    pub(crate) adj: Vec<NodeId>,
}

impl Csr {
    pub(crate) fn of(&self, id: NodeId) -> &[NodeId] {
        &self.adj[self.start[id.index()] as usize..self.start[id.index() + 1] as usize]
    }
}

/// The ready set of [`Circuit::kahn`]: its pop order is the order's
/// tie-break.
pub(crate) trait ReadySet {
    fn push(&mut self, id: NodeId);
    fn pop(&mut self) -> Option<NodeId>;
}

/// First ready, first placed: [`Circuit::topo_order`].
impl ReadySet for VecDeque<NodeId> {
    fn push(&mut self, id: NodeId) {
        self.push_back(id);
    }
    fn pop(&mut self) -> Option<NodeId> {
        self.pop_front()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, {} dffs",
            self.name,
            self.input_count(),
            self.output_count(),
            self.gate_count(),
            self.dff_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Circuit {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::Nand, &[a, b]).unwrap();
        let h = c.add_gate("h", GateKind::Not, &[g]).unwrap();
        c.mark_output(h);
        c
    }

    #[test]
    fn construction_and_counts() {
        let c = tiny();
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.dff_count(), 0);
        assert!(c.is_combinational());
        c.validate().unwrap();
    }

    #[test]
    fn name_lookup() {
        let c = tiny();
        assert_eq!(c.find("g"), Some(NodeId(2)));
        assert_eq!(c.find("zz"), None);
        assert_eq!(c.node(NodeId(2)).name, "g");
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut c = Circuit::new("d");
        c.add_input("a");
        let err = c.add_gate("a", GateKind::Const0, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut c = Circuit::new("d");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let err = c.add_gate("g", GateKind::Not, &[a, b]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 2, .. }));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let c = tiny();
        let order = c.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; c.node_count()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        // g after a,b; h after g.
        assert!(pos[2] > pos[0] && pos[2] > pos[1]);
        assert!(pos[3] > pos[2]);
    }

    #[test]
    fn dff_breaks_cycles() {
        // ff -> g -> ff feedback is legal under full scan.
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        // Create the gate first with a placeholder fanin, then the ff; we
        // can't forward-reference, so build: ff over g requires g first.
        // Instead: g = AND(a, ff) where ff = DFF(g). Build ff over a dummy
        // then check cycle detection catches *combinational* loops only.
        let g = c.add_gate("g", GateKind::And, &[a, a]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[g]).unwrap();
        let h = c.add_gate("h", GateKind::Or, &[ff, a]).unwrap();
        c.mark_output(h);
        c.validate().unwrap();
        let levels = c.levels(&c.topo_order().unwrap());
        assert_eq!(levels[ff.index()], 0, "dff output is level 0");
        assert_eq!(levels[h.index()], 1);
    }

    #[test]
    fn levels_computed() {
        let c = tiny();
        let lv = c.levels(&c.topo_order().unwrap());
        assert_eq!(lv, vec![0, 0, 1, 2]);
    }

    #[test]
    fn fanouts_built() {
        let c = tiny();
        let fo = c.fanouts();
        assert_eq!(fo[0], vec![NodeId(2)]);
        assert_eq!(fo[2], vec![NodeId(3)]);
        assert!(fo[3].is_empty());
    }

    #[test]
    fn display_summarizes() {
        let c = tiny();
        let s = c.to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("2 inputs"));
    }

    #[test]
    fn node_id_round_trips() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }
}
