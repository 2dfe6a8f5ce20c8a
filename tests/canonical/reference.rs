//! The canonical order as a name-keyed heap: the reference that
//! `modsoc_netlist::canonical_order` is checked against.
//!
//! Kahn's algorithm over the combinational edges (a flip-flop's output
//! is a source, its data pin a sink), with the ready set a min-heap of
//! `(name, id)` pairs. `canonical_order` heaps ranks of a one-time name
//! sort instead; the two agree because names are unique in a circuit.
//!
//! This file is test code only. Two test targets include it as a
//! module: the netlist property tests
//! (`crates/netlist/tests/proptests.rs`) and `tests/canonical_keys.rs`.
//! The including module imports `Circuit`, `GateKind` and `NodeId`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{Circuit, GateKind, NodeId};

/// The lexicographic topological order of `circuit`, or `None` on a
/// combinational cycle.
pub fn name_heap_order(circuit: &Circuit) -> Option<Vec<NodeId>> {
    let n = circuit.node_count();
    let mut indegree = vec![0u32; n];
    let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, node) in circuit.iter() {
        if node.kind == GateKind::Dff {
            continue;
        }
        for f in &node.fanin {
            fanout[f.index()].push(id.index());
            indegree[id.index()] += 1;
        }
    }
    let name = |i: usize| circuit.node(NodeId::from_index(i)).name.as_str();
    let mut heap: BinaryHeap<Reverse<(&str, usize)>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| Reverse((name(i), i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, v))) = heap.pop() {
        order.push(NodeId::from_index(v));
        for &w in &fanout[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                heap.push(Reverse((name(w), w)));
            }
        }
    }
    (order.len() == n).then_some(order)
}
