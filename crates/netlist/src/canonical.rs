//! Canonical byte serialization of a [`Circuit`] for content addressing.
//!
//! The result store keys cached ATPG results by a hash of the circuit, so
//! the serialization here must be *stable*: two textual descriptions of
//! the same circuit (e.g. a `.bench` file with its gate lines shuffled)
//! must produce identical bytes. Plain node-id order is not stable —
//! ids follow declaration order — so the nodes are emitted in a
//! **lexicographic topological order**: Kahn's algorithm over the same
//! combinational edges as [`Circuit::topo_order`] (flip-flop outputs are
//! sources, their data inputs sinks), but with the ready set kept as a
//! min-heap on node *name*. Names are stable under line reordering, so
//! the canonical order — and therefore the bytes — is too.
//!
//! What the bytes encode (and what they deliberately leave out):
//!
//! * node kinds and fanin edges (as canonical positions, in pin order),
//! * the primary input, primary output and flip-flop lists **in
//!   declaration order** — pattern bit positions and scan order follow
//!   declaration order, so permuting them changes what a cached pattern
//!   set means and must change the hash;
//! * *not* the circuit name or the node names: renaming a design (or its
//!   nets, when the renaming preserves relative name order) does not
//!   change its tests. A rename that reorders name ties can change the
//!   canonical order and miss the cache — a safe false miss, never a
//!   false hit between structurally different circuits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::circuit::{Circuit, NodeId, ReadySet};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Format tag hashed into every serialization; bump on layout changes so
/// stale store entries key-miss instead of decoding garbage.
pub const CANONICAL_FORMAT: &str = "modsoc-canon-v1";

/// Stable one-byte tag per gate kind (append-only).
fn kind_tag(kind: GateKind) -> u8 {
    match kind {
        GateKind::Input => 0,
        GateKind::Buf => 1,
        GateKind::Not => 2,
        GateKind::And => 3,
        GateKind::Nand => 4,
        GateKind::Or => 5,
        GateKind::Nor => 6,
        GateKind::Xor => 7,
        GateKind::Xnor => 8,
        GateKind::Const0 => 9,
        GateKind::Const1 => 10,
        GateKind::Dff => 11,
    }
}

/// Compute the lexicographic topological order: same sequential-cut edge
/// set as [`Circuit::topo_order`], smallest node *name* first among the
/// ready nodes.
///
/// Names are unique within a circuit, so the ids are sorted by name once
/// and the ready set is a min-heap of those ranks.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] exactly when
/// [`Circuit::topo_order`] does.
pub fn canonical_order(circuit: &Circuit) -> Result<Vec<NodeId>, NetlistError> {
    let mut by_rank: Vec<NodeId> = circuit.iter().map(|(id, _)| id).collect();
    by_rank.sort_unstable_by(|&a, &b| circuit.node(a).name.cmp(&circuit.node(b).name));
    let mut rank = vec![0u32; by_rank.len()];
    for (r, id) in by_rank.iter().enumerate() {
        rank[id.index()] = r as u32;
    }
    let ready = RankHeap {
        heap: BinaryHeap::new(),
        rank,
        by_rank,
    };
    circuit.kahn(&circuit.fanout_csr(), ready)
}

/// Smallest name first: the ready set of [`canonical_order`].
struct RankHeap {
    heap: BinaryHeap<Reverse<u32>>,
    rank: Vec<u32>,
    by_rank: Vec<NodeId>,
}

impl ReadySet for RankHeap {
    fn push(&mut self, id: NodeId) {
        self.heap.push(Reverse(self.rank[id.index()]));
    }
    fn pop(&mut self) -> Option<NodeId> {
        self.heap.pop().map(|Reverse(r)| self.by_rank[r as usize])
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialize the circuit into its canonical byte form (see the module
/// docs for the exact invariances).
///
/// # Errors
///
/// Propagates cycle/fanin errors from [`canonical_order`].
pub fn canonical_bytes(circuit: &Circuit) -> Result<Vec<u8>, NetlistError> {
    let order = canonical_order(circuit)?;
    // position[i] = canonical index of node id i.
    let mut position = vec![0u32; circuit.node_count()];
    for (pos, id) in order.iter().enumerate() {
        position[id.index()] = pos as u32;
    }

    let mut out = Vec::with_capacity(16 + circuit.node_count() * 12);
    out.extend_from_slice(CANONICAL_FORMAT.as_bytes());
    out.push(b'\n');
    push_u32(&mut out, circuit.node_count() as u32);
    push_u32(&mut out, circuit.input_count() as u32);
    push_u32(&mut out, circuit.output_count() as u32);
    push_u32(&mut out, circuit.dff_count() as u32);
    for id in &order {
        let node = circuit.node(*id);
        out.push(kind_tag(node.kind));
        push_u32(&mut out, node.fanin.len() as u32);
        for f in &node.fanin {
            push_u32(&mut out, position[f.index()]);
        }
    }
    // Port lists in declaration order: they define pattern bit positions
    // (inputs + scan order), so their order is part of the identity.
    for list in [circuit.inputs(), circuit.outputs(), circuit.dffs()] {
        push_u32(&mut out, list.len() as u32);
        for id in list {
            push_u32(&mut out, position[id.index()]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse_bench;

    const BENCH_A: &str = "
INPUT(a)\nINPUT(b)\nINPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NAND(b, c)
y = NAND(n1, n2)
";

    // Same circuit, gate lines shuffled.
    const BENCH_A_SHUFFLED: &str = "
INPUT(a)\nINPUT(b)\nINPUT(c)
OUTPUT(y)
n2 = NAND(b, c)
n1 = NAND(a, b)
y = NAND(n1, n2)
";

    #[test]
    fn serialization_is_stable() {
        let c = parse_bench("t", BENCH_A).unwrap();
        assert_eq!(canonical_bytes(&c).unwrap(), canonical_bytes(&c).unwrap());
    }

    #[test]
    fn gate_line_reordering_is_invisible() {
        let a = parse_bench("t", BENCH_A).unwrap();
        let b = parse_bench("t", BENCH_A_SHUFFLED).unwrap();
        assert_eq!(canonical_bytes(&a).unwrap(), canonical_bytes(&b).unwrap());
    }

    #[test]
    fn circuit_name_is_excluded() {
        let a = parse_bench("one", BENCH_A).unwrap();
        let b = parse_bench("two", BENCH_A).unwrap();
        assert_eq!(canonical_bytes(&a).unwrap(), canonical_bytes(&b).unwrap());
    }

    #[test]
    fn structural_change_changes_bytes() {
        let a = parse_bench("t", BENCH_A).unwrap();
        let b = parse_bench("t", &BENCH_A.replace("y = NAND(n1, n2)", "y = NOR(n1, n2)")).unwrap();
        assert_ne!(canonical_bytes(&a).unwrap(), canonical_bytes(&b).unwrap());
    }

    #[test]
    fn input_order_is_part_of_the_identity() {
        // Swapping the input declaration order permutes pattern bit
        // positions, so the bytes must differ.
        let a = parse_bench("t", BENCH_A).unwrap();
        let b = parse_bench(
            "t",
            &BENCH_A.replace("INPUT(a)\nINPUT(b)", "INPUT(b)\nINPUT(a)"),
        )
        .unwrap();
        assert_ne!(canonical_bytes(&a).unwrap(), canonical_bytes(&b).unwrap());
    }

    #[test]
    fn sequential_circuit_serializes() {
        let c = parse_bench(
            "seq",
            "
INPUT(a)
OUTPUT(q)
ff = DFF(g)
g = AND(a, ff)
q = NOT(g)
",
        )
        .unwrap();
        let bytes = canonical_bytes(&c).unwrap();
        assert_eq!(canonical_bytes(&c).unwrap(), bytes);
        assert!(bytes.len() > CANONICAL_FORMAT.len());
    }

    #[test]
    fn canonical_order_matches_topo_constraints() {
        let c = parse_bench("t", BENCH_A).unwrap();
        let order = canonical_order(&c).unwrap();
        assert_eq!(order.len(), c.node_count());
        let mut pos = vec![0usize; c.node_count()];
        for (p, id) in order.iter().enumerate() {
            pos[id.index()] = p;
        }
        for (id, node) in c.iter() {
            if node.kind == GateKind::Dff {
                continue;
            }
            for f in &node.fanin {
                assert!(pos[f.index()] < pos[id.index()], "edge respects order");
            }
        }
    }
}
