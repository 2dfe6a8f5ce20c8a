//! Property-based tests for the netlist crate.

use proptest::prelude::*;

use modsoc_netlist::bench_format::{parse_bench, write_bench};
use modsoc_netlist::canonical::canonical_order;
use modsoc_netlist::cone::extract_cones;
use modsoc_netlist::sim::{simulate_single, Simulator};
use modsoc_netlist::{Circuit, GateKind, NodeId};

#[path = "../../../tests/canonical/reference.rs"]
mod reference;

/// A random combinational circuit description: per gate, (kind selector,
/// fanin selectors). Inputs come first; every gate may use any earlier
/// node, so the result is a DAG by construction.
#[derive(Debug, Clone)]
struct RandomCircuit {
    inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
    outputs: Vec<usize>,
}

fn kind_of(selector: u8) -> GateKind {
    match selector % 8 {
        0 => GateKind::And,
        1 => GateKind::Nand,
        2 => GateKind::Or,
        3 => GateKind::Nor,
        4 => GateKind::Xor,
        5 => GateKind::Xnor,
        6 => GateKind::Not,
        _ => GateKind::Buf,
    }
}

fn build(rc: &RandomCircuit) -> Circuit {
    let mut c = Circuit::new("rand");
    let mut nodes = Vec::new();
    for i in 0..rc.inputs {
        nodes.push(c.add_input(format!("i{i}")));
    }
    for (gi, (sel, fanin_sel)) in rc.gates.iter().enumerate() {
        let kind = kind_of(*sel);
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2.min(fanin_sel.len()).max(1),
        };
        let fanin: Vec<_> = fanin_sel
            .iter()
            .take(arity)
            .map(|&s| nodes[s % nodes.len()])
            .collect();
        let kind = if fanin.len() == 1 && !matches!(kind, GateKind::Not | GateKind::Buf) {
            GateKind::Buf
        } else {
            kind
        };
        nodes.push(
            c.add_gate(format!("g{gi}"), kind, &fanin)
                .expect("valid gate"),
        );
    }
    for &o in &rc.outputs {
        c.mark_output(nodes[o % nodes.len()]);
    }
    c
}

fn arb_circuit() -> impl Strategy<Value = RandomCircuit> {
    (2usize..6, 1usize..25, 1usize..5).prop_flat_map(|(inputs, n_gates, n_outputs)| {
        let gates = proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<usize>(), 1..3)),
            n_gates..=n_gates,
        );
        let outputs = proptest::collection::vec(any::<usize>(), n_outputs..=n_outputs);
        (Just(inputs), gates, outputs).prop_map(|(inputs, gates, outputs)| RandomCircuit {
            inputs,
            gates,
            outputs,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bench_round_trip_preserves_structure(rc in arb_circuit()) {
        let c1 = build(&rc);
        let text = write_bench(&c1);
        let c2 = parse_bench("rand", &text).expect("parses back");
        prop_assert_eq!(c1.input_count(), c2.input_count());
        prop_assert_eq!(c1.output_count(), c2.output_count());
        prop_assert_eq!(c1.gate_count(), c2.gate_count());
        // Function preserved: simulate both on a few vectors.
        for seed in 0..4u64 {
            let vec: Vec<bool> = (0..c1.input_count())
                .map(|i| (seed >> (i % 4)) & 1 == 1)
                .collect();
            let v1 = simulate_single(&c1, &vec).expect("sim");
            let v2 = simulate_single(&c2, &vec).expect("sim");
            let o1: Vec<bool> = c1.outputs().iter().map(|o| v1[o.index()]).collect();
            let o2: Vec<bool> = c2.outputs().iter().map(|o| v2[o.index()]).collect();
            prop_assert_eq!(o1, o2);
        }
    }

    #[test]
    fn canonical_order_matches_the_name_heap_reference(rc in arb_circuit()) {
        // `g10` sorts before `g2`: name order is not id order here.
        let c = build(&rc);
        let order = canonical_order(&c).expect("acyclic by construction");
        prop_assert_eq!(Some(order), reference::name_heap_order(&c));
    }

    #[test]
    fn topo_order_is_valid(rc in arb_circuit()) {
        let c = build(&rc);
        let order = c.topo_order().expect("acyclic by construction");
        prop_assert_eq!(order.len(), c.node_count());
        let mut pos = vec![usize::MAX; c.node_count()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for (id, node) in c.iter() {
            if node.kind == GateKind::Dff {
                continue;
            }
            for f in &node.fanin {
                prop_assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn packed_sim_matches_single_sim(rc in arb_circuit(), vectors in proptest::collection::vec(any::<u64>(), 1..4)) {
        let c = build(&rc);
        let sim = Simulator::new(&c).expect("combinational");
        for &bits in &vectors {
            let vec: Vec<bool> = (0..c.input_count()).map(|i| (bits >> (i % 64)) & 1 == 1).collect();
            let words: Vec<u64> = vec.iter().map(|&b| u64::from(b)).collect();
            let packed = sim.run_on(&c, &words);
            let single = simulate_single(&c, &vec).expect("sim");
            for (i, &s) in single.iter().enumerate() {
                prop_assert_eq!(packed[i] & 1 == 1, s, "node {}", i);
            }
        }
    }

    #[test]
    fn cones_cover_exactly_the_output_fanin(rc in arb_circuit()) {
        let c = build(&rc);
        let analysis = extract_cones(&c).expect("cones");
        prop_assert_eq!(analysis.cones().len(), c.output_count());
        // Union of cone nodes = nodes backward-reachable from outputs.
        let mut reach = vec![false; c.node_count()];
        let mut stack: Vec<_> = c.outputs().to_vec();
        while let Some(id) = stack.pop() {
            if reach[id.index()] {
                continue;
            }
            reach[id.index()] = true;
            stack.extend(c.node(id).fanin.iter().copied());
        }
        let mut in_cones = vec![false; c.node_count()];
        for cone in analysis.cones() {
            for &n in &cone.nodes {
                in_cones[n.index()] = true;
            }
        }
        prop_assert_eq!(reach, in_cones);
    }

    #[test]
    fn wrapper_preserves_interface_and_adds_cells(rc in arb_circuit()) {
        let c = build(&rc);
        let w = modsoc_netlist::wrapper::wrap_circuit(&c).expect("wraps");
        prop_assert_eq!(w.circuit.input_count(), c.input_count());
        prop_assert_eq!(w.circuit.output_count(), c.output_count());
        prop_assert_eq!(
            w.circuit.dff_count(),
            c.dff_count() + c.input_count() + c.output_count()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bench_parser_never_panics(text in ".{0,300}") {
        let _ = parse_bench("fuzz", &text);
    }

    #[test]
    fn bench_parser_structured_junk_never_panics(
        lines in proptest::collection::vec(
            prop_oneof![
                "INPUT\\([a-z]{1,3}\\)".prop_map(|s| s),
                "OUTPUT\\([a-z]{1,3}\\)".prop_map(|s| s),
                "[a-z]{1,3} = (AND|NOT|DFF|XOR)\\([a-z]{1,3}(, [a-z]{1,3})?\\)".prop_map(|s| s),
                Just("# comment".to_string()),
            ],
            0..10,
        )
    ) {
        let text = lines.join("\n");
        if let Ok(c) = parse_bench("fuzz", &text) {
            c.validate().expect("parsed circuits are valid");
        }
    }
}
