//! Property-based tests for the ATPG crate.

use std::collections::HashMap;

use proptest::prelude::*;

use modsoc_atpg::collapse::collapse_faults;
use modsoc_atpg::compact::merge_compatible;
use modsoc_atpg::fault::{enumerate_faults, Fault, FaultSite};
use modsoc_atpg::fault_sim::FaultSimulator;
use modsoc_atpg::pattern::{Bit, FillStrategy, TestCube, TestSet};
use modsoc_atpg::podem::{Podem, PodemOutcome};
use modsoc_netlist::sim::Simulator;
use modsoc_netlist::{Circuit, GateKind, NodeId};

/// Random combinational circuit (same construction idea as the netlist
/// proptests: gates only reference earlier nodes).
fn build(inputs: usize, gates: &[(u8, Vec<usize>)], outputs: &[usize]) -> Circuit {
    let mut c = Circuit::new("rand");
    let mut nodes = Vec::new();
    for i in 0..inputs {
        nodes.push(c.add_input(format!("i{i}")));
    }
    for (gi, (sel, fanin_sel)) in gates.iter().enumerate() {
        let kind = match sel % 8 {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            _ => GateKind::Buf,
        };
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => fanin_sel.len().clamp(1, 3),
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
        nodes.push(c.add_gate(format!("g{gi}"), kind, &fanin).expect("gate"));
    }
    for &o in outputs {
        c.mark_output(nodes[o % nodes.len()]);
    }
    c
}

/// Output words of `circuit` under `words`, re-evaluated in topological
/// order with `fault` forced: a stem fault overrides its node's value
/// for every consumer, a pin fault only the one pin it sits on.
fn faulty_outputs(circuit: &Circuit, words: &[u64], fault: Fault) -> Vec<u64> {
    let forced = if fault.stuck_at_one { u64::MAX } else { 0 };
    let mut values = vec![0u64; circuit.node_count()];
    for (w, &pi) in words.iter().zip(circuit.inputs()) {
        values[pi.index()] = *w;
    }
    for id in circuit.topo_order().expect("acyclic") {
        let node = circuit.node(id);
        if node.kind != GateKind::Input {
            let fanin: Vec<u64> = node
                .fanin
                .iter()
                .enumerate()
                .map(|(k, f)| match fault.site {
                    FaultSite::Pin { gate, pin } if gate == id && pin == k => forced,
                    _ => values[f.index()],
                })
                .collect();
            values[id.index()] = node.kind.eval64(&fanin);
        }
        if fault.site == FaultSite::Stem(id) {
            values[id.index()] = forced;
        }
    }
    circuit
        .outputs()
        .iter()
        .map(|o| values[o.index()])
        .collect()
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..6, 1usize..20, 1usize..4)
        .prop_flat_map(|(inputs, n_gates, n_outputs)| {
            (
                Just(inputs),
                proptest::collection::vec(
                    (any::<u8>(), proptest::collection::vec(any::<usize>(), 1..4)),
                    n_gates..=n_gates,
                ),
                proptest::collection::vec(any::<usize>(), n_outputs..=n_outputs),
            )
        })
        .prop_map(|(inputs, gates, outputs)| build(inputs, &gates, &outputs))
}

/// [`build`]'s random gates plus every structure the collapsing rules
/// treat specially: constant drivers (`k0` on one pin, `k1` on two), one
/// driver on both pins of a gate, a BUF/NOT chain whose head is also an
/// output, and a flip-flop. `model` collapses the full-scan test model
/// (the flip-flop becomes a pseudo-input and its data driver an extra
/// output) instead of the netlist as built.
fn build_collapse_case(
    base: Circuit,
    picks: &[usize],
    dup_kind: u8,
    chain: &[bool],
    model: bool,
) -> Circuit {
    let mut c = base;
    let nodes: Vec<NodeId> = c.iter().map(|(id, _)| id).collect();
    let pick = |k: usize| nodes[picks[k] % nodes.len()];
    let k0 = c.add_gate("k0", GateKind::Const0, &[]).expect("k0");
    let k1 = c.add_gate("k1", GateKind::Const1, &[]).expect("k1");
    let ka = c.add_gate("ka", GateKind::Or, &[k0, pick(0)]).expect("ka");
    let kb = c.add_gate("kb", GateKind::And, &[k1, pick(1)]).expect("kb");
    let kn = c
        .add_gate("kn", GateKind::Nand, &[pick(2), k1])
        .expect("kn");
    let kind = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
    ][usize::from(dup_kind) % 5];
    let dup = c.add_gate("dup", kind, &[pick(3), pick(3)]).expect("dup");
    let head = pick(4);
    c.mark_output(head);
    let mut tail = head;
    for (k, &invert) in chain.iter().enumerate() {
        let kind = if invert { GateKind::Not } else { GateKind::Buf };
        tail = c.add_gate(format!("c{k}"), kind, &[tail]).expect("chain");
    }
    let ff = c.add_gate("ff", GateKind::Dff, &[pick(5)]).expect("ff");
    let q = c.add_gate("q", GateKind::Nor, &[ff, dup]).expect("q");
    for out in [ka, kb, kn, tail, q] {
        c.mark_output(out);
    }
    if model {
        c.to_test_model().expect("scan model").circuit
    } else {
        c
    }
}

fn arb_collapse_circuit() -> impl Strategy<Value = Circuit> {
    (
        arb_circuit(),
        proptest::collection::vec(any::<usize>(), 6..=6),
        any::<u8>(),
        proptest::collection::vec(any::<bool>(), 0..5),
        any::<bool>(),
    )
        .prop_map(|(base, picks, dup_kind, chain, model)| {
            build_collapse_case(base, &picks, dup_kind, &chain, model)
        })
}

/// Collapsing written straight from the structural rules over a
/// `HashMap` from fault to union-find slot: the oracle for the dense
/// fault ids. Returns the sorted representatives and each universe
/// fault's class (its representative's position among them).
fn reference_collapse(circuit: &Circuit) -> (Vec<Fault>, HashMap<Fault, usize>) {
    fn root(parent: &[usize], mut x: usize) -> usize {
        while parent[x] != x {
            x = parent[x];
        }
        x
    }
    let universe = enumerate_faults(circuit);
    let slot: HashMap<Fault, usize> = universe.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut parent: Vec<usize> = (0..universe.len()).collect();
    // Faults the universe lacks (a constant's stem) join nothing.
    let mut join = |a: Fault, b: Fault| {
        if let (Some(&x), Some(&y)) = (slot.get(&a), slot.get(&b)) {
            let (rx, ry) = (root(&parent, x), root(&parent, y));
            parent[rx] = ry;
        }
    };
    // Branches of a stem: its pin edges plus its output marks.
    let mut branches = vec![0usize; circuit.node_count()];
    for (_, node) in circuit.iter() {
        for f in &node.fanin {
            branches[f.index()] += 1;
        }
    }
    for o in circuit.outputs() {
        branches[o.index()] += 1;
    }
    let stem = |id: NodeId, sa1: bool| Fault {
        site: FaultSite::Stem(id),
        stuck_at_one: sa1,
    };
    // The fault on the line into `pin` of `gate`: the pin's own fault on
    // a true branch, else the driver's stem.
    let line = |gate: NodeId, pin: usize, sa1: bool| {
        let driver = circuit.node(gate).fanin[pin];
        if branches[driver.index()] > 1 {
            Fault::pin(gate, pin, sa1)
        } else {
            stem(driver, sa1)
        }
    };
    for (id, node) in circuit.iter() {
        let pins = 0..node.fanin.len();
        match node.kind {
            GateKind::Buf | GateKind::Dff => {
                for v in [false, true] {
                    join(line(id, 0, v), stem(id, v));
                }
            }
            GateKind::Not => {
                for v in [false, true] {
                    join(line(id, 0, v), stem(id, !v));
                }
            }
            GateKind::And | GateKind::Nand => {
                for pin in pins {
                    join(line(id, pin, false), stem(id, node.kind == GateKind::Nand));
                }
            }
            // The output polarity the engine has always collapsed `OR`
            // and `NOR` with: input s-a-1 joins output s-a-0 on `OR` and
            // s-a-1 on `NOR`.
            GateKind::Or | GateKind::Nor => {
                for pin in pins {
                    join(line(id, pin, true), stem(id, node.kind == GateKind::Nor));
                }
            }
            _ => {}
        }
    }
    let mut best: HashMap<usize, Fault> = HashMap::new();
    for (i, &f) in universe.iter().enumerate() {
        let r = root(&parent, i);
        best.entry(r).and_modify(|b| *b = (*b).min(f)).or_insert(f);
    }
    let mut reps: Vec<Fault> = best.values().copied().collect();
    reps.sort_unstable();
    let class = universe
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let rep = best[&root(&parent, i)];
            (f, reps.binary_search(&rep).expect("a representative"))
        })
        .collect();
    (reps, class)
}

fn arb_patterns(width: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width..=width),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_driven_fault_sim_matches_naive(circuit in arb_circuit(), seed in any::<u64>()) {
        let patterns: Vec<Vec<bool>> = (0..8u64)
            .map(|k| {
                (0..circuit.input_count())
                    .map(|i| (seed.rotate_left((k * 7 + i as u64) as u32)) & 1 == 1)
                    .collect()
            })
            .collect();
        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
        let sim = Simulator::new(&circuit).expect("sim");
        let mut words = vec![0u64; circuit.input_count()];
        for (slot, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }
        let good = sim.run_outputs(&circuit, &words);
        let active = (1u64 << patterns.len()) - 1;
        // Stem and pin faults alike, each simulated alone.
        let faults = enumerate_faults(&circuit);
        let mut wants = Vec::with_capacity(faults.len());
        for &fault in &faults {
            let bad = faulty_outputs(&circuit, &words, fault);
            let want = good.iter().zip(&bad).fold(0, |m, (g, b)| m | (g ^ b)) & active;
            let masks = fsim.detection_masks(&patterns, &[fault]).expect("masks");
            prop_assert_eq!(masks[0], want, "fault {}", fault.describe(&circuit));
            wants.push(want);
        }
        // One sweep over the whole list, so faults of one fanout-free
        // region share its trace.
        prop_assert_eq!(fsim.detection_masks(&patterns, &faults).expect("masks"), wants);
    }

    #[test]
    fn podem_results_are_sound(circuit in arb_circuit()) {
        let mut podem = Podem::new(&circuit, 500).expect("podem");
        let sim = Simulator::new(&circuit).expect("sim");
        for fault in collapse_faults(&circuit).representatives() {
            match podem.generate(*fault).expect("generate") {
                PodemOutcome::Test(cube) => {
                    // Detection must hold for EVERY fill of the cube.
                    for fill in [FillStrategy::Zeros, FillStrategy::Ones] {
                        let filled = cube.fill(fill);
                        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
                        let masks = fsim
                            .detection_masks(&[filled], &[*fault])
                            .expect("masks");
                        prop_assert_eq!(
                            masks[0] & 1,
                            1,
                            "cube for {} fails under {:?}",
                            fault.describe(&circuit),
                            fill
                        );
                    }
                    let _ = &sim;
                }
                PodemOutcome::Redundant => {
                    // Exhaustively verify on small input counts.
                    if circuit.input_count() <= 6 {
                        let all: Vec<Vec<bool>> = (0..(1usize << circuit.input_count()))
                            .map(|row| {
                                (0..circuit.input_count()).map(|i| (row >> i) & 1 == 1).collect()
                            })
                            .collect();
                        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
                        for chunk in all.chunks(64) {
                            let masks = fsim.detection_masks(chunk, &[*fault]).expect("masks");
                            prop_assert_eq!(
                                masks[0],
                                0,
                                "claimed redundant {} is detectable",
                                fault.describe(&circuit)
                            );
                        }
                    }
                }
                PodemOutcome::Aborted => {}
            }
        }
    }

    #[test]
    fn merge_preserves_specified_bits_and_count(
        cubes in proptest::collection::vec(
            proptest::collection::vec(0u8..3, 8..=8),
            1..12,
        )
    ) {
        let mut set = TestSet::new(8);
        for c in &cubes {
            set.push(TestCube::from_bits(
                c.iter()
                    .map(|&b| match b {
                        0 => Bit::Zero,
                        1 => Bit::One,
                        _ => Bit::X,
                    })
                    .collect(),
            ));
        }
        let merged = merge_compatible(&set);
        prop_assert!(merged.len() <= set.len());
        // Every original cube must be subsumed by some merged pattern.
        for cube in set.cubes() {
            let subsumed = merged.cubes().iter().any(|m| {
                (0..8).all(|i| cube.bit(i) == Bit::X || m.bit(i) == cube.bit(i))
            });
            prop_assert!(subsumed, "cube {} lost", cube);
        }
    }

    #[test]
    fn fill_respects_specified_bits(
        bits in proptest::collection::vec(0u8..3, 1..32),
        seed in any::<u64>(),
    ) {
        let cube = TestCube::from_bits(
            bits.iter()
                .map(|&b| match b {
                    0 => Bit::Zero,
                    1 => Bit::One,
                    _ => Bit::X,
                })
                .collect(),
        );
        for fill in [
            FillStrategy::Zeros,
            FillStrategy::Ones,
            FillStrategy::Random { seed },
        ] {
            let filled = cube.fill(fill);
            for (i, &b) in bits.iter().enumerate() {
                match b {
                    0 => prop_assert!(!filled[i]),
                    1 => prop_assert!(filled[i]),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn collapsing_never_loses_detection(circuit in arb_circuit(), patterns_seed in any::<u64>()) {
        // A pattern set detecting all representatives detects the whole
        // universe: every universe fault's class representative being
        // detected implies the member is detected by SOME pattern in a
        // complete set. Weaker checkable property: class_of is total and
        // representatives belong to the universe.
        let collapsed = collapse_faults(&circuit);
        let universe = enumerate_faults(&circuit);
        prop_assert_eq!(collapsed.universe_size(), universe.len());
        for f in &universe {
            prop_assert!(collapsed.class_of(*f).is_some());
        }
        for rep in collapsed.representatives() {
            prop_assert!(universe.contains(rep), "rep {rep} outside universe");
        }
        let _ = patterns_seed;
    }

    #[test]
    fn dense_collapse_matches_the_hash_map_reference(circuit in arb_collapse_circuit()) {
        let collapsed = collapse_faults(&circuit);
        let (reps, class) = reference_collapse(&circuit);
        let universe = enumerate_faults(&circuit);
        prop_assert_eq!(collapsed.representatives(), &reps[..]);
        prop_assert_eq!(collapsed.universe_size(), universe.len());
        for f in &universe {
            prop_assert_eq!(collapsed.class_of(*f), Some(class[f]), "class of {}", f);
        }
    }

    #[test]
    fn detection_masks_respect_active_window(circuit in arb_circuit(), patterns in arb_patterns(4)) {
        // Use only circuits with exactly 4 inputs for this property.
        if circuit.input_count() != 4 {
            return Ok(());
        }
        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
        let faults: Vec<Fault> = enumerate_faults(&circuit);
        let n = patterns.len().min(64);
        let masks = fsim
            .detection_masks(&patterns[..n], &faults)
            .expect("masks");
        let active = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        for m in masks {
            prop_assert_eq!(m & !active, 0);
        }
    }

    #[test]
    fn tail_widths_count_like_per_pattern_sim(circuit in arb_circuit(), seed in any::<u64>()) {
        // The word-boundary widths that exercise `active_mask` tail
        // handling: a lone pattern, one short of a full 64-pattern word,
        // exactly one word, and one pattern into a second word.
        let faults: Vec<Fault> = collapse_faults(&circuit).representatives().to_vec();
        use modsoc_metrics::NullSink;
        let counts_at = |patterns: &[Vec<bool>], jobs: usize| {
            FaultSimulator::new(&circuit)
                .expect("fsim")
                .detection_counts(patterns, &faults, jobs, &NullSink)
                .expect("counts")
        };
        for width in [1usize, 63, 64, 65] {
            let patterns: Vec<Vec<bool>> = (0..width as u64)
                .map(|k| {
                    (0..circuit.input_count())
                        .map(|i| (seed.rotate_left((k * 11 + i as u64) as u32)) & 1 == 1)
                        .collect()
                })
                .collect();
            let counts = counts_at(&patterns, 1);
            // Ground truth: one pattern at a time, so every call uses the
            // single-bit active window and no tail can leak.
            let mut per_pattern = vec![0u32; faults.len()];
            for p in &patterns {
                let single = counts_at(std::slice::from_ref(p), 1);
                for (acc, c) in per_pattern.iter_mut().zip(single) {
                    *acc += c;
                }
            }
            prop_assert_eq!(&counts, &per_pattern, "width {}", width);
            // And the sharded run is identical at any jobs value.
            let sharded = counts_at(&patterns, 3);
            prop_assert_eq!(&counts, &sharded, "width {} sharded", width);
        }
    }

    #[test]
    fn budgeted_masks_stay_inside_active_window(circuit in arb_circuit(), seed in any::<u64>()) {
        // The budget-trip regression (word-boundary widths): a partial
        // result returned mid-batch must still be confined to the active
        // pattern window, and an untripped budget must change nothing.
        use modsoc_atpg::budget::RunBudget;
        use modsoc_atpg::fault_sim::active_mask;
        use modsoc_metrics::NullSink;
        let faults: Vec<Fault> = collapse_faults(&circuit).representatives().to_vec();
        for width in [63usize, 64, 65] {
            let patterns: Vec<Vec<bool>> = (0..width as u64)
                .map(|k| {
                    (0..circuit.input_count())
                        .map(|i| (seed.rotate_left((k * 13 + i as u64) as u32)) & 1 == 1)
                        .collect()
                })
                .collect();
            let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
            // The budgeted API takes one ≤64-pattern batch, so width 65
            // exercises the caller-side chunking with a 1-pattern tail.
            for chunk in patterns.chunks(64) {
                let plain = fsim.detection_masks(chunk, &faults).expect("plain");
                let open = RunBudget::unlimited();
                let (unbudgeted, reason) = fsim
                    .detection_masks_budgeted(chunk, &faults, &open, 1, &NullSink)
                    .expect("open");
                prop_assert_eq!(reason, None, "width {}", width);
                prop_assert_eq!(&unbudgeted, &plain, "width {} untripped", width);
                let tripped = RunBudget::unlimited();
                tripped.cancel();
                let (partial, reason) = fsim
                    .detection_masks_budgeted(chunk, &faults, &tripped, 1, &NullSink)
                    .expect("tripped");
                prop_assert!(reason.is_some(), "width {} should trip", width);
                let tail = active_mask(chunk.len());
                for (m, full) in partial.iter().zip(&plain) {
                    prop_assert_eq!(m & !tail, 0, "width {} leaked past window", width);
                    // A partial mask only ever reports true detections.
                    prop_assert_eq!(m & !full, 0, "width {} invented detections", width);
                }
            }
        }
    }
}

/// The one-trit-per-element cube the bit planes replaced: every packed
/// operation is checked against these definitions.
mod reference {
    use modsoc_atpg::pattern::{Bit, FillStrategy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub fn specified_count(bits: &[Bit]) -> usize {
        bits.iter().filter(|b| b.is_specified()).count()
    }

    pub fn compatible(a: &[Bit], b: &[Bit]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.compatible(*y))
    }

    pub fn merged(a: &[Bit], b: &[Bit]) -> Vec<Bit> {
        a.iter().zip(b).map(|(x, y)| x.merge(*y)).collect()
    }

    pub fn content_hash(bits: &[Bit]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bits {
            h ^= match b {
                Bit::Zero => 1,
                Bit::One => 2,
                Bit::X => 3,
            };
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    pub fn fill(bits: &[Bit], strategy: FillStrategy) -> Vec<bool> {
        let mut rng = match strategy {
            FillStrategy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        bits.iter()
            .map(|b| match (b, strategy) {
                (Bit::Zero, _) | (Bit::X, FillStrategy::Zeros) => false,
                (Bit::One, _) | (Bit::X, FillStrategy::Ones) => true,
                (Bit::X, FillStrategy::Random { .. }) => rng.as_mut().expect("rng").gen(),
            })
            .collect()
    }

    pub fn fill_keyed(bits: &[Bit], strategy: FillStrategy) -> Vec<bool> {
        match strategy {
            FillStrategy::Random { seed } => fill(
                bits,
                FillStrategy::Random {
                    seed: seed ^ content_hash(bits),
                },
            ),
            other => fill(bits, other),
        }
    }

    pub fn text(bits: &[Bit]) -> String {
        bits.iter().map(ToString::to_string).collect()
    }
}

/// Widths around the packed word boundaries.
const CUBE_WIDTHS: [usize; 6] = [0, 1, 63, 64, 65, 130];

/// A trit code: mostly X, as ATPG cubes are.
fn trit(code: u8) -> Bit {
    match code {
        0 => Bit::Zero,
        1 => Bit::One,
        _ => Bit::X,
    }
}

fn std_hash(cube: &TestCube) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cube.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_cubes_match_the_trit_reference(
        a_codes in proptest::collection::vec(0u8..6, 130..=130),
        b_codes in proptest::collection::vec(0u8..6, 130..=130),
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        for width in CUBE_WIDTHS {
            let a: Vec<Bit> = a_codes[..width].iter().map(|&c| trit(c)).collect();
            let b: Vec<Bit> = b_codes[..width].iter().map(|&c| trit(c)).collect();
            // `b` without its conflicts with `a`: always compatible.
            let c: Vec<Bit> = a
                .iter()
                .zip(&b)
                .map(|(x, y)| if x.compatible(*y) { *y } else { Bit::X })
                .collect();
            // `a` with its X filled from `b`, and then fully specified.
            let full: Vec<bool> = a
                .iter()
                .zip(&b_codes)
                .map(|(x, &y)| match x {
                    Bit::X => y % 2 == 1,
                    _ => *x == Bit::One,
                })
                .collect();
            let full_bits: Vec<Bit> = full.iter().map(|&v| Bit::from_bool(v)).collect();
            let cases = [
                (TestCube::from_bits(a.clone()), a.clone()),
                (TestCube::from_bits(b.clone()), b.clone()),
                (TestCube::from_bits(c.clone()), c.clone()),
                (TestCube::from_bools(&full), full_bits),
            ];
            for (cube, bits) in &cases {
                prop_assert_eq!(cube.width(), width);
                for (i, &bit) in bits.iter().enumerate() {
                    prop_assert_eq!(cube.bit(i), bit, "width {} bit {}", width, i);
                }
                prop_assert_eq!(cube.specified_count(), reference::specified_count(bits));
                prop_assert_eq!(cube.content_hash(), reference::content_hash(bits));
                for fill in [
                    FillStrategy::Zeros,
                    FillStrategy::Ones,
                    FillStrategy::Random { seed },
                ] {
                    prop_assert_eq!(cube.fill(fill), reference::fill(bits, fill), "width {}", width);
                    prop_assert_eq!(
                        cube.fill_keyed(fill),
                        reference::fill_keyed(bits, fill),
                        "width {} {:?}",
                        width,
                        fill
                    );
                }
                prop_assert_eq!(cube.to_string(), reference::text(bits));
                // Built bit by bit, or through the text form, the cube
                // is the same value with the same hash.
                let mut set_wise = TestCube::all_x(width);
                for (i, &bit) in bits.iter().enumerate() {
                    set_wise.set(i, Bit::One);
                    set_wise.set(i, bit);
                }
                prop_assert_eq!(&set_wise, cube);
                prop_assert_eq!(std_hash(&set_wise), std_hash(cube));
                if width > 0 {
                    let mut set = TestSet::new(width);
                    set.push(cube.clone());
                    set.push(set_wise);
                    let text = set.to_text();
                    prop_assert_eq!(&text, &format!("{0}\n{0}\n", reference::text(bits)));
                    let back = TestSet::from_text(&text).expect("round trip");
                    prop_assert_eq!(&back, &set);
                    prop_assert_eq!(std_hash(&back.cubes()[0]), std_hash(cube));
                }
            }
            for (x, xb) in &cases {
                for (y, yb) in &cases {
                    let compatible = reference::compatible(xb, yb);
                    prop_assert_eq!(x.compatible(y), compatible, "width {}", width);
                    prop_assert_eq!(x == y, xb == yb);
                    if x == y {
                        prop_assert_eq!(std_hash(x), std_hash(y));
                    }
                    if compatible {
                        let m = x.merged(y);
                        prop_assert_eq!(&m, &TestCube::from_bits(reference::merged(xb, yb)));
                        let mut in_place = x.clone();
                        in_place.merge_in_place(y);
                        prop_assert_eq!(in_place, m);
                    }
                }
            }
            // One conflict planted in an otherwise compatible pair.
            if width > 0 {
                let i = (pick % width as u64) as usize;
                let mut x = c.clone();
                let mut y = a.clone();
                x[i] = Bit::Zero;
                y[i] = Bit::One;
                let (px, py) = (TestCube::from_bits(x), TestCube::from_bits(y));
                prop_assert!(!px.compatible(&py), "width {} conflict at {}", width, i);
            }
        }
    }
}
