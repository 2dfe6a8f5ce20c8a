//! A shared structural index over a circuit.
//!
//! Every structural query an ATPG engine repeats per fault — fanout
//! adjacency, topological position, logic depth, output reachability —
//! is derived from the netlist once and packed into flat arrays here, so
//! the search layers (PODEM, fault simulation, fault enumeration and
//! collapsing) can borrow one [`StructuralIndex`] instead of each
//! rebuilding `Vec<Vec<NodeId>>` fanout lists per call.
//!
//! The fanout adjacency is CSR-packed: one contiguous `NodeId` array plus
//! per-node start offsets. Consumer lists preserve the exact semantics of
//! [`Circuit::fanouts`] — one entry per *pin edge* (a driver feeding two
//! pins of the same gate appears twice) in ascending consumer-id order —
//! so fanout-branch counting in fault enumeration is unchanged.
//!
//! The index also partitions the nodes into *fanout-free regions*
//! (FFRs): a node that drives exactly one pin of one combinational gate
//! and no primary output belongs to that consumer's region; every other
//! node roots a region of its own. Each region is a tree, and only its
//! root's value leaves it, which is what lets fault simulation trace a
//! fault's effect to the root along a single path. Region membership
//! is CSR-packed too, each region's members in reverse topological
//! order (root first, every member after its consumer).
//!
//! For each region whose root is live and not an output, the index
//! also stores the root's *stem region* (Maamari and Rajski, IEEE TCAD
//! 1990): the regions of its fanout cone where its fanout reconverges,
//! and every cone region upstream of one of those. Outside its stem
//! region a root's flip enters each region through a single pin edge
//! and the cone below that region is a tree, so fault simulation can
//! trace the flip there instead of propagating it.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Precomputed structural queries for one circuit.
///
/// Built once per circuit (see [`StructuralIndex::build`]) and shared by
/// reference (or `Arc`) across every consumer; all queries are O(1) or
/// O(degree).
#[derive(Debug, Clone)]
pub struct StructuralIndex {
    node_count: usize,
    /// Each node's gate kind.
    kinds: Vec<GateKind>,
    /// CSR offsets into `fanin_adj`: the drivers of node `n`, in pin
    /// order, occupy `fanin_adj[fanin_start[n] .. fanin_start[n + 1]]`.
    fanin_start: Vec<u32>,
    fanin_adj: Vec<NodeId>,
    /// CSR offsets into `fanout_adj`: consumers of node `n` occupy
    /// `fanout_adj[fanout_start[n] .. fanout_start[n + 1]]`.
    fanout_start: Vec<u32>,
    fanout_adj: Vec<NodeId>,
    topo: Vec<NodeId>,
    topo_pos: Vec<u32>,
    levels: Vec<u32>,
    /// How many times each node is marked as a primary output (a node may
    /// drive several output pins, matching `.bench` semantics).
    output_marks: Vec<u32>,
    /// Whether some primary output is reachable from each node through
    /// combinational edges (including the node itself being an output).
    live: Vec<bool>,
    /// The fanout-free region each node belongs to.
    ffr: Vec<u32>,
    /// Each node's position in its region's member list (0 for a root).
    ffr_pos: Vec<u32>,
    /// For a non-root node, the pin it drives in its single consumer;
    /// `u32::MAX` for a root.
    ffr_pin: Vec<u32>,
    /// CSR offsets into `ffr_members`: region `r` occupies
    /// `ffr_members[ffr_start[r] .. ffr_start[r + 1]]`.
    ffr_start: Vec<u32>,
    ffr_members: Vec<NodeId>,
    /// CSR offsets into `stem_regions`: the stem region of region `r`'s
    /// root occupies `stem_regions[stem_start[r] .. stem_start[r + 1]]`.
    stem_start: Vec<u32>,
    stem_regions: Vec<u32>,
}

impl StructuralIndex {
    /// Build the index for `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates cycle detection from [`Circuit::topo_order`].
    pub fn build(circuit: &Circuit) -> Result<StructuralIndex, NetlistError> {
        let n = circuit.node_count();
        let topo = circuit.topo_order()?;
        let levels = circuit.levels_in(&topo);
        let mut topo_pos = vec![0u32; n];
        for (pos, id) in topo.iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }

        // The fanin lists and gate kinds, packed so that a search reads
        // them from two flat arrays instead of one heap list per node.
        let kinds: Vec<GateKind> = circuit.iter().map(|(_, node)| node.kind).collect();
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_adj = Vec::new();
        fanin_start.push(0);
        for (_, node) in circuit.iter() {
            fanin_adj.extend_from_slice(&node.fanin);
            fanin_start.push(u32::try_from(fanin_adj.len()).expect("pin edges fit in u32"));
        }

        // CSR fanout adjacency, mirroring `Circuit::fanouts()` exactly:
        // iterate consumers in id order, one entry per pin edge.
        let mut degree = vec![0u32; n];
        for (_, node) in circuit.iter() {
            for f in &node.fanin {
                degree[f.index()] += 1;
            }
        }
        let mut fanout_start = vec![0u32; n + 1];
        for i in 0..n {
            fanout_start[i + 1] = fanout_start[i] + degree[i];
        }
        let mut cursor: Vec<u32> = fanout_start[..n].to_vec();
        let mut fanout_adj = vec![NodeId::from_index(0); fanout_start[n] as usize];
        for (id, node) in circuit.iter() {
            for f in &node.fanin {
                fanout_adj[cursor[f.index()] as usize] = id;
                cursor[f.index()] += 1;
            }
        }

        let mut output_marks = vec![0u32; n];
        for &po in circuit.outputs() {
            output_marks[po.index()] += 1;
        }

        // Output reachability through combinational edges (edges into a
        // flip-flop's data pin are sequential sinks and excluded), and
        // the fanout-free regions: walking in reverse topological order
        // reaches every consumer before its drivers, so a node with one
        // combinational pin edge and no output mark joins its consumer's
        // already-numbered region, and any other node opens a new one.
        let mut live: Vec<bool> = output_marks.iter().map(|&m| m > 0).collect();
        let mut ffr = vec![0u32; n];
        let mut ffr_pin = vec![u32::MAX; n];
        let mut ffr_sizes: Vec<u32> = Vec::new();
        for &id in topo.iter().rev() {
            let i = id.index();
            let (lo, hi) = (fanout_start[i] as usize, fanout_start[i + 1] as usize);
            let consumers = &fanout_adj[lo..hi];
            live[i] = live[i]
                || consumers
                    .iter()
                    .any(|&fo| circuit.node(fo).kind != GateKind::Dff && live[fo.index()]);
            let consumer = match consumers {
                [c] if output_marks[i] == 0 && circuit.node(*c).kind != GateKind::Dff => Some(*c),
                _ => None,
            };
            if let Some(c) = consumer {
                let pin = circuit.node(c).fanin.iter().position(|&f| f == id);
                ffr_pin[i] = pin.expect("a consumer lists its driver") as u32;
                ffr[i] = ffr[c.index()];
            } else {
                ffr[i] = ffr_sizes.len() as u32;
                ffr_sizes.push(0);
            }
            ffr_sizes[ffr[i] as usize] += 1;
        }
        let mut ffr_start = vec![0u32; ffr_sizes.len() + 1];
        for (r, &size) in ffr_sizes.iter().enumerate() {
            ffr_start[r + 1] = ffr_start[r] + size;
        }
        let mut cursor: Vec<u32> = ffr_start[..ffr_sizes.len()].to_vec();
        let mut ffr_pos = vec![0u32; n];
        let mut ffr_members = vec![NodeId::from_index(0); n];
        for &id in topo.iter().rev() {
            let r = ffr[id.index()] as usize;
            ffr_pos[id.index()] = cursor[r] - ffr_start[r];
            ffr_members[cursor[r] as usize] = id;
            cursor[r] += 1;
        }

        let mut index = StructuralIndex {
            node_count: n,
            kinds,
            fanin_start,
            fanin_adj,
            fanout_start,
            fanout_adj,
            topo,
            topo_pos,
            levels,
            output_marks,
            live,
            ffr,
            ffr_pos,
            ffr_pin,
            ffr_start,
            ffr_members,
            stem_start: Vec::new(),
            stem_regions: Vec::new(),
        };
        index.build_stem_regions();
        Ok(index)
    }

    /// Fill `stem_start`/`stem_regions` (see
    /// [`StructuralIndex::stem_region`]). Each root's walk visits its
    /// region-level cone once, so the work is the sum of the cones.
    fn build_stem_regions(&mut self) {
        let regions = self.ffr_count();
        // The regions each live root that is not an output enters, one
        // per pin edge into a live combinational consumer (dead regions
        // reach no output; a flip-flop's data pin is a sequential sink).
        // The walks descend exactly through the regions with entries.
        let mut next_start = vec![0u32; regions + 1];
        let mut next = Vec::new();
        for r in 0..regions {
            let root = self.ffr_members(r)[0];
            if self.live[root.index()] && self.output_marks[root.index()] == 0 {
                next.extend(
                    self.fanouts(root)
                        .iter()
                        .filter(|c| self.kinds[c.index()] != GateKind::Dff && self.live[c.index()])
                        .map(|c| self.ffr[c.index()]),
                );
            }
            next_start[r + 1] = u32::try_from(next.len()).expect("pin edges fit in u32");
        }
        let entered = |r: usize| &next[next_start[r] as usize..next_start[r + 1] as usize];
        let mut stem_start = vec![0u32; regions + 1];
        let mut stem_regions = Vec::new();
        // Per-walk state, valid where `seen[t] == walk`.
        let mut seen = vec![u32::MAX; regions];
        let mut entries = vec![0u32; regions];
        let mut upstream = vec![false; regions];
        let (mut cone, mut stack) = (Vec::new(), Vec::new());
        for r in 0..regions {
            let walk = r as u32;
            stack.push(walk);
            cone.clear();
            while let Some(s) = stack.pop() {
                for &t in entered(s as usize) {
                    let u = t as usize;
                    if seen[u] != walk {
                        seen[u] = walk;
                        entries[u] = 0;
                        cone.push(t);
                        stack.push(t);
                    }
                    entries[u] += 1;
                }
            }
            if cone.iter().any(|&t| entries[t as usize] > 1) {
                // Ascending ids put every region before those it is
                // entered from: ids rise as roots' topological positions
                // fall.
                cone.sort_unstable();
                for &t in &cone {
                    let u = t as usize;
                    upstream[u] =
                        entries[u] > 1 || entered(u).iter().any(|&v| upstream[v as usize]);
                }
                stem_regions.extend(cone.iter().filter(|&&t| upstream[t as usize]));
            }
            stem_start[r + 1] = u32::try_from(stem_regions.len()).expect("stem regions fit in u32");
        }
        self.stem_start = stem_start;
        self.stem_regions = stem_regions;
    }

    /// Number of nodes in the indexed circuit.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The gate kind of `id`.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.kinds[id.index()]
    }

    /// The drivers of `id`, in pin order — the CSR view of
    /// `circuit.node(id).fanin`.
    #[must_use]
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanin_adj[self.fanin_start[i] as usize..self.fanin_start[i + 1] as usize]
    }

    /// Consumers of `id`, one entry per pin edge, in ascending consumer
    /// id order — the CSR view of `Circuit::fanouts()[id]`.
    #[must_use]
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanout_adj[self.fanout_start[i] as usize..self.fanout_start[i + 1] as usize]
    }

    /// Number of pin edges out of `id`.
    #[must_use]
    pub fn fanout_degree(&self, id: NodeId) -> usize {
        self.fanouts(id).len()
    }

    /// Fanout-branch count used by fault enumeration and collapsing: pin
    /// edges plus primary-output marks. A stem with `branch_count > 1`
    /// has distinguishable fanout branches.
    #[must_use]
    pub fn branch_count(&self, id: NodeId) -> usize {
        self.fanout_degree(id) + self.output_marks[id.index()] as usize
    }

    /// How many output pins `id` drives directly (0 when it is not a
    /// primary output).
    #[must_use]
    pub fn output_marks(&self, id: NodeId) -> u32 {
        self.output_marks[id.index()]
    }

    /// The topological order the index was built with.
    #[must_use]
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of `id` in [`StructuralIndex::topo`].
    #[must_use]
    pub fn topo_pos(&self, id: NodeId) -> u32 {
        self.topo_pos[id.index()]
    }

    /// Combinational logic depth of `id` (see [`Circuit::levels`]).
    #[must_use]
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// Whether any primary output is combinationally reachable from `id`
    /// (including `id` being an output itself).
    #[must_use]
    pub fn reaches_any_output(&self, id: NodeId) -> bool {
        self.live[id.index()]
    }

    /// Number of fanout-free regions.
    #[must_use]
    pub fn ffr_count(&self) -> usize {
        self.ffr_start.len() - 1
    }

    /// The fanout-free region `id` belongs to.
    #[must_use]
    pub fn ffr_of(&self, id: NodeId) -> usize {
        self.ffr[id.index()] as usize
    }

    /// The members of region `ffr` in reverse topological order: the
    /// root first, and every other member after its consumer.
    #[must_use]
    pub fn ffr_members(&self, ffr: usize) -> &[NodeId] {
        &self.ffr_members[self.ffr_start[ffr] as usize..self.ffr_start[ffr + 1] as usize]
    }

    /// Position of `id` in [`StructuralIndex::ffr_members`] of its region
    /// (0 for a root).
    #[must_use]
    pub fn ffr_pos(&self, id: NodeId) -> usize {
        self.ffr_pos[id.index()] as usize
    }

    /// The single consumer of a non-root `id` and the pin `id` drives
    /// there; `None` when `id` roots its region.
    #[must_use]
    pub fn ffr_consumer(&self, id: NodeId) -> Option<(NodeId, usize)> {
        let pin = self.ffr_pin[id.index()];
        (pin != u32::MAX).then(|| (self.fanouts(id)[0], pin as usize))
    }

    /// The stem region of region `ffr`'s root, as ascending region ids:
    /// the regions of the root's fanout cone that more than one pin edge
    /// enters, and every cone region upstream of one of those. The cone
    /// is walked region by region over pin edges into live
    /// combinational consumers, descending only through roots that are
    /// live and not outputs: a flip that reaches an output is already
    /// observed. Empty when the root's cone is a tree, and for a root
    /// that is an output or reaches none.
    #[must_use]
    pub fn stem_region(&self, ffr: usize) -> &[u32] {
        &self.stem_regions[self.stem_start[ffr] as usize..self.stem_start[ffr + 1] as usize]
    }

    /// The transitive fanout cone of `seed` (through combinational *and*
    /// sequential pin edges), including `seed` itself, sorted by
    /// topological position. This is the region a fault at `seed` can
    /// influence — the search space a cone-restricted ATPG walks.
    #[must_use]
    pub fn fanout_cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut in_cone = vec![false; self.node_count];
        let mut cone = vec![seed];
        in_cone[seed.index()] = true;
        let mut head = 0;
        while head < cone.len() {
            let id = cone[head];
            head += 1;
            for &fo in self.fanouts(id) {
                if !in_cone[fo.index()] {
                    in_cone[fo.index()] = true;
                    cone.push(fo);
                }
            }
        }
        cone.sort_unstable_by_key(|&id| self.topo_pos[id.index()]);
        cone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Circuit {
        // a fans to g1 and g2 (twice into g2), both reconverge at h.
        let mut c = Circuit::new("diamond");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Xor, &[a, a]).unwrap();
        let h = c.add_gate("h", GateKind::Or, &[g1, g2]).unwrap();
        c.mark_output(h);
        c.mark_output(g1);
        c
    }

    #[test]
    fn csr_matches_vec_fanouts() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let reference = c.fanouts();
        for (id, node) in c.iter() {
            assert_eq!(idx.fanouts(id), &reference[id.index()][..], "{id}");
            assert_eq!(idx.fanins(id), &node.fanin[..], "{id}");
            assert_eq!(idx.kind(id), node.kind, "{id}");
        }
    }

    #[test]
    fn duplicate_pin_edges_preserved() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let a = c.find("a").unwrap();
        // a feeds g1 once and g2 twice: 3 pin edges.
        assert_eq!(idx.fanout_degree(a), 3);
        assert_eq!(idx.branch_count(a), 3);
    }

    #[test]
    fn branch_count_counts_output_marks() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let g1 = c.find("g1").unwrap();
        // g1 feeds h and is itself an output pin.
        assert_eq!(idx.fanout_degree(g1), 1);
        assert_eq!(idx.output_marks(g1), 1);
        assert_eq!(idx.branch_count(g1), 2);
    }

    #[test]
    fn topo_and_levels_consistent_with_circuit() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let levels = c.levels().unwrap();
        for (id, node) in c.iter() {
            assert_eq!(idx.level(id), levels[id.index()]);
            for f in &node.fanin {
                assert!(idx.topo_pos(*f) < idx.topo_pos(id));
            }
        }
    }

    #[test]
    fn output_reachability() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        // outputs() = [h, g1]; every node reaches at least one of them.
        for (id, _) in c.iter() {
            assert!(idx.reaches_any_output(id), "{id:?}");
        }
    }

    #[test]
    fn dead_logic_reaches_nothing() {
        let mut c = Circuit::new("dead");
        let a = c.add_input("a");
        let dead = c.add_gate("dead", GateKind::Not, &[a]).unwrap();
        let live = c.add_gate("live", GateKind::Buf, &[a]).unwrap();
        c.mark_output(live);
        let idx = StructuralIndex::build(&c).unwrap();
        assert!(!idx.reaches_any_output(dead));
        assert!(idx.reaches_any_output(a));
    }

    #[test]
    fn fanout_cone_in_topo_order() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let a = c.find("a").unwrap();
        let cone = idx.fanout_cone(a);
        // a's cone: a, g1, g2, h (b excluded).
        assert_eq!(cone.len(), 4);
        assert_eq!(cone[0], a);
        assert!(!cone.contains(&c.find("b").unwrap()));
        for w in cone.windows(2) {
            assert!(idx.topo_pos(w[0]) < idx.topo_pos(w[1]));
        }
    }

    #[test]
    fn fanout_free_regions_partition_the_nodes() {
        // diamond: a drives three pins and b one; g1 is an output that
        // also fans out; g2 and h each drive one pin or nothing.
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let [a, b, g1, g2, h] = ["a", "b", "g1", "g2", "h"].map(|n| c.find(n).unwrap());
        let roots: Vec<NodeId> = (0..idx.ffr_count())
            .map(|r| idx.ffr_members(r)[0])
            .collect();
        for root in [a, g1, h] {
            assert!(roots.contains(&root), "{root} roots a region");
            assert_eq!(idx.ffr_consumer(root), None);
        }
        assert_eq!(idx.ffr_count(), 3);
        // b joins g1's region on pin 1; g2 joins h's on pin 1.
        assert_eq!(idx.ffr_consumer(b), Some((g1, 1)));
        assert_eq!(idx.ffr_of(b), idx.ffr_of(g1));
        assert_eq!(idx.ffr_consumer(g2), Some((h, 1)));
        assert_eq!(idx.ffr_members(idx.ffr_of(h)), &[h, g2]);
        // Region ids rise as their roots' topological positions fall.
        for w in roots.windows(2) {
            assert!(idx.topo_pos(w[0]) > idx.topo_pos(w[1]));
        }
        // Every node sits in exactly one region, after its consumer.
        let mut seen = vec![0; c.node_count()];
        for r in 0..idx.ffr_count() {
            for (pos, &m) in idx.ffr_members(r).iter().enumerate() {
                seen[m.index()] += 1;
                assert_eq!((idx.ffr_of(m), idx.ffr_pos(m)), (r, pos));
                if let Some((consumer, pin)) = idx.ffr_consumer(m) {
                    assert_eq!(c.node(consumer).fanin[pin], m);
                    assert!(idx.ffr_pos(consumer) < pos);
                }
            }
        }
        assert!(seen.iter().all(|&k| k == 1));
    }

    /// The roots whose stem region is not empty, with that region as
    /// sorted root names.
    fn stem_regions(c: &Circuit) -> Vec<(String, Vec<String>)> {
        let idx = StructuralIndex::build(c).unwrap();
        let name = |r: usize| c.node(idx.ffr_members(r)[0]).name.clone();
        (0..idx.ffr_count())
            .filter(|&r| !idx.stem_region(r).is_empty())
            .map(|r| {
                let mut stem: Vec<String> = idx
                    .stem_region(r)
                    .iter()
                    .map(|&t| name(t as usize))
                    .collect();
                stem.sort();
                (name(r), stem)
            })
            .collect()
    }

    #[test]
    fn diamond_stem_region_is_the_reconvergent_region() {
        // a enters h's region twice (g2's two pins) and g1's once; g1 is
        // an output, so its edge into h ends the walk uncounted.
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let [a, h] = ["a", "h"].map(|n| c.find(n).unwrap());
        assert_eq!(idx.stem_region(idx.ffr_of(a)), &[idx.ffr_of(h) as u32]);
        assert_eq!(stem_regions(&c), [("a".into(), vec!["h".into()])]);
    }

    #[test]
    fn tree_cones_have_empty_stem_regions() {
        // a and n fan out, but every region below them is entered once;
        // the two pins a drives in a dead gate reach no output.
        let mut c = Circuit::new("tree");
        let [a, b, x, y] = ["a", "b", "x", "y"].map(|i| c.add_input(i));
        let n = c.add_gate("n", GateKind::Nand, &[a, b]).unwrap();
        let g1 = c.add_gate("g1", GateKind::And, &[n, x]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Or, &[n, y]).unwrap();
        let g3 = c.add_gate("g3", GateKind::Not, &[a]).unwrap();
        c.add_gate("dead", GateKind::Xor, &[a, a]).unwrap();
        for o in [g1, g2, g3] {
            c.mark_output(o);
        }
        let idx = StructuralIndex::build(&c).unwrap();
        assert!(idx.ffr_consumer(a).is_none() && idx.ffr_consumer(n).is_none());
        assert!(stem_regions(&c).is_empty());
        for r in 0..idx.ffr_count() {
            assert!(idx.stem_region(r).is_empty());
        }
    }

    #[test]
    fn an_output_root_that_fans_out_ends_the_walk() {
        // a drives p and q; q fans out to x and z, and p and x meet at
        // y. With q an output, y is entered once (from p): a tree. With
        // q inside the logic, y is entered twice, and q's region sits
        // upstream of it.
        let build = |q_is_output: bool| {
            let mut c = Circuit::new("out");
            let a = c.add_input("a");
            let b = c.add_input("b");
            let p = c.add_gate("p", GateKind::And, &[a, b]).unwrap();
            let q = c.add_gate("q", GateKind::Buf, &[a]).unwrap();
            let x = c.add_gate("x", GateKind::Not, &[q]).unwrap();
            let y = c.add_gate("y", GateKind::Nand, &[p, x]).unwrap();
            let z = c.add_gate("z", GateKind::Buf, &[q]).unwrap();
            c.mark_output(y);
            c.mark_output(z);
            if q_is_output {
                c.mark_output(q);
            }
            c
        };
        let mut want = vec![("a".to_string(), vec!["q".to_string(), "y".to_string()])];
        assert_eq!(stem_regions(&build(false)), want);
        want.clear();
        assert_eq!(stem_regions(&build(true)), want);
    }

    /// `stems` inputs, each fanning out to many gates of `layers`
    /// layers of `width` gates; every gate reads two or three earlier
    /// nodes, mostly from the layer before, so the stems' cones overlap
    /// and reconverge everywhere. The last layer and every eleventh gate
    /// are outputs, and every seventh gate fans out nowhere else.
    fn wide_reconvergent(stems: usize, layers: usize, width: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new("stress");
        let mut x = seed | 1;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut prev: Vec<NodeId> = (0..stems).map(|i| c.add_input(format!("s{i}"))).collect();
        let mut all = prev.clone();
        let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand];
        for l in 0..layers {
            let mut layer = Vec::with_capacity(width);
            for g in 0..width {
                let arity = 2 + next(2);
                let fanin: Vec<NodeId> = (0..arity)
                    .map(|_| {
                        if next(4) == 0 {
                            all[next(all.len())]
                        } else {
                            prev[next(prev.len())]
                        }
                    })
                    .collect();
                let kind = kinds[next(kinds.len())];
                let id = c.add_gate(format!("g{l}_{g}"), kind, &fanin).unwrap();
                if l + 1 == layers || (l * width + g).is_multiple_of(11) {
                    c.mark_output(id);
                }
                if !(l * width + g).is_multiple_of(7) {
                    layer.push(id);
                }
            }
            all.extend_from_slice(&layer);
            prev = layer;
        }
        c
    }

    /// Each root's stem region straight from its definition, with sets:
    /// the regions its walk reaches, how many pin edges of walked
    /// regions enter each, and every reached region from which a
    /// region entered more than once can be reached.
    fn brute_force_stem_region(c: &Circuit, idx: &StructuralIndex, r: usize) -> Vec<u32> {
        use std::collections::{BTreeSet, HashMap};
        let fanouts = c.fanouts();
        let edges = |s: usize| -> Vec<usize> {
            let root = idx.ffr_members(s)[0];
            if !idx.reaches_any_output(root) || c.outputs().contains(&root) {
                return Vec::new();
            }
            fanouts[root.index()]
                .iter()
                .filter(|&&fo| c.node(fo).kind != GateKind::Dff && idx.reaches_any_output(fo))
                .map(|&fo| idx.ffr_of(fo))
                .collect()
        };
        let reach = |from: usize| -> BTreeSet<usize> {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(s) = stack.pop() {
                for t in edges(s) {
                    if seen.insert(t) {
                        stack.push(t);
                    }
                }
            }
            seen
        };
        let cone = reach(r);
        let mut entries: HashMap<usize, usize> = HashMap::new();
        for s in cone.iter().copied().chain([r]) {
            for t in edges(s) {
                *entries.entry(t).or_default() += 1;
            }
        }
        let multi = |t: usize| entries.get(&t).copied().unwrap_or(0) > 1;
        cone.iter()
            .filter(|&&t| multi(t) || reach(t).into_iter().any(multi))
            .map(|&t| t as u32)
            .collect()
    }

    #[test]
    fn wide_reconvergent_stems_match_the_brute_force_walk() {
        for (stems, layers, width, seed) in [(48, 6, 96, 1), (16, 12, 40, 2), (96, 4, 160, 3)] {
            let c = wide_reconvergent(stems, layers, width, seed);
            let idx = StructuralIndex::build(&c).unwrap();
            let mut reconvergent = 0;
            for r in 0..idx.ffr_count() {
                let want = brute_force_stem_region(&c, &idx, r);
                assert_eq!(idx.stem_region(r), &want[..], "seed {seed} region {r}");
                reconvergent += usize::from(!want.is_empty());
            }
            // The case is a stress case only if most stems reconverge.
            assert!(reconvergent >= stems, "{reconvergent} reconvergent roots");
        }
    }

    #[test]
    fn a_driver_on_two_pins_of_one_gate_is_reconvergent() {
        let mut c = Circuit::new("twice");
        let a = c.add_input("a");
        let x = c.add_gate("x", GateKind::Xor, &[a, a]).unwrap();
        c.mark_output(x);
        let idx = StructuralIndex::build(&c).unwrap();
        assert_eq!(idx.ffr_consumer(a), None, "a drives two pin edges");
        assert_eq!(idx.stem_region(idx.ffr_of(a)), &[idx.ffr_of(x) as u32]);
    }

    #[test]
    fn a_flip_flop_data_pin_ends_a_region() {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let ff = c.add_gate("ff", GateKind::Dff, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Buf, &[ff]).unwrap();
        c.mark_output(g);
        let idx = StructuralIndex::build(&c).unwrap();
        assert_eq!(idx.ffr_consumer(a), None);
        assert_eq!(idx.ffr_consumer(ff), Some((g, 0)));
    }

    #[test]
    fn sequential_edges_cut_for_reachability_but_not_cones() {
        // a -> ff -> g -> out: the Dff data pin is a sequential sink, so
        // `a` does not combinationally reach the output, but the fanout
        // *cone* still walks through it (fault effects latch next cycle).
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let ff = c.add_gate("ff", GateKind::Dff, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Buf, &[ff]).unwrap();
        c.mark_output(g);
        let idx = StructuralIndex::build(&c).unwrap();
        assert!(!idx.reaches_any_output(a));
        assert!(idx.reaches_any_output(ff));
        assert!(idx.fanout_cone(a).contains(&g));
    }
}
