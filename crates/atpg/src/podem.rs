//! The PODEM (Path-Oriented DEcision Making) test generation algorithm.
//!
//! PODEM searches the space of primary-input assignments directly: it
//! repeatedly picks an *objective* (activate the fault, then advance the
//! D-frontier), *backtraces* the objective to an unassigned input using
//! SCOAP guidance, assigns it, and implies the consequences in
//! five-valued logic. Conflicts flip the most recent untried decision;
//! exhausting the decision tree proves the fault redundant (untestable).
//!
//! # Incremental, cone-restricted implication
//!
//! Circuit values under PODEM are a pure function of the (assignment,
//! fault) pair, so this implementation never resimulates the whole
//! circuit. It keeps a persistent five-valued value array seeded from a
//! fault-free all-X baseline and updates it *event-driven*: each input
//! decision propagates only through the nodes it actually changes (a
//! topologically-ordered event queue, exactly like the bit-parallel fault
//! simulator), and every decision records its changes on an undo trail so
//! backtracking restores the parent state in O(changes) instead of
//! re-implying from scratch. The D-frontier is maintained incrementally
//! from the same change events and restricted to the fault's fanout cone
//! (the only region fault effects can reach, borrowed from the shared
//! [`StructuralIndex`]), as is the X-path feasibility check. Decisions,
//! outcomes, and generated cubes are bit-identical to a full
//! resimulation — the test suite checks this differentially against the
//! reference oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use modsoc_netlist::{Circuit, GateKind, NodeId, StructuralIndex};

use crate::budget::RunBudget;
use crate::error::AtpgError;
use crate::fault::{Fault, FaultSite};
use crate::pattern::{Bit, TestCube};
use crate::testability::Testability;
use crate::value::{eval_gate, V5};

/// Cumulative search-effort counters for one [`Podem`] instance,
/// accumulated across every `generate*` call since construction.
///
/// These are functions of the decision sequence, which is deterministic,
/// so they feed the metrics layer's jobs-invariance contract: an engine
/// run reports the same totals at any `--jobs` level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PodemSearchStats {
    /// `generate*` invocations that reached the decision loop.
    pub calls: u64,
    /// Searches that produced a test cube.
    pub tests: u64,
    /// Searches that proved the fault redundant.
    pub redundant: u64,
    /// Searches aborted at a backtrack/budget limit.
    pub aborted: u64,
    /// Fresh input decisions pushed on the decision stack.
    pub decisions: u64,
    /// Backtracks (decision flips after a conflict).
    pub backtracks: u64,
}

impl std::ops::Sub for PodemSearchStats {
    type Output = PodemSearchStats;

    /// Field-wise difference: the effort between two snapshots of one
    /// generator's counters.
    fn sub(self, rhs: PodemSearchStats) -> PodemSearchStats {
        PodemSearchStats {
            calls: self.calls - rhs.calls,
            tests: self.tests - rhs.tests,
            redundant: self.redundant - rhs.redundant,
            aborted: self.aborted - rhs.aborted,
            decisions: self.decisions - rhs.decisions,
            backtracks: self.backtracks - rhs.backtracks,
        }
    }
}

impl std::ops::AddAssign for PodemSearchStats {
    fn add_assign(&mut self, rhs: PodemSearchStats) {
        self.calls += rhs.calls;
        self.tests += rhs.tests;
        self.redundant += rhs.redundant;
        self.aborted += rhs.aborted;
        self.decisions += rhs.decisions;
        self.backtracks += rhs.backtracks;
    }
}

/// Outcome of a single-fault PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test cube that detects the fault.
    Test(TestCube),
    /// The fault is untestable: no input assignment detects it.
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

/// PODEM test generator bound to one combinational circuit.
///
/// Holds the search's persistent incremental state (value array, undo
/// trail, D-frontier buffer, cone scratch), so generation takes `&mut
/// self`; create once per circuit and reuse across faults. Between
/// searches that state is the fault-free baseline, so a clone searches
/// exactly like the original: the engine runs one clone per pool worker.
#[derive(Debug, Clone)]
pub struct Podem<'a> {
    circuit: &'a Circuit,
    index: Arc<StructuralIndex>,
    testability: Testability,
    backtrack_limit: u32,
    /// Input position of each node id, if it is an input.
    input_pos: Vec<Option<usize>>,
    /// Fault-free implication of the empty assignment (constants
    /// propagated, everything else X). `values` equals this between
    /// searches.
    baseline: Vec<V5>,
    /// Current five-valued state; diverges from `baseline` only inside a
    /// search and only on the undo trail.
    values: Vec<V5>,
    /// Undo trail: `(node index, previous value)` per change.
    trail: Vec<(u32, V5)>,
    /// Trail length at the start of each open frame (fault injection is
    /// frame 0; one frame per decision).
    frames: Vec<usize>,
    /// Reusable D-frontier buffer (may hold stale entries until the next
    /// lazy compaction; `in_frontier` is authoritative).
    frontier: Vec<NodeId>,
    in_frontier: Vec<bool>,
    in_frontier_buf: Vec<bool>,
    /// Fanout cone of the current fault's affected gate, topo-sorted.
    cone: Vec<NodeId>,
    /// Cone members that drive at least one primary output pin.
    cone_outputs: Vec<NodeId>,
    cone_stamp: Vec<u32>,
    cone_epoch: u32,
    /// Epoch-stamped "reaches an X-valued PO through X nodes" scratch.
    xreach_stamp: Vec<u32>,
    xreach_epoch: u32,
    /// Topologically-ordered event queue scratch.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Nodes changed by the most recent propagation or undo.
    touched: Vec<NodeId>,
    /// Cumulative search-effort counters (see [`PodemSearchStats`]).
    stats: PodemSearchStats,
}

impl<'a> Podem<'a> {
    /// Build a generator for `circuit` with the given backtrack limit
    /// (deriving a private [`StructuralIndex`]).
    ///
    /// # Errors
    ///
    /// Fails on sequential or invalid circuits.
    pub fn new(circuit: &'a Circuit, backtrack_limit: u32) -> Result<Podem<'a>, AtpgError> {
        let index = Arc::new(StructuralIndex::build(circuit)?);
        Podem::with_index(circuit, index, backtrack_limit)
    }

    /// Build a generator borrowing a prebuilt shared index — the engine
    /// threads one [`StructuralIndex`] through collapsing, fault
    /// simulation, and both PODEM phases.
    ///
    /// # Errors
    ///
    /// Fails on sequential or invalid circuits.
    ///
    /// # Panics
    ///
    /// Panics if `index` was built for a different circuit (node counts
    /// disagree).
    pub fn with_index(
        circuit: &'a Circuit,
        index: Arc<StructuralIndex>,
        backtrack_limit: u32,
    ) -> Result<Podem<'a>, AtpgError> {
        assert_eq!(
            index.node_count(),
            circuit.node_count(),
            "structural index does not match circuit"
        );
        let testability = Testability::compute(circuit)?;
        let n = circuit.node_count();
        let mut input_pos = vec![None; n];
        for (k, &pi) in circuit.inputs().iter().enumerate() {
            input_pos[pi.index()] = Some(k);
        }
        // Fault-free baseline of the empty assignment: all-X except where
        // constants force a value.
        let mut baseline = vec![V5::X; n];
        let mut fanin_buf: Vec<V5> = Vec::with_capacity(8);
        for &id in index.topo() {
            let node = circuit.node(id);
            if node.kind == GateKind::Input {
                continue;
            }
            fanin_buf.clear();
            fanin_buf.extend(node.fanin.iter().map(|f| baseline[f.index()]));
            baseline[id.index()] = eval_gate(node.kind, &fanin_buf);
        }
        Ok(Podem {
            circuit,
            index,
            testability,
            backtrack_limit,
            input_pos,
            values: baseline.clone(),
            baseline,
            trail: Vec::new(),
            frames: Vec::new(),
            frontier: Vec::new(),
            in_frontier: vec![false; n],
            in_frontier_buf: vec![false; n],
            cone: Vec::new(),
            cone_outputs: Vec::new(),
            cone_stamp: vec![0; n],
            cone_epoch: 0,
            xreach_stamp: vec![0; n],
            xreach_epoch: 0,
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            stats: PodemSearchStats::default(),
        })
    }

    /// Cumulative search-effort counters since construction.
    #[must_use]
    pub fn search_stats(&self) -> PodemSearchStats {
        self.stats
    }

    /// Backtracks that one budgeted search with per-call effort `effort`
    /// charged to its [`RunBudget`]: all of them except the one that
    /// crosses the per-fault limit, which aborts before charging.
    pub(crate) fn budget_charge(&self, effort: PodemSearchStats) -> u64 {
        effort.backtracks.min(u64::from(self.backtrack_limit))
    }

    /// Generate a test for one stuck-at fault.
    ///
    /// Returns [`PodemOutcome::Test`] with a cube over the circuit's
    /// inputs (bit `i` = `circuit.inputs()[i]`), [`PodemOutcome::Redundant`]
    /// if the decision tree is exhausted, or [`PodemOutcome::Aborted`] at
    /// the backtrack limit.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::ForeignFault`] if the fault references a node
    /// outside this circuit.
    pub fn generate(&mut self, fault: Fault) -> Result<PodemOutcome, AtpgError> {
        self.generate_with_constraints_budgeted(fault, &[], None)
    }

    /// [`Podem::generate`] under side constraints and an optional
    /// [`RunBudget`].
    ///
    /// Every `(node, value)` pair of `constraints` must hold in the good
    /// circuit of the final test: the transition-fault flow passes its
    /// frame-1 initialization values, the stuck-at engine `&[]`. Each
    /// backtrack is charged against the budget's global pool, and a
    /// tripped deadline/cancellation/backtrack limit aborts the search
    /// ([`PodemOutcome::Aborted`]) so a single hard fault cannot hold a
    /// bounded run hostage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Podem::generate`], plus
    /// [`AtpgError::ForeignFault`] for out-of-range constraint nodes.
    pub fn generate_with_constraints_budgeted(
        &mut self,
        fault: Fault,
        constraints: &[(NodeId, bool)],
        budget: Option<&RunBudget>,
    ) -> Result<PodemOutcome, AtpgError> {
        for (node, _) in constraints {
            if node.index() >= self.circuit.node_count() {
                return Err(AtpgError::ForeignFault {
                    fault: format!("constraint node {node}"),
                });
            }
        }
        let affected = fault.site.affected_gate();
        if affected.index() >= self.circuit.node_count() {
            return Err(AtpgError::ForeignFault {
                fault: fault.to_string(),
            });
        }
        if let FaultSite::Pin { gate, pin } = fault.site {
            if pin >= self.circuit.node(gate).fanin.len() {
                return Err(AtpgError::ForeignFault {
                    fault: fault.to_string(),
                });
            }
        }
        self.begin_fault(fault);
        let out = self.run_search(fault, constraints, budget);
        self.unwind_all();
        self.stats.calls += 1;
        match &out {
            Ok(PodemOutcome::Test(_)) => self.stats.tests += 1,
            Ok(PodemOutcome::Redundant) => self.stats.redundant += 1,
            Ok(PodemOutcome::Aborted) => self.stats.aborted += 1,
            Err(_) => {}
        }
        out
    }

    /// Decision loop. Assumes [`Podem::begin_fault`] has set up the cone,
    /// injected the fault (frame 0), and refreshed the frontier; the
    /// caller unwinds all frames afterwards regardless of outcome.
    fn run_search(
        &mut self,
        fault: Fault,
        constraints: &[(NodeId, bool)],
        budget: Option<&RunBudget>,
    ) -> Result<PodemOutcome, AtpgError> {
        let width = self.circuit.input_count();
        let mut assignment: Vec<Option<bool>> = vec![None; width];
        // Decision stack: (input position, value, tried_both).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0u32;

        loop {
            // Side constraints: a contradicted constraint prunes the
            // branch; an undetermined one becomes the next objective.
            let mut constraint_objective = None;
            let mut constraint_conflict = false;
            for &(node, want) in constraints {
                match self.values[node.index()].good() {
                    Some(v) if v != want => {
                        constraint_conflict = true;
                        break;
                    }
                    None if constraint_objective.is_none() => {
                        constraint_objective = Some((node, want));
                    }
                    _ => {}
                }
            }

            if !constraint_conflict && constraint_objective.is_none() && self.detected() {
                let bits = assignment
                    .iter()
                    .map(|a| a.map_or(Bit::X, Bit::from_bool))
                    .collect::<TestCube>();
                return Ok(PodemOutcome::Test(bits));
            }

            let objective = if constraint_conflict {
                None
            } else if let Some(obj) = constraint_objective {
                Some(obj)
            } else {
                match self.next_objective(fault) {
                    Objective::Assign(node, value) => Some((node, value)),
                    Objective::Conflict => None,
                }
            };
            let decision =
                objective.and_then(|(node, value)| self.backtrace(node, value, &assignment));

            match decision {
                Some((pi, v)) => {
                    self.stats.decisions += 1;
                    assignment[pi] = Some(v);
                    stack.push((pi, v, false));
                    self.assign_input(fault, pi, v);
                }
                None => {
                    // Backtrack.
                    loop {
                        match stack.pop() {
                            Some((pi, v, tried_both)) => {
                                self.undo_frame(fault);
                                assignment[pi] = None;
                                if !tried_both {
                                    backtracks += 1;
                                    self.stats.backtracks += 1;
                                    if backtracks > self.backtrack_limit {
                                        return Ok(PodemOutcome::Aborted);
                                    }
                                    // Budget: every backtrack drains the
                                    // run-wide pool; deadline/cancellation
                                    // also end the search here.
                                    if let Some(b) = budget {
                                        if b.charge_backtrack().is_some() {
                                            return Ok(PodemOutcome::Aborted);
                                        }
                                    }
                                    assignment[pi] = Some(!v);
                                    stack.push((pi, !v, true));
                                    self.assign_input(fault, pi, !v);
                                    break;
                                }
                            }
                            None => return Ok(PodemOutcome::Redundant),
                        }
                    }
                }
            }
        }
    }

    /// Prepare the search for `fault`: reset the frontier left by the
    /// previous search, collect the fanout cone of the affected gate, and
    /// inject the fault as undo frame 0.
    fn begin_fault(&mut self, fault: Fault) {
        debug_assert!(self.trail.is_empty() && self.frames.is_empty());
        let mut stale = std::mem::take(&mut self.frontier);
        for g in stale.drain(..) {
            self.in_frontier[g.index()] = false;
            self.in_frontier_buf[g.index()] = false;
        }
        self.frontier = stale;

        // Cone membership via epoch stamps (no O(n) clear per fault).
        self.cone_epoch = self.cone_epoch.wrapping_add(1);
        if self.cone_epoch == 0 {
            self.cone_stamp.fill(u32::MAX);
            self.cone_epoch = 1;
        }
        let affected = fault.site.affected_gate();
        let index = &*self.index;
        self.cone.clear();
        self.cone.push(affected);
        self.cone_stamp[affected.index()] = self.cone_epoch;
        let mut head = 0;
        while head < self.cone.len() {
            let id = self.cone[head];
            head += 1;
            for &fo in index.fanouts(id) {
                if self.cone_stamp[fo.index()] != self.cone_epoch {
                    self.cone_stamp[fo.index()] = self.cone_epoch;
                    self.cone.push(fo);
                }
            }
        }
        self.cone.sort_unstable_by_key(|&id| index.topo_pos(id));
        self.cone_outputs.clear();
        self.cone_outputs.extend(
            self.cone
                .iter()
                .copied()
                .filter(|&id| index.output_marks(id) > 0),
        );

        // Frame 0: fault injection as a delta from the fault-free
        // baseline. A stem fault on an unassigned input injects into X
        // and stays X, so only gate sites seed an event.
        self.frames.push(self.trail.len());
        self.touched.clear();
        if self.index.kind(affected) != GateKind::Input {
            self.heap.push(Reverse((
                self.index.topo_pos(affected),
                affected.index() as u32,
            )));
            self.propagate(fault);
        }
        self.refresh_frontier(fault);
        // A pin fault can create an effect without changing any value
        // (constant-driven pin, gate output still X), which produces no
        // change event; derive the affected gate's membership explicitly.
        self.update_frontier_membership(fault, affected);
    }

    /// Open a new undo frame, set input position `pos` to `v`, and imply
    /// the consequences event-driven.
    fn assign_input(&mut self, fault: Fault, pos: usize, v: bool) {
        self.frames.push(self.trail.len());
        self.touched.clear();
        let pi = self.circuit.inputs()[pos];
        let mut v5 = if v { V5::One } else { V5::Zero };
        if fault.site == FaultSite::Stem(pi) {
            v5 = inject_stuck(v5, fault.stuck_at_one);
        }
        if v5 != self.values[pi.index()] {
            self.set_value(pi, v5);
            let index = &*self.index;
            for &fo in index.fanouts(pi) {
                self.heap
                    .push(Reverse((index.topo_pos(fo), fo.index() as u32)));
            }
            self.propagate(fault);
        }
        self.refresh_frontier(fault);
    }

    /// Drain the event queue in topological order, recomputing each
    /// popped node under fault injection and rippling changes forward.
    /// Within one propagation every node settles in a single evaluation
    /// (its fanins are final when it pops), so the trail stays compact.
    fn propagate(&mut self, fault: Fault) {
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let id = NodeId::from_index(raw as usize);
            let v = self.eval_with_fault(fault, id);
            if v == self.values[id.index()] {
                continue;
            }
            self.set_value(id, v);
            let index = &*self.index;
            for &fo in index.fanouts(id) {
                self.heap
                    .push(Reverse((index.topo_pos(fo), fo.index() as u32)));
            }
        }
    }

    fn set_value(&mut self, id: NodeId, v: V5) {
        let i = id.index();
        self.trail.push((i as u32, self.values[i]));
        self.values[i] = v;
        self.touched.push(id);
    }

    /// Five-valued evaluation of one gate with fault injection — the
    /// per-node kernel full resimulation would run over every node.
    fn eval_with_fault(&self, fault: Fault, id: NodeId) -> V5 {
        let kind = self.index.kind(id);
        let drivers = self.index.fanins(id);
        debug_assert!(kind != GateKind::Input, "inputs never re-evaluate");
        let mut buf = [V5::X; 16];
        let mut vec_buf;
        let fanin: &mut [V5] = if drivers.len() <= 16 {
            &mut buf[..drivers.len()]
        } else {
            vec_buf = vec![V5::X; drivers.len()];
            &mut vec_buf
        };
        for (pin, f) in drivers.iter().enumerate() {
            let mut v = self.values[f.index()];
            if fault.site == (FaultSite::Pin { gate: id, pin }) {
                v = inject_stuck(v, fault.stuck_at_one);
            }
            fanin[pin] = v;
        }
        let mut v = eval_gate(kind, fanin);
        if fault.site == FaultSite::Stem(id) {
            v = inject_stuck(v, fault.stuck_at_one);
        }
        v
    }

    /// Pop the most recent undo frame, restoring every value it changed,
    /// and re-derive frontier membership around the restored nodes.
    fn undo_frame(&mut self, fault: Fault) {
        let start = self.frames.pop().expect("an open undo frame");
        self.touched.clear();
        while self.trail.len() > start {
            let (raw, old) = self.trail.pop().expect("trail entry");
            self.values[raw as usize] = old;
            self.touched.push(NodeId::from_index(raw as usize));
        }
        self.refresh_frontier(fault);
    }

    /// Restore the baseline state after a search: unwind every frame
    /// (frontier flags are reset lazily by the next [`Podem::begin_fault`]).
    fn unwind_all(&mut self) {
        while let Some((raw, old)) = self.trail.pop() {
            self.values[raw as usize] = old;
        }
        self.frames.clear();
        debug_assert!(self.values == self.baseline);
    }

    /// Re-derive D-frontier membership for every node whose value (or
    /// whose fanin's value) just changed, restricted to the fault cone.
    /// Membership only ever changes at such candidates, so the maintained
    /// set always equals what a whole-circuit scan would find.
    fn refresh_frontier(&mut self, fault: Fault) {
        let touched = std::mem::take(&mut self.touched);
        for &n in &touched {
            if self.cone_stamp[n.index()] == self.cone_epoch {
                self.update_frontier_membership(fault, n);
            }
            for k in 0..self.index.fanout_degree(n) {
                let g = self.index.fanouts(n)[k];
                if self.cone_stamp[g.index()] == self.cone_epoch {
                    self.update_frontier_membership(fault, g);
                }
            }
        }
        self.touched = touched;
    }

    fn update_frontier_membership(&mut self, fault: Fault, g: NodeId) {
        let gi = g.index();
        let member = self.values[gi] == V5::X && {
            self.index.fanins(g).iter().enumerate().any(|(pin, f)| {
                let mut v = self.values[f.index()];
                if fault.site == (FaultSite::Pin { gate: g, pin }) {
                    v = inject_stuck(v, fault.stuck_at_one);
                }
                v.is_fault_effect()
            })
        };
        if member {
            if !self.in_frontier[gi] {
                self.in_frontier[gi] = true;
                if !self.in_frontier_buf[gi] {
                    self.in_frontier_buf[gi] = true;
                    self.frontier.push(g);
                }
            }
        } else {
            self.in_frontier[gi] = false;
        }
    }

    /// Compact the frontier buffer (dropping stale entries) and return
    /// the member closest to an output: minimum `(CO, node id)` — the
    /// same gate an id-ordered whole-circuit scan would select.
    fn frontier_best(&mut self) -> Option<NodeId> {
        let mut best: Option<(u32, u32)> = None;
        let mut k = 0;
        while k < self.frontier.len() {
            let g = self.frontier[k];
            let gi = g.index();
            if !self.in_frontier[gi] {
                self.in_frontier_buf[gi] = false;
                self.frontier.swap_remove(k);
                continue;
            }
            let key = (self.testability.co(g), g.index() as u32);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
            k += 1;
        }
        best.map(|(_, raw)| NodeId::from_index(raw as usize))
    }

    fn detected(&self) -> bool {
        self.cone_outputs
            .iter()
            .any(|&o| self.values[o.index()].is_fault_effect())
    }

    /// Pick the next objective: activate the fault, then extend the
    /// D-frontier; includes the X-path feasibility check.
    fn next_objective(&mut self, fault: Fault) -> Objective {
        // Fault line value, as seen after injection.
        let line_value = match fault.site {
            FaultSite::Stem(id) => self.values[id.index()],
            FaultSite::Pin { gate, pin } => {
                let drv = self.circuit.node(gate).fanin[pin];
                inject_stuck(self.values[drv.index()], fault.stuck_at_one)
            }
        };
        if !line_value.is_fault_effect() {
            // Not activated yet: the line in the *good* circuit must carry
            // the opposite of the stuck value.
            let good = match fault.site {
                FaultSite::Stem(id) => self.values[id.index()].good(),
                FaultSite::Pin { gate, pin } => {
                    self.values[self.circuit.node(gate).fanin[pin].index()].good()
                }
            };
            return match good {
                Some(v) if v == fault.stuck_at_one => Objective::Conflict,
                Some(_) => {
                    // Good value is right but the effect vanished — only
                    // possible for a fault whose line value is fixed by
                    // constants; treat as conflict.
                    Objective::Conflict
                }
                None => {
                    let target = match fault.site {
                        FaultSite::Stem(id) => id,
                        FaultSite::Pin { gate, pin } => self.circuit.node(gate).fanin[pin],
                    };
                    Objective::Assign(target, !fault.stuck_at_one)
                }
            };
        }

        // Activated: advance the D-frontier.
        let Some(gate) = self.frontier_best() else {
            return Objective::Conflict;
        };
        if !self.x_path_exists() {
            return Objective::Conflict;
        }
        // `gate` is the frontier member closest to an output (min CO);
        // pick its easiest unassigned input, set to the non-controlling
        // value.
        let node = self.circuit.node(gate);
        let noncontrolling = match node.kind.controlling_value() {
            Some(c) => !c,
            // XOR-family: any defined value works; pick the cheaper side
            // of the chosen input below.
            None => true,
        };
        let input = node
            .fanin
            .iter()
            .copied()
            .filter(|f| self.values[f.index()] == V5::X)
            .min_by_key(|&f| self.testability.cc(f, noncontrolling));
        match input {
            Some(f) => {
                let v = if node.kind.controlling_value().is_some() {
                    noncontrolling
                } else {
                    self.testability.cc0(f) <= self.testability.cc1(f)
                };
                let v = if node.kind.controlling_value().is_some() {
                    v
                } else {
                    !v // cheaper side: if cc0 cheaper, target 0
                };
                Objective::Assign(f, v)
            }
            None => Objective::Conflict,
        }
    }

    /// Whether any frontier gate still has a path of X-valued nodes to a
    /// primary output. Both the frontier and every X-path from it live
    /// inside the fault cone, so one reverse sweep over the cone decides
    /// the same predicate a whole-circuit sweep would.
    fn x_path_exists(&mut self) -> bool {
        self.xreach_epoch = self.xreach_epoch.wrapping_add(1);
        if self.xreach_epoch == 0 {
            self.xreach_stamp.fill(u32::MAX);
            self.xreach_epoch = 1;
        }
        for &id in self.cone.iter().rev() {
            let i = id.index();
            if self.values[i] != V5::X {
                continue;
            }
            let reaches = self.index.output_marks(id) > 0
                || self
                    .index
                    .fanouts(id)
                    .iter()
                    .any(|&fo| self.xreach_stamp[fo.index()] == self.xreach_epoch);
            if reaches {
                self.xreach_stamp[i] = self.xreach_epoch;
            }
        }
        self.frontier.iter().any(|&g| {
            self.in_frontier[g.index()] && self.xreach_stamp[g.index()] == self.xreach_epoch
        })
    }

    /// Walk an objective back to an unassigned primary input.
    fn backtrace(
        &self,
        mut node: NodeId,
        mut value: bool,
        assignment: &[Option<bool>],
    ) -> Option<(usize, bool)> {
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > self.circuit.node_count() + 1 {
                return None; // safety net; cannot loop in a DAG
            }
            if let Some(pos) = self.input_pos[node.index()] {
                if assignment[pos].is_some() {
                    return None; // already decided; objective unreachable
                }
                return Some((pos, value));
            }
            let (kind, fanin) = (self.index.kind(node), self.index.fanins(node));
            match kind {
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::Buf | GateKind::Dff => node = fanin[0],
                GateKind::Not => {
                    node = fanin[0];
                    value = !value;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let inverts = kind.inverts();
                    let pre = value ^ inverts; // required value before inversion
                    let controlling = kind
                        .controlling_value()
                        .expect("and/or family has a controlling value");
                    let xs = fanin
                        .iter()
                        .copied()
                        .filter(|f| self.values[f.index()] == V5::X);
                    let pick = if pre == controlling {
                        // One controlling input suffices: easiest.
                        xs.min_by_key(|&f| self.testability.cc(f, controlling))
                    } else {
                        // All inputs must be non-controlling: hardest first.
                        xs.max_by_key(|&f| self.testability.cc(f, !controlling))
                    };
                    node = pick?;
                    value = if pre == controlling {
                        controlling
                    } else {
                        !controlling
                    };
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Heuristic: pick any X input and request its cheaper
                    // value; implication validates the result.
                    let pick = fanin
                        .iter()
                        .copied()
                        .find(|f| self.values[f.index()] == V5::X)?;
                    node = pick;
                    value = self.testability.cc1(pick) < self.testability.cc0(pick);
                }
                GateKind::Input => unreachable!("inputs handled via input_pos"),
            }
        }
    }
}

/// Inject a stuck-at value into a line's five-valued state: the faulty
/// component becomes the stuck value.
fn inject_stuck(v: V5, stuck_at_one: bool) -> V5 {
    V5::from_pair(v.good(), Some(stuck_at_one))
}

#[derive(Debug, PartialEq, Eq)]
enum Objective {
    Assign(NodeId, bool),
    Conflict,
}

/// The original whole-circuit PODEM, kept as the differential oracle: it
/// re-implies every node from scratch at each decision and rescans the
/// full node array for the D-frontier and X-path checks. The incremental
/// engine must reproduce its outcomes (and cubes) bit-for-bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{eval_gate, inject_stuck, Bit, Objective, TestCube, V5};
    use crate::error::AtpgError;
    use crate::fault::{Fault, FaultSite};
    use crate::podem::PodemOutcome;
    use crate::testability::Testability;
    use modsoc_netlist::{Circuit, GateKind, NodeId};

    pub struct ReferencePodem<'a> {
        circuit: &'a Circuit,
        order: Vec<NodeId>,
        testability: Testability,
        backtrack_limit: u32,
        input_pos: Vec<Option<usize>>,
    }

    impl<'a> ReferencePodem<'a> {
        pub fn new(
            circuit: &'a Circuit,
            backtrack_limit: u32,
        ) -> Result<ReferencePodem<'a>, AtpgError> {
            let testability = Testability::compute(circuit)?;
            let order = circuit.topo_order()?;
            let mut input_pos = vec![None; circuit.node_count()];
            for (k, &pi) in circuit.inputs().iter().enumerate() {
                input_pos[pi.index()] = Some(k);
            }
            Ok(ReferencePodem {
                circuit,
                order,
                testability,
                backtrack_limit,
                input_pos,
            })
        }

        pub fn generate(&self, fault: Fault) -> Result<PodemOutcome, AtpgError> {
            let affected = fault.site.affected_gate();
            if affected.index() >= self.circuit.node_count() {
                return Err(AtpgError::ForeignFault {
                    fault: fault.to_string(),
                });
            }
            if let FaultSite::Pin { gate, pin } = fault.site {
                if pin >= self.circuit.node(gate).fanin.len() {
                    return Err(AtpgError::ForeignFault {
                        fault: fault.to_string(),
                    });
                }
            }

            let width = self.circuit.input_count();
            let mut assignment: Vec<Option<bool>> = vec![None; width];
            let mut stack: Vec<(usize, bool, bool)> = Vec::new();
            let mut backtracks = 0u32;
            let mut values = vec![V5::X; self.circuit.node_count()];

            loop {
                self.imply(fault, &assignment, &mut values);

                if self.detected(&values) {
                    let bits = assignment
                        .iter()
                        .map(|a| a.map_or(Bit::X, Bit::from_bool))
                        .collect::<TestCube>();
                    return Ok(PodemOutcome::Test(bits));
                }

                let objective = match self.next_objective(fault, &values) {
                    Objective::Assign(node, value) => Some((node, value)),
                    Objective::Conflict => None,
                };
                let decision = objective
                    .and_then(|(node, value)| self.backtrace(node, value, &values, &assignment));

                match decision {
                    Some((pi, v)) => {
                        assignment[pi] = Some(v);
                        stack.push((pi, v, false));
                    }
                    None => loop {
                        match stack.pop() {
                            Some((pi, v, tried_both)) => {
                                assignment[pi] = None;
                                if !tried_both {
                                    backtracks += 1;
                                    if backtracks > self.backtrack_limit {
                                        return Ok(PodemOutcome::Aborted);
                                    }
                                    assignment[pi] = Some(!v);
                                    stack.push((pi, !v, true));
                                    break;
                                }
                            }
                            None => return Ok(PodemOutcome::Redundant),
                        }
                    },
                }
            }
        }

        fn imply(&self, fault: Fault, assignment: &[Option<bool>], values: &mut [V5]) {
            for v in values.iter_mut() {
                *v = V5::X;
            }
            for (k, &pi) in self.circuit.inputs().iter().enumerate() {
                values[pi.index()] = match assignment[k] {
                    Some(true) => V5::One,
                    Some(false) => V5::Zero,
                    None => V5::X,
                };
            }
            if let FaultSite::Stem(site) = fault.site {
                if self.input_pos[site.index()].is_some() {
                    values[site.index()] = inject_stuck(values[site.index()], fault.stuck_at_one);
                }
            }
            let mut fanin_buf: Vec<V5> = Vec::with_capacity(8);
            for &id in &self.order {
                let node = self.circuit.node(id);
                if node.kind == GateKind::Input {
                    continue;
                }
                fanin_buf.clear();
                for (pin, f) in node.fanin.iter().enumerate() {
                    let mut v = values[f.index()];
                    if fault.site == (FaultSite::Pin { gate: id, pin }) {
                        v = inject_stuck(v, fault.stuck_at_one);
                    }
                    fanin_buf.push(v);
                }
                let mut v = eval_gate(node.kind, &fanin_buf);
                if fault.site == FaultSite::Stem(id) {
                    v = inject_stuck(v, fault.stuck_at_one);
                }
                values[id.index()] = v;
            }
        }

        fn detected(&self, values: &[V5]) -> bool {
            self.circuit
                .outputs()
                .iter()
                .any(|o| values[o.index()].is_fault_effect())
        }

        fn next_objective(&self, fault: Fault, values: &[V5]) -> Objective {
            let line_value = match fault.site {
                FaultSite::Stem(id) => values[id.index()],
                FaultSite::Pin { gate, pin } => {
                    let drv = self.circuit.node(gate).fanin[pin];
                    inject_stuck(values[drv.index()], fault.stuck_at_one)
                }
            };
            if !line_value.is_fault_effect() {
                let good = match fault.site {
                    FaultSite::Stem(id) => values[id.index()].good(),
                    FaultSite::Pin { gate, pin } => {
                        values[self.circuit.node(gate).fanin[pin].index()].good()
                    }
                };
                return match good {
                    Some(_) => Objective::Conflict,
                    None => {
                        let target = match fault.site {
                            FaultSite::Stem(id) => id,
                            FaultSite::Pin { gate, pin } => self.circuit.node(gate).fanin[pin],
                        };
                        Objective::Assign(target, !fault.stuck_at_one)
                    }
                };
            }

            let frontier = self.d_frontier(fault, values);
            if frontier.is_empty() {
                return Objective::Conflict;
            }
            if !self.x_path_exists(values, &frontier) {
                return Objective::Conflict;
            }
            let gate = frontier
                .iter()
                .copied()
                .min_by_key(|&g| self.testability.co(g))
                .expect("frontier nonempty");
            let node = self.circuit.node(gate);
            let noncontrolling = match node.kind.controlling_value() {
                Some(c) => !c,
                None => true,
            };
            let input = node
                .fanin
                .iter()
                .copied()
                .filter(|f| values[f.index()] == V5::X)
                .min_by_key(|&f| self.testability.cc(f, noncontrolling));
            match input {
                Some(f) => {
                    let v = if node.kind.controlling_value().is_some() {
                        noncontrolling
                    } else {
                        self.testability.cc0(f) <= self.testability.cc1(f)
                    };
                    let v = if node.kind.controlling_value().is_some() {
                        v
                    } else {
                        !v // cheaper side: if cc0 cheaper, target 0
                    };
                    Objective::Assign(f, v)
                }
                None => Objective::Conflict,
            }
        }

        fn d_frontier(&self, fault: Fault, values: &[V5]) -> Vec<NodeId> {
            let mut frontier = Vec::new();
            for (id, node) in self.circuit.iter() {
                if values[id.index()] != V5::X {
                    continue;
                }
                let has_effect = node.fanin.iter().enumerate().any(|(pin, f)| {
                    let mut v = values[f.index()];
                    if fault.site == (FaultSite::Pin { gate: id, pin }) {
                        v = inject_stuck(v, fault.stuck_at_one);
                    }
                    v.is_fault_effect()
                });
                if has_effect {
                    frontier.push(id);
                }
            }
            frontier
        }

        fn x_path_exists(&self, values: &[V5], frontier: &[NodeId]) -> bool {
            let mut xreach = vec![false; self.circuit.node_count()];
            for &po in self.circuit.outputs() {
                if values[po.index()] == V5::X {
                    xreach[po.index()] = true;
                }
            }
            for &id in self.order.iter().rev() {
                if !xreach[id.index()] || values[id.index()] != V5::X {
                    continue;
                }
                for f in &self.circuit.node(id).fanin {
                    if values[f.index()] == V5::X {
                        xreach[f.index()] = true;
                    }
                }
            }
            frontier.iter().any(|&g| xreach[g.index()])
        }

        fn backtrace(
            &self,
            mut node: NodeId,
            mut value: bool,
            values: &[V5],
            assignment: &[Option<bool>],
        ) -> Option<(usize, bool)> {
            let mut hops = 0usize;
            loop {
                hops += 1;
                if hops > self.circuit.node_count() + 1 {
                    return None;
                }
                if let Some(pos) = self.input_pos[node.index()] {
                    if assignment[pos].is_some() {
                        return None;
                    }
                    return Some((pos, value));
                }
                let n = self.circuit.node(node);
                match n.kind {
                    GateKind::Const0 | GateKind::Const1 => return None,
                    GateKind::Buf | GateKind::Dff => node = n.fanin[0],
                    GateKind::Not => {
                        node = n.fanin[0];
                        value = !value;
                    }
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                        let inverts = n.kind.inverts();
                        let pre = value ^ inverts;
                        let controlling = n
                            .kind
                            .controlling_value()
                            .expect("and/or family has a controlling value");
                        let xs: Vec<NodeId> = n
                            .fanin
                            .iter()
                            .copied()
                            .filter(|f| values[f.index()] == V5::X)
                            .collect();
                        if xs.is_empty() {
                            return None;
                        }
                        let pick = if pre == controlling {
                            xs.iter()
                                .copied()
                                .min_by_key(|&f| self.testability.cc(f, controlling))
                        } else {
                            xs.iter()
                                .copied()
                                .max_by_key(|&f| self.testability.cc(f, !controlling))
                        };
                        node = pick.expect("xs nonempty");
                        value = if pre == controlling {
                            controlling
                        } else {
                            !controlling
                        };
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        let pick = n
                            .fanin
                            .iter()
                            .copied()
                            .find(|f| values[f.index()] == V5::X)?;
                        node = pick;
                        value = self.testability.cc1(pick) < self.testability.cc0(pick);
                    }
                    GateKind::Input => unreachable!("inputs handled via input_pos"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_netlist::Circuit;

    fn and2() -> Circuit {
        let mut c = Circuit::new("and2");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::And, &[a, b]).unwrap();
        c.mark_output(g);
        c
    }

    fn c17() -> Circuit {
        modsoc_netlist::bench_format::parse_bench(
            "c17",
            "
INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)
OUTPUT(g22)\nOUTPUT(g23)
g10 = NAND(g1, g3)
g11 = NAND(g3, g6)
g16 = NAND(g2, g11)
g19 = NAND(g11, g7)
g22 = NAND(g10, g16)
g23 = NAND(g16, g19)
",
        )
        .unwrap()
    }

    #[test]
    fn and_output_sa0_needs_11() {
        let c = and2();
        let mut p = Podem::new(&c, 100).unwrap();
        let out = p.generate(Fault::stem_sa0(c.find("g").unwrap())).unwrap();
        match out {
            PodemOutcome::Test(cube) => {
                assert_eq!(cube.bit(0), Bit::One);
                assert_eq!(cube.bit(1), Bit::One);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn and_input_sa1_needs_01_pattern() {
        // a s-a-1 detected by a=0, b=1.
        let c = and2();
        let mut p = Podem::new(&c, 100).unwrap();
        let out = p.generate(Fault::stem_sa1(c.inputs()[0])).unwrap();
        match out {
            PodemOutcome::Test(cube) => {
                assert_eq!(cube.bit(0), Bit::Zero);
                assert_eq!(cube.bit(1), Bit::One);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_found() {
        // g = OR(a, NOT(a)) is constant 1: g s-a-1 is undetectable.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Or, &[a, n]).unwrap();
        c.mark_output(g);
        let mut p = Podem::new(&c, 1000).unwrap();
        let out = p.generate(Fault::stem_sa1(g)).unwrap();
        assert_eq!(out, PodemOutcome::Redundant);
    }

    #[test]
    fn detectable_in_constant_one_circuit() {
        // Same circuit: g s-a-0 IS detectable (any input works).
        let mut c = Circuit::new("red2");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Or, &[a, n]).unwrap();
        c.mark_output(g);
        let mut p = Podem::new(&c, 1000).unwrap();
        let out = p.generate(Fault::stem_sa0(g)).unwrap();
        assert!(matches!(out, PodemOutcome::Test(_)));
    }

    #[test]
    fn pin_fault_on_branch() {
        // a fans to g1=AND(a,b), g2=OR(a,b). Branch a->g1 s-a-1: need
        // a=0 (activate), b=1 to propagate through g1? No: AND(D',b):
        // propagate needs b=1, then g1 shows D'. But a=0 also affects g2
        // only in good circuit — branch fault leaves g2 clean.
        let mut c = Circuit::new("br");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Or, &[a, b]).unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        let mut p = Podem::new(&c, 100).unwrap();
        let out = p.generate(Fault::pin(g1, 0, true)).unwrap();
        match out {
            PodemOutcome::Test(cube) => {
                assert_eq!(cube.bit(0), Bit::Zero, "activation: a=0");
                assert_eq!(cube.bit(1), Bit::One, "propagation: b=1");
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn xor_propagation() {
        // y = XOR(a, b): every fault is testable.
        let mut c = Circuit::new("x");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::Xor, &[a, b]).unwrap();
        c.mark_output(g);
        let mut p = Podem::new(&c, 100).unwrap();
        for f in crate::fault::enumerate_faults(&c) {
            let out = p.generate(f).unwrap();
            assert!(matches!(out, PodemOutcome::Test(_)), "{f}");
        }
    }

    #[test]
    fn reconvergent_fanout_c17_all_testable() {
        // The classic c17: all 22 collapsed faults are testable.
        let c = c17();
        let mut p = Podem::new(&c, 1000).unwrap();
        for f in crate::collapse::collapse_faults(&c).representatives() {
            let out = p.generate(*f).unwrap();
            assert!(
                matches!(out, PodemOutcome::Test(_)),
                "{f} should be testable"
            );
        }
    }

    #[test]
    fn generated_tests_verified_by_simulation() {
        // Every PODEM test must actually flip an output in a faulty
        // 64-bit simulation (stem faults; checked via forced-node sim).
        let src = "
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)
OUTPUT(y)
t1 = AND(a, b)
t2 = NOR(c, d)
t3 = XOR(t1, c)
y = OR(t3, t2)
";
        let c = modsoc_netlist::bench_format::parse_bench("v", src).unwrap();
        let mut p = Podem::new(&c, 1000).unwrap();
        let sim = modsoc_netlist::sim::Simulator::new(&c).unwrap();
        for (id, node) in c.iter() {
            if node.kind == GateKind::Input {
                continue;
            }
            for sa1 in [false, true] {
                let f = Fault {
                    site: FaultSite::Stem(id),
                    stuck_at_one: sa1,
                };
                if let PodemOutcome::Test(cube) = p.generate(f).unwrap() {
                    let filled = cube.fill(crate::pattern::FillStrategy::Zeros);
                    let words: Vec<u64> = filled.iter().map(|&x| if x { 1 } else { 0 }).collect();
                    let good = sim.run_on(&c, &words);
                    let forced = if sa1 { u64::MAX } else { 0 };
                    let bad = sim.run_with_forced_node(&c, &words, id, forced);
                    let diff = c
                        .outputs()
                        .iter()
                        .any(|o| (good[o.index()] ^ bad[o.index()]) & 1 != 0);
                    assert!(diff, "test for {} does not detect it", f.describe(&c));
                }
            }
        }
    }

    #[test]
    fn foreign_fault_rejected() {
        let c = and2();
        let mut p = Podem::new(&c, 10).unwrap();
        let err = p.generate(Fault::pin(c.find("g").unwrap(), 9, true));
        assert!(matches!(err, Err(AtpgError::ForeignFault { .. })));
    }

    #[test]
    fn state_restored_between_searches() {
        // Interleave testable/redundant/foreign searches and re-check
        // outcomes: the persistent incremental state must fully unwind.
        let c = and2();
        let g = c.find("g").unwrap();
        let mut p = Podem::new(&c, 100).unwrap();
        let first = p.generate(Fault::stem_sa0(g)).unwrap();
        assert!(p.generate(Fault::pin(g, 9, true)).is_err());
        let again = p.generate(Fault::stem_sa0(g)).unwrap();
        assert_eq!(first, again);
        for f in crate::fault::enumerate_faults(&c) {
            assert_eq!(p.generate(f).unwrap(), p.generate(f).unwrap(), "{f}");
        }
    }

    // Differential property tests: on generated core profiles spanning
    // the paper's structural knobs (overlap, XOR density), the
    // incremental engine must reproduce the full-resimulation oracle's
    // outcome — including the exact cube — for every collapsed fault,
    // and every Test cube must detect its fault in a fault simulation.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn incremental_matches_oracle_on_generated_cores(
            inputs in 4usize..8,
            outputs in 2usize..6,
            scan in 2usize..10,
            overlap_pct in 0usize..100,
            xor_pct in 0usize..40,
            seed in 0u64..1024,
        ) {
            let mut profile =
                modsoc_circuitgen::CoreProfile::new("prop", inputs, outputs, scan).with_seed(seed);
            profile.overlap = overlap_pct as f64 / 100.0;
            profile.xor_fraction = xor_pct as f64 / 100.0;
            let circuit = modsoc_circuitgen::generate(&profile).expect("profile generates");
            let model = circuit.to_test_model().expect("test model").circuit;

            // A small backtrack limit keeps the search exercising the
            // Aborted path too; both engines must agree on it.
            let mut podem = Podem::new(&model, 24).expect("podem");
            let reference = oracle::ReferencePodem::new(&model, 24).expect("oracle");
            let mut fsim = crate::fault_sim::FaultSimulator::new(&model).expect("fsim");
            for &f in crate::collapse::collapse_faults(&model).representatives() {
                let incremental = podem.generate(f).expect("incremental generate");
                let full = reference.generate(f).expect("oracle generate");
                proptest::prop_assert_eq!(
                    &incremental,
                    &full,
                    "{} diverges from the oracle",
                    f.describe(&model)
                );
                if let PodemOutcome::Test(cube) = incremental {
                    let filled = cube.fill(crate::pattern::FillStrategy::Zeros);
                    let mask = fsim.detection_masks(&[filled], &[f]).expect("sim")[0];
                    proptest::prop_assert!(
                        mask != 0,
                        "cube for {} fails simulation",
                        f.describe(&model)
                    );
                }
            }
        }
    }

    /// What one budgeted search returns and costs: its outcome, its
    /// per-call effort, and the backtracks it charged to its budget.
    fn searched(podem: &mut Podem<'_>, f: Fault) -> (PodemOutcome, PodemSearchStats, u64) {
        let budget = RunBudget::unlimited();
        let before = podem.search_stats();
        let outcome = podem
            .generate_with_constraints_budgeted(f, &[], Some(&budget))
            .unwrap();
        (
            outcome,
            podem.search_stats() - before,
            budget.backtracks_used(),
        )
    }

    // The engine's windowed fault dropping searches targets it may never
    // commit and relies on two facts checked here for every collapsed
    // fault: a search depends only on its fault (not on the searches run
    // before it on the same generator), and `budget_charge` is exactly
    // what the search charged to its budget.
    #[test]
    fn search_is_a_pure_function_of_the_fault() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let c17 = c17();
        let s953 =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s953(3)).unwrap();
        let s953 = s953.to_test_model().unwrap().circuit;
        let mut aborted = 0;
        for circuit in [&c17, &s953] {
            let index = Arc::new(StructuralIndex::build(circuit).unwrap());
            let faults = crate::collapse::collapse_faults(circuit)
                .representatives()
                .to_vec();
            // A small limit keeps the Aborted path in play.
            let limit = 6;
            let fresh: Vec<_> = faults
                .iter()
                .map(|&f| {
                    let mut podem = Podem::with_index(circuit, Arc::clone(&index), limit).unwrap();
                    searched(&mut podem, f)
                })
                .collect();
            let mut order: Vec<usize> = (0..faults.len()).collect();
            order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(953));
            let mut used = Podem::with_index(circuit, Arc::clone(&index), limit).unwrap();
            for &k in &order {
                let again = searched(&mut used, faults[k]);
                assert_eq!(again, fresh[k], "{}", faults[k].describe(circuit));
                assert_eq!(used.budget_charge(again.1), again.2);
                aborted += usize::from(again.0 == PodemOutcome::Aborted);
            }
        }
        assert!(aborted > 0, "no search hit the backtrack limit");
    }

    #[test]
    fn matches_oracle_on_c17_exhaustively() {
        let c = c17();
        let mut p = Podem::new(&c, 1000).unwrap();
        let reference = oracle::ReferencePodem::new(&c, 1000).unwrap();
        for f in crate::fault::enumerate_faults(&c) {
            assert_eq!(
                p.generate(f).unwrap(),
                reference.generate(f).unwrap(),
                "{} diverges from the full-resimulation oracle",
                f.describe(&c)
            );
        }
    }
}
