//! Bit-parallel stuck-at fault simulation (PPSFP with critical-path
//! tracing).
//!
//! The good circuit is evaluated once per batch. A fault's detection
//! mask is then the product of three packed words:
//!
//! - its *activation*: the slots where the good value of its line
//!   differs from the stuck value;
//! - its line's *sensitization* to the root of its fanout-free region
//!   (see [`StructuralIndex::ffr_members`]): a region is a tree, so the
//!   fault effect reaches the root along one path, and the slots where
//!   it gets through are the AND of each gate's sensitivity to the pin
//!   on that path (critical-path tracing, Abramovici, Menon and Miller,
//!   DAC 1983, combined with PPSFP as in Lee and Ha's HOPE);
//! - the root's *observability*: the slots where flipping the root
//!   flips some primary output. It is all ones for a root that is an
//!   output and zero for one that reaches none; for any other root it
//!   is found by propagating the flip event-driven through the root's
//!   fanout cone. That propagation is the only event-driven work.
//!
//! One backward pass over a region gives the sensitization of every one
//! of its lines, so the sweeps over a fault list bucket the faults by
//! region, trace each region once per batch while one of its faults is
//! still undecided, and propagate each root at most once. The kernel is
//! generic over a packed word width and monomorphized twice:
//!
//! - **`u64`** — 64 patterns per pass, through
//!   [`FaultSimulator::detection_masks`]. Used wherever a 64-slot batch
//!   is semantically visible: the engine's random-phase keep/drop
//!   bookkeeping and PODEM windows, TDF fault dropping after each cube,
//!   and BIST's per-64 coverage ramp.
//! - **[`SimBlock`]** (`[u64; 8]`) — 512 patterns per pass, written so
//!   the autovectorizer lifts the lane loops to 256/512-bit SIMD. The
//!   bulk sweeps ([`FaultSimulator::detected`],
//!   [`FaultSimulator::detection_counts`], [`fault_coverage`], the
//!   compaction sweep) run on this width.
//!
//! Values are node-major (struct-of-arrays): each node's whole block is
//! contiguous, so wide gate evaluation streams cache lines. Every entry
//! point is a sweep over a fault list, and the sweeps (the bulk sweeps
//! above and [`FaultSimulator::detection_masks_budgeted`]) combine
//! pattern-parallel and fault-parallel blocking: good values are
//! computed once on the calling thread and shared read-only by the
//! workers of a [`WorkerPool`], which claim chunks of whole regions of
//! about [`SWEEP_CHUNK`] faults and stream each against one block at a
//! time. Results are scattered back to fault order, so every sweep is
//! identical at any worker count.
//!
//! Both widths produce bit-identical detection verdicts; the test suite
//! pins the wide sweeps to per-64 [`FaultSimulator::detection_masks`]
//! references word for word, and the tracing kernel, per fault at both
//! widths, to an event-driven reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use modsoc_metrics::{MetricsSink, NullSink};
use modsoc_netlist::sim::Simulator;
use modsoc_netlist::{Circuit, GateKind, NodeId, StructuralIndex};
pub use modsoc_netlist::{PackedWord, SimBlock, BLOCK_BITS, BLOCK_WORDS};

use crate::budget::{ExhaustReason, RunBudget};
use crate::error::AtpgError;
use crate::fault::{Fault, FaultSite};
use crate::pool::WorkerPool;

/// Faults per chunk of a pooled sweep: workers claim chunks of whole
/// fanout-free regions holding about this many faults, and a budgeted
/// sweep polls its budget once per chunk (polling costs an
/// `Instant::now()`; tracing a region is usually far cheaper, so
/// polling every region would dominate small ones).
pub const SWEEP_CHUNK: usize = 512;

/// Mask of the valid pattern slots for a batch of `n` patterns: the low
/// `n` bits set, saturating at the full word for `n >= 64`.
///
/// This is the *one* place the `n == 64` shift-overflow special case
/// lives; every `chunks(64)` tail in the fault-sim/TDF paths
/// must come through here rather than hand-rolling `(1 << n) - 1`.
#[must_use]
pub fn active_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Block-wide tail mask for `n` patterns: word `w` covers pattern slots
/// `[64w, 64w + 64)` and is derived through [`active_mask`], so the
/// shift special case still has exactly one home. Every
/// `chunks(BLOCK_BITS)` tail of the blocked sweeps comes through here.
fn block_active_mask(n: usize) -> SimBlock {
    let mut mask = [0u64; BLOCK_WORDS];
    for (w, word) in mask.iter_mut().enumerate() {
        *word = active_mask(n.saturating_sub(w * 64));
    }
    mask
}

/// One batch's good values with the circuit they belong to: what every
/// kernel call reads.
#[derive(Clone, Copy)]
struct Batch<'b, W> {
    circuit: &'b Circuit,
    index: &'b StructuralIndex,
    good: &'b [W],
    /// The valid pattern slots of the batch.
    active: W,
}

/// The slots where flipping pin `pin` of `gate` alone flips the gate's
/// output, under the batch's good values on its other pins.
fn pin_sensitivity<W: PackedWord>(b: &Batch<'_, W>, gate: NodeId, pin: usize) -> W {
    let node = b.circuit.node(gate);
    let side = node
        .fanin
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != pin)
        .map(|(_, f)| b.good[f.index()]);
    match node.kind {
        GateKind::And | GateKind::Nand => side.fold(W::ONES, W::and),
        GateKind::Or | GateKind::Nor => side.fold(W::ONES, |acc, v| acc.and(v.not())),
        // The single-input and parity kinds pass every flip; inputs and
        // constants have no pin to flip.
        GateKind::Buf
        | GateKind::Not
        | GateKind::Dff
        | GateKind::Xor
        | GateKind::Xnor
        | GateKind::Input
        | GateKind::Const0
        | GateKind::Const1 => W::ONES,
    }
}

/// Per-worker fault-simulation state for one packed width.
///
/// The tracing state is region-sized: `sens` holds one traced region's
/// line sensitizations and `pending` one region's partial masks. The
/// rest serves the event-driven propagation of a root flip:
/// `faulty[i]` is only meaningful when `stamp[i] == epoch`, so bumping
/// the epoch invalidates the whole array in O(1), and the event heap is
/// reused across propagations (it is always drained empty).
#[derive(Debug, Clone)]
struct Scratch<W> {
    /// `sens[p]`: the slots where a flip of member `p` of the traced
    /// region flips the region's root.
    sens: Vec<W>,
    /// Activation ∧ sensitization of each fault of the region in hand.
    pending: Vec<W>,
    faulty: Vec<W>,
    stamp: Vec<u32>,
    /// Queue-membership stamp: `queued[i] == epoch` means node `i` is
    /// already in the event heap for the current propagation, so further
    /// fanin changes must not enqueue (or later re-evaluate) it again.
    queued: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Output mismatches of the current propagation.
    mismatch: W,
}

impl<W: PackedWord> Scratch<W> {
    fn new(nodes: usize) -> Scratch<W> {
        Scratch {
            sens: Vec::new(),
            pending: Vec::new(),
            faulty: vec![W::ZERO; nodes],
            stamp: vec![0; nodes],
            queued: vec![0; nodes],
            epoch: 0,
            heap: BinaryHeap::new(),
            mismatch: W::ZERO,
        }
    }

    /// Detection masks of the faults `group` picks from `faults`, which
    /// all sit in one fanout-free region, against one batch. Fault
    /// `faults[group[k]]` is simulated only while `live(&out[k])`, and
    /// `emit(&mut out[k], mask)` receives each nonzero mask, tail-masked
    /// by the batch's active slots; a fault whose mask is zero leaves
    /// its `out` entry alone.
    fn ffr_masks<R>(
        &mut self,
        b: &Batch<'_, W>,
        (faults, group): (&[Fault], &[u32]),
        out: &mut [R],
        live: impl Fn(&R) -> bool,
        emit: impl Fn(&mut R, W),
    ) {
        let Some(&first) = group.first() else {
            return;
        };
        let ffr = b.index.ffr_of(faults[first as usize].site.affected_gate());
        let root = b.index.ffr_members(ffr)[0];
        if !b.index.reaches_any_output(root) || !out.iter().any(&live) {
            return;
        }
        self.trace(b, ffr);
        self.pending.clear();
        let mut any = false;
        for (&i, o) in group.iter().zip(out.iter()) {
            let m = if live(o) {
                self.line_mask(b, faults[i as usize]).and(b.active)
            } else {
                W::ZERO
            };
            any |= !m.is_zero();
            self.pending.push(m);
        }
        if !any {
            return;
        }
        let observed = if b.index.output_marks(root) > 0 {
            W::ONES
        } else {
            self.observability(b, root)
        };
        for (&m, o) in self.pending.iter().zip(out) {
            let m = m.and(observed);
            if !m.is_zero() {
                emit(o, m);
            }
        }
    }

    /// The backward pass over region `ffr`: members come root first and
    /// each after its consumer, so one walk fills `sens` for all of them.
    fn trace(&mut self, b: &Batch<'_, W>, ffr: usize) {
        let members = b.index.ffr_members(ffr);
        self.sens.clear();
        self.sens.push(W::ONES);
        for &m in &members[1..] {
            let (consumer, pin) = b
                .index
                .ffr_consumer(m)
                .expect("a region member other than the root has one consumer");
            let up = self.sens[b.index.ffr_pos(consumer)];
            self.sens.push(if up.is_zero() {
                up
            } else {
                up.and(pin_sensitivity(b, consumer, pin))
            });
        }
    }

    /// Activation ∧ sensitization to the root of `fault`'s line, from the
    /// traced region it sits in.
    fn line_mask(&self, b: &Batch<'_, W>, fault: Fault) -> W {
        let stuck = if fault.stuck_at_one { W::ONES } else { W::ZERO };
        match fault.site {
            FaultSite::Stem(site) => {
                self.sens[b.index.ffr_pos(site)].and(b.good[site.index()].xor(stuck))
            }
            FaultSite::Pin { gate, pin } => {
                let up = self.sens[b.index.ffr_pos(gate)];
                if up.is_zero() {
                    return up;
                }
                let driver = b.circuit.node(gate).fanin[pin];
                up.and(pin_sensitivity(b, gate, pin))
                    .and(b.good[driver.index()].xor(stuck))
            }
        }
    }

    /// The slots where flipping `root` flips some primary output, by
    /// event-driven propagation of the flip through its fanout cone.
    fn observability(&mut self, b: &Batch<'_, W>, root: NodeId) -> W {
        self.begin();
        self.set_faulty(b, root, b.good[root.index()].not());
        self.propagate(b);
        self.mismatch
    }

    /// Start a propagation: a fresh epoch and no mismatches.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap: invalidate everything once.
            self.stamp.fill(u32::MAX);
            self.queued.fill(u32::MAX);
            self.epoch = 1;
        }
        self.mismatch = W::ZERO;
    }

    #[inline]
    fn value_of(&self, id: NodeId, good: &[W]) -> W {
        if self.stamp[id.index()] == self.epoch {
            self.faulty[id.index()]
        } else {
            good[id.index()]
        }
    }

    /// Record `id`'s faulty value, fold it into the output mismatches
    /// if `id` is an output, and schedule its consumers.
    fn set_faulty(&mut self, b: &Batch<'_, W>, id: NodeId, v: W) {
        self.stamp[id.index()] = self.epoch;
        self.faulty[id.index()] = v;
        if b.index.output_marks(id) > 0 {
            self.mismatch = self.mismatch.or(v.xor(b.good[id.index()]));
        }
        for &fo in b.index.fanouts(id) {
            if self.queued[fo.index()] != self.epoch {
                self.queued[fo.index()] = self.epoch;
                self.heap
                    .push(Reverse((b.index.topo_pos(fo), fo.index() as u32)));
            }
        }
    }

    /// Drain the event queue. Events pop in topological order and a
    /// node's fanins all sit strictly earlier in that order, so by the
    /// time a node pops every upstream change has settled: one
    /// evaluation per node is authoritative, and the `queued` stamp
    /// keeps a node with several changed fanins from being enqueued
    /// (and re-evaluated) once per fanin. The seeded node never pops,
    /// since nothing upstream of it changes. Overlay values stream
    /// straight into `eval_packed_iter`'s fold, so any fanin width
    /// evaluates without a per-call buffer.
    fn propagate(&mut self, b: &Batch<'_, W>) {
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let id = NodeId::from_index(raw as usize);
            let node = b.circuit.node(id);
            let v = node
                .kind
                .eval_packed_iter(node.fanin.iter().map(|&f| self.value_of(f, b.good)));
            if v != self.value_of(id, b.good) {
                self.set_faulty(b, id, v);
            }
        }
    }
}

/// A fault simulator bound to one combinational circuit.
///
/// Holds reusable scratch buffers for both packed widths (the 512-slot
/// scratch is allocated lazily on first blocked sweep); create once and
/// sweep fault lists with it: [`FaultSimulator::detection_masks`] per
/// 64-pattern batch, [`FaultSimulator::detected`] or
/// [`FaultSimulator::detection_counts`] over a pattern set of any size.
/// `Clone` is cheap relative to [`FaultSimulator::new`] (the shared
/// [`StructuralIndex`] is reference-counted, not recomputed), which is
/// how the bulk sweeps hand each worker thread its own simulator.
#[derive(Debug, Clone)]
pub struct FaultSimulator<'a> {
    circuit: &'a Circuit,
    sim: Simulator,
    index: Arc<StructuralIndex>,
    narrow: Scratch<u64>,
    wide: Option<Scratch<SimBlock>>,
}

impl<'a> FaultSimulator<'a> {
    /// Build a fault simulator (and its own [`StructuralIndex`]).
    ///
    /// # Errors
    ///
    /// Fails on sequential or invalid circuits.
    pub fn new(circuit: &'a Circuit) -> Result<FaultSimulator<'a>, AtpgError> {
        let index = Arc::new(StructuralIndex::build(circuit)?);
        FaultSimulator::with_index(circuit, index)
    }

    /// Build a fault simulator borrowing a prebuilt shared index instead
    /// of deriving a private one — the engine threads one index through
    /// collapsing, PODEM, and every fault-simulation pass.
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
    ) -> Result<FaultSimulator<'a>, AtpgError> {
        assert_eq!(
            index.node_count(),
            circuit.node_count(),
            "structural index does not match circuit"
        );
        let sim = Simulator::new(circuit)?;
        Ok(FaultSimulator {
            circuit,
            sim,
            index,
            narrow: Scratch::new(circuit.node_count()),
            wide: None,
        })
    }

    /// Evaluate the good circuit for a batch of ≤64 patterns.
    ///
    /// Returns `(per-node packed values, number of patterns in the batch)`.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::PatternWidth`] if any pattern width differs
    /// from the circuit's input count.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are supplied.
    pub(crate) fn good_values(
        &self,
        patterns: &[Vec<bool>],
    ) -> Result<(Vec<u64>, usize), AtpgError> {
        assert!(patterns.len() <= 64, "at most 64 patterns per batch");
        let width = self.check_widths(patterns)?;
        let mut words = vec![0u64; width];
        for (slot, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }
        Ok((self.sim.run_on(self.circuit, &words), patterns.len()))
    }

    /// Evaluate the good circuit for a block of ≤[`BLOCK_BITS`] (512)
    /// patterns, node-major: element `i` holds node `i`'s whole block.
    ///
    /// Returns `(per-node packed blocks, number of patterns)`.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::PatternWidth`] if any pattern width differs
    /// from the circuit's input count.
    ///
    /// # Panics
    ///
    /// Panics if more than [`BLOCK_BITS`] patterns are supplied.
    fn good_blocks(&self, patterns: &[Vec<bool>]) -> Result<(Vec<SimBlock>, usize), AtpgError> {
        assert!(
            patterns.len() <= BLOCK_BITS,
            "at most {BLOCK_BITS} patterns per block"
        );
        let width = self.check_widths(patterns)?;
        let mut blocks = vec![[0u64; BLOCK_WORDS]; width];
        for (slot, p) in patterns.iter().enumerate() {
            let (w, bit) = (slot / 64, slot % 64);
            for (i, &b) in p.iter().enumerate() {
                if b {
                    blocks[i][w] |= 1 << bit;
                }
            }
        }
        Ok((
            self.sim.run_packed_on(self.circuit, &blocks),
            patterns.len(),
        ))
    }

    fn check_widths(&self, patterns: &[Vec<bool>]) -> Result<usize, AtpgError> {
        let width = self.circuit.input_count();
        for p in patterns {
            if p.len() != width {
                return Err(AtpgError::PatternWidth {
                    expected: width,
                    got: p.len(),
                });
            }
        }
        Ok(width)
    }

    /// The narrow kernel's view of one batch, beside its scratch.
    fn narrow<'s>(
        &'s mut self,
        good: &'s [u64],
        active: u64,
    ) -> (Batch<'s, u64>, &'s mut Scratch<u64>) {
        let batch = Batch {
            circuit: self.circuit,
            index: &self.index,
            good,
            active,
        };
        (batch, &mut self.narrow)
    }

    /// The wide kernel's view of one block, beside its scratch (made on
    /// first use).
    fn wide<'s>(
        &'s mut self,
        good: &'s [SimBlock],
        active: SimBlock,
    ) -> (Batch<'s, SimBlock>, &'s mut Scratch<SimBlock>) {
        let circuit = self.circuit;
        let batch = Batch {
            circuit,
            index: &self.index,
            good,
            active,
        };
        let scratch = self
            .wide
            .get_or_insert_with(|| Scratch::new(circuit.node_count()));
        (batch, scratch)
    }

    /// Detection masks for a whole fault list against one batch of ≤64
    /// patterns, swept serially on this simulator: bit `k` of `masks[i]`
    /// is set iff pattern `k` makes some primary output differ under
    /// `faults[i]`.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detection_masks(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> Result<Vec<u64>, AtpgError> {
        Ok(self.mask_sweep(patterns, faults, None, 1, &NullSink)?.0)
    }

    /// [`FaultSimulator::detection_masks`] under a [`RunBudget`] on a
    /// `jobs`-wide pool (see [`FaultSimulator::detected`] for the
    /// chunking): the deadline/cancellation flags are polled once per
    /// chunk. A chunk that finds the budget tripped is not simulated and
    /// the reason is returned alongside the masks; its faults keep an
    /// all-zero mask, which downstream fault dropping reads as "not
    /// detected" — conservative, never unsound. On a trip the masks are
    /// re-masked with the batch's [`active_mask`], so ghost slots beyond
    /// the simulated prefix can never read as detections regardless of
    /// where the trip lands.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detection_masks_budgeted(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        budget: &RunBudget,
        jobs: usize,
        sink: &dyn MetricsSink,
    ) -> Result<(Vec<u64>, Option<ExhaustReason>), AtpgError> {
        self.mask_sweep(patterns, faults, Some(budget), jobs, sink)
    }

    /// The one 64-slot sweep behind [`FaultSimulator::detection_masks`],
    /// [`FaultSimulator::detection_masks_budgeted`] and the engine's
    /// PODEM windows.
    pub(crate) fn mask_sweep(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        budget: Option<&RunBudget>,
        jobs: usize,
        sink: &dyn MetricsSink,
    ) -> Result<(Vec<u64>, Option<ExhaustReason>), AtpgError> {
        let (good, n) = self.good_values(patterns)?;
        let active = active_mask(n);
        let tripped = OnceLock::new();
        let mut masks = self.sweep::<u64>(faults, jobs, sink, |fsim, span, masks| {
            let (batch, scratch) = fsim.narrow(&good, active);
            for chunk in span.each_chunk() {
                if let Some(reason) = budget.and_then(RunBudget::check) {
                    // The first trip in time wins; later ones agree.
                    let _ = tripped.set(reason);
                    return;
                }
                chunk.for_groups(masks, |group, masks| {
                    scratch.ffr_masks(&batch, group, masks, |_| true, |o, m| *o = m);
                });
            }
        });
        let tripped = tripped.into_inner();
        if tripped.is_some() {
            // Re-assert the tail discipline on the partial result before
            // handing it back (defense in depth — a mask produced by any
            // future accumulation scheme must still obey it).
            for m in &mut masks {
                *m &= active;
            }
        }
        Ok((masks, tripped))
    }

    /// Which faults `patterns` (any count) detect: `detected[i]` ⇔ some
    /// pattern flips some primary output under `faults[i]`. This is the
    /// engine's coverage-verification primitive.
    ///
    /// Good values are computed once per [`BLOCK_BITS`] block on this
    /// simulator. The fault list is then bucketed by fanout-free region
    /// and cut into chunks of whole regions, about [`SWEEP_CHUNK`]
    /// faults each, that the workers of a `jobs`-wide [`WorkerPool`]
    /// claim one at a time — the calling thread on this simulator, each
    /// spawned worker on its own clone of it. Each chunk is swept blocks
    /// outer, regions inner, and a region is traced against a block only
    /// while one of its faults is still undetected (an OR-reduction, so
    /// the result is identical with or without the drop). The results
    /// are scattered back to fault order, so they are identical at any
    /// `jobs`. A sweep the pool runs sequentially — `jobs == 1`, fewer
    /// than two chunks, or a call from a pool worker — stays on the
    /// calling thread. `sink` receives one worker-utilization row per
    /// worker of a parallel sweep and none for a sequential one.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detected(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        jobs: usize,
        sink: &dyn MetricsSink,
    ) -> Result<Vec<bool>, AtpgError> {
        let blocks = good_block_sweep(self, patterns)?;
        let detected = self.sweep::<bool>(faults, jobs, sink, |fsim, span, detected| {
            for (good, active) in &blocks {
                let (batch, scratch) = fsim.wide(good, *active);
                span.for_groups(detected, |group, detected| {
                    scratch.ffr_masks(&batch, group, detected, |d| !*d, |d, _| *d = true);
                });
            }
        });
        Ok(detected)
    }

    /// Each fault's *last detector*: `last[i]` is the index of the last
    /// pattern that detects `faults[i]`, or `None` when no pattern does.
    /// This is reverse-order compaction's primitive: the kept set is
    /// exactly the distinct last detectors, and the faults it detects are
    /// exactly those with one (see [`crate::compact`]).
    ///
    /// Blocked and chunked like [`FaultSimulator::detected`], but the
    /// blocks are walked from last to first, and a fault is dropped at
    /// its first nonzero block mask, recording the block's base plus its
    /// highest set slot. The work is about one `detected` sweep, the
    /// memory one slot per fault, and the result is identical at any
    /// `jobs`.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub(crate) fn last_detectors(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        jobs: usize,
        sink: &dyn MetricsSink,
    ) -> Result<Vec<Option<u32>>, AtpgError> {
        let blocks = good_block_sweep(self, patterns)?;
        let last = self.sweep::<Option<u32>>(faults, jobs, sink, |fsim, span, last| {
            for (blk, (good, active)) in blocks.iter().enumerate().rev() {
                let (batch, scratch) = fsim.wide(good, *active);
                let record = |l: &mut Option<u32>, mask: SimBlock| {
                    *l = highest_slot(&mask).map(|slot| {
                        u32::try_from(blk * BLOCK_BITS + slot).expect("pattern index fits in u32")
                    });
                };
                span.for_groups(last, |group, last| {
                    scratch.ffr_masks(&batch, group, last, Option::is_none, record);
                });
            }
        });
        Ok(last)
    }

    /// Per-fault *detection counts* of a pattern set: how many patterns
    /// detect each fault. The industrial n-detect quality metric —
    /// faults detected only once are fragile against timing/bridging
    /// defect behaviour, so production flows often require `n ≥ 3..5`.
    /// Blocked and chunked exactly like [`FaultSimulator::detected`]
    /// (without the drop), so the result is identical at any `jobs`.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detection_counts(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        jobs: usize,
        sink: &dyn MetricsSink,
    ) -> Result<Vec<u32>, AtpgError> {
        let blocks = good_block_sweep(self, patterns)?;
        let counts = self.sweep::<u32>(faults, jobs, sink, |fsim, span, counts| {
            for (good, active) in &blocks {
                let (batch, scratch) = fsim.wide(good, *active);
                span.for_groups(counts, |group, counts| {
                    scratch.ffr_masks(&batch, group, counts, |_| true, |c, m| *c += m.count_ones());
                });
            }
        });
        Ok(counts)
    }

    /// Bucket `faults` by fanout-free region (see [`SweepPlan`]), run
    /// `per_span` on the chunks from a `jobs`-wide [`WorkerPool`] (the
    /// calling thread on this simulator, each spawned worker on its own
    /// clone of it) and scatter the results back to fault order.
    /// `per_span` fills one result per planned fault of its span,
    /// starting from `R::default()`. Because regions are independent,
    /// the merged output is identical to one pass over the whole list —
    /// which is what a sweep the pool would run sequentially does: one
    /// `per_span` call over every chunk, so a blocked sweep keeps one
    /// good-value block hot for every fault. The chunks charge no
    /// `pool_tasks`: their number is a property of the sweep, not of
    /// the run.
    fn sweep<R: Clone + Default + Send>(
        &mut self,
        faults: &[Fault],
        jobs: usize,
        sink: &dyn MetricsSink,
        per_span: impl Fn(&mut FaultSimulator<'a>, Span<'_, '_>, &mut [R]) + Sync,
    ) -> Vec<R> {
        let plan = SweepPlan::new(&self.index, faults);
        let run = |fsim: &mut FaultSimulator<'a>, chunks: &[Range<usize>]| {
            let span = plan.span(chunks);
            let mut out = vec![R::default(); span.len()];
            per_span(fsim, span, &mut out);
            out
        };
        let pool = WorkerPool::new(jobs);
        let planned = if pool.width(plan.chunks.len()) <= 1 {
            run(self, &plan.chunks)
        } else {
            pool.map_with_state(
                &plan.chunks,
                self,
                &mut Vec::new(),
                sink,
                |fsim, _, chunk| run(fsim, std::slice::from_ref(chunk)),
            )
            .concat()
        };
        let mut out = vec![R::default(); faults.len()];
        for (&i, r) in plan.order.iter().zip(planned) {
            out[i as usize] = r;
        }
        out
    }
}

/// A fault list bucketed by fanout-free region for a pooled sweep: the
/// faults of one region form a *group* (in list order), and consecutive
/// groups form *chunks* of at least [`SWEEP_CHUNK`] faults (the last
/// one ragged), the unit a pool worker claims.
struct SweepPlan<'f> {
    /// The caller's fault list.
    faults: &'f [Fault],
    /// The planned order: list positions, group after group.
    order: Vec<u32>,
    /// Group `g` is `order[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<u32>,
    /// Each chunk as its range of groups.
    chunks: Vec<Range<usize>>,
}

impl<'f> SweepPlan<'f> {
    fn new(index: &StructuralIndex, faults: &'f [Fault]) -> SweepPlan<'f> {
        let region = |f: &Fault| index.ffr_of(f.site.affected_gate());
        // A counting sort by region keeps list order within a group.
        let mut start = vec![0u32; index.ffr_count() + 1];
        for f in faults {
            start[region(f) + 1] += 1;
        }
        for r in 0..index.ffr_count() {
            start[r + 1] += start[r];
        }
        let mut cursor = start.clone();
        let mut order = vec![0u32; faults.len()];
        for (i, f) in faults.iter().enumerate() {
            let slot = &mut cursor[region(f)];
            order[*slot as usize] = u32::try_from(i).expect("fault list fits in u32");
            *slot += 1;
        }
        let mut bounds = vec![0u32];
        bounds.extend(start.windows(2).filter(|w| w[1] > w[0]).map(|w| w[1]));
        let mut chunks = Vec::new();
        let mut first = 0;
        for g in 0..bounds.len() - 1 {
            if (bounds[g + 1] - bounds[first]) as usize >= SWEEP_CHUNK || g + 2 == bounds.len() {
                chunks.push(first..g + 1);
                first = g + 1;
            }
        }
        SweepPlan {
            faults,
            order,
            bounds,
            chunks,
        }
    }

    /// Consecutive `chunks` of this plan as one span.
    fn span<'p>(&'p self, chunks: &'p [Range<usize>]) -> Span<'p, 'f> {
        let base = chunks.first().map_or(0, |c| self.bounds[c.start] as usize);
        Span {
            plan: self,
            chunks,
            base,
        }
    }
}

/// Consecutive chunks of a [`SweepPlan`] that one `per_span` call
/// sweeps. Its results live in one slice whose first element is planned
/// fault `base`.
#[derive(Clone, Copy)]
struct Span<'p, 'f> {
    plan: &'p SweepPlan<'f>,
    chunks: &'p [Range<usize>],
    base: usize,
}

impl<'p, 'f> Span<'p, 'f> {
    /// Planned faults in the span.
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| self.plan.bounds[c.end] as usize - self.base)
    }

    /// Each chunk of the span as a span of its own, sharing the span's
    /// result slice.
    fn each_chunk(self) -> impl Iterator<Item = Span<'p, 'f>> {
        self.chunks.iter().map(move |c| Span {
            chunks: std::slice::from_ref(c),
            ..self
        })
    }

    /// Call `f` on each group of the span with the caller's fault list,
    /// the group's positions in it and the group's results in `out`, the
    /// span's result slice.
    fn for_groups<R>(self, out: &mut [R], mut f: impl FnMut((&'f [Fault], &'p [u32]), &mut [R])) {
        for g in self.chunks.iter().flat_map(Range::clone) {
            let (lo, hi) = (
                self.plan.bounds[g] as usize,
                self.plan.bounds[g + 1] as usize,
            );
            let group = &self.plan.order[lo..hi];
            f(
                (self.plan.faults, group),
                &mut out[lo - self.base..hi - self.base],
            );
        }
    }
}

/// Fraction of `faults` detected by `patterns` (serial convenience used in
/// tests and coverage reporting).
///
/// # Errors
///
/// Propagates simulator construction and pattern width errors.
pub fn fault_coverage(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    faults: &[Fault],
) -> Result<f64, AtpgError> {
    if faults.is_empty() {
        return Ok(1.0);
    }
    let detected = FaultSimulator::new(circuit)?.detected(patterns, faults, 1, &NullSink)?;
    Ok(detected.iter().filter(|&&d| d).count() as f64 / faults.len() as f64)
}

/// The highest set slot of a block mask (`64w + bit`), or `None` when
/// the mask is zero.
fn highest_slot(mask: &SimBlock) -> Option<usize> {
    let w = mask.iter().rposition(|&word| word != 0)?;
    Some(w * 64 + 63 - mask[w].leading_zeros() as usize)
}

/// Good-value blocks for a whole pattern set: one `(node-major blocks,
/// tail mask)` entry per [`BLOCK_BITS`] chunk, computed once on the
/// calling thread so pool workers can stream them read-only (the
/// pattern-parallel half of the cache blocking).
fn good_block_sweep(
    proto: &FaultSimulator<'_>,
    patterns: &[Vec<bool>],
) -> Result<Vec<(Vec<SimBlock>, SimBlock)>, AtpgError> {
    patterns
        .chunks(BLOCK_BITS)
        .map(|chunk| {
            let (good, n) = proto.good_blocks(chunk)?;
            Ok((good, block_active_mask(n)))
        })
        .collect()
}

/// The per-fault event-driven kernel the tracing kernel replaced, kept
/// as the reference it is tested against: the fault is forced at its
/// site and the change propagated through the site's whole fanout cone.
#[cfg(test)]
impl<W: PackedWord> Scratch<W> {
    /// [`Scratch::ffr_masks`] for one fault: its whole detection mask.
    fn fault_mask(&mut self, b: &Batch<'_, W>, fault: Fault) -> W {
        let mut mask = W::ZERO;
        self.ffr_masks(
            b,
            (&[fault], &[0]),
            std::slice::from_mut(&mut mask),
            |_| true,
            |o, m| *o = m,
        );
        mask
    }

    fn reference_mask(&mut self, b: &Batch<'_, W>, fault: Fault) -> W {
        self.begin();
        let stuck = if fault.stuck_at_one { W::ONES } else { W::ZERO };
        let (site, v) = match fault.site {
            FaultSite::Stem(site) => (site, stuck),
            FaultSite::Pin { gate, pin } => {
                let node = b.circuit.node(gate);
                let inputs = node.fanin.iter().enumerate().map(|(k, &f)| {
                    if k == pin {
                        stuck
                    } else {
                        b.good[f.index()]
                    }
                });
                (gate, node.kind.eval_packed_iter(inputs))
            }
        };
        if v != b.good[site.index()] {
            self.set_faulty(b, site, v);
            self.propagate(b);
        }
        self.mismatch.and(b.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::enumerate_faults;
    use modsoc_netlist::bench_format::parse_bench;

    fn c17() -> Circuit {
        parse_bench(
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

    /// Reference: full re-simulation per fault via forced node (stems only).
    fn naive_stem_mask(c: &Circuit, patterns: &[Vec<bool>], fault: Fault) -> u64 {
        let sim = Simulator::new(c).unwrap();
        let mut words = vec![0u64; c.input_count()];
        for (slot, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }
        let site = match fault.site {
            FaultSite::Stem(s) => s,
            _ => unreachable!(),
        };
        let forced = if fault.stuck_at_one { u64::MAX } else { 0 };
        let good = sim.run_on(c, &words);
        let bad = sim.run_with_forced_node(c, &words, site, forced);
        let mut mask = 0;
        for &po in c.outputs() {
            mask |= good[po.index()] ^ bad[po.index()];
        }
        mask & active_mask(patterns.len())
    }

    fn all_input_patterns(n: usize) -> Vec<Vec<bool>> {
        (0..(1usize << n))
            .map(|row| (0..n).map(|i| (row >> i) & 1 == 1).collect())
            .collect()
    }

    /// A bigger layered circuit shared by the blocked differential
    /// tests.
    fn layered_circuit() -> Circuit {
        let mut c = Circuit::new("big");
        let mut prev: Vec<_> = (0..12).map(|i| c.add_input(format!("i{i}"))).collect();
        for layer in 0..6 {
            let mut next = Vec::new();
            for (k, pair) in prev.chunks(2).enumerate() {
                let kind = match (layer + k) % 4 {
                    0 => GateKind::Nand,
                    1 => GateKind::Xor,
                    2 => GateKind::Or,
                    _ => GateKind::Nor,
                };
                let g = if pair.len() == 2 {
                    c.add_gate(format!("g{layer}_{k}"), kind, &[pair[0], pair[1]])
                        .unwrap()
                } else {
                    c.add_gate(format!("g{layer}_{k}"), GateKind::Not, &[pair[0]])
                        .unwrap()
                };
                next.push(g);
            }
            next.extend(prev.iter().skip(next.len() * 2).copied());
            prev = next;
            if prev.len() == 1 {
                break;
            }
        }
        for &p in &prev {
            c.mark_output(p);
        }
        c
    }

    /// Deterministic mixed-density pattern generator.
    fn cyc_patterns(inputs: usize, count: usize) -> Vec<Vec<bool>> {
        (0..count)
            .map(|k| {
                (0..inputs)
                    .map(|i| (k * 31 + i * 7 + (k >> 3)) % 5 < 2)
                    .collect()
            })
            .collect()
    }

    /// Narrow reference sweep: per-fault detected flags and detection
    /// counts via the original `chunks(64)` path.
    fn narrow_reference(
        c: &Circuit,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> (Vec<bool>, Vec<u32>) {
        let mut fsim = FaultSimulator::new(c).unwrap();
        let mut detected = vec![false; faults.len()];
        let mut counts = vec![0u32; faults.len()];
        for chunk in patterns.chunks(64) {
            let masks = fsim.detection_masks(chunk, faults).unwrap();
            for ((d, c), m) in detected.iter_mut().zip(counts.iter_mut()).zip(masks) {
                if m != 0 {
                    *d = true;
                }
                *c += m.count_ones();
            }
        }
        (detected, counts)
    }

    /// One fault's mask against one batch: a sweep of that fault alone.
    fn fault_mask(fsim: &mut FaultSimulator<'_>, good: &[u64], active: u64, fault: Fault) -> u64 {
        let (batch, scratch) = fsim.narrow(good, active);
        scratch.fault_mask(&batch, fault)
    }

    /// [`fault_mask`] against one 512-pattern block.
    fn block_fault_mask(
        fsim: &mut FaultSimulator<'_>,
        good: &[SimBlock],
        active: &SimBlock,
        fault: Fault,
    ) -> SimBlock {
        let (batch, scratch) = fsim.wide(good, *active);
        scratch.fault_mask(&batch, fault)
    }

    /// `faults` repeated into a list that spans `n` pooled-sweep chunks,
    /// the last one ragged.
    fn chunks_of(faults: &[Fault], n: usize) -> Vec<Fault> {
        let len = (n - 1) * SWEEP_CHUNK + SWEEP_CHUNK / 3;
        faults.iter().cycle().take(len).copied().collect()
    }

    /// [`FaultSimulator::detected`] on a fresh simulator.
    fn detected(c: &Circuit, patterns: &[Vec<bool>], faults: &[Fault], jobs: usize) -> Vec<bool> {
        FaultSimulator::new(c)
            .unwrap()
            .detected(patterns, faults, jobs, &NullSink)
            .unwrap()
    }

    /// [`FaultSimulator::detection_counts`] on a fresh simulator.
    fn counts(c: &Circuit, patterns: &[Vec<bool>], faults: &[Fault], jobs: usize) -> Vec<u32> {
        FaultSimulator::new(c)
            .unwrap()
            .detection_counts(patterns, faults, jobs, &NullSink)
            .unwrap()
    }

    /// A random DAG whose internal gates fan out and reconverge: each
    /// gate draws its fanin from the last dozen nodes, and a few draws
    /// repeat a driver on two pins of one gate. Every kind appears, some
    /// gates are left dead, and some outputs also feed later gates.
    fn reconvergent_dag(seed: u64, inputs: usize, gates: usize) -> Circuit {
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut c = Circuit::new("dag");
        let mut nodes: Vec<NodeId> = (0..inputs).map(|i| c.add_input(format!("i{i}"))).collect();
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];
        for g in 0..gates {
            let kind = kinds[next(kinds.len())];
            let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                2 + next(3)
            };
            let window = nodes.len().min(12);
            let fanin: Vec<NodeId> = (0..arity)
                .map(|_| nodes[nodes.len() - 1 - next(window)])
                .collect();
            nodes.push(c.add_gate(format!("g{g}"), kind, &fanin).unwrap());
        }
        // Outputs: the last few gates plus some internal ones (which keep
        // their fanout); roughly one gate in nine is left to dangle.
        for (k, &id) in nodes.iter().enumerate().skip(inputs) {
            if k + 4 > nodes.len() || next(7) == 0 {
                c.mark_output(id);
            }
        }
        c
    }

    /// One driver on two pins of one gate, an output that also fans out
    /// and a dead XNOR, on top of c17.
    fn c17_with_corner_cases() -> Circuit {
        let mut c = c17();
        let g16 = c.find("g16").unwrap();
        let g22 = c.find("g22").unwrap();
        let g1 = c.find("g1").unwrap();
        let twice = c.add_gate("twice", GateKind::Xor, &[g16, g16]).unwrap();
        let tail = c
            .add_gate("tail", GateKind::And, &[twice, g22, g1])
            .unwrap();
        c.add_gate("dead", GateKind::Xnor, &[tail, g1]).unwrap();
        c.mark_output(tail);
        c
    }

    /// Per-fault reference masks at both widths: the narrow one for the
    /// first 64 patterns, the wide one for the first block.
    fn reference_masks(
        c: &Circuit,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> (Vec<u64>, Vec<SimBlock>) {
        let fsim = FaultSimulator::new(c).unwrap();
        let index = StructuralIndex::build(c).unwrap();
        let narrow_patterns = &patterns[..patterns.len().min(64)];
        let (good, n) = fsim.good_values(narrow_patterns).unwrap();
        let b = Batch {
            circuit: c,
            index: &index,
            good: &good,
            active: active_mask(n),
        };
        let mut scratch = Scratch::new(c.node_count());
        let narrow = faults
            .iter()
            .map(|&f| scratch.reference_mask(&b, f))
            .collect();
        let block_patterns = &patterns[..patterns.len().min(BLOCK_BITS)];
        let (good, n) = fsim.good_blocks(block_patterns).unwrap();
        let b = Batch {
            circuit: c,
            index: &index,
            good: &good,
            active: block_active_mask(n),
        };
        let mut scratch = Scratch::new(c.node_count());
        let wide = faults
            .iter()
            .map(|&f| scratch.reference_mask(&b, f))
            .collect();
        (narrow, wide)
    }

    /// The tracing kernel against the event-driven reference, at both
    /// widths, per fault and over the whole (repeating) fault list, on
    /// the serial and the pooled path.
    #[test]
    fn tracing_matches_the_event_driven_reference() {
        let mut circuits = vec![c17(), c17_with_corner_cases(), layered_circuit()];
        for seed in 1..=6 {
            let dag = reconvergent_dag(seed, 6 + seed as usize, 60);
            let index = StructuralIndex::build(&dag).unwrap();
            let internal_stems = dag
                .iter()
                .filter(|(id, node)| node.kind != GateKind::Input && index.fanout_degree(*id) > 1)
                .count();
            assert!(
                internal_stems > 5,
                "dag {seed}: {internal_stems} gates fan out"
            );
            circuits.push(dag);
        }
        for c in &circuits {
            let universe = enumerate_faults(c);
            // Repeats, in an order that interleaves regions.
            let faults: Vec<Fault> = universe
                .iter()
                .rev()
                .chain(universe.iter().step_by(3))
                .copied()
                .collect();
            let patterns = cyc_patterns(c.input_count(), 300);
            let (narrow, wide) = reference_masks(c, &patterns, &faults);
            assert!(narrow.iter().any(|&m| m != 0), "{}", c.name());

            let mut fsim = FaultSimulator::new(c).unwrap();
            assert_eq!(
                fsim.detection_masks(&patterns[..64], &faults).unwrap(),
                narrow,
                "{}: detection_masks",
                c.name()
            );
            for jobs in [1, 3] {
                let (masks, tripped) = fsim
                    .detection_masks_budgeted(
                        &patterns[..64],
                        &faults,
                        &RunBudget::unlimited(),
                        jobs,
                        &NullSink,
                    )
                    .unwrap();
                assert_eq!((masks, tripped), (narrow.clone(), None), "jobs={jobs}");
            }
            let (good, n) = fsim.good_values(&patterns[..64]).unwrap();
            let (good_blk, n_blk) = fsim.good_blocks(&patterns).unwrap();
            let active_blk = block_active_mask(n_blk);
            for (k, &fault) in faults.iter().enumerate() {
                let what = || format!("{}: {}", c.name(), fault.describe(c));
                assert_eq!(
                    fault_mask(&mut fsim, &good, active_mask(n), fault),
                    narrow[k],
                    "{}",
                    what()
                );
                assert_eq!(
                    block_fault_mask(&mut fsim, &good_blk, &active_blk, fault),
                    wide[k],
                    "{}",
                    what()
                );
            }

            // The blocked sweeps over one block, from the wide reference.
            let want_detected: Vec<bool> = wide.iter().map(|m| !m.is_zero()).collect();
            let want_counts: Vec<u32> = wide.iter().map(|&m| m.count_ones()).collect();
            let want_last: Vec<Option<u32>> = wide
                .iter()
                .map(|m| highest_slot(m).map(|s| s as u32))
                .collect();
            for jobs in [1, 3] {
                let sweep_faults = chunks_of(&faults, 3);
                let repeat = |v: &[bool]| -> Vec<bool> {
                    v.iter().cycle().take(sweep_faults.len()).copied().collect()
                };
                assert_eq!(
                    fsim.detected(&patterns, &sweep_faults, jobs, &NullSink)
                        .unwrap(),
                    repeat(&want_detected),
                    "{}: detected jobs={jobs}",
                    c.name()
                );
                let counts = fsim
                    .detection_counts(&patterns, &faults, jobs, &NullSink)
                    .unwrap();
                assert_eq!(counts, want_counts, "{}: counts jobs={jobs}", c.name());
                let last = fsim
                    .last_detectors(&patterns, &faults, jobs, &NullSink)
                    .unwrap();
                assert_eq!(last, want_last, "{}: last jobs={jobs}", c.name());
            }
        }
    }

    #[test]
    fn event_driven_matches_naive_on_c17_stems() {
        let c = c17();
        let patterns = all_input_patterns(5)
            .into_iter()
            .take(32)
            .collect::<Vec<_>>();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        for fault in enumerate_faults(&c) {
            if !matches!(fault.site, FaultSite::Stem(_)) {
                continue;
            }
            let masks = fsim.detection_masks(&patterns, &[fault]).unwrap();
            let naive = naive_stem_mask(&c, &patterns, fault);
            assert_eq!(masks[0], naive, "mismatch for {}", fault.describe(&c));
        }
    }

    #[test]
    fn exhaustive_patterns_detect_all_c17_faults() {
        let c = c17();
        let patterns = all_input_patterns(5);
        let faults = enumerate_faults(&c);
        let cov = fault_coverage(&c, &patterns, &faults).unwrap();
        assert!(
            (cov - 1.0).abs() < 1e-12,
            "c17 is fully testable, got {cov}"
        );
    }

    #[test]
    fn pin_fault_differs_from_stem_fault() {
        // a fans to g1=AND(a,b) and g2=OR(a,b). Pattern a=0,b=1:
        // stem a s-a-1 flips g2's cone? g2 = OR(1,1)=1 vs good OR(0,1)=1 —
        // no; g1 = AND(1,1)=1 vs good 0 — detected at g1 AND g2 unchanged.
        // branch a->g2 s-a-1 with a=0,b=0: good g2=0, faulty OR(1,0)=1 ->
        // detected only via g2; g1 unaffected.
        let mut c = Circuit::new("br");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Or, &[a, b]).unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let patterns = vec![vec![false, false]];
        let masks = fsim
            .detection_masks(
                &patterns,
                &[Fault::pin(g2, 0, true), Fault::pin(g1, 0, true)],
            )
            .unwrap();
        assert_eq!(masks[0], 0b1, "branch to OR detected by 00");
        assert_eq!(
            masks[1], 0b0,
            "branch to AND not detected by 00 (b=0 blocks)"
        );
    }

    #[test]
    fn undetectable_fault_never_flags() {
        // g = OR(a, NOT(a)): g s-a-1 undetectable by any pattern.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Or, &[a, n]).unwrap();
        c.mark_output(g);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let patterns = all_input_patterns(1);
        let masks = fsim
            .detection_masks(&patterns, &[Fault::stem_sa1(g)])
            .unwrap();
        assert_eq!(masks[0], 0);
    }

    #[test]
    fn batch_active_mask_respected() {
        let c = c17();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        // 3 patterns: mask must fit in low 3 bits.
        let patterns = all_input_patterns(5)
            .into_iter()
            .take(3)
            .collect::<Vec<_>>();
        let faults = enumerate_faults(&c);
        for m in fsim.detection_masks(&patterns, &faults).unwrap() {
            assert_eq!(m & !0b111, 0);
        }
    }

    #[test]
    fn detection_counts_sum_mask_bits() {
        let c = c17();
        let patterns = all_input_patterns(5);
        let faults = enumerate_faults(&c);
        let counts = counts(&c, &patterns, &faults, 1);
        // Exhaustive patterns: every testable fault has n-detect >= 1,
        // and most well above (c17 is highly random-testable).
        assert!(counts.iter().all(|&n| n >= 1));
        assert!(counts.iter().any(|&n| n >= 4));
        // Cross-check one fault against the mask popcount.
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let mut manual = 0u32;
        for chunk in patterns.chunks(64) {
            manual += fsim.detection_masks(chunk, &faults[..1]).unwrap()[0].count_ones();
        }
        assert_eq!(counts[0], manual);
    }

    #[test]
    fn active_mask_tail_widths() {
        assert_eq!(active_mask(0), 0);
        assert_eq!(active_mask(1), 0b1);
        assert_eq!(active_mask(63), u64::MAX >> 1);
        assert_eq!(active_mask(64), u64::MAX);
        // Saturates rather than overflowing the shift for n > 64 (a
        // 65-pattern set is handled as chunks of 64 + 1 upstream, but the
        // helper itself must stay total).
        assert_eq!(active_mask(65), u64::MAX);
    }

    #[test]
    fn block_active_mask_tail_widths() {
        assert_eq!(block_active_mask(0), [0u64; BLOCK_WORDS]);
        assert_eq!(block_active_mask(BLOCK_BITS), [u64::MAX; BLOCK_WORDS]);
        assert_eq!(block_active_mask(BLOCK_BITS + 1), [u64::MAX; BLOCK_WORDS]);
        // Tail inside the first word.
        let m = block_active_mask(3);
        assert_eq!(m[0], 0b111);
        assert!(m[1..].iter().all(|&w| w == 0));
        // Word-boundary widths around 64: the per-word masks must agree
        // with the narrow helper on every sub-batch.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 448, 511] {
            let m = block_active_mask(n);
            for (w, &word) in m.iter().enumerate() {
                let sub = n.saturating_sub(w * 64).min(64);
                assert_eq!(word, active_mask(sub), "n={n} word {w}");
            }
        }
    }

    #[test]
    fn sharded_counts_and_detected_match_serial() {
        let c = c17();
        let patterns = all_input_patterns(5);
        let faults = chunks_of(&enumerate_faults(&c), 3);
        let serial_counts = counts(&c, &patterns, &faults, 1);
        let serial_detected = detected(&c, &patterns, &faults, 1);
        for jobs in [2, 3, 8] {
            assert_eq!(
                counts(&c, &patterns, &faults, jobs),
                serial_counts,
                "{jobs} jobs"
            );
            assert_eq!(
                detected(&c, &patterns, &faults, jobs),
                serial_detected,
                "{jobs} jobs"
            );
        }
        // detected ⇔ count >= 1.
        for (d, n) in serial_detected.iter().zip(&serial_counts) {
            assert_eq!(*d, *n >= 1);
        }
    }

    /// The differential oracle pinning the wide kernel to the old
    /// single-word path: for every fault, word `w` of the block mask
    /// must equal the narrow mask of sub-batch `w`, across tail widths
    /// straddling every word boundary that matters (63/64/65, exactly
    /// one block, one block + 1).
    #[test]
    fn block_masks_match_narrow_chunks_word_for_word() {
        let c = layered_circuit();
        let faults = enumerate_faults(&c);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        for &count in &[1usize, 63, 64, 65, 100, 511, 512] {
            let patterns = cyc_patterns(12, count);
            let (good, n) = fsim.good_blocks(&patterns).unwrap();
            let active = block_active_mask(n);
            for &fault in &faults {
                let block = block_fault_mask(&mut fsim, &good, &active, fault);
                for (w, chunk) in patterns.chunks(64).enumerate() {
                    let narrow = fsim.detection_masks(chunk, &[fault]).unwrap()[0];
                    assert_eq!(
                        block[w],
                        narrow,
                        "count={count} word={w} fault={}",
                        fault.describe(&c)
                    );
                }
                // Words past the tail stay silent.
                for (w, &word) in block.iter().enumerate().skip(count.div_ceil(64)) {
                    assert_eq!(word, 0, "count={count} ghost word {w}");
                }
            }
        }
    }

    /// The blocked sweeps vs the narrow reference sweep, including
    /// multi-block pattern sets and both the in-place and the pooled
    /// path. One simulator serves every call, so warm scratch (and
    /// clones of it) must not leak between sweeps.
    #[test]
    fn blocked_aggregates_match_narrow_reference() {
        let c = layered_circuit();
        let faults = chunks_of(&enumerate_faults(&c), 2);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        for &count in &[65usize, 512, 513, 700] {
            let patterns = cyc_patterns(12, count);
            let (ref_detected, ref_counts) = narrow_reference(&c, &patterns, &faults);
            for jobs in [1, 4] {
                assert_eq!(
                    fsim.detected(&patterns, &faults, jobs, &NullSink).unwrap(),
                    ref_detected,
                    "count={count} jobs={jobs}"
                );
                assert_eq!(
                    fsim.detection_counts(&patterns, &faults, jobs, &NullSink)
                        .unwrap(),
                    ref_counts,
                    "count={count} jobs={jobs}"
                );
            }
        }
    }

    /// Blocked vs narrow on a circuitgen-generated scan core (the same
    /// generator family the benches and experiments run on).
    #[test]
    fn blocked_matches_narrow_on_generated_core() {
        let core =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(11)).unwrap();
        let model = core.to_test_model().unwrap();
        let c = &model.circuit;
        let faults: Vec<Fault> = enumerate_faults(c).into_iter().take(300).collect();
        let patterns = cyc_patterns(c.input_count(), 130);
        let (ref_detected, ref_counts) = narrow_reference(c, &patterns, &faults);
        for jobs in [1, 4] {
            assert_eq!(
                detected(c, &patterns, &faults, jobs),
                ref_detected,
                "jobs={jobs}"
            );
            assert_eq!(
                counts(c, &patterns, &faults, jobs),
                ref_counts,
                "jobs={jobs}"
            );
        }
    }

    /// Build a circuitgen-derived circuit with gates far above the
    /// 16-fanin stack buffer, optionally rewiring one AND pin to a
    /// constant (the explicit-circuit oracle for a pin fault on that
    /// pin). Returns the circuit and the wide AND's node id.
    fn wide_fanin_circuit(pin_override: Option<(usize, bool)>) -> (Circuit, NodeId) {
        let core =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(7)).unwrap();
        let mut c = core.to_test_model().unwrap().circuit;
        let ins: Vec<NodeId> = c.inputs().to_vec();
        assert!(ins.len() >= 24, "s713 model has 54 inputs");
        let mut fan24: Vec<NodeId> = ins[..24].to_vec();
        let fan20: Vec<NodeId> = ins[..20].to_vec();
        if let Some((pin, stuck_at_one)) = pin_override {
            let kind = if stuck_at_one {
                GateKind::Const1
            } else {
                GateKind::Const0
            };
            let cst = c.add_gate("pin_const", kind, &[]).unwrap();
            fan24[pin] = cst;
        }
        let wide_and = c.add_gate("wide_and", GateKind::And, &fan24).unwrap();
        let wide_xor = c.add_gate("wide_xor", GateKind::Xor, &fan20).unwrap();
        let top = c
            .add_gate("wide_top", GateKind::Nor, &[wide_and, wide_xor])
            .unwrap();
        c.mark_output(top);
        (c, wide_and)
    }

    /// The `eval_faulty` spill path (fanin > 16 falls back from the
    /// stack buffer to a heap vec): pin faults with pin index beyond
    /// the stack capacity, checked against an explicit faulty-circuit
    /// re-simulation, plus stem faults through the wide gates checked
    /// against the naive forced-node oracle — on both kernel widths.
    #[test]
    fn eval_faulty_spill_path_matches_explicit_oracle() {
        let (c, wide_and) = wide_fanin_circuit(None);
        let patterns = cyc_patterns(c.input_count(), 100);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let sim = Simulator::new(&c).unwrap();

        // Pack the patterns once for the oracle's output comparison.
        let mut words = vec![0u64; c.input_count()];
        for (slot, p) in patterns.iter().take(64).enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }

        for &(pin, sa1) in &[(17usize, true), (17, false), (23, true)] {
            let fault = Fault::pin(wide_and, pin, sa1);
            // Oracle: re-simulate a circuit with that pin hard-wired to
            // the stuck constant (legal because the pin feeds from a
            // primary input, so rewiring it is exactly the pin fault).
            let (twin, _) = wide_fanin_circuit(Some((pin, sa1)));
            let twin_sim = Simulator::new(&twin).unwrap();
            let good_outs = sim.run_outputs(&c, &words);
            let bad_outs = twin_sim.run_outputs(&twin, &words);
            let mut want = 0u64;
            for (g, b) in good_outs.iter().zip(&bad_outs) {
                want |= g ^ b;
            }
            want &= active_mask(64);

            let narrow = fsim.detection_masks(&patterns[..64], &[fault]).unwrap()[0];
            assert_eq!(narrow, want, "narrow spill pin={pin} sa1={sa1}");

            // Wide kernel: word 0 of the block mask must agree.
            let (good, n) = fsim.good_blocks(&patterns).unwrap();
            let active = block_active_mask(n);
            let block = block_fault_mask(&mut fsim, &good, &active, fault);
            assert_eq!(block[0], want, "wide spill pin={pin} sa1={sa1}");
        }

        // Stem faults through the wide gates: downstream re-evaluation
        // of the 24-fanin AND takes the spill path too.
        for site in [wide_and, c.inputs()[3], c.inputs()[19]] {
            for fault in [Fault::stem_sa0(site), Fault::stem_sa1(site)] {
                let want = naive_stem_mask(&c, &patterns[..64], fault);
                let narrow = fsim.detection_masks(&patterns[..64], &[fault]).unwrap()[0];
                assert_eq!(narrow, want, "narrow stem {}", fault.describe(&c));
                let (good, n) = fsim.good_blocks(&patterns).unwrap();
                let active = block_active_mask(n);
                let block = block_fault_mask(&mut fsim, &good, &active, fault);
                assert_eq!(block[0], want, "wide stem {}", fault.describe(&c));
            }
        }
    }

    /// Budget trip mid-sweep: the partial prefix keeps the tail
    /// discipline (no ghost-slot bits) and unprocessed faults read as
    /// undetected.
    #[test]
    fn budget_trip_returns_masked_partial_prefix() {
        let c = c17();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let faults = enumerate_faults(&c);
        let patterns = all_input_patterns(5)
            .into_iter()
            .take(3)
            .collect::<Vec<_>>();
        let budget = RunBudget::unlimited();
        budget.cancel();
        let (masks, reason) = fsim
            .detection_masks_budgeted(&patterns, &faults, &budget, 1, &NullSink)
            .unwrap();
        assert_eq!(reason, Some(ExhaustReason::Cancelled));
        let active = active_mask(patterns.len());
        assert!(masks.iter().all(|&m| m & !active == 0));
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = c17();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let err = fsim.detection_masks(&[vec![true; 3]], &[]).unwrap_err();
        assert!(matches!(
            err,
            AtpgError::PatternWidth {
                expected: 5,
                got: 3
            }
        ));
        let err = fsim.good_blocks(&[vec![true; 3]]).unwrap_err();
        assert!(matches!(
            err,
            AtpgError::PatternWidth {
                expected: 5,
                got: 3
            }
        ));
    }
}
