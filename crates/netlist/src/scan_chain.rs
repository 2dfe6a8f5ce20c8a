//! Scan chain stitching and cycle-accurate serial-scan simulation.
//!
//! The rest of the workspace reasons about full-scan circuits through
//! the *test model* abstraction (flip-flops as pseudo-I/O). This module
//! closes the loop back to silicon behaviour: it organises a circuit's
//! flip-flops into scan chains and simulates the actual test protocol —
//! shift in, one functional capture cycle, shift out — so ATPG patterns
//! can be *replayed* exactly the way a tester would apply them.
//!
//! The paper's §3 assumes "perfectly balanced scan chains in both
//! monolithic and modular testing"; [`ScanChains::balanced`] builds
//! exactly that arrangement.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// A partition of a circuit's flip-flops into scan chains.
///
/// Chain order is scan order: index 0 of a chain is nearest scan-in
/// (i.e. the *last* bit shifted in ends up there... more precisely, bit
/// `k` of the shifted-in vector lands in element `k` after exactly
/// `len` shift cycles — see [`ScanSimulator::apply_pattern`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChains {
    chains: Vec<Vec<NodeId>>,
}

impl ScanChains {
    /// Partition the circuit's flip-flops into `n` balanced chains, in
    /// declaration order (the paper's §3 balanced-chain assumption).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotCombinational`]-family errors never;
    /// fails only if `n` is zero ([`NetlistError::PortMismatch`]).
    pub fn balanced(circuit: &Circuit, n: usize) -> Result<ScanChains, NetlistError> {
        if n == 0 {
            return Err(NetlistError::PortMismatch {
                message: "scan chain count must be at least one".into(),
            });
        }
        let dffs = circuit.dffs();
        let per = dffs.len() / n;
        let extra = dffs.len() % n;
        let mut chains = Vec::with_capacity(n);
        let mut it = dffs.iter().copied();
        for k in 0..n {
            let len = per + usize::from(k < extra);
            chains.push(it.by_ref().take(len).collect());
        }
        Ok(ScanChains { chains })
    }

    /// Build chains from an explicit assignment.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] if the assignment does not
    /// cover every flip-flop exactly once.
    pub fn from_assignment(
        circuit: &Circuit,
        chains: Vec<Vec<NodeId>>,
    ) -> Result<ScanChains, NetlistError> {
        let mut seen = vec![false; circuit.node_count()];
        let mut count = 0usize;
        for chain in &chains {
            for &ff in chain {
                if ff.index() >= circuit.node_count()
                    || circuit.node(ff).kind != GateKind::Dff
                    || seen[ff.index()]
                {
                    return Err(NetlistError::PortMismatch {
                        message: format!("node {ff} is not a unique flip-flop"),
                    });
                }
                seen[ff.index()] = true;
                count += 1;
            }
        }
        if count != circuit.dff_count() {
            return Err(NetlistError::PortMismatch {
                message: format!(
                    "assignment covers {count} of {} flip-flops",
                    circuit.dff_count()
                ),
            });
        }
        Ok(ScanChains { chains })
    }

    /// The chains.
    #[must_use]
    pub fn chains(&self) -> &[Vec<NodeId>] {
        &self.chains
    }

    /// Length of the longest chain — the shift cycle count per load.
    #[must_use]
    pub fn max_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total flip-flops across chains.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Test time in cycles for `patterns` loads with overlapped
    /// shift-in/shift-out: `(max_length + 1) · patterns + max_length`.
    #[must_use]
    pub fn test_cycles(&self, patterns: u64) -> u64 {
        let l = self.max_length() as u64;
        (l + 1) * patterns + l
    }
}

/// One applied pattern's observable outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternResponse {
    /// Primary output values during the capture cycle.
    pub outputs: Vec<bool>,
    /// Captured scan state, per chain, in chain order.
    pub captured: Vec<Vec<bool>>,
}

/// Cycle-accurate scan-test simulator for a full-scan circuit.
///
/// Holds the current flip-flop state; [`ScanSimulator::apply_pattern`]
/// performs the shift–capture protocol of one test pattern.
#[derive(Debug)]
pub struct ScanSimulator<'a> {
    circuit: &'a Circuit,
    chains: &'a ScanChains,
    order: Vec<NodeId>,
    state: Vec<bool>,
}

impl<'a> ScanSimulator<'a> {
    /// Build a simulator with all flip-flops initialised to 0.
    ///
    /// # Errors
    ///
    /// Propagates circuit validation errors.
    pub fn new(
        circuit: &'a Circuit,
        chains: &'a ScanChains,
    ) -> Result<ScanSimulator<'a>, NetlistError> {
        circuit.validate()?;
        Ok(ScanSimulator {
            circuit,
            chains,
            order: circuit.topo_order()?,
            state: vec![false; circuit.node_count()],
        })
    }

    /// Current state of one flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    #[must_use]
    pub fn flip_flop_state(&self, ff: NodeId) -> bool {
        self.state[ff.index()]
    }

    /// Apply one test pattern via the scan protocol:
    ///
    /// 1. shift `scan_in[chain][k]` into every chain (bit `k` lands in
    ///    chain element `k`),
    /// 2. drive `primary_inputs`, evaluate, record primary outputs,
    /// 3. capture every flip-flop's data input,
    /// 4. return the captured state (which a tester would shift out
    ///    while shifting in the next pattern).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] if vector widths disagree
    /// with the circuit/chains.
    pub fn apply_pattern(
        &mut self,
        primary_inputs: &[bool],
        scan_in: &[Vec<bool>],
    ) -> Result<PatternResponse, NetlistError> {
        if primary_inputs.len() != self.circuit.input_count() {
            return Err(NetlistError::PortMismatch {
                message: format!(
                    "expected {} primary inputs, got {}",
                    self.circuit.input_count(),
                    primary_inputs.len()
                ),
            });
        }
        if scan_in.len() != self.chains.chains().len()
            || scan_in
                .iter()
                .zip(self.chains.chains())
                .any(|(v, c)| v.len() != c.len())
        {
            return Err(NetlistError::PortMismatch {
                message: "scan-in vector shape does not match the chains".into(),
            });
        }
        // Shift phase, simulated faithfully cycle by cycle: each shift
        // cycle moves every chain one position (element i takes element
        // i-1's value; element 0 takes the scan-in pin). After `len`
        // cycles the scan-in word occupies the chain reversed — so feed
        // bits last-first to land bit k at element k.
        let max_len = self.chains.max_length();
        for cycle in 0..max_len {
            for (chain, word) in self.chains.chains().iter().zip(scan_in) {
                if chain.is_empty() {
                    continue;
                }
                // Chains shorter than max shift only their own length
                // (their scan enable gates off afterwards).
                if cycle >= chain.len() {
                    continue;
                }
                for i in (1..chain.len()).rev() {
                    self.state[chain[i].index()] = self.state[chain[i - 1].index()];
                }
                // Feed so that after the full shift, word[k] sits at
                // chain[k]: the last element to arrive at position 0 is
                // word[0], so feed in reverse order.
                let feed = word[chain.len() - 1 - cycle];
                self.state[chain[0].index()] = feed;
            }
        }
        // Functional evaluation with the shifted state.
        let values = self.evaluate(primary_inputs);
        let outputs = self
            .circuit
            .outputs()
            .iter()
            .map(|o| values[o.index()])
            .collect();
        // Capture: every flip-flop latches its data input.
        let mut captured = Vec::with_capacity(self.chains.chains().len());
        for chain in self.chains.chains() {
            let mut word = Vec::with_capacity(chain.len());
            for &ff in chain {
                let data = self.circuit.node(ff).fanin[0];
                word.push(values[data.index()]);
            }
            captured.push(word);
        }
        for (chain, word) in self.chains.chains().iter().zip(&captured) {
            for (&ff, &v) in chain.iter().zip(word) {
                self.state[ff.index()] = v;
            }
        }
        Ok(PatternResponse { outputs, captured })
    }

    fn evaluate(&self, primary_inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.circuit.node_count()];
        for (&pi, &v) in self.circuit.inputs().iter().zip(primary_inputs) {
            values[pi.index()] = v;
        }
        for &ff in self.circuit.dffs() {
            values[ff.index()] = self.state[ff.index()];
        }
        for &id in &self.order {
            let node = self.circuit.node(id);
            match node.kind {
                GateKind::Input | GateKind::Dff => {}
                _ => {
                    let word: u64 = node.kind.eval64(
                        &node
                            .fanin
                            .iter()
                            .map(|f| if values[f.index()] { u64::MAX } else { 0 })
                            .collect::<Vec<_>>(),
                    );
                    values[id.index()] = word & 1 == 1;
                }
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a 2-bit shift register with an AND observer.
    fn shiftreg() -> Circuit {
        let mut c = Circuit::new("sr");
        let d = c.add_input("d");
        let f1 = c.add_gate("f1", GateKind::Dff, &[d]).unwrap();
        let f2 = c.add_gate("f2", GateKind::Dff, &[f1]).unwrap();
        let y = c.add_gate("y", GateKind::And, &[f1, f2]).unwrap();
        c.mark_output(y);
        c
    }

    #[test]
    fn balanced_partitions() {
        let c = shiftreg();
        let chains = ScanChains::balanced(&c, 2).unwrap();
        assert_eq!(chains.chains().len(), 2);
        assert_eq!(chains.cell_count(), 2);
        assert_eq!(chains.max_length(), 1);
        let one = ScanChains::balanced(&c, 1).unwrap();
        assert_eq!(one.max_length(), 2);
        assert!(ScanChains::balanced(&c, 0).is_err());
    }

    #[test]
    fn test_cycles_formula() {
        let c = shiftreg();
        let chains = ScanChains::balanced(&c, 1).unwrap();
        // (2+1)*10 + 2 = 32.
        assert_eq!(chains.test_cycles(10), 32);
    }

    #[test]
    fn shift_lands_bits_in_order() {
        let c = shiftreg();
        let chains = ScanChains::balanced(&c, 1).unwrap();
        let mut sim = ScanSimulator::new(&c, &chains).unwrap();
        // Shift [1, 0] -> f1 = 1 (element 0), f2 = 0 (element 1).
        let r = sim.apply_pattern(&[false], &[vec![true, false]]).unwrap();
        // During capture f1 had 1, f2 had 0 -> y = 0.
        assert_eq!(r.outputs, vec![false]);
        // Captures: f1 <- d = 0; f2 <- f1 = 1.
        assert_eq!(r.captured, vec![vec![false, true]]);
    }

    #[test]
    fn capture_matches_functional_step() {
        let c = shiftreg();
        let chains = ScanChains::balanced(&c, 2).unwrap();
        let mut sim = ScanSimulator::new(&c, &chains).unwrap();
        let r = sim
            .apply_pattern(&[true], &[vec![true], vec![true]])
            .unwrap();
        assert_eq!(r.outputs, vec![true]); // AND(1,1)
        assert_eq!(r.captured, vec![vec![true], vec![true]]); // f1<-d=1, f2<-f1=1
                                                              // The new state is the captured one.
        assert!(sim.flip_flop_state(c.find("f1").unwrap()));
    }

    #[test]
    fn explicit_assignment_validated() {
        let c = shiftreg();
        let f1 = c.find("f1").unwrap();
        let f2 = c.find("f2").unwrap();
        assert!(ScanChains::from_assignment(&c, vec![vec![f1], vec![f2]]).is_ok());
        assert!(ScanChains::from_assignment(&c, vec![vec![f1, f1], vec![f2]]).is_err());
        assert!(ScanChains::from_assignment(&c, vec![vec![f1]]).is_err());
        let y = c.find("y").unwrap();
        assert!(ScanChains::from_assignment(&c, vec![vec![f1, y]]).is_err());
    }

    #[test]
    fn width_mismatches_rejected() {
        let c = shiftreg();
        let chains = ScanChains::balanced(&c, 1).unwrap();
        let mut sim = ScanSimulator::new(&c, &chains).unwrap();
        assert!(sim
            .apply_pattern(&[true, true], &[vec![true, false]])
            .is_err());
        assert!(sim.apply_pattern(&[true], &[vec![true]]).is_err());
    }

    #[test]
    fn combinational_circuit_has_empty_chains() {
        let mut c = Circuit::new("comb");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a]).unwrap();
        c.mark_output(g);
        let chains = ScanChains::balanced(&c, 2).unwrap();
        assert_eq!(chains.cell_count(), 0);
        let mut sim = ScanSimulator::new(&c, &chains).unwrap();
        let r = sim.apply_pattern(&[true], &[vec![], vec![]]).unwrap();
        assert_eq!(r.outputs, vec![false]);
    }
}
