//! Circuit statistics used for reporting and generator calibration.

use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Summary statistics of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops (scan cells under full scan).
    pub dffs: usize,
    /// Combinational gates.
    pub gates: usize,
    /// Inverters and buffers among the gates.
    pub inverters: usize,
    /// Maximum combinational depth.
    pub max_level: u32,
    /// Mean fanin of logic gates.
    pub mean_fanin: f64,
}

impl CircuitStats {
    /// Compute statistics for a circuit.
    ///
    /// # Errors
    ///
    /// Propagates structural validation errors.
    pub fn of(circuit: &Circuit) -> Result<CircuitStats, NetlistError> {
        let levels = circuit.levels()?;
        let mut gates = 0usize;
        let mut inverters = 0usize;
        let mut fanin_sum = 0usize;
        for (_, node) in circuit.iter() {
            if node.kind.is_logic() {
                gates += 1;
                fanin_sum += node.fanin.len();
                if matches!(node.kind, GateKind::Not | GateKind::Buf) {
                    inverters += 1;
                }
            }
        }
        Ok(CircuitStats {
            name: circuit.name().to_string(),
            inputs: circuit.input_count(),
            outputs: circuit.output_count(),
            dffs: circuit.dff_count(),
            gates,
            inverters,
            max_level: levels.iter().copied().max().unwrap_or(0),
            mean_fanin: if gates == 0 {
                0.0
            } else {
                fanin_sum as f64 / gates as f64
            },
        })
    }
}

impl std::fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: I={} O={} S={} gates={} depth={}",
            self.name, self.inputs, self.outputs, self.dffs, self.gates, self.max_level
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_circuit() {
        let mut c = Circuit::new("s");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::Nand, &[a, b]).unwrap();
        let n = c.add_gate("n", GateKind::Not, &[g]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[n]).unwrap();
        c.mark_output(ff);
        let st = CircuitStats::of(&c).unwrap();
        assert_eq!(st.inputs, 2);
        assert_eq!(st.outputs, 1);
        assert_eq!(st.dffs, 1);
        assert_eq!(st.gates, 2);
        assert_eq!(st.inverters, 1);
        assert_eq!(st.max_level, 2);
        assert!((st.mean_fanin - 1.5).abs() < 1e-12);
        assert!(st.to_string().contains("I=2"));
    }

    #[test]
    fn empty_circuit_stats() {
        let c = Circuit::new("empty");
        let st = CircuitStats::of(&c).unwrap();
        assert_eq!(st.gates, 0);
        assert_eq!(st.mean_fanin, 0.0);
    }
}
