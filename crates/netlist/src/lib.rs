//! Gate-level netlist substrate for modular SOC test analysis.
//!
//! This crate provides the circuit representation underneath the `modsoc`
//! workspace: a compact gate-level netlist with full-scan D flip-flops, the
//! transformations needed by a combinational ATPG (the scan *test model*),
//! the logic-cone analysis that the DATE 2008 paper's argument is built on,
//! IEEE 1500-style wrapper-cell insertion, bit-parallel logic simulation,
//! and an ISCAS'89 `.bench` format reader/writer.
//!
//! # Example
//!
//! Build a tiny full-scan circuit, extract its test model, and look at its
//! logic cones:
//!
//! ```
//! use modsoc_netlist::{Circuit, GateKind};
//!
//! # fn main() -> Result<(), modsoc_netlist::NetlistError> {
//! let mut c = Circuit::new("demo");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let ff = c.add_gate("ff", GateKind::Dff, &[a])?;
//! let g = c.add_gate("g", GateKind::And, &[ff, b])?;
//! c.mark_output(g);
//! c.validate()?;
//!
//! let model = c.to_test_model()?;
//! assert_eq!(model.circuit.input_count(), 3); // a, b + scan cell
//! let cones = modsoc_netlist::cone::extract_cones(&model.circuit)?;
//! assert_eq!(cones.cones().len(), 2);         // PO cone + pseudo-PO cone
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod canonical;
pub mod circuit;
pub mod cone;
pub mod error;
pub mod gate;
pub mod index;
pub mod scan;
pub mod scan_chain;
pub mod sim;
pub mod stats;
pub mod verilog;
pub mod wide;
pub mod wrapper;

pub use canonical::canonical_bytes;
pub use circuit::{Circuit, NodeId};
pub use error::NetlistError;
pub use gate::GateKind;
pub use index::StructuralIndex;
pub use scan::{TestModel, TestPoint};
pub use stats::CircuitStats;
pub use wide::{PackedWord, SimBlock, BLOCK_BITS, BLOCK_WORDS};
