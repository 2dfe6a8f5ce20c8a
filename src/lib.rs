//! # modsoc — modular SOC testing, reproduced in Rust
//!
//! Facade crate for the `modsoc` workspace, a from-scratch reproduction of
//! *"Analysis of The Test Data Volume Reduction Benefit of Modular SOC
//! Testing"* (Sinanoglu & Marinissen, DATE 2008).
//!
//! The workspace is organised in layers; this crate re-exports each layer
//! under a stable module name:
//!
//! * [`netlist`] — gate-level circuits, full-scan models, logic cones,
//!   wrapper cells, `.bench` I/O.
//! * [`atpg`] — a complete combinational stuck-at ATPG (PODEM), fault
//!   simulation, and pattern compaction.
//! * [`circuitgen`] — deterministic synthetic core generation with
//!   ISCAS'89-lookalike profiles, and SOC netlist stitching.
//! * [`soc`] — the SOC/core/wrapper data model, the ITC'02 benchmark data
//!   (embedded + reconstructed), and the `.soc`-style text format.
//! * [`analysis`] — the paper's contribution: the TDV equations, the
//!   monolithic-vs-modular comparison engine, and table renderers.
//! * [`tam`] — wrapper chain design, TAM architectures and test
//!   scheduling (the paper's cited context, refs 12, 13 and 21).
//! * [`store`] — content-addressed on-disk result store and campaign
//!   journals (`--store`, `modsoc campaign`).
//!
//! [`demo`] regenerates every table and figure of the paper as report
//! text; it backs `modsoc demo <mode>`.
//!
//! # Quickstart
//!
//! Compute the paper's Figure 1/2 worked example (three cones, 25%
//! reduction):
//!
//! ```
//! use modsoc::soc::{CoreSpec, Soc};
//! use modsoc::analysis::{SocTdvAnalysis, TdvOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut soc = Soc::new("fig1");
//! for (name, ffs, patterns) in [("A", 20, 200), ("B", 10, 300), ("C", 20, 400)] {
//!     soc.add_core(CoreSpec::leaf(name, 0, 0, 0, ffs, patterns))?;
//! }
//! let analysis = SocTdvAnalysis::compute(&soc, &TdvOptions::default())?;
//! assert_eq!(analysis.monolithic_optimistic().stimulus, 20_000);
//! assert_eq!(analysis.modular().stimulus, 15_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod demo;

pub use modsoc_atpg as atpg;
pub use modsoc_circuitgen as circuitgen;
pub use modsoc_core as analysis;
pub use modsoc_metrics as metrics;
pub use modsoc_netlist as netlist;
pub use modsoc_soc as soc;
pub use modsoc_store as store;
pub use modsoc_tam as tam;
