//! Wrapper chain design, TAM architectures and SOC test scheduling.
//!
//! The DATE 2008 paper deliberately scopes its analysis to *useful* test
//! data bits, independent of any test access mechanism (§3: "We exclude
//! the impact of the scan chain organization or the test access
//! mechanism from our analysis"). This crate supplies the machinery that
//! scoping note abstracts away, reproducing the cited background
//! (ref 12, Aerts & Marinissen scan-chain/TAM design; ref 13, Goel &
//! Marinissen test-bandwidth utilization):
//!
//! * [`wrapper`] — IEEE 1500 wrapper chain design: balance a core's
//!   wrapper input cells, internal scan chains, and wrapper output cells
//!   over `w` wrapper chains (best-fit-decreasing), and the resulting
//!   core test time;
//! * [`arch`] — the classic TAM architectures (Multiplexing,
//!   Daisychain, Distribution) with SOC test time computation;
//! * [`schedule`] — explicit test schedules with start/end times and the
//!   idle-bit accounting that quantifies exactly what the paper's
//!   "useful bits only" analysis leaves out;
//! * [`binpack`] / [`constraints`] — rectangle bin-packing wrapper/TAM
//!   co-optimization (the Islam/Karim diagonal-length heuristic, arXiv
//!   1008.3320 / 1008.4446): Pareto wrapper configurations as
//!   rectangles, strip packing under a total width budget with
//!   idle-time backfill, and the power-ceiling-constrained variant.
//!
//! # Example
//!
//! ```
//! use modsoc_tam::wrapper::{design_wrapper, WrapperCore};
//!
//! let core = WrapperCore::new("c", 8, 4, vec![32, 32, 16]);
//! let design = design_wrapper(&core, 3);
//! assert_eq!(design.chains().len(), 3);
//! // 92 cells over 3 chains: perfectly balanced would be ~31 per chain.
//! assert!(design.max_scan_in() <= 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod binpack;
pub mod constraints;
pub mod error;
pub mod optimize;
pub mod power;
pub mod schedule;
pub mod wrapper;

pub use arch::{soc_test_time, TamArchitecture};
pub use binpack::PackedSchedule;
pub use error::TamError;
pub use wrapper::{design_wrapper, WrapperCore, WrapperDesign};
