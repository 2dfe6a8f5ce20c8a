//! SOC data model for modular test analysis.
//!
//! A [`Soc`] is a set of [`CoreSpec`]s — each carrying the interface and
//! pattern-count parameters the DATE 2008 paper's TDV equations consume
//! (inputs `I`, outputs `O`, bidirectionals `B`, scan cells `S`, test
//! patterns `T`) — plus the embedding hierarchy (which cores are children
//! of which). The crate also ships:
//!
//! * [`itc02`] — the benchmark data the paper evaluates on: the exact
//!   p34392 core table (Table 3), the SOC1/SOC2 tables (Tables 1–2), and
//!   the paper-reported Table 4 aggregates for all ten ITC'02 SOCs
//!   (the analytic reconstruction of the nine SOCs whose `.soc` files are
//!   not available here lives in `modsoc-core::reconstruct`, next to the
//!   TDV equations it inverts);
//! * [`mod@format`] — a `.soc`-style text format so users with real benchmark
//!   data can load their own SOCs;
//! * [`stats`] — pattern-count statistics (the normalized standard
//!   deviation of Table 4, column 3).
//!
//! # Example
//!
//! ```
//! use modsoc_soc::{CoreSpec, Soc};
//!
//! # fn main() -> Result<(), modsoc_soc::SocError> {
//! let mut soc = Soc::new("demo");
//! let a = soc.add_core(CoreSpec::leaf("a", 16, 8, 0, 120, 90))?;
//! let b = soc.add_core(CoreSpec::leaf("b", 8, 8, 0, 40, 300))?;
//! soc.add_core(CoreSpec::parent("top", 32, 16, 0, 0, 4, vec![a, b]))?;
//! soc.validate()?;
//! assert_eq!(soc.max_core_patterns(), 300);
//! assert_eq!(soc.total_scan_cells(), Some(160));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod error;
pub mod format;
pub mod itc02;
pub mod soc;
pub mod stats;

pub use crate::core::{CoreId, CoreSpec};
pub use crate::error::SocError;
pub use crate::soc::Soc;
