//! Combinational stuck-at ATPG for full-scan circuits.
//!
//! This crate is the workspace's stand-in for the commercial/academic ATPG
//! tooling (ATALANTA in the paper) that the DATE 2008 experiments depend
//! on. It implements the classic structural test-generation stack from
//! scratch:
//!
//! * a five-valued **D-calculus** ([`value`]),
//! * a single-stuck-at **fault universe** with equivalence collapsing
//!   ([`fault`], [`collapse`]),
//! * SCOAP-style **testability measures** used as search guidance
//!   ([`testability`]),
//! * the **PODEM** test generation algorithm ([`podem`]),
//! * bit-parallel (64 and 512 patterns/pass) **fault simulation** with
//!   fault dropping ([`fault_sim`]), its sweeps sharded across the
//!   scoped **worker pool** ([`pool`]),
//! * test **cubes/pattern sets** with don't-cares, merging and fill
//!   ([`pattern`]),
//! * static, dynamic and reverse-order **compaction** ([`compact`],
//!   [`engine`]),
//! * a top-level engine that sequences random-pattern bootstrap,
//!   deterministic PODEM and compaction ([`engine`]),
//! * logic **BIST** — Galois LFSR/MISR, coverage ramps and a hybrid
//!   BIST + deterministic top-up flow ([`bist`]), and
//! * **transition-delay fault ATPG** under launch-on-capture ([`tdf`]).
//!
//! The engine's observable behaviour reproduces the phenomena the paper's
//! analysis rests on: per-cone pattern counts vary widely, compaction can
//! only merge non-conflicting cubes, and a flattened SOC needs more
//! patterns than its hardest core.
//!
//! # Example
//!
//! ```
//! use modsoc_netlist::bench_format::parse_bench;
//! use modsoc_atpg::{Atpg, AtpgOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = parse_bench("c17ish", "
//! INPUT(a)\nINPUT(b)\nINPUT(c)
//! OUTPUT(y)
//! n1 = NAND(a, b)
//! n2 = NAND(b, c)
//! y = NAND(n1, n2)
//! ")?;
//! let result = Atpg::new(AtpgOptions::default()).run(&c)?;
//! assert!(result.fault_coverage() > 0.99);
//! assert!(result.patterns.len() >= 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bist;
pub mod budget;
pub mod cache;
pub mod collapse;
pub mod compact;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fault_sim;
pub mod pattern;
pub mod podem;
pub mod pool;
pub mod tdf;
pub mod testability;
pub mod value;

pub use budget::{BudgetExhausted, ExhaustReason, RunBudget};
pub use cache::{cache_key, options_fingerprint};
pub use engine::{Atpg, AtpgOptions, AtpgResult, AtpgStats};
pub use error::AtpgError;
pub use fault::{Fault, FaultSite, FaultStatus};
pub use pattern::{Bit, FillStrategy, TestCube, TestSet};
pub use value::V5;
