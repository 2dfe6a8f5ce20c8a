//! Test data volume analysis of modular vs monolithic SOC testing.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Sinanoglu & Marinissen, *DATE 2008*): a quantitative comparison of
//! the test data volume (TDV) needed to test a flattened SOC
//! monolithically versus testing the same SOC modularly through
//! IEEE 1500-style wrappers.
//!
//! * [`tdv`] — Equations 1–8: monolithic TDV, optimistic monolithic TDV,
//!   per-core modular TDV with the hierarchical wrapper cost `ISOCOST`,
//!   and the penalty/benefit decomposition (with an *exact* variant of
//!   Equation 6 — see `DESIGN.md` §3 for why the printed equation leaves
//!   a chip-pin residual).
//! * [`analysis`] — [`SocTdvAnalysis`]: computes everything for a
//!   [`modsoc_soc::Soc`] and exposes reduction ratios, pessimism factors
//!   and per-core rows.
//! * [`reconstruct`] — inverts the equations to synthesise per-core data
//!   matching the paper's published Table 4 aggregates for the nine
//!   ITC'02 SOCs whose `.soc` files are unavailable here.
//! * [`experiment`] — the live pipeline: generate SOC netlists
//!   (`modsoc-circuitgen`), run ATPG per core and on the flattened
//!   design (`modsoc-atpg`), and feed the measured pattern counts into
//!   the analysis — the Tables 1–2 experiments end to end.
//! * [`report`] — plain-text renderers for each of the paper's tables.
//! * [`runctl`] — run control: [`RunBudget`] deadlines/cancellation,
//!   panic isolation, and per-core graceful degradation so one poisoned
//!   core cannot take down a whole experiment.
//! * [`WorkerPool`] — the deterministic scoped worker pool, re-exported
//!   from `modsoc_atpg::pool`: per-core
//!   ATPG jobs, fault-list chunks and chaos cases fan out across
//!   `std::thread` workers with an order-preserving merge, so reports
//!   are byte-identical at any `--jobs` value.
//! * [`metrics`] — phase-level observability: per-core counter/timer
//!   sinks threaded through the engine and pipeline, assembled into a
//!   serializable [`metrics::RunMetrics`] report whose deterministic
//!   sections are byte-identical at any `--jobs` value (the CI
//!   determinism and perf-regression gates consume these reports).
//! * [`serve`] — the `modsoc serve` daemon: a fault-tolerant HTTP
//!   service layer over the pipeline with bounded admission queues,
//!   content-address request coalescing, per-request budget caps,
//!   panic isolation, load shedding (`503` + `Retry-After`) and
//!   graceful drain — see `DESIGN.md` §13.
//! * [`campaign`] — resumable experiment campaigns: a JSON spec of SOC
//!   experiment units run through the pipeline, journaling per-unit
//!   completion to a content-addressed result store
//!   (`modsoc-store`) so an interrupted campaign resumes where it
//!   stopped instead of recomputing finished units.
//!
//! # Example
//!
//! Reproduce the worked example of the paper's Figures 1–2 (three cones
//! with 200/300/400 partial patterns: 20,000 stimulus bits monolithic vs
//! 15,000 modular — a 25% reduction):
//!
//! ```
//! use modsoc_soc::{CoreSpec, Soc};
//! use modsoc_core::{SocTdvAnalysis, TdvOptions};
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
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod error;
pub mod experiment;
pub mod metrics;
pub mod reconstruct;
pub mod remote;
pub mod report;
pub mod runctl;
pub mod serve;
pub mod tdv;
pub mod timecost;

pub use analysis::{CoreTdvRow, SocTdvAnalysis};
pub use campaign::{run_campaign, CampaignReport, CampaignSpec, ClaimOptions, UnitStatus};
pub use error::AnalysisError;
pub use modsoc_atpg::pool::WorkerPool;
pub use remote::HttpBackend;
pub use runctl::{
    BudgetExhausted, Completion, CoreFailure, CoreOutcome, CoreOutcomeKind, ExhaustReason,
    RunBudget,
};
pub use tdv::{ChipPinPolicy, TdvOptions, TdvVolume};

#[cfg(test)]
mod chaos;
