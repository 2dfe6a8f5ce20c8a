//! Deterministic parallel execution: the engine's scoped worker pool.
//!
//! One pool implementation serves the whole workspace. It lives in
//! [`modsoc_atpg::pool`], because the engine's fault-simulation sweeps
//! claim chunks from it too, and is re-exported here for the per-core
//! dispatch, the guarded analyses, the chaos sweeps and the TAM sweep.
//! See that module for the determinism contract and the one-level
//! nesting rule.

pub use modsoc_atpg::pool::{effective_jobs, WorkerPool};
