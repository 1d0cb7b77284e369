//! # perfbench
//!
//! The campaign-level benchmark of the PQS reproduction.  A run executes
//! one workload's campaigns in a closed loop with one client (one campaign
//! at a time, one thread, one process) and reports either the end-to-end
//! metrics (`--trace 0`) or the per-layer split from a traced mirror of
//! the campaign runner (`--trace 1`).  See `NOTES.md` for the metrics and
//! what each workload stresses.

#![warn(missing_docs)]

pub mod mirror;
pub mod trace;
pub mod workload;
