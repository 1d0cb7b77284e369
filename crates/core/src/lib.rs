//! # lancer-core — Pivoted Query Synthesis
//!
//! A from-scratch Rust reproduction of the paper *Testing Database Engines
//! via Pivoted Query Synthesis* (Rigger & Su, OSDI 2020) — the technique
//! behind SQLancer.
//!
//! The core idea: select a random **pivot row**, generate a random
//! expression, evaluate it on the pivot row with a ground-truth AST
//! interpreter ([`interp`]), **rectify** it so it is guaranteed to be `TRUE`
//! ([`oracle::rectify`]), wrap it into a query, and check that the DBMS
//! returns the pivot row ([`oracle::ContainmentOracle`]).
//!
//! The oracle layer is pluggable: every check implements the
//! [`oracle::Oracle`] trait and registers in an [`oracle::OracleRegistry`].
//! Besides containment, an [`oracle::ErrorOracle`] flags unexpected DBMS
//! errors such as database corruption (§3.3), an [`oracle::TlpOracle`]
//! applies ternary logic partitioning, an [`oracle::NorecOracle`]
//! compares optimizable queries against their non-optimizing
//! `SUM(CASE WHEN ...)` rewrites — two metamorphic oracles from the
//! SQLancer lineage that need no ground truth — and an
//! [`oracle::SerializabilityOracle`] checks multi-session transaction
//! episodes against every serial order of their committed sessions
//! (enabled alongside [`CampaignBuilder::multi_session`]).  The [`runner`] module
//! orchestrates whole testing campaigns (random state generation,
//! detection, reduction, attribution) over any set of registered oracles,
//! [`qpg`] adds query-plan-guided state mutation (opt-in via
//! [`CampaignBuilder::plan_guidance`]), and [`baseline`] implements the
//! differential-testing and crash-fuzzing baselines the paper contrasts
//! with.
//!
//! ```
//! use lancer_core::Campaign;
//! use lancer_engine::Dialect;
//!
//! let report = Campaign::builder(Dialect::Sqlite)
//!     .quick()
//!     .databases(2)
//!     .queries(10)
//!     .all_oracles() // error + containment + TLP + NoREC
//!     .run();
//! assert!(report.stats.queries_checked > 0);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod gen;
pub mod interp;
pub mod oracle;
pub mod qpg;
pub mod reduce;
pub mod replay;
pub mod runner;

pub use gen::{GenConfig, StateGenerator, VisibleColumn};
pub use interp::{Interpreter, PivotColumn, PivotRow};
pub use oracle::{
    committed_units, norec_rewrite, norec_sum, plan_uses_index, quick_scan, rectify,
    serial_orders_match, state_digest, BugWitness, Cadence, ContainmentOracle, DetectionKind,
    Episode, ErrorOracle, NorecOracle, Oracle, OracleCtx, OracleFactory, OracleRegistry,
    OracleReport, ReproSpec, RngStream, SerializabilityOracle, StateDigest, TlpOracle,
};
pub use qpg::{PlanCoverage, PlanGuide, QpgConfig};
pub use reduce::{
    reduce_hierarchical, reduce_indices, reduce_statements, transactions_well_formed,
    CandidateJudge, FnJudge, ReduceOptions, Reduction, ReductionStats,
};
pub use replay::{DifferentialJudge, ReplayCache, ReplayCacheStats, ReplaySession};
pub use runner::{
    reproduces, Campaign, CampaignBuilder, CampaignReport, CampaignStats, Detection, FoundBug,
};
