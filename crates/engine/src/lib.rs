//! # lancer-engine
//!
//! The relational DBMS engine that plays the role of the *system under test*
//! in this reproduction of "Testing Database Engines via Pivoted Query
//! Synthesis" (OSDI 2020).
//!
//! The engine provides three dialect profiles ([`Dialect`]) emulating the
//! semantic differences between SQLite, MySQL and PostgreSQL that the paper
//! relies on, a dialect-aware expression evaluator and query executor, and a
//! registry of injected faults ([`bugs`]) modelled on the bug classes the
//! paper discovered.  With an empty [`BugProfile`] the engine is
//! reference-correct; campaigns run it with faults enabled and let SQLancer
//! (in `lancer-core`) rediscover them.
//!
//! The [`plan`] module adds a deterministic planner on top: `EXPLAIN`
//! support via [`Engine::explain`], and [`PlanFingerprint`]s — the
//! plan-coverage signal query-plan-guided campaigns in `lancer-core::qpg`
//! feed on.

#![warn(missing_docs)]

pub mod bugs;
pub mod coverage;
pub mod dialect;
pub mod error;
pub mod eval;
pub mod exec;
pub mod plan;

pub use bugs::{BugId, BugInfo, BugProfile, BugStatus, Oracle};
pub use coverage::Coverage;
pub use dialect::Dialect;
pub use error::{EngineError, EngineResult, ErrorClass};
pub use eval::{BoundExpr, Evaluator, RowSchema, RowView, SourceSchema};
pub use exec::{workspace_rewinds, Engine, QueryResult, SessionHandle, WorkspaceSnapshot};
pub use plan::{PlanFingerprint, PlanNode, QueryPlan, ScanKind};
