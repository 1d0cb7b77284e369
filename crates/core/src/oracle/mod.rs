//! The pluggable test-oracle layer.
//!
//! The paper's pivot-row containment check (§3.2) is one point in a family
//! of logic-bug oracles; the SQLancer lineage (NoREC, TLP, query-plan
//! guidance) shows the leverage comes from running *many* oracles over the
//! same generated database state.  This module therefore defines:
//!
//! * the [`Oracle`] trait — one check over the current database state,
//! * [`OracleReport`] / [`BugWitness`] / [`ReproSpec`] — what a check
//!   concluded and how to reproduce it on a fresh engine,
//! * [`OracleRegistry`] — name → constructor mapping the
//!   [`CampaignBuilder`](crate::runner::CampaignBuilder) resolves,
//! * [`rectify`] — Algorithm 3, shared by oracles that need a
//!   guaranteed-`TRUE` predicate.
//!
//! Five oracles ship in-tree: [`ContainmentOracle`] (§3.2),
//! [`ErrorOracle`] (§3.3), [`TlpOracle`] (ternary logic partitioning) and
//! [`NorecOracle`] (non-optimizing reference engine construction) — the
//! latter two after Rigger & Su's follow-up work — plus the
//! [`SerializabilityOracle`], which checks multi-session transaction
//! episodes against every serial order of their committed sessions.
//! Adding a sixth is a matter of implementing [`Oracle`] and registering
//! it — see the README's architecture section for two worked examples.

pub mod containment;
pub mod error;
pub mod norec;
pub mod serializability;
pub mod tlp;

use lancer_engine::{Dialect, Engine, EngineError};
use lancer_sql::ast::stmt::Statement;
use lancer_sql::ast::Expr;
use lancer_sql::value::{TriBool, Value};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gen::{GenConfig, StateGenerator};

pub use containment::ContainmentOracle;
pub use error::ErrorOracle;
pub use norec::{norec_rewrite, norec_sum, plan_uses_index, random_norec_select, NorecOracle};
pub use serializability::{
    committed_units, serial_orders_match, state_digest, Episode, SerializabilityOracle, StateDigest,
};
pub use tlp::{partition_diff, TlpOracle};

/// Rectifies a randomly generated expression so that it evaluates to `TRUE`
/// for the pivot row (Algorithm 3).
#[must_use]
pub fn rectify(expr: Expr, truth: TriBool) -> Expr {
    match truth {
        TriBool::True => expr,
        TriBool::False => expr.not(),
        TriBool::Unknown => expr.is_null(),
    }
}

/// Which oracle class produced a detection (the columns of Table 3, plus
/// one per additional logic oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DetectionKind {
    /// The pivot row was missing from the result set.
    Containment,
    /// An unexpected (non-crash) error was returned.
    Error,
    /// A simulated crash (SEGFAULT).
    Crash,
    /// A ternary-logic-partitioning mismatch: the union of the `p` /
    /// `NOT p` / `p IS NULL` partitions differs from the unpartitioned
    /// result.
    Tlp,
    /// A NoREC pair mismatch: the optimizable `WHERE p` query fetched a
    /// different number of rows than its non-optimizing
    /// `SUM(CASE WHEN p THEN 1 ELSE 0 END)` rewrite counted.
    Norec,
    /// A serializability violation: the final state of a multi-session
    /// transaction episode matches no serial order of its committed
    /// sessions (which subsumes rolled-back writes staying visible).
    Serializability,
}

impl DetectionKind {
    /// The column label used by Table 3.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DetectionKind::Containment => "Contains",
            DetectionKind::Error => "Error",
            DetectionKind::Crash => "SEGFAULT",
            DetectionKind::Tlp => "TLP",
            DetectionKind::Norec => "NoREC",
            DetectionKind::Serializability => "Serial",
        }
    }

    /// The deduplication domain for attribution.  The three PQS kinds share
    /// one domain — a campaign's PQS pipeline counts each injected fault
    /// once, as the paper's bug reports do — while each independent logic
    /// oracle deduplicates on its own, so registering an extra oracle never
    /// changes what the existing ones report at the same seed.
    #[must_use]
    pub fn dedup_domain(self) -> &'static str {
        match self {
            DetectionKind::Containment | DetectionKind::Error | DetectionKind::Crash => "pqs",
            DetectionKind::Tlp => "tlp",
            DetectionKind::Norec => "norec",
            DetectionKind::Serializability => "serial",
        }
    }
}

/// How to re-check a detection on a fresh engine — the oracle-specific part
/// of reduction and attribution.  The final statement of a detection's
/// statement list is the trigger; `ReproSpec` says what observing the bug
/// through that trigger means.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproSpec {
    /// The trigger is a query that must *fail* to fetch this row for the
    /// bug to reproduce.
    MissingRow(Vec<Value>),
    /// The trigger must fail with an error the [`ErrorOracle`] does not
    /// expect (excluding crashes).
    UnexpectedError,
    /// The trigger must fail with a simulated crash.
    Crash,
    /// The trigger is the unpartitioned query; the union of the partition
    /// queries' row multisets must differ from its result.
    PartitionMismatch {
        /// The `WHERE p` / `WHERE NOT p` / `WHERE p IS NULL` queries.
        partitions: Vec<Statement>,
    },
    /// The trigger is the optimizable `WHERE p` query; its row count must
    /// differ from what the non-optimizing rewrite sums for the bug to
    /// reproduce.
    PairMismatch {
        /// The `SELECT SUM(CASE WHEN p THEN 1 ELSE 0 END) ...` rewrite
        /// (boxed: a `Statement` would dominate the enum's size).
        rewritten: Box<Statement>,
    },
    /// The whole reproduction script (not just the trigger) is a
    /// multi-session transaction episode whose final table state must
    /// match *no* serial order of its committed sessions for the bug to
    /// reproduce.  The committed sessions are re-derived from the script
    /// itself, so the spec survives reduction.
    SerialDivergence,
}

impl ReproSpec {
    /// The detection kind this reproduction strategy corresponds to.
    #[must_use]
    pub fn kind(&self) -> DetectionKind {
        match self {
            ReproSpec::MissingRow(_) => DetectionKind::Containment,
            ReproSpec::UnexpectedError => DetectionKind::Error,
            ReproSpec::Crash => DetectionKind::Crash,
            ReproSpec::PartitionMismatch { .. } => DetectionKind::Tlp,
            ReproSpec::PairMismatch { .. } => DetectionKind::Norec,
            ReproSpec::SerialDivergence => DetectionKind::Serializability,
        }
    }
}

/// A self-contained bug witness: the statement that exposed the bug, a
/// human-readable message, and how to reproduce the observation.
#[derive(Debug, Clone, PartialEq)]
pub struct BugWitness {
    /// The statement that triggered the detection (appended to the state
    /// log to form the reproduction script).
    pub trigger: Statement,
    /// The error message or a description of the mismatch.
    pub message: String,
    /// Oracle-specific reproduction data.
    pub repro: ReproSpec,
}

impl BugWitness {
    /// The detection kind of this witness.
    #[must_use]
    pub fn kind(&self) -> DetectionKind {
        self.repro.kind()
    }
}

/// What a single oracle invocation concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleReport {
    /// The check ran and found nothing suspicious.
    Passed,
    /// The check could not be performed (e.g. no rows, or the generated
    /// expression was rejected for this dialect).
    Skipped,
    /// One or more bug witnesses.
    Bugs(Vec<BugWitness>),
}

impl OracleReport {
    /// Convenience constructor for the common single-witness case.
    #[must_use]
    pub fn bug(witness: BugWitness) -> OracleReport {
        OracleReport::Bugs(vec![witness])
    }

    /// The witnesses, if any.
    #[must_use]
    pub fn witnesses(&self) -> &[BugWitness] {
        match self {
            OracleReport::Bugs(w) => w,
            _ => &[],
        }
    }
}

/// How often the campaign runner invokes an oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Once per query slot: `queries_per_database` times per generated
    /// database (the containment and TLP oracles).
    PerQuery,
    /// Once per generated database (the error oracle, which inspects the
    /// state-generation failures).
    PerDatabase,
}

/// Which RNG stream an oracle draws from inside a campaign worker.
///
/// The primary stream is the worker RNG that also drives state generation —
/// exactly one registered oracle should use it (the containment oracle, for
/// historical determinism: its draws interleave with generation the same
/// way they did before the trait existed).  Every other oracle gets an
/// independent substream derived from `(campaign seed, worker, oracle
/// name)`, which guarantees that **adding or removing a derived-stream
/// oracle never changes what the other oracles generate or find at the
/// same seed** — the property that keeps Table 3's original columns
/// bit-identical when new oracles are registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RngStream {
    /// Share the worker's primary stream (interleaved with generation).
    Primary,
    /// An independent derived substream (the default).
    #[default]
    Derived,
}

/// Everything an oracle may need about the current database state besides
/// the engine itself.
#[derive(Debug)]
pub struct OracleCtx<'a> {
    /// The dialect under test.
    pub dialect: Dialect,
    /// Generator tuning (e.g. the pivot-table cap).
    pub gen: &'a GenConfig,
    /// The statements that successfully built the current state, in order.
    pub log: &'a [Statement],
    /// Statements that failed during state generation, with their errors.
    pub failures: &'a [(Statement, EngineError)],
}

/// A test oracle: one strategy for exposing bugs in the engine given a
/// generated database state.
///
/// Implementations must be `Send + Sync`: a campaign shares one oracle
/// instance across its worker threads, handing each worker its own RNG.
pub trait Oracle: Send + Sync {
    /// The registry name of the oracle (also used for per-oracle labels in
    /// reports).
    fn name(&self) -> &'static str;

    /// How often the runner invokes [`check`](Oracle::check).
    fn cadence(&self) -> Cadence {
        Cadence::PerQuery
    }

    /// Which RNG stream the oracle draws from (see [`RngStream`]).
    fn rng_stream(&self) -> RngStream {
        RngStream::Derived
    }

    /// Runs one check against the engine's current state.
    fn check(&self, rng: &mut StdRng, engine: &mut Engine, ctx: &OracleCtx<'_>) -> OracleReport;

    /// Per-oracle work counters, read by the campaign runner after all
    /// workers finish (e.g. NoREC's pairs-checked / plans-diverged pair).
    /// Oracles that track nothing beyond their witnesses return the default
    /// empty list.  Implementations must count through interior mutability
    /// (`check` shares one instance across worker threads), and the values
    /// must be cumulative, order-independent sums so threaded campaigns
    /// stay deterministic — the runner snapshots them before a run and
    /// folds only the delta, so `Campaign::run` stays re-runnable.
    ///
    /// The runner currently surfaces the counter names it has
    /// [`CampaignStats`](crate::CampaignStats) fields for
    /// (`norec_pairs_checked`, `norec_plan_divergences`); names it does
    /// not recognize are ignored, so a custom oracle's counters need a
    /// matching stats field to show up in reports.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Constructor signature for registry-built oracles.
pub type OracleFactory = fn(Dialect, &GenConfig) -> Box<dyn Oracle>;

/// A name → constructor registry of oracles.
///
/// [`OracleRegistry::builtin`] registers the five in-tree oracles in
/// canonical order (`error`, `containment`, `tlp`, `norec`,
/// `serializability` — the error oracle runs first per database,
/// mirroring the original runner).
/// Downstream code can
/// [`register`](OracleRegistry::register) additional oracles and hand the
/// registry to a [`CampaignBuilder`](crate::runner::CampaignBuilder).
#[derive(Debug, Clone)]
pub struct OracleRegistry {
    factories: Vec<(&'static str, OracleFactory)>,
}

impl OracleRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> OracleRegistry {
        OracleRegistry { factories: Vec::new() }
    }

    /// The registry of in-tree oracles.
    #[must_use]
    pub fn builtin() -> OracleRegistry {
        let mut r = OracleRegistry::empty();
        r.register("error", |_, _| Box::new(ErrorOracle));
        r.register("containment", |dialect, gen| {
            Box::new(ContainmentOracle::new(dialect, gen.clone()))
        });
        r.register("tlp", |dialect, gen| Box::new(TlpOracle::new(dialect, gen.clone())));
        r.register("norec", |dialect, gen| Box::new(NorecOracle::new(dialect, gen.clone())));
        r.register("serializability", |dialect, gen| {
            Box::new(SerializabilityOracle::new(dialect, gen.clone()))
        });
        r
    }

    /// Registers (or replaces) an oracle constructor under a name.
    pub fn register(&mut self, name: &'static str, factory: OracleFactory) {
        if let Some(slot) = self.factories.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = factory;
        } else {
            self.factories.push((name, factory));
        }
    }

    /// The registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.factories.iter().map(|(n, _)| *n).collect()
    }

    /// Builds the oracle registered under `name`, or `None` if unknown.
    #[must_use]
    pub fn build(&self, name: &str, dialect: Dialect, gen: &GenConfig) -> Option<Box<dyn Oracle>> {
        self.factories.iter().find(|(n, _)| *n == name).map(|(_, f)| f(dialect, gen))
    }
}

impl Default for OracleRegistry {
    fn default() -> Self {
        OracleRegistry::builtin()
    }
}

/// Convenience: generate a database and run `queries` containment checks
/// plus the error oracle over the generation failures, returning every
/// witness (used by examples and tests; the campaign runner in
/// [`crate::runner`] adds reduction, attribution and statistics).
pub fn quick_scan<R: Rng>(
    rng: &mut R,
    engine: &mut Engine,
    config: &GenConfig,
    queries: usize,
) -> (Vec<Statement>, Vec<BugWitness>) {
    let mut generator = StateGenerator::new(engine.dialect(), config.clone());
    let error_oracle = ErrorOracle;
    let mut witnesses = Vec::new();
    let (log, failures) = generator.generate_database(rng, engine);
    for (stmt, err) in &failures {
        if let Some(w) = error_oracle.witness(stmt, err) {
            witnesses.push(w);
        }
    }
    let containment = ContainmentOracle::new(engine.dialect(), config.clone());
    for _ in 0..queries {
        if let OracleReport::Bugs(ws) = containment.check_once(rng, engine) {
            witnesses.extend(ws);
        }
    }
    (log, witnesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::parser::parse_statement;

    #[test]
    fn rectification_follows_algorithm3() {
        let e = Expr::col("c0").eq(Expr::int(1));
        assert_eq!(rectify(e.clone(), TriBool::True), e);
        assert_eq!(rectify(e.clone(), TriBool::False), e.clone().not());
        assert_eq!(rectify(e.clone(), TriBool::Unknown), e.is_null());
    }

    #[test]
    fn repro_specs_map_to_detection_kinds() {
        assert_eq!(ReproSpec::MissingRow(vec![]).kind(), DetectionKind::Containment);
        assert_eq!(ReproSpec::UnexpectedError.kind(), DetectionKind::Error);
        assert_eq!(ReproSpec::Crash.kind(), DetectionKind::Crash);
        assert_eq!(ReproSpec::PartitionMismatch { partitions: vec![] }.kind(), DetectionKind::Tlp);
        let rewritten = Box::new(parse_statement("SELECT 1").unwrap());
        assert_eq!(ReproSpec::PairMismatch { rewritten }.kind(), DetectionKind::Norec);
        assert_eq!(ReproSpec::SerialDivergence.kind(), DetectionKind::Serializability);
    }

    #[test]
    fn detection_kind_labels_and_domains() {
        assert_eq!(DetectionKind::Containment.label(), "Contains");
        assert_eq!(DetectionKind::Error.label(), "Error");
        assert_eq!(DetectionKind::Crash.label(), "SEGFAULT");
        assert_eq!(DetectionKind::Tlp.label(), "TLP");
        assert_eq!(DetectionKind::Norec.label(), "NoREC");
        assert_eq!(DetectionKind::Serializability.label(), "Serial");
        assert_eq!(DetectionKind::Containment.dedup_domain(), "pqs");
        assert_eq!(DetectionKind::Error.dedup_domain(), "pqs");
        assert_eq!(DetectionKind::Crash.dedup_domain(), "pqs");
        assert_eq!(DetectionKind::Tlp.dedup_domain(), "tlp");
        assert_eq!(DetectionKind::Norec.dedup_domain(), "norec");
        assert_eq!(DetectionKind::Serializability.dedup_domain(), "serial");
    }

    #[test]
    fn report_witness_accessors() {
        let w = BugWitness {
            trigger: parse_statement("SELECT 1").unwrap(),
            message: "m".into(),
            repro: ReproSpec::Crash,
        };
        assert_eq!(w.kind(), DetectionKind::Crash);
        let report = OracleReport::bug(w.clone());
        assert_eq!(report.witnesses(), &[w]);
        assert_eq!(OracleReport::Passed.witnesses(), &[] as &[BugWitness]);
        assert_eq!(OracleReport::Skipped.witnesses(), &[] as &[BugWitness]);
    }

    #[test]
    fn registry_builds_builtins_in_canonical_order() {
        let registry = OracleRegistry::builtin();
        assert_eq!(
            registry.names(),
            vec!["error", "containment", "tlp", "norec", "serializability"]
        );
        let gen = GenConfig::tiny();
        for name in registry.names() {
            let oracle = registry.build(name, Dialect::Sqlite, &gen).expect("builtin");
            assert_eq!(oracle.name(), name);
        }
        assert!(registry.build("nonexistent", Dialect::Sqlite, &gen).is_none());
    }

    #[test]
    fn registry_register_replaces_by_name() {
        let mut registry = OracleRegistry::builtin();
        let before = registry.names().len();
        registry.register("tlp", |_, _| Box::new(ErrorOracle));
        assert_eq!(registry.names().len(), before, "replacement must not duplicate");
        let replaced = registry.build("tlp", Dialect::Sqlite, &GenConfig::tiny()).unwrap();
        assert_eq!(replaced.name(), "error");
    }
}
