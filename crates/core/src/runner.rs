//! The campaign runner: the equivalent of letting SQLancer run against a
//! DBMS for a testing session, plus the post-processing the paper performs
//! by hand (reduction, root-cause attribution, tracker classification).
//!
//! A campaign repeatedly (1) generates a random database, (2) hands the
//! state to every registered [`Oracle`] — the error oracle inspects
//! state-generation failures once per database, per-query oracles such as
//! containment and TLP run `queries_per_database` checks — and then (3)
//! reduces and attributes every detection to the injected fault(s) that
//! reproduce it.  Attribution is done by re-executing the reduced test
//! case against engines with exactly one fault enabled — the ground truth
//! that lets the benches regenerate Tables 2 and 3 and Figures 2 and 3.
//!
//! Campaigns are configured with the fluent [`CampaignBuilder`]:
//!
//! ```
//! use lancer_core::Campaign;
//! use lancer_engine::Dialect;
//!
//! let report = Campaign::builder(Dialect::Sqlite)
//!     .quick()
//!     .databases(2)
//!     .queries(10)
//!     .oracle("containment")
//!     .oracle("tlp")
//!     .run();
//! assert!(report.stats.queries_checked > 0);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

use lancer_engine::{BugId, BugProfile, BugStatus, Dialect, Engine};
use lancer_sql::ast::stmt::{ColumnConstraint, Statement, StatementKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::gen::{GenConfig, StateGenerator};
use crate::oracle::{Cadence, Oracle, OracleCtx, OracleRegistry, ReproSpec, RngStream};
use crate::qpg::{PlanCoverage, PlanGuide, QpgConfig};
use crate::reduce::{reduce_hierarchical, ReduceOptions, ReductionStats};
use crate::replay::{DifferentialJudge, ReplayCache, ReplaySession};

pub use crate::oracle::DetectionKind;

/// A raw detection before reduction and attribution.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The registry name of the oracle that fired.
    pub oracle: &'static str,
    /// The error message (or a mismatch description).
    pub message: String,
    /// The statements executed so far, ending with the triggering statement.
    pub statements: Vec<Statement>,
    /// How to re-check the detection on a fresh engine.
    pub repro: ReproSpec,
}

impl Detection {
    /// The detection kind (Table 3 classification).
    #[must_use]
    pub fn kind(&self) -> DetectionKind {
        self.repro.kind()
    }
}

impl Serialize for Detection {
    fn to_value(&self) -> serde::Value {
        use serde::Value as J;
        let repro = match &self.repro {
            ReproSpec::MissingRow(row) => J::Object(vec![(
                "missing_row".to_owned(),
                J::Array(row.iter().map(|v| J::String(v.to_sql_literal())).collect()),
            )]),
            ReproSpec::UnexpectedError => J::String("unexpected_error".to_owned()),
            ReproSpec::Crash => J::String("crash".to_owned()),
            ReproSpec::PartitionMismatch { partitions } => J::Object(vec![(
                "partition_mismatch".to_owned(),
                J::Array(partitions.iter().map(|s| J::String(s.to_string())).collect()),
            )]),
            ReproSpec::PairMismatch { rewritten } => {
                J::Object(vec![("pair_mismatch".to_owned(), J::String(rewritten.to_string()))])
            }
            ReproSpec::SerialDivergence => J::String("serial_divergence".to_owned()),
        };
        J::Object(vec![
            ("oracle".to_owned(), J::String(self.oracle.to_owned())),
            ("kind".to_owned(), J::String(self.kind().label().to_owned())),
            ("message".to_owned(), J::String(self.message.clone())),
            (
                "statements".to_owned(),
                J::Array(self.statements.iter().map(|s| J::String(s.to_string())).collect()),
            ),
            ("repro".to_owned(), repro),
        ])
    }
}

/// A detection after reduction and attribution to an injected fault.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoundBug {
    /// The injected fault this detection reproduces.
    pub id: BugId,
    /// The oracle class that found it.
    pub kind: DetectionKind,
    /// The registry name of the oracle that found it.
    pub oracle: String,
    /// The tracker classification of the fault (drives Table 2).
    pub status: BugStatus,
    /// The reduced test case, as SQL text (one statement per line).
    pub reduced_sql: Vec<String>,
    /// The statement kinds appearing in the reduced test case (Figure 3).
    pub statement_kinds: Vec<StatementKind>,
    /// The error message or containment description.
    pub message: String,
}

impl FoundBug {
    /// Number of statements (≈ LOC) of the reduced test case (Figure 2).
    #[must_use]
    pub fn reduced_loc(&self) -> usize {
        self.reduced_sql.len()
    }
}

/// How an oracle was requested on the builder.
enum OracleSpec {
    Named(String),
    Instance(Box<dyn Oracle>),
}

/// Fluent builder for [`Campaign`]s.
///
/// Defaults: 30 databases, 60 queries per database, seed `0x5EED`, one
/// thread, the full fault profile of the dialect, and — when no oracle is
/// requested explicitly — the classic PQS pair (`error` + `containment`).
pub struct CampaignBuilder {
    dialect: Dialect,
    databases: usize,
    queries_per_database: usize,
    seed: u64,
    gen: GenConfig,
    threads: usize,
    bugs: Option<BugProfile>,
    registry: OracleRegistry,
    oracles: Vec<OracleSpec>,
    plan_guidance: bool,
    plan_observation: bool,
    qpg: QpgConfig,
    multi_session: bool,
    reduction: ReduceOptions,
}

impl CampaignBuilder {
    fn new(dialect: Dialect) -> CampaignBuilder {
        CampaignBuilder {
            dialect,
            databases: 30,
            queries_per_database: 60,
            seed: 0x5EED,
            gen: GenConfig::default(),
            threads: 1,
            bugs: None,
            registry: OracleRegistry::builtin(),
            oracles: Vec::new(),
            plan_guidance: false,
            plan_observation: false,
            qpg: QpgConfig::default(),
            multi_session: false,
            reduction: ReduceOptions::default(),
        }
    }

    /// Switches to the small test preset (8 databases, 30 queries, tiny
    /// generator) — the old `CampaignConfig::quick`.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.databases = 8;
        self.queries_per_database = 30;
        self.gen = GenConfig::tiny();
        self
    }

    /// Number of random databases to generate.
    #[must_use]
    pub fn databases(mut self, databases: usize) -> Self {
        self.databases = databases;
        self
    }

    /// Number of per-query oracle checks per database.
    #[must_use]
    pub fn queries(mut self, queries_per_database: usize) -> Self {
        self.queries_per_database = queries_per_database;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generator tuning.
    #[must_use]
    pub fn gen(mut self, gen: GenConfig) -> Self {
        self.gen = gen;
        self
    }

    /// Worker threads (each owns its databases, as in §3.4).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The fault profile (defaults to every fault of the dialect).
    #[must_use]
    pub fn bugs(mut self, bugs: BugProfile) -> Self {
        self.bugs = Some(bugs);
        self
    }

    /// Enables query-plan-guided state mutation (QPG, after Ba & Rigger):
    /// each worker fingerprints the plans of probe queries against the live
    /// catalog and, whenever a database yields no new plan for N
    /// consecutive probes, mutates the state with a plan-affecting
    /// statement (`CREATE INDEX` / `ANALYZE` / `DROP INDEX`) so subsequent
    /// oracle checks run against states the planner has not covered.
    ///
    /// **Defaults to off**, and off means *bit-identical*: the guidance
    /// machinery draws exclusively from a dedicated `qpg` RNG substream and
    /// executes nothing unless enabled, so default campaigns reproduce
    /// pre-QPG reports exactly at the same seed
    /// (`plan_guidance_off_is_bit_identical` guards this).
    #[must_use]
    pub fn plan_guidance(mut self, enabled: bool) -> Self {
        self.plan_guidance = enabled;
        self
    }

    /// Observation-only plan coverage: fingerprint probe-query plans (so
    /// [`CampaignStats::unique_plans`] is populated) without ever mutating
    /// state.  This is the unguided baseline the `table_qpg` bench compares
    /// against; oracle findings are unaffected.  Implied by
    /// [`plan_guidance`](CampaignBuilder::plan_guidance).
    #[must_use]
    pub fn plan_observation(mut self, enabled: bool) -> Self {
        self.plan_observation = enabled;
        self
    }

    /// Tunes the QPG stagnation threshold (N probes without a new plan
    /// before a mutation fires).  Only meaningful with
    /// [`plan_guidance`](CampaignBuilder::plan_guidance).
    #[must_use]
    pub fn plan_stagnation(mut self, threshold: usize) -> Self {
        self.qpg.stagnation_threshold = threshold.max(1);
        self
    }

    /// Enables multi-session transaction episodes: after each database is
    /// generated, the worker appends a deterministic interleaved
    /// `BEGIN`/DML/`COMMIT`/`ROLLBACK` episode across 2–3 logical sessions
    /// to the statement log, drawn from the worker's *primary* RNG stream
    /// (see [`StateGenerator::generate_txn_episode`]).  This is the state
    /// the `serializability` oracle checks.
    ///
    /// **Defaults to off**, and off means *bit-identical*: no extra RNG
    /// draws, no extra statements, so default campaigns reproduce
    /// pre-transaction reports exactly at the same seed.
    ///
    /// [`StateGenerator::generate_txn_episode`]: crate::gen::StateGenerator::generate_txn_episode
    #[must_use]
    pub fn multi_session(mut self, enabled: bool) -> Self {
        self.multi_session = enabled;
        self
    }

    /// Overrides which phases the hierarchical reducer runs.  By default
    /// every phase runs; [`ReduceOptions::statement_only`] recovers the
    /// PR-4-era statement-level reducer for before/after comparisons.
    #[must_use]
    pub fn reduction(mut self, options: ReduceOptions) -> Self {
        self.reduction = options;
        self
    }

    /// Replaces the oracle registry used to resolve
    /// [`oracle`](CampaignBuilder::oracle) names.
    #[must_use]
    pub fn registry(mut self, registry: OracleRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers an oracle by registry name (`"containment"`, `"error"`,
    /// `"tlp"`, or any name added to the registry).  Oracles run per
    /// database in the order they are registered.  Requesting the same
    /// name twice runs two instances — rarely what you want for a
    /// primary-stream oracle like containment, since both would draw from
    /// the shared worker stream.
    ///
    /// # Panics
    ///
    /// [`build`](CampaignBuilder::build) panics if the name is unknown to
    /// the registry.
    #[must_use]
    pub fn oracle(mut self, name: impl Into<String>) -> Self {
        self.oracles.push(OracleSpec::Named(name.into()));
        self
    }

    /// Registers a pre-constructed oracle instance (for oracles that are
    /// not in the registry, e.g. closures over extra state).
    #[must_use]
    pub fn oracle_instance(mut self, oracle: Box<dyn Oracle>) -> Self {
        self.oracles.push(OracleSpec::Instance(oracle));
        self
    }

    /// Registers every oracle of the registry, in canonical registry order
    /// (`error`, `containment`, `tlp`, `norec`, `serializability` for the
    /// builtin registry),
    /// skipping
    /// any oracle already requested by name — so combining it with explicit
    /// [`oracle`](CampaignBuilder::oracle) calls (or calling it twice)
    /// never duplicates an oracle.
    #[must_use]
    pub fn all_oracles(mut self) -> Self {
        let requested: BTreeSet<String> = self
            .oracles
            .iter()
            .map(|spec| match spec {
                OracleSpec::Named(name) => name.clone(),
                OracleSpec::Instance(oracle) => oracle.name().to_owned(),
            })
            .collect();
        let names: Vec<String> = self.registry.names().iter().map(|n| (*n).to_owned()).collect();
        for name in names {
            if !requested.contains(&name) {
                self.oracles.push(OracleSpec::Named(name));
            }
        }
        self
    }

    /// Builds the campaign, resolving named oracles through the registry.
    ///
    /// # Panics
    ///
    /// Panics when a requested oracle name is not in the registry.
    #[must_use]
    pub fn build(self) -> Campaign {
        let CampaignBuilder {
            dialect,
            databases,
            queries_per_database,
            seed,
            gen,
            threads,
            bugs,
            registry,
            oracles,
            plan_guidance,
            plan_observation,
            qpg,
            multi_session,
            reduction,
        } = self;
        let specs = if oracles.is_empty() {
            // The classic PQS pair, in the order the original runner used
            // (error oracle first per database).
            vec![OracleSpec::Named("error".to_owned()), OracleSpec::Named("containment".to_owned())]
        } else {
            oracles
        };
        let oracles: Vec<Box<dyn Oracle>> = specs
            .into_iter()
            .map(|spec| match spec {
                OracleSpec::Named(name) => {
                    registry.build(&name, dialect, &gen).unwrap_or_else(|| {
                        panic!(
                            "unknown oracle '{name}'; registered oracles: {:?}",
                            registry.names()
                        )
                    })
                }
                OracleSpec::Instance(oracle) => oracle,
            })
            .collect();
        Campaign {
            dialect,
            databases,
            queries_per_database,
            seed,
            gen,
            threads,
            bugs,
            oracles,
            plan_guidance,
            plan_observation,
            qpg,
            multi_session,
            reduction,
        }
    }

    /// Builds and runs the campaign.
    #[must_use]
    pub fn run(self) -> CampaignReport {
        self.build().run()
    }
}

/// A fully configured testing campaign over a set of registered oracles.
pub struct Campaign {
    dialect: Dialect,
    databases: usize,
    queries_per_database: usize,
    seed: u64,
    gen: GenConfig,
    threads: usize,
    bugs: Option<BugProfile>,
    oracles: Vec<Box<dyn Oracle>>,
    plan_guidance: bool,
    plan_observation: bool,
    qpg: QpgConfig,
    multi_session: bool,
    reduction: ReduceOptions,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("dialect", &self.dialect)
            .field("databases", &self.databases)
            .field("queries_per_database", &self.queries_per_database)
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("oracles", &self.oracle_names())
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Starts building a campaign for the dialect.
    #[must_use]
    pub fn builder(dialect: Dialect) -> CampaignBuilder {
        CampaignBuilder::new(dialect)
    }

    /// The dialect under test.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The registry names of the oracles this campaign runs, in order.
    #[must_use]
    pub fn oracle_names(&self) -> Vec<&'static str> {
        self.oracles.iter().map(|o| o.name()).collect()
    }

    fn profile(&self) -> BugProfile {
        self.bugs.unwrap_or_else(|| BugProfile::all_for(self.dialect))
    }

    /// Runs the campaign: generation, oracle checks, reduction and
    /// attribution.
    #[must_use]
    pub fn run(&self) -> CampaignReport {
        let started = Instant::now();
        let profile = self.profile();
        let threads = self.threads.max(1);
        // Raw detections grouped by generated database, in worker order.
        let mut raw: Vec<Vec<Detection>> = Vec::new();
        let mut stats = CampaignStats::default();
        let mut coverage = lancer_engine::Coverage::new();

        // Counter baseline: oracle counters are cumulative interior-
        // mutability sums on shared instances, so `run()` (which takes
        // `&self` and is re-runnable) folds only the *delta* accrued by
        // this run — a second run of the same campaign reports identical
        // counter stats instead of doubled ones.
        let counter_baseline: Vec<Vec<(&'static str, u64)>> =
            self.oracles.iter().map(|o| o.counters()).collect();
        let results: Vec<_> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                // The first `databases % threads` workers take one
                // extra database, so the split sums to `databases`.
                let databases =
                    self.databases / threads + usize::from(t < self.databases % threads);
                handles.push(scope.spawn(move || self.run_worker(&profile, t as u64, databases)));
            }
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let mut plan_coverage = PlanCoverage::new();
        for (mut detections, s, c, p) in results {
            raw.append(&mut detections);
            stats.statements_executed += s.statements_executed;
            stats.queries_checked += s.queries_checked;
            stats.containment_violations += s.containment_violations;
            stats.unexpected_errors += s.unexpected_errors;
            stats.crashes += s.crashes;
            stats.tlp_violations += s.tlp_violations;
            stats.norec_violations += s.norec_violations;
            stats.serializability_violations += s.serializability_violations;
            stats.plan_mutations += s.plan_mutations;
            stats.cow_table_copies += s.cow_table_copies;
            stats.cow_row_block_copies += s.cow_row_block_copies;
            stats.workspace_rewinds += s.workspace_rewinds;
            // The earliest point (in per-query checks) at which *any*
            // worker raised its first detection — the "checks until first
            // finding" bug-finding-speed metric `table_qpg` reports.
            stats.first_detection_check =
                match (stats.first_detection_check, s.first_detection_check) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            coverage.merge(&c);
            plan_coverage.merge(&p);
        }
        stats.unique_plans = plan_coverage.unique_plans();
        // Per-oracle work counters (interior-mutability sums shared across
        // the workers, read once here as the delta over this run's
        // baseline).  The runner folds the counter names it has stats
        // fields for; unknown names are ignored — custom oracles wanting
        // their counters surfaced need a matching `CampaignStats` field.
        for (oracle, baseline) in self.oracles.iter().zip(&counter_baseline) {
            for (name, value) in oracle.counters() {
                let before =
                    baseline.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0);
                let delta = value.saturating_sub(before);
                match name {
                    "norec_pairs_checked" => stats.norec_pairs_checked += delta,
                    "norec_plan_divergences" => stats.norec_plan_divergences += delta,
                    "serial_episodes_checked" => stats.serial_episodes_checked += delta,
                    "serial_orders_tried" => stats.serial_orders_tried += delta,
                    _ => {}
                }
            }
        }

        // Reduction + attribution + deduplication.  Deduplication is
        // per-domain (see [`DetectionKind::dedup_domain`]): the PQS kinds
        // share one `seen` set — preserving the original runner's
        // first-detection-wins semantics bit for bit — while each
        // independent logic oracle deduplicates on its own, so its
        // presence never changes the other columns of Table 3.
        //
        // Every replay here — the spurious filter, each delta-debugging
        // candidate, each per-fault attribution run — goes through a
        // [`ReplayCache`]: candidates are index subsets of the detection
        // log, and a replay resumes from the deepest snapshot whose
        // statement-log prefix it shares.  Detections from the same
        // generated database share their whole generation log, those of
        // different databases share none, so the cache is cleared before
        // each database's detections and its snapshot bound is spent on
        // prefixes that can still recur.  Verdicts are bit-identical to
        // fresh replays; only the cost changes.
        let mut cache = ReplayCache::new(self.dialect);
        // Copy-on-write and rewind counters are cumulative thread-locals;
        // sample them around the post-processing loop so the runner's own
        // replay work is attributed alongside the workers' deltas.
        let cow_before = lancer_storage::cow_stats();
        let rewinds_before = lancer_engine::workspace_rewinds();
        let mut found: Vec<FoundBug> = Vec::new();
        let mut seen: BTreeMap<&'static str, BTreeSet<BugId>> = BTreeMap::new();
        let none = BugProfile::none();
        let mut reduction_totals = ReductionStats::default();
        for database in raw {
            cache.clear();
            for detection in database {
                let mut session =
                    ReplaySession::new(&mut cache, detection.oracle, &detection.statements);
                // Discard detections that also "reproduce" without any fault:
                // those indicate oracle divergence, the analogue of a false bug
                // report.
                if session.reproduces_all(&none, &detection.repro) {
                    stats.spurious += 1;
                    continue;
                }
                if !session.reproduces_all(&profile, &detection.repro) {
                    // Not deterministic enough to analyse (e.g. depends on
                    // statement counters); skip rather than misattribute.
                    stats.unreproducible += 1;
                    continue;
                }
                // The reduction predicate is differential: the candidate must
                // still fail with the faults enabled *and* pass on the
                // fault-free engine.  Without the second condition the reducer
                // could drop the statements that make the pivot row exist in
                // the first place (or shrink an expression until the query
                // fails everywhere).  Candidates that orphan half of a
                // BEGIN/COMMIT/ROLLBACK pair are rejected up front: reduced
                // multi-session scripts keep transactions whole or drop them
                // whole (trivially true for transaction-free logs).
                let statement_stage = {
                    let judge = DifferentialJudge::new(
                        &mut cache,
                        detection.oracle,
                        &profile,
                        &detection.repro,
                    );
                    let options =
                        ReduceOptions { expression_pass: false, ..self.reduction.clone() };
                    reduce_hierarchical(&detection.statements, &options, &judge)
                };
                let mut detection_stats = statement_stage.stats;
                let statement_reduced = statement_stage.statements;
                // Attribution runs over the statement-level reduction, before
                // any expression rewriting: which bugs a detection witnesses
                // must not depend on how aggressively its predicates are
                // shrunk afterwards.
                let mut session =
                    ReplaySession::new(&mut cache, detection.oracle, &statement_reduced);
                let domain_seen = seen.entry(detection.kind().dedup_domain()).or_default();
                let mut attributed: Vec<BugId> = Vec::new();
                for bug in profile.iter() {
                    if domain_seen.contains(&bug) {
                        continue;
                    }
                    let single = BugProfile::with(&[bug]);
                    if session.reproduces_all(&single, &detection.repro) {
                        attributed.push(bug);
                    }
                }
                if attributed.is_empty() {
                    reduction_totals.absorb(&detection_stats);
                    stats.duplicates += 1;
                    continue;
                }
                // The expression pass then shrinks the surviving statements
                // with every attributed single-fault profile pinned into the
                // judge, so the final repro still witnesses each reported bug
                // on its own.
                let reduced = if self.reduction.expression_pass {
                    let expr_stage = {
                        let mut judge = DifferentialJudge::new(
                            &mut cache,
                            detection.oracle,
                            &profile,
                            &detection.repro,
                        );
                        for &bug in &attributed {
                            judge = judge.require(BugProfile::with(&[bug]));
                        }
                        let options = ReduceOptions {
                            session_pass: false,
                            statement_pass: false,
                            ..ReduceOptions::default()
                        };
                        reduce_hierarchical(&statement_reduced, &options, &judge)
                    };
                    detection_stats.statement_candidates += expr_stage.stats.statement_candidates;
                    detection_stats.expression_candidates += expr_stage.stats.expression_candidates;
                    detection_stats.memo_hits += expr_stage.stats.memo_hits;
                    detection_stats.wall_ms += expr_stage.stats.wall_ms;
                    detection_stats.expr_nodes_after = expr_stage.stats.expr_nodes_after;
                    expr_stage.statements
                } else {
                    statement_reduced
                };
                reduction_totals.absorb(&detection_stats);
                for bug in attributed {
                    domain_seen.insert(bug);
                    found.push(FoundBug {
                        id: bug,
                        kind: detection.kind(),
                        oracle: detection.oracle.to_owned(),
                        status: bug.info().status,
                        reduced_sql: reduced.iter().map(ToString::to_string).collect(),
                        statement_kinds: reduced.iter().map(|s| s.kind()).collect(),
                        message: detection.message.clone(),
                    });
                }
            }
        }
        let cow = lancer_storage::cow_stats().since(cow_before);
        stats.cow_table_copies += cow.table_copies;
        stats.cow_row_block_copies += cow.row_block_copies;
        stats.workspace_rewinds += lancer_engine::workspace_rewinds() - rewinds_before;
        stats.unattributed = stats.unreproducible + stats.duplicates;
        let replay = cache.stats();
        stats.replay_statements_executed = replay.statements_replayed;
        stats.replay_statements_skipped = replay.statements_skipped;
        stats.replay_prefix_hits = replay.prefix_hits;
        stats.replay_snapshots_taken = replay.snapshots_taken;
        stats.replay_snapshot_evictions = replay.snapshots_evicted;
        // Reducer-level memo hits are verdicts served without any replay,
        // the same economy the replay cache's verdict memo provides one
        // layer down — surface them in the same counter.
        stats.replay_verdict_hits = replay.verdict_hits + reduction_totals.memo_hits;
        stats.reduction_wall_ms = reduction_totals.wall_ms;
        stats.reduction_candidates_evaluated = reduction_totals.candidates_evaluated();
        stats.reduction_memo_hits = reduction_totals.memo_hits;
        stats.reduction_session_candidates = reduction_totals.session_candidates;
        stats.reduction_statement_candidates = reduction_totals.statement_candidates;
        stats.reduction_expression_candidates = reduction_totals.expression_candidates;
        stats.reduction_statements_before = reduction_totals.statements_before;
        stats.reduction_statements_after_sessions = reduction_totals.statements_after_sessions;
        stats.reduction_statements_after = reduction_totals.statements_after;
        stats.reduction_expr_nodes_before = reduction_totals.expr_nodes_before;
        stats.reduction_expr_nodes_after_statements = reduction_totals.expr_nodes_after_statements;
        stats.reduction_expr_nodes_after = reduction_totals.expr_nodes_after;

        stats.elapsed_ms = started.elapsed().as_millis().max(1);
        stats.coverage_fraction = coverage.fraction();
        CampaignReport {
            dialect: self.dialect,
            oracles: self.oracle_names().iter().map(|n| (*n).to_owned()).collect(),
            found,
            stats,
        }
    }

    fn run_worker(
        &self,
        profile: &BugProfile,
        worker: u64,
        databases: usize,
    ) -> (Vec<Vec<Detection>>, CampaignStats, lancer_engine::Coverage, PlanCoverage) {
        let worker_seed = self.seed ^ (worker.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(worker_seed);
        // Derived-stream oracles get substreams keyed by `(seed, worker,
        // oracle name)` — NOT by registration position, so an oracle's
        // stream is stable no matter where in the list it sits or what
        // else is registered.  Only a *repeat* of the same name mixes in
        // its per-name occurrence count, to keep duplicate instances from
        // sharing a stream.
        let mut occurrences: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut derived: Vec<Option<StdRng>> = self
            .oracles
            .iter()
            .map(|o| {
                let occurrence = occurrences.entry(o.name()).or_insert(0);
                let stream = match o.rng_stream() {
                    RngStream::Primary => None,
                    RngStream::Derived => Some(StdRng::seed_from_u64(
                        worker_seed
                            ^ fnv1a(o.name())
                                .wrapping_add(occurrence.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )),
                };
                *occurrence += 1;
                stream
            })
            .collect();
        // The QPG guide (if any) draws from its own substreams, derived
        // like oracle substreams but under the reserved names "qpg"
        // (probe generation) and "qpg-mutate" (state mutations), so its
        // presence never perturbs generation or any oracle stream — and
        // guided campaigns share the exact probe sequence with the
        // observation-only baseline.
        let mut guide = (self.plan_guidance || self.plan_observation).then(|| {
            (
                PlanGuide::new(self.qpg.clone()),
                StdRng::seed_from_u64(worker_seed ^ fnv1a("qpg")),
                StdRng::seed_from_u64(worker_seed ^ fnv1a("qpg-mutate")),
            )
        });
        // One entry per generated database, so triage can scope its
        // replay cache to one database's detections.
        let mut detections = Vec::new();
        let mut stats = CampaignStats::default();
        let mut coverage = lancer_engine::Coverage::new();
        let cow_before = lancer_storage::cow_stats();
        let rewinds_before = lancer_engine::workspace_rewinds();
        for _ in 0..databases {
            let mut database_detections = Vec::new();
            let mut engine = Engine::with_bugs(self.dialect, *profile);
            let mut generator = StateGenerator::new(self.dialect, self.gen.clone());
            let (mut log, mut failures) = generator.generate_database(&mut rng, &mut engine);
            if self.multi_session {
                let (episode_log, episode_failures) =
                    generator.generate_txn_episode(&mut rng, &mut engine);
                log.extend(episode_log);
                failures.extend(episode_failures);
            }
            if let Some((guide, _, _)) = guide.as_mut() {
                guide.start_database();
            }
            for (i, oracle) in self.oracles.iter().enumerate() {
                let runs = match oracle.cadence() {
                    Cadence::PerDatabase => 1,
                    Cadence::PerQuery => self.queries_per_database,
                };
                for _ in 0..runs {
                    if oracle.cadence() == Cadence::PerQuery {
                        stats.queries_checked += 1;
                    }
                    let report = {
                        let ctx = OracleCtx {
                            dialect: self.dialect,
                            gen: &self.gen,
                            log: &log,
                            failures: &failures,
                        };
                        match derived[i].as_mut() {
                            Some(substream) => oracle.check(substream, &mut engine, &ctx),
                            None => oracle.check(&mut rng, &mut engine, &ctx),
                        }
                    };
                    for witness in report.witnesses() {
                        match witness.kind() {
                            DetectionKind::Containment => stats.containment_violations += 1,
                            DetectionKind::Error => stats.unexpected_errors += 1,
                            DetectionKind::Crash => stats.crashes += 1,
                            DetectionKind::Tlp => stats.tlp_violations += 1,
                            DetectionKind::Norec => stats.norec_violations += 1,
                            DetectionKind::Serializability => {
                                stats.serializability_violations += 1;
                            }
                        }
                        if stats.first_detection_check.is_none() {
                            stats.first_detection_check = Some(stats.queries_checked);
                        }
                        let mut statements = log.clone();
                        statements.push(witness.trigger.clone());
                        database_detections.push(Detection {
                            oracle: oracle.name(),
                            message: witness.message.clone(),
                            statements,
                            repro: witness.repro.clone(),
                        });
                    }
                    // QPG step between query slots: observe a probe plan
                    // and — in full guidance mode — mutate the state once
                    // the plan stream stagnates, so the *remaining* checks
                    // of this database run against a fresh plan space.
                    // Mutations land in `log`, keeping every later
                    // detection's reproduction script complete.
                    if oracle.cadence() == Cadence::PerQuery {
                        if let Some((guide, probe_rng, mutation_rng)) = guide.as_mut() {
                            let step = if self.plan_guidance {
                                guide.guide(
                                    probe_rng,
                                    mutation_rng,
                                    &mut engine,
                                    &mut generator,
                                    &self.gen,
                                    &mut log,
                                )
                            } else {
                                guide.observe(probe_rng, &engine, &self.gen)
                            };
                            if step.mutated {
                                stats.plan_mutations += 1;
                            }
                        }
                    }
                }
            }
            stats.statements_executed += engine.statements_executed();
            coverage.merge(engine.coverage());
            detections.push(database_detections);
        }
        let cow = lancer_storage::cow_stats().since(cow_before);
        stats.cow_table_copies = cow.table_copies;
        stats.cow_row_block_copies = cow.row_block_copies;
        stats.workspace_rewinds = lancer_engine::workspace_rewinds() - rewinds_before;
        let plan_coverage =
            guide.map(|(g, _, _)| g.coverage().clone()).unwrap_or_else(PlanCoverage::new);
        (detections, stats, coverage, plan_coverage)
    }
}

fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Aggregate statistics of a campaign.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Total SQL statements executed against the engine.
    pub statements_executed: u64,
    /// Per-query oracle checks performed (containment + TLP + any other
    /// per-query oracle).
    pub queries_checked: u64,
    /// Raw containment violations observed (before dedup).
    pub containment_violations: u64,
    /// Raw unexpected errors observed (before dedup).
    pub unexpected_errors: u64,
    /// Raw crashes observed (before dedup).
    pub crashes: u64,
    /// Raw TLP partition mismatches observed (before dedup).
    pub tlp_violations: u64,
    /// Raw NoREC pair mismatches observed (before dedup).
    pub norec_violations: u64,
    /// Raw serializability violations observed (before dedup); 0 unless
    /// the `serializability` oracle is registered and multi-session
    /// episodes are enabled.
    pub serializability_violations: u64,
    /// Multi-session episodes the serializability oracle decomposed and
    /// checked against serial orders.
    pub serial_episodes_checked: u64,
    /// Serial orders (commit-order permutations) the serializability
    /// oracle replayed across all checked episodes.
    pub serial_orders_tried: u64,
    /// NoREC pairs where both sides executed and their counts were
    /// compared (0 unless the `norec` oracle is registered).
    pub norec_pairs_checked: u64,
    /// Compared NoREC pairs whose plan fingerprints diverged — the rewrite
    /// demonstrably disabled an access-path choice (SEARCH vs SCAN).
    pub norec_plan_divergences: u64,
    /// The number of per-query oracle checks a worker had performed when
    /// the campaign's first raw detection appeared (minimum across
    /// workers); `None` when the campaign found nothing.  This is the
    /// "checks until first finding" bug-finding-speed metric.
    pub first_detection_check: Option<u64>,
    /// Detections that also reproduce with every fault disabled (oracle
    /// divergence); they are discarded, mirroring false bug reports.
    pub spurious: u64,
    /// Non-spurious detections that attribute no new bug:
    /// `unreproducible + duplicates`.
    pub unattributed: u64,
    /// Detections that do not reproduce when their log is replayed with
    /// every fault enabled (the trigger depends on more than the log).
    pub unreproducible: u64,
    /// Reduced detections that no single fault outside their dedup
    /// domain's reported set reproduces: a bug found before, or one that
    /// needs several faults at once.
    pub duplicates: u64,
    /// Distinct plan fingerprints observed across all workers (0 unless
    /// plan observation or guidance is enabled).
    pub unique_plans: u64,
    /// QPG state mutations executed (0 unless plan guidance is enabled).
    pub plan_mutations: u64,
    /// Setup statements executed during reduction/attribution replays.
    pub replay_statements_executed: u64,
    /// Setup statements the prefix-keyed [`ReplayCache`] served from a
    /// snapshot instead of re-executing.
    pub replay_statements_skipped: u64,
    /// Reduction/attribution replays answered entirely from the replay
    /// cache's verdict memo (no statement executed at all), including
    /// candidates the hierarchical reducer's per-reduction memo absorbed.
    pub replay_verdict_hits: u64,
    /// Replays that resumed from a cached prefix snapshot instead of
    /// building a fresh engine.
    pub replay_prefix_hits: u64,
    /// Prefix snapshots the replay cache retained.
    pub replay_snapshots_taken: u64,
    /// Prefix snapshots the replay cache refused because it was full.
    /// Nothing is evicted: a full cache keeps the snapshots it has.
    pub replay_snapshot_evictions: u64,
    /// Shared tables deep-copied on first write — the copy-on-write
    /// storage's unshare count across generation, oracle checks and
    /// post-processing replays (worker threads and the runner's thread).
    pub cow_table_copies: u64,
    /// Shared row blocks deep-copied on first row write (the O(rows) cost
    /// a snapshot defers until a statement actually writes the table).
    pub cow_row_block_copies: u64,
    /// Workspace rewinds ([`lancer_engine::Engine::rewind_to`] resumes,
    /// chiefly the serializability oracle's permutation search).
    pub workspace_rewinds: u64,
    /// Wall-clock spent inside the hierarchical reducer, in milliseconds,
    /// summed over all detections.
    pub reduction_wall_ms: u128,
    /// Reduction candidates actually judged (replayed), across all phases
    /// and detections.
    pub reduction_candidates_evaluated: u64,
    /// Reduction candidates answered from the per-reduction memo without
    /// judging.
    pub reduction_memo_hits: u64,
    /// Candidates judged by the session/transaction-unit pass.
    pub reduction_session_candidates: u64,
    /// Candidates judged by statement-level ddmin.
    pub reduction_statement_candidates: u64,
    /// Candidates judged by the expression-level shrink pass.
    pub reduction_expression_candidates: u64,
    /// Statements entering reduction, summed over all reduced detections.
    pub reduction_statements_before: u64,
    /// Statements surviving the session/transaction-unit pass.
    pub reduction_statements_after_sessions: u64,
    /// Statements surviving statement-level ddmin (the expression pass
    /// never changes statement counts).
    pub reduction_statements_after: u64,
    /// Expression nodes entering reduction.
    pub reduction_expr_nodes_before: u64,
    /// Expression nodes after statement-level ddmin, before the
    /// expression pass.
    pub reduction_expr_nodes_after_statements: u64,
    /// Expression nodes in the reduced repros.
    pub reduction_expr_nodes_after: u64,
    /// Wall-clock duration in milliseconds.
    pub elapsed_ms: u128,
    /// Feature-coverage fraction reached on the engine (Table 4 analogue).
    pub coverage_fraction: f64,
}

impl CampaignStats {
    /// Statements per second achieved by the campaign (§3.4 reports
    /// 5,000–20,000 for SQLancer).
    #[must_use]
    pub fn statements_per_second(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return 0.0;
        }
        self.statements_executed as f64 * 1000.0 / self.elapsed_ms as f64
    }
}

/// The result of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The dialect that was tested.
    pub dialect: Dialect,
    /// The registry names of the oracles that ran, in order.
    pub oracles: Vec<String>,
    /// Deduplicated, attributed findings.
    pub found: Vec<FoundBug>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
}

impl CampaignReport {
    /// Table 2: findings grouped by tracker classification.  A fault found
    /// by several oracles counts once (it would be one bug report).
    #[must_use]
    pub fn table2_counts(&self) -> BTreeMap<BugStatus, usize> {
        let mut counted: BTreeSet<BugId> = BTreeSet::new();
        let mut out = BTreeMap::new();
        for f in &self.found {
            if counted.insert(f.id) {
                *out.entry(f.status).or_insert(0) += 1;
            }
        }
        out
    }

    /// Table 3: *true* bugs grouped by the oracle class that found them.
    #[must_use]
    pub fn table3_counts(&self) -> BTreeMap<DetectionKind, usize> {
        let mut out = BTreeMap::new();
        for f in self.found.iter().filter(|f| f.status.is_true_bug()) {
            *out.entry(f.kind).or_insert(0) += 1;
        }
        out
    }

    /// Figure 2: the reduced test-case lengths of all findings.
    #[must_use]
    pub fn reduced_lengths(&self) -> Vec<usize> {
        self.found.iter().map(FoundBug::reduced_loc).collect()
    }

    /// Figure 3: for each statement kind, the fraction of findings whose
    /// reduced test case contains it, together with the number of findings
    /// where a statement of that kind was the *triggering* (last) statement,
    /// per oracle.
    #[must_use]
    pub fn statement_distribution(&self) -> Vec<StatementDistributionRow> {
        let total = self.found.len().max(1) as f64;
        let mut per_kind: BTreeMap<StatementKind, StatementDistributionRow> = BTreeMap::new();
        for f in &self.found {
            let kinds: BTreeSet<StatementKind> = f.statement_kinds.iter().copied().collect();
            for k in kinds {
                per_kind.entry(k).or_insert_with(|| StatementDistributionRow::new(k)).containing +=
                    1;
            }
            if let Some(last) = f.statement_kinds.last() {
                let row =
                    per_kind.entry(*last).or_insert_with(|| StatementDistributionRow::new(*last));
                match f.kind {
                    DetectionKind::Containment => row.triggered_contains += 1,
                    DetectionKind::Error => row.triggered_error += 1,
                    DetectionKind::Crash => row.triggered_crash += 1,
                    DetectionKind::Tlp => row.triggered_tlp += 1,
                    DetectionKind::Norec => row.triggered_norec += 1,
                    DetectionKind::Serializability => row.triggered_serial += 1,
                }
            }
        }
        let mut rows: Vec<StatementDistributionRow> = per_kind.into_values().collect();
        for r in &mut rows {
            r.fraction = r.containing as f64 / total;
        }
        rows.sort_by(|a, b| {
            b.fraction.partial_cmp(&a.fraction).unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    /// §4.3 column-constraint statistics: the fraction of findings whose
    /// reduced test case uses UNIQUE, PRIMARY KEY, CREATE INDEX and FOREIGN
    /// KEY constructs.
    #[must_use]
    pub fn constraint_stats(&self) -> ConstraintStats {
        let total = self.found.len().max(1) as f64;
        let mut unique = 0usize;
        let mut primary_key = 0usize;
        let mut create_index = 0usize;
        for f in &self.found {
            let mut has_unique = false;
            let mut has_pk = false;
            let mut has_index = false;
            for sql in &f.reduced_sql {
                if let Ok(stmt) = lancer_sql::parse_statement(sql) {
                    match &stmt {
                        Statement::CreateTable(ct) => {
                            for c in &ct.columns {
                                has_unique |= c
                                    .constraints
                                    .iter()
                                    .any(|cc| matches!(cc, ColumnConstraint::Unique));
                                has_pk |= c.has_primary_key();
                            }
                            has_pk |= ct.constraints.iter().any(|tc| {
                                matches!(tc, lancer_sql::ast::stmt::TableConstraint::PrimaryKey(_))
                            });
                            has_unique |= ct.constraints.iter().any(|tc| {
                                matches!(tc, lancer_sql::ast::stmt::TableConstraint::Unique(_))
                            });
                        }
                        Statement::CreateIndex(ci) => {
                            has_index = true;
                            has_unique |= ci.unique;
                        }
                        _ => {}
                    }
                }
            }
            unique += usize::from(has_unique);
            primary_key += usize::from(has_pk);
            create_index += usize::from(has_index);
        }
        ConstraintStats {
            unique_fraction: unique as f64 / total,
            primary_key_fraction: primary_key as f64 / total,
            create_index_fraction: create_index as f64 / total,
            foreign_key_fraction: 0.0,
        }
    }

    /// Mean reduced test-case length (the paper reports 3.71 LOC).
    #[must_use]
    pub fn mean_reduced_loc(&self) -> f64 {
        if self.found.is_empty() {
            return 0.0;
        }
        self.reduced_lengths().iter().sum::<usize>() as f64 / self.found.len() as f64
    }
}

/// One row of the Figure 3 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatementDistributionRow {
    /// The statement kind.
    pub kind: StatementKind,
    /// Number of findings whose reduced case contains this kind.
    pub containing: usize,
    /// Fraction of findings whose reduced case contains this kind.
    pub fraction: f64,
    /// Findings whose triggering statement was of this kind, per oracle.
    pub triggered_contains: usize,
    /// Triggering statement count for the error oracle.
    pub triggered_error: usize,
    /// Triggering statement count for crashes.
    pub triggered_crash: usize,
    /// Triggering statement count for the TLP oracle.
    pub triggered_tlp: usize,
    /// Triggering statement count for the NoREC oracle.
    pub triggered_norec: usize,
    /// Triggering statement count for the serializability oracle.
    pub triggered_serial: usize,
}

impl StatementDistributionRow {
    fn new(kind: StatementKind) -> Self {
        StatementDistributionRow {
            kind,
            containing: 0,
            fraction: 0.0,
            triggered_contains: 0,
            triggered_error: 0,
            triggered_crash: 0,
            triggered_tlp: 0,
            triggered_norec: 0,
            triggered_serial: 0,
        }
    }
}

/// §4.3 constraint statistics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConstraintStats {
    /// Fraction of findings using a `UNIQUE` constraint.
    pub unique_fraction: f64,
    /// Fraction of findings using a `PRIMARY KEY`.
    pub primary_key_fraction: f64,
    /// Fraction of findings using an explicit `CREATE INDEX`.
    pub create_index_fraction: f64,
    /// Fraction of findings using a `FOREIGN KEY` (not modelled: 0).
    pub foreign_key_fraction: f64,
}

/// Re-executes a test case on a fresh engine with the given fault profile
/// and reports whether the detection still reproduces according to its
/// [`ReproSpec`].
///
/// This is the uncached one-shot entry point; the campaign runner replays
/// through a [`ReplayCache`] instead, which resumes from memoized prefix
/// snapshots but returns the same verdicts (both end in
/// `replay::confirms`).
#[must_use]
pub fn reproduces(
    dialect: Dialect,
    profile: &BugProfile,
    statements: &[Statement],
    repro: &ReproSpec,
) -> bool {
    if statements.is_empty() {
        return false;
    }
    let mut engine = Engine::with_bugs(dialect, *profile);
    let (setup, last) = statements.split_at(statements.len() - 1);
    for stmt in setup {
        // Setup statements may legitimately fail after reduction removed
        // their prerequisites; keep going, mirroring SQLancer's reducer.
        let _ = engine.execute(stmt);
    }
    let setup_refs: Vec<&Statement> = setup.iter().collect();
    crate::replay::confirms(&mut engine, &setup_refs, &last[0], repro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::transactions_well_formed;
    use lancer_sql::value::Value;

    fn quick_campaign(dialect: Dialect) -> CampaignBuilder {
        Campaign::builder(dialect).quick()
    }

    #[test]
    fn campaign_on_a_correct_engine_finds_nothing() {
        let report =
            quick_campaign(Dialect::Sqlite).bugs(BugProfile::none()).databases(3).queries(20).run();
        assert!(report.found.is_empty(), "unexpected findings: {:#?}", report.found);
        assert!(report.stats.queries_checked > 0);
        assert!(report.stats.statements_executed > 0);
    }

    #[test]
    fn campaign_finds_injected_faults_in_sqlite_profile() {
        let report = quick_campaign(Dialect::Sqlite).databases(10).queries(40).run();
        assert!(!report.found.is_empty(), "expected at least one finding");
        assert_eq!(report.oracles, vec!["error", "containment"], "default oracle pair");
        // Every finding maps to a fault of the right dialect and its reduced
        // case is non-empty.
        for f in &report.found {
            assert_eq!(f.id.info().dialect, Dialect::Sqlite);
            assert!(!f.reduced_sql.is_empty());
            assert!(f.reduced_loc() <= 30);
        }
        // Dedup: each fault appears at most once per oracle domain.
        let ids: BTreeSet<BugId> = report.found.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), report.found.len());
        // Aggregations are consistent.
        let table2: usize = report.table2_counts().values().sum();
        assert_eq!(table2, ids.len());
        let table3: usize = report.table3_counts().values().sum();
        assert!(table3 <= report.found.len());
        assert!(report.mean_reduced_loc() >= 1.0);
        let dist = report.statement_distribution();
        assert!(!dist.is_empty());
    }

    #[test]
    fn reproduces_handles_empty_and_correct_cases() {
        assert!(!reproduces(
            Dialect::Sqlite,
            &BugProfile::none(),
            &[],
            &ReproSpec::UnexpectedError
        ));
        let stmts = lancer_sql::parse_script(
            "CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1); SELECT * FROM t0;",
        )
        .unwrap();
        assert!(
            !reproduces(
                Dialect::Sqlite,
                &BugProfile::none(),
                &stmts,
                &ReproSpec::MissingRow(vec![Value::Integer(1)])
            ),
            "the correct engine fetches the pivot row, so the detection does not reproduce"
        );
        assert!(
            reproduces(
                Dialect::Sqlite,
                &BugProfile::none(),
                &stmts,
                &ReproSpec::MissingRow(vec![Value::Integer(2)])
            ),
            "a wrong expected row reproduces even without faults, which the spurious filter catches"
        );
    }

    #[test]
    fn reproduces_checks_partition_mismatches() {
        let stmts = lancer_sql::parse_script(
            "CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1), (NULL); SELECT t0.c0 FROM t0;",
        )
        .unwrap();
        let partitions = lancer_sql::parse_script(
            "SELECT t0.c0 FROM t0 WHERE t0.c0 = 1;
             SELECT t0.c0 FROM t0 WHERE NOT (t0.c0 = 1);
             SELECT t0.c0 FROM t0 WHERE (t0.c0 = 1) IS NULL;",
        )
        .unwrap();
        assert!(
            !reproduces(
                Dialect::Sqlite,
                &BugProfile::none(),
                &stmts,
                &ReproSpec::PartitionMismatch { partitions: partitions.clone() }
            ),
            "a correct engine satisfies the partitioning property"
        );
        // Dropping one partition makes the union come up short, which the
        // spec must detect as a (synthetic) mismatch.
        assert!(reproduces(
            Dialect::Sqlite,
            &BugProfile::none(),
            &stmts,
            &ReproSpec::PartitionMismatch { partitions: partitions[..2].to_vec() }
        ));
    }

    #[test]
    fn replay_cache_absorbs_reduction_work() {
        let report = quick_campaign(Dialect::Sqlite).databases(10).queries(40).run();
        assert!(!report.found.is_empty(), "need detections for the cache to see replays");
        let s = &report.stats;
        assert!(
            s.replay_statements_skipped > 0,
            "prefix snapshots must absorb replay work (executed {}, skipped {})",
            s.replay_statements_executed,
            s.replay_statements_skipped,
        );
        assert!(
            s.replay_verdict_hits > 0,
            "repeated delta-debugging candidates must hit the verdict memo",
        );
    }

    #[test]
    fn worker_split_runs_exactly_the_requested_databases() {
        for (databases, threads) in [(7, 2), (3, 4), (1, 4)] {
            let report = quick_campaign(Dialect::Sqlite)
                .bugs(BugProfile::none())
                .databases(databases)
                .queries(5)
                .threads(threads)
                .run();
            assert_eq!(
                report.stats.queries_checked,
                databases as u64 * 5,
                "databases({databases}).threads({threads})"
            );
        }
    }

    #[test]
    fn multithreaded_campaign_matches_single_threaded_structure() {
        let report = quick_campaign(Dialect::Mysql).threads(2).databases(6).queries(20).run();
        assert_eq!(report.dialect, Dialect::Mysql);
        for f in &report.found {
            assert_eq!(f.id.info().dialect, Dialect::Mysql);
        }
        assert!(report.stats.statements_per_second() > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown oracle 'qpg-fuzz'")]
    fn unknown_oracle_names_panic_at_build() {
        let _ = Campaign::builder(Dialect::Sqlite).oracle("qpg-fuzz").build();
    }

    #[test]
    fn registering_logic_oracles_does_not_change_pqs_findings() {
        // The load-bearing property behind the Table 3 acceptance check:
        // adding derived-stream oracles (TLP *and* NoREC) leaves the
        // primary-stream oracles' detections (and thus the
        // Contains/Error/SEGFAULT columns) bit-identical at the same seed.
        let classic = quick_campaign(Dialect::Sqlite).databases(8).queries(30).run();
        let extended = quick_campaign(Dialect::Sqlite).databases(8).queries(30).all_oracles().run();
        assert_eq!(
            extended.oracles,
            vec!["error", "containment", "tlp", "norec", "serializability"]
        );
        let classic_pqs: Vec<(BugId, DetectionKind)> =
            classic.found.iter().map(|f| (f.id, f.kind)).collect();
        let extended_pqs: Vec<(BugId, DetectionKind)> = extended
            .found
            .iter()
            .filter(|f| f.kind.dedup_domain() == "pqs")
            .map(|f| (f.id, f.kind))
            .collect();
        assert_eq!(classic_pqs, extended_pqs);
        assert_eq!(classic.stats.containment_violations, extended.stats.containment_violations);
        assert_eq!(classic.stats.unexpected_errors, extended.stats.unexpected_errors);
        assert_eq!(classic.stats.crashes, extended.stats.crashes);
        assert_eq!(classic.stats.norec_pairs_checked, 0, "norec is not registered by default");
        // Without multi-session episodes there is nothing for the
        // serializability oracle to check: it skips every database and the
        // statement logs are bit-identical to the classic campaign's.
        assert_eq!(extended.stats.serializability_violations, 0);
        assert_eq!(extended.stats.serial_episodes_checked, 0);
    }

    #[test]
    fn registering_norec_does_not_change_tlp_findings_either() {
        // Derived substreams are keyed by oracle *name*, so adding NoREC
        // next to TLP leaves the TLP stream untouched as well.
        let with_tlp = quick_campaign(Dialect::Mysql).databases(8).queries(40).oracle("tlp").run();
        let with_both = quick_campaign(Dialect::Mysql)
            .databases(8)
            .queries(40)
            .oracle("tlp")
            .oracle("norec")
            .run();
        assert_eq!(with_tlp.stats.tlp_violations, with_both.stats.tlp_violations);
        let tlp_only: Vec<BugId> = with_tlp.found.iter().map(|f| f.id).collect();
        let tlp_of_both: Vec<BugId> =
            with_both.found.iter().filter(|f| f.kind == DetectionKind::Tlp).map(|f| f.id).collect();
        assert_eq!(tlp_only, tlp_of_both);
        assert!(with_both.stats.norec_pairs_checked > 0, "norec must actually check pairs");
    }

    #[test]
    fn derived_streams_are_position_independent() {
        // A derived-stream oracle's substream is keyed by name, not by its
        // slot in the registration list: shuffling the order changes
        // nothing about what each oracle generates (only the raw-detection
        // interleaving, which the per-domain dedup keeps separate anyway).
        let canonical = quick_campaign(Dialect::Mysql)
            .databases(8)
            .queries(40)
            .threads(2)
            .oracle("error")
            .oracle("containment")
            .oracle("tlp")
            .run();
        let shuffled = quick_campaign(Dialect::Mysql)
            .databases(8)
            .queries(40)
            .threads(2)
            .oracle("tlp")
            .oracle("error")
            .oracle("containment")
            .run();
        assert!(canonical.stats.tlp_violations > 0, "probe config must produce TLP hits");
        assert_eq!(canonical.stats.tlp_violations, shuffled.stats.tlp_violations);
        assert_eq!(canonical.stats.containment_violations, shuffled.stats.containment_violations);
        assert_eq!(canonical.stats.unexpected_errors, shuffled.stats.unexpected_errors);
        assert_eq!(canonical.stats.crashes, shuffled.stats.crashes);
    }

    #[test]
    fn rerunning_a_campaign_reports_identical_counter_stats() {
        // `run()` takes `&self`, so the same Campaign can run twice; the
        // cumulative oracle counters must be folded as per-run deltas or
        // the second report would double them.
        let campaign = quick_campaign(Dialect::Sqlite).all_oracles().build();
        let first = campaign.run();
        let second = campaign.run();
        assert!(first.stats.norec_pairs_checked > 0);
        assert_eq!(first.stats.norec_pairs_checked, second.stats.norec_pairs_checked);
        assert_eq!(first.stats.norec_plan_divergences, second.stats.norec_plan_divergences);
    }

    #[test]
    fn all_oracles_deduplicates_requested_names() {
        let combined =
            Campaign::builder(Dialect::Sqlite).oracle("containment").all_oracles().build();
        assert_eq!(
            combined.oracle_names(),
            vec!["containment", "error", "tlp", "norec", "serializability"]
        );
        let twice = Campaign::builder(Dialect::Sqlite).all_oracles().all_oracles().build();
        assert_eq!(
            twice.oracle_names(),
            vec!["error", "containment", "tlp", "norec", "serializability"]
        );
    }

    #[test]
    fn detections_serialize_to_json() {
        let stmts = lancer_sql::parse_script("CREATE TABLE t0(c0); SELECT t0.c0 FROM t0;").unwrap();
        let detection = Detection {
            oracle: "containment",
            message: "pivot row (1) not contained in the result set".into(),
            statements: stmts,
            repro: ReproSpec::MissingRow(vec![Value::Integer(1)]),
        };
        let json = serde_json::to_string(&detection).unwrap();
        let parsed = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.get("oracle").and_then(serde_json::Value::as_str), Some("containment"));
        assert_eq!(parsed.get("kind").and_then(serde_json::Value::as_str), Some("Contains"));
        assert_eq!(
            parsed.get("statements").and_then(serde_json::Value::as_array).map(<[_]>::len),
            Some(2)
        );
        let tlp = Detection {
            oracle: "tlp",
            message: "mismatch".into(),
            statements: vec![lancer_sql::parse_statement("SELECT 1").unwrap()],
            repro: ReproSpec::PartitionMismatch {
                partitions: lancer_sql::parse_script("SELECT 1; SELECT 2; SELECT 3;").unwrap(),
            },
        };
        let json = serde_json::to_string_pretty(&tlp).unwrap();
        let parsed = serde_json::from_str(&json).unwrap();
        assert_eq!(
            parsed
                .get("repro")
                .and_then(|r| r.get("partition_mismatch"))
                .and_then(serde_json::Value::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn multi_session_campaigns_find_each_transaction_fault() {
        // The tentpole acceptance check: with multi-session episodes on,
        // each dialect's injected transaction fault is found, attributed
        // and reduced end to end — and the reduced script never orphans a
        // transaction bracket.
        for (dialect, fault) in [
            (Dialect::Sqlite, BugId::SqliteTornRollbackIndexed),
            (Dialect::Mysql, BugId::MysqlLostUpdate),
            (Dialect::Postgres, BugId::PostgresSerialCounterSurvivesRollback),
            (Dialect::Duckdb, BugId::DuckdbCommitLaneAlignedPrefix),
        ] {
            let report = quick_campaign(dialect)
                .bugs(BugProfile::with(&[fault]))
                .multi_session(true)
                .oracle("serializability")
                .databases(40)
                .queries(1)
                .run();
            assert!(
                report.stats.serial_episodes_checked > 0,
                "{dialect:?}: no multi-session episodes were checked"
            );
            let found: Vec<&FoundBug> = report.found.iter().filter(|f| f.id == fault).collect();
            assert!(
                !found.is_empty(),
                "{dialect:?}: {fault:?} not found (violations: {}, episodes: {})",
                report.stats.serializability_violations,
                report.stats.serial_episodes_checked,
            );
            for f in found {
                assert_eq!(f.kind, DetectionKind::Serializability);
                assert_eq!(f.oracle, "serializability");
                let reduced: Vec<Statement> = f
                    .reduced_sql
                    .iter()
                    .map(|sql| {
                        lancer_sql::parse_statement(sql)
                            .unwrap_or_else(|e| panic!("reduced stmt must parse: {sql}: {e:?}"))
                    })
                    .collect();
                assert!(
                    transactions_well_formed(&reduced),
                    "{dialect:?}: reduced script orphans a bracket: {:?}",
                    f.reduced_sql
                );
            }
        }
    }

    #[test]
    fn multi_session_episodes_are_deterministic_across_runs() {
        // Episodes draw from the primary worker stream, so the same seed
        // yields the same interleaved logs — and thus identical stats.
        let a =
            quick_campaign(Dialect::Sqlite).multi_session(true).all_oracles().databases(6).run();
        let b =
            quick_campaign(Dialect::Sqlite).multi_session(true).all_oracles().databases(6).run();
        assert!(a.stats.serial_episodes_checked > 0);
        assert_eq!(a.stats.serial_episodes_checked, b.stats.serial_episodes_checked);
        assert_eq!(a.stats.serial_orders_tried, b.stats.serial_orders_tried);
        assert_eq!(a.stats.statements_executed, b.stats.statements_executed);
        assert_eq!(
            a.found.iter().map(|f| f.id).collect::<Vec<_>>(),
            b.found.iter().map(|f| f.id).collect::<Vec<_>>()
        );
    }
}
