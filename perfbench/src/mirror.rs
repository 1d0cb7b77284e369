//! The traced mirror of `Campaign::run` at one thread.
//!
//! It calls the same public functions the campaign runner calls, in the
//! same order and with the same RNG streams, and records a span around
//! each call.  If the runner's loop changes, the mirror's raw-detection
//! count, statement count or found set stops matching the real campaign;
//! the traced run reports that as `trace.mirror_match = 0` (the per-layer
//! split is then stale).
//!
//! On top of the runner's work, each database gets [`PROBES`] probe
//! queries drawn from their own `"bench-probe"` stream and timed through
//! `Engine::explain` and the read-only `Engine::query`, neither of which
//! changes the engine's state or statement clock.

use std::collections::{BTreeMap, BTreeSet};

use lancer_core::oracle::{Cadence, OracleCtx, OracleReport, RngStream};
use lancer_core::qpg::random_probe_query;
use lancer_core::Detection;
use lancer_core::{
    reduce_hierarchical, DifferentialJudge, FoundBug, Oracle, OracleRegistry, ReduceOptions,
    ReductionStats, ReplayCache, ReplayCacheStats, ReplaySession, StateGenerator,
};
use lancer_engine::{BugId, BugProfile, Dialect, Engine};
use lancer_sql::ast::stmt::Statement;
use lancer_storage::{cow_stats, CowStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::workload::{fnv1a, reparse, CampaignSpec, Reparse};

/// Probe queries planned and evaluated per generated database.
pub const PROBES: usize = 8;

/// Work counts of one oracle on one dialect.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCounts {
    /// Checks run.
    pub checks: u64,
    /// Checks that reported `OracleReport::Skipped`.
    pub skipped: u64,
    /// Bug witnesses reported.
    pub witnesses: u64,
}

/// Copy-on-write counts of one campaign phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CowCounts {
    /// Tables deep-copied on first write.
    pub table_copies: u64,
    /// Row blocks deep-copied on first row write.
    pub row_block_copies: u64,
}

impl CowCounts {
    fn add(&mut self, delta: CowStats) {
        self.table_copies += delta.table_copies;
        self.row_block_copies += delta.row_block_copies;
    }
}

/// Per-layer work counts accumulated over every traced campaign of a run.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Statements the generator executed.
    pub gen_statements: u64,
    /// Oracle counts keyed by (oracle name, dialect name).
    pub oracles: BTreeMap<(&'static str, &'static str), OracleCounts>,
    /// Probe queries planned and evaluated.
    pub probes: u64,
    /// Rows the probe queries returned.
    pub probe_rows_out: u64,
    /// Copy-on-write copies during generation.
    pub cow_gen: CowCounts,
    /// Copy-on-write copies during oracle checks.
    pub cow_oracle: CowCounts,
    /// Copy-on-write copies during triage (replay, reduce, attribute).
    pub cow_triage: CowCounts,
    /// Workspace rewinds over the whole campaign.
    pub workspace_rewinds: u64,
    /// Replay-cache counters, summed over campaigns.
    pub replay: ReplayCacheStats,
    /// Reducer counters, summed over reduced detections.
    pub reduction: ReductionStats,
    /// Raw detections.
    pub raw: u64,
    /// Raw detections that also reproduce without faults.
    pub spurious: u64,
    /// Detections that went through statement reduction and attribution.
    pub reduced: u64,
    /// Reduced detections that attributed no new bug.
    pub duplicates: u64,
    /// Single-fault profiles replayed during attribution.
    pub profiles_tried: u64,
    /// Found bugs.
    pub found: u64,
    /// Reduced repros that did not re-parse statement for statement.
    pub reparse_failures: u64,
    /// Reduced repros hitting the known `DEFAULT … COLLATE` rendering
    /// defect (see [`Reparse::DefaultCollate`]).
    pub reparse_default_collate: u64,
}

/// What a traced campaign produced, for reconciliation with
/// `Campaign::run`.
#[derive(Debug, Clone)]
pub struct MirrorOutcome {
    /// Raw detections.
    pub raw_detections: u64,
    /// `CampaignStats::statements_executed` equivalent.
    pub statements_executed: u64,
    /// Found bugs, in report order.
    pub found: Vec<FoundBug>,
}

fn add_replay(total: &mut ReplayCacheStats, s: ReplayCacheStats) {
    total.prefix_hits += s.prefix_hits;
    total.prefix_misses += s.prefix_misses;
    total.verdict_hits += s.verdict_hits;
    total.statements_replayed += s.statements_replayed;
    total.statements_skipped += s.statements_skipped;
    total.snapshots_taken += s.snapshots_taken;
    total.snapshots_evicted += s.snapshots_evicted;
}

/// Runs one campaign the way `Campaign::run` does at one thread, with
/// spans around every layer call.
///
/// # Panics
///
/// Panics when an oracle name of the spec is not in the registry.
pub fn run_traced(
    spec: &CampaignSpec,
    registry: &OracleRegistry,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> MirrorOutcome {
    let dialect = spec.dialect;
    let oracles: Vec<Box<dyn Oracle>> = spec
        .oracles
        .iter()
        .map(|name| registry.build(name, dialect, &spec.gen).expect("oracle is registered"))
        .collect();
    let profile = spec.bugs.clone();
    let rewinds_before = lancer_engine::workspace_rewinds();

    // Worker 0's stream layout, as in the runner.
    let worker_seed = spec.seed;
    let mut rng = StdRng::seed_from_u64(worker_seed);
    let mut occurrences: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut derived: Vec<Option<StdRng>> = oracles
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
    let mut probe_rng = StdRng::seed_from_u64(worker_seed ^ fnv1a("bench-probe"));

    let mut raw: Vec<Detection> = Vec::new();
    let mut statements_executed = 0u64;
    for db in 0..spec.databases as u64 {
        let cow_before = cow_stats();
        let (mut engine, log, failures) = tracer.span("gen.database", "", db, || {
            let mut engine = Engine::with_bugs(dialect, profile.clone());
            let mut generator = StateGenerator::new(dialect, spec.gen.clone());
            let (mut log, mut failures) = generator.generate_database(&mut rng, &mut engine);
            if spec.multi_session {
                let (episode_log, episode_failures) =
                    generator.generate_txn_episode(&mut rng, &mut engine);
                log.extend(episode_log);
                failures.extend(episode_failures);
            }
            (engine, log, failures)
        });
        counts.gen_statements += engine.statements_executed();
        counts.cow_gen.add(cow_stats().since(cow_before));

        for _ in 0..PROBES {
            let Some(query) = random_probe_query(&mut probe_rng, &engine, &spec.gen) else {
                break;
            };
            tracer.span("engine.plan", "", db, || engine.explain(&query));
            let stmt = Statement::Select(query);
            let ordinal = engine.statements_executed();
            let rows = tracer
                .span("engine.query", "", db, || engine.query(ordinal, &stmt))
                .map_or(0, |r| r.rows.len() as u64);
            counts.probes += 1;
            counts.probe_rows_out += rows;
        }

        let cow_before = cow_stats();
        for (i, oracle) in oracles.iter().enumerate() {
            let runs = match oracle.cadence() {
                Cadence::PerDatabase => 1,
                Cadence::PerQuery => spec.queries,
            };
            let slot = counts.oracles.entry((oracle.name(), dialect.name())).or_default();
            for _ in 0..runs {
                let report = {
                    let ctx = OracleCtx { dialect, gen: &spec.gen, log: &log, failures: &failures };
                    let stream = derived[i].as_mut().unwrap_or(&mut rng);
                    tracer.span("oracle", oracle.name(), db, || {
                        oracle.check(stream, &mut engine, &ctx)
                    })
                };
                slot.checks += 1;
                if report == OracleReport::Skipped {
                    slot.skipped += 1;
                }
                for witness in report.witnesses() {
                    slot.witnesses += 1;
                    let mut statements = log.clone();
                    statements.push(witness.trigger.clone());
                    raw.push(Detection {
                        oracle: oracle.name(),
                        message: witness.message.clone(),
                        statements,
                        repro: witness.repro.clone(),
                    });
                }
            }
        }
        counts.cow_oracle.add(cow_stats().since(cow_before));
        statements_executed += engine.statements_executed();
    }

    let raw_detections = raw.len() as u64;
    let cow_before = cow_stats();
    let (found, replay) = triage(dialect, &profile, raw, tracer, counts);
    counts.cow_triage.add(cow_stats().since(cow_before));
    counts.workspace_rewinds += lancer_engine::workspace_rewinds() - rewinds_before;
    add_replay(&mut counts.replay, replay);
    counts.raw += raw_detections;
    counts.found += found.len() as u64;
    MirrorOutcome { raw_detections, statements_executed, found }
}

/// The runner's post-processing: spurious filter, statement reduction,
/// attribution with per-domain dedup, expression reduction.
fn triage(
    dialect: Dialect,
    profile: &BugProfile,
    raw: Vec<Detection>,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> (Vec<FoundBug>, ReplayCacheStats) {
    let mut cache = ReplayCache::new(dialect);
    let mut found: Vec<FoundBug> = Vec::new();
    let mut seen: BTreeMap<&'static str, BTreeSet<BugId>> = BTreeMap::new();
    let none = BugProfile::none();
    let reduce_options = ReduceOptions { workers: 1, ..ReduceOptions::default() };
    for (request, detection) in raw.iter().enumerate() {
        let request = request as u64;
        let span = tracer.enter("triage.detection", "", request);
        let (spurious, reproduces) = tracer.span("replay.filter", "", request, || {
            let mut session =
                ReplaySession::new(&mut cache, detection.oracle, &detection.statements);
            if session.reproduces_all(&none, &detection.repro) {
                (true, false)
            } else {
                (false, session.reproduces_all(profile, &detection.repro))
            }
        });
        counts.spurious += u64::from(spurious);
        if spurious || !reproduces {
            tracer.exit(span);
            continue;
        }
        counts.reduced += 1;
        let statement_stage = tracer.span("reduce.statements", "", request, || {
            let judge =
                DifferentialJudge::new(&mut cache, detection.oracle, profile, &detection.repro);
            let options = ReduceOptions { expression_pass: false, ..reduce_options.clone() };
            reduce_hierarchical(&detection.statements, &options, &judge)
        });
        let mut detection_stats = statement_stage.stats;
        let statement_reduced = statement_stage.statements;
        let domain_seen = seen.entry(detection.kind().dedup_domain()).or_default();
        let attributed = tracer.span("runner.attribute", "", request, || {
            let mut session = ReplaySession::new(&mut cache, detection.oracle, &statement_reduced);
            let mut attributed: Vec<BugId> = Vec::new();
            for bug in profile.iter().filter(|bug| !domain_seen.contains(bug)) {
                counts.profiles_tried += 1;
                if session.reproduces_all(&BugProfile::with(&[bug]), &detection.repro) {
                    attributed.push(bug);
                }
            }
            attributed
        });
        if attributed.is_empty() {
            counts.reduction.absorb(&detection_stats);
            counts.duplicates += 1;
            tracer.exit(span);
            continue;
        }
        let expr_stage = tracer.span("reduce.expressions", "", request, || {
            let mut judge =
                DifferentialJudge::new(&mut cache, detection.oracle, profile, &detection.repro);
            for &bug in &attributed {
                judge = judge.require(BugProfile::with(&[bug]));
            }
            let options = ReduceOptions {
                session_pass: false,
                statement_pass: false,
                expression_pass: true,
                workers: reduce_options.workers,
            };
            reduce_hierarchical(&statement_reduced, &options, &judge)
        });
        detection_stats.statement_candidates += expr_stage.stats.statement_candidates;
        detection_stats.expression_candidates += expr_stage.stats.expression_candidates;
        detection_stats.memo_hits += expr_stage.stats.memo_hits;
        detection_stats.wall_ms += expr_stage.stats.wall_ms;
        detection_stats.expr_nodes_after = expr_stage.stats.expr_nodes_after;
        counts.reduction.absorb(&detection_stats);
        let reduced = expr_stage.statements;
        let reduced_sql: Vec<String> = tracer.span("sql.render_parse", "", request, || {
            let sql: Vec<String> = reduced.iter().map(ToString::to_string).collect();
            match reparse(&sql) {
                Reparse::Ok => {}
                Reparse::DefaultCollate => counts.reparse_default_collate += 1,
                Reparse::Failed(_) => counts.reparse_failures += 1,
            }
            sql
        });
        for bug in attributed {
            domain_seen.insert(bug);
            found.push(FoundBug {
                id: bug,
                kind: detection.kind(),
                oracle: detection.oracle.to_owned(),
                status: bug.info().status,
                reduced_sql: reduced_sql.clone(),
                statement_kinds: reduced.iter().map(Statement::kind).collect(),
                message: detection.message.clone(),
            });
        }
        tracer.exit(span);
    }
    (found, cache.stats())
}

/// The raw-detection count `Campaign::run` reports through its stats.
#[must_use]
pub fn raw_detections(stats: &lancer_core::CampaignStats) -> u64 {
    stats.containment_violations
        + stats.unexpected_errors
        + stats.crashes
        + stats.tlp_violations
        + stats.norec_violations
        + stats.serializability_violations
}
