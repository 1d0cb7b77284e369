//! The serializability oracle.
//!
//! Multi-session transaction episodes (see
//! [`StateGenerator::generate_txn_episode`]) interleave BEGIN / DML /
//! COMMIT / ROLLBACK across 2–3 logical sessions of one engine.  The
//! engine's transactions are serializable by construction — a COMMIT
//! replays the transaction's statement log against the shared state, so
//! the *commit order* is a serial order — which gives this oracle a crisp
//! correctness criterion without a second implementation:
//!
//! 1. a ROLLBACK'd session's effects must be invisible in the final
//!    state, and
//! 2. the final state must equal the state produced by replaying the
//!    committed sessions, in *some* serial order, through the engine
//!    with transaction control stripped (the reference path — plain
//!    statement execution, which never enters the transaction subsystem
//!    where the injected faults live).
//!
//! Criterion 2 subsumes criterion 1: a rolled-back session is simply
//! absent from every serial order.  The reference replay runs with the
//! *same* fault profile as the engine under test, so faults outside the
//! transaction subsystem cancel out and cannot masquerade as
//! serializability violations.
//!
//! With up to 4 committed sessions the oracle tries all (≤ 24) serial
//! orders; beyond that it conservatively reports the episode
//! serializable.
//!
//! [`StateGenerator::generate_txn_episode`]: crate::gen::StateGenerator::generate_txn_episode

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::stmt::{Statement, StatementKind};
use lancer_sql::value::ExactRow;
use rand::rngs::StdRng;

use crate::gen::GenConfig;
use crate::oracle::{BugWitness, Cadence, Oracle, OracleCtx, OracleReport, ReproSpec};

/// A digest of the shared database state: table name → rows, sorted per
/// table under the exact row order so the comparison is insensitive to
/// physical row order (serial orders insert rows in different sequences)
/// but tells apart values SQL equality merges, such as `1` and `1.0`.
pub type StateDigest = BTreeMap<String, Vec<ExactRow>>;

/// Digests every table's full contents in the engine's *shared* state
/// (open transaction workspaces are invisible here, exactly as they are
/// to other sessions).
#[must_use]
pub fn state_digest(engine: &Engine) -> StateDigest {
    let mut digest = StateDigest::new();
    for name in engine.database().table_names() {
        let mut rows: Vec<ExactRow> = engine
            .database()
            .table(&name)
            .map(|t| t.rows().map(|(_, r)| ExactRow(r.to_vec())).collect())
            .unwrap_or_default();
        rows.sort_unstable();
        digest.insert(name, rows);
    }
    digest
}

/// A multi-session statement log decomposed for the serial-order check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Episode {
    /// Statements executed outside any transaction before the episode
    /// began — the base state every serial order starts from.
    pub prefix: Vec<Statement>,
    /// One unit per committed transaction, in commit order, with the
    /// transaction control and session markers stripped.
    pub committed: Vec<Vec<Statement>>,
    /// Units that rolled back, or were still open when the log ended
    /// (an unpublished transaction looks exactly like a rollback from
    /// the shared state's point of view).
    pub rolled_back: Vec<Vec<Statement>>,
}

/// Decomposes a multi-session statement log into [`Episode`] units by
/// simulating the engine's session state machine: `SESSION <id>` switches
/// sessions, `BEGIN` opens a unit, `COMMIT` publishes it, `ROLLBACK`
/// discards it, and misuse (nested `BEGIN`, stray terminators) is a
/// no-op, mirroring the engine's per-dialect errors.
///
/// Returns `None` when the log cannot be represented as prefix + units:
/// a *write* statement outside any transaction after the episode began
/// takes effect at its interleaved position, which no serial-order
/// decomposition captures.  Read-only statements (`SELECT`, `EXPLAIN`)
/// are ignored wherever they appear.
#[must_use]
pub fn committed_units<'a, I>(log: I) -> Option<Episode>
where
    I: IntoIterator<Item = &'a Statement>,
{
    let mut episode = Episode::default();
    let mut open: BTreeMap<u32, Vec<Statement>> = BTreeMap::new();
    let mut current = 0u32;
    let mut begun = false;
    for stmt in log {
        match stmt {
            Statement::Session { id } => current = *id,
            Statement::Begin => {
                begun = true;
                open.entry(current).or_default();
            }
            Statement::Commit => {
                if let Some(unit) = open.remove(&current) {
                    episode.committed.push(unit);
                }
            }
            Statement::Rollback => {
                if let Some(unit) = open.remove(&current) {
                    episode.rolled_back.push(unit);
                }
            }
            other => {
                if let Some(unit) = open.get_mut(&current) {
                    unit.push(other.clone());
                } else if matches!(other.kind(), StatementKind::Select | StatementKind::Explain) {
                    // Read-only: cannot affect the digest.
                } else if begun {
                    return None;
                } else {
                    episode.prefix.push(other.clone());
                }
            }
        }
    }
    episode.rolled_back.extend(open.into_values());
    Some(episode)
}

/// All permutations of `0..n` (Heap's algorithm); `n == 0` yields the
/// single empty order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap(n.max(1), &mut items, &mut out);
    out
}

/// Checks whether `actual` equals the final state of *some* serial order
/// of the episode's committed units: one engine with the same fault
/// profile replays the prefix once, snapshots the workspace, then for
/// each permutation replays the units back to back — no transaction
/// control, so the faulty commit/rollback paths never run — digests the
/// result and rewinds to the snapshot.  Replaying via
/// [`Engine::execute_at`] presents each permutation with the exact
/// statement-counter sequence a fresh engine would see, so counter-keyed
/// faults fire identically while the prefix (usually the bulk of the
/// episode) executes only once.  Returns whether any order matched and
/// how many orders were replayed.  Episodes with more than 4 committed
/// units are conservatively reported serializable.
#[must_use]
pub fn serial_orders_match(
    dialect: Dialect,
    bugs: &BugProfile,
    episode: &Episode,
    actual: &StateDigest,
) -> (bool, u64) {
    if episode.committed.len() > 4 {
        return (true, 0);
    }
    let mut engine = Engine::with_bugs(dialect, *bugs);
    for stmt in &episode.prefix {
        let _ = engine.execute(stmt);
    }
    let base = engine.statements_executed();
    let start = engine.workspace_snapshot();
    let mut tried = 0;
    for order in permutations(episode.committed.len()) {
        tried += 1;
        let mut ordinal = base;
        for unit in order {
            for stmt in &episode.committed[unit] {
                let _ = engine.execute_at(ordinal, stmt);
                ordinal += 1;
            }
        }
        if state_digest(&engine) == *actual {
            return (true, tried);
        }
        engine.rewind_to(&start);
    }
    (false, tried)
}

/// The serializability oracle: decomposes the database's statement log
/// into a transaction episode and compares the final state against every
/// serial order of the committed sessions.
#[derive(Debug)]
pub struct SerializabilityOracle {
    /// The dialect under test.
    pub dialect: Dialect,
    /// Generation parameters (unused today; kept so the oracle's
    /// constructor matches the registry factory signature and future
    /// knobs have a home).
    pub config: GenConfig,
    /// Episodes decomposed and compared.
    episodes_checked: AtomicU64,
    /// Serial orders replayed across all episodes.
    orders_tried: AtomicU64,
}

impl SerializabilityOracle {
    /// Creates a serializability oracle.
    #[must_use]
    pub fn new(dialect: Dialect, config: GenConfig) -> Self {
        SerializabilityOracle {
            dialect,
            config,
            episodes_checked: AtomicU64::new(0),
            orders_tried: AtomicU64::new(0),
        }
    }

    /// Runs the serial-order check against a statement log, using the
    /// engine only for its fault profile: the *actual* state is
    /// reconstructed by replaying the full log (transaction control
    /// included) on a fresh engine, so the check is independent of
    /// whatever read-only queries other oracles have run since.
    pub fn check_log(&self, engine: &Engine, log: &[Statement]) -> OracleReport {
        if !log
            .iter()
            .any(|s| matches!(s, Statement::Begin | Statement::Commit | Statement::Rollback))
        {
            return OracleReport::Skipped;
        }
        let Some(episode) = committed_units(log) else { return OracleReport::Skipped };
        let bugs = engine.bugs();
        let mut replay = Engine::with_bugs(self.dialect, *bugs);
        for stmt in log {
            let _ = replay.execute(stmt);
        }
        let actual = state_digest(&replay);
        self.episodes_checked.fetch_add(1, Ordering::Relaxed);
        let (matched, tried) = serial_orders_match(self.dialect, bugs, &episode, &actual);
        self.orders_tried.fetch_add(tried, Ordering::Relaxed);
        if matched {
            OracleReport::Passed
        } else {
            OracleReport::bug(BugWitness {
                trigger: lancer_sql::parse_statement("SELECT 1").expect("trivial probe parses"),
                message: format!(
                    "serializability violation: the final state of a transaction episode \
                     ({} committed, {} rolled back) matches none of the {tried} serial \
                     order(s) of its committed sessions",
                    episode.committed.len(),
                    episode.rolled_back.len(),
                ),
                repro: ReproSpec::SerialDivergence,
            })
        }
    }
}

impl Oracle for SerializabilityOracle {
    fn name(&self) -> &'static str {
        "serializability"
    }

    fn cadence(&self) -> Cadence {
        Cadence::PerDatabase
    }

    fn check(&self, _rng: &mut StdRng, engine: &mut Engine, ctx: &OracleCtx<'_>) -> OracleReport {
        self.check_log(engine, ctx.log)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("serial_episodes_checked", self.episodes_checked.load(Ordering::Relaxed)),
            ("serial_orders_tried", self.orders_tried.load(Ordering::Relaxed)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StateGenerator;
    use crate::oracle::DetectionKind;
    use lancer_engine::BugId;
    use lancer_sql::parse_script;
    use rand::{Rng, SeedableRng};

    fn check_script(dialect: Dialect, bugs: BugProfile, script: &str) -> OracleReport {
        let engine = Engine::with_bugs(dialect, bugs);
        let log = parse_script(script).expect("test script parses");
        SerializabilityOracle::new(dialect, GenConfig::tiny()).check_log(&engine, &log)
    }

    #[test]
    fn serializability_passes_on_correct_engines() {
        for dialect in Dialect::ALL {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(500 + seed);
                let mut engine = Engine::new(dialect);
                let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
                let (mut log, _) = generator.generate_database(&mut rng, &mut engine);
                let (episode_log, _) = generator.generate_txn_episode(&mut rng, &mut engine);
                log.extend(episode_log);
                let oracle = SerializabilityOracle::new(dialect, GenConfig::tiny());
                let report = oracle.check_log(&engine, &log);
                assert!(
                    !matches!(report, OracleReport::Bugs(_)),
                    "{dialect:?} seed {seed}: false positive: {report:#?}"
                );
            }
        }
    }

    #[test]
    fn skips_logs_without_transactions() {
        let report = check_script(
            Dialect::Sqlite,
            BugProfile::none(),
            "CREATE TABLE t0(c0 INT); INSERT INTO t0(c0) VALUES (1)",
        );
        assert_eq!(report, OracleReport::Skipped);
    }

    #[test]
    fn committed_units_decomposes_interleaved_logs() {
        let log = parse_script(
            "CREATE TABLE t0(c0 INT);
             SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1);
             SESSION 2; BEGIN; INSERT INTO t0(c0) VALUES (2); COMMIT;
             SESSION 1; ROLLBACK;
             SELECT * FROM t0",
        )
        .unwrap();
        let episode = committed_units(&log).expect("analyzable");
        assert_eq!(episode.prefix.len(), 1, "the CREATE TABLE");
        assert_eq!(episode.committed.len(), 1, "session 2 committed");
        assert_eq!(episode.committed[0].len(), 1);
        assert_eq!(episode.rolled_back.len(), 1, "session 1 rolled back");

        // A transaction left open at the end of the log counts as rolled
        // back: it never published.
        let open =
            parse_script("CREATE TABLE t0(c0 INT); BEGIN; INSERT INTO t0(c0) VALUES (1)").unwrap();
        let episode = committed_units(&open).expect("analyzable");
        assert!(episode.committed.is_empty());
        assert_eq!(episode.rolled_back.len(), 1);

        // A write outside any transaction after the episode began has no
        // serial-order decomposition.
        let interleaved = parse_script(
            "CREATE TABLE t0(c0 INT);
             SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1);
             SESSION 0; INSERT INTO t0(c0) VALUES (9);
             SESSION 1; COMMIT",
        )
        .unwrap();
        assert_eq!(committed_units(&interleaved), None);
    }

    #[test]
    fn permutations_cover_all_orders() {
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(1), vec![vec![0]]);
        let three = permutations(3);
        assert_eq!(three.len(), 6);
        let unique: std::collections::BTreeSet<_> = three.into_iter().collect();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn rediscovers_the_sqlite_torn_rollback_fault() {
        // The fault re-applies a rolled-back transaction's DML on tables
        // that carry an index, so the rolled-back row stays visible —
        // which no serial order of zero committed sessions produces.
        let script = "CREATE TABLE t0(c0 INT);
                      CREATE INDEX i0 ON t0(c0);
                      SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1); ROLLBACK;
                      SESSION 0";
        let clean = check_script(Dialect::Sqlite, BugProfile::none(), script);
        assert_eq!(clean, OracleReport::Passed);
        let report = check_script(
            Dialect::Sqlite,
            BugProfile::with(&[BugId::SqliteTornRollbackIndexed]),
            script,
        );
        let [witness] = report.witnesses() else { panic!("expected one witness: {report:#?}") };
        assert_eq!(witness.kind(), DetectionKind::Serializability);
        assert_eq!(witness.repro, ReproSpec::SerialDivergence);
    }

    #[test]
    fn rediscovers_the_mysql_lost_update_fault() {
        // Session 2 begins before session 1 commits; the faulty COMMIT
        // publishes session 2's whole workspace snapshot, erasing
        // session 1's committed row — neither serial order loses it.
        let script = "CREATE TABLE t0(c0 INT);
                      SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1);
                      SESSION 2; BEGIN; INSERT INTO t0(c0) VALUES (2);
                      SESSION 1; COMMIT;
                      SESSION 2; COMMIT;
                      SESSION 0";
        let clean = check_script(Dialect::Mysql, BugProfile::none(), script);
        assert_eq!(clean, OracleReport::Passed);
        let report =
            check_script(Dialect::Mysql, BugProfile::with(&[BugId::MysqlLostUpdate]), script);
        assert_eq!(report.witnesses().len(), 1, "{report:#?}");
        assert_eq!(report.witnesses()[0].kind(), DetectionKind::Serializability);
    }

    #[test]
    fn rediscovers_the_postgres_serial_counter_fault() {
        // The rolled-back insert advances the SERIAL sequence under the
        // fault, so the committed insert draws 2 where every serial order
        // draws 1.
        let script = "CREATE TABLE t0(c0 SERIAL, c1 INT);
                      SESSION 1; BEGIN; INSERT INTO t0(c1) VALUES (1); ROLLBACK;
                      SESSION 2; BEGIN; INSERT INTO t0(c1) VALUES (2); COMMIT;
                      SESSION 0";
        let clean = check_script(Dialect::Postgres, BugProfile::none(), script);
        assert_eq!(clean, OracleReport::Passed);
        let report = check_script(
            Dialect::Postgres,
            BugProfile::with(&[BugId::PostgresSerialCounterSurvivesRollback]),
            script,
        );
        assert_eq!(report.witnesses().len(), 1, "{report:#?}");
        assert_eq!(report.witnesses()[0].kind(), DetectionKind::Serializability);
    }

    #[test]
    fn rediscovers_the_duckdb_lane_aligned_commit_fault() {
        // The faulty COMMIT publishes only the lane-aligned prefix of the
        // transaction log (multiples of 8); a 1-statement transaction
        // publishes nothing, losing the committed row.
        let script = "CREATE TABLE t0(c0 INT);
                      SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1); COMMIT;
                      SESSION 0";
        let clean = check_script(Dialect::Duckdb, BugProfile::none(), script);
        assert_eq!(clean, OracleReport::Passed);
        let report = check_script(
            Dialect::Duckdb,
            BugProfile::with(&[BugId::DuckdbCommitLaneAlignedPrefix]),
            script,
        );
        assert_eq!(report.witnesses().len(), 1, "{report:#?}");
        assert_eq!(report.witnesses()[0].kind(), DetectionKind::Serializability);
    }

    #[test]
    fn generated_episodes_surface_the_faults() {
        // The end-to-end generator path: episodes drawn from the RNG
        // stream eventually trip each dialect's transaction fault.
        for (dialect, bug) in [
            (Dialect::Sqlite, BugId::SqliteTornRollbackIndexed),
            (Dialect::Mysql, BugId::MysqlLostUpdate),
            (Dialect::Postgres, BugId::PostgresSerialCounterSurvivesRollback),
            (Dialect::Duckdb, BugId::DuckdbCommitLaneAlignedPrefix),
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let mut found = false;
            for _attempt in 0..60 {
                let mut engine = Engine::with_bugs(dialect, BugProfile::with(&[bug]));
                let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
                let (mut log, _) = generator.generate_database(&mut rng, &mut engine);
                let (episode_log, _) = generator.generate_txn_episode(&mut rng, &mut engine);
                log.extend(episode_log);
                let oracle = SerializabilityOracle::new(dialect, GenConfig::tiny());
                if let OracleReport::Bugs(w) = oracle.check_log(&engine, &log) {
                    assert_eq!(w[0].kind(), DetectionKind::Serializability);
                    found = true;
                    break;
                }
                // Desynchronise attempts so they explore different episodes.
                let _ = rng.gen::<u64>();
            }
            assert!(found, "{dialect:?}: generated episodes never tripped {bug:?}");
        }
    }
}
