//! Equivalence properties of copy-on-write snapshots and rewind-based
//! replay.
//!
//! The CoW storage layer and the engine's `WorkspaceSnapshot`/`rewind_to`
//! path exist purely as a performance optimization: every replay that
//! resumes from a snapshot — the reduction cache, the serializability
//! oracle's permutation search — must produce *bit-identical* results to
//! the deep-clone reference path it replaced.  Each property here replays
//! a generated statement log across all four dialects, with faults on and
//! off:
//!
//! (a) resuming from a cloned engine snapshot and replaying only the
//!     suffix reaches the same state digest as a fresh full replay,
//! (b) `rewind_to` restores the exact pre-suffix digest, repeatedly, and
//!     `execute_at` presents the statement-counter sequence a fresh
//!     engine would see (counter-keyed faults fire identically),
//! (c) cached replay verdicts equal the uncached `reproduces` reference,
//!     whether one cache serves several generated databases or is cleared
//!     between them,
//! (d) hierarchical reduction over the replay cache returns the same
//!     repro as reduction over an uncached judge,
//! (e) a database clone is genuinely isolated: mutating the original
//!     never leaks into the snapshot (a skipped copy-on-write table copy
//!     would alias them, and the digest comparison here would catch it).

use lancer_core::gen::{GenConfig, StateGenerator};
use lancer_core::qpg::random_probe_query;
use lancer_core::{
    reduce_hierarchical, reproduces, state_digest, DifferentialJudge, FnJudge, ReduceOptions,
    ReplayCache, ReproSpec,
};
use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::Statement;
use lancer_sql::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates a deterministic statement log (DDL + DML + maintenance) the
/// way campaigns do, plus a read-only probe trigger.
fn generate_log(seed: u64, dialect: Dialect, profile: &BugProfile) -> Vec<Statement> {
    let gen = GenConfig::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::with_bugs(dialect, profile.clone());
    let (mut log, _) =
        StateGenerator::new(dialect, gen.clone()).generate_database(&mut rng, &mut engine);
    let mut probe_rng = StdRng::seed_from_u64(seed ^ 0x0BAD_5EED);
    if let Some(q) = random_probe_query(&mut probe_rng, &engine, &gen) {
        log.push(Statement::Select(q));
    }
    log
}

fn profile_for(dialect: Dialect, faults: bool) -> BugProfile {
    if faults {
        BugProfile::all_for(dialect)
    } else {
        BugProfile::none()
    }
}

/// The reference path the CoW resume replaced: replay every statement on
/// a fresh engine and digest the final state.
fn full_replay_digest(
    dialect: Dialect,
    profile: &BugProfile,
    log: &[Statement],
) -> lancer_core::StateDigest {
    let mut engine = Engine::with_bugs(dialect, profile.clone());
    for stmt in log {
        let _ = engine.execute(stmt);
    }
    state_digest(&engine)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// (a) Snapshot resume ≡ full replay: replay a prefix, snapshot the
    /// engine behind an `Arc` exactly like the replay cache does, resume
    /// via clone and run the suffix — the digest must equal a fresh
    /// engine's full replay.
    #[test]
    fn snapshot_resume_matches_full_replay(
        seed in any::<u64>(),
        dialect_idx in 0usize..4,
        faults in any::<bool>(),
    ) {
        let dialect = Dialect::ALL[dialect_idx];
        let profile = profile_for(dialect, faults);
        let log = generate_log(seed, dialect, &profile);
        let reference = full_replay_digest(dialect, &profile, &log);
        for split in [log.len() / 3, log.len() / 2, log.len()] {
            let mut prefix_engine = Engine::with_bugs(dialect, profile.clone());
            for stmt in &log[..split] {
                let _ = prefix_engine.execute(stmt);
            }
            let snapshot = std::sync::Arc::new(prefix_engine);
            let mut resumed = (*snapshot).clone();
            for stmt in &log[split..] {
                let _ = resumed.execute(stmt);
            }
            prop_assert_eq!(
                state_digest(&resumed),
                reference.clone(),
                "{:?} faults={} split={}",
                dialect,
                faults,
                split
            );
            // The snapshot itself must be unperturbed by the resumed run.
            let mut rerun = (*snapshot).clone();
            for stmt in &log[split..] {
                let _ = rerun.execute(stmt);
            }
            prop_assert_eq!(state_digest(&rerun), reference.clone(), "snapshot was perturbed");
        }
    }

    /// (b) Rewind round-trip: `workspace_snapshot` + `execute_at` +
    /// `rewind_to` replays a suffix repeatedly with fresh-engine counter
    /// semantics, and every rewind restores the exact pre-suffix digest.
    #[test]
    fn rewind_replays_are_counter_exact(
        seed in any::<u64>(),
        dialect_idx in 0usize..4,
        faults in any::<bool>(),
    ) {
        let dialect = Dialect::ALL[dialect_idx];
        let profile = profile_for(dialect, faults);
        let log = generate_log(seed, dialect, &profile);
        let split = log.len() / 2;
        let reference = full_replay_digest(dialect, &profile, &log);
        let mut engine = Engine::with_bugs(dialect, profile.clone());
        for stmt in &log[..split] {
            let _ = engine.execute(stmt);
        }
        let base = engine.statements_executed();
        let before = state_digest(&engine);
        let start = engine.workspace_snapshot();
        for round in 0..3 {
            for (j, stmt) in log[split..].iter().enumerate() {
                let _ = engine.execute_at(base + j as u64, stmt);
            }
            prop_assert_eq!(
                state_digest(&engine),
                reference.clone(),
                "{:?} faults={} round={}",
                dialect,
                faults,
                round
            );
            prop_assert_eq!(engine.statements_executed(), base, "counter must not drift");
            engine.rewind_to(&start);
            prop_assert_eq!(state_digest(&engine), before.clone(), "rewind must restore");
        }
    }

    /// (c) Cached replay verdicts ≡ the uncached `reproduces` reference,
    /// including repeats that hit snapshots and the verdict memo.  The
    /// questions of two or three generated databases go to one shared
    /// cache and to one cleared whenever the next question is about
    /// another database (the campaign runner's per-database scope).  They
    /// come database by database (each database's questions in a row:
    /// mark, snapshot, resume), then again with the databases alternating
    /// at every question.
    #[test]
    fn cached_verdicts_match_uncached(
        seed in any::<u64>(),
        dialect_idx in 0usize..4,
        faults in any::<bool>(),
        databases in 2usize..=3,
    ) {
        let dialect = Dialect::ALL[dialect_idx];
        let profile = profile_for(dialect, faults);
        let logs: Vec<Vec<Statement>> = (0..databases as u64)
            .map(|db| generate_log(seed.wrapping_add(db), dialect, &profile))
            .collect();
        let repros: Vec<ReproSpec> =
            [Value::Integer(1), Value::Null, Value::Integer(-7), Value::Text("a".into())]
                .into_iter()
                .map(|v| ReproSpec::MissingRow(vec![v]))
                .collect();
        let uncached: Vec<Vec<bool>> = logs
            .iter()
            .map(|log| repros.iter().map(|r| reproduces(dialect, &profile, log, r)).collect())
            .collect();
        let by_database = (0..databases).flat_map(|db| (0..repros.len()).map(move |r| (db, r)));
        let alternating = (0..repros.len()).flat_map(|r| (0..databases).map(move |db| (db, r)));
        let mut shared = ReplayCache::new(dialect);
        let mut scoped = ReplayCache::new(dialect);
        let mut scoped_database = None;
        for (db, r) in by_database.chain(alternating) {
            if scoped_database != Some(db) {
                scoped.clear();
                scoped_database = Some(db);
            }
            let (log, repro) = (&logs[db], &repros[r]);
            for (name, cache) in [("shared", &mut shared), ("scoped", &mut scoped)] {
                prop_assert_eq!(
                    cache.reproduces("containment", &profile, log, repro),
                    uncached[db][r],
                    "{} cache, {:?} faults={} database={} repro={}",
                    name,
                    dialect,
                    faults,
                    db,
                    r
                );
            }
        }
    }

    /// (d) Reduction over the replay cache ≡ reduction over an uncached
    /// judge that rebuilds an engine per candidate.
    #[test]
    fn cached_reduction_matches_uncached(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let profile = BugProfile::all_for(dialect);
        let log = generate_log(seed, dialect, &profile);
        let Some(repro) = first_divergence(dialect, &profile, &log) else {
            return Ok(());
        };
        let cached = {
            let mut cache = ReplayCache::new(dialect);
            let judge = DifferentialJudge::new(&mut cache, "containment", &profile, &repro);
            reduce_hierarchical(&log, &ReduceOptions::default(), &judge).statements
        };
        let uncached = {
            let none = BugProfile::none();
            let judge = FnJudge(|stmts: &[&Statement]| {
                let owned: Vec<Statement> = stmts.iter().map(|s| (*s).clone()).collect();
                reproduces(dialect, &profile, &owned, &repro)
                    && !reproduces(dialect, &none, &owned, &repro)
            });
            reduce_hierarchical(&log, &ReduceOptions::default(), &judge).statements
        };
        prop_assert_eq!(
            cached.iter().map(ToString::to_string).collect::<Vec<_>>(),
            uncached.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    /// (e) Clone isolation: mutating the original database never changes
    /// a snapshot's digest.  An intentionally skipped table copy would
    /// alias the two and fail exactly this comparison (see the negative
    /// control below).
    #[test]
    fn snapshots_are_isolated_from_later_mutations(
        seed in any::<u64>(),
        dialect_idx in 0usize..4,
    ) {
        let dialect = Dialect::ALL[dialect_idx];
        let profile = BugProfile::none();
        let log = generate_log(seed, dialect, &profile);
        let mut engine = Engine::with_bugs(dialect, profile);
        for stmt in &log {
            let _ = engine.execute(stmt);
        }
        let snapshot = engine.clone();
        let before = state_digest(&snapshot);
        // The clone shares every table structurally until a write occurs.
        let shared = engine.database().tables_shared_with(snapshot.database());
        prop_assert_eq!(shared, engine.database().table_names().len());
        // Mutate the original through every table.
        for table in engine.database().table_names() {
            let _ = engine.execute_sql(&format!("DELETE FROM {table}"));
        }
        prop_assert_eq!(state_digest(&snapshot), before, "mutation leaked into the snapshot");
    }
}

/// Finds a `MissingRow` repro for property (d): the first probe row a
/// fully-faulted engine drops relative to the clean engine.
fn first_divergence(
    dialect: Dialect,
    profile: &BugProfile,
    log: &[Statement],
) -> Option<ReproSpec> {
    let Some(Statement::Select(_)) = log.last() else {
        return None;
    };
    let setup = &log[..log.len() - 1];
    let trigger = log.last().unwrap();
    let mut clean = Engine::new(dialect);
    let mut faulty = Engine::with_bugs(dialect, profile.clone());
    for stmt in setup {
        let _ = clean.execute(stmt);
        let _ = faulty.execute(stmt);
    }
    let (Ok(expected), Ok(actual)) = (clean.execute(trigger), faulty.execute(trigger)) else {
        return None;
    };
    let missing = expected.rows.iter().find(|row| !actual.contains_row(row))?;
    let repro = ReproSpec::MissingRow(missing.clone());
    // Mirror the runner's spurious/flaky gates so reduction has a stable
    // differential verdict to preserve.
    let differential = reproduces(dialect, profile, log, &repro)
        && !reproduces(dialect, &BugProfile::none(), log, &repro);
    differential.then_some(repro)
}

/// Negative control for property (e): if copy-on-write were skipped —
/// the original and the "snapshot" aliasing one table's rows — the
/// isolation digest check above would fail.  Simulated by applying the
/// same mutation to both sides, which is exactly the observable state
/// aliasing produces.
#[test]
fn isolation_check_catches_an_aliased_mutation() {
    let mut engine = Engine::new(Dialect::Sqlite);
    engine.execute_sql("CREATE TABLE t0(c0)").unwrap();
    engine.execute_sql("INSERT INTO t0(c0) VALUES (1), (2)").unwrap();
    let mut aliased = engine.clone();
    let before = state_digest(&aliased);
    engine.execute_sql("DELETE FROM t0").unwrap();
    // A skipped table copy would leak the DELETE into the snapshot; the
    // aliased double-apply reproduces that observable state...
    aliased.execute_sql("DELETE FROM t0").unwrap();
    assert_ne!(state_digest(&aliased), before, "the digest check must detect aliasing");
    // ...while the real CoW snapshot stays untouched.
    let snapshot = {
        let mut fresh = Engine::new(Dialect::Sqlite);
        fresh.execute_sql("CREATE TABLE t0(c0)").unwrap();
        fresh.execute_sql("INSERT INTO t0(c0) VALUES (1), (2)").unwrap();
        let snap = fresh.clone();
        fresh.execute_sql("DELETE FROM t0").unwrap();
        snap
    };
    assert_eq!(state_digest(&snapshot), before, "copy-on-write must isolate the snapshot");
}

/// The workspace rewind counter only counts real rewinds, and rewinding
/// restores transaction-free workspaces without touching sessions.
#[test]
fn rewind_counter_and_session_state() {
    let before = lancer_engine::workspace_rewinds();
    let mut engine = Engine::new(Dialect::Postgres);
    engine.execute_sql("CREATE TABLE t0(c0 INTEGER)").unwrap();
    let start = engine.workspace_snapshot();
    engine.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
    engine.rewind_to(&start);
    assert_eq!(lancer_engine::workspace_rewinds() - before, 1);
    assert_eq!(engine.execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 0);
    // Open transactions and the active session survive a rewind of the
    // shared workspace untouched.
    engine.session(3).execute_sql("BEGIN").unwrap();
    engine.rewind_to(&start);
    assert!(engine.in_transaction(3));
    assert_eq!(engine.active_session(), 3);
    engine.execute_sql("ROLLBACK").unwrap();
}
