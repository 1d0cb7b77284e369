//! Statement execution: the engine façade and dispatch.

pub(crate) mod access;
pub(crate) mod batch;
mod ddl;
mod dml;
mod maintenance;
mod pipeline;
mod query;
mod reference;

use std::collections::{BTreeMap, BTreeSet};

use lancer_sql::ast::Statement;
use lancer_sql::parser::{parse_script, parse_statement};
use lancer_sql::value::Value;
use lancer_storage::Database;

use crate::bugs::{BugId, BugProfile};
use crate::coverage::Coverage;
use crate::dialect::Dialect;
use crate::error::{EngineError, EngineResult};
use crate::eval::Evaluator;

/// The result of executing a statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Column labels (empty for non-queries).
    pub columns: Vec<String>,
    /// Result rows (empty for non-queries).
    pub rows: Vec<Vec<Value>>,
    /// Number of rows inserted / updated / deleted.
    pub affected: usize,
}

impl QueryResult {
    /// A result carrying no rows.
    #[must_use]
    pub fn empty() -> QueryResult {
        QueryResult::default()
    }

    /// Returns `true` if any result row equals the given row (the check the
    /// containment oracle performs client-side).
    #[must_use]
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.rows
            .iter()
            .any(|r| r.len() == row.len() && r.iter().zip(row.iter()).all(|(a, b)| a.same_as(b)))
    }
}

/// A snapshot of the engine's mutable workspace: the database plus the
/// session-state bookkeeping that statements read (analyzed tables,
/// statistics objects, poisoned columns, the LIKE pragma latch, SERIAL
/// counters).
///
/// Because the database is structurally shared ([`Database::clone`] bumps
/// reference counts; tables deep-copy only on first write), taking a
/// snapshot is O(tables) pointer work, not O(rows).  The same struct backs
/// the per-statement atomicity snapshot, `BEGIN`'s private transaction
/// workspace, and [`Engine::rewind_to`]'s replay resume.
///
/// The statement counter is deliberately *not* part of the snapshot: it is
/// engine-global (fault injection keys on statement ordinals, and a rewind
/// must not make the engine forget how many statements it has seen).  Use
/// [`Engine::execute_at`] to replay at an explicit ordinal.
#[derive(Debug, Clone)]
pub struct WorkspaceSnapshot {
    db: Database,
    analyzed: BTreeSet<String>,
    statistics: BTreeSet<String>,
    poisoned_columns: Vec<(String, String, String)>,
    like_pragma_changed: bool,
    serial_counters: BTreeMap<(String, String), i64>,
}

thread_local! {
    static WORKSPACE_REWINDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cumulative [`Engine::rewind_to`] count for the current thread
/// (campaign reports sample deltas around replay-heavy work).
#[must_use]
pub fn workspace_rewinds() -> u64 {
    WORKSPACE_REWINDS.with(std::cell::Cell::get)
}

/// Per-session transaction state: a private copy-on-write snapshot of the
/// mutable engine workspace taken at `BEGIN`, plus the log of statements
/// the transaction has applied to it.  `COMMIT` publishes by replaying the
/// log against the shared workspace (so concurrent commits merge instead
/// of clobbering each other); `ROLLBACK` simply discards the snapshot.
#[derive(Debug, Clone)]
struct TxnState {
    workspace: WorkspaceSnapshot,
    log: Vec<Statement>,
}

/// One emulated DBMS instance: a dialect profile, a fault profile and a
/// database.  This is the system under test that SQLancer drives.
///
/// Engines are `Clone`: a clone is a full snapshot of the database,
/// option state and statement counter, which is what the replay cache in
/// `lancer-core` memoizes per statement-log prefix.
///
/// N logical sessions share one engine (and thus one catalog): the active
/// session is switched with [`Engine::session`] or by executing the
/// `SESSION <id>` log marker, and each session may hold at most one open
/// transaction (a private `TxnState` workspace snapshot).
#[derive(Debug, Clone)]
pub struct Engine {
    dialect: Dialect,
    bugs: BugProfile,
    db: Database,
    coverage: Coverage,
    /// Tables that have been `ANALYZE`d (enables skip-scan style paths).
    pub(crate) analyzed: BTreeSet<String>,
    /// Tables with extended statistics objects (PostgreSQL).
    pub(crate) statistics: BTreeSet<String>,
    /// Columns poisoned by the double-quoted-string/rename interaction
    /// (Listing 8): `(table, current column name, literal text returned)`.
    pub(crate) poisoned_columns: Vec<(String, String, String)>,
    /// Whether `PRAGMA case_sensitive_like` has been changed since an index
    /// using `LIKE` was created (Listing 9).
    pub(crate) like_pragma_changed: bool,
    /// Auto-increment counters for SERIAL columns, keyed by (table, column).
    pub(crate) serial_counters: BTreeMap<(String, String), i64>,
    /// Number of statements executed (drives the "nondeterministic" SET
    /// failure fault).
    pub(crate) statements_executed: u64,
    /// The logical session statements currently execute under.
    active_session: u32,
    /// Open transactions, keyed by session id.
    txns: BTreeMap<u32, TxnState>,
}

impl Engine {
    /// Creates a reference-correct engine (no faults).
    #[must_use]
    pub fn new(dialect: Dialect) -> Engine {
        Engine::with_bugs(dialect, BugProfile::none())
    }

    /// Creates an engine with the given fault profile.
    #[must_use]
    pub fn with_bugs(dialect: Dialect, bugs: BugProfile) -> Engine {
        Engine {
            dialect,
            bugs,
            db: Database::new(),
            coverage: Coverage::new(),
            analyzed: BTreeSet::new(),
            statistics: BTreeSet::new(),
            poisoned_columns: Vec::new(),
            like_pragma_changed: false,
            serial_counters: BTreeMap::new(),
            statements_executed: 0,
            active_session: 0,
            txns: BTreeMap::new(),
        }
    }

    /// The engine's dialect.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The enabled fault profile.
    #[must_use]
    pub fn bugs(&self) -> &BugProfile {
        &self.bugs
    }

    /// The underlying database (schema introspection for generators).
    #[must_use]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Feature coverage accumulated so far.
    #[must_use]
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Number of statements executed so far.
    #[must_use]
    pub fn statements_executed(&self) -> u64 {
        self.statements_executed
    }

    /// Records a coverage feature point through the engine's shared
    /// interior-mutability sink, so the mutable ([`Engine::execute`]) and
    /// read-only ([`Engine::query`]) paths record identical keys.
    pub(crate) fn cover(&self, feature: &str) {
        self.coverage.hit(feature);
    }

    /// Builds an evaluator bound to the current option state.
    #[must_use]
    pub fn evaluator(&self) -> Evaluator {
        let mut ev = Evaluator::new(self.dialect, &self.bugs);
        ev.case_sensitive_like = self.db.option_bool("case_sensitive_like", false);
        ev
    }

    /// Parses and executes a single SQL statement.
    ///
    /// # Errors
    ///
    /// Returns parse errors as semantic [`EngineError`]s and execution errors
    /// unchanged.
    pub fn execute_sql(&mut self, sql: &str) -> EngineResult<QueryResult> {
        let stmt = parse_statement(sql)
            .map_err(|e| EngineError::semantic(format!("syntax error: {e}")))?;
        self.execute(&stmt)
    }

    /// Parses and executes a semicolon-separated script, stopping at the
    /// first error.
    ///
    /// # Errors
    ///
    /// Returns the first parse or execution error.
    pub fn execute_script(&mut self, sql: &str) -> EngineResult<Vec<QueryResult>> {
        let stmts =
            parse_script(sql).map_err(|e| EngineError::semantic(format!("syntax error: {e}")))?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            out.push(self.execute(s)?);
        }
        Ok(out)
    }

    /// Executes a single statement.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] describing constraint violations, semantic
    /// errors, corruptions or simulated crashes.
    pub fn execute(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        self.statements_executed += 1;
        if matches!(
            stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback | Statement::Session { .. }
        ) {
            return self.exec_txn_control(stmt);
        }
        // When the active session holds an open transaction, execute
        // against its private workspace instead of the shared one.
        let in_txn = self.txns.contains_key(&self.active_session);
        if in_txn {
            self.swap_workspace();
        }
        // Statements are atomic: a failing statement leaves the database
        // unchanged (multi-row INSERTs in particular must not be partially
        // applied), matching the real DBMS and keeping generated statement
        // logs replayable.  Read-only statements cannot touch the database
        // at all, so they skip the snapshot; for mutating statements the
        // snapshot is reference-count bumps (copy-on-write), so the cost
        // moved from O(database) to O(tables the statement writes).
        // Session bookkeeping outside the database — SERIAL counters in
        // particular — deliberately survives the failure, like sequence
        // advances in a real DBMS.
        let snapshot = if stmt.is_read_only() { None } else { Some(self.workspace_snapshot()) };
        let result = self.dispatch(stmt);
        if result.is_err() {
            if let Some(snapshot) = snapshot {
                self.db = snapshot.db;
            }
        }
        if in_txn {
            self.swap_workspace();
            if result.is_ok() {
                let txn = self.txns.get_mut(&self.active_session).expect("open transaction");
                txn.log.push(stmt.clone());
            }
        }
        result
    }

    /// Evaluates a read-only statement *as if* it were the engine's
    /// `ordinal`-th statement (0-based) — through the same operator
    /// pipeline as [`Engine::execute`], but over `&self`: no counter
    /// bump, no atomicity snapshot, no workspace swap, no RNG draws.  Coverage is recorded through the shared
    /// interior-mutability sink, so the keys are identical to the
    /// mutable path's.
    ///
    /// The fault clock is explicit: `execute` bumps the statement counter
    /// *before* dispatch, so a statement running as ordinal `n` observes
    /// clock `n + 1` — `query` presents the same clock to the shared
    /// read-only dispatcher, which makes `query(ordinal, stmt)`
    /// bit-identical (results, errors, coverage keys) to `execute(stmt)`
    /// as statement `ordinal` on a fresh clone.  This is what lets many
    /// threads judge candidate queries against one shared
    /// `Arc<Engine>` snapshot with zero per-candidate engine state.
    ///
    /// # Errors
    ///
    /// Returns a semantic error when the statement is not read-only, or
    /// when the active session holds an open transaction (an open
    /// transaction swaps in a private workspace and logs successful
    /// statements — both observable effects `&self` cannot reproduce;
    /// use [`Engine::execute`] there).  Otherwise, same as
    /// [`Engine::execute`].
    pub fn query(&self, ordinal: u64, stmt: &Statement) -> EngineResult<QueryResult> {
        if !stmt.is_read_only() {
            return Err(EngineError::semantic(
                "query() evaluates read-only statements only; use execute() for writes",
            ));
        }
        if self.txns.contains_key(&self.active_session) {
            return Err(EngineError::semantic(
                "query() cannot run while the active session holds an open transaction; \
                 use execute()",
            ));
        }
        self.read_only_eval(ordinal + 1, stmt)
    }

    /// Evaluates a read-only statement at the engine's *current* clock
    /// position through the [`Engine::query`] read path, advancing the
    /// statement counter exactly as [`Engine::execute`] would — so
    /// counter-keyed fault parity (and therefore campaign byte-identity)
    /// is preserved at oracle call sites.  Falls back to `execute` when
    /// the statement is not read-only or the active session holds an
    /// open transaction.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::execute`].
    pub fn query_here(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        if !stmt.is_read_only() || self.txns.contains_key(&self.active_session) {
            return self.execute(stmt);
        }
        let ordinal = self.statements_executed;
        self.statements_executed += 1;
        self.query(ordinal, stmt)
    }

    /// Switches the statements that follow to the given logical session.
    /// Sessions share the catalog; each may hold one open transaction.
    pub fn session(&mut self, id: u32) -> SessionHandle<'_> {
        self.active_session = id;
        SessionHandle { engine: self }
    }

    /// The session id statements currently execute under.
    #[must_use]
    pub fn active_session(&self) -> u32 {
        self.active_session
    }

    /// Returns `true` if the given session holds an open transaction.
    #[must_use]
    pub fn in_transaction(&self, session: u32) -> bool {
        self.txns.contains_key(&session)
    }

    /// Takes a copy-on-write snapshot of the mutable workspace.  Cheap:
    /// the database shares its tables structurally, so this is
    /// reference-count bumps plus clones of the small session-state sets.
    #[must_use]
    pub fn workspace_snapshot(&self) -> WorkspaceSnapshot {
        WorkspaceSnapshot {
            db: self.db.clone(),
            analyzed: self.analyzed.clone(),
            statistics: self.statistics.clone(),
            poisoned_columns: self.poisoned_columns.clone(),
            like_pragma_changed: self.like_pragma_changed,
            serial_counters: self.serial_counters.clone(),
        }
    }

    /// Rewinds the mutable workspace to an earlier snapshot, leaving the
    /// statement counter, coverage, sessions and open transactions
    /// untouched.  The snapshot stays usable: replay loops rewind to the
    /// same snapshot once per candidate.
    pub fn rewind_to(&mut self, snapshot: &WorkspaceSnapshot) {
        WORKSPACE_REWINDS.with(|c| c.set(c.get() + 1));
        self.restore_workspace(snapshot.clone());
    }

    /// Installs a workspace by value (rewind without the counter bump —
    /// used by `COMMIT` under the lost-update fault).
    fn restore_workspace(&mut self, snapshot: WorkspaceSnapshot) {
        self.db = snapshot.db;
        self.analyzed = snapshot.analyzed;
        self.statistics = snapshot.statistics;
        self.poisoned_columns = snapshot.poisoned_columns;
        self.like_pragma_changed = snapshot.like_pragma_changed;
        self.serial_counters = snapshot.serial_counters;
    }

    /// Executes a statement *as if* it were the engine's `ordinal`-th
    /// statement (0-based), then restores the statement counter.
    ///
    /// Fault injection keys on statement ordinals (the "nondeterministic"
    /// `SET` failure fires on even counts), so a replay that resumes from
    /// a snapshot — or re-runs the same suffix repeatedly, as the
    /// serializability oracle's permutation search does — must present the
    /// same counter sequence a fresh engine would.  Combined with
    /// [`Engine::rewind_to`] this makes re-running a suffix free of both
    /// the engine rebuild and the counter drift.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::execute`].
    pub fn execute_at(&mut self, ordinal: u64, stmt: &Statement) -> EngineResult<QueryResult> {
        self.with_clock(ordinal, |engine| engine.execute(stmt))
    }

    /// Runs `f` with the statement counter temporarily set to `ordinal`,
    /// restoring the saved counter on the way out.  The restore is an
    /// RAII drop guard: a panic inside `f` (a poisoned unwind through a
    /// replay) must not leave the fault clock pinned at the replayed
    /// ordinal.
    fn with_clock<T>(&mut self, ordinal: u64, f: impl FnOnce(&mut Engine) -> T) -> T {
        struct ClockGuard<'a> {
            engine: &'a mut Engine,
            saved: u64,
        }
        impl Drop for ClockGuard<'_> {
            fn drop(&mut self) {
                self.engine.statements_executed = self.saved;
            }
        }
        let guard = ClockGuard { saved: self.statements_executed, engine: self };
        guard.engine.statements_executed = ordinal;
        f(&mut *guard.engine)
    }

    /// Exchanges the shared workspace with the active session's private
    /// transaction workspace (the coverage recorder and statement counter
    /// stay engine-global).
    fn swap_workspace(&mut self) {
        let txn = self.txns.get_mut(&self.active_session).expect("open transaction");
        std::mem::swap(&mut self.db, &mut txn.workspace.db);
        std::mem::swap(&mut self.analyzed, &mut txn.workspace.analyzed);
        std::mem::swap(&mut self.statistics, &mut txn.workspace.statistics);
        std::mem::swap(&mut self.poisoned_columns, &mut txn.workspace.poisoned_columns);
        std::mem::swap(&mut self.like_pragma_changed, &mut txn.workspace.like_pragma_changed);
        std::mem::swap(&mut self.serial_counters, &mut txn.workspace.serial_counters);
    }

    fn exec_txn_control(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        match stmt {
            Statement::Session { id } => {
                self.cover("stmt.session");
                self.active_session = *id;
                Ok(QueryResult::empty())
            }
            Statement::Begin => {
                if self.txns.contains_key(&self.active_session) {
                    return Err(EngineError::semantic(match self.dialect {
                        Dialect::Sqlite => "cannot start a transaction within a transaction",
                        Dialect::Mysql => {
                            "Transaction characteristics can't be changed while a \
                             transaction is in progress"
                        }
                        Dialect::Postgres => "there is already a transaction in progress",
                        Dialect::Duckdb => {
                            "TransactionContext Error: cannot start a transaction \
                             within a transaction"
                        }
                    }));
                }
                self.cover("stmt.begin");
                let txn = TxnState { workspace: self.workspace_snapshot(), log: Vec::new() };
                self.txns.insert(self.active_session, txn);
                Ok(QueryResult::empty())
            }
            Statement::Commit => {
                let Some(txn) = self.txns.remove(&self.active_session) else {
                    return Err(EngineError::semantic(match self.dialect {
                        Dialect::Sqlite => "cannot commit - no transaction is active",
                        Dialect::Mysql => "There is no active transaction",
                        Dialect::Postgres => "there is no transaction in progress",
                        Dialect::Duckdb => {
                            "TransactionContext Error: cannot commit - no transaction is active"
                        }
                    }));
                };
                self.cover("stmt.commit");
                if self.bugs.is_enabled(BugId::MysqlLostUpdate) {
                    // Lost update: publish the private workspace wholesale,
                    // clobbering whatever other sessions committed since
                    // this transaction's BEGIN.
                    self.restore_workspace(txn.workspace);
                    return Ok(QueryResult::empty());
                }
                let publish = if self.bugs.is_enabled(BugId::DuckdbCommitLaneAlignedPrefix) {
                    // Lane-aligned commit: only full lane groups of the
                    // transaction log are published; the partial tail batch
                    // is silently dropped.
                    &txn.log[..txn.log.len() / 8 * 8]
                } else {
                    &txn.log[..]
                };
                self.replay_into_shared(publish);
                Ok(QueryResult::empty())
            }
            Statement::Rollback => {
                let Some(txn) = self.txns.remove(&self.active_session) else {
                    return Err(EngineError::semantic(match self.dialect {
                        Dialect::Sqlite => "cannot rollback - no transaction is active",
                        Dialect::Mysql => "There is no active transaction",
                        Dialect::Postgres => "there is no transaction in progress",
                        Dialect::Duckdb => {
                            "TransactionContext Error: cannot rollback - no transaction is active"
                        }
                    }));
                };
                self.cover("stmt.rollback");
                if self.bugs.is_enabled(BugId::SqliteTornRollbackIndexed) {
                    // Torn rollback: the undo pass skips statements whose
                    // target table carries an index, re-applying their
                    // effects to the shared state instead of discarding
                    // them.
                    let torn: Vec<Statement> = txn
                        .log
                        .iter()
                        .filter(|s| {
                            Self::dml_target(s).is_some_and(|t| !self.db.indexes_on(t).is_empty())
                        })
                        .cloned()
                        .collect();
                    self.replay_into_shared(&torn);
                }
                if self.bugs.is_enabled(BugId::PostgresSerialCounterSurvivesRollback) {
                    // Sequence advances made inside the transaction survive
                    // the rollback, as real PostgreSQL sequences do.
                    self.serial_counters = txn.workspace.serial_counters;
                }
                Ok(QueryResult::empty())
            }
            _ => unreachable!("exec_txn_control called for a non-transaction statement"),
        }
    }

    /// Replays a committed transaction log against the shared workspace.
    /// Individual statements may fail (another session's commit can have
    /// introduced a conflicting row since BEGIN); a failing statement is
    /// skipped and leaves the shared state unchanged, like `execute`.
    fn replay_into_shared(&mut self, stmts: &[Statement]) {
        for stmt in stmts {
            let snapshot = self.db.clone();
            if self.dispatch(stmt).is_err() {
                self.db = snapshot;
            }
        }
    }

    /// The table a DML statement writes to, if any.
    fn dml_target(stmt: &Statement) -> Option<&str> {
        match stmt {
            Statement::Insert(ins) => Some(&ins.table),
            Statement::Update(upd) => Some(&upd.table),
            Statement::Delete(del) => Some(&del.table),
            _ => None,
        }
    }

    fn dispatch(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        match stmt {
            Statement::CreateTable(ct) => self.exec_create_table(ct),
            Statement::CreateIndex(ci) => self.exec_create_index(ci),
            Statement::CreateView { name, query } => self.exec_create_view(name, query),
            Statement::DropTable { name, if_exists } => self.exec_drop_table(name, *if_exists),
            Statement::DropIndex { name, if_exists } => self.exec_drop_index(name, *if_exists),
            Statement::DropView { name, if_exists } => self.exec_drop_view(name, *if_exists),
            Statement::AlterTable(alter) => self.exec_alter(alter),
            Statement::Insert(ins) => self.exec_insert(ins),
            Statement::Update(upd) => self.exec_update(upd),
            Statement::Delete(del) => self.exec_delete(del),
            // Read-only statements go through the same `&self` evaluation
            // path as `Engine::query`, with the already-bumped statement
            // counter as the explicit fault clock — the two paths are
            // identical by construction, not by parallel maintenance.
            Statement::Select(_) | Statement::Explain(_) => {
                self.read_only_eval(self.statements_executed, stmt)
            }
            Statement::Vacuum { full } => self.exec_vacuum(*full),
            Statement::Reindex { target } => self.exec_reindex(target.as_deref()),
            Statement::Analyze { target } => self.exec_analyze(target.as_deref()),
            Statement::CheckTable { table, for_upgrade } => {
                self.exec_check_table(table, *for_upgrade)
            }
            Statement::RepairTable { table } => self.exec_repair_table(table),
            Statement::Pragma { name, value } => self.exec_pragma(name, value.as_ref()),
            Statement::Set { scope: _, name, value } => {
                self.exec_set(self.statements_executed, name, value)
            }
            Statement::CreateStatistics { name, columns, table } => {
                self.exec_create_statistics(name, columns, table)
            }
            Statement::Discard => {
                if !self.dialect.has_statistics_and_discard() {
                    return Err(EngineError::semantic("DISCARD is not supported by this DBMS"));
                }
                self.cover("stmt.discard");
                Ok(QueryResult::empty())
            }
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Session { .. } => {
                unreachable!("transaction control is intercepted by execute()")
            }
        }
    }

    /// Evaluates a read-only statement over `&self` at an explicit fault
    /// clock.  `clock` is the counter value the statement observes during
    /// dispatch (`execute` passes the already-bumped counter; `query`
    /// passes `ordinal + 1`).  No read-path fault is clock-keyed today —
    /// the only counter-keyed fault lives on the `SET` path, which is not
    /// read-only — but any future one must take its clock from here, not
    /// from `statements_executed`.
    fn read_only_eval(&self, clock: u64, stmt: &Statement) -> EngineResult<QueryResult> {
        let _ = clock;
        match stmt {
            Statement::Select(q) => {
                self.cover("stmt.select");
                self.exec_query(q)
            }
            // EXPLAIN renders the deterministic plan as rows without
            // executing the query.  It records no coverage point: the
            // feature registry is part of the campaign-visible stats
            // surface, and EXPLAIN never occurs in generated workloads.
            Statement::Explain(q) => {
                let plan = self.explain(q);
                Ok(QueryResult {
                    columns: vec!["QUERY PLAN".to_owned()],
                    rows: plan.render().into_iter().map(|l| vec![Value::Text(l)]).collect(),
                    affected: 0,
                })
            }
            _ => unreachable!("read_only_eval called for a non-read-only statement"),
        }
    }
}

/// A borrow of the engine bound to one logical session, from
/// [`Engine::session`].  Statements executed through the handle run under
/// that session id; the engine (and its catalog) stays shared.
#[derive(Debug)]
pub struct SessionHandle<'a> {
    engine: &'a mut Engine,
}

impl SessionHandle<'_> {
    /// Executes a single statement under this session.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::execute`].
    pub fn execute(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        self.engine.execute(stmt)
    }

    /// Parses and executes a single SQL statement under this session.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::execute_sql`].
    pub fn execute_sql(&mut self, sql: &str) -> EngineResult<QueryResult> {
        self.engine.execute_sql(sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_row_uses_value_equality() {
        let r = QueryResult {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Integer(1), Value::Null]],
            affected: 0,
        };
        assert!(r.contains_row(&[Value::Real(1.0), Value::Null]));
        assert!(!r.contains_row(&[Value::Integer(2), Value::Null]));
        assert!(!r.contains_row(&[Value::Integer(1)]));
    }

    #[test]
    fn execute_sql_reports_syntax_errors() {
        let mut e = Engine::new(Dialect::Sqlite);
        let err = e.execute_sql("SELEKT 1").unwrap_err();
        assert!(err.message.contains("syntax error"));
    }

    #[test]
    fn commit_publishes_and_rollback_discards() {
        let mut e = Engine::new(Dialect::Postgres);
        e.execute_sql("CREATE TABLE t0(c0 INTEGER)").unwrap();
        e.execute_sql("BEGIN").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
        // Uncommitted writes are invisible outside the transaction's
        // session but visible inside it.
        assert_eq!(e.session(1).execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 0);
        assert_eq!(e.session(0).execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 1);
        e.execute_sql("COMMIT").unwrap();
        assert_eq!(e.session(1).execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 1);

        e.session(1).execute_sql("BEGIN").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (2)").unwrap();
        e.execute_sql("ROLLBACK").unwrap();
        assert_eq!(e.execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 1);
    }

    #[test]
    fn transaction_misuse_is_a_dialect_error() {
        for d in Dialect::ALL {
            let mut e = Engine::new(d);
            let commit = e.execute_sql("COMMIT").unwrap_err();
            let rollback = e.execute_sql("ROLLBACK").unwrap_err();
            e.execute_sql("BEGIN").unwrap();
            let nested = e.execute_sql("BEGIN").unwrap_err();
            for err in [&commit, &rollback, &nested] {
                assert_eq!(err.class, crate::error::ErrorClass::Semantic, "{d:?}: {err:?}");
            }
            match d {
                Dialect::Sqlite => {
                    assert_eq!(commit.message, "cannot commit - no transaction is active");
                    assert_eq!(rollback.message, "cannot rollback - no transaction is active");
                    assert_eq!(nested.message, "cannot start a transaction within a transaction");
                }
                Dialect::Mysql => {
                    assert_eq!(commit.message, "There is no active transaction");
                    assert_eq!(rollback.message, "There is no active transaction");
                    assert!(nested.message.contains("transaction is in progress"));
                }
                Dialect::Postgres => {
                    assert_eq!(commit.message, "there is no transaction in progress");
                    assert_eq!(rollback.message, "there is no transaction in progress");
                    assert_eq!(nested.message, "there is already a transaction in progress");
                }
                Dialect::Duckdb => {
                    assert!(commit.message.starts_with("TransactionContext Error"));
                    assert!(rollback.message.starts_with("TransactionContext Error"));
                    assert!(nested.message.starts_with("TransactionContext Error"));
                }
            }
        }
    }

    #[test]
    fn sessions_isolate_their_transactions() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        e.session(1).execute_sql("BEGIN").unwrap();
        e.session(1).execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
        e.session(2).execute_sql("BEGIN").unwrap();
        e.session(2).execute_sql("INSERT INTO t0(c0) VALUES (2)").unwrap();
        // Each session sees only its own uncommitted write.
        assert_eq!(e.session(1).execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 1);
        assert_eq!(e.session(2).execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 1);
        // Commits replay logs against the shared state, so both writes
        // survive even though the transactions overlapped.
        e.session(1).execute_sql("COMMIT").unwrap();
        e.session(2).execute_sql("COMMIT").unwrap();
        assert_eq!(e.session(0).execute_sql("SELECT c0 FROM t0").unwrap().rows.len(), 2);
    }

    #[test]
    fn execute_at_restores_the_clock_across_a_panic() {
        let mut e = Engine::new(Dialect::Mysql);
        e.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
        assert_eq!(e.statements_executed(), 2);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.with_clock(40, |_| panic!("mid-replay unwind"));
        }));
        assert!(unwound.is_err());
        // The RAII guard must have put the fault clock back even though
        // the closure never returned.
        assert_eq!(e.statements_executed(), 2);
        // And the engine keeps working with the correct clock afterwards.
        let stmt = lancer_sql::parse_statement("SELECT c0 FROM t0").unwrap();
        assert_eq!(e.execute_at(7, &stmt).unwrap().rows.len(), 1);
        assert_eq!(e.statements_executed(), 2);
    }

    #[test]
    fn query_rejects_writes_and_open_transactions() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        let write = lancer_sql::parse_statement("INSERT INTO t0(c0) VALUES (1)").unwrap();
        let read = lancer_sql::parse_statement("SELECT c0 FROM t0").unwrap();
        assert!(e.query(5, &write).unwrap_err().message.contains("read-only"));
        e.execute_sql("BEGIN").unwrap();
        assert!(e.query(5, &read).unwrap_err().message.contains("open transaction"));
        // query_here falls back to execute in both situations.
        assert!(e.query_here(&read).is_ok());
        e.execute_sql("COMMIT").unwrap();
        assert!(e.query(5, &read).is_ok());
    }

    #[test]
    fn query_records_the_same_coverage_keys_as_execute() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0, c1)").unwrap();
        e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b')").unwrap();
        let stmt = lancer_sql::parse_statement(
            "SELECT DISTINCT c0, COUNT(*) FROM t0 WHERE c0 + 1 > 1 GROUP BY c0 ORDER BY c0",
        )
        .unwrap();
        // Clones never share the sink, so each side records from the same
        // starting snapshot and the hit sets are directly comparable.
        let mut via_execute = e.clone();
        let via_query = e.clone();
        let ordinal = via_execute.statements_executed();
        let r1 = via_execute.execute(&stmt);
        let r2 = via_query.query(ordinal, &stmt);
        assert_eq!(r1, r2);
        assert_eq!(
            via_execute.coverage().hit_features(),
            via_query.coverage().hit_features(),
            "the two paths must record identical coverage keys"
        );
        // The read path recorded strictly through &self.
        assert!(via_query.coverage().hit_features().contains(&"exec.group_by".to_owned()));
    }

    #[test]
    fn session_marker_statement_switches_sessions() {
        let mut e = Engine::new(Dialect::Sqlite);
        assert_eq!(e.active_session(), 0);
        e.execute_sql("SESSION 3").unwrap();
        assert_eq!(e.active_session(), 3);
        e.execute_sql("BEGIN").unwrap();
        assert!(e.in_transaction(3));
        assert!(!e.in_transaction(0));
        e.execute_sql("SESSION 0").unwrap();
        // Session 3's transaction stays open across the switch.
        e.execute_sql("SESSION 3").unwrap();
        e.execute_sql("COMMIT").unwrap();
        assert!(!e.in_transaction(3));
    }
}
