//! Maintenance statements and run-time options: `VACUUM`, `REINDEX`,
//! `ANALYZE`, `CHECK TABLE`, `REPAIR TABLE`, `PRAGMA`, `SET`,
//! `CREATE STATISTICS`.
//!
//! The paper found these statements to be disproportionately error-prone
//! ("statements that compute or recompute table state were error prone",
//! §4.3), which is why a large share of the error-oracle faults live here.

use lancer_sql::ast::Expr;
use lancer_sql::value::Value;

use crate::bugs::BugId;
use crate::dialect::Dialect;
use crate::error::{EngineError, EngineResult};
use crate::exec::{Engine, QueryResult};

impl Engine {
    pub(crate) fn exec_vacuum(&mut self, full: bool) -> EngineResult<QueryResult> {
        if !self.dialect.has_vacuum() {
            return Err(EngineError::semantic("VACUUM is not supported by this DBMS"));
        }
        self.cover("stmt.vacuum");
        // Injected fault (intended behaviour per the paper, Listing 18):
        // VACUUM FULL fails with an integer overflow via an expression index
        // over near-maximal integers.
        if full
            && self.dialect == Dialect::Postgres
            && self.bugs().is_enabled(BugId::PostgresVacuumIntegerOverflow)
            && self.any_expression_index_over_large_integers()?
        {
            return Err(EngineError::semantic("integer out of range"));
        }
        // Injected fault (intended behaviour): concurrent VACUUM FULL
        // deadlocks; modelled as failing when several tables exist.
        if full
            && self.dialect == Dialect::Postgres
            && self.bugs().is_enabled(BugId::PostgresVacuumFullDeadlock)
            && self.db.table_names().len() >= 3
        {
            return Err(EngineError::internal("deadlock detected"));
        }
        // Injected fault: VACUUM with a LIKE-based index after the
        // case_sensitive_like pragma changed reports a malformed schema
        // (Listing 9, classified as intended/design defect).
        if self.dialect == Dialect::Sqlite
            && self.bugs().is_enabled(BugId::SqliteCaseSensitiveLikePragmaSchema)
            && self.like_pragma_changed
        {
            let like_index = self.db.index_names().into_iter().find(|n| {
                self.db
                    .index(n)
                    .is_some_and(|i| i.def.exprs.iter().any(|e| matches!(e, Expr::Like { .. })))
            });
            if let Some(name) = like_index {
                return Err(EngineError::corruption(format!(
                    "malformed database schema ({name}) - non-deterministic functions prohibited in index expressions"
                )));
            }
        }
        // Injected fault: VACUUM corrupts expression indexes while
        // rebuilding them (§4.4 error-oracle bugs).
        if self.dialect == Dialect::Sqlite
            && self.bugs().is_enabled(BugId::SqliteVacuumExpressionIndexCorruption)
        {
            let targets: Vec<String> = self
                .db
                .index_names()
                .into_iter()
                .filter(|n| {
                    self.db.index(n).is_some_and(|i| {
                        !i.def.implicit && i.def.exprs.iter().any(|e| !matches!(e, Expr::Column(_)))
                    })
                })
                .collect();
            if let Some(name) = targets.first() {
                if let Some(idx) = self.db.index_mut(name) {
                    idx.corrupt("expression index rebuilt incorrectly by VACUUM");
                }
                return Err(EngineError::corruption(format!(
                    "database disk image is malformed (index {name})"
                )));
            }
        }
        // A correct VACUUM rebuilds every index from the table contents and
        // verifies them.
        self.rebuild_all_indexes()?;
        Ok(QueryResult::empty())
    }

    fn any_expression_index_over_large_integers(&self) -> EngineResult<bool> {
        for name in self.db.index_names() {
            let Some(idx) = self.db.index(name.as_str()) else { continue };
            if idx.def.implicit || idx.def.exprs.iter().all(|e| matches!(e, Expr::Column(_))) {
                continue;
            }
            let Some(table) = self.db.table(&idx.def.table) else { continue };
            let has_large = table.rows().any(|(_, r)| {
                r.iter().any(|v| matches!(v, Value::Integer(i) if i.abs() > (1_i64 << 62)))
            });
            if has_large {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Rebuilds every index from its table's rows and verifies it, surfacing
    /// corruption and (spurious or genuine) constraint violations.
    pub(crate) fn rebuild_all_indexes(&mut self) -> EngineResult<()> {
        let names = self.db.index_names();
        for name in names {
            let def = match self.db.index(&name) {
                Some(i) => i.def.clone(),
                None => continue,
            };
            let rebuilt = self.build_index(def)?;
            rebuilt.verify()?;
            if let Some(slot) = self.db.index_mut(&name) {
                *slot = rebuilt;
            }
        }
        Ok(())
    }

    pub(crate) fn exec_reindex(&mut self, target: Option<&str>) -> EngineResult<QueryResult> {
        if !self.dialect.has_reindex() {
            return Err(EngineError::semantic("REINDEX is not supported by this DBMS"));
        }
        self.cover("stmt.reindex");
        // Injected fault: REINDEX reports a spurious UNIQUE violation for
        // NOCASE unique indexes with at least two entries (§4.4).
        if self.bugs().is_enabled(BugId::SqliteReindexSpuriousUniqueFailure) {
            for name in self.db.index_names() {
                let Some(idx) = self.db.index(&name) else { continue };
                if idx.def.unique
                    && idx.def.collations.contains(&lancer_sql::Collation::NoCase)
                    && idx.len() >= 2
                {
                    return Err(EngineError::constraint(format!(
                        "UNIQUE constraint failed: index '{name}'"
                    )));
                }
            }
        }
        // Injected fault: NOT NULL columns added by ALTER TABLE kept NULLs;
        // REINDEX notices the inconsistency (§4.4).
        if self.bugs().is_enabled(BugId::SqliteNotNullDefaultAltered) {
            for table in self.db.table_names() {
                let Some(t) = self.db.table(&table) else { continue };
                for (ci, col) in t.schema.columns.iter().enumerate() {
                    if col.not_null && t.rows().any(|(_, r)| r[ci].is_null()) {
                        return Err(EngineError::corruption(format!(
                            "malformed database schema ({table}.{}) - NOT NULL column holds NULL",
                            col.name
                        )));
                    }
                }
            }
        }
        match target {
            Some(name) => {
                // The target may be an index or a table.
                if self.db.index(name).is_some() {
                    let def = self.db.index(name).expect("checked").def.clone();
                    let rebuilt = self.build_index(def)?;
                    rebuilt.verify()?;
                    if let Some(slot) = self.db.index_mut(name) {
                        *slot = rebuilt;
                    }
                } else if self.db.table(name).is_some() {
                    let names: Vec<String> =
                        self.db.indexes_on(name).iter().map(|i| i.def.name.clone()).collect();
                    for n in names {
                        let def = self.db.index(&n).expect("listed").def.clone();
                        let rebuilt = self.build_index(def)?;
                        rebuilt.verify()?;
                        if let Some(slot) = self.db.index_mut(&n) {
                            *slot = rebuilt;
                        }
                    }
                } else {
                    return Err(EngineError::semantic(format!(
                        "unable to identify the object to be reindexed: {name}"
                    )));
                }
            }
            None => self.rebuild_all_indexes()?,
        }
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_analyze(&mut self, target: Option<&str>) -> EngineResult<QueryResult> {
        self.cover("stmt.analyze");
        let targets: Vec<String> = match target {
            Some(t) => {
                self.db.require_table(t)?;
                vec![t.to_owned()]
            }
            None => self.db.table_names(),
        };
        // Injected fault: ANALYZE validates per-row-group checksums and
        // rejects tables whose row count leaves a partial tail row group
        // (columnar extension).
        if self.bugs().is_enabled(BugId::DuckdbAnalyzeRowGroupChecksum) {
            for t in &targets {
                let n = self.db.require_table(t)?.row_count();
                if n % crate::exec::query::COLUMNAR_LANE_WIDTH != 0 {
                    return Err(EngineError::corruption(format!(
                        "row group checksum mismatch in table \"{t}\": \
                         partial row group of {} rows failed validation",
                        n % crate::exec::query::COLUMNAR_LANE_WIDTH
                    )));
                }
            }
        }
        for t in targets {
            self.analyzed.insert(t.to_ascii_lowercase());
        }
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_check_table(
        &mut self,
        table: &str,
        for_upgrade: bool,
    ) -> EngineResult<QueryResult> {
        if !self.dialect.has_check_repair_table() {
            return Err(EngineError::semantic("CHECK TABLE is not supported by this DBMS"));
        }
        self.cover("stmt.check_table");
        self.db.require_table(table)?;
        // Injected fault: CHECK TABLE ... FOR UPGRADE crashes when an
        // expression index exists (Listing 14 / CVE-2019-2879).
        if for_upgrade
            && self.bugs().is_enabled(BugId::MysqlCheckTableExpressionIndexCrash)
            && self.db.indexes_on(table).iter().any(|i| {
                !i.def.implicit && i.def.exprs.iter().any(|e| !matches!(e, Expr::Column(_)))
            })
        {
            return Err(EngineError::crash("SEGFAULT in Item_func::walk during CHECK TABLE"));
        }
        for idx in self.db.indexes_on(table) {
            idx.verify()?;
        }
        Ok(QueryResult {
            columns: vec!["Table".into(), "Msg_text".into()],
            rows: vec![vec![Value::Text(table.to_owned()), Value::Text("OK".into())]],
            affected: 0,
        })
    }

    pub(crate) fn exec_repair_table(&mut self, table: &str) -> EngineResult<QueryResult> {
        if !self.dialect.has_check_repair_table() {
            return Err(EngineError::semantic("REPAIR TABLE is not supported by this DBMS"));
        }
        self.cover("stmt.repair_table");
        let schema = self.db.require_table(table)?.schema.clone();
        // Injected fault: REPAIR TABLE on a MEMORY-engine table marks it as
        // crashed (§4.3).
        if self.bugs().is_enabled(BugId::MysqlRepairTableMarksCrashed)
            && schema.engine == lancer_sql::ast::stmt::TableEngine::Memory
        {
            return Err(EngineError::internal(format!(
                "Table '{table}' is marked as crashed and should be repaired"
            )));
        }
        self.rebuild_all_indexes()?;
        Ok(QueryResult {
            columns: vec!["Table".into(), "Msg_text".into()],
            rows: vec![vec![Value::Text(table.to_owned()), Value::Text("OK".into())]],
            affected: 0,
        })
    }

    pub(crate) fn exec_pragma(
        &mut self,
        name: &str,
        value: Option<&Value>,
    ) -> EngineResult<QueryResult> {
        if !self.dialect.has_pragma() {
            return Err(EngineError::semantic("PRAGMA is not supported by this DBMS"));
        }
        self.cover("stmt.pragma");
        if name.eq_ignore_ascii_case("case_sensitive_like") {
            self.like_pragma_changed = true;
        }
        match value {
            Some(v) => {
                self.db.set_option(name, v.clone());
                Ok(QueryResult::empty())
            }
            None => {
                let current = self.db.option(name).cloned().unwrap_or(Value::Null);
                Ok(QueryResult {
                    columns: vec![name.to_owned()],
                    rows: vec![vec![current]],
                    affected: 0,
                })
            }
        }
    }

    pub(crate) fn exec_set(
        &mut self,
        clock: u64,
        name: &str,
        value: &Value,
    ) -> EngineResult<QueryResult> {
        if !self.dialect.has_set_option() {
            return Err(EngineError::semantic("SET is not supported by this DBMS"));
        }
        self.cover("stmt.set_option");
        // Injected fault: setting key_cache_division_limit nondeterministically
        // fails (Listing 3); "nondeterminism" is modelled via statement-clock
        // parity so campaigns still observe both behaviours.  The clock is an
        // explicit argument (the dispatcher passes the already-bumped
        // statement counter) so clock-keyed faults have exactly one source
        // of time — the same currency `Engine::query` takes as its ordinal.
        if self.dialect == Dialect::Mysql
            && self.bugs().is_enabled(BugId::MysqlSetOptionNondeterministicError)
            && name.eq_ignore_ascii_case("key_cache_division_limit")
            && clock.is_multiple_of(2)
        {
            return Err(EngineError::semantic("ERROR 1210 (HY000): Incorrect arguments to SET"));
        }
        self.db.set_option(name, value.clone());
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_create_statistics(
        &mut self,
        name: &str,
        columns: &[String],
        table: &str,
    ) -> EngineResult<QueryResult> {
        if !self.dialect.has_statistics_and_discard() {
            return Err(EngineError::semantic("CREATE STATISTICS is not supported by this DBMS"));
        }
        self.cover("stmt.create_statistics");
        let schema = self.db.require_table(table)?.schema.clone();
        for c in columns {
            if schema.column(c).is_none() {
                return Err(EngineError::semantic(format!("column \"{c}\" does not exist")));
            }
        }
        let _ = name;
        self.statistics.insert(table.to_ascii_lowercase());
        Ok(QueryResult::empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugProfile;

    #[test]
    fn maintenance_statements_respect_dialects() {
        let mut mysql = Engine::new(Dialect::Mysql);
        mysql.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
        assert!(mysql.execute_sql("VACUUM").is_err());
        assert!(mysql.execute_sql("REINDEX").is_err());
        mysql.execute_sql("CHECK TABLE t0").unwrap();
        mysql.execute_sql("REPAIR TABLE t0").unwrap();
        assert!(mysql.execute_sql("PRAGMA case_sensitive_like = 1").is_err());
        mysql.execute_sql("SET GLOBAL something = 1").unwrap();

        let mut sqlite = Engine::new(Dialect::Sqlite);
        sqlite.execute_sql("CREATE TABLE t0(c0)").unwrap();
        sqlite.execute_sql("VACUUM").unwrap();
        sqlite.execute_sql("REINDEX").unwrap();
        sqlite.execute_sql("ANALYZE").unwrap();
        sqlite.execute_sql("PRAGMA case_sensitive_like = 1").unwrap();
        assert!(sqlite.execute_sql("SET GLOBAL x = 1").is_err());
        assert!(sqlite.execute_sql("CHECK TABLE t0").is_err());

        let mut pg = Engine::new(Dialect::Postgres);
        pg.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
        pg.execute_sql("VACUUM FULL").unwrap();
        pg.execute_sql("CREATE STATISTICS s0 ON c0 FROM t0").unwrap();
        assert!(pg.execute_sql("CREATE STATISTICS s1 ON nope FROM t0").is_err());
        pg.execute_sql("DISCARD ALL").unwrap();
    }

    #[test]
    fn analyze_tracks_tables() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        assert!(e.execute_sql("ANALYZE nope").is_err());
        e.execute_sql("ANALYZE t0").unwrap();
        assert!(e.analyzed.contains("t0"));
        e.execute_sql("ANALYZE").unwrap();
    }

    #[test]
    fn pragma_read_back() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("PRAGMA case_sensitive_like = 1").unwrap();
        let r = e.execute_sql("PRAGMA case_sensitive_like").unwrap();
        assert_eq!(r.rows[0][0], Value::Integer(1));
        // The pragma influences LIKE evaluation.
        e.execute_sql("CREATE TABLE t0(c0 TEXT)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES ('ABC')").unwrap();
        let r = e.execute_sql("SELECT * FROM t0 WHERE c0 LIKE 'abc'").unwrap();
        assert!(r.rows.is_empty(), "case-sensitive LIKE must not match");
        e.execute_sql("PRAGMA case_sensitive_like = 0").unwrap();
        let r = e.execute_sql("SELECT * FROM t0 WHERE c0 LIKE 'abc'").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn reindex_spurious_unique_failure_fault() {
        let bugs = BugProfile::with(&[BugId::SqliteReindexSpuriousUniqueFailure]);
        let mut e = Engine::with_bugs(Dialect::Sqlite, bugs);
        e.execute_script(
            "CREATE TABLE t0(c0 TEXT COLLATE NOCASE);
             CREATE UNIQUE INDEX i0 ON t0(c0);
             INSERT INTO t0(c0) VALUES ('a'), ('b');",
        )
        .unwrap();
        let err = e.execute_sql("REINDEX").unwrap_err();
        assert!(err.message.contains("UNIQUE constraint failed"));
        // Without the fault REINDEX succeeds.
        let mut clean = Engine::new(Dialect::Sqlite);
        clean
            .execute_script(
                "CREATE TABLE t0(c0 TEXT COLLATE NOCASE);
                 CREATE UNIQUE INDEX i0 ON t0(c0);
                 INSERT INTO t0(c0) VALUES ('a'), ('b');",
            )
            .unwrap();
        clean.execute_sql("REINDEX").unwrap();
    }

    #[test]
    fn check_table_crash_fault_listing14() {
        let bugs = BugProfile::with(&[BugId::MysqlCheckTableExpressionIndexCrash]);
        let mut e = Engine::with_bugs(Dialect::Mysql, bugs);
        e.execute_script(
            "CREATE TABLE t0(c0 INT);
             CREATE INDEX i0 ON t0((t0.c0 || 1));
             INSERT INTO t0(c0) VALUES (1);",
        )
        .unwrap();
        let err = e.execute_sql("CHECK TABLE t0 FOR UPGRADE").unwrap_err();
        assert!(err.is_crash());
        // Plain CHECK TABLE does not crash.
        e.execute_sql("CHECK TABLE t0").unwrap();
    }

    #[test]
    fn set_option_nondeterministic_error_fault() {
        let bugs = BugProfile::with(&[BugId::MysqlSetOptionNondeterministicError]);
        let mut e = Engine::with_bugs(Dialect::Mysql, bugs);
        let mut saw_error = false;
        let mut saw_ok = false;
        for _ in 0..4 {
            match e.execute_sql("SET GLOBAL key_cache_division_limit = 100") {
                Ok(_) => saw_ok = true,
                Err(err) => {
                    assert!(err.message.contains("Incorrect arguments to SET"));
                    saw_error = true;
                }
            }
        }
        assert!(saw_error && saw_ok, "the failure must be intermittent");
    }

    #[test]
    fn vacuum_pragma_schema_fault_listing9() {
        let bugs = BugProfile::with(&[BugId::SqliteCaseSensitiveLikePragmaSchema]);
        let mut e = Engine::with_bugs(Dialect::Sqlite, bugs);
        e.execute_script(
            "CREATE TABLE test (c0);
             CREATE INDEX index_0 ON test(c0 LIKE '');
             PRAGMA case_sensitive_like=false;",
        )
        .unwrap();
        let err = e.execute_sql("VACUUM").unwrap_err();
        assert!(err.message.contains("malformed database schema"));
    }

    #[test]
    fn repair_table_memory_engine_fault() {
        let bugs = BugProfile::with(&[BugId::MysqlRepairTableMarksCrashed]);
        let mut e = Engine::with_bugs(Dialect::Mysql, bugs);
        e.execute_sql("CREATE TABLE t0(c0 INT) ENGINE = MEMORY").unwrap();
        let err = e.execute_sql("REPAIR TABLE t0").unwrap_err();
        assert!(err.message.contains("marked as crashed"));
    }
}
