//! Baseline approaches the paper compares against conceptually (§4.1, §6):
//! RAGS-style **differential testing** and a SQLsmith/AFL-style **crash
//! fuzzer**.  Neither has a containment oracle, which is exactly what the
//! comparison benches demonstrate.

use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::expr::{BinaryOp, TypeName};
use lancer_sql::ast::stmt::{Select, SelectItem, Statement, TableEngine};
use lancer_sql::ast::{Expr, Query};
use lancer_sql::value::{ExactRow, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::gen::{random_expression, GenConfig, StateGenerator, VisibleColumn};
use crate::oracle::ErrorOracle;

/// Report of a differential-testing run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DifferentialReport {
    /// Statements produced by the (SQLite-profile) generator.
    pub generated_statements: u64,
    /// Of those, the statements expressible in the common SQL core that all
    /// three dialects accept.
    pub common_core_statements: u64,
    /// Queries whose results were compared across all three dialects.
    pub queries_compared: u64,
    /// Result-set mismatches (candidate bugs; shared bugs stay invisible).
    pub mismatches: u64,
}

impl DifferentialReport {
    /// Fraction of generated statements that differential testing can use.
    #[must_use]
    pub fn applicability(&self) -> f64 {
        if self.generated_statements == 0 {
            return 0.0;
        }
        self.common_core_statements as f64 / self.generated_statements as f64
    }
}

/// Returns `true` if a statement only uses the common SQL core shared by the
/// three dialects (the limitation RAGS ran into, §1/§6).
#[must_use]
pub fn is_common_core(stmt: &Statement) -> bool {
    fn expr_ok(e: &Expr) -> bool {
        let mut ok = true;
        fn walk(e: &Expr, ok: &mut bool) {
            match e {
                Expr::Binary {
                    op: BinaryOp::Is | BinaryOp::IsNot | BinaryOp::NullSafeEq, ..
                } => *ok = false,
                Expr::Collate { .. } => *ok = false,
                Expr::Cast {
                    type_name:
                        TypeName::Unsigned | TypeName::TinyInt | TypeName::Serial | TypeName::Boolean,
                    ..
                } => *ok = false,
                Expr::Literal(Value::Boolean(_)) => *ok = false,
                _ => {}
            }
            e.for_each_child(&mut |c| walk(c, ok));
        }
        walk(e, &mut ok);
        ok
    }
    match stmt {
        Statement::CreateTable(ct) => {
            ct.engine == TableEngine::Default
                && !ct.without_rowid
                && ct.inherits.is_none()
                && ct.columns.iter().all(|c| {
                    matches!(c.type_name, Some(TypeName::Integer | TypeName::Real | TypeName::Text))
                        && c.collation().is_none()
                })
        }
        Statement::CreateIndex(ci) => {
            ci.where_clause.is_none()
                && ci
                    .columns
                    .iter()
                    .all(|c| matches!(c.expr, Expr::Column(_)) && c.collation.is_none())
        }
        Statement::Insert(ins) => ins.rows.iter().flatten().all(expr_ok),
        Statement::Update(u) => {
            u.assignments.iter().all(|(_, e)| expr_ok(e))
                && u.where_clause.as_ref().is_none_or(expr_ok)
        }
        Statement::Delete(d) => d.where_clause.as_ref().is_none_or(expr_ok),
        Statement::Select(Query::Select(s)) => {
            s.where_clause.as_ref().is_none_or(expr_ok)
                && s.items.iter().all(|i| match i {
                    SelectItem::Wildcard => true,
                    SelectItem::Expr { expr, .. } => expr_ok(expr),
                })
        }
        Statement::Analyze { .. } => true,
        // Everything else (PRAGMA, SET, VACUUM, REINDEX, engines, inheritance,
        // CHECK/REPAIR TABLE, statistics, ...) is dialect-specific.
        _ => false,
    }
}

/// Runs RAGS-style differential testing: common-core statements are executed
/// on all three dialect engines (each carrying its own fault profile) and
/// query results are compared as multisets.
#[must_use]
pub fn run_differential(seed: u64, databases: usize, queries_per_db: usize) -> DifferentialReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = DifferentialReport::default();
    for _ in 0..databases {
        let mut engines: Vec<Engine> =
            Dialect::ALL.iter().map(|d| Engine::with_bugs(*d, BugProfile::all_for(*d))).collect();
        // Generate with the most permissive profile and keep only the common
        // core, mirroring the small shared surface RAGS could exercise.
        let mut scratch = Engine::new(Dialect::Sqlite);
        let mut generator = StateGenerator::new(Dialect::Sqlite, GenConfig::tiny());
        let (log, _failures) = generator.generate_database(&mut rng, &mut scratch);
        for stmt in &log {
            report.generated_statements += 1;
            if !is_common_core(stmt) {
                continue;
            }
            report.common_core_statements += 1;
            for engine in &mut engines {
                let _ = engine.execute(stmt);
            }
        }
        // Compare the result of common-core queries over the shared tables.
        let columns: Vec<VisibleColumn> = StateGenerator::visible_columns(&engines[0]);
        for _ in 0..queries_per_db {
            let tables = engines[0].database().table_names();
            if tables.is_empty() {
                break;
            }
            let table = tables[rng.gen_range(0..tables.len())].clone();
            let local: Vec<VisibleColumn> =
                columns.iter().filter(|c| c.table == table).cloned().collect();
            let condition = random_expression(&mut rng, &local, Dialect::Postgres, 0);
            let select = Statement::Select(Query::Select(Box::new(Select {
                where_clause: Some(condition),
                ..Select::star(vec![table])
            })));
            if !is_common_core(&select) {
                continue;
            }
            report.generated_statements += 1;
            report.common_core_statements += 1;
            let results: Vec<Option<Vec<Vec<Value>>>> =
                engines.iter_mut().map(|e| e.execute(&select).ok().map(|r| r.rows)).collect();
            let mut sets = results.into_iter().flatten();
            if let Some(first) = sets.next() {
                report.queries_compared += 1;
                let first_sorted = sorted(first);
                for other in sets {
                    if sorted(other) != first_sorted {
                        report.mismatches += 1;
                        break;
                    }
                }
            }
        }
    }
    report
}

/// A result as a multiset: its rows sorted under the exact row order.
fn sorted(rows: Vec<Vec<Value>>) -> Vec<ExactRow> {
    let mut out: Vec<ExactRow> = rows.into_iter().map(ExactRow).collect();
    out.sort_unstable();
    out
}

/// Report of a crash-fuzzer run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FuzzerReport {
    /// Statements executed.
    pub statements: u64,
    /// Simulated crashes observed.
    pub crashes: u64,
    /// Corruption / internal errors observed (what AFL-style fuzzing with
    /// sanitizers would catch).
    pub internal_errors: u64,
    /// Logic bugs observed — always 0: the fuzzer has no containment oracle.
    pub logic_bugs: u64,
}

/// Runs a SQLsmith-style crash fuzzer for one dialect: random statements,
/// no oracle beyond "did the process crash or corrupt its database".
#[must_use]
pub fn run_fuzzer(
    dialect: Dialect,
    seed: u64,
    databases: usize,
    queries_per_db: usize,
) -> FuzzerReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FuzzerReport::default();
    let error_oracle = ErrorOracle;
    for _ in 0..databases {
        let mut engine = Engine::with_bugs(dialect, BugProfile::all_for(dialect));
        let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
        let (log, failures) = generator.generate_database(&mut rng, &mut engine);
        report.statements += (log.len() + failures.len()) as u64;
        for (_stmt, err) in &failures {
            if err.is_crash() {
                report.crashes += 1;
            } else if err.always_unexpected() {
                report.internal_errors += 1;
            }
        }
        let columns = StateGenerator::visible_columns(&engine);
        for _ in 0..queries_per_db {
            let tables = engine.database().table_names();
            if tables.is_empty() {
                break;
            }
            let table = tables[rng.gen_range(0..tables.len())].clone();
            let condition = random_expression(&mut rng, &columns, dialect, 0);
            let select = Statement::Select(Query::Select(Box::new(Select {
                where_clause: Some(condition),
                ..Select::star(vec![table])
            })));
            report.statements += 1;
            match engine.execute(&select) {
                Ok(_) => {}
                Err(e) if e.is_crash() => report.crashes += 1,
                Err(e) if !error_oracle.is_expected(&select, &e) && e.always_unexpected() => {
                    report.internal_errors += 1;
                }
                Err(_) => {}
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::parse_statement;

    #[test]
    fn common_core_classification() {
        let core = [
            "CREATE TABLE t0(c0 INT, c1 TEXT)",
            "INSERT INTO t0(c0) VALUES (1)",
            "SELECT * FROM t0 WHERE c0 = 1",
            "CREATE INDEX i0 ON t0(c0)",
            "UPDATE t0 SET c0 = 2 WHERE c0 < 5",
        ];
        for sql in core {
            assert!(is_common_core(&parse_statement(sql).unwrap()), "{sql}");
        }
        let non_core = [
            "CREATE TABLE t0(c0)",
            "CREATE TABLE t0(c0 INT) ENGINE = MEMORY",
            "CREATE TABLE t0(c0 INT) INHERITS (t1)",
            "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID",
            "SELECT * FROM t0 WHERE c0 IS NOT 1",
            "SELECT * FROM t0 WHERE c0 <=> 1",
            "SELECT * FROM t0 WHERE c0 = 'a' COLLATE NOCASE",
            "PRAGMA case_sensitive_like = 1",
            "SET GLOBAL x = 1",
            "VACUUM",
            "CHECK TABLE t0",
        ];
        for sql in non_core {
            assert!(!is_common_core(&parse_statement(sql).unwrap()), "{sql}");
        }
    }

    #[test]
    fn differential_testing_has_limited_applicability() {
        let report = run_differential(7, 3, 20);
        assert!(report.generated_statements > 0);
        assert!(
            report.common_core_statements < report.generated_statements,
            "some generated statements must fall outside the common core"
        );
        assert!(report.applicability() < 1.0);
    }

    #[test]
    fn fuzzer_finds_no_logic_bugs() {
        let report = run_fuzzer(Dialect::Sqlite, 3, 3, 20);
        assert!(report.statements > 0);
        assert_eq!(report.logic_bugs, 0, "a crash fuzzer has no logic-bug oracle");
    }
}
