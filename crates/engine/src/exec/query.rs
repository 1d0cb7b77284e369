//! Query execution: compound queries, the pipeline's `FROM`-source
//! loading, and what the pipeline (`exec::pipeline`) shares with the
//! fault-free reference evaluator (`exec::reference`): the `SELECT`
//! preflight with its planning-time error faults, aggregate evaluation,
//! and the row helpers.
//!
//! [`Engine::load_source`] hands the pipeline a table's rows borrowed
//! from the table's row block; it copies values only for rows no table
//! stores (a view's result, child rows projected onto an inheritance
//! parent).  [`Engine::eval_aggregate_expr`] folds a group through the
//! [`RowView`] trait, so the pipeline's groups of borrowed tuples and the
//! reference's groups of owned rows share one implementation; both bind
//! their aggregate-context expressions once per query with
//! [`Engine::bind_aggregate`].
//!
//! Most containment-oracle faults fire inside `SELECT` execution, because
//! that is where a real DBMS's planner and optimisations live — exactly
//! the components the paper found to be the richest source of logic bugs.
//! The `SELECT`-operator faults hook in the pipeline, and in
//! [`Engine::load_source`], which only the pipeline calls.  The fault
//! hooks in the shared helpers fire through both evaluators.

use std::borrow::Cow;

use lancer_sql::ast::expr::{AggFunc, BinaryOp, Expr, TypeName, UnaryOp};
use lancer_sql::ast::stmt::{CompoundOp, Query, Select, TableEngine};
use lancer_sql::collation::Collation;
use lancer_sql::value::Value;
use lancer_storage::schema::ColumnMeta;
use lancer_storage::StorageError;

use crate::bugs::BugId;
use crate::dialect::Dialect;
use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_aggregate, BoundExpr, Evaluator, RowSchema, RowView, SourceSchema};
use crate::exec::batch::SourceRows;
use crate::exec::{Engine, QueryResult};

/// Rows of one `FROM` source together with its schema.
pub(crate) struct SourceData<'a> {
    pub(crate) schema: SourceSchema,
    pub(crate) rows: SourceRows<'a>,
    pub(crate) memory_engine: bool,
}

impl Engine {
    pub(crate) fn exec_query(&self, q: &Query) -> EngineResult<QueryResult> {
        match q {
            Query::Select(s) => self.exec_select(s),
            Query::Compound { left, op, right } => {
                let l = self.exec_query(left)?;
                let r = self.exec_query(right)?;
                if !l.rows.is_empty() && !r.rows.is_empty() && l.rows[0].len() != r.rows[0].len() {
                    return Err(EngineError::semantic(
                        "SELECTs to the left and right of a compound operator do not have the same number of result columns",
                    ));
                }
                // Both operands are owned, so dedup/concat moves rows into
                // the output instead of cloning them per row.
                let columns = l.columns;
                let rows = match op {
                    CompoundOp::Intersect => {
                        self.cover("exec.compound_intersect");
                        let mut out: Vec<Vec<Value>> = Vec::new();
                        for row in l.rows {
                            if r.contains_row(&row) && !contains(&out, &row) {
                                out.push(row);
                            }
                        }
                        out
                    }
                    CompoundOp::Union => {
                        self.cover("exec.compound_union");
                        let mut out: Vec<Vec<Value>> = Vec::new();
                        for row in l.rows.into_iter().chain(r.rows) {
                            if !contains(&out, &row) {
                                out.push(row);
                            }
                        }
                        out
                    }
                    CompoundOp::UnionAll => {
                        self.cover("exec.compound_union");
                        let mut out = l.rows;
                        out.extend(r.rows);
                        out
                    }
                    CompoundOp::Except => {
                        self.cover("exec.compound_except");
                        let mut out: Vec<Vec<Value>> = Vec::new();
                        for row in l.rows {
                            if !r.contains_row(&row) && !contains(&out, &row) {
                                out.push(row);
                            }
                        }
                        out
                    }
                };
                Ok(QueryResult { columns, rows, affected: 0 })
            }
        }
    }

    /// The checks every `SELECT` runs before any row is produced: source
    /// existence, index-corruption detection, and the planning-time error
    /// faults.  Shared verbatim by the pipeline and the reference
    /// evaluator so both report identical errors in identical order.
    pub(crate) fn select_preflight(&self, s: &Select) -> EngineResult<()> {
        for table in &s.from {
            if self.db.table(table).is_some() {
                self.check_corruption(table)?;
            } else if self.db.view(table).is_none() {
                return Err(StorageError::NoSuchTable(table.clone()).into());
            }
        }
        for j in &s.joins {
            if self.db.table(&j.table).is_some() {
                self.check_corruption(&j.table)?;
            }
        }
        self.planning_faults(s)
    }

    /// Loads the rows of one `FROM` source (table, view, or inheritance
    /// hierarchy) for the pipeline, expanding views through it too.  A
    /// table's rows are borrowed; view rows and projected child rows are
    /// owned.  Home of the two scan faults (WITHOUT ROWID dedup, SERIAL
    /// inheritance bypass).
    pub(crate) fn load_source(&self, name: &str) -> EngineResult<SourceData<'_>> {
        if let Some(view) = self.db.view(name).cloned() {
            self.cover("exec.view_expansion");
            let result = self.exec_select(&view.query)?;
            let columns = result
                .columns
                .iter()
                .map(|c| ColumnMeta {
                    name: c.clone(),
                    type_name: None,
                    collation: Collation::Binary,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                    default: None,
                    check: None,
                })
                .collect();
            return Ok(SourceData {
                schema: SourceSchema { name: name.to_owned(), columns },
                rows: result.rows.into_iter().map(Cow::Owned).collect(),
                memory_engine: false,
            });
        }
        self.cover("exec.table_scan");
        let table = self.db.require_table(name)?;
        let schema = &table.schema;
        let mut rows: SourceRows<'_> = table.rows().map(|(_, r)| Cow::Borrowed(r)).collect();

        // SQLite WITHOUT ROWID tables are physically the primary-key index;
        // the injected NOCASE dedup fault hides case-differing keys
        // (Listing 4).
        if schema.without_rowid
            && self.bugs().is_enabled(BugId::SqliteNoCaseWithoutRowidDedup)
            && self.table_has_nocase(&schema.name)
        {
            if let Some(pk_col) = schema.primary_key.first() {
                if let Some(pk_idx) = schema.column_index(pk_col) {
                    let mut seen: Vec<String> = Vec::new();
                    rows.retain(|r| match &r[pk_idx] {
                        Value::Text(t) => {
                            let key = t.to_ascii_lowercase();
                            if seen.contains(&key) {
                                false
                            } else {
                                seen.push(key);
                                true
                            }
                        }
                        _ => true,
                    });
                }
            }
        }

        // PostgreSQL table inheritance: scanning the parent includes child
        // rows projected onto the parent's columns.
        let children = self.db.children_of(name);
        if !children.is_empty() && self.dialect() == Dialect::Postgres {
            self.cover("exec.inheritance_expansion");
            let skip_children = self.bugs().is_enabled(BugId::PostgresSerialNotNullBypass)
                && schema.columns.iter().any(|c| c.type_name == Some(TypeName::Serial));
            if !skip_children {
                for child in children {
                    let child_table = self.db.require_table(&child)?;
                    let child_schema = &child_table.schema;
                    for (_, row) in child_table.rows() {
                        let projected: Vec<Value> = schema
                            .columns
                            .iter()
                            .map(|pc| {
                                child_schema
                                    .column_index(&pc.name)
                                    .map(|ci| row[ci].clone())
                                    .unwrap_or(Value::Null)
                            })
                            .collect();
                        rows.push(Cow::Owned(projected));
                    }
                }
            }
        }

        Ok(SourceData {
            schema: SourceSchema { name: schema.name.clone(), columns: schema.columns.clone() },
            rows,
            memory_engine: schema.engine == TableEngine::Memory,
        })
    }

    fn table_has_nocase(&self, table: &str) -> bool {
        let nocase_col = self
            .db
            .table(table)
            .map(|t| t.schema.columns.iter().any(|c| c.collation == Collation::NoCase))
            .unwrap_or(false);
        nocase_col
            || self
                .db
                .indexes_on(table)
                .iter()
                .any(|i| i.def.collations.contains(&Collation::NoCase))
    }

    /// Checks for corrupted indexes on a referenced table and reports the
    /// corruption, as a real DBMS would when the query touches them.
    fn check_corruption(&self, table: &str) -> EngineResult<()> {
        for idx in self.db.indexes_on(table) {
            if let Some(reason) = idx.corruption() {
                return Err(EngineError::corruption(format!(
                    "database disk image is malformed (index {}: {reason})",
                    idx.def.name
                )));
            }
        }
        Ok(())
    }

    /// Error-oracle faults that fire while *planning* a `SELECT`.
    fn planning_faults(&self, s: &Select) -> EngineResult<()> {
        if self.dialect() != Dialect::Postgres {
            return Ok(());
        }
        for table in &s.from {
            let has_stats = self.statistics.contains(&table.to_ascii_lowercase());
            let has_expr_index = self.db.indexes_on(table).iter().any(|i| {
                !i.def.implicit && i.def.exprs.iter().any(|e| !matches!(e, Expr::Column(_)))
            });
            if has_stats && has_expr_index {
                if let Some(w) = &s.where_clause {
                    let has_and =
                        expr_contains(w, &|e| matches!(e, Expr::Binary { op: BinaryOp::And, .. }));
                    let has_or =
                        expr_contains(w, &|e| matches!(e, Expr::Binary { op: BinaryOp::Or, .. }));
                    if has_or && self.bugs().is_enabled(BugId::PostgresStatisticsCrashDuplicate) {
                        return Err(EngineError::crash(
                            "server process terminated by signal 11: segmentation fault",
                        ));
                    }
                    if has_and && self.bugs().is_enabled(BugId::PostgresStatisticsNegativeBitmapset)
                    {
                        return Err(EngineError::internal("negative bitmapset member not allowed"));
                    }
                }
            }
            if self.bugs().is_enabled(BugId::PostgresIndexUnexpectedNull) {
                if let Some(w) = &s.where_clause {
                    for idx in self.db.indexes_on(table) {
                        if idx.def.implicit {
                            continue;
                        }
                        let Some(Expr::Column(col)) = idx.def.exprs.first() else { continue };
                        let has_null = self
                            .db
                            .table(table)
                            .map(|t| {
                                t.schema
                                    .column_index(&col.column)
                                    .is_some_and(|ci| t.rows().any(|(_, r)| r[ci].is_null()))
                            })
                            .unwrap_or(false);
                        let has_range = expr_contains(w, &|e| {
                            matches!(
                                e,
                                Expr::Binary { op: BinaryOp::Gt | BinaryOp::Lt, left, right }
                                    if expr_references_column(left, &col.column)
                                        || expr_references_column(right, &col.column)
                            )
                        });
                        if has_null && has_range {
                            return Err(EngineError::internal(format!(
                                "found unexpected null value in index \"{}\"",
                                idx.def.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Binds an expression that may contain aggregate calls to the schema
    /// of the rows it folds, once per query.
    pub(crate) fn bind_aggregate<'e>(
        &self,
        ev: &Evaluator,
        expr: &'e Expr,
        schema: &RowSchema,
    ) -> BoundAggregate<'e> {
        let bind = |e: &'e Expr| Box::new(self.bind_aggregate(ev, e, schema));
        match expr {
            Expr::Aggregate { func, arg, distinct } => BoundAggregate::Fold {
                func: *func,
                arg: arg.as_deref().map(|a| ev.bind(a, schema)),
                distinct: *distinct,
            },
            _ if !expr.contains_aggregate() => BoundAggregate::Row(ev.bind(expr, schema)),
            Expr::Binary { op, left, right } => {
                BoundAggregate::Binary { op: *op, left: bind(left), right: bind(right) }
            }
            Expr::Unary { op, expr: inner } => BoundAggregate::Unary { op: *op, expr: bind(inner) },
            other => BoundAggregate::Unsupported(other),
        }
    }

    /// Evaluates a bound aggregate-context expression over a group of
    /// rows.  Aggregate inputs borrow the group's values.
    pub(crate) fn eval_aggregate_expr<R: RowView>(
        &self,
        ev: &Evaluator,
        expr: &BoundAggregate<'_>,
        group: &[R],
    ) -> EngineResult<Value> {
        self.cover("expr.aggregate");
        match expr {
            BoundAggregate::Fold { func, arg, distinct } => {
                let mut values: Vec<Cow<'_, Value>> = match arg {
                    None => group.iter().map(|_| Cow::Owned(Value::Integer(1))).collect(),
                    Some(a) => {
                        group.iter().map(|r| ev.eval_bound(a, r)).collect::<EngineResult<_>>()?
                    }
                };
                // Injected fault: the vectorised SUM fold processes whole
                // lane-width blocks and skips the partial tail block
                // (DuckDB lane-width fault).  The pipeline and the
                // reference evaluator both aggregate through here, so
                // they undercount identically.
                if *func == AggFunc::Sum
                    && !*distinct
                    && self.bugs().is_enabled(BugId::DuckdbSumLaneWideningSkipsTail)
                {
                    values.truncate(columnar_sum_tail_len(values.len()));
                }
                eval_aggregate(*func, &values, *distinct, self.dialect())
            }
            // Non-aggregate expressions are evaluated against the first row
            // of the group (the bare-column shortcut SQLite and MySQL allow).
            BoundAggregate::Row(e) => match group.first() {
                Some(r) => ev.eval_bound(e, r).map(Cow::into_owned),
                None => Ok(Value::Null),
            },
            // The folded operands combine like literals: no collation and
            // no declared type.
            BoundAggregate::Binary { op, left, right } => {
                let l = self.eval_aggregate_expr(ev, left, group)?;
                let r = self.eval_aggregate_expr(ev, right, group)?;
                let combined = BoundExpr::Binary {
                    op: *op,
                    left: Box::new(BoundExpr::Literal(Cow::Owned(l))),
                    right: Box::new(BoundExpr::Literal(Cow::Owned(r))),
                    collation: Collation::Binary,
                    types: [None, None],
                };
                ev.eval_bound(&combined, NO_ROW).map(Cow::into_owned)
            }
            BoundAggregate::Unary { op, expr: inner } => {
                let v = self.eval_aggregate_expr(ev, inner, group)?;
                let combined =
                    BoundExpr::Unary { op: *op, expr: Box::new(BoundExpr::Literal(Cow::Owned(v))) };
                ev.eval_bound(&combined, NO_ROW).map(Cow::into_owned)
            }
            BoundAggregate::Unsupported(other) => Err(EngineError::semantic(format!(
                "unsupported aggregate expression shape: {other}"
            ))),
        }
    }
}

/// An expression in aggregate context (a projection item or `HAVING` of
/// an aggregating `SELECT`), bound once per query by
/// [`Engine::bind_aggregate`].
pub(crate) enum BoundAggregate<'e> {
    /// An aggregate call, folded over the group.
    Fold { func: AggFunc, arg: Option<BoundExpr<'e>>, distinct: bool },
    /// An expression without aggregates, evaluated on the group's first
    /// row.
    Row(BoundExpr<'e>),
    /// A binary operator over two aggregate-context operands.
    Binary { op: BinaryOp, left: Box<BoundAggregate<'e>>, right: Box<BoundAggregate<'e>> },
    /// A unary operator over an aggregate-context operand.
    Unary { op: UnaryOp, expr: Box<BoundAggregate<'e>> },
    /// Any other shape holding an aggregate: an error when evaluated.
    Unsupported(&'e Expr),
}

/// Lane width of the vectorised engine the DuckDB profile emulates.  Its
/// three lane-width faults all key off a table length that is not a
/// multiple of this, so a generated table with a "ragged" row count
/// exposes them.
pub(crate) const COLUMNAR_LANE_WIDTH: usize = 8;

/// Number of values a lane-blocked SUM fold actually consumes when the
/// tail-skipping fault is enabled: the largest lane multiple ≤ `n`.
pub(crate) fn columnar_sum_tail_len(n: usize) -> usize {
    n - n % COLUMNAR_LANE_WIDTH
}

/// The row of a constant expression (no columns).
const NO_ROW: &[Value] = &[];

pub(crate) fn contains(rows: &[Vec<Value>], row: &[Value]) -> bool {
    rows.iter().any(|r| r.len() == row.len() && r.iter().zip(row.iter()).all(|(a, b)| a.same_as(b)))
}

/// Returns `true` if any node of the expression satisfies the predicate.
fn expr_contains(expr: &Expr, pred: &dyn Fn(&Expr) -> bool) -> bool {
    if pred(expr) {
        return true;
    }
    let mut found = false;
    expr.for_each_child(&mut |c| {
        if !found {
            found = expr_contains(c, pred);
        }
    });
    found
}

pub(crate) fn expr_references_column(expr: &Expr, column: &str) -> bool {
    expr.column_refs().iter().any(|c| c.column.eq_ignore_ascii_case(column))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugProfile;

    fn sqlite() -> Engine {
        Engine::new(Dialect::Sqlite)
    }

    #[test]
    fn listing1_pivot_row_is_fetched_without_the_fault() {
        let mut e = sqlite();
        e.execute_script(
            "CREATE TABLE t0(c0);
             CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
             INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);",
        )
        .unwrap();
        let r = e.execute_sql("SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1").unwrap();
        assert_eq!(r.rows.len(), 4);
        assert!(r.contains_row(&[Value::Null]));
    }

    #[test]
    fn listing1_fault_drops_the_null_pivot_row() {
        let mut e = Engine::with_bugs(
            Dialect::Sqlite,
            BugProfile::with(&[BugId::SqlitePartialIndexImpliesNotNull]),
        );
        e.execute_script(
            "CREATE TABLE t0(c0);
             CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
             INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);",
        )
        .unwrap();
        let r = e.execute_sql("SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1").unwrap();
        assert!(!r.contains_row(&[Value::Null]), "the fault must hide the NULL row");
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn projection_joins_where_order_limit() {
        let mut e = sqlite();
        e.execute_script(
            "CREATE TABLE t0(c0 INT, c1 TEXT);
             CREATE TABLE t1(c0 INT);
             INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c');
             INSERT INTO t1(c0) VALUES (2), (3), (4);",
        )
        .unwrap();
        let r = e.execute_sql("SELECT t0.c1 FROM t0, t1 WHERE t0.c0 = t1.c0").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = e
            .execute_sql("SELECT t0.c0, t1.c0 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 ORDER BY t0.c0")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0], vec![Value::Integer(1), Value::Null]);
        let r = e.execute_sql("SELECT c0 FROM t0 ORDER BY c0 DESC LIMIT 2").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Integer(3)], vec![Value::Integer(2)]]);
        let r = e.execute_sql("SELECT c0 FROM t0 ORDER BY c0 LIMIT 1 OFFSET 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Integer(2)]]);
        let r = e.execute_sql("SELECT * FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns, vec!["c0", "c1", "c0"]);
    }

    #[test]
    fn distinct_and_aggregates() {
        let mut e = sqlite();
        e.execute_script(
            "CREATE TABLE t0(c0 INT, c1 INT);
             INSERT INTO t0(c0, c1) VALUES (1, 1), (1, 1), (2, 1), (NULL, 2);",
        )
        .unwrap();
        let r = e.execute_sql("SELECT DISTINCT c0, c1 FROM t0").unwrap();
        assert_eq!(r.rows.len(), 3);
        let r =
            e.execute_sql("SELECT COUNT(*), SUM(c0), MIN(c0), MAX(c0), AVG(c0) FROM t0").unwrap();
        assert_eq!(r.rows[0][0], Value::Integer(4));
        assert_eq!(r.rows[0][1], Value::Integer(4));
        assert_eq!(r.rows[0][2], Value::Integer(1));
        assert_eq!(r.rows[0][3], Value::Integer(2));
        let r = e.execute_sql("SELECT c1, COUNT(*) FROM t0 GROUP BY c1").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r =
            e.execute_sql("SELECT c1, COUNT(*) FROM t0 GROUP BY c1 HAVING COUNT(*) > 1").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::Integer(3));
        let r = e.execute_sql("SELECT COUNT(*) FROM t0 WHERE c0 > 100").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Integer(0)]]);
    }

    #[test]
    fn views_and_compound_queries() {
        let mut e = sqlite();
        e.execute_script(
            "CREATE TABLE t0(c0 INT);
             INSERT INTO t0(c0) VALUES (1), (2), (3);
             CREATE VIEW v0 AS SELECT c0 FROM t0 WHERE c0 > 1;",
        )
        .unwrap();
        let r = e.execute_sql("SELECT * FROM v0").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = e.execute_sql("SELECT 2 INTERSECT SELECT c0 FROM t0").unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = e.execute_sql("SELECT 9 INTERSECT SELECT c0 FROM t0").unwrap();
        assert!(r.rows.is_empty());
        let r = e.execute_sql("SELECT c0 FROM t0 UNION SELECT c0 FROM t0").unwrap();
        assert_eq!(r.rows.len(), 3);
        let r = e.execute_sql("SELECT c0 FROM t0 UNION ALL SELECT c0 FROM t0").unwrap();
        assert_eq!(r.rows.len(), 6);
        let r = e.execute_sql("SELECT c0 FROM t0 EXCEPT SELECT 2").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn postgres_inheritance_scan_includes_children() {
        let mut e = Engine::new(Dialect::Postgres);
        e.execute_script(
            "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT);
             CREATE TABLE t1(c0 INT, c1 INT) INHERITS (t0);
             INSERT INTO t0(c0, c1) VALUES (0, 0);
             INSERT INTO t1(c0, c1) VALUES (0, 1);",
        )
        .unwrap();
        let r = e.execute_sql("SELECT c0, c1 FROM t0 GROUP BY c0, c1").unwrap();
        assert_eq!(r.rows.len(), 2, "both the parent and the child row form groups");
    }

    #[test]
    fn listing15_fault_merges_inherited_group() {
        let mut e = Engine::with_bugs(
            Dialect::Postgres,
            BugProfile::with(&[BugId::PostgresInheritanceGroupByMissingRow]),
        );
        e.execute_script(
            "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT);
             CREATE TABLE t1(c0 INT, c1 INT) INHERITS (t0);
             INSERT INTO t0(c0, c1) VALUES (0, 0);
             INSERT INTO t1(c0, c1) VALUES (0, 1);",
        )
        .unwrap();
        let r = e.execute_sql("SELECT c0, c1 FROM t0 GROUP BY c0, c1").unwrap();
        assert_eq!(r.rows.len(), 1, "the fault merges the child row into the parent group");
    }

    #[test]
    fn skip_scan_distinct_fault_requires_analyze() {
        let bugs = BugProfile::with(&[BugId::SqliteSkipScanDistinct]);
        let mut e = Engine::with_bugs(Dialect::Sqlite, bugs);
        e.execute_script(
            "CREATE TABLE t1(c1, c2, c3, c4, PRIMARY KEY (c4, c3));
             INSERT INTO t1(c3, c4) VALUES (0, 1), (1, 2), (0, 3);",
        )
        .unwrap();
        let before = e.execute_sql("SELECT DISTINCT c3, c4 FROM t1").unwrap();
        assert_eq!(before.rows.len(), 3, "fault is dormant before ANALYZE");
        e.execute_sql("ANALYZE t1").unwrap();
        let after = e.execute_sql("SELECT DISTINCT c3, c4 FROM t1").unwrap();
        assert!(after.rows.len() < 3, "fault drops rows after ANALYZE");
    }

    #[test]
    fn memory_engine_join_fault() {
        let bugs = BugProfile::with(&[BugId::MysqlMemoryEngineJoinMiss]);
        let mut e = Engine::with_bugs(Dialect::Mysql, bugs);
        e.execute_script(
            "CREATE TABLE t0(c0 INT);
             CREATE TABLE t1(c0 INT) ENGINE = MEMORY;
             INSERT INTO t0(c0) VALUES (0);
             INSERT INTO t1(c0) VALUES (-1);",
        )
        .unwrap();
        let r = e
            .execute_sql(
                "SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (IFNULL('u', t0.c0))",
            )
            .unwrap();
        assert!(r.rows.is_empty(), "the fault drops the negative MEMORY-engine row");
        // Without the fault the row is fetched.
        let mut clean = Engine::new(Dialect::Mysql);
        clean
            .execute_script(
                "CREATE TABLE t0(c0 INT);
                 CREATE TABLE t1(c0 INT) ENGINE = MEMORY;
                 INSERT INTO t0(c0) VALUES (0);
                 INSERT INTO t1(c0) VALUES (-1);",
            )
            .unwrap();
        let r = clean
            .execute_sql("SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (t0.c0)")
            .unwrap();
        assert_eq!(r.rows.len(), 1, "without the fault the MEMORY-engine row joins normally");
    }

    #[test]
    fn like_int_affinity_fault_listing7() {
        let mut clean = sqlite();
        clean
            .execute_script(
                "CREATE TABLE t0(c0 INT UNIQUE COLLATE NOCASE);
                 INSERT INTO t0(c0) VALUES ('./');",
            )
            .unwrap();
        let r = clean.execute_sql("SELECT * FROM t0 WHERE t0.c0 LIKE './'").unwrap();
        assert_eq!(r.rows.len(), 1);
        let mut buggy = Engine::with_bugs(
            Dialect::Sqlite,
            BugProfile::with(&[BugId::SqliteLikeIntAffinityOptimisation]),
        );
        buggy
            .execute_script(
                "CREATE TABLE t0(c0 INT UNIQUE COLLATE NOCASE);
                 INSERT INTO t0(c0) VALUES ('./');",
            )
            .unwrap();
        let r = buggy.execute_sql("SELECT * FROM t0 WHERE t0.c0 LIKE './'").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn postgres_planning_fault_listing16() {
        let bugs = BugProfile::with(&[BugId::PostgresStatisticsNegativeBitmapset]);
        let mut e = Engine::with_bugs(Dialect::Postgres, bugs);
        e.execute_script(
            "CREATE TABLE t0(c0 SERIAL, c1 BOOLEAN);
             CREATE STATISTICS s1 ON c0, c1 FROM t0;
             INSERT INTO t0(c1) VALUES (TRUE);
             ANALYZE;
             CREATE INDEX i0 ON t0((t0.c1 AND t0.c1));",
        )
        .unwrap();
        let err =
            e.execute_sql("SELECT t0.c0 FROM t0 WHERE (t0.c1 AND t0.c1) OR FALSE").unwrap_err();
        assert!(err.message.contains("negative bitmapset member"), "{}", err.message);
    }

    #[test]
    fn where_filter_strictness_in_postgres() {
        let mut e = Engine::new(Dialect::Postgres);
        e.execute_script("CREATE TABLE t0(c0 INT); INSERT INTO t0(c0) VALUES (1);").unwrap();
        assert!(e.execute_sql("SELECT * FROM t0 WHERE c0 + 1").is_err());
        assert_eq!(e.execute_sql("SELECT * FROM t0 WHERE c0 = 1").unwrap().rows.len(), 1);
    }

    #[test]
    fn select_from_missing_table_errors() {
        let mut e = sqlite();
        assert!(e.execute_sql("SELECT * FROM nope").is_err());
    }
}
