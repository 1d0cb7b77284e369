//! DML execution: `INSERT`, `UPDATE`, `DELETE`.

use lancer_sql::ast::expr::TypeName;
use lancer_sql::ast::stmt::{Delete, Insert, OnConflict, Update};
use lancer_sql::ast::Expr;
use lancer_sql::value::{real_to_int_saturating, text_integer_prefix, text_numeric_prefix, Value};
use lancer_storage::index::IndexDef;
use lancer_storage::schema::{Affinity, ColumnMeta, TableSchema};
use lancer_storage::{RowId, StorageError};

use crate::bugs::BugId;
use crate::dialect::Dialect;
use crate::error::{EngineError, EngineResult};
use crate::eval::{BoundExpr, Evaluator, RowSchema};
use crate::exec::ddl::IndexKey;
use crate::exec::{Engine, QueryResult};

/// The table a writing statement (`INSERT`, `UPDATE`) targets, with its
/// CHECK constraints and index keys bound to its row schema once per
/// statement, so the per-row checks resolve no name and build no schema.
struct BoundTable<'s> {
    ev: Evaluator,
    schema: &'s TableSchema,
    row_schema: RowSchema,
    /// Each column's CHECK constraint, in column order.
    column_checks: Vec<Option<BoundExpr<'s>>>,
    /// The table-level CHECK constraints.
    table_checks: Vec<BoundExpr<'s>>,
    /// One key per index on the table, in catalog order.
    keys: Vec<IndexKey<'s>>,
}

impl<'s> BoundTable<'s> {
    fn bind(ev: Evaluator, schema: &'s TableSchema, index_defs: &'s [IndexDef]) -> BoundTable<'s> {
        let row_schema = RowSchema::of_table(schema);
        let bind = |e: &'s Expr| ev.bind(e, &row_schema);
        BoundTable {
            ev,
            schema,
            column_checks: schema.columns.iter().map(|c| c.check.as_ref().map(bind)).collect(),
            table_checks: schema.checks.iter().map(bind).collect(),
            keys: index_defs.iter().map(|d| IndexKey::bind(&ev, d, &row_schema)).collect(),
            row_schema,
        }
    }
}

impl Engine {
    /// Applies the column's affinity / strict type to a freshly evaluated
    /// value, following the dialect's conversion rules.
    pub(crate) fn apply_affinity(&self, value: Value, col: &ColumnMeta) -> EngineResult<Value> {
        if value.is_null() {
            return Ok(Value::Null);
        }
        let affinity = col.affinity();
        match self.dialect() {
            Dialect::Sqlite => Ok(apply_sqlite_affinity(value, affinity)),
            Dialect::Mysql => apply_mysql_type(value, col),
            // Both strictly typed profiles share the no-affinity conversion
            // rules; DuckDB simply never declares SERIAL or BLOB columns.
            Dialect::Postgres | Dialect::Duckdb => apply_postgres_type(value, col),
        }
    }

    fn next_serial(&mut self, table: &str, column: &str) -> i64 {
        let key = (table.to_ascii_lowercase(), column.to_ascii_lowercase());
        let counter = self.serial_counters.entry(key).or_insert(0);
        *counter += 1;
        *counter
    }

    /// Checks NOT NULL and CHECK constraints for a candidate row.
    fn check_row_constraints(&self, table: &BoundTable<'_>, values: &[Value]) -> EngineResult<()> {
        let (ev, schema) = (&table.ev, table.schema);
        for ((col, check), value) in schema.columns.iter().zip(&table.column_checks).zip(values) {
            if col.not_null && value.is_null() {
                return Err(EngineError::constraint(format!(
                    "NOT NULL constraint failed: {}.{}",
                    schema.name, col.name
                )));
            }
            if let Some(check) = check {
                if ev.eval_bound_predicate(check, values)? == lancer_sql::TriBool::False {
                    return Err(EngineError::constraint(format!(
                        "CHECK constraint failed: {}.{}",
                        schema.name, col.name
                    )));
                }
            }
        }
        for check in &table.table_checks {
            if ev.eval_bound_predicate(check, values)? == lancer_sql::TriBool::False {
                return Err(EngineError::constraint(format!(
                    "CHECK constraint failed: {}",
                    schema.name
                )));
            }
        }
        Ok(())
    }

    /// Finds rows whose unique-index keys conflict with the candidate row.
    fn find_conflicts(
        &self,
        table: &BoundTable<'_>,
        values: &[Value],
        exclude: Option<RowId>,
    ) -> EngineResult<Vec<RowId>> {
        let mut conflicts = Vec::new();
        for key in &table.keys {
            if !key.def.unique {
                continue;
            }
            let Some(index) = self.db.index(&key.def.name) else { continue };
            if let Some(key) = key.of(&table.ev, values)? {
                if key.iter().any(Value::is_null) {
                    continue;
                }
                for rid in index.lookup(&key) {
                    if Some(rid) != exclude && !conflicts.contains(&rid) {
                        conflicts.push(rid);
                    }
                }
            }
        }
        Ok(conflicts)
    }

    /// Adds a row's entries to every index of its table.
    fn index_insert_row(
        &mut self,
        table: &BoundTable<'_>,
        values: &[Value],
        row_id: RowId,
    ) -> EngineResult<()> {
        let keys: Vec<Option<Vec<Value>>> =
            table.keys.iter().map(|key| key.of(&table.ev, values)).collect::<EngineResult<_>>()?;
        for (bound, key) in table.keys.iter().zip(keys) {
            if let Some(key) = key {
                let name = &bound.def.name;
                let idx = self
                    .db
                    .index_mut(name)
                    .ok_or_else(|| StorageError::NoSuchIndex(name.clone()))?;
                idx.insert(key, row_id)?;
            }
        }
        Ok(())
    }

    /// The definitions of a table's indexes, in catalog order, for a
    /// statement to bind once.
    fn index_defs(&self, table: &str) -> Vec<IndexDef> {
        self.db.indexes_on(table).iter().map(|i| i.def.clone()).collect()
    }

    /// Removes a row from the table and all its indexes.
    pub(crate) fn remove_row_everywhere(&mut self, table: &str, row_id: RowId) -> EngineResult<()> {
        for idx in self.db.indexes_on_mut(table) {
            idx.remove_row(row_id);
        }
        self.db.require_table_mut(table)?.delete(row_id);
        Ok(())
    }

    pub(crate) fn exec_insert(&mut self, ins: &Insert) -> EngineResult<QueryResult> {
        self.cover("stmt.insert");
        let schema = self.db.require_table(&ins.table)?.schema.clone();
        // Resolve target columns.
        let target_indices: Vec<usize> = if ins.columns.is_empty() {
            (0..schema.columns.len()).collect()
        } else {
            ins.columns
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .ok_or_else(|| EngineError::from(StorageError::NoSuchColumn(c.clone())))
                })
                .collect::<EngineResult<_>>()?
        };
        let ev = self.evaluator();
        let index_defs = self.index_defs(&schema.name);
        let table = BoundTable::bind(ev, &schema, &index_defs);
        let ev_schema = RowSchema::empty();
        let mut affected = 0usize;
        for row_exprs in &ins.rows {
            if row_exprs.len() != target_indices.len() {
                return Err(EngineError::semantic(format!(
                    "table {} has {} columns but {} values were supplied",
                    ins.table,
                    target_indices.len(),
                    row_exprs.len()
                )));
            }
            // Evaluate the supplied expressions in a constant context.
            let mut supplied = Vec::with_capacity(row_exprs.len());
            for e in row_exprs {
                supplied.push(ev.eval::<[Value]>(e, &ev_schema, &[])?);
            }
            // Assemble the full row with defaults / serial values.
            let mut values: Vec<Value> = Vec::with_capacity(schema.columns.len());
            for (ci, col) in schema.columns.iter().enumerate() {
                let supplied_pos = target_indices.iter().position(|&t| t == ci);
                let raw = match supplied_pos {
                    Some(p) => supplied[p].clone(),
                    None => match &col.default {
                        Some(d) => {
                            self.cover("constraint.default");
                            d.clone()
                        }
                        None if col.type_name == Some(TypeName::Serial) => {
                            Value::Integer(self.next_serial(&schema.name, &col.name))
                        }
                        None => Value::Null,
                    },
                };
                let converted = self.apply_affinity(raw, col)?;
                values.push(converted);
            }
            self.cover("constraint.not_null");
            if schema.columns.iter().any(|c| c.check.is_some()) || !schema.checks.is_empty() {
                self.cover("constraint.check");
            }
            // NOT NULL / CHECK.
            let constraint_result = self.check_row_constraints(&table, &values);
            if let Err(e) = constraint_result {
                match ins.on_conflict {
                    OnConflict::Ignore => {
                        self.cover("constraint.on_conflict_ignore");
                        continue;
                    }
                    _ => return Err(e),
                }
            }
            // Uniqueness.
            let conflicts = self.find_conflicts(&table, &values, None)?;
            if !conflicts.is_empty() {
                match ins.on_conflict {
                    OnConflict::Abort => {
                        return Err(EngineError::constraint(format!(
                            "UNIQUE constraint failed: {}",
                            schema.name
                        )));
                    }
                    OnConflict::Ignore => {
                        self.cover("constraint.on_conflict_ignore");
                        continue;
                    }
                    OnConflict::Replace => {
                        self.cover("constraint.on_conflict_replace");
                        for rid in conflicts {
                            self.remove_row_everywhere(&schema.name, rid)?;
                        }
                    }
                }
            }
            let row_id = self.db.require_table_mut(&schema.name)?.insert(values.clone())?;
            self.index_insert_row(&table, &values, row_id)?;
            affected += 1;
        }
        Ok(QueryResult { columns: Vec::new(), rows: Vec::new(), affected })
    }

    pub(crate) fn exec_update(&mut self, upd: &Update) -> EngineResult<QueryResult> {
        self.cover("stmt.update");
        let schema = self.db.require_table(&upd.table)?.schema.clone();
        let ev = self.evaluator();
        let index_defs = self.index_defs(&schema.name);
        let table = BoundTable::bind(ev, &schema, &index_defs);
        // Resolve assignment targets up front.
        let mut targets = Vec::with_capacity(upd.assignments.len());
        for (col, expr) in &upd.assignments {
            let idx = schema
                .column_index(col)
                .ok_or_else(|| EngineError::from(StorageError::NoSuchColumn(col.clone())))?;
            targets.push((idx, ev.bind(expr, &table.row_schema)));
        }
        let where_clause = upd.where_clause.as_ref().map(|w| ev.bind(w, &table.row_schema));
        // Collect matching rows first, then mutate.
        let rows: Vec<(RowId, Vec<Value>)> = {
            let stored = self.db.require_table(&upd.table)?;
            let mut matching = Vec::new();
            for (id, row) in stored.rows() {
                let keep = match &where_clause {
                    Some(w) => ev.eval_bound_predicate(w, row)?.is_true(),
                    None => true,
                };
                if keep {
                    matching.push((id, row.to_vec()));
                }
            }
            matching
        };
        let stale_indexes = self.bugs().is_enabled(BugId::SqliteIndexStaleAfterUpdate);
        let real_pk_corruption =
            self.bugs().is_enabled(BugId::SqliteRealPrimaryKeyUpdateCorruption);
        let replace_null_corruption =
            self.bugs().is_enabled(BugId::SqliteUpdateOrReplaceDeletesTooMany);
        let mut affected = 0usize;
        for (row_id, old_values) in rows {
            let mut new_values = old_values.clone();
            for (idx, expr) in &targets {
                let v = ev.eval_bound(expr, old_values.as_slice())?.into_owned();
                new_values[*idx] = self.apply_affinity(v, &schema.columns[*idx])?;
            }
            self.check_row_constraints(&table, &new_values)?;
            let conflicts = self.find_conflicts(&table, &new_values, Some(row_id))?;
            if !conflicts.is_empty() {
                match upd.on_conflict {
                    OnConflict::Abort => {
                        return Err(EngineError::constraint(format!(
                            "UNIQUE constraint failed: {}",
                            schema.name
                        )));
                    }
                    OnConflict::Ignore => {
                        self.cover("constraint.on_conflict_ignore");
                        continue;
                    }
                    OnConflict::Replace => {
                        self.cover("constraint.on_conflict_replace");
                        for rid in conflicts {
                            self.remove_row_everywhere(&schema.name, rid)?;
                        }
                    }
                }
            }
            // Injected fault: UPDATE OR REPLACE on a REAL PRIMARY KEY column
            // corrupts the implicit primary-key index (Listing 10).
            if real_pk_corruption
                && upd.on_conflict == OnConflict::Replace
                && schema
                    .primary_key
                    .iter()
                    .any(|pk| schema.column(pk).is_some_and(|c| c.affinity() == Affinity::Real))
            {
                let pk_index = format!("{}_pk", schema.name);
                if let Some(idx) = self.db.index_mut(&pk_index) {
                    idx.corrupt("rowid map out of sync after UPDATE OR REPLACE on REAL key");
                }
            }
            // Injected fault: UPDATE OR REPLACE involving NULL unique keys
            // leaves dangling index entries behind (error-oracle corruption).
            if replace_null_corruption
                && upd.on_conflict == OnConflict::Replace
                && new_values.iter().any(Value::is_null)
            {
                let names: Vec<String> = self
                    .database()
                    .indexes_on(&schema.name)
                    .iter()
                    .filter(|i| i.def.unique && !i.def.implicit)
                    .map(|i| i.def.name.clone())
                    .collect();
                for name in names {
                    if let Some(idx) = self.db.index_mut(&name) {
                        idx.corrupt("dangling entry after UPDATE OR REPLACE with NULL key");
                    }
                }
            }
            self.db.require_table_mut(&schema.name)?.update(row_id, new_values.clone())?;
            if !stale_indexes {
                for idx in self.db.indexes_on_mut(&schema.name) {
                    idx.remove_row(row_id);
                }
                self.index_insert_row(&table, &new_values, row_id)?;
            }
            affected += 1;
        }
        Ok(QueryResult { columns: Vec::new(), rows: Vec::new(), affected })
    }

    pub(crate) fn exec_delete(&mut self, del: &Delete) -> EngineResult<QueryResult> {
        self.cover("stmt.delete");
        let schema = self.db.require_table(&del.table)?.schema.clone();
        let doomed: Vec<RowId> = {
            let ev = self.evaluator();
            let table = self.db.require_table(&del.table)?;
            let where_clause =
                del.where_clause.as_ref().map(|w| ev.bind(w, &RowSchema::of_table(&schema)));
            let mut ids = Vec::new();
            for (id, row) in table.rows() {
                let matches = match &where_clause {
                    Some(w) => ev.eval_bound_predicate(w, row)?.is_true(),
                    None => true,
                };
                if matches {
                    ids.push(id);
                }
            }
            ids
        };
        let affected = doomed.len();
        for id in doomed {
            self.remove_row_everywhere(&schema.name, id)?;
        }
        Ok(QueryResult { columns: Vec::new(), rows: Vec::new(), affected })
    }
}

/// SQLite affinity conversion on insertion.
fn apply_sqlite_affinity(value: Value, affinity: Affinity) -> Value {
    match affinity {
        Affinity::Integer | Affinity::Numeric => match &value {
            Value::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() && trimmed.parse::<i64>().is_ok() {
                    Value::Integer(text_integer_prefix(trimmed))
                } else if !trimmed.is_empty() && trimmed.parse::<f64>().is_ok() {
                    let r = text_numeric_prefix(trimmed);
                    if r.fract() == 0.0 && r.abs() < 9.2e18 {
                        Value::Integer(r as i64)
                    } else {
                        Value::Real(r)
                    }
                } else {
                    value
                }
            }
            Value::Real(r) if r.fract() == 0.0 && r.abs() < 9.2e18 => Value::Integer(*r as i64),
            Value::Boolean(b) => Value::Integer(i64::from(*b)),
            _ => value,
        },
        Affinity::Real => match &value {
            Value::Integer(i) => Value::Real(*i as f64),
            Value::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() && trimmed.parse::<f64>().is_ok() {
                    Value::Real(text_numeric_prefix(trimmed))
                } else {
                    value
                }
            }
            Value::Boolean(b) => Value::Real(f64::from(u8::from(*b))),
            _ => value,
        },
        Affinity::Text => match &value {
            Value::Integer(_) | Value::Real(_) | Value::Boolean(_) => {
                Value::Text(value.to_text_lenient().unwrap_or_default())
            }
            _ => value,
        },
        // BLOB affinity (including untyped columns) stores values unchanged.
        Affinity::Blob | Affinity::Boolean => match value {
            Value::Boolean(b) => Value::Integer(i64::from(b)),
            other => other,
        },
    }
}

/// MySQL-style lenient but typed conversion.
fn apply_mysql_type(value: Value, col: &ColumnMeta) -> EngineResult<Value> {
    match col.type_name {
        Some(TypeName::Integer) | None => {
            Ok(Value::Integer(value.to_integer_lenient().unwrap_or(0)))
        }
        Some(TypeName::TinyInt) => {
            Ok(Value::Integer(value.to_integer_lenient().unwrap_or(0).clamp(-128, 127)))
        }
        Some(TypeName::Unsigned) => {
            Ok(Value::Integer(value.to_integer_lenient().unwrap_or(0).max(0)))
        }
        Some(TypeName::Real) => Ok(Value::Real(value.to_real_lenient().unwrap_or(0.0))),
        Some(TypeName::Text) => Ok(Value::Text(value.to_text_lenient().unwrap_or_default())),
        Some(TypeName::Blob) => match value {
            Value::Blob(b) => Ok(Value::Blob(b)),
            other => Ok(Value::Blob(other.to_text_lenient().unwrap_or_default().into_bytes())),
        },
        Some(TypeName::Boolean) | Some(TypeName::Serial) => {
            Ok(Value::Integer(value.to_integer_lenient().unwrap_or(0)))
        }
    }
}

/// PostgreSQL strict conversion: reject values that do not fit the type.
fn apply_postgres_type(value: Value, col: &ColumnMeta) -> EngineResult<Value> {
    let type_err = |t: &str, v: &Value| {
        Err(EngineError::semantic(format!(
            "column \"{}\" is of type {t} but expression is of type {}",
            col.name,
            v.storage_class()
        )))
    };
    match col.type_name {
        Some(TypeName::Integer) | Some(TypeName::Serial) => match &value {
            Value::Integer(_) => Ok(value),
            Value::Real(r) => Ok(Value::Integer(real_to_int_saturating(*r))),
            Value::Text(t) => match t.trim().parse::<i64>() {
                Ok(i) => Ok(Value::Integer(i)),
                Err(_) => Err(EngineError::semantic(format!(
                    "invalid input syntax for type integer: \"{t}\""
                ))),
            },
            Value::Boolean(_) | Value::Blob(_) => type_err("integer", &value),
            Value::Null => Ok(Value::Null),
        },
        Some(TypeName::Real) => match &value {
            Value::Integer(i) => Ok(Value::Real(*i as f64)),
            Value::Real(_) => Ok(value),
            Value::Text(t) => match t.trim().parse::<f64>() {
                Ok(r) => Ok(Value::Real(r)),
                Err(_) => Err(EngineError::semantic(format!(
                    "invalid input syntax for type double precision: \"{t}\""
                ))),
            },
            _ => type_err("double precision", &value),
        },
        Some(TypeName::Text) | None => Ok(Value::Text(value.to_text_lenient().unwrap_or_default())),
        Some(TypeName::Blob) => match value {
            Value::Blob(b) => Ok(Value::Blob(b)),
            other => Ok(Value::Blob(other.to_text_lenient().unwrap_or_default().into_bytes())),
        },
        Some(TypeName::Boolean) => match &value {
            Value::Boolean(_) => Ok(value),
            Value::Integer(i) => Ok(Value::Boolean(*i != 0)),
            Value::Text(t) => match t.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "yes" | "on" | "1" => Ok(Value::Boolean(true)),
                "f" | "false" | "no" | "off" | "0" => Ok(Value::Boolean(false)),
                _ => Err(EngineError::semantic(format!(
                    "invalid input syntax for type boolean: \"{t}\""
                ))),
            },
            _ => type_err("boolean", &value),
        },
        Some(TypeName::TinyInt) | Some(TypeName::Unsigned) => type_err("integer", &value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqlite_affinity_on_insert() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 INT, c1 TEXT, c2 REAL, c3)").unwrap();
        e.execute_sql("INSERT INTO t0(c0, c1, c2, c3) VALUES ('42', 7, '3', 'abc')").unwrap();
        let r = e.execute_sql("SELECT * FROM t0").unwrap();
        assert_eq!(r.rows[0][0], Value::Integer(42));
        assert_eq!(r.rows[0][1], Value::Text("7".into()));
        assert_eq!(r.rows[0][2], Value::Real(3.0));
        assert_eq!(r.rows[0][3], Value::Text("abc".into()));
        // Dynamic typing: non-numeric text stays text even in an INT column.
        e.execute_sql("INSERT INTO t0(c0) VALUES ('xyz')").unwrap();
        let r = e.execute_sql("SELECT c0 FROM t0").unwrap();
        assert!(r.rows.iter().any(|row| row[0] == Value::Text("xyz".into())));
    }

    #[test]
    fn postgres_strict_insert() {
        let mut e = Engine::new(Dialect::Postgres);
        e.execute_sql("CREATE TABLE t0(c0 INT, c1 BOOLEAN)").unwrap();
        e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, TRUE)").unwrap();
        assert!(e.execute_sql("INSERT INTO t0(c0) VALUES ('abc')").is_err());
        assert!(e.execute_sql("INSERT INTO t0(c1) VALUES ('maybe')").is_err());
        e.execute_sql("INSERT INTO t0(c1) VALUES ('true')").unwrap();
    }

    #[test]
    fn serial_columns_autoincrement() {
        let mut e = Engine::new(Dialect::Postgres);
        e.execute_sql("CREATE TABLE t0(c0 SERIAL, c1 INT)").unwrap();
        e.execute_sql("INSERT INTO t0(c1) VALUES (10), (20)").unwrap();
        let r = e.execute_sql("SELECT c0 FROM t0").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Integer(1));
        assert_eq!(r.rows[1][0], Value::Integer(2));
    }

    #[test]
    fn not_null_and_check_constraints() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 INT NOT NULL, c1 INT CHECK (c1 > 0))").unwrap();
        assert!(e.execute_sql("INSERT INTO t0(c0, c1) VALUES (NULL, 1)").is_err());
        assert!(e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, -1)").is_err());
        e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, NULL)").unwrap();
        e.execute_sql("INSERT OR IGNORE INTO t0(c0, c1) VALUES (NULL, 5)").unwrap();
        assert_eq!(e.execute_sql("SELECT * FROM t0").unwrap().rows.len(), 1);
    }

    #[test]
    fn unique_conflicts_and_or_replace() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 INT UNIQUE, c1 INT)").unwrap();
        e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, 10)").unwrap();
        assert!(e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, 20)").is_err());
        e.execute_sql("INSERT OR IGNORE INTO t0(c0, c1) VALUES (1, 30)").unwrap();
        assert_eq!(e.execute_sql("SELECT * FROM t0").unwrap().rows.len(), 1);
        e.execute_sql("INSERT OR REPLACE INTO t0(c0, c1) VALUES (1, 40)").unwrap();
        let r = e.execute_sql("SELECT c1 FROM t0").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Integer(40)]]);
        // NULL unique keys never conflict.
        e.execute_sql("INSERT INTO t0(c0, c1) VALUES (NULL, 1), (NULL, 2)").unwrap();
        assert_eq!(e.execute_sql("SELECT * FROM t0").unwrap().rows.len(), 3);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
        e.execute_sql("CREATE INDEX i0 ON t0(c0)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (1), (2)").unwrap();
        e.execute_sql("UPDATE t0 SET c0 = 5 WHERE c0 = 1").unwrap();
        let idx = e.database().index("i0").unwrap();
        assert_eq!(idx.lookup(&[Value::Integer(5)]).len(), 1);
        assert!(idx.lookup(&[Value::Integer(1)]).is_empty());
        let r = e.execute_sql("SELECT * FROM t0 WHERE c0 = 5").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn stale_index_fault_desynchronises_index() {
        let mut e = Engine::with_bugs(
            Dialect::Sqlite,
            crate::bugs::BugProfile::with(&[BugId::SqliteIndexStaleAfterUpdate]),
        );
        e.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
        e.execute_sql("CREATE INDEX i0 ON t0(c0)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
        e.execute_sql("UPDATE t0 SET c0 = 5").unwrap();
        let idx = e.database().index("i0").unwrap();
        assert!(idx.lookup(&[Value::Integer(5)]).is_empty(), "index was not maintained");
        assert_eq!(idx.lookup(&[Value::Integer(1)]).len(), 1);
    }

    #[test]
    fn update_and_delete_with_where() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 INT, c1 INT)").unwrap();
        e.execute_sql("INSERT INTO t0(c0, c1) VALUES (1, 1), (2, 2), (3, 3)").unwrap();
        let r = e.execute_sql("UPDATE t0 SET c1 = 0 WHERE c0 > 1").unwrap();
        assert_eq!(r.affected, 2);
        let r = e.execute_sql("DELETE FROM t0 WHERE c1 = 0").unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(e.execute_sql("SELECT * FROM t0").unwrap().rows.len(), 1);
        let r = e.execute_sql("DELETE FROM t0").unwrap();
        assert_eq!(r.affected, 1);
    }

    #[test]
    fn real_pk_replace_corruption_fault() {
        let mut e = Engine::with_bugs(
            Dialect::Sqlite,
            crate::bugs::BugProfile::with(&[BugId::SqliteRealPrimaryKeyUpdateCorruption]),
        );
        e.execute_sql("CREATE TABLE t1 (c0, c1 REAL PRIMARY KEY)").unwrap();
        e.execute_sql("INSERT INTO t1(c0, c1) VALUES (1, 9223372036854775807), (1, 0)").unwrap();
        e.execute_sql("UPDATE t1 SET c0 = NULL").unwrap();
        e.execute_sql("UPDATE OR REPLACE t1 SET c1 = 1").unwrap();
        let err = e.execute_sql("SELECT DISTINCT * FROM t1 WHERE (t1.c0 IS NULL)").unwrap_err();
        assert!(err.message.contains("malformed"), "{}", err.message);
    }

    #[test]
    fn insert_wrong_arity_is_semantic_error() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0, c1)").unwrap();
        assert!(e.execute_sql("INSERT INTO t0(c0) VALUES (1, 2)").is_err());
        assert!(e.execute_sql("INSERT INTO t0(zzz) VALUES (1)").is_err());
    }
}
