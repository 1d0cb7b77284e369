//! DDL execution: `CREATE TABLE` / `CREATE INDEX` / `CREATE VIEW` / `DROP` /
//! `ALTER TABLE`.

use lancer_sql::ast::stmt::{AlterTable, CreateIndex, CreateTable, TableEngine};
use lancer_sql::ast::{Expr, Select};
use lancer_sql::value::Value;
use lancer_storage::index::{Index, IndexDef};
use lancer_storage::schema::{ColumnMeta, TableSchema};
use lancer_storage::{StorageError, View};

use crate::bugs::BugId;
use crate::error::{EngineError, EngineResult};
use crate::eval::{BoundExpr, Evaluator, RowSchema};
use crate::exec::{Engine, QueryResult};

impl Engine {
    pub(crate) fn exec_create_table(&mut self, ct: &CreateTable) -> EngineResult<QueryResult> {
        self.cover("stmt.create_table");
        if ct.if_not_exists && self.db.table(&ct.name).is_some() {
            return Ok(QueryResult::empty());
        }
        // Dialect validation.
        for col in &ct.columns {
            match col.type_name {
                None if !self.dialect.allows_untyped_columns() => {
                    return Err(EngineError::semantic(format!(
                        "column {} must have a data type in this DBMS",
                        col.name
                    )));
                }
                Some(t) if !self.dialect.supports_type(t) => {
                    return Err(EngineError::semantic(format!(
                        "type {t} is not supported by this DBMS"
                    )));
                }
                _ => {}
            }
            if col.collation().is_some() && !self.dialect.has_collations() {
                return Err(EngineError::semantic("COLLATE is not supported by this DBMS"));
            }
        }
        if ct.without_rowid && !self.dialect.has_without_rowid() {
            return Err(EngineError::semantic("WITHOUT ROWID is not supported by this DBMS"));
        }
        if ct.engine != TableEngine::Default && !self.dialect.has_table_engines() {
            return Err(EngineError::semantic("storage engines are not supported by this DBMS"));
        }
        if ct.inherits.is_some() && !self.dialect.has_inheritance() {
            return Err(EngineError::semantic("INHERITS is not supported by this DBMS"));
        }
        if let Some(parent) = &ct.inherits {
            if self.db.table(parent).is_none() {
                return Err(StorageError::NoSuchTable(parent.clone()).into());
            }
        }
        let schema = TableSchema::from_create(ct)?;
        if schema.without_rowid && !schema.has_primary_key() {
            return Err(EngineError::semantic(format!(
                "PRIMARY KEY missing on table {}",
                schema.name
            )));
        }
        if schema.engine == TableEngine::Memory {
            self.cover("exec.memory_engine");
        }
        if schema.without_rowid {
            self.cover("exec.without_rowid");
        }
        let name = schema.name.clone();
        let pk: Vec<String> = schema.primary_key.clone();
        let uniques: Vec<Vec<String>> = schema
            .columns
            .iter()
            .filter(|c| c.unique)
            .map(|c| vec![c.name.clone()])
            .chain(schema.unique_constraints.clone())
            .collect();
        self.db.create_table(schema)?;
        // Implicit constraint indexes (this is how the real DBMS enforce
        // PRIMARY KEY / UNIQUE, and it is the surface several injected
        // faults corrupt).
        if !pk.is_empty() {
            self.cover("constraint.primary_key");
            self.create_implicit_index(&name, &format!("{name}_pk"), &pk)?;
        }
        for (i, cols) in uniques.iter().enumerate() {
            self.cover("constraint.unique");
            self.create_implicit_index(&name, &format!("{name}_unique_{i}"), cols)?;
        }
        Ok(QueryResult::empty())
    }

    fn create_implicit_index(
        &mut self,
        table: &str,
        index_name: &str,
        columns: &[String],
    ) -> EngineResult<()> {
        let schema = self.db.require_table(table)?.schema.clone();
        let mut exprs = Vec::new();
        let mut collations = Vec::new();
        for c in columns {
            let meta = schema.column(c).ok_or_else(|| StorageError::NoSuchColumn(c.clone()))?;
            exprs.push(Expr::col(meta.name.clone()));
            collations.push(meta.collation);
        }
        let def = IndexDef {
            name: index_name.to_owned(),
            table: table.to_owned(),
            exprs,
            collations,
            unique: true,
            where_clause: None,
            implicit: true,
        };
        let index = self.build_index(def)?;
        self.db.create_index(index)?;
        Ok(())
    }

    /// Builds an index over the current contents of its table, enforcing
    /// uniqueness.  The key is bound once for the whole table.
    pub(crate) fn build_index(&self, def: IndexDef) -> EngineResult<Index> {
        let table = self.db.require_table(&def.table)?;
        let ev = self.evaluator();
        let key = IndexKey::bind(&ev, &def, &RowSchema::of_table(&table.schema));
        let mut index = Index::new(def.clone());
        for (id, row) in table.rows() {
            if let Some(key) = key.of(&ev, row)? {
                index.insert(key, id)?;
            }
        }
        Ok(index)
    }

    pub(crate) fn exec_create_index(&mut self, ci: &CreateIndex) -> EngineResult<QueryResult> {
        self.cover("stmt.create_index");
        if ci.if_not_exists && self.db.index(&ci.name).is_some() {
            return Ok(QueryResult::empty());
        }
        if ci.where_clause.is_some() && !self.dialect.has_partial_indexes() {
            return Err(EngineError::semantic("partial indexes are not supported by this DBMS"));
        }
        let table = self.db.require_table(&ci.table)?;
        let table_schema = table.schema.clone();
        // Validate column references in index expressions; the SQLite-like
        // dialect resolves unknown plain identifiers to strings, matching its
        // double-quote leniency (Listing 8).
        let mut exprs = Vec::new();
        let mut collations = Vec::new();
        let row_schema = RowSchema::of_table(&table_schema);
        let ev = self.evaluator();
        for col in &ci.columns {
            for cref in col.expr.column_refs() {
                if row_schema.resolve(cref).is_none()
                    && self.dialect() != crate::dialect::Dialect::Sqlite
                {
                    return Err(StorageError::NoSuchColumn(cref.column.clone()).into());
                }
            }
            let coll = col.collation.unwrap_or_else(|| ev.bind(&col.expr, &row_schema).collation());
            exprs.push(col.expr.clone());
            collations.push(coll);
        }
        if let Some(pred) = &ci.where_clause {
            for cref in pred.column_refs() {
                if row_schema.resolve(cref).is_none()
                    && self.dialect() != crate::dialect::Dialect::Sqlite
                {
                    return Err(StorageError::NoSuchColumn(cref.column.clone()).into());
                }
            }
        }
        let def = IndexDef {
            name: ci.name.clone(),
            table: ci.table.clone(),
            exprs,
            collations,
            unique: ci.unique,
            where_clause: ci.where_clause.clone(),
            implicit: false,
        };
        let index = self.build_index(def)?;
        self.db.create_index(index)?;
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_create_view(
        &mut self,
        name: &str,
        query: &Select,
    ) -> EngineResult<QueryResult> {
        self.cover("stmt.create_view");
        // Validate the defining query by executing it once.
        self.exec_select(query)?;
        self.db.create_view(View { name: name.to_owned(), query: query.clone() })?;
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_drop_table(
        &mut self,
        name: &str,
        if_exists: bool,
    ) -> EngineResult<QueryResult> {
        self.cover("stmt.drop_table");
        if if_exists && self.db.table(name).is_none() {
            return Ok(QueryResult::empty());
        }
        self.db.drop_table(name)?;
        self.analyzed.remove(&name.to_ascii_lowercase());
        self.statistics.remove(&name.to_ascii_lowercase());
        self.poisoned_columns.retain(|(t, _, _)| !t.eq_ignore_ascii_case(name));
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_drop_index(
        &mut self,
        name: &str,
        if_exists: bool,
    ) -> EngineResult<QueryResult> {
        self.cover("stmt.drop_index");
        if if_exists && self.db.index(name).is_none() {
            return Ok(QueryResult::empty());
        }
        self.db.drop_index(name)?;
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_drop_view(
        &mut self,
        name: &str,
        if_exists: bool,
    ) -> EngineResult<QueryResult> {
        self.cover("stmt.drop_view");
        if if_exists && self.db.view(name).is_none() {
            return Ok(QueryResult::empty());
        }
        self.db.drop_view(name)?;
        Ok(QueryResult::empty())
    }

    pub(crate) fn exec_alter(&mut self, alter: &AlterTable) -> EngineResult<QueryResult> {
        match alter {
            AlterTable::RenameTable { table, new_name } => {
                self.cover("stmt.alter_rename_table");
                self.db.rename_table(table, new_name)?;
                Ok(QueryResult::empty())
            }
            AlterTable::RenameColumn { table, old, new } => {
                self.cover("stmt.alter_rename_column");
                {
                    let t = self.db.require_table_mut(table)?;
                    t.rename_column(old, new)?;
                }
                // Keep index definitions in sync with the new column name —
                // unless the corresponding faults are enabled.
                let break_index = self.bugs().is_enabled(BugId::SqliteAlterRenameBreaksIndex);
                let poison = self.bugs().is_enabled(BugId::SqliteDoubleQuotedStringIndex);
                let mut poisoned = false;
                for idx in self.db.indexes_on_mut(table) {
                    let references_old = idx
                        .def
                        .exprs
                        .iter()
                        .chain(idx.def.where_clause.iter())
                        .flat_map(Expr::column_refs)
                        .any(|c| c.column.eq_ignore_ascii_case(old));
                    if !references_old {
                        continue;
                    }
                    if break_index {
                        idx.corrupt(format!("index references renamed column {old}"));
                    } else if poison && !idx.def.implicit {
                        poisoned = true;
                    } else {
                        for e in &mut idx.def.exprs {
                            rename_column_in_expr(e, old, new);
                        }
                        if let Some(w) = &mut idx.def.where_clause {
                            rename_column_in_expr(w, old, new);
                        }
                    }
                }
                if poisoned {
                    // Listing 8: the index keeps treating the old identifier
                    // as a string literal; later scans project that literal
                    // instead of the column value.
                    self.poisoned_columns.push((table.clone(), new.clone(), old.clone()));
                }
                Ok(QueryResult::empty())
            }
            AlterTable::AddColumn { table, def } => {
                self.cover("stmt.alter_add_column");
                if let Some(t) = def.type_name {
                    if !self.dialect.supports_type(t) {
                        return Err(EngineError::semantic(format!(
                            "type {t} is not supported by this DBMS"
                        )));
                    }
                } else if !self.dialect.allows_untyped_columns() {
                    return Err(EngineError::semantic(format!(
                        "column {} must have a data type in this DBMS",
                        def.name
                    )));
                }
                let meta = ColumnMeta::from_def(def);
                let is_empty = self.db.require_table(table)?.is_empty();
                if meta.not_null && meta.default.is_none() && !is_empty {
                    return Err(EngineError::constraint(format!(
                        "cannot add a NOT NULL column with default value NULL: {}",
                        def.name
                    )));
                }
                self.cover("constraint.default");
                let mut fill = meta.default.clone().unwrap_or(Value::Null);
                // Injected fault: the DEFAULT fill is skipped for NOT NULL
                // columns, leaving NULLs that REINDEX later reports.
                if meta.not_null && self.bugs().is_enabled(BugId::SqliteNotNullDefaultAltered) {
                    fill = Value::Null;
                }
                let t = self.db.require_table_mut(table)?;
                t.add_column(meta, fill)?;
                Ok(QueryResult::empty())
            }
        }
    }
}

/// One index's key expressions and partial-index predicate, bound to its
/// table's row schema once per index build or writing statement (which
/// never changes the table's indexes), not once per row.
pub(crate) struct IndexKey<'d> {
    /// The definition the key is bound from.
    pub(crate) def: &'d IndexDef,
    predicate: Option<BoundExpr<'d>>,
    exprs: Vec<BoundExpr<'d>>,
}

impl<'d> IndexKey<'d> {
    pub(crate) fn bind(ev: &Evaluator, def: &'d IndexDef, schema: &RowSchema) -> IndexKey<'d> {
        IndexKey {
            def,
            predicate: def.where_clause.as_ref().map(|p| ev.bind(p, schema)),
            exprs: def.exprs.iter().map(|e| ev.bind(e, schema)).collect(),
        }
    }

    /// The key of one row, or `None` when the partial-index predicate
    /// excludes it.
    pub(crate) fn of(&self, ev: &Evaluator, row: &[Value]) -> EngineResult<Option<Vec<Value>>> {
        if let Some(predicate) = &self.predicate {
            if !ev.eval_bound_predicate(predicate, row)?.is_true() {
                return Ok(None);
            }
        }
        let mut key = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            key.push(ev.eval_bound(e, row)?.into_owned());
        }
        Ok(Some(key))
    }
}

/// Rewrites column references named `old` to `new` inside an expression.
fn rename_column_in_expr(expr: &mut Expr, old: &str, new: &str) {
    fn walk(e: &mut Expr, old: &str, new: &str) {
        if let Expr::Column(c) = e {
            if c.column.eq_ignore_ascii_case(old) {
                c.column = new.to_owned();
            }
            return;
        }
        match e {
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Collate { expr, .. } => walk(expr, old, new),
            Expr::Binary { left, right, .. } => {
                walk(left, old, new);
                walk(right, old, new);
            }
            Expr::Like { expr, pattern, .. } => {
                walk(expr, old, new);
                walk(pattern, old, new);
            }
            Expr::Between { expr, low, high, .. } => {
                walk(expr, old, new);
                walk(low, old, new);
                walk(high, old, new);
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, old, new);
                for i in list {
                    walk(i, old, new);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    walk(o, old, new);
                }
                for (w, t) in branches {
                    walk(w, old, new);
                    walk(t, old, new);
                }
                if let Some(el) = else_expr {
                    walk(el, old, new);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    walk(a, old, new);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    walk(a, old, new);
                }
            }
            Expr::Literal(_) | Expr::Column(_) => {}
        }
    }
    walk(expr, old, new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;

    #[test]
    fn dialect_gates_on_create_table() {
        let mut sqlite = Engine::new(Dialect::Sqlite);
        sqlite.execute_sql("CREATE TABLE t0(c0)").unwrap();
        let mut mysql = Engine::new(Dialect::Mysql);
        assert!(mysql.execute_sql("CREATE TABLE t0(c0)").is_err(), "MySQL requires types");
        mysql.execute_sql("CREATE TABLE t0(c0 INT) ENGINE = MEMORY").unwrap();
        assert!(sqlite.execute_sql("CREATE TABLE t1(c0 INT) ENGINE = MEMORY").is_err());
        let mut pg = Engine::new(Dialect::Postgres);
        pg.execute_sql("CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT)").unwrap();
        pg.execute_sql("CREATE TABLE t1(c0 INT) INHERITS (t0)").unwrap();
        assert!(sqlite.execute_sql("CREATE TABLE t2(c0 INT) INHERITS (t0)").is_err());
        assert!(pg.execute_sql("CREATE TABLE t2(c0 TEXT) WITHOUT ROWID").is_err());
    }

    #[test]
    fn without_rowid_requires_primary_key() {
        let mut e = Engine::new(Dialect::Sqlite);
        assert!(e.execute_sql("CREATE TABLE t0(c0) WITHOUT ROWID").is_err());
        e.execute_sql("CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID").unwrap();
    }

    #[test]
    fn implicit_indexes_enforce_primary_key() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 INT PRIMARY KEY)").unwrap();
        assert_eq!(e.database().indexes_on("t0").len(), 1);
        e.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
        let err = e.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap_err();
        assert!(err.message.contains("UNIQUE constraint failed"), "{}", err.message);
    }

    #[test]
    fn create_index_builds_over_existing_rows_and_checks_unique() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (1), (1)").unwrap();
        assert!(e.execute_sql("CREATE UNIQUE INDEX i0 ON t0(c0)").is_err());
        e.execute_sql("CREATE INDEX i1 ON t0(c0)").unwrap();
        assert_eq!(e.database().index("i1").unwrap().len(), 2);
    }

    #[test]
    fn partial_index_only_contains_matching_rows() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (0), (1), (NULL)").unwrap();
        e.execute_sql("CREATE INDEX i0 ON t0(c0) WHERE c0 NOT NULL").unwrap();
        assert_eq!(e.database().index("i0").unwrap().len(), 2);
        let mut mysql = Engine::new(Dialect::Mysql);
        mysql.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
        assert!(mysql.execute_sql("CREATE INDEX i0 ON t0(c0) WHERE c0 NOT NULL").is_err());
    }

    #[test]
    fn alter_table_variants() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        e.execute_sql("INSERT INTO t0(c0) VALUES (1)").unwrap();
        e.execute_sql("CREATE INDEX i0 ON t0(c0)").unwrap();
        e.execute_sql("ALTER TABLE t0 RENAME COLUMN c0 TO c9").unwrap();
        // Index expression follows the rename when no fault is enabled.
        let idx = e.database().index("i0").unwrap();
        assert_eq!(idx.def.exprs[0], Expr::col("c9"));
        e.execute_sql("ALTER TABLE t0 ADD COLUMN c1 TEXT DEFAULT 'x'").unwrap();
        let row = e.execute_sql("SELECT * FROM t0").unwrap();
        assert_eq!(row.rows[0][1], Value::Text("x".into()));
        e.execute_sql("ALTER TABLE t0 RENAME TO t9").unwrap();
        assert!(e.database().table("t9").is_some());
        assert!(e.execute_sql("ALTER TABLE t9 ADD COLUMN c2 TEXT NOT NULL").is_err());
    }

    #[test]
    fn views_validate_their_query() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0)").unwrap();
        assert!(e.execute_sql("CREATE VIEW v0 AS SELECT * FROM missing").is_err());
        e.execute_sql("CREATE VIEW v0 AS SELECT c0 FROM t0").unwrap();
        assert!(e.execute_sql("CREATE VIEW v0 AS SELECT c0 FROM t0").is_err());
        e.execute_sql("DROP VIEW v0").unwrap();
    }

    #[test]
    fn drop_if_exists_is_silent() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("DROP TABLE IF EXISTS nope").unwrap();
        assert!(e.execute_sql("DROP TABLE nope").is_err());
        e.execute_sql("DROP INDEX IF EXISTS nope").unwrap();
        e.execute_sql("DROP VIEW IF EXISTS nope").unwrap();
    }
}
