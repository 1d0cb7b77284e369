//! The database catalog: tables, indexes, views and run-time options.
//!
//! The catalog doubles as the *schema introspection* surface that SQLancer's
//! generators query dynamically (the `sqlite_master` /
//! `information_schema.tables` analogue described in §3.4 of the paper).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use lancer_sql::ast::Select;
use lancer_sql::value::Value;
use serde::{Deserialize, Serialize};

use crate::cow;
use crate::error::{StorageError, StorageResult};
use crate::index::{Index, IndexDef};
use crate::schema::TableSchema;
use crate::table::Table;

/// The catalog key of an object name: names are case-insensitive and keyed
/// in lower case.  Generated names already are, so a lookup lowercases (and
/// allocates) only for a name with an ASCII capital in it.
fn catalog_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A stored view definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct View {
    /// View name.
    pub name: String,
    /// The defining query.
    pub query: Select,
}

/// An in-memory database: the unit a single PQS worker thread owns.
///
/// Tables and indexes live behind [`Arc`]s (and each table's row block
/// behind another), and the four catalog maps live behind [`Arc`]s of
/// their own, so `Database::clone` — the per-statement atomicity
/// snapshot, `BEGIN`'s workspace snapshot, a replay-cache resume — is
/// exactly four reference-count bumps.  Mutable accessors go through
/// [`Arc::make_mut`], deep-copying only the map a statement touches and
/// only the node it actually writes (node copies are counted in
/// [`cow`]); failed lookups never unshare anything.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: Arc<BTreeMap<String, Arc<Table>>>,
    indexes: Arc<BTreeMap<String, Arc<Index>>>,
    views: Arc<BTreeMap<String, View>>,
    options: Arc<BTreeMap<String, Value>>,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    // ---------------------------------------------------------------- tables

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns an error if a table or view with that name already exists.
    pub fn create_table(&mut self, schema: TableSchema) -> StorageResult<()> {
        let key = schema.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(StorageError::TableExists(schema.name));
        }
        Arc::make_mut(&mut self.tables).insert(key, Arc::new(Table::new(schema)));
        Ok(())
    }

    /// Drops a table and every index defined on it.
    ///
    /// # Errors
    ///
    /// Returns an error if the table does not exist.
    pub fn drop_table(&mut self, name: &str) -> StorageResult<()> {
        let key = name.to_ascii_lowercase();
        if !self.tables.contains_key(&key) {
            return Err(StorageError::NoSuchTable(name.to_owned()));
        }
        Arc::make_mut(&mut self.tables).remove(&key);
        if self.indexes.values().any(|idx| idx.def.table.eq_ignore_ascii_case(name)) {
            Arc::make_mut(&mut self.indexes)
                .retain(|_, idx| !idx.def.table.eq_ignore_ascii_case(name));
        }
        Ok(())
    }

    /// Renames a table, updating indexes that reference it.
    ///
    /// # Errors
    ///
    /// Returns an error if the source is missing or the target exists.
    pub fn rename_table(&mut self, old: &str, new: &str) -> StorageResult<()> {
        let old_key = old.to_ascii_lowercase();
        let new_key = new.to_ascii_lowercase();
        if self.tables.contains_key(&new_key) || self.views.contains_key(&new_key) {
            return Err(StorageError::TableExists(new.to_owned()));
        }
        if !self.tables.contains_key(&old_key) {
            return Err(StorageError::NoSuchTable(old.to_owned()));
        }
        let tables = Arc::make_mut(&mut self.tables);
        let mut table = tables.remove(&old_key).expect("checked above");
        // Renaming copies the table node (schema + row-block handle) but
        // not the rows themselves — they stay behind the inner Arc.
        cow::make_mut_table(&mut table).schema.name = new.to_owned();
        tables.insert(new_key, table);
        if self.indexes.values().any(|idx| idx.def.table.eq_ignore_ascii_case(old)) {
            for idx in Arc::make_mut(&mut self.indexes).values_mut() {
                if idx.def.table.eq_ignore_ascii_case(old) {
                    cow::make_mut_index(idx).def.table = new.to_owned();
                }
            }
        }
        Ok(())
    }

    /// Returns a table by name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&*catalog_key(name)).map(Arc::as_ref)
    }

    /// Returns a mutable table by name, unsharing it from any snapshot
    /// that still holds the same node.  A missing table never unshares
    /// the map.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let key = catalog_key(name);
        if !self.tables.contains_key(&*key) {
            return None;
        }
        Arc::make_mut(&mut self.tables).get_mut(&*key).map(cow::make_mut_table)
    }

    /// Returns a table or a [`StorageError::NoSuchTable`] error.
    ///
    /// # Errors
    ///
    /// Returns an error if the table does not exist.
    pub fn require_table(&self, name: &str) -> StorageResult<&Table> {
        self.table(name).ok_or_else(|| StorageError::NoSuchTable(name.to_owned()))
    }

    /// Returns a mutable table or a [`StorageError::NoSuchTable`] error.
    ///
    /// # Errors
    ///
    /// Returns an error if the table does not exist.
    pub fn require_table_mut(&mut self, name: &str) -> StorageResult<&mut Table> {
        self.table_mut(name).ok_or_else(|| StorageError::NoSuchTable(name.to_owned()))
    }

    /// All table names (schema introspection).
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.schema.name.clone()).collect()
    }

    /// Child tables that inherit from the given parent (PostgreSQL-like
    /// table inheritance).
    #[must_use]
    pub fn children_of(&self, parent: &str) -> Vec<String> {
        self.tables
            .values()
            .filter(|t| {
                t.schema.inherits.as_deref().is_some_and(|p| p.eq_ignore_ascii_case(parent))
            })
            .map(|t| t.schema.name.clone())
            .collect()
    }

    /// Whether any table inherits from the given parent — the
    /// allocation-free form of `!children_of(parent).is_empty()`, for
    /// per-probe checks on hot executor/planner paths.
    #[must_use]
    pub fn has_children(&self, parent: &str) -> bool {
        self.tables
            .values()
            .any(|t| t.schema.inherits.as_deref().is_some_and(|p| p.eq_ignore_ascii_case(parent)))
    }

    // --------------------------------------------------------------- indexes

    /// Registers an index.
    ///
    /// # Errors
    ///
    /// Returns an error if an index with that name exists or the table is
    /// missing.
    pub fn create_index(&mut self, index: Index) -> StorageResult<()> {
        let key = index.def.name.to_ascii_lowercase();
        if self.indexes.contains_key(&key) {
            return Err(StorageError::IndexExists(index.def.name.clone()));
        }
        if self.table(&index.def.table).is_none() {
            return Err(StorageError::NoSuchTable(index.def.table.clone()));
        }
        Arc::make_mut(&mut self.indexes).insert(key, Arc::new(index));
        Ok(())
    }

    /// Drops an explicit index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is missing or implicit.
    pub fn drop_index(&mut self, name: &str) -> StorageResult<()> {
        let key = name.to_ascii_lowercase();
        match self.indexes.get(&key) {
            None => Err(StorageError::NoSuchIndex(name.to_owned())),
            Some(idx) if idx.def.implicit => Err(StorageError::Internal(format!(
                "index {name} is implicitly created and cannot be dropped"
            ))),
            Some(_) => {
                Arc::make_mut(&mut self.indexes).remove(&key);
                Ok(())
            }
        }
    }

    /// Returns an index by name.
    #[must_use]
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.get(&*catalog_key(name)).map(Arc::as_ref)
    }

    /// Returns a mutable index by name, unsharing it from any snapshot.
    /// A missing index never unshares the map.
    pub fn index_mut(&mut self, name: &str) -> Option<&mut Index> {
        let key = catalog_key(name);
        if !self.indexes.contains_key(&*key) {
            return None;
        }
        Arc::make_mut(&mut self.indexes).get_mut(&*key).map(cow::make_mut_index)
    }

    /// All indexes on a table.
    #[must_use]
    pub fn indexes_on(&self, table: &str) -> Vec<&Index> {
        self.indexes
            .values()
            .filter(|i| i.def.table.eq_ignore_ascii_case(table))
            .map(Arc::as_ref)
            .collect()
    }

    /// All indexes on a table, mutably (each unshared from any snapshot).
    /// A table with no indexes never unshares the map.
    pub fn indexes_on_mut(&mut self, table: &str) -> Vec<&mut Index> {
        if !self.indexes.values().any(|i| i.def.table.eq_ignore_ascii_case(table)) {
            return Vec::new();
        }
        Arc::make_mut(&mut self.indexes)
            .values_mut()
            .filter(|i| i.def.table.eq_ignore_ascii_case(table))
            .map(cow::make_mut_index)
            .collect()
    }

    /// All index names.
    #[must_use]
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.values().map(|i| i.def.name.clone()).collect()
    }

    /// All index definitions (for the generator).
    #[must_use]
    pub fn index_defs(&self) -> Vec<&IndexDef> {
        self.indexes.values().map(|i| &i.def).collect()
    }

    // ----------------------------------------------------------------- views

    /// Creates a view.
    ///
    /// # Errors
    ///
    /// Returns an error if a table or view with that name already exists.
    pub fn create_view(&mut self, view: View) -> StorageResult<()> {
        let key = view.name.to_ascii_lowercase();
        if self.views.contains_key(&key) || self.tables.contains_key(&key) {
            return Err(StorageError::ViewExists(view.name));
        }
        Arc::make_mut(&mut self.views).insert(key, view);
        Ok(())
    }

    /// Drops a view.
    ///
    /// # Errors
    ///
    /// Returns an error if the view does not exist.
    pub fn drop_view(&mut self, name: &str) -> StorageResult<()> {
        let key = name.to_ascii_lowercase();
        if !self.views.contains_key(&key) {
            return Err(StorageError::NoSuchView(name.to_owned()));
        }
        Arc::make_mut(&mut self.views).remove(&key);
        Ok(())
    }

    /// Returns a view by name.
    #[must_use]
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.get(&*catalog_key(name))
    }

    /// All view names.
    #[must_use]
    pub fn view_names(&self) -> Vec<String> {
        self.views.values().map(|v| v.name.clone()).collect()
    }

    // --------------------------------------------------------------- options

    /// Sets a run-time option (`PRAGMA` / `SET`).
    pub fn set_option(&mut self, name: &str, value: Value) {
        Arc::make_mut(&mut self.options).insert(name.to_ascii_lowercase(), value);
    }

    /// Reads a run-time option.
    #[must_use]
    pub fn option(&self, name: &str) -> Option<&Value> {
        self.options.get(&*catalog_key(name))
    }

    /// Reads a boolean-ish option with a default.
    #[must_use]
    pub fn option_bool(&self, name: &str, default: bool) -> bool {
        match self.option(name) {
            Some(v) => v.to_tribool_lenient().is_true(),
            None => default,
        }
    }

    /// Total number of rows across all tables (used by throughput reports).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Number of table nodes this database still shares with `other`
    /// (same `Arc`, i.e. neither side has mutated the table since the
    /// clone).  Diagnostic hook for CoW tests and reports.
    #[must_use]
    pub fn tables_shared_with(&self, other: &Database) -> usize {
        if Arc::ptr_eq(&self.tables, &other.tables) {
            return self.tables.len();
        }
        self.tables
            .iter()
            .filter(|(name, table)| other.tables.get(*name).is_some_and(|o| Arc::ptr_eq(table, o)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::ast::stmt::{ColumnDef, CreateTable};
    use lancer_sql::ast::Expr;
    use lancer_sql::collation::Collation;

    fn simple_schema(name: &str) -> TableSchema {
        TableSchema::from_create(&CreateTable::new(name, vec![ColumnDef::new("c0", None)])).unwrap()
    }

    fn simple_index(name: &str, table: &str) -> Index {
        Index::new(IndexDef {
            name: name.into(),
            table: table.into(),
            exprs: vec![Expr::col("c0")],
            collations: vec![Collation::Binary],
            unique: false,
            where_clause: None,
            implicit: false,
        })
    }

    #[test]
    fn table_lifecycle() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        assert!(db.create_table(simple_schema("T0")).is_err(), "names are case-insensitive");
        assert_eq!(db.table_names(), vec!["t0"]);
        db.rename_table("t0", "t1").unwrap();
        assert!(db.table("t0").is_none());
        assert!(db.table("t1").is_some());
        db.drop_table("t1").unwrap();
        assert!(matches!(db.drop_table("t1"), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn index_lifecycle_and_cascade_on_drop_table() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        db.create_index(simple_index("i0", "t0")).unwrap();
        assert!(db.create_index(simple_index("i0", "t0")).is_err());
        assert!(db.create_index(simple_index("i1", "missing")).is_err());
        assert_eq!(db.indexes_on("t0").len(), 1);
        db.drop_table("t0").unwrap();
        assert!(db.index("i0").is_none(), "indexes are dropped with their table");
    }

    #[test]
    fn implicit_indexes_cannot_be_dropped() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        let mut idx = simple_index("sqlite_autoindex_t0_1", "t0");
        idx.def.implicit = true;
        db.create_index(idx).unwrap();
        assert!(db.drop_index("sqlite_autoindex_t0_1").is_err());
        assert!(matches!(db.drop_index("zzz"), Err(StorageError::NoSuchIndex(_))));
    }

    #[test]
    fn rename_table_updates_indexes() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        db.create_index(simple_index("i0", "t0")).unwrap();
        db.rename_table("t0", "t5").unwrap();
        assert_eq!(db.index("i0").unwrap().def.table, "t5");
        assert_eq!(db.indexes_on("t5").len(), 1);
    }

    #[test]
    fn views_and_options() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        db.create_view(View { name: "v0".into(), query: Select::star(vec!["t0".into()]) }).unwrap();
        assert!(db
            .create_view(View { name: "t0".into(), query: Select::star(vec!["t0".into()]) })
            .is_err());
        assert_eq!(db.view_names(), vec!["v0"]);
        db.drop_view("v0").unwrap();
        assert!(db.drop_view("v0").is_err());

        db.set_option("case_sensitive_like", Value::Integer(1));
        assert!(db.option_bool("case_sensitive_like", false));
        assert!(!db.option_bool("missing", false));
        assert_eq!(db.option("case_sensitive_like"), Some(&Value::Integer(1)));
    }

    #[test]
    fn mixed_case_names_resolve() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        db.create_index(simple_index("i0", "t0")).unwrap();
        db.create_view(View { name: "v0".into(), query: Select::star(vec!["t0".into()]) }).unwrap();
        db.set_option("case_sensitive_like", Value::Integer(1));
        assert!(db.table("T0").is_some() && db.table_mut("T0").is_some());
        assert!(db.index("I0").is_some() && db.index_mut("I0").is_some());
        assert!(db.view("V0").is_some());
        assert_eq!(db.option("CASE_SENSITIVE_LIKE"), Some(&Value::Integer(1)));
        db.set_option("Mixed_Case", Value::Integer(2));
        assert_eq!(db.option("mixed_case"), Some(&Value::Integer(2)));
        assert!(db.table("T1").is_none() && db.table_mut("T1").is_none());
        assert!(db.index("I1").is_none() && db.index_mut("I1").is_none());
    }

    #[test]
    fn inheritance_children_lookup() {
        let mut db = Database::new();
        db.create_table(simple_schema("t0")).unwrap();
        let mut child = CreateTable::new("t1", vec![ColumnDef::new("c0", None)]);
        child.inherits = Some("t0".into());
        db.create_table(TableSchema::from_create(&child).unwrap()).unwrap();
        assert_eq!(db.children_of("t0"), vec!["t1"]);
        assert!(db.children_of("t1").is_empty());
    }
}
