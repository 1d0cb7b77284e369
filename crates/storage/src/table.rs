//! Row storage for a single table.

use std::collections::BTreeMap;
use std::sync::Arc;

use lancer_sql::value::Value;
use serde::{Deserialize, Serialize};

use crate::cow;
use crate::error::{StorageError, StorageResult};
use crate::schema::TableSchema;

/// An opaque row identifier (the SQLite `rowid` analogue).
pub type RowId = u64;

/// A table: schema plus rows.
///
/// The row block lives behind an [`Arc`], so cloning a table (directly or
/// through a [`Database`](crate::Database) snapshot) shares it structurally;
/// the first mutation after a clone deep-copies the block via
/// [`Arc::make_mut`] (counted in [`cow`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// The table schema.
    pub schema: TableSchema,
    rows: Arc<BTreeMap<RowId, Vec<Value>>>,
    next_row_id: RowId,
}

impl Table {
    /// Creates an empty table with the given schema.
    #[must_use]
    pub fn new(schema: TableSchema) -> Table {
        Table { schema, rows: Arc::new(BTreeMap::new()), next_row_id: 1 }
    }

    /// The row block, unsharing (and counting) it if a snapshot still
    /// holds the same block.
    fn rows_mut(&mut self) -> &mut BTreeMap<RowId, Vec<Value>> {
        cow::make_mut_rows(&mut self.rows)
    }

    /// Whether this table still shares its row block with another handle
    /// (a snapshot or clone).  Test/diagnostic hook for CoW invariants.
    #[must_use]
    pub fn shares_rows(&self) -> bool {
        Arc::strong_count(&self.rows) > 1
    }

    /// Number of rows currently stored.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row (values must already be in schema order and affinity-
    /// converted by the engine).  Returns the new row id.
    ///
    /// # Errors
    ///
    /// Returns an error if the value count does not match the schema.
    pub fn insert(&mut self, values: Vec<Value>) -> StorageResult<RowId> {
        if values.len() != self.schema.columns.len() {
            return Err(StorageError::Internal(format!(
                "table {} has {} columns but {} values were supplied",
                self.schema.name,
                self.schema.columns.len(),
                values.len()
            )));
        }
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.rows_mut().insert(id, values);
        Ok(id)
    }

    /// The values of a row, in schema order, borrowed from the row block:
    /// reading never copies a value or unshares a block a snapshot holds.
    #[must_use]
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(&id).map(Vec::as_slice)
    }

    /// Replaces the values of an existing row.
    ///
    /// # Errors
    ///
    /// Returns an error if the row does not exist or the value count is wrong.
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> StorageResult<()> {
        if values.len() != self.schema.columns.len() {
            return Err(StorageError::Internal("wrong number of values in update".into()));
        }
        if !self.rows.contains_key(&id) {
            return Err(StorageError::Internal(format!(
                "no row {id} in table {}",
                self.schema.name
            )));
        }
        if let Some(slot) = self.rows_mut().get_mut(&id) {
            *slot = values;
        }
        Ok(())
    }

    /// Deletes a row by id.  Returns `true` if the row existed.
    pub fn delete(&mut self, id: RowId) -> bool {
        if !self.rows.contains_key(&id) {
            return false;
        }
        self.rows_mut().remove(&id).is_some()
    }

    /// Iterates over all rows in rowid order as `(id, values)` pairs,
    /// borrowed from the row block like [`Table::get`]: callers clone only
    /// the values they keep.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        self.rows.iter().map(|(id, values)| (*id, values.as_slice()))
    }

    /// Returns all row ids.
    #[must_use]
    pub fn row_ids(&self) -> Vec<RowId> {
        self.rows.keys().copied().collect()
    }

    /// Adds a new column to the schema, filling existing rows with the given
    /// default value.
    ///
    /// # Errors
    ///
    /// Returns an error if the column already exists.
    pub fn add_column(
        &mut self,
        meta: crate::schema::ColumnMeta,
        fill: Value,
    ) -> StorageResult<()> {
        if self.schema.column_index(&meta.name).is_some() {
            return Err(StorageError::DuplicateColumn(meta.name));
        }
        self.schema.columns.push(meta);
        for values in self.rows_mut().values_mut() {
            values.push(fill.clone());
        }
        Ok(())
    }

    /// Renames a column.
    ///
    /// # Errors
    ///
    /// Returns an error if the old column is missing or the new name clashes.
    pub fn rename_column(&mut self, old: &str, new: &str) -> StorageResult<()> {
        if self.schema.column_index(new).is_some() {
            return Err(StorageError::DuplicateColumn(new.to_owned()));
        }
        let idx = self
            .schema
            .column_index(old)
            .ok_or_else(|| StorageError::NoSuchColumn(old.to_owned()))?;
        self.schema.columns[idx].name = new.to_owned();
        for pk in &mut self.schema.primary_key {
            if pk.eq_ignore_ascii_case(old) {
                *pk = new.to_owned();
            }
        }
        for uc in &mut self.schema.unique_constraints {
            for c in uc {
                if c.eq_ignore_ascii_case(old) {
                    *c = new.to_owned();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;
    use lancer_sql::ast::stmt::{ColumnDef, CreateTable};

    fn table_with_cols(n: usize) -> Table {
        let cols = (0..n).map(|i| ColumnDef::new(format!("c{i}"), None)).collect();
        let ct = CreateTable::new("t0", cols);
        Table::new(TableSchema::from_create(&ct).unwrap())
    }

    #[test]
    fn insert_get_update_delete_round_trip() {
        let mut t = table_with_cols(2);
        let id = t.insert(vec![Value::Integer(1), Value::Text("a".into())]).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(1));
        t.update(id, vec![Value::Integer(2), Value::Null]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Null);
        assert!(t.delete(id));
        assert!(!t.delete(id));
        assert!(t.is_empty());
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut t = table_with_cols(2);
        assert!(t.insert(vec![Value::Integer(1)]).is_err());
        assert!(t.update(1, vec![Value::Integer(1)]).is_err());
    }

    #[test]
    fn row_ids_are_monotonic() {
        let mut t = table_with_cols(1);
        let a = t.insert(vec![Value::Integer(1)]).unwrap();
        let b = t.insert(vec![Value::Integer(2)]).unwrap();
        assert!(b > a);
        t.delete(a);
        let c = t.insert(vec![Value::Integer(3)]).unwrap();
        assert!(c > b, "row ids must not be reused");
    }

    #[test]
    fn add_and_rename_column() {
        let mut t = table_with_cols(1);
        t.insert(vec![Value::Integer(1)]).unwrap();
        let meta = ColumnMeta::from_def(&ColumnDef::new("c1", None));
        t.add_column(meta.clone(), Value::Null).unwrap();
        assert_eq!(t.schema.columns.len(), 2);
        assert_eq!(t.rows().next().unwrap().1.len(), 2);
        assert!(t.add_column(meta, Value::Null).is_err());
        t.rename_column("c1", "c9").unwrap();
        assert!(t.schema.column_index("c9").is_some());
        assert!(t.rename_column("zzz", "c10").is_err());
        assert!(t.rename_column("c0", "c9").is_err());
    }

    #[test]
    fn reads_never_unshare_the_row_block() {
        let mut t = table_with_cols(2);
        let id = t.insert(vec![Value::Integer(1), Value::Text("a".into())]).unwrap();
        t.insert(vec![Value::Null, Value::Integer(2)]).unwrap();
        let snapshot = t.clone();
        let before = crate::cow_stats();
        let read: Vec<(RowId, Vec<Value>)> = t.rows().map(|(i, v)| (i, v.to_vec())).collect();
        assert_eq!(read.len(), 2);
        assert_eq!(t.get(id), Some(&[Value::Integer(1), Value::Text("a".into())][..]));
        assert_eq!(snapshot.get(id), t.get(id));
        assert!(t.get(id + 100).is_none());
        // Both handles hand out the same stored values, not copies.
        assert!(std::ptr::eq(t.get(id).unwrap(), snapshot.get(id).unwrap()));
        assert_eq!(crate::cow_stats(), before, "a read must not copy the row block");
        assert!(t.shares_rows() && snapshot.shares_rows());
    }
}
