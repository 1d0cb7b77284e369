//! # lancer-storage
//!
//! The in-memory relational storage engine underneath the DBMS under test:
//! table schemas ([`schema`]), row storage ([`table`]), secondary and
//! implicit constraint indexes ([`index`]) and the catalog ([`catalog`]) that
//! SQLancer's generators introspect.
//!
//! The storage layer is deliberately mechanism-only: it stores rows and
//! index entries and enforces uniqueness over *already-computed* keys.  All
//! expression evaluation, affinity conversion and dialect behaviour lives in
//! `lancer-engine`, which is also where faults are injected — so the storage
//! layer itself is trusted ground for the whole stack.

#![warn(missing_docs)]

pub mod catalog;
pub mod cow;
pub mod error;
pub mod index;
pub mod schema;
pub mod table;

pub use catalog::{Database, View};
pub use cow::{cow_stats, CowStats};
pub use error::{StorageError, StorageResult};
pub use index::{Index, IndexDef, IndexEntry};
pub use schema::{Affinity, ColumnMeta, TableSchema};
pub use table::{RowId, Table};
