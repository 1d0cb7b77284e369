//! SQL dialect profiles.
//!
//! The paper's key observation is that the three tested DBMS diverge so much
//! in SQL surface and semantics that differential testing is ineffective
//! (§1, §2).  The engine therefore exposes three *profiles* that reproduce
//! the differences the paper leans on:
//!
//! * **SQLite-like** — untyped columns, aggressive implicit conversions,
//!   `IS NOT` on scalars, `WITHOUT ROWID` tables, collations, `PRAGMA`s,
//!   partial and expression indexes, `VACUUM`/`REINDEX`.
//! * **MySQL-like** — unsigned/tiny integer types, alternative storage
//!   engines, the `<=>` operator, `CHECK TABLE`/`REPAIR TABLE`, `SET GLOBAL`
//!   options, implicit conversions to boolean.
//! * **PostgreSQL-like** — strict typing with few implicit conversions (the
//!   generated predicate root must be boolean), `SERIAL`, table inheritance,
//!   `CREATE STATISTICS`, `DISCARD`, `VACUUM FULL`.
//!
//! A fourth profile extends the population beyond the paper:
//!
//! * **DuckDB-like** — a strictly typed analytical engine: no collations,
//!   no type affinity, boolean predicates required, and lane-width
//!   faults in its filter and SUM paths.

use lancer_sql::ast::expr::TypeName;
use serde::{Deserialize, Serialize};

/// The emulated DBMS dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dialect {
    /// SQLite-like profile.
    Sqlite,
    /// MySQL-like profile.
    Mysql,
    /// PostgreSQL-like profile.
    Postgres,
    /// DuckDB-like profile (strictly typed).
    Duckdb,
}

impl Dialect {
    /// All dialects, for iteration in campaigns and benches.
    pub const ALL: [Dialect; 4] =
        [Dialect::Sqlite, Dialect::Mysql, Dialect::Postgres, Dialect::Duckdb];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dialect::Sqlite => "sqlite",
            Dialect::Mysql => "mysql",
            Dialect::Postgres => "postgres",
            Dialect::Duckdb => "duckdb",
        }
    }

    /// Whether columns may be declared without a type.
    #[must_use]
    pub fn allows_untyped_columns(self) -> bool {
        self == Dialect::Sqlite
    }

    /// Whether arbitrary expressions are implicitly converted to boolean in
    /// `WHERE` (true for SQLite and MySQL; PostgreSQL and DuckDB require a
    /// boolean).
    #[must_use]
    pub fn implicit_boolean_conversion(self) -> bool {
        !self.strict_typing()
    }

    /// Whether the dialect enforces strict typing: no type affinity, no
    /// implicit conversions between storage classes, boolean predicates
    /// required at the `WHERE` root.
    #[must_use]
    pub fn strict_typing(self) -> bool {
        matches!(self, Dialect::Postgres | Dialect::Duckdb)
    }

    /// Whether a value of any storage class may be stored in any column
    /// (SQLite's dynamic typing).
    #[must_use]
    pub fn dynamic_typing(self) -> bool {
        self == Dialect::Sqlite
    }

    /// Whether the scalar `IS NOT` / `IS` operators apply to non-boolean
    /// operands (the operator from Listing 1 of the paper).
    #[must_use]
    pub fn has_scalar_is(self) -> bool {
        self == Dialect::Sqlite
    }

    /// Whether the dialect provides the MySQL `<=>` null-safe equality.
    #[must_use]
    pub fn has_null_safe_eq(self) -> bool {
        self == Dialect::Mysql
    }

    /// Whether the dialect provides unsigned integer types.
    #[must_use]
    pub fn has_unsigned_types(self) -> bool {
        self == Dialect::Mysql
    }

    /// Whether the dialect provides alternative table storage engines.
    #[must_use]
    pub fn has_table_engines(self) -> bool {
        self == Dialect::Mysql
    }

    /// Whether the dialect supports `WITHOUT ROWID` tables.
    #[must_use]
    pub fn has_without_rowid(self) -> bool {
        self == Dialect::Sqlite
    }

    /// Whether the dialect supports non-default collations (`NOCASE`,
    /// `RTRIM`).
    #[must_use]
    pub fn has_collations(self) -> bool {
        self == Dialect::Sqlite
    }

    /// Whether the dialect supports table inheritance (`INHERITS`).
    #[must_use]
    pub fn has_inheritance(self) -> bool {
        self == Dialect::Postgres
    }

    /// Whether the dialect supports partial indexes (`CREATE INDEX ... WHERE`).
    #[must_use]
    pub fn has_partial_indexes(self) -> bool {
        matches!(self, Dialect::Sqlite | Dialect::Postgres)
    }

    /// Whether the dialect supports indexes on expressions.
    #[must_use]
    pub fn has_expression_indexes(self) -> bool {
        true
    }

    /// Whether the dialect supports `PRAGMA` statements.
    #[must_use]
    pub fn has_pragma(self) -> bool {
        self == Dialect::Sqlite
    }

    /// Whether the dialect supports `SET [GLOBAL]` options.
    #[must_use]
    pub fn has_set_option(self) -> bool {
        matches!(self, Dialect::Mysql | Dialect::Postgres)
    }

    /// Whether the dialect supports `VACUUM`.
    #[must_use]
    pub fn has_vacuum(self) -> bool {
        matches!(self, Dialect::Sqlite | Dialect::Postgres)
    }

    /// Whether the dialect supports `REINDEX`.
    #[must_use]
    pub fn has_reindex(self) -> bool {
        matches!(self, Dialect::Sqlite | Dialect::Postgres)
    }

    /// Whether the dialect supports MySQL `CHECK TABLE` / `REPAIR TABLE`.
    #[must_use]
    pub fn has_check_repair_table(self) -> bool {
        self == Dialect::Mysql
    }

    /// Whether the dialect supports PostgreSQL `CREATE STATISTICS` and
    /// `DISCARD`.
    #[must_use]
    pub fn has_statistics_and_discard(self) -> bool {
        self == Dialect::Postgres
    }

    /// The column types the dialect accepts in `CREATE TABLE`.
    #[must_use]
    pub fn supported_types(self) -> Vec<TypeName> {
        match self {
            Dialect::Sqlite => {
                vec![TypeName::Integer, TypeName::Real, TypeName::Text, TypeName::Blob]
            }
            Dialect::Mysql => vec![
                TypeName::Integer,
                TypeName::TinyInt,
                TypeName::Unsigned,
                TypeName::Real,
                TypeName::Text,
                TypeName::Blob,
            ],
            Dialect::Postgres => vec![
                TypeName::Integer,
                TypeName::Real,
                TypeName::Text,
                TypeName::Boolean,
                TypeName::Serial,
            ],
            Dialect::Duckdb => {
                vec![TypeName::Integer, TypeName::Real, TypeName::Text, TypeName::Boolean]
            }
        }
    }

    /// Returns `true` if the given type may be used in this dialect.
    #[must_use]
    pub fn supports_type(self, t: TypeName) -> bool {
        self.supported_types().contains(&t)
    }

    /// Static census data for the Table 1 reproduction: (DB-Engines rank,
    /// Stack Overflow rank, LOC of the emulated system, release year) as
    /// reported in the paper for the real DBMS.
    #[must_use]
    pub fn paper_characteristics(self) -> PaperCharacteristics {
        match self {
            Dialect::Sqlite => PaperCharacteristics {
                db_engines_rank: 11,
                stackoverflow_rank: 4,
                loc: "0.3M",
                released: 2000,
                age_years: 19,
            },
            Dialect::Mysql => PaperCharacteristics {
                db_engines_rank: 2,
                stackoverflow_rank: 1,
                loc: "3.8M",
                released: 1995,
                age_years: 24,
            },
            Dialect::Postgres => PaperCharacteristics {
                db_engines_rank: 4,
                stackoverflow_rank: 2,
                loc: "1.4M",
                released: 1996,
                age_years: 23,
            },
            // Not part of the paper's census; figures for the emulated
            // system around the study period (DB-Engines December 2019).
            Dialect::Duckdb => PaperCharacteristics {
                db_engines_rank: 217,
                stackoverflow_rank: 20,
                loc: "0.2M",
                released: 2018,
                age_years: 1,
            },
        }
    }
}

/// Table 1 row data, as reported by the paper for the real DBMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperCharacteristics {
    /// DB-Engines popularity rank (December 2019).
    pub db_engines_rank: u32,
    /// Stack Overflow developer-survey rank (2019).
    pub stackoverflow_rank: u32,
    /// Lines of code of the real DBMS.
    pub loc: &'static str,
    /// First release year.
    pub released: u32,
    /// Age in years at the time of the study.
    pub age_years: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dialect_feature_matrix_matches_paper() {
        assert!(Dialect::Sqlite.allows_untyped_columns());
        assert!(!Dialect::Mysql.allows_untyped_columns());
        assert!(!Dialect::Postgres.implicit_boolean_conversion());
        assert!(Dialect::Mysql.implicit_boolean_conversion());
        assert!(Dialect::Sqlite.has_scalar_is());
        assert!(!Dialect::Postgres.has_scalar_is());
        assert!(Dialect::Mysql.has_null_safe_eq());
        assert!(Dialect::Mysql.has_table_engines());
        assert!(Dialect::Postgres.has_inheritance());
        assert!(Dialect::Sqlite.has_without_rowid());
        assert!(Dialect::Sqlite.has_pragma());
        assert!(!Dialect::Sqlite.has_set_option());
        assert!(Dialect::Mysql.has_check_repair_table());
        assert!(Dialect::Postgres.has_statistics_and_discard());
    }

    #[test]
    fn duckdb_profile_is_columnar_and_strict() {
        assert!(Dialect::Duckdb.strict_typing());
        assert!(Dialect::Postgres.strict_typing());
        assert!(!Dialect::Sqlite.strict_typing());
        assert!(!Dialect::Mysql.strict_typing());
        assert!(!Dialect::Duckdb.implicit_boolean_conversion());
        assert!(!Dialect::Duckdb.has_collations());
        assert!(!Dialect::Duckdb.dynamic_typing());
        assert!(!Dialect::Duckdb.allows_untyped_columns());
        assert!(!Dialect::Duckdb.has_partial_indexes());
        assert!(!Dialect::Duckdb.has_vacuum());
        assert!(!Dialect::Duckdb.has_pragma());
    }

    #[test]
    fn supported_types_respect_dialect() {
        assert!(Dialect::Mysql.supports_type(TypeName::Unsigned));
        assert!(!Dialect::Sqlite.supports_type(TypeName::Unsigned));
        assert!(Dialect::Postgres.supports_type(TypeName::Boolean));
        assert!(!Dialect::Mysql.supports_type(TypeName::Boolean));
        assert!(Dialect::Postgres.supports_type(TypeName::Serial));
        assert!(Dialect::Duckdb.supports_type(TypeName::Boolean));
        assert!(!Dialect::Duckdb.supports_type(TypeName::Blob));
        assert!(!Dialect::Duckdb.supports_type(TypeName::Serial));
    }

    #[test]
    fn paper_characteristics_present_for_all() {
        for d in Dialect::ALL {
            let c = d.paper_characteristics();
            assert!(c.released >= 1995);
            assert!(!c.loc.is_empty());
        }
    }
}
