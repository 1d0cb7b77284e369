//! The injected fault registry — the population of bugs that stands in for
//! the real, unknown DBMS bugs the paper discovered.
//!
//! Each fault is modelled on a bug class the paper describes (§4.4–§4.6 and
//! the listings) and is tagged with:
//!
//! * the dialect profile it applies to,
//! * the oracle expected to expose it (containment / error / crash),
//! * the classification it would receive on a bug tracker (fixed, verified,
//!   intended behaviour, duplicate) — this is what drives the Table 2
//!   reproduction,
//! * a pointer to the paper listing / section it is modelled on.
//!
//! The engine consults [`BugProfile::is_enabled`] at the specific code paths
//! where each fault manifests.  With an empty profile the engine is
//! reference-correct, which the cross-crate property tests rely on.

use serde::{Deserialize, Serialize};

use crate::dialect::Dialect;

/// The oracle expected to expose an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Oracle {
    /// The pivot-row containment oracle (logic bug).
    Containment,
    /// The unexpected-error oracle.
    Error,
    /// A simulated crash (SEGFAULT).
    Crash,
    /// The NoREC optimisation-consistency oracle (logic bug that only an
    /// optimised execution path exhibits).
    Norec,
    /// The serializability/atomicity oracle (transaction bug: the final
    /// state of an interleaving matches no serial order of the committed
    /// sessions, or a rolled-back session's effects are visible).
    Serializability,
}

impl Oracle {
    /// Label used in Table 3.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Oracle::Containment => "Contains",
            Oracle::Error => "Error",
            Oracle::Crash => "SEGFAULT",
            Oracle::Norec => "NoREC",
            Oracle::Serializability => "Serial",
        }
    }
}

/// The tracker classification a report of this fault would receive
/// (Table 2 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BugStatus {
    /// Fixed by the developers (a true bug).
    Fixed,
    /// Verified but not yet fixed (a true bug).
    Verified,
    /// Works as intended / documented behaviour (a false bug).
    Intended,
    /// Duplicate of another report (a false bug).
    Duplicate,
}

impl BugStatus {
    /// Returns `true` for classifications the paper counts as true bugs.
    #[must_use]
    pub fn is_true_bug(self) -> bool {
        matches!(self, BugStatus::Fixed | BugStatus::Verified)
    }
}

macro_rules! define_bugs {
    ($( $variant:ident => {
        dialect: $dialect:expr,
        oracle: $oracle:expr,
        status: $status:expr,
        paper: $paper:expr,
        desc: $desc:expr
    } ),+ $(,)?) => {
        /// Identifiers for every injected fault.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum BugId {
            $( $variant, )+
        }

        impl BugId {
            /// Every registered fault.
            pub const ALL: &'static [BugId] = &[ $( BugId::$variant, )+ ];

            /// Metadata for this fault.
            #[must_use]
            pub fn info(self) -> BugInfo {
                match self {
                    $( BugId::$variant => BugInfo {
                        id: self,
                        dialect: $dialect,
                        oracle: $oracle,
                        status: $status,
                        paper_ref: $paper,
                        description: $desc,
                    }, )+
                }
            }
        }
    };
}

/// Metadata describing an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugInfo {
    /// The fault identifier.
    pub id: BugId,
    /// The dialect profile the fault applies to.
    pub dialect: Dialect,
    /// The oracle expected to expose the fault.
    pub oracle: Oracle,
    /// The tracker classification a report would receive.
    pub status: BugStatus,
    /// The paper listing / section the fault is modelled on.
    pub paper_ref: &'static str,
    /// Human-readable description.
    pub description: &'static str,
}

define_bugs! {
    // ------------------------------------------------------- SQLite profile
    SqlitePartialIndexImpliesNotNull => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 1",
        desc: "partial index is used for `c0 IS NOT <literal>` on the wrong assumption that it implies `c0 NOT NULL`, dropping NULL pivot rows"
    },
    SqliteNoCaseWithoutRowidDedup => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 4",
        desc: "a NOCASE index on a WITHOUT ROWID table treats case-differing keys as duplicates and hides one row"
    },
    SqliteRtrimComparisonTrimsBothSides => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 5",
        desc: "RTRIM collation is implemented as full trim, so comparisons against leading-space keys miss rows"
    },
    SqliteSkipScanDistinct => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 6",
        desc: "the skip-scan optimisation applied to DISTINCT queries after ANALYZE drops result rows"
    },
    SqliteLikeIntAffinityOptimisation => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 7",
        desc: "the LIKE optimisation on non-TEXT-affinity UNIQUE NOCASE columns rejects exact matches"
    },
    SqliteTextMinusIntegerPrecision => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 2",
        desc: "subtracting a large integer from a TEXT value goes through floating point and loses precision"
    },
    SqliteDoubleQuotedStringIndex => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 8",
        desc: "double-quoted strings in index expressions re-bind to a renamed column and change query results"
    },
    SqliteCaseSensitiveLikePragmaSchema => {
        dialect: Dialect::Sqlite, oracle: Oracle::Error, status: BugStatus::Intended,
        paper: "Listing 9",
        desc: "changing PRAGMA case_sensitive_like with a LIKE index makes VACUUM report a malformed schema (documented as a design defect)"
    },
    SqliteRealPrimaryKeyUpdateCorruption => {
        dialect: Dialect::Sqlite, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Listing 10",
        desc: "UPDATE OR REPLACE on a REAL PRIMARY KEY column corrupts the implicit index (malformed disk image)"
    },
    SqliteReindexSpuriousUniqueFailure => {
        dialect: Dialect::Sqlite, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Section 4.4 (REINDEX bugs)",
        desc: "REINDEX reports a spurious UNIQUE constraint failure for NOCASE unique indexes"
    },
    SqliteIndexStaleAfterUpdate => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4 (index bugs)",
        desc: "index entries are not updated when the indexed column is modified, so index scans miss rows"
    },
    SqliteCollateIndexBinaryKeys => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4 (COLLATE bugs)",
        desc: "indexes on NOCASE columns are built with BINARY keys, so equality probes miss case-differing rows"
    },
    SqliteLikeOnBlobAlwaysFalse => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Verified,
        paper: "Section 4.4 (type flexibility)",
        desc: "LIKE applied to BLOB values yields FALSE instead of matching their text conversion"
    },
    SqliteDistinctNegativeZero => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4 (type flexibility)",
        desc: "DISTINCT separates 0.0 and -0.0 into two rows while comparisons treat them as equal"
    },
    SqliteVacuumExpressionIndexCorruption => {
        dialect: Dialect::Sqlite, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Section 4.4 (error oracle)",
        desc: "VACUUM with expression indexes present corrupts the rebuilt index (malformed disk image)"
    },
    SqliteAlterRenameBreaksIndex => {
        dialect: Dialect::Sqlite, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Section 4.4 (error oracle)",
        desc: "ALTER TABLE RENAME COLUMN leaves index expressions referring to the old name, later reported as a malformed schema"
    },
    SqliteIntRealComparisonTruncates => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4 (type flexibility)",
        desc: "comparing an INTEGER-affinity column with a REAL constant truncates the constant before comparing"
    },
    SqliteGroupByNoCaseDuplicates => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4 (COLLATE bugs)",
        desc: "GROUP BY on a NOCASE column produces separate groups for case-differing values"
    },
    SqliteLikeEscapeCrash => {
        dialect: Dialect::Sqlite, oracle: Oracle::Crash, status: BugStatus::Fixed,
        paper: "Section 4.2 (crash bugs)",
        desc: "a LIKE pattern ending in an escape character crashes the pattern compiler"
    },
    SqliteRowidAliasInsertMismatch => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4",
        desc: "INTEGER PRIMARY KEY rowid aliasing stores the wrong value when inserting text that looks numeric"
    },
    SqliteNotNullDefaultAltered => {
        dialect: Dialect::Sqlite, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Section 4.4 (error oracle)",
        desc: "ALTER TABLE ADD COLUMN with NOT NULL DEFAULT leaves existing rows NULL, detected by REINDEX as corruption"
    },
    SqliteUpdateOrReplaceDeletesTooMany => {
        dialect: Dialect::Sqlite, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.4",
        desc: "UPDATE OR REPLACE removes conflicting rows even when the conflict involves NULL keys"
    },
    SqliteTornRollbackIndexed => {
        dialect: Dialect::Sqlite, oracle: Oracle::Serializability, status: BugStatus::Fixed,
        paper: "transaction extension (torn rollback)",
        desc: "ROLLBACK re-applies the undone statements that touch indexed tables, leaving a rolled-back session's writes visible"
    },

    // -------------------------------------------------------- MySQL profile
    MysqlMemoryEngineJoinMiss => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Verified,
        paper: "Listing 11",
        desc: "joins between default-engine and MEMORY-engine tables drop rows whose join key needs an implicit cast"
    },
    MysqlUnsignedCastNegativeCompare => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 11 / §4.5 unsigned bugs",
        desc: "CAST(negative AS UNSIGNED) compares as a negative value instead of wrapping to the unsigned domain"
    },
    MysqlNullSafeEqOutOfRange => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 12",
        desc: "`<=>` against a constant outside the column type's range yields FALSE instead of comparing the stored value"
    },
    MysqlDoubleNegationFolded => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Duplicate,
        paper: "Listing 13",
        desc: "NOT(NOT x) is folded to x for integer operands; already fixed upstream, closed as duplicate"
    },
    MysqlSmallDoubleTextFalse => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Section 4.5 (value range bugs)",
        desc: "small doubles stored in TEXT columns evaluate to FALSE in boolean contexts"
    },
    MysqlTinyIntRangeCompare => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Verified,
        paper: "Section 4.5 (value range bugs)",
        desc: "comparisons of TINYINT columns against out-of-range constants are clamped before comparing"
    },
    MysqlSetOptionNondeterministicError => {
        dialect: Dialect::Mysql, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Listing 3",
        desc: "SET GLOBAL key_cache_division_limit nondeterministically fails with 'Incorrect arguments to SET'"
    },
    MysqlCheckTableExpressionIndexCrash => {
        dialect: Dialect::Mysql, oracle: Oracle::Crash, status: BugStatus::Fixed,
        paper: "Listing 14 (CVE-2019-2879)",
        desc: "CHECK TABLE ... FOR UPGRADE on a table with an expression index dereferences a dangling pointer"
    },
    MysqlRepairTableMarksCrashed => {
        dialect: Dialect::Mysql, oracle: Oracle::Error, status: BugStatus::Verified,
        paper: "Section 4.3 (REPAIR TABLE)",
        desc: "REPAIR TABLE on a MEMORY-engine table marks the table as crashed"
    },
    MysqlUnsignedSubtractionWraps => {
        dialect: Dialect::Mysql, oracle: Oracle::Containment, status: BugStatus::Intended,
        paper: "Section 4.5",
        desc: "unsigned subtraction wrapping reported as a bug, documented as intended BIGINT UNSIGNED semantics"
    },
    MysqlLostUpdate => {
        dialect: Dialect::Mysql, oracle: Oracle::Serializability, status: BugStatus::Verified,
        paper: "transaction extension (lost update)",
        desc: "COMMIT publishes the session's private workspace wholesale, clobbering writes other sessions committed since its BEGIN"
    },

    // --------------------------------------------------- PostgreSQL profile
    PostgresInheritanceGroupByMissingRow => {
        dialect: Dialect::Postgres, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "Listing 15",
        desc: "GROUP BY over an inheritance parent assumes the child respects the parent's PRIMARY KEY and merges distinct rows"
    },
    PostgresStatisticsNegativeBitmapset => {
        dialect: Dialect::Postgres, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Listing 16",
        desc: "extended statistics plus an expression index make predicate evaluation fail with 'negative bitmapset member not allowed'"
    },
    PostgresIndexUnexpectedNull => {
        dialect: Dialect::Postgres, oracle: Oracle::Error, status: BugStatus::Fixed,
        paper: "Listing 17",
        desc: "a range comparison over an index built after UPDATE reports 'found unexpected null value in index'"
    },
    PostgresVacuumIntegerOverflow => {
        dialect: Dialect::Postgres, oracle: Oracle::Error, status: BugStatus::Intended,
        paper: "Listing 18",
        desc: "VACUUM FULL fails with 'integer out of range' via an expression index; declared acceptable by the developers"
    },
    PostgresVacuumFullDeadlock => {
        dialect: Dialect::Postgres, oracle: Oracle::Error, status: BugStatus::Intended,
        paper: "Section 4.6 (false positives)",
        desc: "concurrent VACUUM FULL deadlocks across databases; closed as routine-use guidance"
    },
    PostgresStatisticsCrashDuplicate => {
        dialect: Dialect::Postgres, oracle: Oracle::Crash, status: BugStatus::Duplicate,
        paper: "Listing 16 (duplicate family)",
        desc: "a crash with the same root cause as the negative-bitmapset error; closed as duplicate"
    },
    PostgresSerialNotNullBypass => {
        dialect: Dialect::Postgres, oracle: Oracle::Containment, status: BugStatus::Verified,
        paper: "Section 4.6",
        desc: "rows inserted through an inheritance child are skipped by parent scans when the parent column is SERIAL"
    },
    PostgresSerialCounterSurvivesRollback => {
        dialect: Dialect::Postgres, oracle: Oracle::Serializability, status: BugStatus::Intended,
        paper: "transaction extension (sequences ignore rollback)",
        desc: "ROLLBACK keeps SERIAL counter advances made inside the transaction, so later inserts skip values; matches documented sequence semantics"
    },

    // ------------------------------------------- DuckDB-like profile
    // Extends the population beyond the paper's census with faults whose
    // root cause only exists in a columnar executor: per-lane selection
    // bitmaps, row-group statistics and lane-wide aggregate folds.
    DuckdbSelectionBitmapTailOffByOne => {
        dialect: Dialect::Duckdb, oracle: Oracle::Containment, status: BugStatus::Fixed,
        paper: "columnar extension (selection vectors)",
        desc: "the filter's selection bitmap mishandles the partial tail lane group, dropping the last qualifying row when the input length is not a lane multiple"
    },
    DuckdbAnalyzeRowGroupChecksum => {
        dialect: Dialect::Duckdb, oracle: Oracle::Error, status: BugStatus::Verified,
        paper: "columnar extension (row-group statistics)",
        desc: "ANALYZE validates per-row-group checksums and rejects tables whose row count leaves a partial tail row group"
    },
    DuckdbSumLaneWideningSkipsTail => {
        dialect: Dialect::Duckdb, oracle: Oracle::Norec, status: BugStatus::Fixed,
        paper: "columnar extension (vectorised aggregation)",
        desc: "the vectorised SUM fold widens lane-width blocks and skips the partial tail block, so SUM over a filtered column undercounts"
    },
    DuckdbCommitLaneAlignedPrefix => {
        dialect: Dialect::Duckdb, oracle: Oracle::Serializability, status: BugStatus::Fixed,
        paper: "transaction extension (lane-aligned commit)",
        desc: "COMMIT publishes only the lane-aligned prefix of the transaction's statement log, silently dropping the partial tail batch"
    },
}

impl BugId {
    /// The root-cause fault a duplicate report points at, if any.
    #[must_use]
    pub fn duplicate_of(self) -> Option<BugId> {
        match self {
            BugId::MysqlDoubleNegationFolded => Some(BugId::MysqlNullSafeEqOutOfRange),
            BugId::PostgresStatisticsCrashDuplicate => {
                Some(BugId::PostgresStatisticsNegativeBitmapset)
            }
            _ => None,
        }
    }

    /// All faults registered for a dialect.
    #[must_use]
    pub fn for_dialect(dialect: Dialect) -> Vec<BugId> {
        BugId::ALL.iter().copied().filter(|b| b.info().dialect == dialect).collect()
    }
}

/// The set of faults enabled in an engine instance: one bit per
/// [`BugId`], in declaration order.  `is_enabled` is a mask test and the
/// profile is `Copy`, so an engine clone (every replay snapshot) and an
/// evaluator copy it for free.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct BugProfile {
    enabled: u64,
}

// Every fault needs its own bit.
const _: () = assert!(BugId::ALL.len() <= 64);

impl BugId {
    /// The fault's bit in a [`BugProfile`].
    fn bit(self) -> u64 {
        1 << self as u32
    }
}

impl BugProfile {
    /// A profile with no faults: the reference-correct engine.
    #[must_use]
    pub fn none() -> BugProfile {
        BugProfile::default()
    }

    /// A profile with every fault registered for the dialect enabled — the
    /// configuration used by the evaluation campaigns.
    #[must_use]
    pub fn all_for(dialect: Dialect) -> BugProfile {
        BugProfile::with(&BugId::for_dialect(dialect))
    }

    /// A profile with exactly the given faults.
    #[must_use]
    pub fn with(bugs: &[BugId]) -> BugProfile {
        BugProfile { enabled: bugs.iter().fold(0, |set, b| set | b.bit()) }
    }

    /// Enables a fault.
    pub fn enable(&mut self, bug: BugId) {
        self.enabled |= bug.bit();
    }

    /// Disables a fault.
    pub fn disable(&mut self, bug: BugId) {
        self.enabled &= !bug.bit();
    }

    /// Returns `true` if the fault is enabled.
    #[must_use]
    pub fn is_enabled(&self, bug: BugId) -> bool {
        self.enabled & bug.bit() != 0
    }

    /// Number of enabled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.enabled.count_ones() as usize
    }

    /// Returns `true` if no fault is enabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.enabled == 0
    }

    /// Iterates over the enabled faults in [`BugId`] declaration order
    /// (the order attribution tries them in).
    pub fn iter(&self) -> impl Iterator<Item = BugId> + '_ {
        BugId::ALL.iter().copied().filter(|b| self.is_enabled(*b))
    }
}

/// Lists the enabled faults as a set.
impl std::fmt::Debug for BugProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bug_has_consistent_metadata() {
        for &b in BugId::ALL {
            let info = b.info();
            assert_eq!(info.id, b);
            assert!(!info.description.is_empty());
            assert!(!info.paper_ref.is_empty());
            if let Some(root) = b.duplicate_of() {
                assert_eq!(info.status, BugStatus::Duplicate);
                assert_eq!(root.info().dialect, info.dialect, "duplicates stay within a DBMS");
            }
        }
    }

    #[test]
    fn dialect_bug_counts_follow_paper_ordering() {
        let sqlite = BugId::for_dialect(Dialect::Sqlite).len();
        let mysql = BugId::for_dialect(Dialect::Mysql).len();
        let postgres = BugId::for_dialect(Dialect::Postgres).len();
        let duckdb = BugId::for_dialect(Dialect::Duckdb).len();
        assert!(sqlite > mysql, "paper found most bugs in SQLite");
        assert!(mysql > postgres, "paper found fewest bugs in PostgreSQL");
        assert!(postgres > duckdb, "the columnar extension stays smaller than every paper dialect");
        assert!(duckdb >= 2, "the columnar profile needs at least two faults");
        assert_eq!(sqlite + mysql + postgres + duckdb, BugId::ALL.len());
    }

    #[test]
    fn oracle_distribution_matches_table3_shape() {
        let count = |o: Oracle| BugId::ALL.iter().filter(|b| b.info().oracle == o).count();
        let contains = count(Oracle::Containment);
        let error = count(Oracle::Error);
        let crash = count(Oracle::Crash);
        assert!(contains > error, "containment oracle finds the most bugs (Table 3)");
        assert!(error > crash, "error oracle finds more than crashes (Table 3)");
        assert!(crash >= 2);
    }

    #[test]
    fn profile_operations() {
        let mut p = BugProfile::none();
        assert!(p.is_empty());
        p.enable(BugId::SqliteSkipScanDistinct);
        assert!(p.is_enabled(BugId::SqliteSkipScanDistinct));
        assert!(!p.is_enabled(BugId::MysqlMemoryEngineJoinMiss));
        p.disable(BugId::SqliteSkipScanDistinct);
        assert!(p.is_empty());

        let all = BugProfile::all_for(Dialect::Sqlite);
        assert_eq!(all.len(), BugId::for_dialect(Dialect::Sqlite).len());
        assert!(all.iter().all(|b| b.info().dialect == Dialect::Sqlite));
        assert_eq!(
            format!(
                "{:?}",
                BugProfile::with(&[BugId::MysqlLostUpdate, BugId::SqliteSkipScanDistinct])
            ),
            "{SqliteSkipScanDistinct, MysqlLostUpdate}"
        );
    }

    #[test]
    fn profiles_iterate_in_declaration_order() {
        for d in Dialect::ALL {
            let expected: Vec<BugId> =
                BugId::ALL.iter().copied().filter(|b| b.info().dialect == d).collect();
            assert_eq!(BugProfile::all_for(d).iter().collect::<Vec<_>>(), expected, "{d:?}");
        }
        let everything = BugProfile::with(BugId::ALL);
        assert_eq!(everything.iter().collect::<Vec<_>>(), BugId::ALL);
        assert_eq!(everything.len(), BugId::ALL.len());
    }

    #[test]
    fn true_bug_classification() {
        assert!(BugStatus::Fixed.is_true_bug());
        assert!(BugStatus::Verified.is_true_bug());
        assert!(!BugStatus::Intended.is_true_bug());
        assert!(!BugStatus::Duplicate.is_true_bug());
    }
}
