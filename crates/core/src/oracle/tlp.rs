//! The ternary-logic-partitioning (TLP) oracle.
//!
//! A metamorphic logic oracle from the SQLancer lineage (Rigger & Su,
//! "Finding Logic Bugs with Ternary Logic Partitioning"): for a random
//! predicate `p`, every row of `FROM tables` satisfies exactly one of `p`,
//! `NOT p`, `p IS NULL` under SQL's three-valued logic.  The union of the
//! three partition queries' row multisets must therefore equal the
//! unpartitioned result — no ground-truth interpreter needed, which makes
//! TLP sensitive to a different slice of the engine (predicate push-down,
//! index selection, partial-index planning) than pivot-row containment.
//!
//! The oracle reuses the campaign's existing machinery end to end: table
//! selection respects [`GenConfig::max_pivot_tables`], predicates come from
//! [`random_expression`] (Algorithm 1), and witnesses flow through the same
//! reduction/attribution pipeline via [`ReproSpec::PartitionMismatch`].

use std::collections::BTreeMap;

use lancer_engine::{Dialect, Engine};
use lancer_sql::ast::stmt::{Select, SelectItem, Statement};
use lancer_sql::ast::Expr;
use lancer_sql::value::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::gen::{random_expression, GenConfig, VisibleColumn};
use crate::oracle::{BugWitness, Cadence, Oracle, OracleCtx, OracleReport, ReproSpec};

/// Renders a row multiset as canonical-SQL-literal keys with occurrence
/// counts.  Exact (bit-level) value identity is the right equivalence for
/// TLP: partitions contain physical rows of the unpartitioned result, so
/// even `0.0` / `-0.0` must match exactly.
#[must_use]
pub fn row_multiset(rows: &[Vec<Value>]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    count_rows(rows, &mut out);
    out
}

/// Adds one occurrence per row to `counts`.  A row's key is its values'
/// SQL literals joined by `\u{1f}`, built in one reused buffer; only a key
/// seen for the first time is allocated.
fn count_rows(rows: &[Vec<Value>], counts: &mut BTreeMap<String, u64>) {
    let mut key = String::new();
    for row in rows {
        key.clear();
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                key.push('\u{1f}');
            }
            v.write_sql_literal(&mut key);
        }
        match counts.get_mut(key.as_str()) {
            Some(n) => *n += 1,
            None => {
                counts.insert(key.clone(), 1);
            }
        }
    }
}

/// Executes the partition queries and accumulates their combined row
/// multiset, or `None` when any partition fails to execute.  Shared by
/// [`TlpOracle::check_once`] and the reproduction check in
/// [`crate::runner::reproduces`], so detection and attribution always
/// agree on what a partition union is.
pub fn partition_union(
    engine: &mut Engine,
    partitions: &[Statement],
) -> Option<BTreeMap<String, u64>> {
    let mut union = BTreeMap::new();
    for p in partitions {
        count_rows(&engine.query_here(p).ok()?.rows, &mut union);
    }
    Some(union)
}

/// Read-only twin of [`partition_union`]: evaluates the partitions
/// against a shared engine snapshot via [`Engine::query`], presenting
/// the same fault-clock ordinals a mutable re-execution starting at
/// `first_ordinal` would.  Used by the clone-free replay fast path.
pub fn partition_union_at(
    engine: &Engine,
    first_ordinal: u64,
    partitions: &[Statement],
) -> Option<BTreeMap<String, u64>> {
    let mut union = BTreeMap::new();
    for (i, p) in partitions.iter().enumerate() {
        count_rows(&engine.query(first_ordinal + i as u64, p).ok()?.rows, &mut union);
    }
    Some(union)
}

/// The TLP oracle: checks that `Q ≡ Q where p ⊎ Q where NOT p ⊎ Q where p
/// IS NULL` for a random predicate `p`.
#[derive(Debug)]
pub struct TlpOracle {
    /// The dialect under test.
    pub dialect: Dialect,
    /// Generation parameters (table cap, expression depth).
    pub config: GenConfig,
}

impl TlpOracle {
    /// Creates a TLP oracle.
    #[must_use]
    pub fn new(dialect: Dialect, config: GenConfig) -> Self {
        TlpOracle { dialect, config }
    }

    /// Runs one partitioning check against the engine's current state.
    pub fn check_once<R: Rng>(&self, rng: &mut R, engine: &mut Engine) -> OracleReport {
        let mut tables: Vec<String> = engine
            .database()
            .table_names()
            .into_iter()
            .filter(|t| engine.database().table(t).is_some_and(|tb| !tb.is_empty()))
            .collect();
        if tables.is_empty() {
            return OracleReport::Skipped;
        }
        tables.shuffle(rng);
        let n = rng.gen_range(1..=tables.len().min(self.config.max_pivot_tables.max(1)));
        tables.truncate(n);

        let mut columns = Vec::new();
        for t in &tables {
            let Some(table) = engine.database().table(t) else { return OracleReport::Skipped };
            for c in &table.schema.columns {
                columns.push(VisibleColumn { table: t.clone(), meta: c.clone() });
            }
        }

        let predicate = random_expression(rng, &columns, self.dialect, 0);
        let items: Vec<SelectItem> = columns
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::qcol(c.table.clone(), c.meta.name.clone()),
                alias: None,
            })
            .collect();
        let base = Select {
            distinct: false,
            items,
            from: tables,
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        let query = |where_clause: Option<Expr>| {
            Statement::Select(lancer_sql::ast::Query::Select(Box::new(Select {
                where_clause,
                ..base.clone()
            })))
        };
        let unpartitioned = query(None);
        let partitions = vec![
            query(Some(predicate.clone())),
            query(Some(predicate.clone().not())),
            query(Some(predicate.clone().is_null())),
        ];

        // Any execution error means the check cannot be performed — errors
        // are the error oracle's jurisdiction, not TLP's.
        let Ok(whole) = engine.query_here(&unpartitioned) else { return OracleReport::Skipped };
        let Some(union) = partition_union(engine, &partitions) else {
            return OracleReport::Skipped;
        };
        let expected = row_multiset(&whole.rows);
        if expected == union {
            OracleReport::Passed
        } else {
            let missing: u64 = expected
                .iter()
                .map(|(k, c)| c.saturating_sub(union.get(k).copied().unwrap_or(0)))
                .sum();
            let extra: u64 = union
                .iter()
                .map(|(k, c)| c.saturating_sub(expected.get(k).copied().unwrap_or(0)))
                .sum();
            OracleReport::bug(BugWitness {
                trigger: unpartitioned,
                message: format!(
                    "TLP partition mismatch for predicate {predicate}: {missing} row(s) \
                     missing from and {extra} row(s) extra in the partition union"
                ),
                repro: ReproSpec::PartitionMismatch { partitions },
            })
        }
    }
}

impl Oracle for TlpOracle {
    fn name(&self) -> &'static str {
        "tlp"
    }

    fn cadence(&self) -> Cadence {
        Cadence::PerQuery
    }

    fn check(&self, rng: &mut StdRng, engine: &mut Engine, _ctx: &OracleCtx<'_>) -> OracleReport {
        self.check_once(rng, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StateGenerator;
    use crate::oracle::DetectionKind;
    use lancer_engine::{BugId, BugProfile};
    use rand::SeedableRng;

    #[test]
    fn tlp_passes_on_correct_engines() {
        for dialect in Dialect::ALL {
            let mut rng = StdRng::seed_from_u64(17);
            let mut engine = Engine::new(dialect);
            let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
            let _ = generator.generate_database(&mut rng, &mut engine);
            let oracle = TlpOracle::new(dialect, GenConfig::tiny());
            for _ in 0..120 {
                let report = oracle.check_once(&mut rng, &mut engine);
                assert!(
                    !matches!(report, OracleReport::Bugs(_)),
                    "{dialect:?}: TLP false positive: {report:#?}"
                );
            }
        }
    }

    #[test]
    fn tlp_skips_empty_databases() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = Engine::new(Dialect::Sqlite);
        let oracle = TlpOracle::new(Dialect::Sqlite, GenConfig::tiny());
        assert_eq!(oracle.check_once(&mut rng, &mut engine), OracleReport::Skipped);
    }

    #[test]
    fn tlp_rediscovers_the_partial_index_fault() {
        // The Listing-1 fault drops NULL rows when a partial index serves a
        // `c0 IS NOT <literal>` predicate — the unpartitioned scan is
        // unaffected, so the partition union comes up short.
        let mut rng = StdRng::seed_from_u64(4);
        let mut found = false;
        for _attempt in 0..40 {
            let mut engine = Engine::with_bugs(
                Dialect::Sqlite,
                BugProfile::with(&[BugId::SqlitePartialIndexImpliesNotNull]),
            );
            engine
                .execute_script(
                    "CREATE TABLE t0(c0);
                     CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
                     INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);",
                )
                .unwrap();
            let oracle = TlpOracle::new(Dialect::Sqlite, GenConfig::tiny());
            for _ in 0..500 {
                if let OracleReport::Bugs(witnesses) = oracle.check_once(&mut rng, &mut engine) {
                    assert_eq!(witnesses[0].kind(), DetectionKind::Tlp);
                    assert!(matches!(
                        witnesses[0].repro,
                        ReproSpec::PartitionMismatch { ref partitions } if partitions.len() == 3
                    ));
                    found = true;
                    break;
                }
            }
            if found {
                break;
            }
        }
        assert!(found, "the TLP oracle should rediscover the partial-index fault");
    }

    #[test]
    fn row_multiset_counts_exact_values() {
        let rows = vec![
            vec![Value::Integer(1), Value::Null],
            vec![Value::Integer(1), Value::Null],
            vec![Value::Real(0.0)],
            vec![Value::Real(-0.0)],
        ];
        let ms = row_multiset(&rows);
        assert_eq!(ms.len(), 3, "-0.0 and 0.0 are distinct physical rows: {ms:?}");
        assert_eq!(ms.values().sum::<u64>(), 4);
    }

    #[test]
    fn row_multiset_keys_are_the_joined_sql_literals() {
        // Each value with the literal `to_sql_literal` has always rendered
        // it as; a row's key is those literals joined by U+001F.
        let pinned: Vec<(Value, &str)> = vec![
            (Value::Integer(i64::MIN), "(-9223372036854775807 - 1)"),
            (Value::Integer(1 << 60), "1152921504606846976"),
            (Value::Real(f64::NAN), "(0.0 / 0.0)"),
            (Value::Real(f64::INFINITY), "(1e308 * 10)"),
            (Value::Real(f64::NEG_INFINITY), "(-1e308 * 10)"),
            (Value::Real(-0.0), "-0.0"),
            (Value::Real(3.0), "3.0"),
            (Value::Real(0.5), "0.5"),
            (Value::Real(1e15), "1000000000000000"),
            (Value::Real(2f64.powi(60)), "1152921504606847000"),
            (Value::Text("it's\u{1f}'".into()), "'it''s\u{1f}'''"),
            (Value::Text(String::new()), "''"),
            (Value::Blob(vec![0x00, 0xab, 0xff]), "x'00ABFF'"),
            (Value::Blob(Vec::new()), "x''"),
            (Value::Boolean(true), "TRUE"),
            (Value::Boolean(false), "FALSE"),
            (Value::Null, "NULL"),
        ];
        for (value, literal) in &pinned {
            assert_eq!(value.to_sql_literal(), *literal);
        }
        let row: Vec<Value> = pinned.iter().map(|(v, _)| v.clone()).collect();
        let key: Vec<&str> = pinned.iter().map(|(_, l)| *l).collect();
        let mut rows: Vec<Vec<Value>> = pinned.iter().map(|(v, _)| vec![v.clone()]).collect();
        rows.extend([row.clone(), row, Vec::new()]);
        let mut expected: BTreeMap<String, u64> =
            pinned.iter().map(|(_, l)| ((*l).to_owned(), 1)).collect();
        expected.insert(key.join("\u{1f}"), 2);
        expected.insert(String::new(), 1);
        assert_eq!(row_multiset(&rows), expected);
    }
}
