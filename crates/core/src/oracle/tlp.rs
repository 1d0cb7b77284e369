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
//! [`partition_diff`] compares the two sides exactly: rows match only when
//! every value is identical under [`Value::exact_cmp`] (type tag first,
//! `-0.0` ≠ `0.0`, all NaNs one class), not under SQL equality, where
//! `1 = 1.0`.
//!
//! The oracle reuses the campaign's existing machinery end to end: table
//! selection respects [`GenConfig::max_pivot_tables`], predicates come from
//! [`random_expression`] (Algorithm 1), and witnesses flow through the same
//! reduction/attribution pipeline via [`ReproSpec::PartitionMismatch`].

use std::cmp::Ordering;

use lancer_engine::{Dialect, Engine};
use lancer_sql::ast::stmt::{Select, SelectItem, Statement};
use lancer_sql::ast::Expr;
use lancer_sql::value::{exact_cmp_rows, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::gen::{random_expression, GenConfig, VisibleColumn};
use crate::oracle::{BugWitness, Cadence, Oracle, OracleCtx, OracleReport, ReproSpec};

/// Compares an unpartitioned result with the union of its partitions as
/// row multisets and returns `(missing, extra)`: how many rows of `whole`
/// the union lacks, and how many rows of the union `whole` lacks.
/// `(0, 0)` means the partitions cover the result exactly.
///
/// Rows match under the exact order [`exact_cmp_rows`], never SQL
/// equality: a value matches only an identical value, so `1` and `1.0`
/// differ (the type tag comes first), `-0.0` and `0.0` differ, and every
/// NaN matches every other NaN.  Partitions hold physical rows of the
/// unpartitioned result, so nothing looser is right.
///
/// Each partition is a filtered subsequence of the same scan, so the
/// comparison first walks `whole` in order and pairs each row with the
/// next unpaired row of whichever partition has an identical head; a
/// passing check is settled in that one pass.  Only when the walk gets
/// stuck (a partition came back reordered, say by an index probe, or the
/// check really fails) are both sides sorted and counted in one merge.
/// [`TlpOracle::check_once`] and the runner's reproduction checks all
/// call this, so detection and attribution agree on every verdict.
#[must_use]
pub fn partition_diff(whole: &[Vec<Value>], partitions: &[Vec<Vec<Value>>]) -> (usize, usize) {
    // Equal sizes make a walk that pairs every row of `whole` pair every
    // partition row too.
    if partitions.iter().map(Vec::len).sum::<usize>() == whole.len() {
        let mut heads = vec![0; partitions.len()];
        let walked = whole.iter().all(|row| {
            let paired = (0..partitions.len()).find(|&p| {
                partitions[p].get(heads[p]).is_some_and(|head| exact_cmp_rows(head, row).is_eq())
            });
            if let Some(p) = paired {
                heads[p] += 1;
            }
            paired.is_some()
        });
        if walked {
            return (0, 0);
        }
    }
    let sort = |rows: &mut Vec<&[Value]>| rows.sort_unstable_by(|a, b| exact_cmp_rows(a, b));
    let mut expected: Vec<&[Value]> = whole.iter().map(Vec::as_slice).collect();
    let mut union: Vec<&[Value]> = partitions.iter().flatten().map(Vec::as_slice).collect();
    sort(&mut expected);
    sort(&mut union);
    let (mut e, mut u) = (0, 0);
    let (mut missing, mut extra) = (0, 0);
    while e < expected.len() && u < union.len() {
        match exact_cmp_rows(expected[e], union[u]) {
            Ordering::Less => {
                missing += 1;
                e += 1;
            }
            Ordering::Greater => {
                extra += 1;
                u += 1;
            }
            Ordering::Equal => {
                e += 1;
                u += 1;
            }
        }
    }
    (missing + expected.len() - e, extra + union.len() - u)
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
        let results: Option<Vec<_>> =
            partitions.iter().map(|p| engine.query_here(p).ok().map(|r| r.rows)).collect();
        let Some(results) = results else { return OracleReport::Skipped };
        let (missing, extra) = partition_diff(&whole.rows, &results);
        if (missing, extra) == (0, 0) {
            OracleReport::Passed
        } else {
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
    use proptest::prelude::*;
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

    /// A small pool, so rows repeat, holding values only the exact order
    /// tells apart.
    fn value_pool() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Integer(1),
            Value::Real(1.0),
            Value::Real(0.0),
            Value::Real(-0.0),
            Value::Real(f64::NAN),
            Value::Real(-f64::NAN),
            Value::Text("1".into()),
            Value::Blob(b"1".to_vec()),
            Value::Boolean(true),
        ]
    }

    /// A value of another type or sign that SQL equality or a literal
    /// rendering could confuse with `v`; a NaN becomes another NaN, which
    /// still matches.
    fn retyped(v: &Value) -> Value {
        match v {
            Value::Null => Value::Boolean(false),
            Value::Integer(i) => Value::Real(*i as f64),
            Value::Real(r) if r.is_nan() || *r == 0.0 => Value::Real(-r),
            Value::Real(r) => Value::Integer(*r as i64),
            Value::Text(t) => Value::Blob(t.clone().into_bytes()),
            Value::Blob(b) => Value::Text(String::from_utf8_lossy(b).into_owned()),
            Value::Boolean(b) => Value::Integer(i64::from(*b)),
        }
    }

    /// `(missing, extra)` by brute force: for each distinct row, the
    /// copies on each side, counted under the exact order.
    fn brute_force_diff(whole: &[Vec<Value>], partitions: &[Vec<Vec<Value>>]) -> (usize, usize) {
        let union: Vec<&Vec<Value>> = partitions.iter().flatten().collect();
        let whole: Vec<&Vec<Value>> = whole.iter().collect();
        let copies = |rows: &[&Vec<Value>], row: &[Value]| {
            rows.iter().filter(|r| exact_cmp_rows(r, row).is_eq()).count()
        };
        let mut seen: Vec<&Vec<Value>> = Vec::new();
        let (mut missing, mut extra) = (0, 0);
        for &row in whole.iter().chain(&union) {
            if copies(&seen, row) == 0 {
                seen.push(row);
                let (w, u) = (copies(&whole, row), copies(&union, row));
                missing += w.saturating_sub(u);
                extra += u.saturating_sub(w);
            }
        }
        (missing, extra)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// `partition_diff` agrees with brute-force counting whether the
        /// partitions keep scan order, so the in-order walk settles the
        /// check, or not, so the sort does: case 0 keeps them in order,
        /// case 1 shuffles one, and cases 2–4 drop, add or retype one row.
        #[test]
        fn partition_diff_matches_brute_force_counting(seed in any::<u64>(), case in 0u8..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = value_pool();
            let width = rng.gen_range(1..=2);
            let random_row = |rng: &mut StdRng| -> Vec<Value> {
                (0..width).map(|_| pool.choose(rng).expect("pool is non-empty").clone()).collect()
            };
            let rows = rng.gen_range(0..12);
            let whole: Vec<Vec<Value>> = (0..rows).map(|_| random_row(&mut rng)).collect();
            let mut partitions = vec![Vec::new(); 3];
            for row in &whole {
                partitions[rng.gen_range(0..3)].push(row.clone());
            }
            let part = &mut partitions[rng.gen_range(0..3)];
            match case {
                0 => {}
                1 => part.shuffle(&mut rng),
                2 if !part.is_empty() => {
                    part.remove(rng.gen_range(0..part.len()));
                }
                3 => part.insert(rng.gen_range(0..=part.len()), random_row(&mut rng)),
                4 if !part.is_empty() => {
                    let row = rng.gen_range(0..part.len());
                    let col = rng.gen_range(0..width);
                    part[row][col] = retyped(&part[row][col]);
                }
                _ => {}
            }
            let expected = brute_force_diff(&whole, &partitions);
            prop_assert_eq!(
                partition_diff(&whole, &partitions),
                expected,
                "case {} over {:?} split into {:?}",
                case,
                whole,
                partitions
            );
            if case == 0 {
                prop_assert_eq!(expected, (0, 0));
            }
        }
    }
}
