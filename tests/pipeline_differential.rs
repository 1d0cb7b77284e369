//! Differential property suite: the batched operator pipeline must be
//! observationally identical to the fault-free reference evaluator
//! (`lancer_engine::exec::reference`) wherever no `SELECT`-operator fault
//! fires.
//!
//! Random generated databases and random queries — probe shapes plus
//! the oracles' projection shapes, three-table sources, explicit joins
//! (a `LEFT JOIN` filtered on its padded side among them), aggregates,
//! HAVING and compound operators — run through both evaluators on the
//! same engine.  The results must match *exactly*: identical rows in
//! identical order (which subsumes the multiset requirement), identical
//! column labels, and identical errors.
//! The suite runs with no fault enabled, and with every fault except
//! [`OPERATOR_FAULTS`]: states corrupted by DDL/DML faults and the hooks
//! both evaluators share (expression evaluator, `SELECT` preflight,
//! aggregate folds) must still agree.  Each operator fault hooks only in
//! the pipeline, so it gets a pinned shape instead: the pipeline must
//! return the faulted rows, and the reference the fault-free ones.  The
//! shared SUM lane fault gets a pinned shape both must agree on.

use lancer_core::gen::{random_expression, GenConfig, StateGenerator, VisibleColumn};
use lancer_core::qpg::random_probe_query;
use lancer_engine::{BugId, BugProfile, Dialect, Engine};
use lancer_sql::ast::expr::{AggFunc, Expr};
use lancer_sql::ast::stmt::{CompoundOp, Join, JoinKind, Query, Select, SelectItem, Statement};
use lancer_sql::parser::parse_expression;
use lancer_sql::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The `SELECT`-operator faults.  Each changes rows only in the pipeline
/// stage where its real bug lived (Listing 8's RENAME hook just records
/// the poisoned column that the projection applies); the reference
/// evaluator has no copy.
const OPERATOR_FAULTS: &[BugId] = &[
    BugId::SqliteNoCaseWithoutRowidDedup,
    BugId::PostgresSerialNotNullBypass,
    BugId::MysqlMemoryEngineJoinMiss,
    BugId::SqlitePartialIndexImpliesNotNull,
    BugId::SqliteRowidAliasInsertMismatch,
    BugId::SqliteCollateIndexBinaryKeys,
    BugId::SqliteLikeIntAffinityOptimisation,
    BugId::DuckdbSelectionBitmapTailOffByOne,
    BugId::PostgresInheritanceGroupByMissingRow,
    BugId::SqliteGroupByNoCaseDuplicates,
    BugId::SqliteSkipScanDistinct,
    BugId::SqliteDistinctNegativeZero,
    BugId::SqliteDoubleQuotedStringIndex,
];

/// Columns of the tables a select draws from, for ON/HAVING generation.
fn visible_columns(engine: &Engine, tables: &[String]) -> Vec<VisibleColumn> {
    let mut out = Vec::new();
    for t in tables {
        if let Some(table) = engine.database().table(t) {
            for c in &table.schema.columns {
                out.push(VisibleColumn { table: t.clone(), meta: c.clone() });
            }
        }
    }
    out
}

/// The select's sources in scan order: `FROM` first, then the joins.
fn source_tables(s: &Select) -> Vec<String> {
    s.from.iter().cloned().chain(s.joins.iter().map(|j| j.table.clone())).collect()
}

fn item(expr: Expr) -> SelectItem {
    SelectItem::Expr { expr, alias: None }
}

/// Every column as a qualified reference, in order.
fn qualified_items(columns: &[VisibleColumn]) -> Vec<SelectItem> {
    columns.iter().map(|c| item(Expr::qcol(c.table.clone(), c.meta.name.clone()))).collect()
}

/// Rewrites the select into one of the projection and source shapes the
/// oracles build, or that exercise the pipeline's tuple bookkeeping:
/// which flat column a tuple reads, whole-tuple copies, row order across
/// several sources, and a `LEFT JOIN`'s padded row.
fn reshape(rng: &mut StdRng, engine: &Engine, s: &mut Select) {
    let dialect = engine.dialect();
    let tables = engine.database().table_names();
    let columns = visible_columns(engine, &source_tables(s));
    if columns.is_empty() {
        return;
    }
    match rng.gen_range(0..7) {
        // Every qualified column in source order under `p`, `NOT p` or
        // `p IS NULL`: the TLP, NoREC and containment queries.
        0 => {
            let p = random_expression(rng, &columns, dialect, 1);
            s.items = qualified_items(&columns);
            s.where_clause = Some(match rng.gen_range(0..3) {
                0 => p,
                1 => p.not(),
                _ => p.is_null(),
            });
        }
        // NoREC's unoptimized count.
        1 => {
            let p = random_expression(rng, &columns, dialect, 1);
            s.items = vec![item(Expr::Aggregate {
                func: AggFunc::Sum,
                arg: Some(Box::new(Expr::case_when(p, Expr::int(1), Expr::int(0)))),
                distinct: false,
            })];
            s.where_clause = None;
        }
        // A permuted column list, possibly with a column repeated.
        2 => {
            let mut items = qualified_items(&columns);
            items.shuffle(rng);
            if rng.gen_bool(0.5) {
                let repeated = items[rng.gen_range(0..items.len())].clone();
                items.insert(rng.gen_range(0..=items.len()), repeated);
            }
            s.items = items;
        }
        // Expression items under DISTINCT.
        3 => {
            s.items = (0..rng.gen_range(1..=3))
                .map(|_| item(random_expression(rng, &columns, dialect, 1)))
                .collect();
            s.distinct = true;
        }
        // A bare column that resolves nowhere, over some rows or none:
        // SQLite reads it as a string, the others error at the first row.
        4 => {
            s.items = vec![item(Expr::col("c_nowhere"))];
            if rng.gen_bool(0.5) {
                s.items.insert(0, qualified_items(&columns).swap_remove(0));
            }
            if rng.gen_bool(0.5) {
                s.where_clause = Some(Expr::int(1).eq(Expr::int(0)));
            }
        }
        // Three tables in FROM (repeating one when the database has fewer).
        5 => {
            let mut from = tables.clone();
            from.shuffle(rng);
            while from.len() < 3 {
                from.push(tables.choose(rng).expect("non-empty").clone());
            }
            from.truncate(3);
            s.from = from;
            s.joins.clear();
            let columns = visible_columns(engine, &s.from);
            s.where_clause =
                rng.gen_bool(0.7).then(|| random_expression(rng, &columns, dialect, 1));
        }
        // A LEFT JOIN whose WHERE reads the right side, padded with NULLs
        // where the ON condition matched no row.
        _ => {
            let right = tables.choose(rng).expect("non-empty").clone();
            let right_columns = visible_columns(engine, std::slice::from_ref(&right));
            let mut both = columns;
            both.extend(right_columns.iter().cloned());
            let on = random_expression(rng, &both, dialect, 1);
            s.joins.push(Join { kind: JoinKind::Left, table: right.clone(), on: Some(on) });
            s.where_clause = Some(match right_columns.choose(rng) {
                Some(c) if rng.gen_bool(0.5) => Expr::qcol(right, c.meta.name.clone()).is_null(),
                _ => random_expression(rng, &right_columns, dialect, 1),
            });
        }
    }
}

/// A probe query widened with the shapes `random_probe_query` does not
/// reach: the oracles' projection shapes and source shapes ([`reshape`]),
/// or else explicit joins (all three kinds), aggregate projections,
/// `HAVING`, and compound operators.
fn random_differential_query(rng: &mut StdRng, engine: &Engine, gen: &GenConfig) -> Option<Query> {
    let mut q = random_probe_query(rng, engine, gen)?;
    if let Query::Select(s) = &mut q {
        if rng.gen_bool(0.5) {
            reshape(rng, engine, s);
            return Some(q);
        }
        let tables = engine.database().table_names();
        if rng.gen_bool(0.35) {
            if let Some(right) = tables.choose(rng) {
                let kind = *[JoinKind::Cross, JoinKind::Inner, JoinKind::Left]
                    .choose(rng)
                    .expect("non-empty");
                let mut sources = s.from.clone();
                sources.push(right.clone());
                let columns = visible_columns(engine, &sources);
                let on = match kind {
                    JoinKind::Cross => None,
                    _ => Some(random_expression(rng, &columns, engine.dialect(), 1)),
                };
                s.joins.push(Join { kind, table: right.clone(), on });
            }
        }
        if rng.gen_bool(0.25) {
            let agg = ["COUNT(*)", "SUM(c0)", "MIN(c0)", "MAX(c0)", "AVG(c0)"]
                .choose(rng)
                .expect("non-empty");
            s.items = vec![SelectItem::Expr {
                expr: parse_expression(agg).expect("aggregate parses"),
                alias: None,
            }];
            if !s.group_by.is_empty() && rng.gen_bool(0.5) {
                s.having = Some(parse_expression("COUNT(*) > 1").expect("having parses"));
            }
        }
    }
    if rng.gen_bool(0.2) {
        if let Some(right) = random_probe_query(rng, engine, gen) {
            let op = *[
                CompoundOp::Union,
                CompoundOp::UnionAll,
                CompoundOp::Intersect,
                CompoundOp::Except,
            ]
            .choose(rng)
            .expect("non-empty");
            q = Query::Compound { left: Box::new(q), op, right: Box::new(right) };
        }
    }
    Some(q)
}

/// Builds a random database with the given profile and checks a batch of
/// random queries through both evaluators.
fn check_differential(
    seed: u64,
    dialect: Dialect,
    profile: BugProfile,
) -> Result<(), TestCaseError> {
    let gen = GenConfig::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::with_bugs(dialect, profile);
    let mut generator = StateGenerator::new(dialect, gen.clone());
    let _ = generator.generate_database(&mut rng, &mut engine);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x00D1_FFE0_5EED);
    for _ in 0..10 {
        let Some(q) = random_differential_query(&mut query_rng, &engine, &gen) else {
            return Ok(());
        };
        let pipeline = engine.execute(&Statement::Select(q.clone()));
        let reference = engine.execute_query_reference(&q);
        prop_assert_eq!(
            &pipeline,
            &reference,
            "pipeline and reference diverged for {dialect:?} on: {}",
            q
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Fault-free engines: the pipeline is the dialect semantics.
    #[test]
    fn pipeline_matches_reference_without_faults(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        check_differential(seed, dialect, BugProfile::none())?;
    }

    /// Every fault but the operator faults: faulted DDL/DML leave the same
    /// state to both evaluators, and the shared hooks fire identically.
    #[test]
    fn pipeline_matches_reference_without_operator_faults(
        seed in any::<u64>(),
        dialect_idx in 0usize..4,
    ) {
        let dialect = Dialect::ALL[dialect_idx];
        let mut profile = BugProfile::all_for(dialect);
        for &fault in OPERATOR_FAULTS {
            profile.disable(fault);
        }
        check_differential(seed, dialect, profile)?;
    }
}

/// A query an operator fault changes, and the rows the faulted pipeline
/// returns for it.
struct FaultShape {
    fault: BugId,
    setup: &'static str,
    query: &'static str,
    faulted: Vec<Vec<Value>>,
}

fn int(i: i64) -> Value {
    Value::Integer(i)
}

fn text(t: &str) -> Value {
    Value::Text(t.to_owned())
}

/// One firing shape per operator fault, in `OPERATOR_FAULTS` order (most
/// are the paper's listings).
fn operator_fault_shapes() -> Vec<FaultShape> {
    vec![
        FaultShape {
            fault: BugId::SqliteNoCaseWithoutRowidDedup,
            setup: "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID;
                    CREATE INDEX i0 ON t0(c0 COLLATE NOCASE);
                    INSERT INTO t0(c0) VALUES ('A');
                    INSERT INTO t0(c0) VALUES ('a');",
            query: "SELECT * FROM t0",
            faulted: vec![vec![text("A")]],
        },
        FaultShape {
            fault: BugId::PostgresSerialNotNullBypass,
            setup: "CREATE TABLE t0(c0 SERIAL, c1 INT);
                    CREATE TABLE t1(c0 SERIAL, c1 INT) INHERITS (t0);
                    INSERT INTO t0(c1) VALUES (1);
                    INSERT INTO t1(c1) VALUES (2);",
            query: "SELECT c1 FROM t0",
            faulted: vec![vec![int(1)]],
        },
        FaultShape {
            fault: BugId::MysqlMemoryEngineJoinMiss,
            setup: "CREATE TABLE t0(c0 INT);
                    CREATE TABLE t1(c0 INT) ENGINE = MEMORY;
                    INSERT INTO t0(c0) VALUES (0);
                    INSERT INTO t1(c0) VALUES (-1);",
            query: "SELECT * FROM t0, t1 WHERE t1.c0 < 0",
            faulted: vec![],
        },
        FaultShape {
            fault: BugId::SqlitePartialIndexImpliesNotNull,
            setup: "CREATE TABLE t0(c0);
                    CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
                    INSERT INTO t0(c0) VALUES (0), (1), (NULL);",
            query: "SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1",
            faulted: vec![vec![int(0)]],
        },
        FaultShape {
            fault: BugId::SqliteRowidAliasInsertMismatch,
            setup: "CREATE TABLE t0(c0 INTEGER PRIMARY KEY);
                    INSERT INTO t0(c0) VALUES ('a');",
            query: "SELECT c0 FROM t0 WHERE c0 = 'a'",
            faulted: vec![],
        },
        FaultShape {
            fault: BugId::SqliteCollateIndexBinaryKeys,
            setup: "CREATE TABLE t0(c0 TEXT COLLATE NOCASE);
                    CREATE INDEX i0 ON t0(c0);
                    INSERT INTO t0(c0) VALUES ('a'), ('A');",
            query: "SELECT c0 FROM t0 WHERE c0 = 'a'",
            faulted: vec![vec![text("a")]],
        },
        FaultShape {
            fault: BugId::SqliteLikeIntAffinityOptimisation,
            setup: "CREATE TABLE t0(c0 INT UNIQUE COLLATE NOCASE);
                    INSERT INTO t0(c0) VALUES ('./');",
            query: "SELECT * FROM t0 WHERE t0.c0 LIKE './'",
            faulted: vec![],
        },
        FaultShape {
            fault: BugId::DuckdbSelectionBitmapTailOffByOne,
            setup: "CREATE TABLE t0(c0 INTEGER);
                    INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9);",
            query: "SELECT c0 FROM t0 WHERE c0 >= 1",
            faulted: (1..=8).map(|i| vec![int(i)]).collect(),
        },
        FaultShape {
            fault: BugId::PostgresInheritanceGroupByMissingRow,
            setup: "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT);
                    CREATE TABLE t1(c0 INT, c1 INT) INHERITS (t0);
                    INSERT INTO t0(c0, c1) VALUES (0, 0);
                    INSERT INTO t1(c0, c1) VALUES (0, 1);",
            query: "SELECT c0, c1 FROM t0 GROUP BY c0, c1",
            faulted: vec![vec![int(0), int(0)]],
        },
        FaultShape {
            fault: BugId::SqliteGroupByNoCaseDuplicates,
            setup: "CREATE TABLE t0(c0 TEXT COLLATE NOCASE);
                    INSERT INTO t0(c0) VALUES ('a'), (NULL);",
            query: "SELECT c0 FROM t0 GROUP BY c0",
            faulted: vec![vec![text("a")]],
        },
        FaultShape {
            fault: BugId::SqliteSkipScanDistinct,
            setup: "CREATE TABLE t1(c1, c2, c3, c4, PRIMARY KEY (c4, c3));
                    INSERT INTO t1(c3, c4) VALUES (0, 1), (1, 2), (0, 3);
                    ANALYZE t1;",
            query: "SELECT DISTINCT c3, c4 FROM t1",
            faulted: vec![vec![int(0), int(1)], vec![int(1), int(2)]],
        },
        FaultShape {
            fault: BugId::SqliteDistinctNegativeZero,
            setup: "CREATE TABLE t0(c0);
                    INSERT INTO t0(c0) VALUES (0), (NULL);",
            query: "SELECT DISTINCT c0 FROM t0",
            faulted: vec![vec![int(0)]],
        },
        FaultShape {
            fault: BugId::SqliteDoubleQuotedStringIndex,
            setup: "CREATE TABLE t0(c0, c1);
                    CREATE INDEX i0 ON t0(\"c0\");
                    INSERT INTO t0(c0, c1) VALUES (1, 2);
                    ALTER TABLE t0 RENAME COLUMN c0 TO c3;",
            query: "SELECT c3 FROM t0",
            faulted: vec![vec![text("C0")]],
        },
    ]
}

/// Runs `setup` on a fresh engine with `profile` and parses `query`.
fn prepare(dialect: Dialect, profile: BugProfile, setup: &str, query: &str) -> (Engine, Query) {
    let mut engine = Engine::with_bugs(dialect, profile);
    engine.execute_script(setup).unwrap();
    match lancer_sql::parse_statement(query).unwrap() {
        Statement::Select(q) => (engine, q),
        other => panic!("not a query: {other:?}"),
    }
}

/// Each operator fault fires at its pinned shape through the pipeline
/// only: the pipeline returns the faulted rows, while the reference
/// returns what the pipeline of a fault-free engine returns.
#[test]
fn operator_faults_fire_only_in_the_pipeline() {
    let shapes = operator_fault_shapes();
    let covered: Vec<BugId> = shapes.iter().map(|shape| shape.fault).collect();
    assert_eq!(covered, OPERATOR_FAULTS, "every operator fault needs exactly one shape");
    for shape in &shapes {
        let (fault, dialect) = (shape.fault, shape.fault.info().dialect);
        let (mut faulty, q) =
            prepare(dialect, BugProfile::with(&[fault]), shape.setup, shape.query);
        let pipeline = faulty.execute(&Statement::Select(q.clone())).unwrap().rows;
        let reference = faulty.execute_query_reference(&q).unwrap().rows;
        let (mut clean, _) = prepare(dialect, BugProfile::none(), shape.setup, shape.query);
        let fault_free = clean.execute(&Statement::Select(q)).unwrap().rows;
        assert_eq!(pipeline, shape.faulted, "{fault:?}: faulted rows of {}", shape.query);
        assert_ne!(reference, shape.faulted, "{fault:?} does not fire on {}", shape.query);
        assert_eq!(reference, fault_free, "{fault:?}: the reference is not fault-free");
    }
}

/// The SUM lane fault hooks in `eval_aggregate_expr`, which both
/// evaluators call, so both fold only the first lane block (36 of 55).
#[test]
fn shared_aggregate_fault_fires_through_both_evaluators() {
    let (mut engine, q) = prepare(
        Dialect::Duckdb,
        BugProfile::with(&[BugId::DuckdbSumLaneWideningSkipsTail]),
        "CREATE TABLE t0(c0 INTEGER);
         INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10);",
        "SELECT SUM(c0) FROM t0",
    );
    let faulted = vec![vec![int(36)]];
    assert_eq!(engine.execute(&Statement::Select(q.clone())).unwrap().rows, faulted);
    assert_eq!(engine.execute_query_reference(&q).unwrap().rows, faulted);
}

/// A bare column that resolves nowhere is evaluated per row, never bound
/// ahead of time: over an empty table no dialect errors, over a non-empty
/// one SQLite reads it as a string and the others error, in both
/// evaluators alike.
#[test]
fn unresolvable_column_errors_only_when_a_row_reaches_it() {
    for dialect in Dialect::ALL {
        let (mut engine, _) = prepare(
            dialect,
            BugProfile::none(),
            "CREATE TABLE t0(c0 INT, c1 INT);
             CREATE TABLE t1(c0 INT);
             INSERT INTO t0(c0, c1) VALUES (1, 2), (3, 4);",
            "SELECT 1",
        );
        for (sql, rows) in [
            ("SELECT c_nowhere FROM t1", Some(0)),
            ("SELECT c0, c_nowhere FROM t1", Some(0)),
            ("SELECT c_nowhere FROM t0", None),
            ("SELECT t0.c1, c_nowhere FROM t0, t1", Some(0)),
            ("SELECT c1, c_nowhere, c0 FROM t0", None),
        ] {
            let q = match lancer_sql::parse_statement(sql).unwrap() {
                Statement::Select(q) => q,
                other => panic!("not a query: {other:?}"),
            };
            let pipeline = engine.execute(&Statement::Select(q.clone()));
            assert_eq!(pipeline, engine.execute_query_reference(&q), "{dialect:?}: {sql}");
            match (rows, &pipeline) {
                (Some(n), Ok(r)) => assert_eq!(r.rows.len(), n, "{dialect:?}: {sql}"),
                (None, Ok(r)) => {
                    assert_eq!(dialect, Dialect::Sqlite, "{sql} must error");
                    assert!(r.rows.iter().any(|row| row.contains(&text("c_nowhere"))), "{sql}");
                }
                (None, Err(_)) => assert_ne!(dialect, Dialect::Sqlite, "{sql}"),
                (Some(_), Err(e)) => panic!("{dialect:?}: {sql} errored over no row: {e:?}"),
            }
        }
    }
}
