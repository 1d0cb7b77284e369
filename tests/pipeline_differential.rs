//! Differential property suite: the batched operator pipeline must be
//! observationally identical to the retained straight-line reference
//! evaluator (`lancer_engine::exec::reference`).
//!
//! Random generated databases and random queries — probe shapes plus
//! explicit joins, aggregates, HAVING and compound operators — run
//! through both evaluators on the same engine.  The results must match
//! *exactly*: identical rows in identical order (which subsumes the
//! multiset requirement), identical column labels, and identical errors.
//! The suite runs with every injected fault enabled as well as with none,
//! so a pipeline refactor that moves a fault's firing point to different
//! rows is caught at the first query that exposes it.

use lancer_core::gen::{random_expression, GenConfig, StateGenerator, VisibleColumn};
use lancer_core::qpg::random_probe_query;
use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::stmt::{CompoundOp, Join, JoinKind, Query, Statement};
use lancer_sql::parser::parse_expression;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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

/// A probe query widened with the shapes `random_probe_query` does not
/// reach: explicit joins (all three kinds), aggregate projections,
/// `HAVING`, and compound operators.
fn random_differential_query(rng: &mut StdRng, engine: &Engine, gen: &GenConfig) -> Option<Query> {
    let mut q = random_probe_query(rng, engine, gen)?;
    if let Query::Select(s) = &mut q {
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
            s.items = vec![lancer_sql::ast::stmt::SelectItem::Expr {
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

    /// Full fault profiles: every injected fault must fire at exactly the
    /// same rows through the pipeline as through the reference evaluator.
    #[test]
    fn pipeline_matches_reference_with_all_faults(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        check_differential(seed, dialect, BugProfile::all_for(dialect))?;
    }
}

/// The paper's listing shapes, pinned explicitly (the random suite above
/// reaches them only probabilistically).
#[test]
fn listing_shapes_agree_between_evaluators() {
    use lancer_engine::BugId;
    let cases: &[(Dialect, &[BugId], &str, &str)] = &[
        (
            Dialect::Sqlite,
            &[BugId::SqlitePartialIndexImpliesNotNull],
            "CREATE TABLE t0(c0);
             CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
             INSERT INTO t0(c0) VALUES (0), (1), (NULL);",
            "SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1",
        ),
        (
            Dialect::Sqlite,
            &[BugId::SqliteSkipScanDistinct],
            "CREATE TABLE t1(c1, c2, c3, c4, PRIMARY KEY (c4, c3));
             INSERT INTO t1(c3, c4) VALUES (0, 1), (1, 2), (0, 3);
             ANALYZE t1;",
            "SELECT DISTINCT c3, c4 FROM t1",
        ),
        (
            Dialect::Mysql,
            &[BugId::MysqlMemoryEngineJoinMiss],
            "CREATE TABLE t0(c0 INT);
             CREATE TABLE t1(c0 INT) ENGINE = MEMORY;
             INSERT INTO t0(c0) VALUES (0);
             INSERT INTO t1(c0) VALUES (-1);",
            "SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (IFNULL('u', t0.c0))",
        ),
        (
            Dialect::Duckdb,
            &[BugId::DuckdbSelectionBitmapTailOffByOne],
            "CREATE TABLE t0(c0 INTEGER);
             INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9);",
            "SELECT c0 FROM t0 WHERE c0 >= 1",
        ),
        (
            Dialect::Duckdb,
            &[BugId::DuckdbSumLaneWideningSkipsTail],
            "CREATE TABLE t0(c0 INTEGER);
             INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10);",
            "SELECT SUM(c0) FROM t0",
        ),
        (
            Dialect::Postgres,
            &[BugId::PostgresInheritanceGroupByMissingRow],
            "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT);
             CREATE TABLE t1(c0 INT, c1 INT) INHERITS (t0);
             INSERT INTO t0(c0, c1) VALUES (0, 0);
             INSERT INTO t1(c0, c1) VALUES (0, 1);",
            "SELECT c0, c1 FROM t0 GROUP BY c0, c1",
        ),
    ];
    for (dialect, bugs, setup, query) in cases {
        let mut engine = Engine::with_bugs(*dialect, BugProfile::with(bugs));
        engine.execute_script(setup).unwrap();
        let q = match lancer_sql::parse_statement(query).unwrap() {
            Statement::Select(q) => q,
            other => panic!("not a query: {other:?}"),
        };
        let pipeline = engine.execute(&Statement::Select(q.clone()));
        let reference = engine.execute_query_reference(&q);
        assert_eq!(pipeline, reference, "diverged for {dialect:?} on {query}");
    }
}
