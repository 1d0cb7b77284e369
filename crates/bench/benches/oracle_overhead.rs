//! Oracle-cost benchmarks: the paper argues the AST interpreter can be
//! implemented naively because "the performance bottleneck was the DBMS
//! evaluating the queries, rather than SQLancer" (§3.4/§5).  These benches
//! measure the interpreter, the rectifier, the parser and the reducer in
//! isolation so that claim can be checked on this reproduction.

use criterion::{criterion_group, criterion_main, Criterion};
use lancer_core::oracle::ReproSpec;
use lancer_core::{
    rectify, reduce_hierarchical, reduce_indices, reduce_statements, reproduces, DifferentialJudge,
    Interpreter, PivotColumn, PivotRow, ReduceOptions, ReductionStats, ReplayCache, ReplaySession,
};
use lancer_engine::{BugId, BugProfile, Dialect};
use lancer_sql::ast::stmt::Statement;
use lancer_sql::collation::Collation;
use lancer_sql::parse_script;
use lancer_sql::parser::parse_expression;
use lancer_sql::value::Value;
use lancer_storage::schema::ColumnMeta;

fn pivot() -> PivotRow {
    PivotRow {
        columns: vec![PivotColumn {
            table: "t0".into(),
            meta: ColumnMeta {
                name: "c0".into(),
                type_name: None,
                collation: Collation::NoCase,
                not_null: false,
                primary_key: false,
                unique: false,
                default: None,
                check: None,
            },
            value: Value::Text("Ab".into()),
        }],
    }
}

fn bench_interpreter(c: &mut Criterion) {
    let interp = Interpreter::new(Dialect::Sqlite);
    let pivot = pivot();
    let expr = parse_expression(
        "NOT ((t0.c0 LIKE 'a%') AND (CASE WHEN t0.c0 IS NULL THEN 0 ELSE LENGTH(t0.c0) END BETWEEN 1 AND 10))",
    )
    .unwrap();
    c.bench_function("interpreter_eval", |b| {
        b.iter(|| std::hint::black_box(interp.eval_tribool(&expr, &pivot).unwrap()))
    });
    c.bench_function("rectify", |b| {
        b.iter(|| {
            let t = interp.eval_tribool(&expr, &pivot).unwrap();
            std::hint::black_box(rectify(expr.clone(), t))
        })
    });
}

fn bench_parser_roundtrip(c: &mut Criterion) {
    let script = "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID;\
                  CREATE INDEX i0 ON t0(c0 COLLATE NOCASE);\
                  INSERT INTO t0(c0) VALUES ('A'), ('a');\
                  SELECT DISTINCT * FROM t0 WHERE (t0.c0 IS NOT 1);";
    c.bench_function("parse_script", |b| {
        b.iter(|| std::hint::black_box(parse_script(script).unwrap().len()))
    });
}

fn bench_reducer(c: &mut Criterion) {
    let statements = parse_script(
        "CREATE TABLE t0(c0);
         CREATE TABLE t1(c0);
         INSERT INTO t0(c0) VALUES (1), (2), (3);
         INSERT INTO t1(c0) VALUES (4);
         ANALYZE;
         CREATE INDEX i0 ON t0(c0);
         UPDATE t0 SET c0 = 5;
         SELECT * FROM t0;",
    )
    .unwrap();
    c.bench_function("reduce_statements", |b| {
        b.iter(|| {
            let reduced = reduce_statements(&statements, &|candidate| {
                candidate.iter().any(|s| s.to_string().starts_with("SELECT"))
                    && candidate.iter().any(|s| s.to_string().starts_with("CREATE TABLE t0"))
            });
            std::hint::black_box(reduced.len())
        })
    });
}

/// A campaign-shaped reduction workload: one generated database's
/// statement log shared by several detections whose triggers expose the
/// Listing-1 partial-index fault — exactly what `Campaign::run` hands to
/// reduction and attribution after the workers join.
fn listing1_detections() -> (Vec<(Vec<Statement>, ReproSpec)>, BugProfile) {
    let mut sql = String::from(
        "CREATE TABLE t0(c0);
         CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
         CREATE TABLE t1(c0 INT, c1 TEXT);
         CREATE INDEX i1 ON t1(c0);
         CREATE TABLE t2(c0 INT);",
    );
    // Noise the reducer has to delete, mirroring a generated log.
    for i in 0..20 {
        sql.push_str(&format!("INSERT INTO t1(c0, c1) VALUES ({i}, 'x{i}');"));
    }
    for i in 0..8 {
        sql.push_str(&format!("INSERT INTO t2(c0) VALUES ({i});"));
    }
    sql.push_str("INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);");
    sql.push_str("ANALYZE t1; UPDATE t1 SET c1 = 'y' WHERE c0 = 3;");
    let log = parse_script(&sql).unwrap();
    let detections = ["IS NOT 1", "IS NOT 2", "IS NOT 3", "IS NOT 0"]
        .iter()
        .map(|cond| {
            let mut statements = log.clone();
            statements.push(
                lancer_sql::parse_statement(&format!("SELECT c0 FROM t0 WHERE t0.c0 {cond}"))
                    .unwrap(),
            );
            (statements, ReproSpec::MissingRow(vec![Value::Null]))
        })
        .collect();
    (detections, BugProfile::all_for(Dialect::Sqlite))
}

/// Reduction + attribution the way the runner did it before the replay
/// cache: every candidate replays its whole log on a fresh engine.
fn reduce_and_attribute_uncached(
    detections: &[(Vec<Statement>, ReproSpec)],
    profile: &BugProfile,
) -> usize {
    let none = BugProfile::none();
    let mut work = 0usize;
    for (statements, repro) in detections {
        if reproduces(Dialect::Sqlite, &none, statements, repro)
            || !reproduces(Dialect::Sqlite, profile, statements, repro)
        {
            continue;
        }
        let reduced = reduce_statements(statements, &|candidate| {
            reproduces(Dialect::Sqlite, profile, candidate, repro)
                && !reproduces(Dialect::Sqlite, &none, candidate, repro)
        });
        work += reduced.len();
        work += profile
            .iter()
            .filter(|bug| reproduces(Dialect::Sqlite, &BugProfile::with(&[*bug]), &reduced, repro))
            .count();
    }
    work
}

/// The same pipeline through the prefix-keyed [`ReplayCache`]: candidates
/// are index subsets, replays resume from memoized prefix snapshots, and
/// repeated questions short-circuit in the verdict memo.
fn reduce_and_attribute_cached(
    detections: &[(Vec<Statement>, ReproSpec)],
    profile: &BugProfile,
) -> usize {
    let none = BugProfile::none();
    let mut cache = ReplayCache::new(Dialect::Sqlite);
    let mut work = 0usize;
    for (statements, repro) in detections {
        let mut session = ReplaySession::new(&mut cache, "containment", statements);
        if session.reproduces_all(&none, repro) || !session.reproduces_all(profile, repro) {
            continue;
        }
        let reduced = reduce_indices(statements.len(), &mut |keep| {
            session.reproduces_subset(profile, keep, repro)
                && !session.reproduces_subset(&none, keep, repro)
        });
        work += reduced.len();
        work += profile
            .iter()
            .filter(|bug| session.reproduces_subset(&BugProfile::with(&[*bug]), &reduced, repro))
            .count();
    }
    work
}

/// The full hierarchical pipeline over the same workload: session units →
/// statement ddmin → expression shrinking, evaluated through a
/// [`DifferentialJudge`] sharing the prefix-keyed cache.  Returns the
/// same work measure as the other variants plus the reducer's phase
/// counters.
fn reduce_and_attribute_hierarchical(
    detections: &[(Vec<Statement>, ReproSpec)],
    profile: &BugProfile,
) -> (usize, ReductionStats) {
    let none = BugProfile::none();
    let mut cache = ReplayCache::new(Dialect::Sqlite);
    let mut work = 0usize;
    let mut totals = ReductionStats::default();
    let options = ReduceOptions::default();
    for (statements, repro) in detections {
        {
            let mut session = ReplaySession::new(&mut cache, "containment", statements);
            if session.reproduces_all(&none, repro) || !session.reproduces_all(profile, repro) {
                continue;
            }
        }
        let reduction = {
            let judge = DifferentialJudge::new(&mut cache, "containment", profile, repro);
            reduce_hierarchical(statements, &options, &judge)
        };
        totals.absorb(&reduction.stats);
        work += reduction.statements.len();
        let mut session = ReplaySession::new(&mut cache, "containment", &reduction.statements);
        work += profile
            .iter()
            .filter(|bug| session.reproduces_all(&BugProfile::with(&[*bug]), repro))
            .count();
    }
    (work, totals)
}

fn bench_reduction_attribution(c: &mut Criterion) {
    let (detections, profile) = listing1_detections();
    // Both paths must agree before their costs are worth comparing.
    let uncached = reduce_and_attribute_uncached(&detections, &profile);
    let cached = reduce_and_attribute_cached(&detections, &profile);
    assert_eq!(uncached, cached, "cached and uncached reduction must agree");
    assert!(uncached >= detections.len(), "every detection must reduce and attribute");
    assert!(
        profile.is_enabled(BugId::SqlitePartialIndexImpliesNotNull),
        "the Listing-1 fault must be in the profile"
    );
    // The expression pass must have judged (and shrunk) something the
    // statement-only pipeline could not.
    let (_, stats) = reduce_and_attribute_hierarchical(&detections, &profile);
    assert!(stats.expression_candidates > 0, "the expression pass must run: {stats:?}");
    assert!(stats.expr_nodes_after < stats.expr_nodes_after_statements, "{stats:?}");
    eprintln!(
        "reduction_attribution/hierarchical: {} candidates ({} session, {} statement, \
         {} expression), {} memo hits, statements {} -> {}, expr nodes {} -> {} -> {}",
        stats.candidates_evaluated(),
        stats.session_candidates,
        stats.statement_candidates,
        stats.expression_candidates,
        stats.memo_hits,
        stats.statements_before,
        stats.statements_after,
        stats.expr_nodes_before,
        stats.expr_nodes_after_statements,
        stats.expr_nodes_after,
    );

    let mut group = c.benchmark_group("reduction_attribution");
    group.sample_size(10);
    group.bench_function("whole_log_replays", |b| {
        b.iter(|| std::hint::black_box(reduce_and_attribute_uncached(&detections, &profile)))
    });
    group.bench_function("replay_cache", |b| {
        b.iter(|| std::hint::black_box(reduce_and_attribute_cached(&detections, &profile)))
    });
    group.bench_function("hierarchical", |b| {
        b.iter(|| std::hint::black_box(reduce_and_attribute_hierarchical(&detections, &profile).0))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_interpreter, bench_parser_roundtrip, bench_reducer, bench_reduction_attribution
}
criterion_main!(benches);
