//! Ablation benchmarks for three design decisions of the paper:
//!
//! 1. rectification vs rejection sampling of non-TRUE conditions (§3.2),
//! 2. pivot-row containment vs whole-result checking (§3.1),
//! 3. the 10–30 row budget (§3.4) vs larger tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lancer_core::gen::random_expression;
use lancer_core::{rectify, ContainmentOracle, GenConfig, Interpreter, StateGenerator};
use lancer_engine::{Dialect, Engine};
use lancer_sql::value::TriBool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ablation 1: rectification accepts every generated expression, rejection
/// sampling discards the ones that are not already TRUE.
fn bench_rectify_vs_reject(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rectify_vs_reject");
    let dialect = Dialect::Sqlite;
    let mut rng = StdRng::seed_from_u64(3);
    let mut engine = Engine::new(dialect);
    let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
    let _ = generator.generate_database(&mut rng, &mut engine);
    let oracle = ContainmentOracle::new(dialect, GenConfig::tiny());
    let interp = Interpreter::new(dialect);

    group.bench_function("rectification", |b| {
        b.iter(|| {
            let (_, pivot) = oracle.select_pivot(&mut rng, &engine).expect("non-empty database");
            let cols: Vec<_> = pivot
                .columns
                .iter()
                .map(|c| lancer_core::VisibleColumn {
                    table: c.table.clone(),
                    meta: c.meta.clone(),
                })
                .collect();
            loop {
                let e = random_expression(&mut rng, &cols, dialect, 0);
                if let Ok(t) = interp.eval_tribool(&e, &pivot) {
                    return std::hint::black_box(rectify(e, t));
                }
            }
        })
    });
    group.bench_function("rejection_sampling", |b| {
        b.iter(|| {
            let (_, pivot) = oracle.select_pivot(&mut rng, &engine).expect("non-empty database");
            let cols: Vec<_> = pivot
                .columns
                .iter()
                .map(|c| lancer_core::VisibleColumn {
                    table: c.table.clone(),
                    meta: c.meta.clone(),
                })
                .collect();
            loop {
                let e = random_expression(&mut rng, &cols, dialect, 0);
                if interp.eval_tribool(&e, &pivot) == Ok(TriBool::True) {
                    return std::hint::black_box(e);
                }
            }
        })
    });
    group.finish();
}

/// Ablation 3: the row-count budget.  Larger tables make cross joins and
/// scans quadratically more expensive, which is why the paper restricts
/// tables to 10–30 rows.
fn bench_row_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_row_budget");
    for rows in [10usize, 30, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let mut engine = Engine::new(Dialect::Sqlite);
            engine.execute_sql("CREATE TABLE t0(c0 INT)").unwrap();
            engine.execute_sql("CREATE TABLE t1(c0 INT)").unwrap();
            for i in 0..rows {
                engine.execute_sql(&format!("INSERT INTO t0(c0) VALUES ({i})")).unwrap();
                engine.execute_sql(&format!("INSERT INTO t1(c0) VALUES ({i})")).unwrap();
            }
            b.iter(|| {
                std::hint::black_box(
                    engine
                        .execute_sql("SELECT * FROM t0, t1 WHERE t0.c0 >= t1.c0")
                        .unwrap()
                        .rows
                        .len(),
                )
            });
        });
    }
    group.finish();
}

/// Ablation 2: checking one pivot row vs checking the whole result set
/// (possible here because the engine is small): the whole-result check needs
/// the oracle to recompute every row, the pivot check only one.
fn bench_pivot_vs_whole_result(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pivot_vs_whole_result");
    let mut engine = Engine::new(Dialect::Sqlite);
    engine.execute_sql("CREATE TABLE t0(c0 INT, c1 TEXT)").unwrap();
    for i in 0..30 {
        engine.execute_sql(&format!("INSERT INTO t0(c0, c1) VALUES ({i}, 'v{i}')")).unwrap();
    }
    group.bench_function("pivot_row_check", |b| {
        b.iter(|| {
            let r = engine.execute_sql("SELECT c0, c1 FROM t0 WHERE c0 >= 0").unwrap();
            std::hint::black_box(r.contains_row(&[
                lancer_sql::Value::Integer(7),
                lancer_sql::Value::Text("v7".into()),
            ]))
        })
    });
    group.bench_function("whole_result_check", |b| {
        b.iter(|| {
            let r = engine.execute_sql("SELECT c0, c1 FROM t0 WHERE c0 >= 0").unwrap();
            // Recompute the expected full result client-side and compare.
            let expected: Vec<Vec<lancer_sql::Value>> = (0..30)
                .map(|i| {
                    vec![lancer_sql::Value::Integer(i), lancer_sql::Value::Text(format!("v{i}"))]
                })
                .collect();
            std::hint::black_box(expected.iter().all(|row| r.contains_row(row)))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rectify_vs_reject, bench_row_budget, bench_pivot_vs_whole_result
}
criterion_main!(benches);
