//! Oracle-cost benchmarks: the paper argues the AST interpreter can be
//! implemented naively because "the performance bottleneck was the DBMS
//! evaluating the queries, rather than SQLancer" (§3.4/§5).  These benches
//! measure the interpreter, the rectifier and the parser in isolation so
//! that claim can be checked on this reproduction.  Reduction and replay
//! are measured over whole campaigns by the campaign benchmark
//! (`perfbench/`, its `reduce.*` and `replay.*` metrics), not here.

use criterion::{criterion_group, criterion_main, Criterion};
use lancer_core::{rectify, Interpreter, PivotColumn, PivotRow};
use lancer_engine::Dialect;
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_interpreter, bench_parser_roundtrip
}
criterion_main!(benches);
