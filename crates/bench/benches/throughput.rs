//! Throughput benchmarks (§3.4): SQLancer generates 5,000–20,000 statements
//! per second depending on the DBMS under test; the bottleneck is the DBMS
//! evaluating the queries, not the tester.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lancer_core::oracle::ReproSpec;
use lancer_core::{
    reduce_hierarchical, ContainmentOracle, DifferentialJudge, GenConfig, NorecOracle,
    ReduceOptions, ReplayCache, SerializabilityOracle, StateGenerator,
};
use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::parse_script;
use lancer_sql::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_state_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_generation");
    for dialect in Dialect::ALL {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(dialect.name()), &dialect, |b, &d| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let mut engine = Engine::new(d);
                let mut generator = StateGenerator::new(d, GenConfig::tiny());
                let (log, _) = generator.generate_database(&mut rng, &mut engine);
                std::hint::black_box(log.len())
            });
        });
    }
    group.finish();
}

fn bench_containment_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("containment_check");
    for dialect in Dialect::ALL {
        // Prepare a database once; measure the per-check cost (pivot
        // selection + expression generation + interpretation + query
        // execution), which dominates campaign throughput.
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = Engine::with_bugs(dialect, BugProfile::all_for(dialect));
        let mut generator = StateGenerator::new(dialect, GenConfig::default());
        let _ = generator.generate_database(&mut rng, &mut engine);
        let oracle = ContainmentOracle::new(dialect, GenConfig::default());
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(dialect.name()), &dialect, |b, _| {
            b.iter(|| std::hint::black_box(oracle.check_once(&mut rng, &mut engine)));
        });
    }
    group.finish();
}

fn bench_norec_checks(c: &mut Criterion) {
    // Per-check cost of the NoREC oracle (plan both sides + execute the
    // optimized query and its SUM(CASE ...) rewrite).  The summary JSON
    // CI uploads therefore carries NoREC check counts/rates next to the
    // containment ones, so a rewrite- or planner-level regression shows
    // up in the BENCH_throughput.json trend.
    let mut group = c.benchmark_group("norec_check");
    for dialect in Dialect::ALL {
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = Engine::with_bugs(dialect, BugProfile::all_for(dialect));
        let mut generator = StateGenerator::new(dialect, GenConfig::default());
        let _ = generator.generate_database(&mut rng, &mut engine);
        let oracle = NorecOracle::new(dialect, GenConfig::default());
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(dialect.name()), &dialect, |b, _| {
            b.iter(|| std::hint::black_box(oracle.check_once(&mut rng, &mut engine)));
        });
    }
    group.finish();
}

fn bench_txn_checks(c: &mut Criterion) {
    // Per-episode cost of the serializability oracle: decompose a
    // multi-session log into committed units, then replay the committed
    // permutations against fresh engines and compare state digests.  The
    // log (database + one interleaved transaction episode) is prepared
    // once per dialect so the measurement isolates the check itself.
    let mut group = c.benchmark_group("txn_check");
    for dialect in Dialect::ALL {
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = Engine::with_bugs(dialect, BugProfile::all_for(dialect));
        let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
        let (mut log, _) = generator.generate_database(&mut rng, &mut engine);
        let (episode, _) = generator.generate_txn_episode(&mut rng, &mut engine);
        log.extend(episode);
        let oracle = SerializabilityOracle::new(dialect, GenConfig::tiny());
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(dialect.name()), &dialect, |b, _| {
            b.iter(|| std::hint::black_box(oracle.check_log(&engine, &log)));
        });
    }
    group.finish();
}

fn bench_statement_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("statements_per_second");
    for dialect in Dialect::ALL {
        group.throughput(Throughput::Elements(3));
        group.bench_with_input(BenchmarkId::from_parameter(dialect.name()), &dialect, |b, &d| {
            let mut engine = Engine::new(d);
            engine.execute_sql("CREATE TABLE t0(c0 INT, c1 TEXT)").unwrap();
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                engine.execute_sql(&format!("INSERT INTO t0(c0, c1) VALUES ({i}, 'x')")).unwrap();
                engine.execute_sql("SELECT * FROM t0 WHERE c0 = 1").unwrap();
                engine.execute_sql(&format!("DELETE FROM t0 WHERE c0 = {i}")).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_reduction_hier(c: &mut Criterion) {
    // Reductions per second for the hierarchical reducer on a
    // campaign-shaped detection (a Listing-1 partial-index repro buried
    // in generated-log noise), at the reducer's two operating points:
    // the PR-4 statement-only baseline and the full hierarchical
    // pipeline.
    let mut sql = String::from(
        "CREATE TABLE t0(c0);
         CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
         CREATE TABLE t1(c0 INT, c1 TEXT);",
    );
    for i in 0..16 {
        sql.push_str(&format!("INSERT INTO t1(c0, c1) VALUES ({i}, 'x{i}');"));
    }
    sql.push_str(
        "INSERT INTO t0(c0) VALUES (0), (1), (NULL);
         SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1 AND t0.c0 IS NOT 2;",
    );
    let statements = parse_script(&sql).unwrap();
    let repro = ReproSpec::MissingRow(vec![Value::Null]);
    let profile = BugProfile::all_for(Dialect::Sqlite);
    let mut group = c.benchmark_group("reduction_hier");
    group.sample_size(10);
    for (label, options) in [
        ("statement_only", ReduceOptions::statement_only()),
        ("hierarchical", ReduceOptions::default()),
    ] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(label), &options, |b, options| {
            b.iter(|| {
                let mut cache = ReplayCache::new(Dialect::Sqlite);
                let judge = DifferentialJudge::new(&mut cache, "containment", &profile, &repro);
                let reduction = reduce_hierarchical(&statements, options, &judge);
                std::hint::black_box(reduction.statements.len())
            });
        });
    }
    group.finish();
}

fn bench_replay_resume(c: &mut Criterion) {
    // Replays per second when the replay cache resumes from a cached
    // prefix snapshot — the candidate-evaluation hot path of reduction
    // and attribution.  The generated database is deliberately larger
    // than the unit-test configs (reduction earns its keep on big logs),
    // and the trigger is a cheap filtered probe, so the measurement is
    // dominated by the resume itself: clone the snapshot, execute the
    // trigger, judge it.  The cache is pre-walked until the deepest
    // setup prefix has a snapshot; each iteration then asks about a
    // repro it has never seen (a fresh MissingRow), so the verdict memo
    // misses and the resume really runs.
    let gen = GenConfig { min_rows: 150, max_rows: 250, ..GenConfig::default() };
    let mut group = c.benchmark_group("replay_resume");
    for dialect in Dialect::ALL {
        let mut rng = StdRng::seed_from_u64(4);
        let profile = BugProfile::all_for(dialect);
        let mut engine = Engine::with_bugs(dialect, profile.clone());
        let mut generator = StateGenerator::new(dialect, gen.clone());
        let (mut log, _) = generator.generate_database(&mut rng, &mut engine);
        let table = engine.database().table_names().into_iter().next().expect("generated table");
        log.extend(parse_script(&format!("SELECT * FROM {table} WHERE 1 = 2")).unwrap());
        let mut cache = ReplayCache::new(dialect);
        // Bind the log once (statements hashed once), the way the
        // reducer does, and pre-walk: the first walk marks the prefix,
        // the second snapshots it, the third confirms the resume path
        // is warm.
        let mut session = lancer_core::ReplaySession::new(&mut cache, "containment", &log);
        for _ in 0..3 {
            let _ =
                session.reproduces_all(&profile, &ReproSpec::MissingRow(vec![Value::Integer(-1)]));
        }
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(dialect.name()), &dialect, |b, _| {
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                let repro = ReproSpec::MissingRow(vec![Value::Integer(10_000 + i)]);
                std::hint::black_box(session.reproduces_all(&profile, &repro))
            });
        });
    }
    group.finish();
}

fn bench_readonly_query(c: &mut Criterion) {
    // The expression-pass hot path: judging one read-only candidate
    // against a fixed database state.  `clone_execute` is the PR-9
    // baseline — CoW-clone the snapshot, then run the candidate through
    // the mutable path; `shared_query` is the read path — ask the shared
    // `Arc<Engine>` snapshot directly, zero per-candidate engine state.
    let gen = GenConfig { min_rows: 150, max_rows: 250, ..GenConfig::default() };
    let mut group = c.benchmark_group("readonly_query");
    for dialect in Dialect::ALL {
        let mut rng = StdRng::seed_from_u64(4);
        let profile = BugProfile::all_for(dialect);
        let mut engine = Engine::with_bugs(dialect, profile);
        let mut generator = StateGenerator::new(dialect, gen.clone());
        let _ = generator.generate_database(&mut rng, &mut engine);
        let table = engine.database().table_names().into_iter().next().expect("generated table");
        let trigger = lancer_sql::parse_statement(&format!("SELECT * FROM {table} WHERE 1 = 2"))
            .expect("trigger parses");
        let ordinal = engine.statements_executed();
        let snapshot = std::sync::Arc::new(engine);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(
            BenchmarkId::new("clone_execute", dialect.name()),
            &dialect,
            |b, _| {
                b.iter(|| {
                    let mut e = (*snapshot).clone();
                    std::hint::black_box(e.execute(&trigger).map(|r| r.rows.len()))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("shared_query", dialect.name()),
            &dialect,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(snapshot.query(ordinal, &trigger).map(|r| r.rows.len()))
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_state_generation, bench_containment_checks, bench_norec_checks,
        bench_txn_checks, bench_statement_execution, bench_reduction_hier, bench_replay_resume,
        bench_readonly_query
}
criterion_main!(benches);
