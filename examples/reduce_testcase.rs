//! Demonstrate automatic test-case reduction (§4.1): start from a long
//! statement log that exposes the skip-scan/DISTINCT fault (Listing 6
//! family) and shrink it to the handful of statements the paper would put in
//! a bug report — first with plain statement-level delta debugging, then
//! with the full hierarchical reducer, whose expression pass also strips
//! the query's redundant predicate.
//!
//! ```sh
//! cargo run --example reduce_testcase
//! ```

use lancer_core::{
    reduce_hierarchical, runner::reproduces, DifferentialJudge, FnJudge, ReduceOptions,
    ReplayCache, ReproSpec,
};
use lancer_engine::{BugId, BugProfile, Dialect};
use lancer_sql::parse_script;
use lancer_sql::value::Value;

fn main() {
    // A deliberately noisy reproduction script: only a few statements are
    // actually needed to trigger the fault, and the trigger query itself
    // carries a WHERE clause that has nothing to do with it.
    let script = "
        CREATE TABLE t1 (c1, c2, c3, c4, PRIMARY KEY (c4, c3));
        CREATE TABLE noise0(c0 INT);
        INSERT INTO noise0(c0) VALUES (1), (2), (3);
        CREATE INDEX noise_idx ON noise0(c0);
        INSERT INTO t1(c3, c4) VALUES (0, 1), (1, 2), (0, 3);
        UPDATE noise0 SET c0 = 9;
        ANALYZE t1;
        DELETE FROM noise0 WHERE c0 = 9;
        SELECT DISTINCT c3, c4 FROM t1 WHERE c3 < 10 AND c4 IS NOT NULL;
    ";
    let statements = parse_script(script).expect("script parses");
    let profile = BugProfile::with(&[BugId::SqliteSkipScanDistinct]);
    // The pivot row (c3, c4) = (0, 3) must appear in the DISTINCT result; the
    // skip-scan fault dedupes on the first column only and drops it.
    let expected = vec![Value::Integer(0), Value::Integer(3)];

    // The reduction criterion is differential, exactly as in the campaign
    // runner: the candidate must miss the pivot row with the fault enabled
    // AND fetch it on the fault-free engine (otherwise the reducer could
    // simply drop the INSERT that creates the pivot row).
    let repro = ReproSpec::MissingRow(expected);
    let fails = |candidate: &[lancer_sql::Statement]| {
        reproduces(Dialect::Sqlite, &profile, candidate, &repro)
            && !reproduces(Dialect::Sqlite, &BugProfile::none(), candidate, &repro)
    };
    assert!(fails(&statements), "the full script must reproduce the fault");

    // Stage one: statement-level delta debugging alone, each candidate
    // replayed from scratch on fresh engines.
    let judge = FnJudge(|candidate: &[&lancer_sql::Statement]| {
        fails(&candidate.iter().map(|&s| s.clone()).collect::<Vec<_>>())
    });
    let reduced =
        reduce_hierarchical(&statements, &ReduceOptions::statement_only(), &judge).statements;
    println!("original test case: {} statements", statements.len());
    println!("statement-level ddmin: {} statements", reduced.len());
    assert!(reduced.len() < statements.len());

    // The hierarchical reducer runs the same ddmin through the replay
    // cache and then shrinks the surviving statements in place; its
    // expression pass discovers that the WHERE clause is irrelevant to
    // the fault and drops it, re-verifying the repro after every rewrite.
    let mut cache = ReplayCache::new(Dialect::Sqlite);
    let reduction = {
        let judge = DifferentialJudge::new(&mut cache, "containment", &profile, &repro);
        reduce_hierarchical(&statements, &ReduceOptions::default(), &judge)
    };
    println!(
        "hierarchical: {} statements, expression nodes {} -> {} ({} candidates judged)",
        reduction.statements.len(),
        reduction.stats.expr_nodes_after_statements,
        reduction.stats.expr_nodes_after,
        reduction.stats.candidates_evaluated(),
    );
    println!("\n-- reduced reproduction (what the bug report would contain) --");
    for stmt in &reduction.statements {
        println!("{stmt};");
    }
    println!("-- expected: row (0, 3) is fetched; actual: it is missing --");
    assert!(reduction.statements.len() <= reduced.len());
    assert!(
        reduction.stats.expr_nodes_after < reduction.stats.expr_nodes_after_statements,
        "the expression pass must strip the redundant predicate"
    );
    assert!(fails(&reduction.statements), "the shrunk script still reproduces the fault");
}
