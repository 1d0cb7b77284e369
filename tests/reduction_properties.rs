//! Metamorphic properties of the hierarchical reducer.
//!
//! Detections are synthesized organically: a random generated database is
//! replayed on a fault-free and a fully-faulted engine, and the first
//! probe query whose results diverge becomes a containment detection
//! (`ReproSpec::MissingRow` of a row the faulty engine drops).  Each
//! property then reduces that detection exactly the way the campaign
//! runner does — through a [`DifferentialJudge`] over a [`ReplayCache`] —
//! and checks an invariant the reduction must preserve:
//!
//! (a) the reduced repro still reproduces the same verdict (fails under
//!     the fault profile, passes fault-free),
//! (b) the reduced script keeps transactions well-formed,
//! (c) the hierarchical output is never larger than the statement-only
//!     reducer's output, in statements or in expression nodes.
//!
//! A mutation check closes the loop: hand-injecting the classic reducer
//! bug — applying an expression shrink *without* re-verifying — must be
//! caught by the same verdict check the properties use.

use lancer_core::gen::{GenConfig, StateGenerator};
use lancer_core::qpg::random_probe_query;
use lancer_core::{
    reduce_hierarchical, reproduces, transactions_well_formed, DifferentialJudge, FnJudge,
    ReduceOptions, ReplayCache, ReproSpec,
};
use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::{shrink_statement, statement_expr_nodes, Statement};
use lancer_sql::parser::parse_script;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replays a generated database on a clean and a fully-faulted engine and
/// returns the first probe query whose result sets diverge, packaged as a
/// containment detection: the statement log (generation + trigger), the
/// fault profile, and the `MissingRow` repro spec.
fn synthesize_detection(
    seed: u64,
    dialect: Dialect,
) -> Option<(Vec<Statement>, BugProfile, ReproSpec)> {
    let gen = GenConfig::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clean = Engine::new(dialect);
    let (log, _) =
        StateGenerator::new(dialect, gen.clone()).generate_database(&mut rng, &mut clean);
    let profile = BugProfile::all_for(dialect);
    let mut faulty = Engine::with_bugs(dialect, profile);
    for stmt in &log {
        let _ = faulty.execute(stmt);
    }
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x0BAD_5EED);
    for _ in 0..24 {
        let q = random_probe_query(&mut query_rng, &clean, &gen)?;
        let trigger = Statement::Select(q);
        let (Ok(expected), Ok(actual)) = (clean.execute(&trigger), faulty.execute(&trigger)) else {
            continue;
        };
        let Some(missing) = expected.rows.iter().find(|row| !actual.contains_row(row)) else {
            continue;
        };
        let repro = ReproSpec::MissingRow(missing.clone());
        let mut statements = log.clone();
        statements.push(trigger);
        // The detection must be differential to be reducible at all —
        // mirror the runner's spurious/flaky gates.
        if reproduces(dialect, &profile, &statements, &repro)
            && !reproduces(dialect, &BugProfile::none(), &statements, &repro)
        {
            return Some((statements, profile, repro));
        }
    }
    None
}

/// Reduces a synthesized detection the way the campaign runner does.
fn reduce_detection(
    statements: &[Statement],
    profile: &BugProfile,
    repro: &ReproSpec,
    dialect: Dialect,
    options: &ReduceOptions,
) -> Vec<Statement> {
    let mut cache = ReplayCache::new(dialect);
    let judge = DifferentialJudge::new(&mut cache, "containment", profile, repro);
    reduce_hierarchical(statements, options, &judge).statements
}

/// Property (a)'s check, shared with the mutation test below: a reduced
/// repro must keep the detection's verdict — still failing under the
/// fault profile, still passing fault-free.
fn verdict_preserved(
    dialect: Dialect,
    profile: &BugProfile,
    statements: &[Statement],
    repro: &ReproSpec,
) -> bool {
    reproduces(dialect, profile, statements, repro)
        && !reproduces(dialect, &BugProfile::none(), statements, repro)
}

fn total_expr_nodes(statements: &[Statement]) -> usize {
    statements.iter().map(statement_expr_nodes).sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (a) The hierarchical reduction reproduces the same verdict as the
    /// detection it started from.
    #[test]
    fn reduced_repro_keeps_the_verdict(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let Some((statements, profile, repro)) = synthesize_detection(seed, dialect) else {
            return Ok(());
        };
        let reduced =
            reduce_detection(&statements, &profile, &repro, dialect, &ReduceOptions::default());
        prop_assert!(
            verdict_preserved(dialect, &profile, &reduced, &repro),
            "{dialect:?}: reduction lost the verdict: {reduced:?}"
        );
    }

    /// (b) Reduction preserves transaction well-formedness.
    #[test]
    fn reduced_repro_stays_well_formed(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let Some((statements, profile, repro)) = synthesize_detection(seed, dialect) else {
            return Ok(());
        };
        let reduced =
            reduce_detection(&statements, &profile, &repro, dialect, &ReduceOptions::default());
        prop_assert!(transactions_well_formed(&reduced));
    }

    /// (c) The hierarchical reducer never produces a larger repro than the
    /// statement-only reducer, in statements or in expression nodes.
    #[test]
    fn hierarchical_never_larger_than_statement_only(
        seed in any::<u64>(),
        dialect_idx in 0usize..4,
    ) {
        let dialect = Dialect::ALL[dialect_idx];
        let Some((statements, profile, repro)) = synthesize_detection(seed, dialect) else {
            return Ok(());
        };
        let hier =
            reduce_detection(&statements, &profile, &repro, dialect, &ReduceOptions::default());
        let stmt_only = reduce_detection(
            &statements,
            &profile,
            &repro,
            dialect,
            &ReduceOptions::statement_only(),
        );
        prop_assert!(hier.len() <= stmt_only.len(), "{hier:?} vs {stmt_only:?}");
        prop_assert!(
            total_expr_nodes(&hier) <= total_expr_nodes(&stmt_only),
            "{hier:?} vs {stmt_only:?}"
        );
    }
}

/// Mutation check on an engine-backed detection: a reducer that applies
/// an expression shrink without re-verifying breaks property (a) on some
/// seed, and the shared `verdict_preserved` check catches it.  If every
/// unverified shrink were still a valid repro across all these seeds, the
/// metamorphic suite would have no teeth.
#[test]
fn verdict_check_catches_an_unverified_expression_shrink() {
    let mut caught = false;
    'seeds: for seed in 0..48u64 {
        let Some((statements, profile, repro)) = synthesize_detection(seed, Dialect::Sqlite) else {
            continue;
        };
        let reduced = reduce_detection(
            &statements,
            &profile,
            &repro,
            Dialect::Sqlite,
            &ReduceOptions::default(),
        );
        assert!(verdict_preserved(Dialect::Sqlite, &profile, &reduced, &repro));
        // The injected reducer bug: take any statement that still has
        // shrink candidates and install one *without* consulting the
        // judge.
        for (p, stmt) in reduced.iter().enumerate() {
            for shrunk in shrink_statement(stmt) {
                let mut broken = reduced.clone();
                broken[p] = shrunk;
                if !verdict_preserved(Dialect::Sqlite, &profile, &broken, &repro) {
                    caught = true;
                    break 'seeds;
                }
            }
        }
    }
    assert!(caught, "no unverified shrink ever broke a verdict — the mutation check is inert");
}

/// The same mutation, pinned deterministically: on a handcrafted log
/// whose judge needs `t0.c0 = 1` in the trigger, the hierarchical
/// reduction satisfies the judge, and *every* further unverified shrink
/// of its trigger violates it — so a reducer that skips re-verification
/// cannot slip through the metamorphic checks.
#[test]
fn every_unverified_shrink_of_the_pinned_trigger_is_caught() {
    let stmts = parse_script(
        "CREATE TABLE t0(c0, c1);
         INSERT INTO t0(c0, c1) VALUES (1, 2);
         SELECT t0.c0, t0.c1 FROM t0 WHERE t0.c0 = 1 AND t0.c1 = 2;",
    )
    .unwrap();
    let passes = |candidate: &[Statement]| {
        let sql: Vec<String> = candidate.iter().map(ToString::to_string).collect();
        sql.iter().any(|s| s.starts_with("CREATE TABLE t0"))
            && sql.iter().any(|s| s.starts_with("SELECT") && s.contains("t0.c0 = 1"))
    };
    let judge = FnJudge(|candidate: &[&Statement]| {
        let owned: Vec<Statement> = candidate.iter().map(|&s| s.clone()).collect();
        passes(&owned)
    });
    let reduced = reduce_hierarchical(&stmts, &ReduceOptions::default(), &judge).statements;
    assert!(passes(&reduced), "the honest reduction must satisfy the judge");
    let trigger = reduced
        .iter()
        .position(|s| s.to_string().starts_with("SELECT"))
        .expect("a SELECT survives");
    let shrinks = shrink_statement(&reduced[trigger]);
    assert!(!shrinks.is_empty(), "the fully-shrunk trigger still offers shrink candidates");
    for shrunk in shrinks {
        let mut broken = reduced.clone();
        broken[trigger] = shrunk;
        assert!(
            !passes(&broken),
            "an unverified shrink slipped past the check: {:?}",
            broken[trigger].to_string()
        );
    }
}
