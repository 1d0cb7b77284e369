//! Differential property suite for the NoREC rewrite: with all faults
//! off, `COUNT(rows WHERE p)` must equal `SUM(CASE WHEN p THEN 1 ELSE 0
//! END)` over the unfiltered `FROM` list — through the batched operator
//! *pipeline* and through the straight-line *reference* evaluator alike —
//! for random predicates over random generated catalogs.
//!
//! The suite is mutation-checked (mirroring
//! `tests/pipeline_differential.rs`): a deliberately broken rewrite that
//! mishandles ternary logic — the classic `COUNT(*) − SUM(CASE WHEN NOT p
//! ...)` mistake, which silently counts `NULL`-predicate rows as
//! satisfied — must be caught by the same property harness, proving the
//! suite has teeth.

use lancer_core::gen::{GenConfig, StateGenerator};
use lancer_core::oracle::norec::random_norec_select;
use lancer_core::{norec_rewrite, norec_sum};
use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::expr::AggFunc;
use lancer_sql::ast::stmt::{Query, Select, SelectItem, Statement};
use lancer_sql::ast::Expr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deliberately broken rewrite for the mutation check:
/// `SELECT COUNT(*) - SUM(CASE WHEN NOT p THEN 1 ELSE 0 END)`.  For a row
/// where `p` is `NULL`, `NOT p` is also `NULL`, so the row falls through
/// to `ELSE 0` — the subtraction then counts it as *satisfying* `p`,
/// which is exactly the ternary-logic mistake NoREC's real rewrite avoids.
fn broken_rewrite(select: &Select) -> Option<Select> {
    let correct = norec_rewrite(select)?;
    let predicate = select.where_clause.clone()?;
    let count_star = Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false };
    let not_sum = Expr::Aggregate {
        func: AggFunc::Sum,
        arg: Some(Box::new(Expr::case_when(predicate.not(), Expr::int(1), Expr::int(0)))),
        distinct: false,
    };
    Some(Select {
        items: vec![SelectItem::Expr {
            expr: Expr::binary(lancer_sql::ast::expr::BinaryOp::Sub, count_star, not_sum),
            alias: None,
        }],
        ..correct
    })
}

/// Runs `pairs` NoREC comparisons on a fresh fault-free database and
/// returns how many of them violated the count == sum property (after
/// first asserting that the pipeline and reference evaluators agree on
/// both halves of every pair).
fn count_violations(
    seed: u64,
    dialect: Dialect,
    rewriter: &dyn Fn(&Select) -> Option<Select>,
    pairs: usize,
) -> Result<usize, TestCaseError> {
    let gen = GenConfig::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::with_bugs(dialect, BugProfile::none());
    let mut generator = StateGenerator::new(dialect, gen.clone());
    let _ = generator.generate_database(&mut rng, &mut engine);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x4E0C_0DEC_5EED);
    let mut violations = 0usize;
    for _ in 0..pairs {
        let Some(optimized) = random_norec_select(&mut query_rng, &engine, &gen) else {
            return Ok(violations);
        };
        let Some(rewritten) = rewriter(&optimized) else { continue };
        let optimized_q = Query::Select(Box::new(optimized));
        let rewritten_q = Query::Select(Box::new(rewritten));

        // Both halves must agree between the two evaluators regardless of
        // the NoREC property itself.
        let pipeline_opt = engine.execute(&Statement::Select(optimized_q.clone()));
        let reference_opt = engine.execute_query_reference(&optimized_q);
        prop_assert_eq!(&pipeline_opt, &reference_opt, "optimized query diverged: {}", optimized_q);
        let pipeline_rw = engine.execute(&Statement::Select(rewritten_q.clone()));
        let reference_rw = engine.execute_query_reference(&rewritten_q);
        prop_assert_eq!(&pipeline_rw, &reference_rw, "rewrite diverged: {}", rewritten_q);

        let (Ok(opt_result), Ok(rw_result)) = (pipeline_opt, pipeline_rw) else { continue };
        let count = opt_result.rows.len() as i64;
        let Some(sum) = norec_sum(&rw_result) else { continue };
        if count != sum {
            violations += 1;
        }
    }
    Ok(violations)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The NoREC metamorphic property holds on fault-free engines, for
    /// every dialect, through both evaluators.
    #[test]
    fn norec_property_holds_without_faults(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let violations = count_violations(seed, dialect, &norec_rewrite, 8)?;
        prop_assert_eq!(violations, 0, "NoREC false positive on a correct {:?} engine", dialect);
    }
}

/// Mutation check: the property harness must catch the ternary-NULL
/// rewrite bug.  If this test ever starts failing, the suite above has
/// lost its power to detect broken rewrites.
#[test]
fn harness_catches_the_ternary_null_rewrite_bug() {
    let mut caught = 0usize;
    for seed in 0..24u64 {
        if let Ok(violations) = count_violations(seed, Dialect::Sqlite, &broken_rewrite, 8) {
            caught += violations;
        }
    }
    assert!(
        caught > 0,
        "the deliberately broken COUNT(*) - SUM(NOT p) rewrite must violate the property \
         somewhere in 24 seeded catalogs"
    );
}
