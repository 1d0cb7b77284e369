//! Property-based tests over the whole stack.
//!
//! The central invariant of PQS is that, with **no injected faults**, the
//! engine and the ground-truth interpreter agree on expression semantics and
//! the containment oracle never fires.  These properties are what make a
//! campaign's findings attributable to injected faults rather than to
//! oracle divergence.

use lancer_core::gen::{random_expression, random_value, GenConfig, StateGenerator, VisibleColumn};
use lancer_core::{rectify, ContainmentOracle, Interpreter, PivotColumn, PivotRow, ReproSpec};
use lancer_engine::{BugProfile, Dialect, Engine, Evaluator, RowSchema, SourceSchema};
use lancer_sql::ast::expr::BinaryOp;
use lancer_sql::ast::stmt::ColumnDef;
use lancer_sql::ast::Expr;
use lancer_sql::parser::{parse_expression, parse_statement};
use lancer_sql::value::{TriBool, Value};
use lancer_storage::schema::ColumnMeta;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a pivot row + matching engine row schema with three columns of
/// random values.
fn fixture(values: &[Value; 3]) -> (PivotRow, RowSchema, Vec<Value>) {
    let metas: Vec<ColumnMeta> =
        (0..3).map(|i| ColumnMeta::from_def(&ColumnDef::new(format!("c{i}"), None))).collect();
    let pivot = PivotRow {
        columns: metas
            .iter()
            .zip(values.iter())
            .map(|(m, v)| PivotColumn { table: "t0".into(), meta: m.clone(), value: v.clone() })
            .collect(),
    };
    let schema = RowSchema::single(SourceSchema { name: "t0".into(), columns: metas });
    (pivot, schema, values.to_vec())
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        (-1000.0f64..1000.0).prop_map(Value::Real),
        "[a-zA-Z ./]{0,6}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..4).prop_map(Value::Blob),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// The engine's evaluator and the PQS interpreter agree on every random
    /// expression for every dialect when no faults are enabled.
    #[test]
    fn interpreter_matches_engine_evaluator(
        seed in any::<u64>(),
        v0 in value_strategy(),
        v1 in value_strategy(),
        v2 in value_strategy(),
    ) {
        let values = [v0, v1, v2];
        let (pivot, schema, row) = fixture(&values);
        let columns: Vec<VisibleColumn> = pivot
            .columns
            .iter()
            .map(|c| VisibleColumn { table: c.table.clone(), meta: c.meta.clone() })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for dialect in Dialect::ALL {
            let expr = random_expression(&mut rng, &columns, dialect, 0);
            let bugs = BugProfile::none();
            let engine_eval = Evaluator::new(dialect, &bugs);
            let interp = Interpreter::new(dialect);
            let engine_result = engine_eval.eval(&expr, &schema, row.as_slice());
            let interp_result = interp.eval(&expr, &pivot);
            match (engine_result, interp_result) {
                (Ok(a), Ok(b)) => prop_assert!(
                    a.same_as(&b) || (a.is_null() && b.is_null()),
                    "{dialect:?}: engine={a:?} interp={b:?} for {expr}"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "{dialect:?}: divergent outcome for {expr}: engine={a:?} interp={b:?}"),
            }
        }
    }

    /// Rectified expressions always evaluate to TRUE on the pivot row
    /// (Algorithm 3's postcondition).
    #[test]
    fn rectified_expressions_are_true(
        seed in any::<u64>(),
        v0 in value_strategy(),
        v1 in value_strategy(),
        v2 in value_strategy(),
    ) {
        let values = [v0, v1, v2];
        let (pivot, _, _) = fixture(&values);
        let columns: Vec<VisibleColumn> = pivot
            .columns
            .iter()
            .map(|c| VisibleColumn { table: c.table.clone(), meta: c.meta.clone() })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let interp = Interpreter::new(Dialect::Sqlite);
        let expr = random_expression(&mut rng, &columns, Dialect::Sqlite, 0);
        if let Ok(truth) = interp.eval_tribool(&expr, &pivot) {
            let rectified = rectify(expr, truth);
            prop_assert_eq!(interp.eval_tribool(&rectified, &pivot).unwrap(), TriBool::True);
        }
    }

    /// Algorithm 3's postcondition holds for every `TriBool` input: given a
    /// random expression, derive variants that evaluate to `TRUE`, `FALSE`
    /// and `UNKNOWN` on the pivot row, and assert each rectifies to `TRUE`.
    #[test]
    fn rectification_is_true_for_all_three_tribool_inputs(
        seed in any::<u64>(),
        v0 in value_strategy(),
        v1 in value_strategy(),
        v2 in value_strategy(),
    ) {
        let values = [v0, v1, v2];
        let (pivot, _, _) = fixture(&values);
        let columns: Vec<VisibleColumn> = pivot
            .columns
            .iter()
            .map(|c| VisibleColumn { table: c.table.clone(), meta: c.meta.clone() })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let interp = Interpreter::new(Dialect::Sqlite);
        let expr = random_expression(&mut rng, &columns, Dialect::Sqlite, 0);
        let Ok(truth) = interp.eval_tribool(&expr, &pivot) else { return Ok(()) };
        // A TRUE variant (rectification of the original), a FALSE variant
        // (its negation), and an UNKNOWN variant (TRUE AND NULL = NULL).
        let e_true = rectify(expr, truth);
        let e_false = e_true.clone().not();
        let e_unknown =
            Expr::binary(BinaryOp::And, e_true.clone(), Expr::Literal(Value::Null));
        for (variant, expected_truth) in [
            (e_true, TriBool::True),
            (e_false, TriBool::False),
            (e_unknown, TriBool::Unknown),
        ] {
            prop_assert_eq!(
                interp.eval_tribool(&variant, &pivot).unwrap(),
                expected_truth,
                "variant construction must hit the intended TriBool"
            );
            let rectified = rectify(variant, expected_truth);
            prop_assert_eq!(
                interp.eval_tribool(&rectified, &pivot).unwrap(),
                TriBool::True,
                "rectify must yield TRUE for input truth {:?}",
                expected_truth
            );
        }
    }

    /// Random literal values render to SQL that parses back to the same
    /// value, across the whole stack (generator → renderer → parser →
    /// engine).
    #[test]
    fn value_literals_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dialect in Dialect::ALL {
            let v = random_value(&mut rng, dialect);
            let sql = format!("SELECT {}", Expr::Literal(v.clone()));
            let stmt = parse_statement(&sql).unwrap();
            let mut engine = Engine::new(dialect);
            let result = engine.execute(&stmt).unwrap();
            prop_assert!(result.rows[0][0].same_as(&v), "{dialect:?}: {sql} returned {:?}", result.rows[0][0]);
        }
    }

    /// Expression rendering round-trips through the parser: after one
    /// normalisation pass (the parser folds signs into numeric literals),
    /// render → parse → render is a fixed point, and the normalised
    /// expression is semantically identical to the original.
    #[test]
    fn expressions_round_trip_through_parser(
        seed in any::<u64>(),
        v0 in value_strategy(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns = vec![VisibleColumn {
            table: "t0".into(),
            meta: ColumnMeta::from_def(&ColumnDef::new("c0", None)),
        }];
        let (pivot, _, _) = fixture(&[v0, Value::Null, Value::Null]);
        for dialect in Dialect::ALL {
            let expr = random_expression(&mut rng, &columns, dialect, 0);
            let rendered = expr.to_string();
            let reparsed = parse_expression(&rendered);
            prop_assert!(reparsed.is_ok(), "failed to reparse {rendered}");
            let reparsed = reparsed.unwrap();
            // Normalisation fixed point.
            let normalised = reparsed.to_string();
            let reparsed_again = parse_expression(&normalised);
            prop_assert!(reparsed_again.is_ok(), "failed to reparse normalised {normalised}");
            prop_assert_eq!(reparsed_again.unwrap().to_string(), normalised.clone());
            // Semantic equivalence of the original and the normalised AST.
            let interp = Interpreter::new(dialect);
            match (interp.eval(&expr, &pivot), interp.eval(&reparsed, &pivot)) {
                (Ok(a), Ok(b)) => prop_assert!(
                    a.same_as(&b) || (a.is_null() && b.is_null()),
                    "{dialect:?}: {rendered} vs {normalised}: {a:?} != {b:?}"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "{dialect:?}: divergent outcome: {a:?} vs {b:?}"),
            }
        }
    }

    /// Every statement of a generated log, a transaction episode included,
    /// renders to SQL that parses again, so a printed repro can always be
    /// replayed.  Only parsing is checked, not AST equality: a rendered
    /// `i64::MIN` and `CREATE INDEX ... COLLATE` re-parse to different
    /// (equivalent) trees.
    #[test]
    fn generated_logs_re_parse(seed in any::<u64>()) {
        for dialect in Dialect::ALL {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut engine = Engine::new(dialect);
            let mut generator = StateGenerator::new(dialect, GenConfig::default());
            let (mut log, _) = generator.generate_database(&mut rng, &mut engine);
            log.extend(generator.generate_txn_episode(&mut rng, &mut engine).0);
            for stmt in &log {
                let sql = stmt.to_string();
                if let Err(e) = parse_statement(&sql) {
                    prop_assert!(false, "{dialect:?}: `{sql}` does not re-parse: {e}");
                }
            }
        }
    }
}

/// The containment oracle never fires against fault-free engines, across
/// many seeds and all dialects (run outside proptest to control the budget).
#[test]
fn containment_oracle_has_no_false_positives_on_correct_engines() {
    for dialect in Dialect::ALL {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut engine = Engine::new(dialect);
            let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
            let _ = generator.generate_database(&mut rng, &mut engine);
            let oracle = ContainmentOracle::new(dialect, GenConfig::tiny());
            for _ in 0..120 {
                let report = oracle.check_once(&mut rng, &mut engine);
                let logic_violation =
                    report.witnesses().iter().any(|w| matches!(w.repro, ReproSpec::MissingRow(_)));
                assert!(!logic_violation, "{dialect:?} seed {seed}: false positive: {report:?}");
            }
        }
    }
}
