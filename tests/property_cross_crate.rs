//! Property-based tests over the whole stack.
//!
//! The central invariant of PQS is that, with **no injected faults**, the
//! engine and the ground-truth interpreter agree on expression semantics and
//! the containment oracle never fires.  These properties are what make a
//! campaign's findings attributable to injected faults rather than to
//! oracle divergence.

use lancer_core::gen::{
    random_expression, random_like_pattern, random_value, GenConfig, StateGenerator, VisibleColumn,
};
use lancer_core::interp::simple_like;
use lancer_core::{rectify, ContainmentOracle, Interpreter, PivotColumn, PivotRow, ReproSpec};
use lancer_engine::eval::like_match;
use lancer_engine::{BoundExpr, BugProfile, Dialect, Engine, Evaluator, RowSchema, SourceSchema};
use lancer_sql::ast::expr::{BinaryOp, TypeName};
use lancer_sql::ast::stmt::ColumnDef;
use lancer_sql::ast::Expr;
use lancer_sql::collation::Collation;
use lancer_sql::parser::{parse_expression, parse_statement};
use lancer_sql::value::{TriBool, Value};
use lancer_storage::schema::ColumnMeta;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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

/// Builds a pivot row over two sources, `t0(c0, c1, c2)` and `t1(c0, c1)`,
/// and the matching engine row schema.  Every column gets a random
/// declared type the dialect supports, in a dialect with collations a
/// random collation, and either its value from `drawn` (arbitrary values
/// of every type) or one from the generator (which favours case and
/// trailing-space variants of short strings), so a wrong flat offset or
/// a dropped collation shows as a divergence.
fn two_source_fixture(
    rng: &mut StdRng,
    dialect: Dialect,
    drawn: &[Value],
) -> (PivotRow, RowSchema) {
    let mut types: Vec<Option<TypeName>> =
        dialect.supported_types().into_iter().map(Some).collect();
    if dialect.allows_untyped_columns() {
        types.push(None);
    }
    let mut pivot = PivotRow::default();
    let mut schema = RowSchema::default();
    let mut drawn = drawn.iter();
    for (table, width) in [("t0", 3), ("t1", 2)] {
        let mut columns = Vec::new();
        for i in 0..width {
            let def = ColumnDef::new(format!("c{i}"), *types.choose(rng).expect("non-empty"));
            let mut meta = ColumnMeta::from_def(&def);
            if dialect.has_collations() {
                meta.collation = *Collation::ALL.choose(rng).expect("non-empty");
            }
            let drawn = drawn.next().expect("one drawn value per column").clone();
            let value = if rng.gen_bool(0.5) { drawn } else { random_value(rng, dialect) };
            pivot.columns.push(PivotColumn { table: table.into(), meta: meta.clone(), value });
            columns.push(meta);
        }
        schema.sources.push(SourceSchema { name: table.into(), columns });
    }
    (pivot, schema)
}

fn visible_columns(pivot: &PivotRow) -> Vec<VisibleColumn> {
    pivot
        .columns
        .iter()
        .map(|c| VisibleColumn { table: c.table.clone(), meta: c.meta.clone() })
        .collect()
}

/// A node's kind, with the operator or flag that selects its semantics
/// and, for a column, what it resolves to.
fn ast_kind(e: &Expr, schema: &RowSchema) -> String {
    match e {
        Expr::Literal(_) => "literal".into(),
        Expr::Column(c) => match schema.resolve(c) {
            Some((index, meta)) => {
                format!("column {index} {:?} {:?}", meta.collation, meta.type_name)
            }
            None => "column unresolved".into(),
        },
        Expr::Unary { op, .. } => format!("unary {op:?}"),
        Expr::Binary { op, .. } => format!("binary {op:?}"),
        Expr::Like { negated, .. } => format!("like {negated}"),
        Expr::Between { negated, .. } => format!("between {negated}"),
        Expr::InList { negated, .. } => format!("in {negated}"),
        Expr::IsNull { negated, .. } => format!("is null {negated}"),
        Expr::Cast { type_name, .. } => format!("cast {type_name:?}"),
        Expr::Case { operand, .. } => format!("case {}", operand.is_some()),
        Expr::Function { func, .. } => format!("function {func:?}"),
        Expr::Aggregate { .. } => "aggregate".into(),
        Expr::Collate { collation, .. } => format!("collate {collation:?}"),
    }
}

fn bound_kind(e: &BoundExpr<'_>) -> String {
    match e {
        BoundExpr::Literal(_) => "literal".into(),
        BoundExpr::Column { index, collation, type_name } => {
            format!("column {index} {collation:?} {type_name:?}")
        }
        BoundExpr::Unresolved(_) => "column unresolved".into(),
        BoundExpr::Unary { op, .. } => format!("unary {op:?}"),
        BoundExpr::Binary { op, .. } => format!("binary {op:?}"),
        BoundExpr::Like { negated, .. } => format!("like {negated}"),
        BoundExpr::Between { negated, .. } => format!("between {negated}"),
        BoundExpr::InList { negated, .. } => format!("in {negated}"),
        BoundExpr::IsNull { negated, .. } => format!("is null {negated}"),
        BoundExpr::Cast { type_name, .. } => format!("cast {type_name:?}"),
        BoundExpr::Case { operand, .. } => format!("case {}", operand.is_some()),
        BoundExpr::Function { func, .. } => format!("function {func:?}"),
        BoundExpr::Aggregate { .. } => "aggregate".into(),
        BoundExpr::Collate { collation, .. } => format!("collate {collation:?}"),
    }
}

/// The node kinds of an expression tree in preorder.
fn ast_kinds(e: &Expr, schema: &RowSchema, out: &mut Vec<String>) {
    out.push(ast_kind(e, schema));
    e.for_each_child(&mut |c| ast_kinds(c, schema, out));
}

fn bound_kinds(e: &BoundExpr<'_>, out: &mut Vec<String>) {
    out.push(bound_kind(e));
    e.for_each_child(&mut |c| bound_kinds(c, out));
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
    /// expression for every dialect when no faults are enabled.  The row
    /// joins two sources with random declared types and collations, and
    /// the expressions reference columns of both by qualified name, so the
    /// engine's binder (flat offsets, collations, types) is checked against
    /// the interpreter's independent name resolution.  Besides the random
    /// expression, every column is compared with every column (`=` and
    /// `<`), so each column's offset and collation decide some result.
    #[test]
    fn interpreter_matches_engine_evaluator(
        seed in any::<u64>(),
        drawn in proptest::collection::vec(value_strategy(), 5..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dialect in Dialect::ALL {
            let (pivot, schema) = two_source_fixture(&mut rng, dialect, &drawn);
            let row = pivot.values();
            let columns = visible_columns(&pivot);
            let col = |c: &VisibleColumn| Expr::qcol(c.table.clone(), c.meta.name.clone());
            let mut exprs = vec![random_expression(&mut rng, &columns, dialect, 0)];
            for l in &columns {
                for r in &columns {
                    exprs.push(Expr::binary(BinaryOp::Eq, col(l), col(r)));
                    exprs.push(Expr::binary(BinaryOp::Lt, col(l), col(r)));
                }
            }
            let bugs = BugProfile::none();
            let engine_eval = Evaluator::new(dialect, &bugs);
            let interp = Interpreter::new(dialect);
            for expr in &exprs {
                let engine_result = engine_eval.eval(expr, &schema, row.as_slice());
                let interp_result = interp.eval(expr, &pivot);
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
    }

    /// Binding keeps the AST's shape: the bound tree has the same node
    /// kinds in the same preorder, unresolvable columns included, so the
    /// fault hooks that inspect shape see what they saw on the AST.  Each
    /// column leaf carries what the schema resolves its name to: flat
    /// index, collation and declared type.
    #[test]
    fn bound_tree_has_the_ast_shape(
        seed in any::<u64>(),
        drawn in proptest::collection::vec(value_strategy(), 5..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dialect in Dialect::ALL {
            let (pivot, schema) = two_source_fixture(&mut rng, dialect, &drawn);
            let mut columns = visible_columns(&pivot);
            columns.push(VisibleColumn {
                table: "t9".into(),
                meta: ColumnMeta::from_def(&ColumnDef::new("c9", None)),
            });
            let expr = random_expression(&mut rng, &columns, dialect, 0);
            let bound = Evaluator::new(dialect, &BugProfile::none()).bind(&expr, &schema);
            let (mut ast, mut bound_shape) = (Vec::new(), Vec::new());
            ast_kinds(&expr, &schema, &mut ast);
            bound_kinds(&bound, &mut bound_shape);
            prop_assert_eq!(ast, bound_shape, "{:?}: {}", dialect, expr);
        }
    }

    /// The engine's allocation-free `LIKE` matcher agrees with the
    /// interpreter's brute-force one on patterns built from the
    /// generator's parts and short texts over the same alphabet (non-ASCII
    /// letters included), in both case modes.
    #[test]
    fn like_matcher_agrees_with_brute_force(seed in any::<u64>()) {
        const ALPHABET: [char; 12] = ['a', 'A', 'b', 'B', '.', '/', '%', '_', '\\', ' ', 'é', 'ß'];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let mut pattern = random_like_pattern(&mut rng);
            if rng.gen_bool(0.5) {
                pattern.push_str(&random_like_pattern(&mut rng));
            }
            let len = rng.gen_range(0..=6);
            let text: String = (0..len).map(|_| *ALPHABET.choose(&mut rng).expect("non-empty")).collect();
            for case_sensitive in [false, true] {
                prop_assert_eq!(
                    like_match(&pattern, &text, case_sensitive),
                    simple_like(&pattern, &text, case_sensitive),
                    "{:?} LIKE {:?} (case sensitive: {})", text, pattern, case_sensitive
                );
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
