//! SQLancer's ground-truth AST interpreter (§3.2, Algorithm 2).
//!
//! The interpreter evaluates a randomly generated expression *for the pivot
//! row only*: column references resolve to the pivot row's values, every
//! other node computes over literals.  It deliberately knows nothing about
//! query planning, indexes, or storage — which is exactly why it can act as
//! the oracle for the DBMS engine: "implementing this interpreter requires
//! moderate implementation effort [...] other challenges that a DBMS has to
//! tackle [...] can be disregarded by it."
//!
//! This is an independent implementation of the dialect semantics; the
//! engine's evaluator lives in `lancer-engine::eval` and the two are checked
//! against each other by cross-crate property tests.

use lancer_engine::Dialect;
use lancer_sql::ast::expr::{BinaryOp, ColumnRef, Expr, ScalarFunc, TypeName, UnaryOp};
use lancer_sql::collation::Collation;
use lancer_sql::value::{
    real_to_int_saturating, text_integer_prefix, text_numeric_prefix, TriBool, Value,
};
use lancer_storage::schema::ColumnMeta;

/// One column of the pivot row: where it came from and its value.
#[derive(Debug, Clone)]
pub struct PivotColumn {
    /// The table (or view) the column belongs to.
    pub table: String,
    /// The column metadata (name, type, collation).
    pub meta: ColumnMeta,
    /// The pivot row's value for this column.
    pub value: Value,
}

/// The pivot row: one row per table in scope, flattened (§3.1 step 2).
#[derive(Debug, Clone, Default)]
pub struct PivotRow {
    /// All pivot columns across the tables in scope.
    pub columns: Vec<PivotColumn>,
}

impl PivotRow {
    /// Resolves a column reference against the pivot row.
    #[must_use]
    pub fn resolve(&self, c: &ColumnRef) -> Option<&PivotColumn> {
        self.columns.iter().find(|pc| {
            pc.meta.name.eq_ignore_ascii_case(&c.column)
                && c.table.as_ref().is_none_or(|t| t.eq_ignore_ascii_case(&pc.table))
        })
    }

    /// The values of the pivot row, in column order.
    #[must_use]
    pub fn values(&self) -> Vec<Value> {
        self.columns.iter().map(|c| c.value.clone()).collect()
    }
}

/// An error produced by the interpreter (e.g. a dialect type error that the
/// DBMS is also expected to raise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError(pub String);

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interpreter error: {}", self.0)
    }
}

impl std::error::Error for InterpError {}

/// Result alias for interpretation.
pub type InterpResult<T> = Result<T, InterpError>;

/// The ground-truth expression interpreter.
#[derive(Debug, Clone, Copy)]
pub struct Interpreter {
    /// The dialect whose semantics are modelled.
    pub dialect: Dialect,
    /// Whether `LIKE` is case sensitive (mirrors the pragma).
    pub case_sensitive_like: bool,
}

impl Interpreter {
    /// Creates an interpreter for the dialect.
    #[must_use]
    pub fn new(dialect: Dialect) -> Interpreter {
        Interpreter { dialect, case_sensitive_like: false }
    }

    /// Evaluates an expression against the pivot row (Algorithm 2).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown columns, aggregates, and dialect type
    /// errors.
    pub fn eval(&self, expr: &Expr, pivot: &PivotRow) -> InterpResult<Value> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(c) => match pivot.resolve(c) {
                Some(pc) => Ok(pc.value.clone()),
                None => {
                    if self.dialect == Dialect::Sqlite && c.table.is_none() {
                        Ok(Value::Text(c.column.clone()))
                    } else {
                        Err(InterpError(format!("no such column: {}", c.column)))
                    }
                }
            },
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, pivot)?;
                match op {
                    UnaryOp::Not => Ok(self.bool_value(self.truth(&v)?.not())),
                    UnaryOp::Plus => Ok(v),
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Integer(i) => {
                            Ok(Value::Integer(i.checked_neg().unwrap_or(i64::MAX)))
                        }
                        Value::Real(r) => Ok(Value::Real(-r)),
                        Value::Boolean(b) => Ok(Value::Integer(-i64::from(b))),
                        other => {
                            let (int, real) = self.numeric(&other, "-")?;
                            match int {
                                Some(i) => Ok(Value::Integer(i.checked_neg().unwrap_or(i64::MAX))),
                                None => Ok(Value::Real(-real)),
                            }
                        }
                    },
                    UnaryOp::BitNot => {
                        if v.is_null() {
                            Ok(Value::Null)
                        } else {
                            let (int, real) = self.numeric(&v, "~")?;
                            Ok(Value::Integer(!int.unwrap_or_else(|| real_to_int_saturating(real))))
                        }
                    }
                }
            }
            Expr::Binary { op, left, right } => self.eval_binary(*op, left, right, pivot),
            Expr::Like { negated, expr, pattern } => {
                let v = self.eval(expr, pivot)?;
                let p = self.eval(pattern, pivot)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let matched = simple_like(
                    &p.to_text_lenient().unwrap_or_default(),
                    &v.to_text_lenient().unwrap_or_default(),
                    self.case_sensitive_like,
                );
                let t: TriBool = (matched != *negated).into();
                Ok(self.bool_value(t))
            }
            Expr::Between { negated, expr, low, high } => {
                let v = self.eval(expr, pivot)?;
                let lo = self.eval(low, pivot)?;
                let hi = self.eval(high, pivot)?;
                let coll = self.collation(expr, pivot);
                let ge = compare(&v, &lo, coll).map(|o| o != std::cmp::Ordering::Less);
                let le = compare(&v, &hi, coll).map(|o| o != std::cmp::Ordering::Greater);
                let mut t = TriBool::from_option(ge).and(TriBool::from_option(le));
                if *negated {
                    t = t.not();
                }
                Ok(self.bool_value(t))
            }
            Expr::InList { negated, expr, list } => {
                let v = self.eval(expr, pivot)?;
                let coll = self.collation(expr, pivot);
                let mut unknown = false;
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, pivot)?;
                    match compare(&v, &iv, coll) {
                        None => unknown = true,
                        Some(std::cmp::Ordering::Equal) => {
                            found = true;
                            break;
                        }
                        _ => {}
                    }
                }
                let mut t = if found {
                    TriBool::True
                } else if unknown {
                    TriBool::Unknown
                } else {
                    TriBool::False
                };
                if *negated {
                    t = t.not();
                }
                Ok(self.bool_value(t))
            }
            Expr::IsNull { negated, expr } => {
                let v = self.eval(expr, pivot)?;
                Ok(self.bool_value((v.is_null() != *negated).into()))
            }
            Expr::Cast { expr, type_name } => {
                let v = self.eval(expr, pivot)?;
                self.cast(v, *type_name)
            }
            Expr::Case { operand, branches, else_expr } => {
                match operand {
                    Some(op) => {
                        let base = self.eval(op, pivot)?;
                        let coll = self.collation(op, pivot);
                        for (when, then) in branches {
                            let w = self.eval(when, pivot)?;
                            if compare(&base, &w, coll) == Some(std::cmp::Ordering::Equal) {
                                return self.eval(then, pivot);
                            }
                        }
                    }
                    None => {
                        for (when, then) in branches {
                            let w = self.eval(when, pivot)?;
                            if self.truth(&w)?.is_true() {
                                return self.eval(then, pivot);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, pivot),
                    None => Ok(Value::Null),
                }
            }
            Expr::Function { func, args } => {
                let vals: Vec<Value> =
                    args.iter().map(|a| self.eval(a, pivot)).collect::<InterpResult<_>>()?;
                self.scalar_function(*func, &vals)
            }
            Expr::Aggregate { .. } => {
                Err(InterpError("aggregates are not supported by the pivot interpreter".into()))
            }
            Expr::Collate { expr, .. } => self.eval(expr, pivot),
        }
    }

    /// Evaluates an expression in a boolean context, returning the
    /// three-valued result (the value the rectifier needs, §3.2).
    ///
    /// # Errors
    ///
    /// Returns an error for dialect type errors (strict dialect).
    pub fn eval_tribool(&self, expr: &Expr, pivot: &PivotRow) -> InterpResult<TriBool> {
        let v = self.eval(expr, pivot)?;
        self.truth(&v)
    }

    fn truth(&self, v: &Value) -> InterpResult<TriBool> {
        if self.dialect.implicit_boolean_conversion() {
            Ok(v.to_tribool_lenient())
        } else {
            match v {
                Value::Null => Ok(TriBool::Unknown),
                Value::Boolean(b) => Ok((*b).into()),
                other => Err(InterpError(format!(
                    "argument of WHERE must be type boolean, not type {}",
                    other.storage_class()
                ))),
            }
        }
    }

    fn bool_value(&self, t: TriBool) -> Value {
        if self.dialect.strict_typing() {
            t.to_bool_value()
        } else {
            t.to_int_value()
        }
    }

    fn collation(&self, expr: &Expr, pivot: &PivotRow) -> Collation {
        if !self.dialect.has_collations() {
            return Collation::Binary;
        }
        match expr {
            Expr::Collate { collation, .. } => *collation,
            Expr::Column(c) => pivot.resolve(c).map(|pc| pc.meta.collation).unwrap_or_default(),
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.collation(expr, pivot),
            Expr::Binary { op: BinaryOp::Concat, left, right } => {
                let l = self.collation(left, pivot);
                if l != Collation::Binary {
                    l
                } else {
                    self.collation(right, pivot)
                }
            }
            _ => Collation::Binary,
        }
    }

    fn comparison_collation(&self, left: &Expr, right: &Expr, pivot: &PivotRow) -> Collation {
        let l = self.collation(left, pivot);
        if l != Collation::Binary {
            l
        } else {
            self.collation(right, pivot)
        }
    }

    fn eval_binary(
        &self,
        op: BinaryOp,
        left: &Expr,
        right: &Expr,
        pivot: &PivotRow,
    ) -> InterpResult<Value> {
        match op {
            BinaryOp::And => {
                let l = self.truth(&self.eval(left, pivot)?)?;
                if l == TriBool::False {
                    return Ok(self.bool_value(TriBool::False));
                }
                let r = self.truth(&self.eval(right, pivot)?)?;
                Ok(self.bool_value(l.and(r)))
            }
            BinaryOp::Or => {
                let l = self.truth(&self.eval(left, pivot)?)?;
                if l == TriBool::True {
                    return Ok(self.bool_value(TriBool::True));
                }
                let r = self.truth(&self.eval(right, pivot)?)?;
                Ok(self.bool_value(l.or(r)))
            }
            BinaryOp::Is | BinaryOp::IsNot | BinaryOp::NullSafeEq => {
                if matches!(op, BinaryOp::Is | BinaryOp::IsNot) && !self.dialect.has_scalar_is() {
                    let rv = self.eval(right, pivot)?;
                    if !matches!(rv, Value::Boolean(_) | Value::Null) {
                        return Err(InterpError("scalar IS is not supported".into()));
                    }
                    let lv = self.eval(left, pivot)?;
                    let eq = lv.same_as(&rv);
                    let b = if op == BinaryOp::IsNot { !eq } else { eq };
                    return Ok(self.bool_value(b.into()));
                }
                if op == BinaryOp::NullSafeEq && !self.dialect.has_null_safe_eq() {
                    return Err(InterpError("<=> is not supported".into()));
                }
                let lv = self.eval(left, pivot)?;
                let rv = self.eval(right, pivot)?;
                let coll = self.comparison_collation(left, right, pivot);
                let eq = match (lv.is_null(), rv.is_null()) {
                    (true, true) => true,
                    (true, false) | (false, true) => false,
                    _ => compare(&lv, &rv, coll) == Some(std::cmp::Ordering::Equal),
                };
                let b = if op == BinaryOp::IsNot { !eq } else { eq };
                Ok(self.bool_value(b.into()))
            }
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                let lv = self.eval(left, pivot)?;
                let rv = self.eval(right, pivot)?;
                let coll = self.comparison_collation(left, right, pivot);
                let t = match compare(&lv, &rv, coll) {
                    None => TriBool::Unknown,
                    Some(ord) => {
                        use std::cmp::Ordering::{Equal, Greater, Less};
                        let b = match op {
                            BinaryOp::Eq => ord == Equal,
                            BinaryOp::Ne => ord != Equal,
                            BinaryOp::Lt => ord == Less,
                            BinaryOp::Le => ord != Greater,
                            BinaryOp::Gt => ord == Greater,
                            BinaryOp::Ge => ord != Less,
                            _ => unreachable!(),
                        };
                        b.into()
                    }
                };
                Ok(self.bool_value(t))
            }
            BinaryOp::Concat => {
                let lv = self.eval(left, pivot)?;
                let rv = self.eval(right, pivot)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Text(format!(
                    "{}{}",
                    lv.to_text_lenient().unwrap_or_default(),
                    rv.to_text_lenient().unwrap_or_default()
                )))
            }
            BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::ShiftLeft | BinaryOp::ShiftRight => {
                let lv = self.eval(left, pivot)?;
                let rv = self.eval(right, pivot)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let a = self.as_integer(&lv)?;
                let b = self.as_integer(&rv)?;
                let r = match op {
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    BinaryOp::ShiftLeft => {
                        if (0..64).contains(&b) {
                            a.wrapping_shl(b as u32)
                        } else {
                            0
                        }
                    }
                    BinaryOp::ShiftRight => {
                        if (0..64).contains(&b) {
                            a.wrapping_shr(b as u32)
                        } else if a < 0 {
                            -1
                        } else {
                            0
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Integer(r))
            }
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let lv = self.eval(left, pivot)?;
                let rv = self.eval(right, pivot)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let (li, lr) = self.numeric(&lv, "arithmetic")?;
                let (ri, rr) = self.numeric(&rv, "arithmetic")?;
                if let (Some(a), Some(b)) = (li, ri) {
                    let out = match op {
                        BinaryOp::Add => a.checked_add(b).map(Value::Integer),
                        BinaryOp::Sub => a.checked_sub(b).map(Value::Integer),
                        BinaryOp::Mul => a.checked_mul(b).map(Value::Integer),
                        // `i64::MIN / -1` overflows like the other
                        // operators: fall through to the REAL promotion
                        // below, matching the engine evaluator.
                        BinaryOp::Div => {
                            if b == 0 {
                                return self.div_zero();
                            }
                            a.checked_div(b).map(Value::Integer)
                        }
                        BinaryOp::Mod => {
                            if b == 0 {
                                return self.div_zero();
                            }
                            a.checked_rem(b).map(Value::Integer)
                        }
                        _ => unreachable!(),
                    };
                    return Ok(out.unwrap_or_else(|| {
                        let (a, b) = (a as f64, b as f64);
                        Value::Real(match op {
                            BinaryOp::Add => a + b,
                            BinaryOp::Sub => a - b,
                            BinaryOp::Mul => a * b,
                            BinaryOp::Div => a / b,
                            BinaryOp::Mod => a % b,
                            _ => unreachable!(),
                        })
                    }));
                }
                let a = li.map(|i| i as f64).unwrap_or(lr);
                let b = ri.map(|i| i as f64).unwrap_or(rr);
                let r = match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div => {
                        if b == 0.0 {
                            return self.div_zero();
                        }
                        a / b
                    }
                    BinaryOp::Mod => {
                        if b == 0.0 {
                            return self.div_zero();
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Real(r))
            }
        }
    }

    fn div_zero(&self) -> InterpResult<Value> {
        if self.dialect.strict_typing() {
            Err(InterpError("division by zero".into()))
        } else {
            Ok(Value::Null)
        }
    }

    /// Numeric coercion returning `(integer, real)`: `integer` is `Some` when
    /// the value is integral.
    fn numeric(&self, v: &Value, op: &str) -> InterpResult<(Option<i64>, f64)> {
        match v {
            Value::Integer(i) => Ok((Some(*i), *i as f64)),
            Value::Real(r) => Ok((None, *r)),
            Value::Boolean(b) => Ok((Some(i64::from(*b)), f64::from(u8::from(*b)))),
            Value::Text(t) => {
                if self.dialect.strict_typing() {
                    Err(InterpError(format!("invalid input for numeric operator {op}: \"{t}\"")))
                } else {
                    let r = text_numeric_prefix(t);
                    if r.fract() == 0.0 && r.abs() < 9.2e18 && !t.contains('.') && !t.contains('e')
                    {
                        Ok((Some(text_integer_prefix(t)), r))
                    } else {
                        Ok((None, r))
                    }
                }
            }
            Value::Blob(_) => {
                if self.dialect.strict_typing() {
                    Err(InterpError("operator does not accept bytea operands".into()))
                } else {
                    Ok((Some(0), 0.0))
                }
            }
            Value::Null => Ok((Some(0), 0.0)),
        }
    }

    fn as_integer(&self, v: &Value) -> InterpResult<i64> {
        let (i, r) = self.numeric(v, "bitwise")?;
        Ok(i.unwrap_or_else(|| real_to_int_saturating(r)))
    }

    fn cast(&self, v: Value, target: TypeName) -> InterpResult<Value> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        match target {
            TypeName::Integer | TypeName::Serial => {
                if self.dialect.strict_typing() {
                    if let Value::Text(ref t) = v {
                        if t.trim().parse::<i64>().is_err() {
                            return Err(InterpError(format!(
                                "invalid input syntax for type integer: \"{t}\""
                            )));
                        }
                    }
                }
                Ok(Value::Integer(v.to_integer_lenient().unwrap_or(0)))
            }
            TypeName::TinyInt => {
                Ok(Value::Integer(v.to_integer_lenient().unwrap_or(0).clamp(-128, 127)))
            }
            TypeName::Unsigned => {
                let i = v.to_integer_lenient().unwrap_or(0);
                Ok(Value::Integer(if i < 0 { i64::MAX } else { i }))
            }
            TypeName::Real => Ok(Value::Real(v.to_real_lenient().unwrap_or(0.0))),
            TypeName::Text => Ok(Value::Text(v.to_text_lenient().unwrap_or_default())),
            TypeName::Blob => match v {
                Value::Blob(b) => Ok(Value::Blob(b)),
                other => Ok(Value::Blob(other.to_text_lenient().unwrap_or_default().into_bytes())),
            },
            TypeName::Boolean => {
                if self.dialect.strict_typing() {
                    match &v {
                        Value::Boolean(_) => Ok(v),
                        Value::Integer(i) => Ok(Value::Boolean(*i != 0)),
                        Value::Text(t) => match t.trim().to_ascii_lowercase().as_str() {
                            "t" | "true" | "yes" | "on" | "1" => Ok(Value::Boolean(true)),
                            "f" | "false" | "no" | "off" | "0" => Ok(Value::Boolean(false)),
                            _ => Err(InterpError(format!(
                                "invalid input syntax for type boolean: \"{t}\""
                            ))),
                        },
                        _ => Err(InterpError("cannot cast this type to boolean".into())),
                    }
                } else {
                    Ok(self.bool_value(v.to_tribool_lenient()))
                }
            }
        }
    }

    fn scalar_function(&self, func: ScalarFunc, vals: &[Value]) -> InterpResult<Value> {
        // The scalar function semantics are shared spec-level behaviour; the
        // interpreter delegates to the same definitions the engine uses so
        // that function bugs have to be injected explicitly rather than
        // arising from accidental divergence.
        lancer_engine::eval::eval_scalar_function(func, vals, self.dialect)
            .map_err(|e| InterpError(e.message))
    }
}

/// NULL-propagating comparison shared by the interpreter.
fn compare(a: &Value, b: &Value, collation: Collation) -> Option<std::cmp::Ordering> {
    if a.is_null() || b.is_null() {
        None
    } else {
        Some(a.total_cmp(b, collation))
    }
}

/// A deliberately simple LIKE matcher (the paper notes the SQLancer LIKE
/// implementation is ~50 LOC; ours is smaller because it skips ESCAPE).
/// Public so that tests can hold the engine's matcher to it.
pub fn simple_like(pattern: &str, text: &str, case_sensitive: bool) -> bool {
    let (p, t) = if case_sensitive {
        (pattern.chars().collect::<Vec<_>>(), text.chars().collect::<Vec<_>>())
    } else {
        (
            pattern.to_ascii_lowercase().chars().collect::<Vec<_>>(),
            text.to_ascii_lowercase().chars().collect::<Vec<_>>(),
        )
    };
    fn go(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| go(&p[1..], &t[k..])),
            Some('_') => !t.is_empty() && go(&p[1..], &t[1..]),
            Some(c) => t.first() == Some(c) && go(&p[1..], &t[1..]),
        }
    }
    go(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::parser::parse_expression;

    fn pivot() -> PivotRow {
        let col = |table: &str, name: &str, value: Value, collation: Collation| PivotColumn {
            table: table.into(),
            meta: ColumnMeta {
                name: name.into(),
                type_name: None,
                collation,
                not_null: false,
                primary_key: false,
                unique: false,
                default: None,
                check: None,
            },
            value,
        };
        PivotRow {
            columns: vec![
                col("t0", "c0", Value::Null, Collation::Binary),
                col("t0", "c1", Value::Integer(3), Collation::Binary),
                col("t1", "c0", Value::Text("Ab".into()), Collation::NoCase),
            ],
        }
    }

    fn eval(dialect: Dialect, sql: &str) -> InterpResult<Value> {
        Interpreter::new(dialect).eval(&parse_expression(sql).unwrap(), &pivot())
    }

    #[test]
    fn division_overflow_promotes_to_real_like_the_engine() {
        // The ground-truth interpreter must agree with the engine
        // evaluator that `i64::MIN / -1` (and `% -1`) promote to REAL
        // rather than wrapping — otherwise the containment oracle would
        // report a phantom mismatch on such a pivot.
        const MIN: &str = "(-9223372036854775807 - 1)";
        for d in [Dialect::Sqlite, Dialect::Mysql, Dialect::Postgres, Dialect::Duckdb] {
            assert_eq!(
                eval(d, &format!("{MIN} / -1")).unwrap(),
                Value::Real(9_223_372_036_854_775_808.0),
                "{d:?}: MIN / -1 must promote"
            );
            assert_eq!(
                eval(d, &format!("{MIN} % -1")).unwrap(),
                Value::Real(0.0),
                "{d:?}: MIN % -1 must promote"
            );
            assert_eq!(eval(d, "7 / -1").unwrap(), Value::Integer(-7));
        }
    }

    #[test]
    fn resolves_pivot_columns() {
        assert_eq!(eval(Dialect::Sqlite, "t0.c1 + 1").unwrap(), Value::Integer(4));
        assert_eq!(eval(Dialect::Sqlite, "c0").unwrap(), Value::Null);
        assert_eq!(eval(Dialect::Sqlite, "t1.c0").unwrap(), Value::Text("Ab".into()));
        assert!(eval(Dialect::Postgres, "t9.zzz").is_err());
        // SQLite treats unknown bare identifiers as strings (double-quote rule).
        assert_eq!(eval(Dialect::Sqlite, "zzz").unwrap(), Value::Text("zzz".into()));
    }

    #[test]
    fn listing1_expression_evaluates_true() {
        // NULL IS NOT 1 is TRUE, the core of the motivating example.
        let i = Interpreter::new(Dialect::Sqlite);
        let e = parse_expression("t0.c0 IS NOT 1").unwrap();
        assert_eq!(i.eval_tribool(&e, &pivot()).unwrap(), TriBool::True);
    }

    #[test]
    fn collation_aware_comparison_via_pivot_metadata() {
        assert_eq!(eval(Dialect::Sqlite, "t1.c0 = 'ab'").unwrap(), Value::Integer(1));
        assert_eq!(eval(Dialect::Sqlite, "'AB' = 'ab'").unwrap(), Value::Integer(0));
    }

    #[test]
    fn aggregates_are_rejected() {
        assert!(eval(Dialect::Sqlite, "COUNT(*)").is_err());
    }

    #[test]
    fn tribool_for_rectification() {
        let i = Interpreter::new(Dialect::Sqlite);
        let p = pivot();
        assert_eq!(
            i.eval_tribool(&parse_expression("t0.c1 = 3").unwrap(), &p).unwrap(),
            TriBool::True
        );
        assert_eq!(
            i.eval_tribool(&parse_expression("t0.c1 = 4").unwrap(), &p).unwrap(),
            TriBool::False
        );
        assert_eq!(
            i.eval_tribool(&parse_expression("t0.c0 = 3").unwrap(), &p).unwrap(),
            TriBool::Unknown
        );
        // PostgreSQL requires a boolean root.
        let pg = Interpreter::new(Dialect::Postgres);
        assert!(pg.eval_tribool(&parse_expression("t0.c1").unwrap(), &p).is_err());
    }

    #[test]
    fn dialect_specific_operators() {
        assert_eq!(eval(Dialect::Mysql, "t0.c0 <=> NULL").unwrap(), Value::Integer(1));
        assert!(eval(Dialect::Sqlite, "t0.c0 <=> NULL").is_err());
        assert_eq!(eval(Dialect::Sqlite, "t0.c0 IS NOT 1").unwrap(), Value::Integer(1));
        assert!(eval(Dialect::Mysql, "t0.c1 IS NOT 1").is_err());
    }

    #[test]
    fn like_and_functions() {
        assert_eq!(eval(Dialect::Sqlite, "t1.c0 LIKE 'a%'").unwrap(), Value::Integer(1));
        assert_eq!(eval(Dialect::Sqlite, "LENGTH(t1.c0)").unwrap(), Value::Integer(2));
        assert_eq!(eval(Dialect::Sqlite, "COALESCE(t0.c0, 7)").unwrap(), Value::Integer(7));
        assert!(simple_like("%b", "ab", false));
        assert!(!simple_like("_", "", false));
    }
}
