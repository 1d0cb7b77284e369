//! The engine's expression evaluator.
//!
//! This is the *DBMS side* of expression evaluation: it implements the
//! dialect semantics (implicit conversions, collations, three-valued logic)
//! and contains the value-level fault hooks.  SQLancer's ground-truth AST
//! interpreter lives in `lancer-core::interp` and is an independent
//! implementation of the same semantics — divergence between the two (with
//! all faults disabled) would be a bug in this reproduction and is guarded
//! against by cross-crate property tests.

use lancer_sql::ast::expr::{AggFunc, BinaryOp, ColumnRef, Expr, ScalarFunc, TypeName, UnaryOp};
use lancer_sql::collation::Collation;
use lancer_sql::value::{
    real_to_int_saturating, text_integer_prefix, text_numeric_prefix, TriBool, Value,
};
use lancer_storage::schema::ColumnMeta;

use crate::bugs::{BugId, BugProfile};
use crate::dialect::Dialect;
use crate::error::{EngineError, EngineResult};

/// The schema of one row source (a table or view) participating in a query.
#[derive(Debug, Clone)]
pub struct SourceSchema {
    /// The source name (table, view or alias).
    pub name: String,
    /// Column metadata in order.
    pub columns: Vec<ColumnMeta>,
}

/// The flattened schema of a joined row: all sources side by side.
#[derive(Debug, Clone, Default)]
pub struct RowSchema {
    /// The participating sources in join order.
    pub sources: Vec<SourceSchema>,
}

impl RowSchema {
    /// A schema with a single source.
    #[must_use]
    pub fn single(source: SourceSchema) -> RowSchema {
        RowSchema { sources: vec![source] }
    }

    /// An empty schema (for constant expressions).
    #[must_use]
    pub fn empty() -> RowSchema {
        RowSchema::default()
    }

    /// Total number of columns across all sources.
    #[must_use]
    pub fn width(&self) -> usize {
        self.sources.iter().map(|s| s.columns.len()).sum()
    }

    /// Resolves a column reference to a flat index and its metadata.
    #[must_use]
    pub fn resolve(&self, col: &ColumnRef) -> Option<(usize, &ColumnMeta)> {
        let mut offset = 0usize;
        for source in &self.sources {
            if col.table.as_ref().is_none_or(|t| t.eq_ignore_ascii_case(&source.name)) {
                if let Some(i) =
                    source.columns.iter().position(|c| c.name.eq_ignore_ascii_case(&col.column))
                {
                    return Some((offset + i, &source.columns[i]));
                }
            }
            offset += source.columns.len();
        }
        None
    }

    /// All (source, column) pairs flattened, for `SELECT *` projection.
    #[must_use]
    pub fn flat_columns(&self) -> Vec<(String, ColumnMeta)> {
        let mut out = Vec::new();
        for source in &self.sources {
            for c in &source.columns {
                out.push((source.name.clone(), c.clone()));
            }
        }
        out
    }
}

/// Read access to one (joined) row: the only way the evaluator reads row
/// values, so a row can be evaluated where it is stored instead of being
/// copied into a `Vec` first.
pub trait RowView {
    /// The value at flat column index `i`, or `None` past the row's end.
    fn value(&self, i: usize) -> Option<&Value>;
}

impl RowView for [Value] {
    fn value(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

impl<T: RowView + ?Sized> RowView for &T {
    fn value(&self, i: usize) -> Option<&Value> {
        (**self).value(i)
    }
}

/// Dialect-aware expression evaluator over a single (joined) row.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    /// The SQL dialect being emulated.
    pub dialect: Dialect,
    /// The enabled fault profile.
    pub bugs: &'a BugProfile,
    /// Whether `LIKE` is case sensitive (SQLite `PRAGMA case_sensitive_like`).
    pub case_sensitive_like: bool,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator.
    #[must_use]
    pub fn new(dialect: Dialect, bugs: &'a BugProfile) -> Evaluator<'a> {
        Evaluator { dialect, bugs, case_sensitive_like: false }
    }

    /// Evaluates an expression to a value.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown columns (non-SQLite dialects), strict-
    /// typing violations (PostgreSQL), division by zero (PostgreSQL) and
    /// aggregates outside aggregate context.
    pub fn eval<R: RowView + ?Sized>(
        &self,
        expr: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(c) => self.eval_column(c, schema, row),
            Expr::Unary { op, expr } => self.eval_unary(*op, expr, schema, row),
            Expr::Binary { op, left, right } => self.eval_binary(*op, left, right, schema, row),
            Expr::Like { negated, expr, pattern } => {
                self.eval_like(*negated, expr, pattern, schema, row)
            }
            Expr::Between { negated, expr, low, high } => {
                let v = self.eval(expr, schema, row)?;
                let lo = self.eval(low, schema, row)?;
                let hi = self.eval(high, schema, row)?;
                let coll = self.collation_of(expr, schema);
                let ge = self.compare_tri(&v, &lo, coll).map(|o| o != std::cmp::Ordering::Less);
                let le = self.compare_tri(&v, &hi, coll).map(|o| o != std::cmp::Ordering::Greater);
                let t = TriBool::from_option(ge).and(TriBool::from_option(le));
                let t = if *negated { t.not() } else { t };
                Ok(self.tribool_value(t))
            }
            Expr::InList { negated, expr, list } => {
                let v = self.eval(expr, schema, row)?;
                let coll = self.collation_of(expr, schema);
                let mut any_unknown = false;
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, schema, row)?;
                    match self.compare_tri(&v, &iv, coll) {
                        None => any_unknown = true,
                        Some(std::cmp::Ordering::Equal) => {
                            found = true;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                let t = if found {
                    TriBool::True
                } else if any_unknown {
                    TriBool::Unknown
                } else {
                    TriBool::False
                };
                let t = if *negated { t.not() } else { t };
                Ok(self.tribool_value(t))
            }
            Expr::IsNull { negated, expr } => {
                let v = self.eval(expr, schema, row)?;
                let is_null = v.is_null();
                let t: TriBool = (is_null != *negated).into();
                Ok(self.tribool_value(t))
            }
            Expr::Cast { expr, type_name } => {
                let v = self.eval(expr, schema, row)?;
                self.cast(v, *type_name)
            }
            Expr::Case { operand, branches, else_expr } => {
                match operand {
                    Some(op) => {
                        let base = self.eval(op, schema, row)?;
                        let coll = self.collation_of(op, schema);
                        for (when, then) in branches {
                            let wv = self.eval(when, schema, row)?;
                            if self.compare_tri(&base, &wv, coll) == Some(std::cmp::Ordering::Equal)
                            {
                                return self.eval(then, schema, row);
                            }
                        }
                    }
                    None => {
                        for (when, then) in branches {
                            if self.truthiness(when, schema, row)?.is_true() {
                                return self.eval(then, schema, row);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, schema, row),
                    None => Ok(Value::Null),
                }
            }
            Expr::Function { func, args } => self.eval_function(*func, args, schema, row),
            Expr::Aggregate { .. } => {
                Err(EngineError::semantic("aggregate functions are not allowed in this context"))
            }
            Expr::Collate { expr, .. } => self.eval(expr, schema, row),
        }
    }

    /// Evaluates an expression as a predicate (`WHERE` / `HAVING` / `ON`).
    ///
    /// # Errors
    ///
    /// In the PostgreSQL-like dialect, non-boolean predicate results are a
    /// type error; the other dialects convert implicitly.
    pub fn eval_predicate<R: RowView + ?Sized>(
        &self,
        expr: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<TriBool> {
        let v = self.eval(expr, schema, row)?;
        self.value_to_tribool(&v)
    }

    /// Converts a value to a tri-state boolean under the dialect's rules.
    ///
    /// # Errors
    ///
    /// Returns a type error in the PostgreSQL-like dialect for non-boolean
    /// values.
    pub fn value_to_tribool(&self, v: &Value) -> EngineResult<TriBool> {
        if self.dialect.implicit_boolean_conversion() {
            // Injected fault: small doubles stored in TEXT evaluate to FALSE
            // (MySQL, §4.5 value-range bugs).
            if self.bugs.is_enabled(BugId::MysqlSmallDoubleTextFalse) {
                if let Value::Text(t) = v {
                    let n = text_numeric_prefix(t);
                    if n != 0.0 && n.abs() < 1.0 {
                        return Ok(TriBool::False);
                    }
                }
            }
            Ok(v.to_tribool_lenient())
        } else {
            match v {
                Value::Null => Ok(TriBool::Unknown),
                Value::Boolean(b) => Ok((*b).into()),
                other => Err(EngineError::semantic(format!(
                    "argument of WHERE must be type boolean, not type {}",
                    other.storage_class()
                ))),
            }
        }
    }

    fn truthiness<R: RowView + ?Sized>(
        &self,
        expr: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<TriBool> {
        let v = self.eval(expr, schema, row)?;
        self.value_to_tribool(&v)
    }

    fn tribool_value(&self, t: TriBool) -> Value {
        if self.dialect.strict_typing() {
            t.to_bool_value()
        } else {
            t.to_int_value()
        }
    }

    fn eval_column<R: RowView + ?Sized>(
        &self,
        c: &ColumnRef,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        match schema.resolve(c) {
            Some((i, _)) => Ok(row.value(i).cloned().unwrap_or(Value::Null)),
            None => {
                if self.dialect == Dialect::Sqlite && c.table.is_none() {
                    // SQLite's double-quoted-string fallback (Listing 8).
                    Ok(Value::Text(c.column.clone()))
                } else {
                    Err(EngineError::semantic(format!("no such column: {}", c.column)))
                }
            }
        }
    }

    fn eval_unary<R: RowView + ?Sized>(
        &self,
        op: UnaryOp,
        expr: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        match op {
            UnaryOp::Not => {
                // Injected fault: MySQL folds double negation for integer
                // operands (Listing 13).
                if self.bugs.is_enabled(BugId::MysqlDoubleNegationFolded) {
                    if let Expr::Unary { op: UnaryOp::Not, expr: inner } = expr {
                        return self.eval(inner, schema, row);
                    }
                }
                let t = self.truthiness(expr, schema, row)?;
                Ok(self.tribool_value(t.not()))
            }
            UnaryOp::Neg => {
                let v = self.eval(expr, schema, row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Integer(i) => Ok(Value::Integer(i.checked_neg().unwrap_or(i64::MAX))),
                    Value::Real(r) => Ok(Value::Real(-r)),
                    Value::Boolean(b) => Ok(Value::Integer(-i64::from(b))),
                    other => self.coerce_numeric_or_error(&other, "-").map(|n| match n {
                        Num::Int(i) => Value::Integer(i.checked_neg().unwrap_or(i64::MAX)),
                        Num::Real(r) => Value::Real(-r),
                    }),
                }
            }
            UnaryOp::Plus => self.eval(expr, schema, row),
            UnaryOp::BitNot => {
                let v = self.eval(expr, schema, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let i = self.to_integer(&v, "~")?;
                Ok(Value::Integer(!i))
            }
        }
    }

    fn eval_binary<R: RowView + ?Sized>(
        &self,
        op: BinaryOp,
        left: &Expr,
        right: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        match op {
            BinaryOp::And => {
                let l = self.truthiness(left, schema, row)?;
                // Short circuit only on definite FALSE, like the DBMS do.
                if l == TriBool::False {
                    return Ok(self.tribool_value(TriBool::False));
                }
                let r = self.truthiness(right, schema, row)?;
                Ok(self.tribool_value(l.and(r)))
            }
            BinaryOp::Or => {
                let l = self.truthiness(left, schema, row)?;
                if l == TriBool::True {
                    return Ok(self.tribool_value(TriBool::True));
                }
                let r = self.truthiness(right, schema, row)?;
                Ok(self.tribool_value(l.or(r)))
            }
            BinaryOp::Is | BinaryOp::IsNot => {
                if !self.dialect.has_scalar_is() {
                    // The other dialects only support IS [NOT] with NULL /
                    // boolean literals; the NULL form is parsed as IsNull, so
                    // anything reaching here with a non-boolean operand is an
                    // error (this is the dialect gap from Listing 1).
                    let rv = self.eval(right, schema, row)?;
                    if !matches!(rv, Value::Boolean(_) | Value::Null) {
                        return Err(EngineError::semantic(format!(
                            "syntax error: IS {} is not supported for this operand",
                            if op == BinaryOp::IsNot { "NOT" } else { "" }
                        )));
                    }
                    let lv = self.eval(left, schema, row)?;
                    let eq = lv.same_as(&rv);
                    let t: TriBool = (if op == BinaryOp::Is { eq } else { !eq }).into();
                    return Ok(self.tribool_value(t));
                }
                let lv = self.eval(left, schema, row)?;
                let rv = self.eval(right, schema, row)?;
                let coll = self.comparison_collation(left, right, schema);
                let eq = self.values_equal_nullsafe(&lv, &rv, coll);
                let t: TriBool = (if op == BinaryOp::Is { eq } else { !eq }).into();
                Ok(self.tribool_value(t))
            }
            BinaryOp::NullSafeEq => {
                if !self.dialect.has_null_safe_eq() {
                    return Err(EngineError::semantic("syntax error near '<=>'"));
                }
                let lv = self.eval(left, schema, row)?;
                let rv = self.eval(right, schema, row)?;
                // Injected fault: <=> against an out-of-range constant for a
                // TINYINT column misbehaves for NULL values (Listing 12).
                if self.bugs.is_enabled(BugId::MysqlNullSafeEqOutOfRange)
                    && lv.is_null()
                    && self.column_type(left, schema) == Some(TypeName::TinyInt)
                {
                    if let Value::Integer(i) = rv {
                        if !(-128..=127).contains(&i) {
                            return Ok(self.tribool_value(TriBool::True));
                        }
                    }
                }
                let coll = self.comparison_collation(left, right, schema);
                let eq = self.values_equal_nullsafe(&lv, &rv, coll);
                Ok(self.tribool_value(eq.into()))
            }
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                let mut lv = self.eval(left, schema, row)?;
                let mut rv = self.eval(right, schema, row)?;
                // Injected fault: INTEGER-affinity column compared against a
                // REAL constant truncates the constant first (§4.4).
                if self.bugs.is_enabled(BugId::SqliteIntRealComparisonTruncates) {
                    if self.column_type(left, schema) == Some(TypeName::Integer) {
                        if let Value::Real(r) = rv {
                            rv = Value::Integer(real_to_int_saturating(r));
                        }
                    }
                    if self.column_type(right, schema) == Some(TypeName::Integer) {
                        if let Value::Real(r) = lv {
                            lv = Value::Integer(real_to_int_saturating(r));
                        }
                    }
                }
                // Injected fault: comparisons against constants outside the
                // TINYINT range clamp the constant (§4.5 value-range bugs).
                if self.bugs.is_enabled(BugId::MysqlTinyIntRangeCompare) {
                    if self.column_type(left, schema) == Some(TypeName::TinyInt) {
                        if let Value::Integer(i) = rv {
                            rv = Value::Integer(i.clamp(-128, 127));
                        }
                    }
                    if self.column_type(right, schema) == Some(TypeName::TinyInt) {
                        if let Value::Integer(i) = lv {
                            lv = Value::Integer(i.clamp(-128, 127));
                        }
                    }
                }
                let coll = self.comparison_collation(left, right, schema);
                let t = self.compare_values_tri(op, &lv, &rv, coll);
                Ok(self.tribool_value(t))
            }
            BinaryOp::Concat => {
                let lv = self.eval(left, schema, row)?;
                let rv = self.eval(right, schema, row)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let ls = lv.to_text_lenient().unwrap_or_default();
                let rs = rv.to_text_lenient().unwrap_or_default();
                Ok(Value::Text(format!("{ls}{rs}")))
            }
            BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::ShiftLeft | BinaryOp::ShiftRight => {
                let lv = self.eval(left, schema, row)?;
                let rv = self.eval(right, schema, row)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let a = self.to_integer(&lv, "bitwise")?;
                let b = self.to_integer(&rv, "bitwise")?;
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
                self.eval_arithmetic(op, left, right, schema, row)
            }
        }
    }

    fn eval_arithmetic<R: RowView + ?Sized>(
        &self,
        op: BinaryOp,
        left: &Expr,
        right: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        let lv = self.eval(left, schema, row)?;
        let rv = self.eval(right, schema, row)?;
        if lv.is_null() || rv.is_null() {
            return Ok(Value::Null);
        }
        // Injected fault: subtracting a large integer from a TEXT value goes
        // through floating point and loses precision (Listing 2).
        if op == BinaryOp::Sub
            && self.bugs.is_enabled(BugId::SqliteTextMinusIntegerPrecision)
            && matches!(lv, Value::Text(_))
        {
            if let Value::Integer(i) = rv {
                if i.unsigned_abs() > (1_u64 << 53) {
                    let l = lv.to_real_lenient().unwrap_or(0.0);
                    return Ok(Value::Integer(real_to_int_saturating(l - i as f64)));
                }
            }
        }
        let ln = self.coerce_numeric_or_error(&lv, "arithmetic")?;
        let rn = self.coerce_numeric_or_error(&rv, "arithmetic")?;
        // Injected fault: unsigned subtraction wraps to a huge positive value
        // (MySQL intended behaviour, §4.5).
        if op == BinaryOp::Sub
            && self.bugs.is_enabled(BugId::MysqlUnsignedSubtractionWraps)
            && self.column_type(left, schema) == Some(TypeName::Unsigned)
        {
            if let (Num::Int(a), Num::Int(b)) = (ln, rn) {
                if a < b {
                    return Ok(Value::Integer(i64::MAX));
                }
            }
        }
        match (ln, rn) {
            (Num::Int(a), Num::Int(b)) => match op {
                BinaryOp::Add => Ok(match a.checked_add(b) {
                    Some(v) => Value::Integer(v),
                    None => Value::Real(a as f64 + b as f64),
                }),
                BinaryOp::Sub => Ok(match a.checked_sub(b) {
                    Some(v) => Value::Integer(v),
                    None => Value::Real(a as f64 - b as f64),
                }),
                BinaryOp::Mul => Ok(match a.checked_mul(b) {
                    Some(v) => Value::Integer(v),
                    None => Value::Real(a as f64 * b as f64),
                }),
                // `i64::MIN / -1` (and `% -1`) overflow like the other
                // operators; promote to REAL instead of wrapping.
                BinaryOp::Div => {
                    if b == 0 {
                        self.division_by_zero()
                    } else {
                        Ok(match a.checked_div(b) {
                            Some(v) => Value::Integer(v),
                            None => Value::Real(a as f64 / b as f64),
                        })
                    }
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        self.division_by_zero()
                    } else {
                        Ok(match a.checked_rem(b) {
                            Some(v) => Value::Integer(v),
                            None => Value::Real(a as f64 % b as f64),
                        })
                    }
                }
                _ => unreachable!(),
            },
            (a, b) => {
                let a = a.as_real();
                let b = b.as_real();
                let r = match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div => {
                        if b == 0.0 {
                            return self.division_by_zero();
                        }
                        a / b
                    }
                    BinaryOp::Mod => {
                        if b == 0.0 {
                            return self.division_by_zero();
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Real(r))
            }
        }
    }

    fn division_by_zero(&self) -> EngineResult<Value> {
        if self.dialect.strict_typing() {
            Err(EngineError::semantic("division by zero"))
        } else {
            Ok(Value::Null)
        }
    }

    fn eval_like<R: RowView + ?Sized>(
        &self,
        negated: bool,
        expr: &Expr,
        pattern: &Expr,
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        let v = self.eval(expr, schema, row)?;
        let p = self.eval(pattern, schema, row)?;
        if v.is_null() || p.is_null() {
            return Ok(Value::Null);
        }
        // Injected fault: a LIKE pattern ending in a backslash crashes the
        // pattern compiler (simulated SEGFAULT, §4.2).
        if self.bugs.is_enabled(BugId::SqliteLikeEscapeCrash) {
            if let Value::Text(ref pt) = p {
                if pt.ends_with('\\') {
                    return Err(EngineError::crash("SEGFAULT in likeFunc()"));
                }
            }
        }
        // Injected fault: LIKE on BLOB values yields FALSE instead of
        // matching their text conversion (§4.4 type flexibility).
        if self.bugs.is_enabled(BugId::SqliteLikeOnBlobAlwaysFalse) && matches!(v, Value::Blob(_)) {
            let t: TriBool = false.into();
            let t = if negated { t.not() } else { t };
            return Ok(self.tribool_value(t));
        }
        let text = v.to_text_lenient().unwrap_or_default();
        let pat = p.to_text_lenient().unwrap_or_default();
        let matched = like_match(&pat, &text, self.case_sensitive_like);
        let t: TriBool = matched.into();
        let t = if negated { t.not() } else { t };
        Ok(self.tribool_value(t))
    }

    fn eval_function<R: RowView + ?Sized>(
        &self,
        func: ScalarFunc,
        args: &[Expr],
        schema: &RowSchema,
        row: &R,
    ) -> EngineResult<Value> {
        let vals: Vec<Value> =
            args.iter().map(|a| self.eval(a, schema, row)).collect::<EngineResult<_>>()?;
        eval_scalar_function(func, &vals, self.dialect)
    }

    /// Casts a value to a target type under the dialect rules.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid casts in the strict dialect.
    pub fn cast(&self, v: Value, target: TypeName) -> EngineResult<Value> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        match target {
            TypeName::Integer | TypeName::Serial => {
                if self.dialect.strict_typing() {
                    if let Value::Text(ref t) = v {
                        if t.trim().parse::<i64>().is_err() {
                            return Err(EngineError::semantic(format!(
                                "invalid input syntax for type integer: \"{t}\""
                            )));
                        }
                    }
                }
                Ok(Value::Integer(v.to_integer_lenient().unwrap_or(0)))
            }
            TypeName::TinyInt => {
                let i = v.to_integer_lenient().unwrap_or(0);
                Ok(Value::Integer(i.clamp(-128, 127)))
            }
            TypeName::Unsigned => {
                let i = v.to_integer_lenient().unwrap_or(0);
                if i < 0 {
                    // Injected fault: negative values keep their sign instead
                    // of wrapping into the unsigned domain (Listing 11).
                    if self.bugs.is_enabled(BugId::MysqlUnsignedCastNegativeCompare) {
                        Ok(Value::Integer(i))
                    } else {
                        Ok(Value::Integer(i64::MAX))
                    }
                } else {
                    Ok(Value::Integer(i))
                }
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
                            _ => Err(EngineError::semantic(format!(
                                "invalid input syntax for type boolean: \"{t}\""
                            ))),
                        },
                        _ => Err(EngineError::semantic("cannot cast this type to boolean")),
                    }
                } else {
                    Ok(self.tribool_value(v.to_tribool_lenient()))
                }
            }
        }
    }

    /// The static type of a column-reference expression, if it is one.
    fn column_type(&self, expr: &Expr, schema: &RowSchema) -> Option<TypeName> {
        match expr {
            Expr::Column(c) => schema.resolve(c).and_then(|(_, meta)| meta.type_name),
            Expr::Collate { expr, .. } | Expr::Cast { expr, .. } => self.column_type(expr, schema),
            _ => None,
        }
    }

    /// The collation governing comparisons over an expression.
    #[must_use]
    pub fn collation_of(&self, expr: &Expr, schema: &RowSchema) -> Collation {
        match expr {
            Expr::Collate { collation, .. } => *collation,
            Expr::Column(c) => {
                schema.resolve(c).map(|(_, meta)| meta.collation).unwrap_or_default()
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.collation_of(expr, schema),
            Expr::Binary { op: BinaryOp::Concat, left, right } => {
                let l = self.collation_of(left, schema);
                if l != Collation::Binary {
                    l
                } else {
                    self.collation_of(right, schema)
                }
            }
            _ => Collation::Binary,
        }
    }

    fn comparison_collation(&self, left: &Expr, right: &Expr, schema: &RowSchema) -> Collation {
        if !self.dialect.has_collations() {
            return Collation::Binary;
        }
        let l = self.collation_of(left, schema);
        if l != Collation::Binary {
            l
        } else {
            self.collation_of(right, schema)
        }
    }

    /// Three-valued comparison; `None` means unknown (a NULL operand).
    #[must_use]
    pub fn compare_tri(
        &self,
        a: &Value,
        b: &Value,
        collation: Collation,
    ) -> Option<std::cmp::Ordering> {
        if a.is_null() || b.is_null() {
            return None;
        }
        // Injected fault: RTRIM comparisons trim both sides (Listing 5).
        if self.bugs.is_enabled(BugId::SqliteRtrimComparisonTrimsBothSides)
            && collation == Collation::Rtrim
        {
            if let (Value::Text(x), Value::Text(y)) = (a, b) {
                return Some(x.trim().cmp(y.trim()));
            }
        }
        Some(a.total_cmp(b, collation))
    }

    /// Maps a three-valued comparison onto one of the six ordering
    /// operators (the decision step of the comparison arm above).
    /// Callers apply any fault-driven operand mutations *before* this
    /// point.
    fn compare_values_tri(&self, op: BinaryOp, lv: &Value, rv: &Value, coll: Collation) -> TriBool {
        match self.compare_tri(lv, rv, coll) {
            None => TriBool::Unknown,
            Some(ord) => {
                let b = match op {
                    BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
                    BinaryOp::Ne => ord != std::cmp::Ordering::Equal,
                    BinaryOp::Lt => ord == std::cmp::Ordering::Less,
                    BinaryOp::Le => ord != std::cmp::Ordering::Greater,
                    BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinaryOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!("compare_values_tri is only called with ordering operators"),
                };
                b.into()
            }
        }
    }

    fn values_equal_nullsafe(&self, a: &Value, b: &Value, collation: Collation) -> bool {
        match (a.is_null(), b.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.compare_tri(a, b, collation) == Some(std::cmp::Ordering::Equal),
        }
    }

    fn coerce_numeric_or_error(&self, v: &Value, op: &str) -> EngineResult<Num> {
        match v {
            Value::Integer(i) => Ok(Num::Int(*i)),
            Value::Real(r) => Ok(Num::Real(*r)),
            Value::Boolean(b) => Ok(Num::Int(i64::from(*b))),
            Value::Text(t) => {
                if self.dialect.strict_typing() {
                    Err(EngineError::semantic(format!(
                        "invalid input syntax for numeric operator {op}: \"{t}\""
                    )))
                } else {
                    let r = text_numeric_prefix(t);
                    if r.fract() == 0.0 && r.abs() < 9.2e18 && !t.contains('.') && !t.contains('e')
                    {
                        Ok(Num::Int(text_integer_prefix(t)))
                    } else {
                        Ok(Num::Real(r))
                    }
                }
            }
            Value::Blob(_) => {
                if self.dialect.strict_typing() {
                    Err(EngineError::semantic("operator does not accept bytea operands"))
                } else {
                    Ok(Num::Int(0))
                }
            }
            Value::Null => Ok(Num::Int(0)),
        }
    }

    fn to_integer(&self, v: &Value, op: &str) -> EngineResult<i64> {
        match self.coerce_numeric_or_error(v, op)? {
            Num::Int(i) => Ok(i),
            Num::Real(r) => Ok(real_to_int_saturating(r)),
        }
    }
}

/// Internal numeric union used by arithmetic.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(i64),
    Real(f64),
}

impl Num {
    fn as_real(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Real(r) => r,
        }
    }
}

/// SQL `LIKE` matching with `%` and `_` wildcards.
#[must_use]
pub fn like_match(pattern: &str, text: &str, case_sensitive: bool) -> bool {
    let (p, t) = if case_sensitive {
        (pattern.to_owned(), text.to_owned())
    } else {
        (pattern.to_ascii_lowercase(), text.to_ascii_lowercase())
    };
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(rest, &t[k..])),
            Some(('_', rest)) => !t.is_empty() && rec(rest, &t[1..]),
            Some((c, rest)) => t.first() == Some(c) && rec(rest, &t[1..]),
        }
    }
    let pc: Vec<char> = p.chars().collect();
    let tc: Vec<char> = t.chars().collect();
    rec(&pc, &tc)
}

/// Evaluates a scalar function over already-evaluated arguments.
///
/// Exposed so that the aggregate executor can reuse it.
///
/// # Errors
///
/// Returns an error for argument values the function does not accept in the
/// strict dialect.
pub fn eval_scalar_function(
    func: ScalarFunc,
    vals: &[Value],
    dialect: Dialect,
) -> EngineResult<Value> {
    let first = || vals.first().cloned().unwrap_or(Value::Null);
    match func {
        ScalarFunc::Abs => match first() {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => Ok(Value::Integer(i.checked_abs().unwrap_or(i64::MAX))),
            Value::Real(r) => Ok(Value::Real(r.abs())),
            Value::Boolean(b) => Ok(Value::Integer(i64::from(b))),
            other => {
                if dialect.strict_typing() {
                    Err(EngineError::semantic("function abs() does not accept this type"))
                } else {
                    Ok(Value::Real(other.to_real_lenient().unwrap_or(0.0).abs()))
                }
            }
        },
        ScalarFunc::Length => match first() {
            Value::Null => Ok(Value::Null),
            Value::Blob(b) => Ok(Value::Integer(b.len() as i64)),
            other => Ok(Value::Integer(
                other.to_text_lenient().unwrap_or_default().chars().count() as i64,
            )),
        },
        ScalarFunc::Lower => match first() {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(other.to_text_lenient().unwrap_or_default().to_lowercase())),
        },
        ScalarFunc::Upper => match first() {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(other.to_text_lenient().unwrap_or_default().to_uppercase())),
        },
        ScalarFunc::Coalesce => {
            for v in vals {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::IfNull => {
            let a = first();
            if a.is_null() {
                Ok(vals.get(1).cloned().unwrap_or(Value::Null))
            } else {
                Ok(a)
            }
        }
        ScalarFunc::NullIf => {
            let a = first();
            let b = vals.get(1).cloned().unwrap_or(Value::Null);
            if !a.is_null() && !b.is_null() && a.same_as(&b) {
                Ok(Value::Null)
            } else {
                Ok(a)
            }
        }
        ScalarFunc::Min | ScalarFunc::Max => {
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let mut best = vals.first().cloned().unwrap_or(Value::Null);
            for v in &vals[1..] {
                let ord = v.total_cmp(&best, Collation::Binary);
                let better = if func == ScalarFunc::Min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if better {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        ScalarFunc::Hex => match first() {
            Value::Null => Ok(Value::Null),
            Value::Blob(b) => {
                Ok(Value::Text(b.iter().map(|x| format!("{x:02X}")).collect::<String>()))
            }
            other => {
                let t = other.to_text_lenient().unwrap_or_default();
                Ok(Value::Text(t.bytes().map(|x| format!("{x:02X}")).collect::<String>()))
            }
        },
        ScalarFunc::TypeOf => Ok(Value::Text(first().storage_class().to_string())),
        ScalarFunc::Trim => match first() {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(other.to_text_lenient().unwrap_or_default().trim().to_owned())),
        },
        ScalarFunc::Ltrim => match first() {
            Value::Null => Ok(Value::Null),
            other => {
                Ok(Value::Text(other.to_text_lenient().unwrap_or_default().trim_start().to_owned()))
            }
        },
        ScalarFunc::Rtrim => match first() {
            Value::Null => Ok(Value::Null),
            other => {
                Ok(Value::Text(other.to_text_lenient().unwrap_or_default().trim_end().to_owned()))
            }
        },
        ScalarFunc::Replace => {
            if vals.iter().take(3).any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = vals[0].to_text_lenient().unwrap_or_default();
            let from = vals[1].to_text_lenient().unwrap_or_default();
            let to = vals[2].to_text_lenient().unwrap_or_default();
            if from.is_empty() {
                Ok(Value::Text(s))
            } else {
                Ok(Value::Text(s.replace(&from, &to)))
            }
        }
        ScalarFunc::Substr => {
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = vals[0].to_text_lenient().unwrap_or_default();
            let chars: Vec<char> = s.chars().collect();
            let start = vals[1].to_integer_lenient().unwrap_or(1);
            let len = vals.get(2).and_then(Value::to_integer_lenient).unwrap_or(i64::MAX);
            if len < 0 {
                return Ok(Value::Text(String::new()));
            }
            // SQL SUBSTR is 1-based; 0 and negative starts follow SQLite rules
            // (negative counts from the end).
            let begin: i64 = if start > 0 {
                start - 1
            } else if start < 0 {
                (chars.len() as i64 + start).max(0)
            } else {
                0
            };
            let begin = begin.clamp(0, chars.len() as i64) as usize;
            let end = (begin as i64).saturating_add(len).clamp(0, chars.len() as i64) as usize;
            Ok(Value::Text(chars[begin..end].iter().collect()))
        }
        ScalarFunc::Instr => {
            if vals.iter().take(2).any(Value::is_null) {
                return Ok(Value::Null);
            }
            let hay = vals[0].to_text_lenient().unwrap_or_default();
            let needle = vals[1].to_text_lenient().unwrap_or_default();
            if needle.is_empty() {
                return Ok(Value::Integer(if hay.is_empty() { 0 } else { 1 }));
            }
            match hay.find(&needle) {
                Some(byte_pos) => {
                    let char_pos = hay[..byte_pos].chars().count() as i64 + 1;
                    Ok(Value::Integer(char_pos))
                }
                None => Ok(Value::Integer(0)),
            }
        }
    }
}

/// Evaluates an aggregate function over a column of values (one per row).
///
/// # Errors
///
/// Returns an error if `SUM`/`AVG` is applied to values that cannot be
/// interpreted numerically in the strict dialect.
pub fn eval_aggregate(
    func: AggFunc,
    values: &[Value],
    distinct: bool,
    dialect: Dialect,
) -> EngineResult<Value> {
    let mut vals: Vec<Value> = values.iter().filter(|v| !v.is_null()).cloned().collect();
    if distinct {
        let mut seen: Vec<Value> = Vec::new();
        vals.retain(|v| {
            if seen.iter().any(|s| s.same_as(v)) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
    match func {
        AggFunc::Count => Ok(Value::Integer(vals.len() as i64)),
        AggFunc::Min | AggFunc::Max => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut best = vals[0].clone();
            for v in &vals[1..] {
                let ord = v.total_cmp(&best, Collation::Binary);
                let better = if func == AggFunc::Min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if better {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        AggFunc::Sum | AggFunc::Avg => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut all_int = true;
            let mut sum_i: i64 = 0;
            let mut sum_f: f64 = 0.0;
            for v in &vals {
                match v {
                    Value::Integer(i) => {
                        sum_f += *i as f64;
                        match sum_i.checked_add(*i) {
                            Some(s) => sum_i = s,
                            None => all_int = false,
                        }
                    }
                    Value::Real(r) => {
                        all_int = false;
                        sum_f += r;
                    }
                    Value::Boolean(b) => {
                        sum_f += f64::from(u8::from(*b));
                        sum_i = sum_i.saturating_add(i64::from(*b));
                    }
                    other => {
                        if dialect.strict_typing() {
                            return Err(EngineError::semantic("function sum(text) does not exist"));
                        }
                        all_int = false;
                        sum_f += other.to_real_lenient().unwrap_or(0.0);
                    }
                }
            }
            if func == AggFunc::Avg {
                Ok(Value::Real(sum_f / vals.len() as f64))
            } else if all_int {
                Ok(Value::Integer(sum_i))
            } else {
                Ok(Value::Real(sum_f))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::parser::parse_expression;

    const NO_ROW: &[Value] = &[];

    fn eval_const(dialect: Dialect, sql: &str) -> EngineResult<Value> {
        let bugs = BugProfile::none();
        let ev = Evaluator::new(dialect, &bugs);
        let e = parse_expression(sql).unwrap();
        ev.eval(&e, &RowSchema::empty(), NO_ROW)
    }

    #[test]
    fn three_valued_logic_over_null() {
        assert_eq!(eval_const(Dialect::Sqlite, "NULL AND 0").unwrap(), Value::Integer(0));
        assert_eq!(eval_const(Dialect::Sqlite, "NULL AND 1").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "NULL OR 1").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "NULL IS NULL").unwrap(), Value::Integer(1));
    }

    #[test]
    fn scalar_is_not_only_in_sqlite() {
        assert_eq!(eval_const(Dialect::Sqlite, "NULL IS NOT 1").unwrap(), Value::Integer(1));
        assert!(eval_const(Dialect::Postgres, "NULL IS NOT 1").is_err());
        assert!(eval_const(Dialect::Mysql, "2 IS NOT 1").is_err());
        assert_eq!(eval_const(Dialect::Mysql, "NULL <=> NULL").unwrap(), Value::Integer(1));
        assert!(eval_const(Dialect::Sqlite, "NULL <=> NULL").is_err());
    }

    #[test]
    fn arithmetic_and_division() {
        assert_eq!(eval_const(Dialect::Sqlite, "1 + 2 * 3").unwrap(), Value::Integer(7));
        assert_eq!(eval_const(Dialect::Sqlite, "7 / 2").unwrap(), Value::Integer(3));
        assert_eq!(eval_const(Dialect::Sqlite, "7 % 0").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "1 / 0").unwrap(), Value::Null);
        assert!(eval_const(Dialect::Postgres, "1 / 0").is_err());
        // Overflow promotes to real.
        assert!(matches!(
            eval_const(Dialect::Sqlite, "9223372036854775807 + 1").unwrap(),
            Value::Real(_)
        ));
        // Text minus integer keeps exact integer semantics without the fault.
        assert_eq!(
            eval_const(Dialect::Sqlite, "'' - 2851427734582196970").unwrap(),
            Value::Integer(-2851427734582196970)
        );
    }

    #[test]
    fn division_overflow_promotes_to_real_in_every_dialect() {
        // `i64::MIN / -1` (and `% -1`) cannot be represented as an
        // integer; like `+`/`-`/`*` overflow, the result promotes to
        // REAL instead of silently wrapping back to `i64::MIN`.
        const MIN: &str = "(-9223372036854775807 - 1)";
        for d in [Dialect::Sqlite, Dialect::Mysql, Dialect::Postgres, Dialect::Duckdb] {
            assert_eq!(
                eval_const(d, &format!("{MIN} / -1")).unwrap(),
                Value::Real(9_223_372_036_854_775_808.0),
                "{d:?}: MIN / -1 must promote"
            );
            assert_eq!(
                eval_const(d, &format!("{MIN} % -1")).unwrap(),
                Value::Real(0.0),
                "{d:?}: MIN % -1 must promote"
            );
            // Plain divisions stay integer.
            assert_eq!(eval_const(d, "7 / -1").unwrap(), Value::Integer(-7));
            assert_eq!(eval_const(d, &format!("{MIN} / 1")).unwrap(), Value::Integer(i64::MIN));
        }
    }

    #[test]
    fn text_arithmetic_strictness() {
        assert_eq!(eval_const(Dialect::Sqlite, "'3abc' + 1").unwrap(), Value::Integer(4));
        assert!(eval_const(Dialect::Postgres, "'3abc' + 1").is_err());
    }

    #[test]
    fn comparisons_and_collations() {
        assert_eq!(eval_const(Dialect::Sqlite, "1 < 2").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "'a' = 'A'").unwrap(), Value::Integer(0));
        assert_eq!(
            eval_const(Dialect::Sqlite, "'a' = 'A' COLLATE NOCASE").unwrap(),
            Value::Integer(1)
        );
        assert_eq!(
            eval_const(Dialect::Sqlite, "'x  ' = 'x' COLLATE RTRIM").unwrap(),
            Value::Integer(1)
        );
        // Cross-class: numbers sort before text.
        assert_eq!(eval_const(Dialect::Sqlite, "5 < 'a'").unwrap(), Value::Integer(1));
    }

    #[test]
    fn like_matching() {
        assert_eq!(eval_const(Dialect::Sqlite, "'abc' LIKE 'a%'").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "'abc' LIKE 'A_C'").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "'abc' NOT LIKE 'x%'").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "NULL LIKE 'x%'").unwrap(), Value::Null);
        assert!(like_match("./", "./", false));
        assert!(!like_match("a", "ab", false));
        assert!(like_match("%", "", false));
    }

    #[test]
    fn between_and_in() {
        assert_eq!(eval_const(Dialect::Sqlite, "2 BETWEEN 1 AND 3").unwrap(), Value::Integer(1));
        assert_eq!(
            eval_const(Dialect::Sqlite, "2 NOT BETWEEN 1 AND 3").unwrap(),
            Value::Integer(0)
        );
        assert_eq!(eval_const(Dialect::Sqlite, "NULL BETWEEN 1 AND 3").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "2 IN (1, 2, 3)").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "5 NOT IN (1, 2)").unwrap(), Value::Integer(1));
    }

    #[test]
    fn case_and_cast() {
        assert_eq!(
            eval_const(Dialect::Sqlite, "CASE WHEN 1 THEN 'a' ELSE 'b' END").unwrap(),
            Value::Text("a".into())
        );
        assert_eq!(
            eval_const(Dialect::Sqlite, "CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END").unwrap(),
            Value::Text("b".into())
        );
        assert_eq!(eval_const(Dialect::Sqlite, "CASE WHEN 0 THEN 'a' END").unwrap(), Value::Null);
        assert_eq!(
            eval_const(Dialect::Sqlite, "CAST('42abc' AS INT)").unwrap(),
            Value::Integer(42)
        );
        assert!(eval_const(Dialect::Postgres, "CAST('42abc' AS INT)").is_err());
        assert_eq!(
            eval_const(Dialect::Mysql, "CAST(-1 AS UNSIGNED)").unwrap(),
            Value::Integer(i64::MAX),
            "negative casts saturate to the unsigned stand-in without the fault"
        );
        assert_eq!(
            eval_const(Dialect::Postgres, "CAST('true' AS BOOLEAN)").unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn functions() {
        assert_eq!(eval_const(Dialect::Sqlite, "ABS(-3)").unwrap(), Value::Integer(3));
        assert_eq!(eval_const(Dialect::Sqlite, "LENGTH('abc')").unwrap(), Value::Integer(3));
        assert_eq!(eval_const(Dialect::Sqlite, "COALESCE(NULL, 2)").unwrap(), Value::Integer(2));
        assert_eq!(
            eval_const(Dialect::Sqlite, "IFNULL(NULL, 'x')").unwrap(),
            Value::Text("x".into())
        );
        assert_eq!(eval_const(Dialect::Sqlite, "NULLIF(1, 1)").unwrap(), Value::Null);
        assert_eq!(eval_const(Dialect::Sqlite, "MIN(3, 1, 2)").unwrap(), Value::Integer(1));
        assert_eq!(eval_const(Dialect::Sqlite, "HEX('AB')").unwrap(), Value::Text("4142".into()));
        assert_eq!(eval_const(Dialect::Sqlite, "TYPEOF(1.5)").unwrap(), Value::Text("real".into()));
        assert_eq!(eval_const(Dialect::Sqlite, "TRIM('  a ')").unwrap(), Value::Text("a".into()));
        assert_eq!(
            eval_const(Dialect::Sqlite, "REPLACE('abcabc', 'b', 'x')").unwrap(),
            Value::Text("axcaxc".into())
        );
        assert_eq!(
            eval_const(Dialect::Sqlite, "SUBSTR('hello', 2, 3)").unwrap(),
            Value::Text("ell".into())
        );
        assert_eq!(
            eval_const(Dialect::Sqlite, "SUBSTR('hello', -3)").unwrap(),
            Value::Text("llo".into())
        );
        assert_eq!(eval_const(Dialect::Sqlite, "INSTR('hello', 'll')").unwrap(), Value::Integer(3));
        assert_eq!(eval_const(Dialect::Sqlite, "INSTR('hello', 'z')").unwrap(), Value::Integer(0));
        assert_eq!(eval_const(Dialect::Sqlite, "UPPER('ab')").unwrap(), Value::Text("AB".into()));
    }

    #[test]
    fn postgres_strict_where_typing() {
        let bugs = BugProfile::none();
        let ev = Evaluator::new(Dialect::Postgres, &bugs);
        let e = parse_expression("1 + 1").unwrap();
        assert!(ev.eval_predicate(&e, &RowSchema::empty(), NO_ROW).is_err());
        let e = parse_expression("1 < 2").unwrap();
        assert_eq!(ev.eval_predicate(&e, &RowSchema::empty(), NO_ROW).unwrap(), TriBool::True);
        let lenient = Evaluator::new(Dialect::Sqlite, &bugs);
        let e = parse_expression("2").unwrap();
        assert_eq!(lenient.eval_predicate(&e, &RowSchema::empty(), NO_ROW).unwrap(), TriBool::True);
    }

    #[test]
    fn aggregates() {
        let vals = vec![Value::Integer(1), Value::Null, Value::Integer(3), Value::Integer(1)];
        assert_eq!(
            eval_aggregate(AggFunc::Count, &vals, false, Dialect::Sqlite).unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            eval_aggregate(AggFunc::Count, &vals, true, Dialect::Sqlite).unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            eval_aggregate(AggFunc::Sum, &vals, false, Dialect::Sqlite).unwrap(),
            Value::Integer(5)
        );
        assert_eq!(
            eval_aggregate(AggFunc::Min, &vals, false, Dialect::Sqlite).unwrap(),
            Value::Integer(1)
        );
        assert_eq!(
            eval_aggregate(AggFunc::Max, &vals, false, Dialect::Sqlite).unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            eval_aggregate(AggFunc::Avg, &vals, true, Dialect::Sqlite).unwrap(),
            Value::Real(2.0)
        );
        assert_eq!(eval_aggregate(AggFunc::Sum, &[], false, Dialect::Sqlite).unwrap(), Value::Null);
        assert!(eval_aggregate(AggFunc::Sum, &[Value::Text("a".into())], false, Dialect::Postgres)
            .is_err());
    }

    #[test]
    fn value_level_fault_hooks_change_results() {
        // Text-minus-integer precision loss (Listing 2).
        let bugs = BugProfile::with(&[BugId::SqliteTextMinusIntegerPrecision]);
        let ev = Evaluator::new(Dialect::Sqlite, &bugs);
        let e = parse_expression("'' - 2851427734582196970").unwrap();
        let buggy = ev.eval(&e, &RowSchema::empty(), NO_ROW).unwrap();
        assert_ne!(buggy, Value::Integer(-2851427734582196970));

        // Unsigned cast keeps the negative value (Listing 11).
        let bugs = BugProfile::with(&[BugId::MysqlUnsignedCastNegativeCompare]);
        let ev = Evaluator::new(Dialect::Mysql, &bugs);
        let e = parse_expression("CAST(-1 AS UNSIGNED)").unwrap();
        assert_eq!(ev.eval(&e, &RowSchema::empty(), NO_ROW).unwrap(), Value::Integer(-1));

        // Double negation folded (Listing 13).
        let bugs = BugProfile::with(&[BugId::MysqlDoubleNegationFolded]);
        let ev = Evaluator::new(Dialect::Mysql, &bugs);
        let e = parse_expression("NOT (NOT 123)").unwrap();
        assert_eq!(ev.eval(&e, &RowSchema::empty(), NO_ROW).unwrap(), Value::Integer(123));

        // LIKE escape crash.
        let bugs = BugProfile::with(&[BugId::SqliteLikeEscapeCrash]);
        let ev = Evaluator::new(Dialect::Sqlite, &bugs);
        let e = parse_expression("'abc' LIKE 'a\\'").unwrap();
        let err = ev.eval(&e, &RowSchema::empty(), NO_ROW).unwrap_err();
        assert!(err.is_crash());
    }

    #[test]
    fn small_double_text_fault_only_changes_boolean_context() {
        let bugs = BugProfile::with(&[BugId::MysqlSmallDoubleTextFalse]);
        let ev = Evaluator::new(Dialect::Mysql, &bugs);
        assert_eq!(ev.value_to_tribool(&Value::Text("0.5".into())).unwrap(), TriBool::False);
        let clean = BugProfile::none();
        let ev = Evaluator::new(Dialect::Mysql, &clean);
        assert_eq!(ev.value_to_tribool(&Value::Text("0.5".into())).unwrap(), TriBool::True);
    }
}
