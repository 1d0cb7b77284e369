//! The engine's expression evaluator.
//!
//! This is the *DBMS side* of expression evaluation: it implements the
//! dialect semantics (implicit conversions, collations, three-valued logic)
//! and contains the value-level fault hooks.  SQLancer's ground-truth AST
//! interpreter lives in `lancer-core::interp` and is an independent
//! implementation of the same semantics — divergence between the two (with
//! all faults disabled) would be a bug in this reproduction and is guarded
//! against by cross-crate property tests.  The interpreter resolves names
//! itself, so it also checks this module's binder.
//!
//! **Bind once, evaluate by reference.**  Evaluation has two steps.
//! [`Evaluator::bind`] turns an [`Expr`] into a [`BoundExpr`] of the same
//! shape against one [`RowSchema`]: each column reference becomes its flat
//! index, collation and declared type, and each comparison records its
//! collation and its operands' declared types, so no name is looked up
//! per row.  [`Evaluator::eval_bound`] then evaluates the bound tree
//! against a [`RowView`] and returns a `Cow<Value>`: column and literal
//! leaves come back borrowed from the row and the tree, and `LIKE` matches
//! borrowed text.  Values are cloned only where they are kept: in an
//! output row, an aggregate input or an index key.  Every per-row loop in
//! the executor binds once per query or statement; [`Evaluator::eval`]
//! (bind, then evaluate) is for one-shot callers.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;

use lancer_sql::ast::expr::{AggFunc, BinaryOp, ColumnRef, Expr, ScalarFunc, TypeName, UnaryOp};
use lancer_sql::collation::Collation;
use lancer_sql::value::{
    real_to_int_saturating, text_integer_prefix, text_numeric_prefix, TriBool, Value,
};
use lancer_storage::schema::{ColumnMeta, TableSchema};

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

    /// The schema of one table's rows.
    pub(crate) fn of_table(table: &TableSchema) -> RowSchema {
        RowSchema::single(SourceSchema { name: table.name.clone(), columns: table.columns.clone() })
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

    /// Every column in order, each as a bound column leaf (what `*`
    /// projects).
    pub(crate) fn column_leaves<'e>(&self) -> impl Iterator<Item = BoundExpr<'e>> + '_ {
        self.sources.iter().flat_map(|s| &s.columns).enumerate().map(|(index, meta)| {
            BoundExpr::Column { index, collation: meta.collation, type_name: meta.type_name }
        })
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

/// An expression bound to one [`RowSchema`] by [`Evaluator::bind`].
///
/// The tree has the AST's shape, node for node and in the same order, so
/// the fault hooks that inspect shape (a nested `NOT`, a `LIKE` over a
/// column) see what they would see on the AST.  Binding resolves every
/// name once: a column leaf carries its flat index, collation and declared
/// type, and a comparison carries the collation it compares under and the
/// declared types of its operands.  Literals are borrowed from the AST.
#[derive(Debug, Clone)]
pub enum BoundExpr<'e> {
    /// A literal: borrowed from the AST, or owned when a rewrite made it.
    Literal(Cow<'e, Value>),
    /// A column reference that resolves.
    Column {
        /// The column's flat index in the (joined) row.
        index: usize,
        /// The column's collation.
        collation: Collation,
        /// The column's declared type.
        type_name: Option<TypeName>,
    },
    /// A column reference that resolves nowhere.  It acts only when a row
    /// reaches it: SQLite reads an unqualified name as a string (its
    /// double-quoted-string fallback, Listing 8), any other case errors.
    Unresolved(&'e ColumnRef),
    /// A unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<BoundExpr<'e>>,
    },
    /// A binary operator.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// The left operand.
        left: Box<BoundExpr<'e>>,
        /// The right operand.
        right: Box<BoundExpr<'e>>,
        /// The collation a comparison of the operands uses.
        collation: Collation,
        /// The declared types of the left and right operands (`None`
        /// unless an operand is a column, seen through `CAST`/`COLLATE`).
        types: [Option<TypeName>; 2],
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// `NOT LIKE`.
        negated: bool,
        /// The matched value.
        expr: Box<BoundExpr<'e>>,
        /// The pattern.
        pattern: Box<BoundExpr<'e>>,
        /// The pattern's text when the pattern is a non-NULL literal.
        pattern_text: Option<Cow<'e, str>>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// `NOT BETWEEN`.
        negated: bool,
        /// The tested value.
        expr: Box<BoundExpr<'e>>,
        /// The lower bound.
        low: Box<BoundExpr<'e>>,
        /// The upper bound.
        high: Box<BoundExpr<'e>>,
        /// The collation of `expr`, which both comparisons use.
        collation: Collation,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// `NOT IN`.
        negated: bool,
        /// The tested value.
        expr: Box<BoundExpr<'e>>,
        /// The list items.
        list: Vec<BoundExpr<'e>>,
        /// The collation of `expr`, which every comparison uses.
        collation: Collation,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// `IS NOT NULL`.
        negated: bool,
        /// The tested value.
        expr: Box<BoundExpr<'e>>,
    },
    /// `CAST(expr AS type_name)`.
    Cast {
        /// The operand.
        expr: Box<BoundExpr<'e>>,
        /// The target type.
        type_name: TypeName,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// The operand of a simple `CASE`.
        operand: Option<Box<BoundExpr<'e>>>,
        /// The `(WHEN, THEN)` pairs.
        branches: Vec<(BoundExpr<'e>, BoundExpr<'e>)>,
        /// The `ELSE` branch.
        else_expr: Option<Box<BoundExpr<'e>>>,
        /// The collation of the operand, which every `WHEN` comparison
        /// uses (`BINARY` without an operand).
        collation: Collation,
    },
    /// A scalar function call.
    Function {
        /// The function.
        func: ScalarFunc,
        /// The arguments.
        args: Vec<BoundExpr<'e>>,
    },
    /// An aggregate call, which is an error when a row reaches it (the
    /// aggregate executor folds aggregates itself).
    Aggregate {
        /// The argument (`None` for `COUNT(*)`).
        arg: Option<Box<BoundExpr<'e>>>,
    },
    /// `expr COLLATE collation`.
    Collate {
        /// The operand.
        expr: Box<BoundExpr<'e>>,
        /// The collation.
        collation: Collation,
    },
}

impl<'e> BoundExpr<'e> {
    /// The collation governing comparisons over this expression.
    pub(crate) fn collation(&self) -> Collation {
        match self {
            BoundExpr::Collate { collation, .. } | BoundExpr::Column { collation, .. } => {
                *collation
            }
            BoundExpr::Unary { expr, .. } | BoundExpr::Cast { expr, .. } => expr.collation(),
            BoundExpr::Binary { op: BinaryOp::Concat, left, right, .. } => {
                let l = left.collation();
                if l != Collation::Binary {
                    l
                } else {
                    right.collation()
                }
            }
            _ => Collation::Binary,
        }
    }

    /// The declared type of a column-reference expression, if it is one.
    fn column_type(&self) -> Option<TypeName> {
        match self {
            BoundExpr::Column { type_name, .. } => *type_name,
            BoundExpr::Collate { expr, .. } | BoundExpr::Cast { expr, .. } => expr.column_type(),
            _ => None,
        }
    }

    /// Calls `f` on each direct child, in the order of
    /// [`Expr::for_each_child`].
    pub fn for_each_child(&self, f: &mut impl FnMut(&BoundExpr<'e>)) {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column { .. } | BoundExpr::Unresolved(_) => {}
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::Collate { expr, .. } => f(expr),
            BoundExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            BoundExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BoundExpr::Case { operand, branches, else_expr, .. } => {
                if let Some(op) = operand {
                    f(op);
                }
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            BoundExpr::Function { args, .. } => args.iter().for_each(f),
            BoundExpr::Aggregate { arg } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
        }
    }
}

/// Dialect-aware expression evaluator over a single (joined) row.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator {
    /// The SQL dialect being emulated.
    pub dialect: Dialect,
    /// The enabled fault profile.
    pub bugs: BugProfile,
    /// Whether `LIKE` is case sensitive (SQLite `PRAGMA case_sensitive_like`).
    pub case_sensitive_like: bool,
}

impl Evaluator {
    /// Creates an evaluator.
    #[must_use]
    pub fn new(dialect: Dialect, bugs: &BugProfile) -> Evaluator {
        Evaluator { dialect, bugs: *bugs, case_sensitive_like: false }
    }

    /// Binds an expression to a row schema (see [`BoundExpr`]).  A loop
    /// over rows binds once and evaluates each row with
    /// [`Evaluator::eval_bound`].
    #[must_use]
    pub fn bind<'e>(&self, expr: &'e Expr, schema: &RowSchema) -> BoundExpr<'e> {
        let bind = |e: &'e Expr| Box::new(self.bind(e, schema));
        match expr {
            Expr::Literal(v) => BoundExpr::Literal(Cow::Borrowed(v)),
            Expr::Column(c) => match schema.resolve(c) {
                Some((index, meta)) => BoundExpr::Column {
                    index,
                    collation: meta.collation,
                    type_name: meta.type_name,
                },
                None => BoundExpr::Unresolved(c),
            },
            Expr::Unary { op, expr } => BoundExpr::Unary { op: *op, expr: bind(expr) },
            Expr::Binary { op, left, right } => {
                let (left, right) = (bind(left), bind(right));
                let collation = self.comparison_collation(&left, &right);
                let types = [left.column_type(), right.column_type()];
                BoundExpr::Binary { op: *op, left, right, collation, types }
            }
            Expr::Like { negated, expr, pattern } => {
                let pattern_text = match &**pattern {
                    Expr::Literal(Value::Text(t)) => Some(Cow::Borrowed(t.as_str())),
                    Expr::Literal(v) => v.to_text_lenient().map(Cow::Owned),
                    _ => None,
                };
                BoundExpr::Like {
                    negated: *negated,
                    expr: bind(expr),
                    pattern: bind(pattern),
                    pattern_text,
                }
            }
            Expr::Between { negated, expr, low, high } => {
                let expr = bind(expr);
                BoundExpr::Between {
                    negated: *negated,
                    collation: expr.collation(),
                    expr,
                    low: bind(low),
                    high: bind(high),
                }
            }
            Expr::InList { negated, expr, list } => {
                let expr = bind(expr);
                BoundExpr::InList {
                    negated: *negated,
                    collation: expr.collation(),
                    expr,
                    list: list.iter().map(|e| self.bind(e, schema)).collect(),
                }
            }
            Expr::IsNull { negated, expr } => {
                BoundExpr::IsNull { negated: *negated, expr: bind(expr) }
            }
            Expr::Cast { expr, type_name } => {
                BoundExpr::Cast { expr: bind(expr), type_name: *type_name }
            }
            Expr::Case { operand, branches, else_expr } => {
                let operand = operand.as_deref().map(bind);
                BoundExpr::Case {
                    collation: operand.as_ref().map_or(Collation::Binary, |o| o.collation()),
                    operand,
                    branches: branches
                        .iter()
                        .map(|(w, t)| (self.bind(w, schema), self.bind(t, schema)))
                        .collect(),
                    else_expr: else_expr.as_deref().map(bind),
                }
            }
            Expr::Function { func, args } => BoundExpr::Function {
                func: *func,
                args: args.iter().map(|a| self.bind(a, schema)).collect(),
            },
            Expr::Aggregate { arg, .. } => BoundExpr::Aggregate { arg: arg.as_deref().map(bind) },
            Expr::Collate { expr, collation } => {
                BoundExpr::Collate { expr: bind(expr), collation: *collation }
            }
        }
    }

    /// Evaluates an expression against one row: binds it, then evaluates
    /// the bound tree.  For one-shot evaluation (constant `INSERT`
    /// values, tests); a loop over rows binds once instead.
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
        let bound = self.bind(expr, schema);
        self.eval_bound(&bound, row).map(Cow::into_owned)
    }

    /// Evaluates a bound expression against one row.  Column and literal
    /// leaves come back borrowed (from the row and the bound tree); only
    /// computed values are owned, so a caller clones a value only where it
    /// keeps it.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::eval`].
    pub fn eval_bound<'r, R: RowView + ?Sized>(
        &self,
        expr: &'r BoundExpr<'_>,
        row: &'r R,
    ) -> EngineResult<Cow<'r, Value>> {
        let t = match expr {
            BoundExpr::Literal(v) => return Ok(Cow::Borrowed(v)),
            BoundExpr::Column { index, .. } => {
                return Ok(row.value(*index).map_or(Cow::Owned(Value::Null), Cow::Borrowed))
            }
            BoundExpr::Unresolved(c) => {
                return if self.dialect == Dialect::Sqlite && c.table.is_none() {
                    // SQLite's double-quoted-string fallback (Listing 8).
                    Ok(Cow::Owned(Value::Text(c.column.clone())))
                } else {
                    Err(EngineError::semantic(format!("no such column: {}", c.column)))
                };
            }
            BoundExpr::Unary { op, expr } => return self.eval_unary(*op, expr, row),
            BoundExpr::Binary { op, left, right, collation, types } => {
                return self.eval_binary(*op, left, right, *collation, *types, row)
            }
            BoundExpr::Like { negated, expr, pattern, pattern_text } => {
                return self
                    .eval_like(*negated, expr, pattern, pattern_text.as_deref(), row)
                    .map(Cow::Owned)
            }
            BoundExpr::Between { negated, expr, low, high, collation } => {
                let v = self.eval_bound(expr, row)?;
                let lo = self.eval_bound(low, row)?;
                let hi = self.eval_bound(high, row)?;
                let ge = self.compare_tri(&v, &lo, *collation).map(|o| o != Ordering::Less);
                let le = self.compare_tri(&v, &hi, *collation).map(|o| o != Ordering::Greater);
                let t = TriBool::from_option(ge).and(TriBool::from_option(le));
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            BoundExpr::InList { negated, expr, list, collation } => {
                let v = self.eval_bound(expr, row)?;
                let mut any_unknown = false;
                let mut found = false;
                for item in list {
                    let iv = self.eval_bound(item, row)?;
                    match self.compare_tri(&v, &iv, *collation) {
                        None => any_unknown = true,
                        Some(Ordering::Equal) => {
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
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            BoundExpr::IsNull { negated, expr } => {
                let v = self.eval_bound(expr, row)?;
                (v.is_null() != *negated).into()
            }
            BoundExpr::Cast { expr, type_name } => {
                let v = self.eval_bound(expr, row)?;
                return self.cast(&v, *type_name).map(Cow::Owned);
            }
            BoundExpr::Case { operand, branches, else_expr, collation } => {
                match operand {
                    Some(op) => {
                        let base = self.eval_bound(op, row)?;
                        for (when, then) in branches {
                            let wv = self.eval_bound(when, row)?;
                            if self.compare_tri(&base, &wv, *collation) == Some(Ordering::Equal) {
                                return self.eval_bound(then, row);
                            }
                        }
                    }
                    None => {
                        for (when, then) in branches {
                            if self.eval_bound_predicate(when, row)?.is_true() {
                                return self.eval_bound(then, row);
                            }
                        }
                    }
                }
                return match else_expr {
                    Some(e) => self.eval_bound(e, row),
                    None => Ok(Cow::Owned(Value::Null)),
                };
            }
            BoundExpr::Function { func, args } => {
                return self.eval_function(*func, args, row).map(Cow::Owned)
            }
            BoundExpr::Aggregate { .. } => {
                return Err(EngineError::semantic(
                    "aggregate functions are not allowed in this context",
                ))
            }
            BoundExpr::Collate { expr, .. } => return self.eval_bound(expr, row),
        };
        Ok(Cow::Owned(self.tribool_value(t)))
    }

    /// Evaluates a bound expression as a predicate (`WHERE` / `HAVING` /
    /// `ON`).
    ///
    /// # Errors
    ///
    /// In the PostgreSQL-like dialect, non-boolean predicate results are a
    /// type error; the other dialects convert implicitly.
    pub fn eval_bound_predicate<R: RowView + ?Sized>(
        &self,
        expr: &BoundExpr<'_>,
        row: &R,
    ) -> EngineResult<TriBool> {
        let v = self.eval_bound(expr, row)?;
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

    fn tribool_value(&self, t: TriBool) -> Value {
        if self.dialect.strict_typing() {
            t.to_bool_value()
        } else {
            t.to_int_value()
        }
    }

    fn eval_unary<'r, R: RowView + ?Sized>(
        &self,
        op: UnaryOp,
        expr: &'r BoundExpr<'_>,
        row: &'r R,
    ) -> EngineResult<Cow<'r, Value>> {
        let v = match op {
            UnaryOp::Not => {
                // Injected fault: MySQL folds double negation for integer
                // operands (Listing 13).
                if self.bugs.is_enabled(BugId::MysqlDoubleNegationFolded) {
                    if let BoundExpr::Unary { op: UnaryOp::Not, expr: inner } = expr {
                        return self.eval_bound(inner, row);
                    }
                }
                let t = self.eval_bound_predicate(expr, row)?;
                self.tribool_value(t.not())
            }
            UnaryOp::Neg => match &*self.eval_bound(expr, row)? {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(i.checked_neg().unwrap_or(i64::MAX)),
                Value::Real(r) => Value::Real(-r),
                Value::Boolean(b) => Value::Integer(-i64::from(*b)),
                other => match self.coerce_numeric_or_error(other, "-")? {
                    Num::Int(i) => Value::Integer(i.checked_neg().unwrap_or(i64::MAX)),
                    Num::Real(r) => Value::Real(-r),
                },
            },
            UnaryOp::Plus => return self.eval_bound(expr, row),
            UnaryOp::BitNot => {
                let v = self.eval_bound(expr, row)?;
                if v.is_null() {
                    Value::Null
                } else {
                    Value::Integer(!self.integer_of(&v, "~")?)
                }
            }
        };
        Ok(Cow::Owned(v))
    }

    fn eval_binary<'r, R: RowView + ?Sized>(
        &self,
        op: BinaryOp,
        left: &'r BoundExpr<'_>,
        right: &'r BoundExpr<'_>,
        collation: Collation,
        types: [Option<TypeName>; 2],
        row: &'r R,
    ) -> EngineResult<Cow<'r, Value>> {
        let t: TriBool = match op {
            BinaryOp::And => {
                let l = self.eval_bound_predicate(left, row)?;
                // Short circuit only on definite FALSE, like the DBMS do.
                if l == TriBool::False {
                    TriBool::False
                } else {
                    l.and(self.eval_bound_predicate(right, row)?)
                }
            }
            BinaryOp::Or => {
                let l = self.eval_bound_predicate(left, row)?;
                if l == TriBool::True {
                    TriBool::True
                } else {
                    l.or(self.eval_bound_predicate(right, row)?)
                }
            }
            BinaryOp::Is | BinaryOp::IsNot => {
                let eq = if self.dialect.has_scalar_is() {
                    let lv = self.eval_bound(left, row)?;
                    let rv = self.eval_bound(right, row)?;
                    self.values_equal_nullsafe(&lv, &rv, collation)
                } else {
                    // The other dialects only support IS [NOT] with NULL /
                    // boolean literals; the NULL form is parsed as IsNull,
                    // so anything reaching here with a non-boolean operand
                    // is an error (this is the dialect gap from Listing 1).
                    let rv = self.eval_bound(right, row)?;
                    if !matches!(*rv, Value::Boolean(_) | Value::Null) {
                        return Err(EngineError::semantic(format!(
                            "syntax error: IS {} is not supported for this operand",
                            if op == BinaryOp::IsNot { "NOT" } else { "" }
                        )));
                    }
                    self.eval_bound(left, row)?.same_as(&rv)
                };
                (if op == BinaryOp::Is { eq } else { !eq }).into()
            }
            BinaryOp::NullSafeEq => {
                if !self.dialect.has_null_safe_eq() {
                    return Err(EngineError::semantic("syntax error near '<=>'"));
                }
                let lv = self.eval_bound(left, row)?;
                let rv = self.eval_bound(right, row)?;
                // Injected fault: <=> against an out-of-range constant for a
                // TINYINT column misbehaves for NULL values (Listing 12).
                if self.bugs.is_enabled(BugId::MysqlNullSafeEqOutOfRange)
                    && lv.is_null()
                    && types[0] == Some(TypeName::TinyInt)
                    && matches!(*rv, Value::Integer(i) if !(-128..=127).contains(&i))
                {
                    TriBool::True
                } else {
                    self.values_equal_nullsafe(&lv, &rv, collation).into()
                }
            }
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                let mut lv = self.eval_bound(left, row)?;
                let mut rv = self.eval_bound(right, row)?;
                // Injected fault: INTEGER-affinity column compared against a
                // REAL constant truncates the constant first (§4.4).
                if self.bugs.is_enabled(BugId::SqliteIntRealComparisonTruncates) {
                    if types[0] == Some(TypeName::Integer) {
                        if let Value::Real(r) = *rv {
                            rv = Cow::Owned(Value::Integer(real_to_int_saturating(r)));
                        }
                    }
                    if types[1] == Some(TypeName::Integer) {
                        if let Value::Real(r) = *lv {
                            lv = Cow::Owned(Value::Integer(real_to_int_saturating(r)));
                        }
                    }
                }
                // Injected fault: comparisons against constants outside the
                // TINYINT range clamp the constant (§4.5 value-range bugs).
                if self.bugs.is_enabled(BugId::MysqlTinyIntRangeCompare) {
                    if types[0] == Some(TypeName::TinyInt) {
                        if let Value::Integer(i) = *rv {
                            rv = Cow::Owned(Value::Integer(i.clamp(-128, 127)));
                        }
                    }
                    if types[1] == Some(TypeName::TinyInt) {
                        if let Value::Integer(i) = *lv {
                            lv = Cow::Owned(Value::Integer(i.clamp(-128, 127)));
                        }
                    }
                }
                self.compare_values_tri(op, &lv, &rv, collation)
            }
            BinaryOp::Concat => {
                let lv = self.eval_bound(left, row)?;
                let rv = self.eval_bound(right, row)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let (ls, rs) = (text_of(&lv), text_of(&rv));
                let mut out = String::with_capacity(ls.len() + rs.len());
                out.push_str(&ls);
                out.push_str(&rs);
                return Ok(Cow::Owned(Value::Text(out)));
            }
            BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::ShiftLeft | BinaryOp::ShiftRight => {
                let lv = self.eval_bound(left, row)?;
                let rv = self.eval_bound(right, row)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let a = self.integer_of(&lv, "bitwise")?;
                let b = self.integer_of(&rv, "bitwise")?;
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
                return Ok(Cow::Owned(Value::Integer(r)));
            }
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                return self.eval_arithmetic(op, left, right, types[0], row).map(Cow::Owned);
            }
        };
        Ok(Cow::Owned(self.tribool_value(t)))
    }

    fn eval_arithmetic<R: RowView + ?Sized>(
        &self,
        op: BinaryOp,
        left: &BoundExpr<'_>,
        right: &BoundExpr<'_>,
        left_type: Option<TypeName>,
        row: &R,
    ) -> EngineResult<Value> {
        let lv = self.eval_bound(left, row)?;
        let rv = self.eval_bound(right, row)?;
        if lv.is_null() || rv.is_null() {
            return Ok(Value::Null);
        }
        // Injected fault: subtracting a large integer from a TEXT value goes
        // through floating point and loses precision (Listing 2).
        if op == BinaryOp::Sub
            && self.bugs.is_enabled(BugId::SqliteTextMinusIntegerPrecision)
            && matches!(*lv, Value::Text(_))
        {
            if let Value::Integer(i) = *rv {
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
            && left_type == Some(TypeName::Unsigned)
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
        expr: &BoundExpr<'_>,
        pattern: &BoundExpr<'_>,
        pattern_text: Option<&str>,
        row: &R,
    ) -> EngineResult<Value> {
        let v = self.eval_bound(expr, row)?;
        let p = self.eval_bound(pattern, row)?;
        if v.is_null() || p.is_null() {
            return Ok(Value::Null);
        }
        // Injected fault: a LIKE pattern ending in a backslash crashes the
        // pattern compiler (simulated SEGFAULT, §4.2).
        if self.bugs.is_enabled(BugId::SqliteLikeEscapeCrash) {
            if let Value::Text(pt) = &*p {
                if pt.ends_with('\\') {
                    return Err(EngineError::crash("SEGFAULT in likeFunc()"));
                }
            }
        }
        // Injected fault: LIKE on BLOB values yields FALSE instead of
        // matching their text conversion (§4.4 type flexibility).
        let matched = if self.bugs.is_enabled(BugId::SqliteLikeOnBlobAlwaysFalse)
            && matches!(*v, Value::Blob(_))
        {
            false
        } else {
            let pat = pattern_text.map_or_else(|| text_of(&p), Cow::Borrowed);
            like_match(&pat, &text_of(&v), self.case_sensitive_like)
        };
        let t: TriBool = (matched != negated).into();
        Ok(self.tribool_value(t))
    }

    /// Calls a scalar function; up to three arguments (every function but
    /// a long `COALESCE`/`MIN`/`MAX`) are evaluated onto the stack.
    fn eval_function<R: RowView + ?Sized>(
        &self,
        func: ScalarFunc,
        args: &[BoundExpr<'_>],
        row: &R,
    ) -> EngineResult<Value> {
        let d = self.dialect;
        match args {
            [] => eval_scalar_function::<Value>(func, &[], d),
            [a] => eval_scalar_function(func, &[self.eval_bound(a, row)?], d),
            [a, b] => {
                eval_scalar_function(func, &[self.eval_bound(a, row)?, self.eval_bound(b, row)?], d)
            }
            [a, b, c] => {
                let a = self.eval_bound(a, row)?;
                let b = self.eval_bound(b, row)?;
                eval_scalar_function(func, &[a, b, self.eval_bound(c, row)?], d)
            }
            _ => {
                let vals: Vec<Cow<'_, Value>> =
                    args.iter().map(|a| self.eval_bound(a, row)).collect::<EngineResult<_>>()?;
                eval_scalar_function(func, &vals, d)
            }
        }
    }

    /// Casts a value to a target type under the dialect rules.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid casts in the strict dialect.
    pub fn cast(&self, v: &Value, target: TypeName) -> EngineResult<Value> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        match target {
            TypeName::Integer | TypeName::Serial => {
                if self.dialect.strict_typing() {
                    if let Value::Text(t) = v {
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
            TypeName::Text => Ok(Value::Text(text_of(v).into_owned())),
            TypeName::Blob => match v {
                Value::Blob(b) => Ok(Value::Blob(b.clone())),
                other => Ok(Value::Blob(text_of(other).into_owned().into_bytes())),
            },
            TypeName::Boolean => {
                if self.dialect.strict_typing() {
                    match v {
                        Value::Boolean(_) => Ok(v.clone()),
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

    /// The collation a comparison between two operands uses: the left
    /// operand's unless it is `BINARY`, then the right's.
    fn comparison_collation(&self, left: &BoundExpr<'_>, right: &BoundExpr<'_>) -> Collation {
        if !self.dialect.has_collations() {
            return Collation::Binary;
        }
        let l = left.collation();
        if l != Collation::Binary {
            l
        } else {
            right.collation()
        }
    }

    /// Three-valued comparison; `None` means unknown (a NULL operand).
    #[must_use]
    pub fn compare_tri(&self, a: &Value, b: &Value, collation: Collation) -> Option<Ordering> {
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
                    BinaryOp::Eq => ord == Ordering::Equal,
                    BinaryOp::Ne => ord != Ordering::Equal,
                    BinaryOp::Lt => ord == Ordering::Less,
                    BinaryOp::Le => ord != Ordering::Greater,
                    BinaryOp::Gt => ord == Ordering::Greater,
                    BinaryOp::Ge => ord != Ordering::Less,
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
            (false, false) => self.compare_tri(a, b, collation) == Some(Ordering::Equal),
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

    fn integer_of(&self, v: &Value, op: &str) -> EngineResult<i64> {
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

/// A value's text form (`to_text_lenient`, `NULL` as the empty string),
/// borrowed where the value already holds it.
fn text_of(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Text(t) => Cow::Borrowed(t),
        Value::Blob(b) => String::from_utf8_lossy(b),
        other => Cow::Owned(other.to_text_lenient().unwrap_or_default()),
    }
}

/// SQL `LIKE` matching with `%` and `_` wildcards, comparing characters
/// in place (ASCII case folded unless `case_sensitive`).
#[must_use]
pub fn like_match(pattern: &str, text: &str, case_sensitive: bool) -> bool {
    let eq = |a: char, b: char| if case_sensitive { a == b } else { a.eq_ignore_ascii_case(&b) };
    fn rec(p: &str, t: &str, eq: &impl Fn(char, char) -> bool) -> bool {
        let mut pc = p.chars();
        let mut tc = t.chars();
        match pc.next() {
            None => t.is_empty(),
            Some('%') => {
                let rest = pc.as_str();
                loop {
                    if rec(rest, tc.as_str(), eq) {
                        return true;
                    }
                    if tc.next().is_none() {
                        return false;
                    }
                }
            }
            Some('_') => tc.next().is_some() && rec(pc.as_str(), tc.as_str(), eq),
            Some(c) => tc.next().is_some_and(|x| eq(c, x)) && rec(pc.as_str(), tc.as_str(), eq),
        }
    }
    rec(pattern, text, &eq)
}

/// Evaluates a scalar function over already-evaluated arguments (owned or
/// borrowed).
///
/// Shared with `lancer-core`'s interpreter, so function semantics are
/// defined once.
///
/// # Errors
///
/// Returns an error for argument values the function does not accept in the
/// strict dialect.
pub fn eval_scalar_function<V: Borrow<Value>>(
    func: ScalarFunc,
    vals: &[V],
    dialect: Dialect,
) -> EngineResult<Value> {
    let arg = |i: usize| vals.get(i).map_or(&Value::Null, Borrow::borrow);
    let first = arg(0);
    match func {
        ScalarFunc::Abs => match first {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => Ok(Value::Integer(i.checked_abs().unwrap_or(i64::MAX))),
            Value::Real(r) => Ok(Value::Real(r.abs())),
            Value::Boolean(b) => Ok(Value::Integer(i64::from(*b))),
            other => {
                if dialect.strict_typing() {
                    Err(EngineError::semantic("function abs() does not accept this type"))
                } else {
                    Ok(Value::Real(other.to_real_lenient().unwrap_or(0.0).abs()))
                }
            }
        },
        ScalarFunc::Length => match first {
            Value::Null => Ok(Value::Null),
            Value::Blob(b) => Ok(Value::Integer(b.len() as i64)),
            other => Ok(Value::Integer(text_of(other).chars().count() as i64)),
        },
        ScalarFunc::Lower => match first {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(text_of(other).to_lowercase())),
        },
        ScalarFunc::Upper => match first {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(text_of(other).to_uppercase())),
        },
        ScalarFunc::Coalesce => Ok(vals
            .iter()
            .map(Borrow::borrow)
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        ScalarFunc::IfNull => Ok(if first.is_null() { arg(1) } else { first }.clone()),
        ScalarFunc::NullIf => {
            let b = arg(1);
            if !first.is_null() && !b.is_null() && first.same_as(b) {
                Ok(Value::Null)
            } else {
                Ok(first.clone())
            }
        }
        ScalarFunc::Min | ScalarFunc::Max => {
            if vals.iter().any(|v| v.borrow().is_null()) {
                return Ok(Value::Null);
            }
            let mut best = first;
            for v in vals.iter().skip(1).map(Borrow::borrow) {
                let ord = v.total_cmp(best, Collation::Binary);
                let better = if func == ScalarFunc::Min {
                    ord == Ordering::Less
                } else {
                    ord == Ordering::Greater
                };
                if better {
                    best = v;
                }
            }
            Ok(best.clone())
        }
        ScalarFunc::Hex => match first {
            Value::Null => Ok(Value::Null),
            Value::Blob(b) => Ok(Value::Text(hex(b))),
            other => Ok(Value::Text(hex(text_of(other).as_bytes()))),
        },
        ScalarFunc::TypeOf => Ok(Value::Text(first.storage_class().to_string())),
        ScalarFunc::Trim => match first {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(text_of(other).trim().to_owned())),
        },
        ScalarFunc::Ltrim => match first {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(text_of(other).trim_start().to_owned())),
        },
        ScalarFunc::Rtrim => match first {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Text(text_of(other).trim_end().to_owned())),
        },
        ScalarFunc::Replace => {
            if (0..3).any(|i| arg(i).is_null()) {
                return Ok(Value::Null);
            }
            let s = text_of(first);
            let from = text_of(arg(1));
            if from.is_empty() {
                Ok(Value::Text(s.into_owned()))
            } else {
                Ok(Value::Text(s.replace(&*from, &text_of(arg(2)))))
            }
        }
        ScalarFunc::Substr => {
            if vals.iter().any(|v| v.borrow().is_null()) {
                return Ok(Value::Null);
            }
            let s = text_of(first);
            let chars: Vec<char> = s.chars().collect();
            let start = arg(1).to_integer_lenient().unwrap_or(1);
            let len = vals.get(2).and_then(|v| v.borrow().to_integer_lenient()).unwrap_or(i64::MAX);
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
            if first.is_null() || arg(1).is_null() {
                return Ok(Value::Null);
            }
            let hay = text_of(first);
            let needle = text_of(arg(1));
            if needle.is_empty() {
                return Ok(Value::Integer(if hay.is_empty() { 0 } else { 1 }));
            }
            match hay.find(&*needle) {
                Some(byte_pos) => {
                    let char_pos = hay[..byte_pos].chars().count() as i64 + 1;
                    Ok(Value::Integer(char_pos))
                }
                None => Ok(Value::Integer(0)),
            }
        }
    }
}

/// Upper-case hex digits of a byte string.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|x| format!("{x:02X}")).collect()
}

/// Evaluates an aggregate function over a column of values (one per row,
/// owned or borrowed).
///
/// # Errors
///
/// Returns an error if `SUM`/`AVG` is applied to values that cannot be
/// interpreted numerically in the strict dialect.
pub fn eval_aggregate<V: Borrow<Value>>(
    func: AggFunc,
    values: &[V],
    distinct: bool,
    dialect: Dialect,
) -> EngineResult<Value> {
    let mut vals: Vec<&Value> =
        values.iter().map(Borrow::borrow).filter(|v| !v.is_null()).collect();
    if distinct {
        let mut seen: Vec<&Value> = Vec::new();
        vals.retain(|v| {
            if seen.iter().any(|s| s.same_as(v)) {
                false
            } else {
                seen.push(v);
                true
            }
        });
    }
    match func {
        AggFunc::Count => Ok(Value::Integer(vals.len() as i64)),
        AggFunc::Min | AggFunc::Max => {
            let Some((&first, rest)) = vals.split_first() else { return Ok(Value::Null) };
            let mut best = first;
            for &v in rest {
                let ord = v.total_cmp(best, Collation::Binary);
                let better = if func == AggFunc::Min {
                    ord == Ordering::Less
                } else {
                    ord == Ordering::Greater
                };
                if better {
                    best = v;
                }
            }
            Ok(best.clone())
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
        let predicate = |ev: &Evaluator, sql: &str| {
            let e = parse_expression(sql).unwrap();
            ev.eval_bound_predicate(&ev.bind(&e, &RowSchema::empty()), NO_ROW)
        };
        assert!(predicate(&ev, "1 + 1").is_err());
        assert_eq!(predicate(&ev, "1 < 2").unwrap(), TriBool::True);
        let lenient = Evaluator::new(Dialect::Sqlite, &bugs);
        assert_eq!(predicate(&lenient, "2").unwrap(), TriBool::True);
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
        assert_eq!(
            eval_aggregate::<Value>(AggFunc::Sum, &[], false, Dialect::Sqlite).unwrap(),
            Value::Null
        );
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
