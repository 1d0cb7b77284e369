//! The SQL value model shared by the engine, the storage layer and the PQS
//! AST interpreter.
//!
//! The model follows SQLite's *storage class* design: a value is one of
//! `NULL`, `INTEGER`, `REAL`, `TEXT`, `BLOB` or `BOOLEAN`.  The `BOOLEAN`
//! storage class only exists in the PostgreSQL-like dialect; the SQLite-like
//! and MySQL-like dialects represent booleans as the integers `0` and `1`.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::collation::Collation;

/// A single SQL scalar value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// The SQL `NULL` marker.
    Null,
    /// A 64-bit signed integer.
    Integer(i64),
    /// A double-precision floating point number.
    Real(f64),
    /// A text string.
    Text(String),
    /// A binary blob.
    Blob(Vec<u8>),
    /// A boolean (PostgreSQL-like dialect only).
    Boolean(bool),
}

/// The storage class of a [`Value`], mirroring SQLite's `typeof()` result.
///
/// Classes order by declaration, which is the type-tag order of
/// [`Value::exact_cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StorageClass {
    /// `NULL`.
    Null,
    /// `INTEGER`.
    Integer,
    /// `REAL`.
    Real,
    /// `TEXT`.
    Text,
    /// `BLOB`.
    Blob,
    /// `BOOLEAN` (PostgreSQL-like dialect only).
    Boolean,
}

impl fmt::Display for StorageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StorageClass::Null => "null",
            StorageClass::Integer => "integer",
            StorageClass::Real => "real",
            StorageClass::Text => "text",
            StorageClass::Blob => "blob",
            StorageClass::Boolean => "boolean",
        };
        f.write_str(s)
    }
}

/// SQL three-valued logic: `TRUE`, `FALSE`, or `NULL` (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TriBool {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown (`NULL` in a boolean context).
    Unknown,
}

impl TriBool {
    /// Three-valued logical AND.
    #[must_use]
    pub fn and(self, other: TriBool) -> TriBool {
        match (self, other) {
            (TriBool::False, _) | (_, TriBool::False) => TriBool::False,
            (TriBool::True, TriBool::True) => TriBool::True,
            _ => TriBool::Unknown,
        }
    }

    /// Three-valued logical OR.
    #[must_use]
    pub fn or(self, other: TriBool) -> TriBool {
        match (self, other) {
            (TriBool::True, _) | (_, TriBool::True) => TriBool::True,
            (TriBool::False, TriBool::False) => TriBool::False,
            _ => TriBool::Unknown,
        }
    }

    /// Three-valued logical NOT.
    ///
    /// Also available as the `!` operator; the method form reads better in
    /// evaluator code chained off comparisons.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> TriBool {
        match self {
            TriBool::True => TriBool::False,
            TriBool::False => TriBool::True,
            TriBool::Unknown => TriBool::Unknown,
        }
    }

    /// Returns `true` only for [`TriBool::True`].
    #[must_use]
    pub fn is_true(self) -> bool {
        self == TriBool::True
    }

    /// Converts the tri-state back into a [`Value`] using integers for
    /// true/false (SQLite/MySQL convention).
    #[must_use]
    pub fn to_int_value(self) -> Value {
        match self {
            TriBool::True => Value::Integer(1),
            TriBool::False => Value::Integer(0),
            TriBool::Unknown => Value::Null,
        }
    }

    /// Converts the tri-state back into a [`Value`] using booleans
    /// (PostgreSQL convention).
    #[must_use]
    pub fn to_bool_value(self) -> Value {
        match self {
            TriBool::True => Value::Boolean(true),
            TriBool::False => Value::Boolean(false),
            TriBool::Unknown => Value::Null,
        }
    }

    /// Builds a tri-state from an optional boolean.
    #[must_use]
    pub fn from_option(b: Option<bool>) -> TriBool {
        match b {
            Some(true) => TriBool::True,
            Some(false) => TriBool::False,
            None => TriBool::Unknown,
        }
    }
}

impl std::ops::Not for TriBool {
    type Output = TriBool;

    fn not(self) -> TriBool {
        TriBool::not(self)
    }
}

impl From<bool> for TriBool {
    fn from(b: bool) -> Self {
        if b {
            TriBool::True
        } else {
            TriBool::False
        }
    }
}

impl Value {
    /// Returns the storage class of this value.
    #[must_use]
    pub fn storage_class(&self) -> StorageClass {
        match self {
            Value::Null => StorageClass::Null,
            Value::Integer(_) => StorageClass::Integer,
            Value::Real(_) => StorageClass::Real,
            Value::Text(_) => StorageClass::Text,
            Value::Blob(_) => StorageClass::Blob,
            Value::Boolean(_) => StorageClass::Boolean,
        }
    }

    /// Returns `true` if the value is `NULL`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` if the value is numeric (integer, real or boolean).
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Integer(_) | Value::Real(_) | Value::Boolean(_))
    }

    /// Interprets the value in a boolean context, the way SQLite does:
    /// numbers are true iff non-zero, text is converted via a numeric prefix
    /// parse, `NULL` and blobs are unknown/false-ish.
    ///
    /// This is the *lenient* conversion used by dialects with implicit
    /// conversions.  The strict (PostgreSQL-like) dialect refuses most of
    /// these conversions at a higher level.
    #[must_use]
    pub fn to_tribool_lenient(&self) -> TriBool {
        match self {
            Value::Null => TriBool::Unknown,
            Value::Boolean(b) => (*b).into(),
            Value::Integer(i) => (*i != 0).into(),
            Value::Real(r) => (*r != 0.0).into(),
            Value::Text(t) => {
                let n = text_numeric_prefix(t);
                (n != 0.0).into()
            }
            Value::Blob(_) => TriBool::False,
        }
    }

    /// Numeric interpretation of the value (SQLite `CAST(x AS REAL)`-style).
    #[must_use]
    pub fn to_real_lenient(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Text(t) => Some(text_numeric_prefix(t)),
            Value::Blob(_) => Some(0.0),
        }
    }

    /// Integer interpretation of the value (SQLite `CAST(x AS INTEGER)`-style).
    #[must_use]
    pub fn to_integer_lenient(&self) -> Option<i64> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(*i),
            Value::Real(r) => Some(real_to_int_saturating(*r)),
            Value::Boolean(b) => Some(i64::from(*b)),
            Value::Text(t) => Some(text_integer_prefix(t)),
            Value::Blob(_) => Some(0),
        }
    }

    /// Text interpretation of the value (SQLite `CAST(x AS TEXT)`-style).
    #[must_use]
    pub fn to_text_lenient(&self) -> Option<String> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(i.to_string()),
            Value::Real(r) => Some(format_real(*r)),
            Value::Boolean(b) => Some(if *b { "1".to_owned() } else { "0".to_owned() }),
            Value::Text(t) => Some(t.clone()),
            Value::Blob(b) => Some(String::from_utf8_lossy(b).into_owned()),
        }
    }

    /// Structural equality used for result-set containment checks: `NULL`
    /// equals `NULL`, integers and reals compare numerically, text compares
    /// byte-wise, booleans compare against 0/1 integers.
    #[must_use]
    pub fn same_as(&self, other: &Value) -> bool {
        self.total_cmp(other, Collation::Binary) == Ordering::Equal
    }

    /// A total ordering over values, used for index keys, `ORDER BY`, and
    /// `DISTINCT`.  Mirrors SQLite's cross-class ordering:
    /// `NULL < (INTEGER|REAL|BOOLEAN) < TEXT < BLOB`.
    #[must_use]
    pub fn total_cmp(&self, other: &Value, collation: Collation) -> Ordering {
        use Value::{Blob, Boolean, Integer, Null, Real, Text};
        fn class_rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Integer(_) | Real(_) | Boolean(_) => 1,
                Text(_) => 2,
                Blob(_) => 3,
            }
        }
        let (ra, rb) = (class_rank(self), class_rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            (Text(a), Text(b)) => collation.compare(a, b),
            // Mixed numeric comparisons go through f64.
            _ => {
                let a = self.to_real_lenient().unwrap_or(0.0);
                let b = other.to_real_lenient().unwrap_or(0.0);
                a.partial_cmp(&b).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// The exact total order, under which a value equals only an identical
    /// value.  It compares the storage class first, in [`StorageClass`]
    /// declaration order, then the payload: integers and booleans by
    /// value, text and blobs by bytes, and reals by [`f64::total_cmp`]
    /// (so `-0.0 < 0.0`), except that every NaN, whatever its sign or
    /// payload, falls into one class above `+inf`.
    ///
    /// `==` is SQL equality ([`Value::same_as`], under which `1 = 1.0`);
    /// result comparisons that must match physical rows, such as TLP
    /// partitions against their unpartitioned query, use this order.
    #[must_use]
    pub fn exact_cmp(&self, other: &Value) -> Ordering {
        use Value::{Blob, Boolean, Integer, Null, Real, Text};
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Real(a), Real(b)) => match (a.is_nan(), b.is_nan()) {
                (false, false) => a.total_cmp(b),
                (a_nan, b_nan) => a_nan.cmp(&b_nan),
            },
            (Text(a), Text(b)) => a.as_bytes().cmp(b.as_bytes()),
            (Blob(a), Blob(b)) => a.cmp(b),
            (Boolean(a), Boolean(b)) => a.cmp(b),
            _ => self.storage_class().cmp(&other.storage_class()),
        }
    }

    /// Renders the value as a SQL literal that parses back to the same value.
    #[must_use]
    pub fn to_sql_literal(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        match self {
            Value::Null => out.push_str("NULL"),
            // `i64::MIN` cannot be written as a plain literal (its absolute
            // value overflows before the unary minus applies), so it is
            // rendered as an expression that parses back to the same value.
            Value::Integer(i64::MIN) => out.push_str("(-9223372036854775807 - 1)"),
            Value::Integer(i) => write!(out, "{i}").expect(INFALLIBLE),
            Value::Real(r) if r.is_nan() => out.push_str("(0.0 / 0.0)"),
            Value::Real(r) if r.is_infinite() => {
                out.push_str(if *r > 0.0 { "(1e308 * 10)" } else { "(-1e308 * 10)" });
            }
            Value::Real(r) => write_real(&mut out, *r),
            Value::Text(t) => {
                out.push('\'');
                for (i, part) in t.split('\'').enumerate() {
                    if i > 0 {
                        out.push_str("''");
                    }
                    out.push_str(part);
                }
                out.push('\'');
            }
            Value::Blob(b) => {
                out.push_str("x'");
                for byte in b {
                    write!(out, "{byte:02X}").expect(INFALLIBLE);
                }
                out.push('\'');
            }
            Value::Boolean(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        }
        out
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other)
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Integer(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Real(r) => {
                // Hash reals through their numeric comparison key so that
                // `1 == 1.0` also hash-equal.
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 9.2e18 {
                    1u8.hash(state);
                    (*r as i64).hash(state);
                } else {
                    2u8.hash(state);
                    r.to_bits().hash(state);
                }
            }
            Value::Text(t) => {
                3u8.hash(state);
                t.hash(state);
            }
            Value::Blob(b) => {
                4u8.hash(state);
                b.hash(state);
            }
            Value::Boolean(b) => {
                1u8.hash(state);
                i64::from(*b).hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => f.write_str(&format_real(*r)),
            Value::Text(t) => f.write_str(t),
            Value::Blob(b) => {
                let hex: String = b.iter().map(|byte| format!("{byte:02X}")).collect();
                write!(f, "x'{hex}'")
            }
            Value::Boolean(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// Compares two rows value by value under [`Value::exact_cmp`]; a row
/// that is a prefix of the other sorts first.
#[must_use]
pub fn exact_cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.exact_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// An owned row whose `Eq` and `Ord` are [`exact_cmp_rows`] rather than
/// SQL equality, for sorting and comparing row multisets.
#[derive(Debug, Clone)]
pub struct ExactRow(pub Vec<Value>);

impl PartialEq for ExactRow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ExactRow {}

impl PartialOrd for ExactRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExactRow {
    fn cmp(&self, other: &Self) -> Ordering {
        exact_cmp_rows(&self.0, &other.0)
    }
}

/// Formats a real value the way SQLite prints it (always with a decimal point
/// or exponent so the text round-trips back to a REAL).
#[must_use]
pub fn format_real(r: f64) -> String {
    let mut text = String::new();
    write_real(&mut text, r);
    text
}

/// Appends [`format_real`]'s rendering of `r` to `out`.
fn write_real(out: &mut String, r: f64) {
    use std::fmt::Write;
    if r.is_nan() {
        out.push_str("NaN");
    } else if r.is_infinite() {
        out.push_str(if r > 0.0 { "Inf" } else { "-Inf" });
    } else if r == r.trunc() && r.abs() < 1e15 {
        write!(out, "{r:.1}").expect(INFALLIBLE);
    } else {
        write!(out, "{r}").expect(INFALLIBLE);
    }
}

/// Why `write!` into a `String` is unwrapped.
const INFALLIBLE: &str = "writing to a String cannot fail";

/// Parses the longest numeric prefix of a string as a float (SQLite text →
/// numeric conversion).  Returns `0.0` if the string has no numeric prefix.
#[must_use]
pub fn text_numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0usize;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    let mut i = 0usize;
    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
        i += 1;
    }
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_digit() {
            seen_digit = true;
            i += 1;
            end = i;
        } else if c == b'.' && !seen_dot && !seen_exp {
            seen_dot = true;
            i += 1;
            if seen_digit {
                end = i;
            }
        } else if (c == b'e' || c == b'E') && seen_digit && !seen_exp {
            // Look ahead for a valid exponent.
            let mut j = i + 1;
            if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                j += 1;
            }
            if j < bytes.len() && bytes[j].is_ascii_digit() {
                seen_exp = true;
                i = j;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Parses the longest integer prefix of a string (SQLite text → integer
/// conversion).  Saturates on overflow.
#[must_use]
pub fn text_integer_prefix(s: &str) -> i64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut i = 0usize;
    let negative = if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
        let neg = bytes[i] == b'-';
        i += 1;
        neg
    } else {
        false
    };
    let mut acc: i128 = 0;
    let mut seen_digit = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        seen_digit = true;
        acc = acc * 10 + i128::from(bytes[i] - b'0');
        if acc > i64::MAX as i128 + 1 {
            acc = i64::MAX as i128 + 1;
            // Keep consuming digits but stop accumulating.
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            break;
        }
        i += 1;
    }
    if !seen_digit {
        return 0;
    }
    let signed = if negative { -acc } else { acc };
    signed.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Converts a real to an integer with saturation (SQLite CAST semantics).
#[must_use]
pub fn real_to_int_saturating(r: f64) -> i64 {
    if r.is_nan() {
        0
    } else if r >= i64::MAX as f64 {
        i64::MAX
    } else if r <= i64::MIN as f64 {
        i64::MIN
    } else {
        r as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tribool_truth_tables() {
        use TriBool::{False, True, Unknown};
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(False.or(False), False);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
        assert_eq!(False.not(), True);
    }

    #[test]
    fn storage_classes() {
        assert_eq!(Value::Null.storage_class(), StorageClass::Null);
        assert_eq!(Value::Integer(3).storage_class(), StorageClass::Integer);
        assert_eq!(Value::Real(0.5).storage_class(), StorageClass::Real);
        assert_eq!(Value::Text("x".into()).storage_class(), StorageClass::Text);
        assert_eq!(Value::Blob(vec![1]).storage_class(), StorageClass::Blob);
        assert_eq!(Value::Boolean(true).storage_class(), StorageClass::Boolean);
    }

    #[test]
    fn lenient_boolean_conversion() {
        assert_eq!(Value::Integer(0).to_tribool_lenient(), TriBool::False);
        assert_eq!(Value::Integer(5).to_tribool_lenient(), TriBool::True);
        assert_eq!(Value::Real(0.5).to_tribool_lenient(), TriBool::True);
        assert_eq!(Value::Null.to_tribool_lenient(), TriBool::Unknown);
        assert_eq!(Value::Text("0.5abc".into()).to_tribool_lenient(), TriBool::True);
        assert_eq!(Value::Text("abc".into()).to_tribool_lenient(), TriBool::False);
    }

    #[test]
    fn numeric_prefix_parsing() {
        assert_eq!(text_numeric_prefix("12abc"), 12.0);
        assert_eq!(text_numeric_prefix("  -3.5e2xyz"), -350.0);
        assert_eq!(text_numeric_prefix("abc"), 0.0);
        assert_eq!(text_numeric_prefix(""), 0.0);
        assert_eq!(text_numeric_prefix("."), 0.0);
        assert_eq!(text_numeric_prefix("1e"), 1.0);
        assert_eq!(text_integer_prefix("42abc"), 42);
        assert_eq!(text_integer_prefix("-7"), -7);
        assert_eq!(text_integer_prefix("xyz"), 0);
        assert_eq!(text_integer_prefix("99999999999999999999999"), i64::MAX);
        assert_eq!(text_integer_prefix("-99999999999999999999999"), i64::MIN);
    }

    #[test]
    fn ordering_across_classes() {
        let null = Value::Null;
        let int = Value::Integer(5);
        let text = Value::Text("a".into());
        let blob = Value::Blob(vec![0]);
        assert_eq!(null.total_cmp(&int, Collation::Binary), Ordering::Less);
        assert_eq!(int.total_cmp(&text, Collation::Binary), Ordering::Less);
        assert_eq!(text.total_cmp(&blob, Collation::Binary), Ordering::Less);
    }

    #[test]
    fn numeric_equality_across_int_and_real() {
        assert!(Value::Integer(1).same_as(&Value::Real(1.0)));
        assert!(!Value::Integer(1).same_as(&Value::Real(1.5)));
        assert!(Value::Boolean(true).same_as(&Value::Integer(1)));
    }

    #[test]
    fn sql_literal_round_trip_shapes() {
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Integer(-3).to_sql_literal(), "-3");
        assert_eq!(Value::Text("a'b".into()).to_sql_literal(), "'a''b'");
        assert_eq!(Value::Blob(vec![0xAB, 0x01]).to_sql_literal(), "x'AB01'");
        assert_eq!(Value::Real(2.0).to_sql_literal(), "2.0");
        assert_eq!(Value::Boolean(false).to_sql_literal(), "FALSE");
    }

    #[test]
    fn sql_literals_pin_every_edge_value() {
        // Repros render rows as SQL literals, so each edge value keeps the
        // literal it has always rendered as.
        let pinned: Vec<(Value, &str)> = vec![
            (Value::Integer(i64::MIN), "(-9223372036854775807 - 1)"),
            (Value::Integer(1 << 60), "1152921504606846976"),
            (Value::Real(f64::NAN), "(0.0 / 0.0)"),
            (Value::Real(f64::INFINITY), "(1e308 * 10)"),
            (Value::Real(f64::NEG_INFINITY), "(-1e308 * 10)"),
            (Value::Real(-0.0), "-0.0"),
            (Value::Real(3.0), "3.0"),
            (Value::Real(0.5), "0.5"),
            (Value::Real(1e15), "1000000000000000"),
            (Value::Real(2f64.powi(60)), "1152921504606847000"),
            (Value::Text("it's\u{1f}'".into()), "'it''s\u{1f}'''"),
            (Value::Text(String::new()), "''"),
            (Value::Blob(vec![0x00, 0xab, 0xff]), "x'00ABFF'"),
            (Value::Blob(Vec::new()), "x''"),
            (Value::Boolean(true), "TRUE"),
            (Value::Boolean(false), "FALSE"),
            (Value::Null, "NULL"),
        ];
        for (value, literal) in &pinned {
            assert_eq!(value.to_sql_literal(), *literal);
        }
    }

    /// Values the exact order must keep apart although their literals,
    /// SQL equality or numeric value coincide, plus NaNs that differ in
    /// sign or payload.
    fn exact_order_pool() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Integer(i64::MIN),
            Value::Integer(0),
            Value::Integer(1),
            Value::Integer(10i64.pow(15)),
            Value::Integer(1 << 60),
            Value::Real(f64::NEG_INFINITY),
            Value::Real(-0.0),
            Value::Real(0.0),
            Value::Real(1.0),
            Value::Real(1e15),
            Value::Real(2f64.powi(60)),
            Value::Real(f64::INFINITY),
            Value::Real(f64::NAN),
            Value::Real(-f64::NAN),
            Value::Real(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Text(String::new()),
            Value::Text("1".into()),
            Value::Text("a".into()),
            Value::Blob(Vec::new()),
            Value::Blob(b"1".to_vec()),
            Value::Blob(b"a".to_vec()),
            Value::Boolean(false),
            Value::Boolean(true),
        ]
    }

    #[test]
    fn exact_order_separates_what_sql_equality_and_literals_merge() {
        let differ = |a: Value, b: Value| assert!(a.exact_cmp(&b).is_ne(), "{a:?} vs {b:?}");
        differ(Value::Real(1e15), Value::Integer(10i64.pow(15)));
        differ(Value::Real(2f64.powi(60)), Value::Integer(1 << 60));
        differ(Value::Text("a".into()), Value::Blob(b"a".to_vec()));
        differ(Value::Boolean(true), Value::Integer(1));
        differ(Value::Real(1.0), Value::Integer(1));
        assert_eq!(Value::Real(-0.0).exact_cmp(&Value::Real(0.0)), Ordering::Less);
        let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)];
        for a in nans {
            for b in nans {
                assert_eq!(Value::Real(a).exact_cmp(&Value::Real(b)), Ordering::Equal);
            }
            assert_eq!(Value::Real(a).exact_cmp(&Value::Real(f64::INFINITY)), Ordering::Greater);
        }
        assert_eq!(
            exact_cmp_rows(&[Value::Integer(1)], &[Value::Integer(1), Value::Null]),
            Ordering::Less
        );
        assert_ne!(ExactRow(vec![Value::Integer(1)]), ExactRow(vec![Value::Real(1.0)]));
    }

    #[test]
    fn exact_order_is_a_total_order_over_the_pool() {
        let pool = exact_order_pool();
        let is_nan = |v: &Value| matches!(v, Value::Real(r) if r.is_nan());
        for (i, a) in pool.iter().enumerate() {
            for (j, b) in pool.iter().enumerate() {
                let ab = a.exact_cmp(b);
                assert_eq!(ab, b.exact_cmp(a).reverse(), "{a:?} vs {b:?} is not antisymmetric");
                // Every pool entry is distinct except the NaNs.
                assert_eq!(ab.is_eq(), i == j || (is_nan(a) && is_nan(b)), "{a:?} vs {b:?}");
                for c in &pool {
                    if ab.is_le() && b.exact_cmp(c).is_le() {
                        assert!(
                            a.exact_cmp(c).is_le(),
                            "{a:?} <= {b:?} <= {c:?} is not transitive"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn real_to_int_saturation() {
        assert_eq!(real_to_int_saturating(1e30), i64::MAX);
        assert_eq!(real_to_int_saturating(-1e30), i64::MIN);
        assert_eq!(real_to_int_saturating(f64::NAN), 0);
        assert_eq!(real_to_int_saturating(3.9), 3);
    }
}
