//! Expression parsing (precedence climbing).

use crate::ast::expr::{AggFunc, BinaryOp, ColumnRef, Expr, ScalarFunc, TypeName, UnaryOp};
use crate::collation::Collation;
use crate::error::{ParseError, ParseResult};
use crate::lexer::Token;
use crate::parser::Parser;
use crate::value::Value;

impl Parser {
    /// Parses a full expression.
    pub(crate) fn parse_expr(&mut self) -> ParseResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> ParseResult<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.parse_not()?;
            Ok(inner.not())
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_bit()?;
        loop {
            let op = match self.peek() {
                Some(Token::Eq) => Some(BinaryOp::Eq),
                Some(Token::NotEq) => Some(BinaryOp::Ne),
                Some(Token::Lt) => Some(BinaryOp::Lt),
                Some(Token::Le) => Some(BinaryOp::Le),
                Some(Token::Gt) => Some(BinaryOp::Gt),
                Some(Token::Ge) => Some(BinaryOp::Ge),
                Some(Token::NullSafeEq) => Some(BinaryOp::NullSafeEq),
                _ => None,
            };
            if let Some(op) = op {
                self.advance();
                let right = self.parse_bit()?;
                left = Expr::binary(op, left, right);
                continue;
            }
            // Keyword-based comparison forms.
            if self.peek_keyword("IS") {
                self.advance();
                let negated = self.eat_keyword("NOT");
                if self.eat_keyword("NULL") {
                    left = Expr::IsNull { negated, expr: Box::new(left) };
                } else {
                    let right = self.parse_bit()?;
                    let op = if negated { BinaryOp::IsNot } else { BinaryOp::Is };
                    left = Expr::binary(op, left, right);
                }
                continue;
            }
            if self.peek_keyword("ISNULL") {
                self.advance();
                left = Expr::IsNull { negated: false, expr: Box::new(left) };
                continue;
            }
            if self.peek_keyword("NOTNULL") {
                self.advance();
                left = Expr::IsNull { negated: true, expr: Box::new(left) };
                continue;
            }
            // SQLite also accepts the two-word postfix form `expr NOT NULL`.
            if self.peek_keyword("NOT")
                && matches!(self.peek_nth(1), Some(t) if t.is_keyword("NULL"))
            {
                self.advance();
                self.advance();
                left = Expr::IsNull { negated: true, expr: Box::new(left) };
                continue;
            }
            let negated = if self.peek_keyword("NOT")
                && matches!(self.peek_nth(1), Some(t) if t.is_keyword("LIKE") || t.is_keyword("BETWEEN") || t.is_keyword("IN"))
            {
                self.advance();
                true
            } else {
                false
            };
            if self.eat_keyword("LIKE") {
                let pattern = self.parse_bit()?;
                left = Expr::Like { negated, expr: Box::new(left), pattern: Box::new(pattern) };
                continue;
            }
            if self.eat_keyword("BETWEEN") {
                let low = self.parse_bit()?;
                self.expect_keyword("AND")?;
                let high = self.parse_bit()?;
                left = Expr::Between {
                    negated,
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                };
                continue;
            }
            if self.eat_keyword("IN") {
                self.expect(&Token::LParen)?;
                let mut list = Vec::new();
                if !matches!(self.peek(), Some(Token::RParen)) {
                    loop {
                        list.push(self.parse_expr()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                left = Expr::InList { negated, expr: Box::new(left), list };
                continue;
            }
            if negated {
                return Err(ParseError::new("expected LIKE, BETWEEN or IN after NOT"));
            }
            return Ok(left);
        }
    }

    fn parse_bit(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Some(Token::ShiftLeft) => BinaryOp::ShiftLeft,
                Some(Token::ShiftRight) => BinaryOp::ShiftRight,
                Some(Token::BitAnd) => BinaryOp::BitAnd,
                Some(Token::BitOr) => BinaryOp::BitOr,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_term()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_term(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_factor()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_factor()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_factor(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_concat()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_concat()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_concat(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_unary()?;
        while matches!(self.peek(), Some(Token::Concat)) {
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(BinaryOp::Concat, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> ParseResult<Expr> {
        match self.peek() {
            Some(Token::Minus) => {
                self.advance();
                let inner = self.parse_unary()?;
                // Fold negative numeric literals so that `-3` round-trips as a literal.
                match inner {
                    Expr::Literal(Value::Integer(i)) if i != i64::MIN => {
                        Ok(Expr::Literal(Value::Integer(-i)))
                    }
                    Expr::Literal(Value::Real(r)) => Ok(Expr::Literal(Value::Real(-r))),
                    other => Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) }),
                }
            }
            Some(Token::Plus) => {
                self.advance();
                let inner = self.parse_unary()?;
                Ok(Expr::Unary { op: UnaryOp::Plus, expr: Box::new(inner) })
            }
            Some(Token::Tilde) => {
                self.advance();
                let inner = self.parse_unary()?;
                Ok(Expr::Unary { op: UnaryOp::BitNot, expr: Box::new(inner) })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> ParseResult<Expr> {
        let mut e = self.parse_primary()?;
        while self.peek_keyword("COLLATE") {
            self.advance();
            let name = self.expect_ident()?;
            let collation = Collation::parse(&name)
                .ok_or_else(|| ParseError::new(format!("unknown collation {name}")))?;
            e = Expr::Collate { expr: Box::new(e), collation };
        }
        Ok(e)
    }

    pub(crate) fn parse_primary(&mut self) -> ParseResult<Expr> {
        let tok = self
            .peek()
            .cloned()
            .ok_or_else(|| ParseError::new("unexpected end of input in expression"))?;
        match tok {
            Token::Integer(i) => {
                self.advance();
                Ok(Expr::Literal(Value::Integer(i)))
            }
            Token::Real(r) => {
                self.advance();
                Ok(Expr::Literal(Value::Real(r)))
            }
            Token::String(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Text(s)))
            }
            Token::Blob(b) => {
                self.advance();
                Ok(Expr::Literal(Value::Blob(b)))
            }
            Token::QuotedIdent(s) => {
                self.advance();
                // SQLite's ambiguous double-quote handling: treat as a column
                // reference; the engine resolves it to a string if no such
                // column exists (Listing 8 of the paper).
                Ok(Expr::Column(ColumnRef::unqualified(s)))
            }
            Token::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(word) => {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => {
                        self.advance();
                        Ok(Expr::null())
                    }
                    "TRUE" => {
                        self.advance();
                        Ok(Expr::Literal(Value::Boolean(true)))
                    }
                    "FALSE" => {
                        self.advance();
                        Ok(Expr::Literal(Value::Boolean(false)))
                    }
                    "CAST" => {
                        self.advance();
                        self.expect(&Token::LParen)?;
                        let inner = self.parse_expr()?;
                        self.expect_keyword("AS")?;
                        let type_name = self.parse_type_name()?;
                        self.expect(&Token::RParen)?;
                        Ok(Expr::Cast { expr: Box::new(inner), type_name })
                    }
                    "CASE" => {
                        self.advance();
                        let operand = if self.peek_keyword("WHEN") {
                            None
                        } else {
                            Some(Box::new(self.parse_expr()?))
                        };
                        let mut branches = Vec::new();
                        while self.eat_keyword("WHEN") {
                            let when = self.parse_expr()?;
                            self.expect_keyword("THEN")?;
                            let then = self.parse_expr()?;
                            branches.push((when, then));
                        }
                        let else_expr = if self.eat_keyword("ELSE") {
                            Some(Box::new(self.parse_expr()?))
                        } else {
                            None
                        };
                        self.expect_keyword("END")?;
                        Ok(Expr::Case { operand, branches, else_expr })
                    }
                    _ => {
                        // Function call, qualified column, or bare column.
                        if matches!(self.peek_nth(1), Some(Token::LParen)) {
                            self.advance();
                            self.advance();
                            self.parse_call(&word)
                        } else if matches!(self.peek_nth(1), Some(Token::Dot)) {
                            self.advance();
                            self.advance();
                            let column = self.expect_ident()?;
                            Ok(Expr::Column(ColumnRef::qualified(word, column)))
                        } else {
                            self.advance();
                            Ok(Expr::Column(ColumnRef::unqualified(word)))
                        }
                    }
                }
            }
            other => Err(ParseError::new(format!("unexpected token {other:?} in expression"))),
        }
    }

    /// Parses a function call body after `name(` has been consumed.
    fn parse_call(&mut self, name: &str) -> ParseResult<Expr> {
        // COUNT(*) and friends.
        if let Some(agg) = AggFunc::parse(name) {
            if self.eat(&Token::Star) {
                self.expect(&Token::RParen)?;
                return Ok(Expr::Aggregate { func: agg, arg: None, distinct: false });
            }
            let distinct = self.eat_keyword("DISTINCT");
            let arg = self.parse_expr()?;
            if distinct || !self.eat(&Token::Comma) {
                self.expect(&Token::RParen)?;
                return Ok(Expr::Aggregate { func: agg, arg: Some(Box::new(arg)), distinct });
            }
            // Multi-argument MIN/MAX are scalar functions in SQLite.
            let func = ScalarFunc::parse(name).ok_or_else(|| {
                ParseError::new(format!("{name} does not accept multiple arguments"))
            })?;
            let mut args = vec![arg];
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function { func, args });
        }
        let func = ScalarFunc::parse(name)
            .ok_or_else(|| ParseError::new(format!("unknown function {name}")))?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(Token::RParen)) {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        let (lo, hi) = func.arity();
        if args.len() < lo || args.len() > hi {
            return Err(ParseError::new(format!(
                "wrong number of arguments to {name}: got {}, expected {lo}..={hi}",
                args.len()
            )));
        }
        Ok(Expr::Function { func, args })
    }

    /// Parses a type name (one or more identifiers).
    pub(crate) fn parse_type_name(&mut self) -> ParseResult<TypeName> {
        let first = self.expect_ident()?.to_ascii_uppercase();
        let t = match first.as_str() {
            "INT" | "INTEGER" | "BIGINT" => {
                if self.peek_keyword("UNSIGNED") {
                    self.advance();
                    TypeName::Unsigned
                } else {
                    TypeName::Integer
                }
            }
            "TINYINT" => TypeName::TinyInt,
            "UNSIGNED" => TypeName::Unsigned,
            "REAL" | "DOUBLE" | "FLOAT" => TypeName::Real,
            "TEXT" | "VARCHAR" | "CHAR" | "CLOB" => TypeName::Text,
            "BLOB" | "BYTEA" => TypeName::Blob,
            "BOOLEAN" | "BOOL" => TypeName::Boolean,
            "SERIAL" => TypeName::Serial,
            other => return Err(ParseError::new(format!("unknown type name {other}"))),
        };
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    #[test]
    fn parses_is_not_operator_from_listing1() {
        let e = parse_expression("t0.c0 IS NOT 1").unwrap();
        assert_eq!(e, Expr::binary(BinaryOp::IsNot, Expr::qcol("t0", "c0"), Expr::int(1)));
    }

    #[test]
    fn parses_is_null_variants() {
        assert_eq!(parse_expression("c0 IS NULL").unwrap(), Expr::col("c0").is_null());
        assert_eq!(
            parse_expression("c0 IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, expr: Box::new(Expr::col("c0")) }
        );
        assert_eq!(parse_expression("c0 ISNULL").unwrap(), Expr::col("c0").is_null());
        assert_eq!(
            parse_expression("c0 NOTNULL").unwrap(),
            Expr::IsNull { negated: true, expr: Box::new(Expr::col("c0")) }
        );
    }

    #[test]
    fn parses_precedence() {
        let e = parse_expression("1 + 2 * 3 = 7 AND NOT c0").unwrap();
        assert_eq!(e.to_string(), "(((1 + (2 * 3)) = 7) AND (NOT c0))");
    }

    #[test]
    fn parses_like_between_in() {
        let e = parse_expression("c0 NOT LIKE './'").unwrap();
        assert!(matches!(e, Expr::Like { negated: true, .. }));
        let e = parse_expression("c0 BETWEEN 1 AND 5").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expression("c0 NOT IN (1, 2, NULL)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, ref list, .. } if list.len() == 3));
    }

    #[test]
    fn parses_case_and_cast() {
        let e = parse_expression("CASE WHEN c0 > 0 THEN 'pos' ELSE 'neg' END").unwrap();
        assert!(matches!(e, Expr::Case { operand: None, ref branches, .. } if branches.len() == 1));
        let e = parse_expression("CAST(t1.c0 AS UNSIGNED)").unwrap();
        assert!(matches!(e, Expr::Cast { type_name: TypeName::Unsigned, .. }));
    }

    #[test]
    fn parses_functions_and_aggregates() {
        let e = parse_expression("IFNULL('u', t0.c0)").unwrap();
        assert!(
            matches!(e, Expr::Function { func: ScalarFunc::IfNull, ref args } if args.len() == 2)
        );
        let e = parse_expression("COUNT(*)").unwrap();
        assert!(matches!(e, Expr::Aggregate { func: AggFunc::Count, arg: None, .. }));
        let e = parse_expression("SUM(DISTINCT c0)").unwrap();
        assert!(matches!(e, Expr::Aggregate { func: AggFunc::Sum, distinct: true, .. }));
        let e = parse_expression("MIN(1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::Function { func: ScalarFunc::Min, ref args } if args.len() == 3));
        assert!(parse_expression("NO_SUCH_FUNC(1)").is_err());
        assert!(parse_expression("ABS(1, 2)").is_err());
    }

    #[test]
    fn parses_collate_and_null_safe_eq() {
        let e = parse_expression("c0 COLLATE NOCASE").unwrap();
        assert!(matches!(e, Expr::Collate { collation: Collation::NoCase, .. }));
        let e = parse_expression("NOT(t0.c0 <=> 2035382037)").unwrap();
        assert_eq!(e.to_string(), "(NOT (t0.c0 <=> 2035382037))");
    }

    #[test]
    fn folds_negative_literals() {
        assert_eq!(parse_expression("-5").unwrap(), Expr::int(-5));
        assert_eq!(parse_expression("-2.5").unwrap(), Expr::Literal(Value::Real(-2.5)));
    }

    #[test]
    fn parses_double_quoted_as_column_ref() {
        let e = parse_expression("\"C3\"").unwrap();
        assert_eq!(e, Expr::col("C3"));
    }
}
