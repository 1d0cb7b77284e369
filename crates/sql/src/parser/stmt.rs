//! Statement parsing.

use crate::ast::expr::Expr;
use crate::ast::stmt::{
    AlterTable, ColumnConstraint, ColumnDef, CompoundOp, CreateIndex, CreateTable, Delete,
    IndexedColumn, Insert, Join, JoinKind, OnConflict, OrderingTerm, Query, Select, SelectItem,
    SetScope, Statement, TableConstraint, TableEngine, Update,
};
use crate::collation::Collation;
use crate::error::{ParseError, ParseResult};
use crate::lexer::Token;
use crate::parser::Parser;
use crate::value::Value;

impl Parser {
    /// Parses a single statement.
    pub(crate) fn parse_statement(&mut self) -> ParseResult<Statement> {
        let first = self.peek().cloned().ok_or_else(|| ParseError::new("empty statement"))?;
        let word = match &first {
            Token::Ident(w) => w.to_ascii_uppercase(),
            other => return Err(ParseError::new(format!("unexpected token {other:?}"))),
        };
        match word.as_str() {
            "CREATE" => self.parse_create(),
            "DROP" => self.parse_drop(),
            "ALTER" => self.parse_alter(),
            "INSERT" => self.parse_insert(),
            "UPDATE" => self.parse_update(),
            "DELETE" => self.parse_delete(),
            "SELECT" => Ok(Statement::Select(self.parse_query()?)),
            "EXPLAIN" => {
                self.advance();
                Ok(Statement::Explain(self.parse_query()?))
            }
            "VACUUM" => {
                self.advance();
                let full = self.eat_keyword("FULL");
                Ok(Statement::Vacuum { full })
            }
            "REINDEX" => {
                self.advance();
                let target = if self.is_at_end() || matches!(self.peek(), Some(Token::Semicolon)) {
                    None
                } else {
                    Some(self.expect_ident()?)
                };
                Ok(Statement::Reindex { target })
            }
            "ANALYZE" => {
                self.advance();
                let target = if self.is_at_end() || matches!(self.peek(), Some(Token::Semicolon)) {
                    None
                } else {
                    Some(self.expect_ident()?)
                };
                Ok(Statement::Analyze { target })
            }
            "CHECK" => {
                self.advance();
                self.expect_keyword("TABLE")?;
                let table = self.expect_ident()?;
                let for_upgrade = if self.eat_keyword("FOR") {
                    self.expect_keyword("UPGRADE")?;
                    true
                } else {
                    false
                };
                Ok(Statement::CheckTable { table, for_upgrade })
            }
            "REPAIR" => {
                self.advance();
                self.expect_keyword("TABLE")?;
                let table = self.expect_ident()?;
                Ok(Statement::RepairTable { table })
            }
            "PRAGMA" => {
                self.advance();
                let name = self.expect_ident()?;
                let value =
                    if self.eat(&Token::Eq) { Some(self.parse_option_value()?) } else { None };
                Ok(Statement::Pragma { name, value })
            }
            "SET" => {
                self.advance();
                let scope = if self.eat_keyword("GLOBAL") {
                    SetScope::Global
                } else {
                    self.eat_keyword("SESSION");
                    SetScope::Session
                };
                let name = self.expect_ident()?;
                self.expect(&Token::Eq)?;
                let value = self.parse_option_value()?;
                Ok(Statement::Set { scope, name, value })
            }
            "DISCARD" => {
                self.advance();
                self.eat_keyword("ALL");
                Ok(Statement::Discard)
            }
            "BEGIN" => {
                self.advance();
                self.eat_keyword("TRANSACTION");
                Ok(Statement::Begin)
            }
            "COMMIT" => {
                self.advance();
                Ok(Statement::Commit)
            }
            "ROLLBACK" => {
                self.advance();
                Ok(Statement::Rollback)
            }
            "SESSION" => {
                self.advance();
                match self.advance().cloned() {
                    Some(Token::Integer(i)) if (0..=i64::from(u32::MAX)).contains(&i) => {
                        Ok(Statement::Session { id: i as u32 })
                    }
                    other => Err(ParseError::new(format!("expected session id, found {other:?}"))),
                }
            }
            other => Err(ParseError::new(format!("unknown statement keyword {other}"))),
        }
    }

    fn parse_option_value(&mut self) -> ParseResult<Value> {
        match self.advance().cloned() {
            Some(Token::Integer(i)) => Ok(Value::Integer(i)),
            Some(Token::Real(r)) => Ok(Value::Real(r)),
            Some(Token::String(s)) => Ok(Value::Text(s)),
            Some(Token::Minus) => match self.advance().cloned() {
                Some(Token::Integer(i)) => Ok(Value::Integer(-i)),
                Some(Token::Real(r)) => Ok(Value::Real(-r)),
                other => {
                    Err(ParseError::new(format!("expected number after '-', found {other:?}")))
                }
            },
            Some(Token::Ident(w)) => {
                let upper = w.to_ascii_uppercase();
                match upper.as_str() {
                    "TRUE" | "ON" => Ok(Value::Integer(1)),
                    "FALSE" | "OFF" => Ok(Value::Integer(0)),
                    "NULL" => Ok(Value::Null),
                    _ => Ok(Value::Text(w)),
                }
            }
            other => Err(ParseError::new(format!("expected option value, found {other:?}"))),
        }
    }

    fn parse_create(&mut self) -> ParseResult<Statement> {
        self.expect_keyword("CREATE")?;
        if self.eat_keyword("TABLE") {
            return self.parse_create_table();
        }
        let unique = self.eat_keyword("UNIQUE");
        if self.eat_keyword("INDEX") {
            return self.parse_create_index(unique);
        }
        if unique {
            return Err(ParseError::new("expected INDEX after CREATE UNIQUE"));
        }
        if self.eat_keyword("VIEW") {
            let name = self.expect_ident()?;
            self.expect_keyword("AS")?;
            self.expect_keyword("SELECT")?;
            // Rewind one token so parse_select sees SELECT.
            self.pos -= 1;
            let query = self.parse_select()?;
            return Ok(Statement::CreateView { name, query });
        }
        if self.eat_keyword("STATISTICS") {
            let name = self.expect_ident()?;
            self.expect_keyword("ON")?;
            let mut columns = vec![self.expect_ident()?];
            while self.eat(&Token::Comma) {
                columns.push(self.expect_ident()?);
            }
            self.expect_keyword("FROM")?;
            let table = self.expect_ident()?;
            return Ok(Statement::CreateStatistics { name, columns, table });
        }
        Err(ParseError::new("expected TABLE, INDEX, VIEW or STATISTICS after CREATE"))
    }

    fn parse_if_not_exists(&mut self) -> ParseResult<bool> {
        if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_create_table(&mut self) -> ParseResult<Statement> {
        let if_not_exists = self.parse_if_not_exists()?;
        let name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.peek_keyword("PRIMARY") {
                self.advance();
                self.expect_keyword("KEY")?;
                self.expect(&Token::LParen)?;
                let cols = self.parse_ident_list()?;
                self.expect(&Token::RParen)?;
                constraints.push(TableConstraint::PrimaryKey(cols));
            } else if self.peek_keyword("UNIQUE") && matches!(self.peek_nth(1), Some(Token::LParen))
            {
                self.advance();
                self.expect(&Token::LParen)?;
                let cols = self.parse_ident_list()?;
                self.expect(&Token::RParen)?;
                constraints.push(TableConstraint::Unique(cols));
            } else if self.peek_keyword("CHECK") && matches!(self.peek_nth(1), Some(Token::LParen))
            {
                self.advance();
                self.expect(&Token::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                constraints.push(TableConstraint::Check(e));
            } else {
                columns.push(self.parse_column_def()?);
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let mut inherits = None;
        let mut without_rowid = false;
        let mut engine = TableEngine::Default;
        loop {
            if self.eat_keyword("INHERITS") {
                self.expect(&Token::LParen)?;
                inherits = Some(self.expect_ident()?);
                self.expect(&Token::RParen)?;
            } else if self.eat_keyword("WITHOUT") {
                self.expect_keyword("ROWID")?;
                without_rowid = true;
            } else if self.eat_keyword("ENGINE") {
                self.expect(&Token::Eq)?;
                let e = self.expect_ident()?.to_ascii_uppercase();
                engine = match e.as_str() {
                    "MEMORY" => TableEngine::Memory,
                    "CSV" => TableEngine::Csv,
                    "INNODB" | "DEFAULT" => TableEngine::Default,
                    other => return Err(ParseError::new(format!("unknown engine {other}"))),
                };
            } else {
                break;
            }
        }
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            constraints,
            without_rowid,
            engine,
            inherits,
            if_not_exists,
        }))
    }

    fn parse_ident_list(&mut self) -> ParseResult<Vec<String>> {
        let mut out = vec![self.expect_ident()?];
        while self.eat(&Token::Comma) {
            out.push(self.expect_ident()?);
        }
        Ok(out)
    }

    fn parse_column_def(&mut self) -> ParseResult<ColumnDef> {
        let name = self.expect_ident()?;
        // The type is optional (SQLite).  A following identifier is a type
        // name only if it is a known type keyword.
        let type_name = if let Some(Token::Ident(w)) = self.peek() {
            let upper = w.to_ascii_uppercase();
            const TYPE_STARTERS: &[&str] = &[
                "INT", "INTEGER", "BIGINT", "TINYINT", "UNSIGNED", "REAL", "DOUBLE", "FLOAT",
                "TEXT", "VARCHAR", "CHAR", "CLOB", "BLOB", "BYTEA", "BOOLEAN", "BOOL", "SERIAL",
            ];
            if TYPE_STARTERS.contains(&upper.as_str()) {
                Some(self.parse_type_name()?)
            } else {
                None
            }
        } else {
            None
        };
        let mut constraints = Vec::new();
        loop {
            if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                constraints.push(ColumnConstraint::PrimaryKey);
            } else if self.peek_keyword("UNIQUE") {
                self.advance();
                constraints.push(ColumnConstraint::Unique);
            } else if self.peek_keyword("NOT") && self.peek_keyword_nth(1, "NULL") {
                self.advance();
                self.advance();
                constraints.push(ColumnConstraint::NotNull);
            } else if self.eat_keyword("COLLATE") {
                let n = self.expect_ident()?;
                let c = Collation::parse(&n)
                    .ok_or_else(|| ParseError::new(format!("unknown collation {n}")))?;
                constraints.push(ColumnConstraint::Collate(c));
            } else if self.eat_keyword("DEFAULT") {
                let v = self.parse_default_value()?;
                constraints.push(ColumnConstraint::Default(v));
            } else if self.peek_keyword("CHECK") {
                self.advance();
                self.expect(&Token::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                constraints.push(ColumnConstraint::Check(e));
            } else {
                break;
            }
        }
        Ok(ColumnDef { name, type_name, constraints })
    }

    /// Parses a column's `DEFAULT` value: one literal, optionally negated
    /// or parenthesised.  The value ends with the literal, so a following
    /// `COLLATE` stays a column constraint rather than collating the
    /// default.
    fn parse_default_value(&mut self) -> ParseResult<Value> {
        let negate = self.eat(&Token::Minus);
        match (negate, self.parse_primary()?) {
            (false, Expr::Literal(v)) => Ok(v),
            (true, Expr::Literal(Value::Integer(i))) if i != i64::MIN => Ok(Value::Integer(-i)),
            (true, Expr::Literal(Value::Real(r))) => Ok(Value::Real(-r)),
            (_, other) => Err(ParseError::new(format!("expected literal, found {other}"))),
        }
    }

    fn parse_create_index(&mut self, unique: bool) -> ParseResult<Statement> {
        let if_not_exists = self.parse_if_not_exists()?;
        let name = self.expect_ident()?;
        self.expect_keyword("ON")?;
        let table = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            // A trailing COLLATE inside parse_expr already attaches to the
            // expression; an explicit collation slot is only used when the
            // expression itself did not consume it.
            let collation = None;
            let descending = if self.eat_keyword("DESC") {
                true
            } else {
                self.eat_keyword("ASC");
                false
            };
            columns.push(IndexedColumn { expr, collation, descending });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
            where_clause,
            if_not_exists,
        }))
    }

    fn parse_drop(&mut self) -> ParseResult<Statement> {
        self.expect_keyword("DROP")?;
        let kind = self.expect_ident()?.to_ascii_uppercase();
        let if_exists = if self.eat_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        match kind.as_str() {
            "TABLE" => Ok(Statement::DropTable { name, if_exists }),
            "INDEX" => Ok(Statement::DropIndex { name, if_exists }),
            "VIEW" => Ok(Statement::DropView { name, if_exists }),
            other => Err(ParseError::new(format!("cannot DROP {other}"))),
        }
    }

    fn parse_alter(&mut self) -> ParseResult<Statement> {
        self.expect_keyword("ALTER")?;
        self.expect_keyword("TABLE")?;
        let table = self.expect_ident()?;
        if self.eat_keyword("RENAME") {
            if self.eat_keyword("COLUMN") {
                let old = self.expect_ident()?;
                self.expect_keyword("TO")?;
                let new = self.expect_ident()?;
                return Ok(Statement::AlterTable(AlterTable::RenameColumn { table, old, new }));
            }
            self.expect_keyword("TO")?;
            let new_name = self.expect_ident()?;
            return Ok(Statement::AlterTable(AlterTable::RenameTable { table, new_name }));
        }
        if self.eat_keyword("ADD") {
            self.eat_keyword("COLUMN");
            let def = self.parse_column_def()?;
            return Ok(Statement::AlterTable(AlterTable::AddColumn { table, def }));
        }
        Err(ParseError::new("expected RENAME or ADD in ALTER TABLE"))
    }

    fn parse_insert(&mut self) -> ParseResult<Statement> {
        self.expect_keyword("INSERT")?;
        let on_conflict = if self.eat_keyword("OR") {
            if self.eat_keyword("IGNORE") {
                OnConflict::Ignore
            } else if self.eat_keyword("REPLACE") {
                OnConflict::Replace
            } else {
                return Err(ParseError::new("expected IGNORE or REPLACE after INSERT OR"));
            }
        } else if self.eat_keyword("IGNORE") {
            OnConflict::Ignore
        } else {
            OnConflict::Abort
        };
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?;
        let columns = if self.eat(&Token::LParen) {
            let cols = self.parse_ident_list()?;
            self.expect(&Token::RParen)?;
            cols
        } else {
            Vec::new()
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            if !matches!(self.peek(), Some(Token::RParen)) {
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert { table, columns, rows, on_conflict }))
    }

    fn parse_update(&mut self) -> ParseResult<Statement> {
        self.expect_keyword("UPDATE")?;
        let on_conflict = if self.eat_keyword("OR") {
            if self.eat_keyword("IGNORE") {
                OnConflict::Ignore
            } else if self.eat_keyword("REPLACE") {
                OnConflict::Replace
            } else {
                return Err(ParseError::new("expected IGNORE or REPLACE after UPDATE OR"));
            }
        } else {
            OnConflict::Abort
        };
        let table = self.expect_ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(&Token::Eq)?;
            let e = self.parse_expr()?;
            assignments.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update(Update { table, assignments, where_clause, on_conflict }))
    }

    fn parse_delete(&mut self) -> ParseResult<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete(Delete { table, where_clause }))
    }

    /// Parses a query, handling compound set operators.
    pub(crate) fn parse_query(&mut self) -> ParseResult<Query> {
        let first = self.parse_select()?;
        let mut q = Query::Select(Box::new(first));
        loop {
            let op = if self.eat_keyword("INTERSECT") {
                CompoundOp::Intersect
            } else if self.eat_keyword("EXCEPT") {
                CompoundOp::Except
            } else if self.eat_keyword("UNION") {
                if self.eat_keyword("ALL") {
                    CompoundOp::UnionAll
                } else {
                    CompoundOp::Union
                }
            } else {
                break;
            };
            let right = self.parse_select()?;
            q = Query::Compound {
                left: Box::new(q),
                op,
                right: Box::new(Query::Select(Box::new(right))),
            };
        }
        Ok(q)
    }

    fn parse_select(&mut self) -> ParseResult<Select> {
        self.expect_keyword("SELECT")?;
        let distinct = if self.eat_keyword("DISTINCT") {
            true
        } else {
            self.eat_keyword("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword("AS") { Some(self.expect_ident()?) } else { None };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        let mut joins = Vec::new();
        if self.eat_keyword("FROM") {
            from.push(self.expect_ident()?);
            loop {
                if self.eat(&Token::Comma) {
                    from.push(self.expect_ident()?);
                    continue;
                }
                let kind = if self.peek_keyword("CROSS") && self.peek_keyword_nth(1, "JOIN") {
                    self.advance();
                    self.advance();
                    Some(JoinKind::Cross)
                } else if self.peek_keyword("INNER") && self.peek_keyword_nth(1, "JOIN") {
                    self.advance();
                    self.advance();
                    Some(JoinKind::Inner)
                } else if self.peek_keyword("LEFT") {
                    self.advance();
                    self.eat_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    Some(JoinKind::Left)
                } else if self.peek_keyword("JOIN") {
                    self.advance();
                    Some(JoinKind::Inner)
                } else {
                    None
                };
                match kind {
                    Some(kind) => {
                        let table = self.expect_ident()?;
                        let on =
                            if self.eat_keyword("ON") { Some(self.parse_expr()?) } else { None };
                        joins.push(Join { kind, table, on });
                    }
                    None => break,
                }
            }
        }
        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("HAVING") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderingTerm { expr, descending, collation: None });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                Some(Token::Integer(i)) if *i >= 0 => Some(*i as u64),
                other => {
                    return Err(ParseError::new(format!("expected LIMIT count, found {other:?}")))
                }
            }
        } else {
            None
        };
        let offset = if self.eat_keyword("OFFSET") {
            match self.advance() {
                Some(Token::Integer(i)) if *i >= 0 => Some(*i as u64),
                other => {
                    return Err(ParseError::new(format!("expected OFFSET count, found {other:?}")))
                }
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_script, parse_statement};

    #[test]
    fn parses_listing1_script() {
        let script = "
            CREATE TABLE t0(c0);
            CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;
            INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);
            SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1;
        ";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 4);
        assert!(
            matches!(&stmts[0], Statement::CreateTable(ct) if ct.columns.len() == 1 && ct.columns[0].type_name.is_none())
        );
        assert!(matches!(&stmts[1], Statement::CreateIndex(ci) if ci.where_clause.is_some()));
        assert!(matches!(&stmts[2], Statement::Insert(i) if i.rows.len() == 5));
        assert!(matches!(&stmts[3], Statement::Select(_)));
    }

    #[test]
    fn parses_listing4_collate_without_rowid() {
        let stmts = parse_script(
            "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID;
             CREATE INDEX i0 ON t0(c1 COLLATE NOCASE);
             INSERT INTO t0(c0) VALUES ('A');
             SELECT * FROM t0;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 4);
        match &stmts[0] {
            Statement::CreateTable(ct) => {
                assert!(ct.without_rowid);
                assert!(ct.columns[0].has_primary_key());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_listing5_compound_pk() {
        let stmt = parse_statement(
            "CREATE TABLE t0(c0 COLLATE RTRIM, c1 BLOB UNIQUE, PRIMARY KEY (c0, c1)) WITHOUT ROWID",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 2);
                assert_eq!(ct.columns[0].collation(), Some(Collation::Rtrim));
                assert!(ct.columns[1].has_unique());
                assert_eq!(ct.constraints.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_mysql_engine_and_unsigned_cast() {
        let stmts = parse_script(
            "CREATE TABLE t1(c0 INT) ENGINE = MEMORY;
             SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (IFNULL('u', t0.c0));",
        )
        .unwrap();
        assert!(
            matches!(&stmts[0], Statement::CreateTable(ct) if ct.engine == TableEngine::Memory)
        );
        assert!(matches!(&stmts[1], Statement::Select(_)));
    }

    #[test]
    fn parses_postgres_inherits_and_statistics() {
        let stmts = parse_script(
            "CREATE TABLE t1(c0 INT) INHERITS (t0);
             CREATE STATISTICS s1 ON c0, c1 FROM t0;
             SELECT c0, c1 FROM t0 GROUP BY c0, c1;",
        )
        .unwrap();
        assert!(
            matches!(&stmts[0], Statement::CreateTable(ct) if ct.inherits.as_deref() == Some("t0"))
        );
        assert!(
            matches!(&stmts[1], Statement::CreateStatistics { columns, .. } if columns.len() == 2)
        );
        assert!(matches!(&stmts[2], Statement::Select(Query::Select(s)) if s.group_by.len() == 2));
    }

    #[test]
    fn parses_update_or_replace_and_pragma() {
        let stmts = parse_script(
            "UPDATE OR REPLACE t1 SET c1 = 1;
             PRAGMA case_sensitive_like=false;
             SET GLOBAL key_cache_division_limit = 100;",
        )
        .unwrap();
        assert!(matches!(&stmts[0], Statement::Update(u) if u.on_conflict == OnConflict::Replace));
        assert!(matches!(&stmts[1], Statement::Pragma { value: Some(Value::Integer(0)), .. }));
        assert!(matches!(&stmts[2], Statement::Set { scope: SetScope::Global, .. }));
    }

    #[test]
    fn parses_select_with_joins_order_limit() {
        let stmt = parse_statement(
            "SELECT DISTINCT t0.c0 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c0 > 1 \
             GROUP BY t0.c0 HAVING COUNT(*) > 1 ORDER BY t0.c0 DESC LIMIT 10 OFFSET 2",
        )
        .unwrap();
        match stmt {
            Statement::Select(Query::Select(s)) => {
                assert!(s.distinct);
                assert_eq!(s.joins.len(), 1);
                assert_eq!(s.joins[0].kind, JoinKind::Left);
                assert!(s.having.is_some());
                assert_eq!(s.limit, Some(10));
                assert_eq!(s.offset, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_intersect_containment_query() {
        let stmt = parse_statement(
            "SELECT 3, 'x', -5 INTERSECT SELECT t0.c0, t0.c1, t1.c0 FROM t0, t1 WHERE NOT(NOT(t0.c1 OR (t1.c0 > 3)))",
        )
        .unwrap();
        assert!(matches!(
            stmt,
            Statement::Select(Query::Compound { op: CompoundOp::Intersect, .. })
        ));
    }

    #[test]
    fn parses_maintenance_statements() {
        assert!(matches!(
            parse_statement("VACUUM FULL").unwrap(),
            Statement::Vacuum { full: true }
        ));
        assert!(matches!(parse_statement("REINDEX").unwrap(), Statement::Reindex { target: None }));
        assert!(
            matches!(parse_statement("ANALYZE t1").unwrap(), Statement::Analyze { target: Some(t) } if t == "t1")
        );
        assert!(matches!(
            parse_statement("CHECK TABLE t0 FOR UPGRADE").unwrap(),
            Statement::CheckTable { for_upgrade: true, .. }
        ));
        assert!(matches!(
            parse_statement("REPAIR TABLE t0").unwrap(),
            Statement::RepairTable { .. }
        ));
        assert!(matches!(parse_statement("DISCARD ALL").unwrap(), Statement::Discard));
    }

    #[test]
    fn parses_alter_table_variants() {
        assert!(matches!(
            parse_statement("ALTER TABLE t0 RENAME COLUMN c1 TO c3").unwrap(),
            Statement::AlterTable(AlterTable::RenameColumn { .. })
        ));
        assert!(matches!(
            parse_statement("ALTER TABLE t0 RENAME TO t9").unwrap(),
            Statement::AlterTable(AlterTable::RenameTable { .. })
        ));
        assert!(matches!(
            parse_statement("ALTER TABLE t0 ADD COLUMN c5 TEXT NOT NULL").unwrap(),
            Statement::AlterTable(AlterTable::AddColumn { .. })
        ));
    }

    #[test]
    fn parses_drop_variants() {
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t0").unwrap(),
            Statement::DropTable { if_exists: true, .. }
        ));
        assert!(matches!(
            parse_statement("DROP INDEX i0").unwrap(),
            Statement::DropIndex { if_exists: false, .. }
        ));
        assert!(matches!(parse_statement("DROP VIEW v0").unwrap(), Statement::DropView { .. }));
    }

    #[test]
    fn statement_display_round_trips_through_parser() {
        let scripts = [
            "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID",
            "CREATE INDEX i0 ON t0(1) WHERE (c0 IS NOT NULL)",
            "INSERT OR IGNORE INTO t0(c0) VALUES (0), (NULL)",
            "UPDATE OR REPLACE t1 SET c1 = 1 WHERE (c0 IS NULL)",
            "SELECT DISTINCT * FROM t1 WHERE (t1.c3 = 1)",
            "SELECT '' - 2851427734582196970",
            "DELETE FROM t0 WHERE (c0 > 3)",
            "EXPLAIN SELECT * FROM t0 WHERE (c0 = 1)",
            "CREATE TABLE t0(c0 TEXT NOT NULL DEFAULT 0 COLLATE NOCASE, c1 INT DEFAULT -3)",
        ];
        for s in scripts {
            let stmt = parse_statement(s).unwrap();
            let rendered = stmt.to_string();
            let reparsed = parse_statement(&rendered).unwrap();
            assert_eq!(stmt, reparsed, "round trip failed for {s}");
        }
    }
}
