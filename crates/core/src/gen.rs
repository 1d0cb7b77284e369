//! Random generation: database states (§3.3, step 1) and expressions
//! (§3.2, Algorithm 1).

use lancer_engine::{Dialect, Engine};
use lancer_sql::ast::expr::{BinaryOp, ScalarFunc, TypeName, UnaryOp};
use lancer_sql::ast::stmt::{
    ColumnConstraint, ColumnDef, CreateIndex, CreateTable, Delete, IndexedColumn, Insert,
    OnConflict, SetScope, Statement, TableConstraint, TableEngine, Update,
};
use lancer_sql::ast::Expr;
use lancer_sql::collation::Collation;
use lancer_sql::value::Value;
use lancer_storage::schema::ColumnMeta;
use rand::seq::SliceRandom;
use rand::Rng;

/// Tuning knobs for the generators.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of tables per database.
    pub max_tables: usize,
    /// Minimum rows inserted per table (the paper uses 10–30, §3.4).
    pub min_rows: usize,
    /// Maximum rows inserted per table.
    pub max_rows: usize,
    /// Maximum expression tree depth (Algorithm 1's `maxdepth`).
    pub max_expr_depth: usize,
    /// Number of additional DDL/DML/maintenance statements generated after
    /// the initial tables and rows.
    pub extra_statements: usize,
    /// Maximum number of tables a per-query oracle pulls into one check
    /// (the pivot-row cross product of §3.1 step 2, also used by the TLP
    /// oracle's FROM clause).  Values below 1 are treated as 1.
    pub max_pivot_tables: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_tables: 3,
            min_rows: 10,
            max_rows: 30,
            max_expr_depth: 3,
            extra_statements: 12,
            max_pivot_tables: 2,
        }
    }
}

impl GenConfig {
    /// A small configuration for fast unit tests.
    #[must_use]
    pub fn tiny() -> GenConfig {
        GenConfig {
            max_tables: 2,
            min_rows: 2,
            max_rows: 5,
            max_expr_depth: 2,
            extra_statements: 4,
            max_pivot_tables: 2,
        }
    }
}

/// A column visible to the expression generator: its owning table and
/// metadata.
#[derive(Debug, Clone)]
pub struct VisibleColumn {
    /// Owning table.
    pub table: String,
    /// Column metadata.
    pub meta: ColumnMeta,
}

/// Generates a random literal value.  Values are skewed towards the small
/// integers, boundary integers, short strings (with case and trailing-space
/// variants) and NULLs that the paper's bug listings feature.
pub fn random_value<R: Rng>(rng: &mut R, dialect: Dialect) -> Value {
    match rng.gen_range(0..100) {
        0..=19 => Value::Null,
        20..=44 => Value::Integer(rng.gen_range(-3..=3)),
        45..=54 => Value::Integer(
            *[
                0,
                1,
                -1,
                127,
                128,
                -128,
                2_147_483_647,
                9_223_372_036_854_775_807,
                -9_223_372_036_854_775_808,
                2_851_427_734_582_196_970,
            ]
            .choose(rng)
            .expect("non-empty"),
        ),
        55..=64 => Value::Real(match rng.gen_range(0..4) {
            0 => 0.5,
            1 => -0.0,
            2 => f64::from(rng.gen_range(-3i32..=3)) + 0.5,
            _ => 1e30,
        }),
        65..=89 => {
            let base = ["a", "A", "ab", "Ab", "./", "b", "", " ", "a ", "0.5", "123", "u"];
            Value::Text((*base.choose(rng).expect("non-empty")).to_owned())
        }
        90..=94 => {
            if dialect == Dialect::Duckdb {
                // No BLOB storage class in the strictly typed columnar
                // profile; substitute a short string.
                let base = ["a", "A", "ab", ""];
                Value::Text((*base.choose(rng).expect("non-empty")).to_owned())
            } else {
                Value::Blob(vec![rng.gen_range(0..=255u8); rng.gen_range(0..3)])
            }
        }
        _ => {
            if dialect.strict_typing() {
                Value::Boolean(rng.gen_bool(0.5))
            } else {
                Value::Integer(i64::from(rng.gen_bool(0.5)))
            }
        }
    }
}

/// Algorithm 1: generates a random expression tree over the visible columns.
///
/// For the PostgreSQL-like dialect the *root* is guaranteed to be a
/// predicate (comparison / logical operator), because that dialect performs
/// no implicit conversion to boolean (§3.2).
pub fn random_expression<R: Rng>(
    rng: &mut R,
    columns: &[VisibleColumn],
    dialect: Dialect,
    depth: usize,
) -> Expr {
    if !dialect.implicit_boolean_conversion() && depth == 0 {
        // Force a boolean-producing root (PostgreSQL and DuckDB perform no
        // implicit conversion to boolean, §3.2).
        return random_predicate(rng, columns, dialect, 0);
    }
    let leaf_only = depth >= 4;
    if leaf_only || rng.gen_bool(0.35 + 0.1 * depth as f64) {
        // Leaf: literal or column reference.
        if !columns.is_empty() && rng.gen_bool(0.55) {
            let c = columns.choose(rng).expect("non-empty");
            return Expr::qcol(c.table.clone(), c.meta.name.clone());
        }
        return Expr::Literal(random_value(rng, dialect));
    }
    let d = depth + 1;
    match rng.gen_range(0..12) {
        0 => Expr::Unary {
            op: *UnaryOp::ALL.choose(rng).expect("non-empty"),
            expr: Box::new(random_expression(rng, columns, dialect, d)),
        },
        1 | 2 => {
            let mut ops: Vec<BinaryOp> = Vec::new();
            ops.extend(BinaryOp::COMPARISONS);
            ops.extend(BinaryOp::ARITHMETIC);
            ops.extend([BinaryOp::And, BinaryOp::Or, BinaryOp::Concat]);
            if dialect.has_scalar_is() {
                ops.extend([BinaryOp::Is, BinaryOp::IsNot]);
            }
            if dialect.has_null_safe_eq() {
                ops.push(BinaryOp::NullSafeEq);
            }
            Expr::binary(
                *ops.choose(rng).expect("non-empty"),
                random_expression(rng, columns, dialect, d),
                random_expression(rng, columns, dialect, d),
            )
        }
        3 => Expr::Like {
            negated: rng.gen_bool(0.3),
            expr: Box::new(random_expression(rng, columns, dialect, d)),
            pattern: Box::new(Expr::Literal(Value::Text(random_like_pattern(rng)))),
        },
        4 => Expr::Between {
            negated: rng.gen_bool(0.3),
            expr: Box::new(random_expression(rng, columns, dialect, d)),
            low: Box::new(random_expression(rng, columns, dialect, d)),
            high: Box::new(random_expression(rng, columns, dialect, d)),
        },
        5 => {
            let n = rng.gen_range(1..=3);
            Expr::InList {
                negated: rng.gen_bool(0.3),
                expr: Box::new(random_expression(rng, columns, dialect, d)),
                list: (0..n).map(|_| random_expression(rng, columns, dialect, d)).collect(),
            }
        }
        6 => Expr::IsNull {
            negated: rng.gen_bool(0.5),
            expr: Box::new(random_expression(rng, columns, dialect, d)),
        },
        7 => {
            let types: Vec<TypeName> = dialect.supported_types();
            Expr::Cast {
                expr: Box::new(random_expression(rng, columns, dialect, d)),
                type_name: *types.choose(rng).expect("non-empty"),
            }
        }
        8 => {
            let n = rng.gen_range(1..=2);
            Expr::Case {
                operand: if rng.gen_bool(0.3) {
                    Some(Box::new(random_expression(rng, columns, dialect, d)))
                } else {
                    None
                },
                branches: (0..n)
                    .map(|_| {
                        (
                            random_expression(rng, columns, dialect, d),
                            random_expression(rng, columns, dialect, d),
                        )
                    })
                    .collect(),
                else_expr: if rng.gen_bool(0.5) {
                    Some(Box::new(random_expression(rng, columns, dialect, d)))
                } else {
                    None
                },
            }
        }
        9 => {
            let func = *ScalarFunc::ALL.choose(rng).expect("non-empty");
            let (lo, hi) = func.arity();
            let n = rng.gen_range(lo..=hi.min(lo + 2));
            Expr::Function {
                func,
                args: (0..n).map(|_| random_expression(rng, columns, dialect, d)).collect(),
            }
        }
        10 if dialect.has_collations() => Expr::Collate {
            expr: Box::new(random_expression(rng, columns, dialect, d)),
            collation: *Collation::ALL.choose(rng).expect("non-empty"),
        },
        _ => Expr::binary(
            *BinaryOp::COMPARISONS.choose(rng).expect("non-empty"),
            random_expression(rng, columns, dialect, d),
            random_expression(rng, columns, dialect, d),
        ),
    }
}

/// Generates an expression whose root is guaranteed to produce a boolean
/// value (used as the root for the strict PostgreSQL-like dialect).
fn random_predicate<R: Rng>(
    rng: &mut R,
    columns: &[VisibleColumn],
    dialect: Dialect,
    depth: usize,
) -> Expr {
    if depth >= 2 {
        return Expr::binary(
            *BinaryOp::COMPARISONS.choose(rng).expect("non-empty"),
            random_expression(rng, columns, dialect, depth + 1),
            random_expression(rng, columns, dialect, depth + 1),
        );
    }
    match rng.gen_range(0..4) {
        0 => Expr::IsNull {
            negated: rng.gen_bool(0.5),
            expr: Box::new(random_expression(rng, columns, dialect, depth + 1)),
        },
        1 => random_predicate(rng, columns, dialect, depth + 1).not(),
        2 => Expr::binary(
            *[BinaryOp::And, BinaryOp::Or].choose(rng).expect("non-empty"),
            random_predicate(rng, columns, dialect, depth + 1),
            random_predicate(rng, columns, dialect, depth + 1),
        ),
        _ => Expr::binary(
            *BinaryOp::COMPARISONS.choose(rng).expect("non-empty"),
            random_expression(rng, columns, dialect, depth + 1),
            random_expression(rng, columns, dialect, depth + 1),
        ),
    }
}

/// A random `LIKE` pattern of one or two parts: letters of both cases,
/// wildcards, and a trailing escape character.
pub fn random_like_pattern<R: Rng>(rng: &mut R) -> String {
    let parts = ["a", "A", "%", "_", "b", "./", "", "ab%", "%b", "a\\"];
    let n = rng.gen_range(1..=2);
    (0..n).map(|_| *parts.choose(rng).expect("non-empty")).collect()
}

/// The random database-state generator (§3.3).
#[derive(Debug)]
pub struct StateGenerator {
    dialect: Dialect,
    config: GenConfig,
    table_counter: usize,
    index_counter: usize,
}

impl StateGenerator {
    /// Creates a generator for the given dialect.
    #[must_use]
    pub fn new(dialect: Dialect, config: GenConfig) -> StateGenerator {
        StateGenerator { dialect, config, table_counter: 0, index_counter: 0 }
    }

    /// The columns currently visible in the engine's catalog.
    #[must_use]
    pub fn visible_columns(engine: &Engine) -> Vec<VisibleColumn> {
        let mut out = Vec::new();
        for t in engine.database().table_names() {
            if let Some(table) = engine.database().table(&t) {
                for c in &table.schema.columns {
                    out.push(VisibleColumn { table: t.clone(), meta: c.clone() });
                }
            }
        }
        out
    }

    /// Generates a random `CREATE TABLE` for this dialect.
    pub fn random_create_table<R: Rng>(&mut self, rng: &mut R, engine: &Engine) -> Statement {
        let name = format!("t{}", self.table_counter);
        self.table_counter += 1;
        let n_cols = rng.gen_range(1..=4);
        let types = self.dialect.supported_types();
        let mut columns = Vec::new();
        for i in 0..n_cols {
            let type_name = if self.dialect.allows_untyped_columns() && rng.gen_bool(0.4) {
                None
            } else {
                Some(*types.choose(rng).expect("non-empty"))
            };
            let mut def = ColumnDef::new(format!("c{i}"), type_name);
            if rng.gen_bool(0.2) {
                def.constraints.push(ColumnConstraint::Unique);
            }
            if rng.gen_bool(0.1) {
                def.constraints.push(ColumnConstraint::NotNull);
                def.constraints.push(ColumnConstraint::Default(Value::Integer(0)));
            }
            if self.dialect.has_collations()
                && (type_name == Some(TypeName::Text) || type_name.is_none())
                && rng.gen_bool(0.35)
            {
                def.constraints.push(ColumnConstraint::Collate(
                    *Collation::ALL.choose(rng).expect("non-empty"),
                ));
            }
            columns.push(def);
        }
        let mut ct = CreateTable::new(name, columns);
        // PRIMARY KEY: either on a column or table level.
        if rng.gen_bool(0.4) {
            if rng.gen_bool(0.5) {
                ct.columns[0].constraints.push(ColumnConstraint::PrimaryKey);
            } else {
                let cols: Vec<String> = ct
                    .columns
                    .iter()
                    .take(rng.gen_range(1..=ct.columns.len()))
                    .map(|c| c.name.clone())
                    .collect();
                ct.constraints.push(TableConstraint::PrimaryKey(cols));
            }
            if self.dialect.has_without_rowid() && rng.gen_bool(0.35) {
                ct.without_rowid = true;
            }
        }
        if self.dialect.has_table_engines() && rng.gen_bool(0.3) {
            ct.engine = TableEngine::Memory;
        }
        if self.dialect.has_inheritance() && rng.gen_bool(0.25) {
            let existing = engine.database().table_names();
            if let Some(parent) = existing.choose(rng) {
                ct.inherits = Some(parent.clone());
            }
        }
        Statement::CreateTable(ct)
    }

    /// Generates a random `INSERT` into an existing table.
    pub fn random_insert<R: Rng>(
        &self,
        rng: &mut R,
        engine: &Engine,
        table: &str,
    ) -> Option<Statement> {
        let t = engine.database().table(table)?;
        let columns: Vec<String> = t.schema.column_names();
        let chosen: Vec<String> = if rng.gen_bool(0.3) && columns.len() > 1 {
            let n = rng.gen_range(1..columns.len());
            columns.iter().take(n).cloned().collect()
        } else {
            columns
        };
        let n_rows = rng.gen_range(1..=4);
        let rows = (0..n_rows)
            .map(|_| {
                chosen.iter().map(|_| Expr::Literal(random_value(rng, self.dialect))).collect()
            })
            .collect();
        let on_conflict = match rng.gen_range(0..10) {
            0..=6 => OnConflict::Abort,
            7 | 8 => OnConflict::Ignore,
            _ => OnConflict::Replace,
        };
        Some(Statement::Insert(Insert {
            table: table.to_owned(),
            columns: chosen,
            rows,
            on_conflict,
        }))
    }

    /// Generates a random `CREATE INDEX` on an existing table.
    pub fn random_create_index<R: Rng>(
        &mut self,
        rng: &mut R,
        engine: &Engine,
        table: &str,
    ) -> Option<Statement> {
        let t = engine.database().table(table)?;
        let name = format!("i{}", self.index_counter);
        self.index_counter += 1;
        let cols: Vec<VisibleColumn> = t
            .schema
            .columns
            .iter()
            .map(|c| VisibleColumn { table: table.to_owned(), meta: c.clone() })
            .collect();
        let n = rng.gen_range(1..=2.min(cols.len().max(1)));
        let columns: Vec<IndexedColumn> = (0..n)
            .map(|_| {
                let expr = if rng.gen_bool(0.75) {
                    let c = cols.choose(rng).expect("non-empty");
                    Expr::col(c.meta.name.clone())
                } else {
                    // Expression index (the surface behind several faults).
                    let local: Vec<VisibleColumn> = cols
                        .iter()
                        .map(|c| VisibleColumn { table: String::new(), meta: c.meta.clone() })
                        .collect();
                    let mut e = random_expression(rng, &local, self.dialect, 2);
                    strip_table_qualifiers(&mut e);
                    e
                };
                IndexedColumn {
                    expr,
                    collation: if self.dialect.has_collations() && rng.gen_bool(0.25) {
                        Some(*Collation::ALL.choose(rng).expect("non-empty"))
                    } else {
                        None
                    },
                    descending: rng.gen_bool(0.2),
                }
            })
            .collect();
        let where_clause = if self.dialect.has_partial_indexes() && rng.gen_bool(0.3) {
            let c = cols.choose(rng)?;
            Some(Expr::IsNull { negated: true, expr: Box::new(Expr::col(c.meta.name.clone())) })
        } else {
            None
        };
        Some(Statement::CreateIndex(CreateIndex {
            name,
            table: table.to_owned(),
            columns,
            unique: rng.gen_bool(0.3),
            where_clause,
            if_not_exists: false,
        }))
    }

    /// Generates a random `UPDATE` or `DELETE` on an existing table.
    pub fn random_dml<R: Rng>(
        &self,
        rng: &mut R,
        engine: &Engine,
        table: &str,
    ) -> Option<Statement> {
        let t = engine.database().table(table)?;
        let cols: Vec<VisibleColumn> = t
            .schema
            .columns
            .iter()
            .map(|c| VisibleColumn { table: table.to_owned(), meta: c.clone() })
            .collect();
        let where_clause = if rng.gen_bool(0.7) {
            let mut e = random_expression(rng, &cols, self.dialect, 1);
            strip_table_qualifiers(&mut e);
            Some(e)
        } else {
            None
        };
        if rng.gen_bool(0.6) {
            let target = cols.choose(rng)?;
            let assignments =
                vec![(target.meta.name.clone(), Expr::Literal(random_value(rng, self.dialect)))];
            let on_conflict =
                if rng.gen_bool(0.2) { OnConflict::Replace } else { OnConflict::Abort };
            Some(Statement::Update(Update {
                table: table.to_owned(),
                assignments,
                where_clause,
                on_conflict,
            }))
        } else {
            Some(Statement::Delete(Delete { table: table.to_owned(), where_clause }))
        }
    }

    /// Generates a random maintenance / option statement for the dialect.
    pub fn random_maintenance<R: Rng>(&self, rng: &mut R, engine: &Engine) -> Option<Statement> {
        let tables = engine.database().table_names();
        let table = tables.choose(rng)?.clone();
        let stmt = match self.dialect {
            Dialect::Sqlite => match rng.gen_range(0..6) {
                0 => Statement::Vacuum { full: false },
                1 => Statement::Reindex { target: None },
                2 => Statement::Analyze { target: Some(table) },
                3 => Statement::Pragma {
                    name: "case_sensitive_like".into(),
                    value: Some(Value::Integer(i64::from(rng.gen_bool(0.5)))),
                },
                4 => Statement::Analyze { target: None },
                _ => Statement::Reindex { target: Some(table) },
            },
            Dialect::Mysql => match rng.gen_range(0..5) {
                0 => Statement::CheckTable { table, for_upgrade: rng.gen_bool(0.5) },
                1 => Statement::RepairTable { table },
                2 => Statement::Analyze { target: Some(table) },
                _ => Statement::Set {
                    scope: if rng.gen_bool(0.5) { SetScope::Global } else { SetScope::Session },
                    name: "key_cache_division_limit".into(),
                    value: Value::Integer(100),
                },
            },
            Dialect::Postgres => match rng.gen_range(0..6) {
                0 => Statement::Vacuum { full: rng.gen_bool(0.5) },
                1 => Statement::Reindex { target: Some(table) },
                2 => Statement::Analyze { target: None },
                3 => {
                    let t = engine.database().table(&table)?;
                    let columns: Vec<String> =
                        t.schema.column_names().into_iter().take(2).collect();
                    Statement::CreateStatistics {
                        name: format!("s_{table}_{}", rng.gen_range(0..1000)),
                        columns,
                        table,
                    }
                }
                4 => Statement::Discard,
                _ => Statement::Analyze { target: Some(table) },
            },
            // The columnar profile's only maintenance surface is ANALYZE
            // (row-group statistics); no VACUUM/REINDEX/PRAGMA equivalents.
            Dialect::Duckdb => match rng.gen_range(0..3) {
                0 => Statement::Analyze { target: None },
                _ => Statement::Analyze { target: Some(table) },
            },
        };
        Some(stmt)
    }

    /// Generates a complete random database on the engine, returning the
    /// statements that were *successfully* executed (the reproduction log).
    /// Statements that fail are returned separately together with their
    /// error messages so the caller can apply the error oracle.
    pub fn generate_database<R: Rng>(
        &mut self,
        rng: &mut R,
        engine: &mut Engine,
    ) -> (Vec<Statement>, Vec<(Statement, lancer_engine::EngineError)>) {
        let mut log = Vec::new();
        let mut failures = Vec::new();
        let n_tables = rng.gen_range(1..=self.config.max_tables);
        for _ in 0..n_tables {
            // Retry a few times: some random CREATE TABLEs are legitimately
            // rejected (e.g. WITHOUT ROWID without a primary key).
            for _ in 0..5 {
                let stmt = self.random_create_table(rng, engine);
                match engine.execute(&stmt) {
                    Ok(_) => {
                        log.push(stmt);
                        break;
                    }
                    Err(e) => failures.push((stmt, e)),
                }
            }
        }
        let tables = engine.database().table_names();
        for table in &tables {
            let target_rows = rng.gen_range(self.config.min_rows..=self.config.max_rows);
            let mut inserted = 0usize;
            let mut attempts = 0usize;
            while inserted < target_rows && attempts < target_rows * 4 {
                attempts += 1;
                if let Some(stmt) = self.random_insert(rng, engine, table) {
                    match engine.execute(&stmt) {
                        Ok(r) => {
                            inserted += r.affected;
                            if r.affected > 0 {
                                log.push(stmt);
                            }
                        }
                        Err(e) => failures.push((stmt, e)),
                    }
                }
            }
        }
        for _ in 0..self.config.extra_statements {
            let tables = engine.database().table_names();
            let Some(table) = tables.choose(rng).cloned() else { break };
            let stmt = match rng.gen_range(0..10) {
                0..=3 => self.random_create_index(rng, engine, &table),
                4..=6 => self.random_dml(rng, engine, &table),
                7 => self.random_insert(rng, engine, &table),
                _ => self.random_maintenance(rng, engine),
            };
            if let Some(stmt) = stmt {
                match engine.execute(&stmt) {
                    Ok(_) => log.push(stmt),
                    Err(e) => failures.push((stmt, e)),
                }
            }
        }
        (log, failures)
    }

    /// Appends a deterministic multi-session transaction episode to an
    /// already generated database: a fault-surface prefix (an extra index;
    /// a SERIAL table on PostgreSQL), then 2–3 logical sessions that each
    /// open a transaction, apply a handful of DML statements and COMMIT or
    /// ROLLBACK.  The interleaving is drawn from the caller's RNG stream,
    /// and `SESSION <id>` markers record it in the log, so the returned
    /// statements replay to the identical state on a fresh engine — the
    /// same determinism contract as [`generate_database`].
    ///
    /// The first session always commits and the second always rolls back,
    /// so every episode exercises both the publish and the restore path;
    /// a third session draws its terminator from the RNG.
    ///
    /// [`generate_database`]: StateGenerator::generate_database
    pub fn generate_txn_episode<R: Rng>(
        &mut self,
        rng: &mut R,
        engine: &mut Engine,
    ) -> (Vec<Statement>, Vec<(Statement, lancer_engine::EngineError)>) {
        let mut log = Vec::new();
        let mut failures = Vec::new();
        let exec =
            |stmt: Statement,
             engine: &mut Engine,
             log: &mut Vec<Statement>,
             failures: &mut Vec<(Statement, lancer_engine::EngineError)>| {
                match engine.execute(&stmt) {
                    Ok(_) => log.push(stmt),
                    Err(e) => failures.push((stmt, e)),
                }
            };
        // Fault-surface prefix: an index makes torn rollbacks observable,
        // a SERIAL table makes sequence-vs-rollback divergence observable.
        let tables = engine.database().table_names();
        if let Some(table) = tables.choose(rng).cloned() {
            if rng.gen_bool(0.8) {
                if let Some(stmt) = self.random_create_index(rng, engine, &table) {
                    exec(stmt, engine, &mut log, &mut failures);
                }
            }
        }
        let serial_table = (self.dialect == Dialect::Postgres).then(|| {
            let name = format!("t{}", self.table_counter);
            self.table_counter += 1;
            let stmt = Statement::CreateTable(CreateTable::new(
                name.clone(),
                vec![
                    ColumnDef::new("c0", Some(TypeName::Serial)),
                    ColumnDef::new("c1", Some(TypeName::Integer)),
                ],
            ));
            exec(stmt, engine, &mut log, &mut failures);
            name
        });
        struct Plan {
            id: u32,
            dml_left: usize,
            begun: bool,
            commit: bool,
        }
        let n_sessions = rng.gen_range(2..=3);
        let mut live: Vec<Plan> = (0..n_sessions)
            .map(|i| Plan {
                id: i + 1,
                dml_left: rng.gen_range(1..=4),
                begun: false,
                commit: match i {
                    0 => true,
                    1 => false,
                    _ => rng.gen_bool(0.5),
                },
            })
            .collect();
        let mut current = None;
        while !live.is_empty() {
            let slot = rng.gen_range(0..live.len());
            let id = live[slot].id;
            if current != Some(id) {
                exec(Statement::Session { id }, engine, &mut log, &mut failures);
                current = Some(id);
            }
            let stmt = if !live[slot].begun {
                live[slot].begun = true;
                Statement::Begin
            } else if live[slot].dml_left > 0 {
                live[slot].dml_left -= 1;
                match self.random_session_dml(rng, engine, serial_table.as_deref()) {
                    Some(stmt) => stmt,
                    None => continue,
                }
            } else {
                let terminator =
                    if live[slot].commit { Statement::Commit } else { Statement::Rollback };
                live.remove(slot);
                terminator
            };
            exec(stmt, engine, &mut log, &mut failures);
        }
        // Return the log to the default session for whatever runs next.
        exec(Statement::Session { id: 0 }, engine, &mut log, &mut failures);
        (log, failures)
    }

    /// A DML statement for inside a transaction: usually an INSERT (a
    /// reliably visible effect), sometimes an UPDATE/DELETE, and — when a
    /// SERIAL table exists — an insert that omits the SERIAL column so the
    /// sequence advances.  No DDL: the schema stays stable across the
    /// episode, which keeps commit replays conflict-free by construction.
    fn random_session_dml<R: Rng>(
        &self,
        rng: &mut R,
        engine: &Engine,
        serial_table: Option<&str>,
    ) -> Option<Statement> {
        if let Some(ts) = serial_table {
            if rng.gen_bool(0.5) {
                return Some(Statement::Insert(Insert {
                    table: ts.to_owned(),
                    columns: vec!["c1".to_owned()],
                    rows: vec![vec![Expr::Literal(Value::Integer(rng.gen_range(0..100)))]],
                    on_conflict: OnConflict::Abort,
                }));
            }
        }
        let tables = engine.database().table_names();
        let table = tables.choose(rng)?.clone();
        if rng.gen_bool(0.6) {
            self.random_insert(rng, engine, &table)
        } else {
            self.random_dml(rng, engine, &table)
        }
    }
}

/// Removes table qualifiers from column references (used when an expression
/// generated against qualified columns must be placed where only bare names
/// are valid, e.g. index definitions).
pub fn strip_table_qualifiers(expr: &mut Expr) {
    fn walk(e: &mut Expr) {
        if let Expr::Column(c) = e {
            c.table = None;
            return;
        }
        match e {
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Collate { expr, .. } => walk(expr),
            Expr::Binary { left, right, .. } => {
                walk(left);
                walk(right);
            }
            Expr::Like { expr, pattern, .. } => {
                walk(expr);
                walk(pattern);
            }
            Expr::Between { expr, low, high, .. } => {
                walk(expr);
                walk(low);
                walk(high);
            }
            Expr::InList { expr, list, .. } => {
                walk(expr);
                for i in list {
                    walk(i);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    walk(o);
                }
                for (w, t) in branches {
                    walk(w);
                    walk(t);
                }
                if let Some(el) = else_expr {
                    walk(el);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    walk(a);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    walk(a);
                }
            }
            Expr::Literal(_) | Expr::Column(_) => {}
        }
    }
    walk(expr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_values_cover_all_classes_eventually() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut classes = std::collections::BTreeSet::new();
        for _ in 0..500 {
            classes.insert(format!("{}", random_value(&mut rng, Dialect::Sqlite).storage_class()));
        }
        assert!(classes.len() >= 4, "saw classes {classes:?}");
    }

    #[test]
    fn expressions_respect_depth_and_dialect() {
        let mut rng = StdRng::seed_from_u64(7);
        for dialect in Dialect::ALL {
            for _ in 0..200 {
                let e = random_expression(&mut rng, &[], dialect, 0);
                assert!(e.depth() <= 12, "expression too deep: {e}");
                let sql = e.to_string();
                assert!(!sql.is_empty());
                if dialect == Dialect::Sqlite {
                    assert!(!sql.contains("<=>"), "SQLite must not use <=>: {sql}");
                }
                if dialect != Dialect::Sqlite {
                    assert!(!sql.contains("COLLATE"), "collations are SQLite-only: {sql}");
                }
            }
        }
    }

    /// Every table's full contents, in table order: the replay-equality
    /// key for `generated_databases_have_rows_and_reproduce`.
    fn table_contents(engine: &Engine) -> Vec<(String, Vec<Vec<Value>>)> {
        engine
            .database()
            .table_names()
            .into_iter()
            .map(|name| {
                let rows: Vec<Vec<Value>> = engine
                    .database()
                    .table(&name)
                    .map(|t| t.rows().map(|(_, r)| r.to_vec()).collect())
                    .unwrap_or_default();
                (name, rows)
            })
            .collect()
    }

    #[test]
    fn generated_databases_have_rows_and_reproduce() {
        for dialect in Dialect::ALL {
            let mut rng = StdRng::seed_from_u64(42);
            let mut generator = StateGenerator::new(dialect, GenConfig::tiny());
            let mut engine = Engine::new(dialect);
            let (log, _failures) = generator.generate_database(&mut rng, &mut engine);
            assert!(!log.is_empty());
            assert!(!engine.database().table_names().is_empty());
            assert!(engine.database().total_rows() > 0, "dialect {dialect:?} generated no rows");
            // The statement log replays cleanly on a fresh engine...
            let mut replay = Engine::new(dialect);
            for stmt in &log {
                replay
                    .execute(stmt)
                    .unwrap_or_else(|e| panic!("replay of {stmt} failed for {dialect:?}: {e}"));
            }
            // ...and reaches the *identical* database, row for row and
            // value for value — a row-count comparison would let an
            // executor regression that reorders, duplicates or rewrites
            // replayed state slip through.
            assert_eq!(
                table_contents(&replay),
                table_contents(&engine),
                "replayed state diverged for {dialect:?}"
            );
        }
    }

    #[test]
    fn strip_qualifiers_removes_all_tables() {
        let mut e = Expr::qcol("t0", "c0").eq(Expr::qcol("t1", "c1"));
        strip_table_qualifiers(&mut e);
        assert!(e.column_refs().iter().all(|c| c.table.is_none()));
    }
}
