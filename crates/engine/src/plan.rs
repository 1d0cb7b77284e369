//! Deterministic query planning and plan fingerprinting.
//!
//! Query-plan guidance ("Testing Database Engines via Query Plan Guidance",
//! Ba & Rigger) steers test-case generation toward *states the DBMS has not
//! planned before*: every query is planned, the plan is reduced to a stable
//! fingerprint, and generation mutates the database whenever no new
//! fingerprints show up.  This module provides the planner side of that
//! loop for the emulated engine:
//!
//! * [`QueryPlan`] — a deterministic tree computed **from the catalog
//!   alone** (tables, indexes, `ANALYZE` state, dialect), before and
//!   independent of execution.  Planning never touches row data, so it is
//!   side-effect free and cheap enough to run per generated query.
//! * [`PlanFingerprint`] — an FNV-1a hash of the plan's stable text
//!   rendering.  Two queries receive the same fingerprint exactly when the
//!   engine would execute them the same way structurally.
//! * `EXPLAIN <query>` — [`Engine::explain`] backs the SQL-level statement,
//!   returning the rendered plan as result rows like a real DBMS.
//!
//! The plan follows the executor's strategy shapes (`exec/query.rs`): a
//! single-table equality predicate probes an index when one matches,
//! everything else is a full scan; base tables are joined left-deep in
//! `FROM`-list order followed by the explicit `JOIN` clauses; filters
//! over a single source are pushed into the scan.  On top of those
//! shapes the planner models decisions a *real* DBMS planner makes even
//! where the emulated executor is simpler, so they become part of plan
//! identity for QPG coverage:
//!
//! * **collation-aware index eligibility** per [`Dialect`] — on a dialect
//!   with collations, a text probe only uses an index whose first-key
//!   collation matches the column's (the executor's fast path is
//!   deliberately collation-oblivious; that gap is the class of decision
//!   the paper's §4.4 collation bugs hide in),
//! * **covering-index detection** — the executor always fetches base
//!   rows, but which access path *could* answer from the index alone is
//!   a planner-level distinction,
//! * **`ANALYZE` statistics as plan state** — statistics change plans in
//!   every real DBMS; here they flag the rendered scan even though the
//!   emulated executor only consults them in fault-gated paths.

use std::fmt;

use lancer_sql::ast::expr::Expr;
use lancer_sql::ast::stmt::{CompoundOp, JoinKind, Query, Select, SelectItem};
use lancer_sql::value::Value;

use crate::dialect::Dialect;
use crate::exec::access::{find_equality_probe, probe_blocked_by_inheritance, probe_candidates};
use crate::exec::Engine;

/// A stable 64-bit digest of a [`QueryPlan`]'s text rendering.
///
/// Fingerprints are the unit of plan coverage: a QPG campaign counts how
/// many distinct fingerprints it has observed and mutates state when the
/// count stops growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanFingerprint(pub u64);

impl fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// How a single `FROM` source is accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanKind {
    /// Read every row of the table.
    Full,
    /// Probe the named index, then fetch matching rows from the table.
    Index {
        /// The chosen index.
        index: String,
    },
    /// Answer the query from the named index alone (every referenced
    /// column is part of the index key).
    CoveringIndex {
        /// The chosen index.
        index: String,
    },
}

/// One node of a [`QueryPlan`] tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// A base-table access path.
    Scan {
        /// The scanned table.
        table: String,
        /// The access strategy.
        kind: ScanKind,
        /// Whether the `WHERE` clause is evaluated inside the scan
        /// (single-source queries) rather than in a separate filter node.
        pushed_filter: bool,
        /// Whether `ANALYZE` statistics exist for the table.  Statistics
        /// are part of plan identity — as in a real DBMS planner — even
        /// though the emulated executor only consults them in fault-gated
        /// paths (the skip-scan DISTINCT shape).
        analyzed: bool,
    },
    /// A view reference, planned as its defining query.
    View {
        /// The view name.
        name: String,
        /// The plan of the defining query.
        input: Box<PlanNode>,
    },
    /// A `FROM` source that does not exist in the catalog (the plan is
    /// still produced; execution would error).
    Missing {
        /// The unresolved name.
        table: String,
    },
    /// A constant row source (`SELECT` without `FROM`).
    Values,
    /// A left-deep join of two inputs.
    Join {
        /// The join kind (comma/`CROSS`, `INNER`, `LEFT`).
        kind: JoinKind,
        /// Left input (everything joined so far).
        left: Box<PlanNode>,
        /// Right input (the next source).
        right: Box<PlanNode>,
    },
    /// A residual `WHERE` filter over a multi-source input.
    Filter {
        /// The filtered input.
        input: Box<PlanNode>,
    },
    /// Grouping / aggregation.
    Aggregate {
        /// Number of `GROUP BY` keys (0 for a bare aggregate).
        group_keys: usize,
        /// The aggregated input.
        input: Box<PlanNode>,
    },
    /// `SELECT DISTINCT` deduplication.
    Distinct {
        /// The deduplicated input.
        input: Box<PlanNode>,
    },
    /// An `ORDER BY` sort.
    Sort {
        /// Number of ordering terms.
        terms: usize,
        /// The sorted input.
        input: Box<PlanNode>,
    },
    /// `LIMIT` / `OFFSET` truncation.
    Limit {
        /// The truncated input.
        input: Box<PlanNode>,
    },
    /// A compound query (`UNION` / `INTERSECT` / `EXCEPT`).
    Compound {
        /// The set operator.
        op: CompoundOp,
        /// Left operand plan.
        left: Box<PlanNode>,
        /// Right operand plan.
        right: Box<PlanNode>,
    },
}

/// A deterministic query plan: what the engine *would do* for a query
/// given the current catalog, computed without executing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    root: PlanNode,
}

impl QueryPlan {
    /// The root node of the plan tree.
    #[must_use]
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// The plan rendered as stable, indented text (one node per line).
    /// Equal plans render identically; the rendering is what
    /// [`fingerprint`](QueryPlan::fingerprint) hashes and what `EXPLAIN`
    /// returns as rows.
    #[must_use]
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        render_node(&self.root, 0, &mut lines);
        lines
    }

    /// The FNV-1a fingerprint of the rendered plan.
    #[must_use]
    pub fn fingerprint(&self) -> PlanFingerprint {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for line in self.render() {
            for byte in line.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= u64::from(b'\n');
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        PlanFingerprint(hash)
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, line) in self.render().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            f.write_str(line)?;
        }
        Ok(())
    }
}

fn render_node(node: &PlanNode, depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    match node {
        PlanNode::Scan { table, kind, pushed_filter, analyzed } => {
            let mut line = match kind {
                ScanKind::Full => format!("{pad}SCAN {table}"),
                ScanKind::Index { index } => format!("{pad}SEARCH {table} USING INDEX {index}"),
                ScanKind::CoveringIndex { index } => {
                    format!("{pad}SEARCH {table} USING COVERING INDEX {index}")
                }
            };
            if *pushed_filter {
                line.push_str(" WITH FILTER");
            }
            if *analyzed {
                line.push_str(" (ANALYZED)");
            }
            out.push(line);
        }
        PlanNode::View { name, input } => {
            out.push(format!("{pad}VIEW {name}"));
            render_node(input, depth + 1, out);
        }
        PlanNode::Missing { table } => out.push(format!("{pad}MISSING {table}")),
        PlanNode::Values => out.push(format!("{pad}VALUES")),
        PlanNode::Join { kind, left, right } => {
            let label = match kind {
                JoinKind::Cross => "CROSS JOIN",
                JoinKind::Inner => "INNER JOIN",
                JoinKind::Left => "LEFT JOIN",
            };
            out.push(format!("{pad}{label}"));
            render_node(left, depth + 1, out);
            render_node(right, depth + 1, out);
        }
        PlanNode::Filter { input } => {
            out.push(format!("{pad}FILTER"));
            render_node(input, depth + 1, out);
        }
        PlanNode::Aggregate { group_keys, input } => {
            out.push(format!("{pad}AGGREGATE (GROUP BY {group_keys})"));
            render_node(input, depth + 1, out);
        }
        PlanNode::Distinct { input } => {
            out.push(format!("{pad}DISTINCT"));
            render_node(input, depth + 1, out);
        }
        PlanNode::Sort { terms, input } => {
            out.push(format!("{pad}SORT ({terms} terms)"));
            render_node(input, depth + 1, out);
        }
        PlanNode::Limit { input } => {
            out.push(format!("{pad}LIMIT"));
            render_node(input, depth + 1, out);
        }
        PlanNode::Compound { op, left, right } => {
            out.push(format!("{pad}COMPOUND ({op})"));
            render_node(left, depth + 1, out);
            render_node(right, depth + 1, out);
        }
    }
}

impl Engine {
    /// Plans a query against the current catalog without executing it.
    ///
    /// Planning is a pure function of the catalog (tables, indexes,
    /// `ANALYZE` state) and the dialect: the same engine state and query
    /// always produce the same plan, and therefore the same
    /// [`PlanFingerprint`] — the determinism the QPG feedback loop and the
    /// `EXPLAIN` statement both rely on.
    ///
    /// ```
    /// use lancer_engine::{Dialect, Engine};
    ///
    /// let mut e = Engine::new(Dialect::Sqlite);
    /// e.execute_script(
    ///     "CREATE TABLE t0(c0 INT); CREATE INDEX i0 ON t0(c0);
    ///      INSERT INTO t0(c0) VALUES (1), (2);",
    /// )
    /// .unwrap();
    /// let r = e.execute_sql("EXPLAIN SELECT c0 FROM t0 WHERE c0 = 1").unwrap();
    /// assert_eq!(r.columns, vec!["QUERY PLAN"]);
    /// let plan = r.rows[0][0].clone();
    /// assert!(plan.to_string().contains("USING COVERING INDEX i0"), "{plan:?}");
    /// ```
    #[must_use]
    pub fn explain(&self, q: &Query) -> QueryPlan {
        QueryPlan { root: self.plan_query(q) }
    }

    fn plan_query(&self, q: &Query) -> PlanNode {
        match q {
            Query::Select(s) => self.plan_select(s),
            Query::Compound { left, op, right } => PlanNode::Compound {
                op: *op,
                left: Box::new(self.plan_query(left)),
                right: Box::new(self.plan_query(right)),
            },
        }
    }

    fn plan_select(&self, s: &Select) -> PlanNode {
        let single_source = s.from.len() + s.joins.len() == 1;
        // Base sources in FROM order, then the explicit joins — exactly the
        // left-deep order the executor materialises rows in.
        let mut root: Option<PlanNode> = None;
        for name in &s.from {
            let scan = self.plan_source(name, s, single_source);
            root = Some(match root {
                None => scan,
                // Comma-separated FROM items are cross joins.
                Some(left) => PlanNode::Join {
                    kind: JoinKind::Cross,
                    left: Box::new(left),
                    right: Box::new(scan),
                },
            });
        }
        for join in &s.joins {
            let right = self.plan_source(&join.table, s, false);
            root = Some(match root {
                None => right,
                Some(left) => {
                    PlanNode::Join { kind: join.kind, left: Box::new(left), right: Box::new(right) }
                }
            });
        }
        let mut root = root.unwrap_or(PlanNode::Values);

        // A residual filter is only needed when the WHERE clause could not
        // be pushed into a single scan.
        if s.where_clause.is_some() && !single_source {
            root = PlanNode::Filter { input: Box::new(root) };
        }
        let has_aggregate = !s.group_by.is_empty()
            || s.having.as_ref().is_some_and(Expr::contains_aggregate)
            || s.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            });
        if has_aggregate {
            root = PlanNode::Aggregate { group_keys: s.group_by.len(), input: Box::new(root) };
        }
        if s.distinct {
            root = PlanNode::Distinct { input: Box::new(root) };
        }
        if !s.order_by.is_empty() {
            root = PlanNode::Sort { terms: s.order_by.len(), input: Box::new(root) };
        }
        if s.limit.is_some() || s.offset.is_some() {
            root = PlanNode::Limit { input: Box::new(root) };
        }
        root
    }

    fn plan_source(&self, name: &str, s: &Select, single_source: bool) -> PlanNode {
        if let Some(view) = self.database().view(name) {
            return PlanNode::View {
                name: view.name.clone(),
                input: Box::new(self.plan_select(&view.query)),
            };
        }
        let Some(table) = self.database().table(name) else {
            return PlanNode::Missing { table: name.to_owned() };
        };
        let pushed_filter = single_source && s.where_clause.is_some();
        let analyzed = self.analyzed.contains(&name.to_ascii_lowercase());
        let kind = if single_source {
            s.where_clause
                .as_ref()
                .and_then(find_equality_probe)
                .and_then(|(col, lit)| self.eligible_index(name, &col, &lit, s))
                .unwrap_or(ScanKind::Full)
        } else {
            ScanKind::Full
        };
        PlanNode::Scan { table: table.schema.name.clone(), kind, pushed_filter, analyzed }
    }

    /// Finds the index an equality probe would use, if any, and decides
    /// whether it is covering.
    ///
    /// The candidate list is [`probe_candidates`] — the *same* catalog
    /// fact the executor's pipeline assembly reads (non-partial, first
    /// key is the probed column), so the two cannot drift apart.  On top
    /// of that the planner enforces the soundness rule a real planner
    /// applies and the executor's fast path deliberately omits: on a
    /// dialect with collations, a *text* probe may only use an index
    /// whose first-key collation equals the column's declared collation
    /// (keys stored under a different collation order differently, so the
    /// lookup would be unsound).  Where the two disagree — a mismatched
    /// index the executor would happily probe — the plan reports the
    /// sound choice, not the fast path's.
    fn eligible_index(&self, table: &str, col: &str, lit: &Value, s: &Select) -> Option<ScanKind> {
        // An inheritance parent's index covers only its own rows, never
        // the children a parent scan includes — both executors refuse the
        // probe there (see `probe_blocked_by_inheritance`), and so does
        // the plan.
        if probe_blocked_by_inheritance(self.database(), self.dialect(), table) {
            return None;
        }
        let schema = &self.database().table(table)?.schema;
        let col_meta = schema.column(col)?;
        for idx in probe_candidates(self.database(), table, col) {
            if self.dialect() == Dialect::Sqlite && matches!(lit, Value::Text(_)) {
                let key_collation = idx.def.collations.first().copied().unwrap_or_default();
                if key_collation != col_meta.collation {
                    continue;
                }
            }
            // Covering: every column the query touches is a key of this
            // index, so the executor never needs the base table.
            let indexed: Vec<&str> = idx
                .def
                .exprs
                .iter()
                .filter_map(|e| match e {
                    Expr::Column(c) => Some(c.column.as_str()),
                    _ => None,
                })
                .collect();
            let covers = |e: &Expr| {
                e.column_refs()
                    .iter()
                    .all(|c| indexed.iter().any(|i| i.eq_ignore_ascii_case(&c.column)))
            };
            let projection_covered = s.items.iter().all(|item| match item {
                SelectItem::Wildcard => {
                    schema.columns.len() == indexed.len()
                        && schema
                            .columns
                            .iter()
                            .all(|c| indexed.iter().any(|i| i.eq_ignore_ascii_case(&c.name)))
                }
                SelectItem::Expr { expr, .. } => covers(expr),
            });
            let where_covered = s.where_clause.as_ref().is_none_or(&covers);
            let name = idx.def.name.clone();
            return Some(if projection_covered && where_covered {
                ScanKind::CoveringIndex { index: name }
            } else {
                ScanKind::Index { index: name }
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(script: &str, query: &str) -> (QueryPlan, Engine) {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_script(script).unwrap();
        let stmt = lancer_sql::parse_statement(query).unwrap();
        let q = match stmt {
            lancer_sql::Statement::Select(q) => q,
            other => panic!("not a query: {other:?}"),
        };
        let plan = e.explain(&q);
        (plan, e)
    }

    #[test]
    fn full_scan_without_usable_index() {
        let (plan, _) = planned("CREATE TABLE t0(c0 INT)", "SELECT * FROM t0");
        assert_eq!(plan.render(), vec!["SCAN t0"]);
    }

    #[test]
    fn equality_probe_picks_an_index() {
        let (plan, _) = planned(
            "CREATE TABLE t0(c0 INT, c1 INT); CREATE INDEX i0 ON t0(c0)",
            "SELECT c1 FROM t0 WHERE c0 = 1",
        );
        assert_eq!(plan.render(), vec!["SEARCH t0 USING INDEX i0 WITH FILTER"]);
    }

    #[test]
    fn covering_index_when_projection_is_indexed() {
        let (plan, _) = planned(
            "CREATE TABLE t0(c0 INT, c1 INT); CREATE INDEX i0 ON t0(c0, c1)",
            "SELECT c1 FROM t0 WHERE c0 = 1",
        );
        assert_eq!(plan.render(), vec!["SEARCH t0 USING COVERING INDEX i0 WITH FILTER"]);
    }

    #[test]
    fn collation_mismatch_disqualifies_text_probes_only() {
        use lancer_sql::ast::stmt::{CreateIndex, IndexedColumn, Statement};
        use lancer_sql::collation::Collation;

        // An index whose key collation (RTRIM) differs from the column's
        // (BINARY) — the shape the state generator produces with its
        // explicit collation overrides.
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_sql("CREATE TABLE t0(c0 TEXT)").unwrap();
        let mut col = IndexedColumn::column("c0");
        col.collation = Some(Collation::Rtrim);
        e.execute(&Statement::CreateIndex(CreateIndex {
            name: "i0".into(),
            table: "t0".into(),
            columns: vec![col],
            unique: false,
            where_clause: None,
            if_not_exists: false,
        }))
        .unwrap();
        let parse = |sql: &str| match lancer_sql::parse_statement(sql).unwrap() {
            lancer_sql::Statement::Select(q) => q,
            other => panic!("not a query: {other:?}"),
        };
        // A text probe must not use the mismatched index...
        let plan = e.explain(&parse("SELECT * FROM t0 WHERE c0 = 'a'"));
        assert_eq!(plan.render(), vec!["SCAN t0 WITH FILTER"]);
        // ...but a non-text probe is collation-independent.
        let plan = e.explain(&parse("SELECT * FROM t0 WHERE c0 = 1"));
        assert_eq!(plan.render(), vec!["SEARCH t0 USING COVERING INDEX i0 WITH FILTER"]);
    }

    #[test]
    fn partial_indexes_are_never_probed() {
        let (plan, _) = planned(
            "CREATE TABLE t0(c0 INT); CREATE INDEX i0 ON t0(c0) WHERE c0 IS NOT NULL",
            "SELECT * FROM t0 WHERE c0 = 1",
        );
        assert_eq!(plan.render(), vec!["SCAN t0 WITH FILTER"]);
    }

    #[test]
    fn joins_are_left_deep_in_from_order() {
        let (plan, _) = planned(
            "CREATE TABLE t0(c0 INT); CREATE TABLE t1(c0 INT); CREATE TABLE t2(c0 INT)",
            "SELECT * FROM t0, t1 LEFT JOIN t2 ON t1.c0 = t2.c0 WHERE t0.c0 = 1",
        );
        assert_eq!(
            plan.render(),
            vec![
                "FILTER",
                "  LEFT JOIN",
                "    CROSS JOIN",
                "      SCAN t0",
                "      SCAN t1",
                "    SCAN t2",
            ]
        );
    }

    #[test]
    fn wrapping_nodes_follow_executor_order() {
        let (plan, _) = planned(
            "CREATE TABLE t0(c0 INT)",
            "SELECT DISTINCT c0, COUNT(*) FROM t0 GROUP BY c0 ORDER BY c0 LIMIT 3",
        );
        assert_eq!(
            plan.render(),
            vec![
                "LIMIT",
                "  SORT (1 terms)",
                "    DISTINCT",
                "      AGGREGATE (GROUP BY 1)",
                "        SCAN t0",
            ]
        );
    }

    #[test]
    fn views_plan_their_defining_query() {
        let (plan, _) = planned(
            "CREATE TABLE t0(c0 INT); CREATE VIEW v0 AS SELECT c0 FROM t0 WHERE c0 > 1",
            "SELECT * FROM v0",
        );
        assert_eq!(plan.render(), vec!["VIEW v0", "  SCAN t0 WITH FILTER"]);
    }

    #[test]
    fn compound_queries_and_constant_rows() {
        let (plan, _) = planned("CREATE TABLE t0(c0 INT)", "SELECT 1 INTERSECT SELECT c0 FROM t0");
        assert_eq!(plan.render(), vec!["COMPOUND (INTERSECT)", "  VALUES", "  SCAN t0"]);
    }

    #[test]
    fn analyze_changes_the_plan_fingerprint() {
        let (plan_before, mut e) = planned("CREATE TABLE t0(c0 INT)", "SELECT * FROM t0");
        e.execute_sql("ANALYZE t0").unwrap();
        let q = match lancer_sql::parse_statement("SELECT * FROM t0").unwrap() {
            lancer_sql::Statement::Select(q) => q,
            other => panic!("not a query: {other:?}"),
        };
        let plan_after = e.explain(&q);
        assert_eq!(plan_after.render(), vec!["SCAN t0 (ANALYZED)"]);
        assert_ne!(plan_before.fingerprint(), plan_after.fingerprint());
    }

    #[test]
    fn fingerprints_are_stable_and_text_keyed() {
        let (a, _) = planned("CREATE TABLE t0(c0 INT)", "SELECT * FROM t0");
        let (b, _) = planned("CREATE TABLE t0(c0 INT)", "SELECT c0 FROM t0");
        // Same plan shape → same fingerprint, even for different SQL.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(format!("{}", a.fingerprint()).len(), 16);
        assert_eq!(a.to_string(), "SCAN t0");
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_script("CREATE TABLE t0(c0 INT); CREATE INDEX i0 ON t0(c0)").unwrap();
        let r = e.execute_sql("EXPLAIN SELECT * FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        assert_eq!(r.rows.len(), 1);
        assert!(matches!(&r.rows[0][0], Value::Text(t) if t.contains("USING COVERING INDEX i0")));
        // EXPLAIN never executes the query: planning a query over a missing
        // table still succeeds and surfaces the unresolved source.
        let r = e.execute_sql("EXPLAIN SELECT * FROM nope").unwrap();
        assert!(matches!(&r.rows[0][0], Value::Text(t) if t == "MISSING nope"));
    }
}
