//! The fault-free reference evaluator for `SELECT`.
//!
//! A straight-line, row-at-a-time `SELECT` kept as the executable
//! specification of the operator pipeline in `exec::pipeline`.  It holds
//! no `SELECT`-operator fault: each of those hooks once, in the pipeline
//! stage where its real bug lived.  Faults outside the operators still
//! reach it, because it shares the expression evaluator, the preflight
//! checks (`select_preflight`), `eval_aggregate_expr` and the engine state
//! that DDL/DML faults corrupt.
//!
//! The differential property suite (`tests/pipeline_differential.rs`)
//! runs random queries through both evaluators and requires identical
//! results (rows, order, errors and all) with no faults and with every
//! fault but the operator faults.  It also pins, per operator fault, a
//! query whose faulted rows differ from the reference's.
//!
//! The module is deliberately self-recursive: views and compound
//! operands evaluated from here go through the reference path, never the
//! pipeline, so the two implementations stay fully independent above the
//! expression-evaluator layer.

use lancer_sql::ast::expr::{BinaryOp, Expr};
use lancer_sql::ast::stmt::{CompoundOp, JoinKind, Query, Select, SelectItem};
use lancer_sql::collation::Collation;
use lancer_sql::value::Value;
use lancer_storage::schema::ColumnMeta;

use crate::error::{EngineError, EngineResult};
use crate::eval::{BoundExpr, RowSchema, SourceSchema};
use crate::exec::query::{contains, BoundAggregate};
use crate::exec::{Engine, QueryResult};

/// The owned rows of one `FROM` source together with its schema.
struct SourceData {
    schema: SourceSchema,
    rows: Vec<Vec<Value>>,
}

impl Engine {
    /// Executes a query through the fault-free reference evaluator
    /// instead of the batched pipeline.  Exposed (hidden) for the
    /// differential test suites; production paths always use the
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Engine::execute`] would report for the same
    /// query when no `SELECT`-operator fault is enabled — that
    /// equivalence is the point.
    #[doc(hidden)]
    pub fn execute_query_reference(&self, q: &Query) -> EngineResult<QueryResult> {
        self.exec_query_reference(q)
    }

    fn exec_query_reference(&self, q: &Query) -> EngineResult<QueryResult> {
        match q {
            Query::Select(s) => self.exec_select_reference(s),
            Query::Compound { left, op, right } => {
                let l = self.exec_query_reference(left)?;
                let r = self.exec_query_reference(right)?;
                if !l.rows.is_empty() && !r.rows.is_empty() && l.rows[0].len() != r.rows[0].len() {
                    return Err(EngineError::semantic(
                        "SELECTs to the left and right of a compound operator do not have the same number of result columns",
                    ));
                }
                let columns = l.columns;
                let rows = match op {
                    CompoundOp::Intersect => {
                        self.cover("exec.compound_intersect");
                        let mut out: Vec<Vec<Value>> = Vec::new();
                        for row in l.rows {
                            if r.contains_row(&row) && !contains(&out, &row) {
                                out.push(row);
                            }
                        }
                        out
                    }
                    CompoundOp::Union => {
                        self.cover("exec.compound_union");
                        let mut out: Vec<Vec<Value>> = Vec::new();
                        for row in l.rows.into_iter().chain(r.rows) {
                            if !contains(&out, &row) {
                                out.push(row);
                            }
                        }
                        out
                    }
                    CompoundOp::UnionAll => {
                        self.cover("exec.compound_union");
                        let mut out = l.rows;
                        out.extend(r.rows);
                        out
                    }
                    CompoundOp::Except => {
                        self.cover("exec.compound_except");
                        let mut out: Vec<Vec<Value>> = Vec::new();
                        for row in l.rows {
                            if !r.contains_row(&row) && !contains(&out, &row) {
                                out.push(row);
                            }
                        }
                        out
                    }
                };
                Ok(QueryResult { columns, rows, affected: 0 })
            }
        }
    }

    /// Loads the rows of one `FROM` source, expanding views through the
    /// reference evaluator (never the pipeline).
    fn load_source_reference(&self, name: &str) -> EngineResult<SourceData> {
        if let Some(view) = self.db.view(name).cloned() {
            self.cover("exec.view_expansion");
            let result = self.exec_select_reference(&view.query)?;
            let columns = result
                .columns
                .iter()
                .map(|c| ColumnMeta {
                    name: c.clone(),
                    type_name: None,
                    collation: Collation::Binary,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                    default: None,
                    check: None,
                })
                .collect();
            return Ok(SourceData {
                schema: SourceSchema { name: name.to_owned(), columns },
                rows: result.rows,
            });
        }
        self.cover("exec.table_scan");
        let table = self.db.require_table(name)?;
        let schema = table.schema.clone();
        let mut rows: Vec<Vec<Value>> = table.rows().map(|(_, r)| r.to_vec()).collect();

        // PostgreSQL table inheritance: scanning the parent includes child
        // rows projected onto the parent's columns.
        let children = self.db.children_of(name);
        if !children.is_empty() && self.dialect() == crate::dialect::Dialect::Postgres {
            self.cover("exec.inheritance_expansion");
            for child in children {
                let child_table = self.db.require_table(&child)?;
                let child_schema = child_table.schema.clone();
                for (_, row) in child_table.rows() {
                    let projected: Vec<Value> = schema
                        .columns
                        .iter()
                        .map(|pc| {
                            child_schema
                                .column_index(&pc.name)
                                .map(|ci| row[ci].clone())
                                .unwrap_or(Value::Null)
                        })
                        .collect();
                    rows.push(projected);
                }
            }
        }

        Ok(SourceData {
            schema: SourceSchema { name: schema.name.clone(), columns: schema.columns.clone() },
            rows,
        })
    }

    pub(crate) fn exec_select_reference(&self, s: &Select) -> EngineResult<QueryResult> {
        self.select_preflight(s)?;

        // Load sources and build the joined row set.
        let mut sources: Vec<SourceData> = Vec::new();
        for name in &s.from {
            sources.push(self.load_source_reference(name)?);
        }

        let mut schema = RowSchema::default();
        let multi_source = sources.len() > 1;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (i, src) in sources.into_iter().enumerate() {
            if multi_source {
                self.cover("exec.cross_join");
            }
            schema.sources.push(src.schema);
            if i == 0 {
                rows = src.rows;
            } else {
                rows = cross_product(&rows, &src.rows);
            }
        }
        if schema.sources.is_empty() {
            rows = vec![Vec::new()];
        }
        // Explicit joins.
        for join in &s.joins {
            let right = self.load_source_reference(&join.table)?;
            let right_width = right.schema.columns.len();
            schema.sources.push(right.schema.clone());
            match join.kind {
                JoinKind::Cross => self.cover("exec.cross_join"),
                JoinKind::Inner => self.cover("exec.inner_join"),
                JoinKind::Left => self.cover("exec.left_join"),
            }
            let ev = self.evaluator();
            let on = join.on.as_ref().map(|on| ev.bind(on, &schema));
            let mut next: Vec<Vec<Value>> = Vec::new();
            match join.kind {
                JoinKind::Cross => {
                    next = cross_product(&rows, &right.rows);
                }
                JoinKind::Inner => {
                    for l in &rows {
                        for r in &right.rows {
                            let combined = concat_row(l, r);
                            let keep = match &on {
                                Some(on) => {
                                    ev.eval_bound_predicate(on, combined.as_slice())?.is_true()
                                }
                                None => true,
                            };
                            if keep {
                                next.push(combined);
                            }
                        }
                    }
                }
                JoinKind::Left => {
                    for l in &rows {
                        let mut matched = false;
                        for r in &right.rows {
                            let combined = concat_row(l, r);
                            let keep = match &on {
                                Some(on) => {
                                    ev.eval_bound_predicate(on, combined.as_slice())?.is_true()
                                }
                                None => true,
                            };
                            if keep {
                                matched = true;
                                next.push(combined);
                            }
                        }
                        if !matched {
                            let mut combined = Vec::with_capacity(l.len() + right_width);
                            combined.extend_from_slice(l);
                            combined.extend(std::iter::repeat_n(Value::Null, right_width));
                            next.push(combined);
                        }
                    }
                }
            }
            rows = next;
        }

        // Index fast path for single-table equality predicates.
        if s.from.len() == 1 && s.joins.is_empty() {
            if let Some(w) = &s.where_clause {
                if let Some((col, lit)) = reference_equality_probe(w) {
                    rows =
                        self.index_equality_probe_reference(&s.from[0], &col, &lit, &schema, rows)?;
                }
            }
        }

        // WHERE filter.
        if let Some(w) = &s.where_clause {
            self.cover("exec.where_filter");
            let ev = self.evaluator();
            let w = ev.bind(w, &schema);
            let mut kept = Vec::new();
            for r in rows {
                if ev.eval_bound_predicate(&w, r.as_slice())?.is_true() {
                    kept.push(r);
                }
            }
            rows = kept;
        }

        // Aggregation or plain projection.
        let has_aggregate = s.group_by.iter().any(Expr::contains_aggregate)
            || s.having.as_ref().is_some_and(Expr::contains_aggregate)
            || s.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            });
        let (columns, mut projected) = if !s.group_by.is_empty() || has_aggregate {
            self.project_aggregate_reference(s, &schema, rows)?
        } else {
            self.project_plain_reference(s, &schema, &rows)?
        };

        // DISTINCT.
        if s.distinct {
            self.cover("exec.distinct");
            let mut out: Vec<Vec<Value>> = Vec::new();
            for row in projected {
                if !contains(&out, &row) {
                    out.push(row);
                }
            }
            projected = out;
        }

        // ORDER BY.
        if !s.order_by.is_empty() {
            self.cover("exec.order_by");
            projected.sort_by(|a, b| {
                for (i, term) in s.order_by.iter().enumerate() {
                    let (av, bv) = match (
                        a.get(i.min(a.len().saturating_sub(1))),
                        b.get(i.min(b.len().saturating_sub(1))),
                    ) {
                        (Some(x), Some(y)) => (x, y),
                        _ => continue,
                    };
                    let coll = term.collation.unwrap_or_default();
                    let ord = av.total_cmp(bv, coll);
                    let ord = if term.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // LIMIT / OFFSET.
        if s.limit.is_some() || s.offset.is_some() {
            self.cover("exec.limit_offset");
            let offset = s.offset.unwrap_or(0) as usize;
            let limit = s.limit.map(|l| l as usize).unwrap_or(usize::MAX);
            projected = projected.into_iter().skip(offset).take(limit).collect();
        }

        Ok(QueryResult { columns, rows: projected, affected: 0 })
    }

    /// The reference copy of the single-table equality index probe.
    fn index_equality_probe_reference(
        &self,
        table: &str,
        col: &str,
        lit: &Value,
        schema: &RowSchema,
        rows: Vec<Vec<Value>>,
    ) -> EngineResult<Vec<Vec<Value>>> {
        if crate::exec::access::probe_blocked_by_inheritance(&self.db, self.dialect(), table) {
            return Ok(rows);
        }
        let Some(t) = self.db.table(table) else { return Ok(rows) };
        if t.schema.column(col).is_none() {
            return Ok(rows);
        }
        // Find a usable (non-partial) index whose first key is the column.
        let index_name = self
            .db
            .indexes_on(table)
            .iter()
            .find(|i| {
                i.def.where_clause.is_none()
                    && matches!(i.def.exprs.first(), Some(Expr::Column(c)) if c.column.eq_ignore_ascii_case(col))
            })
            .map(|i| i.def.name.clone());
        let Some(index_name) = index_name else { return Ok(rows) };
        self.cover("exec.index_lookup");
        let index = self.db.index(&index_name).expect("index just resolved");
        let coll = index.def.collations.first().copied().unwrap_or_default();
        let matching: Vec<u64> = index
            .entries()
            .iter()
            .filter(|e| {
                e.key.first().is_some_and(|k| match (k, lit) {
                    (Value::Text(a), Value::Text(b)) => coll.equal(a, b),
                    _ => k.same_as(lit),
                })
            })
            .map(|e| e.row_id)
            .collect();
        let t = self.db.require_table(table)?;
        let mut out = Vec::new();
        for rid in matching {
            if let Some(row) = t.get(rid) {
                out.push(row.to_vec());
            }
        }
        if schema.width() != t.schema.columns.len() {
            return Ok(rows);
        }
        Ok(out)
    }

    fn project_plain_reference(
        &self,
        s: &Select,
        schema: &RowSchema,
        rows: &[Vec<Value>],
    ) -> EngineResult<(Vec<String>, Vec<Vec<Value>>)> {
        let ev = self.evaluator();
        let mut columns: Vec<String> = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    for (_, c) in schema.flat_columns() {
                        columns.push(c.name);
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                }
            }
        }
        let items: Vec<Option<BoundExpr<'_>>> = s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => None,
                SelectItem::Expr { expr, .. } => Some(ev.bind(expr, schema)),
            })
            .collect();
        let mut projected = Vec::with_capacity(rows.len());
        for r in rows {
            let mut out_row = Vec::with_capacity(columns.len());
            for item in &items {
                match item {
                    None => out_row.extend(r.iter().cloned()),
                    Some(expr) => out_row.push(ev.eval_bound(expr, r.as_slice())?.into_owned()),
                }
            }
            projected.push(out_row);
        }
        Ok((columns, projected))
    }

    fn project_aggregate_reference(
        &self,
        s: &Select,
        schema: &RowSchema,
        rows: Vec<Vec<Value>>,
    ) -> EngineResult<(Vec<String>, Vec<Vec<Value>>)> {
        self.cover("exec.group_by");
        let ev = self.evaluator();
        let group_by: Vec<BoundExpr<'_>> = s.group_by.iter().map(|g| ev.bind(g, schema)).collect();
        let having = s.having.as_ref().map(|h| self.bind_aggregate(&ev, h, schema));
        let items: Vec<Option<BoundAggregate<'_>>> = s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => None,
                SelectItem::Expr { expr, .. } => Some(self.bind_aggregate(&ev, expr, schema)),
            })
            .collect();
        // Build groups.
        let mut group_keys: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<Vec<&[Value]>> = Vec::new();

        if s.group_by.is_empty() {
            group_keys.push(Vec::new());
            groups.push(rows.iter().map(Vec::as_slice).collect());
        } else {
            for r in &rows {
                let r = r.as_slice();
                let mut key = Vec::with_capacity(group_by.len());
                for g in &group_by {
                    key.push(ev.eval_bound(g, r)?.into_owned());
                }
                match group_keys.iter().position(|k| {
                    k.len() == key.len() && k.iter().zip(key.iter()).all(|(a, b)| a.same_as(b))
                }) {
                    Some(i) => groups[i].push(r),
                    None => {
                        group_keys.push(key);
                        groups.push(vec![r]);
                    }
                }
            }
        }

        let mut columns: Vec<String> = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    for (_, c) in schema.flat_columns() {
                        columns.push(c.name);
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                }
            }
        }

        let mut out_rows = Vec::new();
        for group in &groups {
            // HAVING.
            if let Some(h) = &having {
                self.cover("exec.having");
                let hv = self.eval_aggregate_expr(&ev, h, group)?;
                if !ev.value_to_tribool(&hv)?.is_true() {
                    continue;
                }
            }
            let mut out_row = Vec::new();
            for item in &items {
                match item {
                    None => {
                        if let Some(first) = group.first() {
                            out_row.extend(first.iter().cloned());
                        } else {
                            out_row.extend(std::iter::repeat_n(Value::Null, schema.width()));
                        }
                    }
                    Some(expr) => out_row.push(self.eval_aggregate_expr(&ev, expr, group)?),
                }
            }
            out_rows.push(out_row);
        }
        // A query with aggregates but no GROUP BY always yields one row,
        // even over an empty input.
        if s.group_by.is_empty() && out_rows.is_empty() && s.having.is_none() {
            let mut out_row = Vec::new();
            for item in &items {
                match item {
                    None => out_row.extend(std::iter::repeat_n(Value::Null, schema.width())),
                    Some(expr) => {
                        out_row.push(self.eval_aggregate_expr::<&[Value]>(&ev, expr, &[])?);
                    }
                }
            }
            out_rows.push(out_row);
        }
        Ok((columns, out_rows))
    }
}

/// The original inline equality-probe detection, kept here so the
/// reference path does not depend on `exec::access` (whose helpers the
/// pipeline and planner share).
fn reference_equality_probe(expr: &Expr) -> Option<(String, Value)> {
    match expr {
        Expr::Binary { op: BinaryOp::Eq, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) if !v.is_null() => {
                Some((c.column.clone(), v.clone()))
            }
            (Expr::Literal(v), Expr::Column(c)) if !v.is_null() => {
                Some((c.column.clone(), v.clone()))
            }
            _ => None,
        },
        _ => None,
    }
}

fn cross_product(left: &[Vec<Value>], right: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out = Vec::with_capacity(left.len() * right.len().max(1));
    for l in left {
        for r in right {
            out.push(concat_row(l, r));
        }
    }
    out
}

/// Concatenates two row halves with a single exact-size allocation.
fn concat_row(l: &[Value], r: &[Value]) -> Vec<Value> {
    let mut combined = Vec::with_capacity(l.len() + r.len());
    combined.extend_from_slice(l);
    combined.extend_from_slice(r);
    combined
}
