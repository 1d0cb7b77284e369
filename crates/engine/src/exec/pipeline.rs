//! The `SELECT` operator pipeline.
//!
//! `exec_select` runs a sequence of composable operators —
//! [`Operator::Scan`], [`Operator::Join`], [`Operator::IndexProbe`],
//! [`Operator::Filter`], [`Operator::Project`] / [`Operator::Aggregate`],
//! [`Operator::Distinct`], [`Operator::Sort`], [`Operator::Limit`] — each
//! consuming and producing a [`RowBatch`] by value.
//!
//! **Late materialization.**  Up to projection a batch is a selection of
//! source-row tuples over row lists that borrow each table's stored rows,
//! so `Scan`, `Join`, `IndexProbe` and `Filter` move row indices and
//! evaluate predicates on the tuples in place.  Each operator that
//! evaluates expressions (`Join`'s `ON`, `Filter`, `Project`, and
//! `Aggregate`'s keys, `HAVING` and items) binds them to the batch schema
//! once per query with `Evaluator::bind` and evaluates the bound trees by
//! reference: no name is resolved per tuple, and reading a column copies
//! nothing.  Values are cloned only where they are kept.  `Project` copies
//! the values that land in an output row (a list of all columns in order
//! copies each tuple whole); `Aggregate` groups tuples, folds them in
//! place and copies its output values and group keys.  Those two are the
//! only operators that copy values; `Distinct`, `Sort` and `Limit`
//! rearrange the output rows.  Views, inheritance children, a `LEFT
//! JOIN`'s pad row and the poisoned-column fault's rewritten rows own
//! their rows (see `exec::batch`).
//!
//! **Determinism contract.**  The pipeline is a restructuring of the
//! straight-line evaluator kept as `exec::reference`, the fault-free
//! specification.  A property suite (`tests/pipeline_differential.rs`)
//! holds the two to the same rows in the same order and the same errors
//! whenever no `SELECT`-operator fault is enabled, and pins one query per
//! operator fault whose rows that fault changes.  Operator assembly reads
//! the catalog through [`exec::access`](crate::exec::access), the same
//! facts `crate::plan` models, so the executor's scan-kind choice and the
//! plan tree cannot drift apart.
//!
//! **One hook per fault.**  Every dialect, the DuckDB-like profile
//! included, runs this pipeline.  Each `SELECT`-operator fault hooks
//! once, in the operator that owns its stage of the data flow (the two
//! scan faults in `Engine::load_source`, which only `Scan` and `Join`
//! call); the reference evaluator has no copy.

use std::borrow::Cow;
use std::sync::Arc;

use lancer_sql::ast::expr::{BinaryOp, ColumnRef, Expr, TypeName};
use lancer_sql::ast::stmt::{Join as JoinClause, JoinKind, Select, SelectItem};
use lancer_sql::collation::Collation;
use lancer_sql::value::Value;

use crate::bugs::BugId;
use crate::error::EngineResult;
use crate::eval::{BoundExpr, RowSchema, RowView};
use crate::exec::access::{find_equality_probe, probe_blocked_by_inheritance, probe_candidates};
use crate::exec::batch::{RowBatch, SourceRows, Tuple};
use crate::exec::query::{columnar_sum_tail_len, expr_references_column, BoundAggregate};
use crate::exec::{Engine, QueryResult};

/// One stage of the physical pipeline for a `SELECT`.
///
/// Operators are assembled from the query shape alone ([`assemble`]);
/// catalog- and fault-dependent decisions happen inside
/// [`Operator::apply`].
pub(crate) enum Operator<'q> {
    /// Load every `FROM` source, apply the MEMORY-engine join fault, and
    /// pair the sources' rows into tuples (cross product).
    Scan,
    /// One explicit `JOIN` clause: load the right source and combine.
    Join(&'q JoinClause),
    /// Single-`FROM` index interactions: the partial-index NOT NULL fault
    /// (Listing 1) and the equality-probe fast path.
    IndexProbe,
    /// The `WHERE` filter (including the LIKE-optimisation fault rewrite).
    Filter(&'q Expr),
    /// Plain projection (including the poisoned-column fault).
    Project,
    /// Grouping / aggregation projection (including the poisoned-column,
    /// inheritance-GROUP BY and NOCASE-group faults).
    Aggregate,
    /// `SELECT DISTINCT` deduplication (including the skip-scan and
    /// NULL-as-zero faults).
    Distinct,
    /// `ORDER BY`.
    Sort,
    /// `LIMIT` / `OFFSET`.
    Limit,
}

/// Assembles the operator pipeline for a `SELECT` from its query shape.
/// The stage order is fixed and matches the reference evaluator: scan,
/// joins, index interactions, filter, projection/aggregation, distinct,
/// sort, truncation.
pub(crate) fn assemble(s: &Select) -> Vec<Operator<'_>> {
    let mut ops = vec![Operator::Scan];
    for join in &s.joins {
        ops.push(Operator::Join(join));
    }
    if s.from.len() == 1 {
        ops.push(Operator::IndexProbe);
    }
    if let Some(w) = &s.where_clause {
        ops.push(Operator::Filter(w));
    }
    let has_aggregate = s.group_by.iter().any(Expr::contains_aggregate)
        || s.having.as_ref().is_some_and(Expr::contains_aggregate)
        || s.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });
    ops.push(if !s.group_by.is_empty() || has_aggregate {
        Operator::Aggregate
    } else {
        Operator::Project
    });
    if s.distinct {
        ops.push(Operator::Distinct);
    }
    if !s.order_by.is_empty() {
        ops.push(Operator::Sort);
    }
    if s.limit.is_some() || s.offset.is_some() {
        ops.push(Operator::Limit);
    }
    ops
}

impl<'q> Operator<'q> {
    /// Runs the operator: consumes the incoming batch, produces the next.
    pub(crate) fn apply<'a>(
        &self,
        engine: &'a Engine,
        s: &'q Select,
        batch: RowBatch<'a>,
    ) -> EngineResult<RowBatch<'a>> {
        match self {
            Operator::Scan => engine.op_scan(s),
            Operator::Join(join) => engine.op_join(join, batch),
            Operator::IndexProbe => engine.op_index_probe(s, batch),
            Operator::Filter(w) => engine.op_filter(w, batch),
            Operator::Project => engine.op_project(s, batch),
            Operator::Aggregate => engine.op_aggregate(s, batch),
            Operator::Distinct => engine.op_distinct(s, batch),
            Operator::Sort => engine.op_sort(s, batch),
            Operator::Limit => engine.op_limit(s, batch),
        }
    }
}

impl Engine {
    pub(crate) fn exec_select(&self, s: &Select) -> EngineResult<QueryResult> {
        self.select_preflight(s)?;
        let mut batch = RowBatch::empty();
        for op in assemble(s) {
            batch = op.apply(self, s, batch)?;
        }
        Ok(QueryResult { columns: batch.columns, rows: batch.rows, affected: 0 })
    }

    /// Loads the `FROM` sources and pairs their rows into the first tuples.
    fn op_scan(&self, s: &Select) -> EngineResult<RowBatch<'_>> {
        let mut sources = Vec::with_capacity(s.from.len());
        for name in &s.from {
            sources.push(self.load_source(name)?);
        }
        let multi_table = s.from.len() + s.joins.len() > 1;
        // Injected fault: joins with MEMORY-engine tables drop rows whose
        // key needs an implicit cast (negative integers) — Listing 11.
        if multi_table
            && s.where_clause.is_some()
            && self.bugs().is_enabled(BugId::MysqlMemoryEngineJoinMiss)
        {
            for src in &mut sources {
                if src.memory_engine {
                    src.rows
                        .retain(|r| !r.iter().any(|v| matches!(v, Value::Integer(i) if *i < 0)));
                }
            }
        }

        let mut batch = RowBatch::empty();
        let multi_source = sources.len() > 1;
        for (i, src) in sources.into_iter().enumerate() {
            if multi_source {
                self.cover("exec.cross_join");
            }
            Arc::make_mut(&mut batch.schema).sources.push(src.schema);
            if i == 0 {
                batch.scan(src.rows);
            } else {
                batch.join(src.rows, None, |_| Ok(true))?;
            }
        }
        if batch.sources.is_empty() {
            // No FROM clause: a single constant row.
            batch.scan(vec![Cow::Borrowed(&[])]);
        }
        Ok(batch)
    }

    /// One explicit join: loads the right source lazily (so errors keep
    /// their original order relative to earlier joins' evaluation) and
    /// pairs the batch's tuples with its rows.
    fn op_join<'a>(
        &'a self,
        join: &JoinClause,
        mut batch: RowBatch<'a>,
    ) -> EngineResult<RowBatch<'a>> {
        let right = self.load_source(&join.table)?;
        let right_width = right.schema.columns.len();
        Arc::make_mut(&mut batch.schema).sources.push(right.schema);
        match join.kind {
            JoinKind::Cross => self.cover("exec.cross_join"),
            JoinKind::Inner => self.cover("exec.inner_join"),
            JoinKind::Left => self.cover("exec.left_join"),
        }
        let pad = (join.kind == JoinKind::Left).then(|| vec![Value::Null; right_width]);
        let ev = self.evaluator();
        let on = join
            .on
            .as_ref()
            .filter(|_| join.kind != JoinKind::Cross)
            .map(|on| ev.bind(on, &batch.schema));
        batch.join(right.rows, pad, |t| match &on {
            Some(on) => Ok(ev.eval_bound_predicate(on, &t)?.is_true()),
            None => Ok(true),
        })?;
        Ok(batch)
    }

    /// Single-`FROM` index interactions: the Listing-1 partial-index fault
    /// first, then the equality-probe fast path (single source only).
    fn op_index_probe<'a>(
        &'a self,
        s: &Select,
        mut batch: RowBatch<'a>,
    ) -> EngineResult<RowBatch<'a>> {
        // Injected fault: a partial index whose predicate is `col NOT NULL`
        // is (incorrectly) used for `col IS NOT <literal>` conditions,
        // dropping NULL pivot rows (Listing 1).
        if self.bugs().is_enabled(BugId::SqlitePartialIndexImpliesNotNull) {
            if let Some(w) = &s.where_clause {
                if let Some(col) = find_is_not_literal_column(w) {
                    let table = &s.from[0];
                    let has_partial = self.db.indexes_on(table).iter().any(|i| {
                        i.def.where_clause.as_ref().is_some_and(|p| {
                            matches!(p, Expr::IsNull { negated: true, expr }
                                if expr_references_column(expr, &col))
                        })
                    });
                    if has_partial {
                        self.cover("exec.partial_index");
                        if let Some((ci, _)) = batch.schema.resolve(&ColumnRef::unqualified(&col)) {
                            batch.retain_tuples(|t| !t.value(ci).is_some_and(Value::is_null));
                        }
                    }
                }
            }
        }

        // Index fast path for single-table equality predicates.  Without
        // any fault this is result-preserving; several faults corrupt it.
        if s.joins.is_empty() {
            if let Some(w) = &s.where_clause {
                if let Some((col, lit)) = find_equality_probe(w) {
                    if let Some(rows) =
                        self.index_equality_probe(&s.from[0], &col, &lit, &batch.schema)?
                    {
                        batch.scan(rows);
                    }
                }
            }
        }
        Ok(batch)
    }

    /// Uses an index to narrow down candidate rows for `col = literal`
    /// predicates on a single table, returning the rows the index serves
    /// (borrowed from the table) to replace the scanned ones, or `None`
    /// when no index applies.  The full WHERE clause is still applied
    /// afterwards, so with a correctly maintained index this is
    /// result-preserving.
    ///
    /// The candidate index comes from [`probe_candidates`] — the same
    /// catalog fact the planner's `eligible_index` reads — and the
    /// executor takes the first one *without* the planner's collation
    /// soundness filter (deliberately: that gap is where the §4.4
    /// collation faults live).
    fn index_equality_probe(
        &self,
        table: &str,
        col: &str,
        lit: &Value,
        schema: &RowSchema,
    ) -> EngineResult<Option<SourceRows<'_>>> {
        if probe_blocked_by_inheritance(&self.db, self.dialect(), table) {
            return Ok(None);
        }
        let Some(t) = self.db.table(table) else { return Ok(None) };
        let Some(col_meta) = t.schema.column(col) else { return Ok(None) };
        let index_name = probe_candidates(&self.db, table, col).first().map(|i| i.def.name.clone());
        let Some(index_name) = index_name else { return Ok(None) };
        self.cover("exec.index_lookup");
        let mut probe = lit.clone();
        // Injected fault: probes against an INTEGER PRIMARY KEY are coerced
        // to integers even when the stored value is text (§4.4).
        if self.bugs().is_enabled(BugId::SqliteRowidAliasInsertMismatch)
            && col_meta.primary_key
            && col_meta.type_name == Some(TypeName::Integer)
        {
            probe = Value::Integer(probe.to_integer_lenient().unwrap_or(0));
        }
        let binary_probe = self.bugs().is_enabled(BugId::SqliteCollateIndexBinaryKeys);
        let index = self.db.index(&index_name).expect("index just resolved");
        let matching: Vec<u64> = if binary_probe {
            index
                .entries()
                .iter()
                .filter(|e| {
                    e.key.first().is_some_and(|k| {
                        k.total_cmp(&probe, Collation::Binary) == std::cmp::Ordering::Equal
                    })
                })
                .map(|e| e.row_id)
                .collect()
        } else {
            index
                .entries()
                .iter()
                .filter(|e| {
                    e.key.first().is_some_and(|k| {
                        let coll = index.def.collations.first().copied().unwrap_or_default();
                        match (k, &probe) {
                            (Value::Text(a), Value::Text(b)) => coll.equal(a, b),
                            _ => k.same_as(&probe),
                        }
                    })
                })
                .map(|e| e.row_id)
                .collect()
        };
        // Map row ids back to rows, skipping ids that are gone (defensive).
        let t = self.db.require_table(table)?;
        let out: SourceRows<'_> =
            matching.iter().filter_map(|&rid| t.get(rid)).map(Cow::Borrowed).collect();
        // Keep rows that the index cannot serve (e.g. rows whose key the
        // comparison treats as equal across storage classes) out of the
        // result only if the index is authoritative; with schema width
        // mismatches (views), keep the scanned rows.
        if schema.width() != t.schema.columns.len() {
            return Ok(None);
        }
        Ok(Some(out))
    }

    /// The `WHERE` filter over one batch: binds the predicate once, then
    /// evaluates it one tuple at a time in input order (so evaluation
    /// errors rise in row order).
    fn op_filter<'a>(&self, w: &Expr, mut batch: RowBatch<'a>) -> EngineResult<RowBatch<'a>> {
        self.cover("exec.where_filter");
        let ev = self.evaluator();
        let mut predicate = ev.bind(w, &batch.schema);
        // Injected fault: the LIKE optimisation on INTEGER-affinity NOCASE
        // columns rejects exact matches (Listing 7).
        if self.bugs().is_enabled(BugId::SqliteLikeIntAffinityOptimisation) {
            rewrite_like_int_affinity(&mut predicate);
        }
        let tail_fault = self.bugs().is_enabled(BugId::DuckdbSelectionBitmapTailOffByOne);
        let mut kept = Vec::new();
        let mut kept_idx: Vec<usize> = Vec::new();
        for (i, t) in batch.tuples().enumerate() {
            if ev.eval_bound_predicate(&predicate, &t)?.is_true() {
                // Input indices are only needed to locate the tail fault's
                // victim; skip the bookkeeping on the fault-free path.
                if tail_fault {
                    kept_idx.push(i);
                }
                kept.extend_from_slice(t.rows);
            }
        }
        // Injected fault: the selection bitmap mishandles the partial tail
        // lane group (DuckDB lane-width fault).
        if tail_fault {
            if let Some(victim) = selection_tail_victim(&kept_idx, batch.tuples().len()) {
                let stride = batch.stride();
                kept.drain(victim * stride..(victim + 1) * stride);
            }
        }
        batch.tuples = kept;
        Ok(batch)
    }

    /// Poisoned projection after RENAME COLUMN + double-quoted index
    /// expression (Listing 8): rewrites the affected column in its
    /// source's rows, which the source then owns, before the batch is
    /// projected (plain or aggregate path alike).
    fn apply_poisoned_columns(&self, s: &Select, batch: &mut RowBatch<'_>) {
        if s.from.len() != 1 {
            return;
        }
        let table = &s.from[0];
        let poisons: Vec<(String, String)> = self
            .poisoned_columns
            .iter()
            .filter(|(t, _, _)| t.eq_ignore_ascii_case(table))
            .map(|(_, new, old)| (new.clone(), old.clone()))
            .collect();
        for (new_name, old_name) in poisons {
            if let Some((ci, _)) = batch.schema.resolve(&ColumnRef::unqualified(&new_name)) {
                batch.overwrite_column(ci, &Value::Text(old_name.to_ascii_uppercase()));
            }
        }
    }

    /// The output column labels of a projection.
    fn projection_columns(&self, s: &Select, schema: &RowSchema) -> Vec<String> {
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
        columns
    }

    /// Plain (non-aggregate) projection: binds the items once (`*` to a
    /// column leaf per flat column) and, like `Aggregate`, copies only the
    /// values that land in an output row.
    fn op_project<'a>(&self, s: &Select, mut batch: RowBatch<'a>) -> EngineResult<RowBatch<'a>> {
        self.apply_poisoned_columns(s, &mut batch);
        let columns = self.projection_columns(s, &batch.schema);
        let ev = self.evaluator();
        let mut items = Vec::with_capacity(s.items.len());
        for item in &s.items {
            match item {
                SelectItem::Wildcard => items.extend(batch.schema.column_leaves()),
                SelectItem::Expr { expr, .. } => items.push(ev.bind(expr, &batch.schema)),
            }
        }
        // Every column in order: each output row is its tuple, copied whole.
        let whole_tuple = items.len() == batch.schema.width()
            && items
                .iter()
                .enumerate()
                .all(|(k, item)| matches!(item, BoundExpr::Column { index, .. } if *index == k));
        let mut rows = Vec::with_capacity(batch.tuples().len());
        for t in batch.tuples() {
            if whole_tuple {
                rows.push(t.to_row());
                continue;
            }
            let mut out_row = Vec::with_capacity(items.len());
            for item in &items {
                out_row.push(ev.eval_bound(item, &t)?.into_owned());
            }
            rows.push(out_row);
        }
        Ok(RowBatch { columns, rows, ..RowBatch::empty() })
    }

    /// Grouping / aggregation projection: binds the grouping keys, `HAVING`
    /// and the items once, groups tuples and folds each group in place,
    /// copying only the output values and the group keys.
    fn op_aggregate<'a>(&self, s: &Select, mut batch: RowBatch<'a>) -> EngineResult<RowBatch<'a>> {
        self.apply_poisoned_columns(s, &mut batch);
        self.cover("exec.group_by");
        let schema = &*batch.schema;
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
        let mut group_keys: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<Vec<Tuple<'_, 'a>>> = Vec::new();
        let mut input: Vec<Tuple<'_, 'a>> = batch.tuples().collect();

        // Injected fault: GROUP BY over an inheritance parent merges child
        // rows with parent rows that share the first grouping key
        // (Listing 15).
        if self.bugs().is_enabled(BugId::PostgresInheritanceGroupByMissingRow)
            && !s.group_by.is_empty()
            && s.from.len() == 1
            && !self.db.children_of(&s.from[0]).is_empty()
        {
            let mut seen: Vec<Value> = Vec::new();
            let mut filtered = Vec::new();
            for t in input {
                let key = ev.eval_bound(&group_by[0], &t)?;
                if seen.iter().any(|k| k.same_as(&key)) {
                    continue;
                }
                seen.push(key.into_owned());
                filtered.push(t);
            }
            input = filtered;
        }

        if s.group_by.is_empty() {
            group_keys.push(Vec::new());
            groups.push(input);
        } else {
            let drop_null_groups = self.bugs().is_enabled(BugId::SqliteGroupByNoCaseDuplicates)
                && group_by.iter().any(|g| g.collation() == Collation::NoCase);
            for t in input {
                let mut key = Vec::with_capacity(group_by.len());
                for g in &group_by {
                    key.push(ev.eval_bound(g, &t)?);
                }
                // Injected fault: NULL-keyed groups are dropped when grouping
                // on a NOCASE column (§4.4 COLLATE bugs).
                if drop_null_groups && key.iter().any(|v| v.is_null()) {
                    continue;
                }
                match group_keys.iter().position(|k| {
                    k.len() == key.len() && k.iter().zip(key.iter()).all(|(a, b)| a.same_as(b))
                }) {
                    Some(i) => groups[i].push(t),
                    None => {
                        group_keys.push(key.into_iter().map(Cow::into_owned).collect());
                        groups.push(vec![t]);
                    }
                }
            }
        }

        let columns = self.projection_columns(s, schema);
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
                    None => match group.first() {
                        Some(first) => out_row.extend(first.to_row()),
                        None => out_row.extend(std::iter::repeat_n(Value::Null, schema.width())),
                    },
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
                        out_row.push(self.eval_aggregate_expr::<Tuple>(&ev, expr, &[])?);
                    }
                }
            }
            out_rows.push(out_row);
        }
        Ok(RowBatch { columns, rows: out_rows, ..RowBatch::empty() })
    }

    /// `SELECT DISTINCT` deduplication.
    fn op_distinct<'a>(&self, s: &Select, mut batch: RowBatch<'a>) -> EngineResult<RowBatch<'a>> {
        self.cover("exec.distinct");
        // Injected fault: the skip-scan optimisation applied to DISTINCT
        // after ANALYZE dedupes on the first column only (Listing 6).
        let skip_scan = self.bugs().is_enabled(BugId::SqliteSkipScanDistinct)
            && s.from.len() == 1
            && self.analyzed.contains(&s.from[0].to_ascii_lowercase())
            && !self.db.indexes_on(&s.from[0]).is_empty();
        // Injected fault: DISTINCT treats NULL as a duplicate of zero
        // (§4.4 type flexibility).
        let null_zero = self.bugs().is_enabled(BugId::SqliteDistinctNegativeZero);
        let mut out: Vec<Vec<Value>> = Vec::new();
        for row in batch.rows {
            let duplicate = out.iter().any(|existing| {
                if skip_scan {
                    match (existing.first(), row.first()) {
                        (Some(a), Some(b)) => a.same_as(b),
                        _ => existing.is_empty() && row.is_empty(),
                    }
                } else if null_zero {
                    existing.len() == row.len()
                        && existing.iter().zip(row.iter()).all(|(a, b)| {
                            a.same_as(b)
                                || (a.same_as(&Value::Integer(0)) && b.is_null())
                                || (a.is_null() && b.same_as(&Value::Integer(0)))
                        })
                } else {
                    existing.len() == row.len()
                        && existing.iter().zip(row.iter()).all(|(a, b)| a.same_as(b))
                }
            });
            if !duplicate {
                out.push(row);
            }
        }
        batch.rows = out;
        Ok(batch)
    }

    /// `ORDER BY` (ordering never affects the containment oracle, but the
    /// engine still implements it for completeness).
    fn op_sort<'a>(&self, s: &Select, mut batch: RowBatch<'a>) -> EngineResult<RowBatch<'a>> {
        self.cover("exec.order_by");
        batch.rows.sort_by(|a, b| {
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
        Ok(batch)
    }

    /// `LIMIT` / `OFFSET` truncation.
    fn op_limit<'a>(&self, s: &Select, mut batch: RowBatch<'a>) -> EngineResult<RowBatch<'a>> {
        self.cover("exec.limit_offset");
        let offset = s.offset.unwrap_or(0) as usize;
        let limit = s.limit.map(|l| l as usize).unwrap_or(usize::MAX);
        batch.rows = batch.rows.into_iter().skip(offset).take(limit).collect();
        Ok(batch)
    }
}

/// Detects a top-level `col IS NOT <non-null literal>` condition and returns
/// the column name.
fn find_is_not_literal_column(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Binary { op: BinaryOp::IsNot, left, right } => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) if !v.is_null() => Some(c.column.clone()),
                (Expr::Literal(v), Expr::Column(c)) if !v.is_null() => Some(c.column.clone()),
                _ => None,
            }
        }
        Expr::Binary { op: BinaryOp::And, left, right } => {
            find_is_not_literal_column(left).or_else(|| find_is_not_literal_column(right))
        }
        _ => None,
    }
}

/// Rewrites a bound `col LIKE pattern` into the literal `0` (`1` for `NOT
/// LIKE`) when `col` is an INTEGER-affinity NOCASE column and the pattern
/// is a text literal without wildcard — the shape of the broken LIKE
/// optimisation from Listing 7.  It looks through binary and unary
/// operators only.  A `LIKE` and the literal that replaces it both carry
/// `BINARY` collation and no declared type, so the parents' bound
/// comparison attributes stay valid.
fn rewrite_like_int_affinity(expr: &mut BoundExpr<'_>) {
    match expr {
        BoundExpr::Like { negated, expr: inner, pattern, .. } => {
            let int_nocase_column = matches!(
                **inner,
                BoundExpr::Column {
                    type_name: Some(TypeName::Integer),
                    collation: Collation::NoCase,
                    ..
                }
            );
            let plain_text = matches!(&**pattern, BoundExpr::Literal(p)
                if matches!(&**p, Value::Text(p) if !p.contains('%') && !p.contains('_')));
            if int_nocase_column && plain_text {
                let negated = *negated;
                *expr = BoundExpr::Literal(Cow::Owned(Value::Integer(i64::from(negated))));
            }
        }
        BoundExpr::Binary { left, right, .. } => {
            rewrite_like_int_affinity(left);
            rewrite_like_int_affinity(right);
        }
        BoundExpr::Unary { expr: inner, .. } => rewrite_like_int_affinity(inner),
        _ => {}
    }
}

/// Injected fault support: which kept row the broken selection bitmap
/// drops (columnar extension).  `kept` holds the input-row indices that
/// passed the filter, ascending; the bitmap mishandles the partial tail
/// lane group, losing the **last** kept row whose input index falls in
/// it.  `None` when the input length is a lane multiple (no partial
/// group) or no kept row lands in the tail.
fn selection_tail_victim(kept: &[usize], input_len: usize) -> Option<usize> {
    let tail_start = columnar_sum_tail_len(input_len);
    if tail_start == input_len {
        return None;
    }
    kept.iter().rposition(|&i| i >= tail_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;

    fn parse_select(sql: &str) -> Select {
        match lancer_sql::parse_statement(sql).unwrap() {
            lancer_sql::Statement::Select(lancer_sql::ast::stmt::Query::Select(s)) => *s,
            other => panic!("not a plain select: {other:?}"),
        }
    }

    fn op_names(ops: &[Operator<'_>]) -> Vec<&'static str> {
        ops.iter()
            .map(|op| match op {
                Operator::Scan => "scan",
                Operator::Join(_) => "join",
                Operator::IndexProbe => "probe",
                Operator::Filter(_) => "filter",
                Operator::Project => "project",
                Operator::Aggregate => "aggregate",
                Operator::Distinct => "distinct",
                Operator::Sort => "sort",
                Operator::Limit => "limit",
            })
            .collect()
    }

    #[test]
    fn assembly_follows_the_fixed_stage_order() {
        let s = parse_select("SELECT c0 FROM t0");
        assert_eq!(op_names(&assemble(&s)), vec!["scan", "probe", "project"]);
        let s = parse_select(
            "SELECT DISTINCT c0, COUNT(*) FROM t0 WHERE c0 = 1 GROUP BY c0 ORDER BY c0 LIMIT 2",
        );
        assert_eq!(
            op_names(&assemble(&s)),
            vec!["scan", "probe", "filter", "aggregate", "distinct", "sort", "limit"]
        );
        let s = parse_select("SELECT * FROM t0, t1 LEFT JOIN t2 ON t1.c0 = t2.c0 WHERE t0.c0 = 1");
        assert_eq!(op_names(&assemble(&s)), vec!["scan", "join", "filter", "project"]);
    }

    #[test]
    fn executor_probe_choice_agrees_with_the_plan_tree() {
        // The executor's probe index and the plan's SEARCH index come from
        // the same `probe_candidates` catalog fact, so for probes the
        // planner considers sound they must name the same index.
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_script(
            "CREATE TABLE t0(c0 INT, c1 INT);
             CREATE INDEX i0 ON t0(c0);
             INSERT INTO t0(c0, c1) VALUES (1, 10), (2, 20);",
        )
        .unwrap();
        let explain = e.execute_sql("EXPLAIN SELECT c1 FROM t0 WHERE c0 = 1").unwrap();
        let plan_line = explain.rows[0][0].to_string();
        assert!(plan_line.contains("USING INDEX i0"), "{plan_line}");
        let candidates = probe_candidates(e.database(), "t0", "c0");
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].def.name, "i0");
        // And the probe is result-preserving on the fault-free engine.
        let r = e.execute_sql("SELECT c1 FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Integer(10)]]);
    }

    #[test]
    fn executor_keeps_the_collation_oblivious_fast_path() {
        // The planner refuses a collation-mismatched index for text probes
        // (the sound choice); the executor deliberately probes it anyway —
        // the documented §4.4 divergence.  Both read the same candidates.
        use lancer_sql::ast::stmt::{CreateIndex, IndexedColumn, Statement};
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
        e.execute_sql("INSERT INTO t0(c0) VALUES ('a'), ('a  ')").unwrap();
        let plan = e.execute_sql("EXPLAIN SELECT * FROM t0 WHERE c0 = 'a'").unwrap();
        assert_eq!(plan.rows[0][0].to_string(), "SCAN t0 WITH FILTER");
        assert_eq!(probe_candidates(e.database(), "t0", "c0").len(), 1);
        // The executor still probes i0 (RTRIM equality matches both rows)
        // and the residual WHERE keeps only the exact match.
        let r = e.execute_sql("SELECT * FROM t0 WHERE c0 = 'a'").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn duckdb_and_postgres_return_identical_rows() {
        let setup = "CREATE TABLE t0(c0 INTEGER, c1 TEXT);
             INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c'), (NULL, 'd');";
        let mut duckdb = Engine::new(Dialect::Duckdb);
        duckdb.execute_script(setup).unwrap();
        let plan = duckdb.execute_sql("EXPLAIN SELECT c0 FROM t0 WHERE c0 > 1").unwrap();
        assert_eq!(plan.rows[0][0].to_string(), "SCAN t0 WITH FILTER");
        // Postgres shares strict typing, so values line up exactly.
        let mut postgres = Engine::new(Dialect::Postgres);
        postgres.execute_script(setup).unwrap();
        for q in [
            "SELECT c0 FROM t0 WHERE c0 > 1",
            "SELECT c1, c0 FROM t0 WHERE c0 IS NOT NULL",
            "SELECT * FROM t0 WHERE c1 = 'b' OR c0 < 2",
            "SELECT COUNT(*), SUM(c0), MIN(c0), MAX(c1) FROM t0 WHERE c0 >= 1",
        ] {
            assert_eq!(
                duckdb.execute_sql(q).unwrap().rows,
                postgres.execute_sql(q).unwrap().rows,
                "dialects diverged on {q}"
            );
        }
    }

    #[test]
    fn selection_bitmap_tail_fault_drops_the_last_tail_row_in_both_layouts() {
        use crate::bugs::BugProfile;
        let mut insert = String::from("INSERT INTO t0(c0) VALUES (1)");
        for i in 2..=9 {
            insert.push_str(&format!(", ({i})"));
        }
        let setup = format!("CREATE TABLE t0(c0 INTEGER); {insert};");
        let fault = BugProfile::with(&[BugId::DuckdbSelectionBitmapTailOffByOne]);
        // The filter loses the last kept row of the partial tail lane
        // group (rows 8.. of 9).
        let mut duckdb = Engine::with_bugs(Dialect::Duckdb, fault);
        duckdb.execute_script(&setup).unwrap();
        let got = duckdb.execute_sql("SELECT c0 FROM t0 WHERE c0 >= 1").unwrap();
        assert_eq!(got.rows.len(), 8, "row with c0 = 9 should be dropped");
        assert!(!got.rows.iter().any(|r| r[0] == Value::Integer(9)));
        // The hook keys off the fault, not the dialect: the same profile
        // on Postgres drops the identical row.
        let mut postgres = Engine::with_bugs(Dialect::Postgres, fault);
        postgres.execute_script(&setup).unwrap();
        let postgres_got = postgres.execute_sql("SELECT c0 FROM t0 WHERE c0 >= 1").unwrap();
        assert_eq!(got.rows, postgres_got.rows);
        // A lane-multiple input has no partial tail group: no row lost.
        let mut aligned = Engine::with_bugs(
            Dialect::Duckdb,
            BugProfile::with(&[BugId::DuckdbSelectionBitmapTailOffByOne]),
        );
        aligned.execute_script("CREATE TABLE t0(c0 INTEGER);").unwrap();
        aligned
            .execute_sql("INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8)")
            .unwrap();
        assert_eq!(aligned.execute_sql("SELECT c0 FROM t0 WHERE c0 >= 1").unwrap().rows.len(), 8);
    }

    #[test]
    fn analyze_checksum_fault_rejects_partial_row_groups() {
        use crate::bugs::BugProfile;
        let fault = BugProfile::with(&[BugId::DuckdbAnalyzeRowGroupChecksum]);
        let mut e = Engine::with_bugs(Dialect::Duckdb, fault);
        e.execute_script(
            "CREATE TABLE t0(c0 INTEGER);
             INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8);",
        )
        .unwrap();
        // Eight rows fill the row group exactly: ANALYZE passes.
        e.execute_sql("ANALYZE t0").unwrap();
        // A ninth row leaves a partial tail group: checksum "mismatch".
        e.execute_sql("INSERT INTO t0(c0) VALUES (9)").unwrap();
        let err = e.execute_sql("ANALYZE t0").unwrap_err();
        assert!(err.message.contains("row group checksum mismatch"), "{}", err.message);
    }

    #[test]
    fn sum_lane_fault_skips_the_partial_tail_block_in_both_layouts() {
        use crate::bugs::BugProfile;
        let setup = "CREATE TABLE t0(c0 INTEGER);
             INSERT INTO t0(c0) VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10);";
        let fault = BugProfile::with(&[BugId::DuckdbSumLaneWideningSkipsTail]);
        let mut duckdb = Engine::with_bugs(Dialect::Duckdb, fault);
        duckdb.execute_script(setup).unwrap();
        // Only the first 8 of 10 values are folded: 36 instead of 55.
        let got = duckdb.execute_sql("SELECT SUM(c0) FROM t0").unwrap();
        assert_eq!(got.rows, vec![vec![Value::Integer(36)]]);
        // The same profile on Postgres undercounts identically (one
        // `eval_aggregate_expr` hook), and COUNT is unaffected.
        let mut postgres = Engine::with_bugs(Dialect::Postgres, fault);
        postgres.execute_script(setup).unwrap();
        assert_eq!(postgres.execute_sql("SELECT SUM(c0) FROM t0").unwrap().rows, got.rows);
        assert_eq!(
            duckdb.execute_sql("SELECT COUNT(c0) FROM t0").unwrap().rows,
            vec![vec![Value::Integer(10)]]
        );
    }

    #[test]
    fn wildcard_projection_is_identity_on_the_batch() {
        let mut e = Engine::new(Dialect::Sqlite);
        e.execute_script("CREATE TABLE t0(c0 INT); INSERT INTO t0(c0) VALUES (1), (2);").unwrap();
        let r = e.execute_sql("SELECT * FROM t0").unwrap();
        assert_eq!(r.columns, vec!["c0"]);
        assert_eq!(r.rows, vec![vec![Value::Integer(1)], vec![Value::Integer(2)]]);
    }
}
