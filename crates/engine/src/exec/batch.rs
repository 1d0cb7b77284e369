//! Row batches: the unit of data flow between executor pipeline operators.
//!
//! The pipeline (see `exec::pipeline`) passes one [`RowBatch`] from
//! operator to operator.  Up to projection a batch is a *selection*: one
//! row list per `FROM` source plus the selected tuples, each a row index
//! per source.  A table's row list borrows the rows where the table
//! stores them (its shared, copy-on-write row block), so `Scan`, `Join`,
//! `IndexProbe` and `Filter` copy row indices, never values.  Only rows
//! no table stores are owned by their list: a view's result rows, the
//! child rows of an inheritance parent, a `LEFT JOIN`'s all-NULL pad row
//! and the rows the poisoned-column fault rewrites.
//!
//! Operators evaluate expressions bound once per query to the batch
//! schema (`Evaluator::bind`); a bound column leaf reads a tuple's value in
//! place through [`Tuple`], a [`RowView`](crate::eval::RowView), and hands
//! it back borrowed.  So values are cloned only where they are kept, and
//! `Project` and `Aggregate`, which materialize the output rows (and the
//! group keys), are the only operators that copy values.
//! From then on the batch carries those rows, which `Distinct`, `Sort` and
//! `Limit` rearrange by value.  The schema is stored once per batch behind
//! an [`Arc`]; joins extend it in place via [`Arc::make_mut`] (the batch is
//! its only owner while a query executes).

use std::borrow::Cow;
use std::sync::Arc;

use lancer_sql::value::Value;

use crate::error::EngineResult;
use crate::eval::{RowSchema, RowView};

/// The rows of one source, in scan order: borrowed from the table that
/// stores them, or owned when the source computes them.
pub(crate) type SourceRows<'a> = Vec<Cow<'a, [Value]>>;

/// A batch flowing between pipeline operators: a selection of source-row
/// tuples before projection, output rows after it.
#[derive(Debug)]
pub(crate) struct RowBatch<'a> {
    /// The flattened source schema the tuples are read against.
    pub(crate) schema: Arc<RowSchema>,
    /// One row list per source.  A `SELECT` without `FROM` has a single
    /// source holding one empty row, so that every tuple has a row index.
    pub(crate) sources: Vec<SourceRows<'a>>,
    /// The selected tuples, flattened: `sources.len()` row indices each.
    pub(crate) tuples: Vec<usize>,
    /// Output column labels, set by the projection/aggregation operator.
    pub(crate) columns: Vec<String>,
    /// Output rows, set by the projection/aggregation operator.
    pub(crate) rows: Vec<Vec<Value>>,
}

impl<'a> RowBatch<'a> {
    /// An empty batch with an empty schema (the pipeline input).
    pub(crate) fn empty() -> RowBatch<'a> {
        RowBatch {
            schema: Arc::new(RowSchema::empty()),
            sources: Vec::new(),
            tuples: Vec::new(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Starts a selection over a first source: every row, in order.
    pub(crate) fn scan(&mut self, rows: SourceRows<'a>) {
        self.tuples = (0..rows.len()).collect();
        self.sources = vec![rows];
    }

    /// Appends a source (after [`RowBatch::scan`] started the selection)
    /// and pairs every tuple with each of its rows that `keep` accepts, in
    /// (tuple, row) order, so errors rise in that order.  With a `pad`
    /// row, a tuple that keeps no row pairs with `pad` instead (a
    /// `LEFT JOIN`'s all-NULL row), which the source then owns.
    pub(crate) fn join(
        &mut self,
        mut rows: SourceRows<'a>,
        pad: Option<Vec<Value>>,
        mut keep: impl FnMut(Tuple<'_, 'a>) -> EngineResult<bool>,
    ) -> EngineResult<()> {
        let (left_stride, right_len) = (self.stride(), rows.len());
        let pad = pad.map(|pad| {
            rows.push(Cow::Owned(pad));
            right_len
        });
        self.sources.push(rows);
        let mut joined = Vec::new();
        let mut scratch = vec![0; left_stride + 1];
        for left in self.tuples.chunks_exact(left_stride) {
            scratch[..left_stride].copy_from_slice(left);
            let mut matched = false;
            for r in 0..right_len {
                scratch[left_stride] = r;
                if keep(Tuple { sources: &self.sources, rows: &scratch })? {
                    matched = true;
                    joined.extend_from_slice(&scratch);
                }
            }
            if let (false, Some(pad)) = (matched, pad) {
                scratch[left_stride] = pad;
                joined.extend_from_slice(&scratch);
            }
        }
        self.tuples = joined;
        Ok(())
    }

    /// Row indices per tuple (the number of sources).
    pub(crate) fn stride(&self) -> usize {
        self.sources.len()
    }

    /// The selected tuples in order, each read in place.
    pub(crate) fn tuples(&self) -> impl ExactSizeIterator<Item = Tuple<'_, 'a>> {
        // A batch without sources has no tuples; `max` keeps the chunk
        // size legal for it.
        let stride = self.stride().max(1);
        self.tuples.chunks_exact(stride).map(|rows| Tuple { sources: &self.sources, rows })
    }

    /// Keeps the tuples `keep` accepts, in order.
    pub(crate) fn retain_tuples(&mut self, mut keep: impl FnMut(Tuple<'_, 'a>) -> bool) {
        let mut kept = Vec::with_capacity(self.tuples.len());
        for t in self.tuples() {
            if keep(t) {
                kept.extend_from_slice(t.rows);
            }
        }
        self.tuples = kept;
    }

    /// Overwrites flat column `i` in every row of the source that holds it
    /// (the poisoned-column fault); the source then owns its rows.
    pub(crate) fn overwrite_column(&mut self, mut i: usize, value: &Value) {
        for (schema, rows) in self.schema.sources.iter().zip(&mut self.sources) {
            let width = schema.columns.len();
            if i < width {
                for row in rows {
                    row.to_mut()[i] = value.clone();
                }
                return;
            }
            i -= width;
        }
    }
}

/// One selected tuple: a row index per source, read where the rows live.
/// Flat column `i` is column `i` of the sources' rows laid side by side,
/// exactly as if they had been concatenated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuple<'b, 'a> {
    sources: &'b [SourceRows<'a>],
    /// The row index into each source.
    pub(crate) rows: &'b [usize],
}

impl<'b> Tuple<'b, '_> {
    /// The tuple's source rows, left to right.
    fn parts(self) -> impl Iterator<Item = &'b [Value]> {
        self.sources.iter().zip(self.rows).map(|(source, &r)| &*source[r])
    }

    /// Copies the tuple's values into one owned row.
    pub(crate) fn to_row(self) -> Vec<Value> {
        let mut row = Vec::with_capacity(self.parts().map(<[Value]>::len).sum());
        for part in self.parts() {
            row.extend_from_slice(part);
        }
        row
    }
}

impl RowView for Tuple<'_, '_> {
    fn value(&self, mut i: usize) -> Option<&Value> {
        for part in self.parts() {
            match part.get(i) {
                Some(v) => return Some(v),
                None => i -= part.len(),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_has_no_rows_and_no_schema() {
        let b = RowBatch::empty();
        assert_eq!(b.tuples().count(), 0);
        assert_eq!(b.schema.width(), 0);
        assert!(b.columns.is_empty() && b.rows.is_empty());
    }

    #[test]
    fn a_tuple_reads_like_its_concatenated_row() {
        let left = [Value::Integer(1), Value::Integer(2)];
        let mut b = RowBatch::empty();
        b.sources = vec![
            vec![Cow::Borrowed(&left[..]), Cow::Owned(vec![Value::Integer(3), Value::Null])],
            vec![Cow::Owned(vec![Value::Text("x".into())])],
        ];
        b.tuples = vec![1, 0, 0, 0];
        let rows: Vec<Vec<Value>> = b.tuples().map(Tuple::to_row).collect();
        assert_eq!(rows[0], vec![Value::Integer(3), Value::Null, Value::Text("x".into())]);
        assert_eq!(rows[1], vec![Value::Integer(1), Value::Integer(2), Value::Text("x".into())]);
        for (t, row) in b.tuples().zip(&rows) {
            for i in 0..4 {
                assert_eq!(t.value(i), row.get(i));
            }
        }
        b.retain_tuples(|t| t.value(0) == Some(&Value::Integer(1)));
        assert_eq!(b.tuples, vec![0, 0]);
    }
}
