//! Feature-coverage instrumentation.
//!
//! Table 4 of the paper reports line/branch coverage of each DBMS after a
//! 24-hour SQLancer run.  gcov-style coverage of a C codebase is not
//! available here, so the engine instead registers a *feature point* for
//! every operator, statement kind, optimisation and maintenance path it
//! implements, and marks points as they execute.  The covered fraction plays
//! the same role as the paper's coverage numbers: "how much of the engine
//! does the generated workload exercise".

use std::collections::BTreeSet;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use serde::{Deserialize, Serialize};

/// All feature points the engine can exercise.
pub const ALL_FEATURES: &[&str] = &[
    // Statement kinds.
    "stmt.create_table",
    "stmt.create_index",
    "stmt.create_view",
    "stmt.create_statistics",
    "stmt.drop_table",
    "stmt.drop_index",
    "stmt.drop_view",
    "stmt.alter_rename_table",
    "stmt.alter_rename_column",
    "stmt.alter_add_column",
    "stmt.insert",
    "stmt.update",
    "stmt.delete",
    "stmt.select",
    "stmt.vacuum",
    "stmt.reindex",
    "stmt.analyze",
    "stmt.check_table",
    "stmt.repair_table",
    "stmt.pragma",
    "stmt.set_option",
    "stmt.discard",
    "stmt.begin",
    "stmt.commit",
    "stmt.rollback",
    "stmt.session",
    // Expression evaluation.
    "expr.aggregate",
    // Executor paths.
    "exec.table_scan",
    "exec.index_lookup",
    "exec.partial_index",
    "exec.cross_join",
    "exec.inner_join",
    "exec.left_join",
    "exec.where_filter",
    "exec.distinct",
    "exec.group_by",
    "exec.having",
    "exec.order_by",
    "exec.limit_offset",
    "exec.compound_intersect",
    "exec.compound_union",
    "exec.compound_except",
    "exec.view_expansion",
    "exec.inheritance_expansion",
    "exec.memory_engine",
    "exec.without_rowid",
    // Constraint enforcement.
    "constraint.primary_key",
    "constraint.unique",
    "constraint.not_null",
    "constraint.check",
    "constraint.default",
    "constraint.on_conflict_ignore",
    "constraint.on_conflict_replace",
];

/// Records which feature points have executed.
///
/// The recorder is an interior-mutability *sink*: [`Coverage::hit`] takes
/// `&self`, so the read-only query path ([`Engine::query`]) records the
/// same keys through the same sink as the mutable path without needing
/// exclusive engine access.  The hit set itself lives behind an [`Arc`]
/// inside the lock, so cloning an engine (replay snapshots, workspace
/// copies) is still a refcount bump: a clone is a *snapshot* of the
/// contents — it never shares the sink, and the first divergent hit
/// unshares the set via copy-on-write.  A coverage set saturates quickly,
/// after which repeat hits are lock-read-and-return.
///
/// [`Engine::query`]: crate::Engine::query
#[derive(Debug, Default)]
pub struct Coverage {
    hit: RwLock<Arc<BTreeSet<String>>>,
}

impl Coverage {
    /// Creates an empty coverage recorder.
    #[must_use]
    pub fn new() -> Coverage {
        Coverage::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Arc<BTreeSet<String>>> {
        self.hit.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// A cheap snapshot of the current hit set (refcount bump).
    fn snapshot(&self) -> Arc<BTreeSet<String>> {
        Arc::clone(&self.read())
    }

    /// Marks a feature point as executed.
    pub fn hit(&self, feature: &str) {
        debug_assert!(ALL_FEATURES.contains(&feature), "unregistered coverage feature: {feature}");
        // Repeat hits (the overwhelmingly common case) take only the read
        // lock and must not unshare a set a snapshot still holds.
        if self.read().contains(feature) {
            return;
        }
        let mut guard = self.hit.write().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the write lock: another thread may have recorded
        // the same feature between the two lock acquisitions.
        if !guard.contains(feature) {
            Arc::make_mut(&mut guard).insert(feature.to_owned());
        }
    }

    /// Number of distinct feature points executed.
    #[must_use]
    pub fn hit_count(&self) -> usize {
        self.read().len()
    }

    /// Total number of registered feature points.
    #[must_use]
    pub fn total(&self) -> usize {
        ALL_FEATURES.len()
    }

    /// The covered fraction in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.hit_count() as f64 / self.total() as f64
    }

    /// Feature points that have not executed yet.
    #[must_use]
    pub fn missing(&self) -> Vec<&'static str> {
        let hit = self.read();
        ALL_FEATURES.iter().copied().filter(|f| !hit.contains(*f)).collect()
    }

    /// The feature points that have executed, in sorted order.  The
    /// read-path differential suites diff this between a `query` and an
    /// `execute` of the same statement.
    #[must_use]
    pub fn hit_features(&self) -> Vec<String> {
        self.read().iter().cloned().collect()
    }

    /// Merges another coverage record into this one.
    pub fn merge(&mut self, other: &Coverage) {
        let ours = self.hit.get_mut().unwrap_or_else(PoisonError::into_inner);
        let theirs = other.snapshot();
        if Arc::ptr_eq(ours, &theirs) || theirs.is_subset(ours) {
            return;
        }
        if ours.is_empty() {
            *ours = theirs;
            return;
        }
        let hit = Arc::make_mut(ours);
        for f in theirs.iter() {
            hit.insert(f.clone());
        }
    }
}

/// A clone is a snapshot: the contents are shared copy-on-write, the sink
/// (the lock) is fresh, so hits recorded through the clone never leak into
/// the original and vice versa.
impl Clone for Coverage {
    fn clone(&self) -> Coverage {
        Coverage { hit: RwLock::new(self.snapshot()) }
    }
}

// Hand-rolled serde mirroring the previous `#[derive]` on
// `struct Coverage { hit: Arc<BTreeSet<String>> }`, so the wire format is
// unchanged by the interior-mutability refactor.
impl Serialize for Coverage {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("hit".to_owned(), self.snapshot().to_value())])
    }
}

impl<'de> Deserialize<'de> for Coverage {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_accumulates_and_merges() {
        let mut a = Coverage::new();
        assert_eq!(a.hit_count(), 0);
        a.hit("stmt.select");
        a.hit("stmt.select");
        assert_eq!(a.hit_count(), 1);
        assert!(a.fraction() > 0.0 && a.fraction() < 1.0);
        let b = Coverage::new();
        b.hit("expr.aggregate");
        a.merge(&b);
        assert_eq!(a.hit_count(), 2);
        assert_eq!(a.missing().len(), ALL_FEATURES.len() - 2);
        assert_eq!(a.hit_features(), vec!["expr.aggregate".to_owned(), "stmt.select".to_owned()]);
    }

    #[test]
    fn all_features_are_unique() {
        let set: BTreeSet<_> = ALL_FEATURES.iter().collect();
        assert_eq!(set.len(), ALL_FEATURES.len());
    }

    #[test]
    fn clones_are_snapshots_not_shared_sinks() {
        let a = Coverage::new();
        a.hit("stmt.select");
        let b = a.clone();
        a.hit("expr.aggregate");
        b.hit("exec.table_scan");
        assert_eq!(a.hit_features(), vec!["expr.aggregate".to_owned(), "stmt.select".to_owned()]);
        assert_eq!(b.hit_features(), vec!["exec.table_scan".to_owned(), "stmt.select".to_owned()]);
    }

    #[test]
    fn hits_through_a_shared_reference_are_visible() {
        let cov = Coverage::new();
        let shared: &Coverage = &cov;
        shared.hit("stmt.select");
        assert_eq!(cov.hit_count(), 1, "the sink records through &self");
    }

    #[test]
    fn serde_output_matches_the_pre_refactor_derive() {
        let cov = Coverage::new();
        cov.hit("stmt.select");
        cov.hit("expr.aggregate");
        let json = serde_json::to_string(&cov).unwrap();
        assert_eq!(json, r#"{"hit":["expr.aggregate","stmt.select"]}"#);
        assert_eq!(serde_json::from_str(&json).unwrap(), cov.to_value());
    }
}
