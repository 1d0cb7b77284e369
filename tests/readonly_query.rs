//! Differential property suite for the read-only evaluation path:
//! `Engine::query(&self, n, stmt)` must be bit-identical — results,
//! errors, and coverage keys — to `Engine::execute(&mut self)` running
//! the same statement as statement `n` on a fresh clone.
//!
//! Random generated databases and random read-only statements (probe
//! queries and `EXPLAIN`) run through both paths across all four
//! dialects, with every injected fault enabled as well as with none.  A
//! mutable *twin* clone executes the statements sequentially, so the
//! read path is checked at every ordinal the mutable path actually
//! passes through — a fault whose firing point drifts between the two
//! paths is caught at the first statement that exposes it.

use std::sync::Arc;

use lancer_core::gen::{GenConfig, StateGenerator};
use lancer_core::qpg::random_probe_query;
use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::stmt::Statement;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random database, then checks a batch of random read-only
/// statements through both paths at consecutive ordinals.
fn check_readonly_differential(
    seed: u64,
    dialect: Dialect,
    profile: BugProfile,
) -> Result<(), TestCaseError> {
    let gen = GenConfig::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::with_bugs(dialect, profile);
    let mut generator = StateGenerator::new(dialect, gen.clone());
    let _ = generator.generate_database(&mut rng, &mut engine);
    let base = engine.statements_executed();

    // The mutable twin starts as a clone of the shared snapshot and
    // executes each statement for real; the snapshot itself is only ever
    // queried.  Clones never share the coverage sink, so the two hit
    // sets are directly comparable at the end.
    let mut twin = engine.clone();
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x00D1_FFE0_5EED);
    for i in 0..8u64 {
        let Some(q) = random_probe_query(&mut query_rng, &engine, &gen) else {
            return Ok(());
        };
        let stmt =
            if query_rng.gen_bool(0.2) { Statement::Explain(q) } else { Statement::Select(q) };
        let ordinal = base + i;
        prop_assert_eq!(twin.statements_executed(), ordinal);
        let via_execute = twin.execute(&stmt);
        let via_query = engine.query(ordinal, &stmt);
        prop_assert_eq!(
            &via_execute,
            &via_query,
            "query and execute diverged for {:?} at ordinal {} on: {}",
            dialect,
            ordinal,
            stmt
        );
        // Zero RNG draws and zero state: asking again is identical.
        prop_assert_eq!(&via_query, &engine.query(ordinal, &stmt));
    }
    // The read path never advanced the snapshot's clock...
    prop_assert_eq!(engine.statements_executed(), base);
    // ...but recorded exactly the coverage keys the mutable path did.
    prop_assert_eq!(twin.coverage().hit_features(), engine.coverage().hit_features());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Fault-free engines: the read path is the dialect semantics.
    #[test]
    fn query_matches_execute_without_faults(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        check_readonly_differential(seed, dialect, BugProfile::none())?;
    }

    /// Full fault profiles: every injected fault must fire at exactly
    /// the same rows through `query` as through `execute`.
    #[test]
    fn query_matches_execute_with_all_faults(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        check_readonly_differential(seed, dialect, BugProfile::all_for(dialect))?;
    }
}

/// Concurrent judging: many threads evaluating candidates against one
/// shared `Arc<Engine>` snapshot must each see exactly what a sequential
/// judge sees, and the shared sink must end up with the union of their
/// coverage.
#[test]
fn shared_snapshot_wave_judging_is_deterministic() {
    let gen = GenConfig::tiny();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut engine = Engine::with_bugs(Dialect::Sqlite, BugProfile::all_for(Dialect::Sqlite));
    let mut generator = StateGenerator::new(Dialect::Sqlite, gen.clone());
    let _ = generator.generate_database(&mut rng, &mut engine);
    let base = engine.statements_executed();

    let mut candidates = Vec::new();
    let mut query_rng = StdRng::seed_from_u64(0xF00D);
    while candidates.len() < 16 {
        if let Some(q) = random_probe_query(&mut query_rng, &engine, &gen) {
            candidates.push(Statement::Select(q));
        }
    }

    let sequential: Vec<_> = candidates.iter().map(|s| engine.query(base, s)).collect();
    let snapshot = Arc::new(engine);
    let parallel: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .iter()
            .map(|s| {
                let snapshot = Arc::clone(&snapshot);
                scope.spawn(move || snapshot.query(base, s))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    assert_eq!(sequential, parallel);
}
