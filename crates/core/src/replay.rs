//! Prefix-keyed replay caching for reduction and attribution.
//!
//! The post-campaign pipeline re-executes statement logs constantly: the
//! spurious filter replays every detection twice, delta debugging replays
//! `O(n log n)` candidate subsequences, and attribution replays the
//! reduced case once per enabled fault.  All of those candidates are
//! subsequences of the *same* detection log, and detections from the same
//! generated database share their whole generation-log prefix — so most
//! of the work is re-running statements an earlier replay already ran on
//! an identical engine state.
//!
//! [`ReplayCache`] memoizes engine snapshots keyed by *(fault profile,
//! statement-log prefix)*: a replay walks the deepest cached prefix of
//! its candidate, clones that snapshot, and executes only the suffix.
//! The clone is copy-on-write (`lancer-storage` shares tables
//! structurally), so resuming costs reference-count bumps; the resumed
//! candidate deep-copies only the tables its suffix actually writes,
//! never the whole database.  [`ReplaySession`] binds the cache to one
//! detection's parsed statement log, hashing each statement exactly once,
//! for the whole-log questions (the spurious filter, the reproduction
//! check, attribution); reduction candidates reach the cache through
//! [`DifferentialJudge`] with the hashes the reducer computed once per
//! log, so reduction never re-renders, re-parses or re-clones a
//! statement.
//!
//! A cache serves one generated database: detections of different
//! databases share no generation log, so the campaign runner
//! [`clear`](ReplayCache::clear)s it before it triages the next
//! database's detections, and the snapshot bound caps the memory of one
//! database's replays.
//!
//! Correctness is bit-for-bit: an engine snapshot taken after executing a
//! prefix on a fresh engine *is* the state a full replay would reach
//! (statement atomicity means failed setup statements leave the database
//! unchanged while still advancing the statement counter, which is why
//! the counter equals the prefix length either way), so cached and
//! uncached replays return identical verdicts.  The cache only ever
//! changes how much work a verdict costs — `tests/determinism.rs` and the
//! pinned snapshots in `tests/qpg.rs` hold across it unchanged.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};

use lancer_engine::{BugProfile, Dialect, Engine};
use lancer_sql::ast::stmt::Statement;

use crate::oracle::{
    committed_units, norec_sum, partition_diff, serial_orders_match, state_digest, ErrorOracle,
    ReproSpec,
};
use crate::reduce::CandidateJudge;

/// Memoized engine snapshots keyed by fault profile and statement-log
/// prefix, shared across every replay of one generated database's
/// detections.
#[derive(Debug)]
pub struct ReplayCache {
    dialect: Dialect,
    /// Boxed so a full map stays small; a resume clones the engine out,
    /// which is copy-on-write pointer work.
    snapshots: HashMap<u64, Box<Engine>>,
    /// Prefixes walked once already.  A snapshot is cheap to take (CoW)
    /// but holding one pins the prefix's tables, keeping later mutations
    /// on the unshare path — so one is only taken when a prefix *recurs*:
    /// cold prefixes (most of a one-shot replay) stay unpinned, recurring
    /// ones (shared generation logs, surviving reduction candidates) pay
    /// once and then serve every later replay.
    seen: HashSet<u64>,
    /// Memoized verdicts keyed by (oracle name, profile, full statement
    /// sequence, repro spec).  Delta debugging re-tries the same candidate
    /// across outer rounds — most blatantly the final no-change sweep,
    /// which re-replays every candidate against the settled sequence — and
    /// the engine is deterministic, so an identical question has an
    /// identical answer.  The oracle name is part of the key so that two
    /// oracles asking over the *same* log prefix (say a NoREC
    /// [`ReproSpec::PairMismatch`] and a TLP
    /// [`ReproSpec::PartitionMismatch`] from one generated database) can
    /// never be served each other's memo entry, even if their spec hashes
    /// were to collide.
    verdicts: HashMap<u64, bool>,
    max_snapshots: usize,
    stats: ReplayCacheStats,
}

/// Counters describing how much replay work the cache absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCacheStats {
    /// Replays that resumed from a cached prefix snapshot.
    pub prefix_hits: u64,
    /// Replays that started from a fresh engine.
    pub prefix_misses: u64,
    /// Replays answered entirely from the verdict memo (no execution).
    pub verdict_hits: u64,
    /// Setup statements actually executed across all replays.
    pub statements_replayed: u64,
    /// Setup statements skipped because a snapshot already covered them.
    pub statements_skipped: u64,
    /// Prefix snapshots retained in the cache.
    pub snapshots_taken: u64,
    /// Prefix snapshots refused because the cache was full.  Nothing is
    /// ever evicted: a full cache keeps the snapshots it has.
    pub snapshots_evicted: u64,
}

impl ReplayCache {
    /// Default bound on retained snapshots, a memory cap for the replays
    /// of one generated database.  Generation logs are small (tens of
    /// statements over tiny databases), so even the bound's worst case is
    /// a few megabytes; once full, the cache keeps the entries it has
    /// until [`clear`](ReplayCache::clear) drops them.  A cache shared by
    /// several databases would spend the bound on the first databases'
    /// prefixes, which later databases hardly ever reuse.
    const DEFAULT_MAX_SNAPSHOTS: usize = 4096;

    /// Creates a cache for replays against the given dialect.
    #[must_use]
    pub fn new(dialect: Dialect) -> ReplayCache {
        ReplayCache::with_max_snapshots(dialect, ReplayCache::DEFAULT_MAX_SNAPSHOTS)
    }

    /// Creates a cache with an explicit snapshot bound (0 disables
    /// snapshotting entirely; verdicts are unaffected, only cost).
    #[must_use]
    pub fn with_max_snapshots(dialect: Dialect, max_snapshots: usize) -> ReplayCache {
        ReplayCache {
            dialect,
            snapshots: HashMap::new(),
            seen: HashSet::new(),
            verdicts: HashMap::new(),
            max_snapshots,
            stats: ReplayCacheStats::default(),
        }
    }

    /// The dialect this cache replays against.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ReplayCacheStats {
        self.stats
    }

    /// Number of snapshots currently retained.
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Drops every snapshot, seen prefix and memoized verdict, keeping the
    /// work counters.  The campaign runner calls it between generated
    /// databases, which share no generation log.  Verdicts are unaffected;
    /// only the cost of later replays changes.
    pub fn clear(&mut self) {
        self.snapshots.clear();
        self.seen.clear();
        self.verdicts.clear();
    }

    /// Cached equivalent of [`crate::runner::reproduces`]: same verdict,
    /// but the setup replay resumes from the deepest cached prefix.
    /// `oracle` is the registry name of the oracle that raised the
    /// detection; it scopes the verdict memo (snapshots are shared across
    /// oracles — replaying a prefix is oracle-independent, judging a
    /// trigger is not).
    #[must_use]
    pub fn reproduces(
        &mut self,
        oracle: &str,
        profile: &BugProfile,
        statements: &[Statement],
        repro: &ReproSpec,
    ) -> bool {
        let refs: Vec<&Statement> = statements.iter().collect();
        let hashes: Vec<u64> = refs.iter().map(|s| statement_hash(s)).collect();
        self.reproduces_refs(oracle, profile, &refs, &hashes, repro)
    }

    /// The shared replay core: `stmts[..len-1]` is the setup (replayed
    /// through the snapshot cache), the last statement is the trigger
    /// checked against the repro spec.  `hashes` holds the
    /// [`statement_hash`] of each statement in `stmts`, in order.
    pub(crate) fn reproduces_refs(
        &mut self,
        oracle: &str,
        profile: &BugProfile,
        stmts: &[&Statement],
        hashes: &[u64],
        repro: &ReproSpec,
    ) -> bool {
        let Some((&last, setup)) = stmts.split_last() else {
            return false;
        };
        let sequence_key =
            hashes.iter().fold(profile_key(self.dialect, profile), |key, h| combine(key, *h));
        let verdict_key = combine(combine(sequence_key, fnv1a_str(oracle)), repro_hash(repro));
        if let Some(&verdict) = self.verdicts.get(&verdict_key) {
            self.stats.verdict_hits += 1;
            return verdict;
        }
        // keys[i] identifies (profile, setup[..i]).
        let mut keys = Vec::with_capacity(setup.len() + 1);
        let mut key = profile_key(self.dialect, profile);
        keys.push(key);
        for h in &hashes[..setup.len()] {
            key = combine(key, *h);
            keys.push(key);
        }
        let start =
            (1..=setup.len()).rev().find(|&i| self.snapshots.contains_key(&keys[i])).unwrap_or(0);
        if start > 0 {
            self.stats.prefix_hits += 1;
        } else {
            self.stats.prefix_misses += 1;
        }
        self.stats.statements_skipped += start as u64;
        // Fast path: when the cached snapshot already covers the whole setup,
        // a read-only trigger can be judged straight off the snapshot — no
        // engine clone, no per-candidate state at all.  This is the
        // expression-pass hot path: successive candidates share one
        // snapshot and differ only in their trigger.
        if start > 0 && start == setup.len() {
            let snapshot = &self.snapshots[&keys[start]];
            if let Some(verdict) = confirms_readonly(snapshot, setup, last, repro) {
                return self.remember(verdict_key, verdict);
            }
        }
        let mut engine = match start {
            0 => Engine::with_bugs(self.dialect, *profile),
            _ => Engine::clone(&self.snapshots[&keys[start]]),
        };
        let mut taken = Vec::new();
        for i in start..setup.len() {
            // Setup statements may legitimately fail after reduction removed
            // their prerequisites; keep going, mirroring SQLancer's reducer.
            let _ = engine.execute(setup[i]);
            let key = keys[i + 1];
            // A snapshot is only taken when a prefix *recurs* — cold
            // prefixes are merely marked seen (see the `seen` field).
            if self.seen.contains(&key) {
                taken.push((key, Box::new(engine.clone())));
            } else if self.seen.len() < self.max_snapshots * 16 {
                self.seen.insert(key);
            }
        }
        self.stats.statements_replayed += (setup.len() - start) as u64;
        let verdict = confirms(&mut engine, setup, last, repro);
        // Snapshots are stored once the verdict is in; when the cache is
        // full the rest are refused (and dropped here).
        for (key, snapshot) in taken {
            if self.snapshots.len() < self.max_snapshots {
                self.stats.snapshots_taken += 1;
                self.snapshots.insert(key, snapshot);
            } else {
                self.stats.snapshots_evicted += 1;
            }
        }
        self.remember(verdict_key, verdict)
    }

    /// Records a verdict in the memo (while it is under its bound) and
    /// returns it.
    fn remember(&mut self, verdict_key: u64, verdict: bool) -> bool {
        if self.verdicts.len() < self.max_snapshots * 16 {
            self.verdicts.insert(verdict_key, verdict);
        }
        verdict
    }
}

/// The campaign runner's reduction predicate as a [`CandidateJudge`]: a
/// candidate "still fails" when it reproduces the detection under the
/// fault profile **and** does not reproduce on a fault-free engine.  The
/// differential check keeps reduction honest — a shrink that degrades
/// the repro into a fault-independent failure (say a `WHERE` clause cut
/// down until the query errors everywhere) reproduces in both profiles
/// and is rejected.
#[derive(Debug)]
pub struct DifferentialJudge<'a> {
    cache: RefCell<&'a mut ReplayCache>,
    oracle: &'a str,
    profile: &'a BugProfile,
    none: BugProfile,
    required: Vec<BugProfile>,
    repro: &'a ReproSpec,
}

impl<'a> DifferentialJudge<'a> {
    /// Binds the judge to one detection's oracle, fault profile and repro
    /// spec.
    #[must_use]
    pub fn new(
        cache: &'a mut ReplayCache,
        oracle: &'a str,
        profile: &'a BugProfile,
        repro: &'a ReproSpec,
    ) -> DifferentialJudge<'a> {
        DifferentialJudge {
            cache: RefCell::new(cache),
            oracle,
            profile,
            none: BugProfile::none(),
            required: Vec::new(),
            repro,
        }
    }

    /// Additionally requires candidates to keep reproducing under
    /// `profile`.  The campaign runner pins every attributed single-fault
    /// profile this way before the expression pass, so a shrink can never
    /// silently change which bugs a reduced repro witnesses.
    #[must_use]
    pub fn require(mut self, profile: BugProfile) -> Self {
        self.required.push(profile);
        self
    }
}

impl CandidateJudge for DifferentialJudge<'_> {
    fn still_fails(&self, stmts: &[&Statement], hashes: &[u64]) -> bool {
        let mut cache = self.cache.borrow_mut();
        cache.reproduces_refs(self.oracle, self.profile, stmts, hashes, self.repro)
            && !cache.reproduces_refs(self.oracle, &self.none, stmts, hashes, self.repro)
            && self
                .required
                .iter()
                .all(|p| cache.reproduces_refs(self.oracle, p, stmts, hashes, self.repro))
    }
}

/// One detection's statement log bound to a [`ReplayCache`], with each
/// statement hashed once, for the questions the runner asks of a whole
/// log under different fault profiles.
#[derive(Debug)]
pub struct ReplaySession<'a> {
    cache: &'a mut ReplayCache,
    oracle: &'a str,
    statements: &'a [Statement],
    hashes: Vec<u64>,
}

impl<'a> ReplaySession<'a> {
    /// Binds a detection's statement log to the cache.  `oracle` is the
    /// registry name of the oracle that raised the detection; every
    /// verdict asked through this session is memoized under it.
    #[must_use]
    pub fn new(
        cache: &'a mut ReplayCache,
        oracle: &'a str,
        statements: &'a [Statement],
    ) -> ReplaySession<'a> {
        let hashes = statements.iter().map(statement_hash).collect();
        ReplaySession { cache, oracle, statements, hashes }
    }

    /// Number of statements in the bound log.
    #[must_use]
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// Returns `true` when the bound log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Checks whether the whole log still reproduces the detection under
    /// `profile`: the cached equivalent of [`crate::runner::reproduces`].
    #[must_use]
    pub fn reproduces_all(&mut self, profile: &BugProfile, repro: &ReproSpec) -> bool {
        let stmts: Vec<&Statement> = self.statements.iter().collect();
        self.cache.reproduces_refs(self.oracle, profile, &stmts, &self.hashes, repro)
    }
}

/// Checks the trigger statement against the repro spec on an engine that
/// has already replayed the setup — the oracle-specific half of
/// [`crate::runner::reproduces`], shared by the cached and uncached
/// paths so the two can never diverge.  `setup` is the already-replayed
/// statement list: most specs never look at it, but a
/// [`ReproSpec::SerialDivergence`] is a property of the *whole* script —
/// its committed transactions are re-derived from `setup` + `last`, so
/// the spec survives reduction unchanged.
pub(crate) fn confirms(
    engine: &mut Engine,
    setup: &[&Statement],
    last: &Statement,
    repro: &ReproSpec,
) -> bool {
    if matches!(repro, ReproSpec::SerialDivergence) {
        // The trigger is an ordinary (read-only) probe; what matters is
        // the final shared state versus every serial order of the
        // committed transactions in the candidate script.
        let _ = engine.query_here(last);
        let Some(episode) = committed_units(setup.iter().copied().chain(std::iter::once(last)))
        else {
            return false;
        };
        let (matched, _) =
            serial_orders_match(engine.dialect(), engine.bugs(), &episode, &state_digest(engine));
        return !matched;
    }
    match engine.query_here(last) {
        Ok(result) => match repro {
            // A containment failure only counts when the triggering
            // statement is still the query itself; otherwise the "missing
            // row" would be trivially true for any non-query statement.
            ReproSpec::MissingRow(row) if last.is_read_only() => !result.contains_row(row),
            // A TLP mismatch reproduces when the partition union still
            // disagrees with the unpartitioned result; partition errors
            // mean the mismatch cannot be confirmed.
            ReproSpec::PartitionMismatch { partitions } if last.is_read_only() => {
                let results: Option<Vec<_>> =
                    partitions.iter().map(|p| engine.query_here(p).ok().map(|r| r.rows)).collect();
                results.is_some_and(|results| partition_diff(&result.rows, &results) != (0, 0))
            }
            // A NoREC mismatch reproduces when the optimized row count
            // still disagrees with the rewrite's sum; a rewrite error (or
            // a result shape the rewrite cannot produce) means the
            // mismatch cannot be confirmed.
            ReproSpec::PairMismatch { rewritten } if last.is_read_only() => {
                let count = result.rows.len() as i64;
                match engine.query_here(rewritten) {
                    Ok(rewrite_result) => match norec_sum(&rewrite_result) {
                        Some(sum) => count != sum,
                        None => false,
                    },
                    Err(_) => false,
                }
            }
            _ => false,
        },
        Err(e) => match repro {
            ReproSpec::Crash => e.is_crash(),
            ReproSpec::UnexpectedError => !e.is_crash() && !ErrorOracle.is_expected(last, &e),
            // A logic detection reproduces only when the query runs; an
            // error is a different failure mode and must be attributed
            // through an Error/Crash detection instead.
            ReproSpec::MissingRow(_)
            | ReproSpec::PartitionMismatch { .. }
            | ReproSpec::PairMismatch { .. } => false,
            // Handled before the trigger executes.
            ReproSpec::SerialDivergence => unreachable!("serial divergence returns early"),
        },
    }
}

/// The clone-free twin of [`confirms`]: judges a read-only trigger
/// directly against a shared engine snapshot via [`Engine::query`],
/// presenting the exact fault-clock ordinals the mutable path would
/// (`statements_executed`, then one per follow-up probe).  Returns
/// `None` when the candidate needs mutable confirmation — a non-read-only
/// trigger, or a snapshot whose active session still holds an open
/// transaction — in which case the caller falls back to the clone path.
/// Verdict-identity with [`confirms`] is covered by the `readonly_query`
/// differential suite.
pub(crate) fn confirms_readonly(
    engine: &Engine,
    setup: &[&Statement],
    last: &Statement,
    repro: &ReproSpec,
) -> Option<bool> {
    if !last.is_read_only() || engine.in_transaction(engine.active_session()) {
        return None;
    }
    let ordinal = engine.statements_executed();
    if matches!(repro, ReproSpec::SerialDivergence) {
        // The mutable path runs the trigger before digesting, but a
        // read-only trigger outside a transaction cannot move the digest,
        // so the probe is skipped here.
        let Some(episode) = committed_units(setup.iter().copied().chain(std::iter::once(last)))
        else {
            return Some(false);
        };
        let (matched, _) =
            serial_orders_match(engine.dialect(), engine.bugs(), &episode, &state_digest(engine));
        return Some(!matched);
    }
    Some(match engine.query(ordinal, last) {
        Ok(result) => match repro {
            ReproSpec::MissingRow(row) => !result.contains_row(row),
            // The partitions see the ordinals a mutable re-execution
            // would present them, one per partition after the trigger.
            ReproSpec::PartitionMismatch { partitions } => {
                let results: Option<Vec<_>> = (ordinal + 1..)
                    .zip(partitions)
                    .map(|(at, p)| engine.query(at, p).ok().map(|r| r.rows))
                    .collect();
                results.is_some_and(|results| partition_diff(&result.rows, &results) != (0, 0))
            }
            ReproSpec::PairMismatch { rewritten } => match engine.query(ordinal + 1, rewritten) {
                Ok(rewrite_result) => match norec_sum(&rewrite_result) {
                    Some(sum) => result.rows.len() as i64 != sum,
                    None => false,
                },
                Err(_) => false,
            },
            _ => false,
        },
        Err(e) => match repro {
            ReproSpec::Crash => e.is_crash(),
            ReproSpec::UnexpectedError => !e.is_crash() && !ErrorOracle.is_expected(last, &e),
            _ => false,
        },
    })
}

/// FNV-1a over a statement's SQL rendering, computed without allocating
/// the string (a `fmt::Write` sink hashes the fragments as they stream).
pub(crate) fn statement_hash(stmt: &Statement) -> u64 {
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    let _ = write!(w, "{stmt}");
    w.0
}

/// A stable key for a [`ReproSpec`], for the verdict memo.
fn repro_hash(repro: &ReproSpec) -> u64 {
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    match repro {
        ReproSpec::MissingRow(row) => {
            let _ = w.write_str("missing-row");
            for v in row {
                let _ = write!(w, "\u{1f}{}", v.to_sql_literal());
            }
        }
        ReproSpec::UnexpectedError => {
            let _ = w.write_str("unexpected-error");
        }
        ReproSpec::Crash => {
            let _ = w.write_str("crash");
        }
        ReproSpec::PartitionMismatch { partitions } => {
            let _ = w.write_str("partition-mismatch");
            for p in partitions {
                let _ = write!(w, "\u{1f}{p}");
            }
        }
        ReproSpec::PairMismatch { rewritten } => {
            let _ = write!(w, "pair-mismatch\u{1f}{rewritten}");
        }
        ReproSpec::SerialDivergence => {
            let _ = w.write_str("serial-divergence");
        }
    }
    w.0
}

/// FNV-1a over an oracle registry name, for the verdict-memo key.
fn fnv1a_str(name: &str) -> u64 {
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    let _ = w.write_str(name);
    w.0
}

struct FnvWriter(u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A stable key for (dialect, enabled fault set).
fn profile_key(dialect: Dialect, profile: &BugProfile) -> u64 {
    let mut key = splitmix(dialect as u64 ^ 0x7265_706c_6179_3031);
    for bug in profile.iter() {
        key = combine(key, bug as u64);
    }
    key
}

/// Order-dependent 64-bit hash combinator with a strong finalizer, so
/// prefix keys of different logs (and different profiles) collide only
/// with negligible probability.
pub(crate) fn combine(key: u64, value: u64) -> u64 {
    splitmix(key ^ value.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(key << 6))
}

/// The splitmix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::value::Value;

    fn script(sql: &str) -> Vec<Statement> {
        lancer_sql::parse_script(sql).unwrap()
    }

    #[test]
    fn cached_verdicts_match_the_uncached_path() {
        let stmts = script(
            "CREATE TABLE t0(c0);
             INSERT INTO t0(c0) VALUES (1), (2);
             CREATE INDEX i0 ON t0(c0);
             SELECT * FROM t0;",
        );
        let mut cache = ReplayCache::new(Dialect::Sqlite);
        // Three distinct repro rows exercise all three cache tiers: the
        // first walk marks prefixes, the second snapshots them, the third
        // resumes from snapshots — and an exact repeat hits the verdict
        // memo without replaying at all.
        for row in [vec![Value::Integer(1)], vec![Value::Integer(7)], vec![Value::Integer(9)]] {
            let repro = ReproSpec::MissingRow(row);
            for profile in [BugProfile::none(), lancer_engine::BugProfile::all_for(Dialect::Sqlite)]
            {
                let uncached = crate::runner::reproduces(Dialect::Sqlite, &profile, &stmts, &repro);
                assert_eq!(cache.reproduces("containment", &profile, &stmts, &repro), uncached);
                assert_eq!(cache.reproduces("containment", &profile, &stmts, &repro), uncached);
            }
        }
        let stats = cache.stats();
        assert!(stats.prefix_hits > 0, "third walks must resume from snapshots: {stats:?}");
        assert!(stats.verdict_hits > 0, "exact repeats must hit the verdict memo: {stats:?}");
        assert!(stats.statements_skipped > 0);
    }

    #[test]
    fn subset_replays_only_execute_their_suffix() {
        let stmts = script(
            "CREATE TABLE t0(c0);
             INSERT INTO t0(c0) VALUES (1);
             INSERT INTO t0(c0) VALUES (2);
             INSERT INTO t0(c0) VALUES (3);
             SELECT * FROM t0;",
        );
        let mut cache = ReplayCache::new(Dialect::Sqlite);
        let mut session = ReplaySession::new(&mut cache, "containment", &stmts);
        let repro_a = ReproSpec::MissingRow(vec![Value::Integer(1)]);
        let repro_b = ReproSpec::MissingRow(vec![Value::Integer(99)]);
        let none = BugProfile::none();
        // First walk marks the prefixes, second walk (a recurrence, here a
        // different repro question over the same log) takes the snapshots —
        // cold one-shot replays never pay for cloning.
        assert!(!session.reproduces_all(&none, &repro_a));
        assert_eq!(session.cache.snapshot_count(), 0, "cold prefixes are not snapshotted");
        assert!(session.reproduces_all(&none, &repro_b));
        assert!(session.cache.snapshot_count() > 0, "recurring prefixes are snapshotted");
        let executed_full = cache.stats().statements_replayed;
        // Dropping statement 3 keeps the prefix [0, 1, 2] cached: only the
        // trigger runs again, no setup statement is re-executed.
        let subset: Vec<Statement> = [0, 1, 2, 4].iter().map(|&i| stmts[i].clone()).collect();
        assert!(!cache.reproduces("containment", &none, &subset, &repro_a));
        let stats = cache.stats();
        assert_eq!(stats.statements_replayed, executed_full, "suffix-only replay");
        assert_eq!(stats.statements_skipped, 3);
        // The same question again is answered from the verdict memo.
        assert!(!cache.reproduces("containment", &none, &subset, &repro_a));
        assert_eq!(cache.stats().statements_replayed, executed_full);
        assert!(cache.stats().verdict_hits > 0);
    }

    #[test]
    fn profiles_never_share_snapshots() {
        let stmts = script("CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1); SELECT * FROM t0;");
        let mut cache = ReplayCache::new(Dialect::Sqlite);
        // Two different questions over the same log force two walks per
        // profile (an identical question would short-circuit in the
        // verdict memo without walking).
        let repro_a = ReproSpec::MissingRow(vec![Value::Integer(1)]);
        let repro_b = ReproSpec::MissingRow(vec![Value::Integer(2)]);
        let none = BugProfile::none();
        let all = lancer_engine::BugProfile::all_for(Dialect::Sqlite);
        let _ = cache.reproduces("containment", &none, &stmts, &repro_a);
        let _ = cache.reproduces("containment", &none, &stmts, &repro_b);
        let before = cache.snapshot_count();
        assert!(before > 0);
        let _ = cache.reproduces("containment", &all, &stmts, &repro_a);
        assert_eq!(cache.snapshot_count(), before, "a new profile starts cold");
        let _ = cache.reproduces("containment", &all, &stmts, &repro_b);
        assert_eq!(cache.snapshot_count(), before * 2, "distinct profile, distinct prefixes");
    }

    #[test]
    fn clearing_drops_cached_state_but_keeps_the_counters() {
        let stmts = script("CREATE TABLE t0(c0); INSERT INTO t0(c0) VALUES (1); SELECT * FROM t0;");
        let mut cache = ReplayCache::new(Dialect::Sqlite);
        let none = BugProfile::none();
        let repro_a = ReproSpec::MissingRow(vec![Value::Integer(1)]);
        let repro_b = ReproSpec::MissingRow(vec![Value::Integer(2)]);
        // Mark, snapshot, then a verdict-memo hit.
        assert!(!cache.reproduces("containment", &none, &stmts, &repro_a));
        assert!(cache.reproduces("containment", &none, &stmts, &repro_b));
        assert!(cache.reproduces("containment", &none, &stmts, &repro_b));
        assert!(cache.snapshot_count() > 0);
        let before = cache.stats();
        assert_eq!(before.verdict_hits, 1);
        cache.clear();
        assert_eq!(cache.snapshot_count(), 0);
        assert_eq!(cache.stats(), before, "clearing keeps the counters");
        // Nothing cached survives: the repeat replays from a fresh engine,
        // and its walk only marks the prefixes seen again.
        assert!(cache.reproduces("containment", &none, &stmts, &repro_b));
        let after = cache.stats();
        assert_eq!(after.verdict_hits, before.verdict_hits, "the verdict memo was dropped");
        assert_eq!(after.prefix_misses, before.prefix_misses + 1, "the snapshots were dropped");
        assert_eq!(cache.snapshot_count(), 0, "the seen prefixes were dropped");
    }

    #[test]
    fn zero_capacity_disables_snapshots_but_not_verdicts() {
        let stmts = script("CREATE TABLE t0(c0); SELECT * FROM t0;");
        let mut cache = ReplayCache::with_max_snapshots(Dialect::Sqlite, 0);
        let repro = ReproSpec::MissingRow(vec![Value::Integer(1)]);
        assert!(cache.reproduces("containment", &BugProfile::none(), &stmts, &repro));
        assert_eq!(cache.snapshot_count(), 0);
        assert_eq!(cache.stats().prefix_hits, 0);
    }

    #[test]
    fn verdict_memo_is_scoped_per_oracle() {
        // Regression guard: two oracles asking a question over the same
        // (profile, statement log, repro spec) triple must not share a
        // memo entry — the second oracle's verdict is recomputed, not
        // served from the first oracle's slot.  Before the oracle name
        // joined the key, the NoREC/TLP pair from one generated database
        // could cross-hit here.
        let stmts = script(
            "CREATE TABLE t0(c0);
             INSERT INTO t0(c0) VALUES (1), (NULL);
             SELECT t0.c0 FROM t0;",
        );
        let partitions = script(
            "SELECT t0.c0 FROM t0 WHERE t0.c0 = 1;
             SELECT t0.c0 FROM t0 WHERE NOT (t0.c0 = 1);
             SELECT t0.c0 FROM t0 WHERE (t0.c0 = 1) IS NULL;",
        );
        let repro = ReproSpec::PartitionMismatch { partitions };
        let none = BugProfile::none();
        let mut cache = ReplayCache::new(Dialect::Sqlite);
        let tlp_verdict = {
            let mut session = ReplaySession::new(&mut cache, "tlp", &stmts);
            session.reproduces_all(&none, &repro)
        };
        let hits_before = cache.stats().verdict_hits;
        // The identical question under the *same* oracle name hits the memo...
        let mut session = ReplaySession::new(&mut cache, "tlp", &stmts);
        assert_eq!(session.reproduces_all(&none, &repro), tlp_verdict);
        assert_eq!(session.cache.stats().verdict_hits, hits_before + 1);
        // ...while the identical question under a different oracle name is
        // recomputed (same verdict, but no memo hit).
        let mut session = ReplaySession::new(&mut cache, "norec", &stmts);
        assert_eq!(session.reproduces_all(&none, &repro), tlp_verdict);
        assert_eq!(
            session.cache.stats().verdict_hits,
            hits_before + 1,
            "a different oracle must not be served another oracle's memo entry"
        );
    }

    #[test]
    fn pair_mismatch_confirms_via_the_rewrite_sum() {
        // A correct engine satisfies the NoREC property, so the detection
        // does not reproduce...
        let stmts = script(
            "CREATE TABLE t0(c0);
             INSERT INTO t0(c0) VALUES (1), (2), (NULL);
             SELECT t0.c0 FROM t0 WHERE t0.c0 = 1;",
        );
        let rewritten = Box::new(
            lancer_sql::parse_statement(
                "SELECT SUM(CASE WHEN t0.c0 = 1 THEN 1 ELSE 0 END) FROM t0",
            )
            .unwrap(),
        );
        let none = BugProfile::none();
        assert!(!crate::runner::reproduces(
            Dialect::Sqlite,
            &none,
            &stmts,
            &ReproSpec::PairMismatch { rewritten: rewritten.clone() }
        ));
        // ...while a rewrite that disagrees with the trigger's count does
        // (the synthetic analogue of an optimization bug), and a rewrite
        // that errors out fails closed.
        let wrong = Box::new(
            lancer_sql::parse_statement(
                "SELECT SUM(CASE WHEN t0.c0 = 9 THEN 1 ELSE 0 END) FROM t0",
            )
            .unwrap(),
        );
        assert!(crate::runner::reproduces(
            Dialect::Sqlite,
            &none,
            &stmts,
            &ReproSpec::PairMismatch { rewritten: wrong }
        ));
        let broken = Box::new(lancer_sql::parse_statement("SELECT SUM(c0) FROM missing").unwrap());
        assert!(!crate::runner::reproduces(
            Dialect::Sqlite,
            &none,
            &stmts,
            &ReproSpec::PairMismatch { rewritten: broken }
        ));
    }

    #[test]
    fn statement_hashes_key_on_rendered_sql() {
        let a = lancer_sql::parse_statement("SELECT 1").unwrap();
        let b = lancer_sql::parse_statement("SELECT  1").unwrap();
        let c = lancer_sql::parse_statement("SELECT 2").unwrap();
        assert_eq!(statement_hash(&a), statement_hash(&b), "whitespace-equal statements agree");
        assert_ne!(statement_hash(&a), statement_hash(&c));
    }
}
