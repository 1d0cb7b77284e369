//! Hierarchical test-case reduction.
//!
//! SQLancer "automatically deletes SQL statements that are unnecessary to
//! reproduce a bug" (§4.1); the reduced sizes drive Figure 2 of the paper.
//! This module grows that idea into a three-phase pipeline:
//!
//! 1. **Session/episode pass** — drop whole sessions and whole
//!    `BEGIN..COMMIT/ROLLBACK` units, the coarsest structure a
//!    multi-session episode has.  One accepted candidate here removes what
//!    statement-level ddmin would need a dozen generations to chew off.
//! 2. **Statement pass** — the classic greedy delta-debugging loop over
//!    statement indices: repeatedly try to drop chunks (then single
//!    statements) while the failure predicate still holds.
//! 3. **Expression pass** — shrink the surviving statements *in place*:
//!    simplify `WHERE`/`HAVING` predicate trees toward subtrees and
//!    literals, drop `SELECT` items, join arms and compound branches
//!    (via [`lancer_sql::ast::shrink_statement`]), re-verifying every
//!    rewrite through the replay cache.
//!
//! Every candidate in every phase must satisfy the
//! [`transactions_well_formed`] guard, so no phase can orphan one half of
//! a transaction bracket.  Candidates are judged one at a time, in
//! ordinal order, and the first passing candidate is accepted — the
//! plain sequential loop of SQLancer's reducer.  Evaluation is memoized
//! per reduction (ddmin re-asks identical subsets across outer rounds,
//! most blatantly in the final no-change sweep).

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use lancer_sql::ast::{shrink_statement, statement_expr_nodes, Statement};

use crate::replay::{combine, statement_hash};

/// Returns `true` when every transaction bracket in the statement
/// sequence is intact: no `COMMIT`/`ROLLBACK` without a matching `BEGIN`
/// in the same session, no nested `BEGIN`, and no transaction left open
/// at the end.  Sequences without transaction control are trivially
/// well-formed.
///
/// Every reduction candidate in every phase is guarded by this check, so
/// delta debugging can never orphan one half of a
/// `BEGIN`/`COMMIT`/`ROLLBACK` pair: a reduced multi-session repro script
/// either keeps a transaction whole or drops it whole.
pub fn transactions_well_formed<'a, I>(stmts: I) -> bool
where
    I: IntoIterator<Item = &'a Statement>,
{
    let mut open: BTreeSet<u32> = BTreeSet::new();
    let mut current = 0u32;
    for stmt in stmts {
        match stmt {
            Statement::Session { id } => current = *id,
            Statement::Begin if !open.insert(current) => return false,
            Statement::Commit | Statement::Rollback if !open.remove(&current) => return false,
            _ => {}
        }
    }
    open.is_empty()
}

/// Judges whether a reduction candidate still reproduces the failure.
///
/// `hashes` holds the replay-layer hash of each statement in `stmts`, in
/// order, precomputed by the reducer so replay-backed judges (the
/// runner's [`crate::replay::DifferentialJudge`]) never re-render a
/// statement per candidate; judges that do not replay may ignore it.
///
/// Implementations must be deterministic: the reducer memoizes verdicts
/// per candidate.
pub trait CandidateJudge {
    /// Returns `true` iff the candidate still reproduces the failure.
    fn still_fails(&self, stmts: &[&Statement], hashes: &[u64]) -> bool;
}

/// Adapts a plain predicate over statement slices to a
/// [`CandidateJudge`], for tests and callers without a replay cache.
pub struct FnJudge<F>(
    /// The predicate: `true` iff the candidate still fails.
    pub F,
);

impl<F> CandidateJudge for FnJudge<F>
where
    F: Fn(&[&Statement]) -> bool,
{
    fn still_fails(&self, stmts: &[&Statement], _hashes: &[u64]) -> bool {
        (self.0)(stmts)
    }
}

/// Which phases the hierarchical reducer runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceOptions {
    /// Run the session/transaction-unit pass before statement ddmin.
    pub session_pass: bool,
    /// Run the statement-level ddmin pass.  Disabling it (the campaign
    /// runner's second stage does, after attributing over the ddmin
    /// result) turns [`reduce_hierarchical`] into a pure expression
    /// shrinker over an already statement-minimal log.
    pub statement_pass: bool,
    /// Run the expression-level shrink pass after statement ddmin.
    pub expression_pass: bool,
    /// Ignored.  The reducer always judges candidates one at a time; the
    /// field remains so that existing struct literals keep compiling.
    pub workers: usize,
}

impl Default for ReduceOptions {
    fn default() -> ReduceOptions {
        ReduceOptions {
            session_pass: true,
            statement_pass: true,
            expression_pass: true,
            workers: 1,
        }
    }
}

impl ReduceOptions {
    /// The PR-4-era configuration: statement-level ddmin only.  The
    /// baseline for the hierarchical reducer's before/after comparisons.
    #[must_use]
    pub fn statement_only() -> ReduceOptions {
        ReduceOptions { session_pass: false, expression_pass: false, ..ReduceOptions::default() }
    }
}

/// Work and size counters for one hierarchical reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Statements in the input log.
    pub statements_before: u64,
    /// Statements surviving the session/transaction-unit pass.
    pub statements_after_sessions: u64,
    /// Statements surviving statement-level ddmin (the expression pass
    /// rewrites statements but never changes their count).
    pub statements_after: u64,
    /// Expression nodes in the input log.
    pub expr_nodes_before: u64,
    /// Expression nodes after statement-level ddmin, before the
    /// expression pass.
    pub expr_nodes_after_statements: u64,
    /// Expression nodes in the reduced output.
    pub expr_nodes_after: u64,
    /// Candidates judged by the session/transaction-unit pass.
    pub session_candidates: u64,
    /// Candidates judged by statement-level ddmin (including the initial
    /// full-log check).
    pub statement_candidates: u64,
    /// Candidates judged by the expression pass.
    pub expression_candidates: u64,
    /// Candidates answered from the per-reduction memo without judging.
    pub memo_hits: u64,
    /// Wall-clock time of the whole reduction, in milliseconds.
    pub wall_ms: u128,
}

impl ReductionStats {
    /// Total candidates actually judged across all phases.
    #[must_use]
    pub fn candidates_evaluated(&self) -> u64 {
        self.session_candidates + self.statement_candidates + self.expression_candidates
    }

    /// Folds another reduction's counters into this one (per-campaign
    /// aggregation in [`crate::runner::CampaignStats`]).
    pub fn absorb(&mut self, other: &ReductionStats) {
        self.statements_before += other.statements_before;
        self.statements_after_sessions += other.statements_after_sessions;
        self.statements_after += other.statements_after;
        self.expr_nodes_before += other.expr_nodes_before;
        self.expr_nodes_after_statements += other.expr_nodes_after_statements;
        self.expr_nodes_after += other.expr_nodes_after;
        self.session_candidates += other.session_candidates;
        self.statement_candidates += other.statement_candidates;
        self.expression_candidates += other.expression_candidates;
        self.memo_hits += other.memo_hits;
        self.wall_ms += other.wall_ms;
    }
}

/// The reduced statement log plus the counters describing how it got
/// there.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced (and possibly expression-rewritten) statement log.
    pub statements: Vec<Statement>,
    /// Work and size counters for this reduction.
    pub stats: ReductionStats,
}

/// Seed for per-reduction candidate memo keys (distinct from the replay
/// layer's profile-derived key chains).
const MEMO_SEED: u64 = 0x5245_4455_4345_3038;

/// Runs the full hierarchical reduction pipeline over a failing
/// statement log.
///
/// The input must satisfy `judge` (and the [`transactions_well_formed`]
/// guard); otherwise it is returned unchanged.
#[must_use]
pub fn reduce_hierarchical(
    statements: &[Statement],
    options: &ReduceOptions,
    judge: &dyn CandidateJudge,
) -> Reduction {
    let started = Instant::now();
    let mut reduction = run_reduction(statements, options, judge);
    reduction.stats.wall_ms = started.elapsed().as_millis();
    reduction
}

/// One candidate ready to judge: its memo key, its statements (borrowed
/// from the input log, or from the working log plus one replacement),
/// and their replay hashes.
struct Candidate<'a> {
    key: u64,
    stmts: Vec<&'a Statement>,
    hashes: Vec<u64>,
}

/// Per-reduction evaluation state: the judge and the candidate memo.
struct EvalCtx<'a> {
    judge: &'a dyn CandidateJudge,
    memo: HashMap<u64, bool>,
    memo_hits: u64,
}

impl EvalCtx<'_> {
    /// Finds the first passing candidate among `count` ordered candidates.
    ///
    /// `make(i)` materialises candidate `i`, or returns `None` for
    /// candidates that auto-fail (empty, or guard-violating).  Candidates
    /// are resolved in ordinal order, from the memo where possible, and
    /// the search stops at the first pass.  `evaluated` counts actual
    /// judge invocations.
    fn first_passing<'c>(
        &mut self,
        count: usize,
        mut make: impl FnMut(usize) -> Option<Candidate<'c>>,
        evaluated: &mut u64,
    ) -> Option<usize> {
        (0..count).find(|&ordinal| {
            let Some(candidate) = make(ordinal) else { return false };
            if let Some(&verdict) = self.memo.get(&candidate.key) {
                self.memo_hits += 1;
                return verdict;
            }
            *evaluated += 1;
            let verdict = self.judge.still_fails(&candidate.stmts, &candidate.hashes);
            self.memo.insert(candidate.key, verdict);
            verdict
        })
    }
}

/// Builds the candidate keeping `keep` (ascending indices into
/// `statements`); `None` when empty or guard-violating.
fn candidate_subset<'a>(
    statements: &'a [Statement],
    hashes: &[u64],
    keep: &[usize],
) -> Option<Candidate<'a>> {
    if keep.is_empty() {
        return None;
    }
    let stmts: Vec<&Statement> = keep.iter().map(|&i| &statements[i]).collect();
    if !transactions_well_formed(stmts.iter().copied()) {
        return None;
    }
    let hashes: Vec<u64> = keep.iter().map(|&i| hashes[i]).collect();
    let key = hashes.iter().fold(MEMO_SEED, |k, h| combine(k, *h));
    Some(Candidate { key, stmts, hashes })
}

/// Builds the candidate replacing `work[at]` with `replacement` (an
/// expression-pass rewrite).  Shrinks never touch transaction-control
/// statements, so the guard holds by construction; the re-check keeps
/// the invariant explicit.
fn candidate_replace<'a>(
    work: &'a [Statement],
    hashes: &[u64],
    at: usize,
    replacement: &'a Statement,
) -> Option<Candidate<'a>> {
    let mut stmts: Vec<&Statement> = work.iter().collect();
    stmts[at] = replacement;
    if !transactions_well_formed(stmts.iter().copied()) {
        return None;
    }
    let mut hashes = hashes.to_vec();
    hashes[at] = statement_hash(replacement);
    let key = hashes.iter().fold(MEMO_SEED, |k, h| combine(k, *h));
    Some(Candidate { key, stmts, hashes })
}

/// Structural units of the current keep-set, coarsest first: whole
/// sessions (only when the log interleaves more than one), then whole
/// `BEGIN..COMMIT/ROLLBACK` brackets.  Each unit is a set of positions
/// into `kept` whose removal leaves the log well-formed.
fn structural_units(statements: &[Statement], kept: &[usize]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    // A session owns its statements and the SESSION marker that switches
    // to it, so dropping the session drops the marker too.
    let mut session_of = Vec::with_capacity(kept.len());
    let mut current = 0u32;
    for &i in kept {
        if let Statement::Session { id } = &statements[i] {
            current = *id;
        }
        session_of.push(current);
    }
    let mut ids: Vec<u32> = Vec::new();
    for &s in &session_of {
        if !ids.contains(&s) {
            ids.push(s);
        }
    }
    if ids.len() > 1 {
        for id in ids {
            units.push(
                session_of.iter().enumerate().filter(|&(_, &s)| s == id).map(|(p, _)| p).collect(),
            );
        }
    }
    // Transaction units: the bracket statements plus everything the same
    // session runs inside them.  Interleaved statements from other
    // sessions (and SESSION markers) stay put, so the drop is exactly
    // "this transaction never happened".
    let mut open: HashMap<u32, Vec<usize>> = HashMap::new();
    current = 0;
    for (p, &i) in kept.iter().enumerate() {
        match &statements[i] {
            Statement::Session { id } => current = *id,
            Statement::Begin => {
                // A nested BEGIN is ill-formed; abandon the outer unit
                // rather than emit a bracket the guard would reject.
                open.insert(current, vec![p]);
            }
            Statement::Commit | Statement::Rollback => {
                if let Some(mut unit) = open.remove(&current) {
                    unit.push(p);
                    units.push(unit);
                }
            }
            _ => {
                if let Some(unit) = open.get_mut(&current) {
                    unit.push(p);
                }
            }
        }
    }
    units
}

/// The pipeline body of [`reduce_hierarchical`].
fn run_reduction(
    statements: &[Statement],
    options: &ReduceOptions,
    judge: &dyn CandidateJudge,
) -> Reduction {
    let mut stats = ReductionStats {
        statements_before: statements.len() as u64,
        expr_nodes_before: statements.iter().map(|s| statement_expr_nodes(s) as u64).sum(),
        ..ReductionStats::default()
    };
    let hashes: Vec<u64> = statements.iter().map(statement_hash).collect();
    let mut ctx = EvalCtx { judge, memo: HashMap::new(), memo_hits: 0 };
    let mut kept: Vec<usize> = (0..statements.len()).collect();

    // The input must fail (and be well-formed); otherwise hand it back
    // unchanged.
    let input_fails = ctx
        .first_passing(
            1,
            |_| candidate_subset(statements, &hashes, &kept),
            &mut stats.statement_candidates,
        )
        .is_some();
    if !input_fails {
        stats.statements_after_sessions = stats.statements_before;
        stats.statements_after = stats.statements_before;
        stats.expr_nodes_after_statements = stats.expr_nodes_before;
        stats.expr_nodes_after = stats.expr_nodes_before;
        stats.memo_hits = ctx.memo_hits;
        return Reduction { statements: statements.to_vec(), stats };
    }

    // Phase 1: drop whole sessions and whole transaction units.
    if options.session_pass {
        loop {
            let units = structural_units(statements, &kept);
            if units.is_empty() {
                break;
            }
            let hit = ctx.first_passing(
                units.len(),
                |u| {
                    let drop = &units[u];
                    if drop.len() >= kept.len() {
                        return None;
                    }
                    let keep: Vec<usize> = kept
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| !drop.contains(p))
                        .map(|(_, &i)| i)
                        .collect();
                    candidate_subset(statements, &hashes, &keep)
                },
                &mut stats.session_candidates,
            );
            match hit {
                Some(u) => {
                    let drop = &units[u];
                    kept = kept
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| !drop.contains(p))
                        .map(|(_, &i)| i)
                        .collect();
                }
                None => break,
            }
        }
    }
    stats.statements_after_sessions = kept.len() as u64;

    // Phase 2: statement-level ddmin — greedy chunk deletion with halving
    // chunk sizes; each search scans the drop positions for the current
    // chunk size from the cursor on.
    if options.statement_pass {
        let mut chunk = (kept.len() / 2).max(1);
        loop {
            let mut changed = false;
            while chunk >= 1 {
                let mut i = 0;
                while i < kept.len() {
                    if kept.len() <= 1 {
                        break;
                    }
                    let hit = ctx.first_passing(
                        kept.len() - i,
                        |g| {
                            let pos = i + g;
                            let end = (pos + chunk).min(kept.len());
                            if end - pos == kept.len() {
                                return None;
                            }
                            let mut keep = Vec::with_capacity(kept.len() - (end - pos));
                            keep.extend_from_slice(&kept[..pos]);
                            keep.extend_from_slice(&kept[end..]);
                            candidate_subset(statements, &hashes, &keep)
                        },
                        &mut stats.statement_candidates,
                    );
                    match hit {
                        Some(g) => {
                            let pos = i + g;
                            let end = (pos + chunk).min(kept.len());
                            kept.drain(pos..end);
                            changed = true;
                            // Do not advance: the next chunk now sits at `pos`.
                            i = pos;
                        }
                        None => break,
                    }
                }
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
            if !changed {
                break;
            }
            chunk = (kept.len() / 2).max(1);
        }
    }

    let mut work: Vec<Statement> = kept.iter().map(|&i| statements[i].clone()).collect();
    let mut work_hashes: Vec<u64> = kept.iter().map(|&i| hashes[i]).collect();
    stats.statements_after = work.len() as u64;
    stats.expr_nodes_after_statements = work.iter().map(|s| statement_expr_nodes(s) as u64).sum();

    // Phase 3: shrink surviving statements in place, statement by
    // statement to a fixpoint (an accepted shrink is re-shrunk before the
    // cursor advances, descending predicate trees toward subtrees and
    // literals); sweeps repeat until none accepts, since a later rewrite
    // can unlock an earlier one.
    if options.expression_pass {
        loop {
            let mut any = false;
            let mut p = 0;
            while p < work.len() {
                let shrinks = shrink_statement(&work[p]);
                if shrinks.is_empty() {
                    p += 1;
                    continue;
                }
                let hit = ctx.first_passing(
                    shrinks.len(),
                    |k| candidate_replace(&work, &work_hashes, p, &shrinks[k]),
                    &mut stats.expression_candidates,
                );
                match hit {
                    Some(k) => {
                        work[p] = shrinks[k].clone();
                        work_hashes[p] = statement_hash(&work[p]);
                        any = true;
                    }
                    None => p += 1,
                }
            }
            if !any {
                break;
            }
        }
    }
    stats.expr_nodes_after = work.iter().map(|s| statement_expr_nodes(s) as u64).sum();
    stats.memo_hits = ctx.memo_hits;
    Reduction { statements: work, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancer_sql::parser::parse_script;

    /// Statement-level ddmin over `stmts`, judged by `still_fails`.
    fn ddmin(stmts: &[Statement], still_fails: impl Fn(&[&Statement]) -> bool) -> Reduction {
        reduce_hierarchical(stmts, &ReduceOptions::statement_only(), &FnJudge(still_fails))
    }

    fn rendered(stmts: &[Statement]) -> Vec<String> {
        stmts.iter().map(ToString::to_string).collect()
    }

    /// The "bug" reproduces whenever the test case still creates t0 and
    /// selects from it.
    fn creates_t0_and_selects(candidate: &[&Statement]) -> bool {
        let sql: Vec<String> = candidate.iter().map(ToString::to_string).collect();
        sql.iter().any(|s| s.starts_with("CREATE TABLE t0"))
            && sql.iter().any(|s| s.starts_with("SELECT"))
    }

    #[test]
    fn reduces_to_the_necessary_statements() {
        let stmts = parse_script(
            "CREATE TABLE t0(c0);
             CREATE TABLE t1(c0);
             INSERT INTO t0(c0) VALUES (1);
             INSERT INTO t1(c0) VALUES (2);
             ANALYZE;
             SELECT * FROM t0;",
        )
        .unwrap();
        let reduced = ddmin(&stmts, creates_t0_and_selects);
        assert_eq!(
            rendered(&reduced.statements),
            ["CREATE TABLE t0(c0)", "SELECT * FROM t0"],
            "only CREATE TABLE t0 and SELECT are needed"
        );
        assert_eq!(reduced.stats.statements_before, 6);
        assert_eq!(reduced.stats.statements_after, 2);
        // Statement-only reduction runs no expression pass.
        assert_eq!(reduced.stats.expr_nodes_after, reduced.stats.expr_nodes_after_statements);
    }

    #[test]
    fn returns_input_when_not_failing() {
        let stmts = parse_script("SELECT 1; SELECT 2;").unwrap();
        let reduced = ddmin(&stmts, |_| false);
        assert_eq!(rendered(&reduced.statements), rendered(&stmts));
    }

    #[test]
    fn never_returns_empty() {
        let stmts = parse_script("SELECT 1; SELECT 2; SELECT 3;").unwrap();
        let reduced = ddmin(&stmts, |_| true);
        assert_eq!(reduced.statements.len(), 1);
    }

    #[test]
    fn well_formedness_rejects_orphaned_brackets() {
        let ok = parse_script(
            "CREATE TABLE t0(c0);
             SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1); COMMIT;
             SESSION 2; BEGIN; INSERT INTO t0(c0) VALUES (2); ROLLBACK;
             SESSION 0; SELECT * FROM t0;",
        )
        .unwrap();
        assert!(transactions_well_formed(&ok));
        assert!(transactions_well_formed(&parse_script("SELECT 1; SELECT 2;").unwrap()));
        for broken in [
            "BEGIN; SELECT 1",                             // left open
            "COMMIT",                                      // stray terminator
            "SESSION 1; BEGIN; SESSION 2; ROLLBACK",       // terminator in the wrong session
            "BEGIN; BEGIN; COMMIT",                        // nested
            "SESSION 1; BEGIN; COMMIT; SESSION 1; COMMIT", // double terminator
        ] {
            assert!(
                !transactions_well_formed(&parse_script(broken).unwrap()),
                "accepted: {broken}"
            );
        }
    }

    #[test]
    fn guarded_reduction_never_orphans_transaction_pairs() {
        // Statement-level ddmin alone (no session pass) must keep every
        // surviving BEGIN with its terminator — here the "bug" only needs
        // the INSERT, so the whole bracket around it has to survive as a
        // unit while the other session's DML goes.  The judge does not
        // check brackets itself: the reducer's guard must never ask it an
        // ill-formed candidate.
        let stmts = parse_script(
            "CREATE TABLE t0(c0);
             SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1);
             SESSION 2; BEGIN; INSERT INTO t0(c0) VALUES (2); COMMIT;
             SESSION 1; COMMIT;
             SELECT * FROM t0;",
        )
        .unwrap();
        let reduced = ddmin(&stmts, |candidate| {
            assert!(transactions_well_formed(candidate.iter().copied()), "{candidate:?}");
            candidate.iter().any(|s| s.to_string().contains("VALUES (1)"))
        });
        assert!(transactions_well_formed(&reduced.statements));
        let rendered = rendered(&reduced.statements);
        assert!(rendered.iter().any(|s| s.contains("VALUES (1)")), "{rendered:?}");
        assert!(
            !rendered.iter().any(|s| s.contains("VALUES (2)")),
            "the other session's DML is unnecessary: {rendered:?}"
        );
    }

    #[test]
    fn duplicate_subsets_are_asked_at_most_once() {
        // The ddmin loop re-tries identical subsets across outer rounds
        // (the final no-change sweep re-asks everything); the memo must
        // absorb every repeat, and this pins the candidate-evaluation
        // count so a memo regression is caught immediately.
        let stmts = parse_script(
            "CREATE TABLE t0(c0);
             CREATE TABLE t1(c0);
             INSERT INTO t0(c0) VALUES (1);
             INSERT INTO t1(c0) VALUES (2);
             ANALYZE;
             SELECT * FROM t0;",
        )
        .unwrap();
        let asked: std::cell::RefCell<Vec<Vec<String>>> = std::cell::RefCell::default();
        let reduced = ddmin(&stmts, |candidate| {
            asked.borrow_mut().push(candidate.iter().map(ToString::to_string).collect());
            creates_t0_and_selects(candidate)
        });
        let asked = asked.into_inner();
        let distinct: std::collections::HashSet<&Vec<String>> = asked.iter().collect();
        assert_eq!(asked.len(), distinct.len(), "a subset was re-asked: {asked:?}");
        assert_eq!(asked.len(), 8, "candidate-evaluation count drifted: {asked:?}");
        assert_eq!(reduced.stats.statement_candidates, 8);
        assert!(reduced.stats.memo_hits > 0, "{:?}", reduced.stats);
    }

    #[test]
    fn session_pass_drops_whole_transaction_units() {
        let stmts = parse_script(
            "CREATE TABLE t0(c0);
             SESSION 1; BEGIN; INSERT INTO t0(c0) VALUES (1);
             SESSION 2; BEGIN; INSERT INTO t0(c0) VALUES (2); COMMIT;
             SESSION 1; COMMIT;
             SELECT * FROM t0;",
        )
        .unwrap();
        let judge = FnJudge(|candidate: &[&Statement]| {
            transactions_well_formed(candidate.iter().copied())
                && candidate.iter().any(|s| s.to_string().contains("VALUES (1)"))
        });
        let reduced = reduce_hierarchical(&stmts, &ReduceOptions::default(), &judge);
        assert!(transactions_well_formed(&reduced.statements));
        let rendered: Vec<String> = reduced.statements.iter().map(ToString::to_string).collect();
        assert!(rendered.iter().any(|s| s.contains("VALUES (1)")), "{rendered:?}");
        assert!(!rendered.iter().any(|s| s.contains("VALUES (2)")), "{rendered:?}");
        assert!(
            reduced.stats.session_candidates > 0,
            "the session pass must have judged unit drops: {:?}",
            reduced.stats
        );
        assert!(reduced.stats.statements_after_sessions < reduced.stats.statements_before);
    }

    #[test]
    fn expression_pass_shrinks_predicates_toward_the_trigger() {
        let stmts = parse_script(
            "CREATE TABLE t0(c0, c1);
             INSERT INTO t0(c0, c1) VALUES (1, 2);
             SELECT t0.c0, t0.c1 FROM t0 WHERE t0.c0 = 1 AND t0.c1 = 2;",
        )
        .unwrap();
        // The "bug" needs the table and the c0 comparison; everything else
        // — the second SELECT item, the AND arm — is noise the expression
        // pass must strip.
        let judge = FnJudge(|candidate: &[&Statement]| {
            let sql: Vec<String> = candidate.iter().map(ToString::to_string).collect();
            sql.iter().any(|s| s.starts_with("CREATE TABLE t0"))
                && sql.iter().any(|s| s.starts_with("SELECT") && s.contains("t0.c0 = 1"))
        });
        let reduced = reduce_hierarchical(&stmts, &ReduceOptions::default(), &judge);
        let select = reduced
            .statements
            .iter()
            .map(ToString::to_string)
            .find(|s| s.starts_with("SELECT"))
            .expect("a SELECT must survive");
        // One item survives (the first droppable one goes — ordinal order)
        // and the AND arm the predicate does not need is stripped.
        assert_eq!(select, "SELECT t0.c1 FROM t0 WHERE (t0.c0 = 1)");
        assert!(reduced.stats.expr_nodes_after < reduced.stats.expr_nodes_after_statements);
        assert!(reduced.stats.expression_candidates > 0);
    }
}
