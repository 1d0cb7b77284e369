//! Integration guards for query-plan guidance (QPG).
//!
//! The two contracts this suite pins down:
//!
//! 1. **Guidance off is bit-identical.** The QPG machinery must be
//!    invisible unless enabled: default campaigns reproduce the *pre-QPG*
//!    runner's output exactly at the same seed.  The expected values below
//!    are a snapshot taken from the runner before the plan/QPG subsystem
//!    existed (seed `0x5EED`, `quick()` preset) — if a change breaks them,
//!    it perturbed the default RNG streams or the worker loop, not just
//!    the guidance path.
//! 2. **Guidance on diversifies plans.** At the same seed and budget, a
//!    guided campaign observes strictly more unique plan fingerprints than
//!    the observation-only baseline (the QPG paper's core claim), while
//!    observation alone changes no finding.

use lancer_core::{Campaign, CampaignReport, DetectionKind};
use lancer_engine::{BugId, Dialect};

/// Everything observable about a report except wall-clock time and the
/// plan-coverage counters (compared separately where relevant).
fn findings_fingerprint(report: &CampaignReport) -> String {
    let mut out = String::new();
    let s = &report.stats;
    out.push_str(&format!(
        "stmts={} queries={} containment={} errors={} crashes={} tlp={} spurious={} \
         unattributed={} coverage={:.6}\n",
        s.statements_executed,
        s.queries_checked,
        s.containment_violations,
        s.unexpected_errors,
        s.crashes,
        s.tlp_violations,
        s.spurious,
        s.unattributed,
        s.coverage_fraction,
    ));
    for bug in &report.found {
        out.push_str(&format!("{:?}/{:?}/{}\n", bug.id, bug.kind, bug.reduced_sql.join("; ")));
    }
    out
}

#[test]
fn plan_guidance_off_is_bit_identical() {
    // Pre-QPG snapshot, Sqlite quick() at seed 0x5EED, one thread.
    let report = Campaign::builder(Dialect::Sqlite).quick().run();
    let s = &report.stats;
    assert_eq!((s.statements_executed, s.queries_checked, s.containment_violations), (284, 240, 3));
    assert_eq!((s.unexpected_errors, s.crashes, s.tlp_violations), (24, 3, 0));
    assert_eq!((s.spurious, s.unattributed), (1, 26));
    assert_eq!((s.unreproducible, s.duplicates), (0, 26), "unattributed is their sum");
    assert_eq!((s.unique_plans, s.plan_mutations), (0, 0), "QPG counters stay zero by default");
    let ids: Vec<(BugId, DetectionKind)> = report.found.iter().map(|f| (f.id, f.kind)).collect();
    assert_eq!(
        ids,
        vec![
            (BugId::SqliteLikeEscapeCrash, DetectionKind::Crash),
            (BugId::SqliteDistinctNegativeZero, DetectionKind::Containment),
            (BugId::SqliteRealPrimaryKeyUpdateCorruption, DetectionKind::Error),
        ]
    );

    // Same snapshot holds across the threads(2) worker split...
    let threaded = Campaign::builder(Dialect::Sqlite).quick().threads(2).run();
    let s = &threaded.stats;
    assert_eq!((s.statements_executed, s.queries_checked), (311, 240));
    assert_eq!((s.containment_violations, s.unexpected_errors, s.crashes), (3, 0, 6));
    let ids: Vec<BugId> = threaded.found.iter().map(|f| f.id).collect();
    assert_eq!(ids, vec![BugId::SqliteLikeEscapeCrash, BugId::SqliteDistinctNegativeZero]);

    // ...and for the other dialects.
    let mysql = Campaign::builder(Dialect::Mysql).quick().run();
    assert_eq!((mysql.stats.statements_executed, mysql.stats.containment_violations), (283, 1));
    assert_eq!(
        mysql.found.iter().map(|f| f.id).collect::<Vec<_>>(),
        vec![BugId::MysqlSmallDoubleTextFalse]
    );
    let postgres = Campaign::builder(Dialect::Postgres).quick().run();
    assert_eq!((postgres.stats.statements_executed, postgres.stats.unexpected_errors), (342, 14));
    assert_eq!(
        postgres.found.iter().map(|f| f.id).collect::<Vec<_>>(),
        vec![BugId::PostgresIndexUnexpectedNull]
    );

    // `plan_guidance(false)` is the default spelled out.
    let explicit = Campaign::builder(Dialect::Sqlite).quick().plan_guidance(false).run();
    assert_eq!(findings_fingerprint(&report), findings_fingerprint(&explicit));
}

#[test]
fn plan_observation_changes_no_finding() {
    // Observation plans probe queries on a dedicated substream but never
    // executes anything: every oracle-visible number must match the
    // default campaign exactly — only the plan counter lights up.
    let plain = Campaign::builder(Dialect::Sqlite).quick().run();
    let observed = Campaign::builder(Dialect::Sqlite).quick().plan_observation(true).run();
    assert_eq!(findings_fingerprint(&plain), findings_fingerprint(&observed));
    assert_eq!(plain.stats.unique_plans, 0);
    assert!(observed.stats.unique_plans > 0, "observation must record plan coverage");
    assert_eq!(observed.stats.plan_mutations, 0, "observation never mutates");
}

#[test]
fn plan_guidance_reaches_strictly_more_plans() {
    for dialect in Dialect::ALL {
        let unguided = Campaign::builder(dialect).quick().plan_observation(true).run();
        let guided = Campaign::builder(dialect).quick().plan_guidance(true).run();
        assert!(
            guided.stats.unique_plans > unguided.stats.unique_plans,
            "{dialect:?}: guided {} must exceed unguided {}",
            guided.stats.unique_plans,
            unguided.stats.unique_plans,
        );
        assert!(guided.stats.plan_mutations > 0, "{dialect:?}: guidance must mutate state");
    }
}

#[test]
fn guided_campaigns_are_deterministic() {
    let first = Campaign::builder(Dialect::Sqlite).quick().threads(2).plan_guidance(true).run();
    let second = Campaign::builder(Dialect::Sqlite).quick().threads(2).plan_guidance(true).run();
    assert_eq!(findings_fingerprint(&first), findings_fingerprint(&second));
    assert_eq!(first.stats.unique_plans, second.stats.unique_plans);
    assert_eq!(first.stats.plan_mutations, second.stats.plan_mutations);
    assert!(first.stats.unique_plans > 0);
}

#[test]
fn guided_findings_still_attribute_to_real_faults() {
    // Guidance changes *which* states the oracles see, never the
    // attribution pipeline: every guided finding still maps to an injected
    // fault of the dialect with a non-empty reduced script.
    let guided = Campaign::builder(Dialect::Sqlite).quick().plan_guidance(true).run();
    assert!(!guided.found.is_empty());
    for f in &guided.found {
        assert_eq!(f.id.info().dialect, Dialect::Sqlite);
        assert!(!f.reduced_sql.is_empty());
    }
}
