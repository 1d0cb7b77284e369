//! The benchmark's workloads: which campaigns a run executes, and the
//! output checks every campaign report must pass.

use std::collections::BTreeSet;

use lancer_core::{Campaign, CampaignStats, FoundBug, GenConfig, OracleRegistry};
use lancer_engine::{BugProfile, Dialect};

/// The seed the found-set records in `expected/` were taken at.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// One campaign of a workload, described by the configuration the
/// `CampaignBuilder` receives.  The traced mirror reads the same fields.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Dialect under test.
    pub dialect: Dialect,
    /// Generated databases.
    pub databases: usize,
    /// Per-query oracle checks per database.
    pub queries: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Generator tuning.
    pub gen: GenConfig,
    /// Injected faults.
    pub bugs: BugProfile,
    /// Registry names of the oracles, in registration order.
    pub oracles: &'static [&'static str],
    /// Whether multi-session transaction episodes are generated.
    pub multi_session: bool,
}

impl CampaignSpec {
    /// Builds the campaign through the public builder, always at one
    /// thread: the reducer's wave pool makes counters vary between runs at
    /// more than one.
    #[must_use]
    pub fn build(&self, registry: &OracleRegistry) -> Campaign {
        let mut builder = Campaign::builder(self.dialect)
            .databases(self.databases)
            .queries(self.queries)
            .seed(self.seed)
            .gen(self.gen.clone())
            .bugs(self.bugs.clone())
            .threads(1)
            .multi_session(self.multi_session)
            .registry(registry.clone());
        for name in self.oracles {
            builder = builder.oracle(*name);
        }
        builder.build()
    }
}

const LOGIC_ORACLES: &[&str] = &["error", "containment", "tlp", "norec"];
const TXN_ORACLES: &[&str] = &["error", "containment", "tlp", "norec", "serializability"];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Oracle checks against fault-free sqlite and duckdb: the steady
    /// state of a campaign, dominated by the engine's query pipeline.
    CheckClean,
    /// Full-fault duckdb: post-processing dominated by reducing
    /// detections that turn out to be duplicates.
    TriageDup,
    /// Full-fault sqlite with transaction episodes: repros carry writes,
    /// and attribution tries many fault profiles.
    TriageTxn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::CheckClean, Workload::TriageDup, Workload::TriageTxn];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckClean => "check_clean",
            Workload::TriageDup => "triage_dup",
            Workload::TriageTxn => "triage_txn",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct campaign seeds a run covers.
    fn seeds_per_run(self) -> u64 {
        match self {
            Workload::CheckClean => 24,
            Workload::TriageDup | Workload::TriageTxn => 20,
        }
    }

    /// The campaigns a run measures.  Campaign seeds follow a fixed
    /// sequence derived from the run's seed, starting with the seed itself,
    /// so the same seed always gives the same inputs, whatever the host's
    /// speed.
    #[must_use]
    pub fn run_set(self, seed: u64) -> Vec<CampaignSpec> {
        (0..self.seeds_per_run())
            .flat_map(|nth| self.campaigns(if nth == 0 { seed } else { seed ^ mix64(nth) }, 1))
            .collect()
    }

    /// The workload's campaigns at one campaign seed, with every size
    /// divided by `shrink` (tests pin properties of the configuration
    /// rather than its cost).
    #[must_use]
    pub fn campaigns(self, seed: u64, shrink: usize) -> Vec<CampaignSpec> {
        let shrink = shrink.max(1);
        let spec =
            |dialect, databases: usize, queries: usize, bugs, gen, oracles, multi_session| {
                CampaignSpec {
                    dialect,
                    databases: (databases / shrink).max(1),
                    queries: (queries / shrink).max(1),
                    seed,
                    gen,
                    bugs,
                    oracles,
                    multi_session,
                }
            };
        match self {
            Workload::CheckClean => {
                let gen = GenConfig::default();
                [Dialect::Sqlite, Dialect::Duckdb]
                    .into_iter()
                    .map(|d| spec(d, 8, 60, BugProfile::none(), gen.clone(), LOGIC_ORACLES, false))
                    .collect()
            }
            Workload::TriageDup => vec![spec(
                Dialect::Duckdb,
                24,
                24,
                BugProfile::all_for(Dialect::Duckdb),
                GenConfig::default(),
                LOGIC_ORACLES,
                false,
            )],
            Workload::TriageTxn => vec![spec(
                Dialect::Sqlite,
                24,
                24,
                BugProfile::all_for(Dialect::Sqlite),
                GenConfig::default(),
                TXN_ORACLES,
                true,
            )],
        }
    }

    /// The found set recorded at [`DEFAULT_SEED`], one line per found bug
    /// in [`found_line`] format; `None` for a workload that must find
    /// nothing at any seed.
    #[must_use]
    pub fn expected_found(self) -> Option<&'static str> {
        match self {
            Workload::CheckClean => None,
            Workload::TriageDup => Some(include_str!("../expected/triage_dup.txt")),
            Workload::TriageTxn => Some(include_str!("../expected/triage_txn.txt")),
        }
    }
}

/// One found bug as a record line: fault id, oracle, reduced statement
/// count and an FNV-1a digest of the reduced SQL.
#[must_use]
pub fn found_line(found: &FoundBug) -> String {
    let sql = found.reduced_sql.join("\n");
    format!("{:?} {} {} {:016x}", found.id, found.oracle, found.reduced_sql.len(), fnv1a(&sql))
}

/// The found set of a campaign's report, in record format.
#[must_use]
pub fn found_set(found: &[FoundBug]) -> BTreeSet<String> {
    found.iter().map(found_line).collect()
}

/// The outcome of re-parsing a reduced repro with
/// `lancer_sql::parse_script`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reparse {
    /// The script parses into as many statements as the repro lists.
    Ok,
    /// The known rendering defect: a column rendered as
    /// `DEFAULT <literal> COLLATE <name>` re-parses with the collation
    /// bound to the default value, which the parser then rejects as not
    /// a literal.  Counted, but not a failed check, until the renderer or
    /// the parser is fixed.
    DefaultCollate,
    /// Any other failure, with the parser's message.
    Failed(String),
}

/// Re-parses a reduced repro, one rendered statement per entry.
#[must_use]
pub fn reparse(sql: &[String]) -> Reparse {
    match lancer_sql::parse_script(&sql.join(";\n")) {
        Ok(stmts) if stmts.len() == sql.len() => Reparse::Ok,
        Ok(stmts) => Reparse::Failed(format!("{} statements, not {}", stmts.len(), sql.len())),
        Err(e) => {
            let msg = e.to_string();
            if msg.contains("expected literal, found (") && msg.contains(" COLLATE ") {
                Reparse::DefaultCollate
            } else {
                Reparse::Failed(msg)
            }
        }
    }
}

/// Checks that hold at any seed: a fault-free campaign finds nothing, every
/// found id is a fault of the campaign's profile, and every reduced repro
/// re-parses (see [`Reparse`] for the one tolerated defect).  Returns the
/// first violation.
pub fn check_found(spec: &CampaignSpec, found: &[FoundBug]) -> Result<(), String> {
    for bug in found {
        if !spec.bugs.is_enabled(bug.id) || bug.id.info().dialect != spec.dialect {
            return Err(format!(
                "{:?} is not a fault of the {} profile",
                bug.id,
                spec.dialect.name()
            ));
        }
        if let Reparse::Failed(msg) = reparse(&bug.reduced_sql) {
            return Err(format!(
                "repro of {:?} does not re-parse ({msg}):\n{}",
                bug.id,
                bug.reduced_sql.join(";\n")
            ));
        }
    }
    Ok(())
}

/// The `CampaignStats` counters that must repeat exactly between two runs
/// of the same campaign at one thread: statement and detection counts,
/// replay-cache work, copy-on-write copies and reduction work.
#[must_use]
pub fn repeatable_counters(s: &CampaignStats) -> Vec<(&'static str, u64)> {
    vec![
        ("statements_executed", s.statements_executed),
        ("queries_checked", s.queries_checked),
        ("spurious", s.spurious),
        ("unattributed", s.unattributed),
        ("replay_statements_executed", s.replay_statements_executed),
        ("replay_statements_skipped", s.replay_statements_skipped),
        ("replay_verdict_hits", s.replay_verdict_hits),
        ("replay_prefix_hits", s.replay_prefix_hits),
        ("replay_snapshots_taken", s.replay_snapshots_taken),
        ("replay_snapshot_evictions", s.replay_snapshot_evictions),
        ("cow_table_copies", s.cow_table_copies),
        ("cow_row_block_copies", s.cow_row_block_copies),
        ("workspace_rewinds", s.workspace_rewinds),
        ("reduction_candidates_evaluated", s.reduction_candidates_evaluated),
        ("reduction_memo_hits", s.reduction_memo_hits),
        ("reduction_statements_before", s.reduction_statements_before),
        ("reduction_statements_after", s.reduction_statements_after),
        ("reduction_expr_nodes_after", s.reduction_expr_nodes_after),
    ]
}

/// The splitmix64 finalizer: spreads consecutive integers over the whole
/// 64-bit range, so derived campaign seeds share no structure with each
/// other or with the generator's own splitmix seeding.
fn mix64(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64-bit FNV-1a hash, as the campaign runner uses it to derive oracle
/// substreams.
#[must_use]
pub fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
