//! # lancer-bench
//!
//! The benchmark harness and report generators that regenerate every table
//! and figure of the paper's evaluation section (the README's "Paper
//! figures and benchmarks" section lists how to run them).  Each
//! `src/bin/*` binary prints the paper's reported rows next to the rows
//! measured on this reproduction.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::Path;

/// Compiles and runs the README's Rust examples as doctests (`cargo test
/// --doc`), so the quickstarts — including the `EXPLAIN` one — can never
/// silently rot.  This crate hosts them because it sits at the top of the
/// dependency graph and can see the whole stack.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

use lancer_core::{Campaign, CampaignReport};
use lancer_engine::Dialect;

/// Command-line options shared by every report binary.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// RNG seed.
    pub seed: u64,
    /// Random databases per dialect.
    pub databases: usize,
    /// Containment checks per database.
    pub queries_per_database: usize,
    /// Worker threads per campaign.
    pub threads: usize,
    /// Whether the NoREC oracle is registered (`--norec`).  Off by
    /// default so the historical Table 2/3 output stays byte-identical;
    /// the derived-substream contract guarantees that turning it on only
    /// ever *adds* a column (see `table3_oracles`).
    pub norec: bool,
    /// Whether multi-session transaction episodes are generated and the
    /// serializability oracle is registered (`--txn`).  Off by default:
    /// episodes draw from the primary worker stream, so enabling them
    /// changes the generated workload — unlike `--norec` this is *not* a
    /// pure column addition, which is why it gets its own flag.
    pub txn: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            seed: 0x5EED,
            databases: 40,
            queries_per_database: 80,
            threads: 2,
            norec: false,
            txn: false,
        }
    }
}

/// The flags every report binary accepts, for usage lines.
const FLAGS: &str = "[--seed N] [--databases N] [--queries N] [--threads N] [--norec] [--txn]";

/// Why [`ReportOptions::parse`] produced no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` was given.
    Help,
    /// An unknown flag, a flag without its value, or a value that does not
    /// parse or is out of range.
    Invalid(String),
}

impl ReportOptions {
    /// Parses the process arguments with [`parse`](ReportOptions::parse).
    /// On `--help` it prints the usage line and exits with code 0; on a
    /// bad flag it prints the problem and the usage line to stderr and
    /// exits with code 2.
    #[must_use]
    pub fn from_args() -> ReportOptions {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_else(|| "report".to_owned());
        let args: Vec<String> = args.collect();
        match ReportOptions::parse(&args) {
            Ok(opts) => opts,
            Err(ArgsError::Help) => {
                println!("usage: {program} {FLAGS}");
                std::process::exit(0);
            }
            Err(ArgsError::Invalid(problem)) => {
                eprintln!("error: {problem}\nusage: {program} {FLAGS}");
                std::process::exit(2);
            }
        }
    }

    /// Parses `--seed`, `--databases`, `--queries`, `--threads` (each
    /// followed by a non-negative integer; `--threads` at least 1) and the
    /// bare `--norec` / `--txn` flags, starting from the defaults.  `args`
    /// excludes the program name.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Help`] on `--help`; [`ArgsError::Invalid`] on an
    /// unknown flag, a missing or unparsable value, or `--threads 0`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<ReportOptions, ArgsError> {
        let mut opts = ReportOptions::default();
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(flag) = args.next() {
            match flag {
                "--help" => return Err(ArgsError::Help),
                "--norec" => opts.norec = true,
                "--txn" => opts.txn = true,
                "--seed" => opts.seed = flag_value(flag, args.next())?,
                "--databases" => opts.databases = flag_value(flag, args.next())?,
                "--queries" => opts.queries_per_database = flag_value(flag, args.next())?,
                "--threads" => {
                    opts.threads = flag_value(flag, args.next())?;
                    if opts.threads == 0 {
                        return Err(ArgsError::Invalid("--threads must be at least 1".to_owned()));
                    }
                }
                _ => return Err(ArgsError::Invalid(format!("unknown flag '{flag}'"))),
            }
        }
        Ok(opts)
    }

    /// Starts a campaign builder for one dialect with these options
    /// applied.  The historical oracle trio always runs (error +
    /// containment + TLP), `--norec` adds the NoREC oracle, and `--txn`
    /// adds the serializability oracle together with the multi-session
    /// transaction episodes it checks; the derived-stream design
    /// guarantees that no logic oracle perturbs what the classic pair
    /// finds — nor each other.  Report binaries that need extra knobs
    /// (e.g. `table_qpg`'s `plan_guidance`) chain them on the result.
    #[must_use]
    pub fn campaign_builder(&self, dialect: Dialect) -> lancer_core::CampaignBuilder {
        let mut builder = Campaign::builder(dialect)
            .seed(self.seed)
            .databases(self.databases)
            .queries(self.queries_per_database)
            .threads(self.threads)
            .oracle("error")
            .oracle("containment")
            .oracle("tlp");
        if self.norec {
            builder = builder.oracle("norec");
        }
        if self.txn {
            builder = builder.oracle("serializability").multi_session(true);
        }
        builder
    }

    /// Builds the campaign for one dialect (see
    /// [`campaign_builder`](ReportOptions::campaign_builder)).
    #[must_use]
    pub fn campaign(&self, dialect: Dialect) -> Campaign {
        self.campaign_builder(dialect).build()
    }
}

/// Parses the value following `flag`.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, ArgsError> {
    let value = value.ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))?;
    value.parse().map_err(|_| ArgsError::Invalid(format!("{flag}: cannot parse '{value}'")))
}

/// Runs the standard evaluation campaign for every dialect.
#[must_use]
pub fn run_all_campaigns(opts: &ReportOptions) -> BTreeMap<Dialect, CampaignReport> {
    Dialect::ALL
        .iter()
        .map(|d| {
            eprintln!(
                "running {} campaign ({} databases, {} queries each)...",
                d.name(),
                opts.databases,
                opts.queries_per_database
            );
            (*d, opts.campaign(*d).run())
        })
        .collect()
}

/// Prints a simple fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Lines of Rust code per workspace crate (the Table 4 "SQLancer LOC"
/// analogue: the dialect-testing components are `lancer-core` + the dialect
/// surface of the engine, the "DBMS LOC" analogue is the engine stack).
#[must_use]
pub fn loc_census() -> BTreeMap<String, usize> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates_dir = manifest.parent().map(Path::to_path_buf).unwrap_or_default();
    let mut out = BTreeMap::new();
    for entry in ["sql", "storage", "engine", "core", "bench"] {
        let dir = crates_dir.join(entry).join("src");
        out.insert(format!("lancer-{entry}"), count_rust_lines(&dir));
    }
    out
}

fn count_rust_lines(dir: &Path) -> usize {
    let mut total = 0usize;
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_rust_lines(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(content) = std::fs::read_to_string(&path) {
                total += content.lines().filter(|l| !l.trim().is_empty()).count();
            }
        }
    }
    total
}

/// Writes a JSON record of an experiment next to stdout output so that
/// EXPERIMENTS.md snapshots can be regenerated mechanically.
pub fn dump_json(name: &str, value: &impl serde::Serialize) {
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let path = std::env::temp_dir().join(format!("lancer_{name}.json"));
        let _ = std::fs::write(&path, json);
        eprintln!("(machine-readable record written to {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_census_counts_the_workspace() {
        let census = loc_census();
        assert!(census["lancer-sql"] > 500);
        assert!(census["lancer-engine"] > 1000);
        assert!(census["lancer-core"] > 500);
    }

    #[test]
    fn options_build_campaigns() {
        let opts = ReportOptions::default();
        let c = opts.campaign(Dialect::Mysql);
        assert_eq!(c.dialect(), Dialect::Mysql);
        assert_eq!(c.oracle_names(), vec!["error", "containment", "tlp"]);
        let with_norec = ReportOptions { norec: true, ..ReportOptions::default() };
        let c = with_norec.campaign(Dialect::Mysql);
        assert_eq!(c.oracle_names(), vec!["error", "containment", "tlp", "norec"]);
        let with_txn = ReportOptions { txn: true, ..ReportOptions::default() };
        let c = with_txn.campaign(Dialect::Mysql);
        assert_eq!(c.oracle_names(), vec!["error", "containment", "tlp", "serializability"]);
    }

    #[test]
    fn documented_flags_parse() {
        let opts = ReportOptions::parse(&[
            "--seed",
            "7",
            "--databases",
            "3",
            "--queries",
            "9",
            "--threads",
            "1",
            "--norec",
            "--txn",
        ])
        .unwrap();
        assert_eq!(
            (opts.seed, opts.databases, opts.queries_per_database, opts.threads),
            (7, 3, 9, 1)
        );
        assert!(opts.norec && opts.txn);
        let defaults = ReportOptions::parse::<&str>(&[]).unwrap();
        assert_eq!(defaults.databases, ReportOptions::default().databases);
    }

    #[test]
    fn help_is_reported() {
        assert_eq!(ReportOptions::parse(&["--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(ReportOptions::parse(&["--seed", "1", "--help"]).unwrap_err(), ArgsError::Help);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for args in [
            &["--bogus"][..],
            &["--threads", "x"],
            &["--threads", "0"],
            &["--threads", "-1"],
            &["--databases", "many"],
            &["--seed"],
            &["--norec", "--queries"],
            &["7"],
        ] {
            assert!(
                matches!(ReportOptions::parse(args), Err(ArgsError::Invalid(_))),
                "accepted {args:?}"
            );
        }
    }
}
