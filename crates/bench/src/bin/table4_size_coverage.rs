//! Table 4 — "The size of SQLancer's components specific and common to the
//! tested databases", plus the coverage SQLancer reaches on each DBMS.
//!
//! LOC are measured over this workspace; coverage is the engine's
//! feature-point coverage reached by the campaign, the gcov substitute
//! that `lancer-engine`'s `coverage` module documents.

use lancer_bench::{dump_json, loc_census, print_table, run_all_campaigns, ReportOptions};
use lancer_engine::Dialect;

fn main() {
    let opts = ReportOptions::from_args();
    let reports = run_all_campaigns(&opts);
    let census = loc_census();
    let tester_loc = census.get("lancer-core").copied().unwrap_or(0);
    let dbms_loc = census.get("lancer-engine").copied().unwrap_or(0)
        + census.get("lancer-storage").copied().unwrap_or(0)
        + census.get("lancer-sql").copied().unwrap_or(0);

    let paper: &[(&str, &str, &str, &str, &str)] = &[
        ("sqlite", "6,501", "49,703", "13.1%", "43.0% / 38.4%"),
        ("mysql", "3,995", "707,803", "0.6%", "24.4% / 13.0%"),
        ("postgres", "4,981", "329,999", "1.5%", "23.7% / 16.6%"),
    ];

    let mut rows = Vec::new();
    for dialect in Dialect::ALL {
        let report = &reports[&dialect];
        let ratio = tester_loc as f64 / dbms_loc.max(1) as f64;
        let paper_row = paper.iter().find(|(d, ..)| *d == dialect.name());
        rows.push(vec![
            dialect.name().to_owned(),
            tester_loc.to_string(),
            dbms_loc.to_string(),
            format!("{:.1}%", ratio * 100.0),
            format!("{:.1}%", report.stats.coverage_fraction * 100.0),
            paper_row.map(|(_, a, b, c, d)| format!("{a} | {b} | {c} | {d}")).unwrap_or_default(),
        ]);
    }
    print_table(
        "Table 4: tester LOC, DBMS LOC, ratio, coverage (measured vs paper)",
        &[
            "DBMS",
            "PQS LOC",
            "engine LOC",
            "ratio",
            "feature coverage",
            "paper (SQLancer LOC | DBMS LOC | ratio | line/branch cov)",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper: the tester is small relative to the DBMS, coverage below 50%):\n\
         measured ratio {:.1}% and coverage {:.0}–{:.0}% across dialects.",
        tester_loc as f64 / dbms_loc.max(1) as f64 * 100.0,
        reports.values().map(|r| r.stats.coverage_fraction * 100.0).fold(f64::MAX, f64::min),
        reports.values().map(|r| r.stats.coverage_fraction * 100.0).fold(0.0, f64::max),
    );
    dump_json("table4", &reports);
}
