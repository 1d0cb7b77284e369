//! Runs one workload for a fixed time and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--record]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced `Campaign::run`
//! calls; `--trace 1` runs every campaign untraced and then traced, and
//! reports the per-layer metrics.  `--record` rewrites the workload's found-set
//! record (taken at the default seed) instead of measuring.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lancer_core::{Campaign, CampaignReport, OracleRegistry};
use perfbench::mirror::{raw_detections, run_traced, LayerCounts, MirrorOutcome};
use perfbench::trace::{median, timing, Tracer};
use perfbench::workload::{
    check_found, found_set, repeatable_counters, CampaignSpec, Workload, DEFAULT_SEED,
};

/// The shortest set-up measurement: one build of a run's campaigns takes
/// tens of microseconds, so each measurement times as many builds as fill
/// this.
const SETUP_BATCH: Duration = Duration::from_millis(5);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 60;
    let mut trace = false;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => seconds = parse_u64(&value).filter(|s| *s > 0).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required, one of {names:?}"))?;
    Ok(Args { workload, seed, seconds, trace, record })
}

/// Runs the workload's campaigns at [`DEFAULT_SEED`] once, untimed, and
/// checks their found sets against the record in `expected/`, so a change
/// that loses or alters a bug fails the run at any `--seed`.
fn check_record(workload: Workload, tally: &mut Tally) {
    let Some(expected) = workload.expected_found() else { return };
    let registry = OracleRegistry::builtin();
    for spec in workload.campaigns(DEFAULT_SEED, 1) {
        let (Some(report), _) = tally.run(&spec, &spec.build(&registry)) else { continue };
        let recorded: BTreeSet<String> = expected
            .lines()
            .filter_map(|l| l.strip_prefix(spec.dialect.name()))
            .map(|l| l.trim().to_owned())
            .collect();
        let found = found_set(&report.found);
        if recorded != found {
            tally.failed += 1;
            eprintln!(
                "found set at the default seed differs from the record: recorded {recorded:?}, \
                 found {found:?}"
            );
        }
    }
}

/// The parts of a campaign's result the traced mirror must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    raw_detections: u64,
    statements_executed: u64,
    found: BTreeSet<String>,
}

impl Outcome {
    fn of(report: &CampaignReport) -> Outcome {
        Outcome {
            raw_detections: raw_detections(&report.stats),
            statements_executed: report.stats.statements_executed,
            found: found_set(&report.found),
        }
    }

    fn of_mirror(mirror: &MirrorOutcome) -> Outcome {
        Outcome {
            raw_detections: mirror.raw_detections,
            statements_executed: mirror.statements_executed,
            found: found_set(&mirror.found),
        }
    }
}

/// Counts attempted and failed campaign runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one campaign, checks its report and returns it with its wall
    /// time; a panic or a failed check counts as a failed operation.
    fn run(
        &mut self,
        spec: &CampaignSpec,
        campaign: &Campaign,
    ) -> (Option<CampaignReport>, Duration) {
        self.attempted += 1;
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| campaign.run()));
        let wall = started.elapsed();
        let Ok(report) = result else {
            self.failed += 1;
            eprintln!("campaign {} panicked", spec.dialect.name());
            return (None, wall);
        };
        if let Err(msg) = check_found(spec, &report.found) {
            self.failed += 1;
            eprintln!("campaign {} failed a check: {msg}", spec.dialect.name());
        }
        (Some(report), wall)
    }
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// The set-up step: the oracle registry and every campaign of the run set.
fn build_all(specs: &[CampaignSpec]) -> Vec<Campaign> {
    let registry = OracleRegistry::builtin();
    specs.iter().map(|s| s.build(&registry)).collect()
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so the next reading covers only what runs after; returns `false`
/// where the kernel refuses, and readings then stay cumulative.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The set-up of a run's campaigns, per build, timed over as many builds
/// as fill [`SETUP_BATCH`].
fn time_setup(specs: &[CampaignSpec]) -> f64 {
    let started = Instant::now();
    let mut builds = 0u32;
    while builds == 0 || started.elapsed() < SETUP_BATCH {
        std::hint::black_box(build_all(specs));
        builds += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(builds)
}

/// The end-to-end run: rounds over the workload's fixed campaign set
/// ([`Workload::run_set`]) until the time is up; round 0 always completes,
/// later rounds may stop part-way.
///
/// The host's speed swings by 40–60% between states that last from a
/// second to a minute, so every figure is the fastest of its repeats: a
/// campaign's repeats are a round apart and spread over the whole run, so
/// each is likely to meet a fast state at least once.  `stmts_per_s` is
/// the set's statements over the sum of each campaign's fastest
/// wall-clock, `setup_s` the fastest of the set-up measurements taken
/// before every campaign run, and `peak_rss_mb` the median over complete
/// rounds of each round's peak.  A repeat whose counters or findings
/// differ from the first round's is a failed check.
fn run_end_to_end(args: &Args, tally: &mut Tally) -> Metrics {
    check_record(args.workload, tally);
    let limit = Duration::from_secs(args.seconds);
    let specs = args.workload.run_set(args.seed);
    let campaigns = build_all(&specs);
    let mut statements = 0u64;
    let mut fastest = vec![Duration::MAX; specs.len()];
    let mut first = vec![None; specs.len()];
    let mut setup = f64::INFINITY;
    let mut peaks = Vec::new();
    let started = Instant::now();
    for round in 0.. {
        reset_peak_rss();
        let mut complete = true;
        for (i, (spec, campaign)) in specs.iter().zip(&campaigns).enumerate() {
            if round > 0 && started.elapsed() >= limit {
                complete = false;
                break;
            }
            setup = setup.min(time_setup(&specs));
            let (report, took) = tally.run(spec, campaign);
            fastest[i] = fastest[i].min(took);
            let Some(report) = report else { continue };
            let seen = (repeatable_counters(&report.stats), found_set(&report.found));
            match &first[i] {
                None => {
                    statements += report.stats.statements_executed;
                    first[i] = Some(seen);
                }
                Some(earlier) if *earlier != seen => {
                    tally.failed += 1;
                    eprintln!("a repeat of campaign {} did not repeat exactly", spec.seed);
                }
                Some(_) => {}
            }
        }
        if complete {
            peaks.push(peak_rss_mb());
        }
        if started.elapsed() >= limit {
            break;
        }
    }
    let wall: Duration = fastest.iter().sum();
    eprintln!(
        "{} campaign runs over {} campaigns, {statements} statements in {wall:?} (fastest of each)",
        tally.attempted,
        specs.len()
    );
    vec![
        ("stmts_per_s".to_owned(), statements as f64 / wall.as_secs_f64(), "1/s"),
        ("peak_rss_mb".to_owned(), median(&peaks), "MB"),
        ("setup_s".to_owned(), setup, "s"),
    ]
}

/// The (oracle, dialect) pairs the per-layer metrics report; every
/// workload reports all of them, with zeros where a pair does not run.
const ORACLE_PAIRS: [(&str, &str); 9] = [
    ("error", "sqlite"),
    ("error", "duckdb"),
    ("containment", "sqlite"),
    ("containment", "duckdb"),
    ("tlp", "sqlite"),
    ("tlp", "duckdb"),
    ("norec", "sqlite"),
    ("norec", "duckdb"),
    ("serializability", "sqlite"),
];

/// Which layer a span's self time is charged to.
fn layer_group(layer: &str) -> &'static str {
    match layer {
        "gen.database" => "gen",
        "oracle" => "oracle",
        "engine.plan" | "engine.query" => "engine",
        "replay.filter" => "replay",
        "reduce.statements" | "reduce.expressions" => "reduce",
        "sql.render_parse" => "sql",
        _ => "runner",
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run: each round runs every campaign of the run's set
/// untraced, then through the traced mirror, and reconciles the two.
/// Timings come from every round; counts from round 0 only, so they
/// repeat exactly for a seed.
fn run_traced_workload(args: &Args, tally: &mut Tally) -> Metrics {
    check_record(args.workload, tally);
    let limit = Duration::from_secs(args.seconds);
    let registry = OracleRegistry::builtin();
    let specs = args.workload.run_set(args.seed);
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut untraced = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut mirror_match = true;
    let started = Instant::now();
    for round in 0.. {
        let mut round_counts = LayerCounts::default();
        for (j, spec) in specs.iter().enumerate() {
            if round > 0 && started.elapsed() >= limit {
                break;
            }
            let campaign = spec.build(&registry);
            let (report, took) = tally.run(spec, &campaign);
            untraced += took;
            tally.attempted += 1;
            tracer.start_campaign(u32::try_from(j).unwrap_or(u32::MAX));
            let t = Instant::now();
            let mirror = catch_unwind(AssertUnwindSafe(|| {
                run_traced(spec, &registry, &mut tracer, &mut round_counts)
            }));
            traced += t.elapsed();
            let Ok(mirror) = mirror else {
                tally.failed += 1;
                eprintln!("traced campaign {} panicked", spec.dialect.name());
                return Vec::new();
            };
            let matched = report.is_some_and(|r| Outcome::of(&r) == Outcome::of_mirror(&mirror));
            if !matched {
                eprintln!(
                    "trace mirror diverged from Campaign::run on {}: the per-layer split is stale",
                    spec.dialect.name()
                );
            }
            mirror_match &= matched;
        }
        if round_counts.reparse_failures > 0 {
            tally.failed += 1;
            eprintln!("{} reduced repros did not re-parse", round_counts.reparse_failures);
        }
        if round == 0 {
            counts = round_counts;
        }
        if started.elapsed() >= limit {
            break;
        }
    }
    write_spans(args, &tracer);
    per_layer_metrics(&specs, &tracer, &counts, untraced, traced, mirror_match)
}

/// Writes the recorded spans as JSON lines under the build directory, one
/// file per workload (the latest traced run's).
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("perfbench");
    let path = dir.join(format!("spans-{}.jsonl", args.workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn per_layer_metrics(
    specs: &[CampaignSpec],
    tracer: &Tracer,
    counts: &LayerCounts,
    untraced: Duration,
    traced: Duration,
    mirror_match: bool,
) -> Metrics {
    let spans = tracer.spans();
    let own = tracer.self_times_ns();
    let samples = |layer: &str, tag: &str, dialect: Option<&str>, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.tag == tag)
            .filter(|s| dialect.is_none_or(|d| specs[s.campaign as usize].dialect.name() == d))
            .map(|s| s.duration_ns() as f64 / scale)
            .collect()
    };
    let traced_ns = traced.as_nanos() as f64;
    let mut share = std::collections::BTreeMap::<&str, f64>::new();
    let mut top_level_ns = 0.0;
    let mut probe_ns = 0.0;
    for (span, own_ns) in spans.iter().zip(&own) {
        *share.entry(layer_group(span.layer)).or_default() += *own_ns as f64;
        if span.parent.is_none() {
            top_level_ns += span.duration_ns() as f64;
        }
        if layer_group(span.layer) == "engine" {
            probe_ns += span.duration_ns() as f64;
        }
    }
    let share_of = |group: &str| share.get(group).copied().unwrap_or(0.0) / traced_ns;

    let mut m: Metrics = Vec::new();
    let push_timing = |m: &mut Metrics, name: &str, values: Vec<f64>, unit: &'static str| {
        let t = timing(&values);
        m.push((format!("{name}.p50"), t.p50, unit));
        m.push((format!("{name}.tail"), t.tail, unit));
        m.push((format!("{name}.n"), t.n as f64, "count"));
    };
    const MS: f64 = 1e6;
    const US: f64 = 1e3;

    push_timing(&mut m, "gen.database_ms", samples("gen.database", "", None, MS), "ms");
    m.push(("gen.statements".into(), counts.gen_statements as f64, "count"));
    m.push(("gen.self_share".into(), share_of("gen"), "ratio"));

    for (oracle, dialect) in ORACLE_PAIRS {
        let name = format!("oracle.{oracle}.{dialect}");
        let checks = samples("oracle", oracle, Some(dialect), US);
        push_timing(&mut m, &format!("{name}.check_us"), checks, "us");
        let c = counts.oracles.get(&(oracle, dialect)).copied().unwrap_or_default();
        m.push((format!("{name}.checks"), c.checks as f64, "count"));
        m.push((format!("{name}.skipped_ratio"), ratio(c.skipped, c.checks), "ratio"));
        m.push((format!("{name}.witnesses"), c.witnesses as f64, "count"));
    }
    m.push(("oracle.self_share".into(), share_of("oracle"), "ratio"));

    push_timing(&mut m, "engine.plan_us", samples("engine.plan", "", None, US), "us");
    push_timing(&mut m, "engine.query_us", samples("engine.query", "", None, US), "us");
    m.push(("engine.probes".into(), counts.probes as f64, "count"));
    m.push(("engine.rows_out".into(), counts.probe_rows_out as f64, "count"));
    m.push(("engine.self_share".into(), share_of("engine"), "ratio"));

    let cow = [counts.cow_gen, counts.cow_oracle, counts.cow_triage];
    m.push((
        "storage.table_copies".into(),
        cow.iter().map(|c| c.table_copies).sum::<u64>() as f64,
        "count",
    ));
    m.push((
        "storage.row_block_copies".into(),
        cow.iter().map(|c| c.row_block_copies).sum::<u64>() as f64,
        "count",
    ));
    m.push((
        "storage.gen_row_block_copies".into(),
        counts.cow_gen.row_block_copies as f64,
        "count",
    ));
    m.push((
        "storage.oracle_row_block_copies".into(),
        counts.cow_oracle.row_block_copies as f64,
        "count",
    ));
    m.push((
        "storage.triage_row_block_copies".into(),
        counts.cow_triage.row_block_copies as f64,
        "count",
    ));
    m.push(("engine.workspace_rewinds".into(), counts.workspace_rewinds as f64, "count"));

    let r = counts.replay;
    push_timing(&mut m, "replay.filter_us", samples("replay.filter", "", None, US), "us");
    m.push(("replay.statements_replayed".into(), r.statements_replayed as f64, "count"));
    m.push(("replay.statements_skipped".into(), r.statements_skipped as f64, "count"));
    m.push((
        "replay.skip_ratio".into(),
        ratio(r.statements_skipped, r.statements_skipped + r.statements_replayed),
        "ratio",
    ));
    m.push(("replay.prefix_hits".into(), r.prefix_hits as f64, "count"));
    m.push(("replay.verdict_hits".into(), r.verdict_hits as f64, "count"));
    m.push(("replay.snapshots_taken".into(), r.snapshots_taken as f64, "count"));
    m.push(("replay.snapshot_refusals".into(), r.snapshots_evicted as f64, "count"));
    m.push(("replay.self_share".into(), share_of("replay"), "ratio"));

    let red = counts.reduction;
    push_timing(&mut m, "reduce.statements_ms", samples("reduce.statements", "", None, MS), "ms");
    push_timing(&mut m, "reduce.expressions_ms", samples("reduce.expressions", "", None, MS), "ms");
    m.push(("reduce.candidates".into(), red.candidates_evaluated() as f64, "count"));
    m.push(("reduce.memo_hits".into(), red.memo_hits as f64, "count"));
    m.push(("reduce.statements_before".into(), red.statements_before as f64, "count"));
    m.push(("reduce.statements_after".into(), red.statements_after as f64, "count"));
    m.push(("reduce.self_share".into(), share_of("reduce"), "ratio"));

    push_timing(&mut m, "runner.attribute_us", samples("runner.attribute", "", None, US), "us");
    m.push(("runner.profiles_tried".into(), counts.profiles_tried as f64, "count"));
    m.push(("runner.raw_detections".into(), counts.raw as f64, "count"));
    m.push(("runner.duplicate_ratio".into(), ratio(counts.duplicates, counts.reduced), "ratio"));
    m.push(("runner.spurious_ratio".into(), ratio(counts.spurious, counts.raw), "ratio"));
    m.push(("runner.bugs_found".into(), counts.found as f64, "count"));
    push_timing(&mut m, "triage.detection_ms", samples("triage.detection", "", None, MS), "ms");
    m.push(("runner.self_share".into(), share_of("runner"), "ratio"));

    push_timing(&mut m, "sql.render_parse_us", samples("sql.render_parse", "", None, US), "us");
    m.push(("sql.reparse_default_collate".into(), counts.reparse_default_collate as f64, "count"));
    m.push(("sql.self_share".into(), share_of("sql"), "ratio"));

    // Probes are the traced run's own extra work, not tracing overhead.
    let overhead = (traced_ns - probe_ns) / untraced.as_nanos() as f64;
    m.push(("trace.overhead_ratio".into(), overhead, "ratio"));
    m.push(("trace.mirror_match".into(), if mirror_match { 1.0 } else { 0.0 }, "bool"));
    m.push(("trace.residual_ratio".into(), (traced_ns - top_level_ns) / traced_ns, "ratio"));
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record(&args);
    }
    let mut tally = Tally::default();
    let metrics = if args.trace {
        run_traced_workload(&args, &mut tally)
    } else {
        run_end_to_end(&args, &mut tally)
    };
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && !metrics.is_empty(),
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Rewrites `expected/<workload>.txt` from a run at the default seed.
fn record(args: &Args) -> ExitCode {
    if args.workload.expected_found().is_none() {
        eprintln!("perfbench: {} keeps no found-set record", args.workload.name());
        return ExitCode::from(2);
    }
    let registry = OracleRegistry::builtin();
    let mut lines = String::new();
    for spec in args.workload.campaigns(DEFAULT_SEED, 1) {
        for line in found_set(&spec.build(&registry).run().found) {
            let _ = writeln!(lines, "{} {line}", spec.dialect.name());
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.txt", args.workload.name()));
    match std::fs::write(&path, lines) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
