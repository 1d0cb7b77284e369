//! Pins the two properties later changes lean on when they quote the
//! benchmark's counts:
//!
//! * at one thread, a campaign's replay, copy-on-write and reduction
//!   counters come out identical in two runs, so a change may claim a
//!   count moved;
//! * the traced mirror reproduces `Campaign::run`'s raw detections,
//!   statement count and found set, so its per-layer split describes the
//!   campaign the end-to-end metrics time.
//!
//! Every workload runs at a quarter of its size, which keeps both triage
//! workloads' detections and the transaction episodes in play.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use lancer_core::OracleRegistry;
use perfbench::mirror::{raw_detections, run_traced, LayerCounts};
use perfbench::trace::Tracer;
use perfbench::workload::{found_set, repeatable_counters, Workload, DEFAULT_SEED};

const SHRINK: usize = 4;

#[test]
fn campaign_counters_repeat_exactly_at_one_thread() {
    let registry = OracleRegistry::builtin();
    for workload in Workload::ALL {
        for spec in workload.campaigns(DEFAULT_SEED, SHRINK) {
            let campaign = spec.build(&registry);
            let first = campaign.run();
            let again = campaign.run();
            let rebuilt = spec.build(&registry).run();
            let counters = repeatable_counters(&first.stats);
            assert_eq!(counters, repeatable_counters(&again.stats), "{workload:?} rerun");
            assert_eq!(counters, repeatable_counters(&rebuilt.stats), "{workload:?} rebuilt");
            assert_eq!(found_set(&first.found), found_set(&rebuilt.found), "{workload:?}");
        }
    }
}

#[test]
fn triage_workloads_exercise_replay_and_reduction() {
    let registry = OracleRegistry::builtin();
    for workload in [Workload::TriageDup, Workload::TriageTxn] {
        for spec in workload.campaigns(DEFAULT_SEED, SHRINK) {
            let stats = spec.build(&registry).run().stats;
            assert!(raw_detections(&stats) > 0, "{workload:?} raised no detection");
            assert!(stats.replay_statements_executed > 0, "{workload:?} replayed nothing");
            assert!(stats.reduction_candidates_evaluated > 0, "{workload:?} reduced nothing");
        }
    }
}

#[test]
fn traced_mirror_matches_campaign_run() {
    let registry = OracleRegistry::builtin();
    for workload in Workload::ALL {
        for spec in workload.campaigns(DEFAULT_SEED, SHRINK) {
            let report = spec.build(&registry).run();
            let mut tracer = Tracer::new();
            let mut counts = LayerCounts::default();
            let mirror = run_traced(&spec, &registry, &mut tracer, &mut counts);
            assert_eq!(mirror.raw_detections, raw_detections(&report.stats), "{workload:?}");
            assert_eq!(mirror.statements_executed, report.stats.statements_executed);
            assert_eq!(found_set(&mirror.found), found_set(&report.found), "{workload:?}");
            assert_eq!(counts.raw, mirror.raw_detections);
            assert!(!tracer.spans().is_empty(), "{workload:?} recorded no span");
        }
    }
}
