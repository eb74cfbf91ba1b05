//! Toy-tier runs of every workload: each named metric appears with its
//! unit, the answers check out, and a corrupted reference is caught.

use nepal::workload::SizeTier;
use nepal_perfbench::{run, Config, Report, Workload, RESULT_METRICS};

fn toy(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.5, trace);
    cfg.paths_tier = SizeTier::Toy;
    cfg.feed_tier = SizeTier::Toy;
    cfg
}

/// The end-to-end metrics each workload must print, with their units.
fn named_metrics(workload: Workload) -> Vec<(&'static str, &'static str)> {
    let mut m = vec![("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_ratio", "ratio")];
    match workload {
        Workload::PathsNative => {}
        Workload::PathsRetarget => m.extend([
            ("pg_query_p50_ms", "ms"),
            ("pg_query_p95_ms", "ms"),
            ("gremlin_query_p50_ms", "ms"),
            ("gremlin_query_p95_ms", "ms"),
        ]),
        Workload::FeedHistory => m.extend([("ingest_day_p50_ms", "ms"), ("ingest_day_p90_ms", "ms")]),
    }
    if workload != Workload::PathsRetarget {
        m.extend([
            ("query_p50_ms", "ms"),
            ("query_p95_ms", "ms"),
            ("queries_per_s", "1/s"),
            ("store_bytes_per_entity", "B"),
        ]);
    }
    m
}

const LAYER_METRICS: [(&str, &str); 23] = [
    ("core.parse_us", "us"),
    ("core.self_ms", "ms"),
    ("core.publish_us", "us"),
    ("rpe.plan_us", "us"),
    ("rpe.eval_ms", "ms"),
    ("rpe.pathways", "count"),
    ("graph.version_reads", "count"),
    ("graph.materialized_ratio", "ratio"),
    ("graph.scan_rows_per_row", "ratio"),
    ("graph.binsnap_load_s", "s"),
    ("graph.apply_ms", "ms"),
    ("graph.rows_diffed", "count"),
    ("graph.rows_changed", "count"),
    ("graph.changed_ratio", "ratio"),
    ("graph.bytes_per_changed_row", "B"),
    ("relational.build_s", "s"),
    ("relational.eval_ms", "ms"),
    ("relational.sql_statements", "count"),
    ("gremlin.build_s", "s"),
    ("gremlin.eval_ms", "ms"),
    ("gremlin.round_trips", "count"),
    ("gremlin.wire_bytes", "B"),
    ("bench.trace_overhead_pct", "%"),
];

fn assert_clean(report: &Report) {
    assert!(report.correct(), "{}", report.text());
    assert!(report.checks.attempted > 0);
    let text = report.text();
    for key in ["seed", "git_commit", "host_parallelism", "evaluator_threads", "observability", "entities"] {
        assert!(report.context.iter().any(|(k, _)| *k == key), "context {key} missing");
    }
    assert!(text.contains("(n="), "sample counts are printed");
}

#[test]
fn every_workload_reports_every_named_metric_with_its_unit() {
    for workload in Workload::ALL {
        let report = run(&toy(workload, false));
        assert_clean(&report);
        for (name, unit) in named_metrics(workload) {
            let m = report.metric(name).unwrap_or_else(|| panic!("{} lacks {name}", workload.name()));
            assert_eq!(m.unit, unit, "{name}");
            assert!(m.value.is_finite() && m.value >= 0.0, "{name} = {}", m.value);
        }
        assert_eq!(report.metric("error_ratio").map(|m| m.value), Some(0.0));
        let line = report.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
        for name in RESULT_METRICS {
            let m = report.metric(name).expect("result metric");
            assert!(m.value > 0.0, "{} {name} must never be 0", workload.name());
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{line}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_with_its_unit() {
    for workload in Workload::ALL {
        let report = run(&toy(workload, true));
        assert_clean(&report);
        for (name, unit) in LAYER_METRICS {
            let l = report.layers.iter().find(|l| l.name == name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(l.unit, unit, "{name}");
            assert!(!l.moves.is_empty(), "{name} names the metric it should move");
        }
        assert_eq!(report.layers.len(), LAYER_METRICS.len());
        // The layers each workload exercises were measured.
        let exercised: &[&str] = match workload {
            Workload::PathsNative => &["core.parse_us", "rpe.eval_ms", "graph.version_reads", "graph.binsnap_load_s"],
            Workload::PathsRetarget => &["relational.eval_ms", "gremlin.eval_ms", "gremlin.round_trips"],
            Workload::FeedHistory => &["core.publish_us", "graph.apply_ms", "graph.rows_diffed", "rpe.eval_ms"],
        };
        for name in exercised {
            let l = report.layers.iter().find(|l| l.name == *name).expect("layer metric");
            assert!(l.n > 0 && l.value > 0.0, "{} measured no {name}", workload.name());
        }
        let line = report.result_line();
        for (name, _) in LAYER_METRICS {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{line}");
        }
    }
}

#[test]
fn a_corrupted_reference_is_reported_as_a_failure() {
    for workload in Workload::ALL {
        let mut cfg = toy(workload, false);
        cfg.corrupt_reference = true;
        let report = run(&cfg);
        assert!(!report.correct(), "{} accepted a corrupted reference", workload.name());
        assert!(report.checks.failed >= 1);
        assert!(report.metric("error_ratio").is_some_and(|m| m.value > 0.0));
        assert!(report.result_line().starts_with("{\"correct\":false,"));
    }
}
