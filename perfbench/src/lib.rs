//! Nepal's end-to-end and per-layer benchmark.
//!
//! Three seeded workloads drive Nepal through its public API — see
//! `README.md` next to this crate for why each was chosen and which layers
//! it exercises and bypasses:
//!
//! - `paths-native`: Table-1 pathway queries plus a join and a `Not
//!   Exists` under current, `AT` and range scopes on the native backend;
//! - `paths-retarget`: the same families routed `USING pg` and `USING
//!   gremlin` (Gremlin over TCP to a `GremlinServer`);
//! - `feed-history`: full daily snapshots through `SnapshotLoader::apply`
//!   into a growing store, with temporal reads after each delivery.
//!
//! One client thread drives the engine in a closed loop: the next
//! operation starts when the previous one returns. The engine is
//! configured as `nepal-serve` ships it (see [`configure_engine`]).

pub mod feed;
pub mod layers;
pub mod paths;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

use nepal::core::Engine;
use nepal::graph::TemporalGraph;
use nepal::schema::{EDGE, NODE};
use nepal::workload::SizeTier;

use crate::layers::LayerMetric;
use crate::stats::{json_num, json_str, Samples};

/// Statement-statistics capacity `nepal-serve` ships with.
pub const STMT_CAPACITY: usize = 512;
/// Flight-recorder ring size `nepal-serve` ships with (events per thread).
pub const FLIGHT_EVENTS: usize = 4096;
/// Per-query deadline: generous, so that only a hang trips it, and a hang
/// becomes a counted failure instead of a stuck run.
pub const QUERY_DEADLINE: Duration = Duration::from_secs(20);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// The end-to-end metrics every workload reports in its result line, in
/// `BENCHMARK.json` order. The workload-specific ones (`pg_query_*`,
/// `gremlin_query_*`, `ingest_day_*`, `error_ratio`) are printed with
/// their sample counts beside them.
pub const RESULT_METRICS: [&str; 6] =
    ["setup_s", "query_p50_ms", "query_p95_ms", "queries_per_s", "peak_rss_mb", "store_bytes_per_entity"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PathsNative,
    PathsRetarget,
    FeedHistory,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PathsNative, Workload::PathsRetarget, Workload::FeedHistory];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PathsNative => "paths-native",
            Workload::PathsRetarget => "paths-retarget",
            Workload::FeedHistory => "feed-history",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) after an untraced one.
    pub trace: bool,
    /// Graph tier of the two `paths-*` workloads (`Small` in the benchmark).
    pub paths_tier: SizeTier,
    /// Graph tier of `feed-history` (`Medium` in the benchmark).
    pub feed_tier: SizeTier,
    /// Corrupt one reference answer before the measured phase, so that a
    /// test can prove the checks report a wrong answer as a failure.
    pub corrupt_reference: bool,
    /// Directory the traced run writes its spans to.
    pub span_dir: Option<PathBuf>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            paths_tier: SizeTier::Small,
            feed_tier: SizeTier::Medium,
            corrupt_reference: false,
            span_dir: None,
        }
    }
}

/// One end-to-end metric with its sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// Checked operations of a run: every answer compared with its reference
/// counts as attempted; an error or a wrong answer counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything a run reports.
pub struct Report {
    pub workload: Workload,
    pub context: Vec<(&'static str, String)>,
    pub metrics: Vec<Metric>,
    /// Latency breakdown by query class: (class, p50 ms, samples).
    pub classes: Vec<(String, f64, usize)>,
    /// Per-layer metrics; empty unless the run was traced.
    pub layers: Vec<LayerMetric>,
    pub checks: Checks,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// Human-readable lines: context, every metric with unit and sample
    /// count, the per-class breakdown and the per-layer metrics.
    pub fn text(&self) -> String {
        let mut out = format!("workload {}\n", self.workload.name());
        for (k, v) in &self.context {
            out += &format!("context {k} = {v}\n");
        }
        for m in &self.metrics {
            out += &format!("metric {} = {} {} (n={})\n", m.name, m.value, m.unit, m.n);
        }
        for (class, p50, n) in &self.classes {
            out += &format!("class {class}: p50 {p50:.3} ms (n={n})\n");
        }
        for l in &self.layers {
            out += &format!("layer {} = {} {} (n={}) moves {}\n", l.name, l.value, l.unit, l.n, l.moves);
        }
        for f in &self.checks.failures {
            out += &format!("FAILED {f}\n");
        }
        out
    }

    /// The full report as one JSON object.
    pub fn json(&self) -> String {
        let context: Vec<String> =
            self.context.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.n
                )
            })
            .collect();
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"moves\":{}}}",
                    json_str(l.name),
                    json_num(l.value),
                    json_str(l.unit),
                    l.n,
                    json_str(l.moves)
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"context\":{{{}}},\"metrics\":{{{}}},\"layers\":{{{}}},\"attempted\":{},\"failed\":{}}}",
            json_str(self.workload.name()),
            context.join(","),
            metrics.join(","),
            layers.join(","),
            self.checks.attempted,
            self.checks.failed
        )
    }

    /// The result line: `RESULT_METRICS` untraced, the per-layer metrics
    /// traced.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = if self.layers.is_empty() {
            RESULT_METRICS
                .iter()
                .map(|&name| {
                    let m = self.metric(name).expect("every workload reports every result metric");
                    format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), json_num(m.value), json_str(m.unit))
                })
                .collect()
        } else {
            self.layers
                .iter()
                .map(|l| {
                    format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(l.name), json_num(l.value), json_str(l.unit))
                })
                .collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

/// Configure an engine as `nepal-serve` ships it: span tracer on at 1-in-1,
/// statement statistics at 512 fingerprints, evaluator threads at the
/// default (the core count), plus the benchmark's per-query deadline. The
/// flight recorder is process-wide; [`run`] turns it on.
pub fn configure_engine(engine: &mut Engine) {
    engine.tracer.set_enabled(true);
    engine.tracer.set_sample_every(1);
    engine.enable_stmt(STMT_CAPACITY);
    engine.default_deadline = Some(QUERY_DEADLINE);
}

/// Latency percentiles and throughput of one timed phase.
#[derive(Default)]
pub struct Phase {
    /// Latency in ms of every query, by class label.
    pub by_class: std::collections::BTreeMap<String, Samples>,
    /// Latency in ms of every query.
    pub all: Samples,
    /// Wall time spent inside timed operations, seconds.
    pub busy_s: f64,
    /// Timed operations (queries and, on feed-history, deliveries).
    pub ops: usize,
}

impl Phase {
    pub fn record(&mut self, class: &str, ms: f64) {
        self.by_class.entry(class.to_string()).or_default().push(ms);
        self.all.push(ms);
        self.busy_s += ms / 1e3;
        self.ops += 1;
    }

    /// Latencies of every class whose label starts with `prefix`.
    pub fn matching(&self, prefix: &str) -> Samples {
        let mut s = Samples::default();
        for (class, v) in &self.by_class {
            if class.starts_with(prefix) {
                s.extend(v);
            }
        }
        s
    }

    pub fn classes(&self) -> Vec<(String, f64, usize)> {
        self.by_class.iter().map(|(c, s)| (c.clone(), s.median(), s.len())).collect()
    }

    /// Seconds of timed work per operation.
    pub fn per_op_s(&self) -> f64 {
        self.busy_s / self.ops.max(1) as f64
    }
}

/// The common end-to-end metrics of a workload.
pub fn common_metrics(setup: &Samples, phase: &Phase, graph: &TemporalGraph, checks: &Checks) -> Vec<Metric> {
    let live = graph.alive_count(NODE) + graph.alive_count(EDGE);
    let queries = phase.all.len();
    vec![
        Metric { name: "setup_s", value: setup.median(), unit: "s", n: setup.len() },
        Metric { name: "query_p50_ms", value: phase.all.percentile(0.5), unit: "ms", n: queries },
        Metric { name: "query_p95_ms", value: phase.all.percentile(0.95), unit: "ms", n: queries },
        Metric { name: "queries_per_s", value: queries as f64 / phase.busy_s.max(1e-9), unit: "1/s", n: queries },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB", n: 1 },
        Metric {
            name: "store_bytes_per_entity",
            value: graph.memory_report().total_bytes as f64 / live.max(1) as f64,
            unit: "B",
            n: live as usize,
        },
        Metric {
            name: "error_ratio",
            value: checks.failed as f64 / checks.attempted.max(1) as f64,
            unit: "ratio",
            n: checks.attempted as usize,
        },
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git work tree.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Context common to every workload.
pub fn base_context(cfg: &Config) -> Vec<(&'static str, String)> {
    vec![
        ("seed", cfg.seed.to_string()),
        ("git_commit", git_commit()),
        ("host_parallelism", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("evaluator_threads", nepal::rpe::resolved_threads(0).to_string()),
        (
            "observability",
            format!(
                "tracer on, sample 1-in-1; stmt stats {STMT_CAPACITY}; flight recorder on, {FLIGHT_EVENTS} events/thread"
            ),
        ),
        ("deadline_ms", QUERY_DEADLINE.as_millis().to_string()),
        ("load", "1 process, 1 client thread, closed loop".to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("traced", cfg.trace.to_string()),
    ]
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Report {
    let rec = nepal::obs::flight::recorder();
    rec.set_capacity(FLIGHT_EVENTS);
    rec.set_enabled(true);
    match cfg.workload {
        Workload::PathsNative | Workload::PathsRetarget => paths::run(cfg),
        Workload::FeedHistory => feed::run(cfg),
    }
}
