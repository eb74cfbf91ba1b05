//! The traced run: spans recorded from the benchmark's own code around the
//! calls it makes into each module's public functions, and the per-layer
//! metrics derived from them.
//!
//! A traced query runs through `Engine::query` and is then taken apart
//! from outside the engine: `parse_query` (nepal-core), `plan_rpe` per
//! range variable (nepal-rpe), then the variable's evaluation on its
//! backend — `evaluate` over a `GraphView` (nepal-rpe over nepal-graph), or
//! `Backend::eval` on the relational or Gremlin backend. The engine's self
//! time is its span minus the parse, plan and eval spans of that query,
//! which leaves joins, coexistence, result build and the observability
//! sinks.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use nepal::core::{parse_query, Backend, Cond, Engine, Head, Query, QueryResult, TimeSpec, FULL_RANGE};
use nepal::graph::{ClassHeatSnapshot, GraphView, TemporalGraph, TimeFilter};
use nepal::gremlin::ServerStats;
use nepal::rpe::{evaluate, plan_rpe, BoundAtom, CardinalityEstimator, EvalOptions, Seeds};
use nepal::schema::Schema;

use crate::stats::{json_num, json_str, Samples};

/// One recorded span. `query` is shared by every span of one query (0 for
/// spans outside any query, such as set-up and ingestion).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub query: u64,
}

/// In-memory span log plus the per-layer samples taken at the same
/// boundaries. Written out once, when the run ends.
pub struct SpanLog {
    t0: Instant,
    pub spans: Vec<Span>,
    pub samples: BTreeMap<&'static str, Samples>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { t0: Instant::now(), spans: Vec::new(), samples: BTreeMap::new() }
    }
}

impl SpanLog {
    /// Open a span; returns its id for [`SpanLog::end`] and as a parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let now = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us: now, end_us: now, parent, query });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        (span.end_us - span.start_us) / 1e6
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> Samples {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"query\":{}}}",
                json_str(s.name),
                json_num(s.start_us),
                json_num(s.end_us),
                s.query
            )?;
        }
        out.flush()
    }
}

/// Run `f`, recording it as a top-level span when traced. Returns its
/// result and duration in seconds.
pub fn time<R>(log: Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    match log {
        Some(log) => {
            let id = log.begin(name, None, 0);
            let r = f();
            (r, log.end(id))
        }
        None => {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_secs_f64())
        }
    }
}

/// Anchor costing through a backend's own statistics, as the engine does.
struct BackendEstimator<'a>(&'a dyn Backend);

impl CardinalityEstimator for BackendEstimator<'_> {
    fn estimate(&self, _schema: &Schema, atom: &BoundAtom) -> f64 {
        self.0.estimate(atom)
    }
}

fn spec_filter(spec: TimeSpec) -> TimeFilter {
    match spec {
        TimeSpec::At(t) => TimeFilter::AsOf(t),
        TimeSpec::Range(a, b) => TimeFilter::Range(a, b),
    }
}

/// Every range variable of a query and of its `[Not] Exists` subqueries,
/// with the backend and time filter the engine evaluates it under.
fn variables(q: &Query, out: &mut Vec<(String, Option<String>, TimeFilter, nepal::rpe::Rpe)>) {
    let aggregate = matches!(q.head, Head::FirstTimeWhenExists | Head::LastTimeWhenExists | Head::WhenExists);
    let query_time = match (q.time, aggregate) {
        (Some(t), _) => Some(t),
        (None, true) => Some(TimeSpec::Range(FULL_RANGE.0, FULL_RANGE.1)),
        (None, false) => None,
    };
    for s in &q.sources {
        let filter = s.time.or(query_time).map_or(TimeFilter::Current, spec_filter);
        if let Some(rpe) = q.matches_of(&s.var) {
            out.push((s.var.clone(), s.backend.clone(), filter, rpe.clone()));
        }
    }
    for c in &q.conds {
        if let Cond::Exists { query, .. } = c {
            variables(query, out);
        }
    }
}

fn heat_totals(g: &TemporalGraph) -> ClassHeatSnapshot {
    g.heat_snapshot().into_iter().fold(ClassHeatSnapshot::default(), |mut acc, h| {
        acc.scan_rows += h.scan_rows;
        acc.materializations += h.materializations;
        acc.keyframe_hits += h.keyframe_hits;
        acc
    })
}

/// Run one query the traced way (see the module docs) and return the
/// engine's answer. The engine goes first, so that its span sees the same
/// cache state as an untraced query; the direct calls then repeat the
/// work layer by layer. `graph` is the native store; `gremlin` the server
/// behind the `gremlin` backend, if any.
pub fn traced_query(
    engine: &mut Engine,
    graph: &TemporalGraph,
    gremlin: Option<&ServerStats>,
    text: &str,
    qid: u64,
    tr: &mut SpanLog,
) -> Result<QueryResult, String> {
    let root = tr.begin("query", None, qid);
    let heat0 = heat_totals(graph);
    let span = tr.begin("core.Engine::query", Some(root), qid);
    let result = engine.query(text);
    let total = tr.end(span);
    let heat1 = heat_totals(graph);
    let span = tr.begin("core.parse_query", Some(root), qid);
    let parsed = parse_query(text);
    let mut inner = tr.end(span);
    tr.sample("core.parse_us", inner * 1e6);
    let result = result.map_err(|e| e.to_string())?;
    let q = parsed.map_err(|e| e.to_string())?;
    let mut vars = Vec::new();
    variables(&q, &mut vars);
    let opts = EvalOptions::default();
    for (_var, backend, filter, rpe) in vars {
        let name = backend.as_deref();
        let be = engine.registry.get(name).map_err(|e| e.to_string())?;
        let span = tr.begin("rpe.plan_rpe", Some(root), qid);
        let plan = plan_rpe(be.schema(), &rpe, &BackendEstimator(be)).map_err(|e| e.to_string())?;
        let d = tr.end(span);
        inner += d;
        tr.sample("rpe.plan_us", d * 1e6);
        match be.kind() {
            "native" => {
                let span = tr.begin("rpe.evaluate", Some(root), qid);
                let paths = evaluate(&GraphView::new(graph, filter), &plan, Seeds::Anchor, &opts);
                let d = tr.end(span);
                inner += d;
                tr.sample("rpe.eval_ms", d * 1e3);
                tr.sample("rpe.pathways", paths.len() as f64);
            }
            "relational" => {
                let be = engine.registry.get_mut(name).map_err(|e| e.to_string())?;
                let span = tr.begin("relational.eval", Some(root), qid);
                be.eval(&plan, filter, Seeds::Anchor, &opts).map_err(|e| e.to_string())?;
                let d = tr.end(span);
                inner += d;
                tr.sample("relational.eval_ms", d * 1e3);
                tr.sample("relational.sql_statements", be.last_generated().len() as f64);
            }
            _ => {
                let wire = |s: Option<&ServerStats>| {
                    s.map_or((0, 0), |s| {
                        (
                            s.requests.load(Ordering::SeqCst),
                            s.bytes_received.load(Ordering::SeqCst) + s.bytes_sent.load(Ordering::SeqCst),
                        )
                    })
                };
                let be = engine.registry.get_mut(name).map_err(|e| e.to_string())?;
                let before = wire(gremlin);
                let span = tr.begin("gremlin.eval", Some(root), qid);
                be.eval(&plan, filter, Seeds::Anchor, &opts).map_err(|e| e.to_string())?;
                let d = tr.end(span);
                let after = wire(gremlin);
                inner += d;
                tr.sample("gremlin.eval_ms", d * 1e3);
                tr.sample("gremlin.round_trips", (after.0 - before.0) as f64);
                tr.sample("gremlin.wire_bytes", (after.1 - before.1) as f64);
            }
        }
    }
    tr.end(root);
    tr.sample("core.self_ms", (total - inner) * 1e3);
    let mat = (heat1.materializations - heat0.materializations) as f64;
    let kf = (heat1.keyframe_hits - heat0.keyframe_hits) as f64;
    tr.sample("graph.version_reads", mat + kf);
    tr.sample("graph.materializations", mat);
    tr.sample("graph.scan_rows", (heat1.scan_rows - heat0.scan_rows) as f64);
    tr.sample("graph.result_rows", result.rows.len() as f64);
    Ok(result)
}

/// One per-layer metric of the traced run: its value, unit, and the
/// end-to-end metric and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub moves: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold the traced run's samples into the per-layer metrics. A layer the
/// workload bypasses reports 0 with n = 0.
pub fn layer_metrics(tr: &SpanLog, overhead_pct: f64) -> Vec<LayerMetric> {
    let med = |name: &str| tr.get(name).median();
    let mean = |name: &str| tr.get(name).mean();
    let sum = |name: &str| tr.get(name).sum();
    let n = |name: &str| tr.get(name).len();
    let m = |name, value, unit, n, moves| LayerMetric { name, value, unit, n, moves };
    let mat = sum("graph.materializations");
    let reads = sum("graph.version_reads");
    vec![
        m("core.parse_us", med("core.parse_us"), "us", n("core.parse_us"), "query_p50_ms on paths-native"),
        m("core.self_ms", med("core.self_ms"), "ms", n("core.self_ms"), "query_p50_ms on paths-native (join queries)"),
        m("core.publish_us", med("core.publish_us"), "us", n("core.publish_us"), "ingest_day_p50_ms on feed-history"),
        m("rpe.plan_us", med("rpe.plan_us"), "us", n("rpe.plan_us"), "query_p50_ms on paths-native"),
        m(
            "rpe.eval_ms",
            med("rpe.eval_ms"),
            "ms",
            n("rpe.eval_ms"),
            "query_p95_ms on paths-native, query_p50_ms on feed-history",
        ),
        m(
            "rpe.pathways",
            mean("rpe.pathways"),
            "count",
            n("rpe.pathways"),
            "query_p95_ms on paths-native, query_p50_ms on feed-history",
        ),
        m(
            "graph.version_reads",
            mean("graph.version_reads"),
            "count",
            n("graph.version_reads"),
            "query_p95_ms (AT and range scopes) on paths-native",
        ),
        m(
            "graph.materialized_ratio",
            ratio(mat, reads),
            "ratio",
            n("graph.version_reads"),
            "query_p95_ms (AT and range scopes) on paths-native",
        ),
        m(
            "graph.scan_rows_per_row",
            ratio(sum("graph.scan_rows"), sum("graph.result_rows")),
            "ratio",
            n("graph.scan_rows"),
            "query_p50_ms on feed-history",
        ),
        m(
            "graph.binsnap_load_s",
            med("graph.binsnap_load_s"),
            "s",
            n("graph.binsnap_load_s"),
            "setup_s on paths-native and paths-retarget",
        ),
        m("graph.apply_ms", med("graph.apply_ms"), "ms", n("graph.apply_ms"), "ingest_day_p50_ms on feed-history"),
        m(
            "graph.rows_diffed",
            mean("graph.rows_diffed"),
            "count",
            n("graph.rows_diffed"),
            "ingest_day_p50_ms on feed-history",
        ),
        m(
            "graph.rows_changed",
            mean("graph.rows_changed"),
            "count",
            n("graph.rows_changed"),
            "ingest_day_p50_ms on feed-history",
        ),
        m(
            "graph.changed_ratio",
            ratio(sum("graph.rows_changed"), sum("graph.rows_diffed")),
            "ratio",
            n("graph.rows_diffed"),
            "ingest_day_p50_ms on feed-history",
        ),
        m(
            "graph.bytes_per_changed_row",
            ratio(sum("graph.bytes_added"), sum("graph.rows_changed")),
            "B",
            n("graph.bytes_added"),
            "store_bytes_per_entity on feed-history",
        ),
        m("relational.build_s", med("relational.build_s"), "s", n("relational.build_s"), "setup_s on paths-retarget"),
        m(
            "relational.eval_ms",
            med("relational.eval_ms"),
            "ms",
            n("relational.eval_ms"),
            "pg_query_p50_ms and pg_query_p95_ms on paths-retarget",
        ),
        m(
            "relational.sql_statements",
            mean("relational.sql_statements"),
            "count",
            n("relational.sql_statements"),
            "pg_query_p50_ms and pg_query_p95_ms on paths-retarget",
        ),
        m("gremlin.build_s", med("gremlin.build_s"), "s", n("gremlin.build_s"), "setup_s on paths-retarget"),
        m(
            "gremlin.eval_ms",
            med("gremlin.eval_ms"),
            "ms",
            n("gremlin.eval_ms"),
            "gremlin_query_p50_ms and gremlin_query_p95_ms on paths-retarget",
        ),
        m(
            "gremlin.round_trips",
            mean("gremlin.round_trips"),
            "count",
            n("gremlin.round_trips"),
            "gremlin_query_p50_ms and gremlin_query_p95_ms on paths-retarget",
        ),
        m(
            "gremlin.wire_bytes",
            mean("gremlin.wire_bytes"),
            "B",
            n("gremlin.wire_bytes"),
            "gremlin_query_p50_ms and gremlin_query_p95_ms on paths-retarget",
        ),
        m("bench.trace_overhead_pct", overhead_pct, "%", 1, "none: the traced run's cost over the untraced run"),
    ]
}
