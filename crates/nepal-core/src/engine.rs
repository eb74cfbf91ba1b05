//! The Nepal query engine.
//!
//! Executes parsed queries against the backend registry:
//!
//! 1. Plan each range variable's RPE (anchor selection uses the owning
//!    backend's statistics, §5.1).
//! 2. Order variables by anchor cost; a variable whose own anchor is
//!    expensive *imports* its anchor from a join — "while range variable
//!    Phys does not have explicit anchors, they are provided by the joins
//!    against the anchored range variables D1 and D2" (§3.4).
//! 3. Hash-join the per-variable pathway sets on the Where-clause equality
//!    conditions, possibly across different backends (data integration).
//! 4. Apply temporal semantics: query-level `AT a : b` requires all
//!    coexisting results and reports the maximal joint assertion range;
//!    per-variable `(@t)` scopes are independent (§4).
//! 5. Evaluate `[Not] Exists` subqueries by decorrelation (inner query runs
//!    once; correlated equalities become an anti-/semi-join).
//! 6. Post-process the head: `Retrieve` returns pathways, `Select` runs the
//!    result-processing layer, and the §4 temporal aggregates fold the
//!    joint interval sets.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use nepal_graph::{FxHashMap, Interval, IntervalSet, TimeFilter, Uid};
use nepal_obs::qlog::Fnv64;
use nepal_obs::{
    fingerprint, AnchorCandidate, EstimateFeedback, JoinStep, MetricsRegistry, PlanFeedback, QlogRecord, QueryLog,
    QueryProfile, ResourceMeter, SloEngine, SloRule, SlowQueryLog, SpanHandle, StmtOutcome, StmtStats, Tracer,
    VarProfile,
};
use nepal_rpe::{
    plan_rpe_threads, resolved_threads, BoundAtom, CancelCause, CancelToken, CardinalityEstimator, EvalOptions,
    Pathway, RpePlan, Seeds,
};
use nepal_schema::{Schema, Ts, Value};

use crate::ast::{AggFn, Cond, Expr, Head, PathFn, QCmp, Query, SelectItem, TimeSpec};
use crate::backend::{Backend, BackendRegistry};
use crate::error::{NepalError, Result};
use crate::parser::parse_query;

/// Full-history probe range used by temporal aggregates when the query has
/// no explicit `AT` clause.
pub const FULL_RANGE: (Ts, Ts) = (i64::MIN / 4, i64::MAX / 4);

/// One result row.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Pathway bindings in source-declaration order.
    pub pathways: Vec<(String, Pathway)>,
    /// `Select` output values (empty for `Retrieve`).
    pub values: Vec<Value>,
    /// Joint maximal assertion ranges (range queries and aggregates).
    pub times: Option<IntervalSet>,
}

/// A query result.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<ResultRow>,
}

impl QueryResult {
    /// Pathways bound to a variable across all rows (deduplicated).
    pub fn pathways_of(&self, var: &str) -> Vec<&Pathway> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in &self.rows {
            for (v, p) in &row.pathways {
                if v == var && seen.insert(&p.elems) {
                    out.push(p);
                }
            }
        }
        out
    }
}

struct BackendEstimator<'a>(&'a dyn Backend);

impl CardinalityEstimator for BackendEstimator<'_> {
    fn estimate(&self, _schema: &Schema, atom: &BoundAtom) -> f64 {
        self.0.estimate(atom)
    }
}

/// Thresholds for [`Engine::install_standard_slos`]. The defaults suit an
/// interactive inventory store: 50ms p99, 1% errors, 1GiB store heap,
/// planner q-error within 64×.
#[derive(Debug, Clone)]
pub struct StandardSlos {
    pub max_p99_ns: u64,
    pub max_error_ratio: f64,
    pub max_store_bytes: i64,
    pub max_qerror: f64,
}

impl Default for StandardSlos {
    fn default() -> StandardSlos {
        StandardSlos { max_p99_ns: 50_000_000, max_error_ratio: 0.01, max_store_bytes: 1 << 30, max_qerror: 64.0 }
    }
}

/// The engine: a backend registry plus the query pipeline.
pub struct Engine {
    pub registry: BackendRegistry,
    /// Options applied to every RPE evaluation. When
    /// [`EvalOptions::cancel`] is set here it acts as a *session/server
    /// parent token*: each query gets a fresh child of it, so cancelling
    /// the parent (REPL `:cancel`, server drain) trips every in-flight and
    /// future query while [`Engine::default_deadline`] still applies
    /// per-query.
    pub eval_options: EvalOptions,
    /// Per-query deadline applied to every query as a fresh child token
    /// (`None` = unbounded). A tripped deadline surfaces as
    /// [`NepalError::DeadlineExceeded`].
    pub default_deadline: Option<std::time::Duration>,
    /// Engine-level metrics: query counts, latency histograms, slow-log
    /// depth. Render with [`MetricsRegistry::render_prometheus`]. Shared
    /// (`Arc`) so a telemetry endpoint can serve it concurrently.
    pub metrics: Arc<MetricsRegistry>,
    /// Ring buffer of recent queries slower than its threshold.
    pub slow_log: Arc<SlowQueryLog>,
    /// Span tracer: every `query` call becomes a hierarchical trace when
    /// enabled; when disabled the whole span machinery is a no-op.
    pub tracer: Tracer,
    /// Durable query log (JSONL, bounded rotation). `None` — the default —
    /// leaves the unprofiled hot path untouched: no clock reads beyond the
    /// existing latency pair, no hashing, no I/O.
    pub qlog: Option<Arc<QueryLog>>,
    /// Per-fingerprint planner estimate-vs-actual aggregate. Fed by every
    /// profiled execution (and by every query while the qlog is enabled);
    /// exports q-error metrics into [`Engine::metrics`].
    pub feedback: Arc<EstimateFeedback>,
    /// Per-fingerprint statement statistics (cost attribution). While
    /// enabled, every [`Engine::query`] runs through the profiled path
    /// with a [`ResourceMeter`] attached, and each query's wall / CPU /
    /// row / byte totals are folded into its fingerprint's entry. `None`
    /// — the default — adds one `Option` check to the hot path.
    pub stmt: Option<Arc<StmtStats>>,
    /// Meter of the query currently executing: created by the outermost
    /// profiled `execute_inner` and shared with nested sub-executions
    /// (views, decorrelated EXISTS), so their scans are charged to the
    /// outer query. Taken (and cleared) by the caller that created it.
    cur_meter: Option<Arc<ResourceMeter>>,
    /// Named pathway views (§3.4: "Additional views can be defined").
    views: HashMap<String, Query>,
    view_depth: u8,
    /// Chosen anchor of the most recently planned variable — carried into
    /// the flight recorder's `query_end` wide event.
    last_anchor: String,
}

struct VarEval {
    var: String,
    backend: Option<String>,
    filter: TimeFilter,
    /// Participates in the query-level joint coexistence requirement.
    joint: bool,
    /// `None` for view-sourced variables (pathways pre-materialized).
    plan: Option<RpePlan>,
    pathways: Vec<Pathway>,
    /// Pathways already filled in (view variables).
    prefilled: bool,
}

fn spec_to_filter(spec: &TimeSpec) -> TimeFilter {
    match spec {
        TimeSpec::At(t) => TimeFilter::AsOf(*t),
        TimeSpec::Range(a, b) => TimeFilter::Range(*a, *b),
    }
}

/// Rate-limited cancellation poll for the engine's own join/coexistence
/// loops: polls the token once per `mask`+1 calls.
#[inline]
fn poll_every(cancel: &Option<CancelToken>, ctr: &mut u64, mask: u64) -> Option<CancelCause> {
    let tok = cancel.as_ref()?;
    *ctr = ctr.wrapping_add(1);
    if *ctr & mask != 0 {
        return None;
    }
    tok.poll()
}

fn cancel_to_err(cause: CancelCause) -> NepalError {
    match cause {
        CancelCause::Deadline => NepalError::DeadlineExceeded,
        CancelCause::Explicit => NepalError::Cancelled,
    }
}

/// Poll frequency for the engine's row loops (joins, coexistence).
const ENGINE_CANCEL_MASK: u64 = 0x3FF; // every 1024 rows

impl Engine {
    pub fn new(registry: BackendRegistry) -> Engine {
        let metrics = Arc::new(MetricsRegistry::new());
        let feedback = Arc::new(EstimateFeedback::with_metrics(&metrics));
        Engine {
            registry,
            eval_options: EvalOptions::default(),
            default_deadline: None,
            metrics,
            slow_log: Arc::new(SlowQueryLog::default()),
            tracer: Tracer::new(),
            qlog: None,
            feedback,
            stmt: None,
            cur_meter: None,
            views: HashMap::new(),
            view_depth: 0,
            last_anchor: String::new(),
        }
    }

    /// Open (or create, appending) a durable query log at `path`, rotating
    /// once the live file exceeds `max_bytes` and keeping `max_files`
    /// rotated generations. While enabled, every [`Engine::query`] runs
    /// through the profiled path so the log carries per-operator actuals.
    pub fn enable_qlog(
        &mut self,
        path: impl AsRef<std::path::Path>,
        max_bytes: u64,
        max_files: usize,
    ) -> std::io::Result<()> {
        self.qlog = Some(Arc::new(QueryLog::open(path, max_bytes, max_files)?));
        Ok(())
    }

    /// Close the durable query log, restoring the zero-overhead hot path.
    pub fn disable_qlog(&mut self) {
        self.qlog = None;
    }

    /// Enable per-fingerprint statement statistics, bounded at `capacity`
    /// tracked fingerprints (LRU eviction beyond that). Returns the shared
    /// table so a telemetry endpoint can serve `/top` from it.
    pub fn enable_stmt(&mut self, capacity: usize) -> Arc<StmtStats> {
        let stats = Arc::new(StmtStats::new(capacity));
        self.stmt = Some(stats.clone());
        stats
    }

    /// Disable statement statistics, restoring the unprofiled hot path.
    pub fn disable_stmt(&mut self) {
        self.stmt = None;
    }

    /// Build an [`SloEngine`] over this engine's metrics with the standard
    /// rule set:
    ///
    /// - `query-latency-p99` — windowed p99 of `nepal_query_duration_ns`
    ///   at most `slos.max_p99_ns`;
    /// - `query-error-rate` — `nepal_query_errors_total` over
    ///   `nepal_queries_total` at most `slos.max_error_ratio` per window;
    /// - `store-memory` — `nepal_store_total_bytes` watermark at most
    ///   `slos.max_store_bytes` (kept current by a `StoreGauges`
    ///   refresher);
    /// - `planner-qerror` — worst per-fingerprint q-error from
    ///   [`Engine::feedback`] at most `slos.max_qerror`.
    ///
    /// Pull-time evaluation only: hand the result to
    /// `Telemetry::set_slo` (and/or call `evaluate()` yourself); nothing
    /// here spawns a thread.
    pub fn install_standard_slos(&self, slos: &StandardSlos) -> Arc<SloEngine> {
        let engine = Arc::new(SloEngine::new(self.metrics.clone()));
        engine.add(SloRule::latency("query-latency-p99", "nepal_query_duration_ns", 0.99, slos.max_p99_ns));
        engine.add(SloRule::error_rate(
            "query-error-rate",
            "nepal_query_errors_total",
            "nepal_queries_total",
            slos.max_error_ratio,
        ));
        engine.add(SloRule::gauge_max("store-memory", "nepal_store_total_bytes", slos.max_store_bytes));
        let feedback = self.feedback.clone();
        engine.add(SloRule::probe("planner-qerror", slos.max_qerror, move || {
            feedback.top(1).first().map(|s| s.max_qerror).unwrap_or(0.0)
        }));
        engine
    }

    /// Register a named pathway view: a stored query whose first retrieved
    /// variable supplies the pathways when the view is ranged over
    /// (`Retrieve V From myview V Where …`).
    pub fn define_view(&mut self, name: impl Into<String>, query_text: &str) -> Result<()> {
        let q = parse_query(query_text)?;
        match &q.head {
            Head::Retrieve(vars) if !vars.is_empty() => {}
            _ => return Err(NepalError::Unsupported("a view must be a Retrieve query".into())),
        }
        self.views.insert(name.into(), q);
        Ok(())
    }

    /// Parse and execute a query, recording engine metrics. When the
    /// engine's tracer is enabled, the whole call becomes one hierarchical
    /// trace (parse → plan → execute, down to backend operator spans).
    ///
    /// With the durable query log or statement statistics enabled, every
    /// query takes the profiled path — the log needs per-operator actuals
    /// and the stats table needs the resource meter. When both are off
    /// (the default) this costs two `Option` checks.
    pub fn query(&mut self, text: &str) -> Result<QueryResult> {
        let profiled = self.qlog.is_some() || self.stmt.is_some();
        self.run(text, profiled).map(|(r, _)| r)
    }

    /// Parse and execute a query with full profiling (the `EXPLAIN ANALYZE`
    /// path): phase timings, anchor candidates, per-operator statistics.
    pub fn query_profiled(&mut self, text: &str) -> Result<(QueryResult, QueryProfile)> {
        self.run(text, true)
    }

    /// The query pipeline behind [`Engine::query`] and
    /// [`Engine::query_profiled`]: flight events, the trace root, the parse
    /// span, engine metrics and cancellation counters for every query; the
    /// profile, resource meter, statement stats, estimate feedback and
    /// query log only when `profiled`. Unprofiled, the returned profile is
    /// empty.
    fn run(&mut self, text: &str, profiled: bool) -> Result<(QueryResult, QueryProfile)> {
        if nepal_obs::flight::recorder().is_enabled() {
            nepal_obs::flight::emit(nepal_obs::FlightKind::QueryStart, fingerprint(text), 0, 0, "");
        }
        let root = self.tracer.start_trace(text);
        let trace_id = root.trace_id();
        let t0 = Instant::now();
        let parse_span = root.child("parse");
        let parsed = parse_query(text);
        drop(parse_span);
        let parse_ns = if profiled { t0.elapsed().as_nanos() as u64 } else { 0 };
        let mut profile = QueryProfile::default();
        let result = parsed.and_then(|q| self.execute_inner(&q, profiled.then_some(&mut profile), &root));
        let total_ns = t0.elapsed().as_nanos() as u64;
        if let Ok(r) = &result {
            root.attr("rows", r.rows.len());
        }
        self.record_query_metrics(text, total_ns, result.as_ref().ok().map(|r| r.rows.len() as u64), trace_id);
        // Only a profiled outermost execution creates a meter.
        let meter_snap = self.cur_meter.take().map(|m| m.snapshot());
        let threads = resolved_threads(self.eval_options.threads) as u64;
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.note_cancellation_metrics(&e);
                if let Some(stmt) = &self.stmt {
                    let outcome = match &e {
                        NepalError::DeadlineExceeded => StmtOutcome::Deadline,
                        NepalError::Cancelled => StmtOutcome::Cancelled,
                        _ => StmtOutcome::Error,
                    };
                    stmt.record(fingerprint(text), text, outcome, total_ns, 0, meter_snap.as_ref());
                }
                if let Some(qlog) = &self.qlog {
                    let mut rec = QlogRecord::for_error(text, total_ns, &e.to_string(), trace_id, threads);
                    rec.ts_ms = unix_ms();
                    rec.parse_ns = parse_ns;
                    self.feedback.observe(&rec);
                    qlog.append(&rec);
                }
                return Err(e);
            }
        };
        if !profiled {
            return Ok((result, profile));
        }
        profile.query = text.to_string();
        profile.parse_ns = parse_ns;
        profile.total_ns = total_ns;
        profile.result_rows = result.rows.len() as u64;
        profile.meter = meter_snap;
        if let Some(stmt) = &self.stmt {
            stmt.record(
                fingerprint(text),
                text,
                StmtOutcome::Ok,
                total_ns,
                result.rows.len() as u64,
                meter_snap.as_ref(),
            );
        }
        let rec = QlogRecord {
            ts_ms: if self.qlog.is_some() { unix_ms() } else { 0 },
            query: text.to_string(),
            fingerprint: fingerprint(text),
            trace_id,
            threads,
            parse_ns,
            plan_ns: profile.plan_ns,
            exec_ns: profile.exec_ns,
            total_ns,
            rows: result.rows.len() as u64,
            digest: digest_result(&result),
            error: None,
            feedback: PlanFeedback::from_profile(&profile),
        };
        self.feedback.observe(&rec);
        if let Some(qlog) = &self.qlog {
            qlog.append(&rec);
        }
        Ok((result, profile))
    }

    /// Count cancellation outcomes so the serving layer's shed/cancel rates
    /// are observable (`nepal_query_deadline_total` /
    /// `nepal_query_cancelled_total`).
    fn note_cancellation_metrics(&self, e: &NepalError) {
        match e {
            NepalError::DeadlineExceeded => {
                self.metrics
                    .counter("nepal_query_deadline_total", "Queries abandoned because their deadline passed")
                    .inc();
                nepal_obs::flight::emit(nepal_obs::FlightKind::DeadlineTrip, 0, 0, 0, "engine");
            }
            NepalError::Cancelled => {
                self.metrics.counter("nepal_query_cancelled_total", "Queries abandoned by explicit cancellation").inc();
                nepal_obs::flight::emit(nepal_obs::FlightKind::CancelTrip, 0, 0, 0, "engine");
            }
            _ => {}
        }
    }

    fn record_query_metrics(&mut self, text: &str, total_ns: u64, rows: Option<u64>, trace_id: Option<u64>) {
        self.metrics.counter("nepal_queries_total", "Queries executed").inc();
        if nepal_obs::flight::recorder().is_enabled() {
            let fp = fingerprint(text);
            match rows {
                Some(n) => {
                    nepal_obs::flight::emit(nepal_obs::FlightKind::QueryEnd, fp, total_ns / 1_000, n, &self.last_anchor)
                }
                None => nepal_obs::flight::emit(nepal_obs::FlightKind::QueryError, fp, total_ns / 1_000, 0, ""),
            }
        }
        match rows {
            Some(n) => {
                self.metrics.histogram("nepal_query_duration_ns", "Query latency in nanoseconds").observe(total_ns);
                self.metrics.histogram("nepal_query_result_rows", "Result rows per query").observe(n);
                self.slow_log.record_traced(text, total_ns, n, trace_id);
                let len = self.slow_log.len() as i64;
                self.metrics.gauge("nepal_slow_log_len", "Entries in the slow-query log").set(len);
            }
            None => {
                self.metrics.counter("nepal_query_errors_total", "Queries that returned an error").inc();
            }
        }
    }

    /// Execute a parsed query outside the query pipeline: no query
    /// metrics, trace or profile. Used for views, decorrelated `EXISTS`
    /// subqueries and the REPL.
    pub fn execute(&mut self, q: &Query) -> Result<QueryResult> {
        self.execute_inner(q, None, &SpanHandle::none())
    }

    fn execute_inner(
        &mut self,
        q: &Query,
        mut profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
    ) -> Result<QueryResult> {
        // Per-query cancellation: a fresh child of the session/server
        // parent token (if any) carrying the engine's default deadline.
        // A child per query avoids the one-shot-expired-token bug — the
        // deadline clock starts at query start, not engine construction.
        let mut qopts = self.eval_options.clone();
        qopts.cancel = match (&self.eval_options.cancel, self.default_deadline) {
            (None, None) => None,
            (Some(parent), deadline) => Some(parent.child(deadline)),
            (None, Some(deadline)) => Some(CancelToken::with_deadline(deadline)),
        };
        // Resource metering: the outermost profiled call creates the
        // query's meter; nested sub-executions (views, EXISTS) find it
        // already present and share it, charging their work to the outer
        // query. The creator takes it back via `cur_meter.take()`.
        if self.cur_meter.is_none() && profile.is_some() {
            self.cur_meter = Some(ResourceMeter::new());
        }
        qopts.meter = self.cur_meter.clone();
        qopts.metrics = Some(self.metrics.clone());
        let qopts = qopts;
        let mut cancel_ctr = 0u64;

        let aggregate = matches!(q.head, Head::FirstTimeWhenExists | Head::LastTimeWhenExists | Head::WhenExists);
        // Temporal aggregates need interval sets: default to the full
        // history range when no AT clause is present.
        let query_time = match (&q.time, aggregate) {
            (Some(t), _) => Some(*t),
            (None, true) => Some(TimeSpec::Range(FULL_RANGE.0, FULL_RANGE.1)),
            (None, false) => None,
        };

        // --- per-variable planning ---
        let threads = resolved_threads(self.eval_options.threads);
        let profiled = profile.is_some();
        let tplan_phase = profiled.then(Instant::now);
        let plan_span = span.child("plan");
        let mut evals: Vec<VarEval> = Vec::new();
        for s in &q.sources {
            let (filter, joint) = match (&s.time, &query_time) {
                (Some(t), _) => (spec_to_filter(t), false),
                (None, Some(t)) => (spec_to_filter(t), matches!(t, TimeSpec::Range(_, _))),
                (None, None) => (TimeFilter::Current, false),
            };
            if let Some(view_name) = &s.view {
                // Materialize the view (recursively, with a depth guard).
                let vq = self
                    .views
                    .get(view_name)
                    .cloned()
                    .ok_or_else(|| NepalError::UnknownBackend(format!("view `{view_name}`")))?;
                if self.view_depth >= 8 {
                    return Err(NepalError::Unsupported("view recursion too deep".into()));
                }
                self.view_depth += 1;
                let result = self.execute(&vq);
                self.view_depth -= 1;
                let result = result?;
                let first_var = match &vq.head {
                    Head::Retrieve(vars) => vars[0].clone(),
                    _ => unreachable!("define_view enforces Retrieve"),
                };
                let pathways: Vec<Pathway> = result.pathways_of(&first_var).into_iter().cloned().collect();
                if let Some(p) = profile.as_deref_mut() {
                    p.vars.push(VarProfile {
                        var: s.var.clone(),
                        backend: format!("view `{view_name}`"),
                        pathways: pathways.len() as u64,
                        ..Default::default()
                    });
                }
                evals.push(VarEval {
                    var: s.var.clone(),
                    backend: s.backend.clone(),
                    filter,
                    joint,
                    plan: None,
                    pathways,
                    prefilled: true,
                });
                continue;
            }
            let rpe = q.matches_of(&s.var).ok_or_else(|| NepalError::NoMatches(s.var.clone()))?;
            let backend = self.registry.get(s.backend.as_deref())?;
            let tplan = profiled.then(Instant::now);
            let var_span = plan_span.child(&format!("plan:{}", s.var));
            let plan = plan_rpe_threads(backend.schema(), rpe, &BackendEstimator(backend), &var_span, threads)?;
            var_span.attr("anchor_cost", format!("{:.1}", plan.anchor.cost));
            if nepal_obs::flight::recorder().is_enabled() {
                self.last_anchor = plan.anchor_desc(&plan.anchor);
            }
            drop(var_span);
            if let Some(p) = profile.as_deref_mut() {
                let anchors = plan
                    .candidates
                    .iter()
                    .map(|set| AnchorCandidate {
                        desc: plan.anchor_desc(set),
                        cost: set.cost,
                        chosen: set.atoms == plan.anchor.atoms && set.cost == plan.anchor.cost,
                    })
                    .collect();
                p.vars.push(VarProfile {
                    var: s.var.clone(),
                    backend: s.backend.clone().unwrap_or_else(|| self.registry.default_name().to_string()),
                    plan_ns: tplan.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                    anchors,
                    ..Default::default()
                });
            }
            evals.push(VarEval {
                var: s.var.clone(),
                backend: s.backend.clone(),
                filter,
                joint,
                plan: Some(plan),
                pathways: Vec::new(),
                prefilled: false,
            });
        }

        drop(plan_span);
        if let (Some(p), Some(t)) = (profile.as_deref_mut(), tplan_phase) {
            p.plan_ns = t.elapsed().as_nanos() as u64;
        }
        let texec_phase = profiled.then(Instant::now);
        let exec_span = span.child("execute");

        // --- evaluation order: cheapest anchor first (views are free) ---
        let cost_of = |e: &VarEval| e.plan.as_ref().map(|p| p.anchor.cost).unwrap_or(0.0);
        let mut order: Vec<usize> = (0..evals.len()).collect();
        order.sort_by(|&a, &b| cost_of(&evals[a]).total_cmp(&cost_of(&evals[b])));

        // Equality conditions between path ends, used for anchor import.
        let end_links: Vec<(PathFn, String, PathFn, String)> = q
            .conds
            .iter()
            .filter_map(|c| match c {
                Cond::Cmp(Expr::PathEnd(fa, va), QCmp::Eq, Expr::PathEnd(fb, vb)) => {
                    Some((*fa, va.clone(), *fb, vb.clone()))
                }
                _ => None,
            })
            .collect();

        let mut evaluated: HashSet<String> = HashSet::new();
        // When the query ranges over several independent variables (no
        // anchor-import links between path ends) and there is no profiling
        // trace to thread through, fan the per-variable evaluations out
        // over scoped threads. Results are identical to the sequential
        // path — each variable's evaluation is already deterministic — only
        // wall-clock time changes. Variables on a backend that serialises
        // its own calls (the Gremlin client lock) take turns.
        let pending: Vec<usize> = order.iter().copied().filter(|&i| !evals[i].prefilled).collect();
        let fan_out = threads > 1 && !profiled && end_links.is_empty() && pending.len() >= 2;
        if fan_out {
            exec_span.attr("parallel_vars", pending.len());
            let opts = &qopts;
            let backends =
                pending.iter().map(|&i| self.registry.get(evals[i].backend.as_deref())).collect::<Result<Vec<_>>>()?;
            let mut outs: Vec<(usize, Result<Vec<Pathway>>)> = Vec::with_capacity(pending.len());
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(pending.len());
                for (&i, backend) in pending.iter().zip(backends) {
                    let e = &evals[i];
                    let var_span = exec_span.child(&format!("eval:{}", e.var));
                    var_span.attr("backend", backend.kind());
                    let plan = e.plan.as_ref().expect("non-view variables have plans");
                    let filter = e.filter;
                    handles.push((
                        i,
                        s.spawn(move || {
                            let r = backend.eval_obs(plan, filter, Seeds::Anchor, opts, None, &var_span);
                            if let Ok(p) = &r {
                                var_span.attr("pathways", p.len());
                            }
                            r
                        }),
                    ));
                }
                for (i, h) in handles {
                    match h.join() {
                        Ok(r) => outs.push((i, r)),
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }
            });
            for (i, r) in outs {
                evals[i].pathways = r?;
                evaluated.insert(evals[i].var.clone());
            }
        }
        for &i in &order {
            if evaluated.contains(&evals[i].var) {
                continue;
            }
            if evals[i].prefilled {
                evaluated.insert(evals[i].var.clone());
                continue;
            }
            let (var, filter, cost) = {
                let e = &evals[i];
                (e.var.clone(), e.filter, cost_of(e))
            };
            // Can we import an anchor from an already-evaluated variable?
            let mut seed_nodes: Option<(PathFn, Vec<Uid>)> = None;
            for (fa, va, fb, vb) in &end_links {
                let (my_end, other_end, other_var) = if *va == var && evaluated.contains(vb) {
                    (*fa, *fb, vb)
                } else if *vb == var && evaluated.contains(va) {
                    (*fb, *fa, va)
                } else {
                    continue;
                };
                let other = evals.iter().find(|e| &e.var == other_var).unwrap();
                let mut uids: Vec<Uid> = other
                    .pathways
                    .iter()
                    .map(|p| match other_end {
                        PathFn::Source => p.source(),
                        PathFn::Target => p.target(),
                    })
                    .collect();
                uids.sort_unstable();
                uids.dedup();
                match &seed_nodes {
                    Some((_, prev)) if prev.len() <= uids.len() => {}
                    _ => seed_nodes = Some((my_end, uids)),
                }
            }
            let use_seeds = match &seed_nodes {
                Some((_, uids)) => (uids.len() as f64) < cost,
                None => false,
            };
            let e = &evals[i];
            let plan = e.plan.as_ref().expect("non-view variables have plans");
            let backend = self.registry.get(e.backend.as_deref())?;
            let seeds = if use_seeds {
                let (end, uids) = seed_nodes.as_ref().unwrap();
                match end {
                    PathFn::Source => Seeds::Sources(uids),
                    PathFn::Target => Seeds::Targets(uids),
                }
            } else {
                Seeds::Anchor
            };
            let teval = profiled.then(Instant::now);
            let var_span = exec_span.child(&format!("eval:{var}"));
            var_span.attr("backend", backend.kind());
            let pathways = match profile.as_deref_mut() {
                Some(p) => backend.eval_obs(plan, filter, seeds, &qopts, Some(&mut p.vars[i].trace), &var_span)?,
                None => backend.eval_obs(plan, filter, seeds, &qopts, None, &var_span)?,
            };
            var_span.attr("pathways", pathways.len());
            drop(var_span);
            if let Some(p) = profile.as_deref_mut() {
                let vp = &mut p.vars[i];
                vp.eval_ns = teval.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
                vp.imported_seeds = use_seeds.then(|| seed_nodes.as_ref().unwrap().1.len() as u64);
                vp.pathways = pathways.len() as u64;
                vp.generated = backend.last_generated();
            }
            let e = &mut evals[i];
            e.pathways = pathways;
            evaluated.insert(var);
        }
        drop(exec_span);

        // --- unary filters (conditions touching a single variable) ---
        let singles: Vec<&Cond> = q
            .conds
            .iter()
            .filter(|c| match c {
                Cond::Cmp(a, _, b) => {
                    let mut vars: Vec<&str> = a.vars();
                    vars.extend(b.vars());
                    vars.sort();
                    vars.dedup();
                    vars.len() == 1
                }
                _ => false,
            })
            .collect();
        for cond in &singles {
            if let Cond::Cmp(a, op, b) = cond {
                let var = a.vars().first().copied().unwrap_or_else(|| b.vars()[0]).to_string();
                let idx = evals.iter().position(|e| e.var == var).unwrap();
                let filter = evals[idx].filter;
                let backend_name = evals[idx].backend.clone();
                let pathways = std::mem::take(&mut evals[idx].pathways);
                let mut kept = Vec::new();
                for p in pathways {
                    if let Some(cause) = poll_every(&qopts.cancel, &mut cancel_ctr, ENGINE_CANCEL_MASK) {
                        return Err(cancel_to_err(cause));
                    }
                    let binding = vec![(var.clone(), &p)];
                    let lhs = self.eval_expr(a, &binding, filter, backend_name.as_deref())?;
                    let rhs = self.eval_expr(b, &binding, filter, backend_name.as_deref())?;
                    let eq = lhs == rhs;
                    if (*op == QCmp::Eq && eq) || (*op == QCmp::Ne && !eq) {
                        kept.push(p);
                    }
                }
                evals[idx].pathways = kept;
            }
        }

        // --- join across variables ---
        // Rows are index vectors aligned with `evals`.
        let mut rows: Vec<Vec<usize>> = vec![vec![usize::MAX; evals.len()]];
        let mut joined: HashSet<usize> = HashSet::new();
        let binary_conds: Vec<&Cond> = q
            .conds
            .iter()
            .filter(|c| match c {
                Cond::Cmp(a, _, b) => {
                    let mut vars: Vec<&str> = a.vars();
                    vars.extend(b.vars());
                    vars.sort();
                    vars.dedup();
                    vars.len() == 2
                }
                _ => false,
            })
            .collect();

        let join_phase_span = span.child("join");
        for &i in &order {
            let tjoin = profiled.then(Instant::now);
            let join_span = join_phase_span.child(&format!("join:{}", evals[i].var));
            let probe_rows = rows.len() as u64;
            let mut next_rows = Vec::new();
            // Conditions applicable once var i joins.
            let applicable: Vec<&&Cond> = binary_conds
                .iter()
                .filter(|c| {
                    if let Cond::Cmp(a, _, b) = c {
                        let mut vars: Vec<&str> = a.vars();
                        vars.extend(b.vars());
                        vars.iter().any(|v| *v == evals[i].var)
                            && vars.iter().all(|v| *v == evals[i].var || joined.iter().any(|&j| evals[j].var == **v))
                    } else {
                        false
                    }
                })
                .collect();
            // Hash-join fast path: when every applicable condition is a
            // `source/target(X) = source/target(Y)` equality, build a hash
            // table over the joining variable's pathway ends and probe it
            // per row instead of testing the cross product. Emission order
            // (rows outer, pathway index ascending inner) matches the
            // nested loop exactly.
            let mut key_specs: Vec<(PathFn, PathFn, usize)> = Vec::new(); // (my end, other end, other idx)
            let hashable = !applicable.is_empty()
                && applicable.iter().all(|c| {
                    if let Cond::Cmp(Expr::PathEnd(fa, va), QCmp::Eq, Expr::PathEnd(fb, vb)) = **c {
                        let spec = if *va == evals[i].var {
                            evals.iter().position(|e| e.var == *vb).map(|j| (*fa, *fb, j))
                        } else if *vb == evals[i].var {
                            evals.iter().position(|e| e.var == *va).map(|j| (*fb, *fa, j))
                        } else {
                            None
                        };
                        if let Some(s) = spec {
                            key_specs.push(s);
                            return true;
                        }
                    }
                    false
                });
            if hashable {
                join_span.attr("strategy", "hash");
                let end_of = |p: &Pathway, f: PathFn| match f {
                    PathFn::Source => p.source().0,
                    PathFn::Target => p.target().0,
                };
                // Build keys (in parallel for large pathway sets), then the
                // table: key → ascending pathway indices.
                let build = &evals[i].pathways;
                let extract = |p: &Pathway| -> Vec<u64> { key_specs.iter().map(|&(my, _, _)| end_of(p, my)).collect() };
                let keys: Vec<Vec<u64>> = if threads > 1 && build.len() >= 4096 {
                    let (keys, _, _) =
                        nepal_rpe::par::run_jobs(build.len(), threads, false, |_| (), |_, j| extract(&build[j]));
                    keys
                } else {
                    build.iter().map(extract).collect()
                };
                let mut table: FxHashMap<Vec<u64>, Vec<usize>> = FxHashMap::default();
                for (pi, k) in keys.into_iter().enumerate() {
                    table.entry(k).or_default().push(pi);
                }
                for row in &rows {
                    if let Some(cause) = poll_every(&qopts.cancel, &mut cancel_ctr, ENGINE_CANCEL_MASK) {
                        return Err(cancel_to_err(cause));
                    }
                    let probe: Vec<u64> =
                        key_specs.iter().map(|&(_, other, j)| end_of(&evals[j].pathways[row[j]], other)).collect();
                    if let Some(cands) = table.get(&probe) {
                        for &pi in cands {
                            let mut trial = row.clone();
                            trial[i] = pi;
                            next_rows.push(trial);
                        }
                    }
                }
            } else {
                join_span.attr("strategy", "nested");
                for row in &rows {
                    if let Some(cause) = poll_every(&qopts.cancel, &mut cancel_ctr, ENGINE_CANCEL_MASK) {
                        return Err(cancel_to_err(cause));
                    }
                    'cand: for (pi, _p) in evals[i].pathways.iter().enumerate() {
                        let mut trial = row.clone();
                        trial[i] = pi;
                        for cond in &applicable {
                            if let Cond::Cmp(a, op, b) = **cond {
                                let binding = self.binding_of(&evals, &trial);
                                let lhs = self.eval_expr_b(a, &binding, &evals, &trial)?;
                                let rhs = self.eval_expr_b(b, &binding, &evals, &trial)?;
                                let eq = lhs == rhs;
                                let ok = (*op == QCmp::Eq && eq) || (*op == QCmp::Ne && !eq);
                                if !ok {
                                    continue 'cand;
                                }
                            }
                        }
                        next_rows.push(trial);
                    }
                }
            }
            rows = next_rows;
            joined.insert(i);
            if let Some(mm) = &qopts.meter {
                mm.add_join_build_rows(evals[i].pathways.len() as u64);
            }
            join_span.attr("probe_rows", probe_rows);
            join_span.attr("build_rows", evals[i].pathways.len());
            join_span.attr("emitted", rows.len());
            drop(join_span);
            if let Some(p) = profile.as_deref_mut() {
                p.joins.push(JoinStep {
                    var: evals[i].var.clone(),
                    probe_rows,
                    build_rows: evals[i].pathways.len() as u64,
                    emitted: rows.len() as u64,
                    elapsed_ns: tjoin.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                });
            }
        }
        drop(join_phase_span);

        // --- joint temporal coexistence (query-level AT range) ---
        let coex_span = span.child("coexistence");
        let probe = match query_time {
            Some(TimeSpec::Range(a, b)) => Some(Interval::new(a, b.saturating_add(1))),
            _ => None,
        };
        let mut out_rows: Vec<ResultRow> = Vec::new();
        let mut coexistence_pruned = 0u64;
        'row: for row in &rows {
            if let Some(cause) = poll_every(&qopts.cancel, &mut cancel_ctr, ENGINE_CANCEL_MASK) {
                return Err(cancel_to_err(cause));
            }
            let mut joint: Option<IntervalSet> = None;
            for (i, &pi) in row.iter().enumerate() {
                if pi == usize::MAX {
                    continue;
                }
                let e = &evals[i];
                if !e.joint {
                    continue;
                }
                if let Some(times) = &e.pathways[pi].times {
                    joint = Some(match joint {
                        None => times.clone(),
                        Some(j) => j.intersect(times),
                    });
                    if joint.as_ref().unwrap().is_empty() {
                        coexistence_pruned += 1;
                        continue 'row;
                    }
                }
            }
            let times = match (&joint, &probe) {
                (Some(j), Some(p)) => {
                    let comps = j.components_overlapping(p);
                    if comps.is_empty() {
                        coexistence_pruned += 1;
                        continue 'row;
                    }
                    Some(IntervalSet::from_intervals(comps))
                }
                _ => None,
            };
            let pathways: Vec<(String, Pathway)> = row
                .iter()
                .enumerate()
                .filter(|(_, &pi)| pi != usize::MAX)
                .map(|(i, &pi)| {
                    let mut p = evals[i].pathways[pi].clone();
                    // Per-variable range scopes keep their own times.
                    if evals[i].joint {
                        p.times = times.clone();
                    }
                    (evals[i].var.clone(), p)
                })
                .collect();
            out_rows.push(ResultRow { pathways, values: Vec::new(), times });
        }

        coex_span.attr("pruned", coexistence_pruned);
        drop(coex_span);

        // --- EXISTS subqueries (decorrelated) ---
        let exists_span = span.child("exists");
        let mut exists_pruned = 0u64;
        for cond in &q.conds {
            if let Cond::Exists { negated, query } = cond {
                let before = out_rows.len();
                out_rows = self.apply_exists(q, query, *negated, out_rows)?;
                exists_pruned += (before - out_rows.len()) as u64;
            }
        }
        exists_span.attr("pruned", exists_pruned);
        drop(exists_span);

        if let Some(p) = profile {
            p.coexistence_pruned = coexistence_pruned;
            p.exists_pruned = exists_pruned;
            if let Some(t) = texec_phase {
                p.exec_ns = t.elapsed().as_nanos() as u64;
            }
        }

        // --- head processing ---
        let head_span = span.child("head");
        let result = self.finish_head(q, evals, out_rows);
        drop(head_span);
        result
    }

    fn binding_of<'a>(&self, evals: &'a [VarEval], row: &[usize]) -> Vec<(String, &'a Pathway)> {
        row.iter()
            .enumerate()
            .filter(|(_, &pi)| pi != usize::MAX)
            .map(|(i, &pi)| (evals[i].var.clone(), &evals[i].pathways[pi]))
            .collect()
    }

    fn eval_expr_b(
        &mut self,
        expr: &Expr,
        binding: &[(String, &Pathway)],
        evals: &[VarEval],
        _row: &[usize],
    ) -> Result<Value> {
        // Find the variable's filter/backend for field lookups.
        let (filter, backend) = match expr.vars().first() {
            Some(v) => {
                let e = evals.iter().find(|e| e.var == *v);
                match e {
                    Some(e) => (e.filter, e.backend.clone()),
                    None => (TimeFilter::Current, None),
                }
            }
            None => (TimeFilter::Current, None),
        };
        self.eval_expr(expr, binding, filter, backend.as_deref())
    }

    fn eval_expr(
        &mut self,
        expr: &Expr,
        binding: &[(String, &Pathway)],
        filter: TimeFilter,
        backend: Option<&str>,
    ) -> Result<Value> {
        let lookup = |var: &str| -> Result<&Pathway> {
            binding
                .iter()
                .find(|(v, _)| v == var)
                .map(|(_, p)| *p)
                .ok_or_else(|| NepalError::UnknownVariable(var.to_string()))
        };
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::PathVar(v) => {
                Err(NepalError::Unsupported(format!("bare pathway variable `{v}` is only valid inside count(…)")))
            }
            Expr::Length(v) => Ok(Value::Int(lookup(v)?.len_edges() as i64)),
            Expr::PathEnd(f, v) => {
                let p = lookup(v)?;
                let uid = match f {
                    PathFn::Source => p.source(),
                    PathFn::Target => p.target(),
                };
                Ok(Value::Int(uid.0 as i64))
            }
            Expr::PathEndField(f, v, field) => {
                let p = lookup(v)?;
                let uid = match f {
                    PathFn::Source => p.source(),
                    PathFn::Target => p.target(),
                };
                let b = self.registry.get(backend)?;
                let schema = b.schema().clone();
                match b.fields(uid, filter) {
                    None => Ok(Value::Null),
                    Some((class, fields)) => {
                        let (idx, _) = schema.resolve_field(class, field).ok_or_else(|| NepalError::UnknownField {
                            class: schema.class(class).name.clone(),
                            field: field.clone(),
                        })?;
                        Ok(fields.get(idx).cloned().unwrap_or(Value::Null))
                    }
                }
            }
        }
    }

    /// Decorrelated EXISTS: run the inner query without correlated
    /// conditions, collect the inner key tuples, and semi-/anti-join.
    fn apply_exists(
        &mut self,
        outer_q: &Query,
        inner_q: &Query,
        negated: bool,
        rows: Vec<ResultRow>,
    ) -> Result<Vec<ResultRow>> {
        let inner_vars: Vec<&str> = inner_q.var_names();
        let outer_vars: Vec<&str> = outer_q.var_names();
        let mut local_conds = Vec::new();
        let mut correlated: Vec<(Expr, Expr)> = Vec::new(); // (outer side, inner side)
        for c in &inner_q.conds {
            match c {
                Cond::Cmp(a, op, b) if *op == QCmp::Eq => {
                    let a_outer = a.vars().iter().any(|v| !inner_vars.contains(v) && outer_vars.contains(v));
                    let b_outer = b.vars().iter().any(|v| !inner_vars.contains(v) && outer_vars.contains(v));
                    match (a_outer, b_outer) {
                        (true, false) => correlated.push((a.clone(), b.clone())),
                        (false, true) => correlated.push((b.clone(), a.clone())),
                        (false, false) => local_conds.push(c.clone()),
                        (true, true) => {
                            return Err(NepalError::Unsupported(
                                "correlated condition referencing outer variables on both sides".into(),
                            ))
                        }
                    }
                }
                other => local_conds.push(other.clone()),
            }
        }
        let decorrelated = Query {
            time: inner_q.time,
            head: Head::Retrieve(inner_q.sources.iter().map(|s| s.var.clone()).collect()),
            sources: inner_q.sources.clone(),
            conds: local_conds,
        };
        let inner_result = self.execute(&decorrelated)?;
        // Key set from the inner side of each correlated equality.
        let mut keys: HashSet<Vec<Value>> = HashSet::new();
        for row in &inner_result.rows {
            let binding: Vec<(String, &Pathway)> = row.pathways.iter().map(|(v, p)| (v.clone(), p)).collect();
            let mut key = Vec::with_capacity(correlated.len());
            let mut ok = true;
            for (_, inner_expr) in &correlated {
                match self.eval_expr(inner_expr, &binding, TimeFilter::Current, None) {
                    Ok(v) => key.push(v),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                keys.insert(key);
            }
        }
        let mut out = Vec::new();
        for row in rows {
            let binding: Vec<(String, &Pathway)> = row.pathways.iter().map(|(v, p)| (v.clone(), p)).collect();
            let mut key = Vec::with_capacity(correlated.len());
            for (outer_expr, _) in &correlated {
                key.push(self.eval_expr(outer_expr, &binding, TimeFilter::Current, None)?);
            }
            let exists = if correlated.is_empty() { !inner_result.rows.is_empty() } else { keys.contains(&key) };
            if exists != negated {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// Fold every result row through the aggregate Select items.
    fn eval_aggregates(&mut self, items: &[SelectItem], evals: &[VarEval], rows: &[ResultRow]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Some(agg) = item.agg else {
                out.push(match &item.expr {
                    Expr::Literal(v) => v.clone(),
                    _ => unreachable!("checked by caller"),
                });
                continue;
            };
            // Gather the per-row values of the argument expression.
            let mut vals: Vec<Value> = Vec::with_capacity(rows.len());
            for row in rows {
                let binding: Vec<(String, &Pathway)> = row.pathways.iter().map(|(v, p)| (v.clone(), p)).collect();
                match &item.expr {
                    Expr::PathVar(v) => {
                        // count(P): one unit per row; distinct counts
                        // distinct pathways.
                        let p = binding
                            .iter()
                            .find(|(name, _)| name == v)
                            .map(|(_, p)| *p)
                            .ok_or_else(|| NepalError::UnknownVariable(v.clone()))?;
                        vals.push(Value::List(p.elems.iter().map(|u| Value::Int(u.0 as i64)).collect()));
                    }
                    e => {
                        let (filter, backend) = match e.vars().first() {
                            Some(v) => evals
                                .iter()
                                .find(|x| x.var == *v)
                                .map(|x| (x.filter, x.backend.clone()))
                                .unwrap_or((TimeFilter::Current, None)),
                            None => (TimeFilter::Current, None),
                        };
                        vals.push(self.eval_expr(e, &binding, filter, backend.as_deref())?);
                    }
                }
            }
            if item.distinct {
                let mut seen = HashSet::new();
                vals.retain(|v| seen.insert(v.clone()));
            }
            out.push(match agg {
                AggFn::Count => Value::Int(vals.len() as i64),
                AggFn::Min => vals.iter().min().cloned().unwrap_or(Value::Null),
                AggFn::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
                AggFn::Sum | AggFn::Avg => {
                    let nums: Vec<f64> = vals
                        .iter()
                        .filter_map(|v| match v {
                            Value::Int(i) => Some(*i as f64),
                            Value::Float(f) => Some(*f),
                            _ => None,
                        })
                        .collect();
                    if nums.len() != vals.len() {
                        return Err(NepalError::Unsupported("sum/avg over non-numeric values".into()));
                    }
                    let total: f64 = nums.iter().sum();
                    match agg {
                        AggFn::Sum => {
                            if total.fract() == 0.0 {
                                Value::Int(total as i64)
                            } else {
                                Value::Float(total)
                            }
                        }
                        _ => {
                            if nums.is_empty() {
                                Value::Null
                            } else {
                                Value::Float(total / nums.len() as f64)
                            }
                        }
                    }
                }
            });
        }
        Ok(out)
    }

    fn finish_head(&mut self, q: &Query, evals: Vec<VarEval>, rows: Vec<ResultRow>) -> Result<QueryResult> {
        match &q.head {
            Head::Retrieve(vars) => Ok(QueryResult { columns: vars.clone(), rows }),
            Head::Select(items) => {
                let columns: Vec<String> = items.iter().map(item_name).collect();
                let aggregated = items.iter().any(|i| i.agg.is_some());
                if aggregated {
                    if let Some(bad) = items.iter().find(|i| i.agg.is_none() && !matches!(i.expr, Expr::Literal(_))) {
                        return Err(NepalError::Unsupported(format!(
                            "cannot mix `{}` with aggregates (no GROUP BY in Nepal)",
                            item_name(bad)
                        )));
                    }
                    let values = self.eval_aggregates(items, &evals, &rows)?;
                    return Ok(QueryResult {
                        columns,
                        rows: vec![ResultRow { pathways: Vec::new(), values, times: None }],
                    });
                }
                let mut out = Vec::new();
                for mut row in rows {
                    let binding: Vec<(String, &Pathway)> = row.pathways.iter().map(|(v, p)| (v.clone(), p)).collect();
                    let mut values = Vec::with_capacity(items.len());
                    for item in items {
                        let e = &item.expr;
                        let (filter, backend) = match e.vars().first() {
                            Some(v) => evals
                                .iter()
                                .find(|x| x.var == *v)
                                .map(|x| (x.filter, x.backend.clone()))
                                .unwrap_or((TimeFilter::Current, None)),
                            None => (TimeFilter::Current, None),
                        };
                        values.push(self.eval_expr(e, &binding, filter, backend.as_deref())?);
                    }
                    row.values = values;
                    out.push(row);
                }
                // Select deduplicates identical value rows (bag → set, as
                // the paper's examples imply for "the names and ids").
                let mut seen = HashSet::new();
                out.retain(|r| seen.insert((r.values.clone(), r.times.clone())));
                Ok(QueryResult { columns, rows: out })
            }
            Head::WhenExists | Head::FirstTimeWhenExists | Head::LastTimeWhenExists => {
                // Union the joint assertion ranges over all rows.
                let mut union = IntervalSet::empty();
                for row in &rows {
                    if let Some(t) = &row.times {
                        union = union.union(t);
                    }
                }
                let (columns, out_rows) = match q.head {
                    Head::WhenExists => (
                        vec!["when_exists".to_string()],
                        if union.is_empty() {
                            vec![]
                        } else {
                            vec![ResultRow { pathways: Vec::new(), values: Vec::new(), times: Some(union) }]
                        },
                    ),
                    Head::FirstTimeWhenExists => {
                        let rows = match union.first() {
                            Some(t) => {
                                vec![ResultRow { pathways: Vec::new(), values: vec![Value::Ts(t)], times: Some(union) }]
                            }
                            None => vec![],
                        };
                        (vec!["first_time".to_string()], rows)
                    }
                    Head::LastTimeWhenExists => {
                        let rows = match union.last() {
                            Some(iv) => {
                                let v = if iv.is_current() {
                                    Value::Null // still exists now
                                } else {
                                    Value::Ts(iv.to)
                                };
                                vec![ResultRow { pathways: Vec::new(), values: vec![v], times: Some(union) }]
                            }
                            None => vec![],
                        };
                        (vec!["last_time".to_string()], rows)
                    }
                    _ => unreachable!(),
                };
                Ok(QueryResult { columns, rows: out_rows })
            }
        }
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Deterministic FNV-1a digest of a full query result: columns, then every
/// row's select values (via `Display`), pathway bindings (variable name +
/// element uids), and assertion intervals. Stable across builds — the
/// replay tool compares these digests between a captured qlog and a
/// re-execution.
pub fn digest_result(result: &QueryResult) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(result.columns.len() as u64);
    for c in &result.columns {
        h.write_str(c);
        h.write_u8(0);
    }
    h.write_u64(result.rows.len() as u64);
    for row in &result.rows {
        h.write_u8(b'r');
        for (var, p) in &row.pathways {
            h.write_u8(b'p');
            h.write_str(var);
            h.write_u8(0);
            h.write_u64(p.elems.len() as u64);
            for u in &p.elems {
                h.write_u64(u.0);
            }
            if let Some(times) = &p.times {
                for iv in times.intervals() {
                    h.write_u64(iv.from as u64);
                    h.write_u64(iv.to as u64);
                }
            }
        }
        for v in &row.values {
            h.write_u8(b'v');
            h.write_str(&v.to_string());
            h.write_u8(0);
        }
        if let Some(times) = &row.times {
            h.write_u8(b't');
            for iv in times.intervals() {
                h.write_u64(iv.from as u64);
                h.write_u64(iv.to as u64);
            }
        }
    }
    h.finish()
}

fn expr_name(e: &Expr) -> String {
    match e {
        Expr::PathEnd(PathFn::Source, v) => format!("source({v})"),
        Expr::PathEnd(PathFn::Target, v) => format!("target({v})"),
        Expr::PathEndField(PathFn::Source, v, f) => format!("source({v}).{f}"),
        Expr::PathEndField(PathFn::Target, v, f) => format!("target({v}).{f}"),
        Expr::Length(v) => format!("length({v})"),
        Expr::PathVar(v) => v.clone(),
        Expr::Literal(v) => v.to_string(),
    }
}

fn item_name(item: &SelectItem) -> String {
    let inner = expr_name(&item.expr);
    match item.agg {
        None => inner,
        Some(agg) => {
            let f = match agg {
                AggFn::Count => "count",
                AggFn::Min => "min",
                AggFn::Max => "max",
                AggFn::Sum => "sum",
                AggFn::Avg => "avg",
            };
            if item.distinct {
                format!("{f}(distinct {inner})")
            } else {
                format!("{f}({inner})")
            }
        }
    }
}
