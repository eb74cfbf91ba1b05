//! The retargetable backend interface (§3.1/§5).
//!
//! Nepal is "a shim layer between network applications and one or more
//! database systems": the engine plans queries once and evaluates each
//! range variable against whichever backend holds its data — the native
//! temporal store, the relational substrate (emitting SQL), or a Gremlin
//! server reached over the wire protocol.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_gremlin::{evaluate_gremlin, GremlinClient, GremlinTime};
use nepal_obs::{ExecTrace, OpStats, SpanHandle};
use nepal_relational::{db_from_graph, evaluate_relational, RelDb};
use nepal_rpe::anchor::apply_selectivity;
use nepal_rpe::{BoundAtom, CardinalityEstimator, EvalOptions, Pathway, RpePlan, Seeds};
use nepal_schema::{ClassId, Schema, Value};

use crate::error::{NepalError, Result};

/// A query-evaluation target. Every method takes `&self`, and the trait is
/// `Send + Sync`, so the engine can evaluate independent range variables
/// against the same backend from scoped worker threads. Backends that
/// keep per-call state (generated code, a wire connection) hold it behind
/// their own lock.
pub trait Backend: Send + Sync {
    /// Human-readable backend kind.
    fn kind(&self) -> &'static str;

    /// The schema this backend serves.
    fn schema(&self) -> &Arc<Schema>;

    /// Evaluate a planned RPE under a time filter with full observability:
    /// an optional profiling trace (per-operator statistics and counters)
    /// plus a span to hang operator child spans off. Cancellation, the
    /// resource meter and the metrics registry travel in `opts`.
    fn eval_obs(
        &self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        trace: Option<&mut ExecTrace>,
        span: &SpanHandle,
    ) -> Result<Vec<Pathway>>;

    /// [`Backend::eval_obs`] with no trace and no span.
    fn eval(&self, plan: &RpePlan, filter: TimeFilter, seeds: Seeds, opts: &EvalOptions) -> Result<Vec<Pathway>> {
        self.eval_obs(plan, filter, seeds, opts, None, &SpanHandle::none())
    }

    /// Field values (and runtime class) of an element, for Select
    /// post-processing.
    fn fields(&self, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)>;

    /// Cardinality estimate for anchor costing.
    fn estimate(&self, atom: &BoundAtom) -> f64;

    /// Translator output produced by the last `eval` call (SQL statements
    /// or Gremlin traversals), if this backend generates code.
    fn last_generated(&self) -> Vec<String> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Native backend
// ---------------------------------------------------------------------

/// Backend over the in-process temporal graph store.
pub struct NativeBackend {
    pub graph: Arc<TemporalGraph>,
}

impl NativeBackend {
    pub fn new(graph: Arc<TemporalGraph>) -> Self {
        NativeBackend { graph }
    }
}

impl Backend for NativeBackend {
    fn kind(&self) -> &'static str {
        "native"
    }

    fn schema(&self) -> &Arc<Schema> {
        self.graph.schema()
    }

    fn eval_obs(
        &self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        trace: Option<&mut ExecTrace>,
        span: &SpanHandle,
    ) -> Result<Vec<Pathway>> {
        let view = GraphView::new(&self.graph, filter);
        nepal_rpe::evaluate_obs(&view, plan, seeds, opts, trace, span).map_err(NepalError::from)
    }

    fn fields(&self, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
        let class = self.graph.class_of(uid)?;
        let view = GraphView::new(&self.graph, filter);
        let fields = view.fields(uid)?.to_vec();
        Some((class, fields))
    }

    fn estimate(&self, atom: &BoundAtom) -> f64 {
        nepal_rpe::GraphEstimator { graph: &self.graph }.estimate(self.graph.schema(), atom)
    }
}

// ---------------------------------------------------------------------
// Relational backend
// ---------------------------------------------------------------------

/// Backend over the relational substrate (the Postgres target of §5.2).
pub struct RelationalBackend {
    pub db: RelDb,
    schema: Arc<Schema>,
    /// Only ever replaced whole, so a poisoned lock still guards a
    /// complete script and is recovered.
    last_sql: Mutex<Vec<String>>,
}

impl RelationalBackend {
    /// Load a temporal graph into a fresh relational database.
    pub fn from_graph(graph: &TemporalGraph) -> Result<Self> {
        let db = db_from_graph(graph).map_err(|e| NepalError::Backend(e.to_string()))?;
        Ok(RelationalBackend { db, schema: graph.schema().clone(), last_sql: Mutex::new(Vec::new()) })
    }
}

impl Backend for RelationalBackend {
    fn kind(&self) -> &'static str {
        "relational"
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn eval_obs(
        &self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        trace: Option<&mut ExecTrace>,
        span: &SpanHandle,
    ) -> Result<Vec<Pathway>> {
        let t0 = trace.is_some().then(Instant::now);
        let res =
            evaluate_relational(&self.db, &self.schema, plan, filter, seeds, opts, span).map_err(|e| match e {
                nepal_relational::RelError::DeadlineExceeded => NepalError::DeadlineExceeded,
                nepal_relational::RelError::Cancelled => NepalError::Cancelled,
                other => NepalError::Backend(other.to_string()),
            })?;
        if let Some(trace) = trace {
            trace.bump("rel_rows_scanned", res.rows_scanned);
            trace.bump("rel_rows_joined", res.rows_joined);
            let mut op = OpStats::new("Select+Extend", "SQL pipeline over class tables");
            op.rows_in = res.rows_scanned;
            op.rows_out = res.pathways.len() as u64;
            op.elapsed_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            trace.ops.push(op);
        }
        span.attr("rows_scanned", res.rows_scanned);
        span.attr("rows_joined", res.rows_joined);
        *self.last_sql.lock().unwrap_or_else(PoisonError::into_inner) = res.sql;
        Ok(res.pathways)
    }

    fn fields(&self, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
        // The owner index names the one class table (plus its history)
        // that holds the uid's versions.
        let owner = self.db.owner(uid.0)?;
        let class = self.db.table_class(owner)?;
        let offset = nepal_relational::field_offset(self.schema.kind(class) == nepal_schema::ClassKind::Node);
        let hist = if matches!(filter, TimeFilter::Current) { None } else { self.db.history(owner) };
        for tid in [owner].into_iter().chain(hist) {
            let t = self.db.table_at(tid);
            let ncols = t.cols.len();
            for &rid in t.probe(0, &Value::Int(uid.0 as i64)) {
                let row = &t.rows[rid as usize];
                let (Value::Ts(from), Value::Ts(to)) = (&row[ncols - 2], &row[ncols - 1]) else { continue };
                let ok = match filter {
                    TimeFilter::Current => *to == nepal_graph::FOREVER,
                    TimeFilter::AsOf(at) => *from <= at && at < *to,
                    TimeFilter::Range(_, b) => *from <= b.saturating_add(1),
                };
                if ok {
                    return Some((class, row[offset..ncols - 2].to_vec()));
                }
            }
        }
        None
    }

    fn estimate(&self, atom: &BoundAtom) -> f64 {
        if atom.unique_eq_pred(&self.schema).is_some() {
            return 1.0;
        }
        let rows = self.db.class_table(atom.class).map_or(0, |t| self.db.subtree_rows(t)).max(1) as f64;
        apply_selectivity(rows, atom)
    }

    fn last_generated(&self) -> Vec<String> {
        self.last_sql.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

// ---------------------------------------------------------------------
// Gremlin backend
// ---------------------------------------------------------------------

/// Backend over a Gremlin server (in-process or TCP transport). The client
/// connection sits behind a lock, so concurrent evaluations against one
/// backend take turns on the wire.
pub struct GremlinBackend<T: nepal_gremlin::server::Transport> {
    client: Mutex<GremlinClient<T>>,
    schema: Arc<Schema>,
}

impl<T: nepal_gremlin::server::Transport> GremlinBackend<T> {
    pub fn new(client: GremlinClient<T>, schema: Arc<Schema>) -> Self {
        GremlinBackend { client: Mutex::new(client), schema }
    }
}

impl<T: nepal_gremlin::server::Transport> Backend for GremlinBackend<T> {
    fn kind(&self) -> &'static str {
        "gremlin"
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn eval_obs(
        &self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        trace: Option<&mut ExecTrace>,
        span: &SpanHandle,
    ) -> Result<Vec<Pathway>> {
        let time = match filter {
            TimeFilter::Current => GremlinTime::Current,
            TimeFilter::AsOf(t) => GremlinTime::AsOf(t),
            TimeFilter::Range(_, _) => {
                return Err(NepalError::Unsupported(
                    "time-range queries require the relational or native backend (§5.3)".into(),
                ))
            }
        };
        // A panic mid-request can leave the connection inside a response,
        // so a poisoned client is not reused.
        let mut client = self
            .client
            .lock()
            .map_err(|_| NepalError::Backend("Gremlin client unusable: an earlier request panicked".into()))?;
        let before = trace.is_some().then(|| client.wire_stats());
        let t0 = trace.is_some().then(Instant::now);
        let res = evaluate_gremlin(&mut client, &self.schema, plan, time, seeds, opts, true, span)
            .map_err(|e| NepalError::Backend(e.to_string()))?;
        span.attr("round_trips", res.round_trips);
        if let (Some(trace), Some(before), Some(t0)) = (trace, before, t0) {
            let after = client.wire_stats();
            trace.bump("gremlin_requests", after.requests - before.requests);
            trace.bump("gremlin_frames_sent", after.frames_sent - before.frames_sent);
            trace.bump("gremlin_frames_received", after.frames_received - before.frames_received);
            trace.bump("gremlin_bytes_sent", after.bytes_sent - before.bytes_sent);
            trace.bump("gremlin_bytes_received", after.bytes_received - before.bytes_received);
            trace.bump("gremlin_partial_batches", after.partial_batches - before.partial_batches);
            trace.bump("gremlin_round_trips", res.round_trips);
            let mut op = OpStats::new("Select+Extend", "Gremlin traversals over the wire");
            op.rows_in = after.requests - before.requests;
            op.rows_out = res.pathways.len() as u64;
            op.elapsed_ns = t0.elapsed().as_nanos() as u64;
            trace.ops.push(op);
        }
        Ok(res.pathways)
    }

    fn fields(&self, uid: Uid, _filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
        use nepal_gremlin::{GStep, Json};
        let mut client = self.client.lock().ok()?;
        let results = client.submit(&[GStep::V(vec![uid.0])]).ok()?;
        let results = if results.is_empty() { client.submit(&[GStep::E(vec![uid.0])]).ok()? } else { results };
        drop(client);
        let j = results.first()?;
        let label = j.get("label")?.as_str()?;
        let class = self.schema.class_by_name(label)?;
        let mut out = Vec::new();
        let props = match j.get("properties") {
            Some(Json::Obj(m)) => m.clone(),
            _ => Default::default(),
        };
        for fd in self.schema.all_fields(class) {
            out.push(props.get(&fd.name).map(nepal_gremlin::json::json_to_value).unwrap_or(Value::Null));
        }
        Some((class, out))
    }

    fn estimate(&self, atom: &BoundAtom) -> f64 {
        // No remote statistics API: fall back to schema hints.
        nepal_rpe::HintEstimator.estimate(&self.schema, atom)
    }
}

// ---------------------------------------------------------------------
// Registry for data integration
// ---------------------------------------------------------------------

/// A named collection of backends: the data-integration layer. Each PATHS
/// variable may route to a different backend (`PATHS P USING legacy`), and
/// the engine joins the resulting pathway sets in the shim (§3.1: "shipping
/// partial results from one target database component to another").
pub struct BackendRegistry {
    backends: HashMap<String, Box<dyn Backend>>,
    default: String,
}

impl BackendRegistry {
    pub fn new(default_name: impl Into<String>, backend: Box<dyn Backend>) -> Self {
        let default = default_name.into();
        let mut backends = HashMap::new();
        backends.insert(default.clone(), backend);
        BackendRegistry { backends, default }
    }

    pub fn add(&mut self, name: impl Into<String>, backend: Box<dyn Backend>) {
        self.backends.insert(name.into(), backend);
    }

    pub fn default_name(&self) -> &str {
        &self.default
    }

    pub fn get_mut(&mut self, name: Option<&str>) -> Result<&mut Box<dyn Backend>> {
        let key = name.unwrap_or(&self.default);
        self.backends.get_mut(key).ok_or_else(|| NepalError::UnknownBackend(key.to_string()))
    }

    pub fn get(&self, name: Option<&str>) -> Result<&dyn Backend> {
        let key = name.unwrap_or(&self.default);
        self.backends.get(key).map(|b| b.as_ref()).ok_or_else(|| NepalError::UnknownBackend(key.to_string()))
    }
}
