//! The mock Gremlin server: serves bytecode requests over TCP or an
//! in-process duplex transport, streaming batched result frames.
//!
//! Serving is overload-safe: connections are admitted through a bounded
//! queue into a fixed worker pool (excess connections are shed with an
//! explicit status-503 frame carrying a retry hint), every request can run
//! under a deadline enforced by cooperative cancellation checkpoints, and
//! shutdown drains gracefully — stop accepting, finish in-flight work
//! within a drain budget, then cancel stragglers through the same token.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use nepal_obs::{FlightKind, Tracer, TRACK_SERVER};
use nepal_rpe::{CancelCause, CancelToken};
use parking_lot::RwLock;

use crate::graph::PropertyGraph;
use crate::json::Json;
use crate::protocol::{
    batch_responses, overload_response, response, status, write_frame_counted, FrameReader, ProtoError,
};
use crate::traversal::{bytecode_from_json, evaluate_cancel, EvalError};

/// Magic `requestId` that makes evaluation panic inside the worker's panic
/// barrier — the induced-fault hook used by crash-forensics drills (the
/// request is answered with status 500; the process-wide panic hook still
/// runs, so a flight-recorder snapshot is written if one is installed).
pub const CHAOS_PANIC_REQUEST_ID: &str = "__chaos_panic__";

/// Shared server-side wire counters (one instance per server, updated by
/// every connection thread).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub requests: AtomicU64,
    pub frames_sent: AtomicU64,
    pub bytes_received: AtomicU64,
    pub bytes_sent: AtomicU64,
    /// Frames that failed to decode (bad mime, bad JSON, oversized).
    pub malformed_frames: AtomicU64,
    /// Requests whose evaluation panicked (answered with status 500).
    pub evaluation_panics: AtomicU64,
    /// Connections refused at admission (queue full) or dropped during
    /// drain — each answered with an explicit status-503 overload frame.
    pub shed: AtomicU64,
    /// Requests abandoned because their deadline passed (status 598).
    pub deadline_timeouts: AtomicU64,
    /// In-flight requests cancelled by drain/explicit cancel (status 598).
    pub cancelled_inflight: AtomicU64,
    /// Gauge: connections waiting for a worker right now.
    pub queue_depth: AtomicU64,
    /// Gauge: requests being evaluated right now.
    pub inflight: AtomicU64,
}

impl ServerStats {
    /// Counter snapshot as (name, value) pairs, for metric export.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("requests", self.requests.load(Ordering::Relaxed)),
            ("frames_sent", self.frames_sent.load(Ordering::Relaxed)),
            ("bytes_received", self.bytes_received.load(Ordering::Relaxed)),
            ("bytes_sent", self.bytes_sent.load(Ordering::Relaxed)),
            ("malformed_frames", self.malformed_frames.load(Ordering::Relaxed)),
            ("evaluation_panics", self.evaluation_panics.load(Ordering::Relaxed)),
            ("shed", self.shed.load(Ordering::Relaxed)),
            ("deadline_timeouts", self.deadline_timeouts.load(Ordering::Relaxed)),
            ("cancelled_inflight", self.cancelled_inflight.load(Ordering::Relaxed)),
            ("queue_depth", self.queue_depth.load(Ordering::Relaxed)),
            ("inflight", self.inflight.load(Ordering::Relaxed)),
        ]
    }
}

/// Admission-control and overload-safety knobs for a serving loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads — the hard cap on concurrently served connections.
    pub workers: usize,
    /// Connections allowed to wait for a worker before new arrivals are
    /// shed with a status-503 frame.
    pub queue_depth: usize,
    /// Per-request evaluation deadline (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// How long a graceful drain lets in-flight work finish before
    /// cancelling stragglers through the drain token.
    pub drain: Duration,
    /// Retry hint echoed in shed frames, milliseconds.
    pub retry_after_ms: u64,
    /// Per-fingerprint statement-stats table: when attached, every served
    /// request records its wall/CPU time, result rows and outcome.
    pub stmt: Option<Arc<nepal_obs::StmtStats>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 16,
            deadline: None,
            drain: Duration::from_millis(2000),
            retry_after_ms: 250,
            stmt: None,
        }
    }
}

/// Per-connection serving controls: the drain signal pair, the
/// per-request deadline, and the optional sinks. All fields default to
/// "off", which serves until EOF with no deadline and no tracing.
#[derive(Debug, Clone, Default)]
pub struct ConnCtl {
    /// Soft drain: when set and true, the connection stops reading new
    /// requests and closes once idle (the in-flight request still runs).
    pub draining: Option<Arc<AtomicBool>>,
    /// Hard cancel: parent token tripped when the drain budget expires;
    /// in-flight evaluation observes it at its next checkpoint.
    pub cancel: Option<CancelToken>,
    /// Per-request evaluation deadline.
    pub deadline: Option<Duration>,
    /// Statement-stats table recording every served request (see
    /// [`ServeConfig::stmt`]).
    pub stmt: Option<Arc<nepal_obs::StmtStats>>,
    /// When set, every request records its own server-side trace
    /// (`gremlin:request` on the server track) into this tracer's ring.
    pub tracer: Option<Tracer>,
}

impl ConnCtl {
    /// Build the per-request cancel token: a child of the drain token (so
    /// drain reaches in-flight work) whose deadline clock starts now.
    fn request_token(&self) -> Option<CancelToken> {
        match (&self.cancel, self.deadline) {
            (None, None) => None,
            (Some(parent), d) => Some(parent.child(d)),
            (None, Some(d)) => Some(CancelToken::with_deadline(d)),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.as_ref().is_some_and(|d| d.load(Ordering::SeqCst))
    }
}

/// A bidirectional byte transport (TCP stream or in-process pipe).
pub trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// Shared handle to a served graph.
pub type SharedGraph = Arc<RwLock<PropertyGraph>>;

/// Wrap a [`PropertyGraph`] for serving, without the caller having to
/// name the lock type.
pub fn shared_graph(pg: PropertyGraph) -> SharedGraph {
    Arc::new(RwLock::new(pg))
}

/// Handle one request message, producing the full response frame sequence.
///
/// Evaluation runs under `cancel` and behind a panic barrier: a panicking
/// evaluation is answered with a status-500 frame instead of killing the
/// connection thread, so one poisoned request cannot take the server down;
/// a cancelled one is answered with a status-598 frame, never a partial
/// result set posing as complete. `stats` counts in-flight requests,
/// panics, deadline trips and explicit cancellations. With `timing`, the
/// per-phase timings are recorded as `(name, offset_ns, dur_ns)` triples
/// relative to request receipt; error paths skip timing — only
/// successfully evaluated requests report phases.
pub fn handle_request(
    graph: &SharedGraph,
    req: &Json,
    stats: &ServerStats,
    cancel: Option<&CancelToken>,
    timing: Option<&mut Vec<(String, u64, u64)>>,
) -> Vec<Json> {
    let request_id = req.get("requestId").and_then(|j| j.as_str()).unwrap_or("").to_string();
    let t0 = Instant::now();
    stats.inflight.fetch_add(1, Ordering::Relaxed);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode_and_evaluate(graph, req, cancel, timing)));
    stats.inflight.fetch_sub(1, Ordering::Relaxed);
    let frames = match result {
        Ok((frames, cause)) => {
            match cause {
                Some(CancelCause::Deadline) => {
                    stats.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Some(CancelCause::Explicit) => {
                    stats.cancelled_inflight.fetch_add(1, Ordering::Relaxed);
                }
                None => {}
            }
            frames
        }
        Err(_) => {
            stats.evaluation_panics.fetch_add(1, Ordering::Relaxed);
            vec![response(&request_id, status::SERVER_ERROR, "internal error: request evaluation panicked", Vec::new())]
        }
    };
    if nepal_obs::flight::recorder().is_enabled() {
        let code = frames
            .last()
            .and_then(|f| f.get("status"))
            .and_then(|s| s.get("code"))
            .and_then(|c| c.as_u64())
            .unwrap_or(0);
        nepal_obs::flight::emit(
            FlightKind::RequestDone,
            code,
            t0.elapsed().as_micros() as u64,
            frames.len() as u64,
            &request_id,
        );
    }
    frames
}

/// Decode and evaluate one request. Returns the response frames plus the
/// cancellation cause if evaluation was abandoned at a checkpoint — the
/// caller maps the cause to the right counter.
fn decode_and_evaluate(
    graph: &SharedGraph,
    req: &Json,
    cancel: Option<&CancelToken>,
    mut timing: Option<&mut Vec<(String, u64, u64)>>,
) -> (Vec<Json>, Option<CancelCause>) {
    let t0 = timing.is_some().then(Instant::now);
    let request_id = req.get("requestId").and_then(|j| j.as_str()).unwrap_or("").to_string();
    // Chaos hook for crash-forensics drills: a request carrying this magic
    // id panics inside the worker's panic barrier, exercising the flight
    // recorder's panic-triggered snapshot path end to end while the server
    // answers 500 and lives on.
    if request_id == CHAOS_PANIC_REQUEST_ID {
        panic!("chaos: induced evaluation panic ({CHAOS_PANIC_REQUEST_ID})");
    }
    let op = req.get("op").and_then(|j| j.as_str()).unwrap_or("");
    let err = |msg: &str| (vec![response(&request_id, status::SERVER_ERROR, msg, Vec::new())], None);
    let gremlin = match req.get("args").and_then(|a| a.get("gremlin")) {
        Some(b) => b,
        None => return err("missing args.gremlin"),
    };
    // `bytecode` carries a step array; `eval` carries a textual traversal
    // (the op every Gremlin console/driver uses).
    let steps = match op {
        "bytecode" => match bytecode_from_json(gremlin) {
            Ok(s) => s,
            Err(e) => return err(&e),
        },
        "eval" => {
            let text = match gremlin {
                crate::json::Json::Str(t) => t,
                _ => return err("eval expects a string traversal"),
            };
            match crate::lang::parse_traversal(text) {
                Ok(s) => s,
                Err(e) => return err(&e.to_string()),
            }
        }
        other => return err(&format!("unsupported op `{other}`")),
    };
    if let (Some(t), Some(tm)) = (t0, timing.as_deref_mut()) {
        tm.push(("decode".to_string(), 0, t.elapsed().as_nanos() as u64));
    }
    let eval_off = t0.map(|t| t.elapsed().as_nanos() as u64);
    let g = graph.read();
    let outcome = evaluate_cancel(&g, &steps, cancel);
    if let (Some(t), Some(off), Some(tm)) = (t0, eval_off, timing) {
        tm.push(("evaluate".to_string(), off, (t.elapsed().as_nanos() as u64).saturating_sub(off)));
    }
    match outcome {
        Ok(results) => (batch_responses(&request_id, results), None),
        Err(EvalError::Cancelled(cause)) => {
            let msg = match cause {
                CancelCause::Deadline => "deadline exceeded during evaluation",
                CancelCause::Explicit => "request cancelled (server drain)",
            };
            (vec![response(&request_id, status::SERVER_TIMEOUT, msg, Vec::new())], Some(cause))
        }
        Err(EvalError::Other(e)) => err(&e),
    }
}

/// Attach a `serverTiming` object to the final frame's `result.meta` so the
/// client can graft the server's view of the request into its own trace.
pub fn attach_server_timing(frames: &mut [Json], total_ns: u64, spans: &[(String, u64, u64)]) {
    let Some(Json::Obj(m)) = frames.last_mut() else { return };
    let Some(Json::Obj(result)) = m.get_mut("result") else { return };
    let Some(Json::Obj(meta)) = result.get_mut("meta") else { return };
    let span_objs: Vec<Json> = spans
        .iter()
        .map(|(name, off, dur)| {
            Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("offset_ns", Json::Num(*off as f64)),
                ("dur_ns", Json::Num(*dur as f64)),
            ])
        })
        .collect();
    meta.insert(
        "serverTiming".into(),
        Json::obj(vec![("total_ns", Json::Num(total_ns as f64)), ("spans", Json::Arr(span_objs))]),
    );
}

/// Serve one connection until EOF or drain, recording wire counters into
/// `stats`.
///
/// - Frames are read by an incremental [`FrameReader`] (stall-tolerant on
///   transports with a read timeout), and drain is observed between
///   requests. A frame that fails to decode is answered with a status-597
///   error frame before the connection closes (the byte stream is
///   desynchronized past it); an evaluation panic is answered with status
///   500 and the connection lives on.
/// - Each request runs under a fresh token from `ctl` (deadline and drain).
/// - A request whose `args.trace` flag is set gets its decode/evaluate
///   phases measured and echoed back as `result.meta.serverTiming` on the
///   final frame, whether or not `ctl` carries a tracer — so an in-process
///   pipe still yields cross-wire traces for the *client's* tracer.
/// - With [`ConnCtl::tracer`] set, every request also records its own
///   server-side trace, and with [`ConnCtl::stmt`] its statement stats.
pub fn serve_connection(graph: SharedGraph, mut conn: impl Transport, stats: &ServerStats, ctl: &ConnCtl) {
    let mut reader = FrameReader::new();
    loop {
        // Pull the next request; between read timeouts, observe drain so
        // idle connections release their worker promptly.
        let req = loop {
            if ctl.is_draining() {
                return;
            }
            match reader.poll_frame(&mut conn) {
                Ok(Some((r, n))) => {
                    stats.bytes_received.fetch_add(n, Ordering::Relaxed);
                    break r;
                }
                Ok(None) => continue, // read timed out mid-wait; re-check drain
                Err(ProtoError::BadFrame(m)) => {
                    // Decodable framing failed: tell the peer why, then close —
                    // we can no longer find the next frame boundary.
                    stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
                    let frame = response("", status::MALFORMED_REQUEST, &format!("malformed frame: {m}"), Vec::new());
                    let _ = write_frame_counted(&mut conn, &frame);
                    return;
                }
                Err(_) => return, // EOF or I/O error → close connection
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let want_timing = matches!(req.get("args").and_then(|a| a.get("trace")), Some(Json::Bool(true)));
        let srv_span = match &ctl.tracer {
            Some(t) => t.start_trace_on("gremlin:request", TRACK_SERVER),
            None => nepal_obs::SpanHandle::none(),
        };
        let measure = want_timing || srv_span.is_active();
        let metered = ctl.stmt.as_ref().is_some_and(|s| s.is_enabled());
        let t0 = (measure || metered).then(Instant::now);
        // Worker-thread CPU delta around handling: evaluation runs on this
        // thread, so the pair brackets the request's actual CPU cost.
        let c0 = metered.then(nepal_obs::thread_cpu_ns);
        let mut timing: Vec<(String, u64, u64)> = Vec::new();
        let timing_slot = if measure { Some(&mut timing) } else { None };
        let token = ctl.request_token();
        let mut frames = handle_request(&graph, &req, stats, token.as_ref(), timing_slot);
        if let (true, Some(stmt), Some(t)) = (metered, &ctl.stmt, t0) {
            let cpu_ns = c0.map(|c| nepal_obs::thread_cpu_ns().saturating_sub(c)).unwrap_or(0);
            record_stmt(stmt, &req, &frames, t.elapsed().as_nanos() as u64, cpu_ns);
        }
        if let Some(t) = t0 {
            let total_ns = t.elapsed().as_nanos() as u64;
            if srv_span.is_active() {
                let rid = req.get("requestId").and_then(|j| j.as_str()).unwrap_or("");
                srv_span.attr("requestId", rid);
                srv_span.attr("total_ns", total_ns);
                for (name, off, dur) in &timing {
                    srv_span.remote_span(name, *off, *dur, TRACK_SERVER, Vec::new());
                }
            }
            if want_timing {
                attach_server_timing(&mut frames, total_ns, &timing);
            }
        }
        drop(srv_span);
        for frame in frames {
            match write_frame_counted(&mut conn, &frame) {
                Ok(n) => {
                    stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                    stats.bytes_sent.fetch_add(n, Ordering::Relaxed);
                }
                Err(_) => return,
            }
        }
    }
}

/// Record one served request into the per-fingerprint statement table.
/// The statement shape is the request's op plus its gremlin payload, rows
/// are the result items streamed back across all frames, and the outcome
/// is derived from the final frame's status code.
fn record_stmt(stmt: &nepal_obs::StmtStats, req: &Json, frames: &[Json], wall_ns: u64, cpu_ns: u64) {
    let op = req.get("op").and_then(|j| j.as_str()).unwrap_or("bytecode");
    let gremlin = req.get("args").and_then(|a| a.get("gremlin")).map(|g| g.to_string()).unwrap_or_default();
    let text = format!("gremlin {op} {gremlin}");
    let rows: u64 = frames
        .iter()
        .filter_map(|f| f.get("result").and_then(|r| r.get("data")).and_then(|d| d.as_arr()))
        .map(|a| a.len() as u64)
        .sum();
    let code =
        frames.last().and_then(|f| f.get("status")).and_then(|s| s.get("code")).and_then(|c| c.as_u64()).unwrap_or(0)
            as u32;
    let outcome = match code {
        status::SUCCESS | status::NO_CONTENT | status::PARTIAL_CONTENT => nepal_obs::StmtOutcome::Ok,
        status::SERVER_TIMEOUT => nepal_obs::StmtOutcome::Deadline,
        _ => nepal_obs::StmtOutcome::Error,
    };
    let meter = nepal_obs::ResourceMeter::new();
    meter.add_cpu_ns(cpu_ns);
    stmt.record(nepal_obs::fingerprint(&text), &text, outcome, wall_ns, rows, Some(&meter.snapshot()));
}

/// Bounded connection queue: the accept loop pushes, workers pop. `push`
/// fails (returning the stream) when full — the caller sheds it.
struct ConnQueue {
    q: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    closed: AtomicBool,
    cap: usize,
    /// Live depth mirror (`stats.queue_depth`), written under the queue
    /// lock so the gauge can never be left stale by a push/pop store race.
    stats: Arc<ServerStats>,
}

impl ConnQueue {
    fn new(cap: usize, stats: Arc<ServerStats>) -> ConnQueue {
        ConnQueue { q: Mutex::new(VecDeque::new()), cv: Condvar::new(), closed: AtomicBool::new(false), cap, stats }
    }

    fn push(&self, s: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.q.lock().unwrap();
        if q.len() >= self.cap || self.closed.load(Ordering::SeqCst) {
            return Err(s);
        }
        q.push_back(s);
        self.stats.queue_depth.store(q.len() as u64, Ordering::Relaxed);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until a connection is available or the queue is closed and
    /// empty (worker shutdown). The wait is bounded so workers also notice
    /// `closed` flipped without a notify.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.q.lock().unwrap();
        loop {
            if let Some(s) = q.pop_front() {
                self.stats.queue_depth.store(q.len() as u64, Ordering::Relaxed);
                return Some(s);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout(q, Duration::from_millis(50)).unwrap();
            q = guard;
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    fn drain_pending(&self) -> Vec<TcpStream> {
        self.q.lock().unwrap().drain(..).collect()
    }
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every worker finished its in-flight work within the drain budget.
    pub clean: bool,
    /// Queued (never-served) connections shed during drain.
    pub shed_queued: u64,
}

/// A running TCP Gremlin server: bounded-queue admission into a fixed
/// worker pool, per-request deadlines, graceful drain on shutdown.
pub struct GremlinServer {
    pub addr: std::net::SocketAddr,
    /// Wire counters aggregated across all connections.
    pub stats: Arc<ServerStats>,
    accept_handle: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    drain_cancel: CancelToken,
    queue: Arc<ConnQueue>,
    drain_budget: Duration,
    retry_after_ms: u64,
}

impl GremlinServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and serve `graph` with the
    /// default admission limits.
    pub fn start(graph: SharedGraph) -> std::io::Result<GremlinServer> {
        GremlinServer::start_addr(graph, "127.0.0.1:0", None)
    }

    /// [`GremlinServer::start`] on an explicit address, optionally recording
    /// per-request server-side traces into `tracer`'s ring.
    pub fn start_addr(graph: SharedGraph, bind: &str, tracer: Option<Tracer>) -> std::io::Result<GremlinServer> {
        GremlinServer::start_cfg(graph, bind, tracer, ServeConfig::default())
    }

    /// [`GremlinServer::start_addr`] with explicit serving limits.
    pub fn start_cfg(
        graph: SharedGraph,
        bind: &str,
        tracer: Option<Tracer>,
        cfg: ServeConfig,
    ) -> std::io::Result<GremlinServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let drain_cancel = CancelToken::new();
        let stats = Arc::new(ServerStats::default());
        let queue = Arc::new(ConnQueue::new(cfg.queue_depth.max(1), stats.clone()));
        listener.set_nonblocking(true)?;

        // Accept loop: admit into the bounded queue or shed with a 503.
        let sd = shutdown.clone();
        let q = queue.clone();
        let st = stats.clone();
        let retry_ms = cfg.retry_after_ms;
        let accept_handle = thread::spawn(move || {
            loop {
                if sd.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true).ok();
                        stream.set_nonblocking(false).ok();
                        // Bounded read so serving loops can interleave
                        // drain checks; bounded write so a stalled client
                        // can't wedge a worker (or this accept loop).
                        stream.set_read_timeout(Some(Duration::from_millis(50))).ok();
                        stream.set_write_timeout(Some(Duration::from_millis(1000))).ok();
                        if let Err(mut s) = q.push(stream) {
                            shed_connection(&mut s, &st, retry_ms);
                        } else if nepal_obs::flight::recorder().is_enabled() {
                            nepal_obs::flight::emit(
                                FlightKind::AdmissionAccept,
                                st.queue_depth.load(Ordering::Relaxed),
                                0,
                                0,
                                "accept",
                            );
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });

        // Worker pool: each thread serves one connection at a time.
        let ctl = ConnCtl {
            draining: Some(draining.clone()),
            cancel: Some(drain_cancel.clone()),
            deadline: cfg.deadline,
            stmt: cfg.stmt.clone(),
            tracer,
        };
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let g = graph.clone();
                let st = stats.clone();
                let q = queue.clone();
                let ctl = ctl.clone();
                thread::spawn(move || {
                    while let Some(stream) = q.pop() {
                        serve_connection(g.clone(), stream, &st, &ctl);
                    }
                })
            })
            .collect();

        Ok(GremlinServer {
            addr,
            stats,
            accept_handle: Some(accept_handle),
            workers,
            shutdown,
            draining,
            drain_cancel,
            queue,
            drain_budget: cfg.drain,
            retry_after_ms: cfg.retry_after_ms,
        })
    }

    /// Connect a new client stream to this server.
    pub fn connect(&self) -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        Ok(s)
    }

    /// Graceful shutdown: stop accepting, shed queued connections with
    /// overload frames, let in-flight work finish within `budget`, then
    /// cancel stragglers through the drain token and join every worker.
    pub fn drain(&mut self, budget: Duration) -> DrainReport {
        let t0 = Instant::now();
        nepal_obs::flight::emit(
            FlightKind::DrainStart,
            budget.as_millis() as u64,
            self.stats.inflight.load(Ordering::Relaxed),
            self.stats.queue_depth.load(Ordering::Relaxed),
            "drain",
        );
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.queue.close();
        let mut shed_queued = 0u64;
        for mut s in self.queue.drain_pending() {
            shed_connection(&mut s, &self.stats, self.retry_after_ms);
            shed_queued += 1;
        }
        self.stats.queue_depth.store(0, Ordering::Relaxed);
        // Soft drain: idle connections close at their next read timeout;
        // in-flight requests keep running.
        self.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + budget;
        let mut clean = true;
        while self.workers.iter().any(|w| !w.is_finished()) {
            if Instant::now() >= deadline {
                // Hard drain: cancel in-flight evaluation cooperatively.
                clean = false;
                self.drain_cancel.cancel();
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        nepal_obs::flight::emit(
            FlightKind::DrainEnd,
            clean as u64,
            shed_queued,
            t0.elapsed().as_millis() as u64,
            if clean { "clean" } else { "forced" },
        );
        DrainReport { clean, shed_queued }
    }
}

/// Answer a shed connection with an explicit 503 overload frame (best
/// effort — the client may already be gone) and count it.
fn shed_connection(s: &mut TcpStream, stats: &ServerStats, retry_after_ms: u64) {
    stats.shed.fetch_add(1, Ordering::Relaxed);
    nepal_obs::flight::emit(
        FlightKind::AdmissionShed,
        stats.queue_depth.load(Ordering::Relaxed),
        retry_after_ms,
        0,
        "queue-full",
    );
    s.set_write_timeout(Some(Duration::from_millis(200))).ok();
    let frame = overload_response("", "server overloaded: connection queue full", retry_after_ms);
    let _ = write_frame_counted(s, &frame);
}

impl Drop for GremlinServer {
    fn drop(&mut self) {
        if self.accept_handle.is_some() || !self.workers.is_empty() {
            self.drain(self.drain_budget);
        }
    }
}

/// In-process duplex transport built from crossbeam channels — the
/// zero-socket path used by unit tests and the embedded backend.
pub struct PipeEnd {
    tx: crossbeam::channel::Sender<Vec<u8>>,
    rx: crossbeam::channel::Receiver<Vec<u8>>,
    buf: Vec<u8>,
}

/// Create a connected pair of in-process transports.
pub fn pipe_pair() -> (PipeEnd, PipeEnd) {
    let (atx, arx) = crossbeam::channel::unbounded();
    let (btx, brx) = crossbeam::channel::unbounded();
    (PipeEnd { tx: atx, rx: brx, buf: Vec::new() }, PipeEnd { tx: btx, rx: arx, buf: Vec::new() })
}

impl Read for PipeEnd {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.buf.is_empty() {
            match self.rx.recv() {
                Ok(chunk) => self.buf = chunk,
                Err(_) => return Ok(0), // EOF
            }
        }
        let n = out.len().min(self.buf.len());
        out[..n].copy_from_slice(&self.buf[..n]);
        self.buf.drain(..n);
        Ok(n)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.tx.send(data.to_vec()).map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone"))?;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Spawn an in-process server thread over a pipe under `ctl` (deadline,
/// drain signals, tracer, statement stats); returns the client end and the
/// server's shared wire counters.
pub fn serve_in_process(graph: SharedGraph, ctl: ConnCtl) -> (PipeEnd, Arc<ServerStats>) {
    let (client, server) = pipe_pair();
    let stats = Arc::new(ServerStats::default());
    let st = stats.clone();
    thread::spawn(move || serve_connection(graph, server, &st, &ctl));
    (client, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::protocol::{read_frame, request, write_frame};
    use crate::traversal::{bytecode_to_json, GStep};
    use std::collections::BTreeMap;

    fn shared() -> SharedGraph {
        let mut g = PropertyGraph::new();
        g.add_vertex(1, "Node:VM", BTreeMap::new());
        g.add_vertex(2, "Node:Host", BTreeMap::new());
        g.add_edge(3, "Edge:HostedOn", 1, 2, BTreeMap::new());
        Arc::new(RwLock::new(g))
    }

    #[test]
    fn handles_bytecode_request() {
        let g = shared();
        let req = request("q1", bytecode_to_json(&[GStep::V(vec![]), GStep::Count]));
        let frames = handle_request(&g, &req, &ServerStats::default(), None, None);
        assert_eq!(frames.len(), 1);
        let data = frames[0].get("result").unwrap().get("data").unwrap().as_arr().unwrap();
        assert_eq!(data[0], Json::Num(2.0));
    }

    #[test]
    fn bad_op_and_bad_bytecode_are_500() {
        let g = shared();
        let mut req = request("q1", Json::Arr(vec![]));
        if let Json::Obj(m) = &mut req {
            m.insert("op".into(), Json::Str("eval".into()));
        }
        let frames = handle_request(&g, &req, &ServerStats::default(), None, None);
        assert_eq!(frames[0].get("status").unwrap().get("code").unwrap().as_u64(), Some(500));
        let req2 = request("q2", Json::Arr(vec![Json::Arr(vec![Json::Str("nope".into())])]));
        let frames2 = handle_request(&g, &req2, &ServerStats::default(), None, None);
        assert_eq!(frames2[0].get("status").unwrap().get("code").unwrap().as_u64(), Some(500));
    }

    #[test]
    fn in_process_pipe_round_trip() {
        let g = shared();
        let (mut client, _) = serve_in_process(g, ConnCtl::default());
        let req = request("q1", bytecode_to_json(&[GStep::V(vec![1]), GStep::Id]));
        write_frame(&mut client, &req).unwrap();
        let resp = read_frame(&mut client).unwrap();
        assert_eq!(resp.get("requestId").unwrap().as_str(), Some("q1"));
        let data = resp.get("result").unwrap().get("data").unwrap().as_arr().unwrap();
        assert_eq!(data[0], Json::Num(1.0));
    }

    #[test]
    fn served_requests_land_in_statement_stats() {
        let g = shared();
        let stmt = Arc::new(nepal_obs::StmtStats::new(8));
        let ctl = ConnCtl { stmt: Some(stmt.clone()), ..ConnCtl::default() };
        let (mut client, _) = serve_in_process(g, ctl);
        let req = request("q1", bytecode_to_json(&[GStep::V(vec![]), GStep::Count]));
        write_frame(&mut client, &req).unwrap();
        let _ = read_frame(&mut client).unwrap();
        // Same shape again: aggregates under one fingerprint.
        let req2 = request("q2", bytecode_to_json(&[GStep::V(vec![]), GStep::Count]));
        write_frame(&mut client, &req2).unwrap();
        let _ = read_frame(&mut client).unwrap();
        drop(client);
        let top = stmt.top(5, nepal_obs::StmtSort::Calls);
        assert_eq!(top.len(), 1, "one fingerprint for the repeated shape");
        assert_eq!(top[0].calls, 2);
        assert_eq!(top[0].rows, 2, "each count() returns one row");
        assert!(top[0].text.starts_with("gremlin bytecode"), "{}", top[0].text);
        assert!(top[0].wall_ns_total > 0);
    }

    #[test]
    fn tcp_server_round_trip() {
        let g = shared();
        let server = GremlinServer::start(g).unwrap();
        let mut conn = server.connect().unwrap();
        let req = request("q1", bytecode_to_json(&[GStep::V(vec![]), GStep::Count]));
        write_frame(&mut conn, &req).unwrap();
        let resp = read_frame(&mut conn).unwrap();
        let code = resp.get("status").unwrap().get("code").unwrap().as_u64();
        assert_eq!(code, Some(200));
        // A second request on the same connection (session reuse).
        let req2 = request("q2", bytecode_to_json(&[GStep::V(vec![2]), GStep::Id]));
        write_frame(&mut conn, &req2).unwrap();
        let resp2 = read_frame(&mut conn).unwrap();
        assert_eq!(resp2.get("requestId").unwrap().as_str(), Some("q2"));
    }
}
