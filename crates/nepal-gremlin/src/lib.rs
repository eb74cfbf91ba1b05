//! # nepal-gremlin — the Gremlin backend substrate
//!
//! Everything the paper's Gremlin target needs, built from scratch because
//! no mature Rust Gremlin client exists:
//!
//! - [`graph`] — a schema-free property graph with inheritance-path labels
//!   and prefix matching (§5.2's class encoding).
//! - [`traversal`] — a Gremlin-style traversal machine with bytecode
//!   (de)serialization, including `repeat` for the ExtendBlock operator.
//! - [`json`] — hand-rolled JSON / GraphSON-lite codecs.
//! - [`protocol`] — framed request/response wire protocol with streamed
//!   206/200/204/500 result batches.
//! - [`server`] / [`client`] — a mock Gremlin Server (TCP and in-process)
//!   and the driver, plus the result-forwarding [`client::Channel`]s.
//! - [`load`] / [`exec`] — graph loading and client-side RPE plan
//!   evaluation with the ExtendBlock fast path.

pub mod client;
pub mod exec;
pub mod graph;
pub mod json;
pub mod lang;
pub mod load;
pub mod protocol;
pub mod server;
pub mod traversal;

pub use client::{Channel, GremlinClient, RetryPolicy, RetryingClient, WireStats};
pub use exec::{evaluate_gremlin, GremlinExecResult, GremlinTime};
pub use graph::{label_matches_prefix, GEdge, GVertex, PropertyGraph};
pub use json::{parse_json, Json};
pub use lang::{parse_traversal, LangError};
pub use load::{property_graph_from, OPEN_TS};
pub use protocol::{overload_response, FrameReader, ProtoError, MIME};
pub use server::{
    attach_server_timing, pipe_pair, serve_connection, serve_in_process, shared_graph, ConnCtl, DrainReport,
    GremlinServer, ServeConfig, ServerStats, SharedGraph, CHAOS_PANIC_REQUEST_ID,
};
pub use traversal::{bytecode_from_json, bytecode_to_json, evaluate_cancel, EvalError, GCmp, GStep};
