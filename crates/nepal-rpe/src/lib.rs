//! # nepal-rpe — Regular Pathway Expressions
//!
//! The path machinery at the core of Nepal (§3.3/§5.1 of the paper):
//!
//! - [`ast`] / [`parser`] — RPE syntax: atoms over node *and* edge classes
//!   treated symmetrically, concatenation, disjunction, bounded repetition.
//! - [`mod@bind`] — binding against a [`nepal_schema::Schema`] (strongly-typed
//!   atoms) and normalization (repetition expansion preserving the 4-way
//!   concatenation semantics).
//! - [`nfa`] — compilation to an ε-free NFA over pathway elements; RPEs are
//!   length-limited by construction, so the NFA is a DAG.
//! - [`anchor`] — anchor enumeration and cost-based selection, including
//!   the alternation cross-product rule.
//! - [`plan`] — the complete plan: the paper's `Select`/`Extend`/`Union`
//!   operator DAG.
//! - [`exec`] — the native anchored evaluator over time-filtered graph
//!   views, with anchor import for join queries.
//! - [`path`] — [`path::Pathway`], the first-class result object.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use nepal_graph::{GraphView, TemporalGraph, TimeFilter};
//! use nepal_rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Seeds};
//! use nepal_schema::dsl::parse_schema;
//! use nepal_schema::Value;
//!
//! let schema = Arc::new(parse_schema(r#"
//!     node VM { vm_id: int unique }
//!     node Host { host_id: int unique }
//!     edge HostedOn { }
//! "#).unwrap());
//! let mut g = TemporalGraph::new(schema.clone());
//! let vm = g.insert_node(schema.class_by_name("VM").unwrap(), vec![Value::Int(55)], 0).unwrap();
//! let host = g.insert_node(schema.class_by_name("Host").unwrap(), vec![Value::Int(7)], 0).unwrap();
//! g.insert_edge(schema.class_by_name("HostedOn").unwrap(), vm, host, vec![], 0).unwrap();
//!
//! // Parse, plan (anchor = the unique VM), and evaluate.
//! let rpe = parse_rpe("VM(vm_id=55)->HostedOn()->Host()").unwrap();
//! let plan = plan_rpe(&schema, &rpe, &GraphEstimator { graph: &g }).unwrap();
//! let view = GraphView::new(&g, TimeFilter::Current);
//! let paths = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default());
//! assert_eq!(paths.len(), 1);
//! assert_eq!(paths[0].source(), vm);
//! assert_eq!(paths[0].target(), host);
//! ```

pub mod anchor;
pub mod ast;
pub mod bind;
pub mod cancel;
pub mod error;
pub mod exec;
pub mod nfa;
pub mod par;
pub mod parser;
pub mod path;
pub mod plan;

pub use anchor::{select_anchor, select_anchor_threads, AnchorSet, CardinalityEstimator, HintEstimator};
pub use ast::{Atom, CmpOp, Pred, Rpe};
pub use bind::{bind, BoundAtom, BoundPred, BoundRpe, Norm};
pub use cancel::{CancelCause, CancelToken};
pub use error::{Result, RpeError};
pub use exec::{anchor_scan, evaluate, evaluate_obs, resolved_threads, EvalOptions, GraphEstimator, Seeds};
pub use nfa::{compile, Label, Nfa, Transition};
pub use parser::parse_rpe;
pub use path::Pathway;
pub use plan::{plan_rpe, plan_rpe_spanned, plan_rpe_threads, RpePlan};
