//! Relational evaluation of RPE plans.
//!
//! This is the paper's Postgres code-generation strategy (§5.2) executed
//! against the in-memory substrate: the anchor `Select` materializes a TEMP
//! table of single-element paths; each NFA transition becomes an `Extend`
//! — a bulk equi-join between a frontier TEMP table and the class tables —
//! appending to `uid_list`/`concept_list` arrays with `NOT id = ANY(…)`
//! cycle predicates; `Union` merges frontier tables per NFA state; the
//! forward and backward frontiers are finally joined on the seed.
//!
//! Every operator also emits the equivalent SQL text, so the generated
//! query sequence can be inspected exactly as the paper presents it. The
//! in-memory frontiers carry only what the joins read (`uid_list`, not
//! `concept_list`), and a node `Extend` probes only the class table that
//! owns the pending uid (see [`RelDb::owner`]).

use std::collections::{HashMap, HashSet};

use nepal_graph::{Interval, IntervalSet, TimeFilter, Uid, FOREVER};
use nepal_obs::SpanHandle;
use nepal_rpe::{CancelCause, CancelToken, EvalOptions, Label, Pathway, RpePlan, Seeds};
use nepal_schema::{format_ts, Schema, Ts, Value, EDGE, NODE};

use crate::db::{RelDb, TableId};
use crate::error::Result;
use crate::load::{field_offset, table_name};

/// Result of a relational evaluation: the pathways plus the SQL script the
/// translator generated for the target DBMS.
#[derive(Debug)]
pub struct RelResult {
    pub pathways: Vec<Pathway>,
    pub sql: Vec<String>,
    /// Version rows examined by `Select` scans over class tables.
    pub rows_scanned: u64,
    /// Candidate rows probed by `Extend` equi-joins (before predicates).
    pub rows_joined: u64,
}

/// A frontier row (one partial path).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Row {
    seed_uid: i64,
    seed_tr: u32,
    uid_list: Vec<i64>,
    curr: i64,
    /// The forced next element (edge endpoint) when the last consumed
    /// element was an edge; `None` when it was a node.
    pending: Option<i64>,
    /// Accumulated assertion-interval intersection (range mode only).
    t_from: Option<Ts>,
    t_to: Option<Ts>,
}

impl Row {
    fn intersect_span(&self, from: Ts, to: Ts) -> Option<(Option<Ts>, Option<Ts>)> {
        let nf = self.t_from.map_or(from, |f| f.max(from));
        let nt = self.t_to.map_or(to, |t| t.min(to));
        (nf < nt).then_some((Some(nf), Some(nt)))
    }
}

/// The tables an element label reads, resolved once per evaluation.
struct LabelTables {
    /// Per class table of the label's subtree, in scan order: its
    /// `__history` companion (unless the filter is current), then itself.
    tables: Vec<TableId>,
    /// Class table id → its position in the subtree scan order;
    /// [`OUTSIDE`] for tables outside the subtree.
    slots: Vec<u32>,
}

const OUTSIDE: u32 = u32::MAX;

impl LabelTables {
    fn resolve(db: &RelDb, root: Option<TableId>, filter: TimeFilter) -> LabelTables {
        let mut tables = Vec::new();
        let mut slots = vec![OUTSIDE; db.num_tables()];
        for (pos, &t) in root.map_or(&[][..], |r| db.subtree(r)).iter().enumerate() {
            if !matches!(filter, TimeFilter::Current) {
                tables.extend(db.history(t));
            }
            tables.push(t);
            slots[t as usize] = pos as u32;
        }
        LabelTables { tables, slots }
    }
}

struct Evaluator<'a> {
    db: &'a RelDb,
    schema: &'a Schema,
    plan: &'a RpePlan,
    filter: TimeFilter,
    sql: Vec<String>,
    temp_counter: u32,
    rows_scanned: u64,
    rows_joined: u64,
    /// Live span the scans and join passes attach child spans to; inert
    /// outside a traced execution.
    span: &'a SpanHandle,
    /// Cooperative cancellation: token, rate-limiting counter, and the
    /// sticky trip cause once observed.
    cancel: Option<CancelToken>,
    cancel_ctr: u64,
    tripped: Option<CancelCause>,
    /// Resolved tables of `AnyNode`, `AnyEdge`, then each plan atom.
    labels: Vec<LabelTables>,
}

/// Poll the cancel token once per this many scanned/probed rows.
const REL_CANCEL_MASK: u64 = 0x3FF; // every 1024 rows

/// One scan/probe checkpoint: `true` → abandon work, the caller surfaces
/// [`crate::error::RelError::DeadlineExceeded`] /
/// [`crate::error::RelError::Cancelled`]. Free-standing over the cancel
/// fields so scan loops can poll while a table borrow is live.
#[inline]
fn rel_checkpoint(cancel: &Option<CancelToken>, ctr: &mut u64, tripped: &mut Option<CancelCause>) -> bool {
    if tripped.is_some() {
        return true;
    }
    let Some(tok) = cancel else { return false };
    *ctr = ctr.wrapping_add(1);
    if *ctr & REL_CANCEL_MASK != 0 {
        return false;
    }
    match tok.poll() {
        Some(cause) => {
            *tripped = Some(cause);
            true
        }
        None => false,
    }
}

impl<'a> Evaluator<'a> {
    /// Index into `labels` of the tables that can hold elements
    /// satisfying `label`.
    fn label_slot(label: Label) -> usize {
        match label {
            Label::AnyNode => 0,
            Label::AnyEdge => 1,
            Label::Atom(a) => 2 + a as usize,
        }
    }

    fn label_is_node(&self, label: Label) -> bool {
        match label {
            Label::AnyNode => true,
            Label::AnyEdge => false,
            Label::Atom(a) => self.plan.atoms[a as usize].is_node,
        }
    }

    fn temporal_sql(&self) -> String {
        match self.filter {
            TimeFilter::Current => String::new(),
            TimeFilter::AsOf(t) => {
                format!(" AND H.sys_period @> '{}'::timestamptz", format_ts(t))
            }
            TimeFilter::Range(_, _) => String::new(),
        }
    }

    /// `Select`: scan class tables for elements satisfying an atom, one row
    /// per matching version. For edge atoms the returned pair carries the
    /// source endpoint so the backward pass can seed with `pending=source`
    /// while the forward pass uses `pending=target`.
    fn select_atom(&mut self, atom_idx: u32, seed_tr: u32) -> Vec<SeedPair> {
        let atom = &self.plan.atoms[atom_idx as usize];
        let label = Label::Atom(atom_idx);
        let is_node = atom.is_node;
        let scan_span = self.span.child("Scan");
        scan_span.attr("atom", &atom.display);
        let scanned_before = self.rows_scanned;
        let mut rows = Vec::new();
        for &tid in &self.labels[Self::label_slot(label)].tables {
            let t = self.db.table_at(tid);
            let n = t.cols.len();
            self.rows_scanned += t.rows.len() as u64;
            for r in &t.rows {
                if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                    break;
                }
                let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                if !version_ok(self.filter, from, to) || !preds_ok(self.plan, label, r, is_node) {
                    continue;
                }
                let uid = as_i64(&r[0]);
                let (pending, source) = if is_node { (None, None) } else { (Some(as_i64(&r[2])), Some(as_i64(&r[1]))) };
                let (t_from, t_to) = if self.filter.is_range() { (Some(from), Some(to)) } else { (None, None) };
                rows.push((
                    Row { seed_uid: uid, seed_tr, uid_list: vec![uid], curr: uid, pending, t_from, t_to },
                    source,
                ));
            }
        }
        self.temp_counter += 1;
        self.sql.push(format!(
            "create TEMP table tmp_select_{}_{} as (\n  select ARRAY[N.id_] as uid_list, ARRAY[cast('{}' as text)] as concept_list, N.id_ as curr_uid\n  from {} N\n  where {}{}\n);",
            if is_node { "node" } else { "edge" },
            self.temp_counter,
            atom.class_name,
            table_name(self.schema, atom.class),
            preds_sql(atom),
            self.temporal_sql(),
        ));
        scan_span.attr("rows_scanned", self.rows_scanned - scanned_before);
        scan_span.attr("rows_out", rows.len());
        rows
    }

    /// Extend a node-position frontier by one edge (forwards: join on
    /// `source_id_`; backwards: on `target_id_`).
    fn extend_edge(&mut self, rows: &[Row], label: Label, forwards: bool) -> Vec<Row> {
        if self.label_is_node(label) {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Probe column: source for forward extension, target backward.
        let (probe_col, other_col) = if forwards { (1, 2) } else { (2, 1) };
        for &tid in &self.labels[Self::label_slot(label)].tables {
            let t = self.db.table_at(tid);
            let n = t.cols.len();
            for row in rows {
                if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                    return out;
                }
                if row.pending.is_some() {
                    continue; // must consume the pending node first
                }
                let rids = t.probe(probe_col, &Value::Int(row.curr));
                self.rows_joined += rids.len() as u64;
                for &rid in rids {
                    let r = &t.rows[rid as usize];
                    let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                    if !version_ok(self.filter, from, to) {
                        continue;
                    }
                    let eid = as_i64(&r[0]);
                    let other = as_i64(&r[other_col]);
                    // Cycle predicates: NOT H.id_ = ANY(T.uid_list) AND NOT
                    // H.target_id_ = ANY(T.uid_list).
                    if row.uid_list.contains(&eid) || row.uid_list.contains(&other) {
                        continue;
                    }
                    if !preds_ok(self.plan, label, r, false) {
                        continue;
                    }
                    let Some((t_from, t_to)) = self.joined_span(row, from, to) else { continue };
                    let mut new = row.clone();
                    new.uid_list.push(eid);
                    new.curr = eid;
                    new.pending = Some(other);
                    new.t_from = t_from;
                    new.t_to = t_to;
                    out.push(new);
                }
            }
        }
        out
    }

    /// Extend an edge-position frontier by its pending endpoint node.
    ///
    /// A uid's versions live in exactly one class table and its history,
    /// so each row probes only its owner's tables, and only when the owner
    /// is in the label's subtree (any other table would return no rows).
    /// Rows are grouped by the owner's position in the subtree so the
    /// output keeps the table-major order of a probe of every table.
    fn extend_node(&mut self, rows: &[Row], label: Label) -> Vec<Row> {
        if !self.label_is_node(label) {
            return Vec::new();
        }
        let db = self.db;
        let slots = &self.labels[Self::label_slot(label)].slots;
        // (position of the owner in the subtree, owner, pending uid, row).
        let mut routed: Vec<(u32, TableId, i64, u32)> = rows
            .iter()
            .enumerate()
            .filter_map(|(i, row)| {
                let p = row.pending?;
                let owner = db.owner(p as u64)?;
                let pos = slots[owner as usize];
                (pos != OUTSIDE).then_some((pos, owner, p, i as u32))
            })
            .collect();
        routed.sort_unstable_by_key(|&(pos, _, _, i)| (pos, i));
        let historical = !matches!(self.filter, TimeFilter::Current);
        let mut out = Vec::new();
        for group in routed.chunk_by(|a, b| a.0 == b.0) {
            let owner = group[0].1;
            let hist = if historical { db.history(owner) } else { None };
            for tid in hist.into_iter().chain([owner]) {
                let t = db.table_at(tid);
                let n = t.cols.len();
                for &(_, _, p, i) in group {
                    if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                        return out;
                    }
                    let row = &rows[i as usize];
                    let rids = t.probe(0, &Value::Int(p));
                    self.rows_joined += rids.len() as u64;
                    for &rid in rids {
                        let r = &t.rows[rid as usize];
                        let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                        if !version_ok(self.filter, from, to) || !preds_ok(self.plan, label, r, true) {
                            continue;
                        }
                        let Some((t_from, t_to)) = self.joined_span(row, from, to) else { continue };
                        let mut new = row.clone();
                        new.uid_list.push(p);
                        new.curr = p;
                        new.pending = None;
                        new.t_from = t_from;
                        new.t_to = t_to;
                        out.push(new);
                    }
                }
            }
        }
        out
    }

    /// The assertion span a row carries after joining a version valid over
    /// `[from, to)`: the intersection in range mode (`None` when empty),
    /// no span otherwise.
    fn joined_span(&self, row: &Row, from: Ts, to: Ts) -> Option<(Option<Ts>, Option<Ts>)> {
        if self.filter.is_range() {
            row.intersect_span(from, to)
        } else {
            Some((None, None))
        }
    }

    fn log_extend(&mut self, label: Label, forwards: bool, from_table: u32) {
        self.temp_counter += 1;
        let (join_col, kind) = if self.label_is_node(label) {
            ("H.id_ = T.pending_uid", "node")
        } else if forwards {
            ("H.source_id_ = T.curr_uid", "edge")
        } else {
            ("H.target_id_ = T.curr_uid", "edge")
        };
        let table = match label {
            Label::AnyNode => "node".into(),
            Label::AnyEdge => "edge".into(),
            Label::Atom(a) => table_name(self.schema, self.plan.atoms[a as usize].class),
        };
        let hist = if matches!(self.filter, TimeFilter::Current) { "" } else { "__historical" };
        self.sql.push(format!(
            "create TEMP table tmp_extend_{kind}_{} as (\n  select T.uid_list || ARRAY[H.id_] as uid_list,\n         T.concept_list || ARRAY[cast('{table}' as text)] as concept_list,\n         H.id_ as curr_uid\n  from {table}{hist} H, tmp_{} T\n  where {join_col} AND NOT H.id_ = ANY(T.uid_list){}\n);",
            self.temp_counter, from_table, self.temporal_sql(),
        ));
    }

    /// One directional pass: returns accepting rows keyed by (seed, tr).
    fn pass(&mut self, seeds_by_state: HashMap<u32, Vec<Row>>, forwards: bool) -> Vec<Row> {
        let join_span = self.span.child(if forwards { "Join(fwd)" } else { "Join(bwd)" });
        let joined_before = self.rows_joined;
        // Topological order of the NFA DAG.
        let order = topo_order(self.plan, forwards);
        let mut tables: HashMap<u32, Vec<Row>> = seeds_by_state;
        // Rows already queued per state. The NFA is a DAG and `order` is
        // topological, so a state's entries are final (and dropped) once
        // the state is reached.
        let mut seen: HashMap<u32, HashSet<Row>> = HashMap::new();
        for (s, rows) in &tables {
            seen.entry(*s).or_default().extend(rows.iter().cloned());
        }
        let mut accepted: Vec<Row> = Vec::new();
        let mut table_no = 0u32;
        for &state in &order {
            if self.tripped.is_some() {
                break; // cancelled: stop joining, the caller surfaces it
            }
            seen.remove(&state);
            let rows = match tables.remove(&state) {
                Some(r) if !r.is_empty() => r,
                _ => continue,
            };
            table_no += 1;
            // Collect acceptance at this state.
            if forwards {
                if self.plan.nfa.accepts[state as usize] {
                    accepted.extend(rows.iter().filter(|r| r.pending.is_none()).cloned());
                }
            } else if state == self.plan.nfa.start {
                accepted.extend(rows.iter().filter(|r| r.pending.is_none()).cloned());
            }
            // Extend along transitions out of (fwd) / into (bwd) the state.
            let transitions: Vec<(Label, u32)> = if forwards {
                self.plan.nfa.trans[state as usize].clone()
            } else {
                self.plan.nfa.rev[state as usize].clone()
            };
            for (label, next) in transitions {
                let new_rows = {
                    let edge_rows = self.extend_edge(&rows, label, forwards);
                    let node_rows = self.extend_node(&rows, label);
                    if !edge_rows.is_empty() || !node_rows.is_empty() {
                        self.log_extend(label, forwards, table_no);
                    }
                    let mut all = edge_rows;
                    all.extend(node_rows);
                    all
                };
                if new_rows.is_empty() {
                    continue;
                }
                let dedup = seen.entry(next).or_default();
                let bucket = tables.entry(next).or_default();
                for r in new_rows {
                    if dedup.insert(r.clone()) {
                        bucket.push(r);
                    }
                }
            }
        }
        join_span.attr("rows_joined", self.rows_joined - joined_before);
        join_span.attr("accepted", accepted.len());
        accepted
    }
}

/// Temporal predicate on a version row.
fn version_ok(filter: TimeFilter, from: Ts, to: Ts) -> bool {
    match filter {
        TimeFilter::Current => to == FOREVER,
        TimeFilter::AsOf(t) => from <= t && t < to,
        TimeFilter::Range(_, _) => true, // filtered at finalize
    }
}

/// Field predicate of a label on a version row.
fn preds_ok(plan: &RpePlan, label: Label, row: &[Value], is_node: bool) -> bool {
    match label {
        Label::AnyNode | Label::AnyEdge => true,
        Label::Atom(a) => {
            let atom = &plan.atoms[a as usize];
            let off = field_offset(is_node);
            let fields = &row[off..row.len() - 2];
            atom.matches_fields(fields)
        }
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => panic!("expected bigint, got {v:?}"),
    }
}

fn as_ts(v: &Value) -> Ts {
    match v {
        Value::Ts(t) => *t,
        Value::Int(t) => *t,
        _ => panic!("expected timestamp, got {v:?}"),
    }
}

fn preds_sql(atom: &nepal_rpe::BoundAtom) -> String {
    if atom.preds.is_empty() {
        return "true".to_string();
    }
    atom.preds
        .iter()
        .map(|p| format!("N.{} {} {}", p.field_name, op_sql(p.op), p.value))
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn op_sql(op: nepal_rpe::CmpOp) -> &'static str {
    use nepal_rpe::CmpOp::*;
    match op {
        Eq => "=",
        Ne => "<>",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Contains => "@>",
    }
}

/// Topological order of the NFA states (the NFA is a DAG; see
/// `nepal_rpe::nfa`). For the backward pass the order is reversed.
fn topo_order(plan: &RpePlan, forwards: bool) -> Vec<u32> {
    let n = plan.nfa.n_states;
    let mut indeg = vec![0usize; n];
    for list in &plan.nfa.trans {
        for &(_, t) in list {
            indeg[t as usize] += 1;
        }
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&s| indeg[s as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(s) = stack.pop() {
        order.push(s);
        for &(_, t) in &plan.nfa.trans[s as usize] {
            indeg[t as usize] -= 1;
            if indeg[t as usize] == 0 {
                stack.push(t);
            }
        }
    }
    if !forwards {
        order.reverse();
    }
    order
}

fn finalize_times(filter: TimeFilter, combos: Vec<(Option<Ts>, Option<Ts>)>) -> Option<Option<IntervalSet>> {
    match filter {
        TimeFilter::Range(a, b) => {
            let probe = Interval::new(a, b.saturating_add(1));
            let ivs: Vec<Interval> = combos
                .into_iter()
                .filter_map(|(f, t)| match (f, t) {
                    (Some(f), Some(t)) if f < t => Some(Interval::new(f, t)),
                    _ => None,
                })
                .collect();
            let set = IntervalSet::from_intervals(ivs);
            let comps = set.components_overlapping(&probe);
            if comps.is_empty() {
                None
            } else {
                Some(Some(IntervalSet::from_intervals(comps)))
            }
        }
        _ => Some(None),
    }
}

/// A frontier pair: the row plus the source endpoint for edge seeds.
type SeedPair = (Row, Option<i64>);

/// Evaluate a planned RPE against the relational store under `span`: table
/// scans become `Scan` child spans and each directional frontier pass a
/// `Join(fwd)`/`Join(bwd)` span, carrying rows-scanned/rows-joined
/// attributes. Pass [`SpanHandle::none`] to record nothing.
pub fn evaluate_relational(
    db: &RelDb,
    schema: &Schema,
    plan: &RpePlan,
    filter: TimeFilter,
    seeds: Seeds,
    opts: &EvalOptions,
    span: &SpanHandle,
) -> Result<RelResult> {
    let mut ev = Evaluator {
        db,
        schema,
        plan,
        filter,
        sql: Vec::new(),
        temp_counter: 0,
        rows_scanned: 0,
        rows_joined: 0,
        span,
        cancel: opts.cancel.clone(),
        cancel_ctr: 0,
        tripped: None,
        labels: [NODE, EDGE]
            .into_iter()
            .chain(plan.atoms.iter().map(|a| a.class))
            .map(|class| LabelTables::resolve(db, db.class_table(class), filter))
            .collect(),
    };
    let range = filter.is_range();
    let init_times = |rows: &mut Vec<Row>| {
        if !range {
            for r in rows.iter_mut() {
                r.t_from = None;
                r.t_to = None;
            }
        }
    };

    type TimeCombo = (Option<Ts>, Option<Ts>);
    let mut merged: HashMap<Vec<i64>, Vec<TimeCombo>> = HashMap::new();
    match seeds {
        Seeds::Anchor => {
            'anchors: for &occ in &plan.anchor.atoms {
                let seed_trans = plan.nfa.seeds_for(occ);
                for (tr_idx, tr) in seed_trans.iter().enumerate() {
                    if ev.tripped.is_some() {
                        break 'anchors;
                    }
                    let seed_pairs = ev.select_atom(occ, tr_idx as u32);
                    if seed_pairs.is_empty() {
                        continue;
                    }
                    let mut fwd_rows: Vec<Row> = seed_pairs.iter().map(|(r, _)| r.clone()).collect();
                    // Backward seeds consume toward the edge's SOURCE.
                    let mut bwd_rows: Vec<Row> = seed_pairs
                        .iter()
                        .map(|(r, src)| {
                            let mut b = r.clone();
                            if b.pending.is_some() {
                                b.pending = *src;
                            }
                            b
                        })
                        .collect();
                    init_times(&mut fwd_rows);
                    init_times(&mut bwd_rows);
                    // Forward from tr.to (seed element already consumed).
                    let mut fwd_seeds: HashMap<u32, Vec<Row>> = HashMap::new();
                    fwd_seeds.insert(tr.to, fwd_rows);
                    let fwd = ev.pass(fwd_seeds, true);
                    if fwd.is_empty() {
                        continue;
                    }
                    // Backward from tr.from.
                    let mut bwd_seeds: HashMap<u32, Vec<Row>> = HashMap::new();
                    bwd_seeds.insert(tr.from, bwd_rows);
                    let bwd = ev.pass(bwd_seeds, false);
                    // Join forward and backward halves on the seed.
                    let mut bwd_by_seed: HashMap<i64, Vec<&Row>> = HashMap::new();
                    for b in &bwd {
                        bwd_by_seed.entry(b.seed_uid).or_default().push(b);
                    }
                    ev.sql.push(format!("-- Union: join forward/backward frontiers on seed (transition {})", tr_idx));
                    'fwd: for f in &fwd {
                        let Some(bs) = bwd_by_seed.get(&f.seed_uid) else { continue };
                        for b in bs {
                            // Cycle check across halves (element 0 shared).
                            let tail = &b.uid_list[1..];
                            if tail.iter().any(|u| f.uid_list.contains(u)) {
                                continue;
                            }
                            let (tf, tt) = if range {
                                let nf = match (b.t_from, f.t_from) {
                                    (Some(x), Some(y)) => Some(x.max(y)),
                                    (x, y) => x.or(y),
                                };
                                let nt = match (b.t_to, f.t_to) {
                                    (Some(x), Some(y)) => Some(x.min(y)),
                                    (x, y) => x.or(y),
                                };
                                match (nf, nt) {
                                    (Some(a2), Some(b2)) if a2 >= b2 => continue,
                                    other => other,
                                }
                            } else {
                                (None, None)
                            };
                            let mut elems: Vec<i64> = tail.to_vec();
                            elems.reverse();
                            elems.extend_from_slice(&f.uid_list);
                            merged.entry(elems).or_default().push((tf, tt));
                            if let Some(limit) = opts.limit {
                                if merged.len() >= limit.saturating_mul(4) {
                                    break 'fwd;
                                }
                            }
                        }
                    }
                }
            }
        }
        Seeds::Sources(srcs) => {
            let mut seed_rows: HashMap<u32, Vec<Row>> = HashMap::new();
            for &src in srcs {
                for &(label, to) in &plan.nfa.trans[plan.nfa.start as usize] {
                    if !ev.label_is_node(label) {
                        continue;
                    }
                    // Verify the node exists/matches under the label.
                    let probe = Row {
                        seed_uid: src.0 as i64,
                        seed_tr: 0,
                        uid_list: Vec::new(),
                        curr: 0,
                        pending: Some(src.0 as i64),
                        t_from: None,
                        t_to: None,
                    };
                    let rows = ev.extend_node(&[probe], label);
                    for mut r in rows {
                        r.uid_list = vec![src.0 as i64];
                        r.curr = src.0 as i64;
                        r.pending = None;
                        seed_rows.entry(to).or_default().push(r);
                    }
                }
            }
            for f in ev.pass(seed_rows, true) {
                merged.entry(f.uid_list.clone()).or_default().push((f.t_from, f.t_to));
            }
        }
        Seeds::Targets(tgts) => {
            let mut seed_rows: HashMap<u32, Vec<Row>> = HashMap::new();
            for &tgt in tgts {
                for tr in &plan.nfa.transitions {
                    if !plan.nfa.accepts[tr.to as usize] || !ev.label_is_node(tr.label) {
                        continue;
                    }
                    let probe = Row {
                        seed_uid: tgt.0 as i64,
                        seed_tr: 0,
                        uid_list: Vec::new(),
                        curr: 0,
                        pending: Some(tgt.0 as i64),
                        t_from: None,
                        t_to: None,
                    };
                    let rows = ev.extend_node(&[probe], tr.label);
                    for mut r in rows {
                        r.uid_list = vec![tgt.0 as i64];
                        r.curr = tgt.0 as i64;
                        r.pending = None;
                        seed_rows.entry(tr.from).or_default().push(r);
                    }
                }
            }
            for b in ev.pass(seed_rows, false) {
                let mut elems = b.uid_list.clone();
                elems.reverse();
                merged.entry(elems).or_default().push((b.t_from, b.t_to));
            }
        }
    }

    // A tripped checkpoint anywhere above means the frontier (and thus
    // `merged`) is partial: surface the typed error.
    if let Some(cause) = ev.tripped {
        return Err(cause.into());
    }

    let mut pathways = Vec::new();
    for (elems, combos) in merged {
        if let Some(times) = finalize_times(filter, combos) {
            pathways.push(Pathway { elems: elems.into_iter().map(|u| Uid(u as u64)).collect(), times });
        }
    }
    pathways.sort_by(|a, b| a.elems.cmp(&b.elems));
    if let Some(limit) = opts.limit {
        pathways.truncate(limit);
    }
    let sql = std::mem::take(&mut ev.sql);
    let (rows_scanned, rows_joined) = (ev.rows_scanned, ev.rows_joined);
    Ok(RelResult { pathways, sql, rows_scanned, rows_joined })
}
