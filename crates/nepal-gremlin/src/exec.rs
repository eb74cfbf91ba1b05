//! Gremlin-backend evaluation of RPE plans.
//!
//! The client-side framework of §5.2: `Select` and `Extend` operators are
//! sent to the server as traversals, results are collected by the
//! management code (channels), and the NFA walk proceeds client-side over
//! the fetched adjacency. The `ExtendBlock` fast path recognizes simple
//! repetition payloads and ships them as a single `repeat(...)` traversal,
//! "keeping the data in the Gremlin database for multiple operators
//! (avoiding data transfer overheads), and performing loop unrolling".

use std::collections::{BTreeMap, HashMap, HashSet};

use nepal_graph::Uid;
use nepal_obs::SpanHandle;
use nepal_rpe::{BoundAtom, BoundPred, EvalOptions, Label, Norm, Pathway, RpePlan, Seeds};
use nepal_schema::{Schema, Ts, Value};

use crate::client::GremlinClient;
use crate::graph::label_matches_prefix;
use crate::json::{json_to_value, Json};
use crate::load::OPEN_TS;
use crate::protocol::ProtoError;
use crate::server::Transport;
use crate::traversal::{GCmp, GStep};

/// Temporal scope supported by the Gremlin backend (see `load`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GremlinTime {
    Current,
    AsOf(Ts),
}

/// Evaluation result plus the number of protocol round trips.
#[derive(Debug)]
pub struct GremlinExecResult {
    pub pathways: Vec<Pathway>,
    pub round_trips: u64,
}

/// Cached info about a fetched element.
#[derive(Debug, Clone)]
struct ElemInfo {
    is_node: bool,
    label: String,
    props: BTreeMap<String, Value>,
    src: u64,
    dst: u64,
    sys_from: Ts,
    sys_to: Ts,
}

impl ElemInfo {
    fn from_json(j: &Json) -> Option<(u64, ElemInfo)> {
        let id = j.get("id")?.as_u64()?;
        let is_node = j.get("type")?.as_str()? == "vertex";
        let label = j.get("label")?.as_str()?.to_string();
        let mut props = BTreeMap::new();
        let mut sys_from = 0;
        let mut sys_to = OPEN_TS;
        if let Some(Json::Obj(m)) = j.get("properties") {
            for (k, v) in m {
                match k.as_str() {
                    "sys_from" => sys_from = v.as_i64().unwrap_or(0),
                    "sys_to" => sys_to = v.as_i64().unwrap_or(OPEN_TS),
                    _ => {
                        props.insert(k.clone(), json_to_value(v));
                    }
                }
            }
        }
        let src = j.get("outV").and_then(|x| x.as_u64()).unwrap_or(0);
        let dst = j.get("inV").and_then(|x| x.as_u64()).unwrap_or(0);
        Some((id, ElemInfo { is_node, label, props, src, dst, sys_from, sys_to }))
    }

    fn alive(&self, time: GremlinTime) -> bool {
        match time {
            GremlinTime::Current => self.sys_to >= OPEN_TS,
            GremlinTime::AsOf(t) => self.sys_from <= t && t < self.sys_to,
        }
    }
}

/// Evaluate one predicate against name-keyed properties (mirrors
/// [`BoundPred::eval`], which indexes by layout position).
fn pred_by_name(props: &BTreeMap<String, Value>, p: &BoundPred) -> bool {
    match props.get(&p.field_name) {
        None => false,
        Some(v) => {
            let fields = [v.clone()];
            let probe = BoundPred {
                field_idx: 0,
                field_name: p.field_name.clone(),
                sub_path: p.sub_path.clone(),
                op: p.op,
                value: p.value.clone(),
            };
            probe.eval(&fields)
        }
    }
}

struct GremlinEval<'a, T: Transport> {
    client: &'a mut GremlinClient<T>,
    plan: &'a RpePlan,
    time: GremlinTime,
    /// Label-prefix per atom occurrence.
    prefixes: Vec<String>,
    elems: HashMap<u64, ElemInfo>,
    out_cache: HashMap<u64, Vec<(u64, u64)>>,
    in_cache: HashMap<u64, Vec<(u64, u64)>>,
    /// Parent span for all round trips this evaluation performs.
    span: &'a SpanHandle,
}

impl<'a, T: Transport> GremlinEval<'a, T> {
    fn alive_steps(&self) -> Vec<GStep> {
        match self.time {
            GremlinTime::Current => vec![GStep::Has("sys_to".into(), GCmp::Gte, Json::Num(OPEN_TS as f64))],
            GremlinTime::AsOf(t) => vec![
                GStep::Has("sys_from".into(), GCmp::Lte, Json::Num(t as f64)),
                GStep::Has("sys_to".into(), GCmp::Gt, Json::Num(t as f64)),
            ],
        }
    }

    /// `Select`: fetch anchor candidates via a hasLabelPrefix traversal,
    /// pushing equality predicates down as `has()` steps.
    fn select(&mut self, atom_idx: u32) -> Result<Vec<u64>, ProtoError> {
        let atom = &self.plan.atoms[atom_idx as usize];
        let mut steps: Vec<GStep> = if atom.is_node { vec![GStep::V(vec![])] } else { vec![GStep::E(vec![])] };
        steps.push(GStep::HasLabelPrefix(self.prefixes[atom_idx as usize].clone()));
        for p in &atom.preds {
            if p.op == nepal_rpe::CmpOp::Eq {
                if let Some(j) = scalar_json(&p.value) {
                    steps.push(GStep::Has(p.field_name.clone(), GCmp::Eq, j));
                }
            }
        }
        steps.extend(self.alive_steps());
        let sel_span = self.span.child("Select");
        sel_span.attr("atom", &atom.display);
        let results = self.client.submit_spanned(&steps, &sel_span)?;
        let mut ids = Vec::new();
        for r in &results {
            if let Some((id, info)) = ElemInfo::from_json(r) {
                // Verify remaining predicates client-side.
                if atom.preds.iter().all(|p| pred_by_name(&info.props, p)) {
                    ids.push(id);
                    self.elems.insert(id, info);
                }
            }
        }
        sel_span.attr("rows_in", results.len());
        sel_span.attr("rows_out", ids.len());
        Ok(ids)
    }

    /// Batched adjacency fetch: one traversal per direction per frontier.
    fn fetch_adj(&mut self, ids: &[u64], outgoing: bool) -> Result<(), ProtoError> {
        let missing: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|id| if outgoing { !self.out_cache.contains_key(id) } else { !self.in_cache.contains_key(id) })
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        for &id in &missing {
            if outgoing {
                self.out_cache.entry(id).or_default();
            } else {
                self.in_cache.entry(id).or_default();
            }
        }
        let hop = if outgoing { GStep::OutE(None) } else { GStep::InE(None) };
        let next = if outgoing { GStep::InV } else { GStep::OutV };
        let steps = vec![GStep::V(missing.clone()), hop, next, GStep::Path];
        let adj_span = self.span.child(if outgoing { "Extend(fwd)" } else { "Extend(bwd)" });
        adj_span.attr("frontier", missing.len());
        let results = self.client.submit_spanned(&steps, &adj_span)?;
        for r in &results {
            let Some(path) = r.get("path").and_then(|p| p.as_arr()) else { continue };
            if path.len() != 3 {
                continue;
            }
            let Some((vid, vinfo)) = ElemInfo::from_json(&path[0]) else { continue };
            let Some((eid, einfo)) = ElemInfo::from_json(&path[1]) else { continue };
            let Some((oid, oinfo)) = ElemInfo::from_json(&path[2]) else { continue };
            self.elems.entry(vid).or_insert(vinfo);
            self.elems.entry(eid).or_insert(einfo);
            self.elems.entry(oid).or_insert(oinfo);
            let cache = if outgoing { &mut self.out_cache } else { &mut self.in_cache };
            cache.entry(vid).or_default().push((eid, oid));
        }
        Ok(())
    }

    /// Does a fetched element satisfy a label under the time scope?
    fn matches(&self, id: u64, label: Label) -> bool {
        let Some(info) = self.elems.get(&id) else { return false };
        if !info.alive(self.time) {
            return false;
        }
        match label {
            Label::AnyNode => info.is_node,
            Label::AnyEdge => !info.is_node,
            Label::Atom(a) => {
                let atom = &self.plan.atoms[a as usize];
                atom.is_node == info.is_node
                    && label_matches_prefix(&info.label, &self.prefixes[a as usize])
                    && atom.preds.iter().all(|p| pred_by_name(&info.props, p))
            }
        }
    }

    fn step_states(&self, states: &[u32], id: u64, forwards: bool) -> Vec<u32> {
        let mut next = Vec::new();
        for &s in states {
            let trans: &[(Label, u32)] =
                if forwards { &self.plan.nfa.trans[s as usize] } else { &self.plan.nfa.rev[s as usize] };
            for &(label, t) in trans {
                if self.matches(id, label) && !next.contains(&t) {
                    next.push(t);
                }
            }
        }
        next
    }

    /// DFS in one direction, batching adjacency fetches per depth level.
    fn search(
        &mut self,
        init_path: Vec<u64>,
        init_states: Vec<u32>,
        forwards: bool,
        cap: usize,
        out: &mut Vec<Vec<u64>>,
    ) -> Result<(), ProtoError> {
        let mut frontier = vec![(init_path, init_states)];
        while !frontier.is_empty() {
            // Emit acceptances.
            for (path, states) in &frontier {
                let ok = if forwards {
                    states.iter().any(|&s| self.plan.nfa.accepts[s as usize])
                } else {
                    states.contains(&self.plan.nfa.start)
                };
                if ok {
                    out.push(path.clone());
                }
            }
            // Batch-fetch adjacency for every frontier head.
            let heads: Vec<u64> =
                frontier.iter().filter(|(p, _)| p.len() + 2 <= cap).map(|(p, _)| *p.last().unwrap()).collect();
            self.fetch_adj(&heads, forwards)?;
            let mut next_frontier = Vec::new();
            for (path, states) in frontier {
                if path.len() + 2 > cap {
                    continue;
                }
                let head = *path.last().unwrap();
                let adj = if forwards {
                    self.out_cache.get(&head).cloned().unwrap_or_default()
                } else {
                    self.in_cache.get(&head).cloned().unwrap_or_default()
                };
                for (eid, oid) in adj {
                    if path.contains(&eid) || path.contains(&oid) {
                        continue;
                    }
                    let s1 = self.step_states(&states, eid, forwards);
                    if s1.is_empty() {
                        continue;
                    }
                    let s2 = self.step_states(&s1, oid, forwards);
                    if s2.is_empty() {
                        continue;
                    }
                    let mut np = path.clone();
                    np.push(eid);
                    np.push(oid);
                    next_frontier.push((np, s2));
                }
            }
            frontier = next_frontier;
        }
        Ok(())
    }
}

fn scalar_json(v: &Value) -> Option<Json> {
    match v {
        Value::Int(i) => Some(Json::Num(*i as f64)),
        Value::Str(s) => Some(Json::Str(s.clone())),
        Value::Bool(b) => Some(Json::Bool(*b)),
        _ => None,
    }
}

/// Detect the `node-atom -> [edge-atom]{min,max} -> node-atom` shape that
/// the ExtendBlock operator ships as a single `repeat` traversal.
fn extend_block_shape(plan: &RpePlan) -> Option<(u32, u32, u32, u32, u32)> {
    // norm is Alt of chains (expanded repetition) inside a Seq.
    let Norm::Seq(parts) = &plan.norm else { return None };
    if parts.len() != 3 {
        return None;
    }
    let Norm::Atom(first) = parts[0] else { return None };
    let Norm::Atom(last) = parts[2] else { return None };
    if !plan.atoms[first as usize].is_node || !plan.atoms[last as usize].is_node {
        return None;
    }
    let (mut min, mut max, mut edge_atom) = (u32::MAX, 0u32, None);
    let chains: Vec<&Norm> = match &parts[1] {
        Norm::Alt(alts) => alts.iter().collect(),
        single => vec![single],
    };
    for chain in chains {
        let atoms: Vec<u32> = match chain {
            Norm::Atom(a) => vec![*a],
            Norm::Seq(seq) => seq
                .iter()
                .map(|n| match n {
                    Norm::Atom(a) => Some(*a),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let a0 = *atoms.first()?;
        if atoms.iter().any(|&a| a != a0) || plan.atoms[a0 as usize].is_node {
            return None;
        }
        if !plan.atoms[a0 as usize].preds.is_empty() {
            return None;
        }
        match edge_atom {
            None => edge_atom = Some(a0),
            Some(e) if e == a0 => {}
            _ => return None,
        }
        min = min.min(atoms.len() as u32);
        max = max.max(atoms.len() as u32);
    }
    Some((first, edge_atom?, min, max, last))
}

/// Evaluate a planned RPE against a Gremlin server under `span`: every
/// protocol round trip becomes a child span, with server-reported phases
/// grafted in. Pass [`SpanHandle::none`] to record nothing.
/// `use_extend_block` enables the §5.2 ExtendBlock fast path.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_gremlin<T: Transport>(
    client: &mut GremlinClient<T>,
    schema: &Schema,
    plan: &RpePlan,
    time: GremlinTime,
    seeds: Seeds,
    opts: &EvalOptions,
    use_extend_block: bool,
    span: &SpanHandle,
) -> Result<GremlinExecResult, ProtoError> {
    let start_trips = client.round_trips;
    let prefixes: Vec<String> = plan.atoms.iter().map(|a| schema.path_name(a.class)).collect();
    let mut ev = GremlinEval {
        client,
        plan,
        time,
        prefixes,
        elems: HashMap::new(),
        out_cache: HashMap::new(),
        in_cache: HashMap::new(),
        span,
    };
    let cap = opts.max_elements.map(|m| m.min(plan.max_elements)).unwrap_or(plan.max_elements);
    let mut results: HashSet<Vec<u64>> = HashSet::new();

    // --- ExtendBlock fast path ---
    if use_extend_block && matches!(seeds, Seeds::Anchor) {
        if let Some((first, edge_atom, min, max, last)) = extend_block_shape(plan) {
            if plan.anchor.atoms == [first] || plan.anchor.atoms == [last] {
                let anchored_first = plan.anchor.atoms == [first];
                let anchor_atom = if anchored_first { first } else { last };
                let other_atom = if anchored_first { last } else { first };
                let ids = ev.select(anchor_atom)?;
                if !ids.is_empty() {
                    let prefix = ev.prefixes[edge_atom as usize].clone();
                    let mut body =
                        vec![if anchored_first { GStep::OutE(Some(prefix)) } else { GStep::InE(Some(prefix)) }];
                    body.extend(ev.alive_steps());
                    body.push(if anchored_first { GStep::InV } else { GStep::OutV });
                    body.extend(ev.alive_steps());
                    body.push(GStep::SimplePath);
                    let steps = vec![GStep::V(ids), GStep::Repeat(body, min, max), GStep::Path];
                    let eb_span = ev.span.child("ExtendBlock");
                    eb_span.attr("min", min);
                    eb_span.attr("max", max);
                    let raw = ev.client.submit_spanned(&steps, &eb_span)?;
                    eb_span.attr("paths", raw.len());
                    drop(eb_span);
                    let other = &plan.atoms[other_atom as usize];
                    let other_prefix = ev.prefixes[other_atom as usize].clone();
                    for r in &raw {
                        let Some(path) = r.get("path").and_then(|p| p.as_arr()) else { continue };
                        let mut uids = Vec::with_capacity(path.len());
                        let mut infos = Vec::with_capacity(path.len());
                        for el in path {
                            let Some((id, info)) = ElemInfo::from_json(el) else { continue };
                            uids.push(id);
                            infos.push(info);
                        }
                        let Some(end) = infos.last() else { continue };
                        if !label_matches_prefix(&end.label, &other_prefix)
                            || !other.preds.iter().all(|p| pred_by_name(&end.props, p))
                            || !end.alive(time)
                        {
                            continue;
                        }
                        if !anchored_first {
                            uids.reverse();
                        }
                        results.insert(uids);
                    }
                }
                return Ok(finish(results, opts, ev.client.round_trips - start_trips));
            }
        }
    }

    // --- Generic path: anchored bidirectional walk with batched fetches ---
    match seeds {
        Seeds::Anchor => {
            for &occ in &plan.anchor.atoms {
                let ids = ev.select(occ)?;
                let atom: &BoundAtom = &plan.atoms[occ as usize];
                let seed_trans = plan.nfa.seeds_for(occ);
                for id in ids {
                    for tr in &seed_trans {
                        let mut fwd: Vec<Vec<u64>> = Vec::new();
                        let mut bwd: Vec<Vec<u64>> = Vec::new();
                        if atom.is_node {
                            ev.search(vec![id], vec![tr.to], true, cap, &mut fwd)?;
                            // Backward: the seed node itself may be leftmost.
                            if tr.from == plan.nfa.start {
                                bwd.push(vec![id]);
                            }
                            ev.search(vec![id], vec![tr.from], false, cap, &mut bwd)?;
                        } else {
                            let (src, dst) = {
                                let info = ev.elems.get(&id).cloned();
                                match info {
                                    Some(i) => (i.src, i.dst),
                                    None => continue,
                                }
                            };
                            // Fetch endpoint infos via adjacency of src.
                            ev.fetch_adj(&[src], true)?;
                            let s2 = ev.step_states(&[tr.to], dst, true);
                            if s2.is_empty() {
                                continue;
                            }
                            ev.search(vec![id, dst], s2, true, cap, &mut fwd)?;
                            let b1 = ev.step_states(&[tr.from], src, false);
                            if b1.is_empty() {
                                continue;
                            }
                            ev.search(vec![id, src], b1, false, cap, &mut bwd)?;
                        }
                        for b in &bwd {
                            'combine: for f in &fwd {
                                let tail = &b[1..];
                                for u in tail {
                                    if f.contains(u) {
                                        continue 'combine;
                                    }
                                }
                                let mut elems: Vec<u64> = tail.to_vec();
                                elems.reverse();
                                elems.extend_from_slice(f);
                                if elems.len() <= cap {
                                    results.insert(elems);
                                }
                            }
                        }
                    }
                }
            }
        }
        Seeds::Sources(srcs) => {
            let ids: Vec<u64> = srcs.iter().map(|u| u.0).collect();
            // Prime the element cache.
            let steps = vec![GStep::V(ids.clone())];
            for r in ev.client.submit_spanned(&steps, ev.span)? {
                if let Some((id, info)) = ElemInfo::from_json(&r) {
                    ev.elems.insert(id, info);
                }
            }
            for id in ids {
                let s1 = ev.step_states(&[plan.nfa.start], id, true);
                if s1.is_empty() {
                    continue;
                }
                let mut fwd = Vec::new();
                ev.search(vec![id], s1, true, cap, &mut fwd)?;
                results.extend(fwd);
            }
        }
        Seeds::Targets(tgts) => {
            let ids: Vec<u64> = tgts.iter().map(|u| u.0).collect();
            let steps = vec![GStep::V(ids.clone())];
            for r in ev.client.submit_spanned(&steps, ev.span)? {
                if let Some((id, info)) = ElemInfo::from_json(&r) {
                    ev.elems.insert(id, info);
                }
            }
            let accepts: Vec<u32> = (0..plan.nfa.n_states as u32).filter(|&s| plan.nfa.accepts[s as usize]).collect();
            for id in ids {
                let b1 = ev.step_states(&accepts, id, false);
                if b1.is_empty() {
                    continue;
                }
                let mut bwd = Vec::new();
                ev.search(vec![id], b1, false, cap, &mut bwd)?;
                for mut b in bwd {
                    b.reverse();
                    results.insert(b);
                }
            }
        }
    }
    let trips = ev.client.round_trips - start_trips;
    Ok(finish(results, opts, trips))
}

fn finish(results: HashSet<Vec<u64>>, opts: &EvalOptions, round_trips: u64) -> GremlinExecResult {
    let mut pathways: Vec<Pathway> =
        results.into_iter().map(|elems| Pathway { elems: elems.into_iter().map(Uid).collect(), times: None }).collect();
    pathways.sort_by(|a, b| a.elems.cmp(&b.elems));
    if let Some(limit) = opts.limit {
        pathways.truncate(limit);
    }
    GremlinExecResult { pathways, round_trips }
}
