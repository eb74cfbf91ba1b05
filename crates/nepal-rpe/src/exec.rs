//! The native anchored evaluator.
//!
//! Implements the paper's evaluation strategy (§5.1/§5.2) directly against
//! the temporal graph store: a `Select` over the anchor atoms, then chained
//! `Extend` operators forwards and backwards with per-row NFA state and
//! uid-list cycle checks, and a `Union` merging the per-seed results.
//!
//! Temporal scope is threaded through every operator: under a
//! [`TimeFilter::Range`] each partial pathway carries the intersection of
//! its elements' maximal assertion intervals and is pruned the moment that
//! intersection becomes empty.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use nepal_graph::FOREVER;
use nepal_graph::{FxHashMap, GraphView, Interval, IntervalSet, MatchTime, TemporalGraph, TimeFilter, Uid};
use nepal_obs::{thread_cpu_ns, ExecTrace, MetricsRegistry, OpStats, ResourceMeter, SpanHandle};
use nepal_schema::{ClassId, Schema};

use crate::anchor::{apply_selectivity, CardinalityEstimator};
use crate::bind::BoundAtom;
use crate::cancel::{CancelCause, CancelToken};
use crate::error::RpeError;
use crate::nfa::Label;
use crate::par;
use crate::path::Pathway;
use crate::plan::RpePlan;

/// Where evaluation starts.
#[derive(Debug, Clone, Copy)]
pub enum Seeds<'a> {
    /// Use the plan's anchor (the normal case).
    Anchor,
    /// Anchor "imported" from a join: pathways must *start* at these nodes
    /// (e.g. `source(Phys) = target(D1)` in the paper's join example).
    Sources(&'a [Uid]),
    /// Pathways must *end* at these nodes.
    Targets(&'a [Uid]),
}

/// Evaluation options.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Stop after collecting this many pathways.
    pub limit: Option<usize>,
    /// Additional element-count cap on top of the RPE's own length limit.
    pub max_elements: Option<usize>,
    /// Worker threads for the parallel evaluator. `0` (the default)
    /// resolves via [`resolved_threads`]: the `NEPAL_THREADS` environment
    /// variable if set, otherwise the host's available parallelism.
    /// `1` forces the sequential path. When a `limit` is set evaluation
    /// also stays sequential, because the limit's early exit is
    /// traversal-order-dependent.
    pub threads: usize,
    /// Cooperative cancellation: polled at bounded intervals (anchor
    /// scans, every few node expansions, pool job boundaries). A tripped
    /// token surfaces as [`RpeError::DeadlineExceeded`] /
    /// [`RpeError::Cancelled`] from the fallible entry point
    /// [`evaluate_obs`] — never as a panic or a silently truncated result.
    pub cancel: Option<CancelToken>,
    /// Per-query resource meter. When set, the evaluator charges the
    /// meter with deterministic work counters (rows / bytes scanned,
    /// materializations, keyframe hits, classes visited, seeks) at the
    /// anchor-scan boundary — on the calling thread in both the
    /// sequential and parallel modes, so the logical counts are identical
    /// across thread counts — plus thread-CPU time sampled at entry/exit
    /// and at pool job boundaries (physical, mode-dependent). `None` (the
    /// default) keeps the no-clock-reads contract.
    pub meter: Option<Arc<ResourceMeter>>,
    /// Registry receiving the parallel evaluator's chunk/steal counters and
    /// per-worker busy-time histogram. `None` (the default) records none.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl EvalOptions {
    /// Options carrying a fresh deadline token.
    pub fn with_deadline(deadline: std::time::Duration) -> EvalOptions {
        EvalOptions { cancel: Some(CancelToken::with_deadline(deadline)), ..Default::default() }
    }
}

/// Resolve an [`EvalOptions::threads`] value to a concrete worker count:
/// any explicit `n >= 1` wins; `0` falls back to `NEPAL_THREADS` (cached
/// after the first read) or, failing that, `available_parallelism()`.
pub fn resolved_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("NEPAL_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    })
}

/// Times attached to a partial match: `None` in point mode (Current/AsOf),
/// `Some` in range mode.
type Times = Option<IntervalSet>;

fn universal() -> IntervalSet {
    IntervalSet::from_interval(Interval::new(i64::MIN, FOREVER))
}

fn times_intersect(a: &Times, b: &Times) -> (Times, bool) {
    match (a, b) {
        (None, None) => (None, true),
        (Some(x), Some(y)) => {
            let r = x.intersect(y);
            let ok = !r.is_empty();
            (Some(r), ok)
        }
        (Some(x), None) | (None, Some(x)) => (Some(x.clone()), true),
    }
}

fn times_union(a: Times, b: &Times) -> Times {
    match (a, b) {
        (None, _) => None,
        (Some(x), None) => Some(x),
        (Some(x), Some(y)) => Some(x.union(y)),
    }
}

/// One entry in an on-the-fly subset construction: an NFA state plus the
/// times during which this state is reachable for the current partial path.
type StateSet = Vec<(u32, Times)>;

fn push_state(set: &mut StateSet, s: u32, t: Times) {
    for (s2, t2) in set.iter_mut() {
        if *s2 == s {
            *t2 = times_union(std::mem::take(t2), &t);
            return;
        }
    }
    set.push((s, t));
}

/// Per-element memo of label match results.
struct ElemMatcher<'a> {
    view: &'a GraphView<'a>,
    schema: &'a Schema,
    atoms: &'a [BoundAtom],
    range_mode: bool,
    memo: FxHashMap<(Uid, Label), Option<Times>>,
    /// Partial matches dropped because their interval intersection became
    /// empty (§5 temporal pruning). A plain increment — counted even
    /// untraced, and only reported when a trace is attached.
    temporal_prunes: u64,
    /// Cooperative cancellation: the token (if any), a checkpoint counter
    /// bounding poll frequency, and the sticky cause once tripped.
    cancel: Option<CancelToken>,
    cancel_ctr: u32,
    cancel_cause: Option<CancelCause>,
}

/// Poll the cancel token once per this many search checkpoints (node
/// expansions / scanned elements), bounding both the poll overhead and the
/// cancellation latency.
const CANCEL_CHECK_MASK: u32 = 0x3F; // every 64 checkpoints

impl<'a> ElemMatcher<'a> {
    fn with_cancel(
        view: &'a GraphView<'a>,
        schema: &'a Schema,
        atoms: &'a [BoundAtom],
        cancel: Option<CancelToken>,
    ) -> Self {
        ElemMatcher {
            view,
            schema,
            atoms,
            range_mode: view.filter.is_range(),
            memo: FxHashMap::default(),
            temporal_prunes: 0,
            cancel,
            cancel_ctr: 0,
            cancel_cause: None,
        }
    }

    /// One search checkpoint: `true` → the token tripped, abandon work and
    /// unwind. Sticky, and rate-limited to one token poll per
    /// [`CANCEL_CHECK_MASK`]+1 calls.
    #[inline]
    fn checkpoint(&mut self) -> bool {
        if self.cancel_cause.is_some() {
            return true;
        }
        let Some(tok) = &self.cancel else { return false };
        self.cancel_ctr = self.cancel_ctr.wrapping_add(1);
        if self.cancel_ctr & CANCEL_CHECK_MASK != 0 {
            return false;
        }
        match tok.poll() {
            Some(cause) => {
                self.cancel_cause = Some(cause);
                true
            }
            None => false,
        }
    }

    /// `None` → element does not satisfy the label; `Some(times)` → it
    /// does, with assertion times in range mode.
    fn matches(&mut self, uid: Uid, is_node: bool, label: Label) -> Option<Times> {
        // Fast path: kind and class mismatches are decided from two array
        // reads, without touching versions or the memo. This is what makes
        // class-partitioned storage pay off (§6: "the automatic elimination
        // of many useless edges from the navigation joins").
        if let Label::Atom(a) = label {
            let atom = &self.atoms[a as usize];
            if atom.is_node != is_node {
                return None;
            }
            let class = self.view.graph.class_of(uid)?;
            if !self.schema.is_subclass(class, atom.class) {
                return None;
            }
        } else if matches!(label, Label::AnyNode) != is_node {
            return None;
        }
        if let Some(hit) = self.memo.get(&(uid, label)) {
            return hit.clone();
        }
        let result = self.compute(uid, is_node, label);
        self.memo.insert((uid, label), result.clone());
        result
    }

    fn compute(&self, uid: Uid, is_node: bool, label: Label) -> Option<Times> {
        let to_times = |mt: MatchTime| -> Times {
            match mt {
                MatchTime::Point => None,
                MatchTime::Intervals(set) => Some(set),
            }
        };
        match label {
            Label::AnyNode => {
                if !is_node {
                    return None;
                }
                self.view.matching(uid, |_| true).map(to_times)
            }
            Label::AnyEdge => {
                if is_node {
                    return None;
                }
                self.view.matching(uid, |_| true).map(to_times)
            }
            Label::Atom(a) => {
                let atom = &self.atoms[a as usize];
                if atom.is_node != is_node {
                    return None;
                }
                let class = self.view.graph.class_of(uid)?;
                if !self.schema.is_subclass(class, atom.class) {
                    return None;
                }
                self.view.matching(uid, |f| atom.matches_fields(f)).map(to_times)
            }
        }
        .map(|t| if self.range_mode && t.is_none() { Some(universal()) } else { t })
    }
}

/// Step a state set forward over one element.
fn step_fwd(plan: &RpePlan, m: &mut ElemMatcher, states: &StateSet, uid: Uid, is_node: bool) -> StateSet {
    let mut next: StateSet = Vec::new();
    for (s, t) in states {
        for &(label, to) in &plan.nfa.trans[*s as usize] {
            if let Some(lt) = m.matches(uid, is_node, label) {
                let (nt, ok) = times_intersect(t, &lt);
                if ok {
                    push_state(&mut next, to, nt);
                } else {
                    m.temporal_prunes += 1;
                }
            }
        }
    }
    next
}

/// Step a state set backward over one element (states are *before*-states).
fn step_bwd(plan: &RpePlan, m: &mut ElemMatcher, states: &StateSet, uid: Uid, is_node: bool) -> StateSet {
    let mut next: StateSet = Vec::new();
    for (s, t) in states {
        for &(label, from) in &plan.nfa.rev[*s as usize] {
            if let Some(lt) = m.matches(uid, is_node, label) {
                let (nt, ok) = times_intersect(t, &lt);
                if ok {
                    push_state(&mut next, from, nt);
                } else {
                    m.temporal_prunes += 1;
                }
            }
        }
    }
    next
}

fn accepting_times(plan: &RpePlan, states: &StateSet) -> Option<Times> {
    let mut found = false;
    let mut acc: Times = None;
    let mut first = true;
    for (s, t) in states {
        if plan.nfa.accepts[*s as usize] {
            found = true;
            if first {
                acc = t.clone();
                first = false;
            } else {
                acc = times_union(acc, t);
            }
        }
    }
    found.then_some(acc)
}

fn start_times(plan: &RpePlan, states: &StateSet) -> Option<Times> {
    let mut found = false;
    let mut acc: Times = None;
    let mut first = true;
    for (s, t) in states {
        if *s == plan.nfa.start {
            found = true;
            if first {
                acc = t.clone();
                first = false;
            } else {
                acc = times_union(acc, t);
            }
        }
    }
    found.then_some(acc)
}

/// A completed half-match: the elements on one side of the seed (seed
/// included on the forward side only) plus the times of the half.
#[derive(Debug, Clone)]
struct Half {
    elems: Vec<Uid>,
    times: Times,
}

struct Ctx<'a> {
    view: &'a GraphView<'a>,
    plan: &'a RpePlan,
    cap: usize,
}

/// Can an edge of exact `class` satisfy *any* edge-label transition out of
/// (`fwd`) or into (`!fwd`) the live states? When not, the whole adjacency
/// bucket is skipped without touching per-neighbor state. The test mirrors
/// [`ElemMatcher::matches`]'s fast-path rejections exactly (kind + class
/// only), so skipping a bucket never changes match results or prune counts
/// — every skipped neighbor would have produced `None` without counting.
fn class_viable(
    plan: &RpePlan,
    atoms: &[BoundAtom],
    schema: &Schema,
    states: &StateSet,
    class: ClassId,
    fwd: bool,
) -> bool {
    let table = if fwd { &plan.nfa.trans } else { &plan.nfa.rev };
    for (s, _) in states {
        for &(label, _) in &table[*s as usize] {
            match label {
                Label::AnyEdge => return true,
                Label::AnyNode => {}
                Label::Atom(a) => {
                    let atom = &atoms[a as usize];
                    if !atom.is_node && schema.is_subclass(class, atom.class) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Depth-first forward extension. `path` ends with a node; `states` are the
/// NFA states after consuming all of `path`.
fn fwd_search(ctx: &Ctx, m: &mut ElemMatcher, path: &mut Vec<Uid>, states: &StateSet, out: &mut Vec<Half>) {
    if m.checkpoint() {
        return; // cancelled: unwind quickly, caller surfaces the cause
    }
    if let Some(times) = accepting_times(ctx.plan, states) {
        out.push(Half { elems: path.clone(), times });
    }
    if path.len() + 2 > ctx.cap {
        return;
    }
    let last = *path.last().unwrap();
    for (class, entries) in ctx.view.graph.out_adj_list(last).buckets() {
        if !class_viable(ctx.plan, m.atoms, m.schema, states, class, true) {
            continue;
        }
        for adj in entries {
            if path.contains(&adj.edge) || path.contains(&adj.other) {
                continue;
            }
            let s1 = step_fwd(ctx.plan, m, states, adj.edge, false);
            if s1.is_empty() {
                continue;
            }
            let s2 = step_fwd(ctx.plan, m, &s1, adj.other, true);
            if s2.is_empty() {
                continue;
            }
            path.push(adj.edge);
            path.push(adj.other);
            fwd_search(ctx, m, path, &s2, out);
            path.pop();
            path.pop();
        }
    }
}

/// Depth-first backward extension. `path` holds elements to the LEFT of the
/// seed in right-to-left order (so `path.last()` is the leftmost element,
/// always a node once non-empty); `states` are before-states.
fn bwd_search(
    ctx: &Ctx,
    m: &mut ElemMatcher,
    path: &mut Vec<Uid>,
    states: &StateSet,
    leftmost_is_node: bool,
    out: &mut Vec<Half>,
) {
    if m.checkpoint() {
        return; // cancelled: unwind quickly, caller surfaces the cause
    }
    if leftmost_is_node {
        if let Some(times) = start_times(ctx.plan, states) {
            out.push(Half { elems: path.clone(), times });
        }
    }
    if path.len() + 2 > ctx.cap {
        return;
    }
    let leftmost = match path.last() {
        Some(&u) => u,
        None => return, // caller seeds with at least the anchor-adjacent node
    };
    for (class, entries) in ctx.view.graph.in_adj_list(leftmost).buckets() {
        if !class_viable(ctx.plan, m.atoms, m.schema, states, class, false) {
            continue;
        }
        for adj in entries {
            if path.contains(&adj.edge) || path.contains(&adj.other) {
                continue;
            }
            let s1 = step_bwd(ctx.plan, m, states, adj.edge, false);
            if s1.is_empty() {
                continue;
            }
            let s2 = step_bwd(ctx.plan, m, &s1, adj.other, true);
            if s2.is_empty() {
                continue;
            }
            path.push(adj.edge);
            path.push(adj.other);
            bwd_search(ctx, m, path, &s2, true, out);
            path.pop();
            path.pop();
        }
    }
}

/// Scan the store for elements satisfying an anchor atom (`Select`).
/// Uses the unique index when the atom has a unique-equality predicate.
pub fn anchor_scan(view: &GraphView, schema: &Schema, atom: &BoundAtom) -> Vec<(Uid, Times)> {
    anchor_scan_counted(view, schema, atom).0
}

/// [`anchor_scan`] plus the number of stored elements examined, so a trace
/// can report the `Select` operator's input cardinality (1 on the
/// unique-index fast path, the extent size on the scan path).
pub fn anchor_scan_counted(view: &GraphView, schema: &Schema, atom: &BoundAtom) -> (Vec<(Uid, Times)>, u64) {
    anchor_scan_cancel(view, schema, atom, None, None).expect("no cancel token supplied")
}

/// [`anchor_scan_counted`] polling `cancel` every 1024 scanned elements;
/// returns the trip cause instead of a truncated candidate set. This is
/// the deterministic metering boundary: it always runs on the calling
/// thread (both evaluator modes), and the per-uid access costs it charges
/// are pure functions of store state, so a metered query reports the same
/// logical rows / bytes / materializations at any thread count.
fn anchor_scan_cancel(
    view: &GraphView,
    schema: &Schema,
    atom: &BoundAtom,
    cancel: Option<&CancelToken>,
    meter: Option<&ResourceMeter>,
) -> std::result::Result<(Vec<(Uid, Times)>, u64), CancelCause> {
    let range_mode = view.filter.is_range();
    let to_times = |mt: MatchTime| -> Times {
        match mt {
            MatchTime::Point => {
                if range_mode {
                    Some(universal())
                } else {
                    None
                }
            }
            MatchTime::Intervals(set) => Some(set),
        }
    };
    // Unique-index fast path — only valid against the current snapshot,
    // since the index tracks currently asserted holders.
    if view.filter == TimeFilter::Current {
        if let Some((idx, value)) = atom.unique_eq_pred(schema) {
            if let Some(mm) = meter {
                mm.add_seeks(1);
                mm.add_classes(1);
            }
            if let Some(uid) = view.graph.find_unique(atom.class, idx, value) {
                if let Some(mm) = meter {
                    mm.add_rows(1);
                    let cost = view.access_cost(uid);
                    mm.add_bytes(cost.bytes);
                    mm.add_materializations(cost.materializations);
                    mm.add_keyframe_hits(cost.keyframe_hits);
                }
                if let Some(mt) = view.matching(uid, |f| atom.matches_fields(f)) {
                    return Ok((vec![(uid, to_times(mt))], 1));
                }
                return Ok((Vec::new(), 1));
            }
            return Ok((Vec::new(), 0));
        }
    }
    let mut out = Vec::new();
    let mut scanned = 0u64;
    // Local tallies so the metered scan issues one atomic add per counter,
    // not one per row.
    let (mut m_bytes, mut m_mat, mut m_kf, mut m_classes) = (0u64, 0u64, 0u64, 0u64);
    for c in schema.descendants(atom.class) {
        let ext = view.graph.extent_exact(c);
        if meter.is_some() && !ext.is_empty() {
            m_classes += 1;
        }
        for &uid in ext {
            scanned += 1;
            if scanned & 0x3FF == 0 {
                if let Some(cause) = cancel.and_then(|t| t.poll()) {
                    return Err(cause);
                }
            }
            if meter.is_some() {
                let cost = view.access_cost(uid);
                m_bytes += cost.bytes;
                m_mat += cost.materializations;
                m_kf += cost.keyframe_hits;
            }
            if let Some(mt) = view.matching(uid, |f| atom.matches_fields(f)) {
                out.push((uid, to_times(mt)));
            }
        }
    }
    if let Some(mm) = meter {
        mm.add_rows(scanned);
        mm.add_bytes(m_bytes);
        mm.add_materializations(m_mat);
        mm.add_keyframe_hits(m_kf);
        mm.add_classes(m_classes);
    }
    Ok((out, scanned))
}

fn finalize(view: &GraphView, times: Times) -> Option<Times> {
    match (view.filter, times) {
        (TimeFilter::Range(a, b), Some(set)) => {
            let probe = Interval::new(a, b.saturating_add(1));
            let comps = set.components_overlapping(&probe);
            if comps.is_empty() {
                None
            } else {
                Some(Some(IntervalSet::from_intervals(comps)))
            }
        }
        (TimeFilter::Range(_, _), None) => None, // range mode must carry times
        (_, _) => Some(None),
    }
}

/// Accumulated results: elems → merged times. Both evaluator paths insert
/// through [`add_result`], whose merge (`IntervalSet::union`, re-normalized)
/// is commutative and associative — final contents are independent of
/// insertion order, which is what makes the parallel merge deterministic.
type ResultMap = FxHashMap<Vec<Uid>, Times>;

fn add_result(elems: Vec<Uid>, times: Times, results: &mut ResultMap) {
    results.entry(elems).and_modify(|t| *t = times_union(std::mem::take(t), &times)).or_insert(times);
}

/// Evaluate a planned RPE under a time-filtered view.
///
/// Infallible convenience wrapper for token-free options: panics if
/// `opts.cancel` trips mid-evaluation. Callers that set a cancel token
/// must use the fallible [`evaluate_obs`].
pub fn evaluate(view: &GraphView, plan: &RpePlan, seeds: Seeds, opts: &EvalOptions) -> Vec<Pathway> {
    evaluate_obs(view, plan, seeds, opts, None, &SpanHandle::none())
        .expect("evaluation with a cancel token must go through evaluate_obs")
}

/// The fully observable evaluator.
///
/// - `trace` collects one [`OpStats`] per §5 operator instance plus
///   free-form counters (temporal prunes, memo size).
/// - Operator instances become child spans of `span` (the `Select` as a
///   real child, the accumulated `Extend`/`Union` work as duration spans).
/// - [`EvalOptions::metrics`] receives the parallel evaluator's counters
///   (`nepal_rpe_parallel_chunks_total`, `nepal_rpe_steals_total`) and the
///   per-worker busy-time histogram (`nepal_rpe_worker_busy_ns`).
///
/// `trace == None` plus an inactive span keeps the no-clock-reads
/// contract: the only residual cost of instrumentation is plain integer
/// increments. Dispatches to the parallel evaluator when
/// [`EvalOptions::threads`] resolves above 1 and no result `limit` is
/// set; the parallel path produces bit-identical pathways, `OpStats` rows,
/// and temporal-prune counts (see DESIGN.md).
pub fn evaluate_obs(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    trace: Option<&mut ExecTrace>,
    span: &SpanHandle,
) -> Result<Vec<Pathway>, RpeError> {
    // Coordinator CPU: one clock pair around the whole evaluation, on the
    // calling thread. Worker CPU is folded in separately at pool
    // boundaries (note_pool), so the meter's total covers every thread
    // that touched the query.
    let cpu0 = opts.meter.as_ref().map(|_| thread_cpu_ns());
    if let Some(mm) = opts.meter.as_ref() {
        match seeds {
            Seeds::Sources(s) => mm.add_rows(s.len() as u64),
            Seeds::Targets(t) => mm.add_rows(t.len() as u64),
            Seeds::Anchor => {}
        }
    }
    let result = evaluate_dispatch(view, plan, seeds, opts, trace, span);
    if let (Some(mm), Some(c0)) = (opts.meter.as_ref(), cpu0) {
        mm.add_cpu_ns(thread_cpu_ns().saturating_sub(c0));
    }
    result
}

fn evaluate_dispatch(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    trace: Option<&mut ExecTrace>,
    span: &SpanHandle,
) -> Result<Vec<Pathway>, RpeError> {
    // Fast-fail: a request arriving with an already-tripped token (server
    // drain, expired deadline) must not seed any work, however small the
    // graph — checkpoint polls inside the evaluator are rate-limited and
    // may never fire on tiny inputs.
    if let Some(cause) = opts.cancel.as_ref().and_then(|t| t.poll()) {
        return Err(RpeError::from(cause));
    }
    let threads = resolved_threads(opts.threads);
    let parallel = threads > 1
        && opts.limit.is_none()
        && match seeds {
            Seeds::Anchor => true,
            Seeds::Sources(s) => s.len() >= 2,
            Seeds::Targets(t) => t.len() >= 2,
        };
    if parallel {
        evaluate_parallel(view, plan, seeds, opts, trace, span, threads)
    } else {
        evaluate_sequential(view, plan, seeds, opts, trace, span)
    }
}

fn evaluate_sequential(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    mut trace: Option<&mut ExecTrace>,
    span: &SpanHandle,
) -> Result<Vec<Pathway>, RpeError> {
    let enabled = trace.is_some() || span.is_active();
    let schema = view.graph.schema().clone();
    let cap = opts.max_elements.map(|m| m.min(plan.max_elements)).unwrap_or(plan.max_elements);
    let ctx = Ctx { view, plan, cap };
    let mut m = ElemMatcher::with_cancel(view, &schema, &plan.atoms, opts.cancel.clone());
    // elems → merged times. BTreeMap-free: HashMap then sort at the end.
    let mut results: ResultMap = ResultMap::default();

    match seeds {
        Seeds::Anchor => {
            for &occ in &plan.anchor.atoms {
                let atom = &plan.atoms[occ as usize];
                let t_sel = enabled.then(Instant::now);
                let sel_span = span.child("Select");
                sel_span.attr("atom", &atom.display);
                let (candidates, scanned) =
                    anchor_scan_cancel(view, &schema, atom, opts.cancel.as_ref(), opts.meter.as_deref())
                        .map_err(RpeError::from)?;
                sel_span.attr("rows_in", scanned);
                sel_span.attr("rows_out", candidates.len());
                drop(sel_span);
                if let Some(trc) = trace.as_deref_mut() {
                    let mut op = OpStats::new("Select", &atom.display);
                    op.rows_in = scanned;
                    op.rows_out = candidates.len() as u64;
                    op.elapsed_ns = t_sel.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    trc.ops.push(op);
                }
                let seed_trans = plan.nfa.seeds_for(occ);
                let (mut fwd_halves, mut bwd_halves) = (0u64, 0u64);
                let (mut fwd_ns, mut bwd_ns) = (0u64, 0u64);
                let (mut union_in, mut union_ns) = (0u64, 0u64);
                let union_before = results.len() as u64;
                for (elem, times0) in &candidates {
                    if m.cancel_cause.is_some() {
                        break; // cancelled: stop seeding, surface below
                    }
                    let edge_ends = if atom.is_node {
                        None
                    } else {
                        match view.graph.edge(*elem) {
                            Ok(e) => Some((e.src, e.dst)),
                            Err(_) => continue,
                        }
                    };
                    // ε-elimination can leave the anchor occurrence on
                    // several transitions; the forward half depends only on
                    // the target state, so search each distinct state once
                    // (`None` marks a state the edge seed cannot even step
                    // into) and skip duplicate (from, to) pairs outright.
                    let mut fwd_runs: Vec<(u32, Option<Vec<Half>>)> = Vec::new();
                    let mut seen_pairs: Vec<(u32, u32)> = Vec::new();
                    for tr in &seed_trans {
                        if seen_pairs.contains(&(tr.from, tr.to)) {
                            continue;
                        }
                        seen_pairs.push((tr.from, tr.to));
                        let mut bwd: Vec<Half> = Vec::new();
                        let fwd_idx = match fwd_runs.iter().position(|(s, _)| *s == tr.to) {
                            Some(i) => i,
                            None => {
                                let states: StateSet = vec![(tr.to, times0.clone())];
                                let run = if let Some((_, dst)) = edge_ends {
                                    // Edge seed: forward must consume the
                                    // edge's target node first.
                                    let s2 = step_fwd(plan, &mut m, &states, dst, true);
                                    if s2.is_empty() {
                                        None
                                    } else {
                                        let mut fwd: Vec<Half> = Vec::new();
                                        let mut path = vec![*elem, dst];
                                        let t0 = enabled.then(Instant::now);
                                        fwd_search(&ctx, &mut m, &mut path, &s2, &mut fwd);
                                        if let Some(t) = t0 {
                                            fwd_ns += t.elapsed().as_nanos() as u64;
                                        }
                                        Some(fwd)
                                    }
                                } else {
                                    let mut fwd: Vec<Half> = Vec::new();
                                    let mut path = vec![*elem];
                                    let t0 = enabled.then(Instant::now);
                                    fwd_search(&ctx, &mut m, &mut path, &states, &mut fwd);
                                    if let Some(t) = t0 {
                                        fwd_ns += t.elapsed().as_nanos() as u64;
                                    }
                                    Some(fwd)
                                };
                                if let Some(fwd) = &run {
                                    fwd_halves += fwd.len() as u64;
                                }
                                fwd_runs.push((tr.to, run));
                                fwd_runs.len() - 1
                            }
                        };
                        if fwd_runs[fwd_idx].1.is_none() {
                            continue;
                        }
                        if let Some((src, _)) = edge_ends {
                            let bstates: StateSet = vec![(tr.from, times0.clone())];
                            let b1 = step_bwd(plan, &mut m, &bstates, src, true);
                            if b1.is_empty() {
                                continue;
                            }
                            let mut bpath = vec![src];
                            let t0 = enabled.then(Instant::now);
                            bwd_search(&ctx, &mut m, &mut bpath, &b1, true, &mut bwd);
                            if let Some(t) = t0 {
                                bwd_ns += t.elapsed().as_nanos() as u64;
                            }
                        } else {
                            let t0 = enabled.then(Instant::now);
                            let bstates: StateSet = vec![(tr.from, times0.clone())];
                            let mut bpath = Vec::new();
                            // The seed node itself is the (current) leftmost
                            // element; acceptance before extending is legal.
                            if let Some(t) = start_times(plan, &bstates) {
                                bwd.push(Half { elems: Vec::new(), times: t });
                            }
                            // Extend left of the seed node.
                            for adj in view.graph.in_adj(*elem) {
                                if adj.edge == *elem || adj.other == *elem {
                                    continue;
                                }
                                let s1 = step_bwd(plan, &mut m, &bstates, adj.edge, false);
                                if s1.is_empty() {
                                    continue;
                                }
                                let s2 = step_bwd(plan, &mut m, &s1, adj.other, true);
                                if s2.is_empty() {
                                    continue;
                                }
                                bpath.push(adj.edge);
                                bpath.push(adj.other);
                                bwd_search(&ctx, &mut m, &mut bpath, &s2, true, &mut bwd);
                                bpath.pop();
                                bpath.pop();
                            }
                            if let Some(t) = t0 {
                                bwd_ns += t.elapsed().as_nanos() as u64;
                            }
                        }
                        let fwd = fwd_runs[fwd_idx].1.as_ref().expect("checked above");
                        bwd_halves += bwd.len() as u64;
                        union_in += (bwd.len() * fwd.len()) as u64;
                        // Union: cross-combine halves.
                        let t0 = enabled.then(Instant::now);
                        for b in &bwd {
                            if m.checkpoint() {
                                break;
                            }
                            'combine: for fh in fwd {
                                // Cycle check across the two halves.
                                for u in &b.elems {
                                    if fh.elems.contains(u) {
                                        continue 'combine;
                                    }
                                }
                                let (t, ok) = times_intersect(&b.times, &fh.times);
                                if !ok {
                                    m.temporal_prunes += 1;
                                    continue;
                                }
                                let mut elems = b.elems.clone();
                                elems.reverse();
                                elems.extend_from_slice(&fh.elems);
                                if elems.len() > cap {
                                    continue;
                                }
                                add_result(elems, t, &mut results);
                            }
                        }
                        if let Some(t) = t0 {
                            union_ns += t.elapsed().as_nanos() as u64;
                        }
                        if let Some(limit) = opts.limit {
                            if results.len() >= limit {
                                break;
                            }
                        }
                    }
                }
                if let Some(trc) = trace.as_deref_mut() {
                    let n_cand = candidates.len() as u64;
                    let mut op = OpStats::new("Extend(fwd)", &atom.display);
                    op.rows_in = n_cand;
                    op.rows_out = fwd_halves;
                    op.elapsed_ns = fwd_ns;
                    op.depth = 1;
                    trc.ops.push(op);
                    let mut op = OpStats::new("Extend(bwd)", &atom.display);
                    op.rows_in = n_cand;
                    op.rows_out = bwd_halves;
                    op.elapsed_ns = bwd_ns;
                    op.depth = 1;
                    trc.ops.push(op);
                    let mut op = OpStats::new("Union", &atom.display);
                    op.rows_in = union_in;
                    op.rows_out = results.len() as u64 - union_before;
                    op.elapsed_ns = union_ns;
                    op.depth = 1;
                    trc.ops.push(op);
                }
                // The extend/union work is interleaved across the candidate
                // loop; report the accumulated durations as completed spans.
                span.span_dur(
                    "Extend(fwd)",
                    fwd_ns,
                    &[("atom", atom.display.clone()), ("halves", fwd_halves.to_string())],
                );
                span.span_dur(
                    "Extend(bwd)",
                    bwd_ns,
                    &[("atom", atom.display.clone()), ("halves", bwd_halves.to_string())],
                );
                span.span_dur("Union", union_ns, &[("atom", atom.display.clone()), ("pairs_in", union_in.to_string())]);
            }
        }
        Seeds::Sources(srcs) => {
            let t0 = enabled.then(Instant::now);
            let mut seeded = 0u64;
            let mut halves = 0u64;
            for &src in srcs {
                if m.cancel_cause.is_some() {
                    break;
                }
                if !view.graph.is_node(src) {
                    continue;
                }
                let init: StateSet =
                    vec![(plan.nfa.start, if view.filter.is_range() { Some(universal()) } else { None })];
                let s1 = step_fwd(plan, &mut m, &init, src, true);
                if s1.is_empty() {
                    continue;
                }
                seeded += 1;
                let mut path = vec![src];
                let mut fwd = Vec::new();
                fwd_search(&ctx, &mut m, &mut path, &s1, &mut fwd);
                halves += fwd.len() as u64;
                for h in fwd {
                    add_result(h.elems, h.times, &mut results);
                }
            }
            let elapsed_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(trc) = trace.as_deref_mut() {
                let mut op = OpStats::new("Select", "imported source seeds");
                op.rows_in = srcs.len() as u64;
                op.rows_out = seeded;
                trc.ops.push(op);
                let mut op = OpStats::new("Extend(fwd)", "from imported sources");
                op.rows_in = seeded;
                op.rows_out = halves;
                op.elapsed_ns = elapsed_ns;
                op.depth = 1;
                trc.ops.push(op);
            }
            span.span_dur(
                "Extend(fwd)",
                elapsed_ns,
                &[("seeds", format!("{seeded}/{}", srcs.len())), ("halves", halves.to_string())],
            );
        }
        Seeds::Targets(tgts) => {
            let t0 = enabled.then(Instant::now);
            let mut seeded = 0u64;
            let mut halves = 0u64;
            let accept_states: StateSet = (0..plan.nfa.n_states as u32)
                .filter(|&s| plan.nfa.accepts[s as usize])
                .map(|s| (s, if view.filter.is_range() { Some(universal()) } else { None }))
                .collect();
            for &tgt in tgts {
                if m.cancel_cause.is_some() {
                    break;
                }
                if !view.graph.is_node(tgt) {
                    continue;
                }
                let b1 = step_bwd(plan, &mut m, &accept_states, tgt, true);
                if b1.is_empty() {
                    continue;
                }
                seeded += 1;
                let mut path = vec![tgt];
                let mut bwd = Vec::new();
                bwd_search(&ctx, &mut m, &mut path, &b1, true, &mut bwd);
                halves += bwd.len() as u64;
                for h in bwd {
                    let mut elems = h.elems;
                    elems.reverse();
                    add_result(elems, h.times, &mut results);
                }
            }
            let elapsed_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(trc) = trace.as_deref_mut() {
                let mut op = OpStats::new("Select", "imported target seeds");
                op.rows_in = tgts.len() as u64;
                op.rows_out = seeded;
                trc.ops.push(op);
                let mut op = OpStats::new("Extend(bwd)", "from imported targets");
                op.rows_in = seeded;
                op.rows_out = halves;
                op.elapsed_ns = elapsed_ns;
                op.depth = 1;
                trc.ops.push(op);
            }
            span.span_dur(
                "Extend(bwd)",
                elapsed_ns,
                &[("seeds", format!("{seeded}/{}", tgts.len())), ("halves", halves.to_string())],
            );
        }
    }

    if let Some(trc) = trace {
        trc.bump("temporal_prunes", m.temporal_prunes);
        trc.bump("match_memo_entries", m.memo.len() as u64);
    }
    span.attr("temporal_prunes", m.temporal_prunes);
    span.attr("match_memo_entries", m.memo.len());

    // A tripped checkpoint anywhere above means the accumulated results
    // are partial — surface the typed error, never a truncated Ok.
    if let Some(cause) = m.cancel_cause {
        return Err(cause.into());
    }

    let mut out: Vec<Pathway> = Vec::new();
    for (elems, times) in results {
        if let Some(t) = finalize(view, times) {
            out.push(Pathway { elems, times: t });
        }
    }
    out.sort_by(|a, b| a.elems.cmp(&b.elems));
    if let Some(limit) = opts.limit {
        out.truncate(limit);
    }
    Ok(out)
}

/// One search unit during parallel evaluation: every frontier root of one
/// `(candidate, NFA seed transition)` extension tree, plus the halves
/// already completed on the coordinator (root accepts collected while
/// carving out the frontier). After the search pool runs, `halves` holds
/// the unit's full half-match list.
struct ParUnit {
    fwd: bool,
    roots: Vec<(Vec<Uid>, StateSet)>,
    halves: Vec<Half>,
}

/// Consume search-tree levels breadth-first on the coordinator until the
/// frontier holds at least `want` independent subtrees (or the tree is
/// exhausted). Accepts found at consumed roots go to `prefix`; the
/// returned frontier items become pool jobs. The step calls made here are
/// exactly the ones the depth-first search would have made for the same
/// prefix paths, so match results and prune counts are unchanged — the
/// work is split, not redone.
fn expand_frontier(
    ctx: &Ctx,
    m: &mut ElemMatcher,
    roots: Vec<(Vec<Uid>, StateSet)>,
    fwd: bool,
    want: usize,
    prefix: &mut Vec<Half>,
) -> Vec<(Vec<Uid>, StateSet)> {
    let mut queue: VecDeque<(Vec<Uid>, StateSet)> = roots.into();
    let mut popped = 0usize;
    while queue.len() < want && popped < want.saturating_mul(4) {
        if m.checkpoint() {
            break; // cancelled: the caller checks the cause before merging
        }
        let Some((path, states)) = queue.pop_front() else { break };
        popped += 1;
        let accept = if fwd { accepting_times(ctx.plan, &states) } else { start_times(ctx.plan, &states) };
        if let Some(times) = accept {
            prefix.push(Half { elems: path.clone(), times });
        }
        if path.len() + 2 > ctx.cap {
            continue;
        }
        let last = *path.last().expect("expansion roots are non-empty");
        let adj = if fwd { ctx.view.graph.out_adj_list(last) } else { ctx.view.graph.in_adj_list(last) };
        for (class, entries) in adj.buckets() {
            if !class_viable(ctx.plan, m.atoms, m.schema, &states, class, fwd) {
                continue;
            }
            for a in entries {
                if path.contains(&a.edge) || path.contains(&a.other) {
                    continue;
                }
                let step = if fwd { step_fwd } else { step_bwd };
                let s1 = step(ctx.plan, m, &states, a.edge, false);
                if s1.is_empty() {
                    continue;
                }
                let s2 = step(ctx.plan, m, &s1, a.other, true);
                if s2.is_empty() {
                    continue;
                }
                let mut p = path.clone();
                p.push(a.edge);
                p.push(a.other);
                queue.push_back((p, s2));
            }
        }
    }
    queue.into_iter().collect()
}

/// Record one pool run's observability: total chunks/steals, a child span
/// per worker, and the per-worker busy-time histogram.
#[allow(clippy::too_many_arguments)]
fn note_pool<W>(
    span: &SpanHandle,
    metrics: Option<&MetricsRegistry>,
    meter: Option<&ResourceMeter>,
    reports: &[par::WorkerReport<W>],
    stats: &par::PoolStats,
    stage: &str,
    chunks: &mut u64,
    steals: &mut u64,
) {
    *chunks += stats.jobs;
    *steals += stats.steals;
    if let Some(mm) = meter {
        // Pool workers sample their own thread-CPU clock at job
        // boundaries; fold the per-worker totals into the query's meter.
        mm.add_cpu_ns(reports.iter().map(|r| r.cpu_ns).sum());
    }
    for (i, r) in reports.iter().enumerate() {
        if r.busy_ns > 0 {
            span.span_dur(
                "worker",
                r.busy_ns,
                &[
                    ("stage", stage.to_string()),
                    ("worker", i.to_string()),
                    ("jobs", r.jobs.to_string()),
                    ("steals", r.steals.to_string()),
                ],
            );
        }
        if let Some(reg) = metrics {
            reg.histogram("nepal_rpe_worker_busy_ns", "Per-worker busy time per parallel evaluation stage (ns)")
                .observe(r.busy_ns);
        }
    }
}

/// The parallel evaluator. Produces bit-identical output to
/// [`evaluate_sequential`]: the anchor seed set is partitioned into
/// independent extension subtrees run on a work-stealing pool (each worker
/// with a private [`ElemMatcher`] memo), and the `Union` merges per-chunk
/// results in seed order through the same commutative [`add_result`]
/// merge, followed by the same final sort. Only called with no `limit`
/// set — the limit's early exit is traversal-order-dependent.
fn evaluate_parallel(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    mut trace: Option<&mut ExecTrace>,
    span: &SpanHandle,
    threads: usize,
) -> Result<Vec<Pathway>, RpeError> {
    let metrics = opts.metrics.as_deref();
    let enabled = trace.is_some() || span.is_active();
    let timed = enabled || metrics.is_some() || opts.meter.is_some();
    let schema = view.graph.schema().clone();
    let cap = opts.max_elements.map(|m| m.min(plan.max_elements)).unwrap_or(plan.max_elements);
    let ctx = Ctx { view, plan, cap };
    let mut m = ElemMatcher::with_cancel(view, &schema, &plan.atoms, opts.cancel.clone());
    let mut results: ResultMap = ResultMap::default();
    let (mut total_chunks, mut total_steals) = (0u64, 0u64);
    // Per-worker memo entries: workers re-derive matches the coordinator
    // or a sibling may also hold (the memo-locality trade-off), so this
    // can exceed the sequential memo size.
    let mut worker_memo = 0u64;

    match seeds {
        Seeds::Anchor => {
            for &occ in &plan.anchor.atoms {
                let atom = &plan.atoms[occ as usize];
                let t_sel = enabled.then(Instant::now);
                let sel_span = span.child("Select");
                sel_span.attr("atom", &atom.display);
                let (candidates, scanned) =
                    anchor_scan_cancel(view, &schema, atom, opts.cancel.as_ref(), opts.meter.as_deref())
                        .map_err(RpeError::from)?;
                sel_span.attr("rows_in", scanned);
                sel_span.attr("rows_out", candidates.len());
                drop(sel_span);
                if let Some(trc) = trace.as_deref_mut() {
                    let mut op = OpStats::new("Select", &atom.display);
                    op.rows_in = scanned;
                    op.rows_out = candidates.len() as u64;
                    op.elapsed_ns = t_sel.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    trc.ops.push(op);
                }
                let seed_trans = plan.nfa.seeds_for(occ);
                let (mut fwd_halves, mut bwd_halves) = (0u64, 0u64);
                let (mut fwd_ns, mut bwd_ns) = (0u64, 0u64);
                let (mut union_in, mut union_ns) = (0u64, 0u64);
                let union_before = results.len() as u64;

                // Pass 1: replay the sequential seeding steps, but collect
                // search units instead of recursing. Units and pairs are
                // enumerated in candidate order, so the later merge replays
                // the sequential union order.
                let mut units: Vec<ParUnit> = Vec::new();
                let mut pairs: Vec<(usize, usize)> = Vec::new(); // (bwd unit, fwd unit)
                for (elem, times0) in &candidates {
                    if m.cancel_cause.is_some() {
                        break; // cancelled: stop seeding, surface below
                    }
                    let edge_ends = if atom.is_node {
                        None
                    } else {
                        match view.graph.edge(*elem) {
                            Ok(e) => Some((e.src, e.dst)),
                            Err(_) => continue,
                        }
                    };
                    // Same dedup as the sequential path: distinct (from, to)
                    // pairs, one forward unit per distinct target state
                    // (`None` marks a state the edge seed cannot step into).
                    let mut fwd_units: Vec<(u32, Option<usize>)> = Vec::new();
                    let mut seen_pairs: Vec<(u32, u32)> = Vec::new();
                    for tr in &seed_trans {
                        if seen_pairs.contains(&(tr.from, tr.to)) {
                            continue;
                        }
                        seen_pairs.push((tr.from, tr.to));
                        let fu = match fwd_units.iter().find(|(s, _)| *s == tr.to) {
                            Some(&(_, u)) => u,
                            None => {
                                let states: StateSet = vec![(tr.to, times0.clone())];
                                let u = if let Some((_, dst)) = edge_ends {
                                    // Edge seed: forward must consume the
                                    // edge's target node first.
                                    let s2 = step_fwd(plan, &mut m, &states, dst, true);
                                    if s2.is_empty() {
                                        None
                                    } else {
                                        units.push(ParUnit {
                                            fwd: true,
                                            roots: vec![(vec![*elem, dst], s2)],
                                            halves: Vec::new(),
                                        });
                                        Some(units.len() - 1)
                                    }
                                } else {
                                    units.push(ParUnit {
                                        fwd: true,
                                        roots: vec![(vec![*elem], states)],
                                        halves: Vec::new(),
                                    });
                                    Some(units.len() - 1)
                                };
                                fwd_units.push((tr.to, u));
                                u
                            }
                        };
                        let Some(fu) = fu else { continue };
                        let bstates: StateSet = vec![(tr.from, times0.clone())];
                        let bu = if let Some((src, _)) = edge_ends {
                            let b1 = step_bwd(plan, &mut m, &bstates, src, true);
                            if b1.is_empty() {
                                continue;
                            }
                            units.push(ParUnit { fwd: false, roots: vec![(vec![src], b1)], halves: Vec::new() });
                            units.len() - 1
                        } else {
                            // Node seed: the seed itself is the (current)
                            // leftmost element; acceptance before extending
                            // is legal, and the first hop left of the seed
                            // happens here — exactly as the sequential path
                            // does it — so every root below is a standard
                            // bwd_search root.
                            let mut halves = Vec::new();
                            if let Some(t) = start_times(plan, &bstates) {
                                halves.push(Half { elems: Vec::new(), times: t });
                            }
                            let mut roots = Vec::new();
                            for adj in view.graph.in_adj(*elem) {
                                if adj.edge == *elem || adj.other == *elem {
                                    continue;
                                }
                                let s1 = step_bwd(plan, &mut m, &bstates, adj.edge, false);
                                if s1.is_empty() {
                                    continue;
                                }
                                let s2 = step_bwd(plan, &mut m, &s1, adj.other, true);
                                if s2.is_empty() {
                                    continue;
                                }
                                roots.push((vec![adj.edge, adj.other], s2));
                            }
                            units.push(ParUnit { fwd: false, roots, halves });
                            units.len() - 1
                        };
                        pairs.push((bu, fu));
                    }
                }

                // Pass 2: with few candidates (unique anchors — the common
                // Table-1 shape) there are too few roots to keep a pool
                // busy; carve deeper frontiers out of each unit's tree.
                let total_roots: usize = units.iter().map(|u| u.roots.len()).sum();
                let target = threads * 3;
                if total_roots < target && !units.is_empty() {
                    let want = (target.div_ceil(units.len())).max(2);
                    for u in units.iter_mut() {
                        if u.roots.len() >= want {
                            continue;
                        }
                        let t0 = enabled.then(Instant::now);
                        let roots = std::mem::take(&mut u.roots);
                        u.roots = expand_frontier(&ctx, &mut m, roots, u.fwd, want, &mut u.halves);
                        if let Some(t) = t0 {
                            let ns = t.elapsed().as_nanos() as u64;
                            if u.fwd {
                                fwd_ns += ns;
                            } else {
                                bwd_ns += ns;
                            }
                        }
                    }
                }

                // Pass 3: run every frontier subtree on the pool, each
                // worker carrying its own memo across the jobs it executes.
                let mut jobs: Vec<(usize, Vec<Uid>, StateSet, bool)> = Vec::new();
                for (ui, u) in units.iter_mut().enumerate() {
                    for (path, states) in std::mem::take(&mut u.roots) {
                        jobs.push((ui, path, states, u.fwd));
                    }
                }
                let (outs, reports, stats) = par::run_jobs_cancel(
                    jobs.len(),
                    threads,
                    timed,
                    opts.cancel.as_ref(),
                    |_| ElemMatcher::with_cancel(view, &schema, &plan.atoms, opts.cancel.clone()),
                    |mw: &mut ElemMatcher, j: usize| {
                        let (_, path, states, fwd) = &jobs[j];
                        let mut out = Vec::new();
                        let mut p = path.clone();
                        let t0 = enabled.then(Instant::now);
                        if *fwd {
                            fwd_search(&ctx, mw, &mut p, states, &mut out);
                        } else {
                            bwd_search(&ctx, mw, &mut p, states, true, &mut out);
                        }
                        (out, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
                    },
                );
                for r in &reports {
                    m.temporal_prunes += r.state.temporal_prunes;
                    worker_memo += r.state.memo.len() as u64;
                    if m.cancel_cause.is_none() {
                        m.cancel_cause = r.state.cancel_cause;
                    }
                }
                // Abandoned slots mean the pool observed a tripped token
                // between jobs; the flag is sticky, so this poll records it.
                if m.cancel_cause.is_none() && outs.iter().any(|o| o.is_none()) {
                    m.cancel_cause = opts.cancel.as_ref().and_then(|t| t.poll());
                }
                note_pool(
                    span,
                    metrics,
                    opts.meter.as_deref(),
                    &reports,
                    &stats,
                    "search",
                    &mut total_chunks,
                    &mut total_steals,
                );
                for (j, slot) in outs.into_iter().enumerate() {
                    let Some((halves, ns)) = slot else { continue };
                    let (ui, _, _, fwd) = &jobs[j];
                    if *fwd {
                        fwd_ns += ns;
                    } else {
                        bwd_ns += ns;
                    }
                    units[*ui].halves.extend(halves);
                }
                for u in &units {
                    if u.fwd {
                        fwd_halves += u.halves.len() as u64;
                    } else {
                        bwd_halves += u.halves.len() as u64;
                    }
                }

                // Pass 4: Union. Cross-combines are independent per
                // (backward half, forward half) pair; big pairs are split
                // over backward-half ranges. Results merge in job order —
                // and add_result's merge is commutative anyway.
                let mut ujobs: Vec<(usize, usize, usize)> = Vec::new(); // (pair, b_lo, b_hi)
                for (pi, &(bu, fu)) in pairs.iter().enumerate() {
                    let (b, f) = (units[bu].halves.len(), units[fu].halves.len());
                    union_in += (b * f) as u64;
                    if b == 0 || f == 0 {
                        continue;
                    }
                    let splits = if b * f > 2048 { threads.min(b) } else { 1 };
                    for c in 0..splits {
                        let (lo, hi) = (c * b / splits, (c + 1) * b / splits);
                        if lo < hi {
                            ujobs.push((pi, lo, hi));
                        }
                    }
                }
                let (uouts, ureports, ustats) = par::run_jobs_cancel(
                    ujobs.len(),
                    threads,
                    timed,
                    opts.cancel.as_ref(),
                    |_| None::<CancelCause>,
                    |tripped: &mut Option<CancelCause>, j: usize| {
                        let (pi, lo, hi) = ujobs[j];
                        let (bu, fu) = pairs[pi];
                        let bwd = &units[bu].halves[lo..hi];
                        let fwd = &units[fu].halves;
                        let mut out: Vec<(Vec<Uid>, Times)> = Vec::new();
                        let mut prunes = 0u64;
                        let t0 = enabled.then(Instant::now);
                        'rows: for (bi, b) in bwd.iter().enumerate() {
                            if bi as u32 & CANCEL_CHECK_MASK == 0 {
                                if let Some(cause) = opts.cancel.as_ref().and_then(|t| t.poll()) {
                                    *tripped = Some(cause);
                                    break 'rows;
                                }
                            }
                            'combine: for fh in fwd {
                                // Cycle check across the two halves.
                                for u in &b.elems {
                                    if fh.elems.contains(u) {
                                        continue 'combine;
                                    }
                                }
                                let (t, ok) = times_intersect(&b.times, &fh.times);
                                if !ok {
                                    prunes += 1;
                                    continue;
                                }
                                let mut elems = b.elems.clone();
                                elems.reverse();
                                elems.extend_from_slice(&fh.elems);
                                if elems.len() > cap {
                                    continue;
                                }
                                out.push((elems, t));
                            }
                        }
                        (out, prunes, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
                    },
                );
                for r in &ureports {
                    if m.cancel_cause.is_none() {
                        m.cancel_cause = r.state;
                    }
                }
                if m.cancel_cause.is_none() && uouts.iter().any(|o| o.is_none()) {
                    m.cancel_cause = opts.cancel.as_ref().and_then(|t| t.poll());
                }
                note_pool(
                    span,
                    metrics,
                    opts.meter.as_deref(),
                    &ureports,
                    &ustats,
                    "union",
                    &mut total_chunks,
                    &mut total_steals,
                );
                for slot in uouts {
                    let Some((out, prunes, ns)) = slot else { continue };
                    m.temporal_prunes += prunes;
                    union_ns += ns;
                    for (e, t) in out {
                        add_result(e, t, &mut results);
                    }
                }

                if let Some(trc) = trace.as_deref_mut() {
                    let n_cand = candidates.len() as u64;
                    let mut op = OpStats::new("Extend(fwd)", &atom.display);
                    op.rows_in = n_cand;
                    op.rows_out = fwd_halves;
                    op.elapsed_ns = fwd_ns;
                    op.depth = 1;
                    trc.ops.push(op);
                    let mut op = OpStats::new("Extend(bwd)", &atom.display);
                    op.rows_in = n_cand;
                    op.rows_out = bwd_halves;
                    op.elapsed_ns = bwd_ns;
                    op.depth = 1;
                    trc.ops.push(op);
                    let mut op = OpStats::new("Union", &atom.display);
                    op.rows_in = union_in;
                    op.rows_out = results.len() as u64 - union_before;
                    op.elapsed_ns = union_ns;
                    op.depth = 1;
                    trc.ops.push(op);
                }
                span.span_dur(
                    "Extend(fwd)",
                    fwd_ns,
                    &[("atom", atom.display.clone()), ("halves", fwd_halves.to_string())],
                );
                span.span_dur(
                    "Extend(bwd)",
                    bwd_ns,
                    &[("atom", atom.display.clone()), ("halves", bwd_halves.to_string())],
                );
                span.span_dur("Union", union_ns, &[("atom", atom.display.clone()), ("pairs_in", union_in.to_string())]);
            }
        }
        Seeds::Sources(srcs) => {
            let t0 = enabled.then(Instant::now);
            let n_chunks = (threads * 4).min(srcs.len());
            let bounds: Vec<(usize, usize)> =
                (0..n_chunks).map(|c| (c * srcs.len() / n_chunks, (c + 1) * srcs.len() / n_chunks)).collect();
            let (outs, reports, stats) = par::run_jobs_cancel(
                n_chunks,
                threads,
                timed,
                opts.cancel.as_ref(),
                |_| ElemMatcher::with_cancel(view, &schema, &plan.atoms, opts.cancel.clone()),
                |mw: &mut ElemMatcher, ci: usize| {
                    let (lo, hi) = bounds[ci];
                    let mut res: Vec<(Vec<Uid>, Times)> = Vec::new();
                    let (mut seeded, mut halves) = (0u64, 0u64);
                    for &src in &srcs[lo..hi] {
                        if mw.cancel_cause.is_some() {
                            break;
                        }
                        if !view.graph.is_node(src) {
                            continue;
                        }
                        let init: StateSet =
                            vec![(plan.nfa.start, if view.filter.is_range() { Some(universal()) } else { None })];
                        let s1 = step_fwd(plan, mw, &init, src, true);
                        if s1.is_empty() {
                            continue;
                        }
                        seeded += 1;
                        let mut path = vec![src];
                        let mut fwd = Vec::new();
                        fwd_search(&ctx, mw, &mut path, &s1, &mut fwd);
                        halves += fwd.len() as u64;
                        for h in fwd {
                            res.push((h.elems, h.times));
                        }
                    }
                    (res, seeded, halves)
                },
            );
            for r in &reports {
                m.temporal_prunes += r.state.temporal_prunes;
                worker_memo += r.state.memo.len() as u64;
                if m.cancel_cause.is_none() {
                    m.cancel_cause = r.state.cancel_cause;
                }
            }
            if m.cancel_cause.is_none() && outs.iter().any(|o| o.is_none()) {
                m.cancel_cause = opts.cancel.as_ref().and_then(|t| t.poll());
            }
            note_pool(
                span,
                metrics,
                opts.meter.as_deref(),
                &reports,
                &stats,
                "search",
                &mut total_chunks,
                &mut total_steals,
            );
            let (mut seeded, mut halves) = (0u64, 0u64);
            for slot in outs {
                let Some((res, s, h)) = slot else { continue };
                seeded += s;
                halves += h;
                for (e, t) in res {
                    add_result(e, t, &mut results);
                }
            }
            let elapsed_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(trc) = trace.as_deref_mut() {
                let mut op = OpStats::new("Select", "imported source seeds");
                op.rows_in = srcs.len() as u64;
                op.rows_out = seeded;
                trc.ops.push(op);
                let mut op = OpStats::new("Extend(fwd)", "from imported sources");
                op.rows_in = seeded;
                op.rows_out = halves;
                op.elapsed_ns = elapsed_ns;
                op.depth = 1;
                trc.ops.push(op);
            }
            span.span_dur(
                "Extend(fwd)",
                elapsed_ns,
                &[("seeds", format!("{seeded}/{}", srcs.len())), ("halves", halves.to_string())],
            );
        }
        Seeds::Targets(tgts) => {
            let t0 = enabled.then(Instant::now);
            let accept_states: StateSet = (0..plan.nfa.n_states as u32)
                .filter(|&s| plan.nfa.accepts[s as usize])
                .map(|s| (s, if view.filter.is_range() { Some(universal()) } else { None }))
                .collect();
            let n_chunks = (threads * 4).min(tgts.len());
            let bounds: Vec<(usize, usize)> =
                (0..n_chunks).map(|c| (c * tgts.len() / n_chunks, (c + 1) * tgts.len() / n_chunks)).collect();
            let (outs, reports, stats) = par::run_jobs_cancel(
                n_chunks,
                threads,
                timed,
                opts.cancel.as_ref(),
                |_| ElemMatcher::with_cancel(view, &schema, &plan.atoms, opts.cancel.clone()),
                |mw: &mut ElemMatcher, ci: usize| {
                    let (lo, hi) = bounds[ci];
                    let mut res: Vec<(Vec<Uid>, Times)> = Vec::new();
                    let (mut seeded, mut halves) = (0u64, 0u64);
                    for &tgt in &tgts[lo..hi] {
                        if mw.cancel_cause.is_some() {
                            break;
                        }
                        if !view.graph.is_node(tgt) {
                            continue;
                        }
                        let b1 = step_bwd(plan, mw, &accept_states, tgt, true);
                        if b1.is_empty() {
                            continue;
                        }
                        seeded += 1;
                        let mut path = vec![tgt];
                        let mut bwd = Vec::new();
                        bwd_search(&ctx, mw, &mut path, &b1, true, &mut bwd);
                        halves += bwd.len() as u64;
                        for h in bwd {
                            let mut elems = h.elems;
                            elems.reverse();
                            res.push((elems, h.times));
                        }
                    }
                    (res, seeded, halves)
                },
            );
            for r in &reports {
                m.temporal_prunes += r.state.temporal_prunes;
                worker_memo += r.state.memo.len() as u64;
                if m.cancel_cause.is_none() {
                    m.cancel_cause = r.state.cancel_cause;
                }
            }
            if m.cancel_cause.is_none() && outs.iter().any(|o| o.is_none()) {
                m.cancel_cause = opts.cancel.as_ref().and_then(|t| t.poll());
            }
            note_pool(
                span,
                metrics,
                opts.meter.as_deref(),
                &reports,
                &stats,
                "search",
                &mut total_chunks,
                &mut total_steals,
            );
            let (mut seeded, mut halves) = (0u64, 0u64);
            for slot in outs {
                let Some((res, s, h)) = slot else { continue };
                seeded += s;
                halves += h;
                for (e, t) in res {
                    add_result(e, t, &mut results);
                }
            }
            let elapsed_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(trc) = trace.as_deref_mut() {
                let mut op = OpStats::new("Select", "imported target seeds");
                op.rows_in = tgts.len() as u64;
                op.rows_out = seeded;
                trc.ops.push(op);
                let mut op = OpStats::new("Extend(bwd)", "from imported targets");
                op.rows_in = seeded;
                op.rows_out = halves;
                op.elapsed_ns = elapsed_ns;
                op.depth = 1;
                trc.ops.push(op);
            }
            span.span_dur(
                "Extend(bwd)",
                elapsed_ns,
                &[("seeds", format!("{seeded}/{}", tgts.len())), ("halves", halves.to_string())],
            );
        }
    }

    if let Some(trc) = trace {
        trc.bump("temporal_prunes", m.temporal_prunes);
        trc.bump("match_memo_entries", m.memo.len() as u64 + worker_memo);
        trc.bump("rpe_parallel_chunks", total_chunks);
        trc.bump("rpe_steal_count", total_steals);
    }
    span.attr("temporal_prunes", m.temporal_prunes);
    span.attr("match_memo_entries", m.memo.len() as u64 + worker_memo);
    span.attr("threads", threads);
    span.attr("rpe_parallel_chunks", total_chunks);
    span.attr("rpe_steal_count", total_steals);
    if let Some(reg) = metrics {
        reg.counter("nepal_rpe_parallel_chunks_total", "Parallel evaluation chunks (pool jobs) executed")
            .add(total_chunks);
        reg.counter("nepal_rpe_steals_total", "Cross-worker steals in the parallel evaluator").add(total_steals);
    }

    // Any trip — coordinator checkpoint, worker checkpoint, or abandoned
    // pool jobs — means partial results: surface the typed error.
    if let Some(cause) = m.cancel_cause {
        return Err(cause.into());
    }

    let mut out: Vec<Pathway> = Vec::new();
    for (elems, times) in results {
        if let Some(t) = finalize(view, times) {
            out.push(Pathway { elems, times: t });
        }
    }
    out.sort_by(|a, b| a.elems.cmp(&b.elems));
    if let Some(limit) = opts.limit {
        out.truncate(limit);
    }
    Ok(out)
}

/// Live-statistics estimator backed by the store (§5.1: "database
/// statistics are used if available; otherwise schema hints are used").
pub struct GraphEstimator<'g> {
    pub graph: &'g TemporalGraph,
}

impl CardinalityEstimator for GraphEstimator<'_> {
    fn estimate(&self, schema: &Schema, atom: &BoundAtom) -> f64 {
        if atom.unique_eq_pred(schema).is_some() {
            return 1.0;
        }
        let count = self.graph.alive_count(atom.class);
        let base = if count == 0 {
            schema
                .descendants(atom.class)
                .into_iter()
                .filter_map(|c| schema.class(c).hint_cardinality)
                .sum::<u64>()
                .max(1) as f64
        } else {
            count as f64
        };
        apply_selectivity(base, atom)
    }
}
