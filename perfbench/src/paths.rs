//! `paths-native` and `paths-retarget`: anchored pathway queries over the
//! churned small-tier graph, loaded from its NEPALB1 bytes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use nepal::core::{
    digest_result, engine_over, BackendRegistry, Engine, GremlinBackend, NativeBackend, RelationalBackend,
};
use nepal::graph::binsnap::default_threads;
use nepal::graph::{load_binary, save_binary, TemporalGraph, Uid};
use nepal::gremlin::{property_graph_from, GremlinClient, GremlinServer, ServeConfig};
use nepal::schema::{format_ts, Schema, Ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier, VirtTopology};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{layer_metrics, time, traced_query, SpanLog};
use crate::stats::Samples;
use crate::{
    base_context, common_metrics, configure_engine, shuffle, Checks, Config, Metric, Phase, Report, Workload,
    QUERY_DEADLINE, SETUP_REPEATS,
};

const DAY: Ts = 86_400_000_000;
/// Anchor instances per query shape, drawn by seed.
const INSTANCES: usize = 12;
const SCOPES: [&str; 3] = ["current", "AT", "range"];
const HOST_HOST_6: &str = "Host-Host (6)";
/// The five Table-1 families in `nepal_bench::table1_queries` order, then
/// the two multi-variable shapes.
const SHAPES: [&str; 7] = ["Top-down", "Bottom-up", "VM-VM (4)", "Host-Host (4)", HOST_HOST_6, "Join", "Not-Exists"];

/// A query shape and its instances. Each template has `{U}` after every
/// `PATHS <var>`, where the `USING <backend>` clause goes.
struct Shape {
    name: &'static str,
    templates: Vec<String>,
}

/// One entry of the query mix: a shape under a time scope on a backend,
/// run `weight` times per round.
struct Slot {
    shape: usize,
    scope: usize,
    backend: Option<&'static str>,
    weight: usize,
}

/// The generated inputs: the NEPALB1 bytes and the query instances.
struct Inputs {
    schema: Arc<Schema>,
    bytes: Vec<u8>,
    entities: usize,
    versions: u64,
    shapes: Vec<Shape>,
    /// Query prefix of each scope in [`SCOPES`].
    prefixes: [String; 3],
}

impl Inputs {
    fn text(&self, slot: &Slot, instance: usize, backend: Option<&str>) -> String {
        let template = &self.shapes[slot.shape].templates[instance];
        let using = backend.map_or(String::new(), |b| format!(" USING {b}"));
        format!("{}{}", self.prefixes[slot.scope], template.replace("{U}", &using))
    }

    fn class(&self, slot: &Slot) -> String {
        format!("{} {} {}", slot.backend.unwrap_or("native"), self.shapes[slot.shape].name, SCOPES[slot.scope])
    }
}

fn int_field(g: &TemporalGraph, uid: Uid, field: &str) -> i64 {
    let class = g.class_of(uid).expect("generated entity");
    let idx = g.schema().all_fields(class).iter().position(|f| f.name == field).expect("field of the ONAP schema");
    match g.current_version(uid).expect("generated entity is alive").fields()[idx] {
        Value::Int(i) => i,
        ref other => panic!("{field} is not an int: {other:?}"),
    }
}

fn inputs(tier: SizeTier, seed: u64) -> Inputs {
    let (topo, _) = generate_tier_churned(tier, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A7B5);
    let mut pick = |mut v: Vec<String>| {
        shuffle(&mut v, &mut rng);
        v.truncate(INSTANCES);
        v
    };
    let families = nepal_bench::table1_queries(&topo, 4 * INSTANCES);
    let mut shapes: Vec<Shape> = Vec::new();
    for ((family, rpes), name) in families.into_iter().zip(SHAPES) {
        assert_eq!(family, name, "Table-1 family order");
        let templates =
            pick(rpes).into_iter().map(|r| format!("Retrieve P From PATHS P{{U}} Where P MATCHES {r}")).collect();
        shapes.push(Shape { name, templates });
    }
    let top_down: Vec<String> = shapes[0]
        .templates
        .iter()
        .map(|t| t.split(" MATCHES ").nth(1).expect("single-variable template").to_string())
        .collect();
    shapes.push(Shape {
        name: SHAPES[5],
        templates: top_down
            .iter()
            .map(|td| {
                format!(
                    "Retrieve P, Q From PATHS P{{U}}, PATHS Q{{U}} Where P MATCHES {td} \
                     And Q MATCHES VNF()->[Vertical()]{{1,6}}->Host() \
                     And source(P) = source(Q) And target(P) != target(Q)"
                )
            })
            .collect(),
    });
    let tor = topo.graph.schema().class_by_name("TorSwitch").expect("ONAP schema");
    let tors: Vec<i64> = topo
        .switches
        .iter()
        .filter(|&&s| topo.graph.class_of(s) == Some(tor))
        .map(|&s| int_field(&topo.graph, s, "switch_id"))
        .collect();
    shapes.push(Shape {
        name: SHAPES[6],
        templates: top_down
            .iter()
            .enumerate()
            .map(|(i, td)| {
                let switch = tors[(i * 7 + seed as usize) % tors.len()];
                format!(
                    "Retrieve P From PATHS P{{U}} Where P MATCHES {td} And NOT EXISTS ( \
                     Retrieve Q From PATHS Q{{U}} Where Q MATCHES Host()->ServerSwitch()->Switch(switch_id={switch}) \
                     And target(P) = source(Q) )"
                )
            })
            .collect(),
    });
    let prefixes = time_prefixes(&topo, tier);
    let mut bytes = Vec::new();
    save_binary(&topo.graph, &mut bytes).expect("NEPALB1 save to memory");
    Inputs {
        schema: topo.graph.schema().clone(),
        bytes,
        entities: topo.graph.num_entities(),
        versions: topo.graph.num_versions(),
        shapes,
        prefixes,
    }
}

/// Current, `AT` a point inside the hot-churn window, and an `AT t1 : t2`
/// range over its middle half. Hot chains are updated daily there, so both
/// temporal scopes read versions past the 16-version keyframe.
fn time_prefixes(topo: &VirtTopology, tier: SizeTier) -> [String; 3] {
    let broad_days = tier.broad_churn(0).days as Ts;
    let hot_days = tier.hot_churn().1 as Ts;
    let start = topo.params.start_ts;
    let (lo, hi) = (start + (broad_days + 2) * DAY, start + (broad_days + 1 + hot_days) * DAY);
    let at = (lo + hi) / 2 + DAY / 2;
    let quarter = (hi - lo) / 4;
    [
        String::new(),
        format!("AT '{}' ", format_ts(at)),
        format!("AT '{}' : '{}' ", format_ts(lo + quarter), format_ts(hi - quarter)),
    ]
}

/// The mix of each workload. Weights keep p50 and p95 inside one latency
/// band each rather than on the edge between two (see README.md).
fn slots(workload: Workload) -> Vec<Slot> {
    let mut v = Vec::new();
    for (shape, &name) in SHAPES.iter().enumerate() {
        for scope in 0..SCOPES.len() {
            let slot = |backend, weight| Slot { shape, scope, backend, weight };
            match workload {
                // Sub-millisecond shapes (Top-down, Bottom-up, Host-Host
                // (4), Not-Exists) at weight 2 hold p50; VM-VM and Join at
                // weight 1 fill the 1.5-4 ms band; Host-Host (6) range at
                // weight 3 holds p95 inside its own band.
                Workload::PathsNative => v.push(slot(
                    None,
                    match (name, scope) {
                        ("VM-VM (4)" | "Join", _) => 1,
                        (HOST_HOST_6, 2) => 3,
                        (HOST_HOST_6, _) => 1,
                        _ => 2,
                    },
                )),
                // pg at weight 30 per class holds both percentiles: the
                // ~250 ms Gremlin Top-down and the ~1 s pg Host-Host (6) at
                // weight 1 stay above p95, where a handful of samples would
                // set it, and Gremlin Bottom-up, as slow as the pg tail, is
                // too rare to move p95. Gremlin weighs in `queries_per_s`
                // and in its own percentiles. Only the five Table-1 families run, under
                // current and `AT` scopes; Gremlin runs only Top-down and
                // Bottom-up.
                _ if shape >= 5 || scope == 2 => {}
                _ => {
                    v.push(slot(Some("pg"), if name == HOST_HOST_6 { 1 } else { 30 }));
                    if shape < 2 {
                        v.push(slot(Some("gremlin"), 1));
                    }
                }
            }
        }
    }
    v
}

/// The engine with all three backends, as `nepal-serve` wires them. Field
/// order is drop order: the engine closes its Gremlin connection before
/// the server drains.
struct Stack {
    engine: Engine,
    server: GremlinServer,
    graph: Arc<TemporalGraph>,
}

/// Build the stack from the NEPALB1 bytes; returns it with the set-up
/// time in seconds. Traced, each backend's construction is a span and a
/// per-layer sample.
fn setup(inp: &Inputs, mut log: Option<&mut SpanLog>) -> (Stack, f64) {
    let t0 = Instant::now();
    let (graph, load) = time(log.as_deref_mut(), "graph.load_binary", || {
        load_binary(inp.schema.clone(), &inp.bytes, default_threads()).expect("NEPALB1 bytes from save_binary")
    });
    let graph = Arc::new(graph);
    let (pg, relational) = time(log.as_deref_mut(), "relational.from_graph", || {
        RelationalBackend::from_graph(&graph).expect("relational copy of a generated graph")
    });
    let mut registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    registry.add("pg", Box::new(pg));
    let mut engine = Engine::new(registry);
    configure_engine(&mut engine);
    let cfg = ServeConfig { deadline: Some(QUERY_DEADLINE), stmt: engine.stmt.clone(), ..ServeConfig::default() };
    let tracer = engine.tracer.clone();
    let ((server, client), gremlin) = time(log.as_deref_mut(), "gremlin.property_graph_from+start_cfg", || {
        let mirror = Arc::new(RwLock::new(property_graph_from(&graph)));
        let server = GremlinServer::start_cfg(mirror, "127.0.0.1:0", Some(tracer), cfg)
            .expect("bind a loopback port for the Gremlin server");
        let client = GremlinClient::new(server.connect().expect("connect to the Gremlin server"));
        (server, client)
    });
    engine.registry.add("gremlin", Box::new(GremlinBackend::new(client, graph.schema().clone())));
    if let Some(log) = log {
        log.sample("graph.binsnap_load_s", load);
        log.sample("relational.build_s", relational);
        log.sample("gremlin.build_s", gremlin);
    }
    (Stack { engine, server, graph }, t0.elapsed().as_secs_f64())
}

fn digest_of(engine: &mut Engine, text: &str) -> Result<u64, String> {
    engine.query(text).map(|r| digest_result(&r)).map_err(|e| e.to_string())
}

/// Reference digests, computed outside timing, keyed by the exact query
/// text the workload runs.
///
/// - paths-native: the pg backend answers the same query under the
///   current and `AT` scopes. Range scopes and Host-Host (6) are checked
///   against the native backend on one evaluator thread with the engine's
///   observability off (the sequential evaluator and the unprofiled engine
///   path): pg takes 1–9 s per Host-Host (6) instance, and a single pg
///   range query can raise the process's peak memory by 200 MB, which
///   would swamp `peak_rss_mb`.
/// - paths-retarget: the native backend answers the same query.
fn references(
    workload: Workload,
    inp: &Inputs,
    slots: &[Slot],
    stack: &mut Stack,
    checks: &mut Checks,
) -> HashMap<String, u64> {
    let mut sequential = engine_over(stack.graph.clone());
    sequential.eval_options.threads = 1;
    let mut out = HashMap::new();
    for slot in slots {
        for i in 0..inp.shapes[slot.shape].templates.len() {
            let text = inp.text(slot, i, slot.backend);
            if out.contains_key(&text) {
                continue;
            }
            let digest = match workload {
                Workload::PathsNative if slot.scope == 2 || inp.shapes[slot.shape].name == HOST_HOST_6 => {
                    digest_of(&mut sequential, &text)
                }
                Workload::PathsNative => digest_of(&mut stack.engine, &inp.text(slot, i, Some("pg"))),
                _ => digest_of(&mut stack.engine, &inp.text(slot, i, None)),
            };
            match digest {
                Ok(d) => {
                    out.insert(text, d);
                }
                Err(e) => checks.check(false, || format!("reference for `{text}`: {e}")),
            }
        }
    }
    out
}

/// Run one query and check its digest against the reference.
fn run_query(
    stack: &mut Stack,
    text: &str,
    reference: &HashMap<String, u64>,
    checks: &mut Checks,
    tracer: Option<&mut SpanLog>,
    qid: u64,
) -> f64 {
    let t = Instant::now();
    let result = match tracer {
        Some(tr) => traced_query(&mut stack.engine, &stack.graph, Some(&stack.server.stats), text, qid, tr),
        None => stack.engine.query(text).map_err(|e| e.to_string()),
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(r) => {
            let got = digest_result(&r);
            let want = reference.get(text).copied();
            checks.check(want == Some(got), || format!("`{text}`: digest {got:x}, reference {want:x?}"));
        }
        Err(e) => checks.check(false, || format!("`{text}`: {e}")),
    }
    ms
}

/// The closed loop: rounds of the weighted mix, each in a seeded order,
/// each slot rotating through its instances, for about `seconds`.
#[allow(clippy::too_many_arguments)]
fn timed(
    stack: &mut Stack,
    inp: &Inputs,
    slots: &[Slot],
    reference: &HashMap<String, u64>,
    seconds: f64,
    rng: &mut StdRng,
    checks: &mut Checks,
    mut tracer: Option<&mut SpanLog>,
) -> Phase {
    let mut round: Vec<usize> = slots.iter().enumerate().flat_map(|(i, s)| std::iter::repeat_n(i, s.weight)).collect();
    let mut next = vec![rng.gen_range(0..INSTANCES); slots.len()];
    let mut phase = Phase::default();
    let t0 = Instant::now();
    let mut last_round = 0.0;
    // Whole rounds only, so that every run measures the same mix; a round
    // starts only if it is expected to end within `seconds`.
    while phase.ops == 0 || t0.elapsed().as_secs_f64() + last_round <= seconds {
        let round_start = Instant::now();
        shuffle(&mut round, rng);
        for &si in &round {
            let slot = &slots[si];
            let instance = next[si] % inp.shapes[slot.shape].templates.len();
            next[si] += 1;
            let text = inp.text(slot, instance, slot.backend);
            let qid = phase.ops as u64 + 1;
            let ms = run_query(stack, &text, reference, checks, tracer.as_deref_mut(), qid);
            phase.record(&inp.class(slot), ms);
        }
        last_round = round_start.elapsed().as_secs_f64();
    }
    phase
}

pub fn run(cfg: &Config) -> Report {
    let inp = inputs(cfg.paths_tier, cfg.seed);
    let mut tracer = cfg.trace.then(SpanLog::default);
    let mut setup_s = Samples::default();
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        drop(stack.take());
        let (s, secs) = setup(&inp, tracer.as_mut());
        setup_s.push(secs);
        stack = Some(s);
    }
    let mut stack = stack.expect("at least one set-up");
    let slots = slots(cfg.workload);
    let mut checks = Checks::default();
    let mut reference = references(cfg.workload, &inp, &slots, &mut stack, &mut checks);
    if cfg.corrupt_reference {
        if let Some(d) = reference.get_mut(&inp.text(&slots[0], 0, slots[0].backend)) {
            *d ^= 1;
        }
    }

    // Warm-up: paths-native runs every distinct query once; paths-retarget,
    // whose queries cost up to a second, runs one instance per slot.
    for slot in &slots {
        let n = match cfg.workload {
            Workload::PathsNative => inp.shapes[slot.shape].templates.len(),
            _ => 1,
        };
        for i in 0..n {
            run_query(&mut stack, &inp.text(slot, i, slot.backend), &reference, &mut checks, None, 0);
        }
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let untraced_s = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let phase = timed(&mut stack, &inp, &slots, &reference, untraced_s, &mut rng, &mut checks, None);
    let mut layers = Vec::new();
    if let Some(tr) = tracer.as_mut() {
        let traced = timed(&mut stack, &inp, &slots, &reference, cfg.seconds / 2.0, &mut rng, &mut checks, Some(tr));
        let overhead = 100.0 * (traced.per_op_s() / phase.per_op_s() - 1.0);
        layers = layer_metrics(tr, overhead);
        if let Some(dir) = &cfg.span_dir {
            let path = dir.join(format!("spans-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
            if let Err(e) = tr.write(&path) {
                eprintln!("warning: could not write spans to {}: {e}", path.display());
            }
        }
    }

    let mut metrics = common_metrics(&setup_s, &phase, &stack.graph, &checks);
    if cfg.workload == Workload::PathsRetarget {
        for (backend, p50, p95) in [
            ("pg ", "pg_query_p50_ms", "pg_query_p95_ms"),
            ("gremlin ", "gremlin_query_p50_ms", "gremlin_query_p95_ms"),
        ] {
            let s = phase.matching(backend);
            metrics.push(Metric { name: p50, value: s.percentile(0.5), unit: "ms", n: s.len() });
            metrics.push(Metric { name: p95, value: s.percentile(0.95), unit: "ms", n: s.len() });
        }
    }
    let mut context = base_context(cfg);
    context.extend([
        ("tier", format!("{:?}", cfg.paths_tier).to_lowercase()),
        ("entities", inp.entities.to_string()),
        ("versions", inp.versions.to_string()),
        ("nepalb1_bytes", inp.bytes.len().to_string()),
        ("distinct_queries", reference.len().to_string()),
        ("at_scope", inp.prefixes[1].trim().to_string()),
        ("range_scope", inp.prefixes[2].trim().to_string()),
    ]);
    Report { workload: cfg.workload, context, metrics, classes: phase.classes(), layers, checks }
}
