//! `feed-history`: full daily inventory snapshots through
//! `SnapshotLoader::apply` into an initially empty medium-tier store, each
//! delivery published to a fresh engine and followed by temporal reads
//! over the growing history.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use nepal::core::{digest_result, engine_over, Engine, QueryResult};
use nepal::graph::binsnap::default_threads;
use nepal::graph::{load_binary, save_binary, SnapshotLoader, TemporalGraph, Uid};
use nepal::schema::{format_ts, ClassId, Schema, Ts, Value};
use nepal::workload::{generate_tier, InventoryFeed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{layer_metrics, time, traced_query, SpanLog};
use crate::stats::Samples;
use crate::{base_context, common_metrics, configure_engine, shuffle, Checks, Config, Metric, Phase, Report};

const DAY: Ts = 86_400_000_000;
const HOUR: Ts = 3_600_000_000;
/// Status flips and container migrations per delivery. A migration
/// replaces a placement edge (one delete, one insert), so a delivery
/// changes about 60 + 2 × 20 = 100 rows of the ~114k it carries.
const FLIPS: usize = 60;
const MIGRATIONS: usize = 20;
/// Temporal queries re-checked after the NEPALB1 round trip.
const ROUND_TRIP_QUERIES: usize = 48;

/// The reads run after each delivery, in a seeded order. Top-down, whose
/// cost does not grow with the history, is half of them and holds p50; the
/// whole-inventory count is the slow sixth and holds p95.
const READS: [Read; 6] = [Read::AtCount, Read::Range, Read::FirstTime, Read::TopDown, Read::TopDown, Read::TopDown];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Read {
    /// `AT` an earlier day: placements across the whole inventory.
    AtCount,
    /// `AT d1 : d2`: the placements on one host over a range of days.
    Range,
    /// `First Time When Exists` of a placement made by a recent migration.
    FirstTime,
    /// A Table-1 Top-down shape at current time.
    TopDown,
}

impl Read {
    fn class(self) -> &'static str {
        match self {
            Read::AtCount => "read AT-count",
            Read::Range => "read range",
            Read::FirstTime => "read first-time",
            Read::TopDown => "read top-down",
        }
    }
}

struct Inputs {
    schema: Arc<Schema>,
    feed: InventoryFeed,
    start_ts: Ts,
    entities: usize,
    onserver: ClassId,
    vnf_ids: Vec<i64>,
    host_ids: Vec<i64>,
    /// External id → an RPE atom naming that node by its unique id, for
    /// containers and hosts.
    atoms: HashMap<String, String>,
}

impl Inputs {
    /// A time inside day `day` of the feed.
    fn day_time(&self, day: usize) -> String {
        format_ts(self.start_ts + day as Ts * DAY + HOUR)
    }
}

fn inputs(cfg: &Config) -> Inputs {
    let topo = generate_tier(cfg.feed_tier, cfg.seed);
    let g = &topo.graph;
    let schema = g.schema().clone();
    let id_atom = |uid: Uid| -> (i64, String) {
        let class = g.class_of(uid).expect("generated entity");
        let (idx, field) = schema
            .all_fields(class)
            .iter()
            .enumerate()
            .find(|(_, f)| f.name.ends_with("_id"))
            .expect("containers, hosts and VNFs have a unique *_id field");
        let Value::Int(id) = g.current_version(uid).expect("generated entity is alive").fields()[idx] else {
            panic!("{} is not an int", field.name)
        };
        let root = ["VM", "Docker", "Host", "VNF"]
            .into_iter()
            .find(|r| schema.class_by_name(r).is_some_and(|c| schema.is_subclass(class, c)))
            .expect("a container, host or VNF");
        (id, format!("{root}({}={id})", field.name))
    };
    let atoms = topo.containers.iter().chain(&topo.hosts).map(|&u| (format!("n{}", u.0), id_atom(u).1)).collect();
    let vnf_ids = topo.vnfs.iter().map(|&u| id_atom(u).0).collect();
    let host_ids = topo.hosts.iter().map(|&u| id_atom(u).0).collect();
    let start_ts = topo.params.start_ts;
    Inputs {
        feed: InventoryFeed::from_graph(g, "OnServer", "Host", cfg.seed, start_ts),
        onserver: schema.class_by_name("OnServer").expect("ONAP schema"),
        start_ts,
        entities: g.num_entities(),
        vnf_ids,
        host_ids,
        atoms,
        schema,
    }
}

/// The store and the engine it is published to. Field order is drop
/// order: the engine lets go of the store first.
struct Store {
    engine: Engine,
    graph: Arc<TemporalGraph>,
    loader: SnapshotLoader,
}

fn publish(g: TemporalGraph, loader: SnapshotLoader) -> Store {
    let graph = Arc::new(g);
    let mut engine = engine_over(graph.clone());
    configure_engine(&mut engine);
    Store { engine, graph, loader }
}

/// Set-up: the day-0 delivery into an empty store, published.
fn setup(inp: &Inputs) -> (Store, f64) {
    let t = Instant::now();
    let mut g = TemporalGraph::new(inp.schema.clone());
    let mut loader = SnapshotLoader::new();
    let (nodes, edges) = inp.feed.emit();
    loader.apply(&mut g, inp.feed.day_ts(), nodes, edges).expect("day-0 snapshot of a generated inventory applies");
    let store = publish(g, loader);
    (store, t.elapsed().as_secs_f64())
}

/// What the feed itself says about its history: the placement count of
/// each day's snapshot, and the day each (container, host) placement first
/// appeared.
#[derive(Default)]
struct FeedTruth {
    placements: Vec<i64>,
    first_seen: HashMap<(String, String), usize>,
    /// Placements that appeared on the latest day that added any: all of
    /// them on day 0, then those made by migrations.
    latest: Vec<(String, String)>,
}

impl FeedTruth {
    fn observe(&mut self, inp: &Inputs) {
        let day = self.placements.len();
        let marker = format!("-m{day}-");
        let mut fresh = Vec::new();
        let mut count = 0;
        for e in inp.feed.emit().1.iter().filter(|e| e.class == inp.onserver) {
            count += 1;
            if day == 0 || e.ext_id.contains(&marker) {
                let pair = (e.src_ext.clone(), e.dst_ext.clone());
                self.first_seen.entry(pair.clone()).or_insert(day);
                fresh.push(pair);
            }
        }
        if !fresh.is_empty() {
            self.latest = fresh;
        }
        self.placements.push(count);
    }

    fn today(&self) -> usize {
        self.placements.len() - 1
    }
}

/// The run's state between deliveries.
struct Run {
    inp: Inputs,
    /// `None` only while a delivery is being applied.
    store: Option<Store>,
    truth: FeedTruth,
    rng: StdRng,
    checks: Checks,
    /// Distinct temporal queries run so far, in order.
    temporal: Vec<String>,
    seen: HashSet<String>,
}

impl Run {
    /// Hand the next day's snapshot to Nepal: apply it and publish the
    /// store to a fresh engine. Returns the delivery time in seconds.
    fn deliver(&mut self, mut tracer: Option<&mut SpanLog>) -> f64 {
        self.inp.feed.advance(FLIPS, MIGRATIONS);
        self.truth.observe(&self.inp);
        let (nodes, edges) = self.inp.feed.emit();
        let ts = self.inp.feed.day_ts();

        let Store { engine, graph, mut loader } = self.store.take().expect("a published store");
        let (mut g, unpublish) = time(tracer.as_deref_mut(), "core.drop_engine", || {
            drop(engine);
            Arc::try_unwrap(graph).unwrap_or_else(|_| panic!("only the engine shares the store"))
        });
        // The memory report is read only when traced, for the bytes each
        // changed row adds.
        let bytes0 = tracer.is_some().then(|| g.memory_report().total_bytes);
        let (applied, apply) =
            time(tracer.as_deref_mut(), "graph.SnapshotLoader::apply", || loader.apply(&mut g, ts, nodes, edges));
        let bytes1 = tracer.is_some().then(|| g.memory_report().total_bytes);
        let (store, publish_s) = time(tracer.as_deref_mut(), "core.engine_over", || publish(g, loader));
        self.store = Some(store);
        let publish_s = unpublish + publish_s;
        let total = apply + publish_s;

        match applied {
            Ok(stats) => {
                self.checks.check(true, String::new);
                if let Some(tr) = tracer {
                    let changed = stats.inserted + stats.updated + stats.deleted;
                    tr.sample("graph.apply_ms", apply * 1e3);
                    tr.sample("core.publish_us", publish_s * 1e6);
                    tr.sample("graph.rows_diffed", (changed + stats.unchanged) as f64);
                    tr.sample("graph.rows_changed", changed as f64);
                    if let (Some(b0), Some(b1)) = (bytes0, bytes1) {
                        tr.sample("graph.bytes_added", b1 as f64 - b0 as f64);
                    }
                }
            }
            Err(e) => self.checks.check(false, || format!("delivery of day {}: {e}", self.truth.today())),
        }
        total
    }

    /// A query of kind `read` against today's history, with the answer
    /// the feed itself implies where it implies one.
    fn read(&mut self, read: Read) -> (String, Option<Value>) {
        let today = self.truth.today();
        let rng = &mut self.rng;
        let inp = &self.inp;
        match read {
            Read::AtCount => {
                let day = rng.gen_range(0..today);
                let text = format!(
                    "AT '{}' Select count(P) From PATHS P Where P MATCHES Container()->OnServer()->Host()",
                    inp.day_time(day)
                );
                (text, Some(Value::Int(self.truth.placements[day])))
            }
            Read::Range => {
                let a = rng.gen_range(0..today);
                let b = rng.gen_range(a + 1..today + 1);
                let host = inp.host_ids[rng.gen_range(0..inp.host_ids.len())];
                let text = format!(
                    "AT '{}' : '{}' Retrieve P From PATHS P Where P MATCHES Container()->OnServer()->Host(host_id={host})",
                    inp.day_time(a),
                    inp.day_time(b)
                );
                (text, None)
            }
            Read::FirstTime => {
                let pair = &self.truth.latest[rng.gen_range(0..self.truth.latest.len())];
                let text = format!(
                    "First Time When Exists From PATHS P Where P MATCHES {}->OnServer()->{}",
                    inp.atoms[&pair.0], inp.atoms[&pair.1]
                );
                (text, Some(Value::Ts(inp.start_ts + self.truth.first_seen[pair] as Ts * DAY)))
            }
            Read::TopDown => {
                let vnf = inp.vnf_ids[rng.gen_range(0..inp.vnf_ids.len())];
                (
                    format!("Retrieve P From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{{1,6}}->Host()"),
                    None,
                )
            }
        }
    }

    fn check(&mut self, read: Read, text: &str, expected: Option<Value>, result: Result<QueryResult, String>) {
        match (read, result) {
            (_, Err(e)) => self.checks.check(false, || format!("`{text}`: {e}")),
            (Read::TopDown, Ok(r)) => self.checks.check(!r.rows.is_empty(), || format!("`{text}`: no pathways")),
            (Read::Range, Ok(_)) => self.checks.check(true, String::new),
            (_, Ok(r)) => {
                let got = r.rows.first().and_then(|row| row.values.first().cloned());
                self.checks.check(got == expected, || format!("`{text}`: {got:?}, feed says {expected:?}"));
            }
        }
    }

    /// One delivery and its reads, recorded in `phase` and `ingest`.
    fn day(&mut self, phase: &mut Phase, ingest: &mut Samples, mut tracer: Option<&mut SpanLog>) {
        let delivery = self.deliver(tracer.as_deref_mut());
        ingest.push(delivery * 1e3);
        phase.busy_s += delivery;
        phase.ops += 1;
        let mut reads = READS;
        shuffle(&mut reads, &mut self.rng);
        for read in reads {
            let (text, expected) = self.read(read);
            let store = self.store.as_mut().expect("a published store");
            let t = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(tr) => traced_query(&mut store.engine, &store.graph, None, &text, phase.ops as u64 + 1, tr),
                None => store.engine.query(&text).map_err(|e| e.to_string()),
            };
            phase.record(read.class(), t.elapsed().as_secs_f64() * 1e3);
            self.check(read, &text, expected, result);
            if read != Read::TopDown && self.seen.insert(text.clone()) {
                self.temporal.push(text);
            }
        }
    }

    /// Save the final store as NEPALB1, load it back, and compare the
    /// digests of the run's last temporal queries on both copies.
    fn round_trip(&mut self) -> usize {
        let store = self.store.as_mut().expect("a published store");
        let mut bytes = Vec::new();
        save_binary(&store.graph, &mut bytes).expect("NEPALB1 save to memory");
        let copy = match load_binary(self.inp.schema.clone(), &bytes, default_threads()) {
            Ok(g) => g,
            Err(e) => {
                self.checks.check(false, || format!("NEPALB1 round trip: {e}"));
                return bytes.len();
            }
        };
        let mut reloaded = engine_over(Arc::new(copy));
        let from = self.temporal.len().saturating_sub(ROUND_TRIP_QUERIES);
        for text in &self.temporal[from..] {
            let live = store.engine.query(text).map(|r| digest_result(&r)).map_err(|e| e.to_string());
            let back = reloaded.query(text).map(|r| digest_result(&r)).map_err(|e| e.to_string());
            self.checks.check(live.is_ok() && live == back, || format!("round trip `{text}`: {live:?} vs {back:?}"));
        }
        bytes.len()
    }
}

fn timed(run: &mut Run, seconds: f64, ingest: &mut Samples, mut tracer: Option<&mut SpanLog>) -> Phase {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        run.day(&mut phase, ingest, tracer.as_deref_mut());
    }
    phase
}

pub fn run(cfg: &Config) -> Report {
    let inp = inputs(cfg);
    let mut setup_s = Samples::default();
    let mut store = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(store.take());
        let (s, secs) = setup(&inp);
        setup_s.push(secs);
        store = Some(s);
    }
    let mut truth = FeedTruth::default();
    truth.observe(&inp);
    let mut run = Run {
        store,
        inp,
        truth,
        rng: StdRng::seed_from_u64(cfg.seed),
        checks: Checks::default(),
        temporal: Vec::new(),
        seen: HashSet::new(),
    };
    // The first warm-up day's `AT` count reads day 0, so it meets the
    // corrupted count.
    if cfg.corrupt_reference {
        run.truth.placements[0] += 1;
    }

    // Warm-up: two deliveries with their reads, untimed.
    for _ in 0..2 {
        run.day(&mut Phase::default(), &mut Samples::default(), None);
    }

    let mut tracer = cfg.trace.then(SpanLog::default);
    let mut ingest = Samples::default();
    let untraced_s = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let phase = timed(&mut run, untraced_s, &mut ingest, None);
    let mut layers = Vec::new();
    if let Some(tr) = tracer.as_mut() {
        let traced = timed(&mut run, cfg.seconds / 2.0, &mut Samples::default(), Some(tr));
        let overhead = 100.0 * (traced.per_op_s() / phase.per_op_s() - 1.0);
        layers = layer_metrics(tr, overhead);
        if let Some(dir) = &cfg.span_dir {
            let path = dir.join(format!("spans-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
            if let Err(e) = tr.write(&path) {
                eprintln!("warning: could not write spans to {}: {e}", path.display());
            }
        }
    }
    let nepalb1_bytes = run.round_trip();

    let graph = &run.store.as_ref().expect("a published store").graph;
    let mut metrics = common_metrics(&setup_s, &phase, graph, &run.checks);
    metrics.push(Metric { name: "ingest_day_p50_ms", value: ingest.percentile(0.5), unit: "ms", n: ingest.len() });
    metrics.push(Metric { name: "ingest_day_p90_ms", value: ingest.percentile(0.9), unit: "ms", n: ingest.len() });
    let mut context = base_context(cfg);
    context.extend([
        ("tier", format!("{:?}", cfg.feed_tier).to_lowercase()),
        ("entities", run.inp.entities.to_string()),
        ("snapshot_rows", {
            let (n, e) = run.inp.feed.emit();
            (n.len() + e.len()).to_string()
        }),
        ("deliveries", run.truth.today().to_string()),
        ("changes_per_delivery", format!("{FLIPS} status flips, {MIGRATIONS} migrations")),
        ("versions", graph.num_versions().to_string()),
        ("nepalb1_bytes", nepalb1_bytes.to_string()),
    ]);
    Report { workload: cfg.workload, context, metrics, classes: phase.classes(), layers, checks: run.checks }
}
