//! Microbenchmarks for the building blocks: RPE parsing and planning,
//! interval algebra, snapshot ingestion, the Gremlin wire protocol, and
//! the profiling overhead (disabled vs. enabled).

use std::collections::BTreeMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use nepal_core::engine_over;
use nepal_graph::{Interval, IntervalSet, SnapshotLoader, SnapshotNode, TemporalGraph};
use nepal_gremlin::protocol::batch_responses;
use nepal_gremlin::traversal::evaluate;
use nepal_gremlin::{parse_json, GStep, Json, PropertyGraph};
use nepal_rpe::{parse_rpe, plan_rpe, HintEstimator};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Value};
use nepal_workload::{generate_virtualized, onap_schema, VirtParams};

const RPE: &str = "VNF()->[HostedOn()]{1,3}->(VM(vm_id=55)|Docker(docker_id=66))->HostedOn(){1,2}->Host()";

fn bench_rpe(c: &mut Criterion) {
    let schema = onap_schema();
    c.bench_function("rpe/parse", |b| b.iter(|| parse_rpe(std::hint::black_box(RPE)).unwrap()));
    let ast = parse_rpe(RPE).unwrap();
    c.bench_function("rpe/plan", |b| b.iter(|| plan_rpe(&schema, std::hint::black_box(&ast), &HintEstimator).unwrap()));
}

fn bench_intervals(c: &mut Criterion) {
    let a = IntervalSet::from_intervals((0..50).map(|i| Interval::new(i * 100, i * 100 + 60)).collect());
    let b2 = IntervalSet::from_intervals((0..50).map(|i| Interval::new(i * 100 + 30, i * 100 + 90)).collect());
    c.bench_function("interval/intersect-50x50", |b| {
        b.iter(|| std::hint::black_box(&a).intersect(std::hint::black_box(&b2)))
    });
    c.bench_function("interval/union-50x50", |b| b.iter(|| std::hint::black_box(&a).union(std::hint::black_box(&b2))));
}

fn bench_snapshot(c: &mut Criterion) {
    let schema: Arc<Schema> = Arc::new(parse_schema("node VM { ext: str unique, status: str }").unwrap());
    let vm = schema.class_by_name("VM").unwrap();
    let nodes: Vec<SnapshotNode> = (0..500)
        .map(|i| SnapshotNode {
            ext_id: format!("vm-{i}"),
            class: vm,
            fields: vec![Value::Str(format!("vm-{i}")), Value::Str("Green".into())],
        })
        .collect();
    c.bench_function("snapshot/apply-500-unchanged", |b| {
        let mut g = TemporalGraph::new(schema.clone());
        let mut loader = SnapshotLoader::new();
        loader.apply(&mut g, 0, &nodes, &[]).unwrap();
        let mut ts = 1;
        b.iter(|| {
            ts += 1;
            loader.apply(&mut g, ts, &nodes, &[]).unwrap()
        })
    });
}

/// One full 64-result response frame of `ExtendBlock` paths: `repeat` +
/// `path` over a chain where every vertex links to the next two, each
/// depth-8 path carrying 9 vertices and 8 edges with full properties.
fn extend_block_frame() -> Json {
    let mut g = PropertyGraph::new();
    let props = |i: u64, n: usize| -> BTreeMap<String, Json> {
        (0..n)
            .map(|k| (format!("field_{k:02}"), Json::Str(format!("value {i}/{k} héllo \"☃\" {}", "x".repeat(120)))))
            .collect()
    };
    for i in 0..20 {
        g.add_vertex(i, "Node:Container:VM", props(i, 12));
    }
    for i in 0..20 {
        for d in [1, 2] {
            if i + d < 20 {
                g.add_edge(1000 + 2 * i + d, "Edge:Vertical:HostedOn", i, i + d, props(i, 2));
            }
        }
    }
    let body = vec![GStep::OutE(Some("Edge:Vertical".into())), GStep::InV, GStep::SimplePath];
    let results = evaluate(&g, &[GStep::V(vec![0]), GStep::Repeat(body, 8, 8), GStep::Path]).unwrap();
    batch_responses("r-1", results).swap_remove(0)
}

fn bench_protocol(c: &mut Criterion) {
    let j = extend_block_frame();
    let doc = j.to_string();
    // The decoder's cost per byte is ns/iter divided by this size.
    println!("protocol/*-response-frame: {} bytes", doc.len());
    c.bench_function("protocol/parse-response-frame", |b| b.iter(|| parse_json(std::hint::black_box(&doc)).unwrap()));
    c.bench_function("protocol/serialize-response-frame", |b| b.iter(|| std::hint::black_box(&j).to_string()));
}

fn bench_profiling_overhead(c: &mut Criterion) {
    // The same query text through the engine pipeline unprofiled
    // (`query` with the query log and statement stats off: no clock reads
    // beyond the latency pair, no OpStats) and profiled (`query_profiled`).
    // The acceptance target is <5% overhead for the *disabled* path
    // relative to the seed, which these two series make visible side by
    // side.
    let topo = generate_virtualized(VirtParams::default());
    let mut engine = engine_over(Arc::new(topo.graph));
    let q = "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()";
    c.bench_function("profile/query-disabled", |b| b.iter(|| engine.query(std::hint::black_box(q)).unwrap()));
    c.bench_function("profile/query-enabled", |b| b.iter(|| engine.query_profiled(std::hint::black_box(q)).unwrap()));
}

criterion_group!(benches, bench_rpe, bench_intervals, bench_snapshot, bench_protocol, bench_profiling_overhead);
criterion_main!(benches);
