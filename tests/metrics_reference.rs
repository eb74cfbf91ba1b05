//! Doc-sync: the metrics reference table in DESIGN.md §5h must stay in
//! lockstep with what the code actually registers. The test instruments a
//! full engine the way `nepal-serve` does — store gauges (cheap + deep),
//! statement attribution, access heatmap, SLO engine — then diffs the
//! registry's family list against the table. A missing or stale row fails
//! with the exact markdown to paste.

use std::collections::BTreeMap;
use std::sync::Arc;

use nepal::core::{engine_over, StandardSlos};
use nepal::graph::{GraphView, StoreGauges, TemporalGraph, TimeFilter};
use nepal::rpe::{evaluate_obs, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Seeds};
use nepal::schema::dsl::parse_schema;
use nepal::schema::Value;

fn demo_graph() -> Arc<TemporalGraph> {
    let schema = Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            allow HostedOn (VM -> Host)
            "#,
        )
        .unwrap(),
    );
    let vm_class = schema.class_by_name("VM").unwrap();
    let host_class = schema.class_by_name("Host").unwrap();
    let hosted = schema.class_by_name("HostedOn").unwrap();
    let mut g = TemporalGraph::new(schema);
    let host = g.insert_node(host_class, vec![Value::Int(7)], 0).unwrap();
    for i in 0..2 {
        let vm = g.insert_node(vm_class, vec![Value::Int(50 + i)], 0).unwrap();
        g.insert_edge(hosted, vm, host, vec![], 0).unwrap();
    }
    Arc::new(g)
}

/// Families registered only by the long-running binaries (server wire
/// stats in `nepal-serve`'s refresher); listed in the doc, not
/// instantiable from a test.
const BINARY_ONLY: &[&str] = &[
    "nepal_serve_shed_total",
    "nepal_serve_deadline_total",
    "nepal_serve_cancelled_total",
    "nepal_serve_requests_total",
    "nepal_serve_queue_depth",
    "nepal_serve_inflight",
];

#[test]
fn design_metrics_reference_matches_registry() {
    let graph = demo_graph();
    let mut engine = engine_over(graph.clone());
    let _slo = engine.install_standard_slos(&StandardSlos::default());
    let stmt = engine.enable_stmt(16);
    let gauges = StoreGauges::register(&engine.metrics);
    engine.query("Retrieve P From PATHS P Where P MATCHES VM()->HostedOn()->Host(host_id=7)").unwrap();
    gauges.refresh_deep(&graph);
    stmt.export(&engine.metrics);
    // The `nepal_rpe_*` families register only when the work-stealing
    // evaluator actually runs; force one parallel evaluation so the diff
    // below is independent of the ambient NEPAL_THREADS setting.
    {
        let view = GraphView::new(&graph, TimeFilter::Current);
        let rpe = parse_rpe("VM()->HostedOn()->Host()").unwrap();
        let plan = plan_rpe(graph.schema(), &rpe, &GraphEstimator { graph: &graph }).unwrap();
        let opts = EvalOptions { threads: 2, metrics: Some(engine.metrics.clone()), ..Default::default() };
        evaluate_obs(&view, &plan, Seeds::Anchor, &opts, None, &nepal::obs::SpanHandle::none()).unwrap();
    }

    let registered: BTreeMap<String, (&'static str, String)> =
        engine.metrics.families().into_iter().map(|(name, kind, help)| (name, (kind, help))).collect();

    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md")).unwrap();
    // Table rows look like: | `nepal_foo` | gauge | source | help text |
    let documented: BTreeMap<String, String> = design
        .lines()
        .filter_map(|l| {
            let mut cells = l.split('|').map(str::trim);
            cells.next()?; // leading empty cell
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let kind = cells.next()?;
            name.starts_with("nepal_").then(|| (name.to_string(), kind.to_string()))
        })
        .collect();

    let mut errors = Vec::new();
    for (name, (kind, help)) in &registered {
        match documented.get(name) {
            None => errors.push(format!("missing from DESIGN.md §5h:\n| `{name}` | {kind} | {help} |")),
            Some(doc_kind) if doc_kind != kind => {
                errors.push(format!("DESIGN.md lists `{name}` as {doc_kind}, registry says {kind}"))
            }
            Some(_) => {}
        }
    }
    for name in documented.keys() {
        if !registered.contains_key(name) && !BINARY_ONLY.contains(&name.as_str()) {
            errors.push(format!("stale row in DESIGN.md §5h: `{name}` is no longer registered"));
        }
    }
    for name in BINARY_ONLY {
        if !documented.contains_key(*name) {
            errors.push(format!("binary-only family `{name}` missing from DESIGN.md §5h"));
        }
    }
    assert!(errors.is_empty(), "metrics reference out of sync:\n{}", errors.join("\n"));
}
