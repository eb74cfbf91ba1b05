//! Backend equivalence: the relational evaluation of an RPE plan must
//! return exactly the same pathway set (and the same maximal assertion
//! intervals) as the native evaluator — on hand-built fixtures and on
//! randomized temporal graphs.

use std::sync::Arc;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_relational::{db_from_graph, evaluate_relational};
use nepal_rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Pathway, Seeds};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Value};

const SCHEMA: &str = r#"
    node VNF { vnf_id: int unique }
    node VFC { vfc_id: int unique }
    node VM { vm_id: int unique, status: str }
    node Host { host_id: int unique }
    edge Vertical { }
    edge ComposedOf : Vertical { }
    edge HostedOn : Vertical { }
    edge Connects { }
"#;

fn schema() -> Arc<Schema> {
    Arc::new(parse_schema(SCHEMA).unwrap())
}

/// Deterministic pseudo-random graph with temporal churn.
fn random_graph(seed: u64, n_per_class: usize) -> TemporalGraph {
    let s = schema();
    let mut g = TemporalGraph::new(s.clone());
    let c = |n: &str| s.class_by_name(n).unwrap();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut vnfs = Vec::new();
    let mut vfcs = Vec::new();
    let mut vms = Vec::new();
    let mut hosts = Vec::new();
    for i in 0..n_per_class {
        vnfs.push(g.insert_node(c("VNF"), vec![Value::Int(i as i64)], 0).unwrap());
        vfcs.push(g.insert_node(c("VFC"), vec![Value::Int(i as i64)], 0).unwrap());
        let status = if rng() % 2 == 0 { "Green" } else { "Red" };
        vms.push(g.insert_node(c("VM"), vec![Value::Int(i as i64), Value::Str(status.into())], 0).unwrap());
        hosts.push(g.insert_node(c("Host"), vec![Value::Int(i as i64)], 0).unwrap());
    }
    let mut edges = Vec::new();
    for i in 0..n_per_class {
        let pick = |v: &Vec<Uid>, r: u64| v[(r as usize) % v.len()];
        edges.push(g.insert_edge(c("ComposedOf"), vnfs[i], pick(&vfcs, rng()), vec![], 1).unwrap());
        edges.push(g.insert_edge(c("HostedOn"), vfcs[i], pick(&vms, rng()), vec![], 1).unwrap());
        edges.push(g.insert_edge(c("HostedOn"), vms[i], pick(&hosts, rng()), vec![], 1).unwrap());
        let a = pick(&hosts, rng());
        let b = pick(&hosts, rng());
        if a != b {
            edges.push(g.insert_edge(c("Connects"), a, b, vec![], 1).unwrap());
        }
    }
    // Temporal churn: delete some edges, update some VM statuses.
    for (k, e) in edges.iter().enumerate() {
        if k % 5 == 0 {
            let ts = 100 + (rng() % 100) as i64;
            let _ = g.delete(*e, ts);
        }
    }
    for (k, vm) in vms.iter().enumerate() {
        if k % 3 == 0 {
            let ts = 150 + (rng() % 50) as i64;
            let _ = g.update(*vm, &[(1, Value::Str("Amber".into()))], ts);
        }
    }
    g
}

fn key(paths: &[Pathway]) -> Vec<(Vec<u64>, Option<String>)> {
    let mut v: Vec<(Vec<u64>, Option<String>)> = paths
        .iter()
        .map(|p| (p.elems.iter().map(|u| u.0).collect(), p.times.as_ref().map(|t| t.to_string())))
        .collect();
    v.sort();
    v
}

fn check_equivalence(g: &TemporalGraph, rpe: &str, filter: TimeFilter) {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let view = GraphView::new(g, filter);
    let native = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default());
    let db = db_from_graph(g).unwrap();
    let rel = evaluate_relational(&db, g.schema(), &plan, filter, Seeds::Anchor, &EvalOptions::default()).unwrap();
    assert_eq!(
        key(&native),
        key(&rel.pathways),
        "backend mismatch for `{rpe}` under {filter:?}: native {} vs relational {}",
        native.len(),
        rel.pathways.len()
    );
}

const QUERIES: &[&str] = &[
    "VNF(vnf_id=3)->[Vertical()]{1,6}->Host()",
    "VNF()->VFC()->VM()->Host(host_id=2)",
    "VM(status='Green')->HostedOn()->Host()",
    "Host(host_id=1)->[Connects()]{1,3}->Host()",
    "ComposedOf()->HostedOn()",
    "VFC(vfc_id=4)->VM()",
    "(VNF(vnf_id=1)|VFC(vfc_id=1))",
    "VM(vm_id=0)",
];

#[test]
fn current_snapshot_equivalence() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 8);
        for q in QUERIES {
            check_equivalence(&g, q, TimeFilter::Current);
        }
    }
}

#[test]
fn as_of_equivalence() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 8);
        for q in QUERIES {
            for ts in [50, 120, 180, 500] {
                check_equivalence(&g, q, TimeFilter::AsOf(ts));
            }
        }
    }
}

#[test]
fn range_equivalence_with_maximal_intervals() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 6);
        for q in QUERIES {
            for (a, b) in [(0, 1000), (120, 160), (90, 110)] {
                check_equivalence(&g, q, TimeFilter::Range(a, b));
            }
        }
    }
}

#[test]
fn seeded_evaluation_equivalence() {
    let g = random_graph(7, 8);
    let plan = plan_rpe(g.schema(), &parse_rpe("Connects(){1,4}").unwrap(), &GraphEstimator { graph: &g }).unwrap();
    let hosts: Vec<Uid> = {
        let view = GraphView::new(&g, TimeFilter::Current);
        view.scan_class(g.schema().class_by_name("Host").unwrap())
    };
    let view = GraphView::new(&g, TimeFilter::Current);
    let db = db_from_graph(&g).unwrap();
    for h in hosts.iter().take(4) {
        let seeds = [*h];
        let native = evaluate(&view, &plan, Seeds::Sources(&seeds), &EvalOptions::default());
        let rel = evaluate_relational(
            &db,
            g.schema(),
            &plan,
            TimeFilter::Current,
            Seeds::Sources(&seeds),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(key(&native), key(&rel.pathways), "sources seeded mismatch");
        let native_t = evaluate(&view, &plan, Seeds::Targets(&seeds), &EvalOptions::default());
        let rel_t = evaluate_relational(
            &db,
            g.schema(),
            &plan,
            TimeFilter::Current,
            Seeds::Targets(&seeds),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(key(&native_t), key(&rel_t.pathways), "targets seeded mismatch");
    }
}

#[test]
fn emitted_sql_has_paper_shape() {
    let g = random_graph(1, 6);
    let plan = plan_rpe(
        g.schema(),
        &parse_rpe("VNF(vnf_id=3)->[Vertical()]{1,6}->Host()").unwrap(),
        &GraphEstimator { graph: &g },
    )
    .unwrap();
    let db = db_from_graph(&g).unwrap();
    let rel = evaluate_relational(&db, g.schema(), &plan, TimeFilter::Current, Seeds::Anchor, &EvalOptions::default())
        .unwrap();
    let sql = rel.sql.join("\n");
    assert!(sql.contains("create TEMP table tmp_select_node_1"), "{sql}");
    assert!(sql.contains("ARRAY[N.id_] as uid_list"), "{sql}");
    assert!(sql.contains("= ANY(T.uid_list)"), "{sql}");
    // AsOf adds the temporal_tables-style predicate.
    let rel2 = evaluate_relational(
        &db,
        g.schema(),
        &plan,
        TimeFilter::AsOf(nepal_schema::parse_ts("2017-02-15 10:00:00").unwrap()),
        Seeds::Anchor,
        &EvalOptions::default(),
    )
    .unwrap();
    let sql2 = rel2.sql.join("\n");
    assert!(sql2.contains("sys_period @> '2017-02-15 10:00:00'::timestamptz"), "{sql2}");
}

#[test]
fn emitted_sql_parses_with_the_sql_engine() {
    // Every statement the translator emits must be valid SQL in the
    // dialect the bundled SQL engine implements (comments included).
    let g = random_graph(2, 6);
    let plan = plan_rpe(
        g.schema(),
        &parse_rpe("VNF(vnf_id=3)->[Vertical()]{1,6}->Host()").unwrap(),
        &GraphEstimator { graph: &g },
    )
    .unwrap();
    let db = db_from_graph(&g).unwrap();
    for filter in [TimeFilter::Current, TimeFilter::AsOf(500)] {
        let rel = evaluate_relational(&db, g.schema(), &plan, filter, Seeds::Anchor, &EvalOptions::default()).unwrap();
        for stmt in &rel.sql {
            nepal_relational::parse_sql(stmt).unwrap_or_else(|e| panic!("emitted SQL does not parse: {e}\n{stmt}"));
        }
    }
}

#[test]
fn structured_data_predicates_cross_backend() {
    // Dotted composite predicates evaluate identically in the relational
    // backend (composite values travel as opaque jsonb-style cells).
    let s = Arc::new(
        parse_schema(
            r#"
            data geo { region: str }
            node Port { port_id: int unique, loc: geo }
            "#,
        )
        .unwrap(),
    );
    let mut g = TemporalGraph::new(s.clone());
    let port = s.class_by_name("Port").unwrap();
    for (i, region) in ["east", "west", "east"].iter().enumerate() {
        g.insert_node(port, vec![Value::Int(i as i64), Value::Composite(vec![Value::Str(region.to_string())])], 0)
            .unwrap();
    }
    check_equivalence(&g, "Port(loc.region='east')", TimeFilter::Current);
    check_equivalence(&g, "Port(loc.region='west')", TimeFilter::Current);
}

// ---------------------------------------------------------------------
// Table-1 families on the churned toy ONAP tier
// ---------------------------------------------------------------------

const DAY: nepal_schema::Ts = 86_400_000_000;

/// Query instances per Table-1 family.
const INSTANCES: usize = 3;

/// The churned toy tier, its Table-1 query instances (`family#i`, RPE) and
/// the current, `AT` and range filters over the hot-churn window.
fn onap_toy() -> (TemporalGraph, Vec<(String, String)>, [TimeFilter; 3]) {
    use nepal_workload::{generate_tier_churned, SizeTier};
    let (topo, _) = generate_tier_churned(SizeTier::Toy, 11);
    let queries = nepal_bench::table1_queries(&topo, INSTANCES)
        .into_iter()
        .flat_map(|(family, rpes)| {
            rpes.into_iter().take(INSTANCES).enumerate().map(move |(i, rpe)| (format!("{family}#{i}"), rpe))
        })
        .collect();
    let broad = SizeTier::Toy.broad_churn(0).days as nepal_schema::Ts;
    let hot = SizeTier::Toy.hot_churn().1 as nepal_schema::Ts;
    let start = topo.params.start_ts;
    let (lo, hi) = (start + (broad + 2) * DAY, start + (broad + 1 + hot) * DAY);
    let quarter = (hi - lo) / 4;
    let filters =
        [TimeFilter::Current, TimeFilter::AsOf((lo + hi) / 2 + DAY / 2), TimeFilter::Range(lo + quarter, hi - quarter)];
    (topo.graph, queries, filters)
}

#[test]
fn table1_families_match_native_on_churned_onap() {
    let (g, queries, filters) = onap_toy();
    let db = db_from_graph(&g).unwrap();
    for (instance, rpe) in &queries {
        let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: &g }).unwrap();
        for filter in filters {
            let view = GraphView::new(&g, filter);
            let native = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions { threads: 1, ..Default::default() });
            let rel =
                evaluate_relational(&db, g.schema(), &plan, filter, Seeds::Anchor, &EvalOptions::default()).unwrap();
            assert_eq!(key(&native), key(&rel.pathways), "{instance} `{rpe}` under {filter:?}");
        }
    }
}

#[test]
fn limited_evaluation_keeps_its_pathways() {
    let (g, queries, filters) = onap_toy();
    let db = db_from_graph(&g).unwrap();
    let mut actual = Vec::new();
    // Host-Host (6) runs the Extends of Host-Host (4) with two more hops,
    // at seconds per range evaluation in a debug build.
    for (instance, rpe) in queries.iter().filter(|(instance, _)| !instance.starts_with("Host-Host (6)")) {
        let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: &g }).unwrap();
        for (scope, filter) in ["current", "at", "range"].into_iter().zip(filters) {
            for limit in [1, 2] {
                let opts = EvalOptions { limit: Some(limit), ..Default::default() };
                let rel = evaluate_relational(&db, g.schema(), &plan, filter, Seeds::Anchor, &opts).unwrap();
                let paths: Vec<String> = key(&rel.pathways)
                    .into_iter()
                    .map(|(elems, _)| elems.iter().map(u64::to_string).collect::<Vec<_>>().join(","))
                    .collect();
                actual.push(format!("{instance} {scope} {limit} | {}", paths.join(" ")).trim_end().to_string());
            }
        }
    }
    let expected: Vec<&str> = LIMITED.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert!(actual == expected, "limited pathways changed; actual:\n{}", actual.join("\n"));
}

/// The pathways `evaluate_relational` returns with `limit: Some(1 | 2)`:
/// the `4 × limit` early cut keeps the first pathways the joins emit, so
/// this pins the order in which the `Extend`s emit rows.
const LIMITED: &str = "
    Top-down#0 current 1 | 186,189,188,191,190,192,14
    Top-down#0 current 2 | 186,189,188,191,190,192,14 186,189,188,196,195,197,11
    Top-down#0 at 1 | 186,189,188,191,190,192,14
    Top-down#0 at 2 | 186,189,188,191,190,192,14 186,189,188,196,195,197,11
    Top-down#0 range 1 | 186,189,188,196,195,197,11
    Top-down#0 range 2 | 186,189,188,191,190,192,14 186,189,188,196,195,197,11
    Top-down#1 current 1 | 224,227,226,229,228,230,11
    Top-down#1 current 2 | 224,227,226,229,228,230,11 224,227,226,234,233,235,18
    Top-down#1 at 1 | 224,227,226,229,228,230,11
    Top-down#1 at 2 | 224,227,226,229,228,230,11 224,227,226,234,233,235,18
    Top-down#1 range 1 | 224,227,226,229,228,230,11
    Top-down#1 range 2 | 224,227,226,229,228,230,11 224,227,226,234,233,235,18
    Top-down#2 current 1 | 263,266,265,268,267,269,21
    Top-down#2 current 2 | 263,266,265,268,267,269,21 263,266,265,273,272,274,17
    Top-down#2 at 1 | 263,266,265,268,267,269,21
    Top-down#2 at 2 | 263,266,265,268,267,269,21 263,266,265,273,272,274,17
    Top-down#2 range 1 | 263,266,265,268,267,269,21
    Top-down#2 range 2 | 263,266,265,268,267,269,21 263,266,265,273,272,274,17
    Bottom-up#0 current 1 | 263,290,289,292,291,293,9
    Bottom-up#0 current 2 | 263,290,289,292,291,293,9
    Bottom-up#0 at 1 | 263,290,289,292,291,293,9
    Bottom-up#0 at 2 | 263,290,289,292,291,293,9
    Bottom-up#0 range 1 | 263,290,289,292,291,293,9
    Bottom-up#0 range 2 | 263,290,289,292,291,293,9
    Bottom-up#1 current 1 | 
    Bottom-up#1 current 2 | 
    Bottom-up#1 at 1 | 
    Bottom-up#1 at 2 | 
    Bottom-up#1 range 1 | 
    Bottom-up#1 range 2 | 
    Bottom-up#2 current 1 | 186,189,188,196,195,197,11
    Bottom-up#2 current 2 | 186,189,188,196,195,197,11 224,227,226,229,228,230,11
    Bottom-up#2 at 1 | 186,189,188,196,195,197,11
    Bottom-up#2 at 2 | 186,189,188,196,195,197,11 224,227,226,229,228,230,11
    Bottom-up#2 range 1 | 186,189,188,196,195,197,11
    Bottom-up#2 range 2 | 186,189,188,196,195,197,11 224,227,226,229,228,230,11
    VM-VM (4)#0 current 1 | 190,193,150,171,158,172,151,206,202
    VM-VM (4)#0 current 2 | 190,193,150,171,158,164,147,232,228 190,193,150,171,158,172,151,206,202
    VM-VM (4)#0 at 1 | 190,193,150,171,158,172,151,206,202
    VM-VM (4)#0 at 2 | 190,193,150,171,158,164,147,232,228 190,193,150,171,158,172,151,206,202
    VM-VM (4)#0 range 1 | 190,193,150,223,219
    VM-VM (4)#0 range 2 | 190,193,150,171,158,164,147,232,228 190,193,150,171,158,172,151,206,202
    VM-VM (4)#1 current 1 | 233,236,150,171,158,172,151,206,202
    VM-VM (4)#1 current 2 | 233,236,150,171,158,164,147,232,228 233,236,150,171,158,172,151,206,202
    VM-VM (4)#1 at 1 | 233,236,150,171,158,172,151,206,202
    VM-VM (4)#1 at 2 | 233,236,150,171,158,164,147,232,228 233,236,150,171,158,172,151,206,202
    VM-VM (4)#1 range 1 | 233,236,150,194,190
    VM-VM (4)#1 range 2 | 233,236,150,171,158,164,147,232,228 233,236,150,171,158,172,151,206,202
    VM-VM (4)#2 current 1 | 296,299,148,167,160,168,149,218,214
    VM-VM (4)#2 current 2 | 296,299,148,167,160,168,149,218,214 296,299,148,167,160,176,153,199,195
    VM-VM (4)#2 at 1 | 296,299,148,167,160,168,149,218,214
    VM-VM (4)#2 at 2 | 296,299,148,167,160,168,149,218,214 296,299,148,167,160,176,153,199,195
    VM-VM (4)#2 range 1 | 296,299,148,167,160,168,149,218,214
    VM-VM (4)#2 range 2 | 296,299,148,167,160,168,149,218,214 296,299,148,167,160,176,153,199,195
    Host-Host (4)#0 current 1 | 9,49,41,64,12,61,44,78,16
    Host-Host (4)#0 current 2 | 9,49,41,64,12,61,44,78,16 9,49,41,80,16
    Host-Host (4)#0 at 1 | 9,49,41,64,12,61,44,78,16
    Host-Host (4)#0 at 2 | 9,49,41,64,12,61,44,78,16 9,49,41,80,16
    Host-Host (4)#0 range 1 | 9,49,41,80,16
    Host-Host (4)#0 range 2 | 9,49,41,64,12,61,44,78,16 9,49,41,80,16
    Host-Host (4)#1 current 1 | 12,61,44,60,11,57,43,90,19
    Host-Host (4)#1 current 2 | 12,61,44,60,11,57,43,90,19 12,61,44,76,15,73,43,90,19
    Host-Host (4)#1 at 1 | 12,61,44,60,11,57,43,90,19
    Host-Host (4)#1 at 2 | 12,61,44,60,11,57,43,90,19 12,61,44,76,15,73,43,90,19
    Host-Host (4)#1 range 1 | 12,61,44,92,19
    Host-Host (4)#1 range 2 | 12,61,44,92,19
    Host-Host (4)#2 current 1 | 15,73,43,56,10,53,42,102,22
    Host-Host (4)#2 current 2 | 15,73,43,56,10,53,42,102,22 15,73,43,72,14,69,42,102,22
    Host-Host (4)#2 at 1 | 15,73,43,56,10,53,42,102,22
    Host-Host (4)#2 at 2 | 15,73,43,56,10,53,42,102,22 15,73,43,72,14,69,42,102,22
    Host-Host (4)#2 range 1 | 15,73,43,104,22
    Host-Host (4)#2 range 2 | 15,73,43,56,10,53,42,102,22 15,73,43,72,14,69,42,102,22
";
