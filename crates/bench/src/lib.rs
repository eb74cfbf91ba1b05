//! Benchmark harness reproducing every table in the paper's evaluation
//! (§6). See `src/bin/reproduce.rs` for the CLI and EXPERIMENTS.md for the
//! paper-vs-measured record.
//!
//! Methodology mirrors §6: for each query type we execute N instances
//! (rotating the anchor over real element ids), skip instances that return
//! zero paths ("we avoided instances that result in zero paths"), and
//! report the average number of paths returned and the average execution
//! time — once against the freshly loaded snapshot and once against the
//! database carrying a 60-day history.

pub mod crash;
pub mod introspect;
pub mod obs_report;
pub mod replay;
pub mod serve_load;
pub mod tiers;

pub use crash::{format_crash_report, run_crash_forensics, CrashReport};
pub use introspect::{format_introspect, introspect_json, run_introspect, IntrospectReport};
pub use obs_report::{format_obs_report, obs_report_json, run_obs_report, ChurnPoint, ObsReport};
pub use replay::{capture_workload, format_replay, replay_json, replay_qlog, ReplayReport, ReplayRow};
pub use serve_load::{
    format_attribution_overhead, format_flight_overhead, format_serve_load, run_attribution_overhead,
    run_flight_overhead, run_serve_load, serve_load_json, serve_load_json_full, serve_load_json_with_overhead,
    AttributionOverhead, FlightOverhead, ServeLoadConfig, ServeLoadRow,
};
pub use tiers::{
    check_gates, format_tier_scaling, run_scaling_tiers, tier_aggregates, tier_scaling_json, GateOutcome, TierReport,
    TierScalingRow, TierStorageRow,
};

use std::time::Instant;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Seeds};
use nepal_schema::Value;
use nepal_workload::{
    apply_churn, generate_legacy, generate_virtualized, updatable_entities, ChurnParams, LegacyParams, LegacyTopology,
    VirtParams, VirtTopology,
};

/// One row of a Table-1/2 style report.
#[derive(Debug, Clone)]
pub struct QueryRow {
    pub name: String,
    pub instances: usize,
    pub avg_paths: f64,
    pub avg_ms_snap: f64,
    pub avg_ms_hist: f64,
}

/// Run one query template over a list of instance RPEs.
fn run_instances(g: &TemporalGraph, rpes: &[String]) -> (usize, f64, f64) {
    let opts = EvalOptions::default();
    let view = GraphView::new(g, TimeFilter::Current);
    let mut total_paths = 0usize;
    let mut total_ms = 0f64;
    let mut used = 0usize;
    for rpe_text in rpes {
        let rpe = parse_rpe(rpe_text).expect("bench RPE parses");
        let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: g }).expect("bench RPE plans");
        let t0 = Instant::now();
        let paths = evaluate(&view, &plan, Seeds::Anchor, &opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if paths.is_empty() {
            continue; // §6: zero-result instances are skipped
        }
        used += 1;
        total_paths += paths.len();
        total_ms += ms;
    }
    if used == 0 {
        (0, 0.0, 0.0)
    } else {
        (used, total_paths as f64 / used as f64, total_ms / used as f64)
    }
}

fn int_field(g: &TemporalGraph, uid: Uid, idx: usize) -> i64 {
    match &g.current_version(uid).expect("alive").fields()[idx] {
        Value::Int(i) => *i,
        other => panic!("expected int field, got {other:?}"),
    }
}

/// Build the virtualized-service graph, snapshot + churned-history twins.
pub fn build_virtualized(seed: u64) -> (VirtTopology, TemporalGraph) {
    let snap = generate_virtualized(VirtParams { seed, ..Default::default() });
    let mut hist_topo = generate_virtualized(VirtParams { seed, ..Default::default() });
    let updatable = updatable_entities(&hist_topo.graph, "status");
    apply_churn(&mut hist_topo.graph, &updatable, &[], hist_topo.params.start_ts, &ChurnParams::virtualized_default());
    (snap, hist_topo.graph)
}

/// The five Table-1 query families, as instance RPE lists.
pub fn table1_queries(topo: &VirtTopology, instances: usize) -> Vec<(String, Vec<String>)> {
    let g = &topo.graph;
    // Top-down: one instance per distinct VNF (§6: "there are only 33
    // distinct VNFs so we evaluated only 33 queries instances").
    let top_down: Vec<String> = topo
        .vnfs
        .iter()
        .map(|&v| {
            let id = int_field(g, v, 0);
            format!("VNF(vnf_id={id})->[Vertical()]{{1,6}}->Host()")
        })
        .collect();
    let bottom_up: Vec<String> = (0..instances)
        .map(|i| {
            let h = topo.hosts[i % topo.hosts.len()];
            let id = int_field(g, h, 0);
            format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={id})")
        })
        .collect();
    // VM-VM through virtual networks/routers, length 4.
    let vms: Vec<Uid> = topo
        .containers
        .iter()
        .copied()
        .filter(|&c| {
            let cls = g.class_of(c).unwrap();
            g.schema().is_subclass(cls, g.schema().class_by_name("VM").unwrap())
        })
        .collect();
    let vm_vm: Vec<String> = (0..instances)
        .map(|i| {
            let vm = vms[(i * 7) % vms.len()];
            let id = int_field(g, vm, 2);
            format!("VM(vm_id={id})->[ConnectedTo()]{{1,4}}->Container()")
        })
        .collect();
    let host_pairs = |limit: usize, hops: usize| -> Vec<String> {
        (0..limit)
            .map(|i| {
                let a = topo.hosts[(i * 3) % topo.hosts.len()];
                let b = topo.hosts[(i * 3 + 7) % topo.hosts.len()];
                let (ia, ib) = (int_field(g, a, 0), int_field(g, b, 0));
                format!("Host(host_id={ia})->[ConnectedTo()]{{1,{hops}}}->Host(host_id={ib})")
            })
            .collect()
    };
    vec![
        ("Top-down".into(), top_down),
        ("Bottom-up".into(), bottom_up),
        ("VM-VM (4)".into(), vm_vm),
        ("Host-Host (4)".into(), host_pairs(instances, 4)),
        ("Host-Host (6)".into(), host_pairs(instances.min(10), 6)),
    ]
}

/// Run Table 1: the virtualized service graph.
pub fn run_table1(instances: usize, seed: u64) -> Vec<QueryRow> {
    let (snap, hist) = build_virtualized(seed);
    let queries = table1_queries(&snap, instances);
    queries
        .into_iter()
        .map(|(name, rpes)| {
            let (n, paths, ms_snap) = run_instances(&snap.graph, &rpes);
            let (_, _, ms_hist) = run_instances(&hist, &rpes);
            QueryRow { name, instances: n, avg_paths: paths, avg_ms_snap: ms_snap, avg_ms_hist: ms_hist }
        })
        .collect()
}

/// Build the legacy graph, snapshot + churned-history twins.
pub fn build_legacy(params: LegacyParams) -> (LegacyTopology, TemporalGraph) {
    let snap = generate_legacy(params.clone());
    let mut hist = generate_legacy(params);
    let updatable = updatable_entities(&hist.graph, "type_indicator");
    apply_churn(&mut hist.graph, &updatable, &[], hist.params.start_ts, &ChurnParams::legacy_default());
    (snap, hist.graph)
}

/// The four Table-2 query families. `typed` switches the atoms to the
/// 66-subclass concepts (Table 3 mode).
pub fn table2_queries(
    topo: &LegacyTopology,
    instances: usize,
    typed: bool,
    hub_bias: f64,
) -> Vec<(String, Vec<String>)> {
    let g = &topo.graph;
    let node_id = |uid: Uid| int_field(g, uid, 0);
    let (svc, v0, v1, v2) = if typed {
        ("T3()".to_string(), "T0()".to_string(), "T1()".to_string(), "T2()".to_string())
    } else {
        (
            "LegacyEdge(type_indicator='ti3')".to_string(),
            "LegacyEdge(type_indicator='ti0')".to_string(),
            "LegacyEdge(type_indicator='ti1')".to_string(),
            "LegacyEdge(type_indicator='ti2')".to_string(),
        )
    };
    let service_path: Vec<String> = (0..instances)
        .map(|i| {
            let s = topo.svc_sources[(i * 131) % topo.svc_sources.len()];
            format!("LegacyNode(node_id={})->[{svc}]{{1,4}}", node_id(s))
        })
        .collect();
    let reverse_path: Vec<String> = (0..instances)
        .map(|i| {
            let s = topo.svc_sinks[i % topo.svc_sinks.len()];
            format!("[{svc}]{{1,4}}->LegacyNode(node_id={})", node_id(s))
        })
        .collect();
    let top_down: Vec<String> = (0..instances)
        .map(|i| {
            let s = topo.levels[0][(i * 37) % topo.levels[0].len()];
            format!("LegacyNode(node_id={})->{v0}->{v1}->{v2}", node_id(s))
        })
        .collect();
    // Bottom-up: a biased fraction of instances land on noise hubs — the
    // paper's "16 of the 50 samples have a response time of 2 to 4 seconds".
    let bottom_up: Vec<String> = (0..instances)
        .map(|i| {
            let s = if (i as f64 / instances.max(1) as f64) < hub_bias {
                topo.hubs[i % topo.hubs.len()]
            } else {
                topo.levels[3][(i * 53 + topo.hubs.len()) % topo.levels[3].len()]
            };
            format!("{v0}->{v1}->{v2}->LegacyNode(node_id={})", node_id(s))
        })
        .collect();
    vec![
        ("Service path".into(), service_path),
        ("Reverse path".into(), reverse_path),
        ("Top-down".into(), top_down),
        ("Bottom-up".into(), bottom_up),
    ]
}

/// Run Table 2: the legacy topology, single-edge-class load.
pub fn run_table2(params: LegacyParams, instances: usize) -> Vec<QueryRow> {
    let (snap, hist) = build_legacy(params);
    let queries = table2_queries(&snap, instances, false, 0.32);
    queries
        .into_iter()
        .map(|(name, rpes)| {
            let (n, paths, ms_snap) = run_instances(&snap.graph, &rpes);
            let (_, _, ms_hist) = run_instances(&hist, &rpes);
            QueryRow { name, instances: n, avg_paths: paths, avg_ms_snap: ms_snap, avg_ms_hist: ms_hist }
        })
        .collect()
}

/// One row of the Table-3 (partitioning ablation) report.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub name: String,
    pub single_class_ms: f64,
    pub subclassed_ms: f64,
    pub speedup: f64,
}

/// Run the §6 in-text experiment: reload the legacy graph with 66 edge
/// subclasses and re-evaluate the two slowest queries.
pub fn run_table3(base: LegacyParams, instances: usize) -> Vec<AblationRow> {
    let single = generate_legacy(LegacyParams { edge_subclasses: 1, ..base.clone() });
    let parted = generate_legacy(LegacyParams { edge_subclasses: 66, ..base });
    let q_single = table2_queries(&single, instances, false, 1.0);
    let q_parted = table2_queries(&parted, instances, true, 1.0);
    let mut out = Vec::new();
    for name in ["Reverse path", "Bottom-up"] {
        let rpes_a = &q_single.iter().find(|(n, _)| n == name).unwrap().1;
        let rpes_b = &q_parted.iter().find(|(n, _)| n == name).unwrap().1;
        let (_, _, ms_a) = run_instances(&single.graph, rpes_a);
        let (_, _, ms_b) = run_instances(&parted.graph, rpes_b);
        out.push(AblationRow {
            name: name.to_string(),
            single_class_ms: ms_a,
            subclassed_ms: ms_b,
            speedup: if ms_b > 0.0 { ms_a / ms_b } else { f64::INFINITY },
        });
    }
    out
}

/// Storage-overhead report (§6.1).
#[derive(Debug, Clone)]
pub struct StorageRow {
    pub dataset: String,
    pub snapshot_bytes: u64,
    pub history_bytes: u64,
    /// Temporal-table overhead: history / snapshot − 1.
    pub overhead_pct: f64,
    /// The naive alternative: 60 separate daily snapshots.
    pub naive_pct: f64,
}

/// Run the storage experiment: versioned history vs 60 materialized
/// snapshots, for both data sets.
pub fn run_storage(legacy_params: LegacyParams) -> Vec<StorageRow> {
    let mut out = Vec::new();
    {
        let (snap, hist) = build_virtualized(42);
        let s = snap.graph.approx_version_bytes();
        let h = hist.approx_version_bytes();
        out.push(StorageRow {
            dataset: "virtualized service".into(),
            snapshot_bytes: s,
            history_bytes: h,
            overhead_pct: (h as f64 / s as f64 - 1.0) * 100.0,
            naive_pct: 5_900.0, // 60 copies − 1 = 59× = 5,900%
        });
    }
    {
        let (snap, hist) = build_legacy(legacy_params);
        let s = snap.graph.approx_version_bytes();
        let h = hist.approx_version_bytes();
        out.push(StorageRow {
            dataset: "legacy topology".into(),
            snapshot_bytes: s,
            history_bytes: h,
            overhead_pct: (h as f64 / s as f64 - 1.0) * 100.0,
            naive_pct: 5_900.0,
        });
    }
    out
}

/// Thread counts `reproduce scaling` passes to [`run_scaling_tiers`]:
/// {1, 2, 4, all cores}, deduplicated and sorted (a single-core host
/// sweeps {1, 2, 4} — the overhead of the pool is still measured, the
/// speedup is just flat).
pub fn scaling_thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1, 2, 4, max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Run one instance of each Table-1 query family through a full
/// [`Engine`](nepal_core::Engine) over the virtualized graph and return
/// the engine's metrics (plus the store gauges) as JSON — the
/// `reproduce --json` BENCH_metrics.json output.
pub fn metrics_snapshot_json(seed: u64) -> String {
    use nepal_core::{BackendRegistry, Engine, NativeBackend};
    use std::sync::Arc;

    let (snap, _) = build_virtualized(seed);
    let queries = table1_queries(&snap, 1);
    let graph = Arc::new(snap.graph);
    let registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    let mut engine = Engine::new(registry);
    let store_gauges = nepal_graph::StoreGauges::register(&engine.metrics);
    for (_, rpes) in &queries {
        if let Some(rpe) = rpes.first() {
            let _ = engine.query(&format!("Retrieve P From PATHS P Where P MATCHES {rpe}"));
        }
    }
    store_gauges.refresh(&graph);
    engine.metrics.render_json()
}

/// Render a Table-1/2 style report.
pub fn format_query_table(title: &str, rows: &[QueryRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!("{:<16} {:>5} {:>12} {:>14} {:>14}\n", "Type", "#inst", "# paths", "Time snap", "Time hist"));
    for r in rows {
        s.push_str(&format!(
            "{:<16} {:>5} {:>12.1} {:>11.3} ms {:>11.3} ms\n",
            r.name, r.instances, r.avg_paths, r.avg_ms_snap, r.avg_ms_hist
        ));
    }
    s
}

/// Render Table-1/2 rows as a JSON array (the `reproduce --json` output).
pub fn query_rows_json(rows: &[QueryRow]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":{:?},\"instances\":{},\"avg_paths\":{:.2},\
                 \"avg_ms_snapshot\":{:.3},\"avg_ms_history\":{:.3}}}",
                r.name, r.instances, r.avg_paths, r.avg_ms_snap, r.avg_ms_hist
            )
        })
        .collect();
    format!("[\n  {}\n]\n", items.join(",\n  "))
}

/// Render the ablation report.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 3 (in-text §6): 1 edge class vs 66 edge subclasses\n");
    s.push_str(&format!("{:<16} {:>16} {:>16} {:>9}\n", "Type", "1 class", "66 subclasses", "speedup"));
    for r in rows {
        s.push_str(&format!(
            "{:<16} {:>13.3} ms {:>13.3} ms {:>8.1}x\n",
            r.name, r.single_class_ms, r.subclassed_ms, r.speedup
        ));
    }
    s
}

/// Render the storage report.
pub fn format_storage(rows: &[StorageRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 4 (in-text §6.1): 60-day history storage overhead\n");
    s.push_str(&format!(
        "{:<22} {:>14} {:>14} {:>10} {:>12}\n",
        "Dataset", "snapshot", "with history", "overhead", "60 snapshots"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<22} {:>11} KB {:>11} KB {:>9.1}% {:>11.0}%\n",
            r.dataset,
            r.snapshot_bytes / 1024,
            r.history_bytes / 1024,
            r.overhead_pct,
            r.naive_pct
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_hold_at_small_instance_counts() {
        let rows = run_table1(6, 42);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        // Top-down uses all 33 VNFs.
        assert_eq!(get("Top-down").instances, 33);
        assert!(get("Top-down").avg_paths >= 1.0);
        // VM-VM returns the most paths of the length-4 queries (paper:
        // 215.9 vs 18.5/19.5).
        assert!(get("VM-VM (4)").avg_paths > get("Host-Host (4)").avg_paths);
        // Host-Host(6) explores far more paths than Host-Host(4) (561.7 vs
        // 18.5).
        assert!(get("Host-Host (6)").avg_paths > 5.0 * get("Host-Host (4)").avg_paths);
    }

    #[test]
    fn table2_and_3_shapes_hold_at_tiny_scale() {
        let params = LegacyParams { nodes: 8000, edges: 36_000, ..Default::default() };
        let rows = run_table2(params.clone(), 8);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        // Reverse service path explodes vs forward (paper: 391,000 vs 32.9).
        assert!(
            get("Reverse path").avg_paths > 10.0 * get("Service path").avg_paths,
            "reverse {} vs forward {}",
            get("Reverse path").avg_paths,
            get("Service path").avg_paths
        );
        // Partitioning speeds up Bottom-up by a large factor and Reverse
        // path only modestly (paper: 13.7x vs 1.17x).
        let ablation = run_table3(params, 6);
        let bu = ablation.iter().find(|r| r.name == "Bottom-up").unwrap();
        let rp = ablation.iter().find(|r| r.name == "Reverse path").unwrap();
        assert!(bu.speedup > 2.0, "bottom-up speedup {}", bu.speedup);
        assert!(bu.speedup > rp.speedup, "bottom-up {} vs reverse {}", bu.speedup, rp.speedup);
    }

    #[test]
    fn storage_overheads_match_paper_band() {
        let rows = run_storage(LegacyParams { nodes: 8000, edges: 36_000, ..Default::default() });
        let virt = &rows[0];
        let legacy = &rows[1];
        // §6.1: 6% (virtualized) and 16% (legacy), vs 5,900% naive.
        assert!((2.0..=12.0).contains(&virt.overhead_pct), "virt {}", virt.overhead_pct);
        assert!((8.0..=26.0).contains(&legacy.overhead_pct), "legacy {}", legacy.overhead_pct);
        assert!(virt.naive_pct > 100.0 * virt.overhead_pct);
    }
}
