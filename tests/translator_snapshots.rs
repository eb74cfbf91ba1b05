//! Translator snapshots: the exact SQL script the relational backend emits
//! (`last_generated()`) and its `rows_scanned`/`rows_joined` counts, pinned
//! for the Table-1 Top-down, Bottom-up and VM-VM families under the
//! current, `AT` and range scopes on the churned toy-tier ONAP graph.
//!
//! The relational `Extend` may change how it finds rows, but never which
//! statements it emits or how many rows the paper's plan scans and joins:
//! any change to either shows up here as a changed fingerprint line.
//!
//! Each pinned line is `family#instance scope | stmts bytes fnv scanned
//! joined pathways`, where `fnv` is the FNV-1a hash of the statements
//! joined by newlines. A mismatch prints the whole actual table, ready to
//! paste over `EXPECTED` after an intended translator change.

use nepal::core::{BackendRegistry, Engine, RelationalBackend};
use nepal::schema::{format_ts, Ts};
use nepal::workload::{generate_tier_churned, SizeTier, VirtTopology};

const DAY: Ts = 86_400_000_000;
const SEED: u64 = 7;
/// Instances pinned per family.
const INSTANCES: usize = 2;

/// Current, `AT` a point inside the hot-churn window, and a range over its
/// middle half — the scopes the benchmark's pathway workloads use.
fn scopes(topo: &VirtTopology) -> [(&'static str, String); 3] {
    let broad_days = SizeTier::Toy.broad_churn(0).days as Ts;
    let hot_days = SizeTier::Toy.hot_churn().1 as Ts;
    let start = topo.params.start_ts;
    let (lo, hi) = (start + (broad_days + 2) * DAY, start + (broad_days + 1 + hot_days) * DAY);
    let at = (lo + hi) / 2 + DAY / 2;
    let quarter = (hi - lo) / 4;
    [
        ("current", String::new()),
        ("at", format!("AT '{}' ", format_ts(at))),
        ("range", format!("AT '{}' : '{}' ", format_ts(lo + quarter), format_ts(hi - quarter))),
    ]
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn snapshot_lines() -> Vec<String> {
    let (topo, _) = generate_tier_churned(SizeTier::Toy, SEED);
    let families = nepal_bench::table1_queries(&topo, INSTANCES);
    let scopes = scopes(&topo);
    let rel = RelationalBackend::from_graph(&topo.graph).unwrap();
    let mut engine = Engine::new(BackendRegistry::new("pg", Box::new(rel)));
    let mut lines = Vec::new();
    for (family, rpes) in families.iter().take(3) {
        for (i, rpe) in rpes.iter().take(INSTANCES).enumerate() {
            for (scope, prefix) in &scopes {
                let text = format!("{prefix}Retrieve P From PATHS P Where P MATCHES {rpe}");
                let (result, profile) = engine.query_profiled(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
                let stmts = engine.registry.get(Some("pg")).unwrap().last_generated();
                let sql = stmts.join("\n");
                let trace = &profile.vars[0].trace;
                lines.push(format!(
                    "{family}#{i} {scope} | stmts={} bytes={} fnv={:016x} scanned={} joined={} pathways={}",
                    stmts.len(),
                    sql.len(),
                    fnv1a(&sql),
                    trace.counter("rel_rows_scanned"),
                    trace.counter("rel_rows_joined"),
                    result.rows.len(),
                ));
            }
        }
    }
    lines
}

const EXPECTED: &str = "
    Top-down#0 current | stmts=76 bytes=21022 fnv=d81f6d32c5725034 scanned=8 joined=366 pathways=6
    Top-down#0 at | stmts=76 bytes=25956 fnv=20f7a4ba7e593bbc scanned=54 joined=1076 pathways=6
    Top-down#0 range | stmts=76 bytes=21886 fnv=ba16bffe874631ac scanned=54 joined=29276 pathways=6
    Top-down#1 current | stmts=76 bytes=21022 fnv=dcdb266825f81740 scanned=8 joined=366 pathways=6
    Top-down#1 at | stmts=76 bytes=25956 fnv=e07358508d988b1a scanned=54 joined=756 pathways=6
    Top-down#1 range | stmts=76 bytes=21886 fnv=0d6711cff0321168 scanned=54 joined=2888 pathways=6
    Bottom-up#0 current | stmts=72 bytes=18010 fnv=76eae314c0e361d7 scanned=128 joined=56 pathways=1
    Bottom-up#0 at | stmts=72 bytes=22202 fnv=5ff214cd33d67593 scanned=688 joined=61 pathways=1
    Bottom-up#0 range | stmts=72 bytes=18682 fnv=bcbb1a00171f303b scanned=688 joined=70 pathways=1
    Bottom-up#1 current | stmts=72 bytes=18010 fnv=b8c2db363317166b scanned=128 joined=112 pathways=2
    Bottom-up#1 at | stmts=72 bytes=22202 fnv=42e1ebc56b0b16b3 scanned=688 joined=180 pathways=2
    Bottom-up#1 range | stmts=72 bytes=18682 fnv=d31e684e0d262bd7 scanned=688 joined=635 pathways=2
    VM-VM (4)#0 current | stmts=40 bytes=10894 fnv=6f330eb5eee2b96e scanned=38 joined=114 pathways=9
    VM-VM (4)#0 at | stmts=40 bytes=13416 fnv=7c33ec0b00cffe92 scanned=230 joined=970 pathways=9
    VM-VM (4)#0 range | stmts=40 bytes=11326 fnv=458d2ec0bd3cb6d2 scanned=230 joined=14452 pathways=9
    VM-VM (4)#1 current | stmts=40 bytes=10894 fnv=44c8cbf224fec34a scanned=38 joined=94 pathways=4
    VM-VM (4)#1 at | stmts=40 bytes=13416 fnv=3cff2a1a1478bbae scanned=230 joined=332 pathways=4
    VM-VM (4)#1 range | stmts=40 bytes=11326 fnv=ad61660b7f13ba0e scanned=230 joined=992 pathways=4
";

#[test]
fn relational_translation_is_pinned() {
    let actual = snapshot_lines();
    let expected: Vec<&str> = EXPECTED.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert!(actual == expected, "translator output changed; actual table:\n{}", actual.join("\n"));
}
