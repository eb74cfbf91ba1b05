//! End-to-end execution of every query example in §3.4 and §4 of the
//! paper, against a layered topology shaped like Fig. 2.

use std::sync::Arc;

use nepal_core::{engine_over, Engine, NepalError};
use nepal_graph::{TemporalGraph, Uid};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Value};

const SCHEMA: &str = r#"
    node VNF { id: int unique, name: str optional }
    node DNS : VNF { }
    node Firewall : VNF { }
    node VFC { id2: int unique }
    node Container { status: str optional }
    node VM : Container { id3: int unique, name: str optional }
    node Docker : Container { id4: int unique }
    node Host { id5: int unique }
    node Switch { id6: int unique }
    edge Vertical { }
    edge ComposedOf : Vertical { }
    edge HostedOn : Vertical { }
    edge ConnectsTo { }
"#;

struct Fx {
    g: Arc<TemporalGraph>,
    vnf123: Uid,
    vnf234: Uid,
    host1: Uid,
    host2: Uid,
    vm_a: Uid,
    vm_free: Uid,
}

/// VNF(123) → VFC(11) → VM(21 "vm-a") → Host(23245)
/// VNF(234) → VFC(12) → Docker(22)    → Host(34356)
/// Host(23245) ↔ Switch(91) ↔ Host(34356)
/// Plus one free VM(23) hosting nothing.
fn fixture() -> Fx {
    let s: Arc<Schema> = Arc::new(parse_schema(SCHEMA).unwrap());
    let c = |n: &str| s.class_by_name(n).unwrap();
    let mut g = TemporalGraph::new(s.clone());
    let t = nepal_schema::parse_ts("2017-02-01 00:00").unwrap();
    let vnf123 = g.insert_node(c("DNS"), vec![Value::Int(123), Value::Str("dns-east".into())], t).unwrap();
    let vnf234 = g.insert_node(c("Firewall"), vec![Value::Int(234), Value::Str("fw-west".into())], t).unwrap();
    let vfc1 = g.insert_node(c("VFC"), vec![Value::Int(11)], t).unwrap();
    let vfc2 = g.insert_node(c("VFC"), vec![Value::Int(12)], t).unwrap();
    let vm_a =
        g.insert_node(c("VM"), vec![Value::Str("Green".into()), Value::Int(21), Value::Str("vm-a".into())], t).unwrap();
    let dk = g.insert_node(c("Docker"), vec![Value::Str("Green".into()), Value::Int(22)], t).unwrap();
    let vm_free = g
        .insert_node(c("VM"), vec![Value::Str("Green".into()), Value::Int(23), Value::Str("vm-free".into())], t)
        .unwrap();
    let host1 = g.insert_node(c("Host"), vec![Value::Int(23245)], t).unwrap();
    let host2 = g.insert_node(c("Host"), vec![Value::Int(34356)], t).unwrap();
    let sw = g.insert_node(c("Switch"), vec![Value::Int(91)], t).unwrap();
    let e = |g: &mut TemporalGraph, cls: &str, a: Uid, b: Uid| g.insert_edge(c(cls), a, b, vec![], t).unwrap();
    e(&mut g, "ComposedOf", vnf123, vfc1);
    e(&mut g, "ComposedOf", vnf234, vfc2);
    e(&mut g, "HostedOn", vfc1, vm_a);
    e(&mut g, "HostedOn", vfc2, dk);
    e(&mut g, "HostedOn", vm_a, host1);
    e(&mut g, "HostedOn", dk, host2);
    e(&mut g, "HostedOn", vm_free, host2);
    e(&mut g, "ConnectsTo", host1, sw);
    e(&mut g, "ConnectsTo", sw, host1);
    e(&mut g, "ConnectsTo", host2, sw);
    e(&mut g, "ConnectsTo", sw, host2);
    Fx { g: Arc::new(g), vnf123, vnf234, host1, host2, vm_a, vm_free }
}

fn engine(fx: &Fx) -> Engine {
    engine_over(fx.g.clone())
}

#[test]
fn example_1_explicit_layers() {
    let fx = fixture();
    let r = engine(&fx).query("Retrieve P From PATHS P WHERE P MATCHES VNF()->VFC()->VM()->Host(id5=23245)").unwrap();
    assert_eq!(r.rows.len(), 1);
    let (_, p) = &r.rows[0].pathways[0];
    assert_eq!(p.source(), fx.vnf123);
    assert_eq!(p.target(), fx.host1);
}

#[test]
fn example_2_generic_vertical() {
    let fx = fixture();
    let r =
        engine(&fx).query("Retrieve P From PATHS P WHERE P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)").unwrap();
    assert!(r.rows.iter().any(|row| row.pathways[0].1.source() == fx.vnf123));
    assert!(!r.rows.iter().any(|row| row.pathways[0].1.source() == fx.vnf234));
}

#[test]
fn example_3_join_finds_physical_path() {
    // "the following (simplified) query finds the physical communication
    // path between the host that implements the VNF with id 123 and the
    // VNF with id 234" — Phys imports its anchor from D1/D2.
    let fx = fixture();
    let r = engine(&fx)
        .query(
            "Retrieve Phys \
             From PATHS D1, PATHS D2, PATHS Phys \
             Where D1 MATCHES VNF(id=123)->Vertical(){1,6}->Host() \
             And D2 MATCHES VNF(id=234)->Vertical(){1,6}->Host() \
             And Phys MATCHES ConnectsTo(){1,8} \
             And source(Phys)=target(D1) \
             And target(Phys)=target(D2)",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        let phys = &row.pathways.iter().find(|(v, _)| v == "Phys").unwrap().1;
        assert_eq!(phys.source(), fx.host1);
        assert_eq!(phys.target(), fx.host2);
    }
}

#[test]
fn example_4_not_exists_finds_free_vms() {
    // "the following query returns all VMs that do not host a VFC or VNF".
    let fx = fixture();
    let r = engine(&fx)
        .query(
            "Retrieve V From PATHS V Where V MATCHES VM() \
             And NOT EXISTS( \
               Retrieve P from PATHS P \
               Where P MATCHES (VNF()|VFC())->[HostedOn()]{1,5}->VM() \
               And target(V) = target(P) )",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].pathways[0].1.source(), fx.vm_free);
    // Positive EXISTS returns the complement.
    let r2 = engine(&fx)
        .query(
            "Retrieve V From PATHS V Where V MATCHES VM() \
             And EXISTS( \
               Retrieve P from PATHS P \
               Where P MATCHES (VNF()|VFC())->[HostedOn()]{1,5}->VM() \
               And target(V) = target(P) )",
        )
        .unwrap();
    assert_eq!(r2.rows.len(), 1);
    assert_eq!(r2.rows[0].pathways[0].1.source(), fx.vm_a);
}

#[test]
fn example_5_select_post_processing() {
    // "Select source(V).name, source(V).id From PATHS V".
    let fx = fixture();
    let r = engine(&fx)
        .query(
            "Select source(V).name, source(V).id3 From PATHS V Where V MATCHES VM() \
             And NOT EXISTS( \
               Retrieve P from PATHS P \
               Where P MATCHES (VNF()|VFC())->[HostedOn()]{1,5}->VM() \
               And target(V) = target(P) )",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["source(V).name", "source(V).id3"]);
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0], Value::Str("vm-free".into()));
    assert_eq!(r.rows[0].values[1], Value::Int(23));
    let _ = fx.vm_free;
}

// ---------------------------------------------------------------------
// §4 temporal examples
// ---------------------------------------------------------------------

fn churn_fixture() -> Fx {
    // vm_a (and with it VNF123's vertical path) is deleted at Feb 10.
    let fx = fixture();
    let mut g = Arc::try_unwrap(fx.g).ok().expect("sole owner");
    g.delete(fx.vm_a, nepal_schema::parse_ts("2017-02-10 00:00").unwrap()).unwrap();
    Fx { g: Arc::new(g), ..fx }
}

#[test]
fn at_time_point_query() {
    let fx = churn_fixture();
    // Current snapshot: no path.
    let r = engine(&fx)
        .query("Select source(P) From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)")
        .unwrap();
    assert!(r.rows.is_empty());
    // AT Feb 5: the path exists.
    let r = engine(&fx)
        .query(
            "AT '2017-02-05 10:00:00' Select source(P) From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0], Value::Int(fx.vnf123.0 as i64));
}

#[test]
fn per_variable_time_points() {
    // §4: VNFs hosted on host 23245 at t1 AND host 34356 at t2 — here we
    // check the join machinery with per-variable @ scopes.
    let fx = churn_fixture();
    let r = engine(&fx)
        .query(
            "Select source(P) From PATHS P(@'2017-02-05 10:00'), PATHS Q(@'2017-02-05 11:00') \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245) \
             And Q MATCHES VNF()->[Vertical()]{1,6}->Host(id5=34356) \
             And source(P) = source(Q)",
        )
        .unwrap();
    // VNF123 is on host1 only; VNF234 on host2 only → empty join.
    assert!(r.rows.is_empty());
    // Same VNF on the same host at two times → non-empty.
    let r2 = engine(&fx)
        .query(
            "Select source(P) From PATHS P(@'2017-02-05 10:00'), PATHS Q(@'2017-02-09 11:00') \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245) \
             And Q MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245) \
             And source(P) = source(Q)",
        )
        .unwrap();
    assert_eq!(r2.rows.len(), 1);
}

#[test]
fn time_range_query_reports_maximal_ranges() {
    let fx = churn_fixture();
    // Window Feb 9–11: the pathway is reported with its MAXIMAL range
    // (from Feb 1, before the window, until the Feb 10 delete).
    let r = engine(&fx)
        .query(
            "AT '2017-02-09 00:00' : '2017-02-11 00:00' Retrieve P From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let times = r.rows[0].times.as_ref().unwrap();
    assert_eq!(times.intervals().len(), 1);
    assert_eq!(times.intervals()[0].from, nepal_schema::parse_ts("2017-02-01 00:00").unwrap());
    assert_eq!(times.intervals()[0].to, nepal_schema::parse_ts("2017-02-10 00:00").unwrap());
    // A window after the delete is empty.
    let r2 = engine(&fx)
        .query(
            "AT '2017-02-11 00:00' : '2017-02-12 00:00' Retrieve P From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert!(r2.rows.is_empty());
}

#[test]
fn temporal_aggregates() {
    let fx = churn_fixture();
    let feb1 = nepal_schema::parse_ts("2017-02-01 00:00").unwrap();
    let feb10 = nepal_schema::parse_ts("2017-02-10 00:00").unwrap();
    let r = engine(&fx)
        .query(
            "First Time When Exists From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert_eq!(r.rows[0].values[0], Value::Ts(feb1));
    let r = engine(&fx)
        .query(
            "Last Time When Exists From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert_eq!(r.rows[0].values[0], Value::Ts(feb10));
    let r = engine(&fx)
        .query(
            "When Exists From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    let times = r.rows[0].times.as_ref().unwrap();
    assert_eq!(times.intervals(), &[nepal_graph::Interval::new(feb1, feb10)]);
    // Still-existing pathway: Last Time returns Null ("still exists").
    let r = engine(&fx)
        .query(
            "Last Time When Exists From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=34356)",
        )
        .unwrap();
    assert_eq!(r.rows[0].values[0], Value::Null);
    // Never-existing pathway: no rows.
    let r = engine(&fx).query("First Time When Exists From PATHS P Where P MATCHES VNF(id=999)").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn shared_fate_query() {
    // §2.3.2 "Calculating shared fate": everything affected if host1 fails.
    let fx = fixture();
    let r = engine(&fx)
        .query(
            "Select source(P) From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0], Value::Int(fx.vnf123.0 as i64));
}

#[test]
fn length_function_and_literals() {
    let fx = fixture();
    let r = engine(&fx)
        .query(
            "Select length(P) From PATHS P \
             Where P MATCHES Host(id5=23245)->[ConnectsTo()]{1,4}->Host(id5=34356) \
             And length(P) = 2",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0], Value::Int(2));
}

#[test]
fn unsupported_range_on_gremlin_backend_is_clear_error() {
    use nepal_core::{BackendRegistry, GremlinBackend};
    use nepal_gremlin::{property_graph_from, serve_in_process, ConnCtl, GremlinClient};
    use parking_lot::RwLock;

    let fx = fixture();
    let pg = Arc::new(RwLock::new(property_graph_from(&fx.g)));
    let client = GremlinClient::new(serve_in_process(pg, ConnCtl::default()).0);
    let backend = GremlinBackend::new(client, fx.g.schema().clone());
    let mut eng = Engine::new(BackendRegistry::new("gremlin", Box::new(backend)));
    let err = eng
        .query(
            "AT '2017-02-01 00:00' : '2017-02-02 00:00' Retrieve P From PATHS P \
             Where P MATCHES VM()",
        )
        .unwrap_err();
    assert!(matches!(err, NepalError::Unsupported(_)));
}

#[test]
fn cross_backend_federation_join() {
    // Data integration: D1 from the native store, Phys from a Gremlin
    // server — joined in the shim layer.
    use nepal_core::{BackendRegistry, GremlinBackend, NativeBackend};
    use nepal_gremlin::{property_graph_from, serve_in_process, ConnCtl, GremlinClient};
    use parking_lot::RwLock;

    let fx = fixture();
    let pg = Arc::new(RwLock::new(property_graph_from(&fx.g)));
    let client = GremlinClient::new(serve_in_process(pg, ConnCtl::default()).0);
    let gremlin = GremlinBackend::new(client, fx.g.schema().clone());
    let mut registry = BackendRegistry::new("native", Box::new(NativeBackend::new(fx.g.clone())));
    registry.add("inventory2", Box::new(gremlin));
    let mut eng = Engine::new(registry);
    let r = eng
        .query(
            "Retrieve Phys \
             From PATHS D1, PATHS Phys USING inventory2 \
             Where D1 MATCHES VNF(id=123)->Vertical(){1,6}->Host() \
             And Phys MATCHES ConnectsTo(){1,4} \
             And source(Phys)=target(D1)",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        let phys = &row.pathways.iter().find(|(v, _)| v == "Phys").unwrap().1;
        assert_eq!(phys.source(), fx.host1);
    }
}

#[test]
fn relational_backend_runs_full_queries_and_logs_sql() {
    use nepal_core::{BackendRegistry, RelationalBackend};
    let fx = churn_fixture();
    let backend = RelationalBackend::from_graph(&fx.g).unwrap();
    let mut eng = Engine::new(BackendRegistry::new("pg", Box::new(backend)));
    let r = eng
        .query(
            "AT '2017-02-09 00:00' : '2017-02-11 00:00' Retrieve P From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id5=23245)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let times = r.rows[0].times.as_ref().unwrap();
    assert_eq!(times.intervals().len(), 1);
    let sql = eng.registry.get(Some("pg")).unwrap().last_generated();
    assert!(sql.iter().any(|s| s.contains("create TEMP table")));
}
