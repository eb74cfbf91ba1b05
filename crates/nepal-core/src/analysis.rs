//! Network-management analyses from §2.3.2, packaged as library calls:
//!
//! - **Calculating service dependencies on physical infrastructure** —
//!   [`footprint`]: all elements of a target concept reachable from an
//!   element by vertical edges.
//! - **Calculating shared fate** — [`shared_fate`]: everything of a given
//!   concept that (transitively) depends on an element, following vertical
//!   edges upward.
//! - **Calculating induced paths** — [`induced_paths`]: map a pathway at
//!   one layer to the corresponding paths at a lower layer, hop by hop.

use nepal_graph::{TimeFilter, Uid};
use nepal_rpe::{parse_rpe, plan_rpe, EvalOptions, Pathway, RpePlan, Seeds};

use crate::backend::Backend;
use crate::error::{NepalError, Result};

fn plan_for(backend: &dyn Backend, rpe: &str) -> Result<RpePlan> {
    struct Est<'a>(&'a dyn Backend);
    impl nepal_rpe::CardinalityEstimator for Est<'_> {
        fn estimate(&self, _s: &nepal_schema::Schema, a: &nepal_rpe::BoundAtom) -> f64 {
            self.0.estimate(a)
        }
    }
    let ast = parse_rpe(rpe)?;
    Ok(plan_rpe(backend.schema(), &ast, &Est(backend))?)
}

/// The downward footprint of `element`: all `target_concept` nodes
/// reachable via 1..=`max_hops` `vertical_concept` edges (e.g. "all VMs
/// implementing that VNF, and all physical servers on which those VMs
/// run").
pub fn footprint(
    backend: &dyn Backend,
    element: Uid,
    vertical_concept: &str,
    target_concept: &str,
    max_hops: u32,
    filter: TimeFilter,
) -> Result<Vec<Uid>> {
    let rpe = format!("[{vertical_concept}()]{{1,{max_hops}}}->{target_concept}()");
    let plan = plan_for(backend, &rpe)?;
    let seeds = [element];
    let paths = backend.eval(&plan, filter, Seeds::Sources(&seeds), &EvalOptions::default())?;
    let mut out: Vec<Uid> = paths.iter().map(|p| p.target()).collect();
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Shared fate of `element`: all `affected_concept` nodes whose vertical
/// dependency chains pass through it — "to determine all the VMs, and
/// VNFs affected by the failure of a physical server, one computes the
/// vertical paths from that server … along the upper layers".
pub fn shared_fate(
    backend: &dyn Backend,
    element: Uid,
    vertical_concept: &str,
    affected_concept: &str,
    max_hops: u32,
    filter: TimeFilter,
) -> Result<Vec<Uid>> {
    let rpe = format!("{affected_concept}()->[{vertical_concept}()]{{1,{max_hops}}}");
    let plan = plan_for(backend, &rpe)?;
    let seeds = [element];
    let paths = backend.eval(&plan, filter, Seeds::Targets(&seeds), &EvalOptions::default())?;
    let mut out: Vec<Uid> = paths.iter().map(|p| p.source()).collect();
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// One hop of an induced path: the upper-layer endpoints and the
/// lower-layer paths realizing that hop.
#[derive(Debug, Clone)]
pub struct InducedSegment {
    /// Consecutive node pair of the upper-layer pathway.
    pub upper: (Uid, Uid),
    /// Lower-layer paths connecting the two footprints.
    pub lower_paths: Vec<Pathway>,
}

/// Induce a pathway onto a lower layer (§2.3.2): for each consecutive node
/// pair of `path`, drop both ends to the `target_concept` layer via
/// `vertical_concept` edges and connect the footprints with
/// 1..=`connect_hops` `connect_concept` edges.
///
/// "If a service path includes VNFs 1, 2, and 3, determining the
/// corresponding induced path at the physical layer will require to
/// calculate the physical servers over which the VNFs run, and the paths
/// between those physical servers."
#[allow(clippy::too_many_arguments)]
pub fn induced_paths(
    backend: &dyn Backend,
    path: &Pathway,
    vertical_concept: &str,
    target_concept: &str,
    vertical_hops: u32,
    connect_concept: &str,
    connect_hops: u32,
    filter: TimeFilter,
) -> Result<Vec<InducedSegment>> {
    let nodes: Vec<Uid> = path.nodes().collect();
    if nodes.len() < 2 {
        return Err(NepalError::Unsupported("induced_paths needs a pathway with at least two nodes".into()));
    }
    let connect_rpe = format!("{connect_concept}(){{1,{connect_hops}}}");
    let connect_plan = plan_for(backend, &connect_rpe)?;
    let mut out = Vec::new();
    for w in nodes.windows(2) {
        let (a, b) = (w[0], w[1]);
        let fa = footprint(backend, a, vertical_concept, target_concept, vertical_hops, filter)?;
        let fb = footprint(backend, b, vertical_concept, target_concept, vertical_hops, filter)?;
        let fb_set: std::collections::HashSet<Uid> = fb.iter().copied().collect();
        // Same-element footprints count as zero-hop connectivity.
        let mut lower_paths: Vec<Pathway> =
            fa.iter().filter(|u| fb_set.contains(u)).map(|&u| Pathway::node(u)).collect();
        let connected = backend.eval(&connect_plan, filter, Seeds::Sources(&fa), &EvalOptions::default())?;
        lower_paths.extend(connected.into_iter().filter(|p| fb_set.contains(&p.target())));
        out.push(InducedSegment { upper: (a, b), lower_paths });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NativeBackend;
    use nepal_graph::TemporalGraph;
    use nepal_schema::dsl::parse_schema;
    use nepal_schema::Value;
    use std::sync::Arc;

    /// Service path VNF1 → VNF2; VNF1 on host A, VNF2 on host B;
    /// A ↔ switch ↔ B.
    fn fixture() -> (NativeBackend, Pathway, Uid, Uid, Uid) {
        let s = Arc::new(
            parse_schema(
                r#"
                node VNF { vnf_id: int unique }
                node VM { vm_id: int unique }
                node Host { host_id: int unique }
                node Switch { switch_id: int unique }
                edge Vertical { }
                edge HostedOn : Vertical { }
                edge Flow { }
                edge Connects { }
                "#,
            )
            .unwrap(),
        );
        let c = |n: &str| s.class_by_name(n).unwrap();
        let mut g = TemporalGraph::new(s.clone());
        let vnf1 = g.insert_node(c("VNF"), vec![Value::Int(1)], 0).unwrap();
        let vnf2 = g.insert_node(c("VNF"), vec![Value::Int(2)], 0).unwrap();
        let vm1 = g.insert_node(c("VM"), vec![Value::Int(1)], 0).unwrap();
        let vm2 = g.insert_node(c("VM"), vec![Value::Int(2)], 0).unwrap();
        let ha = g.insert_node(c("Host"), vec![Value::Int(10)], 0).unwrap();
        let hb = g.insert_node(c("Host"), vec![Value::Int(11)], 0).unwrap();
        let sw = g.insert_node(c("Switch"), vec![Value::Int(20)], 0).unwrap();
        g.insert_edge(c("HostedOn"), vnf1, vm1, vec![], 0).unwrap();
        g.insert_edge(c("HostedOn"), vnf2, vm2, vec![], 0).unwrap();
        g.insert_edge(c("HostedOn"), vm1, ha, vec![], 0).unwrap();
        g.insert_edge(c("HostedOn"), vm2, hb, vec![], 0).unwrap();
        let flow = g.insert_edge(c("Flow"), vnf1, vnf2, vec![], 0).unwrap();
        g.insert_edge(c("Connects"), ha, sw, vec![], 0).unwrap();
        g.insert_edge(c("Connects"), sw, hb, vec![], 0).unwrap();
        let service_path = Pathway { elems: vec![vnf1, flow, vnf2], times: None };
        (NativeBackend::new(Arc::new(g)), service_path, ha, hb, vnf1)
    }

    #[test]
    fn footprint_reaches_the_physical_layer() {
        let (b, path, ha, _hb, _) = fixture();
        let f = footprint(&b, path.source(), "Vertical", "Host", 6, TimeFilter::Current).unwrap();
        assert_eq!(f, vec![ha]);
    }

    #[test]
    fn shared_fate_walks_upward() {
        let (b, _path, ha, _hb, vnf1) = fixture();
        let affected = shared_fate(&b, ha, "Vertical", "VNF", 6, TimeFilter::Current).unwrap();
        assert_eq!(affected, vec![vnf1]);
    }

    #[test]
    fn induced_path_connects_the_footprints() {
        let (b, path, ha, hb, _) = fixture();
        let segments = induced_paths(&b, &path, "Vertical", "Host", 6, "Connects", 4, TimeFilter::Current).unwrap();
        assert_eq!(segments.len(), 1);
        let seg = &segments[0];
        assert_eq!(seg.lower_paths.len(), 1);
        assert_eq!(seg.lower_paths[0].source(), ha);
        assert_eq!(seg.lower_paths[0].target(), hb);
        assert_eq!(seg.lower_paths[0].len_edges(), 2); // via the switch
    }

    #[test]
    fn single_node_pathway_rejected() {
        let (b, _p, ha, _, _) = fixture();
        let p = Pathway::node(ha);
        assert!(induced_paths(&b, &p, "Vertical", "Host", 6, "Connects", 4, TimeFilter::Current).is_err());
    }
}
