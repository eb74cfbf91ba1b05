//! Size tiers for the virtualized-service generator: the same ONAP-style
//! layered shape as [`generate_virtualized`], parameterized from the
//! paper's ~13k-entity evaluation graph up to million-entity scale for the
//! scaling sweep.
//!
//! Each tier also defines a deterministic churn schedule with two phases:
//! a *broad* phase touching a small daily fraction of the whole inventory
//! (the §6 maintenance model), then a *hot* phase hammering a small fixed
//! subset daily so their version chains grow well past the store's
//! keyframe interval — the shape that exercises delta encoding and
//! keyframed materialization.

use nepal_graph::TemporalGraph;
use nepal_schema::Ts;

use crate::churn::{alive_edges, apply_churn, updatable_entities, ChurnParams, ChurnStats};
use crate::virtualized::{generate_virtualized, VirtParams, VirtTopology};

const DAY: Ts = 86_400_000_000;

/// Generator size tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SizeTier {
    /// A few hundred entities — unit-test scale.
    Toy,
    /// The paper's evaluation scale (~2k nodes / ~11k edges).
    Small,
    /// ~100k entities.
    Medium,
    /// ~1.1M entities — the scaling-sweep headline tier.
    Large,
}

impl SizeTier {
    pub const ALL: [SizeTier; 4] = [SizeTier::Toy, SizeTier::Small, SizeTier::Medium, SizeTier::Large];

    pub fn name(self) -> &'static str {
        match self {
            SizeTier::Toy => "toy",
            SizeTier::Small => "small",
            SizeTier::Medium => "medium",
            SizeTier::Large => "large",
        }
    }

    pub fn from_name(s: &str) -> Option<SizeTier> {
        match s.to_ascii_lowercase().as_str() {
            "toy" => Some(SizeTier::Toy),
            "small" => Some(SizeTier::Small),
            "medium" => Some(SizeTier::Medium),
            "large" => Some(SizeTier::Large),
            _ => None,
        }
    }

    /// Generator parameters for this tier. The service-layer knobs drive
    /// the entity count (one container subtree is ~7 entities); the
    /// physical layer scales with the container population it hosts.
    pub fn params(self, seed: u64) -> VirtParams {
        let base = VirtParams::default();
        match self {
            SizeTier::Toy => VirtParams {
                services: 2,
                vnfs_per_service: 2,
                vfcs_per_vnf: 3,
                containers_per_vfc: 2,
                vnets_per_container: 1,
                hosts: 16,
                tor_switches: 4,
                spine_switches: 2,
                routers: 2,
                vnets: 12,
                vrouters: 4,
                racks: 4,
                datacenters: 1,
                seed,
                ..base
            },
            SizeTier::Small => VirtParams { seed, ..base },
            SizeTier::Medium => VirtParams {
                services: 40,
                vnfs_per_service: 6,
                vfcs_per_vnf: 12,
                containers_per_vfc: 5,
                vnets_per_container: 2,
                hosts: 600,
                tor_switches: 60,
                spine_switches: 12,
                routers: 6,
                vnets: 800,
                vrouters: 100,
                racks: 40,
                datacenters: 3,
                seed,
                ..base
            },
            SizeTier::Large => VirtParams {
                services: 150,
                vnfs_per_service: 10,
                vfcs_per_vnf: 20,
                containers_per_vfc: 5,
                vnets_per_container: 2,
                hosts: 3000,
                tor_switches: 300,
                spine_switches: 24,
                routers: 8,
                vnets: 4000,
                vrouters: 400,
                racks: 150,
                datacenters: 4,
                seed,
                ..base
            },
        }
    }

    /// Broad-phase churn: a small daily fraction of the whole inventory.
    pub fn broad_churn(self, seed: u64) -> ChurnParams {
        let (days, frac) = match self {
            SizeTier::Toy => (5, 0.05),
            SizeTier::Small => (10, 0.01),
            SizeTier::Medium => (15, 0.004),
            SizeTier::Large => (15, 0.002),
        };
        ChurnParams { days, daily_update_fraction: frac, daily_rewire_fraction: 0.0005, seed }
    }

    /// Hot-phase schedule: `(stride, days)` — every `stride`-th updatable
    /// entity is updated once per day for `days` days, growing chains past
    /// the keyframe interval (16) at every tier above toy.
    pub fn hot_churn(self) -> (usize, u32) {
        match self {
            SizeTier::Toy => (4, 20),
            SizeTier::Small => (32, 24),
            SizeTier::Medium => (64, 34),
            SizeTier::Large => (128, 40),
        }
    }
}

/// Outcome of [`generate_tier_churned`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TierChurnStats {
    pub broad: ChurnStats,
    pub hot: ChurnStats,
    /// Entities in the hot set (deep version chains).
    pub hot_entities: usize,
}

/// Generate the tier's topology with no history (current snapshot only).
pub fn generate_tier(tier: SizeTier, seed: u64) -> VirtTopology {
    generate_virtualized(tier.params(seed))
}

/// Generate the tier's topology and run its two churn phases, producing
/// the deep-chained history graph the scaling and storage sweeps measure.
pub fn generate_tier_churned(tier: SizeTier, seed: u64) -> (VirtTopology, TierChurnStats) {
    let mut topo = generate_tier(tier, seed);
    let stats = churn_tier(&mut topo.graph, tier, seed, topo.params.start_ts);
    (topo, stats)
}

/// Run the tier's churn phases against an already-generated graph.
pub fn churn_tier(g: &mut TemporalGraph, tier: SizeTier, seed: u64, start_ts: Ts) -> TierChurnStats {
    let mut stats = TierChurnStats::default();
    let updatable = updatable_entities(g, "status");
    let rewirable = alive_edges(g);
    let broad = tier.broad_churn(seed ^ 0xB04D);
    let broad_days = broad.days;
    stats.broad = apply_churn(g, &updatable, &rewirable, start_ts, &broad);

    // Hot phase: a fixed, deterministic subset updated every day. The
    // fraction is `1/stride`; daily_update_fraction 1.0 means each hot
    // entity takes ~1 update/day, so chain depth ≈ days.
    let (stride, days) = tier.hot_churn();
    let hot: Vec<_> = updatable.iter().copied().step_by(stride).collect();
    stats.hot_entities = hot.len();
    let hot_start = start_ts + (broad_days as Ts + 1) * DAY;
    stats.hot = apply_churn(
        g,
        &hot,
        &[],
        hot_start,
        &ChurnParams { days, daily_update_fraction: 1.0, daily_rewire_fraction: 0.0, seed: seed ^ 0x407 },
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepal_graph::KEYFRAME_INTERVAL;
    use nepal_schema::{EDGE, NODE};

    #[test]
    fn toy_tier_is_tiny_and_deterministic() {
        let a = generate_tier(SizeTier::Toy, 1);
        let b = generate_tier(SizeTier::Toy, 1);
        assert_eq!(a.graph.num_entities(), b.graph.num_entities());
        assert!(a.graph.num_entities() < 1500, "toy = {}", a.graph.num_entities());
    }

    #[test]
    fn small_tier_matches_paper_scale() {
        let topo = generate_tier(SizeTier::Small, 42);
        let nodes = topo.graph.alive_count(NODE);
        let edges = topo.graph.alive_count(EDGE);
        assert!((1800..=2300).contains(&nodes), "nodes = {nodes}");
        assert!((9500..=12500).contains(&edges), "edges = {edges}");
    }

    #[test]
    fn medium_tier_is_about_100k_entities() {
        let topo = generate_tier(SizeTier::Medium, 42);
        let n = topo.graph.num_entities();
        assert!((80_000..160_000).contains(&n), "medium = {n}");
    }

    #[test]
    fn churn_grows_chains_past_the_keyframe_interval() {
        let (topo, stats) = generate_tier_churned(SizeTier::Toy, 7);
        assert!(stats.hot_entities > 0);
        assert!(stats.broad.updates > 0);
        let g = &topo.graph;
        let deepest =
            (0..g.num_entities() as u64).map(|raw| g.versions(nepal_graph::Uid(raw)).len()).max().unwrap_or(0);
        assert!(deepest > KEYFRAME_INTERVAL, "hot chains must cross a keyframe boundary (deepest = {deepest})");
        // Deep chains actually delta-encode: some stored version is a delta.
        let report = g.memory_report();
        assert!(report.entity_bytes < report.entity_full_bytes, "delta encoding must save bytes");
        assert_eq!(g.memory_report(), g.memory_recount());
    }
}
