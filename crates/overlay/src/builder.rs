//! Deployment wiring: turn an overlay topology (plus, optionally, a
//! multi-ISP underlay placement) into daemons and pipes inside a
//! [`Simulation`].
//!
//! Two deployment styles are supported:
//!
//! * **Abstract links** — each overlay link becomes a pipe pair with a fixed
//!   latency taken from the topology's edge weight (plus the per-hop
//!   processing delay) and a loss model. Used by the
//!   protocol-focused experiments (Fig. 3, Fig. 4, fairness, intrusion).
//! * **Underlay placement** — overlay nodes are placed in cities of a
//!   [`Scenario`](son_netsim::scenario::Scenario) underlay, and each overlay
//!   link gets one pipe pair per shared provider, bound to real routes so
//!   BGP convergence, blackholes, and multihoming failover all apply
//!   (Fig. 1 / the rerouting experiment).

use std::collections::HashMap;

use son_netsim::link::{PipeBinding, PipeConfig, PipeId};
use son_netsim::loss::LossConfig;
use son_netsim::process::ProcessId;
use son_netsim::sim::Simulation;
use son_netsim::time::SimDuration;
use son_netsim::underlay::{Attachment, CityId};
use son_topo::{EdgeId, Graph, NodeId};

use crate::auth::KeyRegistry;
use crate::node::{NodeConfig, OverlayNode};
use crate::packet::Wire;

/// Per-hop daemon processing latency folded into each overlay link.
///
/// §II-D: "the computational costs to traverse up and down the network stack
/// at overlay nodes on today's commodity computers amount to less than 1 ms
/// additional latency per intermediate overlay node"; we charge 200 µs.
pub const HOP_PROCESSING: SimDuration = SimDuration::from_micros(200);

/// The deployment master secret every daemon's authentication key derives
/// from, in the simulator and in `son-node` alike.
pub const MASTER_SECRET: u64 = 0x5eed;

/// Builds an overlay deployment inside a simulation.
#[derive(Debug)]
pub struct OverlayBuilder {
    topology: Graph,
    config: NodeConfig,
    master_secret: u64,
    default_loss: LossConfig,
    per_edge_loss: HashMap<EdgeId, LossConfig>,
    /// Overlay node -> city, for underlay-bound deployments.
    placement: Option<Vec<CityId>>,
}

/// Handles to a built deployment.
#[derive(Debug)]
pub struct OverlayHandle {
    /// Daemon process ids, indexed by overlay node id.
    pub daemons: Vec<ProcessId>,
    /// Pipe pairs per overlay edge: one `(a_to_b, b_to_a)` per provider.
    pub edge_pipes: HashMap<EdgeId, Vec<(PipeId, PipeId)>>,
    /// The overlay topology the deployment realizes.
    pub topology: Graph,
}

impl OverlayHandle {
    /// The daemon process of an overlay node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[must_use]
    pub fn daemon(&self, node: NodeId) -> ProcessId {
        self.daemons[node.0]
    }
}

impl OverlayBuilder {
    /// Starts a builder over an overlay topology whose edge weights are
    /// nominal one-way latencies in milliseconds.
    #[must_use]
    pub fn new(topology: Graph) -> Self {
        OverlayBuilder {
            topology,
            config: NodeConfig::default(),
            master_secret: MASTER_SECRET,
            default_loss: LossConfig::Perfect,
            per_edge_loss: HashMap::new(),
            placement: None,
        }
    }

    /// Sets the daemon configuration used by every node.
    #[must_use]
    pub fn node_config(mut self, config: NodeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the deployment's master authentication secret.
    #[must_use]
    pub fn master_secret(mut self, secret: u64) -> Self {
        self.master_secret = secret;
        self
    }

    /// Sets the loss model applied to every overlay link (per direction).
    #[must_use]
    pub fn default_loss(mut self, loss: LossConfig) -> Self {
        self.default_loss = loss;
        self
    }

    /// Overrides the loss model of one overlay link.
    #[must_use]
    pub fn edge_loss(mut self, edge: EdgeId, loss: LossConfig) -> Self {
        self.per_edge_loss.insert(edge, loss);
        self
    }

    /// Places overlay node `i` in `cities[i]` of the simulation's underlay;
    /// links then bind to real multi-provider routes. The underlay must be
    /// installed on the simulation before [`OverlayBuilder::build`].
    ///
    /// # Panics
    ///
    /// `build` panics if the placement length differs from the node count.
    #[must_use]
    pub fn place_in_cities(mut self, cities: Vec<CityId>) -> Self {
        self.placement = Some(cities);
        self
    }

    /// The key registry every daemon of the deployment shares.
    #[must_use]
    pub fn keys(&self) -> KeyRegistry {
        KeyRegistry::new(self.topology.node_count(), self.master_secret)
    }

    /// Node `me`'s daemon over `keys` (from [`OverlayBuilder::keys`]), its
    /// links not wired yet: what [`OverlayBuilder::build`] adds for each
    /// node, and what `son-node` runs.
    #[must_use]
    pub fn daemon(&self, me: NodeId, keys: KeyRegistry) -> OverlayNode {
        OverlayNode::new(me, self.topology.clone(), keys, self.config.clone())
    }

    /// The latency of abstract link `e`: its weight plus [`HOP_PROCESSING`].
    #[must_use]
    pub fn link_latency(&self, e: EdgeId) -> SimDuration {
        SimDuration::from_millis_f64(self.topology.weight(e)) + HOP_PROCESSING
    }

    /// The loss model of link `e`, each direction.
    #[must_use]
    pub fn link_loss(&self, e: EdgeId) -> &LossConfig {
        self.per_edge_loss.get(&e).unwrap_or(&self.default_loss)
    }

    /// Builds daemons and pipes into `sim` and returns the handles.
    ///
    /// # Panics
    ///
    /// Panics if a placement is set but its length mismatches the topology,
    /// or if a placed link's endpoints share no provider.
    #[must_use]
    pub fn build(self, sim: &mut Simulation<Wire>) -> OverlayHandle {
        let n = self.topology.node_count();
        if let Some(p) = &self.placement {
            assert_eq!(p.len(), n, "placement must cover every overlay node");
        }
        let keys = self.keys();

        // Phase 1: daemons (so pipes have endpoints).
        let daemons: Vec<ProcessId> = (0..n)
            .map(|i| sim.add_process(self.daemon(NodeId(i), keys.clone())))
            .collect();

        // Phase 2: pipes per edge (one pair per provider).
        let mut edge_pipes: HashMap<EdgeId, Vec<(PipeId, PipeId)>> = HashMap::new();
        for e in self.topology.edges() {
            let (a, b) = self.topology.endpoints(e);
            let loss = self.link_loss(e).clone();
            let mut pairs = Vec::new();
            match &self.placement {
                None => {
                    let config = PipeConfig::with_latency(self.link_latency(e)).loss(loss);
                    pairs.push(sim.connect(daemons[a.0], daemons[b.0], config));
                }
                Some(cities) => {
                    let (ca, cb) = (cities[a.0], cities[b.0]);
                    // Prefer on-net bindings (one per shared provider); if
                    // the endpoints share no provider, fall back to off-net
                    // pairs crossing a peering point — "any combination of
                    // the available providers may be used" (§II-A).
                    let attachments: Vec<Attachment> = {
                        let ul = sim.underlay().expect("placement requires an underlay");
                        let pa = ul.providers_at(ca);
                        let pb = ul.providers_at(cb);
                        let shared: Vec<_> =
                            pa.iter().copied().filter(|p| pb.contains(p)).collect();
                        if shared.is_empty() {
                            assert!(
                                !pa.is_empty() && !pb.is_empty(),
                                "overlay link {e} endpoint has no provider at all"
                            );
                            pa.iter()
                                .flat_map(|&src_isp| {
                                    pb.iter().map(move |&dst_isp| Attachment::OffNet {
                                        src_isp,
                                        dst_isp,
                                    })
                                })
                                .collect()
                        } else {
                            shared.into_iter().map(Attachment::OnNet).collect()
                        }
                    };
                    for attachment in attachments {
                        let config = PipeConfig::with_latency(HOP_PROCESSING)
                            .loss(loss.clone())
                            .bound(PipeBinding {
                                attachment,
                                from: ca,
                                to: cb,
                            });
                        pairs.push(sim.connect(daemons[a.0], daemons[b.0], config));
                    }
                }
            }
            edge_pipes.insert(e, pairs);
        }

        // Phase 3: wire each daemon's link table, each pipe pair seen from
        // its own end.
        for (i, &daemon) in daemons.iter().enumerate() {
            let me = NodeId(i);
            let node = sim.proc_mut::<OverlayNode>(daemon).expect("daemon exists");
            node.wire_topology(|e, _| {
                let (a, _) = self.topology.endpoints(e);
                let outward = |&(ab, ba)| if a == me { (ab, ba) } else { (ba, ab) };
                edge_pipes[&e].iter().map(outward).collect()
            });
        }

        OverlayHandle {
            daemons,
            edge_pipes,
            topology: self.topology,
        }
    }
}

/// Convenience: a linear chain overlay of `n` nodes with `hop_ms` links —
/// the Fig. 3 topology.
#[must_use]
pub fn chain_topology(n: usize, hop_ms: f64) -> Graph {
    assert!(n >= 2, "a chain needs at least two nodes");
    let mut g = Graph::new(n);
    for i in 0..n - 1 {
        g.add_edge(NodeId(i), NodeId(i + 1), hop_ms);
    }
    g
}

/// Longest overlay link the continental designer accepts. "Overlay links
/// are designed to be short (on the order of 10ms)" (§II-A); transcontinental
/// express fibers are left to the underlay.
pub const MAX_OVERLAY_LINK_MS: f64 = 14.0;

/// Convenience: the overlay topology used on the continental-US scenario —
/// one overlay node per city, links along the short fiber-adjacent city
/// pairs (≤ [`MAX_OVERLAY_LINK_MS`]), with latencies from the providers'
/// routes.
#[must_use]
pub fn continental_overlay(scenario: &son_netsim::scenario::Scenario) -> (Graph, Vec<CityId>) {
    city_overlay(scenario, MAX_OVERLAY_LINK_MS)
}

/// Longest overlay link the global designer accepts: transoceanic cable
/// hops are unavoidable, so the bound is looser than the continental one.
pub const MAX_GLOBAL_LINK_MS: f64 = 45.0;

/// Convenience: a world-scale overlay over the
/// [`global_20`](son_netsim::scenario::global_20) scenario — one overlay
/// node per city, links along cable-adjacent city pairs.
#[must_use]
pub fn global_overlay(scenario: &son_netsim::scenario::Scenario) -> (Graph, Vec<CityId>) {
    city_overlay(scenario, MAX_GLOBAL_LINK_MS)
}

/// One overlay node per city of `scenario`, and an overlay link wherever
/// *any* provider has a direct fiber between two cities and the hop is no
/// longer than `max_link_ms`: such city pairs are close, and routing
/// between them is predictable (§II-A).
fn city_overlay(
    scenario: &son_netsim::scenario::Scenario,
    max_link_ms: f64,
) -> (Graph, Vec<CityId>) {
    let cities = scenario.cities.clone();
    let mut g = Graph::new(cities.len());
    let mut ul = scenario.underlay.clone();
    let mut added = std::collections::HashSet::new();
    for (isp_idx, &isp) in scenario.isps.iter().enumerate() {
        for &e in &scenario.edges_by_isp[isp_idx] {
            let (ca, cb) = ul.edge_cities(e);
            let (a, b) = (
                NodeId(cities.iter().position(|&c| c == ca).expect("city")),
                NodeId(cities.iter().position(|&c| c == cb).expect("city")),
            );
            let key = (a.0.min(b.0), a.0.max(b.0));
            if added.contains(&key) {
                continue;
            }
            let latency = ul
                .resolve(
                    son_netsim::time::SimTime::ZERO,
                    Attachment::OnNet(isp),
                    ca,
                    cb,
                )
                .map(|p| p.latency.as_millis_f64())
                .unwrap_or(10.0);
            if latency > max_link_ms {
                continue;
            }
            added.insert(key);
            g.add_edge(a, b, latency.max(0.1));
        }
    }
    (g, cities)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_overlay_is_connected() {
        let sc = son_netsim::scenario::global_20(SimDuration::from_secs(40));
        let (topo, cities) = global_overlay(&sc);
        assert_eq!(cities.len(), 20);
        let sp = son_topo::dijkstra(&topo, NodeId(0));
        for v in topo.nodes() {
            assert!(sp.reaches(v), "{v} unreachable in global overlay");
        }
        for e in topo.edges() {
            assert!(topo.weight(e) <= MAX_GLOBAL_LINK_MS);
        }
    }

    #[test]
    fn chain_topology_shape() {
        let g = chain_topology(6, 10.0);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.weight(EdgeId(0)), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn chain_too_short_panics() {
        let _ = chain_topology(1, 10.0);
    }

    #[test]
    fn build_abstract_deployment() {
        let mut sim = Simulation::new(1);
        let handle = OverlayBuilder::new(chain_topology(3, 10.0)).build(&mut sim);
        assert_eq!(handle.daemons.len(), 3);
        assert_eq!(handle.edge_pipes.len(), 2);
        // One provider pair per edge in abstract mode.
        assert_eq!(handle.edge_pipes[&EdgeId(0)].len(), 1);
    }

    #[test]
    fn build_placed_deployment_multihomes() {
        let sc = son_netsim::scenario::continental_us(SimDuration::from_secs(40));
        let (topo, cities) = continental_overlay(&sc);
        let mut sim = Simulation::new(1);
        sim.set_underlay(sc.underlay);
        let handle = OverlayBuilder::new(topo.clone())
            .place_in_cities(cities)
            .build(&mut sim);
        // Every city hosts all three providers, so every link has 3 pairs.
        for e in topo.edges() {
            assert_eq!(
                handle.edge_pipes[&e].len(),
                3,
                "edge {e} should be triple-homed"
            );
        }
    }

    #[test]
    fn continental_overlay_is_connected_and_reasonable() {
        let sc = son_netsim::scenario::continental_us(SimDuration::from_secs(40));
        let (topo, _) = continental_overlay(&sc);
        assert_eq!(topo.node_count(), 12);
        assert!(topo.edge_count() >= 20, "union of provider fibers");
        // Connected: every node reachable from node 0.
        let sp = son_topo::dijkstra(&topo, NodeId(0));
        for v in topo.nodes() {
            assert!(sp.reaches(v));
        }
        // Links are short (§II-A: ~10ms apart).
        for e in topo.edges() {
            assert!(
                topo.weight(e) <= MAX_OVERLAY_LINK_MS,
                "overlay link {e} too long: {}",
                topo.weight(e)
            );
        }
    }
}
