//! The link level: provider selection, the physical send path, and the
//! per-service protocol instances on each incident link.
//!
//! Protocols themselves live in [`crate::linkproto`]; this module is the
//! daemon side — picking the provider pipe a wire goes out on, granting
//! IT-Reliable consumption credits, and exposing per-protocol statistics.

use son_netsim::sim::Ctx;
use son_obs::DropClass;

use crate::addr::FlowKey;
use crate::linkproto::{LinkProto, LinkProtoStats};
use crate::packet::Wire;
use crate::service::LinkService;

use super::OverlayNode;

impl OverlayNode {
    /// Sends a wire on `link`, on `provider` if given, else the active
    /// provider. A link wired with no provider pipes at all cannot carry
    /// anything; the wire is counted as a [`DropClass::NoProvider`] drop
    /// instead of panicking on the empty pipe list.
    pub(super) fn send_on_link(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        link: usize,
        provider: Option<usize>,
        wire: &Wire,
    ) {
        let port = &self.links[link];
        if port.out_pipes.is_empty() {
            self.obs.drop(DropClass::NoProvider);
            return;
        }
        let idx = provider
            .unwrap_or(port.active_provider)
            .min(port.out_pipes.len() - 1);
        let pipe = port.out_pipes[idx];
        // Every link frame passes through the wire codec, even in the sim:
        // what the neighbor receives is what it would have decoded off a
        // UDP datagram, so sim and real deployments stay byte-compatible.
        match crate::wire::recode(wire) {
            Ok(frame) => ctx.send(pipe, frame),
            Err(e) => panic!("link frames round-trip the wire codec losslessly: {e}"),
        }
    }

    /// Grants an IT-Reliable consumption credit to the neighbor on `link`.
    pub(super) fn grant_consumed(&mut self, ctx: &mut Ctx<'_, Wire>, link: usize, flow: FlowKey) {
        let slot = LinkService::ItReliable.slot();
        self.run_link_proto(ctx, link, slot, flow, <dyn LinkProto>::on_consumed);
    }

    /// Link protocol statistics for `(local link index, service)`; zeros
    /// while the slot is unbuilt, as a fresh instance would report.
    #[must_use]
    pub fn link_stats(&self, link: usize, service: LinkService) -> LinkProtoStats {
        self.links[link].protos[service.slot()]
            .as_ref()
            .map_or_else(LinkProtoStats::default, |p| p.stats())
    }

    /// Aggregated protocol statistics for a service across all links.
    #[must_use]
    pub fn service_stats(&self, service: LinkService) -> LinkProtoStats {
        (0..self.links.len())
            .map(|link| self.link_stats(link, service))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use son_netsim::sim::Simulation;
    use son_netsim::time::SimTime;
    use son_topo::{EdgeId, Graph, NodeId};

    use crate::auth::KeyRegistry;
    use crate::node::{NodeConfig, OverlayNode};
    use crate::packet::Wire;

    /// A link wired with zero provider pipes used to panic with an index
    /// underflow (`len() - 1`) the first time anything was sent on it —
    /// which the startup hello flood does immediately. Now it is a counted
    /// `drop.no_provider`.
    #[test]
    fn zero_provider_link_drops_instead_of_panicking() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 10.0);
        let mut sim: Simulation<Wire> = Simulation::new(1);
        let mut node = OverlayNode::new(
            NodeId(0),
            g.clone(),
            KeyRegistry::new(2, 0xfeed),
            NodeConfig::default(),
        );
        // Mis-wired: the link exists but has no provider pipes.
        node.wire_links(vec![(EdgeId(0), NodeId(1), vec![], 10.0)]);
        let id = sim.add_process(node);
        sim.run_until(SimTime::from_millis(500));
        let node = sim.proc_ref::<OverlayNode>(id).unwrap();
        let dropped = node
            .obs()
            .registry()
            .counter_named("drop.no_provider", &[("node", "0")])
            .unwrap_or(0);
        assert!(
            dropped > 0,
            "hellos on the pipeless link must be counted, not panic"
        );
    }
}
