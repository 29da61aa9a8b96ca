//! The one deployment recipe: a topology, some client flows, a fault
//! schedule and a harvest of counters. Tests, applications, examples and
//! every experiment build through it.
//!
//! A [`Fleet`] owns the [`Simulation`] and the [`OverlayHandle`] built into
//! it. Clients are added in call order — [`Fleet::flow`] adds the receiver,
//! then the sender — so `ProcessId`s (and with them the per-process RNG
//! streams) follow from the order of the calls alone.

use son_netsim::link::PipeId;
use son_netsim::process::ProcessId;
use son_netsim::scenario::Campaign;
use son_netsim::sim::Simulation;
use son_netsim::time::{SimDuration, SimTime};
use son_netsim::underlay::Underlay;
use son_obs::snapshot::{SnapshotProducer, EPOCH_NS};
use son_obs::trace::TraceEvent;
use son_obs::watch::WatchEvent;
use son_obs::{Registry, TelemetrySnapshot};
use son_topo::{EdgeId, NodeId};

use crate::builder::{OverlayBuilder, OverlayHandle};
use crate::client::{ClientConfig, ClientFlow, ClientProcess, FlowRecv, Workload};
use crate::linkproto::LinkProtoStats;
use crate::node::{CtlFrames, OverlayNode};
use crate::{Destination, FlowSpec, GroupId, LinkService, OverlayAddr, Wire};

/// Receiver port of flow 0; [`Fleet::flow`] `k` listens on `RX_PORT + k`.
pub const RX_PORT: u16 = 70;
/// Sender port of flow 0; [`Fleet::flow`] `k` sends from `TX_PORT + k`.
pub const TX_PORT: u16 = 50;

/// Absorbs every daemon's metrics registry into one experiment-wide
/// registry, and folds in the simulator's pipe-level counters (labelled
/// `layer=pipe`) so cross-layer accounting lives in one place.
#[must_use]
pub fn gather_registry(sim: &Simulation<Wire>, overlay: &OverlayHandle) -> Registry {
    let mut reg = Registry::new();
    for &d in &overlay.daemons {
        let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
        reg.absorb(node.obs().registry());
    }
    for (name, value) in sim.counters().iter() {
        let id = reg.counter(name, &[("layer", "pipe")]);
        reg.add(id, value);
    }
    reg
}

/// Both directions of every provider pipe pair of one overlay link, in
/// provider order: `[a_to_b, b_to_a]` per provider.
#[must_use]
pub fn edge_pipes(overlay: &OverlayHandle, edge: EdgeId) -> Vec<PipeId> {
    let pairs = overlay.edge_pipes[&edge].iter();
    pairs.flat_map(|&(ab, ba)| [ab, ba]).collect()
}

/// Flow `k`'s two clients, in the order a deployment adds them: the
/// receiver on `to` at port `RX_PORT + k`, then the sender on `from` at
/// `TX_PORT + k` driving `workload` at it as local flow 1, each attached to
/// its node's `daemon`.
pub fn flow_clients(
    k: usize,
    (from, to): (NodeId, NodeId),
    spec: FlowSpec,
    workload: Workload,
    daemon: impl Fn(NodeId) -> ProcessId,
) -> [(NodeId, ClientConfig); 2] {
    let (rx_port, tx_port) = (RX_PORT + k as u16, TX_PORT + k as u16);
    let dst = Destination::Unicast(OverlayAddr::new(to, rx_port));
    let flows = vec![ClientFlow::new(dst, spec, workload)];
    [(to, rx_port, vec![]), (from, tx_port, flows)].map(|(node, port, flows)| {
        let (daemon, joins) = (daemon(node), vec![]);
        let config = ClientConfig {
            daemon,
            port,
            joins,
            flows,
        };
        (node, config)
    })
}

/// A built deployment plus the clients driving it.
#[derive(Debug)]
pub struct Fleet {
    /// The simulation everything runs in.
    pub sim: Simulation<Wire>,
    /// Handles to the daemons and pipes.
    pub overlay: OverlayHandle,
    /// `(sender, receiver)` of every [`Fleet::flow`], in call order.
    flows: Vec<(ProcessId, ProcessId)>,
    /// What [`Fleet::recv`] hands out for a flow that delivered nothing.
    no_recv: FlowRecv,
}

impl Fleet {
    /// Builds `overlay` into a fresh simulation seeded with `seed`. A
    /// builder that places its nodes in cities needs the `underlay` those
    /// cities belong to.
    #[must_use]
    pub fn new(seed: u64, underlay: Option<Underlay>, overlay: OverlayBuilder) -> Fleet {
        let mut sim: Simulation<Wire> = Simulation::new(seed);
        if let Some(underlay) = underlay {
            sim.set_underlay(underlay);
        }
        let overlay = overlay.build(&mut sim);
        Fleet {
            sim,
            overlay,
            flows: Vec::new(),
            no_recv: FlowRecv::default(),
        }
    }

    /// Attaches one client process to `node`'s daemon.
    pub fn client(
        &mut self,
        node: NodeId,
        port: u16,
        joins: Vec<GroupId>,
        flows: Vec<ClientFlow>,
    ) -> ProcessId {
        let daemon = self.overlay.daemon(node);
        self.sim.add_process(ClientProcess::new(ClientConfig {
            daemon,
            port,
            joins,
            flows,
        }))
    }

    /// Adds flow `k` (its return value, counting from 0): its
    /// [`flow_clients`], receiver then sender.
    pub fn flow(&mut self, from: NodeId, to: NodeId, spec: FlowSpec, workload: Workload) -> usize {
        let k = self.flows.len();
        let overlay = &self.overlay;
        let [rx, tx] = flow_clients(k, (from, to), spec, workload, |n| overlay.daemon(n));
        let [rx, tx] = [rx, tx].map(|(_, config)| self.sim.add_process(ClientProcess::new(config)));
        self.flows.push((tx, rx));
        k
    }

    /// Schedules `campaign`'s events.
    pub fn campaign(&mut self, campaign: &Campaign) {
        campaign.schedule_into(&mut self.sim);
    }

    /// Takes `pipes` down at `at` and back up `outage` later
    /// (`SimDuration::MAX`: never).
    pub fn pipe_outage(&mut self, pipes: &[PipeId], at: SimTime, outage: SimDuration) {
        let mut campaign = Campaign::new("outage", 0);
        campaign.pipe_outage_at(pipes, at, outage);
        self.campaign(&campaign);
    }

    /// [`Fleet::pipe_outage`] on every provider of one overlay link.
    pub fn edge_outage(&mut self, edge: EdgeId, at: SimTime, outage: SimDuration) {
        self.pipe_outage(&edge_pipes(&self.overlay, edge), at, outage);
    }

    /// Runs to `until`.
    pub fn run(&mut self, until: SimTime) {
        self.sim.run_until(until);
    }

    /// Runs to `until`, pausing every `cadence` of virtual time for
    /// `on_tick(sim, overlay, now, wall_ns)`
    /// (see [`Simulation::run_with_cadence`]).
    pub fn run_with_cadence(
        &mut self,
        until: SimTime,
        cadence: SimDuration,
        mut on_tick: impl FnMut(&mut Simulation<Wire>, &OverlayHandle, SimTime, u64),
    ) {
        let overlay = &self.overlay;
        self.sim.run_with_cadence(until, cadence, |sim, at, wall| {
            on_tick(sim, overlay, at, wall);
        });
    }

    /// Runs to `until` with the telemetry plane on: every [`EPOCH_NS`] of
    /// virtual time, each daemon renders one snapshot exactly as a
    /// `son-node` daemon's emitter would, stamped with the host clock at the
    /// pause ([`Simulation::wall_ns`]), and `on_snapshot` takes it (daemon
    /// order within an epoch). Observation only: the fingerprint equals a
    /// plain [`Fleet::run`]'s.
    pub fn run_with_telemetry(
        &mut self,
        until: SimTime,
        mut on_snapshot: impl FnMut(TelemetrySnapshot),
    ) {
        let mut producers: Vec<SnapshotProducer> = (0..self.overlay.daemons.len())
            .map(|i| SnapshotProducer::new(i as u32))
            .collect();
        let epoch = SimDuration::from_nanos(EPOCH_NS);
        self.run_with_cadence(until, epoch, |sim, overlay, at, wall| {
            for (&d, producer) in overlay.daemons.iter().zip(&mut producers) {
                let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
                let health = node.telemetry_health();
                on_snapshot(producer.produce(at.as_nanos(), wall, node.obs().registry(), &health));
            }
        });
    }

    /// One daemon.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &OverlayNode {
        self.sim
            .proc_ref(self.overlay.daemon(node))
            .expect("daemon")
    }

    /// One daemon, mutably (to install an adversarial behavior).
    pub fn node_mut(&mut self, node: NodeId) -> &mut OverlayNode {
        self.sim
            .proc_mut(self.overlay.daemon(node))
            .expect("daemon")
    }

    /// Every daemon, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = &OverlayNode> {
        self.overlay.topology.nodes().map(|n| self.node(n))
    }

    /// One client added by [`Fleet::client`].
    #[must_use]
    pub fn client_ref(&self, client: ProcessId) -> &ClientProcess {
        self.sim.proc_ref(client).expect("client")
    }

    /// Data packets forwarded onto links, summed over daemons.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.nodes().map(|n| n.metrics().forwarded).sum()
    }

    /// One named daemon counter (`reroutes`, `provider_switches`), summed
    /// over daemons.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.nodes().map(|n| n.metrics().counters.get(name)).sum()
    }

    /// Topology versions installed, summed over daemons.
    #[must_use]
    pub fn reroutes(&self) -> u64 {
        self.counter("reroutes")
    }

    /// Control frames produced, by kind, summed over daemons.
    #[must_use]
    pub fn ctl_frames(&self) -> CtlFrames {
        let mut total = CtlFrames::default();
        for sent in self.nodes().map(OverlayNode::ctl_frames) {
            total.lsa += sent.lsa;
            total.hello += sent.hello;
            total.hello_ack += sent.hello_ack;
            total.other += sent.other;
        }
        total
    }

    /// Packets flow `k`'s sender emitted.
    #[must_use]
    pub fn sent(&self, k: usize) -> u64 {
        self.client_ref(self.flows[k].0).sent(1)
    }

    /// Flow `k`'s receive log (empty if nothing arrived).
    ///
    /// # Panics
    ///
    /// Panics if the receiver logged more than one flow.
    #[must_use]
    pub fn recv(&self, k: usize) -> &FlowRecv {
        let log = &self.client_ref(self.flows[k].1).recv;
        assert!(log.len() <= 1, "flow {k}: more than one received flow");
        log.values().next().unwrap_or(&self.no_recv)
    }

    /// Packets received, summed over every flow.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        (0..self.flows.len()).map(|k| self.recv(k).received).sum()
    }

    /// Frames handed to overlay links, delivered or dropped.
    #[must_use]
    pub fn pipe_sent(&self) -> u64 {
        let counters = self.sim.counters();
        let dropped: u64 = son_obs::DropClass::ALL
            .iter()
            .filter(|class| class.is_pipe())
            .map(|class| counters.get(class.label()))
            .sum();
        counters.get("pipe.delivered") + dropped
    }

    /// [`gather_registry`] over this fleet.
    #[must_use]
    pub fn registry(&self) -> Registry {
        gather_registry(&self.sim, &self.overlay)
    }

    /// Every daemon's trace ring merged into one stream, sorted by
    /// `(at_ns, trace_id, hop, node)` so equal-time events from different
    /// daemons land in a deterministic order.
    #[must_use]
    pub fn traces(&self) -> Vec<TraceEvent> {
        let rings = self.nodes().map(|n| n.obs().traces().events().copied());
        let mut events: Vec<TraceEvent> = rings.flatten().collect();
        events.sort_by_key(|e| (e.at_ns, e.trace_id, e.hop, e.node));
        events
    }

    /// Every daemon's watchdog audit ring merged into one stream, sorted by
    /// `(at_ns, node, link)`.
    #[must_use]
    pub fn watch_events(&self) -> Vec<WatchEvent> {
        let rings = self
            .nodes()
            .map(|n| n.obs().watch_events().events().copied());
        let mut events: Vec<WatchEvent> = rings.flatten().collect();
        events.sort_by_key(|e| (e.at_ns, e.node, e.link));
        events
    }

    /// Link-protocol counters for one link service, summed over daemons.
    #[must_use]
    pub fn wire_stats(&self, service: LinkService) -> LinkProtoStats {
        self.nodes().map(|n| n.service_stats(service)).sum()
    }
}
