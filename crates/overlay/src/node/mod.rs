//! The overlay node daemon: Fig. 2 assembled as the paper's three levels.
//!
//! An [`OverlayNode`] "acts as both server and router: as a server it
//! accepts and serves client connections, while as a router it performs
//! network functions such as forwarding packets destined for other overlay
//! nodes". It runs as a single [`Process`](son_netsim::process::Process) in
//! the simulator and is decomposed into the paper's §III architecture:
//!
//! - `session_level`: the session interface — client operations, local
//!   delivery targets, backpressure events to clients;
//! - `routing_level`: the routing level — per-packet forwarding decisions
//!   over the shared connectivity/group state, ingress packet construction,
//!   adversarial transit behaviour;
//! - `link_level`: the link level — provider selection and the per-service
//!   protocol instances on each incident link;
//! - `dispatch`: the glue — every level emits typed actions, each batch is
//!   applied depth-first by the loop for its type, and every daemon timer
//!   is a typed [`TimerKey`].
//!
//! The levels coordinate through shared state held here: the connectivity
//! monitor, the group table, the forwarding tables — and, per flow, one
//! [`FlowTable`] entry (spec, roles, upstream link, cached source-route
//! stamp, pause state, per-flow counters) that all three levels consult
//! instead of carrying their own side maps.

mod dispatch;
mod link_level;
mod routing_level;
mod session_level;
mod timer;
mod watch_level;

pub use timer::TimerKey;

use std::collections::HashMap;

use son_netsim::hash::MintedMap;
use son_netsim::link::PipeId;
use son_netsim::time::SimDuration;
use son_topo::{EdgeId, Graph, NodeId};

use crate::addr::{GroupId, VirtualPort};
use crate::adversary::Behavior;
use crate::auth::KeyRegistry;
use crate::dedup::DedupTable;
use crate::flow::FlowTable;
use crate::linkproto::{
    BestEffortLink, FecLink, FifoLink, ItPriorityLink, ItReliableLink, LinkProto, RealtimeLink,
    ReliableLink,
};
use crate::obs::NodeObs;
use crate::packet::DataPacket;
use crate::routing::Forwarding;
use crate::service::{FecParams, RealtimeParams, SERVICE_SLOTS};
use crate::session::SessionTable;
use crate::state::connectivity::{ConnectivityConfig, ConnectivityMonitor};
use crate::state::groups::GroupTable;
use crate::state::membership::MembershipTable;
use crate::watch::{LinkWatch, WatchState};

use dispatch::ActionBufs;

/// Local IPC latency between a client and its colocated daemon.
pub const CLIENT_IPC_DELAY: SimDuration = SimDuration::from_micros(50);

/// Lower bound on the Reliable Data Link RTO.
const RTO_MIN: SimDuration = SimDuration::from_millis(2);

/// Shared buffer bound for the FIFO baseline, in packets.
const FIFO_CAP: usize = 64;

/// Static configuration of an overlay node daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Connectivity-monitor settings (hello cadence, down thresholds).
    pub connectivity: ConnectivityConfig,
    /// Reliable Data Link RTO as a multiple of the link's nominal latency.
    pub rto_factor: f64,
    /// Egress pacing rate for the fair schedulers, bits/second
    /// (`None` disables pacing — fine when fairness is not under test).
    pub it_rate_bps: Option<u64>,
    /// Per-source buffer bound for IT-Priority, in packets.
    pub it_source_cap: usize,
    /// Verify per-packet authentication tags and drop failures.
    pub auth_enabled: bool,
    /// Initial TTL stamped on packets at the ingress.
    pub ttl: u8,
    /// Distributed-tracing sampling rate at this ingress: 1-in-`trace_sample`
    /// packets get a [`son_obs::trace::TraceContext`] stamped in the header
    /// (0 disables tracing). Transit nodes honor whatever the ingress
    /// decided, so only ingress nodes of interest need this set.
    pub trace_sample: u32,
    /// Enable the hot-path wall-clock profiler ([`son_obs::PerfRegistry`]):
    /// hierarchical self/total-time spans around dispatch, routing
    /// recomputation, link protocols, flow-table admission, and watchdog
    /// epochs. Off by default; when off every instrumented site costs one
    /// flag load.
    pub perf: bool,
    /// The anomaly watchdog (`son-watch`): online detection of recovery
    /// overruns, retransmit storms, reroute flaps, silent blackholes, and
    /// queue growth, remediated by link suspension, LSA flap damping, and
    /// low-priority shedding, with the thresholds in [`crate::watch`].
    /// Off (the default) disables it entirely.
    pub watch: bool,
    /// Dynamic membership: the join/leave protocol plus the self-stabilizing
    /// 500 ms maintenance epoch (liveness derivation, departed-state
    /// eviction). Off (the default) keeps membership static — existing
    /// deployments and their seeded event streams are untouched.
    pub membership: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            connectivity: ConnectivityConfig::default(),
            rto_factor: 3.0,
            it_rate_bps: None,
            it_source_cap: 64,
            auth_enabled: false,
            ttl: 32,
            trace_sample: 0,
            perf: false,
            watch: false,
            membership: false,
        }
    }
}

/// Control-plane frames a daemon has produced for its links, by kind: the
/// mix behind the `pipe.sent` total (the rest is data and link-protocol
/// acknowledgments). Counted where control messages are sent and flooded,
/// so the data path does not pay for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtlFrames {
    /// Link-state advertisements, one per neighbor a flood reached.
    pub lsa: u64,
    /// Hello probes.
    pub hello: u64,
    /// Hello acknowledgments.
    pub hello_ack: u64,
    /// Everything else: group and membership updates, joins, receipts.
    pub other: u64,
}

/// One incident overlay link as seen by the daemon: the neighbor, one pipe
/// pair per provider, and the per-service protocol instances.
struct LinkPort {
    edge: EdgeId,
    neighbor: NodeId,
    /// Outgoing pipes, one per provider binding.
    out_pipes: Vec<PipeId>,
    active_provider: usize,
    /// One protocol instance per service slot, built by [`make_proto`] the
    /// first time the slot sends, receives or fires a timer: most links of
    /// a large overlay carry one service or none.
    protos: [Option<Box<dyn LinkProto>>; SERVICE_SLOTS],
    /// Retransmission timeout of the ARQ protocols on this link.
    rto: SimDuration,
}

impl LinkPort {
    /// The protocol instances built so far.
    fn built(&self) -> impl Iterator<Item = &dyn LinkProto> {
        self.protos.iter().flatten().map(AsRef::as_ref)
    }
}

/// A fresh protocol instance for service `slot` on a link with
/// retransmission timeout `rto`.
fn make_proto(slot: usize, rto: SimDuration, config: &NodeConfig) -> Box<dyn LinkProto> {
    match slot {
        0 => Box::new(BestEffortLink::new()),
        1 => Box::new(ReliableLink::new(rto)),
        // A flow's own realtime and FEC parameters replace these defaults on
        // its first packet.
        2 => Box::new(RealtimeLink::new(RealtimeParams::live_tv())),
        3 => Box::new(ItPriorityLink::new(
            config.it_source_cap,
            config.it_rate_bps,
        )),
        4 => Box::new(ItReliableLink::new(rto, config.it_rate_bps)),
        5 => Box::new(FifoLink::new(FIFO_CAP, config.it_rate_bps)),
        _ => Box::new(FecLink::new(FecParams::light())),
    }
}

impl std::fmt::Debug for LinkPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkPort")
            .field("edge", &self.edge)
            .field("neighbor", &self.neighbor)
            .field("providers", &self.out_pipes.len())
            .finish_non_exhaustive()
    }
}

/// The overlay node daemon.
#[derive(Debug)]
pub struct OverlayNode {
    me: NodeId,
    config: NodeConfig,
    links: Vec<LinkPort>,
    /// Incoming pipe -> (local link index, provider index).
    in_pipe_index: MintedMap<PipeId, (usize, usize)>,
    /// Edge id -> local link index.
    edge_index: MintedMap<EdgeId, usize>,
    conn: ConnectivityMonitor,
    groups: GroupTable,
    forwarding: Forwarding,
    sessions: SessionTable,
    /// The shared per-flow state all three levels consult.
    flows: FlowTable,
    dedup: DedupTable,
    keys: KeyRegistry,
    behavior: Behavior,
    obs: NodeObs,
    ctl_frames: CtlFrames,
    /// Group member sets cached per group, keyed by the group-state version
    /// (so the multicast fast path does not rebuild the `Vec` per packet).
    member_cache: HashMap<GroupId, (u64, Vec<NodeId>)>,
    /// Reusable out-edge buffer for the per-packet forwarding decision.
    out_buf: Vec<EdgeId>,
    /// Reusable buffer for a packet's local delivery targets.
    target_buf: Vec<VirtualPort>,
    /// Reusable action buffers for the dispatch loop.
    bufs: ActionBufs,
    /// A protocol reports a recovery immediately before delivering the
    /// recovered packet; set by `Observe(Recovered)` (carrying the
    /// gap-to-recovery latency) and consumed by the next `Deliver` in the
    /// same link-action batch (saved/restored around nested batches).
    pending_recover: Option<SimDuration>,
    /// A protocol reports a retransmission immediately before the
    /// corresponding `Transmit`; same discipline as `pending_recover`, used
    /// to distinguish retransmissions in the distributed trace. Cleared by
    /// `TransmitCtl` too, because FEC reports its repair transmissions as
    /// retransmits but ships them as control.
    pending_retransmit: bool,
    /// Packets held by a Delay adversary, keyed by timer token payload.
    delayed: MintedMap<u32, (DataPacket, Option<EdgeId>)>,
    next_delay_token: u32,
    flood_seq: u64,
    /// The configured overlay topology (kept for re-wiring).
    topology: Graph,
    /// The anomaly watchdog's runtime state, when enabled.
    watch: Option<WatchState>,
    /// Dynamic-membership state, when enabled. Kept on the struct (not
    /// rebuilt by `wire_links`) so incarnations and liveness records survive
    /// re-wiring.
    membership: Option<MembershipTable>,
    /// Whether `on_start` has already run once; a second start is a restart
    /// and bumps the node's incarnation.
    started: bool,
    /// When set, this node bootstraps via a join handshake on the given
    /// local link instead of flooding its LSA at start.
    join_seed: Option<usize>,
    /// Whether the join handshake has completed (always true for nodes that
    /// start as full members).
    joined: bool,
}

impl OverlayNode {
    /// Creates an unwired daemon for node `me` over the configured
    /// `topology`. Its links are wired with
    /// [`OverlayNode::wire_topology`] once pipes exist (a daemon must exist
    /// in the simulator before pipes to it can be created).
    #[must_use]
    pub fn new(me: NodeId, topology: Graph, keys: KeyRegistry, config: NodeConfig) -> Self {
        let mut conn =
            ConnectivityMonitor::new(me, topology.clone(), Vec::new(), config.connectivity);
        conn.set_flap_damping(config.watch);
        let watch = config.watch.then(|| WatchState::new(config.trace_sample));
        let membership = config
            .membership
            .then(|| MembershipTable::new(me, topology.nodes()));
        OverlayNode {
            me,
            forwarding: Forwarding::new(me, topology.clone()),
            sessions: SessionTable::new(me),
            groups: GroupTable::new(me, topology.node_count()),
            conn,
            links: Vec::new(),
            in_pipe_index: MintedMap::default(),
            edge_index: MintedMap::default(),
            flows: FlowTable::new(),
            dedup: DedupTable::new(),
            keys,
            behavior: Behavior::Correct,
            obs: {
                let mut obs = NodeObs::new(me);
                obs.set_perf_enabled(config.perf);
                obs
            },
            ctl_frames: CtlFrames::default(),
            member_cache: HashMap::new(),
            out_buf: Vec::new(),
            target_buf: Vec::new(),
            bufs: ActionBufs::default(),
            pending_recover: None,
            pending_retransmit: false,
            delayed: MintedMap::default(),
            next_delay_token: 0,
            flood_seq: 0,
            config,
            topology,
            watch,
            membership,
            started: false,
            join_seed: None,
            joined: true,
        }
    }

    /// Installs this node's incident links: `(edge, neighbor, out_pipes,
    /// nominal_latency_ms)` in local link order. Must be called before the
    /// simulation starts; incoming pipes are registered separately via
    /// [`OverlayNode::register_in_pipe`].
    pub fn wire_links(&mut self, links: Vec<(EdgeId, NodeId, Vec<PipeId>, f64)>) {
        let conn_links: Vec<(EdgeId, usize, f64)> = links
            .iter()
            .map(|(e, _, pipes, lat)| (*e, pipes.len(), *lat))
            .collect();
        self.conn = ConnectivityMonitor::new(
            self.me,
            self.topology.clone(),
            conn_links,
            self.config.connectivity,
        );
        self.conn.set_flap_damping(self.config.watch);
        if let Some(w) = &mut self.watch {
            let nominals: Vec<f64> = links.iter().map(|(_, _, _, lat)| *lat).collect();
            w.wire(&nominals);
        }
        self.edge_index.clear();
        self.links = links
            .into_iter()
            .enumerate()
            .map(|(i, (edge, neighbor, out_pipes, nominal))| {
                self.edge_index.insert(edge, i);
                LinkPort {
                    edge,
                    neighbor,
                    out_pipes,
                    active_provider: 0,
                    protos: Default::default(),
                    rto: SimDuration::from_millis_f64(nominal * self.config.rto_factor)
                        .max(RTO_MIN),
                }
            })
            .collect();
    }

    /// Wires this node's whole link table from its topology: the neighbors
    /// in topology order become local links 0.., and `pipes(edge, neighbor)`
    /// names each link's `(out, in)` pipe pair per provider, provider order.
    /// Both worlds wire through here — the simulator's builder and the
    /// socket daemon differ only in where their pipe ids come from.
    pub fn wire_topology(
        &mut self,
        mut pipes: impl FnMut(EdgeId, NodeId) -> Vec<(PipeId, PipeId)>,
    ) {
        let mut links = Vec::new();
        let mut in_regs = Vec::new();
        for (neighbor, e) in self.topology.neighbors(self.me) {
            let pairs = pipes(e, neighbor);
            for (prov, &(_, in_pipe)) in pairs.iter().enumerate() {
                in_regs.push((in_pipe, links.len(), prov));
            }
            let out_pipes = pairs.iter().map(|&(out_pipe, _)| out_pipe).collect();
            links.push((e, neighbor, out_pipes, self.topology.weight(e)));
        }
        self.wire_links(links);
        for (pipe, link, prov) in in_regs {
            self.register_in_pipe(pipe, link, prov);
        }
    }

    /// Registers the incoming pipe of `(link, provider)` so arrivals can be
    /// attributed. Called by [`OverlayNode::wire_topology`].
    pub fn register_in_pipe(&mut self, pipe: PipeId, link: usize, provider: usize) {
        self.in_pipe_index.insert(pipe, (link, provider));
    }

    /// Marks this node as compromised with the given behaviour.
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// This node's id in the overlay topology.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The node's observability state: metrics registry and event rings.
    #[must_use]
    pub fn obs(&self) -> &NodeObs {
        &self.obs
    }

    /// Control frames produced so far, by kind.
    #[must_use]
    pub fn ctl_frames(&self) -> CtlFrames {
        self.ctl_frames
    }

    /// The session table (delivery stats, connected clients).
    #[must_use]
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// The shared flow table (per-flow context across all three levels).
    #[must_use]
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// The group table.
    #[must_use]
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// The connectivity monitor.
    #[must_use]
    pub fn connectivity(&self) -> &ConnectivityMonitor {
        &self.conn
    }

    /// The de-duplication table.
    #[must_use]
    pub fn dedup(&self) -> &DedupTable {
        &self.dedup
    }

    /// The anomaly watchdog's state, when enabled.
    #[must_use]
    pub fn watch(&self) -> Option<&WatchState> {
        self.watch.as_ref()
    }

    /// The configuration this daemon runs with.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The dynamic-membership table, when enabled.
    #[must_use]
    pub fn membership(&self) -> Option<&MembershipTable> {
        self.membership.as_ref()
    }

    /// Shortest-path trees this daemon's forwarding engine has computed.
    #[must_use]
    pub fn spt_builds(&self) -> u64 {
        self.forwarding.spt_builds()
    }

    /// Whether the current forwarding view reaches `dst` — the local
    /// evidence the membership maintenance epoch stabilizes on.
    #[must_use]
    pub fn reaches(&self, dst: NodeId) -> bool {
        self.forwarding.warm(self.obs.perf());
        self.forwarding.reaches(dst)
    }

    /// Makes this node bootstrap via a join handshake on local link
    /// `link` instead of flooding its LSA at start. Must be called before
    /// the simulation starts; requires membership to be enabled.
    pub fn set_join_seed(&mut self, link: usize) {
        assert!(
            self.membership.is_some(),
            "join bootstrap requires membership"
        );
        self.join_seed = Some(link);
        self.joined = false;
    }

    /// Estimated retained heap bytes of this node's stateful subsystems,
    /// attributed per subsystem. The parts (and what they cover):
    ///
    /// * `flows` — the shared [`FlowTable`];
    /// * `routing` — [`Forwarding`]: its part of the installed topology view,
    ///   the next-hop table once a lookup has built it, cached per-root
    ///   trees, and multicast out-edge caches;
    /// * `lsdb` — the connectivity monitor: LSA database, per-link hello
    ///   state, flap-damping state, its part of the cached topology view,
    ///   and its copy of the configured topology's weights;
    /// * `dedup` — per-flow duplicate-suppression windows;
    /// * `rings` — [`NodeObs`]: metrics registry, span/trace/watch rings,
    ///   and the perf profiler;
    /// * `linkq` — link-protocol send/receive buffers across all incident
    ///   links ([`LinkProto::queue_bytes`]);
    /// * `sessions` — client table, per-flow session state, and held
    ///   out-of-order delivery buffers;
    /// * `groups` — local and remote group membership;
    /// * `membership` — dynamic-membership liveness records and flood-dedup
    ///   state (zero when membership is disabled);
    /// * `topo` — the node's own configured-topology weights (kept for
    ///   re-wiring) plus the member cache and dispatch scratch buffers.
    ///
    /// An allocation with several holders — the topology shape every
    /// co-located daemon shares, the view `routing` and `lsdb` both point
    /// at — is charged to each holder in equal parts (`bytes / holders`), so
    /// a fleet sum counts it once and a lone daemon is charged all of it.
    ///
    /// The total is the sum of the parts by construction.
    #[must_use]
    pub fn footprint(&self) -> son_obs::FootprintReport {
        use son_obs::footprint::hashmap_bytes;
        use son_obs::MemFootprint;
        let mut report = son_obs::FootprintReport::new();
        report.add("flows", self.flows.footprint_bytes());
        report.add("routing", self.forwarding.footprint_bytes());
        report.add("lsdb", self.conn.footprint_bytes());
        report.add("dedup", self.dedup.footprint_bytes());
        report.add("rings", self.obs.footprint_bytes());
        let linkq: usize = self
            .links
            .iter()
            .flat_map(LinkPort::built)
            .map(LinkProto::queue_bytes)
            .sum();
        report.add("linkq", linkq);
        report.add("sessions", self.sessions.footprint_bytes());
        report.add("groups", self.groups.footprint_bytes());
        report.add(
            "membership",
            self.membership
                .as_ref()
                .map_or(0, son_obs::MemFootprint::footprint_bytes),
        );
        let member_cache = hashmap_bytes(&self.member_cache)
            + self
                .member_cache
                .values()
                .map(|(_, m)| son_obs::footprint::vec_bytes(m))
                .sum::<usize>();
        report.add(
            "topo",
            self.topology.approx_bytes()
                + member_cache
                + son_obs::footprint::vec_bytes(&self.out_buf)
                + son_obs::footprint::vec_bytes(&self.target_buf)
                + hashmap_bytes(&self.in_pipe_index)
                + hashmap_bytes(&self.edge_index)
                + hashmap_bytes(&self.delayed),
        );
        report
    }

    /// Per-link health in local link order: queue backlog plus the
    /// watchdog's verdict (suspended / probing), `false` on both when the
    /// watchdog is disabled.
    #[must_use]
    pub fn link_health(&self) -> Vec<son_obs::snapshot::LinkHealth> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, port)| {
                let lw = self.watch.as_ref().and_then(|w| w.links.get(i));
                son_obs::snapshot::LinkHealth {
                    link: i as u32,
                    neighbor: port.neighbor.0 as u32,
                    queue_depth: port.built().map(|p| p.queue_depth() as u64).sum(),
                    suspended: lw.is_some_and(LinkWatch::is_suspended),
                    probing: lw.is_some_and(LinkWatch::is_probing),
                }
            })
            .collect()
    }

    /// The structural half of a telemetry snapshot: queue depths, per-link
    /// watch state, flow-table occupancy, and the retained-heap roll-up.
    /// Counters and histograms travel separately, straight from
    /// [`NodeObs::registry`](crate::obs::NodeObs::registry).
    #[must_use]
    pub fn telemetry_health(&self) -> son_obs::snapshot::NodeHealth {
        let links = self.link_health();
        son_obs::snapshot::NodeHealth {
            queue_depth: links.iter().map(|l| l.queue_depth).sum(),
            links,
            flows: self.flows.len() as u64,
            footprint_bytes: self.footprint().total() as u64,
        }
    }

    /// Ensures a flow context exists for `pkt`'s flow and counts one
    /// attributed per-flow drop (the node-level `drop.*` counter is the
    /// caller's job — the two ledgers are deliberately separate).
    pub(crate) fn flow_dropped(&mut self, pkt: &DataPacket) {
        let fo = self.flows.ensure(pkt.flow, pkt.spec, &mut self.obs).obs();
        self.obs.inc(fo.dropped);
    }

    /// A human-readable status snapshot: links with measured quality and
    /// provider selection, shared-state versions, groups, and headline
    /// counters — the operator's `spines_monitor`-style view.
    #[must_use]
    pub fn status_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "node {} | topology v{} groups v{} | {} flows",
            self.me,
            self.conn.version(),
            self.groups.version(),
            self.flows.len(),
        );
        for (i, port) in self.links.iter().enumerate() {
            let (lat, loss) = self.conn.link_quality(i);
            let _ = writeln!(
                out,
                "  link[{i}] {} -> {} | {} | provider {}/{} | {:.2}ms loss {:.1}%",
                port.edge,
                port.neighbor,
                if self.conn.link_up(i) { "up" } else { "DOWN" },
                port.active_provider + 1,
                port.out_pipes.len(),
                lat,
                loss * 100.0,
            );
        }
        let ports = self.sessions.ports();
        let _ = writeln!(
            out,
            "  clients: {:?}",
            ports.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        let count = |name| self.obs.counter(name).unwrap_or(0);
        let _ = writeln!(
            out,
            "  forwarded {} | delivered {} | dedup {} | unroutable {} | auth_fail {}",
            count("node.forwarded"),
            count("node.delivered_local"),
            count("drop.dedup_duplicate"),
            count("drop.unroutable"),
            count("drop.auth"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_sane() {
        let c = NodeConfig::default();
        assert!(c.rto_factor > 1.0);
        assert!(c.ttl > 8);
        assert!(!c.auth_enabled);
        assert!(!c.perf, "profiler must be opt-in");
    }

    #[test]
    fn footprint_rollup_equals_sum_of_parts() {
        use son_obs::MemFootprint;
        let mut topo = Graph::new(4);
        topo.add_edge(NodeId(0), NodeId(1), 1.0);
        topo.add_edge(NodeId(1), NodeId(2), 1.0);
        topo.add_edge(NodeId(2), NodeId(3), 1.0);
        let node = OverlayNode::new(
            NodeId(1),
            topo,
            KeyRegistry::new(4, 7),
            NodeConfig::default(),
        );
        let report = node.footprint();
        let by_label: std::collections::HashMap<&str, usize> =
            report.parts().iter().map(|p| (p.label, p.bytes)).collect();
        // Every subsystem the issue names is attributed.
        for label in [
            "flows",
            "routing",
            "lsdb",
            "dedup",
            "rings",
            "linkq",
            "sessions",
            "groups",
            "membership",
            "topo",
        ] {
            assert!(by_label.contains_key(label), "missing subsystem {label}");
        }
        // The roll-up is exactly the sum of its parts.
        let sum: usize = report.parts().iter().map(|p| p.bytes).sum();
        assert_eq!(report.total(), sum);
        // Spot-check parts against the subsystems they cover.
        assert_eq!(by_label["flows"], node.flows().footprint_bytes());
        assert_eq!(by_label["dedup"], node.dedup().footprint_bytes());
        assert_eq!(by_label["rings"], node.obs().footprint_bytes());
        assert_eq!(by_label["lsdb"], node.connectivity().footprint_bytes());
        // A freshly built node already retains observability rings and the
        // configured topology.
        assert!(by_label["rings"] > 0);
        assert!(by_label["topo"] > 0);
        assert!(by_label["routing"] > 0);
    }

    /// On a 64-node ring with chords carrying one best-effort flow, only
    /// the daemons the flow crosses build routing and link state: the
    /// ingress and transit daemons one next-hop table per version they
    /// forward on, and each of them slot 0 on the links the flow uses.
    /// Everyone else ends the run with no SPT and no protocol instance.
    #[test]
    fn daemons_build_only_the_routing_and_link_state_they_use() {
        use crate::builder::OverlayBuilder;
        use crate::client::Workload;
        use crate::linkproto::LinkProtoStats;
        use crate::service::{FlowSpec, LinkService};
        use crate::Fleet;
        use son_netsim::time::SimTime;
        const N: usize = 64;
        let mut g = Graph::new(N);
        for i in 0..N {
            g.add_edge(NodeId(i), NodeId((i + 1) % N), 10.0);
        }
        for i in (0..N / 2).step_by(16) {
            g.add_edge(NodeId(i), NodeId(i + N / 2), 15.0);
        }
        let (src, dst) = (NodeId(3), NodeId(40));
        let path = son_topo::dijkstra::shortest_path(&g, src, dst).expect("connected");
        let mut fleet = Fleet::new(1, None, OverlayBuilder::new(g));
        let workload = Workload::Cbr {
            size: 200,
            interval: SimDuration::from_millis(10),
            count: u64::MAX,
            start: SimTime::from_millis(500),
        };
        fleet.flow(src, dst, FlowSpec::best_effort(), workload);
        fleet.run(SimTime::from_secs(2));
        assert!(fleet.recv(0).received > 100, "the flow is delivered");

        let services = [
            LinkService::BestEffort,
            LinkService::Reliable,
            LinkService::Realtime(RealtimeParams::live_tv()),
            LinkService::ItPriority,
            LinkService::ItReliable,
            LinkService::Fifo,
            LinkService::Fec(FecParams::light()),
        ];
        for node in fleet.nodes() {
            let on_path = path.nodes.contains(&node.id());
            let forwards = on_path && node.id() != dst;
            assert_eq!(node.spt_builds() > 0, forwards, "node {}", node.id());
            for (l, port) in node.links.iter().enumerate() {
                let crossed = on_path && path.edges.contains(&port.edge);
                for (slot, service) in services.iter().enumerate() {
                    assert_eq!(service.slot(), slot);
                    let built = port.protos[slot].is_some();
                    assert_eq!(built, crossed && slot == 0, "node {} link {l}", node.id());
                    if !built {
                        let fresh = make_proto(slot, port.rto, &node.config).stats();
                        assert_eq!(node.link_stats(l, *service), fresh);
                    }
                }
            }
            if !on_path {
                for service in &services {
                    assert_eq!(node.service_stats(*service), LinkProtoStats::default());
                }
            }
        }
    }

    /// Co-located daemons built from clones of one graph are charged for
    /// its shape and its configured weights once between them; daemons
    /// that each own their topology are each charged the whole of both.
    #[test]
    fn fleet_footprint_counts_a_shared_shape_once() {
        const N: usize = 16;
        let ring = || {
            let mut g = Graph::new(N);
            for i in 0..N {
                g.add_edge(NodeId(i), NodeId((i + 1) % N), 10.0);
            }
            g
        };
        let fleet = |topology_of: &dyn Fn() -> Graph| -> Vec<OverlayNode> {
            (0..N)
                .map(|i| {
                    let keys = KeyRegistry::new(N, 7);
                    OverlayNode::new(NodeId(i), topology_of(), keys, NodeConfig::default())
                })
                .collect()
        };
        let total =
            |nodes: &[OverlayNode]| -> usize { nodes.iter().map(|n| n.footprint().total()).sum() };

        // A graph that shares nothing charges its whole weight buffer.
        let weights = {
            let alone = ring();
            alone.approx_bytes() - alone.shape_bytes()
        };
        let one = ring();
        let shared = fleet(&|| one.clone());
        // The daemons compiled the shape's CSR arrays; from here on they are
        // its only holders.
        let shape = one.shape_bytes();
        drop(one);
        let owned = fleet(&ring);
        assert_eq!(owned[0].topology.shape_bytes(), shape);

        let (shared, owned) = (total(&shared), total(&owned));
        let saved = owned - shared;
        let expected = (N - 1) * (shape + weights);
        assert!(
            saved.abs_diff(expected) * 100 <= shape,
            "sharing saved {saved} B across {N} daemons, expected {expected} B \
             (all but one copy of a {shape} B shape and {weights} B of weights)"
        );
    }

    /// An LSA every daemon accepted as the same allocation is charged once
    /// between them; daemons that each decoded their own copy are each
    /// charged the whole of it.
    #[test]
    fn fleet_footprint_counts_a_shared_lsa_once() {
        use crate::packet::{LinkAdvert, Lsa};
        use son_netsim::time::SimTime;
        const N: usize = 16;
        let mut ring = Graph::new(N);
        for i in 0..N {
            ring.add_edge(NodeId(i), NodeId((i + 1) % N), 10.0);
        }
        let flooded = |origin: usize| Lsa {
            origin: NodeId(origin),
            seq: 1,
            links: ring
                .neighbors(NodeId(origin))
                .map(|(_, edge)| LinkAdvert {
                    edge,
                    up: true,
                    latency_ms: 12.0,
                    loss: 0.0,
                })
                .collect(),
        };
        let fleet_total = |shared: bool| -> usize {
            let mut nodes: Vec<OverlayNode> = (0..N)
                .map(|i| {
                    let keys = KeyRegistry::new(N, 7);
                    OverlayNode::new(NodeId(i), ring.clone(), keys, NodeConfig::default())
                })
                .collect();
            for origin in 0..N {
                let lsa = flooded(origin);
                for node in &mut nodes {
                    let mut heard = lsa.clone();
                    if !shared {
                        heard.links = lsa.links.iter().copied().collect();
                    }
                    node.conn
                        .on_lsa(SimTime::ZERO, heard, None, &mut Vec::new());
                }
            }
            nodes.iter().map(|n| n.footprint().total()).sum()
        };

        let saved = fleet_total(false) - fleet_total(true);
        // Each origin's LSA is held by the N - 1 other daemons: N - 2 copies
        // fewer when they share.
        let lsa_bytes = 16 + 2 * size_of::<LinkAdvert>();
        let expected = N * (N - 2) * lsa_bytes;
        assert!(
            saved.abs_diff(expected) * 100 <= expected,
            "sharing saved {saved} B across {N} daemons, expected {expected} B \
             (all but one copy of {N} LSAs of {lsa_bytes} B)"
        );
    }
}
