//! The three ways a packet can end (or not end) at a node that has a local
//! client for it. A node hands the packet itself to the session table only
//! when nothing goes onward; these pin the cases where that decision must
//! not change what is delivered, forwarded, or credited.

use std::collections::BTreeMap;

use son_netsim::link::PipeId;
use son_netsim::loss::LossConfig;
use son_netsim::process::{Process, ProcessId};
use son_netsim::sim::Ctx;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::{ClientFlow, Workload};
use son_overlay::fleet::{Fleet, RX_PORT, TX_PORT};
use son_overlay::node::CLIENT_IPC_DELAY;
use son_overlay::{
    ClientOp, Destination, FlowSpec, GroupId, LinkService, OverlayAddr, SessionEvent, Wire,
};
use son_topo::NodeId;

/// Chain 0-1-2 with multicast members on 1 and 2: node 1 delivers locally
/// *and* forwards, so it must keep a copy for the onward hop.
#[test]
fn multicast_member_that_is_also_transit_still_forwards() {
    let mut fleet = Fleet::new(31, None, OverlayBuilder::new(chain_topology(3, 10.0)));
    let group = GroupId(4);
    let mid = fleet.client(NodeId(1), RX_PORT, vec![group], vec![]);
    let end = fleet.client(NodeId(2), RX_PORT, vec![group], vec![]);
    let stream = Workload::cbr(500, 100, SimDuration::from_millis(1));
    let flow = ClientFlow::new(
        Destination::Multicast(group),
        FlowSpec::best_effort(),
        stream,
    );
    fleet.client(NodeId(0), TX_PORT, vec![], vec![flow]);
    fleet.run(SimTime::from_secs(2));
    for (who, rx) in [("transit member", mid), ("leaf member", end)] {
        let r = fleet.client_ref(rx).sole_recv();
        assert_eq!(r.received, 100, "{who} missed traffic");
        assert_eq!(r.app_duplicates, 0);
    }
    let relay = fleet.node(NodeId(1)).obs();
    assert_eq!(relay.counter("node.forwarded"), Some(100));
    assert_eq!(relay.counter("node.delivered_local"), Some(100));
}

/// A client that joins a group some time after it connects, and counts the
/// deliveries it gets per sequence number.
struct LateJoiner {
    daemon: ProcessId,
    group: GroupId,
    join_at: SimDuration,
    deliveries: BTreeMap<u64, u32>,
}

impl Process<Wire> for LateJoiner {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let connect = Wire::FromClient(ClientOp::Connect { port: RX_PORT });
        ctx.send_direct(self.daemon, CLIENT_IPC_DELAY, connect);
        ctx.set_timer(self.join_at, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, _token: u64) {
        let join = Wire::FromClient(ClientOp::Join(self.group));
        ctx.send_direct(self.daemon, CLIENT_IPC_DELAY, join);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Wire>, _: ProcessId, _: Option<PipeId>, msg: Wire) {
        if let Wire::ToClient(SessionEvent::Deliver { seq, .. }) = msg {
            *self.deliveries.entry(seq).or_default() += 1;
        }
    }
}

/// Chain 0-1-2-3, anycast member on 3 from the start; a second member
/// appears on transit node 1 mid-stream. Until the ingress hears of it,
/// packets resolved to node 3 cross a node that has a local member: they
/// must pass through untouched, or they are delivered twice.
#[test]
fn anycast_member_that_was_not_resolved_does_not_deliver() {
    const COUNT: u64 = 400;
    let mut fleet = Fleet::new(32, None, OverlayBuilder::new(chain_topology(4, 10.0)));
    let group = GroupId(5);
    let far = fleet.client(NodeId(3), RX_PORT, vec![group], vec![]);
    let near = fleet.sim.add_process(LateJoiner {
        daemon: fleet.overlay.daemon(NodeId(1)),
        group,
        join_at: SimDuration::from_millis(700),
        deliveries: BTreeMap::new(),
    });
    let stream = Workload::cbr(500, COUNT, SimDuration::from_millis(1));
    let flow = ClientFlow::new(Destination::Anycast(group), FlowSpec::best_effort(), stream);
    fleet.client(NodeId(0), TX_PORT, vec![], vec![flow]);
    fleet.run(SimTime::from_secs(2));
    let far = fleet.client_ref(far).sole_recv();
    let near = &fleet.sim.proc_ref::<LateJoiner>(near).unwrap().deliveries;
    assert!(
        far.received > 150,
        "node 3 serves the stream until the join"
    );
    assert!(near.len() > 150, "node 1 serves it once the ingress knows");
    assert!(near.values().all(|&n| n == 1));
    assert_eq!(
        far.received + near.len() as u64,
        COUNT,
        "every packet is delivered at exactly one member"
    );
    let overlap = far
        .arrivals
        .iter()
        .filter(|(_, seq)| near.contains_key(seq));
    assert_eq!(
        overlap.count(),
        0,
        "a packet resolved to node 3 stopped at 1"
    );
}

/// Two nodes, IT-Reliable: every packet terminates at node 1 with no
/// onward hop. More packets than the 32-packet hard cap only arrive if each
/// terminal packet hands its credit back over the link it came in on.
#[test]
fn it_reliable_terminal_packet_still_grants_its_credit() {
    const COUNT: u64 = 200;
    let mut fleet = Fleet::new(33, None, OverlayBuilder::new(chain_topology(2, 10.0)));
    let rx = fleet.client(NodeId(1), RX_PORT, vec![], vec![]);
    let dst = Destination::Unicast(OverlayAddr::new(NodeId(1), RX_PORT));
    let stream = Workload::cbr(500, COUNT, SimDuration::from_millis(1));
    let spec = FlowSpec::reliable().with_link(LinkService::ItReliable);
    let tx = fleet.client(
        NodeId(0),
        TX_PORT,
        vec![],
        vec![ClientFlow::new(dst, spec, stream)],
    );
    fleet.run(SimTime::from_secs(10));
    let sent = fleet.client_ref(tx).sent(1);
    let r = fleet.client_ref(rx).sole_recv();
    // A paused client skips its send slots, so fewer than COUNT go out; a
    // sender that never got a credit back would stop at the cap for good.
    assert!(sent > 100, "the sender stayed paused after {sent} packets");
    assert_eq!(r.received, sent);
    let terminal = fleet.node(NodeId(1));
    let credits = terminal.link_stats(0, LinkService::ItReliable).ctl_sent;
    assert!(credits >= sent, "one credit per consumed packet: {credits}");
}

/// IT-Reliable over a lossy chain: a lost data packet, ack or grant must not
/// stall the flow. Grants are cumulative, so the next one repairs a lost
/// one, and a persist probe repairs the last.
#[test]
fn it_reliable_stream_arrives_over_lossy_links() {
    const COUNT: u64 = 400;
    for p in [0.02, 0.05] {
        let lossy =
            OverlayBuilder::new(chain_topology(3, 10.0)).default_loss(LossConfig::Bernoulli { p });
        let mut fleet = Fleet::new(34, None, lossy);
        let rx = fleet.client(NodeId(2), RX_PORT, vec![], vec![]);
        let dst = Destination::Unicast(OverlayAddr::new(NodeId(2), RX_PORT));
        let stream = Workload::cbr(500, COUNT, SimDuration::from_millis(5));
        let spec = FlowSpec::reliable().with_link(LinkService::ItReliable);
        let flow = ClientFlow::new(dst, spec, stream);
        let tx = fleet.client(NodeId(0), TX_PORT, vec![], vec![flow]);
        fleet.run(SimTime::from_secs(10));
        let sent = fleet.client_ref(tx).sent(1);
        let r = fleet.client_ref(rx).sole_recv();
        assert!(
            r.received * 100 >= COUNT * 99,
            "loss {p}: {} of {COUNT} arrived ({sent} sent)",
            r.received
        );
        assert_eq!(r.received, sent, "loss {p}");
        assert_eq!(r.app_duplicates, 0);
    }
}
