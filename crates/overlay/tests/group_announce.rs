//! When a daemon floods its group membership, and when it has nothing to
//! say.
//!
//! To every peer, no entry for an origin means "no groups there". A daemon
//! that has no member and never announced one therefore floods nothing at
//! (re)start; the first local join announces as always, and a daemon that
//! ever announced keeps re-announcing at restart, because a peer may hold
//! membership a crash made stale.

use son_netsim::process::{Process, ProcessId};
use son_netsim::sim::{Ctx, ScenarioEvent};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::MemFootprint;
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::fleet::{Fleet, TX_PORT};
use son_overlay::node::CLIENT_IPC_DELAY;
use son_overlay::{
    ClientFlow, ClientOp, Destination, FlowSpec, GroupId, NodeConfig, SessionEvent, Wire, Workload,
};
use son_topo::{EdgeId, Graph, NodeId};

const G: GroupId = GroupId(9);

fn ring(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), 10.0);
    }
    g
}

/// Bytes the node's group table retains. Zero means no peer's announcement
/// ever reached it: an accepted update allocates the remote table, and the
/// table keeps its allocation even once emptied.
fn group_bytes(fleet: &Fleet, node: usize) -> usize {
    fleet.node(NodeId(node)).groups().footprint_bytes()
}

/// A client that connects on port 70 and then issues session operations at
/// scripted times, counting what the daemon delivers to it.
struct ScriptedClient {
    daemon: ProcessId,
    script: Vec<(SimTime, ClientOp)>,
    delivered: u64,
}

impl ScriptedClient {
    fn new(daemon: ProcessId, script: Vec<(SimTime, ClientOp)>) -> Self {
        ScriptedClient {
            daemon,
            script,
            delivered: 0,
        }
    }
}

impl Process<Wire> for ScriptedClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let connect = Wire::FromClient(ClientOp::Connect { port: 70 });
        ctx.send_direct(self.daemon, CLIENT_IPC_DELAY, connect);
        for (i, &(at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(at.saturating_since(SimTime::ZERO), i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, token: u64) {
        let op = self.script[token as usize].1.clone();
        ctx.send_direct(self.daemon, CLIENT_IPC_DELAY, Wire::FromClient(op));
    }

    fn on_message(
        &mut self,
        _ctx: &mut Ctx<'_, Wire>,
        _from: ProcessId,
        _pipe: Option<son_netsim::link::PipeId>,
        msg: Wire,
    ) {
        if matches!(msg, Wire::ToClient(SessionEvent::Deliver { .. })) {
            self.delivered += 1;
        }
    }
}

#[test]
fn fleet_without_members_floods_no_group_announcement() {
    let mut fleet = Fleet::new(16, None, OverlayBuilder::new(ring(16)));
    fleet.run(SimTime::from_secs(3));
    for node in 0..16 {
        assert_eq!(
            group_bytes(&fleet, node),
            0,
            "node {node} holds group state nobody had reason to send"
        );
        assert!(fleet.node(NodeId(node)).groups().members_of(G).is_empty());
        // The control plane itself converged: only the group flood is gone.
        for origin in (0..16).map(NodeId) {
            let own = fleet.node(origin).connectivity().adverts_of(origin);
            let own = own.expect("a daemon holds its own adverts");
            let conn = fleet.node(NodeId(node)).connectivity();
            assert!(conn.believes(origin, own), "node {node} on {origin}");
        }
    }
}

#[test]
fn first_join_after_a_silent_start_reaches_every_daemon() {
    let mut fleet = Fleet::new(17, None, OverlayBuilder::new(ring(16)));
    let rx = fleet.sim.add_process(ScriptedClient::new(
        fleet.overlay.daemon(NodeId(5)),
        vec![(SimTime::from_secs(1), ClientOp::Join(G))],
    ));
    let workload = Workload::Cbr {
        size: 1000,
        interval: SimDuration::from_millis(10),
        count: 50,
        start: SimTime::from_millis(1500),
    };
    let flow = ClientFlow::new(Destination::Multicast(G), FlowSpec::best_effort(), workload);
    fleet.client(NodeId(12), TX_PORT, vec![], vec![flow]);
    fleet.run(SimTime::from_millis(900));
    assert_eq!(group_bytes(&fleet, 12), 0, "silent until the join");
    fleet.run(SimTime::from_secs(3));
    for node in 0..16 {
        assert_eq!(
            fleet.node(NodeId(node)).groups().members_of(G),
            vec![NodeId(5)],
            "node {node} missed the join"
        );
    }
    assert_eq!(
        fleet.sim.proc_ref::<ScriptedClient>(rx).unwrap().delivered,
        50
    );
}

#[test]
fn once_relevant_daemon_reannounces_empty_membership_after_restart() {
    let mut fleet = Fleet::new(18, None, OverlayBuilder::new(chain_topology(3, 10.0)));
    let _client = fleet.sim.add_process(ScriptedClient::new(
        fleet.overlay.daemon(NodeId(2)),
        vec![
            (SimTime::from_millis(300), ClientOp::Join(G)),
            (SimTime::from_millis(1200), ClientOp::Leave(G)),
        ],
    ));
    // Node 2 is cut off while its last member leaves, so the (empty)
    // announcement of that leave reaches nobody; then it crashes.
    let (to_2, from_2) = fleet.overlay.edge_pipes[&EdgeId(1)][0];
    let node_2 = fleet.overlay.daemon(NodeId(2));
    for (at_ms, event) in [
        (1000, ScenarioEvent::DisablePipe(to_2)),
        (1000, ScenarioEvent::DisablePipe(from_2)),
        (1500, ScenarioEvent::CrashProcess(node_2)),
        (2000, ScenarioEvent::EnablePipe(to_2)),
        (2000, ScenarioEvent::EnablePipe(from_2)),
        (2500, ScenarioEvent::RestartProcess(node_2)),
    ] {
        fleet.sim.schedule(SimTime::from_millis(at_ms), event);
    }
    fleet.run(SimTime::from_millis(2400));
    for node in [0, 1] {
        assert_eq!(
            fleet.node(NodeId(node)).groups().members_of(G),
            vec![NodeId(2)],
            "node {node} should still hold the membership the leave never retracted"
        );
    }
    fleet.run(SimTime::from_secs(4));
    for node in 0..3 {
        assert!(
            fleet.node(NodeId(node)).groups().members_of(G).is_empty(),
            "node {node} kept a restarted daemon's stale membership"
        );
    }
}

#[test]
fn seed_join_without_groups_completes_without_a_group_flood() {
    let config = NodeConfig {
        membership: true,
        ..NodeConfig::default()
    };
    let builder = OverlayBuilder::new(chain_topology(4, 10.0)).node_config(config);
    let mut fleet = Fleet::new(19, None, builder);
    // Node 3 bootstraps through its only neighbor instead of cold-starting.
    fleet.node_mut(NodeId(3)).set_join_seed(0);
    fleet.run(SimTime::from_secs(3));
    let joiner = fleet.node(NodeId(3));
    assert_eq!(
        joiner
            .obs()
            .registry()
            .counter_named("joins_completed", &[("node", "3")]),
        Some(1)
    );
    for node in 0..4 {
        let d = fleet.node(NodeId(node));
        assert_eq!(d.membership().expect("enabled").up_count(), 4);
        assert!(d.reaches(NodeId(3)) && d.reaches(NodeId(0)));
        assert_eq!(group_bytes(&fleet, node), 0);
    }
}
