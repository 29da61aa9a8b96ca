//! Flow lifecycle: closing a flow must remove every trace of it from the
//! ingress daemon's shared state — the `FlowTable` context (role, cached
//! route stamp, pause state, counter handles) and the de-duplication window.
//!
//! A scripted client drives the full lifecycle explicitly: connect, open a
//! constrained-flooding flow (so the ingress also grows a dedup window),
//! send a burst, close the flow, disconnect. Mid-run the test pins that the
//! residue *exists*; after close it pins that the residue is *gone*.

use bytes::Bytes;
use son_netsim::link::PipeId;
use son_netsim::process::{Process, ProcessId};
use son_netsim::sim::Ctx;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::fleet::{Fleet, RX_PORT, TX_PORT};
use son_overlay::service::SourceRoute;
use son_overlay::{ClientOp, Destination, FlowKey, FlowSpec, OverlayAddr, RoutingService, Wire};
use son_topo::NodeId;

const SENDS: u64 = 20;

/// Timer tokens of the scripted lifecycle.
const TOK_SEND: u64 = 0;
const TOK_CLOSE: u64 = 1;
const TOK_DISCONNECT: u64 = 2;

/// A client that runs one explicit open → send → close → disconnect script.
#[derive(Debug)]
struct LifecycleClient {
    daemon: ProcessId,
    dst: OverlayAddr,
    sent: u64,
}

impl LifecycleClient {
    fn op(&self, ctx: &mut Ctx<'_, Wire>, op: ClientOp) {
        ctx.send_direct(
            self.daemon,
            SimDuration::from_micros(10),
            Wire::FromClient(op),
        );
    }
}

impl Process<Wire> for LifecycleClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        self.op(ctx, ClientOp::Connect { port: TX_PORT });
        self.op(
            ctx,
            ClientOp::OpenFlow {
                local_flow: 1,
                dst: Destination::Unicast(self.dst),
                spec: flood_spec(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(500), TOK_SEND);
    }

    fn on_message(
        &mut self,
        _ctx: &mut Ctx<'_, Wire>,
        _from: ProcessId,
        _pipe: Option<PipeId>,
        _msg: Wire,
    ) {
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, token: u64) {
        match token {
            TOK_SEND => {
                self.sent += 1;
                self.op(
                    ctx,
                    ClientOp::Send {
                        local_flow: 1,
                        size: 800,
                        payload: Bytes::new(),
                    },
                );
                if self.sent < SENDS {
                    ctx.set_timer(SimDuration::from_millis(10), TOK_SEND);
                } else {
                    ctx.set_timer(SimDuration::from_secs(1), TOK_CLOSE);
                }
            }
            TOK_CLOSE => {
                self.op(ctx, ClientOp::CloseFlow { local_flow: 1 });
                ctx.set_timer(SimDuration::from_millis(100), TOK_DISCONNECT);
            }
            TOK_DISCONNECT => self.op(ctx, ClientOp::Disconnect),
            _ => unreachable!("unknown lifecycle token {token}"),
        }
    }
}

fn flood_spec() -> FlowSpec {
    // Constrained flooding exercises the route-stamp cache *and* the
    // de-duplication window at the ingress.
    FlowSpec::best_effort().with_routing(RoutingService::SourceBased(
        SourceRoute::ConstrainedFlooding,
    ))
}

#[test]
fn closing_a_flow_removes_all_flow_table_residue() {
    let mut fleet = Fleet::new(23, None, OverlayBuilder::new(chain_topology(3, 10.0)));
    let dst = OverlayAddr::new(NodeId(2), RX_PORT);
    let rx = fleet.client(NodeId(2), RX_PORT, vec![], vec![]);
    let tx = fleet.sim.add_process(LifecycleClient {
        daemon: fleet.overlay.daemon(NodeId(0)),
        dst,
        sent: 0,
    });
    let flow = FlowKey::new(
        OverlayAddr::new(NodeId(0), TX_PORT),
        Destination::Unicast(dst),
    );

    // Mid-stream: the ingress holds a flow context (ingress role, cached
    // stamp) and a dedup window for the flow.
    fleet.run(SimTime::from_millis(600));
    {
        let ingress = fleet.node(NodeId(0));
        let fc = ingress
            .flows()
            .get(&flow)
            .expect("open flow has a context at the ingress");
        assert!(fc.role().ingress, "ingress role recorded");
        assert!(
            ingress.dedup().flow_count() > 0,
            "flooding flow grew a dedup window at the ingress"
        );
    }

    // After close + disconnect: every trace is gone.
    fleet.run(SimTime::from_secs(5));
    let sender = fleet.sim.proc_ref::<LifecycleClient>(tx).unwrap();
    assert_eq!(sender.sent, SENDS);
    let delivered = fleet.client_ref(rx).sole_recv();
    assert_eq!(delivered.received, SENDS, "all packets delivered pre-close");
    assert_eq!(delivered.app_duplicates, 0, "flood copies deduplicated");

    let ingress = fleet.node(NodeId(0));
    assert!(
        ingress.flows().get(&flow).is_none(),
        "CloseFlow removed the FlowTable context (no leaked upstream, \
         stamp cache, or pause state)"
    );
    assert!(
        ingress.flows().is_empty(),
        "no other residue at the ingress"
    );
    assert_eq!(
        ingress.dedup().flow_count(),
        0,
        "CloseFlow dropped the dedup window"
    );
}
