//! The session interface: client operations against the daemon.
//!
//! "The session interface is responsible for managing client connections,
//! with each client connection treated as a separate flow." Delivery
//! semantics live in [`crate::session`]; this module is the daemon side —
//! translating client operations into session-table and group-state calls,
//! and tearing a flow's shared state (flow context, dedup window) down when
//! the client closes it.

use son_netsim::process::ProcessId;
use son_netsim::sim::Ctx;

use crate::addr::VirtualPort;
use crate::packet::{ClientOp, Wire};

use super::OverlayNode;

impl OverlayNode {
    pub(super) fn on_client_op(&mut self, ctx: &mut Ctx<'_, Wire>, from: ProcessId, op: ClientOp) {
        match op {
            ClientOp::Connect { port } => {
                let mut sa = self.bufs.take_session();
                if self
                    .sessions
                    .connect(VirtualPort(port), from, &mut sa)
                    .is_err()
                {
                    self.obs.named("connect_rejected");
                }
                self.dispatch_session(ctx, sa);
            }
            ClientOp::OpenFlow {
                local_flow,
                dst,
                spec,
            } => {
                if let Some(port) = self.sessions.port_of(from) {
                    let _ = self.sessions.open_flow(port, local_flow, dst, spec);
                }
            }
            ClientOp::Send {
                local_flow,
                size,
                payload,
            } => {
                let Some(port) = self.sessions.port_of(from) else {
                    return;
                };
                let Ok((flow, spec, seq)) = self.sessions.next_send(port, local_flow) else {
                    self.obs.named("send_unknown_flow");
                    return;
                };
                self.ingress_send(ctx, flow, spec, seq, size, payload);
            }
            ClientOp::CloseFlow { local_flow } => {
                if let Some(port) = self.sessions.port_of(from) {
                    if let Some(flow) = self.sessions.close_flow(port, local_flow) {
                        self.retire_flow(flow);
                    }
                }
            }
            ClientOp::Join(group) => {
                if let Some(port) = self.sessions.port_of(from) {
                    let mut ga = self.bufs.take_group();
                    self.groups.join(group, port, &mut ga);
                    self.dispatch_group(ctx, ga);
                }
            }
            ClientOp::Leave(group) => {
                if let Some(port) = self.sessions.port_of(from) {
                    let mut ga = self.bufs.take_group();
                    self.groups.leave(group, port, &mut ga);
                    self.dispatch_group(ctx, ga);
                }
            }
            ClientOp::Disconnect => {
                if let Some(port) = self.sessions.port_of(from) {
                    for flow in self.sessions.disconnect(port) {
                        self.retire_flow(flow);
                    }
                    let mut ga = self.bufs.take_group();
                    self.groups.drop_client(port, &mut ga);
                    self.dispatch_group(ctx, ga);
                }
            }
        }
    }

    /// Removes every trace of a closed flow from the shared state: the flow
    /// context (upstream link, cached stamp, pause/credit state, counter
    /// handles) and its de-duplication window.
    fn retire_flow(&mut self, flow: crate::addr::FlowKey) {
        self.flows.close(&flow);
        self.dedup.forget(&flow);
    }
}
