//! The session interface (Fig. 2): client connections, per-flow state, and
//! destination-side delivery semantics.
//!
//! "The session interface is responsible for managing client connections,
//! with each client connection treated as a separate flow."
//!
//! Delivery semantics live here because the paper assigns them to the final
//! destination: intermediate nodes forward out of order, and "the final
//! destination is responsible for buffering received packets until they can
//! be delivered in order" (§III-A); for real-time flows, "if a recovered
//! packet arrives after later packets were already delivered, it is
//! discarded" (§IV-A).

use std::collections::{BTreeMap, HashMap};

use son_netsim::hash::MintedMap;
use son_netsim::process::ProcessId;
use son_netsim::time::{SimDuration, SimTime};
use son_topo::NodeId;

use crate::addr::{Destination, FlowKey, OverlayAddr, VirtualPort};
use crate::packet::{DataPacket, SessionEvent};
use crate::service::FlowSpec;

/// How long an ordered flow without a deadline holds out-of-order packets
/// before giving up on the gap. Far above any hop-by-hop recovery time, so
/// reliable flows are unaffected unless the missing packets are truly gone.
pub const DEFAULT_ORDERED_HOLD: SimDuration = SimDuration::from_secs(1);

/// What the session layer asks the node to do.
#[derive(Debug)]
pub enum SessionAction {
    /// Deliver a session event to the client on `port`.
    ToClient {
        /// The client's virtual port.
        port: VirtualPort,
        /// The event.
        event: SessionEvent,
    },
    /// Arm a timer; `token` returns via `on_timer`.
    Timer {
        /// Delay until expiry.
        delay: SimDuration,
        /// Discriminator echoed back.
        token: u32,
    },
}

/// Errors from session operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The virtual port is already bound by another client.
    PortInUse(VirtualPort),
    /// The port is not connected.
    NotConnected(VirtualPort),
    /// The client referenced a flow it never opened.
    UnknownFlow(u32),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::PortInUse(p) => write!(f, "virtual port {} already in use", p.0),
            SessionError::NotConnected(p) => write!(f, "virtual port {} not connected", p.0),
            SessionError::UnknownFlow(id) => write!(f, "unknown local flow {id}"),
        }
    }
}

impl std::error::Error for SessionError {}

#[derive(Debug)]
struct OutFlow {
    key: FlowKey,
    spec: FlowSpec,
    next_seq: u64,
}

/// Destination-side delivery statistics for one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Packets handed to clients.
    pub delivered: u64,
    /// Packets discarded because they arrived after their deadline or after
    /// later packets had already been delivered.
    pub discarded_late: u64,
    /// Sequence numbers skipped by deadline-driven gap release.
    pub skipped: u64,
}

#[derive(Debug, Default)]
struct InFlow {
    next_expected: u64,
    buffer: BTreeMap<u64, DataPacket>,
    stats: DeliveryStats,
}

/// The session table of one overlay node.
#[derive(Debug)]
pub struct SessionTable {
    me: NodeId,
    clients: MintedMap<VirtualPort, ProcessId>,
    out_flows: MintedMap<(VirtualPort, u32), OutFlow>,
    /// Reverse index for backpressure: flow -> (port, local id).
    by_key: HashMap<FlowKey, (VirtualPort, u32)>,
    in_flows: HashMap<FlowKey, InFlow>,
    timer_purpose: MintedMap<u32, (FlowKey, u64)>,
    next_token: u32,
}

impl SessionTable {
    /// Creates an empty session table for node `me`.
    #[must_use]
    pub fn new(me: NodeId) -> Self {
        SessionTable {
            me,
            clients: MintedMap::default(),
            out_flows: MintedMap::default(),
            by_key: HashMap::new(),
            in_flows: HashMap::new(),
            timer_purpose: MintedMap::default(),
            next_token: 0,
        }
    }

    /// Connects a client process on a virtual port.
    ///
    /// # Errors
    ///
    /// [`SessionError::PortInUse`] if the port is taken.
    pub fn connect(
        &mut self,
        port: VirtualPort,
        proc: ProcessId,
        out: &mut Vec<SessionAction>,
    ) -> Result<OverlayAddr, SessionError> {
        if self.clients.contains_key(&port) {
            return Err(SessionError::PortInUse(port));
        }
        self.clients.insert(port, proc);
        let addr = OverlayAddr {
            node: self.me,
            port,
        };
        out.push(SessionAction::ToClient {
            port,
            event: SessionEvent::Connected { addr },
        });
        Ok(addr)
    }

    /// Disconnects a client, dropping its flows. Returns the keys of the
    /// dropped flows so the node can retire their shared state (flow
    /// contexts, dedup windows).
    pub fn disconnect(&mut self, port: VirtualPort) -> Vec<FlowKey> {
        self.clients.remove(&port);
        let gone: Vec<(VirtualPort, u32)> = self
            .out_flows
            .keys()
            .filter(|(p, _)| *p == port)
            .copied()
            .collect();
        let mut keys = Vec::with_capacity(gone.len());
        for k in gone {
            if let Some(f) = self.out_flows.remove(&k) {
                self.by_key.remove(&f.key);
                keys.push(f.key);
            }
        }
        keys
    }

    /// The simulator process serving a connected port.
    #[must_use]
    pub fn client_proc(&self, port: VirtualPort) -> Option<ProcessId> {
        self.clients.get(&port).copied()
    }

    /// The lowest port the client process `proc` is connected on: a scan of
    /// the connected clients that allocates nothing, made once per client
    /// operation.
    #[must_use]
    pub fn port_of(&self, proc: ProcessId) -> Option<VirtualPort> {
        self.clients
            .iter()
            .filter(|&(_, &p)| p == proc)
            .map(|(&port, _)| port)
            .min()
    }

    /// Connected ports, ascending.
    #[must_use]
    pub fn ports(&self) -> Vec<VirtualPort> {
        let mut v: Vec<VirtualPort> = self.clients.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Registers an outgoing flow for a connected client.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotConnected`] if the port is not connected.
    pub fn open_flow(
        &mut self,
        port: VirtualPort,
        local_flow: u32,
        dst: Destination,
        spec: FlowSpec,
    ) -> Result<FlowKey, SessionError> {
        if !self.clients.contains_key(&port) {
            return Err(SessionError::NotConnected(port));
        }
        let key = FlowKey::new(
            OverlayAddr {
                node: self.me,
                port,
            },
            dst,
        );
        self.out_flows.insert(
            (port, local_flow),
            OutFlow {
                key,
                spec,
                next_seq: 0,
            },
        );
        self.by_key.insert(key, (port, local_flow));
        Ok(key)
    }

    /// Closes one outgoing flow, returning its key so the node can retire
    /// the flow's shared state. `None` if the client never opened it.
    pub fn close_flow(&mut self, port: VirtualPort, local_flow: u32) -> Option<FlowKey> {
        let f = self.out_flows.remove(&(port, local_flow))?;
        self.by_key.remove(&f.key);
        Some(f.key)
    }

    /// Prepares the next send on a flow: returns `(key, spec, seq)` the node
    /// uses to build the packet.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownFlow`] if the flow was never opened.
    pub fn next_send(
        &mut self,
        port: VirtualPort,
        local_flow: u32,
    ) -> Result<(FlowKey, FlowSpec, u64), SessionError> {
        let f = self
            .out_flows
            .get_mut(&(port, local_flow))
            .ok_or(SessionError::UnknownFlow(local_flow))?;
        f.next_seq += 1;
        Ok((f.key, f.spec, f.next_seq))
    }

    /// The local client binding of an outgoing flow — `(port, local id)` —
    /// if this node originated it. Backpressure state itself lives in the
    /// shared [`FlowTable`](crate::flow::FlowTable); the node uses this
    /// binding to route pause/resume events to the owning client.
    #[must_use]
    pub fn local_binding(&self, flow: &FlowKey) -> Option<(VirtualPort, u32)> {
        self.by_key.get(flow).copied()
    }

    /// Delivery statistics for an incoming flow.
    #[must_use]
    pub fn delivery_stats(&self, flow: FlowKey) -> DeliveryStats {
        self.in_flows
            .get(&flow)
            .map_or(DeliveryStats::default(), |f| f.stats)
    }

    /// Handles a packet that reached this node for local delivery to
    /// `targets` (the local ports interested in it).
    ///
    /// Applies the flow's delivery semantics: immediate for unordered flows;
    /// reorder buffering for ordered flows; deadline-based skip/discard for
    /// ordered flows with deadlines.
    pub fn deliver(
        &mut self,
        now: SimTime,
        pkt: DataPacket,
        targets: &[VirtualPort],
        out: &mut Vec<SessionAction>,
    ) {
        let flow = pkt.flow;
        let spec = pkt.spec;
        let state = self.in_flows.entry(flow).or_default();

        // Deadline check on arrival: a packet past its one-way deadline is
        // useless to a deadline-bound application.
        if let Some(deadline) = spec.deadline {
            if now > pkt.created_at + deadline {
                state.stats.discarded_late += 1;
                return;
            }
        }

        if !spec.ordered {
            state.next_expected = state.next_expected.max(pkt.flow_seq);
            state.stats.delivered += 1;
            push_deliver(&pkt, targets, out);
            return;
        }

        // Ordered delivery.
        if state.next_expected == 0 {
            state.next_expected = 1;
        }
        if pkt.flow_seq < state.next_expected {
            // Recovered too late: later packets were already delivered.
            state.stats.discarded_late += 1;
            return;
        }
        if pkt.flow_seq == state.next_expected {
            state.stats.delivered += 1;
            state.next_expected += 1;
            push_deliver(&pkt, targets, out);
            // Flush the contiguous run in the buffer.
            while let Some(next) = state.buffer.remove(&state.next_expected) {
                state.stats.delivered += 1;
                state.next_expected += 1;
                push_deliver(&next, targets, out);
            }
            return;
        }
        // A gap: buffer, and arm a release timer so the buffered packet is
        // not held forever. Deadline flows release at the packet's own
        // deadline; other ordered flows get a generous hold that outlives
        // any hop-by-hop recovery but bounds head-of-line blocking when the
        // missing packets will never come (e.g. a destination that started
        // receiving mid-stream after an anycast failover or late join).
        let seq = pkt.flow_seq;
        let created = pkt.created_at;
        state.buffer.insert(seq, pkt);
        let delay = match spec.deadline {
            Some(deadline) => (created + deadline).saturating_since(now),
            None => DEFAULT_ORDERED_HOLD,
        };
        let token = self.next_token;
        self.next_token = self.next_token.wrapping_add(1);
        self.timer_purpose.insert(token, (flow, seq));
        out.push(SessionAction::Timer { delay, token });
    }

    /// The flow a pending release timer belongs to, so the node can compute
    /// the current local delivery targets before calling
    /// [`SessionTable::on_timer`].
    #[must_use]
    pub fn timer_flow(&self, token: u32) -> Option<FlowKey> {
        self.timer_purpose.get(&token).map(|&(flow, _)| flow)
    }

    /// Handles a deadline-release timer: skips missing sequence numbers so
    /// the buffered packet is delivered before it goes stale.
    pub fn on_timer(
        &mut self,
        _now: SimTime,
        token: u32,
        targets: &[VirtualPort],
        out: &mut Vec<SessionAction>,
    ) {
        let Some((flow, seq)) = self.timer_purpose.remove(&token) else {
            return;
        };
        let Some(state) = self.in_flows.get_mut(&flow) else {
            return;
        };
        if seq < state.next_expected || !state.buffer.contains_key(&seq) {
            return; // already delivered or otherwise resolved
        }
        // Skip everything missing up to the first buffered packet, then
        // flush the contiguous run.
        let first_buffered = *state.buffer.keys().next().expect("buffer non-empty");
        state.stats.skipped += first_buffered - state.next_expected;
        state.next_expected = first_buffered;
        while let Some(next) = state.buffer.remove(&state.next_expected) {
            state.stats.delivered += 1;
            state.next_expected += 1;
            push_deliver(&next, targets, out);
        }
    }
}

fn push_deliver(pkt: &DataPacket, targets: &[VirtualPort], out: &mut Vec<SessionAction>) {
    for &port in targets {
        out.push(SessionAction::ToClient {
            port,
            event: SessionEvent::Deliver {
                flow: pkt.flow,
                seq: pkt.flow_seq,
                size: pkt.size,
                payload: pkt.payload.clone(),
                created_at: pkt.created_at,
            },
        });
    }
}

impl son_obs::MemFootprint for SessionTable {
    fn footprint_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, hashmap_bytes};
        let held: usize = self
            .in_flows
            .values()
            .map(|f| {
                btreemap_bytes(&f.buffer)
                    + f.buffer.values().map(|p| p.payload.len()).sum::<usize>()
            })
            .sum();
        hashmap_bytes(&self.clients)
            + hashmap_bytes(&self.out_flows)
            + hashmap_bytes(&self.by_key)
            + hashmap_bytes(&self.in_flows)
            + hashmap_bytes(&self.timer_purpose)
            + held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GroupId;
    use bytes::Bytes;

    fn pkt(seq: u64, spec: FlowSpec, created_ms: u64) -> DataPacket {
        DataPacket {
            flow: FlowKey::new(
                OverlayAddr::new(NodeId(0), 1),
                Destination::Unicast(OverlayAddr::new(NodeId(1), 2)),
            ),
            flow_seq: seq,
            origin: NodeId(0),
            spec,
            mask: None,
            resolved_dst: None,
            link_seq: 0,
            created_at: SimTime::from_millis(created_ms),
            size: 100,
            payload: Bytes::new(),
            ttl: 32,
            auth_tag: 0,
            trace: None,
        }
    }

    fn delivered_seqs(out: &[SessionAction]) -> Vec<u64> {
        out.iter()
            .filter_map(|a| match a {
                SessionAction::ToClient {
                    event: SessionEvent::Deliver { seq, .. },
                    ..
                } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    const P: VirtualPort = VirtualPort(2);

    fn table() -> SessionTable {
        let mut t = SessionTable::new(NodeId(1));
        let mut out = Vec::new();
        t.connect(P, ProcessId(9), &mut out).unwrap();
        t
    }

    #[test]
    fn connect_assigns_address_and_rejects_duplicates() {
        let mut t = SessionTable::new(NodeId(3));
        let mut out = Vec::new();
        let addr = t.connect(VirtualPort(7), ProcessId(1), &mut out).unwrap();
        assert_eq!(addr, OverlayAddr::new(NodeId(3), 7));
        assert!(matches!(
            out[0],
            SessionAction::ToClient {
                event: SessionEvent::Connected { .. },
                ..
            }
        ));
        assert_eq!(
            t.connect(VirtualPort(7), ProcessId(2), &mut out),
            Err(SessionError::PortInUse(VirtualPort(7)))
        );
        assert_eq!(t.client_proc(VirtualPort(7)), Some(ProcessId(1)));
    }

    #[test]
    fn port_of_answers_a_clients_lowest_port() {
        let mut t = table();
        let mut out = Vec::new();
        // Client 9 holds P (2) and 1; client 10 holds 5.
        t.connect(VirtualPort(5), ProcessId(10), &mut out).unwrap();
        t.connect(VirtualPort(1), ProcessId(9), &mut out).unwrap();
        assert_eq!(t.port_of(ProcessId(9)), Some(VirtualPort(1)));
        assert_eq!(t.port_of(ProcessId(10)), Some(VirtualPort(5)));
        assert_eq!(t.port_of(ProcessId(11)), None);
        t.disconnect(VirtualPort(1));
        assert_eq!(t.port_of(ProcessId(9)), Some(P));
    }

    #[test]
    fn open_flow_and_send_sequence() {
        let mut t = table();
        let key = t
            .open_flow(
                P,
                1,
                Destination::Multicast(GroupId(4)),
                FlowSpec::best_effort(),
            )
            .unwrap();
        assert_eq!(key.src, OverlayAddr::new(NodeId(1), 2));
        let (_, _, s1) = t.next_send(P, 1).unwrap();
        let (_, _, s2) = t.next_send(P, 1).unwrap();
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(t.next_send(P, 99), Err(SessionError::UnknownFlow(99)));
        assert!(t
            .open_flow(
                VirtualPort(50),
                1,
                Destination::Multicast(GroupId(4)),
                FlowSpec::best_effort()
            )
            .is_err());
    }

    #[test]
    fn unordered_delivery_is_immediate() {
        let mut t = table();
        let mut out = Vec::new();
        t.deliver(
            SimTime::from_millis(10),
            pkt(5, FlowSpec::best_effort(), 0),
            &[P],
            &mut out,
        );
        t.deliver(
            SimTime::from_millis(11),
            pkt(2, FlowSpec::best_effort(), 0),
            &[P],
            &mut out,
        );
        assert_eq!(delivered_seqs(&out), vec![5, 2]);
    }

    #[test]
    fn ordered_delivery_buffers_and_flushes() {
        let mut t = table();
        let mut out = Vec::new();
        let spec = FlowSpec::reliable();
        t.deliver(SimTime::from_millis(1), pkt(2, spec, 0), &[P], &mut out);
        assert!(
            delivered_seqs(&out).is_empty(),
            "2 buffered until 1 arrives"
        );
        t.deliver(SimTime::from_millis(2), pkt(3, spec, 0), &[P], &mut out);
        t.deliver(SimTime::from_millis(3), pkt(1, spec, 0), &[P], &mut out);
        assert_eq!(delivered_seqs(&out), vec![1, 2, 3]);
        let flow = pkt(1, spec, 0).flow;
        assert_eq!(t.delivery_stats(flow).delivered, 3);
    }

    #[test]
    fn late_recovery_discarded_after_later_delivered() {
        let mut t = table();
        let spec = FlowSpec::reliable();
        let mut out = Vec::new();
        t.deliver(SimTime::from_millis(1), pkt(1, spec, 0), &[P], &mut out);
        t.deliver(SimTime::from_millis(2), pkt(2, spec, 0), &[P], &mut out);
        out.clear();
        t.deliver(SimTime::from_millis(9), pkt(1, spec, 0), &[P], &mut out);
        assert!(delivered_seqs(&out).is_empty());
        assert_eq!(t.delivery_stats(pkt(1, spec, 0).flow).discarded_late, 1);
    }

    #[test]
    fn deadline_discards_stale_arrivals() {
        let mut t = table();
        let spec = FlowSpec::reliable().with_deadline(SimDuration::from_millis(50));
        let mut out = Vec::new();
        // Created at 0, arrives at 60ms: past the 50ms deadline.
        t.deliver(SimTime::from_millis(60), pkt(1, spec, 0), &[P], &mut out);
        assert!(delivered_seqs(&out).is_empty());
        assert_eq!(t.delivery_stats(pkt(1, spec, 0).flow).discarded_late, 1);
    }

    #[test]
    fn deadline_gap_release_skips_missing() {
        let mut t = table();
        let spec = FlowSpec::reliable().with_deadline(SimDuration::from_millis(50));
        let mut out = Vec::new();
        // seq 1 delivered; 2 lost; 3 buffered with a release timer.
        t.deliver(SimTime::from_millis(10), pkt(1, spec, 5), &[P], &mut out);
        t.deliver(SimTime::from_millis(20), pkt(3, spec, 15), &[P], &mut out);
        assert_eq!(delivered_seqs(&out), vec![1]);
        let (delay, token) = out
            .iter()
            .find_map(|a| match a {
                SessionAction::Timer { delay, token } => Some((*delay, *token)),
                _ => None,
            })
            .expect("release timer armed");
        // Fires at created(15) + 50 = 65ms; now is 20ms, so delay is 45ms.
        assert_eq!(delay, SimDuration::from_millis(45));
        out.clear();
        t.on_timer(SimTime::from_millis(65), token, &[P], &mut out);
        assert_eq!(delivered_seqs(&out), vec![3]);
        let stats = t.delivery_stats(pkt(1, spec, 0).flow);
        assert_eq!(stats.skipped, 1, "seq 2 given up");
        // If 2 shows up now, it is discarded.
        out.clear();
        t.deliver(SimTime::from_millis(66), pkt(2, spec, 16), &[P], &mut out);
        assert!(delivered_seqs(&out).is_empty());
    }

    #[test]
    fn release_timer_noop_when_gap_already_filled() {
        let mut t = table();
        let spec = FlowSpec::reliable().with_deadline(SimDuration::from_millis(50));
        let mut out = Vec::new();
        t.deliver(SimTime::from_millis(10), pkt(1, spec, 5), &[P], &mut out);
        t.deliver(SimTime::from_millis(20), pkt(3, spec, 15), &[P], &mut out);
        let token = out
            .iter()
            .find_map(|a| match a {
                SessionAction::Timer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        // 2 recovered in time: 2 and 3 flush.
        out.clear();
        t.deliver(SimTime::from_millis(30), pkt(2, spec, 10), &[P], &mut out);
        assert_eq!(delivered_seqs(&out), vec![2, 3]);
        out.clear();
        t.on_timer(SimTime::from_millis(65), token, &[P], &mut out);
        assert!(out.is_empty(), "stale release timer is a no-op");
    }

    #[test]
    fn multicast_delivery_fans_out_to_all_local_ports() {
        let mut t = table();
        let mut out = Vec::new();
        t.connect(VirtualPort(5), ProcessId(10), &mut out).unwrap();
        out.clear();
        t.deliver(
            SimTime::from_millis(1),
            pkt(1, FlowSpec::best_effort(), 0),
            &[P, VirtualPort(5)],
            &mut out,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn local_binding_resolves_own_flows_only() {
        let mut t = table();
        let key = t
            .open_flow(
                P,
                3,
                Destination::Unicast(OverlayAddr::new(NodeId(0), 1)),
                FlowSpec::reliable(),
            )
            .unwrap();
        assert_eq!(t.local_binding(&key), Some((P, 3)));
        // A flow this node only transits has no binding.
        let foreign = FlowKey::new(
            OverlayAddr::new(NodeId(7), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(8), 2)),
        );
        assert_eq!(t.local_binding(&foreign), None);
    }

    #[test]
    fn close_flow_removes_binding_and_send_state() {
        let mut t = table();
        let key = t
            .open_flow(
                P,
                3,
                Destination::Unicast(OverlayAddr::new(NodeId(0), 1)),
                FlowSpec::reliable(),
            )
            .unwrap();
        assert_eq!(t.close_flow(P, 99), None, "unknown flow");
        assert_eq!(t.close_flow(P, 3), Some(key));
        assert_eq!(t.local_binding(&key), None);
        assert!(t.next_send(P, 3).is_err());
        assert_eq!(t.close_flow(P, 3), None, "second close is a no-op");
    }

    #[test]
    fn disconnect_cleans_flows() {
        let mut t = table();
        let key = t
            .open_flow(
                P,
                1,
                Destination::Unicast(OverlayAddr::new(NodeId(0), 1)),
                FlowSpec::reliable(),
            )
            .unwrap();
        let dropped = t.disconnect(P);
        assert_eq!(dropped, vec![key]);
        assert_eq!(t.client_proc(P), None);
        assert!(t.next_send(P, 1).is_err());
        assert_eq!(t.local_binding(&key), None);
    }
}
