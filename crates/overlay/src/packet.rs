//! Wire formats: overlay data packets, link-level control, shared-state
//! control plane, and the client/daemon session protocol.
//!
//! Everything that crosses a simulated pipe or the client/daemon boundary is
//! a [`Wire`] value. Sizes reported to the simulator approximate a compact
//! binary encoding so bandwidth and overhead accounting are meaningful.

use bytes::Bytes;
use son_netsim::process::{MessageKind, SimMessage};
use son_netsim::time::SimTime;
use son_obs::trace::{TraceContext, TRACE_CONTEXT_BYTES};
use son_topo::{EdgeId, EdgeMask, NodeId};

use crate::addr::{Destination, FlowKey, GroupId, OverlayAddr};
use crate::service::FlowSpec;

mod adverts;
pub use adverts::Adverts;

/// Approximate size of the fixed data-packet header on the wire.
pub const DATA_HEADER_BYTES: usize = 48;
/// Approximate wire size of a source-route bitmask stamp.
pub const MASK_BYTES: usize = 32;

/// An overlay data packet.
///
/// The flow's [`FlowSpec`] rides in the header; a production system installs
/// per-flow state at session setup instead, but carrying it keeps the
/// simulator honest (every node processes packets of a flow identically)
/// while charging the same few header bytes a flow-id lookup would need.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// End-to-end flow identity (ingress address → destination).
    pub flow: FlowKey,
    /// Per-flow sequence number assigned at the ingress node.
    pub flow_seq: u64,
    /// The ingress overlay node that introduced the packet.
    pub origin: NodeId,
    /// The services selected for the flow.
    pub spec: FlowSpec,
    /// Source-route stamp (set when the routing service is source-based).
    pub mask: Option<EdgeMask>,
    /// For anycast flows: the member node the ingress resolved the packet to.
    pub resolved_dst: Option<NodeId>,
    /// Per-link sequence number for the *current* hop's link protocol;
    /// rewritten at every hop.
    pub link_seq: u64,
    /// When the source client handed the packet to the overlay.
    pub created_at: SimTime,
    /// Payload size in bytes (the payload itself may be synthetic).
    pub size: usize,
    /// Optional real payload content.
    pub payload: Bytes,
    /// Remaining hop budget; guards against forwarding loops.
    pub ttl: u8,
    /// Authentication tag over (origin, flow, seq), keyed by the origin's
    /// node key; `0` when authentication is disabled.
    pub auth_tag: u64,
    /// Distributed-tracing context. `Some` iff the ingress sampled this
    /// packet; every daemon on the path then records trace events for it
    /// and bumps the hop counter per overlay link.
    pub trace: Option<TraceContext>,
}

impl DataPacket {
    /// The wire size of this packet.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        DATA_HEADER_BYTES
            + if self.mask.is_some() { MASK_BYTES } else { 0 }
            + if self.trace.is_some() {
                TRACE_CONTEXT_BYTES
            } else {
                0
            }
            + self.size
    }
}

/// Link-level control traffic, scoped to the pipe it arrives on and the
/// protocol slot it addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkCtl {
    /// Reliable Data Link acknowledgment: cumulative + selective.
    ReliableAck {
        /// All link sequence numbers `<= cum` have been received.
        cum: u64,
        /// Sequence numbers received beyond the cumulative point.
        selective: Vec<u64>,
    },
    /// Reliable Data Link negative acknowledgment (gap report) for fast
    /// retransmit.
    ReliableNack {
        /// The missing link sequence numbers.
        missing: Vec<u64>,
    },
    /// NM-Strikes retransmission request (one of the receiver's N strikes).
    RtRequest {
        /// The missing link sequence numbers being requested.
        seqs: Vec<u64>,
        /// Which of the N strikes this is (diagnostics only).
        strike: u8,
    },
    /// Intrusion-Tolerant Reliable backpressure, cumulative: the upstream
    /// sender may have sent this many packets of one flow in all. `0`, which
    /// no real grant is, is the sender's persist probe asking for a repeat.
    Credit {
        /// The flow being granted credit.
        flow: FlowKey,
        /// Packets of the flow consumed downstream, plus the window.
        granted_upto: u64,
    },
    /// A FEC repair packet covering one block of data packets. Carries the
    /// headers of the covered packets (what a Reed–Solomon decode would
    /// reconstruct); its wire size is charged as one full-size packet plus
    /// the covered headers. Covered packets must have their payloads
    /// stripped at construction (the repair symbol encodes them, it does
    /// not carry them).
    FecRepair {
        /// First link sequence number of the covered block.
        block_start: u64,
        /// Which repair packet of the block this is (0-based).
        index: u8,
        /// Headers of the covered data packets, payloads stripped.
        covered: Vec<DataPacket>,
    },
}

impl LinkCtl {
    /// Approximate wire size.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            LinkCtl::ReliableAck { selective, .. } => 24 + 8 * selective.len(),
            LinkCtl::ReliableNack { missing } => 16 + 8 * missing.len(),
            LinkCtl::RtRequest { seqs, .. } => 17 + 8 * seqs.len(),
            LinkCtl::Credit { .. } => 36,
            // A repair symbol is as large as the largest covered packet,
            // plus one header per covered packet so the decoder knows what
            // it is reconstructing.
            LinkCtl::FecRepair { covered, .. } => {
                debug_assert!(
                    covered.iter().all(|p| p.payload.is_empty()),
                    "FecRepair covered packets must be payload-stripped"
                );
                16 + covered.iter().map(DataPacket::wire_size).max().unwrap_or(0)
                    + DATA_HEADER_BYTES * covered.len()
            }
        }
    }
}

/// One overlay node's advertised view of an incident overlay link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAdvert {
    /// The overlay link being described.
    pub edge: EdgeId,
    /// Liveness as seen by the advertising endpoint.
    pub up: bool,
    /// Measured one-way latency estimate in milliseconds.
    pub latency_ms: f64,
    /// Measured loss-rate estimate in `[0, 1]`.
    pub loss: f64,
}

impl LinkAdvert {
    /// The largest latency an advertisement may claim, in milliseconds.
    /// Route weights are sums and means of advertised latencies, so the
    /// bound keeps any number of adverts for one edge finite.
    pub const MAX_LATENCY_MS: f64 = 1e9;

    /// Whether the measurements are ones a correct node can have made: a
    /// finite latency in `[0, MAX_LATENCY_MS]` (zero is what a link faster
    /// than the 0.25 ms advertising quantum rounds to) and a loss rate in
    /// `[0, 1]`. Anything else — `inf`, NaN, a negative — is forged or
    /// corrupt, and would poison every weight computed from it.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        (0.0..=Self::MAX_LATENCY_MS).contains(&self.latency_ms) && (0.0..=1.0).contains(&self.loss)
    }
}

/// A link-state advertisement flooded by every node about its own links
/// (the Connectivity Graph Maintenance shared state, §II-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Lsa {
    /// The node whose links are described.
    pub origin: NodeId,
    /// Monotonic per-origin sequence number; higher replaces lower.
    pub seq: u64,
    /// State of every link incident to `origin`: one immutable allocation
    /// per LSA version, shared by every copy of the LSA and by every
    /// link-state database in the process that accepted it.
    pub links: Adverts,
}

/// A group-membership advertisement flooded by every node about its own
/// clients (the Group State shared state, §II-B). Carries the full current
/// set, so it is idempotent and tolerates loss.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupUpdate {
    /// The node whose client membership is described.
    pub origin: NodeId,
    /// Monotonic per-origin sequence number; higher replaces lower.
    pub seq: u64,
    /// Every group in which `origin` currently has at least one client.
    pub groups: Vec<GroupId>,
}

/// Liveness status of an overlay member as carried in membership frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// The member is believed alive and routable.
    Up,
    /// The member stopped responding (crash-suspected); its state is
    /// evicted after the membership hold-down.
    Down,
    /// The member announced a graceful departure; its state is evicted
    /// without a hold-down.
    Left,
}

/// One member's liveness as carried in membership frames: 13 wire bytes
/// (node `u32`, incarnation `u64`, status `u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberInfo {
    /// The member being described.
    pub node: NodeId,
    /// SWIM-style incarnation number: bumped by the member itself on every
    /// restart, so a recovered node overrides stale Down/Left records.
    pub incarnation: u64,
    /// The member's liveness as believed by the frame's origin.
    pub status: MemberStatus,
}

/// Control-plane traffic between overlay neighbors.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// Periodic liveness + quality probe on an overlay link.
    Hello {
        /// Monotonic hello sequence (loss estimation).
        seq: u64,
        /// Send timestamp (latency estimation via the echo).
        sent_at: SimTime,
    },
    /// Echo of a received hello.
    HelloAck {
        /// The probe's sequence number.
        seq: u64,
        /// The probe's original send timestamp, echoed back.
        echo_sent_at: SimTime,
    },
    /// Flooded link-state advertisement.
    Lsa(Lsa),
    /// Flooded group-membership advertisement.
    GroupUpdate(GroupUpdate),
    /// Per-epoch forwarding receipt sent to the upstream neighbor when the
    /// anomaly watchdog is enabled: how much data arrived on the link during
    /// the last watch epoch and how much of it made progress (delivered,
    /// forwarded, or legitimately dropped). A compromised node's *daemon*
    /// reports honestly — only its forwarding verdicts are adversarial — so
    /// a blackhole signs its own confession: `received` high, `progressed`
    /// near zero.
    WatchReceipt {
        /// Data packets received on the link during the epoch.
        received: u64,
        /// How many of those made progress past the adversary check.
        progressed: u64,
    },
    /// Bootstrap request from a (re)joining node, sent to a seed neighbor.
    /// The seed replies with [`Control::JoinAck`] and floods the new
    /// member's liveness to the rest of the overlay.
    Join {
        /// The joining node.
        node: NodeId,
        /// The joiner's current incarnation number.
        incarnation: u64,
    },
    /// Seed's reply to a [`Control::Join`]: the full membership view, so
    /// the joiner starts from an up-to-date roster instead of waiting for
    /// per-origin floods.
    JoinAck {
        /// Every member the seed knows about.
        members: Vec<MemberInfo>,
    },
    /// Graceful-departure announcement, flooded overlay-wide. Receivers
    /// mark the node `Left` and evict its shared state without a hold-down.
    Leave {
        /// The departing node.
        node: NodeId,
        /// Its incarnation at departure; a later restart refutes the Left
        /// record with a higher incarnation.
        incarnation: u64,
    },
    /// Flooded membership delta: the origin's changed liveness records,
    /// sequenced per origin like an LSA so stale floods are dropped.
    MembershipUpdate {
        /// The node whose view changed.
        origin: NodeId,
        /// Monotonic per-origin sequence number; higher replaces lower.
        seq: u64,
        /// The changed liveness records.
        members: Vec<MemberInfo>,
    },
}

impl Control {
    /// Approximate wire size.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            Control::Hello { .. } | Control::HelloAck { .. } | Control::WatchReceipt { .. } => 24,
            Control::Lsa(lsa) => 16 + 13 * lsa.links.len(),
            Control::GroupUpdate(gu) => 16 + 4 * gu.groups.len(),
            // The membership frames charge their exact encoded size (frame
            // header + body); `wire_roundtrip` pins this with byte-for-byte
            // assertions.
            Control::Join { .. } | Control::Leave { .. } => 20,
            Control::JoinAck { members } => 10 + 13 * members.len(),
            Control::MembershipUpdate { members, .. } => 22 + 13 * members.len(),
        }
    }
}

/// Client-to-daemon session operations (the session interface, §II-B).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Attach to the daemon on a virtual port.
    Connect {
        /// The requested virtual port.
        port: u16,
    },
    /// Register a flow: destination plus selected services.
    OpenFlow {
        /// Client-chosen local flow handle.
        local_flow: u32,
        /// Where the flow's packets go.
        dst: Destination,
        /// The services selected for the flow.
        spec: FlowSpec,
    },
    /// Send one message on a previously opened flow.
    Send {
        /// The flow handle from [`ClientOp::OpenFlow`].
        local_flow: u32,
        /// Payload size in bytes.
        size: usize,
        /// Optional payload content.
        payload: Bytes,
    },
    /// Close a previously opened flow: the daemon retires every per-flow
    /// trace (flow context, dedup window, send state).
    CloseFlow {
        /// The flow handle from [`ClientOp::OpenFlow`].
        local_flow: u32,
    },
    /// Join a multicast/anycast group (receivers only need to join).
    Join(GroupId),
    /// Leave a group.
    Leave(GroupId),
    /// Detach from the daemon.
    Disconnect,
}

/// Daemon-to-client session events.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The connection is established at this overlay address.
    Connected {
        /// The address assigned to the client.
        addr: OverlayAddr,
    },
    /// A message addressed to this client has been delivered.
    Deliver {
        /// The flow it belongs to.
        flow: FlowKey,
        /// Its end-to-end sequence number.
        seq: u64,
        /// Payload size in bytes.
        size: usize,
        /// Optional payload content.
        payload: Bytes,
        /// When the source handed it to the overlay.
        created_at: SimTime,
    },
    /// Backpressure: stop sending on this flow (IT-Reliable, §IV-B).
    FlowPaused {
        /// The client's local flow handle.
        local_flow: u32,
    },
    /// Backpressure released: sending may resume.
    FlowResumed {
        /// The client's local flow handle.
        local_flow: u32,
    },
}

/// Everything that travels through the simulator in an overlay deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// Overlay data between daemons.
    Data(DataPacket),
    /// Link-protocol control between neighboring daemons, addressed to one
    /// service slot (several protocols use acknowledgments).
    Ctl {
        /// The service slot the control belongs to (see `LinkService::slot`).
        slot: u8,
        /// The control payload.
        ctl: LinkCtl,
    },
    /// Shared-state control plane between neighboring daemons.
    Control(Control),
    /// Client-to-daemon session traffic.
    FromClient(ClientOp),
    /// Daemon-to-client session traffic.
    ToClient(SessionEvent),
    /// A raw datagram from an *unmodified* application, captured by an
    /// [`Interceptor`](crate::intercept::Interceptor) (§II-B's "seamless
    /// packet interception techniques"). The application knows nothing
    /// about flows or services; the interceptor maps these onto overlay
    /// flows by policy.
    Raw {
        /// Destination in the overlay address space.
        to: OverlayAddr,
        /// Payload size in bytes.
        size: usize,
        /// Payload content.
        payload: Bytes,
    },
}

/// A link frame crosses a simulated pipe as its [`crate::wire`] bytes, and
/// an LSA's frame carries the sender's adverts as the decoder's hint
/// ([`crate::wire::decode_reusing`]): a flood leaves one copy of each LSA
/// version in the process, not one per daemon.
impl SimMessage for Wire {
    type Hint = Option<Adverts>;

    #[inline]
    fn wire_size(&self) -> usize {
        match self {
            Wire::Data(d) => d.wire_size(),
            Wire::Ctl { ctl, .. } => 1 + ctl.wire_size(),
            Wire::Control(c) => c.wire_size(),
            // Session traffic is local IPC; size only matters if a client is
            // attached over a remote pipe.
            Wire::FromClient(ClientOp::Send { size, .. }) => 16 + size,
            Wire::FromClient(_) => 16,
            Wire::ToClient(SessionEvent::Deliver { size, .. }) => 32 + size,
            Wire::ToClient(_) => 16,
            Wire::Raw { size, .. } => 8 + size,
        }
    }

    #[inline]
    fn kind(&self) -> MessageKind {
        match self {
            // Only overlay data packets are data-plane traffic; everything
            // else (acks, hellos, LSAs, session IPC) is control for drop
            // attribution purposes.
            Wire::Data(d) => MessageKind::Data {
                flow: d.flow.stable_id(),
                seq: d.flow_seq,
            },
            _ => MessageKind::Control,
        }
    }

    #[inline]
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        if let Err(e) = crate::wire::encode_into(self, buf) {
            panic!("link frames round-trip the wire codec losslessly: {e}");
        }
    }

    #[inline]
    fn frame_hint(&self) -> Option<Adverts> {
        match self {
            Wire::Control(Control::Lsa(lsa)) => Some(lsa.links.clone()),
            _ => None,
        }
    }

    #[inline]
    fn decode_frame(frame: &[u8], hint: &Option<Adverts>) -> Wire {
        match crate::wire::decode_reusing(frame, hint.as_ref()) {
            Ok(wire) => wire,
            Err(e) => panic!("link frames round-trip the wire codec losslessly: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DestKey;
    use son_netsim::time::SimDuration;

    /// Every hand-off of a frame — into the event slab, out to a handler,
    /// in and out of a link protocol's batch — moves one of these by value,
    /// so a field added to any of them is paid on every hop of every
    /// packet. The ceilings are today's sizes: raising one is a decision
    /// (measure `cpu_us_per_delivered_pkt` first), not a side effect.
    #[test]
    fn hand_off_types_do_not_grow_unnoticed() {
        use crate::linkproto::LinkAction;
        use std::mem::size_of;
        assert!(
            size_of::<DataPacket>() <= 280,
            "{}",
            size_of::<DataPacket>()
        );
        assert!(size_of::<Wire>() <= 280, "{}", size_of::<Wire>());
        assert!(
            size_of::<LinkAction>() <= 288,
            "{}",
            size_of::<LinkAction>()
        );
        // A frame waits in the event slab as its encoded bytes, its hint
        // and its addressing, never as a `Wire`.
        let queued = son_netsim::sim::queued_event_bytes::<Wire>();
        assert!(queued <= 64, "{queued}");
    }

    fn packet(mask: Option<EdgeMask>, size: usize) -> DataPacket {
        DataPacket {
            flow: FlowKey {
                src: OverlayAddr::new(NodeId(0), 1),
                dst: DestKey::Unicast(OverlayAddr::new(NodeId(5), 2)),
            },
            flow_seq: 7,
            origin: NodeId(0),
            spec: FlowSpec::reliable(),
            mask,
            resolved_dst: None,
            link_seq: 0,
            created_at: SimTime::ZERO,
            size,
            payload: Bytes::new(),
            ttl: 32,
            auth_tag: 0,
            trace: None,
        }
    }

    #[test]
    fn data_sizes_account_for_mask_and_payload() {
        assert_eq!(packet(None, 1000).wire_size(), DATA_HEADER_BYTES + 1000);
        assert_eq!(
            packet(Some(EdgeMask::EMPTY), 1000).wire_size(),
            DATA_HEADER_BYTES + MASK_BYTES + 1000
        );
    }

    #[test]
    fn data_sizes_account_for_trace_context() {
        let mut p = packet(None, 1000);
        p.trace = Some(TraceContext { id: 9, hop: 0 });
        assert_eq!(
            p.wire_size(),
            DATA_HEADER_BYTES + TRACE_CONTEXT_BYTES + 1000
        );
    }

    #[test]
    fn ctl_sizes_scale_with_content() {
        let small = LinkCtl::ReliableAck {
            cum: 5,
            selective: vec![],
        };
        let big = LinkCtl::ReliableAck {
            cum: 5,
            selective: vec![7, 9, 11],
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(
            LinkCtl::Credit {
                flow: packet(None, 0).flow,
                granted_upto: 4
            }
            .wire_size(),
            36
        );
        assert_eq!(
            LinkCtl::RtRequest {
                seqs: vec![1, 2],
                strike: 0
            }
            .wire_size(),
            17 + 16
        );
        assert_eq!(LinkCtl::ReliableNack { missing: vec![3] }.wire_size(), 24);
    }

    #[test]
    fn control_sizes_scale_with_content() {
        let hello = Control::Hello {
            seq: 1,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(hello.wire_size(), 24);
        let lsa = Control::Lsa(Lsa {
            origin: NodeId(0),
            seq: 1,
            links: Adverts::from([LinkAdvert {
                edge: EdgeId(0),
                up: true,
                latency_ms: 10.0,
                loss: 0.0,
            }]),
        });
        assert_eq!(lsa.wire_size(), 29);
        let gu = Control::GroupUpdate(GroupUpdate {
            origin: NodeId(0),
            seq: 1,
            groups: vec![GroupId(1), GroupId(2)],
        });
        assert_eq!(gu.wire_size(), 24);
    }

    #[test]
    fn membership_sizes_scale_with_content() {
        let member = MemberInfo {
            node: NodeId(3),
            incarnation: 2,
            status: MemberStatus::Up,
        };
        assert_eq!(
            Control::Join {
                node: NodeId(1),
                incarnation: 0
            }
            .wire_size(),
            20
        );
        assert_eq!(
            Control::Leave {
                node: NodeId(1),
                incarnation: 4
            }
            .wire_size(),
            20
        );
        assert_eq!(Control::JoinAck { members: vec![] }.wire_size(), 10);
        assert_eq!(
            Control::JoinAck {
                members: vec![member; 3]
            }
            .wire_size(),
            10 + 39
        );
        assert_eq!(
            Control::MembershipUpdate {
                origin: NodeId(0),
                seq: 1,
                members: vec![member]
            }
            .wire_size(),
            35
        );
    }

    #[test]
    fn only_data_wires_are_data_kind() {
        let p = packet(None, 100);
        let expected = MessageKind::Data {
            flow: p.flow.stable_id(),
            seq: p.flow_seq,
        };
        assert_eq!(Wire::Data(p).kind(), expected);
        assert_eq!(
            Wire::Control(Control::Hello {
                seq: 1,
                sent_at: SimTime::ZERO
            })
            .kind(),
            MessageKind::Control
        );
        assert_eq!(
            Wire::Ctl {
                slot: 1,
                ctl: LinkCtl::ReliableNack { missing: vec![2] }
            }
            .kind(),
            MessageKind::Control
        );
    }

    #[test]
    fn wire_dispatches_sizes() {
        let w = Wire::Data(packet(None, 100));
        assert_eq!(w.wire_size(), DATA_HEADER_BYTES + 100);
        let c = Wire::FromClient(ClientOp::Send {
            local_flow: 0,
            size: 500,
            payload: Bytes::new(),
        });
        assert_eq!(c.wire_size(), 516);
        let e = Wire::ToClient(SessionEvent::FlowPaused { local_flow: 0 });
        assert_eq!(e.wire_size(), 16);
        let _ = SimDuration::ZERO;
    }
}
