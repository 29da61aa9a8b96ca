//! Link-level protocols (Fig. 2, Link level).
//!
//! Every overlay link multiplexes one protocol instance per service slot:
//! Best Effort, Reliable Data Link, Real-time (NM-Strikes), Intrusion-
//! Tolerant Priority, Intrusion-Tolerant Reliable, and the FIFO baseline.
//!
//! Protocol instances are *pure state machines*: the daemon feeds them
//! events (`on_send`, `on_data`, `on_ctl`, `on_timer`) and they emit
//! [`LinkAction`]s (transmit, deliver upward, arm a timer, pause a flow).
//! The daemon owns all interaction with the simulator, which keeps the
//! protocols directly unit-testable.
//!
//! Timer discipline: protocols never cancel timers. Both ARQ users keep at
//! most **one** retransmission timer pending per link: the ARQ core
//! (`arq.rs`) gives every unacked packet its own deadline and arms the one
//! timer at the earliest; on expiry it resends what is due and re-arms at
//! the next deadline. Every deadline is at most one RTO away when set, so
//! nothing set later comes before a pending timer, and an idle link has
//! none. An overdue timer was lost with a crash and is replaced at the
//! link's next event. NM-Strikes arms a timer per strike instead; one that
//! fires stale re-checks protocol state and is a no-op.

pub(crate) mod arq;
pub mod best_effort;
pub mod fair;
pub mod fec;
pub mod realtime;
pub mod reliable;

use son_netsim::time::{SimDuration, SimTime};
use son_obs::DropClass;

use crate::addr::FlowKey;
use crate::packet::{DataPacket, LinkCtl};

pub use best_effort::BestEffortLink;
pub use fair::{FifoLink, ItPriorityLink, ItReliableLink};
pub use fec::FecLink;
pub use realtime::RealtimeLink;
pub use reliable::ReliableLink;

/// What a protocol instance wants the daemon to do.
#[derive(Debug)]
pub enum LinkAction {
    /// Put a data packet on this link's wire.
    Transmit(DataPacket),
    /// Put link control on this link's wire.
    TransmitCtl(LinkCtl),
    /// Hand an arriving packet up to the node's forwarding/delivery logic.
    Deliver(DataPacket),
    /// Arm a timer; `token` comes back via `on_timer` after `delay`.
    Timer {
        /// How long until the timer fires.
        delay: SimDuration,
        /// Protocol-chosen discriminator, echoed back on expiry.
        token: u32,
    },
    /// Backpressure: ask the node to pause the local source of this flow
    /// (IT-Reliable only).
    PauseFlow(FlowKey),
    /// Release backpressure on a flow.
    ResumeFlow(FlowKey),
    /// A packet of this flow has left the node (IT-Reliable): the daemon
    /// relays this to the flow's upstream link so it can grant a credit.
    Consumed(FlowKey),
    /// An observability event: the protocol reports a recovery, a
    /// retransmission, or a drop so the node can record it in its metrics
    /// registry. Protocols emit these unconditionally; the node decides what
    /// to record (detail-gated spans vs. always-on counters).
    Observe(LinkEvent),
}

/// Appends a packet-carrying action to a batch. `Vec::push` stages its
/// argument in a temporary ahead of the capacity check and copies it into
/// the buffer afterwards; `extend` writes it in place — one 280-byte move
/// per packet instead of two, on every pass through every protocol.
#[inline(always)]
fn emit(out: &mut Vec<LinkAction>, action: LinkAction) {
    out.extend(Some(action));
}

/// What a link protocol observed, reported via [`LinkAction::Observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// A retransmission (or FEC repair) was put on the wire.
    Retransmit,
    /// The receiver noticed a sequence gap on this link and started
    /// recovery (a NACK for Reliable, a strike schedule for NM-Strikes).
    /// The lost packet itself has not arrived, so the event carries no
    /// packet identity; it feeds the `link.loss_detected` counter and a
    /// node-scope trace marker.
    LossDetected,
    /// A previously missing packet was recovered `after` the receiver first
    /// noticed the gap — the per-hop recovery latency the paper's Fig. 3/5
    /// measure.
    Recovered {
        /// Time from gap detection (or first block arrival, for FEC) to the
        /// recovered packet surfacing at the receiver.
        after: SimDuration,
    },
    /// The protocol dropped a packet, classified in the unified cross-layer
    /// taxonomy ([`DropClass::Expired`] for recovery-budget give-ups,
    /// [`DropClass::BufferFull`] for queue overflow/eviction).
    Drop(DropClass),
}

/// Counters every protocol instance reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkProtoStats {
    /// Original data transmissions requested by the node.
    pub sent: u64,
    /// Retransmissions put on the wire (recovery overhead).
    pub retransmitted: u64,
    /// Control messages put on the wire.
    pub ctl_sent: u64,
    /// Data packets received for the first time.
    pub received: u64,
    /// Duplicate data packets received (and suppressed at the link level).
    pub dup_received: u64,
    /// Packets dropped by this protocol (queue overflow, eviction, give-up).
    pub dropped: u64,
}

impl LinkProtoStats {
    /// Recovery overhead ratio: transmissions per original packet
    /// (the paper's `1 + Mp` cost for NM-Strikes).
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            (self.sent + self.retransmitted) as f64 / self.sent as f64
        }
    }
}

impl std::iter::Sum for LinkProtoStats {
    /// Field-by-field totals: one service over many links or many daemons.
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |t, s| LinkProtoStats {
            sent: t.sent + s.sent,
            retransmitted: t.retransmitted + s.retransmitted,
            ctl_sent: t.ctl_sent + s.ctl_sent,
            received: t.received + s.received,
            dup_received: t.dup_received + s.dup_received,
            dropped: t.dropped + s.dropped,
        })
    }
}

/// A link-level protocol instance (one service slot on one overlay link).
///
/// Implementations are bidirectional: they hold sender state for the local
/// outgoing direction and receiver state for the incoming direction.
/// The `Any` supertrait lets experiments downcast to a concrete protocol to
/// read protocol-specific counters.
pub trait LinkProto: std::fmt::Debug + std::any::Any + Send {
    /// The node wants `pkt` transmitted over this link.
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>);

    /// `pkt` arrived from the neighbor on this link.
    fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>);

    /// Link control arrived from the neighbor on this link.
    fn on_ctl(&mut self, now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>);

    /// A timer armed via [`LinkAction::Timer`] fired.
    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>);

    /// The node accepted a previously delivered packet of `flow` onward
    /// (forwarded it or handed it to a client). Used by IT-Reliable to grant
    /// backpressure credits upstream; a no-op for every other protocol.
    fn on_consumed(&mut self, now: SimTime, flow: FlowKey, out: &mut Vec<LinkAction>) {
        let _ = (now, flow, out);
    }

    /// Current counters.
    fn stats(&self) -> LinkProtoStats;

    /// Packets currently held in this protocol's send-side queues (scheduler
    /// queues plus unacknowledged retransmission buffers). The anomaly
    /// watchdog samples this each evaluation epoch to detect sustained queue
    /// growth; protocols without buffering report 0.
    fn queue_depth(&self) -> usize {
        0
    }

    /// Estimated retained heap bytes of this protocol's buffers (queued and
    /// unacknowledged packets, reassembly state), per the
    /// [`son_obs::MemFootprint`] capacity-estimate policy. Protocols without
    /// buffering report 0.
    fn queue_bytes(&self) -> usize {
        0
    }
}

/// The timer token of a [`Pacer`]'s "serializer free" event (the ARQ timer
/// is `arq::ARQ_TOKEN`).
pub(crate) const TOKEN_TX_DONE: u32 = 0;

/// Egress pacing shared by the fair schedulers: models the node's per-link
/// transmission capacity so that contention (and therefore fairness) exists
/// even over infinite-bandwidth pipes.
#[derive(Debug, Clone)]
pub struct Pacer {
    /// Egress rate in bits per second; `None` disables pacing.
    rate_bps: Option<u64>,
    busy_until: SimTime,
}

impl Pacer {
    /// Creates a pacer with the given egress rate in **bits** per second.
    #[must_use]
    pub fn new(rate_bits_per_sec: Option<u64>) -> Self {
        Pacer {
            rate_bps: rate_bits_per_sec,
            busy_until: SimTime::ZERO,
        }
    }

    /// `true` if a transmission may start now.
    #[must_use]
    pub fn idle(&self, now: SimTime) -> bool {
        now >= self.busy_until
    }

    /// Starts a transmission of `bytes` at `now`. While the serializer is
    /// busy, a `TOKEN_TX_DONE` timer is armed for the moment it frees.
    pub fn start(&mut self, now: SimTime, bytes: usize, out: &mut Vec<LinkAction>) {
        if let Some(bps) = self.rate_bps {
            let delay = SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps as f64);
            self.busy_until = now + delay;
            if !delay.is_zero() {
                out.push(LinkAction::Timer {
                    delay,
                    token: TOKEN_TX_DONE,
                });
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use bytes::Bytes;
    use son_netsim::time::SimTime;
    use son_topo::NodeId;

    use crate::addr::{Destination, FlowKey, OverlayAddr};
    use crate::packet::DataPacket;
    use crate::service::FlowSpec;

    /// A data packet for protocol unit tests.
    pub fn pkt(flow_seq: u64, size: usize) -> DataPacket {
        pkt_from(0, flow_seq, size)
    }

    /// A data packet from a particular source client.
    pub fn pkt_from(src_node: usize, flow_seq: u64, size: usize) -> DataPacket {
        DataPacket {
            flow: FlowKey::new(
                OverlayAddr::new(NodeId(src_node), 1),
                Destination::Unicast(OverlayAddr::new(NodeId(9), 1)),
            ),
            flow_seq,
            origin: NodeId(src_node),
            spec: FlowSpec::reliable(),
            mask: None,
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

    /// Stamps a trace context on a test packet (hop as seen at this node).
    pub fn traced(mut p: DataPacket, trace_id: u64, hop: u8) -> DataPacket {
        p.trace = Some(son_obs::trace::TraceContext { id: trace_id, hop });
        p
    }

    /// Extracts transmitted packets from an action list.
    pub fn transmitted(actions: &[super::LinkAction]) -> Vec<&DataPacket> {
        actions
            .iter()
            .filter_map(|a| match a {
                super::LinkAction::Transmit(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// Extracts delivered packets from an action list.
    pub fn delivered(actions: &[super::LinkAction]) -> Vec<&DataPacket> {
        actions
            .iter()
            .filter_map(|a| match a {
                super::LinkAction::Deliver(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// Extracts `(delay, token)` timer requests from an action list.
    pub fn timers(actions: &[super::LinkAction]) -> Vec<(son_netsim::time::SimDuration, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                super::LinkAction::Timer { delay, token } => Some((*delay, *token)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{delivered, pkt, timers, traced, transmitted};
    use super::*;
    use crate::service::RealtimeParams;

    /// Every link protocol must carry the packet's trace context through
    /// unchanged — the context is header state, owned by the routing level;
    /// protocols rewrite only `link_seq`.
    #[test]
    fn protocols_propagate_trace_context() {
        let now = SimTime::from_millis(1);
        let protos: Vec<Box<dyn LinkProto>> = vec![
            Box::new(BestEffortLink::default()),
            Box::new(ReliableLink::new(SimDuration::from_millis(40))),
            Box::new(RealtimeLink::new(RealtimeParams::live_tv())),
            Box::new(FifoLink::new(64, None)),
        ];
        for mut proto in protos {
            let mut out = Vec::new();
            proto.on_send(now, traced(pkt(1, 100), 99, 2), &mut out);
            let txs = transmitted(&out);
            assert_eq!(txs.len(), 1);
            let sent = txs[0].clone();
            assert_eq!(
                sent.trace,
                Some(son_obs::trace::TraceContext { id: 99, hop: 2 }),
                "{proto:?} lost the trace context on send"
            );
            let mut rx_out = Vec::new();
            proto.on_data(now, sent, &mut rx_out);
            let rx = delivered(&rx_out);
            assert_eq!(rx.len(), 1);
            assert_eq!(
                rx[0].trace,
                Some(son_obs::trace::TraceContext { id: 99, hop: 2 }),
                "{proto:?} lost the trace context on receive"
            );
        }
    }

    #[test]
    fn overhead_ratio_counts_retransmissions() {
        let s = LinkProtoStats {
            sent: 100,
            retransmitted: 5,
            ..Default::default()
        };
        assert!((s.overhead_ratio() - 1.05).abs() < 1e-12);
        assert_eq!(LinkProtoStats::default().overhead_ratio(), 1.0);
    }

    #[test]
    fn pacer_serializes_at_rate() {
        // 8 Mbit/s -> 1000 bytes take 1 ms.
        let mut p = Pacer::new(Some(8_000_000));
        assert!(p.idle(SimTime::ZERO));
        let mut out = Vec::new();
        p.start(SimTime::ZERO, 1000, &mut out);
        assert_eq!(
            timers(&out),
            vec![(SimDuration::from_millis(1), TOKEN_TX_DONE)]
        );
        assert!(!p.idle(SimTime::from_micros(500)));
        assert!(p.idle(SimTime::from_millis(1)));
    }

    #[test]
    fn pacer_disabled_is_always_idle() {
        let mut p = Pacer::new(None);
        let mut out = Vec::new();
        p.start(SimTime::ZERO, 1_000_000, &mut out);
        assert!(out.is_empty());
        assert!(p.idle(SimTime::ZERO));
    }
}
