//! Compromised-node behaviour models (§IV-B).
//!
//! The intrusion-tolerance experiments need overlay nodes that hold valid
//! credentials but misbehave: they participate correctly in the control
//! plane (so link-state routing does not simply route around them) while
//! attacking the data plane. This module enumerates the behaviours the
//! paper's schemes must withstand.

use son_netsim::time::SimDuration;
use son_topo::NodeId;

use crate::addr::Destination;
use crate::packet::DataPacket;

/// How a compromised node treats data packets it should forward.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Not compromised.
    Correct,
    /// Silently drops every data packet it should forward (while remaining
    /// a fully correct control-plane participant, so it is not routed
    /// around).
    Blackhole,
    /// Drops data packets originating at specific overlay nodes.
    SelectiveDrop {
        /// Origins whose packets are dropped.
        victims: Vec<NodeId>,
    },
    /// Holds forwarded packets for an extra delay (destroys timeliness
    /// without visible loss).
    Delay {
        /// The added forwarding delay.
        extra: SimDuration,
    },
    /// Forwards each packet multiple times (amplification; tests
    /// de-duplication).
    Duplicate {
        /// Total copies transmitted per packet (≥ 2).
        copies: u8,
    },
    /// Forwards transit packets out a deterministic *wrong* link instead of
    /// the routed one (routing disruption without visible loss at this hop).
    Misroute,
    /// Originates junk traffic toward a destination at a fixed rate — the
    /// resource-consumption attack the fair schedulers defend against.
    Flood {
        /// Where the junk goes.
        dst: Destination,
        /// Packets per second.
        rate_pps: u64,
        /// Payload size per junk packet.
        size: usize,
    },
}

impl Behavior {
    /// The forwarding verdict this behaviour gives for a transit packet.
    #[must_use]
    pub fn forward_verdict(&self, pkt: &DataPacket) -> Verdict {
        match self {
            Behavior::Correct | Behavior::Flood { .. } => Verdict::Forward,
            Behavior::Blackhole => Verdict::Drop,
            Behavior::SelectiveDrop { victims } => {
                if victims.contains(&pkt.origin) {
                    Verdict::Drop
                } else {
                    Verdict::Forward
                }
            }
            Behavior::Delay { extra } => Verdict::Delay(*extra),
            Behavior::Duplicate { copies } => Verdict::Duplicate((*copies).max(2)),
            Behavior::Misroute => Verdict::Misroute,
        }
    }
}

/// The per-packet decision of a behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward normally.
    Forward,
    /// Silently drop.
    Drop,
    /// Forward after an extra delay.
    Delay(SimDuration),
    /// Transmit this many copies.
    Duplicate(u8),
    /// Forward out a wrong link.
    Misroute,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{FlowKey, OverlayAddr};
    use crate::service::FlowSpec;
    use bytes::Bytes;
    use son_netsim::time::SimTime;

    fn pkt(origin: usize) -> DataPacket {
        DataPacket {
            flow: FlowKey::new(
                OverlayAddr::new(NodeId(origin), 1),
                Destination::Unicast(OverlayAddr::new(NodeId(9), 1)),
            ),
            flow_seq: 1,
            origin: NodeId(origin),
            spec: FlowSpec::best_effort(),
            mask: None,
            resolved_dst: None,
            link_seq: 0,
            created_at: SimTime::ZERO,
            size: 10,
            payload: Bytes::new(),
            ttl: 8,
            auth_tag: 0,
            trace: None,
        }
    }

    #[test]
    fn verdicts_match_behaviours() {
        assert_eq!(Behavior::Correct.forward_verdict(&pkt(0)), Verdict::Forward);
        assert_eq!(Behavior::Blackhole.forward_verdict(&pkt(0)), Verdict::Drop);
        let sel = Behavior::SelectiveDrop {
            victims: vec![NodeId(3)],
        };
        assert_eq!(sel.forward_verdict(&pkt(3)), Verdict::Drop);
        assert_eq!(sel.forward_verdict(&pkt(4)), Verdict::Forward);
        assert_eq!(
            Behavior::Delay {
                extra: SimDuration::from_millis(30)
            }
            .forward_verdict(&pkt(0)),
            Verdict::Delay(SimDuration::from_millis(30))
        );
        assert_eq!(
            Behavior::Duplicate { copies: 1 }.forward_verdict(&pkt(0)),
            Verdict::Duplicate(2)
        );
        assert_eq!(
            Behavior::Misroute.forward_verdict(&pkt(0)),
            Verdict::Misroute
        );
        let flood = Behavior::Flood {
            dst: Destination::Unicast(OverlayAddr::new(NodeId(1), 1)),
            rate_pps: 100,
            size: 100,
        };
        assert_eq!(
            flood.forward_verdict(&pkt(0)),
            Verdict::Forward,
            "flooders still forward"
        );
    }
}
