//! The Best Effort link protocol: stateless per-hop forwarding, no recovery.
//!
//! This is the overlay's analogue of plain IP forwarding — the baseline the
//! paper's recovery protocols are measured against.

use son_netsim::time::SimTime;

use crate::packet::{DataPacket, LinkCtl};

use super::{LinkAction, LinkProto, LinkProtoStats};

/// Stateless best-effort link protocol.
#[derive(Debug, Default)]
pub struct BestEffortLink {
    stats: LinkProtoStats,
}

impl BestEffortLink {
    /// Creates a best-effort instance.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl LinkProto for BestEffortLink {
    fn on_send(&mut self, _now: SimTime, mut pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.stats.sent += 1;
        pkt.link_seq = self.stats.sent;
        emit!(out, LinkAction::Transmit(pkt));
    }

    fn on_data(&mut self, _now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.stats.received += 1;
        emit!(out, LinkAction::Deliver(pkt));
    }

    fn on_ctl(&mut self, _now: SimTime, _ctl: LinkCtl, _out: &mut Vec<LinkAction>) {
        // Best effort has no control traffic; ignore stray messages.
    }

    fn on_timer(&mut self, _now: SimTime, _token: u32, _out: &mut Vec<LinkAction>) {}

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{delivered, pkt, transmitted};
    use super::*;

    #[test]
    fn send_transmits_receive_delivers() {
        let mut be = BestEffortLink::new();
        let mut out = Vec::new();
        be.on_send(SimTime::ZERO, pkt(1, 100), &mut out);
        assert_eq!(transmitted(&out).len(), 1);
        out.clear();
        be.on_data(SimTime::ZERO, pkt(1, 100), &mut out);
        assert_eq!(delivered(&out).len(), 1);
        assert_eq!(be.stats().sent, 1);
        assert_eq!(be.stats().received, 1);
        assert_eq!(be.stats().retransmitted, 0);
    }

    #[test]
    fn ignores_control_and_timers() {
        let mut be = BestEffortLink::new();
        let mut out = Vec::new();
        be.on_ctl(
            SimTime::ZERO,
            LinkCtl::ReliableNack { missing: vec![1] },
            &mut out,
        );
        be.on_timer(SimTime::ZERO, 7, &mut out);
        assert!(out.is_empty());
    }
}
