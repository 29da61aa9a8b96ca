//! The Reliable Data Link: hop-by-hop ARQ with out-of-order forwarding
//! (§III-A, \[4\]).
//!
//! Each overlay link recovers its own losses: the receiver acknowledges
//! every packet (cumulative + selective) and reports gaps immediately
//! (NACK) so the sender can retransmit within roughly one link round trip —
//! this is what turns a 50 ms end-to-end recovery into a 10 ms hop-local
//! one (Fig. 3). "To provide smoother packet delivery, intermediate nodes
//! are permitted to forward packets out of order; the final destination is
//! responsible for buffering received packets until they can be delivered
//! in order." The ARQ itself is the core in `arq.rs`.

use son_netsim::time::{SimDuration, SimTime};

use crate::packet::{DataPacket, LinkCtl};

use super::arq::{ArqReceiver, ArqSender};
use super::{LinkAction, LinkProto, LinkProtoStats};

/// Hop-by-hop reliable link protocol instance (one link, both directions).
/// Every event ends by arming the one timer, which replaces a timer that a
/// crash took.
#[derive(Debug)]
pub struct ReliableLink {
    tx: ArqSender,
    rx: ArqReceiver,
}

impl ReliableLink {
    /// Creates an instance with the given retransmission timeout.
    ///
    /// A sensible RTO is a small multiple of the link RTT — gaps are
    /// normally repaired faster via the NACK fast path; the RTO is the
    /// backstop for lost retransmissions, lost NACKs, and tail losses.
    #[must_use]
    pub fn new(rto: SimDuration) -> Self {
        ReliableLink {
            tx: ArqSender::new(rto),
            rx: ArqReceiver::default(),
        }
    }

    /// Packets currently held for possible retransmission.
    #[must_use]
    pub fn unacked_len(&self) -> usize {
        self.tx.held
    }
}

impl LinkProto for ReliableLink {
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.tx.send(now, pkt, out);
        self.tx.arm(now, None, out);
    }

    fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.rx.on_data(now, pkt, out);
        self.tx.arm(now, None, out);
    }

    fn on_ctl(&mut self, now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>) {
        self.tx.on_ctl(ctl, out);
        self.tx.arm(now, None, out);
    }

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        self.tx.on_timer(now, token, out);
        self.tx.arm(now, None, out);
    }

    fn stats(&self) -> LinkProtoStats {
        [self.tx.stats, self.rx.stats].into_iter().sum()
    }

    fn queue_depth(&self) -> usize {
        self.tx.held
    }

    fn queue_bytes(&self) -> usize {
        self.tx.bytes() + self.rx.bytes()
    }
}
