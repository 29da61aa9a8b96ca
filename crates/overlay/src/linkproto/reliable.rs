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
//! in order."

use std::collections::{BTreeMap, BTreeSet, HashMap};

use son_netsim::time::{SimDuration, SimTime};

use crate::packet::{DataPacket, LinkCtl};

use super::{emit, LinkAction, LinkEvent, LinkProto, LinkProtoStats};

/// Cap on how many missing sequence numbers one NACK reports.
const MAX_NACK: usize = 64;
/// Cap on how many selective acknowledgments ride in one ACK.
const MAX_SACK: usize = 64;

/// Hop-by-hop reliable link protocol instance (one link, both directions).
#[derive(Debug)]
pub struct ReliableLink {
    rto: SimDuration,
    // --- sender state ---
    next_seq: u64,
    unacked: BTreeMap<u64, DataPacket>,
    timer_purpose: HashMap<u32, u64>,
    next_token: u32,
    // --- receiver state ---
    cum: u64,
    above: BTreeSet<u64>,
    /// When each currently missing sequence number was first noticed, for
    /// per-hop recovery-latency observation.
    gap_noticed: HashMap<u64, SimTime>,
    stats: LinkProtoStats,
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
            rto,
            next_seq: 0,
            unacked: BTreeMap::new(),
            timer_purpose: HashMap::new(),
            next_token: 0,
            cum: 0,
            above: BTreeSet::new(),
            gap_noticed: HashMap::new(),
            stats: LinkProtoStats::default(),
        }
    }

    /// Packets currently held for possible retransmission.
    #[must_use]
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    fn arm_rto(&mut self, seq: u64, out: &mut Vec<LinkAction>) {
        let token = self.next_token;
        self.next_token = self.next_token.wrapping_add(1);
        self.timer_purpose.insert(token, seq);
        out.push(LinkAction::Timer {
            delay: self.rto,
            token,
        });
    }

    fn ack_now(&mut self, out: &mut Vec<LinkAction>) {
        let selective: Vec<u64> = self.above.iter().copied().take(MAX_SACK).collect();
        self.stats.ctl_sent += 1;
        out.push(LinkAction::TransmitCtl(LinkCtl::ReliableAck {
            cum: self.cum,
            selective,
        }));
    }
}

impl LinkProto for ReliableLink {
    fn on_send(&mut self, _now: SimTime, mut pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.next_seq += 1;
        let seq = self.next_seq;
        pkt.link_seq = seq;
        self.unacked.insert(seq, pkt.clone());
        self.stats.sent += 1;
        emit(out, LinkAction::Transmit(pkt));
        self.arm_rto(seq, out);
    }

    fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let seq = pkt.link_seq;
        let is_dup = seq <= self.cum || self.above.contains(&seq);
        if is_dup {
            self.stats.dup_received += 1;
            // Re-ack so the sender releases its buffer even if the original
            // ACK was lost.
            self.ack_now(out);
            return;
        }
        self.stats.received += 1;
        if let Some(noticed) = self.gap_noticed.remove(&seq) {
            // This packet fills a previously reported gap: a hop-local
            // recovery, completed one NACK round trip after detection.
            out.push(LinkAction::Observe(LinkEvent::Recovered {
                after: now.saturating_since(noticed),
            }));
        }
        // Gap detection: everything between the highest sequence seen so far
        // and this packet is missing; request it immediately (fast path).
        let prev_high = self.above.iter().next_back().copied().unwrap_or(self.cum);
        if seq > prev_high + 1 {
            let missing: Vec<u64> = (prev_high + 1..seq).take(MAX_NACK).collect();
            for &m in &missing {
                self.gap_noticed.insert(m, now);
                out.push(LinkAction::Observe(LinkEvent::LossDetected));
            }
            self.stats.ctl_sent += 1;
            out.push(LinkAction::TransmitCtl(LinkCtl::ReliableNack { missing }));
        }
        self.above.insert(seq);
        while self.above.remove(&(self.cum + 1)) {
            self.cum += 1;
        }
        // Gaps below the cumulative point are resolved; drop stale stamps so
        // the map stays bounded by the reorder window.
        let cum = self.cum;
        self.gap_noticed.retain(|&s, _| s > cum);
        // Out-of-order forwarding: deliver upward immediately.
        emit(out, LinkAction::Deliver(pkt));
        self.ack_now(out);
    }

    fn on_ctl(&mut self, _now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>) {
        match ctl {
            LinkCtl::ReliableAck { cum, selective } => {
                self.unacked = self.unacked.split_off(&(cum + 1));
                for seq in selective {
                    self.unacked.remove(&seq);
                }
            }
            LinkCtl::ReliableNack { missing } => {
                for seq in missing {
                    if let Some(pkt) = self.unacked.get(&seq) {
                        self.stats.retransmitted += 1;
                        out.push(LinkAction::Observe(LinkEvent::Retransmit));
                        emit(out, LinkAction::Transmit(pkt.clone()));
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        let Some(seq) = self.timer_purpose.remove(&token) else {
            return;
        };
        if let Some(pkt) = self.unacked.get(&seq) {
            self.stats.retransmitted += 1;
            out.push(LinkAction::Observe(LinkEvent::Retransmit));
            emit(out, LinkAction::Transmit(pkt.clone()));
            self.arm_rto(seq, out);
        }
    }

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }

    fn queue_depth(&self) -> usize {
        self.unacked.len()
    }

    fn queue_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, btreeset_bytes, hashmap_bytes};
        btreemap_bytes(&self.unacked)
            + self
                .unacked
                .values()
                .map(|p| p.payload.len())
                .sum::<usize>()
            + hashmap_bytes(&self.timer_purpose)
            + btreeset_bytes(&self.above)
            + hashmap_bytes(&self.gap_noticed)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{delivered, pkt, timers, transmitted};
    use super::*;

    fn rl() -> ReliableLink {
        ReliableLink::new(SimDuration::from_millis(40))
    }

    #[test]
    fn send_assigns_increasing_link_seqs_and_arms_rto() {
        let mut s = rl();
        let mut out = Vec::new();
        s.on_send(SimTime::ZERO, pkt(10, 100), &mut out);
        s.on_send(SimTime::ZERO, pkt(11, 100), &mut out);
        let tx = transmitted(&out);
        assert_eq!(tx[0].link_seq, 1);
        assert_eq!(tx[1].link_seq, 2);
        assert_eq!(timers(&out).len(), 2);
        assert_eq!(s.unacked_len(), 2);
    }

    #[test]
    fn in_order_receive_delivers_and_acks() {
        let mut r = rl();
        let mut out = Vec::new();
        let mut p = pkt(5, 100);
        p.link_seq = 1;
        r.on_data(SimTime::ZERO, p, &mut out);
        assert_eq!(delivered(&out).len(), 1);
        assert!(out.iter().any(|a| matches!(
            a,
            LinkAction::TransmitCtl(LinkCtl::ReliableAck { cum: 1, .. })
        )));
    }

    #[test]
    fn gap_triggers_immediate_nack_and_out_of_order_delivery() {
        let mut r = rl();
        let mut out = Vec::new();
        let mut p1 = pkt(1, 100);
        p1.link_seq = 1;
        r.on_data(SimTime::ZERO, p1, &mut out);
        out.clear();
        let mut p4 = pkt(4, 100);
        p4.link_seq = 4;
        r.on_data(SimTime::ZERO, p4, &mut out);
        // Seq 4 is delivered immediately even though 2 and 3 are missing.
        assert_eq!(delivered(&out).len(), 1);
        assert!(out.iter().any(|a| matches!(
            a,
            LinkAction::TransmitCtl(LinkCtl::ReliableNack { missing }) if *missing == vec![2, 3]
        )));
        // The ACK advertises cum=1 and the selective 4.
        assert!(out.iter().any(|a| matches!(
            a,
            LinkAction::TransmitCtl(LinkCtl::ReliableAck { cum: 1, selective }) if *selective == vec![4]
        )));
    }

    #[test]
    fn nack_retransmits_only_unacked() {
        let mut s = rl();
        let mut out = Vec::new();
        for i in 0..3 {
            s.on_send(SimTime::ZERO, pkt(i, 100), &mut out);
        }
        out.clear();
        // Ack seq 1; nack 1 (stale) and 2.
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::ReliableAck {
                cum: 1,
                selective: vec![],
            },
            &mut out,
        );
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::ReliableNack {
                missing: vec![1, 2],
            },
            &mut out,
        );
        let tx = transmitted(&out);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].link_seq, 2);
        assert_eq!(s.stats().retransmitted, 1);
    }

    #[test]
    fn ack_releases_buffer_cumulative_and_selective() {
        let mut s = rl();
        let mut out = Vec::new();
        for i in 0..5 {
            s.on_send(SimTime::ZERO, pkt(i, 100), &mut out);
        }
        assert_eq!(s.unacked_len(), 5);
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::ReliableAck {
                cum: 2,
                selective: vec![4],
            },
            &mut out,
        );
        assert_eq!(s.unacked_len(), 2, "3 and 5 remain");
    }

    #[test]
    fn rto_retransmits_until_acked() {
        let mut s = rl();
        let mut out = Vec::new();
        s.on_send(SimTime::ZERO, pkt(0, 100), &mut out);
        let (_delay, token) = timers(&out)[0];
        out.clear();
        s.on_timer(SimTime::from_millis(40), token, &mut out);
        assert_eq!(transmitted(&out).len(), 1);
        let (_, token2) = timers(&out)[0];
        out.clear();
        // Ack arrives; the next RTO must be a no-op.
        s.on_ctl(
            SimTime::from_millis(41),
            LinkCtl::ReliableAck {
                cum: 1,
                selective: vec![],
            },
            &mut out,
        );
        s.on_timer(SimTime::from_millis(80), token2, &mut out);
        assert!(transmitted(&out).is_empty());
    }

    #[test]
    fn duplicate_data_reacked_not_redelivered() {
        let mut r = rl();
        let mut out = Vec::new();
        let mut p = pkt(0, 100);
        p.link_seq = 1;
        r.on_data(SimTime::ZERO, p.clone(), &mut out);
        out.clear();
        r.on_data(SimTime::ZERO, p, &mut out);
        assert!(delivered(&out).is_empty());
        assert_eq!(r.stats().dup_received, 1);
        assert!(out
            .iter()
            .any(|a| matches!(a, LinkAction::TransmitCtl(LinkCtl::ReliableAck { .. }))));
    }

    #[test]
    fn cum_advances_through_reordered_arrivals() {
        let mut r = rl();
        let mut out = Vec::new();
        for seq in [2u64, 3, 1] {
            let mut p = pkt(seq, 10);
            p.link_seq = seq;
            r.on_data(SimTime::ZERO, p, &mut out);
        }
        // After 1 arrives, cum should be 3 with no selective entries.
        let last_ack = out
            .iter()
            .rev()
            .find_map(|a| match a {
                LinkAction::TransmitCtl(LinkCtl::ReliableAck { cum, selective }) => {
                    Some((*cum, selective.clone()))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(last_ack, (3, vec![]));
        assert_eq!(delivered(&out).len(), 3, "all three forwarded immediately");
    }

    #[test]
    fn gap_fill_reports_recovery_latency() {
        let mut r = rl();
        let mut out = Vec::new();
        let mut p1 = pkt(1, 100);
        p1.link_seq = 1;
        r.on_data(SimTime::ZERO, p1, &mut out);
        let mut p3 = pkt(3, 100);
        p3.link_seq = 3;
        r.on_data(SimTime::from_millis(10), p3, &mut out);
        out.clear();
        // The retransmitted seq 2 arrives 8 ms after the gap was noticed.
        let mut p2 = pkt(2, 100);
        p2.link_seq = 2;
        r.on_data(SimTime::from_millis(18), p2, &mut out);
        let recovered: Vec<SimDuration> = out
            .iter()
            .filter_map(|a| match a {
                LinkAction::Observe(LinkEvent::Recovered { after }) => Some(*after),
                _ => None,
            })
            .collect();
        assert_eq!(recovered, vec![SimDuration::from_millis(8)]);
        // A fresh in-order packet reports nothing.
        out.clear();
        let mut p4 = pkt(4, 100);
        p4.link_seq = 4;
        r.on_data(SimTime::from_millis(20), p4, &mut out);
        assert!(out.iter().all(|a| !matches!(a, LinkAction::Observe(_))));
    }

    #[test]
    fn retransmissions_are_observed() {
        let mut s = rl();
        let mut out = Vec::new();
        s.on_send(SimTime::ZERO, pkt(0, 100), &mut out);
        out.clear();
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::ReliableNack { missing: vec![1] },
            &mut out,
        );
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, LinkAction::Observe(LinkEvent::Retransmit)))
                .count(),
            1
        );
    }

    #[test]
    fn stale_timer_token_is_noop() {
        let mut s = rl();
        let mut out = Vec::new();
        s.on_timer(SimTime::ZERO, 999, &mut out);
        assert!(out.is_empty());
    }
}

#[cfg(test)]
mod cap_tests {
    use super::super::testutil::pkt;
    use super::*;

    #[test]
    fn nack_and_sack_lists_are_capped() {
        let mut r = ReliableLink::new(SimDuration::from_millis(40));
        let mut out = Vec::new();
        // A packet arrives with a 200-seq gap: the NACK must cap at MAX_NACK
        // and the ACK's selective list at MAX_SACK.
        let mut p = pkt(1, 10);
        p.link_seq = 201;
        r.on_data(SimTime::ZERO, p, &mut out);
        let nack_len = out
            .iter()
            .find_map(|a| match a {
                LinkAction::TransmitCtl(LinkCtl::ReliableNack { missing }) => Some(missing.len()),
                _ => None,
            })
            .expect("nack emitted");
        assert_eq!(nack_len, MAX_NACK);
        let sack_len = out
            .iter()
            .find_map(|a| match a {
                LinkAction::TransmitCtl(LinkCtl::ReliableAck { selective, .. }) => {
                    Some(selective.len())
                }
                _ => None,
            })
            .expect("ack emitted");
        assert!(sack_len <= MAX_SACK);
    }
}
