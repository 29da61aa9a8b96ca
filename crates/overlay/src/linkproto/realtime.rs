//! The NM-Strikes real-time link protocol (§IV-A, Fig. 4, \[5\]).
//!
//! A protocol that "while not guaranteeing complete reliability, guarantees
//! complete timeliness". When the receiver detects a gap it schedules **N**
//! retransmission requests spread over the recovery budget — spaced to dodge
//! the window of correlated loss — and the sender, on the *first* request,
//! schedules **M** retransmissions, likewise spaced. A receiver that
//! recovers a packet cancels its remaining requests; a packet not recovered
//! within the budget is given up (the deadline matters more).
//!
//! Worst-case overhead is `1 + M·p` transmissions per original packet.

use std::collections::{BTreeSet, HashMap, VecDeque};

use son_netsim::time::{SimDuration, SimTime};
use son_obs::DropClass;

use crate::packet::{DataPacket, LinkCtl};
use crate::service::{LinkService, RealtimeParams};

use super::arq::{SeqWindow, MAX_NACK};
use super::{emit, LinkAction, LinkEvent, LinkProto, LinkProtoStats};

/// How long the sender retains history for retransmission, in budgets.
const HISTORY_BUDGETS: u64 = 2;
/// The sender purges its history every this many sends.
const PURGE_EVERY: u64 = 64;
/// Receiver-side dedup memory, in sequence numbers up to the high mark.
const DELIVERED_MEMORY: u64 = 8192;

#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// Receiver: fire request strike `strike` for `seq` if still missing.
    RequestStrike { seq: u64, strike: u8 },
    /// Receiver: give up on `seq` (budget exhausted).
    GiveUp { seq: u64 },
    /// Sender: put retransmission copy `copy` of `seq` on the wire.
    Retransmit { seq: u64 },
}

/// NM-Strikes protocol instance (one link, both directions).
#[derive(Debug)]
pub struct RealtimeLink {
    params: RealtimeParams,
    // --- sender state ---
    next_seq: u64,
    /// Each packet sent within the history horizon with its send time, in
    /// seq order up to `next_seq`.
    history: VecDeque<(DataPacket, SimTime)>,
    requested: BTreeSet<u64>,
    // --- receiver state ---
    high: u64,
    /// Missing sequence numbers: strike count so far and when the gap was
    /// first noticed (for recovery-latency observation).
    missing: HashMap<u64, (u8, SimTime)>,
    delivered: SeqWindow<DELIVERED_MEMORY>,
    // --- timers ---
    purposes: HashMap<u32, Purpose>,
    next_token: u32,
    // --- accounting ---
    stats: LinkProtoStats,
    recovered: u64,
    unrecovered: u64,
}

impl RealtimeLink {
    /// Creates an instance with the given default parameters. Packets whose
    /// flow spec carries its own [`RealtimeParams`] update the instance
    /// (flows on one link aggregate into one sequence space, §II-C).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid.
    #[must_use]
    pub fn new(params: RealtimeParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid realtime params: {e}"));
        RealtimeLink {
            params,
            next_seq: 0,
            history: VecDeque::new(),
            requested: BTreeSet::new(),
            high: 0,
            missing: HashMap::new(),
            delivered: SeqWindow::default(),
            purposes: HashMap::new(),
            next_token: 0,
            stats: LinkProtoStats::default(),
            recovered: 0,
            unrecovered: 0,
        }
    }

    /// Packets recovered by request/retransmission on this link.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Packets the receiver gave up on (budget exhausted).
    #[must_use]
    pub fn unrecovered(&self) -> u64 {
        self.unrecovered
    }

    fn arm(&mut self, delay: SimDuration, purpose: Purpose, out: &mut Vec<LinkAction>) {
        let token = self.next_token;
        self.next_token = self.next_token.wrapping_add(1);
        self.purposes.insert(token, purpose);
        out.push(LinkAction::Timer { delay, token });
    }

    /// Drops the history past the horizon. Send times rise with seq, so
    /// the expired packets are the oldest ones.
    fn purge_history(&mut self, now: SimTime) {
        let horizon = self.params.budget.saturating_mul(HISTORY_BUDGETS);
        let expired = self
            .history
            .partition_point(|(_, sent)| now.saturating_since(*sent) > horizon);
        self.history.drain(..expired);
        // Room for the sends up to the next purge, and no more.
        self.history
            .shrink_to(self.history.len() + PURGE_EVERY as usize);
        let keep_from = self.next_seq.saturating_sub(4 * DELIVERED_MEMORY);
        self.requested = self.requested.split_off(&keep_from);
    }

    /// A copy of the packet sent as `seq`, if the history still holds it.
    fn sent_copy(&self, seq: u64) -> Option<DataPacket> {
        let front = self.next_seq + 1 - self.history.len() as u64;
        let index = usize::try_from(seq.checked_sub(front)?).ok()?;
        self.history.get(index).map(|(pkt, _)| pkt.clone())
    }

    fn note_delivered(&mut self, seq: u64) {
        let keep_from = self.high.saturating_sub(DELIVERED_MEMORY - 1);
        self.delivered.advance_to(keep_from);
        if self.delivered.covers(seq) {
            self.delivered.insert(seq);
        }
    }

    fn request_now(&mut self, seqs: Vec<u64>, strike: u8, out: &mut Vec<LinkAction>) {
        if seqs.is_empty() {
            return;
        }
        self.stats.ctl_sent += 1;
        out.push(LinkAction::TransmitCtl(LinkCtl::RtRequest { seqs, strike }));
    }
}

impl LinkProto for RealtimeLink {
    fn on_send(&mut self, now: SimTime, mut pkt: DataPacket, out: &mut Vec<LinkAction>) {
        if let LinkService::Realtime(p) = pkt.spec.link {
            if p.validate().is_ok() {
                self.params = p;
            }
        }
        self.next_seq += 1;
        pkt.link_seq = self.next_seq;
        self.history.push_back((pkt.clone(), now));
        self.stats.sent += 1;
        emit(out, LinkAction::Transmit(pkt));
        if self.next_seq.is_multiple_of(PURGE_EVERY) {
            self.purge_history(now);
        }
    }

    fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let seq = pkt.link_seq;
        if seq > self.high {
            // Gap: schedule N request strikes per missing packet, spread over
            // the budget, plus a give-up deadline. Only the newest MAX_NACK
            // are worth it (and a forged seq costs no more than that).
            let spacing = self.params.spacing();
            let mut immediate = Vec::new();
            for g in seq.saturating_sub(MAX_NACK).max(self.high + 1)..seq {
                self.missing.insert(g, (1, now));
                out.push(LinkAction::Observe(LinkEvent::LossDetected));
                immediate.push(g);
                for strike in 1..self.params.n_requests {
                    self.arm(
                        spacing.saturating_mul(u64::from(strike)),
                        Purpose::RequestStrike { seq: g, strike },
                        out,
                    );
                }
                self.arm(self.params.budget, Purpose::GiveUp { seq: g }, out);
            }
            // Strike 0 fires immediately, batched across the whole gap.
            self.request_now(immediate, 0, out);
            self.high = seq;
            self.stats.received += 1;
            self.note_delivered(seq);
            emit(out, LinkAction::Deliver(pkt));
        } else if let Some((_, noticed)) = self.missing.remove(&seq) {
            // A requested packet came back in time: deliver and implicitly
            // cancel remaining strikes (their timers become no-ops).
            self.recovered += 1;
            self.stats.received += 1;
            self.note_delivered(seq);
            out.push(LinkAction::Observe(LinkEvent::Recovered {
                after: now.saturating_since(noticed),
            }));
            emit(out, LinkAction::Deliver(pkt));
        } else if self.delivered.contains(seq) {
            self.stats.dup_received += 1;
        } else {
            // Arrived after give-up: forward anyway — the destination's
            // deadline buffer decides whether it is still useful.
            self.stats.received += 1;
            self.note_delivered(seq);
            emit(out, LinkAction::Deliver(pkt));
        }
    }

    fn on_ctl(&mut self, _now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>) {
        let LinkCtl::RtRequest { seqs, .. } = ctl else {
            return;
        };
        let spacing = self.params.spacing();
        for seq in seqs {
            // Only the FIRST request for a packet schedules the M
            // retransmissions; later strikes for the same packet are covered.
            // An unsent seq is no request: noting it would swallow the real one.
            if seq > self.next_seq || !self.requested.insert(seq) {
                continue;
            }
            let Some(pkt) = self.sent_copy(seq) else {
                continue;
            };
            self.stats.retransmitted += 1;
            out.push(LinkAction::Observe(LinkEvent::Retransmit));
            emit(out, LinkAction::Transmit(pkt));
            for copy in 1..self.params.m_retransmissions {
                self.arm(
                    spacing.saturating_mul(u64::from(copy)),
                    Purpose::Retransmit { seq },
                    out,
                );
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        let Some(purpose) = self.purposes.remove(&token) else {
            return;
        };
        match purpose {
            Purpose::RequestStrike { seq, strike } => {
                if let Some((strikes, _)) = self.missing.get_mut(&seq) {
                    *strikes += 1;
                    self.request_now(vec![seq], strike, out);
                }
            }
            Purpose::GiveUp { seq } => {
                if self.missing.remove(&seq).is_some() {
                    self.unrecovered += 1;
                    self.stats.dropped += 1;
                    // The recovery budget ran out: the packet is lost for
                    // timeliness purposes, classified as an expiry.
                    out.push(LinkAction::Observe(LinkEvent::Drop(DropClass::Expired)));
                }
            }
            Purpose::Retransmit { seq } => {
                if let Some(pkt) = self.sent_copy(seq) {
                    self.stats.retransmitted += 1;
                    out.push(LinkAction::Observe(LinkEvent::Retransmit));
                    emit(out, LinkAction::Transmit(pkt));
                }
            }
        }
    }

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }

    fn queue_bytes(&self) -> usize {
        use son_obs::footprint::{btreeset_bytes, hashmap_bytes, vecdeque_bytes};
        vecdeque_bytes(&self.history)
            + self
                .history
                .iter()
                .map(|(p, _)| p.payload.len())
                .sum::<usize>()
            + btreeset_bytes(&self.requested)
            + hashmap_bytes(&self.missing)
            + self.delivered.bytes()
            + hashmap_bytes(&self.purposes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{delivered, pkt, timers, transmitted};
    use super::*;

    fn params() -> RealtimeParams {
        RealtimeParams {
            n_requests: 3,
            m_retransmissions: 2,
            budget: SimDuration::from_millis(100),
        }
    }

    fn recv_seq(link: &mut RealtimeLink, seq: u64, out: &mut Vec<LinkAction>) {
        let mut p = pkt(seq, 100);
        p.link_seq = seq;
        p.spec.link = LinkService::Realtime(params());
        link.on_data(SimTime::ZERO, p, out);
    }

    #[test]
    fn gap_detection_fires_immediate_request_and_schedules_strikes() {
        let mut r = RealtimeLink::new(params());
        let mut out = Vec::new();
        recv_seq(&mut r, 1, &mut out);
        out.clear();
        recv_seq(&mut r, 4, &mut out);
        // Strike 0: one batched request for 2 and 3.
        let reqs: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                LinkAction::TransmitCtl(LinkCtl::RtRequest { seqs, strike }) => {
                    Some((seqs.clone(), *strike))
                }
                _ => None,
            })
            .collect();
        assert_eq!(reqs, vec![(vec![2, 3], 0)]);
        // Per missing seq: N-1 future strikes + 1 give-up = 3 timers each.
        assert_eq!(timers(&out).len(), 6);
        // Seq 4 is still delivered (timeliness over ordering).
        assert_eq!(delivered(&out).len(), 1);
    }

    #[test]
    fn strikes_are_spaced_across_the_budget() {
        let mut r = RealtimeLink::new(params());
        let mut out = Vec::new();
        recv_seq(&mut r, 1, &mut out);
        out.clear();
        recv_seq(&mut r, 3, &mut out);
        let ts = timers(&out);
        // spacing = 100 / (3 + 2) = 20ms; strikes at 20ms and 40ms; give-up at 100ms.
        let delays: Vec<f64> = ts.iter().map(|(d, _)| d.as_millis_f64()).collect();
        assert!(delays.contains(&20.0));
        assert!(delays.contains(&40.0));
        assert!(delays.contains(&100.0));
    }

    #[test]
    fn recovery_cancels_remaining_strikes() {
        let mut r = RealtimeLink::new(params());
        let mut out = Vec::new();
        recv_seq(&mut r, 1, &mut out);
        recv_seq(&mut r, 3, &mut out);
        let strike_timers = timers(&out);
        out.clear();
        // The missing packet (2) arrives before any strike timer fires.
        recv_seq(&mut r, 2, &mut out);
        assert_eq!(delivered(&out).len(), 1);
        assert_eq!(r.recovered(), 1);
        out.clear();
        // Every pending strike timer is now a no-op.
        for (_, token) in strike_timers {
            r.on_timer(SimTime::from_millis(50), token, &mut out);
        }
        assert!(out.iter().all(|a| !matches!(a, LinkAction::TransmitCtl(_))));
    }

    #[test]
    fn sender_schedules_m_retransmissions_on_first_request_only() {
        let mut s = RealtimeLink::new(params());
        let mut out = Vec::new();
        for i in 0..3 {
            let mut p = pkt(i, 100);
            p.spec.link = LinkService::Realtime(params());
            s.on_send(SimTime::ZERO, p, &mut out);
        }
        out.clear();
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::RtRequest {
                seqs: vec![2],
                strike: 0,
            },
            &mut out,
        );
        // First copy immediately + 1 timer for the second copy (M=2).
        assert_eq!(transmitted(&out).len(), 1);
        assert_eq!(timers(&out).len(), 1);
        let (_, token) = timers(&out)[0];
        out.clear();
        // A second strike for the same seq is ignored.
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::RtRequest {
                seqs: vec![2],
                strike: 1,
            },
            &mut out,
        );
        assert!(transmitted(&out).is_empty());
        out.clear();
        // The scheduled copy fires.
        s.on_timer(SimTime::from_millis(20), token, &mut out);
        assert_eq!(transmitted(&out).len(), 1);
        assert_eq!(s.stats().retransmitted, 2);
    }

    #[test]
    fn give_up_after_budget_counts_unrecovered() {
        let mut r = RealtimeLink::new(params());
        let mut out = Vec::new();
        recv_seq(&mut r, 1, &mut out);
        recv_seq(&mut r, 3, &mut out);
        let give_up_token = timers(&out)
            .into_iter()
            .find(|(d, _)| *d == SimDuration::from_millis(100))
            .unwrap()
            .1;
        out.clear();
        r.on_timer(SimTime::from_millis(100), give_up_token, &mut out);
        assert_eq!(r.unrecovered(), 1);
        // Late arrival is still forwarded (destination decides usefulness).
        out.clear();
        recv_seq(&mut r, 2, &mut out);
        assert_eq!(delivered(&out).len(), 1);
        assert_eq!(r.recovered(), 0, "too late to count as a recovery");
    }

    #[test]
    fn recovery_and_give_up_are_observed() {
        let mut r = RealtimeLink::new(params());
        let mut out = Vec::new();
        recv_seq(&mut r, 1, &mut out);
        // Gap noticed at t=0 (seq 2 missing when 3 arrives at t=0).
        recv_seq(&mut r, 3, &mut out);
        let give_up_token = timers(&out)
            .into_iter()
            .find(|(d, _)| *d == SimDuration::from_millis(100))
            .unwrap()
            .1;
        out.clear();
        // Seq 2 recovered 30 ms after the gap was noticed.
        let mut p = pkt(2, 100);
        p.link_seq = 2;
        p.spec.link = LinkService::Realtime(params());
        r.on_data(SimTime::from_millis(30), p, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            LinkAction::Observe(LinkEvent::Recovered { after }) if *after == SimDuration::from_millis(30)
        )));
        // The stale give-up timer observes nothing.
        out.clear();
        r.on_timer(SimTime::from_millis(100), give_up_token, &mut out);
        assert!(out.is_empty());
        // A genuine give-up reports an Expired drop.
        recv_seq(&mut r, 5, &mut out);
        let give_up2 = timers(&out)
            .into_iter()
            .find(|(d, _)| *d == SimDuration::from_millis(100))
            .unwrap()
            .1;
        out.clear();
        r.on_timer(SimTime::from_millis(200), give_up2, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, LinkAction::Observe(LinkEvent::Drop(DropClass::Expired)))));
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut r = RealtimeLink::new(params());
        let mut out = Vec::new();
        recv_seq(&mut r, 1, &mut out);
        out.clear();
        recv_seq(&mut r, 1, &mut out);
        assert!(delivered(&out).is_empty());
        assert_eq!(r.stats().dup_received, 1);
    }

    #[test]
    fn request_for_unknown_seq_is_ignored() {
        let mut s = RealtimeLink::new(params());
        let mut out = Vec::new();
        s.on_ctl(
            SimTime::ZERO,
            LinkCtl::RtRequest {
                seqs: vec![99],
                strike: 0,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn overhead_is_one_plus_mp_worst_case() {
        // Send 1000, request 100 of them; M=2 -> 1 + 2*0.1 = 1.2.
        let mut s = RealtimeLink::new(params());
        let mut out = Vec::new();
        for i in 0..1000 {
            let mut p = pkt(i, 100);
            p.spec.link = LinkService::Realtime(params());
            s.on_send(SimTime::from_micros(i * 10), p, &mut out);
        }
        out.clear();
        s.on_ctl(
            SimTime::from_millis(11),
            LinkCtl::RtRequest {
                seqs: (1..=100).collect(),
                strike: 0,
            },
            &mut out,
        );
        // Fire all scheduled second copies.
        let pending = timers(&out);
        out.clear();
        for (_, token) in pending {
            s.on_timer(SimTime::from_millis(31), token, &mut out);
        }
        let stats = s.stats();
        assert_eq!(stats.sent, 1000);
        assert_eq!(stats.retransmitted, 200);
        assert!((stats.overhead_ratio() - 1.2).abs() < 1e-12);
    }
}
