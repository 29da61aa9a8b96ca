//! The ARQ core under both reliable links (§III-A, §IV-B): [`ArqSender`]
//! and [`ArqReceiver`] are the one retransmission machinery that
//! [`super::ReliableLink`] and [`super::ItReliableLink`] share.
//!
//! The sender gives every unacked packet its own deadline (`send + rto`,
//! moved only by an RTO retransmission) and keeps at most one timer pending
//! per link, at the earliest. The receiver acknowledges (cumulative +
//! selective), NACKs a gap the moment it sees one, and remembers what
//! arrived above its cumulative point in a [`SeqWindow`].

use std::collections::VecDeque;

use son_netsim::time::{SimDuration, SimTime};
use son_obs::footprint::{vec_bytes, vecdeque_bytes};

use crate::packet::{DataPacket, LinkCtl};

use super::{LinkAction, LinkEvent, LinkProtoStats};

/// The token of a link's one ARQ timer.
pub(crate) const ARQ_TOKEN: u32 = 1;
/// Cap on how many missing sequence numbers one NACK reports.
pub(crate) const MAX_NACK: u64 = 64;
/// Cap on how many selective acknowledgments ride in one ACK.
const MAX_SACK: usize = 64;
/// Link sequence numbers the receiver remembers from its cumulative point.
pub(crate) const RX_WINDOW: u64 = 4096;

/// The marked sequence numbers in `[lo, lo + BITS)`, in a ring of words:
/// sliding the window clears what falls out and moves nothing. The words
/// are allocated on the first mark, so an idle link pays nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqWindow<const BITS: u64> {
    lo: u64,
    words: Vec<u64>,
}

impl<const BITS: u64> SeqWindow<BITS> {
    pub(crate) fn covers(&self, seq: u64) -> bool {
        seq >= self.lo && seq - self.lo < BITS
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        let (w, bit) = Self::slot(seq);
        self.covers(seq) && self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Marks `seq`, which the window must cover.
    pub(crate) fn insert(&mut self, seq: u64) {
        debug_assert!(self.covers(seq), "{seq} outside the window");
        if self.words.is_empty() {
            self.words = vec![0; (BITS / 64) as usize];
        }
        let (w, bit) = Self::slot(seq);
        self.words[w] |= bit;
    }

    /// Slides the window up to start at `lo`, forgetting what falls below.
    pub(crate) fn advance_to(&mut self, lo: u64) {
        if lo.saturating_sub(self.lo) >= BITS {
            self.words.fill(0);
        } else if !self.words.is_empty() {
            for seq in self.lo..lo {
                let (w, bit) = Self::slot(seq);
                self.words[w] &= !bit;
            }
        }
        self.lo = self.lo.max(lo);
    }

    fn slot(seq: u64) -> (usize, u64) {
        ((seq / 64 % (BITS / 64)) as usize, 1 << (seq % 64))
    }

    pub(crate) fn bytes(&self) -> usize {
        vec_bytes(&self.words)
    }
}

/// The sending half: link seqs, the retransmission buffer, and the link's
/// one timer.
#[derive(Debug)]
pub(crate) struct ArqSender {
    pub(super) rto: SimDuration,
    /// The link seq of `unacked[0]`: everything before it is acked. Link
    /// seqs are dense, so the buffer is indexed by `seq - base`; `None` is
    /// a selectively acked hole.
    pub(super) base: u64,
    /// Each unacked packet with its retransmission deadline.
    unacked: VecDeque<Option<(DataPacket, SimTime)>>,
    /// Packets held for possible retransmission: the `Some` entries.
    pub(super) held: usize,
    /// When the pending timer fires; no deadline comes before it.
    timer_at: Option<SimTime>,
    pub(super) stats: LinkProtoStats,
}

impl ArqSender {
    pub(crate) fn new(rto: SimDuration) -> Self {
        ArqSender {
            rto,
            base: 1,
            unacked: VecDeque::new(),
            held: 0,
            timer_at: None,
            stats: LinkProtoStats::default(),
        }
    }

    /// Numbers and transmits `pkt`, keeping a copy due one RTO from now;
    /// returns its link seq.
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        mut pkt: DataPacket,
        out: &mut Vec<LinkAction>,
    ) -> u64 {
        let seq = self.base + self.unacked.len() as u64;
        pkt.link_seq = seq;
        self.unacked.push_back(Some((pkt.clone(), now + self.rto)));
        self.held += 1;
        self.stats.sent += 1;
        emit!(out, LinkAction::Transmit(pkt));
        seq
    }

    /// Applies an ACK or a NACK; hands any other frame back.
    pub(crate) fn on_ctl(&mut self, ctl: LinkCtl, out: &mut Vec<LinkAction>) -> Option<LinkCtl> {
        match ctl {
            LinkCtl::ReliableAck { cum, selective } => {
                let acked = cum.saturating_add(1).saturating_sub(self.base);
                let acked = acked.min(self.unacked.len() as u64);
                self.held -= self.unacked.drain(..acked as usize).flatten().count();
                self.base += acked;
                for seq in selective {
                    let freed = self.slot(seq).and_then(Option::take).is_some();
                    self.held -= usize::from(freed);
                }
                while let Some(None) = self.unacked.front() {
                    self.unacked.pop_front();
                    self.base += 1;
                }
            }
            // The fast path leaves the deadline where it was.
            LinkCtl::ReliableNack { missing } => {
                for seq in missing {
                    if let Some(Some((pkt, _))) = self.slot(seq) {
                        let pkt = pkt.clone();
                        self.retransmit(pkt, out);
                    }
                }
            }
            other => return Some(other),
        }
        None
    }

    /// The link's timer fired (`false` if `token` is not it, or is one
    /// that [`ArqSender::arm`] replaced): retransmits every entry that is
    /// due and restarts its clock.
    pub(crate) fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) -> bool {
        if token != ARQ_TOKEN || self.timer_at.is_none_or(|at| at > now) {
            return false;
        }
        self.timer_at = None;
        for i in 0..self.unacked.len() {
            if let Some((pkt, due)) = self.unacked[i].as_mut().filter(|(_, due)| *due <= now) {
                *due = now + self.rto;
                let pkt = pkt.clone();
                self.retransmit(pkt, out);
            }
        }
        true
    }

    /// Arms the link's timer, unless one is pending, at the earliest
    /// deadline or at `also` if that is earlier. `also` must be at most one
    /// RTO away, so that no deadline set later comes before a pending timer.
    ///
    /// A timer that is overdue is not pending but lost: a crashed process
    /// loses its timers and keeps its state. It is replaced, and should it
    /// fire after all, it is ignored.
    pub(crate) fn arm(&mut self, now: SimTime, also: Option<SimTime>, out: &mut Vec<LinkAction>) {
        let mut dues = self.unacked.iter().flatten().map(|&(_, due)| due);
        debug_assert!(self.timer_at.is_none_or(|at| dues.all(|due| at <= due)));
        if self.timer_at.is_some_and(|at| at >= now) {
            return;
        }
        let due = self.unacked.iter().flatten().map(|&(_, due)| due).min();
        if let Some(at) = due.into_iter().chain(also).min() {
            self.timer_at = Some(at);
            let delay = at.saturating_since(now);
            out.push(LinkAction::Timer {
                delay,
                token: ARQ_TOKEN,
            });
        }
    }

    fn slot(&mut self, seq: u64) -> Option<&mut Option<(DataPacket, SimTime)>> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.unacked.get_mut(i)
    }

    fn retransmit(&mut self, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.stats.retransmitted += 1;
        out.push(LinkAction::Observe(LinkEvent::Retransmit));
        emit!(out, LinkAction::Transmit(pkt));
    }

    pub(crate) fn bytes(&self) -> usize {
        let payloads = self.unacked.iter().flatten().map(|(p, _)| p.payload.len());
        vecdeque_bytes(&self.unacked) + payloads.sum::<usize>()
    }
}

/// The receiving half: what has arrived, the NACK fast path, and the
/// per-hop recovery observation.
#[derive(Debug, Default)]
pub(crate) struct ArqReceiver {
    /// Every link seq up to here has arrived.
    cum: u64,
    /// The highest link seq that has arrived (`cum` if none above it).
    high: u64,
    /// What arrived above `cum`; the window starts at `cum`.
    above: SeqWindow<RX_WINDOW>,
    /// Gaps reported by NACK, oldest first: `[from, to)` noticed at `at`.
    gaps: VecDeque<(u64, u64, SimTime)>,
    pub(super) stats: LinkProtoStats,
}

impl ArqReceiver {
    /// Takes in one data packet. A new one is delivered upward at once (out
    /// of order, §III-A) and acknowledged; a duplicate is only re-acked; one
    /// beyond the window is refused and counted as dropped, and the
    /// sender's RTO resends it once the window has moved.
    pub(crate) fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let seq = pkt.link_seq;
        if seq <= self.cum || self.above.contains(seq) {
            self.stats.dup_received += 1;
            return self.ack(out);
        }
        if !self.above.covers(seq) {
            self.stats.dropped += 1;
            return;
        }
        self.stats.received += 1;
        if let Some(&(.., at)) = self.gaps.iter().find(|g| g.0 <= seq && seq < g.1) {
            let after = now.saturating_since(at);
            out.push(LinkAction::Observe(LinkEvent::Recovered { after }));
        } else if seq > self.high + 1 {
            // Everything between the highest arrival and this one is
            // missing: ask for it now rather than wait for the RTO.
            let (from, to) = (self.high + 1, seq.min(self.high + 1 + MAX_NACK));
            for _ in from..to {
                out.push(LinkAction::Observe(LinkEvent::LossDetected));
            }
            self.gaps.push_back((from, to, now));
            self.stats.ctl_sent += 1;
            let missing = (from..to).collect();
            out.push(LinkAction::TransmitCtl(LinkCtl::ReliableNack { missing }));
        }
        self.high = self.high.max(seq);
        self.above.insert(seq);
        while self.above.contains(self.cum + 1) {
            self.cum += 1;
        }
        self.above.advance_to(self.cum);
        while self.gaps.front().is_some_and(|g| g.1 <= self.cum + 1) {
            self.gaps.pop_front();
        }
        debug_assert!(self.high - self.cum < RX_WINDOW, "state beyond the window");
        emit!(out, LinkAction::Deliver(pkt));
        self.ack(out);
    }

    fn ack(&mut self, out: &mut Vec<LinkAction>) {
        let above = (self.cum + 1..=self.high).filter(|&s| self.above.contains(s));
        let selective = above.take(MAX_SACK).collect();
        self.stats.ctl_sent += 1;
        let cum = self.cum;
        out.push(LinkAction::TransmitCtl(LinkCtl::ReliableAck {
            cum,
            selective,
        }));
    }

    pub(crate) fn bytes(&self) -> usize {
        self.above.bytes() + vecdeque_bytes(&self.gaps)
    }
}
