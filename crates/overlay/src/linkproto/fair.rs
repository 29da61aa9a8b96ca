//! Intrusion-tolerant fair scheduling (§IV-B) and the FIFO baseline.
//!
//! "Both Priority and Reliable messaging use fair buffer allocation and
//! round-robin scheduling to ensure that a compromised source cannot consume
//! the resources of other sources to prevent their messages from being
//! forwarded."
//!
//! * [`ItPriorityLink`] — per-**source** bounded buffers; when a source's
//!   buffer fills, the oldest lowest-priority message *of that source* is
//!   dropped; egress serves active sources round-robin.
//! * [`ItReliableLink`] — per-**flow** (source, destination) bounded
//!   buffers; when a flow's buffer fills the node stops accepting and
//!   backpressure propagates hop by hop to the source; egress serves active
//!   flows round-robin; per-packet acknowledgment and retransmission give
//!   complete reliability.
//! * [`FifoLink`] — a single shared tail-drop queue: the baseline a
//!   flooding attacker defeats.
//!
//! All three pace egress at a configured rate, modelling the node's
//! transmission capacity — without contention there is nothing to be fair
//! about.

use std::collections::{BTreeMap, VecDeque};

use son_netsim::time::{SimDuration, SimTime};
use son_obs::DropClass;

use crate::addr::{FlowKey, OverlayAddr};
use crate::packet::{DataPacket, LinkCtl};

use super::arq::{ArqReceiver, ArqSender};
use super::{LinkAction, LinkEvent, LinkProto, LinkProtoStats, Pacer};

use super::TOKEN_TX_DONE;

// ---------------------------------------------------------------------------
// Intrusion-Tolerant Priority
// ---------------------------------------------------------------------------

/// Per-source fair scheduler with priority + age eviction.
#[derive(Debug)]
pub struct ItPriorityLink {
    per_source_cap: usize,
    queues: BTreeMap<OverlayAddr, VecDeque<DataPacket>>,
    rr: VecDeque<OverlayAddr>,
    pacer: Pacer,
    next_link_seq: u64,
    stats: LinkProtoStats,
}

impl ItPriorityLink {
    /// Creates a priority scheduler.
    ///
    /// * `per_source_cap` — max packets buffered per active source.
    /// * `rate_bits_per_sec` — egress capacity (`None` = unpaced).
    #[must_use]
    pub fn new(per_source_cap: usize, rate_bits_per_sec: Option<u64>) -> Self {
        assert!(per_source_cap > 0, "per-source capacity must be positive");
        ItPriorityLink {
            per_source_cap,
            queues: BTreeMap::new(),
            rr: VecDeque::new(),
            pacer: Pacer::new(rate_bits_per_sec),
            next_link_seq: 0,
            stats: LinkProtoStats::default(),
        }
    }

    fn evict(&mut self, source: OverlayAddr, out: &mut Vec<LinkAction>) {
        // "The oldest lowest priority message for that source" is dropped.
        let Some(q) = self.queues.get_mut(&source) else {
            return;
        };
        let Some(min_prio) = q.iter().map(|p| p.spec.priority).min() else {
            return;
        };
        if let Some(pos) = q.iter().position(|p| p.spec.priority == min_prio) {
            q.remove(pos);
            self.stats.dropped += 1;
            out.push(LinkAction::Observe(LinkEvent::Drop(DropClass::BufferFull)));
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        while self.pacer.idle(now) {
            let Some(source) = self.rr.pop_front() else {
                return;
            };
            let Some(q) = self.queues.get_mut(&source) else {
                continue;
            };
            let Some(pkt) = q.pop_front() else {
                continue;
            };
            if q.is_empty() {
                // Sources are whatever senders claim to be: a drained one
                // keeps no state here.
                self.queues.remove(&source);
            } else {
                self.rr.push_back(source); // stays in the rotation
            }
            self.transmit(now, pkt, out);
        }
    }

    /// Puts `pkt` on the free wire.
    #[inline(always)]
    fn transmit(&mut self, now: SimTime, mut pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.next_link_seq += 1;
        pkt.link_seq = self.next_link_seq;
        let bytes = pkt.wire_size();
        emit!(out, LinkAction::Transmit(pkt));
        self.pacer.start(now, bytes, out);
    }
}

impl LinkProto for ItPriorityLink {
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let source = pkt.flow.src;
        self.stats.sent += 1;
        if self.rr.is_empty() && self.pacer.idle(now) {
            // Nobody waits and the wire is free: there is nothing to be
            // fair about, and no queue to enter and leave.
            return self.transmit(now, pkt, out);
        }
        let q = self.queues.entry(source).or_default();
        let was_empty = q.is_empty();
        q.push_back(pkt);
        if q.len() > self.per_source_cap {
            self.evict(source, out);
        }
        if was_empty && !self.queues[&source].is_empty() && !self.rr.contains(&source) {
            self.rr.push_back(source);
        }
        self.pump(now, out);
    }

    fn on_data(&mut self, _now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.stats.received += 1;
        emit!(out, LinkAction::Deliver(pkt));
    }

    fn on_ctl(&mut self, _now: SimTime, _ctl: LinkCtl, _out: &mut Vec<LinkAction>) {}

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        if token == TOKEN_TX_DONE {
            self.pump(now, out);
        }
    }

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }

    fn queue_depth(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    fn queue_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, vecdeque_bytes};
        btreemap_bytes(&self.queues)
            + self
                .queues
                .values()
                .map(|q| vecdeque_bytes(q) + q.iter().map(|p| p.payload.len()).sum::<usize>())
                .sum::<usize>()
            + vecdeque_bytes(&self.rr)
    }
}

// ---------------------------------------------------------------------------
// Intrusion-Tolerant Reliable
// ---------------------------------------------------------------------------

/// Per-flow credit window (also the per-flow buffer bound at each hop).
pub const IT_RELIABLE_WINDOW: u32 = 16;
/// Ingress queue length at which the source client is paused.
const PAUSE_AT: usize = IT_RELIABLE_WINDOW as usize;
/// Ingress queue length at which a paused client resumes.
const RESUME_AT: usize = IT_RELIABLE_WINDOW as usize / 2;
/// Hard cap beyond which even ingress packets are dropped (a client that
/// ignores backpressure).
const HARD_CAP: usize = 2 * IT_RELIABLE_WINDOW as usize;
/// The persist probe's back-off stops doubling at this many RTOs.
const MAX_PROBE_BACKOFF: u64 = 64;

/// One flow on one link: the sending side's queue and grant, and the
/// receiving side's count of what it moved on.
#[derive(Debug, Default)]
struct ItFlowState {
    queue: VecDeque<DataPacket>,
    /// The downstream's latest grant: we may have sent this many in all
    /// (the window, before any grant).
    granted_upto: u64,
    sent: u64,
    /// The link seq of this flow's latest transmission.
    last_seq: u64,
    consumed: u64,
    paused: bool,
}

impl ItFlowState {
    fn credits(&self) -> u32 {
        let window = u64::from(IT_RELIABLE_WINDOW);
        let granted_upto = self.granted_upto.max(window);
        granted_upto.saturating_sub(self.sent).min(window) as u32
    }
}

/// Per-flow fair scheduler with hop-by-hop credits over the ARQ core.
///
/// Grants are cumulative (`Credit { granted_upto }`), so each one repairs
/// any lost before it. A grant lost after the sender has stalled is
/// repaired by a persist probe (RFC 1122 §4.2.2.17): `granted_upto: 0`,
/// which no real grant is, asks the downstream to repeat its grant.
#[derive(Debug)]
pub struct ItReliableLink {
    flows: BTreeMap<FlowKey, ItFlowState>,
    rr: VecDeque<FlowKey>,
    pacer: Pacer,
    tx: ArqSender,
    rx: ArqReceiver,
    /// When the next persist probe is due, while a flow is stalled.
    probe_at: Option<SimTime>,
    probe_backoff: SimDuration,
    stats: LinkProtoStats,
}

impl ItReliableLink {
    /// Creates an IT-Reliable scheduler with the given retransmission
    /// timeout and egress rate.
    #[must_use]
    pub fn new(rto: SimDuration, rate_bits_per_sec: Option<u64>) -> Self {
        ItReliableLink {
            flows: BTreeMap::new(),
            rr: VecDeque::new(),
            pacer: Pacer::new(rate_bits_per_sec),
            tx: ArqSender::new(rto),
            rx: ArqReceiver::default(),
            probe_at: None,
            probe_backoff: rto,
            stats: LinkProtoStats::default(),
        }
    }

    /// Remaining downstream credits of one flow.
    #[must_use]
    pub fn credits(&self, flow: FlowKey) -> u32 {
        self.flows
            .get(&flow)
            .map_or(IT_RELIABLE_WINDOW, ItFlowState::credits)
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        while self.pacer.idle(now) {
            // Round-robin across flows that have both data and credits.
            let mut chosen = None;
            for _ in 0..self.rr.len() {
                let Some(flow) = self.rr.pop_front() else {
                    break;
                };
                let st = self.flows.get(&flow).expect("rr entries have state");
                if !st.queue.is_empty() && st.credits() > 0 {
                    chosen = Some(flow);
                    break;
                }
                if !st.queue.is_empty() {
                    // Stalled on credits: keep it in the rotation.
                    self.rr.push_back(flow);
                } // empty queues drop out of the rotation
            }
            let Some(flow) = chosen else { return };
            let st = self.flows.get_mut(&flow).expect("chosen flow has state");
            let pkt = st.queue.pop_front().expect("chosen flow has data");
            st.sent += 1;
            if !st.queue.is_empty() {
                self.rr.push_back(flow);
            }
            // Backpressure release at the ingress.
            if st.paused && st.queue.len() <= RESUME_AT {
                st.paused = false;
                out.push(LinkAction::ResumeFlow(flow));
            }
            let bytes = pkt.wire_size();
            out.push(LinkAction::Consumed(flow));
            st.last_seq = self.tx.send(now, pkt, out);
            self.pacer.start(now, bytes, out);
        }
    }

    /// Keeps the link's one ARQ timer armed while anything needs it: an
    /// unacked packet, or queued data that may be stalled on a lost grant,
    /// which wakes it at least once an RTO for the persist probe's clock.
    fn arm(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        let wake = now + self.tx.rto;
        let persist = (!self.rr.is_empty()).then(|| self.probe_at.map_or(wake, |at| at.min(wake)));
        self.tx.arm(now, persist, out);
    }

    /// Probes for the grant of every flow that only a lost grant can hold
    /// (queued data, no credits, nothing unacked) once one has stayed so
    /// for the back-off, which doubles while any stays stalled.
    fn persist(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        let due = now >= *self.probe_at.get_or_insert(now + self.probe_backoff);
        let mut stalled = 0;
        for flow in &self.rr {
            let st = &self.flows[flow];
            if st.queue.is_empty() || st.credits() > 0 || st.last_seq >= self.tx.base {
                continue;
            }
            stalled += 1;
            if due {
                self.stats.ctl_sent += 1;
                let probe = LinkCtl::Credit {
                    flow: *flow,
                    granted_upto: 0,
                };
                out.push(LinkAction::TransmitCtl(probe));
            }
        }
        if stalled == 0 {
            (self.probe_at, self.probe_backoff) = (None, self.tx.rto);
        } else if due {
            self.probe_backoff = (self.probe_backoff * 2).min(self.tx.rto * MAX_PROBE_BACKOFF);
            self.probe_at = Some(now + self.probe_backoff);
        }
    }

    /// Sends a grant upstream.
    fn credit(&mut self, flow: FlowKey, granted_upto: u64, out: &mut Vec<LinkAction>) {
        self.stats.ctl_sent += 1;
        out.push(LinkAction::TransmitCtl(LinkCtl::Credit {
            flow,
            granted_upto,
        }));
    }
}

impl LinkProto for ItReliableLink {
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let flow = pkt.flow;
        let st = self.flows.entry(flow).or_default();
        if st.queue.len() >= HARD_CAP {
            // The source ignored backpressure; refusing is all that is left.
            self.stats.dropped += 1;
            out.push(LinkAction::Observe(LinkEvent::Drop(DropClass::BufferFull)));
            return;
        }
        let was_empty = st.queue.is_empty();
        st.queue.push_back(pkt);
        if st.queue.len() >= PAUSE_AT && !st.paused {
            st.paused = true;
            out.push(LinkAction::PauseFlow(flow));
        }
        if was_empty && !self.rr.contains(&flow) {
            self.rr.push_back(flow);
        }
        self.pump(now, out);
        self.arm(now, out);
    }

    fn on_data(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.rx.on_data(now, pkt, out);
        self.arm(now, out);
    }

    fn on_ctl(&mut self, now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>) {
        match self.tx.on_ctl(ctl, out) {
            // A persist probe: repeat this flow's grant.
            Some(LinkCtl::Credit {
                flow,
                granted_upto: 0,
            }) => {
                let consumed = self.flows.get(&flow).map_or(0, |st| st.consumed);
                self.credit(flow, consumed + u64::from(IT_RELIABLE_WINDOW), out);
            }
            Some(LinkCtl::Credit { flow, granted_upto }) => {
                if let Some(st) = self.flows.get_mut(&flow) {
                    st.granted_upto = st.granted_upto.max(granted_upto);
                }
                self.pump(now, out);
            }
            _ => {}
        }
        self.arm(now, out);
    }

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        if token == TOKEN_TX_DONE {
            self.pump(now, out);
        } else if self.tx.on_timer(now, token, out) {
            self.persist(now, out);
        }
        self.arm(now, out);
    }

    fn on_consumed(&mut self, _now: SimTime, flow: FlowKey, out: &mut Vec<LinkAction>) {
        // The node moved on a packet we delivered: the upstream sender may
        // have one more in flight.
        let st = self.flows.entry(flow).or_default();
        st.consumed += 1;
        let granted_upto = st.consumed + u64::from(IT_RELIABLE_WINDOW);
        self.credit(flow, granted_upto, out);
    }

    fn stats(&self) -> LinkProtoStats {
        [self.stats, self.tx.stats, self.rx.stats].into_iter().sum()
    }

    fn queue_depth(&self) -> usize {
        let queued: usize = self.flows.values().map(|f| f.queue.len()).sum();
        queued + self.tx.held
    }

    fn queue_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, vecdeque_bytes};
        btreemap_bytes(&self.flows)
            + self
                .flows
                .values()
                .map(|f| {
                    vecdeque_bytes(&f.queue)
                        + f.queue.iter().map(|p| p.payload.len()).sum::<usize>()
                })
                .sum::<usize>()
            + vecdeque_bytes(&self.rr)
            + self.tx.bytes()
            + self.rx.bytes()
    }
}

// ---------------------------------------------------------------------------
// FIFO baseline
// ---------------------------------------------------------------------------

/// A single shared tail-drop FIFO queue — what a plain router does, and what
/// a flooding attacker starves (§IV-B's motivation).
#[derive(Debug)]
pub struct FifoLink {
    cap: usize,
    queue: VecDeque<DataPacket>,
    pacer: Pacer,
    next_link_seq: u64,
    stats: LinkProtoStats,
}

impl FifoLink {
    /// Creates a FIFO queue with `cap` packets of shared buffer and the
    /// given egress rate.
    #[must_use]
    pub fn new(cap: usize, rate_bits_per_sec: Option<u64>) -> Self {
        assert!(cap > 0, "capacity must be positive");
        FifoLink {
            cap,
            queue: VecDeque::new(),
            pacer: Pacer::new(rate_bits_per_sec),
            next_link_seq: 0,
            stats: LinkProtoStats::default(),
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        while self.pacer.idle(now) {
            let Some(mut pkt) = self.queue.pop_front() else {
                return;
            };
            self.next_link_seq += 1;
            pkt.link_seq = self.next_link_seq;
            let bytes = pkt.wire_size();
            emit!(out, LinkAction::Transmit(pkt));
            self.pacer.start(now, bytes, out);
        }
    }
}

impl LinkProto for FifoLink {
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.stats.sent += 1;
        if self.queue.len() >= self.cap {
            self.stats.dropped += 1; // tail drop, no matter whose packet
            out.push(LinkAction::Observe(LinkEvent::Drop(DropClass::BufferFull)));
            return;
        }
        self.queue.push_back(pkt);
        self.pump(now, out);
    }

    fn on_data(&mut self, _now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        self.stats.received += 1;
        emit!(out, LinkAction::Deliver(pkt));
    }

    fn on_ctl(&mut self, _now: SimTime, _ctl: LinkCtl, _out: &mut Vec<LinkAction>) {}

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        if token == TOKEN_TX_DONE {
            self.pump(now, out);
        }
    }

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }

    fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn queue_bytes(&self) -> usize {
        son_obs::footprint::vecdeque_bytes(&self.queue)
            + self.queue.iter().map(|p| p.payload.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{pkt_from, transmitted};
    use super::*;
    use crate::service::Priority;

    /// Egress at 8 Mbit/s: a 148-byte wire packet (100B payload + header)
    /// takes 148 us to serialize.
    const RATE: Option<u64> = Some(8_000_000);

    fn drain(
        link: &mut dyn LinkProto,
        mut now: SimTime,
        actions: &mut Vec<LinkAction>,
    ) -> Vec<DataPacket> {
        // Fire TX_DONE timers until the scheduler goes quiet, collecting
        // transmissions in order. RTO timers (token != 0) are ignored: these
        // tests exercise scheduling, not loss recovery, and RTOs re-arm
        // forever by design.
        let mut sent = Vec::new();
        for _ in 0..100_000 {
            let mut tx_done: Option<SimDuration> = None;
            for a in actions.drain(..) {
                match a {
                    LinkAction::Transmit(p) => sent.push(p),
                    LinkAction::Timer { delay, token } if token == TOKEN_TX_DONE => {
                        tx_done = Some(delay);
                    }
                    _ => {}
                }
            }
            let Some(delay) = tx_done else { return sent };
            now += delay;
            link.on_timer(now, TOKEN_TX_DONE, actions);
        }
        panic!("drain did not quiesce");
    }

    /// How many of `sent` came from `node`'s client.
    fn sent_from(sent: &[DataPacket], node: usize) -> usize {
        sent.iter().filter(|p| p.flow.src.node.0 == node).count()
    }

    #[test]
    fn priority_round_robin_is_fair_under_flood() {
        let mut link = ItPriorityLink::new(16, RATE);
        let mut out = Vec::new();
        // Attacker (source 9) floods 100 packets; two correct sources send 10 each.
        for i in 0..100 {
            link.on_send(SimTime::ZERO, pkt_from(9, i, 100), &mut out);
        }
        for i in 0..10 {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
            link.on_send(SimTime::ZERO, pkt_from(2, i, 100), &mut out);
        }
        let sent = drain(&mut link, SimTime::ZERO, &mut out);
        assert_eq!(sent_from(&sent, 1), 10, "correct source 1 fully served");
        assert_eq!(sent_from(&sent, 2), 10, "correct source 2 fully served");
        // The attacker was capped at its buffer; most of its flood dropped.
        assert!(
            link.stats().dropped >= 80,
            "dropped={}",
            link.stats().dropped
        );
    }

    /// A source that has drained leaves nothing behind, however many
    /// distinct sources a link has seen: 10 000 of them, ten at a time.
    #[test]
    fn drained_sources_keep_no_state() {
        let fresh = ItPriorityLink::new(16, RATE).queue_bytes();
        let mut link = ItPriorityLink::new(16, RATE);
        let mut out = Vec::new();
        let mut sent = 0;
        for burst in 0..1_000 {
            // Ten packets serialize in 1.5 ms.
            let now = SimTime::from_millis(2 * burst);
            for source in 0..10 {
                let source = (10 * burst + source) as usize;
                link.on_send(now, pkt_from(source, 0, 100), &mut out);
            }
            assert_eq!(link.queue_depth(), 9, "all but the one on the wire");
            sent += drain(&mut link, now, &mut out).len();
        }
        assert_eq!(sent, 10_000);
        assert_eq!(link.queue_depth(), 0);
        let left = link.queue_bytes() - fresh;
        assert!(left <= 512, "{left} B: more than the rotation's spare room");
    }

    #[test]
    fn priority_eviction_keeps_high_priority() {
        // Paced, so the first packet holds the wire while the rest queue.
        let mut link = ItPriorityLink::new(2, Some(8_000));
        let mut out = Vec::new();
        let low_high_low_low = [Priority::LOW, Priority::HIGH, Priority::LOW, Priority::LOW];
        for (seq, priority) in low_high_low_low.into_iter().enumerate() {
            let mut p = pkt_from(1, seq as u64, 100);
            p.spec.priority = priority;
            link.on_send(SimTime::ZERO, p, &mut out);
        }
        // 1 and 2 filled the buffer; 3 evicted the oldest of the lowest: 2.
        assert_eq!(link.stats().dropped, 1);
        let sent = drain(&mut link, SimTime::ZERO, &mut out);
        let seqs: Vec<u64> = sent.iter().map(|p| p.flow_seq).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
    }

    #[test]
    fn fifo_flood_starves_correct_sources() {
        let mut link = FifoLink::new(16, RATE);
        let mut out = Vec::new();
        // Attacker floods 1000 packets before the correct source's 10 arrive.
        for i in 0..1000 {
            link.on_send(SimTime::ZERO, pkt_from(9, i, 100), &mut out);
        }
        for i in 0..10 {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
        }
        let sent = drain(&mut link, SimTime::ZERO, &mut out);
        assert_eq!(
            sent_from(&sent, 1),
            0,
            "FIFO tail drop starves the late correct source"
        );
        assert!(link.stats().dropped > 900);
    }

    /// A grant for `flow` up to `granted_upto` packets in all.
    fn grant(flow: FlowKey, granted_upto: u64) -> LinkCtl {
        LinkCtl::Credit { flow, granted_upto }
    }

    #[test]
    fn it_reliable_credits_bound_in_flight_and_repair_lost_grants() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        let flow = pkt_from(1, 0, 100).flow;
        for i in 0..40 {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
        }
        let window = u64::from(IT_RELIABLE_WINDOW);
        assert_eq!(
            transmitted(&out).len() as u64,
            window,
            "window caps in-flight"
        );
        assert_eq!(link.credits(flow), 0);
        // One packet consumed downstream releases exactly one more.
        out.clear();
        link.on_ctl(SimTime::ZERO, grant(flow, window + 1), &mut out);
        assert_eq!(transmitted(&out).len(), 1);
        // The grant for the second consumption is lost; the third one's
        // covers it, and a stale grant changes nothing.
        out.clear();
        link.on_ctl(SimTime::ZERO, grant(flow, window + 3), &mut out);
        link.on_ctl(SimTime::ZERO, grant(flow, window + 2), &mut out);
        assert_eq!(transmitted(&out).len(), 2);
    }

    #[test]
    fn it_reliable_pauses_and_resumes_source() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        let flow = pkt_from(1, 0, 100).flow;
        // Credits run out at 16; further sends queue; at PAUSE_AT the flow pauses.
        let mut paused = false;
        for i in 0..(IT_RELIABLE_WINDOW as u64 + PAUSE_AT as u64 + 2) {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
            if out
                .iter()
                .any(|a| matches!(a, LinkAction::PauseFlow(f) if *f == flow))
            {
                paused = true;
            }
        }
        assert!(paused, "backpressure must reach the source");
        out.clear();
        // Granting plenty of credits drains the queue and resumes the flow.
        let plenty = 2 * u64::from(IT_RELIABLE_WINDOW);
        link.on_ctl(SimTime::ZERO, grant(flow, plenty), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, LinkAction::ResumeFlow(f) if *f == flow)));
    }

    #[test]
    fn it_reliable_grants_are_cumulative_and_repeated_on_a_probe() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        let flow = pkt_from(1, 0, 100).flow;
        link.on_consumed(SimTime::ZERO, flow, &mut out);
        link.on_consumed(SimTime::ZERO, flow, &mut out);
        link.on_ctl(SimTime::ZERO, grant(flow, 0), &mut out);
        let grants: Vec<u64> = out
            .iter()
            .filter_map(|a| match a {
                LinkAction::TransmitCtl(LinkCtl::Credit {
                    flow: f,
                    granted_upto,
                }) if *f == flow => Some(*granted_upto),
                _ => None,
            })
            .collect();
        let window = u64::from(IT_RELIABLE_WINDOW);
        assert_eq!(grants, vec![window + 1, window + 2, window + 2]);
    }

    #[test]
    fn it_reliable_round_robin_across_flows() {
        // Paced link; two flows contending: transmissions must alternate.
        let mut link = ItReliableLink::new(SimDuration::from_secs(10), RATE);
        let mut out = Vec::new();
        for i in 0..6 {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
            link.on_send(SimTime::ZERO, pkt_from(2, i, 100), &mut out);
        }
        let sent = drain(&mut link, SimTime::ZERO, &mut out);
        let order: Vec<usize> = sent.iter().map(|p| p.flow.src.node.0).collect();
        // After the first packet the pattern must alternate 1,2,1,2...
        let alternations = order.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            alternations >= order.len() - 2,
            "expected alternation, got {order:?}"
        );
    }

    #[test]
    fn fifo_preserves_order() {
        let mut link = FifoLink::new(100, RATE);
        let mut out = Vec::new();
        for i in 0..5 {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
        }
        let sent = drain(&mut link, SimTime::ZERO, &mut out);
        let seqs: Vec<u64> = sent.iter().map(|p| p.flow_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
