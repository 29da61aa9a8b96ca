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

use std::collections::{BTreeMap, HashMap, VecDeque};

use son_netsim::time::{SimDuration, SimTime};
use son_obs::DropClass;

use crate::addr::{FlowKey, OverlayAddr};
use crate::packet::{DataPacket, LinkCtl};

use super::{emit, LinkAction, LinkEvent, LinkProto, LinkProtoStats, Pacer};

/// Timer token used by all schedulers for "serializer free" events.
const TOKEN_TX_DONE: u32 = 0;
/// First token available for other purposes (IT-Reliable RTOs).
const TOKEN_BASE: u32 = 1;

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
    tx_pending: bool,
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
            tx_pending: false,
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
        while !self.tx_pending && self.pacer.idle(now) {
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
        let busy = self.pacer.start(now, pkt.wire_size());
        emit(out, LinkAction::Transmit(pkt));
        if !busy.is_zero() {
            self.tx_pending = true;
            out.push(LinkAction::Timer {
                delay: busy,
                token: TOKEN_TX_DONE,
            });
        }
    }
}

impl LinkProto for ItPriorityLink {
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let source = pkt.flow.src;
        self.stats.sent += 1;
        if self.rr.is_empty() && !self.tx_pending && self.pacer.idle(now) {
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
        emit(out, LinkAction::Deliver(pkt));
    }

    fn on_ctl(&mut self, _now: SimTime, _ctl: LinkCtl, _out: &mut Vec<LinkAction>) {}

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        if token == TOKEN_TX_DONE {
            self.tx_pending = false;
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

#[derive(Debug)]
struct ItFlowState {
    queue: VecDeque<DataPacket>,
    credits: u32,
    paused: bool,
}

impl Default for ItFlowState {
    fn default() -> Self {
        ItFlowState {
            queue: VecDeque::new(),
            credits: IT_RELIABLE_WINDOW,
            paused: false,
        }
    }
}

/// Per-flow fair scheduler with hop-by-hop credits, acknowledgments, and
/// retransmission.
#[derive(Debug)]
pub struct ItReliableLink {
    rto: SimDuration,
    flows: BTreeMap<FlowKey, ItFlowState>,
    rr: VecDeque<FlowKey>,
    pacer: Pacer,
    tx_pending: bool,
    // ARQ sender state.
    next_link_seq: u64,
    unacked: BTreeMap<u64, DataPacket>,
    rto_purpose: HashMap<u32, u64>,
    next_token: u32,
    // ARQ receiver state.
    recv_cum: u64,
    recv_above: std::collections::BTreeSet<u64>,
    stats: LinkProtoStats,
}

impl ItReliableLink {
    /// Creates an IT-Reliable scheduler with the given retransmission
    /// timeout and egress rate.
    #[must_use]
    pub fn new(rto: SimDuration, rate_bits_per_sec: Option<u64>) -> Self {
        ItReliableLink {
            rto,
            flows: BTreeMap::new(),
            rr: VecDeque::new(),
            pacer: Pacer::new(rate_bits_per_sec),
            tx_pending: false,
            next_link_seq: 0,
            unacked: BTreeMap::new(),
            rto_purpose: HashMap::new(),
            next_token: TOKEN_BASE,
            recv_cum: 0,
            recv_above: Default::default(),
            stats: LinkProtoStats::default(),
        }
    }

    /// Remaining downstream credits of one flow.
    #[must_use]
    pub fn credits(&self, flow: FlowKey) -> u32 {
        self.flows
            .get(&flow)
            .map_or(IT_RELIABLE_WINDOW, |f| f.credits)
    }

    fn arm_rto(&mut self, seq: u64, out: &mut Vec<LinkAction>) {
        let token = self.next_token;
        self.next_token = self.next_token.wrapping_add(1).max(TOKEN_BASE);
        self.rto_purpose.insert(token, seq);
        out.push(LinkAction::Timer {
            delay: self.rto,
            token,
        });
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        while !self.tx_pending && self.pacer.idle(now) {
            // Round-robin across flows that have both data and credits.
            let mut chosen = None;
            for _ in 0..self.rr.len() {
                let Some(flow) = self.rr.pop_front() else {
                    break;
                };
                let st = self.flows.get(&flow).expect("rr entries have state");
                if !st.queue.is_empty() && st.credits > 0 {
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
            let mut pkt = st.queue.pop_front().expect("chosen flow has data");
            st.credits -= 1;
            if !st.queue.is_empty() {
                self.rr.push_back(flow);
            }
            // Backpressure release at the ingress.
            if st.paused && st.queue.len() <= RESUME_AT {
                st.paused = false;
                out.push(LinkAction::ResumeFlow(flow));
            }
            self.next_link_seq += 1;
            pkt.link_seq = self.next_link_seq;
            self.unacked.insert(pkt.link_seq, pkt.clone());
            let busy = self.pacer.start(now, pkt.wire_size());
            self.arm_rto(pkt.link_seq, out);
            out.push(LinkAction::Consumed(flow));
            emit(out, LinkAction::Transmit(pkt));
            if !busy.is_zero() {
                self.tx_pending = true;
                out.push(LinkAction::Timer {
                    delay: busy,
                    token: TOKEN_TX_DONE,
                });
            }
        }
    }
}

impl LinkProto for ItReliableLink {
    fn on_send(&mut self, now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let flow = pkt.flow;
        self.stats.sent += 1;
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
    }

    fn on_data(&mut self, _now: SimTime, pkt: DataPacket, out: &mut Vec<LinkAction>) {
        let seq = pkt.link_seq;
        let dup = seq <= self.recv_cum || self.recv_above.contains(&seq);
        // Always ack so the sender's buffer drains even under ack loss.
        self.stats.ctl_sent += 1;
        if dup {
            self.stats.dup_received += 1;
            out.push(LinkAction::TransmitCtl(LinkCtl::ReliableAck {
                cum: self.recv_cum,
                selective: self.recv_above.iter().copied().take(64).collect(),
            }));
            return;
        }
        self.stats.received += 1;
        self.recv_above.insert(seq);
        while self.recv_above.remove(&(self.recv_cum + 1)) {
            self.recv_cum += 1;
        }
        out.push(LinkAction::TransmitCtl(LinkCtl::ReliableAck {
            cum: self.recv_cum,
            selective: self.recv_above.iter().copied().take(64).collect(),
        }));
        emit(out, LinkAction::Deliver(pkt));
    }

    fn on_ctl(&mut self, now: SimTime, ctl: LinkCtl, out: &mut Vec<LinkAction>) {
        match ctl {
            LinkCtl::ReliableAck { cum, selective } => {
                self.unacked = self.unacked.split_off(&(cum + 1));
                for seq in selective {
                    self.unacked.remove(&seq);
                }
            }
            LinkCtl::Credit { flow, credits } => {
                let st = self.flows.entry(flow).or_default();
                st.credits = (st.credits + credits).min(IT_RELIABLE_WINDOW);
                self.pump(now, out);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        if token == TOKEN_TX_DONE {
            self.tx_pending = false;
            self.pump(now, out);
            return;
        }
        let Some(seq) = self.rto_purpose.remove(&token) else {
            return;
        };
        if let Some(pkt) = self.unacked.get(&seq) {
            self.stats.retransmitted += 1;
            out.push(LinkAction::Observe(LinkEvent::Retransmit));
            emit(out, LinkAction::Transmit(pkt.clone()));
            self.arm_rto(seq, out);
        }
    }

    fn on_consumed(&mut self, _now: SimTime, flow: FlowKey, out: &mut Vec<LinkAction>) {
        // The node consumed a packet we delivered earlier: grant the upstream
        // sender one more credit for this flow.
        self.stats.ctl_sent += 1;
        out.push(LinkAction::TransmitCtl(LinkCtl::Credit {
            flow,
            credits: 1,
        }));
    }

    fn stats(&self) -> LinkProtoStats {
        self.stats
    }

    fn queue_depth(&self) -> usize {
        let queued: usize = self.flows.values().map(|f| f.queue.len()).sum();
        queued + self.unacked.len()
    }

    fn queue_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, btreeset_bytes, hashmap_bytes, vecdeque_bytes};
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
            + btreemap_bytes(&self.unacked)
            + self
                .unacked
                .values()
                .map(|p| p.payload.len())
                .sum::<usize>()
            + hashmap_bytes(&self.rto_purpose)
            + btreeset_bytes(&self.recv_above)
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
    tx_pending: bool,
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
            tx_pending: false,
            next_link_seq: 0,
            stats: LinkProtoStats::default(),
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<LinkAction>) {
        while !self.tx_pending && self.pacer.idle(now) {
            let Some(mut pkt) = self.queue.pop_front() else {
                return;
            };
            self.next_link_seq += 1;
            pkt.link_seq = self.next_link_seq;
            let busy = self.pacer.start(now, pkt.wire_size());
            emit(out, LinkAction::Transmit(pkt));
            if !busy.is_zero() {
                self.tx_pending = true;
                out.push(LinkAction::Timer {
                    delay: busy,
                    token: TOKEN_TX_DONE,
                });
            }
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
        emit(out, LinkAction::Deliver(pkt));
    }

    fn on_ctl(&mut self, _now: SimTime, _ctl: LinkCtl, _out: &mut Vec<LinkAction>) {}

    fn on_timer(&mut self, now: SimTime, token: u32, out: &mut Vec<LinkAction>) {
        if token == TOKEN_TX_DONE {
            self.tx_pending = false;
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

    #[test]
    fn it_reliable_credits_bound_in_flight() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        let flow = pkt_from(1, 0, 100).flow;
        for i in 0..40 {
            link.on_send(SimTime::ZERO, pkt_from(1, i, 100), &mut out);
        }
        let sent = transmitted(&out).len();
        assert_eq!(
            sent as u32, IT_RELIABLE_WINDOW,
            "window caps unacked transmissions"
        );
        assert_eq!(link.credits(flow), 0);
        // A credit grant releases exactly one more.
        out.clear();
        link.on_ctl(
            SimTime::ZERO,
            LinkCtl::Credit { flow, credits: 1 },
            &mut out,
        );
        assert_eq!(transmitted(&out).len(), 1);
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
        link.on_ctl(
            SimTime::ZERO,
            LinkCtl::Credit {
                flow,
                credits: IT_RELIABLE_WINDOW,
            },
            &mut out,
        );
        assert!(out
            .iter()
            .any(|a| matches!(a, LinkAction::ResumeFlow(f) if *f == flow)));
    }

    #[test]
    fn it_reliable_acks_release_and_rto_retransmits() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        link.on_send(SimTime::ZERO, pkt_from(1, 0, 100), &mut out);
        let rto_token = out
            .iter()
            .find_map(|a| match a {
                LinkAction::Timer { token, .. } if *token != TOKEN_TX_DONE => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        // No ack: RTO fires and retransmits.
        link.on_timer(SimTime::from_millis(50), rto_token, &mut out);
        assert_eq!(transmitted(&out).len(), 1);
        assert_eq!(link.stats().retransmitted, 1);
        // Ack: subsequent RTO is a no-op.
        let rto2 = out
            .iter()
            .find_map(|a| match a {
                LinkAction::Timer { token, .. } if *token != TOKEN_TX_DONE => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        link.on_ctl(
            SimTime::from_millis(51),
            LinkCtl::ReliableAck {
                cum: 1,
                selective: vec![],
            },
            &mut out,
        );
        link.on_timer(SimTime::from_millis(100), rto2, &mut out);
        assert!(transmitted(&out).is_empty());
    }

    #[test]
    fn it_reliable_receiver_acks_dedups_and_delivers() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        let mut p = pkt_from(1, 0, 100);
        p.link_seq = 1;
        link.on_data(SimTime::ZERO, p.clone(), &mut out);
        assert!(out.iter().any(|a| matches!(a, LinkAction::Deliver(_))));
        assert!(out.iter().any(|a| matches!(
            a,
            LinkAction::TransmitCtl(LinkCtl::ReliableAck { cum: 1, .. })
        )));
        out.clear();
        link.on_data(SimTime::ZERO, p, &mut out);
        assert!(out.iter().all(|a| !matches!(a, LinkAction::Deliver(_))));
        assert_eq!(link.stats().dup_received, 1);
    }

    #[test]
    fn it_reliable_consumed_grants_credit_upstream() {
        let mut link = ItReliableLink::new(SimDuration::from_millis(50), None);
        let mut out = Vec::new();
        let flow = pkt_from(1, 0, 100).flow;
        link.on_consumed(SimTime::ZERO, flow, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            LinkAction::TransmitCtl(LinkCtl::Credit { flow: f, credits: 1 }) if *f == flow
        )));
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
