//! Client processes: the application side of the session interface.
//!
//! "To receive service from the overlay, a client simply connects to an
//! overlay node" (§II-B). [`ClientProcess`] is a scripted client driven by a
//! [`Workload`], recording per-flow delivery metrics (latency, jitter,
//! sequence coverage, duplicates) that the experiments harvest after a run.

use std::collections::{BTreeSet, HashMap};

use bytes::Bytes;
use son_netsim::hash::MintedMap;
use son_netsim::link::PipeId;
use son_netsim::process::{Process, ProcessId};
use son_netsim::sim::Ctx;
use son_netsim::stats::Percentiles;
use son_netsim::time::{SimDuration, SimTime};

use crate::addr::{Destination, FlowKey, GroupId, OverlayAddr};
use crate::node::CLIENT_IPC_DELAY;
use crate::packet::{ClientOp, SessionEvent, Wire};
use crate::service::FlowSpec;

/// The send schedule of one client flow.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Never sends (a pure receiver).
    None,
    /// Constant bit rate: `count` packets of `size` bytes every `interval`,
    /// starting at `start`.
    Cbr {
        /// Payload bytes per packet.
        size: usize,
        /// Gap between packets.
        interval: SimDuration,
        /// Packets to send (`u64::MAX` ≈ unbounded).
        count: u64,
        /// When the first packet goes out.
        start: SimTime,
    },
    /// Poisson arrivals: exponential gaps with the given mean.
    Poisson {
        /// Payload bytes per packet.
        size: usize,
        /// Mean gap between packets.
        mean_interval: SimDuration,
        /// Packets to send.
        count: u64,
        /// When the process starts.
        start: SimTime,
    },
    /// An explicit schedule: `(send_time, size)` pairs in time order.
    /// Used for variable-bitrate sources (e.g. video GOP patterns).
    Trace {
        /// The packets to send, in nondecreasing time order.
        schedule: std::sync::Arc<Vec<(SimTime, usize)>>,
    },
}

impl Workload {
    /// The common constant-bit-rate source: `count` packets of `size`
    /// bytes every `interval`, the first at 500 ms (after the overlay
    /// converges).
    #[must_use]
    pub fn cbr(size: usize, count: u64, interval: SimDuration) -> Workload {
        Workload::Cbr {
            size,
            interval,
            count,
            start: SimTime::from_millis(500),
        }
    }
}

/// One flow a client opens: destination, services, and workload.
#[derive(Debug, Clone)]
pub struct ClientFlow {
    /// Client-local flow handle.
    pub local_flow: u32,
    /// Where it goes.
    pub dst: Destination,
    /// Selected services.
    pub spec: FlowSpec,
    /// Send schedule.
    pub workload: Workload,
}

impl ClientFlow {
    /// A client's first flow (local flow 1).
    #[must_use]
    pub fn new(dst: Destination, spec: FlowSpec, workload: Workload) -> ClientFlow {
        ClientFlow {
            local_flow: 1,
            dst,
            spec,
            workload,
        }
    }
}

/// Configuration of a scripted client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The daemon process to attach to.
    pub daemon: ProcessId,
    /// The virtual port to bind.
    pub port: u16,
    /// Groups to join at startup (receivers join; senders need not).
    pub joins: Vec<GroupId>,
    /// Flows to open at startup.
    pub flows: Vec<ClientFlow>,
}

/// Receive-side metrics of one incoming flow at this client.
#[derive(Debug, Default, Clone)]
pub struct FlowRecv {
    /// Packets delivered.
    pub received: u64,
    /// Application-level duplicates (same seq delivered twice) — must stay
    /// zero if in-network de-duplication works.
    pub app_duplicates: u64,
    /// Deliveries whose seq was lower than an earlier delivery.
    pub out_of_order: u64,
    /// Highest sequence number delivered.
    pub max_seq: u64,
    /// Arrival times of deliveries (for gap/outage analysis).
    pub arrivals: Vec<(SimTime, u64)>,
    /// Per-delivery one-way latencies in milliseconds, parallel to
    /// `arrivals`.
    pub latencies_ms: Vec<f64>,
    seen: SeqSet,
    last_seq: u64,
}

/// How far past the bitmap a seq may land and still widen it.
const SEQ_SLACK: u64 = 1 << 16;

/// The seqs a receiver has seen, exactly: a bitmap up to the highest seq
/// seen, widened by at most [`SEQ_SLACK`] at a time, and a spill for any
/// seq beyond that, so a forged `u64::MAX` costs one entry, not a bitmap
/// reaching it. Spilled seqs move into the bitmap once it covers them.
#[derive(Debug, Default, Clone)]
struct SeqSet {
    bits: Vec<u64>,
    spill: BTreeSet<u64>,
}

impl SeqSet {
    /// Adds `seq`; `false` if it was already there.
    fn insert(&mut self, seq: u64) -> bool {
        let covered = self.bits.len() as u64 * 64;
        if seq >= covered {
            if seq - covered >= SEQ_SLACK {
                return self.spill.insert(seq);
            }
            self.bits.resize(seq as usize / 64 + 1, 0);
            let covered = self.bits.len() as u64 * 64;
            while let Some(s) = self.spill.first().copied().filter(|&s| s < covered) {
                self.spill.pop_first();
                self.bits[s as usize / 64] |= 1 << (s % 64);
            }
        }
        let (word, bit) = (&mut self.bits[seq as usize / 64], 1 << (seq % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

impl FlowRecv {
    /// One-way delivery latencies, in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> Percentiles {
        self.latencies_ms.iter().copied().collect()
    }

    /// Per-packet delay variation (|Δ latency| between successive
    /// deliveries), in milliseconds.
    #[must_use]
    pub fn jitter_ms(&self) -> Percentiles {
        let successive = self.latencies_ms.windows(2);
        successive.map(|w| (w[1] - w[0]).abs()).collect()
    }

    /// Deliveries whose one-way latency was within `deadline`.
    #[must_use]
    pub fn within_deadline(&self, deadline: SimDuration) -> u64 {
        let ms = deadline.as_millis_f64();
        self.latencies_ms.iter().filter(|&&l| l <= ms).count() as u64
    }
}

/// Send-side state of one outgoing flow.
#[derive(Debug)]
struct FlowSend {
    flow: ClientFlow,
    sent: u64,
    paused: bool,
    /// Sends suppressed while paused (backpressure honored).
    withheld: u64,
    /// When the pending send is due. The next one is paced from here, not
    /// from the instant the timer fired, so on the wall clock a wake-up
    /// that is late by less than a gap does not slow the flow down; a
    /// longer stall moves the schedule instead of releasing a burst. In the
    /// simulator a timer fires when it is due, so nothing changes there.
    due: SimTime,
}

/// A scripted overlay client.
#[derive(Debug)]
pub struct ClientProcess {
    config: ClientConfig,
    /// Assigned overlay address once connected.
    pub addr: Option<OverlayAddr>,
    /// Receive metrics per incoming flow.
    pub recv: HashMap<FlowKey, FlowRecv>,
    sends: Vec<FlowSend>,
    /// Total packets sent per local flow index.
    pub sent_counts: MintedMap<u32, u64>,
    /// Pause/resume events observed, for backpressure assertions.
    pub pause_events: u64,
    /// Resume events observed.
    pub resume_events: u64,
}

impl ClientProcess {
    /// Creates a client from its script.
    #[must_use]
    pub fn new(config: ClientConfig) -> Self {
        let sends = config
            .flows
            .iter()
            .map(|f| FlowSend {
                flow: f.clone(),
                sent: 0,
                paused: false,
                withheld: 0,
                due: SimTime::ZERO,
            })
            .collect();
        ClientProcess {
            config,
            addr: None,
            recv: HashMap::new(),
            sends,
            sent_counts: MintedMap::default(),
            pause_events: 0,
            resume_events: 0,
        }
    }

    /// Total packets sent on a local flow.
    #[must_use]
    pub fn sent(&self, local_flow: u32) -> u64 {
        self.sent_counts.get(&local_flow).copied().unwrap_or(0)
    }

    /// Sends withheld due to backpressure on a local flow.
    #[must_use]
    pub fn withheld(&self, local_flow: u32) -> u64 {
        self.sends
            .iter()
            .find(|s| s.flow.local_flow == local_flow)
            .map_or(0, |s| s.withheld)
    }

    /// The single receive log, when exactly one flow was received
    /// (convenience for experiments).
    ///
    /// # Panics
    ///
    /// Panics if zero or multiple flows were received.
    #[must_use]
    pub fn sole_recv(&self) -> &FlowRecv {
        assert_eq!(self.recv.len(), 1, "expected exactly one received flow");
        self.recv.values().next().expect("one flow")
    }

    fn daemon_send(&self, ctx: &mut Ctx<'_, Wire>, op: ClientOp) {
        ctx.send_direct(self.config.daemon, CLIENT_IPC_DELAY, Wire::FromClient(op));
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_, Wire>, idx: usize, first: bool) {
        let s = &mut self.sends[idx];
        let issued = s.sent + s.withheld;
        let next = match &s.flow.workload {
            Workload::None => None,
            Workload::Cbr {
                interval,
                count,
                start,
                ..
            } => (issued < *count).then(|| if first { *start } else { s.due + *interval }),
            Workload::Poisson {
                mean_interval,
                count,
                start,
                ..
            } => (issued < *count).then(|| {
                if first {
                    *start
                } else {
                    let gap = ctx.rng().exponential(mean_interval.as_secs_f64());
                    s.due + SimDuration::from_secs_f64(gap)
                }
            }),
            Workload::Trace { schedule } => schedule.get(issued as usize).map(|&(at, _)| at),
        };
        if let Some(next) = next {
            let now = ctx.now();
            s.due = next.max(now);
            ctx.set_timer(s.due.saturating_since(now), idx as u64);
        }
    }

    fn fire_send(&mut self, ctx: &mut Ctx<'_, Wire>, idx: usize) {
        let (local_flow, size, paused) = {
            let s = &self.sends[idx];
            let size = match &s.flow.workload {
                Workload::Cbr { size, .. } | Workload::Poisson { size, .. } => *size,
                Workload::Trace { schedule } => {
                    match schedule.get((s.sent + s.withheld) as usize) {
                        Some(&(_, size)) => size,
                        None => return,
                    }
                }
                Workload::None => return,
            };
            (s.flow.local_flow, size, s.paused)
        };
        if paused {
            self.sends[idx].withheld += 1;
        } else {
            self.sends[idx].sent += 1;
            *self.sent_counts.entry(local_flow).or_insert(0) += 1;
            self.daemon_send(
                ctx,
                ClientOp::Send {
                    local_flow,
                    size,
                    payload: Bytes::new(),
                },
            );
        }
        self.schedule_next(ctx, idx, false);
    }

    fn record_delivery(&mut self, now: SimTime, flow: FlowKey, seq: u64, created_at: SimTime) {
        let r = self.recv.entry(flow).or_default();
        if !r.seen.insert(seq) {
            r.app_duplicates += 1;
            return;
        }
        let latency = now.saturating_since(created_at).as_millis_f64();
        if seq < r.last_seq {
            r.out_of_order += 1;
        }
        r.last_seq = seq;
        r.max_seq = r.max_seq.max(seq);
        r.received += 1;
        r.arrivals.push((now, seq));
        r.latencies_ms.push(latency);
    }
}

impl Process<Wire> for ClientProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        self.daemon_send(
            ctx,
            ClientOp::Connect {
                port: self.config.port,
            },
        );
        for g in self.config.joins.clone() {
            self.daemon_send(ctx, ClientOp::Join(g));
        }
        for f in self.config.flows.clone() {
            self.daemon_send(
                ctx,
                ClientOp::OpenFlow {
                    local_flow: f.local_flow,
                    dst: f.dst,
                    spec: f.spec,
                },
            );
        }
        for idx in 0..self.sends.len() {
            self.schedule_next(ctx, idx, true);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        _from: ProcessId,
        _pipe: Option<PipeId>,
        msg: Wire,
    ) {
        let Wire::ToClient(event) = msg else { return };
        match event {
            SessionEvent::Connected { addr } => self.addr = Some(addr),
            SessionEvent::Deliver {
                flow,
                seq,
                created_at,
                ..
            } => {
                self.record_delivery(ctx.now(), flow, seq, created_at);
            }
            SessionEvent::FlowPaused { local_flow } => {
                self.pause_events += 1;
                if let Some(s) = self
                    .sends
                    .iter_mut()
                    .find(|s| s.flow.local_flow == local_flow)
                {
                    s.paused = true;
                }
            }
            SessionEvent::FlowResumed { local_flow } => {
                self.resume_events += 1;
                if let Some(s) = self
                    .sends
                    .iter_mut()
                    .find(|s| s.flow.local_flow == local_flow)
                {
                    s.paused = false;
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, token: u64) {
        let idx = token as usize;
        if idx < self.sends.len() {
            self.fire_send(ctx, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flow_key() -> FlowKey {
        FlowKey::new(
            OverlayAddr::new(son_topo::NodeId(0), 1),
            Destination::Unicast(OverlayAddr::new(son_topo::NodeId(1), 2)),
        )
    }

    #[test]
    fn record_delivery_tracks_latency_and_dups() {
        let mut c = ClientProcess::new(ClientConfig {
            daemon: ProcessId(0),
            port: 1,
            joins: vec![],
            flows: vec![],
        });
        c.record_delivery(
            SimTime::from_millis(15),
            flow_key(),
            1,
            SimTime::from_millis(5),
        );
        c.record_delivery(
            SimTime::from_millis(27),
            flow_key(),
            2,
            SimTime::from_millis(15),
        );
        c.record_delivery(
            SimTime::from_millis(30),
            flow_key(),
            2,
            SimTime::from_millis(15),
        );
        let r = c.sole_recv();
        assert_eq!(r.received, 2);
        assert_eq!(r.app_duplicates, 1);
        assert_eq!(r.max_seq, 2);
        assert_eq!(r.latency_ms().samples(), &[10.0, 12.0]);
        assert_eq!(r.jitter_ms().samples(), &[2.0]);
    }

    #[test]
    fn out_of_order_detection() {
        let mut c = ClientProcess::new(ClientConfig {
            daemon: ProcessId(0),
            port: 1,
            joins: vec![],
            flows: vec![],
        });
        for seq in [1, 3, 2] {
            c.record_delivery(SimTime::from_millis(seq), flow_key(), seq, SimTime::ZERO);
        }
        assert_eq!(c.sole_recv().out_of_order, 1);
    }

    #[test]
    #[should_panic(expected = "exactly one received flow")]
    fn sole_recv_panics_when_empty() {
        let c = ClientProcess::new(ClientConfig {
            daemon: ProcessId(0),
            port: 1,
            joins: vec![],
            flows: vec![],
        });
        let _ = c.sole_recv();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a `HashSet`: seqs in and out of order, late copies of old
        /// seqs, jumps just short of and past the slack, and forged seqs up
        /// to `u64::MAX`. The receiver's duplicate count stays exact and the
        /// set's room follows the highest seq its bitmap holds.
        fn seq_set_matches_a_hash_set(
            ops in proptest::collection::vec((0u8..10, any::<u64>()), 0..600),
        ) {
            let mut c = ClientProcess::new(ClientConfig {
                daemon: ProcessId(0),
                port: 1,
                joins: vec![],
                flows: vec![],
            });
            let mut set = SeqSet::default();
            let mut model = std::collections::HashSet::new();
            let (mut history, mut next, mut dups) = (Vec::new(), 1u64, 0u64);
            for (kind, draw) in ops {
                let seq = match kind {
                    0..=3 => {
                        next += draw % 4;
                        next
                    }
                    4..=5 if !history.is_empty() => history[draw as usize % history.len()],
                    6 => next + SEQ_SLACK - 64 + draw % 128,
                    7 => next + draw % (4 * SEQ_SLACK),
                    8 => u64::MAX - draw % 3,
                    _ => draw,
                };
                history.push(seq);
                let fresh = model.insert(seq);
                dups += u64::from(!fresh);
                prop_assert_eq!(set.insert(seq), fresh, "seq {}", seq);
                c.record_delivery(SimTime::ZERO, flow_key(), seq, SimTime::ZERO);
                let covered = set.bits.len() as u64 * 64;
                let dense_max = model.iter().copied().filter(|&s| s < covered).max();
                prop_assert!(covered <= dense_max.map_or(0, |m| m + 64));
                prop_assert!(set.bits.capacity() <= (2 * set.bits.len()).max(4));
                prop_assert!(set.spill.iter().all(|&s| s >= covered));
                prop_assert_eq!(set.spill.len() + set.bits.iter().map(|w| w.count_ones() as usize).sum::<usize>(), model.len());
            }
            let r = c.recv.get(&flow_key());
            prop_assert_eq!(r.map_or(0, |r| r.app_duplicates), dups);
            prop_assert_eq!(r.map_or(0, |r| r.received), model.len() as u64);
        }
    }

    #[test]
    fn a_forged_seq_costs_one_entry() {
        let mut set = SeqSet::default();
        for seq in 1..=10_000 {
            assert!(set.insert(seq));
        }
        let room = set.bits.capacity();
        assert!(set.insert(u64::MAX) && !set.insert(u64::MAX));
        assert!(!set.insert(5_000), "a late copy of an old seq");
        assert_eq!((set.bits.capacity(), set.spill.len()), (room, 1));
        assert!(room * 8 <= 4 * 1024, "{room} words for 10 k seqs");
    }
}
