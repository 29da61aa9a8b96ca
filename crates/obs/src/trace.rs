//! Cross-node packet tracing (Dapper-style, scaled to the overlay).
//!
//! A compact [`TraceContext`] — trace id plus hop counter — rides in the
//! data-packet header for a probabilistically sampled subset of packets
//! (decided once, at the ingress, by hashing the flow identity and the
//! flow sequence number). Every daemon a sampled packet touches appends
//! [`TraceEvent`]s (ingress, enqueue, transmit, loss-detected, retransmit,
//! recovery-delivered, deliver, reroute, drop-with-class) to its own
//! bounded [`TraceRing`]; the experiment harness concatenates the rings
//! into one `*.trace.jsonl` export, and the `son-trace` analyzer
//! reconstructs per-packet end-to-end [`Timeline`]s from it.
//!
//! The hop counter is incremented once per overlay-link traversal, so every
//! event at the k-th node along the path carries `hop == k`; a reconstructed
//! timeline is causally ordered when its hops are contiguous from zero and
//! each hop's first event is no earlier than the previous hop's.
//!
//! Timestamps are simulation-time nanoseconds (`SimTime::as_nanos`).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::ring::{Ring, Stamped};
use crate::taxonomy::DropClass;

/// A packet's identity: flow plus sequence number within the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketKey {
    /// Flow identifier.
    pub flow: u64,
    /// Sequence number within the flow.
    pub seq: u64,
}

/// The trace context carried in a sampled packet's header: the globally
/// unique trace id and the number of overlay links traversed so far.
///
/// Presence is the sampled flag — unsampled packets carry no context and
/// cost nothing beyond the ingress sampling hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Globally unique trace id, derived from (flow stable id, flow seq).
    pub id: u64,
    /// Overlay links traversed so far; 0 at the ingress node.
    pub hop: u8,
}

/// Approximate wire cost of a carried trace context (id + hop + flag).
pub const TRACE_CONTEXT_BYTES: usize = 10;

/// The deterministic trace id of packet (`flow_sid`, `seq`): a splitmix64
/// finalizer over both, so ids are unique per packet and well distributed
/// for modulo sampling. Never returns 0 (0 is reserved for node-scope
/// marker events).
#[must_use]
pub fn trace_id(flow_sid: u64, seq: u64) -> u64 {
    let mut z = flow_sid ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

impl TraceContext {
    /// The ingress sampling decision: a context for 1-in-`one_in` packets
    /// of a flow, chosen deterministically by the packet's trace id.
    /// `one_in == 0` disables sampling entirely; `one_in == 1` samples
    /// every packet.
    #[must_use]
    pub fn sample(flow_sid: u64, seq: u64, one_in: u32) -> Option<TraceContext> {
        if one_in == 0 {
            return None;
        }
        let id = trace_id(flow_sid, seq);
        if id.is_multiple_of(u64::from(one_in)) {
            Some(TraceContext { id, hop: 0 })
        } else {
            None
        }
    }
}

/// One stage of a sampled packet's life at one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// Built at the ingress from a client send; `masked` records whether a
    /// source-route stamp was attached (so the analyzer can report path
    /// taken vs stamped).
    Ingress {
        /// The packet carries a source-route stamp.
        masked: bool,
    },
    /// Entered a link protocol's send buffer.
    Enqueue,
    /// An original transmission was put on the wire.
    Transmit,
    /// A retransmission (or FEC repair delivery of it) was put on the wire.
    Retransmit,
    /// The receiver noticed a sequence gap on a link (node-scope marker:
    /// the missing packet has not arrived, so it cannot be identified yet).
    LossDetected,
    /// A previously missing packet surfaced at the receiver, `after_ns`
    /// after the gap was first noticed — the per-hop recovery latency.
    Recovered {
        /// Gap-detection-to-recovery time in nanoseconds.
        after_ns: u64,
    },
    /// Delivered to a local client at this node.
    Deliver,
    /// The node recomputed its routes after a topology change (node-scope
    /// marker).
    Reroute,
    /// Discarded, with the unified drop class.
    Drop(DropClass),
}

impl TraceStage {
    /// Stable export label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            TraceStage::Ingress { .. } => "ingress",
            TraceStage::Enqueue => "enqueue",
            TraceStage::Transmit => "transmit",
            TraceStage::Retransmit => "retransmit",
            TraceStage::LossDetected => "loss_detected",
            TraceStage::Recovered { .. } => "recovered",
            TraceStage::Deliver => "deliver",
            TraceStage::Reroute => "reroute",
            TraceStage::Drop(_) => "drop",
        }
    }

    /// Orders events that share a timestamp and hop the way they happen
    /// inside a node (arrival before queueing before the wire).
    #[must_use]
    pub const fn rank(self) -> u8 {
        match self {
            TraceStage::Ingress { .. } => 0,
            TraceStage::LossDetected => 1,
            TraceStage::Recovered { .. } => 2,
            TraceStage::Deliver => 3,
            TraceStage::Enqueue => 4,
            TraceStage::Retransmit => 5,
            TraceStage::Transmit => 6,
            TraceStage::Drop(_) => 7,
            TraceStage::Reroute => 8,
        }
    }
}

/// One recorded trace event at one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds.
    pub at_ns: u64,
    /// The packet's trace id; 0 for node-scope markers (loss-detected,
    /// reroute), which carry no packet identity.
    pub trace_id: u64,
    /// The daemon that recorded the event.
    pub node: u32,
    /// Overlay links the packet had traversed when the event happened.
    pub hop: u8,
    /// Which packet (zeroed for node-scope markers).
    pub packet: PacketKey,
    /// What happened.
    pub stage: TraceStage,
    /// Local link index the event occurred on, if any.
    pub link: Option<u32>,
}

impl TraceEvent {
    /// Whether this is a node-scope marker rather than a per-packet event.
    #[must_use]
    pub fn is_marker(&self) -> bool {
        self.trace_id == 0
    }

    /// The event as one `trace.jsonl` row (schema in `EXPERIMENTS.md`).
    #[must_use]
    pub fn row(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::str("trace")),
            ("at_ns", Json::U64(self.at_ns)),
            ("trace", Json::U64(self.trace_id)),
            ("node", Json::U64(u64::from(self.node))),
            ("hop", Json::U64(u64::from(self.hop))),
            ("flow", Json::U64(self.packet.flow)),
            ("seq", Json::U64(self.packet.seq)),
            ("stage", Json::str(self.stage.label())),
        ];
        match self.stage {
            TraceStage::Ingress { masked } => pairs.push(("masked", Json::Bool(masked))),
            TraceStage::Recovered { after_ns } => pairs.push(("after_ns", Json::U64(after_ns))),
            TraceStage::Drop(class) => pairs.push(("class", Json::str(class.label()))),
            _ => {}
        }
        if let Some(l) = self.link {
            pairs.push(("link", Json::U64(u64::from(l))));
        }
        Json::obj(pairs)
    }

    /// Parses one exported row back into an event. Returns `None` for rows
    /// that are not trace rows (other kinds share the experiment files).
    #[must_use]
    pub fn from_row(row: &Json) -> Option<TraceEvent> {
        if row.get("kind")?.as_str()? != "trace" {
            return None;
        }
        let stage = match row.get("stage")?.as_str()? {
            "ingress" => TraceStage::Ingress {
                masked: row.get("masked").and_then(Json::as_bool).unwrap_or(false),
            },
            "enqueue" => TraceStage::Enqueue,
            "transmit" => TraceStage::Transmit,
            "retransmit" => TraceStage::Retransmit,
            "loss_detected" => TraceStage::LossDetected,
            "recovered" => TraceStage::Recovered {
                after_ns: row.get("after_ns").and_then(Json::as_u64).unwrap_or(0),
            },
            "deliver" => TraceStage::Deliver,
            "reroute" => TraceStage::Reroute,
            "drop" => TraceStage::Drop(DropClass::from_label(row.get("class")?.as_str()?)?),
            _ => return None,
        };
        Some(TraceEvent {
            at_ns: row.get("at_ns")?.as_u64()?,
            trace_id: row.get("trace")?.as_u64()?,
            node: u32::try_from(row.get("node")?.as_u64()?).ok()?,
            hop: u8::try_from(row.get("hop")?.as_u64()?).ok()?,
            packet: PacketKey {
                flow: row.get("flow")?.as_u64()?,
                seq: row.get("seq")?.as_u64()?,
            },
            stage,
            link: row
                .get("link")
                .and_then(Json::as_u64)
                .and_then(|l| u32::try_from(l).ok()),
        })
    }
}

impl Stamped for TraceEvent {
    fn at_ns(&self) -> u64 {
        self.at_ns
    }
}

/// The per-node [`Ring`] of [`TraceEvent`]s.
pub type TraceRing = Ring<TraceEvent>;

/// How a reconstructed timeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Delivered to a client.
    Delivered,
    /// Explicitly dropped with this class.
    Dropped(DropClass),
    /// The last event is a transmission with no downstream arrival: the
    /// packet died on the wire and was never recovered. The analyzer
    /// attributes this as [`DropClass::Loss`].
    LostInFlight,
}

/// One sampled packet's end-to-end record, events sorted causally
/// (timestamp, then hop, then within-node stage order).
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The packet's trace id.
    pub trace_id: u64,
    /// The packet's flow/sequence identity.
    pub packet: PacketKey,
    /// All events recorded for this packet, causally sorted.
    pub events: Vec<TraceEvent>,
}

impl Timeline {
    /// How the packet's life ended.
    #[must_use]
    pub fn terminal(&self) -> Terminal {
        if self
            .events
            .iter()
            .any(|e| matches!(e.stage, TraceStage::Deliver))
        {
            return Terminal::Delivered;
        }
        if let Some(class) = self.events.iter().rev().find_map(|e| match e.stage {
            TraceStage::Drop(c) => Some(c),
            _ => None,
        }) {
            return Terminal::Dropped(class);
        }
        Terminal::LostInFlight
    }

    /// Ingress-to-delivery latency, if the packet was delivered.
    #[must_use]
    pub fn e2e_ns(&self) -> Option<u64> {
        let start = self.events.first()?.at_ns;
        let end = self
            .events
            .iter()
            .find(|e| matches!(e.stage, TraceStage::Deliver))?
            .at_ns;
        Some(end.saturating_sub(start))
    }

    /// Total recovery latency accumulated along the path (sum of
    /// `Recovered.after_ns`).
    #[must_use]
    pub fn recovery_ns(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.stage {
                TraceStage::Recovered { after_ns } => after_ns,
                _ => 0,
            })
            .sum()
    }

    /// The highest hop index any event reached.
    #[must_use]
    pub fn max_hop(&self) -> u8 {
        self.events.iter().map(|e| e.hop).max().unwrap_or(0)
    }

    /// The path actually taken: the node that recorded each hop's first
    /// event, in hop order.
    #[must_use]
    pub fn path(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = Vec::new();
        for hop in 0..=self.max_hop() {
            if let Some(e) = self.events.iter().find(|e| e.hop == hop) {
                nodes.push(e.node);
            }
        }
        nodes
    }

    /// Whether the ingress stamped a source route on this packet.
    #[must_use]
    pub fn source_routed(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.stage, TraceStage::Ingress { masked: true }))
    }

    /// Causal-consistency check: the timeline must start with an ingress
    /// event at hop 0, cover a contiguous hop range, order hops by time
    /// (each hop's first event no earlier than the previous hop's), and
    /// terminate in exactly one of delivered / dropped (duplicate-
    /// suppression drops of redundant copies are not terminals).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn check(&self) -> Result<(), String> {
        let Some(first) = self.events.first() else {
            return Err(format!("trace {:#x}: empty timeline", self.trace_id));
        };
        if !matches!(first.stage, TraceStage::Ingress { .. }) || first.hop != 0 {
            return Err(format!(
                "trace {:#x}: first event is {} at hop {}, expected ingress at hop 0",
                self.trace_id,
                first.stage.label(),
                first.hop
            ));
        }
        if !self.events.iter().all(|w| w.at_ns >= first.at_ns) {
            return Err(format!(
                "trace {:#x}: timestamps not monotone after sort",
                self.trace_id
            ));
        }
        let max_hop = self.max_hop();
        let mut first_at = vec![None::<u64>; usize::from(max_hop) + 1];
        for e in &self.events {
            let slot = &mut first_at[usize::from(e.hop)];
            if slot.is_none() {
                *slot = Some(e.at_ns);
            }
        }
        let mut prev = 0u64;
        for (hop, at) in first_at.iter().enumerate() {
            let Some(at) = at else {
                return Err(format!(
                    "trace {:#x}: hop {hop} missing — hops must increment by 1",
                    self.trace_id
                ));
            };
            if *at < prev {
                return Err(format!(
                    "trace {:#x}: hop {hop} first seen before hop {}",
                    self.trace_id,
                    hop - 1
                ));
            }
            prev = *at;
        }
        let delivers = self
            .events
            .iter()
            .filter(|e| matches!(e.stage, TraceStage::Deliver))
            .count();
        let drops = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.stage,
                    TraceStage::Drop(c) if c != DropClass::DedupDuplicate
                )
            })
            .count();
        if delivers > 1 {
            return Err(format!(
                "trace {:#x}: delivered {delivers} times",
                self.trace_id
            ));
        }
        if delivers == 1 && drops > 0 {
            return Err(format!(
                "trace {:#x}: both delivered and dropped",
                self.trace_id
            ));
        }
        Ok(())
    }
}

/// Groups per-packet events into causally sorted [`Timeline`]s. Node-scope
/// markers (trace id 0) are excluded; feed them to timeline-free analysis
/// (reroute/loss markers) separately.
#[must_use]
pub fn reconstruct(events: &[TraceEvent]) -> Vec<Timeline> {
    let mut by_trace: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        if !e.is_marker() {
            by_trace.entry(e.trace_id).or_default().push(*e);
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut evs)| {
            evs.sort_by_key(|e| (e.at_ns, e.hop, e.stage.rank()));
            Timeline {
                trace_id,
                packet: evs[0].packet,
                events: evs,
            }
        })
        .collect()
}

/// Per-hop latency attribution aggregated over a set of timelines.
#[derive(Debug, Clone, Default)]
pub struct HopStat {
    /// Timelines whose packet reached this hop.
    pub arrivals: u64,
    /// Enqueue-to-first-transmit time at this hop, per packet.
    pub queue_ns: Vec<u64>,
    /// First-transmit at this hop to first event at the next hop —
    /// propagation plus any recovery wait on the link.
    pub link_ns: Vec<u64>,
    /// Packets recovered on the link *into* this hop.
    pub recoveries: u64,
    /// Gap-to-recovery latencies of those recoveries.
    pub recovery_ns: Vec<u64>,
}

/// The median of a sample set (0 when empty).
#[must_use]
pub fn median_ns(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[s.len() / 2]
}

/// Aggregates per-hop queue / propagation / recovery attribution over
/// `timelines`. Index `h` of the result describes hop `h` (the `h`-th node
/// along the path and the link leaving it).
#[must_use]
pub fn attribute(timelines: &[Timeline]) -> Vec<HopStat> {
    let max_hop = timelines.iter().map(Timeline::max_hop).max().unwrap_or(0);
    let mut stats = vec![HopStat::default(); usize::from(max_hop) + 1];
    for tl in timelines {
        for hop in 0..=tl.max_hop() {
            let at_hop: Vec<&TraceEvent> = tl.events.iter().filter(|e| e.hop == hop).collect();
            if at_hop.is_empty() {
                continue;
            }
            let stat = &mut stats[usize::from(hop)];
            stat.arrivals += 1;
            for e in &at_hop {
                if let TraceStage::Recovered { after_ns } = e.stage {
                    stat.recoveries += 1;
                    stat.recovery_ns.push(after_ns);
                }
            }
            let enq = at_hop
                .iter()
                .find(|e| matches!(e.stage, TraceStage::Enqueue))
                .map(|e| e.at_ns);
            let tx = at_hop
                .iter()
                .find(|e| matches!(e.stage, TraceStage::Transmit | TraceStage::Retransmit))
                .map(|e| e.at_ns);
            if let (Some(enq), Some(tx)) = (enq, tx) {
                stat.queue_ns.push(tx.saturating_sub(enq));
            }
            if let Some(tx) = tx {
                if let Some(next) = tl.events.iter().find(|e| e.hop == hop + 1) {
                    stat.link_ns.push(next.at_ns.saturating_sub(tx));
                }
            }
        }
    }
    stats
}

/// The result of a trace self-check over one export.
#[derive(Debug)]
pub struct SelfCheck {
    /// Per-packet timelines reconstructed.
    pub timelines: usize,
    /// Per-packet events checked (markers excluded).
    pub events: usize,
    /// Node-scope marker events seen.
    pub markers: usize,
    /// Every causal-consistency violation found.
    pub violations: Vec<String>,
}

impl SelfCheck {
    /// `true` when every timeline passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Reconstructs and causally checks every timeline in `events` (the
/// `son-trace --self-check` core).
#[must_use]
pub fn self_check(events: &[TraceEvent]) -> SelfCheck {
    let markers = events.iter().filter(|e| e.is_marker()).count();
    let timelines = reconstruct(events);
    let violations = timelines.iter().filter_map(|tl| tl.check().err()).collect();
    SelfCheck {
        timelines: timelines.len(),
        events: events.len() - markers,
        markers,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, trace_id: u64, node: u32, hop: u8, stage: TraceStage) -> TraceEvent {
        TraceEvent {
            at_ns,
            trace_id,
            node,
            hop,
            packet: PacketKey { flow: 9, seq: 4 },
            stage,
            link: Some(0),
        }
    }

    fn clean_run() -> Vec<TraceEvent> {
        vec![
            ev(0, 7, 0, 0, TraceStage::Ingress { masked: false }),
            ev(0, 7, 0, 0, TraceStage::Enqueue),
            ev(1, 7, 0, 0, TraceStage::Transmit),
            ev(11, 7, 1, 1, TraceStage::Enqueue),
            ev(11, 7, 1, 1, TraceStage::Transmit),
            ev(21, 7, 2, 2, TraceStage::Deliver),
        ]
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let hits = (0..6400)
            .filter(|&seq| TraceContext::sample(42, seq, 64).is_some())
            .count();
        // ~1/64 of 6400 = 100; allow wide slack, the point is the order of
        // magnitude and determinism.
        assert!((40..=180).contains(&hits), "got {hits}");
        assert_eq!(
            TraceContext::sample(42, 5, 64),
            TraceContext::sample(42, 5, 64)
        );
        assert!(TraceContext::sample(42, 5, 1).is_some(), "1 = always");
        assert!(TraceContext::sample(42, 5, 0).is_none(), "0 = off");
        assert_ne!(trace_id(1, 2), trace_id(1, 3));
        assert_ne!(trace_id(1, 2), trace_id(2, 2));
    }

    #[test]
    fn rows_round_trip() {
        let events = vec![
            ev(5, 7, 1, 0, TraceStage::Ingress { masked: true }),
            ev(6, 7, 1, 0, TraceStage::Transmit),
            ev(7, 7, 2, 1, TraceStage::Recovered { after_ns: 1234 }),
            ev(8, 7, 2, 1, TraceStage::Drop(DropClass::Ttl)),
            ev(9, 0, 2, 0, TraceStage::Reroute),
        ];
        for e in events {
            let row = e.row();
            let parsed = Json::parse(&row.to_json()).unwrap();
            assert_eq!(TraceEvent::from_row(&parsed), Some(e));
        }
        // Non-trace rows are skipped, not errors.
        let other = Json::obj(vec![("kind", Json::str("counter"))]);
        assert_eq!(TraceEvent::from_row(&other), None);
    }

    #[test]
    fn reconstruct_orders_and_checks() {
        let mut events = clean_run();
        events.push(ev(3, 0, 1, 0, TraceStage::Reroute)); // marker, excluded
        events.swap(0, 5); // arrival order is not causal order
        let tls = reconstruct(&events);
        assert_eq!(tls.len(), 1);
        let tl = &tls[0];
        assert_eq!(tl.events.len(), 6);
        assert!(matches!(
            tl.events[0].stage,
            TraceStage::Ingress { masked: false }
        ));
        assert_eq!(tl.terminal(), Terminal::Delivered);
        assert_eq!(tl.e2e_ns(), Some(21));
        assert_eq!(tl.path(), vec![0, 1, 2]);
        assert!(!tl.source_routed());
        tl.check().unwrap();
    }

    #[test]
    fn check_rejects_hop_gaps_and_double_terminals() {
        let mut skipped = clean_run();
        skipped.retain(|e| e.hop != 1);
        let tl = &reconstruct(&skipped)[0];
        assert!(tl.check().unwrap_err().contains("hop 1 missing"));

        let mut doubled = clean_run();
        doubled.push(ev(25, 7, 2, 2, TraceStage::Drop(DropClass::Ttl)));
        let tl = &reconstruct(&doubled)[0];
        assert!(tl
            .check()
            .unwrap_err()
            .contains("both delivered and dropped"));
    }

    #[test]
    fn lost_in_flight_is_the_fallback_terminal() {
        let events: Vec<TraceEvent> = clean_run().into_iter().filter(|e| e.hop == 0).collect();
        let tl = &reconstruct(&events)[0];
        assert_eq!(tl.terminal(), Terminal::LostInFlight);
        tl.check().unwrap();
    }

    #[test]
    fn attribution_breaks_down_queue_link_and_recovery() {
        let mut events = clean_run();
        events.insert(3, ev(11, 7, 1, 1, TraceStage::Recovered { after_ns: 7 }));
        let tls = reconstruct(&events);
        let stats = attribute(&tls);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].arrivals, 1);
        assert_eq!(stats[0].queue_ns, vec![1]); // enqueue@0 -> transmit@1
        assert_eq!(stats[0].link_ns, vec![10]); // transmit@1 -> hop1@11
        assert_eq!(stats[1].recoveries, 1);
        assert_eq!(stats[1].recovery_ns, vec![7]);
        assert_eq!(stats[2].arrivals, 1);
        assert_eq!(median_ns(&[3, 1, 2]), 2);
        assert_eq!(median_ns(&[]), 0);
    }

    #[test]
    fn self_check_counts_and_flags() {
        let mut events = clean_run();
        events.push(ev(2, 0, 0, 0, TraceStage::LossDetected));
        let sc = self_check(&events);
        assert!(sc.ok());
        assert_eq!(sc.timelines, 1);
        assert_eq!(sc.markers, 1);
        assert_eq!(sc.events, 6);

        let bad: Vec<TraceEvent> = clean_run().into_iter().skip(1).collect();
        assert!(!self_check(&bad).ok());
    }
}
