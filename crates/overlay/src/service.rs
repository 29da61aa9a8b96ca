//! Overlay service selection: the routing-level and link-level protocols a
//! client picks per flow (Fig. 2).
//!
//! "Each client specifies the particular overlay services that should be
//! used for its flow. ... Client applications can select the combination of
//! routing and link protocols that best supports their particular demands"
//! (§II-B).

use son_netsim::time::SimDuration;
use son_topo::EdgeMask;

/// The routing-level service of a flow (Fig. 2, Routing level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingService {
    /// Hop-by-hop forwarding on the current shortest path, recomputed from
    /// shared connectivity state (sub-second rerouting).
    LinkState,
    /// Source-based routing: the ingress node stamps each packet with the
    /// exact set of overlay links to traverse.
    SourceBased(SourceRoute),
}

/// How the ingress computes the source-route stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceRoute {
    /// `k` minimum-latency node-disjoint paths; survives any `k-1`
    /// compromised nodes (§IV-B).
    DisjointPaths(u8),
    /// `k` cheapest loopless paths, which may overlap — cheaper than
    /// disjoint paths but shares fate where they overlap (\[13\] in the
    /// paper's related work).
    OverlappingPaths(u8),
    /// A robust source/destination-problematic dissemination graph (§V-A).
    DisseminationGraph,
    /// Constrained flooding over every overlay link; delivers whenever a
    /// correct path exists (§IV-B).
    ConstrainedFlooding,
    /// A fixed caller-provided subgraph stamp.
    Static(EdgeMask),
}

/// The link-level service of a flow (Fig. 2, Link level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkService {
    /// Stateless per-hop forwarding; no recovery.
    BestEffort,
    /// Reliable Data Link: hop-by-hop ARQ with out-of-order forwarding and
    /// in-order delivery at the destination (§III-A).
    Reliable,
    /// Real-time recovery (NM-Strikes): N spaced retransmission requests ×
    /// M spaced retransmissions within a latency budget; complete
    /// timeliness, bounded (not complete) reliability (§IV-A, Fig. 4).
    Realtime(RealtimeParams),
    /// Intrusion-Tolerant Priority messaging: per-source bounded buffers,
    /// priority + age eviction, round-robin egress (§IV-B).
    ItPriority,
    /// Intrusion-Tolerant Reliable messaging: per-flow bounded buffers,
    /// round-robin egress, hop-by-hop backpressure (§IV-B).
    ItReliable,
    /// A single shared FIFO queue with tail drop — the non-intrusion-
    /// tolerant baseline the fair schedulers are evaluated against. Not in
    /// the paper's Fig. 2; added through the architecture's "new protocols
    /// can be easily added" extension point (§II-B).
    Fifo,
    /// Forward error correction: every block of `k` data packets is
    /// followed by `r` repair packets; any `k` of the `k + r` reconstruct
    /// the block. Fixed proactive overhead `(k+r)/k`, zero feedback — the
    /// OverQoS-style alternative (\[10\] in the paper's related work) used as
    /// an ablation against the reactive NM-Strikes protocol.
    Fec(FecParams),
}

/// Parameters of the FEC link protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FecParams {
    /// Data packets per block.
    pub k: u8,
    /// Repair packets per block.
    pub r: u8,
}

impl FecParams {
    /// A light 10% -overhead code.
    #[must_use]
    pub fn light() -> Self {
        FecParams { k: 10, r: 1 }
    }

    /// A strong 30%-overhead code.
    #[must_use]
    pub fn strong() -> Self {
        FecParams { k: 10, r: 3 }
    }

    /// The fixed wire overhead ratio `(k+r)/k`.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        f64::from(self.k as u16 + self.r as u16) / f64::from(self.k)
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if `k` or `r` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1".into());
        }
        if self.r == 0 {
            return Err("r must be at least 1".into());
        }
        Ok(())
    }
}

impl LinkService {
    /// A compact label for metrics and experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        SLOT_LABELS[self.slot()]
    }

    /// The slot index multiplexing per-link protocol instances.
    #[must_use]
    pub(crate) fn slot(&self) -> usize {
        match self {
            LinkService::BestEffort => 0,
            LinkService::Reliable => 1,
            LinkService::Realtime(_) => 2,
            LinkService::ItPriority => 3,
            LinkService::ItReliable => 4,
            LinkService::Fifo => 5,
            LinkService::Fec(_) => 6,
        }
    }
}

/// Number of distinct link-protocol slots a link multiplexes.
pub(crate) const SERVICE_SLOTS: usize = 7;

/// The metrics label of each protocol slot, by [`LinkService::slot`].
const SLOT_LABELS: [&str; SERVICE_SLOTS] = [
    "best_effort",
    "reliable",
    "realtime",
    "it_priority",
    "it_reliable",
    "fifo",
    "fec",
];

/// The metrics label of a protocol slot (for observability events that
/// arrive tagged with a slot index rather than a service value); a slot
/// past the last reads as the last.
#[must_use]
pub(crate) fn slot_label(slot: usize) -> &'static str {
    SLOT_LABELS[slot.min(SERVICE_SLOTS - 1)]
}

/// Parameters of the NM-Strikes real-time link protocol (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RealtimeParams {
    /// Number of retransmission requests the receiver schedules per missing
    /// packet ("N strikes").
    pub n_requests: u8,
    /// Number of retransmissions the sender schedules on the first request
    /// ("M strikes").
    pub m_retransmissions: u8,
    /// The per-hop recovery budget: the window within which requests and
    /// retransmissions must be spread so that even the Mth response to the
    /// Nth request arrives before the flow deadline.
    pub budget: SimDuration,
}

impl RealtimeParams {
    /// The paper's live-TV setting: a 200 ms one-way bound on a continental
    /// path leaves ~160 ms for recovery (§IV-A).
    #[must_use]
    pub fn live_tv() -> Self {
        RealtimeParams {
            n_requests: 3,
            m_retransmissions: 2,
            budget: SimDuration::from_millis(160),
        }
    }

    /// The VoIP-era predecessor protocol: a single request and a single
    /// retransmission per lost packet \[6,7\], used as the building block for
    /// remote manipulation (§V-A).
    #[must_use]
    pub fn single_strike(budget: SimDuration) -> Self {
        RealtimeParams {
            n_requests: 1,
            m_retransmissions: 1,
            budget,
        }
    }

    /// The spacing between consecutive requests (and retransmissions):
    /// the budget divided over all scheduled events, "spaced out as much as
    /// possible, but not so much that the deadline is not met".
    #[must_use]
    pub fn spacing(&self) -> SimDuration {
        let slots = u64::from(self.n_requests) + u64::from(self.m_retransmissions);
        self.budget / slots.max(1)
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if N or M is zero or the budget is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_requests == 0 {
            return Err("n_requests must be at least 1".into());
        }
        if self.m_retransmissions == 0 {
            return Err("m_retransmissions must be at least 1".into());
        }
        if self.budget.is_zero() {
            return Err("budget must be positive".into());
        }
        Ok(())
    }
}

/// Message priority for Intrusion-Tolerant Priority messaging: higher values
/// are kept longer when a source's buffer fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// The default, middling priority.
    pub const NORMAL: Priority = Priority(4);
    /// The highest priority.
    pub const HIGH: Priority = Priority(7);
    /// The lowest priority.
    pub const LOW: Priority = Priority(0);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// Everything a client selects for one flow: routing service, link service,
/// delivery semantics, and an optional end-to-end deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Routing-level protocol.
    pub routing: RoutingService,
    /// Link-level protocol.
    pub link: LinkService,
    /// Deliver in order at the destination (buffering out-of-order arrivals)?
    pub ordered: bool,
    /// End-to-end one-way deadline; packets later than this are discarded at
    /// the destination ("if a recovered packet arrives after later packets
    /// were already delivered, it is discarded" — realtime flows).
    pub deadline: Option<SimDuration>,
    /// Priority for [`LinkService::ItPriority`] flows.
    pub priority: Priority,
}

impl FlowSpec {
    /// Best-effort link-state unicast — the plain Internet-like service.
    #[must_use]
    pub fn best_effort() -> Self {
        FlowSpec {
            routing: RoutingService::LinkState,
            link: LinkService::BestEffort,
            ordered: false,
            deadline: None,
            priority: Priority::NORMAL,
        }
    }

    /// Reliable, ordered delivery over link-state routing with hop-by-hop
    /// recovery — broadcast-quality video transport (§III-A).
    #[must_use]
    pub fn reliable() -> Self {
        FlowSpec {
            routing: RoutingService::LinkState,
            link: LinkService::Reliable,
            ordered: true,
            deadline: None,
            priority: Priority::NORMAL,
        }
    }

    /// Live broadcast video: NM-Strikes under a one-way deadline (§IV-A).
    #[must_use]
    pub fn live_video(deadline: SimDuration) -> Self {
        FlowSpec {
            routing: RoutingService::LinkState,
            link: LinkService::Realtime(RealtimeParams::live_tv()),
            ordered: true,
            deadline: Some(deadline),
            priority: Priority::NORMAL,
        }
    }

    /// Sets the routing service.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingService) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the link service.
    #[must_use]
    pub fn with_link(mut self, link: LinkService) -> Self {
        self.link = link;
        self
    }

    /// Sets the end-to-end deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets ordered delivery.
    #[must_use]
    pub fn with_ordered(mut self, ordered: bool) -> Self {
        self.ordered = ordered;
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec::best_effort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_settings() {
        let tv = RealtimeParams::live_tv();
        assert_eq!(tv.n_requests, 3);
        assert_eq!(tv.m_retransmissions, 2);
        assert_eq!(tv.budget, SimDuration::from_millis(160));
        assert!(tv.validate().is_ok());

        let single = RealtimeParams::single_strike(SimDuration::from_millis(20));
        assert_eq!(single.n_requests, 1);
        assert_eq!(single.m_retransmissions, 1);
    }

    #[test]
    fn spacing_spreads_budget_over_all_strikes() {
        let p = RealtimeParams {
            n_requests: 3,
            m_retransmissions: 2,
            budget: SimDuration::from_millis(100),
        };
        assert_eq!(p.spacing(), SimDuration::from_millis(20));
    }

    #[test]
    fn validate_rejects_degenerate_params() {
        let bad_n = RealtimeParams {
            n_requests: 0,
            m_retransmissions: 1,
            budget: SimDuration::from_millis(1),
        };
        assert!(bad_n.validate().is_err());
        let bad_m = RealtimeParams {
            n_requests: 1,
            m_retransmissions: 0,
            budget: SimDuration::from_millis(1),
        };
        assert!(bad_m.validate().is_err());
        let bad_b = RealtimeParams {
            n_requests: 1,
            m_retransmissions: 1,
            budget: SimDuration::ZERO,
        };
        assert!(bad_b.validate().is_err());
    }

    #[test]
    fn flow_spec_builders_chain() {
        let spec = FlowSpec::best_effort()
            .with_link(LinkService::ItPriority)
            .with_priority(Priority::HIGH)
            .with_ordered(false)
            .with_routing(RoutingService::SourceBased(SourceRoute::DisjointPaths(2)))
            .with_deadline(SimDuration::from_millis(65));
        assert_eq!(spec.link, LinkService::ItPriority);
        assert_eq!(spec.priority, Priority::HIGH);
        assert_eq!(spec.deadline, Some(SimDuration::from_millis(65)));
        assert!(matches!(
            spec.routing,
            RoutingService::SourceBased(SourceRoute::DisjointPaths(2))
        ));
    }

    #[test]
    fn link_service_slots_are_distinct() {
        let services = [
            LinkService::BestEffort,
            LinkService::Reliable,
            LinkService::Realtime(RealtimeParams::live_tv()),
            LinkService::ItPriority,
            LinkService::ItReliable,
            LinkService::Fifo,
            LinkService::Fec(FecParams::light()),
        ];
        let mut slots: Vec<usize> = services.iter().map(LinkService::slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), services.len());
        assert_eq!(LinkService::Reliable.label(), "reliable");
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::HIGH > Priority::NORMAL);
        assert!(Priority::NORMAL > Priority::LOW);
        assert_eq!(Priority::default(), Priority::NORMAL);
    }
}
