//! Real-time remote manipulation (§V-A): remote robotic surgery /
//! ultrasound.
//!
//! "For interaction to feel natural..., the roundtrip latency must be no
//! more than about 130 ms, translating to a one-way latency requirement of
//! 65 ms. On the scale of a continent, where propagation delay may be around
//! 40 ms, this leaves only 20-25 ms of flexibility for buffering or recovery
//! of lost packets." The flow spec combines the single-strike predecessor
//! protocol \[6,7\] with dissemination-graph source routing \[2\].

use son_netsim::time::{SimDuration, SimTime};
use son_overlay::client::{FlowRecv, Workload};
use son_overlay::{FlowSpec, LinkService, RealtimeParams, RoutingService, SourceRoute};

/// The natural-interaction one-way deadline (§V-A).
pub const ONE_WAY_DEADLINE: SimDuration = SimDuration::from_millis(65);

/// A haptic/command stream's shape: small packets at high rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HapticProfile {
    /// Command/feedback payload bytes.
    pub packet_size: usize,
    /// Commands per second.
    pub rate_hz: u64,
}

impl HapticProfile {
    /// A typical haptic control loop: 500 Hz of 64-byte samples.
    #[must_use]
    pub fn standard() -> Self {
        HapticProfile {
            packet_size: 64,
            rate_hz: 500,
        }
    }

    /// The workload carrying `duration` of this stream.
    #[must_use]
    pub fn workload(&self, start: SimTime, duration: SimDuration) -> Workload {
        Workload::Cbr {
            size: self.packet_size,
            interval: SimDuration::from_secs_f64(1.0 / self.rate_hz as f64),
            count: (duration.as_secs_f64() * self.rate_hz as f64) as u64,
            start,
        }
    }
}

/// The flow spec for remote manipulation: single-strike recovery within the
/// per-hop slack plus a dissemination-graph stamp for targeted redundancy.
///
/// `hop_budget` is the recovery slack available per hop (≈ deadline minus
/// path propagation, divided across hops); §V-A gives 20–25 ms end to end.
#[must_use]
pub fn manipulation_spec(hop_budget: SimDuration) -> FlowSpec {
    FlowSpec::best_effort()
        .with_routing(RoutingService::SourceBased(SourceRoute::DisseminationGraph))
        .with_link(LinkService::Realtime(RealtimeParams::single_strike(
            hop_budget,
        )))
        .with_ordered(true)
        .with_deadline(ONE_WAY_DEADLINE)
}

/// Ablation: the same deadline with plain single-path routing.
#[must_use]
pub fn single_path_spec(hop_budget: SimDuration) -> FlowSpec {
    FlowSpec::best_effort()
        .with_link(LinkService::Realtime(RealtimeParams::single_strike(
            hop_budget,
        )))
        .with_ordered(true)
        .with_deadline(ONE_WAY_DEADLINE)
}

/// Ablation: uniform redundancy via k node-disjoint paths.
#[must_use]
pub fn disjoint_paths_spec(k: u8, hop_budget: SimDuration) -> FlowSpec {
    manipulation_spec(hop_budget)
        .with_routing(RoutingService::SourceBased(SourceRoute::DisjointPaths(k)))
}

/// Ablation: `k` cheapest (possibly overlapping) paths — cheaper than
/// disjoint but shares fate where routes overlap.
#[must_use]
pub fn overlapping_paths_spec(k: u8, hop_budget: SimDuration) -> FlowSpec {
    manipulation_spec(hop_budget).with_routing(RoutingService::SourceBased(
        SourceRoute::OverlappingPaths(k),
    ))
}

/// Upper bound: time-constrained flooding.
#[must_use]
pub fn flooding_spec(hop_budget: SimDuration) -> FlowSpec {
    manipulation_spec(hop_budget).with_routing(RoutingService::SourceBased(
        SourceRoute::ConstrainedFlooding,
    ))
}

/// How the manipulation session felt.
#[derive(Debug, Clone, PartialEq)]
pub struct ManipulationReport {
    /// Fraction of commands delivered within the one-way deadline,
    /// counting losses as misses — the paper's headline metric.
    pub on_time_frac: f64,
    /// Mean one-way latency of delivered commands, ms.
    pub mean_latency_ms: f64,
    /// Worst delivered latency, ms.
    pub max_latency_ms: f64,
    /// Commands lost outright.
    pub lost: u64,
}

/// Scores a command stream against the deadline.
///
/// # Panics
///
/// Panics if `sent` is zero.
#[must_use]
pub fn score(recv: &FlowRecv, sent: u64) -> ManipulationReport {
    assert!(sent > 0, "no commands sent");
    let latency = recv.latency_ms();
    let within = latency
        .fraction_within(ONE_WAY_DEADLINE.as_millis_f64())
        .unwrap_or(0.0);
    ManipulationReport {
        on_time_frac: within * recv.received as f64 / sent as f64,
        mean_latency_ms: latency.mean().unwrap_or(f64::INFINITY),
        max_latency_ms: latency.max().unwrap_or(f64::INFINITY),
        lost: sent.saturating_sub(recv.received),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_profile_cadence() {
        let p = HapticProfile::standard();
        match p.workload(SimTime::ZERO, SimDuration::from_secs(2)) {
            Workload::Cbr {
                interval, count, ..
            } => {
                assert_eq!(interval, SimDuration::from_millis(2));
                assert_eq!(count, 1000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn specs_wire_the_right_services() {
        let budget = SimDuration::from_millis(20);
        let m = manipulation_spec(budget);
        assert!(matches!(
            m.routing,
            RoutingService::SourceBased(SourceRoute::DisseminationGraph)
        ));
        assert_eq!(m.deadline, Some(ONE_WAY_DEADLINE));
        match m.link {
            LinkService::Realtime(p) => {
                assert_eq!(p.n_requests, 1);
                assert_eq!(p.m_retransmissions, 1);
                assert_eq!(p.budget, budget);
            }
            other => panic!("unexpected link service {other:?}"),
        }
        assert!(matches!(
            single_path_spec(budget).routing,
            RoutingService::LinkState
        ));
        assert!(matches!(
            disjoint_paths_spec(3, budget).routing,
            RoutingService::SourceBased(SourceRoute::DisjointPaths(3))
        ));
        assert!(matches!(
            flooding_spec(budget).routing,
            RoutingService::SourceBased(SourceRoute::ConstrainedFlooding)
        ));
    }

    #[test]
    fn score_counts_losses_as_misses() {
        let mut r = FlowRecv::default();
        for lat in [10.0, 20.0, 70.0] {
            r.latencies_ms.push(lat);
            r.received += 1;
        }
        // 4 sent, 3 delivered, 2 of them on time => 50% on-time.
        let report = score(&r, 4);
        assert!((report.on_time_frac - 0.5).abs() < 1e-12);
        assert_eq!(report.lost, 1);
        assert!((report.max_latency_ms - 70.0).abs() < 1e-12);
    }
}
