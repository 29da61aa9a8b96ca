//! `son-watch`: the in-daemon anomaly watchdog (detection + remediation
//! policy).
//!
//! This module holds the watchdog's *pure* state machines — thresholds,
//! per-link NM-Strikes-style suspension with exponential-backoff probing,
//! overload shedding, and the adaptive trace sampler. The glue that feeds
//! them from the daemon's observability state each evaluation epoch (and
//! applies their decisions through the connectivity monitor) lives in the
//! node's timer level (`node::watch_level`), keeping these types unit-
//! testable without a simulator.
//!
//! Signals → detectors → remediations (`DESIGN.md` §10):
//!
//! - drained [`TraceRing`](son_obs::trace::TraceRing) events → per-hop
//!   recovery latency vs the link's budget → strikes → link suspension;
//! - registry counter deltas → retransmit-storm and reroute-flap
//!   detections → LSA flap damping (in the connectivity monitor);
//! - per-link forwarding receipts from neighbors → the silent-blackhole
//!   signature (control-plane-alive, data-plane-dead) → strikes;
//! - link-protocol queue depths → sustained-growth detection → graceful
//!   shedding of the lowest-priority flows at the ingress (`drop.shed`).
//!
//! Every detection and remediation is recorded as a
//! [`WatchEvent`](son_obs::watch::WatchEvent) for the `son-trace
//! --watch-audit` offline cross-check.

use std::collections::HashMap;

use son_netsim::time::SimDuration;

// The watchdog's thresholds and cadences, tabulated in `DESIGN.md` §10 and
// exercised by the `son-netsim` fault campaigns.

/// Evaluation-epoch cadence; every signal below is per-epoch.
pub const EPOCH: SimDuration = SimDuration::from_millis(500);
/// Per-hop recovery budget as a multiple of the link's nominal one-way
/// latency.
pub const RECOVERY_BUDGET_FACTOR: f64 = 6.0;
/// Floor on the recovery budget (short links get slack for timers).
pub const RECOVERY_BUDGET_MIN: SimDuration = SimDuration::from_millis(5);
/// Node-level retransmissions within one epoch that count as a storm.
pub const STORM_RETRANSMITS: u64 = 48;
/// Route recomputations within one epoch that count as a flap. Set above
/// the deployment size: a convergence wave recomputes once per changed
/// remote origin, so a full-topology refresh is not a flap — per-origin
/// oscillation is caught by the connectivity monitor's flap damping
/// instead.
pub const FLAP_REROUTES: u64 = 16;
/// Strikes against one link before it is suspended.
pub const STRIKE_THRESHOLD: u32 = 3;
/// Minimum data packets a neighbor must report receiving in an epoch
/// before the progressed/received ratio is meaningful.
pub const BLACKHOLE_MIN_PACKETS: u64 = 10;
/// Consecutive suspicious epochs before the blackhole detection fires.
pub const BLACKHOLE_EPOCHS: u32 = 2;
/// Initial suspension length, in epochs (doubles per repeat offense).
pub const PROBE_BACKOFF_EPOCHS: u64 = 4;
/// Cap on the suspension length, in epochs.
pub const PROBE_BACKOFF_MAX_EPOCHS: u64 = 64;
/// Consecutive healthy probe epochs before a suspended link readmits.
pub const HOLD_DOWN_EPOCHS: u32 = 3;
/// Summed link-protocol queue depth above which an epoch counts as hot.
pub const QUEUE_DEPTH_LIMIT: usize = 96;
/// Consecutive hot epochs before shedding escalates (and cool epochs before
/// it decays).
pub const QUEUE_EPOCHS: u32 = 2;
/// Shedding never rises to this priority: flows at or above it are always
/// admitted ([`crate::service::Priority::NORMAL`]).
pub const SHED_MAX_PRIORITY: u8 = 4;
/// Adaptive sampling: hot flows are traced `SAMPLE_BOOST`× as densely.
pub const SAMPLE_BOOST: u32 = 8;
/// Epochs a flow stays hot after its last loss/recovery/reroute event.
pub const SAMPLE_HOT_EPOCHS: u32 = 4;

/// What the per-link state machine asks the node to do this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Suspend the link (advertise it down) after `strikes` strikes.
    Suspend {
        /// Strikes accumulated when the threshold tripped.
        strikes: u64,
    },
    /// The suspension elapsed; the link is now probing for readmission.
    Probe {
        /// Length of the suspension that just elapsed, milliseconds.
        backoff_ms: u64,
    },
    /// The probe hold-down passed; readmit the link.
    Readmit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Healthy,
    Suspended { remaining_epochs: u64 },
    Probing { healthy_epochs: u32 },
}

/// NM-Strikes-style per-link watchdog state: strikes accumulate from
/// detections; at the threshold the link is suspended for an exponentially
/// backed-off number of epochs, then probed (hellos keep flowing while the
/// link is advertised down) and readmitted only after a healthy hold-down.
/// A repeat offender re-earns strikes after readmission and serves a
/// doubled suspension.
#[derive(Debug)]
pub struct LinkWatch {
    /// Per-hop recovery-latency budget for this link, nanoseconds.
    pub budget_ns: u64,
    state: LinkState,
    strikes: u32,
    /// Suspension length for the next offense, in epochs.
    backoff_epochs: u64,
    /// Length of the currently-served (or last-served) suspension.
    serving_epochs: u64,
    /// Consecutive epochs showing the blackhole signature.
    pub blackhole_epochs: u32,
    /// Latest unevaluated neighbor receipt `(received, progressed)`.
    pub last_receipt: Option<(u64, u64)>,
    /// Data packets received on this in-link since the last receipt sent.
    pub recv_window: u64,
    /// How many of those progressed past the adversary check.
    pub progressed_window: u64,
}

impl LinkWatch {
    fn new(budget_ns: u64) -> Self {
        LinkWatch {
            budget_ns,
            state: LinkState::Healthy,
            strikes: 0,
            backoff_epochs: PROBE_BACKOFF_EPOCHS,
            serving_epochs: 0,
            blackhole_epochs: 0,
            last_receipt: None,
            recv_window: 0,
            progressed_window: 0,
        }
    }

    /// Records `n` strikes of fresh evidence against this link. Ignored
    /// while suspended: no data flows, so stale evidence must not extend
    /// the sentence.
    pub fn strike(&mut self, n: u32) {
        if !matches!(self.state, LinkState::Suspended { .. }) {
            self.strikes = self.strikes.saturating_add(n);
        }
    }

    /// Whether the link is currently suspended or probing (advertised down
    /// either way).
    #[must_use]
    pub fn is_suspended(&self) -> bool {
        !matches!(self.state, LinkState::Healthy)
    }

    /// Whether the link is in its readmission probe window — suspended for
    /// traffic, but accumulating healthy-epoch evidence toward recovery.
    /// Telemetry distinguishes this from a hard suspension so an operator
    /// can see a link on its way back.
    #[must_use]
    pub fn is_probing(&self) -> bool {
        matches!(self.state, LinkState::Probing { .. })
    }

    /// Advances the state machine one epoch. `probe_healthy` is the
    /// hello-derived verdict (link up, loss low) used during probing.
    pub fn on_epoch(&mut self, probe_healthy: bool, out: &mut Vec<LinkDecision>) {
        match self.state {
            LinkState::Healthy => {
                if self.strikes >= STRIKE_THRESHOLD {
                    self.serving_epochs = self.backoff_epochs;
                    self.state = LinkState::Suspended {
                        remaining_epochs: self.serving_epochs,
                    };
                    out.push(LinkDecision::Suspend {
                        strikes: u64::from(self.strikes),
                    });
                    self.strikes = 0;
                    self.backoff_epochs = (self.backoff_epochs * 2).min(PROBE_BACKOFF_MAX_EPOCHS);
                }
            }
            LinkState::Suspended { remaining_epochs } => {
                if remaining_epochs <= 1 {
                    self.state = LinkState::Probing { healthy_epochs: 0 };
                    out.push(LinkDecision::Probe {
                        backoff_ms: self.serving_epochs * (EPOCH.as_nanos() / 1_000_000),
                    });
                } else {
                    self.state = LinkState::Suspended {
                        remaining_epochs: remaining_epochs - 1,
                    };
                }
            }
            LinkState::Probing { healthy_epochs } => {
                // New evidence or a bad probe restarts the hold-down; the
                // link stays advertised down, so this is safe, and it keeps
                // the audit invariant (no re-suspension without detection).
                if self.strikes > 0 || !probe_healthy {
                    self.strikes = 0;
                    self.state = LinkState::Probing { healthy_epochs: 0 };
                } else {
                    let h = healthy_epochs + 1;
                    if h >= HOLD_DOWN_EPOCHS {
                        self.state = LinkState::Healthy;
                        out.push(LinkDecision::Readmit);
                    } else {
                        self.state = LinkState::Probing { healthy_epochs: h };
                    }
                }
            }
        }
    }
}

/// What the shedding controller asks the node to do this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedDecision {
    /// Queues stayed above the limit; emitted before any escalation.
    Growth {
        /// The summed queue depth observed.
        depth: u64,
    },
    /// Shedding escalated: flows with priority strictly below are shed.
    Engage {
        /// The new shedding floor.
        below: u8,
    },
    /// Queues recovered and the floor decayed to zero.
    Release,
}

/// Graceful-overload controller: sustained queue growth raises a shedding
/// floor one priority at a time (lowest-priority flows shed first, never
/// reaching [`SHED_MAX_PRIORITY`]); sustained calm lowers it again.
#[derive(Debug, Default)]
pub struct ShedState {
    /// Ingress packets of flows with priority strictly below this are shed.
    pub below: u8,
    hot_epochs: u32,
    cool_epochs: u32,
}

impl ShedState {
    /// Feeds one epoch's summed queue depth through the controller.
    pub fn on_epoch(&mut self, depth: usize, out: &mut Vec<ShedDecision>) {
        if depth > QUEUE_DEPTH_LIMIT {
            self.hot_epochs += 1;
            self.cool_epochs = 0;
            if self.hot_epochs >= QUEUE_EPOCHS {
                self.hot_epochs = 0;
                out.push(ShedDecision::Growth {
                    depth: depth as u64,
                });
                if self.below < SHED_MAX_PRIORITY {
                    self.below += 1;
                    out.push(ShedDecision::Engage { below: self.below });
                }
            }
        } else {
            self.hot_epochs = 0;
            if self.below > 0 {
                self.cool_epochs += 1;
                if self.cool_epochs >= QUEUE_EPOCHS {
                    self.cool_epochs = 0;
                    self.below -= 1;
                    if self.below == 0 {
                        out.push(ShedDecision::Release);
                    }
                }
            } else {
                self.cool_epochs = 0;
            }
        }
    }
}

/// Adaptive trace sampling: flows with recent loss/recovery/reroute events
/// are traced [`SAMPLE_BOOST`]× as densely as the configured base rate;
/// heat decays after [`SAMPLE_HOT_EPOCHS`] quiet epochs. With tracing
/// disabled (base 0) the sampler stays inert, preserving the zero-overhead
/// default.
#[derive(Debug)]
pub struct AdaptiveSampler {
    base: u32,
    /// Flow stable id → epochs of heat remaining.
    hot: HashMap<u64, u32>,
}

impl AdaptiveSampler {
    /// Creates a sampler over the ingress base rate (1-in-`base`; 0 = off).
    #[must_use]
    pub fn new(base: u32) -> Self {
        AdaptiveSampler {
            base,
            hot: HashMap::new(),
        }
    }

    /// Marks `flow` anomalous: it samples densely for
    /// [`SAMPLE_HOT_EPOCHS`] epochs.
    pub fn note_anomaly(&mut self, flow: u64) {
        if self.base > 0 {
            self.hot.insert(flow, SAMPLE_HOT_EPOCHS);
        }
    }

    /// The current 1-in-N sampling rate for `flow`.
    #[must_use]
    pub fn rate_for(&self, flow: u64) -> u32 {
        if self.base == 0 {
            0
        } else if self.hot.contains_key(&flow) {
            (self.base / SAMPLE_BOOST).max(1)
        } else {
            self.base
        }
    }

    /// Decays every flow's heat by one epoch.
    pub fn on_epoch(&mut self) {
        self.hot.retain(|_, left| {
            *left -= 1;
            *left > 0
        });
    }

    /// Flows currently sampling at the boosted rate.
    #[must_use]
    pub fn hot_flows(&self) -> usize {
        self.hot.len()
    }
}

/// The watchdog's full runtime state, owned by the daemon and advanced once
/// per [`EPOCH`] from the node timer level.
#[derive(Debug)]
pub struct WatchState {
    /// Evaluation epochs completed.
    pub epoch_index: u64,
    /// Per-link state, in local link order (empty until links are wired).
    pub links: Vec<LinkWatch>,
    /// The adaptive trace sampler consulted by the ingress.
    pub sampler: AdaptiveSampler,
    /// The overload-shedding controller consulted by the ingress.
    pub shed: ShedState,
    /// Last epoch's `link.retransmit` registry total.
    pub prev_retransmits: u64,
    /// Last epoch's `reroutes` registry total.
    pub prev_reroutes: u64,
}

impl WatchState {
    /// Creates watchdog state; `trace_sample` is the ingress base sampling
    /// rate the adaptive sampler modulates.
    #[must_use]
    pub fn new(trace_sample: u32) -> Self {
        WatchState {
            epoch_index: 0,
            links: Vec::new(),
            sampler: AdaptiveSampler::new(trace_sample),
            shed: ShedState::default(),
            prev_retransmits: 0,
            prev_reroutes: 0,
        }
    }

    /// (Re)builds per-link state for links with the given nominal one-way
    /// latencies (milliseconds), in local link order.
    pub fn wire(&mut self, nominal_latencies_ms: &[f64]) {
        self.links = nominal_latencies_ms
            .iter()
            .map(|&ms| {
                let budget_ns = ((ms * RECOVERY_BUDGET_FACTOR * 1e6) as u64)
                    .max(RECOVERY_BUDGET_MIN.as_nanos());
                LinkWatch::new(budget_ns)
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_boosts_on_anomaly_and_decays() {
        let mut s = AdaptiveSampler::new(64);
        assert_eq!(s.rate_for(7), 64, "healthy flows sample at the base rate");
        s.note_anomaly(7);
        assert_eq!(s.rate_for(7), 8, "hot flows sample densely");
        assert_eq!(s.rate_for(8), 64, "heat is per flow");
        for _ in 1..SAMPLE_HOT_EPOCHS {
            s.on_epoch();
            assert_eq!(s.rate_for(7), 8, "still hot within the window");
        }
        s.on_epoch();
        assert_eq!(s.rate_for(7), 64, "decayed back to base");
        assert_eq!(s.hot_flows(), 0);
        // Re-noting refreshes the window.
        s.note_anomaly(7);
        for _ in 1..SAMPLE_HOT_EPOCHS {
            s.on_epoch();
        }
        s.note_anomaly(7);
        s.on_epoch();
        assert_eq!(s.rate_for(7), 8);
    }

    #[test]
    fn sampler_stays_inert_when_tracing_is_off() {
        let mut s = AdaptiveSampler::new(0);
        s.note_anomaly(7);
        assert_eq!(s.rate_for(7), 0, "base 0 means tracing stays off");
        assert_eq!(s.hot_flows(), 0, "no heat is accumulated");
    }

    #[test]
    fn sampler_boost_never_rounds_to_zero() {
        let mut s = AdaptiveSampler::new(4);
        s.note_anomaly(1);
        assert_eq!(s.rate_for(1), 1, "boost saturates at trace-everything");
    }

    fn run_epoch(lw: &mut LinkWatch, healthy: bool) -> Vec<LinkDecision> {
        let mut out = Vec::new();
        lw.on_epoch(healthy, &mut out);
        out
    }

    #[test]
    fn strikes_suspend_then_probe_then_readmit() {
        let mut lw = LinkWatch::new(1_000_000);
        lw.strike(2);
        assert!(run_epoch(&mut lw, true).is_empty(), "below threshold");
        lw.strike(1);
        assert_eq!(
            run_epoch(&mut lw, true),
            vec![LinkDecision::Suspend { strikes: 3 }]
        );
        assert!(lw.is_suspended());
        // Strikes while suspended are ignored (stale evidence).
        lw.strike(5);
        // Serve the 4-epoch suspension, then probe.
        for _ in 0..3 {
            assert!(run_epoch(&mut lw, true).is_empty());
        }
        assert_eq!(
            run_epoch(&mut lw, true),
            vec![LinkDecision::Probe { backoff_ms: 2000 }]
        );
        assert!(lw.is_suspended(), "probing still advertises down");
        // Hold-down: 3 healthy epochs readmit.
        assert!(run_epoch(&mut lw, true).is_empty());
        assert!(run_epoch(&mut lw, true).is_empty());
        assert_eq!(run_epoch(&mut lw, true), vec![LinkDecision::Readmit]);
        assert!(!lw.is_suspended());
    }

    #[test]
    fn repeat_offender_serves_doubled_backoff() {
        let mut lw = LinkWatch::new(1_000_000);
        lw.strike(STRIKE_THRESHOLD);
        assert!(matches!(
            run_epoch(&mut lw, true)[..],
            [LinkDecision::Suspend { .. }]
        ));
        // 4-epoch sentence, probe, 3 healthy epochs to readmit.
        let mut probes = 0;
        for _ in 0..16 {
            for d in run_epoch(&mut lw, true) {
                if matches!(d, LinkDecision::Probe { .. }) {
                    probes += 1;
                }
            }
            if !lw.is_suspended() {
                break;
            }
        }
        assert_eq!(probes, 1);
        // Re-offend: the sentence doubles to 8 epochs.
        lw.strike(STRIKE_THRESHOLD);
        assert!(matches!(
            run_epoch(&mut lw, true)[..],
            [LinkDecision::Suspend { .. }]
        ));
        for _ in 0..7 {
            assert!(run_epoch(&mut lw, true).is_empty());
        }
        assert_eq!(
            run_epoch(&mut lw, true),
            vec![LinkDecision::Probe { backoff_ms: 4000 }]
        );
    }

    #[test]
    fn unhealthy_probe_restarts_the_hold_down() {
        let mut lw = LinkWatch::new(1_000_000);
        lw.strike(STRIKE_THRESHOLD);
        run_epoch(&mut lw, true);
        for _ in 0..4 {
            run_epoch(&mut lw, true);
        }
        // Probing now; two healthy epochs, then a bad one.
        assert!(run_epoch(&mut lw, true).is_empty());
        assert!(run_epoch(&mut lw, false).is_empty());
        // The hold-down restarted: three more healthy epochs needed.
        assert!(run_epoch(&mut lw, true).is_empty());
        assert!(run_epoch(&mut lw, true).is_empty());
        assert_eq!(run_epoch(&mut lw, true), vec![LinkDecision::Readmit]);
    }

    #[test]
    fn shedding_escalates_under_sustained_growth_and_decays() {
        let mut shed = ShedState::default();
        let mut out = Vec::new();
        // One hot epoch: nothing yet (needs queue_epochs = 2).
        shed.on_epoch(QUEUE_DEPTH_LIMIT + 1, &mut out);
        assert!(out.is_empty());
        shed.on_epoch(QUEUE_DEPTH_LIMIT + 1, &mut out);
        assert_eq!(
            out,
            vec![
                ShedDecision::Growth {
                    depth: QUEUE_DEPTH_LIMIT as u64 + 1
                },
                ShedDecision::Engage { below: 1 },
            ]
        );
        assert_eq!(shed.below, 1);
        // A calm epoch in between resets the hot streak.
        out.clear();
        shed.on_epoch(0, &mut out);
        shed.on_epoch(QUEUE_DEPTH_LIMIT + 1, &mut out);
        shed.on_epoch(0, &mut out);
        assert!(out.is_empty(), "no escalation without a sustained streak");
        // Sustained calm decays the floor back to zero.
        out.clear();
        shed.on_epoch(0, &mut out);
        assert_eq!(out, vec![ShedDecision::Release]);
        assert_eq!(shed.below, 0);
    }

    #[test]
    fn shedding_never_reaches_the_priority_ceiling() {
        let mut shed = ShedState::default();
        let mut out = Vec::new();
        for _ in 0..40 {
            shed.on_epoch(QUEUE_DEPTH_LIMIT + 1, &mut out);
        }
        assert_eq!(shed.below, SHED_MAX_PRIORITY);
        assert!(out
            .iter()
            .all(|d| !matches!(d, ShedDecision::Engage { below } if *below > SHED_MAX_PRIORITY)));
    }

    #[test]
    fn wire_computes_per_link_budgets_with_floor() {
        let mut w = WatchState::new(64);
        w.wire(&[10.0, 0.1]);
        assert_eq!(w.links.len(), 2);
        assert_eq!(w.links[0].budget_ns, 60_000_000, "10ms x factor 6");
        assert_eq!(w.links[1].budget_ns, 5_000_000, "floored at 5ms");
    }
}
