//! Shared runner for the watchdog fault-injection campaigns.
//!
//! One [`WatchdogRun`] builds the continental-US overlay, schedules a
//! deterministic [`Campaign`] of faults over it, applies the campaign's
//! compromised-node windows at the overlay level, drives a CBR flow across
//! the country, and reports the fraction of packets delivered within a
//! one-way deadline — the metric `son-exp watchdog` compares watchdog-on vs
//! watchdog-off. Used by the experiment binary, the smoke gate in
//! `scripts/check.sh`, and the regression tests, so all three agree on what
//! a campaign is.

use son_netsim::scenario::{continental_us, Campaign, Scenario, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::watch::{WatchEvent, WatchKind};
use son_obs::Registry;
use son_overlay::adversary::Behavior;
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::node::OverlayNode;
use son_overlay::{FlowSpec, NodeConfig, OverlayHandle};
use son_topo::NodeId;

use son_overlay::fleet::{edge_pipes, Fleet};

/// How a campaign is built, once the deployment it will torment exists.
/// Receives the underlay scenario, the built overlay, and the per-node city
/// placement so it can aim faults at the flow's actual route.
pub type CampaignBuilder = fn(&Scenario, &OverlayHandle, &RunGeometry) -> Campaign;

/// The fixed geometry every campaign run shares: the measured flow crosses
/// the continental US, NYC to LA.
#[derive(Debug, Clone)]
pub struct RunGeometry {
    /// Overlay node of the sender (NYC).
    pub src: NodeId,
    /// Overlay node of the receiver (LA).
    pub dst: NodeId,
    /// Overlay nodes of the flow's initial route, in order (src..=dst).
    pub route: Vec<NodeId>,
    /// Overlay edges of the flow's initial route, in order.
    pub route_edges: Vec<son_topo::EdgeId>,
}

/// Configuration of one campaign run.
#[derive(Debug, Clone)]
pub struct WatchdogRun {
    /// Tag for exports and tables.
    pub label: String,
    /// Master seed (drives the simulator; the campaign carries its own).
    pub seed: u64,
    /// Whether the watchdog runs; off is the control.
    pub watch: bool,
    /// Builds the fault schedule for this run.
    pub build: CampaignBuilder,
    /// Virtual-time horizon.
    pub run_for: SimDuration,
    /// One-way deadline for the delivered-within-deadline metric.
    pub deadline: SimDuration,
    /// CBR packets to send.
    pub count: u64,
    /// CBR packet interval.
    pub interval: SimDuration,
}

impl WatchdogRun {
    /// A run over `build` with the defaults the experiment matrix uses.
    #[must_use]
    pub fn new(label: impl Into<String>, seed: u64, build: CampaignBuilder) -> Self {
        WatchdogRun {
            label: label.into(),
            seed,
            watch: false,
            build,
            run_for: SimDuration::from_secs(30),
            deadline: SimDuration::from_millis(250),
            count: 2500,
            interval: SimDuration::from_millis(10),
        }
    }

    /// Enables the watchdog.
    #[must_use]
    pub fn with_watch(mut self) -> Self {
        self.watch = true;
        self
    }

    /// Executes the run.
    #[must_use]
    pub fn run(self) -> WatchdogOutcome {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let (topo, cities) = continental_overlay(&sc);
        let find = |name: &str| NodeId(cities.iter().position(|&c| c == sc.city(name)).unwrap());
        let (src, dst) = (find("NYC"), find("LA"));
        let path = son_topo::shortest_path(&topo, src, dst).expect("route");
        let geometry = RunGeometry {
            src,
            dst,
            route: path.nodes.clone(),
            route_edges: path.edges,
        };

        let node_config = NodeConfig {
            trace_sample: 16,
            watch: self.watch,
            ..NodeConfig::default()
        };
        let mut fleet = Fleet::new(
            self.seed,
            Some(sc.underlay.clone()),
            OverlayBuilder::new(topo)
                .place_in_cities(cities)
                .node_config(node_config),
        );

        let campaign = (self.build)(&sc, &fleet.overlay, &geometry);
        fleet.campaign(&campaign);

        fleet.flow(
            src,
            dst,
            FlowSpec::reliable(),
            Workload::Cbr {
                size: 1000,
                interval: self.interval,
                count: self.count,
                start: SimTime::from_millis(500),
            },
        );

        // Apply the campaign's compromise windows on a fine cadence: the
        // simulator has no notion of overlay adversaries, so the harness
        // toggles forwarding behavior as windows open and close.
        let windows = campaign.blackhole_windows.clone();
        let mut applied = vec![false; windows.len()];
        let until = SimTime::ZERO + self.run_for;
        let tick = SimDuration::from_millis(100);
        fleet.run_with_cadence(until, tick, |sim, overlay, at, _wall| {
            for (i, w) in windows.iter().enumerate() {
                let inside = at >= w.start && at < w.end;
                if inside != applied[i] {
                    applied[i] = inside;
                    let behavior = if inside {
                        Behavior::Blackhole
                    } else {
                        Behavior::Correct
                    };
                    if let Some(n) = sim.proc_mut::<OverlayNode>(overlay.daemon(NodeId(w.node))) {
                        n.set_behavior(behavior);
                    }
                }
            }
        });

        let recv = fleet.recv(0);
        let deliveries = recv
            .arrivals
            .iter()
            .zip(&recv.latencies_ms)
            .map(|(&(at, _), &lat_ms)| (at, lat_ms))
            .collect();
        WatchdogOutcome {
            label: self.label,
            sent: fleet.sent(0),
            received: recv.received,
            within_deadline: recv.within_deadline(self.deadline),
            deliveries,
            watch_events: fleet.watch_events(),
            registry: fleet.registry(),
            fingerprint: fleet.sim.fingerprint(),
        }
    }
}

/// The result of one campaign run.
#[derive(Debug)]
pub struct WatchdogOutcome {
    /// The run's tag.
    pub label: String,
    /// CBR packets the sender emitted.
    pub sent: u64,
    /// Packets delivered.
    pub received: u64,
    /// Packets delivered within the run's deadline.
    pub within_deadline: u64,
    /// Every delivery as (arrival time, one-way latency ms), in arrival
    /// order — lets tests and reports attribute lateness to specific fault
    /// episodes instead of judging only the run-total.
    pub deliveries: Vec<(SimTime, f64)>,
    /// Every daemon's watchdog audit events, merged and time-sorted.
    pub watch_events: Vec<WatchEvent>,
    /// Experiment-wide metrics registry.
    pub registry: Registry,
    /// The simulator fingerprint (same seed ⇒ identical).
    pub fingerprint: u64,
}

impl WatchdogOutcome {
    /// Fraction of sent packets delivered within the deadline.
    #[must_use]
    pub fn deadline_fraction(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.within_deadline as f64 / self.sent as f64
        }
    }

    /// Counts audit events matching `pred`.
    #[must_use]
    pub fn count_events(&self, pred: impl Fn(&WatchKind) -> bool) -> u64 {
        self.watch_events.iter().filter(|e| pred(&e.kind)).count() as u64
    }

    /// Link suspensions across all daemons.
    #[must_use]
    pub fn suspensions(&self) -> u64 {
        self.count_events(|k| matches!(k, WatchKind::LinkSuspended { .. }))
    }

    /// Link readmissions across all daemons.
    #[must_use]
    pub fn readmissions(&self) -> u64 {
        self.count_events(|k| matches!(k, WatchKind::LinkReadmitted))
    }
}

/// The all-healthy control campaign: no faults at all. The watchdog must
/// stay silent — any suspension here is a false positive.
#[must_use]
pub fn control_campaign(_sc: &Scenario, _ov: &OverlayHandle, _g: &RunGeometry) -> Campaign {
    Campaign::new("control", 0xC0)
}

/// Link-flap campaign: every provider pipe of the flow's first-hop overlay
/// link flaps down and up on a fixed 2 s cycle. Without the watchdog, routes
/// flap back onto the link each time it reappears and eat the next outage;
/// with it, accumulated strikes suspend the link and traffic stays on the
/// stable detour until the hold-down passes.
#[must_use]
pub fn flap_campaign(_sc: &Scenario, ov: &OverlayHandle, g: &RunGeometry) -> Campaign {
    let mut c = Campaign::new("flaps", 0xF1);
    let pipes = edge_pipes(ov, g.route_edges[0]);
    for k in 0..7u64 {
        c.pipe_outage_at(
            &pipes,
            SimTime::from_secs(4) + SimDuration::from_secs(2 * k),
            SimDuration::from_millis(1000),
        );
    }
    c
}

/// Burst-loss campaign: both directions of the flow's first two overlay
/// hops degrade together in two long heavy-loss episodes. Loss this heavy
/// makes the hello stream miss often enough that the degraded links'
/// advertised state oscillates for the whole burst; without the watchdog
/// every oscillation recomputes routes — onto and back off the lossy hop —
/// and the flow keeps paying retransmission tax, while flap damping defers
/// the churn and holds the flow on its detour. The episodes are
/// deterministic ([`Campaign::pipe_loss_at`]) so both directions of a link
/// degrade at once — one-sided loss lets acks through and halves the pain.
#[must_use]
pub fn burst_loss_campaign(_sc: &Scenario, ov: &OverlayHandle, g: &RunGeometry) -> Campaign {
    let mut c = Campaign::new("burst_loss", 0xB2);
    let route = g.route_edges.iter().take(2);
    let pipes: Vec<_> = route.flat_map(|&edge| edge_pipes(ov, edge)).collect();
    let loss = son_netsim::loss::LossConfig::Bernoulli { p: 0.75 };
    let restore = son_netsim::loss::LossConfig::Perfect;
    for start_ms in [5_000, 9_500] {
        c.pipe_loss_at(
            &pipes,
            SimTime::from_millis(start_ms),
            SimDuration::from_millis(3_000),
            loss.clone(),
            restore.clone(),
        );
    }
    c
}

/// Silent-blackhole campaign: the first transit node of the flow's route is
/// compromised for a long window — control-plane-alive, data-plane-dead.
#[must_use]
pub fn blackhole_campaign(_sc: &Scenario, _ov: &OverlayHandle, g: &RunGeometry) -> Campaign {
    let mut c = Campaign::new("blackhole", 0xBB);
    let victim = g.route.get(1).copied().unwrap_or(g.src);
    c.compromise(&[victim.0], (SimTime::from_secs(4), SimTime::from_secs(16)));
    c
}

/// Router-failure campaign: the route's first transit daemon flaps —
/// repeated crash/restart cycles ([`Campaign::process_flaps`]), a router
/// that reboot-loops instead of dying cleanly. The victim sits on the
/// route's strongly-preferred first hop, so after every restart the
/// fleet's routes converge straight back onto it just in time to eat the
/// next crash, stranding each cycle's in-flight packets on the dead link
/// until the daemon resurrects. With the watchdog on, LSA flap damping
/// defers the oscillating origins' re-advertisements and traffic holds the
/// stable detour through the remaining cycles.
///
/// (The fault must hit a *strongly-preferred* element: when a transit hop
/// with a near-equal-cost detour fails once, the hello-measured loss
/// penalty exiles it from the route for the rest of the run and later
/// cycles are free for both sides — no room for the watchdog to help.)
#[must_use]
pub fn router_failure_campaign(_sc: &Scenario, ov: &OverlayHandle, g: &RunGeometry) -> Campaign {
    let mut c = Campaign::new("router_failures", 0xD4);
    let victim = g.route.get(1).copied().unwrap_or(g.src);
    c.process_flaps(
        &[ov.daemon(victim)],
        SimTime::from_secs(4),
        6,
        SimDuration::from_millis(1_000),
        SimDuration::from_millis(1_000),
    );
    c
}

/// The standard campaign matrix, in presentation order.
#[must_use]
pub fn campaign_matrix() -> Vec<(&'static str, CampaignBuilder)> {
    vec![
        ("control", control_campaign as CampaignBuilder),
        ("flaps", flap_campaign),
        ("burst_loss", burst_loss_campaign),
        ("blackhole", blackhole_campaign),
        ("router_failures", router_failure_campaign),
    ]
}
