//! Shared runner for the membership-churn campaigns.
//!
//! One [`ChurnRun`] builds a chorded-ring overlay, schedules a deterministic
//! churn [`Campaign`] (graceful leaves, crashes, flash restarts), drives
//! best-effort CBR flows between churn-protected endpoints, and samples two
//! robustness signals on a fixed cadence:
//!
//! * **Convergence lag** — at each sample, if any expected-up node either
//!   cannot route to another expected-up node or (with membership on) holds
//!   a membership view that disagrees with the expected live set, the fleet
//!   is not converged; the lag is the time since the last membership event.
//!   The run-wide maximum is the bound the invariant tests lock.
//! * **Survivor state** — one churn-protected probe node's LSDB size and
//!   memory footprint over time, so the leak tests can assert that departed
//!   members are actually evicted instead of accumulating forever.
//!
//! Used by `son-exp churn`, the smoke gate in `scripts/check.sh`, and the
//! regression tests, so all three agree on what a churn campaign is.
//!
//! Route convergence is judged on each node's *belief* (its shortest-path
//! tree offers a next hop), which is exactly what self-stabilization must
//! restore; ground-truth loss shows up in the delivery ratio instead.

use std::collections::HashMap;

use son_netsim::scenario::Campaign;
use son_netsim::sim::{ScenarioEvent, Simulation};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::Registry;
use son_overlay::builder::OverlayBuilder;
use son_overlay::client::Workload;
use son_overlay::node::{OverlayNode, TimerKey};
use son_overlay::{Fleet, FlowSpec, NodeConfig, Wire};
use son_topo::NodeId;

use crate::ring_with_chords;

/// The timer token a campaign poke delivers to trigger a graceful leave.
/// The simulator stays ignorant of overlay timer encodings; the harness is
/// the one place that bridges the two.
pub const LEAVE_TOKEN: u64 = TimerKey::GracefulLeave.encode();

/// The churn shape a run schedules over the churnable (non-endpoint) nodes.
#[derive(Debug, Clone)]
pub enum ChurnPattern {
    /// No faults: the all-healthy control.
    None,
    /// Randomized sustained churn inside the fault window: `events` cycles,
    /// each picking a churnable node, optionally poking a graceful leave,
    /// crashing it, and restarting it after `downtime`.
    Sustained {
        /// Churn cycles to draw.
        events: usize,
        /// How long each churned node stays down.
        downtime: SimDuration,
        /// Poke a graceful leave before each crash (the "on" discipline can
        /// reroute during the grace window; without the poke the crash is
        /// only discovered by hello loss).
        graceful: bool,
    },
    /// One node crashes at `at`; restarts after `downtime` if given.
    CrashOne {
        /// Overlay ordinal of the victim.
        node: usize,
        /// Crash instant.
        at: SimTime,
        /// Downtime before restart; `None` is a permanent departure.
        downtime: Option<SimDuration>,
    },
    /// The given ordinals leave gracefully at `at` (poke, then crash after
    /// the grace), restarting after `downtime` if given.
    Leave {
        /// Overlay ordinals that leave.
        nodes: Vec<usize>,
        /// Leave instant.
        at: SimTime,
        /// Downtime before restart; `None` is a permanent departure.
        downtime: Option<SimDuration>,
    },
    /// A correlated wave: all the given ordinals crash at `down_at` and all
    /// rejoin at `up_at`.
    Flash {
        /// Overlay ordinals in the wave.
        nodes: Vec<usize>,
        /// Wave departure instant.
        down_at: SimTime,
        /// Wave return instant.
        up_at: SimTime,
    },
}

/// Configuration of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// Tag for exports and tables.
    pub label: String,
    /// Master seed (drives the simulator; the campaign forks its own).
    pub seed: u64,
    /// Overlay size (chorded ring).
    pub nodes: usize,
    /// Whether membership maintenance runs; off is the control (no
    /// join/leave protocol, no eviction — crashes are only ever seen as
    /// link loss).
    pub membership: bool,
    /// The churn shape.
    pub pattern: ChurnPattern,
    /// Virtual-time horizon.
    pub run_for: SimDuration,
    /// CBR packets per flow.
    pub count: u64,
    /// CBR packet interval.
    pub interval: SimDuration,
    /// Measured flows (endpoints are excluded from churn).
    pub flows: usize,
    /// Chord spacing of the ring topology (smaller = denser; the heavy
    /// permanent-leave tests use 1 so the survivor graph stays connected).
    pub chord_every: usize,
}

/// The experiment's campaign matrix: named patterns over churnable
/// ordinals valid at both smoke (n = 32) and full (n = 64) scale.
#[must_use]
pub fn campaign_matrix() -> Vec<(&'static str, ChurnPattern)> {
    vec![
        (
            "sustained-graceful",
            ChurnPattern::Sustained {
                events: 12,
                downtime: SimDuration::from_secs(2),
                graceful: true,
            },
        ),
        (
            "sustained-crash",
            ChurnPattern::Sustained {
                events: 12,
                downtime: SimDuration::from_secs(2),
                graceful: false,
            },
        ),
        (
            "flash-wave",
            ChurnPattern::Flash {
                nodes: vec![10, 11, 12, 13],
                down_at: SimTime::from_secs(6),
                up_at: SimTime::from_secs(8),
            },
        ),
        (
            "leave-permanent",
            ChurnPattern::Leave {
                nodes: vec![17, 18],
                at: SimTime::from_secs(6),
                downtime: None,
            },
        ),
    ]
}

/// The fault window sustained churn draws inside: late enough that the
/// fleet has converged from cold start, early enough that the last cycle
/// completes well before the horizon.
#[must_use]
pub fn fault_window() -> (SimTime, SimTime) {
    (SimTime::from_secs(4), SimTime::from_secs(20))
}

impl ChurnRun {
    /// A run with the defaults the experiment matrix uses.
    #[must_use]
    pub fn new(label: impl Into<String>, seed: u64, pattern: ChurnPattern) -> Self {
        ChurnRun {
            label: label.into(),
            seed,
            nodes: 64,
            membership: true,
            pattern,
            run_for: SimDuration::from_secs(30),
            count: 2400,
            interval: SimDuration::from_millis(10),
            flows: 4,
            chord_every: 4,
        }
    }

    /// Disables membership maintenance (the control row).
    #[must_use]
    pub fn without_membership(mut self) -> Self {
        self.membership = false;
        self
    }

    /// Overlay ordinals of the measured flow endpoints — excluded from
    /// churn so the delivery ratio judges the network, not dead senders.
    #[must_use]
    pub fn protected(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.endpoints().flat_map(|(a, b)| [a, b]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `(sender, receiver)` ordinals of each measured flow: evenly spaced
    /// sources, each sending just past its antipode.
    fn endpoints(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.nodes;
        let sources = (0..self.flows).map(move |k| k * n / self.flows);
        sources.map(move |a| (a, (a + n / 2 + 3) % n))
    }

    /// Builds the campaign for this run against the built overlay.
    fn build_campaign(&self, overlay: &son_overlay::OverlayHandle) -> Campaign {
        let protected = self.protected();
        let churnable: Vec<_> = (0..self.nodes)
            .filter(|i| !protected.contains(i))
            .map(|i| overlay.daemon(NodeId(i)))
            .collect();
        let grace = SimDuration::from_millis(250);
        let mut campaign = Campaign::new(format!("churn:{}", self.label), self.seed);
        match &self.pattern {
            ChurnPattern::None => {}
            ChurnPattern::Sustained {
                events,
                downtime,
                graceful,
            } => {
                campaign.sustained_churn(
                    &churnable,
                    fault_window(),
                    *events,
                    *downtime,
                    grace,
                    graceful.then_some(LEAVE_TOKEN),
                );
            }
            ChurnPattern::CrashOne { node, at, downtime } => {
                campaign.process_crash_at(&[overlay.daemon(NodeId(*node))], *at, *downtime);
            }
            ChurnPattern::Leave {
                nodes,
                at,
                downtime,
            } => {
                let pids: Vec<_> = nodes.iter().map(|&i| overlay.daemon(NodeId(i))).collect();
                campaign.graceful_leave_at(&pids, *at, grace, *downtime, LEAVE_TOKEN);
            }
            ChurnPattern::Flash {
                nodes,
                down_at,
                up_at,
            } => {
                let pids: Vec<_> = nodes.iter().map(|&i| overlay.daemon(NodeId(i))).collect();
                campaign.flash_restart(&pids, *down_at, *up_at);
            }
        }
        campaign
    }

    /// Executes the run.
    #[must_use]
    pub fn run(self) -> ChurnOutcome {
        let topo = ring_with_chords(self.nodes, 5.0, self.chord_every);
        let mut fleet = Fleet::new(
            self.seed,
            None,
            OverlayBuilder::new(topo).node_config(NodeConfig {
                membership: self.membership,
                ..NodeConfig::default()
            }),
        );

        let campaign = self.build_campaign(&fleet.overlay);
        fleet.campaign(&campaign);

        // The expected-up timeline, derived from the schedule itself. A
        // graceful poke moves the node out of the expected set at the poke
        // (survivors should mark it Left as the announcement floods); a
        // crash does the same at the crash; a restart moves it back in.
        let ordinal_of: HashMap<usize, usize> = fleet
            .overlay
            .daemons
            .iter()
            .enumerate()
            .map(|(node, pid)| (pid.0, node))
            .collect();
        let mut transitions: Vec<(SimTime, usize, bool)> = campaign
            .events()
            .iter()
            .filter_map(|(at, ev)| match ev {
                ScenarioEvent::PokeProcess(pid, _) => Some((*at, ordinal_of[&pid.0], false)),
                ScenarioEvent::CrashProcess(pid) => Some((*at, ordinal_of[&pid.0], false)),
                ScenarioEvent::RestartProcess(pid) => Some((*at, ordinal_of[&pid.0], true)),
                _ => None,
            })
            .collect();
        transitions.sort_by_key(|&(at, node, _)| (at, node));
        let event_count = transitions.len();

        // Measured flows between protected endpoints.
        let n = self.nodes;
        for (a, b) in self.endpoints() {
            fleet.flow(
                NodeId(a),
                NodeId(b),
                FlowSpec::best_effort(),
                Workload::Cbr {
                    size: 1000,
                    interval: self.interval,
                    count: self.count,
                    start: SimTime::from_millis(500),
                },
            );
        }

        let probe = NodeId(self.protected()[0]);
        let mut expected_up = vec![true; n];
        let mut next_transition = 0usize;
        let mut last_event: Option<SimTime> = None;
        let mut max_lag = SimDuration::ZERO;
        let mut footprint_series: Vec<(SimTime, usize)> = Vec::new();
        let mut lsdb_series: Vec<(SimTime, usize)> = Vec::new();

        let until = SimTime::ZERO + self.run_for;
        let tick = SimDuration::from_millis(100);
        fleet.run_with_cadence(until, tick, |sim, overlay, at, _wall| {
            while next_transition < transitions.len() && transitions[next_transition].0 <= at {
                let (t, node, up) = transitions[next_transition];
                if expected_up[node] != up {
                    expected_up[node] = up;
                    last_event = Some(t);
                } else if up {
                    // A restart after a poke+crash pair still perturbs the
                    // fleet even though the expected set already flipped.
                    last_event = Some(t);
                }
                next_transition += 1;
            }
            let live: Vec<NodeId> = (0..n).filter(|&i| expected_up[i]).map(NodeId).collect();
            let converged = fleet_converged(sim, overlay, &live, self.membership);
            if !converged {
                if let Some(t0) = last_event {
                    let lag = at - t0;
                    if lag > max_lag {
                        max_lag = lag;
                    }
                }
            }
            if let Some(node) = sim.proc_ref::<OverlayNode>(overlay.daemon(probe)) {
                footprint_series.push((at, node.footprint().total()));
                lsdb_series.push((at, node.connectivity().lsdb_len()));
            }
        });

        // A horizon that ends unconverged explains itself: which survivor
        // cannot route where, and whose membership view disagrees.
        let live: Vec<NodeId> = (0..n).filter(|&i| expected_up[i]).map(NodeId).collect();
        for &a in &live {
            let node = fleet.node(a);
            for &b in &live {
                if a != b && !node.reaches(b) {
                    eprintln!(
                        "churn {}: at the horizon {a:?} does not reach {b:?}",
                        self.label
                    );
                }
            }
            if let Some(mem) = node.membership() {
                let up = mem.up_members();
                if up != live {
                    let missing: Vec<_> = live.iter().filter(|x| !up.contains(x)).collect();
                    let extra: Vec<_> = up.iter().filter(|x| !live.contains(x)).collect();
                    eprintln!(
                        "churn {}: at the horizon {a:?} misses {missing:?} and still lists {extra:?}",
                        self.label
                    );
                }
            }
        }
        let registry = fleet.registry();
        ChurnOutcome {
            sent: (0..self.flows).map(|k| fleet.sent(k)).sum(),
            received: fleet.delivered(),
            events: event_count,
            max_lag,
            evictions: registry.counter_total("member_evictions"),
            graceful_leaves: registry.counter_total("graceful_leaves"),
            footprint_series,
            lsdb_series,
            registry,
            fingerprint: fleet.sim.fingerprint(),
        }
    }
}

/// Whether every expected-up node can route to every other expected-up node
/// and (with membership on) agrees with the expected live set.
fn fleet_converged(
    sim: &Simulation<Wire>,
    overlay: &son_overlay::OverlayHandle,
    live: &[NodeId],
    membership_on: bool,
) -> bool {
    for &a in live {
        let Some(node) = sim.proc_ref::<OverlayNode>(overlay.daemon(a)) else {
            return false;
        };
        for &b in live {
            if a != b && !node.reaches(b) {
                return false;
            }
        }
        if membership_on {
            let Some(mem) = node.membership() else {
                return false;
            };
            if mem.up_members() != live {
                return false;
            }
        }
    }
    true
}

/// The result of one churn run.
#[derive(Debug)]
pub struct ChurnOutcome {
    /// CBR packets the senders emitted.
    pub sent: u64,
    /// Packets delivered across all flows.
    pub received: u64,
    /// Membership transitions the campaign scheduled.
    pub events: usize,
    /// Worst observed convergence lag: the longest any sample found the
    /// fleet unconverged after the most recent membership event.
    pub max_lag: SimDuration,
    /// Departed-member evictions across the fleet.
    pub evictions: u64,
    /// Graceful-leave announcements across the fleet.
    pub graceful_leaves: u64,
    /// The probe survivor's total memory footprint over time.
    pub footprint_series: Vec<(SimTime, usize)>,
    /// The probe survivor's LSDB size over time.
    pub lsdb_series: Vec<(SimTime, usize)>,
    /// Experiment-wide metrics registry.
    pub registry: Registry,
    /// The simulator fingerprint (same seed ⇒ identical).
    pub fingerprint: u64,
}

impl ChurnOutcome {
    /// Fraction of sent packets delivered.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.received as f64 / self.sent as f64
        }
    }

    /// The probe survivor's peak footprint.
    #[must_use]
    pub fn footprint_peak(&self) -> usize {
        self.footprint_series
            .iter()
            .map(|&(_, b)| b)
            .max()
            .unwrap_or(0)
    }

    /// The probe survivor's footprint at the horizon.
    #[must_use]
    pub fn footprint_end(&self) -> usize {
        self.footprint_series.last().map_or(0, |&(_, b)| b)
    }

    /// The probe survivor's LSDB size at the horizon.
    #[must_use]
    pub fn lsdb_end(&self) -> usize {
        self.lsdb_series.last().map_or(0, |&(_, len)| len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_endpoints_cover_all_flows() {
        let run = ChurnRun::new("t", 1, ChurnPattern::None);
        let protected = run.protected();
        assert_eq!(protected.len(), 8, "4 flows, 8 distinct endpoints");
        assert!(protected.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn leave_token_is_the_graceful_leave_timer() {
        assert_eq!(TimerKey::decode(LEAVE_TOKEN), Some(TimerKey::GracefulLeave));
    }
}
