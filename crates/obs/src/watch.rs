//! Watchdog audit events: what the in-daemon anomaly watchdog saw and did.
//!
//! The `son-watch` control loop (overlay crate) detects pathologies online
//! — recovery-budget breaches, retransmit storms, reroute flaps, silent
//! blackholes, sustained queue growth — and remediates them with link
//! suspension, LSA flap damping, and low-priority flow shedding. Every
//! detection and remediation is recorded as a [`WatchEvent`] in a bounded
//! per-node [`WatchRing`], exported as `{"kind":"watch",…}` JSONL rows next
//! to the trace rows, and audited offline by `son-trace --watch-audit`:
//! every remediation must be explainable by a prior detection on the same
//! node (and link, where it has one).
//!
//! Timestamps are simulation-time nanoseconds, matching the trace events.

use crate::json::Json;
use crate::ring::Ring;

/// What the watchdog observed (detections) or did about it (remediations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchKind {
    // -- detections --------------------------------------------------------
    /// A link recovered a loss, but slower than the link's latency budget.
    RecoveryBudgetExceeded {
        /// Observed gap-to-recovery latency.
        after_ns: u64,
        /// The budget it exceeded.
        budget_ns: u64,
    },
    /// A link's retransmission count spiked within one evaluation epoch.
    RetransmitStorm {
        /// Retransmissions counted in the epoch.
        retransmits: u64,
    },
    /// Routes were recomputed repeatedly within a short window.
    RerouteFlap {
        /// Route recomputations (or LSA content changes) in the window.
        reroutes: u64,
    },
    /// A neighbor acknowledges hellos but forwards none of the data it
    /// receives — the control-plane-alive / data-plane-dead signature.
    SilentBlackhole {
        /// Data packets the neighbor reported receiving in the window.
        received: u64,
        /// How many of those made progress (delivered, forwarded, or
        /// legitimately dropped).
        progressed: u64,
    },
    /// A link protocol's send queues stayed above the depth limit.
    QueueGrowth {
        /// Queued packets summed over the link's protocol instances.
        depth: u64,
    },
    // -- remediations ------------------------------------------------------
    /// The link was suspended: advertised down so routes avoid it.
    LinkSuspended {
        /// Accumulated strikes that triggered the suspension.
        strikes: u64,
    },
    /// A suspended link was probed for readmission.
    LinkProbed {
        /// The current probe backoff, milliseconds.
        backoff_ms: u64,
    },
    /// A suspended link passed its hold-down and was readmitted.
    LinkReadmitted,
    /// An oscillating LSA origin was damped: its updates no longer trigger
    /// route recomputation until it stays stable for the dwell period.
    FlapDamped {
        /// The damped origin node.
        origin: u32,
    },
    /// A damped origin stayed stable for the dwell period and was released.
    FlapReleased {
        /// The released origin node.
        origin: u32,
    },
    /// Overload shedding engaged: ingress packets of flows below this
    /// priority are dropped with `drop.shed`.
    ShedEngaged {
        /// Flows with priority strictly below this are shed.
        below_priority: u8,
    },
    /// Queues recovered; shedding was released.
    ShedReleased,
}

impl WatchKind {
    /// Stable export label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            WatchKind::RecoveryBudgetExceeded { .. } => "recovery_budget_exceeded",
            WatchKind::RetransmitStorm { .. } => "retransmit_storm",
            WatchKind::RerouteFlap { .. } => "reroute_flap",
            WatchKind::SilentBlackhole { .. } => "silent_blackhole",
            WatchKind::QueueGrowth { .. } => "queue_growth",
            WatchKind::LinkSuspended { .. } => "link_suspended",
            WatchKind::LinkProbed { .. } => "link_probed",
            WatchKind::LinkReadmitted => "link_readmitted",
            WatchKind::FlapDamped { .. } => "flap_damped",
            WatchKind::FlapReleased { .. } => "flap_released",
            WatchKind::ShedEngaged { .. } => "shed_engaged",
            WatchKind::ShedReleased => "shed_released",
        }
    }

    /// The per-kind counter a daemon bumps: `watch.<label>`.
    #[must_use]
    pub const fn counter_name(self) -> &'static str {
        match self {
            WatchKind::RecoveryBudgetExceeded { .. } => "watch.recovery_budget_exceeded",
            WatchKind::RetransmitStorm { .. } => "watch.retransmit_storm",
            WatchKind::RerouteFlap { .. } => "watch.reroute_flap",
            WatchKind::SilentBlackhole { .. } => "watch.silent_blackhole",
            WatchKind::QueueGrowth { .. } => "watch.queue_growth",
            WatchKind::LinkSuspended { .. } => "watch.link_suspended",
            WatchKind::LinkProbed { .. } => "watch.link_probed",
            WatchKind::LinkReadmitted => "watch.link_readmitted",
            WatchKind::FlapDamped { .. } => "watch.flap_damped",
            WatchKind::FlapReleased { .. } => "watch.flap_released",
            WatchKind::ShedEngaged { .. } => "watch.shed_engaged",
            WatchKind::ShedReleased => "watch.shed_released",
        }
    }

    /// `true` for remediations (actions taken), `false` for detections
    /// (evidence observed). The audit invariant is that every remediation
    /// follows some detection on the same node.
    #[must_use]
    pub const fn is_remediation(self) -> bool {
        !matches!(
            self,
            WatchKind::RecoveryBudgetExceeded { .. }
                | WatchKind::RetransmitStorm { .. }
                | WatchKind::RerouteFlap { .. }
                | WatchKind::SilentBlackhole { .. }
                | WatchKind::QueueGrowth { .. }
        )
    }
}

/// One watchdog detection or remediation at one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchEvent {
    /// Simulation time in nanoseconds.
    pub at_ns: u64,
    /// The daemon that recorded the event.
    pub node: u32,
    /// Local link index the event concerns, if any.
    pub link: Option<u32>,
    /// What happened.
    pub kind: WatchKind,
}

impl WatchEvent {
    /// The event as one `watch.jsonl` row (schema in `EXPERIMENTS.md`).
    #[must_use]
    pub fn row(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::str("watch")),
            ("at_ns", Json::U64(self.at_ns)),
            ("node", Json::U64(u64::from(self.node))),
            ("what", Json::str(self.kind.label())),
        ];
        if let Some(l) = self.link {
            pairs.push(("link", Json::U64(u64::from(l))));
        }
        match self.kind {
            WatchKind::RecoveryBudgetExceeded {
                after_ns,
                budget_ns,
            } => {
                pairs.push(("after_ns", Json::U64(after_ns)));
                pairs.push(("budget_ns", Json::U64(budget_ns)));
            }
            WatchKind::RetransmitStorm { retransmits } => {
                pairs.push(("retransmits", Json::U64(retransmits)));
            }
            WatchKind::RerouteFlap { reroutes } => {
                pairs.push(("reroutes", Json::U64(reroutes)));
            }
            WatchKind::SilentBlackhole {
                received,
                progressed,
            } => {
                pairs.push(("received", Json::U64(received)));
                pairs.push(("progressed", Json::U64(progressed)));
            }
            WatchKind::QueueGrowth { depth } => pairs.push(("depth", Json::U64(depth))),
            WatchKind::LinkSuspended { strikes } => pairs.push(("strikes", Json::U64(strikes))),
            WatchKind::LinkProbed { backoff_ms } => {
                pairs.push(("backoff_ms", Json::U64(backoff_ms)));
            }
            WatchKind::FlapDamped { origin } | WatchKind::FlapReleased { origin } => {
                pairs.push(("origin", Json::U64(u64::from(origin))));
            }
            WatchKind::ShedEngaged { below_priority } => {
                pairs.push(("below_priority", Json::U64(u64::from(below_priority))));
            }
            WatchKind::LinkReadmitted | WatchKind::ShedReleased => {}
        }
        Json::obj(pairs)
    }

    /// Parses one exported row back into an event. Returns `None` for rows
    /// that are not watch rows (other kinds share the experiment files).
    #[must_use]
    pub fn from_row(row: &Json) -> Option<WatchEvent> {
        if row.get("kind")?.as_str()? != "watch" {
            return None;
        }
        let u = |key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0);
        let kind = match row.get("what")?.as_str()? {
            "recovery_budget_exceeded" => WatchKind::RecoveryBudgetExceeded {
                after_ns: u("after_ns"),
                budget_ns: u("budget_ns"),
            },
            "retransmit_storm" => WatchKind::RetransmitStorm {
                retransmits: u("retransmits"),
            },
            "reroute_flap" => WatchKind::RerouteFlap {
                reroutes: u("reroutes"),
            },
            "silent_blackhole" => WatchKind::SilentBlackhole {
                received: u("received"),
                progressed: u("progressed"),
            },
            "queue_growth" => WatchKind::QueueGrowth { depth: u("depth") },
            "link_suspended" => WatchKind::LinkSuspended {
                strikes: u("strikes"),
            },
            "link_probed" => WatchKind::LinkProbed {
                backoff_ms: u("backoff_ms"),
            },
            "link_readmitted" => WatchKind::LinkReadmitted,
            "flap_damped" => WatchKind::FlapDamped {
                origin: u32::try_from(u("origin")).ok()?,
            },
            "flap_released" => WatchKind::FlapReleased {
                origin: u32::try_from(u("origin")).ok()?,
            },
            "shed_engaged" => WatchKind::ShedEngaged {
                below_priority: u8::try_from(u("below_priority")).ok()?,
            },
            "shed_released" => WatchKind::ShedReleased,
            _ => return None,
        };
        Some(WatchEvent {
            at_ns: row.get("at_ns")?.as_u64()?,
            node: u32::try_from(row.get("node")?.as_u64()?).ok()?,
            link: row
                .get("link")
                .and_then(Json::as_u64)
                .and_then(|l| u32::try_from(l).ok()),
            kind,
        })
    }
}

/// The per-node [`Ring`] of [`WatchEvent`]s.
pub type WatchRing = Ring<WatchEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<WatchKind> {
        vec![
            WatchKind::RecoveryBudgetExceeded {
                after_ns: 5_000_000,
                budget_ns: 1_000_000,
            },
            WatchKind::RetransmitStorm { retransmits: 40 },
            WatchKind::RerouteFlap { reroutes: 7 },
            WatchKind::SilentBlackhole {
                received: 120,
                progressed: 0,
            },
            WatchKind::QueueGrowth { depth: 512 },
            WatchKind::LinkSuspended { strikes: 3 },
            WatchKind::LinkProbed { backoff_ms: 800 },
            WatchKind::LinkReadmitted,
            WatchKind::FlapDamped { origin: 9 },
            WatchKind::FlapReleased { origin: 9 },
            WatchKind::ShedEngaged { below_priority: 4 },
            WatchKind::ShedReleased,
        ]
    }

    #[test]
    fn rows_round_trip_every_kind() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let e = WatchEvent {
                at_ns: 1000 + i as u64,
                node: 3,
                link: if i % 2 == 0 { Some(1) } else { None },
                kind,
            };
            let parsed = Json::parse(&e.row().to_json()).unwrap();
            assert_eq!(WatchEvent::from_row(&parsed), Some(e));
        }
        let other = Json::obj(vec![("kind", Json::str("trace"))]);
        assert_eq!(WatchEvent::from_row(&other), None);
    }

    #[test]
    fn labels_are_unique_and_classified() {
        let kinds = all_kinds();
        let labels: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        for k in &kinds {
            assert_eq!(k.counter_name(), format!("watch.{}", k.label()));
        }
        let detections = kinds.iter().filter(|k| !k.is_remediation()).count();
        assert_eq!(detections, 5, "five detection kinds");
    }
}
