//! E-watchdog — online anomaly watchdog with automated remediation,
//! validated by a deterministic fault-injection campaign.
//!
//! For each campaign in the matrix (all-healthy control, link flaps, burst
//! loss, silent blackhole, router failures), a CBR flow crosses the
//! continental US twice: once with the watchdog off and once with it on.
//! The table reports the fraction of packets delivered within a one-way
//! deadline plus the remediation counts from the watchdog's audit stream.
//! The claims the regression tests lock:
//!
//! * the control campaign produces **zero** suspensions (no false
//!   positives on healthy links);
//! * under the blackhole and flap campaigns, watchdog-on delivers a
//!   **strictly higher** within-deadline fraction than watchdog-off;
//! * the same seed reproduces the identical
//!   [`Simulation::fingerprint`](son_netsim::sim::Simulation::fingerprint).
//!
//! Audit events are exported as `watch.jsonl` rows and cross-checked by
//! `son-trace --watch-audit`.

use son_netsim::time::SimDuration;
use son_obs::registry_rows;
use son_obs::watch::{WatchEvent, WatchKind};

use super::Opts;
use crate::watchdog::{campaign_matrix, WatchdogRun};
use crate::{export_rows, f, finish_export, obs_sink, row, table_header};

pub fn run(opts: &Opts) {
    let smoke = opts.smoke;
    let mut sink = obs_sink("exp_watchdog");
    let mut watch_sink = obs_sink("watch");

    table_header(&[
        ("campaign", 16),
        ("watchdog", 9),
        ("sent", 6),
        ("recvd", 6),
        ("in-deadline", 12),
        ("susp", 5),
        ("readmit", 8),
        ("damped", 7),
        ("shed", 5),
    ]);

    let mut matrix = campaign_matrix();
    matrix.retain(|(name, _)| !smoke || matches!(*name, "control" | "flaps" | "blackhole"));

    let mut fractions: Vec<(String, bool, f64, u64)> = Vec::new();
    for (name, build) in matrix {
        for watch_on in [false, true] {
            let mut run = WatchdogRun::new(name, 71, build);
            if smoke {
                run.run_for = SimDuration::from_secs(22);
                run.count = 1800;
            }
            run.watch = watch_on;
            let out = run.run();
            let damped = out.count_events(|k| matches!(k, WatchKind::FlapDamped { .. }));
            let shed = out.count_events(|k| matches!(k, WatchKind::ShedEngaged { .. }));
            row(&[
                (name.to_string(), 16),
                (if watch_on { "on" } else { "off" }.into(), 9),
                (out.sent.to_string(), 6),
                (out.received.to_string(), 6),
                (f(out.deadline_fraction() * 100.0, 1) + "%", 12),
                (out.suspensions().to_string(), 5),
                (out.readmissions().to_string(), 8),
                (damped.to_string(), 7),
                (shed.to_string(), 5),
            ]);
            let tag = format!("{name}.{}", if watch_on { "on" } else { "off" });
            if let Some(s) = &mut watch_sink {
                let _ = export_rows(s, &tag, out.watch_events.iter().map(WatchEvent::row));
            }
            if let Some(s) = &mut sink {
                let _ = export_rows(s, &tag, registry_rows(&out.registry));
            }
            fractions.push((
                name.to_string(),
                watch_on,
                out.deadline_fraction(),
                out.suspensions(),
            ));
        }
    }

    for s in [sink, watch_sink].into_iter().flatten() {
        finish_export(s);
    }

    println!();
    let cell = |name: &str, on: bool| {
        let hit = fractions.iter().find(|(n, w, ..)| n == name && *w == on);
        hit.map_or((0.0, 0), |&(.., fraction, suspensions)| {
            (fraction, suspensions)
        })
    };
    let frac = |name, on| cell(name, on).0;
    let control_susp = cell("control", true).1;
    println!("Shape check (paper, NM-Strikes / cost-benefit framing): a compromised");
    println!("or degraded element must be detected and routed around by the overlay");
    println!("itself, without tearing down the service. Watchdog-on vs off within-");
    println!("deadline fractions:");
    for name in ["flaps", "blackhole"] {
        println!(
            "  {name:12} off={:5.1}%  on={:5.1}%  ({})",
            frac(name, false) * 100.0,
            frac(name, true) * 100.0,
            if frac(name, true) > frac(name, false) {
                "watchdog improves"
            } else {
                "NO IMPROVEMENT"
            }
        );
    }
    println!(
        "  control      suspensions with watchdog on: {control_susp} ({})",
        if control_susp == 0 {
            "no false positives"
        } else {
            "FALSE POSITIVES"
        }
    );
}
