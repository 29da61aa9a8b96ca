//! E20 — membership churn: join/leave protocol with self-stabilizing
//! topology maintenance.
//!
//! For each churn campaign in the matrix (sustained graceful churn,
//! sustained crash churn, a correlated flash wave, a permanent leave),
//! best-effort CBR flows cross a chorded ring twice: once with membership
//! maintenance off (the control — crashes are only ever discovered as link
//! loss, departed state is never evicted) and once with it on. The table
//! reports the delivery ratio for surviving-member flows, the worst
//! convergence lag after any membership event, and the eviction counts.
//! The claims the regression tests lock:
//!
//! * with maintenance on, every single join/leave/crash re-converges the
//!   fleet (routes **and** membership views) within a bounded number of
//!   maintenance epochs;
//! * under sustained graceful churn the delivery ratio stays ≥ 0.90 and is
//!   **strictly higher** than the no-maintenance control;
//! * departed members are evicted — a 50%-churned deployment's footprint
//!   does not grow monotonically;
//! * the same seed reproduces the identical
//!   [`Simulation::fingerprint`](son_netsim::sim::Simulation::fingerprint),
//!   churn and all.
//!
//! `--smoke` runs a reduced matrix at n = 32 and exits non-zero if the
//! delivery floor, the strict on-vs-off ordering, or the convergence bound
//! fails — the CI gate.

use son_netsim::time::SimDuration;
use son_obs::registry_rows;

use super::Opts;
use crate::churn::{campaign_matrix, ChurnRun};
use crate::{export_rows, f, finish_export, obs_sink, row, table_header};

/// Convergence bound the gate enforces: 8 maintenance epochs (500 ms each).
const LAG_BOUND: SimDuration = SimDuration::from_secs(4);
/// Delivery floor for surviving-member flows under sustained churn.
const DELIVERY_FLOOR: f64 = 0.90;

pub fn run(opts: &Opts) {
    let smoke = opts.smoke;
    let mut sink = obs_sink("exp_churn");

    table_header(&[
        ("campaign", 20),
        ("membership", 11),
        ("sent", 6),
        ("recvd", 6),
        ("delivery", 9),
        ("max-lag", 9),
        ("evict", 6),
        ("leaves", 7),
    ]);

    let mut matrix = campaign_matrix();
    let in_smoke = |name| matches!(name, "sustained-graceful" | "leave-permanent");
    matrix.retain(|(name, _)| !smoke || in_smoke(*name));

    let mut results: Vec<(String, bool, f64, SimDuration)> = Vec::new();
    for (name, pattern) in matrix {
        for membership_on in [false, true] {
            let mut run = ChurnRun::new(name, 53, pattern.clone());
            if smoke {
                run.nodes = 32;
                run.run_for = SimDuration::from_secs(22);
                run.count = 1800;
            }
            if !membership_on {
                run = run.without_membership();
            }
            let out = run.run();
            row(&[
                (name.to_string(), 20),
                (if membership_on { "on" } else { "off" }.into(), 11),
                (out.sent.to_string(), 6),
                (out.received.to_string(), 6),
                (f(out.delivery_ratio() * 100.0, 1) + "%", 9),
                (format!("{}ms", out.max_lag.as_millis_f64() as u64), 9),
                (out.evictions.to_string(), 6),
                (out.graceful_leaves.to_string(), 7),
            ]);
            let tag = format!("{name}.{}", if membership_on { "on" } else { "off" });
            if let Some(s) = &mut sink {
                let _ = export_rows(s, &tag, registry_rows(&out.registry));
            }
            results.push((
                name.to_string(),
                membership_on,
                out.delivery_ratio(),
                out.max_lag,
            ));
        }
    }

    if let Some(s) = sink {
        finish_export(s);
    }

    println!();
    let get = |name: &str, on: bool| {
        results
            .iter()
            .find(|(n, m, ..)| n == name && *m == on)
            .map(|&(_, _, d, lag)| (d, lag))
            .unwrap_or((0.0, SimDuration::ZERO))
    };
    let (on_d, on_lag) = get("sustained-graceful", true);
    let (_, leave_lag) = get("leave-permanent", true);
    // The strict on-vs-off comparison aggregates the whole matrix: which
    // campaigns actually drop packets depends on whether the randomized
    // victims intersect the measured paths at a given scale, but the
    // matrix-wide total must never favor running without maintenance.
    let agg = |on: bool| -> f64 {
        let rows: Vec<f64> = results
            .iter()
            .filter(|&&(_, m, ..)| m == on)
            .map(|&(_, _, d, _)| d)
            .collect();
        rows.iter().sum::<f64>() / rows.len() as f64
    };
    let (agg_on, agg_off) = (agg(true), agg(false));

    let floor_ok = on_d >= DELIVERY_FLOOR;
    let strict_ok = agg_on > agg_off;
    let bound_ok = on_lag <= LAG_BOUND && leave_lag <= LAG_BOUND;
    println!("Shape check (paper, resilient-architecture framing): the overlay must");
    println!("absorb membership churn as a normal operating condition, not an outage.");
    println!(
        "  delivery floor   on={:5.1}% (floor {:.0}%)  ({})",
        on_d * 100.0,
        DELIVERY_FLOOR * 100.0,
        if floor_ok { "ok" } else { "BELOW FLOOR" }
    );
    println!(
        "  on vs off        on={:6.2}% off={:6.2}% (matrix mean)  ({})",
        agg_on * 100.0,
        agg_off * 100.0,
        if strict_ok {
            "maintenance improves"
        } else {
            "NO IMPROVEMENT"
        }
    );
    println!(
        "  convergence lag  sustained={}ms leave={}ms (bound {}ms)  ({})",
        on_lag.as_millis_f64() as u64,
        leave_lag.as_millis_f64() as u64,
        LAG_BOUND.as_millis_f64() as u64,
        if bound_ok { "ok" } else { "BOUND EXCEEDED" }
    );

    if smoke && !(floor_ok && strict_ok && bound_ok) {
        eprintln!("son-exp churn --smoke: gate FAILED");
        std::process::exit(1);
    }
}
