//! Regression locks for the `son-exp watchdog` acceptance invariants, at a
//! debug-friendly scale of the same campaign matrix:
//!
//! 1. the all-healthy control campaign triggers *zero* remediations (the
//!    no-false-positive invariant),
//! 2. turning the watchdog on strictly improves the delivered-within-
//!    deadline fraction under the blackhole, flap, burst-loss, and
//!    router-failure campaigns,
//! 3. a campaign run is a pure function of its seed — two identical runs
//!    produce identical `Simulation::fingerprint()`s and watch histories,
//!    and the seed's watchdog-on blackhole fingerprint is pinned, so a
//!    change that alters what the watchdog does shows across commits.
//!
//! The full-scale numbers live in `son-exp watchdog` (and its `--smoke` run in
//! CI); these tests keep the *shape* of the result from regressing in plain
//! `cargo test`.

use son_bench::watchdog::{
    blackhole_campaign, burst_loss_campaign, control_campaign, flap_campaign,
    router_failure_campaign, CampaignBuilder, WatchdogRun,
};
use son_netsim::time::SimDuration;

const SEED: u64 = 71;

/// The experiment defaults trimmed to a horizon debug builds can afford.
/// The fault window opens at 4s, so 16s still leaves 12s of fault time.
fn scaled(label: &str, build: CampaignBuilder) -> WatchdogRun {
    let mut run = WatchdogRun::new(label, SEED, build);
    run.run_for = SimDuration::from_secs(16);
    run.count = 1200;
    run
}

#[test]
fn control_campaign_triggers_no_remediations() {
    let out = scaled("control", control_campaign).with_watch().run();
    assert_eq!(
        out.watch_events.len(),
        0,
        "healthy campaign raised watch events: first {:?}",
        out.watch_events.first()
    );
    assert_eq!(out.suspensions(), 0);
    assert!(
        out.deadline_fraction() > 0.99,
        "control deadline fraction {:.3}",
        out.deadline_fraction()
    );
}

#[test]
fn watchdog_strictly_improves_blackhole_campaign() {
    let off = scaled("blackhole.off", blackhole_campaign).run();
    let on = scaled("blackhole.on", blackhole_campaign)
        .with_watch()
        .run();
    assert!(
        on.within_deadline > off.within_deadline,
        "watchdog must strictly improve delivered-within-deadline: on {} vs off {}",
        on.within_deadline,
        off.within_deadline
    );
    assert!(
        on.suspensions() > 0,
        "the improvement must come from a conviction, not luck"
    );
}

#[test]
fn watchdog_strictly_improves_flap_campaign() {
    let off = scaled("flaps.off", flap_campaign).run();
    let on = scaled("flaps.on", flap_campaign).with_watch().run();
    assert!(
        on.within_deadline > off.within_deadline,
        "watchdog must strictly improve delivered-within-deadline: on {} vs off {}",
        on.within_deadline,
        off.within_deadline
    );
    assert!(
        on.count_events(|k| matches!(k, son_obs::watch::WatchKind::FlapDamped { .. })) > 0,
        "the improvement must come from flap damping"
    );
}

#[test]
fn watchdog_strictly_improves_burst_loss_campaign() {
    let off = scaled("burst_loss.off", burst_loss_campaign).run();
    let on = scaled("burst_loss.on", burst_loss_campaign)
        .with_watch()
        .run();
    assert!(
        on.within_deadline > off.within_deadline,
        "watchdog must strictly improve delivered-within-deadline: on {} vs off {}",
        on.within_deadline,
        off.within_deadline
    );
    assert!(
        on.count_events(|k| matches!(k, son_obs::watch::WatchKind::FlapDamped { .. })) > 0,
        "the improvement must come from damping the loss-driven link churn"
    );
}

#[test]
fn watchdog_strictly_improves_router_failure_campaign() {
    let off = scaled("router_failures.off", router_failure_campaign).run();
    let on = scaled("router_failures.on", router_failure_campaign)
        .with_watch()
        .run();
    assert!(
        on.within_deadline > off.within_deadline,
        "watchdog must strictly improve delivered-within-deadline: on {} vs off {}",
        on.within_deadline,
        off.within_deadline
    );
    assert!(
        on.count_events(|k| matches!(k, son_obs::watch::WatchKind::FlapDamped { .. })) > 0,
        "the improvement must come from damping the reboot-looping router"
    );
    // The first crash costs both sides the same stranded flush; the
    // watchdog's value is confined to the later cycles. Check the on-run's
    // lateness clusters only around the opening of the fault window.
    let late_after_first_cycle = on
        .deliveries
        .iter()
        .filter(|&&(at, lat_ms)| at.as_secs_f64() > 7.0 && lat_ms > 250.0)
        .count();
    assert_eq!(
        late_after_first_cycle, 0,
        "with damping engaged, later crash cycles must not strand packets"
    );
}

#[test]
fn same_seed_replays_the_identical_campaign() {
    let a = scaled("replay", blackhole_campaign).with_watch().run();
    let b = scaled("replay", blackhole_campaign).with_watch().run();
    assert_eq!(a.fingerprint, b.fingerprint, "simulation state diverged");
    // Re-recorded (0xa291_3672_1564_a9d1 before) when a cold start
    // stopped flooding LSAs that say what the configuration does.
    assert_eq!(
        a.fingerprint, 0x291b_1b63_866a_94e3,
        "the seed's watchdog-on blackhole campaign moved"
    );
    assert_eq!(a.watch_events, b.watch_events, "watch history diverged");
    assert_eq!(a.within_deadline, b.within_deadline);
}
