//! Regression locks for the `son-exp churn` acceptance invariants, at a
//! debug-friendly scale of the same campaign machinery:
//!
//! 1. after any *single* membership event at N = 64 — a crash, a
//!    crash-recover (leave + join), or a graceful leave — every surviving
//!    node re-converges (routes and membership view) within the bounded
//!    epoch count,
//! 2. under sustained graceful churn the surviving-member flows hold the
//!    delivery floor, and maintenance-on strictly beats the
//!    no-maintenance control,
//! 3. a 50%-churned deployment does not leak departed-member state: the
//!    survivor LSDB shrinks to the survivor count and the memory footprint
//!    comes back down off its peak,
//! 4. a churn run is a pure function of its seed, and the seed's sustained
//!    graceful fingerprint is pinned, so a change that alters what
//!    membership maintenance does shows across commits.
//!
//! The full-scale numbers live in `son-exp churn` (and its `--smoke` run in
//! CI); these tests keep the *shape* of the result from regressing in
//! plain `cargo test`.

use son_bench::churn::{ChurnPattern, ChurnRun};
use son_netsim::time::{SimDuration, SimTime};

const SEED: u64 = 53;

/// The bound the tentpole promises: 8 maintenance epochs of 500 ms.
const LAG_BOUND: SimDuration = SimDuration::from_secs(4);

/// Defaults trimmed to a horizon debug builds can afford; the event fires
/// at 5s, leaving 11s — nearly three bounds — of settle time.
fn scaled(label: &str, pattern: ChurnPattern) -> ChurnRun {
    let mut run = ChurnRun::new(label, SEED, pattern);
    run.run_for = SimDuration::from_secs(16);
    run.count = 1200;
    run
}

#[test]
fn single_crash_at_n64_converges_within_bound() {
    let out = scaled(
        "crash.one",
        ChurnPattern::CrashOne {
            node: 5,
            at: SimTime::from_secs(5),
            downtime: None,
        },
    )
    .run();
    assert_eq!(out.events, 1);
    assert!(
        out.max_lag > SimDuration::ZERO,
        "a crash must be visible as a convergence disturbance"
    );
    assert!(
        out.max_lag <= LAG_BOUND,
        "crash convergence lag {:?} exceeds the {:?} bound",
        out.max_lag,
        LAG_BOUND
    );
    assert_eq!(
        out.evictions, 63,
        "every survivor evicts the departed member exactly once"
    );
}

#[test]
fn single_crash_recover_at_n64_converges_within_bound() {
    let out = scaled(
        "crash.recover",
        ChurnPattern::CrashOne {
            node: 5,
            at: SimTime::from_secs(5),
            downtime: Some(SimDuration::from_secs(2)),
        },
    )
    .run();
    assert_eq!(out.events, 2, "a crash and a rejoin");
    assert!(
        out.max_lag <= LAG_BOUND,
        "crash-recover convergence lag {:?} exceeds the {:?} bound",
        out.max_lag,
        LAG_BOUND
    );
}

#[test]
fn single_graceful_leave_at_n64_converges_and_beats_crash_discovery() {
    // Node 17 sits on a measured flow's route at N = 64, so the leave
    // perturbs real traffic; the graceful withdrawal must reroute it
    // during the grace window, while the control only notices the
    // eventual crash through hello loss.
    let leave = ChurnPattern::Leave {
        nodes: vec![17],
        at: SimTime::from_secs(5),
        downtime: None,
    };
    let on = scaled("leave.on", leave.clone()).run();
    let off = scaled("leave.off", leave).without_membership().run();
    assert!(
        on.max_lag <= LAG_BOUND,
        "graceful-leave convergence lag {:?} exceeds the {:?} bound",
        on.max_lag,
        LAG_BOUND
    );
    assert_eq!(on.graceful_leaves, 1, "the poked node announces its leave");
    assert_eq!(off.graceful_leaves, 0, "the control ignores the poke");
    assert!(
        on.received > off.received,
        "graceful withdrawal must strictly beat crash discovery: on {} vs off {}",
        on.received,
        off.received
    );
}

#[test]
fn sustained_churn_holds_delivery_floor_and_beats_control() {
    let pattern = ChurnPattern::Sustained {
        events: 12,
        downtime: SimDuration::from_secs(2),
        graceful: true,
    };
    let mut on = scaled("sustained.on", pattern.clone());
    on.nodes = 32;
    on.run_for = SimDuration::from_secs(22);
    let mut off = scaled("sustained.off", pattern).without_membership();
    off.nodes = 32;
    off.run_for = SimDuration::from_secs(22);
    let on = on.run();
    let off = off.run();
    assert!(
        on.delivery_ratio() >= 0.90,
        "delivery ratio {:.3} under sustained churn is below the 0.90 floor",
        on.delivery_ratio()
    );
    assert!(
        on.received > off.received,
        "maintenance must strictly beat the control: on {} vs off {}",
        on.received,
        off.received
    );
    assert!(
        on.max_lag <= LAG_BOUND,
        "sustained-churn convergence lag {:?} exceeds the {:?} bound",
        on.max_lag,
        LAG_BOUND
    );
    assert!(on.evictions > 0, "graceful leaves must be evicted");
}

#[test]
fn half_churned_deployment_evicts_instead_of_leaking() {
    // 8 of 16 nodes leave permanently. The dense chord layout keeps the
    // survivor line 0–1–2–3–11–12–13–14 connected, so the measured flow
    // (0 → 11) keeps flowing while half the fleet disappears.
    let leaves = vec![4, 5, 6, 7, 8, 9, 10, 15];
    let pattern = ChurnPattern::Leave {
        nodes: leaves,
        at: SimTime::from_secs(4),
        downtime: None,
    };
    let mut on = scaled("leak.on", pattern.clone());
    on.nodes = 16;
    on.flows = 1;
    on.chord_every = 1;
    let mut off = scaled("leak.off", pattern).without_membership();
    off.nodes = 16;
    off.flows = 1;
    off.chord_every = 1;
    let on = on.run();
    let off = off.run();

    assert_eq!(
        on.lsdb_end(),
        8,
        "the survivor's LSDB must shrink to the 8 surviving origins"
    );
    assert_eq!(
        off.lsdb_end(),
        16,
        "the control never evicts, so departed LSAs persist"
    );
    assert!(
        on.footprint_end() < on.footprint_peak(),
        "survivor footprint must come down off its peak after eviction \
         (end {} vs peak {})",
        on.footprint_end(),
        on.footprint_peak()
    );
    assert_eq!(
        on.evictions,
        8 * 8,
        "each of the 8 survivors evicts each of the 8 departed members"
    );
    assert!(
        on.delivery_ratio() > 0.95,
        "the surviving flow must keep flowing: delivery {:.3}",
        on.delivery_ratio()
    );
}

#[test]
fn churn_runs_are_a_pure_function_of_the_seed() {
    let pattern = ChurnPattern::Sustained {
        events: 6,
        downtime: SimDuration::from_secs(2),
        graceful: true,
    };
    let build = || {
        let mut run = scaled("det", pattern.clone());
        run.nodes = 32;
        run
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(a.fingerprint, b.fingerprint, "same seed, same simulation");
    // Re-recorded (0x8935_a455_d1dd_2e98 before) when a cold start
    // stopped flooding LSAs that say what the configuration does.
    assert_eq!(
        a.fingerprint, 0x541c_7c3a_e634_e420,
        "the seed's sustained graceful churn campaign moved"
    );
    assert_eq!(a.received, b.received);
    assert_eq!(a.max_lag, b.max_lag);
    assert_eq!(a.evictions, b.evictions);
}
