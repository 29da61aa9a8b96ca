//! Regression locks for the telemetry plane:
//!
//! 1. emitting per-epoch snapshots through `Fleet::run_with_telemetry` must
//!    not perturb the simulation — the fingerprint with telemetry enabled is
//!    byte-identical to a plain `run_until` of the same seed,
//! 2. a reboot-looping daemon ([`Campaign::process_flaps`]) must never make
//!    counter deltas wrap: the producer re-baselines on the restarted
//!    incarnation's smaller totals and reports the restart instead,
//! 3. the aggregator's sequence accounting stays clean (no duplicates, no
//!    phantom losses) across the whole flap campaign.

use std::collections::HashMap;

use son_bench::ring_with_chords;
use son_bench::telemetry::ClusterState;
use son_netsim::scenario::Campaign;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::snapshot::SnapshotProducer;
use son_obs::snapshot::EPOCH_NS;
use son_obs::Registry;
use son_overlay::builder::OverlayBuilder;
use son_overlay::client::Workload;
use son_overlay::node::OverlayNode;
use son_overlay::Fleet;
use son_overlay::FlowSpec;
use son_topo::NodeId;

const SEED: u64 = 4_242;
const RUN_FOR: SimTime = SimTime::from_secs(8);

/// A 6-node ring overlay with one CBR flow terminating at node 1: the
/// receiving daemon's `node.delivered_local` counter grows steadily, so
/// every telemetry epoch of uptime observes nonzero counter movement.
fn build_fleet() -> Fleet {
    let mut fleet = Fleet::new(
        SEED,
        None,
        OverlayBuilder::new(ring_with_chords(6, 10.0, 0)),
    );
    fleet.flow(
        NodeId(4),
        NodeId(1),
        FlowSpec::best_effort(),
        Workload::Cbr {
            size: 200,
            interval: SimDuration::from_millis(2),
            count: u64::MAX,
            start: SimTime::from_millis(100),
        },
    );
    fleet
}

/// The fingerprint must not move when telemetry is observed every epoch:
/// snapshot production reads node state, it never schedules into the sim.
#[test]
fn telemetry_emission_does_not_perturb_the_simulation() {
    let mut plain = build_fleet();
    plain.run(RUN_FOR);

    let mut observed = build_fleet();
    let mut cluster = ClusterState::new();
    observed.run_with_telemetry(RUN_FOR, |snap| cluster.ingest(snap));

    assert_eq!(
        plain.sim.fingerprint(),
        observed.sim.fingerprint(),
        "per-epoch telemetry emission changed the simulation"
    );
    assert_eq!(cluster.node_count(), 6);
    let expected_epochs = RUN_FOR.as_nanos() / EPOCH_NS;
    assert_eq!(cluster.snapshots(), 6 * expected_epochs);
    let rollup = cluster.rollup(5);
    assert_eq!(
        rollup.get("lost").and_then(son_obs::Json::as_u64),
        Some(0),
        "in-process ingestion cannot lose snapshots"
    );
}

/// What a freshly rebooted daemon's registry reports: counts since its own
/// boot, i.e. the cumulative registry minus the at-restart base.
fn incarnation_registry(cumulative: &Registry, base: &HashMap<String, u64>) -> Registry {
    let mut fresh = Registry::new();
    for (desc, total) in cumulative.counters() {
        let key = desc.key();
        let since_boot = total.saturating_sub(base.get(&key).copied().unwrap_or(0));
        let id = fresh.counter(key, &[]);
        fresh.add(id, since_boot);
    }
    fresh
}

/// The satellite regression: in the sim a crashed process keeps its state,
/// but a real `son-node` restart loses the registry with the process — the
/// restarted incarnation re-counts from zero while the collector-side view
/// of it persists. Emulate exactly that across a [`Campaign::process_flaps`]
/// reboot loop and require the producer to re-baseline (`delta == total`,
/// `restarts` bumped) rather than wrap the unsigned subtraction into a
/// delta astronomically larger than the total it was derived from.
#[test]
fn process_flap_restarts_rebaseline_deltas_instead_of_wrapping() {
    let start = SimTime::from_secs(2);
    let cycles = 3usize;
    let down = SimDuration::from_millis(400);
    let up = SimDuration::from_millis(600);

    let mut fleet = build_fleet();
    let victim = fleet.overlay.daemon(NodeId(1));
    let mut campaign = Campaign::new("telemetry_flaps", 0xF1);
    campaign.process_flaps(&[victim], start, cycles, down, up);
    fleet.campaign(&campaign);

    let restart_times: Vec<SimTime> = (0..cycles)
        .map(|k| start + (down + up) * (k as u64) + down)
        .collect();

    let mut producer = SnapshotProducer::new(1);
    let mut base: HashMap<String, u64> = HashMap::new();
    let mut reboots_seen = 0usize;
    let mut snaps = Vec::new();
    fleet.run_with_cadence(
        RUN_FOR,
        SimDuration::from_nanos(EPOCH_NS),
        |sim, _overlay, at, _wall| {
            let node = sim.proc_ref::<OverlayNode>(victim).expect("victim daemon");
            let reboots_by_now = restart_times.iter().filter(|&&t| t <= at).count();
            if reboots_by_now > reboots_seen {
                // A restart happened since the last epoch: the next
                // incarnation's counters start over from (about) here.
                reboots_seen = reboots_by_now;
                base = node
                    .obs()
                    .registry()
                    .counters()
                    .map(|(d, v)| (d.key(), v))
                    .collect();
            }
            let incarnation = incarnation_registry(node.obs().registry(), &base);
            snaps.push(producer.produce(at.as_nanos(), 0, &incarnation, &node.telemetry_health()));
        },
    );

    assert_eq!(reboots_seen, cycles, "the flap schedule must have run out");
    assert_eq!(snaps.len() as u64, RUN_FOR.as_nanos() / EPOCH_NS);
    for snap in &snaps {
        for c in &snap.counters {
            assert!(
                c.delta <= c.total,
                "seq {} counter {:?}: delta {} exceeds total {} — the \
                 baseline subtraction wrapped instead of re-baselining",
                snap.seq,
                c.key,
                c.delta,
                c.total
            );
        }
    }
    let last = snaps.last().expect("at least one snapshot");
    assert_eq!(
        last.restarts, cycles as u64,
        "every reboot's counter plunge must be reported as a restart"
    );

    // The aggregator view of the reboot-looping node stays clean: one node,
    // strictly monotone seq, nothing lost or duplicated.
    let mut cluster = ClusterState::new();
    for snap in snaps {
        cluster.ingest(snap);
    }
    assert_eq!(cluster.node_count(), 1);
    let rollup = cluster.rollup(5);
    let get = |k: &str| rollup.get(k).and_then(son_obs::Json::as_u64);
    assert_eq!(get("lost"), Some(0));
    assert_eq!(get("dup"), Some(0));
    assert_eq!(get("restarts"), Some(cycles as u64));
}
