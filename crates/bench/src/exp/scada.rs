//! E12 — §V-B: intrusion-tolerant agreement within the SCADA deadline.
//!
//! "Certain critical infrastructure control systems, such as SCADA for the
//! power grid, require strict timeliness, on the order of 100-200ms for a
//! control command to be delivered and executed in response to received
//! monitoring data. For the control system to withstand compromises, this
//! 100-200ms can include the time to execute an intrusion-tolerant
//! agreement protocol... the cryptography required to support intrusion
//! tolerance today becomes a barrier to timely message delivery as the size
//! of the system grows."
//!
//! Replicas are spread across continental-US cities; a field unit in Miami
//! reports events and a substation in LA actuates the agreed commands. We
//! sweep the replica count (n = 3f+1) and the number of compromised
//! replicas, and report the end-to-end event→actuation latency against the
//! 100–200 ms budget.

use son_apps::scada::{agreement_spec, Device, FieldUnit, Replica, ReplicaConfig, ReplicaFault};
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::sim::Simulation;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::{NodeConfig, Wire};
use son_topo::NodeId;

use super::Opts;
use crate::{f, row, table_header};

const FIELD: usize = 4; // MIA
const SUBSTATION: usize = 11; // LA
/// Cities hosting control-center replicas, in placement order.
const REPLICA_SITES: [usize; 10] = [0, 5, 3, 8, 2, 6, 7, 10, 1, 9];
const EVENTS: u64 = 50;

fn run_case(n: u16, silent: u16, equivocating: u16) -> (usize, f64, f64, f64) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let config = NodeConfig {
        auth_enabled: true,
        ..Default::default()
    };
    let mut sim: Simulation<Wire> = Simulation::new(1200 + u64::from(n));
    let overlay = OverlayBuilder::new(topo)
        .node_config(config)
        .build(&mut sim);

    for i in 0..n {
        // Faulty replicas are the highest-indexed ones (never the leader;
        // leader fail-over is view-change territory, out of scope).
        let fault = if i >= n - silent {
            ReplicaFault::Silent
        } else if i >= n - silent - equivocating {
            ReplicaFault::Equivocate
        } else {
            ReplicaFault::None
        };
        sim.add_process(Replica::new(ReplicaConfig {
            daemon: overlay.daemon(NodeId(REPLICA_SITES[usize::from(i) % REPLICA_SITES.len()])),
            port: 300 + i,
            index: i,
            n,
            fault,
            spec: agreement_spec(),
        }));
    }
    let device = sim.add_process(Device::new(overlay.daemon(NodeId(SUBSTATION)), 400));
    let _unit = sim.add_process(FieldUnit::new(
        overlay.daemon(NodeId(FIELD)),
        401,
        SimDuration::from_millis(100),
        EVENTS,
        agreement_spec(),
    ));
    sim.run_until(SimTime::from_secs(12));
    let dev = sim.proc_ref::<Device>(device).unwrap();
    let mut lat = dev.latency_ms.clone();
    (
        dev.commands.len(),
        lat.quantile(0.5).unwrap_or(f64::NAN),
        lat.quantile(0.99).unwrap_or(f64::NAN),
        lat.max().unwrap_or(f64::NAN),
    )
}

pub fn run(_: &Opts) {
    table_header(&[
        ("replicas", 8),
        ("faults", 22),
        ("actuated", 8),
        ("p50 ms", 8),
        ("p99 ms", 8),
        ("max ms", 8),
        ("in budget", 9),
    ]);

    let cases: [(u16, u16, u16, &str); 7] = [
        (4, 0, 0, "none"),
        (4, 1, 0, "1 silent"),
        (4, 0, 1, "1 equivocating"),
        (7, 2, 0, "2 silent"),
        (7, 1, 1, "1 silent + 1 equiv"),
        (10, 3, 0, "3 silent"),
        (4, 2, 0, "2 silent (f exceeded)"),
    ];
    for (n, silent, equiv, label) in cases {
        let (actuated, p50, p99, max) = run_case(n, silent, equiv);
        row(&[
            (format!("n={n}"), 8),
            (label.to_string(), 22),
            (format!("{actuated}/{EVENTS}"), 8),
            (f(p50, 1), 8),
            (f(p99, 1), 8),
            (f(max, 1), 8),
            (
                if actuated == EVENTS as usize && max <= 200.0 {
                    "yes"
                } else if actuated == 0 {
                    "no quorum"
                } else {
                    "NO"
                }
                .to_string(),
                9,
            ),
        ]);
    }

    println!();
    println!("Shape check (paper): three authenticated rounds across a continental");
    println!("overlay land inside the 100-200ms SCADA budget for n up to 10 replicas,");
    println!("with up to f compromised replicas masked. Exceeding f halts liveness");
    println!("(no quorum -> no commands) but never actuates a wrong command; latency");
    println!("grows with n through crypto and fan-out, as the paper warns.");
}
