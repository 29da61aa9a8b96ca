//! E9 — §V-C: compound flows with in-overlay transcoding and failover.
//!
//! A stadium feed crosses the overlay to an anycast-selected transcoding
//! facility, is transformed (downscaled, with processing latency), and the
//! rendition is multicast onward to CDN ingest points. Mid-run the active
//! facility fails; the overlay's shared group state re-resolves the anycast
//! to the surviving facility and the compound flow continues.

use son_apps::transcode::{TranscoderConfig, TranscoderProcess, OUTPUT_GROUP, TRANSCODE_GROUP};
use son_apps::video::VideoProfile;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::ClientFlow;
use son_overlay::fleet::{Fleet, RX_PORT, TX_PORT};
use son_overlay::{Destination, FlowSpec};
use son_topo::NodeId;

use super::Opts;
use crate::{f, row, table_header};

const STADIUM: NodeId = NodeId(4); // MIA: the live event
const FACILITY_A: NodeId = NodeId(3); // ATL cloud region (nearest)
const FACILITY_B: NodeId = NodeId(5); // CHI cloud region (backup)
const CDNS: [NodeId; 3] = [NodeId(0), NodeId(9), NodeId(11)]; // NYC, SEA, LA

fn run_case(fail_primary: bool) -> (u64, u64, u64, Vec<u64>, f64, f64) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let mut fleet = Fleet::new(91, None, OverlayBuilder::new(topo));

    let overlay = &fleet.overlay;
    let mk = |node: NodeId, fail_at: Option<SimTime>| TranscoderConfig {
        daemon: overlay.daemon(node),
        port: 150,
        input_group: TRANSCODE_GROUP,
        output_group: OUTPUT_GROUP,
        scale: 0.25,
        processing: SimDuration::from_millis(30),
        output_spec: FlowSpec::reliable(),
        fail_at,
    };
    let fac_a = fleet.sim.add_process(TranscoderProcess::new(mk(
        FACILITY_A,
        fail_primary.then(|| SimTime::from_secs(10)),
    )));
    let fac_b = fleet
        .sim
        .add_process(TranscoderProcess::new(mk(FACILITY_B, None)));

    let cdns: Vec<_> = CDNS
        .iter()
        .map(|&n| fleet.client(n, RX_PORT, vec![OUTPUT_GROUP], vec![]))
        .collect();

    let profile = VideoProfile::broadcast_sd();
    let feed = ClientFlow::new(
        Destination::Anycast(TRANSCODE_GROUP),
        FlowSpec::reliable(),
        profile.workload(SimTime::from_secs(1), SimDuration::from_secs(20)),
    );
    let tx = fleet.client(STADIUM, TX_PORT, vec![], vec![feed]);
    fleet.run(SimTime::from_secs(30));

    let sent = fleet.client_ref(tx).sent(1);
    let a = fleet.sim.proc_ref::<TranscoderProcess>(fac_a).unwrap();
    let b = fleet.sim.proc_ref::<TranscoderProcess>(fac_b).unwrap();
    let stage1_latency = a
        .input_latency_ms
        .mean()
        .or(b.input_latency_ms.mean())
        .unwrap_or(f64::NAN);
    let per_cdn: Vec<u64> = cdns
        .iter()
        .map(|&c| fleet.client_ref(c).recv.values().map(|r| r.received).sum())
        .collect();
    // Failover gap: longest delivery gap at the first CDN after the failure.
    let logs = fleet.client_ref(cdns[0]).recv.values();
    let gap = logs
        .filter_map(|r| r.longest_gap(SimTime::from_secs(10)))
        .max();
    let gap = gap.map_or(0.0, SimDuration::as_millis_f64);
    (sent, a.processed, b.processed, per_cdn, stage1_latency, gap)
}

pub fn run(_: &Opts) {
    table_header(&[
        ("scenario", 18),
        ("sent", 6),
        ("facility A", 10),
        ("facility B", 10),
        ("min CDN recv", 12),
        ("stage1 ms", 9),
        ("failover gap", 12),
    ]);
    for fail in [false, true] {
        let (sent, a, b, per_cdn, stage1, gap) = run_case(fail);
        row(&[
            (
                if fail {
                    "A fails at t=10s"
                } else {
                    "no failure"
                }
                .to_string(),
                18,
            ),
            (sent.to_string(), 6),
            (a.to_string(), 10),
            (b.to_string(), 10),
            (per_cdn.iter().min().unwrap().to_string(), 12),
            (f(stage1, 1), 9),
            (if fail { f(gap, 0) + "ms" } else { "-".into() }, 12),
        ]);
    }

    println!();
    println!("Shape check (paper): the compound flow's guarantees hold through the");
    println!("transformation (every CDN receives the rendition); when the facility");
    println!("fails, anycast re-resolution moves the flow to the backup facility at");
    println!("sub-second scale and the stream continues (only in-flight packets to");
    println!("the dead facility are lost).");
}
