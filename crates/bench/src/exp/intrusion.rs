//! E6 — §IV-B: intrusion-tolerant redundant dissemination.
//!
//! "By using k node-disjoint paths, a source can protect against up to k−1
//! compromised nodes anywhere in the network... Alternatively, a source can
//! use constrained flooding, which... ensures that messages are successfully
//! delivered as long as at least one path of correct nodes exists."
//!
//! On the continental overlay, a flow crosses the country while compromised
//! nodes blackhole transit data (control plane stays correct, so routing
//! does not simply avoid them). We sweep the number of compromised nodes —
//! placed adversarially (on the best path first) and randomly — across the
//! routing schemes, reporting delivery rate and wire cost.

use son_netsim::rng::SimRng;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::{registry_rows, JsonlSink};
use son_overlay::adversary::Behavior;
use son_overlay::builder::{continental_overlay, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::{Fleet, FlowSpec, RoutingService, SourceRoute};
use son_topo::{Graph, NodeId};

use super::Opts;
use crate::{export_rows, f, finish_export, obs_sink, row, table_header};

const COUNT: u64 = 300;

fn schemes() -> Vec<(&'static str, FlowSpec)> {
    let base = FlowSpec::best_effort();
    let via = |route| base.with_routing(RoutingService::SourceBased(route));
    vec![
        ("single path", base),
        ("2 disjoint", via(SourceRoute::DisjointPaths(2))),
        ("3 disjoint", via(SourceRoute::DisjointPaths(3))),
        ("2 overlapping", via(SourceRoute::OverlappingPaths(2))),
        ("dissem. graph", via(SourceRoute::DisseminationGraph)),
        ("flooding", via(SourceRoute::ConstrainedFlooding)),
    ]
}

/// Picks `k` compromised interior nodes: adversarial = along the best path
/// first; random = uniform over interior nodes.
fn pick_compromised(
    topo: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    adversarial: bool,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let interior: Vec<NodeId> = topo.nodes().filter(|&v| v != src && v != dst).collect();
    if adversarial {
        // Interior nodes of the shortest path, then of the second disjoint
        // path, etc.
        let dp = son_topo::k_node_disjoint_paths(topo, src, dst, 4);
        let mut picks = Vec::new();
        for p in &dp.paths {
            for &v in &p.nodes[1..p.nodes.len() - 1] {
                if picks.len() < k && !picks.contains(&v) {
                    picks.push(v);
                }
            }
        }
        // Top up randomly if the paths were short.
        let mut rest = interior;
        rng.shuffle(&mut rest);
        for v in rest {
            if picks.len() >= k {
                break;
            }
            if !picks.contains(&v) {
                picks.push(v);
            }
        }
        picks
    } else {
        let mut rest = interior;
        rng.shuffle(&mut rest);
        rest.truncate(k);
        rest
    }
}

fn run_once(
    topo: &Graph,
    spec: FlowSpec,
    compromised: &[NodeId],
    seed: u64,
    sink: &mut Option<JsonlSink>,
    tag: &str,
) -> (f64, f64) {
    let (src, dst) = (NodeId(0), NodeId(11)); // NYC -> LA
    let mut fleet = Fleet::new(seed, None, OverlayBuilder::new(topo.clone()));
    for &bad in compromised {
        fleet.node_mut(bad).set_behavior(Behavior::Blackhole);
    }
    fleet.flow(
        src,
        dst,
        spec,
        Workload::Cbr {
            size: 500,
            interval: SimDuration::from_millis(20),
            count: COUNT,
            start: SimTime::from_secs(1),
        },
    );
    fleet.run(SimTime::from_secs(12));
    if let Some(sink) = sink {
        let _ = export_rows(sink, tag, registry_rows(&fleet.registry()));
    }
    (
        fleet.recv(0).received as f64 / COUNT as f64,
        fleet.forwarded() as f64 / COUNT as f64,
    )
}

pub fn run(_: &Opts) {
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, _) = continental_overlay(&sc);
    let mut rng = SimRng::seed(0xbad);
    let mut sink = obs_sink("exp_intrusion");

    for adversarial in [true, false] {
        println!(
            "\n-- compromised nodes placed {} --",
            if adversarial {
                "ADVERSARIALLY (best paths first)"
            } else {
                "randomly (5-trial mean)"
            }
        );
        table_header(&[
            ("scheme", 14),
            ("k=0", 8),
            ("k=1", 8),
            ("k=2", 8),
            ("k=3", 8),
            ("tx/pkt", 7),
        ]);
        for (name, spec) in schemes() {
            let mut cells = vec![(name.to_string(), 14)];
            let mut cost = 0.0;
            for k in 0..4usize {
                let trials = if adversarial { 1 } else { 5 };
                let mut total = 0.0;
                for t in 0..trials {
                    let bad =
                        pick_compromised(&topo, NodeId(0), NodeId(11), k, adversarial, &mut rng);
                    let placement = if adversarial { "adversarial" } else { "random" };
                    let tag = format!("{name}/k={k}/{placement}/t={t}");
                    let (frac, tx) = run_once(
                        &topo,
                        spec,
                        &bad,
                        900 + k as u64 * 10 + t as u64,
                        &mut sink,
                        &tag,
                    );
                    total += frac;
                    if k == 0 {
                        // The scheme's intrinsic wire cost, measured with no
                        // attacker interfering with propagation.
                        cost = tx;
                    }
                }
                cells.push((
                    f(total / if adversarial { 1.0 } else { 5.0 } * 100.0, 1) + "%",
                    8,
                ));
            }
            cells.push((f(cost, 1), 7));
            row(&cells);
        }
    }

    if let Some(sink) = sink {
        finish_export(sink);
    }
    println!();
    println!("Shape check (paper): single path dies at the first on-path compromise;");
    println!("k disjoint paths deliver 100% up to k-1 compromises and can fail at k.");
    println!("Dissemination graphs and flooding sit above disjoint paths in both");
    println!("robustness and wire cost; at k=3 the adversarial placement is a vertex");
    println!("cut of this topology (NYC has three neighbors), so NOTHING can deliver —");
    println!("exactly the paper's caveat \"provided that some correct path through the");
    println!("overlay still exists\". De-duplication keeps app duplicates at zero.");
}
