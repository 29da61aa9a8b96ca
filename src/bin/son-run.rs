//! `son-run` — drive an overlay scenario from the command line.
//!
//! ```text
//! son-run [--topology=chain|continental|global] [--nodes=N] [--hop-ms=F]
//!         [--service=best_effort|reliable|realtime|it_priority|it_reliable|fec]
//!         [--routing=link_state|disjoint2|disjoint3|dissemination|flooding]
//!         [--loss=F] [--burst-ms=F] [--count=N] [--size=N] [--interval-ms=F]
//!         [--deadline-ms=F] [--seed=N] [--duration-s=N]
//! ```
//!
//! Builds the deployment, runs one unicast flow corner to corner, and prints
//! a delivery report. Everything is deterministic in `--seed`.

use std::process::ExitCode;

use son_netsim::loss::LossConfig;
use son_netsim::scenario::DEFAULT_CONVERGENCE;
use son_netsim::time::{SimDuration, SimTime};
use son_overlay::builder::{chain_topology, continental_overlay, global_overlay, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::service::FecParams;
use son_overlay::{Fleet, FlowSpec, LinkService, RealtimeParams, RoutingService, SourceRoute};
use son_topo::NodeId;

#[derive(Debug)]
struct Args {
    topology: String,
    nodes: usize,
    hop_ms: f64,
    service: String,
    routing: String,
    loss: f64,
    burst_ms: f64,
    count: u64,
    size: usize,
    interval_ms: f64,
    deadline_ms: f64,
    seed: u64,
    duration_s: u64,
    inspect: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            topology: "chain".into(),
            nodes: 6,
            hop_ms: 10.0,
            service: "reliable".into(),
            routing: "link_state".into(),
            loss: 0.01,
            burst_ms: 0.0,
            count: 2000,
            size: 1000,
            interval_ms: 10.0,
            deadline_ms: 0.0,
            seed: 42,
            duration_s: 60,
            inspect: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    for raw in std::env::args().skip(1) {
        if raw == "--help" || raw == "-h" {
            return Err(String::new());
        }
        if raw == "--inspect" {
            args.inspect = true;
            continue;
        }
        let Some(rest) = raw.strip_prefix("--") else {
            return Err(format!("unexpected argument {raw}"));
        };
        let Some((key, value)) = rest.split_once('=') else {
            return Err(format!("expected --key=value, got {raw}"));
        };
        let bad = |e: &dyn std::fmt::Display| format!("invalid {key}: {e}");
        match key {
            "topology" => args.topology = value.into(),
            "nodes" => args.nodes = value.parse().map_err(|e| bad(&e))?,
            "hop-ms" => args.hop_ms = value.parse().map_err(|e| bad(&e))?,
            "service" => args.service = value.into(),
            "routing" => args.routing = value.into(),
            "loss" => args.loss = value.parse().map_err(|e| bad(&e))?,
            "burst-ms" => args.burst_ms = value.parse().map_err(|e| bad(&e))?,
            "count" => args.count = value.parse().map_err(|e| bad(&e))?,
            "size" => args.size = value.parse().map_err(|e| bad(&e))?,
            "interval-ms" => args.interval_ms = value.parse().map_err(|e| bad(&e))?,
            "deadline-ms" => args.deadline_ms = value.parse().map_err(|e| bad(&e))?,
            "seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "duration-s" => args.duration_s = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown option --{other}")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "son-run: run one overlay flow and print a delivery report

options (all --key=value):
  --topology     chain | continental | global       [chain]
  --nodes        chain length                       [6]
  --hop-ms       chain hop latency                  [10]
  --service      best_effort | reliable | realtime | it_priority |
                 it_reliable | fec                  [reliable]
  --routing      link_state | disjoint2 | disjoint3 | dissemination |
                 flooding                           [link_state]
  --loss         per-link loss rate                 [0.01]
  --burst-ms     burst length (0 = independent)     [0]
  --count        packets to send                    [2000]
  --size         payload bytes                      [1000]
  --interval-ms  packet interval                    [10]
  --deadline-ms  one-way deadline (0 = none)        [0]
  --seed         master seed                        [42]
  --duration-s   virtual horizon                    [60]
  --inspect      print per-daemon status reports after the run"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            usage();
            return if e.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    // Topology.
    let (topo, from, to, label) = match args.topology.as_str() {
        "chain" => {
            let n = args.nodes.max(2);
            (
                chain_topology(n, args.hop_ms),
                NodeId(0),
                NodeId(n - 1),
                format!("chain of {n}"),
            )
        }
        "continental" => {
            let sc = son_netsim::scenario::continental_us(DEFAULT_CONVERGENCE);
            let (t, _) = continental_overlay(&sc);
            (
                t,
                NodeId(0),
                NodeId(11),
                "continental US (NYC -> LA)".into(),
            )
        }
        "global" => {
            let sc = son_netsim::scenario::global_20(DEFAULT_CONVERGENCE);
            let (t, _) = global_overlay(&sc);
            (
                t,
                NodeId(0),
                NodeId(15),
                "global 20-city (NYC -> SYD)".into(),
            )
        }
        other => {
            eprintln!("error: unknown topology {other}");
            return ExitCode::FAILURE;
        }
    };

    // Services.
    let deadline = (args.deadline_ms > 0.0).then(|| SimDuration::from_millis_f64(args.deadline_ms));
    let link = match args.service.as_str() {
        "best_effort" => LinkService::BestEffort,
        "reliable" => LinkService::Reliable,
        "realtime" => LinkService::Realtime(RealtimeParams::live_tv()),
        "it_priority" => LinkService::ItPriority,
        "it_reliable" => LinkService::ItReliable,
        "fec" => LinkService::Fec(FecParams::strong()),
        other => {
            eprintln!("error: unknown service {other}");
            return ExitCode::FAILURE;
        }
    };
    let routing = match args.routing.as_str() {
        "link_state" => RoutingService::LinkState,
        "disjoint2" => RoutingService::SourceBased(SourceRoute::DisjointPaths(2)),
        "disjoint3" => RoutingService::SourceBased(SourceRoute::DisjointPaths(3)),
        "dissemination" => RoutingService::SourceBased(SourceRoute::DisseminationGraph),
        "flooding" => RoutingService::SourceBased(SourceRoute::ConstrainedFlooding),
        other => {
            eprintln!("error: unknown routing {other}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = FlowSpec::best_effort()
        .with_link(link)
        .with_routing(routing)
        .with_ordered(!matches!(link, LinkService::BestEffort));
    if let Some(d) = deadline {
        spec = spec.with_deadline(d);
    }

    // Loss.
    let loss = if args.loss <= 0.0 {
        LossConfig::Perfect
    } else if args.burst_ms > 0.0 {
        let burst = SimDuration::from_millis_f64(args.burst_ms);
        let good = burst * ((1.0 - args.loss) / args.loss);
        LossConfig::bursts(good, burst)
    } else {
        LossConfig::Bernoulli { p: args.loss }
    };

    // Build and run.
    let mut fleet = Fleet::new(
        args.seed,
        None,
        OverlayBuilder::new(topo).default_loss(loss),
    );
    let workload = Workload::Cbr {
        size: args.size,
        interval: SimDuration::from_millis_f64(args.interval_ms),
        count: args.count,
        start: SimTime::from_millis(500),
    };
    fleet.flow(from, to, spec, workload);
    fleet.run(SimTime::from_secs(args.duration_s));

    // Report.
    let sent = fleet.sent(0);
    let recv = fleet.recv(0);
    let mut lat = recv.latency_ms();
    println!(
        "deployment : {label}, service={} routing={}",
        args.service, args.routing
    );
    println!("loss model : {:?}", args.loss);
    println!("sent       : {sent}");
    println!(
        "delivered  : {} ({:.2}%)",
        recv.received,
        100.0 * recv.received as f64 / sent.max(1) as f64
    );
    println!("app dups   : {}", recv.app_duplicates);
    if recv.received > 0 {
        println!(
            "latency ms : p50 {:.2} | p99 {:.2} | max {:.2}",
            lat.quantile(0.5).unwrap(),
            lat.quantile(0.99).unwrap(),
            lat.max().unwrap()
        );
        if let Some(d) = deadline {
            println!(
                "within {}ms : {:.2}%",
                d.as_millis_f64(),
                100.0
                    * lat.fraction_within(d.as_millis_f64()).unwrap_or(0.0)
                    * recv.received as f64
                    / sent.max(1) as f64
            );
        }
    }
    let wire = fleet.wire_stats(link);
    if wire.sent > 0 {
        println!(
            "wire       : {} tx + {} recovery ({:.3}x overhead)",
            wire.sent,
            wire.retransmitted,
            wire.overhead_ratio()
        );
    }
    println!("events     : {}", fleet.sim.events_processed());
    if args.inspect {
        println!("\n--- daemon status ---");
        for node in fleet.nodes() {
            print!("{}", node.status_report());
        }
    }
    ExitCode::SUCCESS
}
