//! The overlay daemon binary.
//!
//! ```text
//! son-node --scenario FILE --node N --epoch UNIX_NS --base-port PORT \
//!          [--host 127.0.0.1] [--out FILE] [--telemetry ADDR] [--seed-peer N]
//! ```
//!
//! One process is one overlay node of the scenario: it binds UDP port
//! `base-port + N`, expects peer `i` at `host:base-port + i`, waits for the
//! shared `--epoch` instant (so every daemon of a cluster starts on the
//! same clock), runs the scenario to its horizon, and writes a JSONL result
//! file: one `kind:"udp-node"` summary row, then this daemon's trace rows
//! (with `wall_ns`, so `son-trace` exports from different processes merge).
//!
//! With `--telemetry ADDR`, the daemon additionally sends one
//! [`son_obs::TelemetrySnapshot`] every telemetry epoch to the collector at
//! `ADDR` (normally a `son-top` listener) over a separate best-effort UDP
//! socket: one datagram holding the snapshot's `kind:"telemetry"` JSONL
//! row, the same row the simulator writes — seq-numbered, so the collector
//! sees loss instead of guessing.
//!
//! With `--seed-peer N`, the daemon joins the already-running cluster
//! through topology neighbor `N` instead of cold-starting as a founding
//! member: it sends a Join on the seed link and originates its own LSA
//! only once the JoinAck admits it (requires `"membership": true` in the
//! scenario).
//!
//! The cluster harness around this binary is `son-exp udp_parity` in
//! `son-bench`, which runs the same scenario file through the simulator and
//! compares outcomes.

use std::io::Write as _;
use std::net::{IpAddr, SocketAddr};
use std::process::ExitCode;

use son_node::{unix_now_ns, NodeRuntime, Scenario, UdpTransport};
use son_topo::NodeId;

const USAGE: &str = "usage: son-node --scenario FILE --node N --epoch UNIX_NS --base-port PORT [--host IP] [--out FILE] [--telemetry ADDR] [--seed-peer N]";

struct Args {
    scenario: String,
    node: usize,
    epoch_ns: u64,
    base_port: u16,
    host: IpAddr,
    out: Option<String>,
    telemetry: Option<String>,
    seed_peer: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut scenario = None;
    let mut node = None;
    let mut epoch_ns = None;
    let mut base_port = None;
    let mut host: IpAddr = IpAddr::from([127, 0, 0, 1]);
    let mut out = None;
    let mut telemetry = None;
    let mut seed_peer = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--scenario" => scenario = Some(value("--scenario")?),
            "--node" => {
                node = Some(
                    value("--node")?
                        .parse::<usize>()
                        .map_err(|e| format!("--node: {e}"))?,
                );
            }
            "--epoch" => {
                epoch_ns = Some(
                    value("--epoch")?
                        .parse::<u64>()
                        .map_err(|e| format!("--epoch: {e}"))?,
                );
            }
            "--base-port" => {
                base_port = Some(
                    value("--base-port")?
                        .parse::<u16>()
                        .map_err(|e| format!("--base-port: {e}"))?,
                );
            }
            "--host" => {
                host = value("--host")?
                    .parse::<IpAddr>()
                    .map_err(|e| format!("--host: {e}"))?;
            }
            "--out" => out = Some(value("--out")?),
            "--telemetry" => telemetry = Some(value("--telemetry")?),
            "--seed-peer" => {
                seed_peer = Some(
                    value("--seed-peer")?
                        .parse::<usize>()
                        .map_err(|e| format!("--seed-peer: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        scenario: scenario.ok_or_else(|| format!("--scenario is required\n{USAGE}"))?,
        node: node.ok_or_else(|| format!("--node is required\n{USAGE}"))?,
        epoch_ns: epoch_ns.ok_or_else(|| format!("--epoch is required\n{USAGE}"))?,
        base_port: base_port.ok_or_else(|| format!("--base-port is required\n{USAGE}"))?,
        host,
        out,
        telemetry,
        seed_peer,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.scenario)
        .map_err(|e| format!("read {}: {e}", args.scenario))?;
    let scenario = Scenario::parse(&text)?;
    if args.node >= scenario.nodes {
        return Err(format!(
            "--node {} out of range for a {}-node scenario",
            args.node, scenario.nodes
        ));
    }

    // Peer i listens on base_port + i; only topology neighbors are ever
    // addressed, but publishing the full book is harmless and simple.
    let peers: Vec<Option<SocketAddr>> = (0..scenario.nodes)
        .map(|i| {
            (i != args.node)
                .then(|| SocketAddr::new(args.host, args.base_port + u16::try_from(i).unwrap_or(0)))
        })
        .collect();
    let local = SocketAddr::new(
        args.host,
        args.base_port + u16::try_from(args.node).unwrap_or(0),
    );
    let transport = UdpTransport::bind(local, peers).map_err(|e| format!("bind {local}: {e}"))?;

    if args.epoch_ns <= unix_now_ns() {
        eprintln!("son-node: warning: epoch is in the past; starting immediately");
    }
    let mut runtime = NodeRuntime::new(scenario, NodeId(args.node), transport, args.epoch_ns);
    if let Some(peer) = args.seed_peer {
        runtime.join_via(NodeId(peer))?;
    }
    if let Some(collector) = &args.telemetry {
        runtime
            .enable_telemetry(collector)
            .map_err(|e| format!("telemetry {collector}: {e}"))?;
    }
    runtime.run().map_err(|e| format!("transport: {e}"))?;

    let report = runtime.report();
    if let Some(path) = &args.out {
        let mut lines = report.to_json();
        for row in runtime
            .trace_rows()
            .iter()
            .chain(runtime.watch_rows().iter())
        {
            lines.push('\n');
            lines.push_str(&row.to_json());
        }
        lines.push('\n');
        let mut f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        f.write_all(lines.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", report.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("son-node: {e}");
            ExitCode::FAILURE
        }
    }
}
