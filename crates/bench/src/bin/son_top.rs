//! `son-top` — the live cluster console and SLO gate.
//!
//! ```text
//! son-top [--listen ADDR | FILE...] [--json] [--once] [--gate SPEC]
//!         [--interval MS] [--for MS] [--record FILE] [--top N]
//! ```
//!
//! Two input modes, one aggregator:
//!
//! - **Live**: `--listen ADDR` binds the collector UDP socket `son-node
//!   --telemetry` daemons stream binary snapshots to, and refreshes a
//!   terminal view every `--interval` (default 1000 ms). `--record FILE`
//!   additionally appends every received snapshot as a `kind:"telemetry"`
//!   JSONL row — the recording replays to the identical roll-up.
//! - **Replay**: positional JSONL files (sim-leg `*.telemetry.jsonl` or a
//!   live recording) are ingested in order and rendered once.
//!
//! `--json` prints the machine roll-up instead of the console view.
//! `--gate delivery>=0.95,stale<=2` evaluates SLO clauses against the
//! final roll-up and exits non-zero on breach, so scripts and CI can use
//! `son-top --json --gate ... --once` as a cluster health check. `--for MS`
//! bounds a live session (it implies an exit even without `--once`).

use std::io::Read as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use son_bench::{ClusterState, Gate};
use son_obs::snapshot::TelemetrySnapshot;
use son_obs::Json;

const USAGE: &str = "usage: son-top [--listen ADDR | FILE...] [--json] [--once] [--gate SPEC] [--interval MS] [--for MS] [--record FILE] [--top N]";

struct Args {
    listen: Option<String>,
    files: Vec<String>,
    json: bool,
    once: bool,
    gate: Option<Gate>,
    interval_ms: u64,
    for_ms: Option<u64>,
    record: Option<String>,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        files: Vec::new(),
        json: false,
        once: false,
        gate: None,
        interval_ms: 1_000,
        for_ms: None,
        record: None,
        top: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--listen" => args.listen = Some(value("--listen")?),
            "--json" => args.json = true,
            "--once" => args.once = true,
            "--gate" => args.gate = Some(Gate::parse(&value("--gate")?)?),
            "--interval" => {
                args.interval_ms = value("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
            }
            "--for" => {
                args.for_ms = Some(value("--for")?.parse().map_err(|e| format!("--for: {e}"))?);
            }
            "--record" => args.record = Some(value("--record")?),
            "--top" => args.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown argument {other:?}\n{USAGE}"));
            }
            file => args.files.push(file.to_owned()),
        }
    }
    if args.listen.is_none() && args.files.is_empty() {
        return Err(format!("need --listen ADDR or telemetry files\n{USAGE}"));
    }
    if args.listen.is_some() && !args.files.is_empty() {
        return Err(format!("--listen and replay files are exclusive\n{USAGE}"));
    }
    Ok(args)
}

/// The human console view: cluster roll-up headline plus a per-node table.
fn render(cluster: &ClusterState, top: usize) -> String {
    use std::fmt::Write as _;
    let r = cluster.rollup(top);
    let g = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
    let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "son-top | {} nodes ({} members, {} departed) | {} snapshots ({} lost, {} dup) \
         | stale {} | restarts {}",
        g("nodes"),
        g("members"),
        g("departed"),
        g("snapshots"),
        g("lost"),
        g("dup"),
        g("stale"),
        g("restarts"),
    );
    let _ = writeln!(
        out,
        "delivery {:.4} ({}/{}) | drops {} | reroutes {} ({:.2}/s) | p50 {:.2}ms p99 {:.2}ms",
        f("delivery"),
        g("delivered"),
        g("sent"),
        g("drops_total"),
        g("reroutes"),
        f("reroutes_per_s"),
        f("p50_latency_ms"),
        f("p99_latency_ms"),
    );
    let _ = writeln!(
        out,
        "links: {} suspended, {} probing | queue {} | {} flows | footprint {} KiB",
        g("suspended_links"),
        g("probing_links"),
        g("queue_depth"),
        g("flows"),
        g("footprint_bytes") / 1024,
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>6} {:>5} {:>5} {:>8} {:>7} {:>6} {:>9}",
        "node", "seq", "lost", "dup", "rst", "queue", "links", "flows", "uptime_s"
    );
    for (&id, ns) in cluster.nodes() {
        let down = ns
            .latest
            .health
            .links
            .iter()
            .filter(|l| l.suspended)
            .count();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>6} {:>5} {:>5} {:>8} {:>3}/{:<3} {:>6} {:>9.1}",
            id,
            ns.latest.seq,
            ns.lost,
            ns.dup,
            ns.latest.restarts,
            ns.latest.health.queue_depth,
            ns.latest.health.links.len() - down,
            ns.latest.health.links.len(),
            ns.latest.health.flows,
            ns.latest.uptime_ns as f64 / 1e9,
        );
    }
    for key in ["hot_links", "hot_flows"] {
        if let Some(items) = r.get(key).and_then(Json::as_arr) {
            if !items.is_empty() {
                let _ = writeln!(out, "{key}:");
                for item in items {
                    let _ = writeln!(out, "  {}", item.to_json());
                }
            }
        }
    }
    out
}

fn emit(cluster: &ClusterState, args: &Args, live: bool) {
    if args.json {
        println!("{}", cluster.rollup(args.top).to_json());
    } else {
        if live {
            // ANSI clear + home: refresh in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render(cluster, args.top));
    }
}

fn replay(args: &Args) -> Result<ClusterState, String> {
    let mut cluster = ClusterState::new();
    for path in &args.files {
        let mut text = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("read {path}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            cluster.ingest_line(line);
        }
    }
    Ok(cluster)
}

fn live(args: &Args) -> Result<ClusterState, String> {
    let addr = args.listen.as_deref().expect("live mode has --listen");
    let socket = std::net::UdpSocket::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    socket
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let mut record = match &args.record {
        Some(path) => Some(std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?),
        None => None,
    };
    let mut cluster = ClusterState::new();
    let started = Instant::now();
    let mut next_render = Instant::now() + Duration::from_millis(args.interval_ms);
    let mut buf = vec![0u8; 65_536];
    loop {
        let mut idle = true;
        for _ in 0..256 {
            match socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    idle = false;
                    let frame = &buf[..n];
                    if let Some(rec) = record.as_mut() {
                        if let Ok(snap) = TelemetrySnapshot::decode(frame) {
                            use std::io::Write as _;
                            let _ = writeln!(rec, "{}", snap.row_json());
                        }
                    }
                    cluster.ingest_bytes(frame);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        let done = args
            .for_ms
            .is_some_and(|ms| started.elapsed() >= Duration::from_millis(ms));
        if done {
            return Ok(cluster);
        }
        if Instant::now() >= next_render {
            if args.once && args.for_ms.is_none() {
                return Ok(cluster);
            }
            emit(&cluster, args, true);
            next_render += Duration::from_millis(args.interval_ms);
        }
        if idle {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cluster = if args.listen.is_some() {
        live(&args)?
    } else {
        replay(&args)?
    };
    emit(&cluster, &args, false);
    if let Some(gate) = &args.gate {
        let breaches = gate.breaches(&cluster.rollup(args.top));
        if !breaches.is_empty() {
            for b in &breaches {
                eprintln!("son-top: SLO breach: {b}");
            }
            return Ok(false);
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("son-top: {e}");
            ExitCode::FAILURE
        }
    }
}
