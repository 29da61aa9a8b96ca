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
//!   --telemetry` daemons send their snapshot rows to, one
//!   `kind:"telemetry"` JSONL row per datagram, and refreshes a terminal
//!   view every `--interval` (default 1000 ms). `--record FILE`
//!   additionally appends every datagram accepted as a snapshot, verbatim,
//!   one per line — the recording replays to the identical roll-up.
//! - **Replay**: positional JSONL files (sim-leg `*.telemetry.jsonl` or a
//!   live recording) are ingested in order and rendered once.
//!
//! `--json` prints the machine roll-up instead of the console view.
//! `--gate delivery>=0.95,stale<=2` evaluates SLO clauses against the
//! final roll-up and exits non-zero on breach, so scripts and CI can use
//! `son-top --json --gate ... --once` as a cluster health check. `--for MS`
//! bounds a live session (it implies an exit even without `--once`).

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use son_bench::{ClusterState, Collector, Gate};
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
        cluster.ingest_file(Path::new(path))?;
    }
    Ok(cluster)
}

fn live(args: &Args) -> Result<ClusterState, String> {
    let addr = args.listen.as_deref().expect("live mode has --listen");
    let mut collector = Collector::bind(addr, args.record.as_deref().map(Path::new))?;
    let interval = Duration::from_millis(args.interval_ms);
    let end = args
        .for_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut next_render = Instant::now() + interval;
    loop {
        let until = end.map_or(next_render, |end| end.min(next_render));
        collector
            .receive_until(until)
            .map_err(|e| format!("recv: {e}"))?;
        if end.is_some_and(|end| Instant::now() >= end) {
            return Ok(collector.cluster);
        }
        if Instant::now() >= next_render {
            if args.once && args.for_ms.is_none() {
                return Ok(collector.cluster);
            }
            emit(&collector.cluster, args, true);
            next_render += interval;
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
