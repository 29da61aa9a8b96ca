//! # son-trace — the distributed-trace analyzer
//!
//! Ingests `*.trace.jsonl` exports (schema in `EXPERIMENTS.md`),
//! reconstructs each sampled packet's end-to-end timeline, and prints the
//! aggregate per-hop latency attribution: queueing at each daemon,
//! propagation-plus-recovery on each link, and gap-to-recovery latencies
//! where a link protocol repaired a loss.
//!
//! ```text
//! son-trace [--self-check] [--watch-audit] [--limit N] FILE...
//! ```
//!
//! `--self-check` verifies every reconstructed timeline's causal
//! consistency (monotone time, contiguous hops, exactly one terminal) and
//! exits non-zero on a violation or an empty export — CI runs this against
//! the smoke experiment. Any `kind:"telemetry"` rows in the inputs are
//! validated too: per-node seq numbers must be monotone in export order
//! with no duplicate `(node, seq)`, and seq gaps (snapshots lost in
//! flight) are counted and reported rather than silently ignored — gaps
//! are legal for a best-effort stream, silence about them is not.
//! `--limit N` caps the example timelines printed (default 3).
//!
//! `--watch-audit` switches to auditing `watch.jsonl` exports instead: it
//! replays each run's watchdog audit stream and verifies that every
//! remediation is explainable by a preceding detection — suspensions by a
//! budget breach or blackhole signature on the same node and link, probes
//! and readmissions by a preceding suspension, damping by the origin's
//! recorded churn, shedding by queue growth. Exits non-zero on any
//! unexplained action (or an empty export).

use std::process::ExitCode;

use son_bench::{banner, f, row, table_header};
use son_obs::trace::{attribute, median_ns, reconstruct, self_check, Terminal, Timeline};
use son_obs::watch::{WatchEvent, WatchKind};
use son_obs::{Json, TraceEvent, TraceStage};

struct Args {
    self_check: bool,
    watch_audit: bool,
    limit: usize,
    files: Vec<String>,
}

const USAGE: &str = "usage: son-trace [--self-check] [--watch-audit] [--limit N] FILE...";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        self_check: false,
        watch_audit: false,
        limit: 3,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--self-check" => args.self_check = true,
            "--watch-audit" => args.watch_audit = true,
            "--limit" => {
                let v = it.next().ok_or("--limit needs a value")?;
                args.limit = v.parse().map_err(|_| format!("bad --limit value {v:?}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg}")),
            _ => args.files.push(arg),
        }
    }
    if args.files.is_empty() {
        return Err(USAGE.to_owned());
    }
    Ok(args)
}

/// Reads one JSONL export, keeping the trace rows (tagged with their run
/// configuration) and ignoring the other kinds (counter / ts rows share
/// experiment files). Trace ids are only unique within one run — sweeps
/// replay the same flow and sequence range per configuration — so every
/// event keeps its `run` tag and analysis groups by (run, trace id).
fn load(path: &str) -> Result<Vec<(String, TraceEvent)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if let Some(ev) = TraceEvent::from_row(&json) {
            let run = json
                .get("run")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            events.push((run, ev));
        }
    }
    Ok(events)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_timeline(tl: &Timeline) {
    let path: Vec<String> = tl.path().iter().map(|n| format!("n{n}")).collect();
    println!(
        "  trace {:#018x}  flow {} seq {}  path {}  {}{}",
        tl.trace_id,
        tl.packet.flow,
        tl.packet.seq,
        path.join(" -> "),
        match tl.terminal() {
            Terminal::Delivered => "delivered".to_owned(),
            Terminal::Dropped(c) => format!("dropped ({})", c.label()),
            Terminal::LostInFlight => "lost in flight".to_owned(),
        },
        if tl.source_routed() {
            "  [source-routed]"
        } else {
            ""
        },
    );
    let start = tl.events.first().map_or(0, |e| e.at_ns);
    for e in &tl.events {
        let detail = match e.stage {
            TraceStage::Recovered { after_ns } => format!("  after {:.2} ms", ms(after_ns)),
            TraceStage::Drop(c) => format!("  {}", c.label()),
            _ => String::new(),
        };
        println!(
            "    +{:>9.3} ms  hop {}  n{:<4} {}{}",
            ms(e.at_ns - start),
            e.hop,
            e.node,
            e.stage.label(),
            detail
        );
    }
}

/// Seq accounting over the telemetry rows of one export set.
#[derive(Debug, Default)]
struct TelemetryCheck {
    rows: u64,
    nodes: std::collections::BTreeSet<u32>,
    gaps: u64,
    violations: Vec<String>,
}

/// Validates every `kind:"telemetry"` row in the given files: monotone seq
/// per node incarnation in export order, no duplicate `(node, restarts,
/// seq)`, gaps counted. Membership churn is a normal condition, not a
/// violation: a node's first sighting charges no gap (it may have joined
/// mid-run), and a seq reset accompanied by a higher `restarts` is a
/// rejoin, not a monotonicity breach.
fn check_telemetry(files: &[String]) -> Result<TelemetryCheck, String> {
    use son_obs::snapshot::TelemetrySnapshot;
    let mut check = TelemetryCheck::default();
    // Per node: (incarnation, highest seq in that incarnation).
    let mut last_seq: std::collections::BTreeMap<u32, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut seen: std::collections::HashSet<(u32, u64, u64)> = std::collections::HashSet::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let json = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let snap = match TelemetrySnapshot::from_row(&json) {
                Ok(Some(snap)) => snap,
                Ok(None) => continue,
                Err(e) => {
                    check
                        .violations
                        .push(format!("{path}:{}: broken telemetry row: {e}", i + 1));
                    continue;
                }
            };
            check.rows += 1;
            check.nodes.insert(snap.node);
            if !seen.insert((snap.node, snap.restarts, snap.seq)) {
                check.violations.push(format!(
                    "{path}:{}: duplicate (node {}, incarnation {}, seq {})",
                    i + 1,
                    snap.node,
                    snap.restarts,
                    snap.seq
                ));
                continue;
            }
            match last_seq.get(&snap.node) {
                Some(&(inc, _)) if snap.restarts > inc => {
                    // Rejoin: a new incarnation restarts the numbering.
                    last_seq.insert(snap.node, (snap.restarts, snap.seq));
                }
                Some(&(inc, _)) if snap.restarts < inc => check.violations.push(format!(
                    "{path}:{}: node {} incarnation {} after incarnation {} (not monotone)",
                    i + 1,
                    snap.node,
                    snap.restarts,
                    inc
                )),
                Some(&(inc, prev)) if snap.seq < prev => check.violations.push(format!(
                    "{path}:{}: node {} seq {} after seq {} (incarnation {}, not monotone)",
                    i + 1,
                    snap.node,
                    snap.seq,
                    prev,
                    inc
                )),
                Some(&(inc, prev)) => {
                    check.gaps += snap.seq - prev - 1;
                    last_seq.insert(snap.node, (inc, snap.seq));
                }
                // First sighting: the node may have joined mid-run; its
                // earlier seqs are history, not export loss.
                None => {
                    last_seq.insert(snap.node, (snap.restarts, snap.seq));
                }
            }
        }
    }
    Ok(check)
}

/// Reads one JSONL export, keeping the watch rows with their `run` tags.
fn load_watch(path: &str) -> Result<Vec<(String, WatchEvent)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if let Some(ev) = WatchEvent::from_row(&json) {
            let run = json
                .get("run")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            events.push((run, ev));
        }
    }
    Ok(events)
}

/// Replays one run's audit stream in order and verifies that every
/// remediation has a preceding explanation. Events are already exported
/// time-sorted with same-node insertion order preserved, so "preceding"
/// includes same-instant pairs (detection emitted just before its
/// remediation).
fn audit_run(run: &str, events: &[WatchEvent], violations: &mut Vec<String>) {
    use std::collections::HashSet;
    // Evidence seen so far, keyed by what each remediation must cite.
    let mut link_evidence: HashSet<(u32, u32)> = HashSet::new(); // budget/blackhole
    let mut suspended: HashSet<(u32, u32)> = HashSet::new();
    let mut churn: HashSet<u32> = HashSet::new(); // RerouteFlap per node
    let mut damped: HashSet<(u32, u32)> = HashSet::new(); // (node, origin)
    let mut growth: HashSet<u32> = HashSet::new();
    let mut shedding: HashSet<u32> = HashSet::new();
    let mut complain = |at_ns: u64, node: u32, what: &str| {
        violations.push(format!(
            "[{run}] t={:.3}ms n{node}: {what}",
            at_ns as f64 / 1e6
        ));
    };
    for e in events {
        let link = e.link.unwrap_or(u32::MAX);
        match e.kind {
            WatchKind::RecoveryBudgetExceeded { .. } | WatchKind::SilentBlackhole { .. } => {
                link_evidence.insert((e.node, link));
            }
            WatchKind::RerouteFlap { .. } => {
                churn.insert(e.node);
            }
            WatchKind::RetransmitStorm { .. } => {}
            WatchKind::QueueGrowth { .. } => {
                growth.insert(e.node);
            }
            WatchKind::LinkSuspended { .. } => {
                if !link_evidence.contains(&(e.node, link)) {
                    complain(
                        e.at_ns,
                        e.node,
                        &format!("link {link} suspended without budget/blackhole evidence"),
                    );
                }
                suspended.insert((e.node, link));
            }
            WatchKind::LinkProbed { .. } => {
                if !suspended.contains(&(e.node, link)) {
                    complain(
                        e.at_ns,
                        e.node,
                        &format!("link {link} probed, never suspended"),
                    );
                }
            }
            WatchKind::LinkReadmitted => {
                if !suspended.remove(&(e.node, link)) {
                    complain(
                        e.at_ns,
                        e.node,
                        &format!("link {link} readmitted, never suspended"),
                    );
                }
            }
            WatchKind::FlapDamped { origin } => {
                if !churn.contains(&e.node) {
                    complain(
                        e.at_ns,
                        e.node,
                        &format!("origin {origin} damped without recorded churn"),
                    );
                }
                damped.insert((e.node, origin));
            }
            WatchKind::FlapReleased { origin } => {
                if !damped.remove(&(e.node, origin)) {
                    complain(
                        e.at_ns,
                        e.node,
                        &format!("origin {origin} released, never damped"),
                    );
                }
            }
            WatchKind::ShedEngaged { .. } => {
                if !growth.contains(&e.node) {
                    complain(e.at_ns, e.node, "shedding engaged without queue growth");
                }
                shedding.insert(e.node);
            }
            WatchKind::ShedReleased => {
                if !shedding.remove(&e.node) {
                    complain(e.at_ns, e.node, "shedding released, never engaged");
                }
            }
        }
    }
}

fn run_watch_audit(args: &Args) -> Result<bool, String> {
    let mut by_run: std::collections::BTreeMap<String, Vec<WatchEvent>> =
        std::collections::BTreeMap::new();
    for file in &args.files {
        for (run, ev) in load_watch(file)? {
            by_run.entry(run).or_default().push(ev);
        }
    }
    banner(
        "son-trace --watch-audit",
        "Every watchdog remediation must be explained by a preceding detection",
    );
    let mut violations = Vec::new();
    table_header(&[
        ("run", 22),
        ("events", 7),
        ("detections", 11),
        ("remediations", 13),
        ("violations", 11),
    ]);
    let mut events_total = 0;
    for (tag, events) in &by_run {
        let before = violations.len();
        audit_run(tag, events, &mut violations);
        let remediations = events.iter().filter(|e| e.kind.is_remediation()).count();
        events_total += events.len();
        row(&[
            (tag.clone(), 22),
            (events.len().to_string(), 7),
            ((events.len() - remediations).to_string(), 11),
            (remediations.to_string(), 13),
            ((violations.len() - before).to_string(), 11),
        ]);
    }
    if !violations.is_empty() {
        println!("\nunexplained remediations:");
        for v in &violations {
            println!("  {v}");
        }
        println!("\nwatch-audit: FAIL ({} violations)", violations.len());
        return Ok(false);
    }
    if events_total == 0 {
        println!("\nwatch-audit: FAIL (no watch events in the export)");
        return Ok(false);
    }
    println!("\nwatch-audit: ok ({events_total} events, every remediation explained)");
    Ok(true)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.watch_audit {
        return run_watch_audit(&args);
    }
    let mut by_run: std::collections::BTreeMap<String, Vec<TraceEvent>> =
        std::collections::BTreeMap::new();
    for file in &args.files {
        for (run, ev) in load(file)? {
            by_run.entry(run).or_default().push(ev);
        }
    }

    // Reconstruct and self-check per run (trace ids collide across runs);
    // the aggregate tables then pool every run's timelines.
    let mut timelines = Vec::new();
    let mut events_total = 0;
    let mut markers_total = 0;
    let mut violations = Vec::new();
    for (run, events) in &mut by_run {
        events.sort_by_key(|e| (e.at_ns, e.trace_id, e.hop, e.stage.rank()));
        let report = self_check(events);
        events_total += report.events;
        markers_total += report.markers;
        violations.extend(
            report
                .violations
                .into_iter()
                .map(|v| format!("[{run}] {v}")),
        );
        timelines.extend(reconstruct(events));
    }

    banner(
        "son-trace",
        "Per-packet end-to-end timelines from distributed trace events",
    );
    println!(
        "events: {} per-packet, {} node-scope markers, {} timelines over {} runs",
        events_total,
        markers_total,
        timelines.len(),
        by_run.len()
    );
    let delivered: Vec<&Timeline> = timelines
        .iter()
        .filter(|t| t.terminal() == Terminal::Delivered)
        .collect();
    let dropped = timelines
        .iter()
        .filter(|t| matches!(t.terminal(), Terminal::Dropped(_)))
        .count();
    let lost = timelines
        .iter()
        .filter(|t| t.terminal() == Terminal::LostInFlight)
        .count();
    let recovered: Vec<&Timeline> = delivered
        .iter()
        .copied()
        .filter(|t| t.recovery_ns() > 0)
        .collect();
    println!(
        "terminals: {} delivered ({} via recovery), {} dropped, {} lost in flight",
        delivered.len(),
        recovered.len(),
        dropped,
        lost
    );
    let e2e: Vec<u64> = delivered.iter().filter_map(|t| t.e2e_ns()).collect();
    let e2e_rec: Vec<u64> = recovered.iter().filter_map(|t| t.e2e_ns()).collect();
    println!(
        "e2e latency: p50 {:.2} ms over all delivered, p50 {:.2} ms over recovered",
        ms(median_ns(&e2e)),
        ms(median_ns(&e2e_rec))
    );

    if !timelines.is_empty() {
        println!("\nper-hop attribution (hop h = h-th daemon and the link leaving it):");
        table_header(&[
            ("hop", 4),
            ("arrivals", 9),
            ("queue p50 ms", 13),
            ("link p50 ms", 12),
            ("recoveries", 11),
            ("recovery p50 ms", 16),
        ]);
        for (hop, stat) in attribute(&timelines).iter().enumerate() {
            row(&[
                (hop.to_string(), 4),
                (stat.arrivals.to_string(), 9),
                (f(ms(median_ns(&stat.queue_ns)), 3), 13),
                (f(ms(median_ns(&stat.link_ns)), 3), 12),
                (stat.recoveries.to_string(), 11),
                (f(ms(median_ns(&stat.recovery_ns)), 3), 16),
            ]);
        }
    }

    if args.limit > 0 {
        // Show the most interesting examples first: recovered packets beat
        // clean deliveries.
        let mut examples: Vec<&Timeline> = recovered.clone();
        examples.extend(delivered.iter().copied().filter(|t| t.recovery_ns() == 0));
        if !examples.is_empty() {
            println!("\nexample timelines:");
            for tl in examples.iter().take(args.limit) {
                print_timeline(tl);
            }
        }
    }

    // Telemetry rows, when the inputs carry any: seq sanity plus explicit
    // gap accounting (lost snapshots are visible, never silent).
    let telemetry = check_telemetry(&args.files)?;
    if telemetry.rows > 0 {
        println!(
            "\ntelemetry: {} rows over {} nodes, {} seq gaps (snapshots lost in flight), {} violations",
            telemetry.rows,
            telemetry.nodes.len(),
            telemetry.gaps,
            telemetry.violations.len()
        );
    }

    if !violations.is_empty() {
        println!("\ncausal-consistency violations:");
        for v in &violations {
            println!("  {v}");
        }
    }
    if !telemetry.violations.is_empty() {
        println!("\ntelemetry violations:");
        for v in &telemetry.violations {
            println!("  {v}");
        }
    }
    if args.self_check {
        if timelines.is_empty() {
            println!("\nself-check: FAIL (no timelines reconstructed)");
            return Ok(false);
        }
        if !violations.is_empty() {
            println!(
                "\nself-check: FAIL ({} violations over {} timelines)",
                violations.len(),
                timelines.len()
            );
            return Ok(false);
        }
        if !telemetry.violations.is_empty() {
            println!(
                "\nself-check: FAIL ({} telemetry violations over {} rows)",
                telemetry.violations.len(),
                telemetry.rows
            );
            return Ok(false);
        }
        println!(
            "\nself-check: ok ({} timelines, {} events causally consistent{})",
            timelines.len(),
            events_total,
            if telemetry.rows > 0 {
                format!(
                    ", {} telemetry rows seq-consistent ({} gaps accounted)",
                    telemetry.rows, telemetry.gaps
                )
            } else {
                String::new()
            }
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("son-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
