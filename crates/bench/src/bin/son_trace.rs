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
//! the smoke experiment. Any `kind:"telemetry"` rows in the inputs go,
//! per run, through the collector's own seq accounting
//! (`ClusterState::ingest`, what `son-top` runs): a duplicate `(node,
//! incarnation, seq)`, a seq or incarnation regress, or a row that does not
//! decode fails the self-check, and seq gaps (snapshots lost in flight) are
//! reported rather than silently ignored — gaps are legal for a
//! best-effort stream, silence about them is not. A node's first sighting
//! and a restart's fresh numbering are not gaps.
//! `--limit N` caps the example timelines printed (default 3).
//!
//! `--watch-audit` switches to auditing `watch.jsonl` exports instead: it
//! replays each run's watchdog audit stream and verifies that every
//! remediation is explainable by a preceding detection — suspensions by a
//! budget breach or blackhole signature on the same node and link, probes
//! and readmissions by a preceding suspension, damping by the origin's
//! recorded churn, shedding by queue growth. Exits non-zero on any
//! unexplained action (or an empty export).

use std::collections::BTreeMap;
use std::process::ExitCode;

use son_bench::{banner, f, row, table_header, ClusterState};
use son_obs::trace::{attribute, median_ns, reconstruct, self_check, Terminal, Timeline};
use son_obs::watch::{WatchEvent, WatchKind};
use son_obs::{Json, TelemetrySnapshot, TraceEvent, TraceStage};

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

/// Every row of one export set that `son-trace` reads, grouped by the
/// row's `run` tag: trace ids are only unique within one run (sweeps replay
/// the same flow and sequence range per configuration), each run's watch
/// stream is audited on its own, and each run numbers its telemetry afresh.
#[derive(Default)]
struct Export {
    traces: BTreeMap<String, Vec<TraceEvent>>,
    watch: BTreeMap<String, Vec<WatchEvent>>,
    /// Telemetry rows through the collector's seq accounting.
    telemetry: BTreeMap<String, ClusterState>,
    /// `kind:"telemetry"` rows that did not decode, as `file:line: why`.
    broken_telemetry: Vec<String>,
}

/// Reads each file once and parses each line once, routing rows by `kind`;
/// the other kinds sharing experiment files (counters, histograms, the
/// daemons' summary rows) are skipped.
fn load(files: &[String]) -> Result<Export, String> {
    let mut export = Export::default();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let row = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let run = String::from(row.get("run").and_then(Json::as_str).unwrap_or_default());
            match row.get("kind").and_then(Json::as_str) {
                Some("trace") => {
                    if let Some(ev) = TraceEvent::from_row(&row) {
                        export.traces.entry(run).or_default().push(ev);
                    }
                }
                Some("watch") => {
                    if let Some(ev) = WatchEvent::from_row(&row) {
                        export.watch.entry(run).or_default().push(ev);
                    }
                }
                Some("telemetry") => match TelemetrySnapshot::from_row(&row) {
                    Ok(Some(snap)) => export.telemetry.entry(run).or_default().ingest(snap),
                    Ok(None) => {}
                    Err(e) => export
                        .broken_telemetry
                        .push(format!("{path}:{}: {e}", i + 1)),
                },
                _ => {}
            }
        }
    }
    Ok(export)
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

fn run_watch_audit(by_run: &BTreeMap<String, Vec<WatchEvent>>) -> bool {
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
    for (tag, events) in by_run {
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
        return false;
    }
    if events_total == 0 {
        println!("\nwatch-audit: FAIL (no watch events in the export)");
        return false;
    }
    println!("\nwatch-audit: ok ({events_total} events, every remediation explained)");
    true
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut export = load(&args.files)?;
    if args.watch_audit {
        return Ok(run_watch_audit(&export.watch));
    }

    // Reconstruct and self-check per run (trace ids collide across runs);
    // the aggregate tables then pool every run's timelines.
    let mut timelines = Vec::new();
    let mut events_total = 0;
    let mut markers_total = 0;
    let mut violations = Vec::new();
    for (run, events) in &mut export.traces {
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
        export.traces.len()
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

    // Telemetry rows, when the inputs carry any: the collector's seq
    // accounting per run. Gaps are reported (lost snapshots are visible,
    // never silent); duplicates and regressions are violations.
    let mut telemetry_violations = export.broken_telemetry;
    let (mut snapshots, mut nodes, mut gaps) = (0, 0, 0u64);
    for (run, state) in &export.telemetry {
        snapshots += state.snapshots();
        nodes += state.node_count();
        for (node, n) in state.nodes() {
            gaps = gaps.saturating_add(n.lost);
            if n.dup > 0 {
                telemetry_violations.push(format!(
                    "[{run}] node {node}: {} duplicate, regressed or stale-incarnation snapshots",
                    n.dup
                ));
            }
        }
    }
    if snapshots > 0 || !telemetry_violations.is_empty() {
        println!(
            "\ntelemetry: {snapshots} rows from {nodes} nodes over {} runs, {gaps} seq gaps \
             (snapshots lost in flight), {} violations",
            export.telemetry.len(),
            telemetry_violations.len()
        );
    }

    if !violations.is_empty() {
        println!("\ncausal-consistency violations:");
        for v in &violations {
            println!("  {v}");
        }
    }
    if !telemetry_violations.is_empty() {
        println!("\ntelemetry violations:");
        for v in &telemetry_violations {
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
        if !telemetry_violations.is_empty() {
            println!(
                "\nself-check: FAIL ({} telemetry violations over {snapshots} rows)",
                telemetry_violations.len()
            );
            return Ok(false);
        }
        println!(
            "\nself-check: ok ({} timelines, {} events causally consistent{})",
            timelines.len(),
            events_total,
            if snapshots > 0 {
                format!(", {snapshots} telemetry rows seq-consistent ({gaps} gaps accounted)")
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
