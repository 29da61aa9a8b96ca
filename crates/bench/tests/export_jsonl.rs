//! The experiment JSONL export end-to-end: a lossy reliable run must yield
//! per-hop recovery-latency histograms, and the exported file must be one
//! well-formed JSON object per line with the documented schema fields.

use std::fs;

use son_bench::{export_rows, UnicastRun};
use son_netsim::loss::LossConfig;
use son_netsim::time::SimDuration;
use son_obs::{registry_rows, JsonlSink};
use son_overlay::builder::chain_topology;
use son_overlay::FlowSpec;
use son_topo::NodeId;

/// A minimal structural JSON check: balanced braces/brackets outside
/// strings, no trailing garbage. Enough to catch escaping and rendering
/// bugs without a full parser.
fn looks_like_json_object(line: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_str && line.starts_with('{') && line.ends_with('}')
}

#[test]
fn lossy_reliable_run_exports_recovery_histograms() {
    let mut run = UnicastRun::new(
        chain_topology(4, 10.0),
        FlowSpec::reliable(),
        NodeId(0),
        NodeId(3),
    );
    run.loss = LossConfig::Bernoulli { p: 0.05 };
    run.count = 300;
    run.interval = SimDuration::from_millis(5);
    run.run_for = SimDuration::from_secs(20);
    let out = run.run();
    assert_eq!(
        out.recv.received, 300,
        "reliable service recovers everything"
    );

    // The registry must hold per-hop recovery latency: each receiving node
    // contributes a link.recovery_ns{node=..,proto=reliable} histogram.
    let merged = out.registry.hist_merged("link.recovery_ns");
    assert!(
        merged.count() > 0,
        "5% loss over 3 hops must need recoveries"
    );
    assert!(
        merged.p50() > 0,
        "recovery takes at least a NACK round-trip"
    );
    assert!(merged.max() >= merged.p50());
    assert!(
        out.registry.counter_total("link.retransmit") >= merged.count(),
        "every recovery implies at least one retransmission"
    );

    // Export and validate the JSONL shape.
    let mut path = std::env::temp_dir();
    path.push(format!("son_bench_export_{}.jsonl", std::process::id()));
    let mut sink = JsonlSink::create(&path).unwrap();
    export_rows(&mut sink, "lossy_reliable", registry_rows(&out.registry)).unwrap();
    let rows = sink.rows();
    let written = sink.finish().unwrap();
    let content = fs::read_to_string(&written).unwrap();
    fs::remove_file(&written).unwrap();

    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len() as u64, rows);
    assert!(rows > 0);
    for line in &lines {
        assert!(looks_like_json_object(line), "malformed row: {line}");
        assert!(
            line.starts_with("{\"run\":\"lossy_reliable\""),
            "untagged row: {line}"
        );
    }
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"hist\"")
            && l.contains("\"name\":\"link.recovery_ns\"")
            && l.contains("\"proto\":\"reliable\"")),
        "recovery histogram rows missing from export"
    );
    assert!(
        lines.iter().any(
            |l| l.contains("\"kind\":\"counter\"") && l.contains("\"name\":\"node.forwarded\"")
        ),
        "counter rows missing from export"
    );
}
