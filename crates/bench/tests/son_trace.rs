//! `son-trace` end to end: the built binary on small exports written to a
//! temp dir. A clean trace + telemetry + watch export passes `--self-check`
//! and `--watch-audit`; every doctored copy — a duplicated, regressed,
//! stale-incarnation or undecodable telemetry row, a trace with a hop gap,
//! an unexplained remediation, an empty export — exits non-zero; a
//! telemetry seq gap passes and is reported as a gap.

use std::path::PathBuf;
use std::process::Command;

use son_bench::{tag_run, UnicastRun};
use son_netsim::time::SimDuration;
use son_obs::Json;
use son_overlay::builder::chain_topology;
use son_overlay::FlowSpec;
use son_topo::NodeId;

/// A traced 3-node chain run: its trace rows and its telemetry rows (three
/// daemons, six epochs, epoch-major), each tagged `run:"clean"`.
fn clean_rows() -> (Vec<String>, Vec<String>) {
    let mut run = UnicastRun::new(
        chain_topology(3, 10.0),
        FlowSpec::reliable(),
        NodeId(0),
        NodeId(2),
    );
    run.count = 20;
    run.run_for = SimDuration::from_secs(3);
    run.node_config.trace_sample = 1;
    let out = run.run();
    let tagged = |row: Json| tag_run(row, "clean").to_json();
    let traces = out.traces.iter().map(|e| tagged(e.row())).collect();
    let telemetry = out.telemetry.iter().map(|s| tagged(s.row())).collect();
    (traces, telemetry)
}

/// A watch stream whose one remediation is explained by a detection.
fn clean_watch() -> Vec<String> {
    [
        r#"{"run":"clean","kind":"watch","at_ns":1000,"node":0,"what":"recovery_budget_exceeded","link":1,"after_ns":90,"budget_ns":40}"#,
        r#"{"run":"clean","kind":"watch","at_ns":2000,"node":0,"what":"link_suspended","link":1,"strikes":3}"#,
    ]
    .map(str::to_owned)
    .to_vec()
}

/// `row` with `key` set to `value`.
fn set(row: &str, key: &str, value: Json) -> String {
    let Ok(Json::Obj(mut pairs)) = Json::parse(row) else {
        panic!("not an object row: {row}");
    };
    pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("key present")
        .1 = value;
    Json::Obj(pairs).to_json()
}

fn field(row: &str, key: &str) -> u64 {
    let row = Json::parse(row).unwrap();
    row.get(key).and_then(Json::as_u64).expect("numeric field")
}

/// Runs `son-trace FLAG FILE...` on files holding `exports` (one file per
/// slice of rows) in a fresh directory; returns (exit ok, stdout).
fn son_trace(test: &str, flag: &str, exports: &[&[String]]) -> (bool, String) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("son_trace_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_son-trace"));
    cmd.arg(flag);
    for (i, rows) in exports.iter().enumerate() {
        let path = dir.join(format!("{i}.jsonl"));
        let text: String = rows.iter().map(|r| format!("{r}\n")).collect();
        std::fs::write(&path, text).unwrap();
        cmd.arg(path);
    }
    let out = cmd.output().expect("son-trace runs");
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn a_clean_export_passes_both_audits() {
    let (traces, telemetry) = clean_rows();
    assert_eq!(telemetry.len(), 3 * 6);
    let (ok, out) = son_trace("clean", "--self-check", &[&traces, &telemetry]);
    assert!(ok, "{out}");
    assert!(
        out.contains("18 telemetry rows seq-consistent (0 gaps"),
        "{out}"
    );
    let (ok, out) = son_trace("clean_watch", "--watch-audit", &[&clean_watch()]);
    assert!(ok, "{out}");
}

#[test]
fn every_doctored_telemetry_copy_fails_the_self_check() {
    let (traces, telemetry) = clean_rows();
    // Epoch-major order: row 3k + n is node n's seq k.
    assert_eq!(
        (field(&telemetry[3], "node"), field(&telemetry[3], "seq")),
        (0, 1)
    );
    let duplicated = [&telemetry[..], &telemetry[4..5]].concat();
    let mut regressed = telemetry.clone();
    regressed.swap(3, 6);
    let reborn = set(
        &set(&telemetry[0], "restarts", Json::U64(1)),
        "seq",
        Json::U64(0),
    );
    let straggler = set(&telemetry[0], "seq", Json::U64(99));
    let stale = [&telemetry[..], &[reborn, straggler]].concat();
    let mut undecodable = telemetry.clone();
    undecodable[5] = set(&telemetry[5], "v", Json::U64(9));
    for (name, doctored) in [
        ("duplicate", duplicated),
        ("regress", regressed),
        ("stale", stale),
        ("undecodable", undecodable),
    ] {
        let (ok, out) = son_trace(name, "--self-check", &[&traces, &doctored]);
        assert!(!ok, "{name}: passed\n{out}");
        assert!(out.contains("telemetry violations"), "{name}: {out}");
    }
}

#[test]
fn a_telemetry_seq_gap_passes_and_is_reported() {
    let (traces, mut telemetry) = clean_rows();
    telemetry.remove(7); // node 1's seq 2
                         // A restart numbers afresh: neither a gap nor a duplicate.
    let reborn = set(
        &set(&telemetry[0], "restarts", Json::U64(1)),
        "seq",
        Json::U64(0),
    );
    telemetry.push(reborn);
    let (ok, out) = son_trace("gap", "--self-check", &[&traces, &telemetry]);
    assert!(ok, "{out}");
    assert!(out.contains("1 seq gaps"), "{out}");
}

#[test]
fn a_trace_hop_gap_fails_the_self_check() {
    let (mut traces, telemetry) = clean_rows();
    let deliver = traces
        .iter()
        .position(|r| r.contains("\"stage\":\"deliver\""))
        .expect("a delivery was traced");
    let hop = field(&traces[deliver], "hop");
    traces[deliver] = set(&traces[deliver], "hop", Json::U64(hop + 3));
    let (ok, out) = son_trace("hop_gap", "--self-check", &[&traces, &telemetry]);
    assert!(!ok, "{out}");
    assert!(out.contains("missing"), "{out}");
}

#[test]
fn an_unexplained_suspension_fails_the_watch_audit() {
    let unexplained = clean_watch()[1..].to_vec();
    let (ok, out) = son_trace("unexplained", "--watch-audit", &[&unexplained]);
    assert!(!ok, "{out}");
    assert!(
        out.contains("suspended without budget/blackhole evidence"),
        "{out}"
    );
}

#[test]
fn an_empty_export_fails_both_audits() {
    for flag in ["--self-check", "--watch-audit"] {
        let (ok, out) = son_trace(&format!("empty{flag}"), flag, &[&[]]);
        assert!(!ok, "{flag}: {out}");
    }
}
