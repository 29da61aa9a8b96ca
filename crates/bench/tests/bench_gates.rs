//! The gate lines of `scripts/bench_smoke.sh`, run through the gate runner
//! the script calls (`son-exp gate` = [`son_bench::gate::check`]): every
//! check holds on the committed `BENCH_*.json`, and each fails — naming the
//! row — on a copy doctored just past its bound. The same for the UDP smoke
//! row's gates in `scripts/check.sh`.

use std::path::{Path, PathBuf};

use son_bench::gate;
use son_obs::Json;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const PPS: &str = "sim_pkts_per_wall_s";
const MEM: &str = "bytes_per_node_total";
const TP: (&str, &str) = ("bench", "exp_throughput");
const SC: (&str, &str) = ("bench", "exp_scale");
type Fields = Vec<(String, Json)>;

fn read(path: impl AsRef<Path>) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{:?}: {e}", path.as_ref()))
}

/// Applies `edit` to the last row of `dir/file` whose fields match `terms`.
fn doctor(dir: &Path, file: &str, terms: &[(&str, &str)], mut edit: impl FnMut(&mut Fields)) {
    let mut lines: Vec<String> = read(dir.join(file)).lines().map(str::to_owned).collect();
    let matches = |line: &String| {
        let row = Json::parse(line).unwrap();
        let is = |f: &Json, v: &str| f.as_str() == Some(v) || f.to_json() == v;
        terms
            .iter()
            .all(|(k, v)| row.get(k).is_some_and(|f| is(f, v)))
    };
    let target = lines.iter().rposition(matches).expect("row to doctor");
    let Json::Obj(mut fields) = Json::parse(&lines[target]).unwrap() else {
        panic!("rows are objects")
    };
    edit(&mut fields);
    lines[target] = Json::Obj(fields).to_json();
    std::fs::write(dir.join(file), lines.join("\n") + "\n").unwrap();
}

fn set(field: &'static str, value: Json) -> impl Fn(&mut Fields) {
    move |fields| fields.iter_mut().find(|(k, _)| k == field).expect(field).1 = value.clone()
}

fn number(dir: &Path, file: &str, terms: &[(&str, &str)], field: &str) -> f64 {
    let mut found = None;
    doctor(dir, file, terms, |fields| {
        found = fields.iter().find(|(k, _)| k == field).unwrap().1.as_f64();
    });
    found.unwrap()
}

/// A directory holding the committed files and a fresh smoke run that
/// matches them exactly (`fwd.json`, `scale.json`): the committed
/// smoke-size rows, the three reruns at the plain run's pace.
fn healthy(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("son_gates_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (committed, fresh) in [
        ("BENCH_forwarding.json", "fwd.json"),
        ("BENCH_scale.json", "scale.json"),
    ] {
        let text = read(format!("{ROOT}/{committed}"));
        std::fs::write(dir.join(committed), &text).unwrap();
        std::fs::write(dir.join(fresh), &text).unwrap();
    }
    let pps = number(&dir, "fwd.json", &[TP, ("mode", "smoke")], PPS);
    for mode in ["traced", "perf"] {
        doctor(
            &dir,
            "fwd.json",
            &[TP, ("mode", mode)],
            set(PPS, Json::F64(pps)),
        );
    }
    dir
}

/// Runs every `son_exp gate …` line of the script against the files in
/// `dir`, expanding the script's own `name=value` variables.
fn run_script_gates(dir: &Path) -> Vec<Result<String, String>> {
    let at = |file: &str| dir.join(file).to_str().unwrap().to_owned();
    let mut vars: Vec<(String, String)> = Vec::new();
    let mut results = Vec::new();
    for line in read(format!("{ROOT}/scripts/bench_smoke.sh")).lines() {
        if let Some(args) = line.strip_prefix("son_exp gate ") {
            let expand = |word: &str| {
                let mut word = word.trim_matches(['"', '\'']).to_owned();
                for (name, value) in vars.iter().rev() {
                    word = word.replace(&format!("${name}"), value);
                }
                if word.starts_with("BENCH_") {
                    word = at(&word);
                }
                word
            };
            let args: Vec<String> = args.split_whitespace().map(expand).collect();
            results.push(gate::check(&args));
        } else if let Some((name, value)) = line.split_once('=') {
            let value = match name {
                "FWD" => at("fwd.json"),
                "SCALE" => at("scale.json"),
                _ => value.to_owned(),
            };
            vars.push((name.to_owned(), value));
        }
    }
    results
}

/// Asserts that exactly one gate fails on `dir` and that it names `names`.
fn assert_sole_failure(dir: &Path, names: &[&str]) {
    let results = run_script_gates(dir);
    let failures: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(failures.len(), 1, "{names:?}: {failures:#?}");
    for name in names {
        assert!(failures[0].contains(name), "{name}: {}", failures[0]);
    }
}

#[test]
fn every_gate_of_the_script_holds_on_the_committed_files() {
    let results = run_script_gates(&healthy("holds"));
    assert_eq!(results.len(), 8, "one gate line per check");
    for r in &results {
        assert!(r.is_ok(), "{r:?}");
    }
}

#[test]
fn each_gate_fails_by_name_just_past_its_bound() {
    let smoke = ("mode", "smoke");
    let (n256, n1024) = (("n", "256"), ("n", "1024"));
    let dir = healthy("fails");
    let pps = number(&dir, "fwd.json", &[TP, smoke], PPS);
    let mem256 = number(&dir, "scale.json", &[SC, n256], MEM);
    let mem64 = number(&dir, "scale.json", &[SC, ("n", "64")], MEM);
    // Doctors one row of one file of a healthy set; exactly one gate must
    // then fail, naming `names`.
    let fails = |file: &str, row: (&str, &str), edit: &dyn Fn(&mut Fields), names: &[&str]| {
        let dir = healthy("fails");
        let bench = if file.contains("scale") { SC } else { TP };
        doctor(&dir, file, &[bench, row], edit);
        assert_sole_failure(&dir, names);
    };
    let (fwd, scale) = ("fwd.json", "scale.json");
    let (base_fwd, base_scale) = ("BENCH_forwarding.json", "BENCH_scale.json");
    let pace = |factor: f64| set(PPS, Json::F64(pps * factor));
    // The committed smoke row 1/0.69 faster: the fresh run is 31% under.
    fails(
        base_fwd,
        smoke,
        &pace(1.0 / 0.69),
        &[fwd, "mode=smoke", PPS],
    );
    // Tracing, then profiling, 6% under the in-run plain figure.
    fails(fwd, ("mode", "traced"), &pace(0.94), &["mode=traced"]);
    fails(fwd, ("mode", "perf"), &pace(0.94), &["mode=perf"]);
    // Fresh n=256 memory 11% over the committed row, and reroutes one past
    // 10 per node; the committed n=1024 past 8.03x the n=64 row, and past
    // the rebuild-storm cap; the committed n=4096 one byte over budget.
    let mem = |bytes: f64| set(MEM, Json::F64(bytes));
    let reroutes = |count: u64| set("reroutes", Json::U64(count));
    fails(scale, n256, &mem(mem256 * 1.11), &["n=256", MEM]);
    fails(scale, n256, &reroutes(2_561), &["n=256", "reroutes = 2561"]);
    fails(base_scale, n1024, &mem(mem64 * 8.04), &["n=1024", MEM]);
    fails(
        base_scale,
        n1024,
        &reroutes(10_488),
        &["n=1024", "reroutes = 10488"],
    );
    fails(base_scale, ("n", "4096"), &mem(100_001.0), &["n=4096", MEM]);

    // No smoke-mode baseline row in the committed file.
    let dir = healthy("fails");
    let committed = read(dir.join("BENCH_forwarding.json"));
    let kept = committed
        .lines()
        .filter(|l| !l.contains("\"mode\":\"smoke\""));
    let kept: String = kept.map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("BENCH_forwarding.json"), kept).unwrap();
    assert_sole_failure(&dir, &["BENCH_forwarding.json", "no row", "mode=smoke"]);
}

/// A UDP smoke row as `son-exp udp_parity --smoke` wrote it in PR 25.
const UDP_SMOKE_ROW: &str = r#"{"bench":"udp_parity","mode":"udp","scenario":"udp_e1_smoke","smoke":true,"nodes":4,"count":300,"sim_delivery":1,"udp_delivery":1,"sim_p50_ms":15.65,"udp_p50_ms":15.884290499999999,"sim_p90_ms":15.65,"udp_p90_ms":20.7918063,"sim_max_gap_ms":20,"udp_max_gap_ms":20.147109,"delivery_delta":0,"udp_decode_errors":0,"added_per_hop_p50_us":78.09683333333281,"waits_per_delivered_pkt":13.156666666666666}"#;

/// Runs the `son_exp gate` lines of `scripts/check.sh` — the ones on the
/// UDP smoke cluster's row — against a file holding `row`.
fn run_udp_gates(test: &str, row: &Json) -> Vec<Result<String, String>> {
    let file = std::env::temp_dir().join(format!("son_gates_{}_{test}.json", std::process::id()));
    std::fs::write(&file, row.to_json() + "\n").unwrap();
    let file = file.to_str().unwrap();
    read(format!("{ROOT}/scripts/check.sh"))
        .lines()
        .filter_map(|line| line.trim().strip_prefix("son_exp gate "))
        .map(|args| {
            let args: Vec<String> = args
                .split_whitespace()
                .map(|word| word.trim_matches(['"', '\'']))
                .map(|word| if word.ends_with(".json") { file } else { word }.to_owned())
                .collect();
            gate::check(&args)
        })
        .collect()
}

/// The UDP smoke gates hold on a row this loop wrote, and the waits gate
/// fails by name on the parent's 17.27 waits per packet: bringing back a
/// wake-up on every datagram's arrival fails CI.
#[test]
fn udp_smoke_gates_hold_and_catch_a_wake_per_arrival() {
    let row = Json::parse(UDP_SMOKE_ROW).unwrap();
    let results = run_udp_gates("udp_holds", &row);
    assert_eq!(results.len(), 2, "the per-hop gate and the waits gate");
    assert!(results.iter().all(Result::is_ok), "{results:?}");

    let Json::Obj(mut fields) = row else {
        panic!("rows are objects")
    };
    set("waits_per_delivered_pkt", Json::F64(17.27))(&mut fields);
    let results = run_udp_gates("udp_parent", &Json::Obj(fields));
    let failures: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(failures.len(), 1, "{failures:#?}");
    assert!(
        failures[0].contains("waits_per_delivered_pkt"),
        "{}",
        failures[0]
    );
}
