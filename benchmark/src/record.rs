//! What a run leaves behind in `benchmark/out/`: one JSON line per run in
//! `runs.jsonl`, the traced run's spans, and `--repeat-check`, which reads
//! what two child runs printed.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use son_obs::Json;

use crate::metrics;
use crate::run::{Outcome, RunArgs};
use crate::spans::Spans;
use crate::stats;

/// `benchmark/out`, next to the crate's manifest: where `cargo run` says
/// the manifest is, else where it was at build time.
pub fn out_dir() -> PathBuf {
    let manifest_dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    Path::new(&manifest_dir).join("out")
}

/// The first line a command prints, or `null` if it cannot be run (the
/// driver's checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> Json {
    let mut cmd = Command::new(program);
    // Keeps git from searching for a repository above the checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(Json::str))
        .unwrap_or(Json::Null)
}

/// Appends the run's record to `runs.jsonl` and, for a traced run, writes
/// `<workload>.spans.jsonl`.
pub fn write(
    dir: &Path,
    workload: &str,
    args: &RunArgs,
    out: &Outcome,
    spans: &Spans,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let values = out
        .values
        .iter()
        .map(|(&k, &v)| (k, Json::F64(v)))
        .collect();
    let mut pairs = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        // A --quick run shrinks the probes; do not compare it with others.
        ("comparable", Json::Bool(!args.quick)),
        ("nproc", Json::U64(nproc)),
        ("rustc", first_line_of("rustc", &["-V"])),
        ("git_commit", first_line_of("git", &["rev-parse", "HEAD"])),
        ("unix_ns", Json::U64(son_node::unix_now_ns())),
        ("correct", Json::Bool(out.violations.is_empty())),
        (
            "violations",
            Json::Arr(out.violations.iter().map(|v| Json::str(v)).collect()),
        ),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("spans", Json::U64(spans.len() as u64)),
        ("metrics", Json::obj(values)),
    ];
    pairs.extend(out.detail.iter().cloned());
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(file, "{}", Json::obj(pairs).to_json())?;
    if args.trace {
        spans.write_jsonl(&dir.join(format!("{workload}.spans.jsonl")))?;
    }
    Ok(())
}

/// `BENCHMARK.json` rendering: one short line per metric, so a diff shows
/// which metric moved.
pub fn pretty(doc: &Json) -> String {
    let Json::Obj(pairs) = doc else {
        return doc.to_json();
    };
    let fields: Vec<String> = pairs
        .iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
                let rows: Vec<String> = items
                    .iter()
                    .map(|i| format!("    {}", i.to_json()))
                    .collect();
                format!(
                    "  {}: [\n{}\n  ]",
                    Json::str(key).to_json(),
                    rows.join(",\n")
                )
            }
            other => format!("  {}: {}", Json::str(key).to_json(), other.to_json()),
        })
        .collect();
    format!("{{\n{}\n}}", fields.join(",\n"))
}

/// One `class name value unit` line of a run's output.
fn parse_metric_line(line: &str) -> Option<(&str, &str, f64)> {
    let mut it = line.split_whitespace();
    let class = it.next()?;
    if !matches!(class, "e2e" | "layer" | "count") {
        return None;
    }
    let name = it.next()?;
    let value = it.next()?.parse().ok()?;
    Some((class, name, value))
}

/// Runs `workload` untraced in a child process; returns what it printed.
fn child_run(workload: &str, args: &RunArgs) -> Result<BTreeMap<String, (String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(parse_metric_line)
        .map(|(class, name, value)| (name.to_owned(), (class.to_owned(), value)))
        .collect())
}

/// Runs every workload twice on one seed. Fails unless each end-to-end
/// metric's two values agree within that metric's bound and, on the
/// simulated workloads, every exact-repeat count is identical. Prints the
/// observed spread of every metric, so the bounds can be checked against
/// what this host measures.
pub fn repeat_check(args: &RunArgs) -> ExitCode {
    let mut failures = 0;
    for (workload, _) in metrics::WORKLOADS {
        println!(
            "# {workload}: two runs, seed {}, {} s each",
            args.seed, args.seconds
        );
        let (a, b) = match (child_run(workload, args), child_run(workload, args)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("FAIL  {workload}: {e}");
                failures += 1;
                continue;
            }
        };
        for (name, (class, va)) in &a {
            let Some((_, vb)) = b.get(name) else {
                println!("FAIL  {name}: printed by the first run only");
                failures += 1;
                continue;
            };
            let spread = stats::rel_spread(*va, *vb);
            let verdict = match class.as_str() {
                "e2e" => {
                    let bound = metrics::end_to_end(name).expect("catalogued").bound;
                    let ok = spread <= bound;
                    failures += u32::from(!ok);
                    format!("{} (bound {bound})", if ok { "ok" } else { "FAIL" })
                }
                "count" if metrics::SIMS.contains(&workload) => {
                    let ok = va == vb;
                    failures += u32::from(!ok);
                    (if ok {
                        "ok (exact)"
                    } else {
                        "FAIL (must repeat exactly)"
                    })
                    .to_owned()
                }
                _ => "-".to_owned(),
            };
            println!("{class:<5} {name:<44} {va:>16.6} {vb:>16.6} spread {spread:>8.4}  {verdict}");
        }
    }
    if failures == 0 {
        println!("repeat-check ok");
        ExitCode::SUCCESS
    } else {
        println!("repeat-check FAILED: {failures} disagreement(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_other_lines_do_not() {
        let line = "e2e   setup_s                                                0.004021 s";
        assert_eq!(parse_metric_line(line), Some(("e2e", "setup_s", 0.004021)));
        assert_eq!(
            parse_metric_line("count netsim.events 686435.000000 count"),
            Some(("count", "netsim.events", 686_435.0))
        );
        for other in [
            "# header",
            "ops   attempted 5 failed 0 (0.0 %)",
            "check ok: fine",
            "{}",
        ] {
            assert_eq!(parse_metric_line(other), None, "{other}");
        }
    }

    #[test]
    fn pretty_benchmark_json_parses_back_to_itself() {
        let doc = metrics::benchmark_json(20);
        let text = pretty(&doc);
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.lines().count() > 50, "one line per metric");
    }
}
