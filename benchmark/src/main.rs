//! `son-benchmark`: the repo benchmark. One process runs one workload once
//! and prints every metric it measured by name with its unit, the checks,
//! and, as the last line, one JSON object for the driver.
//!
//! ```text
//! son-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! son-benchmark --repeat-check [--seed N] [--seconds S]
//! son-benchmark --emit-benchmark-json
//! ```

mod inputs;
mod metrics;
mod probes;
mod procfs;
mod record;
mod run;
mod sim;
mod spans;
mod stats;
mod udp;

use std::process::ExitCode;

use son_obs::Json;

use run::{Outcome, RunArgs};
use sim::SimWorkload;
use spans::Spans;

/// Seconds one run measures for when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 30;
/// The same under `--quick`.
const QUICK_SECONDS: u64 = 2;
/// What `BENCHMARK.json` tells the driver to pass as `--seconds`: with its
/// 92 runs and two builds, longer runs would not fit the driver's cap.
const DRIVER_SECONDS: u64 = 20;

#[derive(Debug)]
enum Mode {
    Run(String),
    RepeatCheck,
    EmitBenchmarkJson,
}

#[derive(Debug)]
struct Cli {
    mode: Mode,
    args: RunArgs,
}

fn usage() -> String {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: son-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      son-benchmark --repeat-check [--seed N] [--seconds S]\n\
         \x20      son-benchmark --emit-benchmark-json",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, None, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !metrics::WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name:?}\n{}", usage()));
                }
                mode = Some(Mode::Run(name.clone()));
            }
            "--seed" => {
                seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be between 1 and 600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => quick = true,
            "--repeat-check" => mode = Some(Mode::RepeatCheck),
            "--emit-benchmark-json" => mode = Some(Mode::EmitBenchmarkJson),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let default = if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    Ok(Cli {
        mode: mode.ok_or_else(usage)?,
        args: RunArgs {
            seed,
            seconds: seconds.unwrap_or(default),
            trace,
            quick,
        },
    })
}

fn class_of(name: &str) -> &'static str {
    match (metrics::end_to_end(name), metrics::per_layer(name)) {
        (Some(_), _) => "e2e",
        (None, Some(m)) if m.exact => "count",
        (None, Some(_)) => "layer",
        (None, None) => panic!("{name} is not in the metric catalogue"),
    }
}

/// The metrics `BENCHMARK.json` promises for this kind of run, as the JSON
/// object the driver reads; `Err` names what the run failed to measure.
fn contract_metrics(out: &Outcome, trace: bool) -> Result<Json, String> {
    let mut pairs = Vec::new();
    for (name, unit) in metrics::contract(trace) {
        let value = *out
            .values
            .get(name)
            .ok_or_else(|| format!("{name} was not measured (is --seconds too small?)"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        if !metrics::valid_name(name) || !metrics::valid_unit(unit) {
            return Err(format!(
                "{name} [{unit}] breaks the contract's naming rules"
            ));
        }
        pairs.push((
            name,
            Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj(pairs))
}

fn run_workload(name: &str, args: &RunArgs) -> ExitCode {
    println!(
        "# son-benchmark workload={name} seed={} seconds={} trace={} quick={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    let mut spans = Spans::new();
    let out = match SimWorkload::ALL.into_iter().find(|w| w.name() == name) {
        Some(w) => run::run_sim(w, args, &mut spans),
        None => match run::run_udp(args, &mut spans) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(2);
            }
        },
    };

    for (&metric, &value) in &out.values {
        assert!(
            metrics::per_layer(metric).is_none_or(|m| m.scope.covers(name))
                && metrics::end_to_end(metric).is_none_or(|m| m.scope.covers(name)),
            "{metric} is not a metric of {name}"
        );
        let unit = metrics::unit_of(metric).expect("catalogued");
        println!("{:<5} {metric:<44} {value:>18.6} {unit}", class_of(metric));
    }
    println!(
        "ops   attempted {} failed {} ({:.4} %)",
        out.attempted,
        out.failed,
        100.0 * out.failed as f64 / out.attempted.max(1) as f64
    );
    let correct = out.violations.is_empty();
    for v in &out.violations {
        println!("check FAILED {v}");
    }
    if correct {
        println!("check ok: every correctness check passed");
    }

    let dir = record::out_dir();
    if let Err(e) = record::write(&dir, name, args, &out, &spans) {
        // The record is a by-product; the measurement stands without it.
        eprintln!(
            "could not write the run record under {}: {e}",
            dir.display()
        );
    }

    let metrics = match contract_metrics(&out, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(2);
        }
    };
    let last = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", last.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match cli.mode {
        Mode::Run(name) => run_workload(&name, &cli.args),
        Mode::RepeatCheck => record::repeat_check(&cli.args),
        Mode::EmitBenchmarkJson => {
            println!(
                "{}",
                record::pretty(&metrics::benchmark_json(DRIVER_SECONDS))
            );
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse(&argv(
            "--workload udp_chain3 --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert!(matches!(cli.mode, Mode::Run(ref w) if w == "udp_chain3"));
        assert_eq!((cli.args.seed, cli.args.seconds), (7, 20));
        assert!(cli.args.trace && !cli.args.quick);
    }

    #[test]
    fn defaults_and_quick() {
        let cli = parse(&argv("--workload sim_fwd_churn")).unwrap();
        assert_eq!((cli.args.seed, cli.args.seconds), (1, DEFAULT_SECONDS));
        let cli = parse(&argv("--workload sim_fwd_churn --quick")).unwrap();
        assert_eq!(cli.args.seconds, QUICK_SECONDS);
        assert!(cli.args.quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload sim_fwd_churn --trace 2",
            "--workload sim_fwd_churn --seconds 0",
            "--workload sim_fwd_churn --seed x",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
