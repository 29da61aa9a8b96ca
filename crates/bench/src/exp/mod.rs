//! The experiments, one module each, and the `son-exp` driver that runs
//! them by name. [`EXPERIMENTS`] is the index: `EXPERIMENTS.md` and
//! `DESIGN.md` §3 are keyed by the same names.

use crate::{banner, gate};

mod ablation;
mod churn;
mod compound;
mod dedup;
mod fairness;
mod fig3;
mod global;
mod intrusion;
mod manipulation;
mod multicast;
mod nm_strikes;
mod overhead;
mod rerouting;
mod scada;
mod scale;
mod throughput;
mod udp_parity;
mod watchdog;

/// The flags of `son-exp`, shared by every experiment (each reads the ones
/// that mean something to it).
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// `--smoke`: the reduced run CI uses.
    pub smoke: bool,
    /// `--full`: the extended sweep (`scale` adds N = 4096).
    pub full: bool,
    /// `--out PATH`: where the `BENCH_*.json` rows go instead of the
    /// committed file.
    pub out: Option<String>,
}

/// One entry of the experiment index.
pub struct Experiment {
    /// The name `son-exp` runs it by (and its `EXPERIMENTS.md` heading
    /// names it by).
    pub name: &'static str,
    /// Banner title: its E-id and the figure or section of the paper it
    /// reproduces.
    pub title: &'static str,
    /// The claim under test.
    pub claim: &'static str,
    /// Runs it.
    pub run: fn(&Opts),
}

/// Every experiment, in `EXPERIMENTS.md` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3",
        title: "E1 / Figure 3",
        claim: "50ms end-to-end ARQ recovers at >=150ms; five 10ms hop-by-hop links recover at ~70ms",
        run: fig3::run,
    },
    Experiment {
        name: "nm_strikes",
        title: "E2 / Figure 4 (NM-Strikes)",
        claim: "complete timeliness within 200ms on a continental path under bursty loss; cost -> 1 + M*p",
        run: nm_strikes::run,
    },
    Experiment {
        name: "rerouting",
        title: "E3 / Figure 1 (resilient architecture)",
        claim: "overlay reroutes sub-second; multihoming dodges single-ISP faults; BGP needs ~40s",
        run: rerouting::run,
    },
    Experiment {
        name: "overhead",
        title: "E4 / Section II-D (overlay latency overhead)",
        claim: "multi-hop overlay path vs direct Internet path: small stretch; <1ms processing per hop",
        run: overhead::run,
    },
    Experiment {
        name: "multicast",
        title: "E5 / Section III-B (overlay multicast)",
        claim: "one stream into a shared tree vs one unicast stream per receiver",
        run: multicast::run,
    },
    Experiment {
        name: "intrusion",
        title: "E6 / Section IV-B (intrusion-tolerant dissemination)",
        claim: "k disjoint paths survive k-1 compromises; flooding survives anything short of a cut",
        run: intrusion::run,
    },
    Experiment {
        name: "fairness",
        title: "E7 / Section IV-B (fair scheduling under flooding attack)",
        claim: "round-robin fair schedulers protect correct sources; FIFO collapses",
        run: fairness::run,
    },
    Experiment {
        name: "manipulation",
        title: "E8 / Section V-A (remote manipulation, 65ms one-way)",
        claim: "single-strike recovery + dissemination graphs beat single path and uniform redundancy",
        run: manipulation::run,
    },
    Experiment {
        name: "compound",
        title: "E9 / Section V-C (compound flows: transcode in the overlay)",
        claim: "stadium -> anycast transcoding facility -> multicast to CDNs, with facility failover",
        run: compound::run,
    },
    Experiment {
        name: "dedup",
        title: "E10 / Sections II-B, III-A (de-duplication)",
        claim: "redundant copies die in the network; the application sees each payload exactly once",
        run: dedup::run,
    },
    Experiment {
        name: "global",
        title: "E11 / Section II-A (global coverage)",
        claim: "a few tens of overlay nodes reach nearly any point on the globe within ~150ms",
        run: global::run,
    },
    Experiment {
        name: "scada",
        title: "E12 / Section V-B (SCADA with intrusion-tolerant agreement)",
        claim: "event -> 3-round agreement -> actuation within the 100-200ms budget, despite f faults",
        run: scada::run,
    },
    Experiment {
        name: "ablation",
        title: "E13 / ablations",
        claim: "the design choices behind sub-second rerouting and burst recovery",
        run: ablation::run,
    },
    Experiment {
        name: "throughput",
        title: "E14 (data-plane fast path)",
        claim: "forwarding stays hot under churn; tracing and profiling are priced on the same workload",
        run: throughput::run,
    },
    Experiment {
        name: "watchdog",
        title: "E-watchdog (online anomaly watchdog)",
        claim: "detect pathologies online, remediate, and audit every action; \
                watchdog-on must beat watchdog-off under faults and stay silent when healthy",
        run: watchdog::run,
    },
    Experiment {
        name: "scale",
        title: "E16 (scale observatory)",
        claim: "throughput, bytes/node by subsystem, and reroute latency as the overlay grows",
        run: scale::run,
    },
    Experiment {
        name: "udp_parity",
        title: "E18 (sim-vs-real parity)",
        claim: "one scenario file, one protocol implementation, two drivers: \
                virtual-time pipes and wall-clock UDP must agree on outcomes",
        run: udp_parity::run,
    },
    Experiment {
        name: "churn",
        title: "E20 (membership churn)",
        claim: "join/leave with self-stabilizing maintenance: converge within bounded \
                epochs after every membership event, keep surviving flows above the \
                delivery floor, and evict departed state",
        run: churn::run,
    },
];

const USAGE: &str = "usage: son-exp --list
       son-exp [--smoke] [--full] [--out PATH] <name>... | all";

/// The `son-exp` command line (`args` without the program name).
///
/// # Errors
///
/// A usage error or a failed gate, for the binary to print and exit 1 on.
pub fn main(args: &[String]) -> Result<(), String> {
    if let Some(("gate", rest)) = args.split_first().map(|(a, rest)| (a.as_str(), rest)) {
        return gate::check(rest).map(|line| println!("{line}"));
    }
    let mut opts = Opts::default();
    let mut names: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{:<13} {} — {}", e.name, e.title, e.claim);
                }
                return Ok(());
            }
            "--smoke" => opts.smoke = true,
            "--full" => opts.full = true,
            "--out" => opts.out = Some(args.next().ok_or("--out needs a path")?.clone()),
            "all" => names.extend(EXPERIMENTS.iter().map(|e| e.name)),
            name if EXPERIMENTS.iter().any(|e| e.name == name) => names.push(name),
            other => return Err(format!("son-exp: unknown argument {other:?}\n{USAGE}")),
        }
    }
    if names.is_empty() {
        return Err(format!("{USAGE}\n       son-exp {}", gate::USAGE));
    }
    for e in EXPERIMENTS.iter().filter(|e| names.contains(&e.name)) {
        banner(e.title, e.claim);
        (e.run)(&opts);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_covers_e1_to_e20_and_matches_experiments_md() {
        let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(doc).expect("EXPERIMENTS.md");
        let mut sections = Vec::new();
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
                "{} is listed twice",
                e.name
            );
            let named = format!("`son-exp {}`", e.name);
            let heading = doc
                .lines()
                .find(|l| l.starts_with("## E") && l.contains(&named))
                .unwrap_or_else(|| panic!("no EXPERIMENTS.md heading names {named}"));
            sections.push(heading.split(' ').nth(1).unwrap());
        }
        // E17 is retired with the sharded engine it measured, and E19
        // (`son-top`) is a tool: every other section of E1..=E20 is an
        // experiment of the index.
        for n in (1..=20).filter(|n| ![17, 19].contains(n)) {
            assert!(sections.contains(&format!("E{n}").as_str()), "E{n}");
        }
    }

    #[test]
    fn unknown_names_and_flags_are_usage_errors() {
        for bad in ["", "fig4", "--jobs 2 fig3", "--shards"] {
            let args: Vec<String> = bad.split(' ').map(str::to_owned).collect();
            assert!(main(&args).is_err(), "{bad:?} must be rejected");
        }
    }
}
