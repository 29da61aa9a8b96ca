//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, and where it is reported. `BENCHMARK.json` lists the part of
//! it the driver checks; a unit test keeps the two in step.
//!
//! The driver's contract has every run print every metric `BENCHMARK.json`
//! lists, so that file holds the metrics defined on all four workloads
//! ([`Scope::All`]). Metrics only some workloads exercise are printed by
//! those workloads and kept in the run record; design rule 4 forbids
//! zero-filling them elsewhere.

use son_obs::Json;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim_fwd_churn",
        "data plane: 8 best-effort CBR flows over the 12-city overlay while one link flaps every 2 s; event queue, node dispatch, codec round-trip, next-hop lookup",
    ),
    (
        "sim_recovery_mix",
        "the same data plane used differently: 2 % loss on every link and 8 flows on 7 link/routing services, so ARQ timers, retransmit buffers, fair schedulers, masks and dedup do the work",
    ),
    (
        "sim_scale_512",
        "control plane: 512-node ring with chords from cold start, hello/LSA flooding, snapshot freeze and SPT per rebuild, per-node state; few data packets",
    ),
    (
        "udp_chain3",
        "wall-clock run loop, socket syscalls and real codec bytes: three daemon threads over UDP on host loopback, one paced flow 0 to 2; the simulator engine does nothing",
    ),
];

pub const SIMS: &[&str] = &["sim_fwd_churn", "sim_recovery_mix", "sim_scale_512"];
pub const UDP: &[&str] = &["udp_chain3"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads report a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    All,
    Sims,
    Udp,
}

impl Scope {
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Sims => SIMS.contains(&workload),
            Scope::Udp => UDP.contains(&workload),
        }
    }
}

/// An end-to-end metric: measured with tracing off, with the share by
/// which it may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub scope: Scope,
}

use Better::{Higher, Lower};

/// Bounds are about three times the spread (quartile distance ÷ median) of
/// ten runs on ten seeds on the build host, a shared VM whose speed shifts by
/// 10–17 % over minutes; the contract caps them at 0.25. README.md has the
/// measured spreads.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        scope: Scope::All,
    },
    EndToEnd {
        name: "cpu_us_per_delivered_pkt",
        unit: "us",
        better: Lower,
        bound: 0.25,
        scope: Scope::All,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        scope: Scope::All,
    },
    EndToEnd {
        name: "wall_ms_per_sim_s",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        scope: Scope::Sims,
    },
    EndToEnd {
        name: "added_latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.10,
        scope: Scope::Udp,
    },
    EndToEnd {
        name: "added_latency_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        scope: Scope::Udp,
    },
];

/// A per-layer metric: reported by the traced run, no bound. `exact` marks
/// a count that must repeat exactly on the simulated workloads for one
/// seed; those are cheap to read after any run, so untraced runs print
/// them too and `--repeat-check` compares them.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
    pub exact: bool,
}

const fn probe(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Lower,
        scope: Scope::All,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        scope,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        scope,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    probe("netsim.event.hold_ns.d4096"),
    probe("netsim.event.keyed_hold_ns.d4096"),
    probe("netsim.event.cancel_ns"),
    layer(
        "netsim.shard.wall_ratio_vs_seq.k2",
        "ratio",
        Lower,
        Scope::All,
    ),
    layer("netsim.shard.windows.k2", "count", Lower, Scope::All),
    probe("overlay.wire.encode_ns.data1000"),
    probe("overlay.wire.decode_ns.data1000"),
    probe("overlay.wire.recode_ns.data1000"),
    probe("overlay.wire.recode_ns.data64"),
    probe("overlay.wire.recode_ns.lsa"),
    probe("overlay.node.ingress_ns"),
    probe("overlay.node.transit_ns"),
    probe("overlay.node.egress_ns"),
    probe("overlay.routing.next_hop_ns"),
    probe("overlay.linkproto.reliable_cycle_ns"),
    probe("overlay.linkproto.realtime_cycle_ns"),
    probe("overlay.linkproto.itpriority_cycle_ns"),
    probe("overlay.linkproto.fec_cycle_ns"),
    probe("overlay.dedup.first_sighting_ns"),
    probe("overlay.auth.tag_verify_ns"),
    probe("topo.disjoint.k2_ns.n12"),
    probe("topo.csr.freeze_ns.n512"),
    probe("topo.csr.spt_ns.n12"),
    probe("topo.csr.spt_ns.n512"),
    probe("overlay.routing.install_ns.n512"),
    probe("overlay.connectivity.on_lsa_noop_ns.n512"),
    probe("overlay.connectivity.on_lsa_change_ns.n512"),
    probe("obs.registry.inc_ns"),
    probe("obs.hist.record_ns"),
    probe("obs.perf.enter_exit_ns"),
    probe("obs.snapshot.produce_encode_ns"),
    probe("node.udp.send_recv_ns.b64"),
    probe("node.udp.send_recv_ns.b1000"),
    probe("node.vnet.send_recv_ns"),
    layer("mem.bytes_per_node.total", "B", Lower, Scope::All),
    layer("mem.bytes_per_node.state", "B", Lower, Scope::All),
    layer("mem.bytes_per_node.rings", "B", Lower, Scope::All),
    layer("mem.bytes_per_node.lsdb", "B", Lower, Scope::All),
    layer("mem.bytes_per_node.routing", "B", Lower, Scope::All),
    layer("mem.bytes_per_node.topo", "B", Lower, Scope::All),
    layer("bench.build_s", "s", Lower, Scope::All),
    layer("bench.run_s", "s", Lower, Scope::All),
    layer("bench.harvest_s", "s", Lower, Scope::All),
    count("overlay.forwarded", "count", Lower, Scope::All),
    count("overlay.reroutes", "count", Lower, Scope::All),
    count("overlay.link.retransmitted", "count", Lower, Scope::All),
    count("overlay.link.ctl", "count", Lower, Scope::All),
    count("overlay.dedup.suppressed", "count", Lower, Scope::All),
    count("overlay.drops_total", "count", Lower, Scope::All),
    count("overlay.delivery_frac", "ratio", Higher, Scope::All),
    count("overlay.deliver_p50_ms", "ms", Lower, Scope::All),
    count("overlay.deliver_p99_ms", "ms", Lower, Scope::All),
    count(
        "overlay.wire_bytes_per_payload_byte",
        "ratio",
        Lower,
        Scope::All,
    ),
    // The simulated workloads only.
    count("netsim.events", "count", Lower, Scope::Sims),
    layer("netsim.events_per_wall_s", "1/s", Higher, Scope::Sims),
    count("netsim.queue.live_at_end", "count", Lower, Scope::Sims),
    count("netsim.queue.tombstones_peak", "count", Lower, Scope::Sims),
    count("netsim.queue.compactions", "count", Lower, Scope::Sims),
    count("netsim.pipe.sent", "count", Lower, Scope::Sims),
    count("netsim.pipe.dropped", "count", Lower, Scope::Sims),
    layer("overlay.fwd_pkts_per_wall_s", "1/s", Higher, Scope::Sims),
    layer("trace.sim.deliver.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.sim.timer.self_frac", "ratio", Lower, Scope::Sims),
    layer(
        "trace.node.on_message.self_frac",
        "ratio",
        Lower,
        Scope::Sims,
    ),
    layer("trace.node.on_timer.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.link.proto.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.route.rebuild.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.flow.ensure.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.other.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.engine.self_frac", "ratio", Lower, Scope::Sims),
    layer("trace.share_sum", "ratio", Lower, Scope::Sims),
    layer("trace.route.rebuild.count", "count", Lower, Scope::Sims),
    layer("trace.route.rebuild.p50_ns", "ns", Lower, Scope::Sims),
    layer("trace.overhead_frac", "ratio", Lower, Scope::Sims),
    // The UDP workload only.
    layer("node.idle_wakeups_per_s", "1/s", Lower, Scope::Udp),
    layer("node.cpu_busy_frac.paced", "ratio", Lower, Scope::Udp),
    layer("node.rate_frac.paced", "ratio", Higher, Scope::Udp),
    layer("node.pipe.sent", "count", Lower, Scope::Udp),
    layer("node.decode_errors", "count", Lower, Scope::Udp),
    layer("node.unknown_pipe", "count", Lower, Scope::Udp),
    layer("node.seg.hop01_excess_p50_us", "us", Lower, Scope::Udp),
    layer("node.seg.hop12_excess_p50_us", "us", Lower, Scope::Udp),
    layer("node.seg.client_handoff_p50_us", "us", Lower, Scope::Udp),
    layer("node.client_rate_cap_pps", "1/s", Higher, Scope::Udp),
    layer("node.cpu_busy_frac.flood", "ratio", Lower, Scope::Udp),
];

/// A name starts with a letter or a digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

/// `(name, unit)` of the metrics `BENCHMARK.json` promises for a traced or
/// an untraced run: those defined on every workload.
pub fn contract(trace: bool) -> Vec<(&'static str, &'static str)> {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit, m.scope));
    let layers = PER_LAYER.iter().map(|m| (m.name, m.unit, m.scope));
    let all = |(name, unit, scope)| (scope == Scope::All).then_some((name, unit));
    if trace {
        layers.filter_map(all).collect()
    } else {
        e2e.filter_map(all).collect()
    }
}

/// `BENCHMARK.json` as the catalogue defines it.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, why)| Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .filter(|m| m.scope == Scope::All)
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::F64(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .filter(|m| m.scope == Scope::All)
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::U64(run_seconds)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("per_layer", Json::Arr(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for ok in ["setup_s", "a.b-c_d", "9lives", "netsim.event.hold_ns.d4096"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "µs",
            "a/b",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("seventeen_letters_"));
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!(
            (setup.unit, setup.better, setup.scope),
            ("s", Lower, Scope::All)
        );
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s gets the largest bound");
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(PER_LAYER.iter().filter(|m| m.scope == Scope::All).count() <= 128);
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = on_disk
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(on_disk, benchmark_json(run_seconds));
        assert!(text.len() <= 64 * 1024);
    }
}
