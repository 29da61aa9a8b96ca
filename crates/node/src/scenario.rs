//! Scenario configs shared by the simulator and the UDP cluster harness.
//!
//! One JSON file describes a complete experiment — topology, link
//! characteristics, the flow under test, and an optional mid-run link
//! blackout — and both worlds interpret it through one lowering
//! ([`Scenario::overlay`], [`Scenario::flow`], [`Scenario::blackout`]):
//! [`Scenario::fleet`] is the simulator leg, and each `son-node` process
//! builds its local slice of the same overlay. One description, read in one
//! place, is what makes "the sim is a peer of the real transport" checkable
//! rather than aspirational.

use son_netsim::loss::LossConfig;
use son_netsim::time::{SimDuration, SimTime};
use son_obs::Json;
use son_overlay::builder::{chain_topology, OverlayBuilder};
use son_overlay::client::Workload;
use son_overlay::{Fleet, FlowSpec, NodeConfig};
use son_topo::{EdgeId, Graph, NodeId};

/// Overlay topology shape. The parity experiments only need the paper's
/// two canonical shapes: the Fig. 3 chain (E1) and a ring, which gives
/// every pair of nodes an alternate path for rerouting runs (E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// A linear chain of `nodes` nodes.
    Chain,
    /// A chain plus the closing edge — one alternate path everywhere.
    Ring,
}

/// A mid-run blackout of one overlay link, identified by its endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// One endpoint of the victim edge.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// Blackout start, ms after the epoch.
    pub from_ms: u64,
    /// Blackout end, ms after the epoch.
    pub to_ms: u64,
}

/// One experiment, describable to both the simulator and a UDP cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, carried into result rows.
    pub name: String,
    /// Topology shape.
    pub topo: TopoKind,
    /// Node count.
    pub nodes: usize,
    /// One-way latency per overlay link, ms.
    pub hop_ms: f64,
    /// Independent per-frame loss probability on every link direction.
    pub loss: f64,
    /// Link service of the flow under test: `best_effort` or `reliable`.
    pub spec: String,
    /// Optional end-to-end deadline for delivery accounting, ms.
    pub deadline_ms: Option<f64>,
    /// Sending overlay node.
    pub from: u32,
    /// Receiving overlay node.
    pub to: u32,
    /// Packets to send.
    pub count: u64,
    /// Payload bytes per packet.
    pub size: usize,
    /// Packet interval, µs.
    pub interval_us: u64,
    /// Workload start, ms after the epoch (leave room for routing to
    /// converge: the daemons need a few hello rounds first).
    pub start_ms: u64,
    /// Run length, ms after the epoch.
    pub run_for_ms: u64,
    /// Master seed for every deterministic choice (loss rolls, per-process
    /// RNG streams).
    pub seed: u64,
    /// Ingress trace sampling: 1-in-`trace_sample` packets carry a
    /// `TraceContext` (0 disables).
    pub trace_sample: u32,
    /// Run the anomaly watchdog (`son-watch`) on every daemon; its audit
    /// events are exported alongside the traces.
    pub watch: bool,
    /// Run the membership maintenance protocol (join/leave floods, crash
    /// detection epochs, departed-state eviction) on every daemon; required
    /// for a `--seed-peer` joiner to be admitted.
    pub membership: bool,
    /// Optional link blackout (E3-style rerouting scenarios).
    pub outage: Option<Outage>,
}

impl Scenario {
    /// Parses a scenario JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn parse(input: &str) -> Result<Scenario, String> {
        let json = Json::parse(input)?;
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("scenario: missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("scenario: missing integer field {key:?}"))
        };
        let f64_field = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("scenario: missing number field {key:?}"))
        };
        let topo = match str_field("topology")?.as_str() {
            "chain" => TopoKind::Chain,
            "ring" => TopoKind::Ring,
            other => return Err(format!("scenario: unknown topology {other:?}")),
        };
        let outage = match json.get("outage") {
            None | Some(Json::Null) => None,
            Some(o) => {
                let field = |key: &str| -> Result<u64, String> {
                    o.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("scenario: outage is missing field {key:?}"))
                };
                Some(Outage {
                    a: u32::try_from(field("a")?).map_err(|_| "outage node id".to_owned())?,
                    b: u32::try_from(field("b")?).map_err(|_| "outage node id".to_owned())?,
                    from_ms: field("from_ms")?,
                    to_ms: field("to_ms")?,
                })
            }
        };
        let scenario = Scenario {
            name: str_field("name")?,
            topo,
            nodes: usize::try_from(u64_field("nodes")?).map_err(|_| "node count".to_owned())?,
            hop_ms: f64_field("hop_ms")?,
            loss: json.get("loss").and_then(Json::as_f64).unwrap_or(0.0),
            spec: str_field("spec")?,
            deadline_ms: json.get("deadline_ms").and_then(Json::as_f64),
            from: u32::try_from(u64_field("from")?).map_err(|_| "from".to_owned())?,
            to: u32::try_from(u64_field("to")?).map_err(|_| "to".to_owned())?,
            count: u64_field("count")?,
            size: usize::try_from(u64_field("size")?).map_err(|_| "size".to_owned())?,
            interval_us: u64_field("interval_us")?,
            start_ms: u64_field("start_ms")?,
            run_for_ms: u64_field("run_for_ms")?,
            seed: u64_field("seed")?,
            trace_sample: u32::try_from(
                json.get("trace_sample").and_then(Json::as_u64).unwrap_or(0),
            )
            .map_err(|_| "trace_sample".to_owned())?,
            watch: json.get("watch").and_then(Json::as_bool).unwrap_or(false),
            membership: json
                .get("membership")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            outage,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Everything the lowering ([`Scenario::overlay`], [`Scenario::flow`],
    /// [`Scenario::blackout`]) assumes about the fields, checked once so a
    /// bad file is an `Err` here rather than a panic there.
    fn validate(&self) -> Result<(), String> {
        // Every link needs its own bit of a source-route mask.
        let max_nodes = match self.topo {
            TopoKind::Chain => son_topo::graph::MAX_EDGES + 1,
            TopoKind::Ring => son_topo::graph::MAX_EDGES,
        };
        if !(2..=max_nodes).contains(&self.nodes) {
            return Err(format!(
                "scenario: a {:?} needs 2..={max_nodes} nodes, not {}",
                self.topo, self.nodes
            ));
        }
        if self.from as usize >= self.nodes || self.to as usize >= self.nodes {
            return Err("scenario: from/to out of range".to_owned());
        }
        if !(self.hop_ms.is_finite() && self.hop_ms > 0.0) {
            return Err("scenario: hop_ms must be finite and positive".to_owned());
        }
        if !(0.0..=1.0).contains(&self.loss) {
            return Err("scenario: loss must be within [0, 1]".to_owned());
        }
        if self
            .deadline_ms
            .is_some_and(|d| !(d.is_finite() && d >= 0.0))
        {
            return Err("scenario: deadline_ms must be finite and non-negative".to_owned());
        }
        if !(1..=u64::MAX / 1_000).contains(&self.interval_us) {
            return Err("scenario: interval_us out of range".to_owned());
        }
        let outage = self.outage.map_or([0; 2], |o| [o.from_ms, o.to_ms]);
        if [self.start_ms, self.run_for_ms, outage[0], outage[1]]
            .iter()
            .any(|&ms| ms > u64::MAX / 1_000_000)
        {
            return Err("scenario: a millisecond field overflows the clock".to_owned());
        }
        if let Some(o) = self.outage {
            let (a, b) = (NodeId(o.a as usize), NodeId(o.b as usize));
            if a.0 >= self.nodes || self.topology().edge_between(a, b).is_none() {
                return Err(format!("scenario: no link {}-{} to black out", o.a, o.b));
            }
            if o.from_ms > o.to_ms {
                return Err("scenario: outage ends before it starts".to_owned());
            }
        }
        self.flow_spec().map(|_| ())
    }

    /// Renders the scenario back to its JSON document form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            (
                "topology",
                Json::str(match self.topo {
                    TopoKind::Chain => "chain",
                    TopoKind::Ring => "ring",
                }),
            ),
            ("nodes", Json::U64(self.nodes as u64)),
            ("hop_ms", Json::F64(self.hop_ms)),
            ("loss", Json::F64(self.loss)),
            ("spec", Json::str(&self.spec)),
        ];
        if let Some(d) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::F64(d)));
        }
        pairs.extend([
            ("from", Json::U64(u64::from(self.from))),
            ("to", Json::U64(u64::from(self.to))),
            ("count", Json::U64(self.count)),
            ("size", Json::U64(self.size as u64)),
            ("interval_us", Json::U64(self.interval_us)),
            ("start_ms", Json::U64(self.start_ms)),
            ("run_for_ms", Json::U64(self.run_for_ms)),
            ("seed", Json::U64(self.seed)),
            ("trace_sample", Json::U64(u64::from(self.trace_sample))),
            ("watch", Json::Bool(self.watch)),
            ("membership", Json::Bool(self.membership)),
        ]);
        if let Some(o) = self.outage {
            pairs.push((
                "outage",
                Json::obj(vec![
                    ("a", Json::U64(u64::from(o.a))),
                    ("b", Json::U64(u64::from(o.b))),
                    ("from_ms", Json::U64(o.from_ms)),
                    ("to_ms", Json::U64(o.to_ms)),
                ]),
            ));
        }
        Json::obj(pairs).to_json()
    }

    /// Builds the overlay graph this scenario describes.
    #[must_use]
    pub fn topology(&self) -> Graph {
        let mut g = chain_topology(self.nodes, self.hop_ms);
        if self.topo == TopoKind::Ring {
            g.add_edge(NodeId(self.nodes - 1), NodeId(0), self.hop_ms);
        }
        g
    }

    /// The flow spec of the flow under test, or an error for an unknown
    /// `spec` string.
    fn flow_spec(&self) -> Result<FlowSpec, String> {
        let base = match self.spec.as_str() {
            "best_effort" => FlowSpec::best_effort(),
            "reliable" => FlowSpec::reliable(),
            other => return Err(format!("scenario: unknown spec {other:?}")),
        };
        Ok(match self.deadline_ms {
            Some(d) => base.with_deadline(SimDuration::from_millis_f64(d)),
            None => base,
        })
    }

    /// The deployment recipe both legs build from: the topology, one
    /// [`NodeConfig`] for every daemon, and the loss on every link.
    #[must_use]
    pub fn overlay(&self) -> OverlayBuilder {
        let config = NodeConfig {
            trace_sample: self.trace_sample,
            watch: self.watch,
            membership: self.membership,
            ..NodeConfig::default()
        };
        let loss = if self.loss > 0.0 {
            LossConfig::Bernoulli { p: self.loss }
        } else {
            LossConfig::Perfect
        };
        OverlayBuilder::new(self.topology())
            .node_config(config)
            .default_loss(loss)
    }

    /// The flow under test: its `(from, to)` nodes, spec and CBR workload
    /// (panics on an unknown `spec`, which a parsed scenario has not).
    #[must_use]
    pub fn flow(&self) -> ((NodeId, NodeId), FlowSpec, Workload) {
        let ends = (NodeId(self.from as usize), NodeId(self.to as usize));
        let spec = self.flow_spec().expect("validated at parse");
        let (size, count) = (self.size, self.count);
        let interval = SimDuration::from_nanos(self.interval_us * 1_000);
        let start = SimTime::from_millis(self.start_ms);
        let workload = Workload::Cbr {
            size,
            interval,
            count,
            start,
        };
        (ends, spec, workload)
    }

    /// The blacked-out link and its window `[from, to)`, if any.
    #[must_use]
    pub fn blackout(&self) -> Option<(EdgeId, SimTime, SimTime)> {
        let o = self.outage?;
        let (a, b) = (NodeId(o.a as usize), NodeId(o.b as usize));
        let edge = self
            .topology()
            .edge_between(a, b)
            .expect("validated at parse");
        let at = SimTime::from_millis;
        Some((edge, at(o.from_ms), at(o.to_ms)))
    }

    /// The simulator leg: the deployment, the flow's clients and the
    /// blackout, in a simulation seeded with the scenario's seed.
    #[must_use]
    pub fn fleet(&self) -> Fleet {
        let mut fleet = Fleet::new(self.seed, None, self.overlay());
        let ((from, to), spec, workload) = self.flow();
        fleet.flow(from, to, spec, workload);
        if let Some((edge, from, to)) = self.blackout() {
            fleet.edge_outage(edge, from, to.saturating_since(from));
        }
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            name: "e1".to_owned(),
            topo: TopoKind::Ring,
            nodes: 5,
            hop_ms: 10.0,
            loss: 0.01,
            spec: "reliable".to_owned(),
            deadline_ms: Some(200.0),
            from: 0,
            to: 3,
            count: 100,
            size: 200,
            interval_us: 5000,
            start_ms: 500,
            run_for_ms: 4000,
            seed: 7,
            trace_sample: 16,
            watch: true,
            membership: true,
            outage: Some(Outage {
                a: 1,
                b: 2,
                from_ms: 1000,
                to_ms: 2000,
            }),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let s = sample();
        assert_eq!(Scenario::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn ring_closes_the_chain() {
        let s = sample();
        assert_eq!(s.topology().edge_count(), 5);
        let mut chain = s;
        chain.topo = TopoKind::Chain;
        assert_eq!(chain.topology().edge_count(), 4);
    }

    #[test]
    fn rejects_what_would_panic_later() {
        let reject = |edit: &dyn Fn(&mut Scenario)| {
            let mut s = sample();
            edit(&mut s);
            assert!(Scenario::parse(&s.to_json()).is_err(), "accepted {s:?}");
        };
        reject(&|s| s.deadline_ms = Some(-1.0));
        reject(&|s| s.hop_ms = 0.0);
        reject(&|s| s.hop_ms = -2.5);
        reject(&|s| s.loss = 1.5);
        reject(&|s| s.interval_us = 0);
        reject(&|s| s.interval_us = u64::MAX / 1_000 + 1);
        reject(&|s| s.run_for_ms = u64::MAX / 1_000_000 + 1);
        reject(&|s| s.nodes = 257);
        reject(&|s| s.outage.as_mut().unwrap().b = 3);
        reject(&|s| s.outage.as_mut().unwrap().b = 9);
        reject(&|s| s.outage.as_mut().unwrap().to_ms = 999);
        let mut chain = sample();
        (chain.topo, chain.nodes, chain.outage) = (TopoKind::Chain, 257, None);
        assert!(Scenario::parse(&chain.to_json()).is_ok(), "256 links fit");
        let mut ring = sample();
        let closing = ring.outage.as_mut().unwrap();
        (closing.a, closing.b, closing.to_ms) = (4, 0, closing.from_ms);
        assert!(Scenario::parse(&ring.to_json()).is_ok(), "the closing link");
    }

    /// What every consumer does with a scenario it was handed: lower it.
    fn survives(s: &Scenario) {
        let _ = (s.overlay(), s.blackout());
        let (_, _, workload) = s.flow();
        assert!(matches!(workload, Workload::Cbr { interval, .. } if interval > SimDuration::ZERO));
    }

    #[test]
    fn parse_never_panics_and_what_it_accepts_is_usable() {
        let mut rng = son_netsim::rng::SimRng::seed(0x5ce0);
        let valid = sample().to_json();
        let values: Vec<&str> = "0 1 2 -1 -0.5 0.5 1e300 -1e300 1e-300 256 257 4294967296 \
            18446744073709551 18446744073709552 18446744073709551615 99999999999999999999 \
            null true \"x\" [] {}"
            .split(' ')
            .collect();
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..4000 {
            // Mutated-valid: replace the values of one to three fields.
            let mut doc = valid.clone();
            for _ in 0..rng.uniform_u64(1, 4) {
                let colons: Vec<usize> = doc.match_indices(':').map(|(i, _)| i + 1).collect();
                let at = *rng.choose(&colons).unwrap();
                let end = doc[at..].find([',', '}']).map_or(doc.len(), |len| at + len);
                doc.replace_range(at..end, rng.choose(&values).unwrap());
            }
            // Arbitrary: every so often, cut the (ASCII) document short or
            // splice in a stray byte.
            let at = rng.uniform_u64(0, doc.len() as u64) as usize;
            if round % 5 == 0 {
                doc.truncate(at);
            } else if round % 7 == 0 {
                doc.insert(at, *rng.choose(&['{', '"', '-', '9', ',', '\\']).unwrap());
            }
            match Scenario::parse(&doc) {
                Ok(s) => {
                    survives(&s);
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted > 100 && rejected > 100,
            "{accepted} ok, {rejected} err"
        );
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(Scenario::parse("{}").is_err());
        let mut s = sample();
        s.spec = "quantum".to_owned();
        assert!(Scenario::parse(&s.to_json()).is_err());
        let mut s = sample();
        s.to = 9;
        assert!(Scenario::parse(&s.to_json()).is_err());
    }
}
