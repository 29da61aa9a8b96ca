//! Cluster-side telemetry aggregation: the collector state behind `son-top`.
//!
//! A [`ClusterState`] ingests [`TelemetrySnapshot`]s through one
//! [`ClusterState::ingest_line`], a datagram off the collector socket and a
//! line of a JSONL recording alike, and keeps per-node liveness (received /
//! lost / duplicate accounting off the seq numbers) plus the latest
//! snapshot per node. [`ClusterState::ingest`] is the one place the seq
//! rules live; `son-trace --self-check` audits exports through it.
//! [`Collector`] is the one receive loop, under `son-top --listen` and
//! `son-exp udp_parity`. [`ClusterState::rollup`] renders the cluster view
//! `son-top` displays and CI gates on; it deliberately contains no
//! wall-clock-derived field, so the same snapshots produce byte-identical
//! roll-ups whether they arrived live or from a recording.
//!
//! `son-top --gate` evaluates a [`crate::Gate`] (`delivery>=0.95,stale<=2`)
//! against the roll-up: each clause names one of its numeric fields, and a
//! breach makes `son-top` exit non-zero so scripts can use it as a cluster
//! health check.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, ErrorKind, Write as _};
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::time::{Duration, Instant};

use son_obs::snapshot::{TelemetrySnapshot, EPOCH_NS};
use son_obs::{Json, LatencyHistogram};

/// Epochs of silence after which a node is considered departed (left or
/// crashed) rather than stale: it is excluded from the `stale` roll-up —
/// a member that left must not breach a `stale<=N` gate forever — and
/// reported under `departed` instead. Matches the overlay's detection
/// cadence (3 maintenance epochs) with slack for collector jitter.
pub const DEPART_EPOCHS: u64 = 6;

/// Per-node collector state: the latest snapshot plus seq accounting.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Most recent (highest-seq) snapshot from this node.
    pub latest: TelemetrySnapshot,
    /// Driver time of the first snapshot seen, ns.
    pub first_at_ns: u64,
    /// Snapshots ingested.
    pub received: u64,
    /// Seq numbers skipped (loss made visible by the numbering).
    pub lost: u64,
    /// Duplicate or reordered-late snapshots (seq at or below the max).
    pub dup: u64,
    /// Highest seq seen.
    pub max_seq: u64,
}

/// The whole collector: per-node state keyed by node id (ordered, so every
/// derived view is deterministic), plus ingest health.
#[derive(Debug, Default)]
pub struct ClusterState {
    nodes: BTreeMap<u32, NodeState>,
    /// Datagrams that failed the telemetry codec.
    pub decode_errors: u64,
}

impl ClusterState {
    /// An empty collector.
    #[must_use]
    pub fn new() -> ClusterState {
        ClusterState::default()
    }

    /// Ingests one decoded snapshot, updating liveness accounting.
    pub fn ingest(&mut self, snap: TelemetrySnapshot) {
        match self.nodes.get_mut(&snap.node) {
            None => {
                // First sighting. The node may have just joined the
                // cluster mid-run, or the collector may have started late:
                // either way seqs before this one are history, not loss.
                self.nodes.insert(
                    snap.node,
                    NodeState {
                        first_at_ns: snap.at_ns,
                        received: 1,
                        lost: 0,
                        dup: 0,
                        max_seq: snap.seq,
                        latest: snap,
                    },
                );
            }
            Some(ns) => {
                ns.received += 1;
                let seen_restarts = ns.latest.restarts;
                if snap.restarts > seen_restarts {
                    // The node restarted (rejoined): its seq numbering
                    // reset — a fresh incarnation, not loss.
                    ns.max_seq = snap.seq;
                    ns.latest = snap;
                } else if snap.restarts < seen_restarts {
                    // Straggler from a previous incarnation.
                    ns.dup += 1;
                } else if snap.seq > ns.max_seq {
                    ns.lost = ns.lost.saturating_add(snap.seq - ns.max_seq - 1);
                    ns.max_seq = snap.seq;
                    ns.latest = snap;
                } else {
                    ns.dup += 1;
                }
            }
        }
    }

    /// Ingests one datagram or recorded line (the same bytes) and returns
    /// whether it was a snapshot. What [`TelemetrySnapshot::decode`] refuses,
    /// a row of another kind included, counts in `decode_errors`, and so
    /// does a datagram with a newline, which a recording would split in two.
    pub fn ingest_line(&mut self, line: &[u8]) -> bool {
        match TelemetrySnapshot::decode(line) {
            Ok(snap) if !line.contains(&b'\n') => {
                self.ingest(snap);
                true
            }
            _ => {
                self.decode_errors += 1;
                false
            }
        }
    }

    /// Replays a recording or a sim-leg export: each non-blank line goes
    /// through [`ClusterState::ingest_line`].
    ///
    /// # Errors
    ///
    /// Names the file that could not be read.
    pub fn ingest_file(&mut self, path: &Path) -> Result<(), String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            self.ingest_line(line.as_bytes());
        }
        Ok(())
    }

    /// Nodes heard from.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Per-node state, node-id order.
    pub fn nodes(&self) -> impl Iterator<Item = (&u32, &NodeState)> {
        self.nodes.iter()
    }

    /// Total snapshots ingested.
    #[must_use]
    pub fn snapshots(&self) -> u64 {
        self.nodes.values().map(|n| n.received).sum()
    }

    /// Sums the `total` of every counter whose key starts with `prefix`
    /// across each node's latest snapshot.
    fn sum_totals(&self, prefix: &str) -> u64 {
        sum(self
            .nodes
            .values()
            .flat_map(|n| n.latest.counters.iter())
            .filter(|c| key_name(&c.key) == prefix || c.key.starts_with(prefix))
            .map(|c| c.total))
    }

    /// The cluster roll-up `son-top` renders and gates on. `top_n` bounds
    /// the hot-link / hot-flow lists. Every field derives from snapshot
    /// content only — no wall clock — so identical snapshot streams yield
    /// identical roll-ups regardless of arrival timing.
    #[must_use]
    pub fn rollup(&self, top_n: usize) -> Json {
        let latest_at = self
            .nodes
            .values()
            .map(|n| n.latest.at_ns)
            .max()
            .unwrap_or(0);
        let first_at = self
            .nodes
            .values()
            .map(|n| n.first_at_ns)
            .min()
            .unwrap_or(0);
        // A node far enough behind the freshest snapshot has departed
        // (left or crashed); the rest are members, and only members count
        // toward staleness — departure is membership, not collector lag.
        let departed = self
            .nodes
            .values()
            .filter(|n| (latest_at - n.latest.at_ns) / EPOCH_NS >= DEPART_EPOCHS)
            .count() as u64;
        let members = self.nodes.len() as u64 - departed;
        let stale = self
            .nodes
            .values()
            .map(|n| (latest_at - n.latest.at_ns) / EPOCH_NS)
            .filter(|&epochs| epochs < DEPART_EPOCHS)
            .max()
            .unwrap_or(0);
        let lost = sum(self.nodes.values().map(|n| n.lost));
        let dup = sum(self.nodes.values().map(|n| n.dup));
        let restarts = sum(self.nodes.values().map(|n| n.latest.restarts));

        let sent = self.sum_totals("flow.sent");
        let delivered = self.sum_totals("node.delivered_local");
        let delivery = if sent == 0 {
            1.0
        } else {
            delivered as f64 / sent as f64
        };

        // Drop taxonomy: aggregate by counter name, labels stripped.
        let mut drops: BTreeMap<&str, u64> = BTreeMap::new();
        for n in self.nodes.values() {
            for c in &n.latest.counters {
                let name = key_name(&c.key);
                if name.starts_with("drop.") {
                    let drops = drops.entry(name).or_insert(0);
                    *drops = drops.saturating_add(c.total);
                }
            }
        }
        let drops_total = sum(drops.values().copied());

        let reroutes = self.sum_totals("reroutes");
        let span_s = latest_at.saturating_sub(first_at) as f64 / 1e9;
        let reroutes_per_s = if span_s > 0.0 {
            reroutes as f64 / span_s
        } else {
            0.0
        };

        let health = || self.nodes.values().map(|n| &n.latest.health);
        let all_links = || health().flat_map(|h| h.links.iter());
        let suspended = all_links().filter(|l| l.suspended).count() as u64;
        let probing = all_links().filter(|l| l.probing).count() as u64;
        let queue_depth = sum(health().map(|h| h.queue_depth));
        let flows = sum(health().map(|h| h.flows));
        let footprint = sum(health().map(|h| h.footprint_bytes));

        // Cluster delivery latency: merge every node's latest histogram.
        let mut latency = LatencyHistogram::new();
        for n in self.nodes.values() {
            for h in &n.latest.hists {
                if key_name(&h.key) == "node.delivery_latency_ns" {
                    latency.merge(&h.hist);
                }
            }
        }

        // Hot links: suspended first, then deepest backlog; (node, link)
        // breaks ties deterministically.
        let mut links: Vec<(u64, u32, &son_obs::snapshot::LinkHealth)> = self
            .nodes
            .iter()
            .flat_map(|(&id, n)| n.latest.health.links.iter().map(move |l| (id, l)))
            .filter(|(_, l)| l.queue_depth > 0 || l.suspended || l.probing)
            .map(|(id, l)| (l.queue_depth, id, l))
            .collect();
        links.sort_by(|a, b| {
            b.2.suspended
                .cmp(&a.2.suspended)
                .then(b.0.cmp(&a.0))
                .then(a.1.cmp(&b.1))
                .then(a.2.link.cmp(&b.2.link))
        });
        let hot_links = links
            .iter()
            .take(top_n)
            .map(|&(_, node, l)| {
                Json::obj(vec![
                    ("node", Json::U64(u64::from(node))),
                    ("link", Json::U64(u64::from(l.link))),
                    ("neighbor", Json::U64(u64::from(l.neighbor))),
                    ("queue_depth", Json::U64(l.queue_depth)),
                    ("suspended", Json::Bool(l.suspended)),
                    ("probing", Json::Bool(l.probing)),
                ])
            })
            .collect();

        // Hot flows: last-epoch activity (deltas) of flow.* counters,
        // grouped by the flow label across nodes.
        let mut flow_heat: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for n in self.nodes.values() {
            for c in &n.latest.counters {
                if key_name(&c.key).starts_with("flow.") {
                    if let Some(flow) = key_label(&c.key, "flow") {
                        let e = flow_heat.entry(flow.to_owned()).or_insert((0, 0));
                        e.0 = e.0.saturating_add(c.delta);
                        e.1 = e.1.saturating_add(c.total);
                    }
                }
            }
        }
        let mut heat: Vec<(&String, &(u64, u64))> = flow_heat.iter().collect();
        heat.sort_by(|a, b| (b.1 .0, a.0).cmp(&(a.1 .0, b.0)));
        let hot_flows = heat
            .iter()
            .take(top_n)
            .map(|(flow, &(delta, total))| {
                Json::obj(vec![
                    ("flow", Json::str(flow)),
                    ("delta", Json::U64(delta)),
                    ("total", Json::U64(total)),
                ])
            })
            .collect();

        Json::obj(vec![
            ("kind", Json::str("son-top")),
            ("nodes", Json::U64(self.nodes.len() as u64)),
            ("members", Json::U64(members)),
            ("departed", Json::U64(departed)),
            ("snapshots", Json::U64(self.snapshots())),
            ("lost", Json::U64(lost)),
            ("dup", Json::U64(dup)),
            ("decode_errors", Json::U64(self.decode_errors)),
            ("restarts", Json::U64(restarts)),
            ("stale", Json::U64(stale)),
            ("delivery", Json::F64(delivery)),
            ("sent", Json::U64(sent)),
            ("delivered", Json::U64(delivered)),
            ("drops_total", Json::U64(drops_total)),
            (
                "drops",
                Json::Obj(
                    drops
                        .iter()
                        .map(|(k, &v)| ((*k).to_owned(), Json::U64(v)))
                        .collect(),
                ),
            ),
            ("reroutes", Json::U64(reroutes)),
            ("reroutes_per_s", Json::F64(reroutes_per_s)),
            ("suspended_links", Json::U64(suspended)),
            ("probing_links", Json::U64(probing)),
            ("queue_depth", Json::U64(queue_depth)),
            ("flows", Json::U64(flows)),
            ("footprint_bytes", Json::U64(footprint)),
            (
                "p50_latency_ms",
                Json::F64(latency.p50() as f64 / 1_000_000.0),
            ),
            (
                "p99_latency_ms",
                Json::F64(latency.p99() as f64 / 1_000_000.0),
            ),
            ("hot_links", Json::Arr(hot_links)),
            ("hot_flows", Json::Arr(hot_flows)),
        ])
    }
}

/// The live end of the telemetry plane, shared by `son-top --listen` and
/// `son-exp udp_parity`: the socket daemons send snapshots to, the
/// [`ClusterState`] they roll up into, and an optional recording.
#[derive(Debug)]
pub struct Collector {
    socket: UdpSocket,
    /// The address daemons send to.
    pub addr: SocketAddr,
    /// Everything received so far, rolled up.
    pub cluster: ClusterState,
    record: Option<File>,
}

impl Collector {
    /// Binds the collector socket at `addr`, and creates the recording at
    /// `record` if one is asked for.
    ///
    /// # Errors
    ///
    /// Names the bind or the file creation that failed.
    pub fn bind(addr: &str, record: Option<&Path>) -> Result<Collector, String> {
        let socket = UdpSocket::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let addr = socket
            .local_addr()
            .map_err(|e| format!("bind {addr}: {e}"))?;
        let record = record
            .map(|path| File::create(path).map_err(|e| format!("create {}: {e}", path.display())))
            .transpose()?;
        Ok(Collector {
            socket,
            addr,
            cluster: ClusterState::new(),
            record,
        })
    }

    /// Blocks on the socket until `deadline`, ingesting each datagram
    /// through [`ClusterState::ingest_line`] and appending the ones it
    /// accepts verbatim, one per line, to the recording: a replay of the
    /// recording then rolls up to what was ingested live. A deadline
    /// already past still takes one datagram if one is queued.
    ///
    /// # Errors
    ///
    /// A receive error other than a timeout, or a failed write to the
    /// recording.
    pub fn receive_until(&mut self, deadline: Instant) -> io::Result<()> {
        let mut buf = [0; 65_536];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            // `None` would block forever; the socket rounds up to 1 µs.
            let wait = left.max(Duration::from_nanos(1));
            self.socket.set_read_timeout(Some(wait))?;
            match self.socket.recv(&mut buf) {
                Ok(n) => {
                    let datagram = &buf[..n];
                    if self.cluster.ingest_line(datagram) {
                        if let Some(record) = self.record.as_mut() {
                            record.write_all(&[datagram, b"\n"].concat())?;
                        }
                    }
                }
                Err(e) => match e.kind() {
                    ErrorKind::Interrupted => {}
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => return Ok(()),
                    _ => return Err(e),
                },
            }
            if left.is_zero() {
                return Ok(());
            }
        }
    }
}

/// A total of values that remote senders chose: it saturates.
fn sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

/// The counter name of a registry key: everything before the label block.
#[must_use]
pub fn key_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// The value of one label in a registry key (`name{k=v,k2=v2}`).
#[must_use]
pub fn key_label<'a>(key: &'a str, label: &str) -> Option<&'a str> {
    let block = key.strip_suffix('}')?.split_once('{')?.1;
    block.split(',').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == label).then_some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;
    use proptest::prelude::*;
    use son_obs::snapshot::{CounterDelta, LinkHealth, NamedDigest, NodeHealth};

    fn snap(node: u32, seq: u64, sent: u64, delivered: u64) -> TelemetrySnapshot {
        let mut hist = LatencyHistogram::new();
        for v in [90, 1_000, 2_500, 2_500_000] {
            hist.record(v);
        }
        TelemetrySnapshot {
            node,
            seq,
            restarts: 0,
            at_ns: seq * EPOCH_NS,
            wall_ns: 0,
            uptime_ns: seq * EPOCH_NS,
            health: NodeHealth {
                queue_depth: 2,
                links: vec![LinkHealth {
                    link: 0,
                    neighbor: node + 1,
                    queue_depth: 2,
                    suspended: seq > 2,
                    probing: false,
                }],
                flows: 1,
                footprint_bytes: 1000,
            },
            counters: vec![
                CounterDelta {
                    key: format!("flow.sent{{flow=f1,node={node}}}"),
                    total: sent,
                    delta: sent.min(10),
                },
                CounterDelta {
                    key: format!("node.delivered_local{{node={node}}}"),
                    total: delivered,
                    delta: delivered.min(10),
                },
                CounterDelta {
                    key: format!("drop.loss{{node={node}}}"),
                    total: 3,
                    delta: 0,
                },
            ],
            hists: vec![NamedDigest {
                key: format!("node.delivery_latency_ns{{node={node}}}"),
                hist,
            }],
        }
    }

    #[test]
    fn seq_accounting_sees_loss_and_duplicates() {
        let mut c = ClusterState::new();
        c.ingest(snap(0, 0, 10, 0));
        c.ingest(snap(0, 1, 20, 0));
        c.ingest(snap(0, 4, 50, 0)); // 2 and 3 lost
        c.ingest(snap(0, 4, 50, 0)); // duplicate
        c.ingest(snap(0, 3, 40, 0)); // late
        let (_, ns) = c.nodes().next().unwrap();
        assert_eq!(ns.received, 5);
        assert_eq!(ns.lost, 2);
        assert_eq!(ns.dup, 2);
        assert_eq!(ns.max_seq, 4);
        assert_eq!(ns.latest.seq, 4, "late arrival does not regress latest");
    }

    #[test]
    fn first_sighting_of_a_joining_node_is_not_loss() {
        // A node that joins the cluster mid-run starts emitting at a
        // nonzero seq; the collector must not book its history as loss.
        let mut c = ClusterState::new();
        c.ingest(snap(1, 5, 10, 0));
        let (_, ns) = c.nodes().next().unwrap();
        assert_eq!(ns.lost, 0, "pre-sighting seqs are history, not loss");
        assert_eq!(ns.max_seq, 5);
        c.ingest(snap(1, 7, 10, 0)); // 6 skipped after sighting
        let (_, ns) = c.nodes().next().unwrap();
        assert_eq!(ns.lost, 1, "post-sighting gaps still count");
    }

    #[test]
    fn restart_resets_seq_accounting_without_false_loss() {
        let mut c = ClusterState::new();
        c.ingest(snap(0, 7, 10, 0));
        let mut reborn = snap(0, 0, 1, 0);
        reborn.restarts = 1;
        c.ingest(reborn);
        let (_, ns) = c.nodes().next().unwrap();
        assert_eq!(ns.lost, 0, "a seq reset after restart is not loss");
        assert_eq!(ns.dup, 0, "nor is it a duplicate");
        assert_eq!(ns.max_seq, 0, "accounting follows the new incarnation");
        assert_eq!(ns.latest.restarts, 1);

        let mut straggler = snap(0, 9, 10, 0);
        straggler.restarts = 0;
        c.ingest(straggler);
        let (_, ns) = c.nodes().next().unwrap();
        assert_eq!(ns.dup, 1, "old-incarnation stragglers are duplicates");
        assert_eq!(ns.latest.restarts, 1, "and do not regress latest");
    }

    #[test]
    fn rollup_aggregates_across_nodes() {
        let mut c = ClusterState::new();
        c.ingest(snap(0, 3, 100, 0));
        c.ingest(snap(1, 3, 0, 90));
        let r = c.rollup(5);
        assert_eq!(r.get("nodes").and_then(Json::as_u64), Some(2));
        assert_eq!(r.get("sent").and_then(Json::as_u64), Some(100));
        assert_eq!(r.get("delivered").and_then(Json::as_u64), Some(90));
        assert_eq!(r.get("delivery").and_then(Json::as_f64), Some(0.9));
        assert_eq!(r.get("drops_total").and_then(Json::as_u64), Some(6));
        assert_eq!(r.get("suspended_links").and_then(Json::as_u64), Some(2));
        assert_eq!(r.get("stale").and_then(Json::as_u64), Some(0));
        let flows = r.get("hot_flows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            flows[0].get("flow").and_then(Json::as_str),
            Some("f1"),
            "flow label grouped across nodes"
        );
    }

    #[test]
    fn stale_is_epochs_behind_the_freshest_member() {
        let mut c = ClusterState::new();
        c.ingest(snap(0, 10, 1, 1));
        c.ingest(snap(1, 7, 1, 1)); // 3 epochs behind node 0: stale member
        let r = c.rollup(5);
        assert_eq!(r.get("stale").and_then(Json::as_u64), Some(3));
        assert_eq!(r.get("members").and_then(Json::as_u64), Some(2));
        assert_eq!(r.get("departed").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn departed_node_is_excluded_from_staleness() {
        // A member that left stops emitting; it must move to `departed`
        // instead of breaching `stale<=N` gates forever.
        let mut c = ClusterState::new();
        c.ingest(snap(0, 10, 1, 1));
        c.ingest(snap(1, 2, 1, 1)); // 8 epochs behind >= DEPART_EPOCHS
        let r = c.rollup(5);
        assert_eq!(r.get("stale").and_then(Json::as_u64), Some(0));
        assert_eq!(r.get("nodes").and_then(Json::as_u64), Some(2));
        assert_eq!(r.get("members").and_then(Json::as_u64), Some(1));
        assert_eq!(r.get("departed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn gate_on_member_count_works() {
        let mut c = ClusterState::new();
        c.ingest(snap(0, 10, 1, 1));
        c.ingest(snap(1, 10, 1, 1));
        c.ingest(snap(2, 2, 1, 1)); // departed
        let r = c.rollup(5);
        assert!(Gate::parse("members>=2").unwrap().breaches(&r).is_empty());
        let breaches = Gate::parse("members>=3").unwrap().breaches(&r);
        assert_eq!(breaches.len(), 1, "a shrunken fleet breaches the gate");
        assert!(breaches[0].contains("members"));
    }

    #[test]
    fn key_helpers_parse_registry_keys() {
        assert_eq!(key_name("flow.sent{flow=f1,node=3}"), "flow.sent");
        assert_eq!(key_name("reroutes"), "reroutes");
        assert_eq!(key_label("flow.sent{flow=f1,node=3}", "flow"), Some("f1"));
        assert_eq!(key_label("flow.sent{flow=f1,node=3}", "node"), Some("3"));
        assert_eq!(key_label("flow.sent{flow=f1}", "proto"), None);
        assert_eq!(key_label("reroutes", "node"), None);
    }

    /// Every number a well-formed row can carry is one a remote sender
    /// chose: two nodes claiming the largest of each still roll up.
    #[test]
    fn well_formed_extremes_do_not_overflow_the_rollup() {
        let mut c = ClusterState::new();
        for node in 0..2 {
            for seq in [0, u64::MAX] {
                let mut s = snap(node, 0, 0, 0);
                (s.seq, s.at_ns, s.uptime_ns) = (seq, seq, seq);
                s.restarts = u64::MAX;
                s.health.queue_depth = u64::MAX;
                s.health.flows = u64::MAX;
                s.health.footprint_bytes = u64::MAX;
                for counter in &mut s.counters {
                    (counter.total, counter.delta) = (u64::MAX, u64::MAX);
                }
                s.hists[0].hist = LatencyHistogram::from_sparse(
                    u64::MAX,
                    u128::MAX,
                    0,
                    u64::MAX,
                    [(64, u64::MAX)],
                )
                .unwrap();
                assert!(c.ingest_line(&s.encode().unwrap()));
            }
        }
        assert_eq!(c.decode_errors, 0);
        let r = c.rollup(5);
        assert_eq!(r.get("sent").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(r.get("lost").and_then(Json::as_u64), Some(u64::MAX));
        assert!(Json::parse(&r.to_json()).is_ok());
    }

    /// Datagrams from two daemons, a stray non-telemetry row, noise, and a
    /// row split by a newline reach a real collector socket: it ingests the
    /// snapshots, counts the rest, and records exactly the datagrams it
    /// accepted, so the recording replays to the live roll-up.
    #[test]
    fn collector_records_what_it_ingests_verbatim() {
        let path = std::env::temp_dir().join(format!("son-collector-{}.jsonl", std::process::id()));
        let mut collector = Collector::bind("127.0.0.1:0", Some(&path)).unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        sender.connect(collector.addr).unwrap();
        let good: Vec<Vec<u8>> = [snap(0, 0, 10, 0), snap(1, 0, 0, 9), snap(0, 2, 20, 0)]
            .iter()
            .map(|s| s.encode().unwrap())
            .collect();
        let split = snap(1, 1, 0, 9)
            .row_json()
            .replace(",\"seq\"", "\n,\"seq\"");
        let bad = [
            &br#"{"kind":"trace","at_ns":5}"#[..],
            &[0xff, 0x00],
            split.as_bytes(),
        ];
        for datagram in good.iter().map(Vec::as_slice).chain(bad) {
            sender.send(datagram).unwrap();
        }
        // Loopback queues each datagram before `send` returns.
        let until = Instant::now() + Duration::from_millis(200);
        collector.receive_until(until).unwrap();
        let recording = std::fs::read(&path).unwrap();
        assert_eq!(recording, [&good.join(&b'\n')[..], b"\n"].concat());
        assert_eq!(collector.cluster.snapshots(), 3);
        assert_eq!(collector.cluster.decode_errors, 3);
        let mut replay = ClusterState::new();
        replay.ingest_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // The recording holds what was accepted, and nothing of the rest.
        let mut live = collector.cluster;
        live.decode_errors = 0;
        assert_eq!(replay.rollup(5).to_json(), live.rollup(5).to_json());
    }

    /// One datagram at a collector that already holds an intact neighbour:
    /// it is either ingested or counted as a decode error, and an accepted
    /// one replays from its recorded line to the same roll-up. Returns
    /// whether it was accepted.
    fn collect(datagram: &[u8]) -> bool {
        let mut live = ClusterState::new();
        live.ingest(snap(0, 3, 100, 90));
        let accepted = live.ingest_line(datagram);
        assert_eq!(live.snapshots() + live.decode_errors, 2);
        if accepted {
            let mut replay = ClusterState::new();
            replay.ingest(snap(0, 3, 100, 90));
            let recorded = String::from_utf8([datagram, b"\n"].concat()).unwrap();
            assert!(recorded
                .lines()
                .all(|line| replay.ingest_line(line.as_bytes())));
            assert_eq!(live.rollup(5).to_json(), replay.rollup(5).to_json());
        }
        assert!(Json::parse(&live.rollup(5).to_json()).is_ok());
        accepted
    }

    /// Every single-byte change of a row datagram (four values per byte,
    /// two of which always break its UTF-8) and every truncation of it is
    /// either refused by the decoder or rolls up next to an intact
    /// neighbour.
    #[test]
    fn single_byte_mutations_never_panic_the_collector() {
        let datagram = snap(1, 3, 100, 90).encode().unwrap();
        let (mut refused, mut accepted) = (0, 0);
        for (at, &b) in datagram.iter().enumerate() {
            for byte in [0x00, 0xff, b ^ 0x80, b.wrapping_add(1)] {
                let mut bad = datagram.clone();
                bad[at] = byte;
                if collect(&bad) {
                    accepted += 1;
                } else {
                    refused += 1;
                }
            }
        }
        assert!(
            refused > 0 && accepted > 0,
            "{refused} refused, {accepted} accepted"
        );
        for len in 0..datagram.len() {
            assert!(!collect(&datagram[..len]), "accepted the first {len} B");
        }
        assert!(collect(&datagram));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever lands on the collector's socket — noise, a row with
        /// noise for a counter key, a valid row with a few bytes rewritten
        /// or cut short — goes through decode, ingest and roll-up without a
        /// panic, and is either ingested or counted.
        fn no_datagram_panics_the_collector(
            noise in proptest::collection::vec(any::<u8>(), 0..400),
            edits in proptest::collection::vec((0usize..4096, any::<u8>()), 1..5),
            cut in 0usize..4096,
        ) {
            let mut c = ClusterState::new();
            c.ingest_line(&noise);
            collect(&noise);
            let mut keyed = snap(3, 3, 100, 90);
            keyed.counters[0].key = String::from_utf8_lossy(&noise).into_owned();
            prop_assert!(c.ingest_line(&keyed.encode().unwrap()), "any key is escaped");
            for node in 0..3 {
                let mut datagram = snap(node, 3, 100, 90).encode().unwrap();
                for &(at, byte) in &edits {
                    let at = (at + node as usize) % datagram.len();
                    datagram[at] = byte;
                }
                c.ingest_line(&datagram);
                collect(&datagram);
            }
            let intact = snap(4, 3, 100, 90).encode().unwrap();
            prop_assert!(!c.ingest_line(&intact[..cut % intact.len()]));
            prop_assert!(c.snapshots() + c.decode_errors == 6);
            prop_assert!(Json::parse(&c.rollup(5).to_json()).is_ok());
        }

        /// Whatever a replayed export line holds — noise, or a valid
        /// telemetry, trace or watch row with a few bytes rewritten — goes
        /// through `Json::parse`, the row decoders and `ingest_line` without
        /// a panic.
        fn no_line_panics_the_row_readers(
            noise in proptest::collection::vec(any::<u8>(), 0..400),
            edits in proptest::collection::vec((0usize..4096, any::<u8>()), 1..5),
        ) {
            let rows = [
                snap(1, 3, 100, 90).row_json(),
                r#"{"run":"r","kind":"trace","at_ns":91206,"trace":7157,"node":1,"hop":1,"stage":"recovered","after_ns":204,"link":0,"flow":1324,"seq":1717}"#.to_owned(),
                r#"{"run":"r","kind":"watch","at_ns":5500,"node":0,"what":"link_suspended","link":2,"strikes":3}"#.to_owned(),
            ];
            let mut lines = vec![noise];
            for row in rows {
                let mut bytes = row.into_bytes();
                for &(at, byte) in &edits {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
                lines.push(bytes);
            }
            let mut c = ClusterState::new();
            for line in &lines {
                let line = String::from_utf8_lossy(line);
                if let Ok(row) = Json::parse(&line) {
                    let _ = son_obs::TraceEvent::from_row(&row);
                    let _ = son_obs::WatchEvent::from_row(&row);
                }
                c.ingest_line(line.as_bytes());
            }
            prop_assert!(c.snapshots() + c.decode_errors == 4);
            prop_assert!(Json::parse(&c.rollup(5).to_json()).is_ok());
        }
    }
}
