//! Streaming telemetry snapshots: the live-cluster health plane.
//!
//! Exit-time JSONL exports answer "what happened"; a running cluster needs
//! "what is happening". A [`SnapshotProducer`] renders one compact,
//! versioned [`TelemetrySnapshot`] per telemetry epoch from a node's
//! metrics [`Registry`] plus its [`NodeHealth`] block
//! (queue depths, per-link watch state, flow occupancy, footprint).
//!
//! A snapshot has one encoding, the JSONL row of
//! [`TelemetrySnapshot::write_row_json`]. The simulator leg writes it
//! through `Fleet::run_with_telemetry`; a real `son-node` daemon sends
//! exactly those bytes, one row per best-effort UDP datagram
//! ([`TelemetrySnapshot::encode`]); and a collector reads a datagram and a
//! recorded line through the same [`TelemetrySnapshot::decode`], which is
//! [`TelemetrySnapshot::from_row`] behind a UTF-8 check and [`Json::parse`].
//! So an aggregator cannot tell (modulo wall-clock fields) which leg fed
//! it, and rows are seq-numbered so the collector can *see* loss instead of
//! guessing.
//!
//! ## Counters travel as deltas, histograms whole
//!
//! Counter rows carry the cumulative total *and* the delta since the last
//! emission. Deltas come from a producer-side baseline map and **never
//! wrap**: when a current value is below its baseline (the instrumented
//! process restarted between emissions — the E3 reboot-loop campaign does
//! exactly this), the producer re-baselines (delta = current value) and
//! bumps the snapshot's visible `restarts` count rather than emitting a
//! wrapped 2^64-ish delta. A snapshot carries each [`LatencyHistogram`]
//! itself; count/sum/min/max plus the sparse list of non-empty buckets is
//! only its *encoding*, so the aggregator merges with
//! [`LatencyHistogram::merge`] and is exact for the same reason in-process
//! merging is. The decoder rebuilds through
//! [`LatencyHistogram::from_sparse`], which rejects a bucket list no
//! histogram could have produced, and names the rule it broke.

use std::collections::HashMap;

use crate::json::Json;
use crate::registry::Registry;
use crate::LatencyHistogram;

/// Telemetry row version (`v`); bumped on any schema change.
pub const TELEMETRY_VERSION: u8 = 1;

/// The largest payload one UDP/IPv4 datagram carries: the longest row a
/// daemon can send as one snapshot.
pub const MAX_DATAGRAM_BYTES: usize = 65_507;

/// The telemetry epoch, ns: a daemon renders one snapshot every 500 ms, on
/// both legs, and a collector counts staleness in these epochs.
pub const EPOCH_NS: u64 = 500_000_000;

/// What can go wrong encoding or decoding a telemetry datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// The row is this many bytes, more than [`MAX_DATAGRAM_BYTES`].
    TooLarge(usize),
    /// The datagram is not valid UTF-8.
    BadUtf8,
    /// The text is not a telemetry row: the message names the parse error,
    /// the missing or ill-typed field, or the rule a histogram broke.
    BadRow(String),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::TooLarge(n) => write!(f, "a {n} B telemetry row exceeds one datagram"),
            TelemetryError::BadUtf8 => write!(f, "telemetry datagram is not valid UTF-8"),
            TelemetryError::BadRow(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// One incident link's health as exported into a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHealth {
    /// Local link index.
    pub link: u32,
    /// Overlay node id of the far end.
    pub neighbor: u32,
    /// Frames queued across this link's protocol instances.
    pub queue_depth: u64,
    /// The watchdog holds this link suspended (strikes exhausted).
    pub suspended: bool,
    /// The watchdog is probing this link for readmission.
    pub probing: bool,
}

/// The non-registry half of a snapshot: live structural health the node
/// reads directly off its subsystems (the overlay crate builds this; the
/// producer only carries it).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeHealth {
    /// Total frames queued across all link protocols.
    pub queue_depth: u64,
    /// Per-link state, local link order.
    pub links: Vec<LinkHealth>,
    /// FlowTable occupancy (live flow contexts).
    pub flows: u64,
    /// Retained-heap roll-up (`MemFootprint` total), bytes.
    pub footprint_bytes: u64,
}

/// One counter's reading: the registry key, the cumulative total, and the
/// never-wrapping delta since the previous emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Registry key (`name{label=value,...}`).
    pub key: String,
    /// Cumulative value at snapshot time.
    pub total: u64,
    /// Increase since the previous snapshot; re-baselined (= `total`) when
    /// the counter regressed, never wrapped.
    pub delta: u64,
}

/// One histogram's reading: the registry key and the histogram
/// (cumulative — the aggregator keeps the latest one per key per node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedDigest {
    /// Registry key (`name{label=value,...}`).
    pub key: String,
    /// The histogram as the registry held it at snapshot time.
    pub hist: LatencyHistogram,
}

/// `min` as a row carries it: an empty histogram's is `u64::MAX`.
fn wire_min(h: &LatencyHistogram) -> u64 {
    if h.is_empty() {
        u64::MAX
    } else {
        h.min()
    }
}

/// One node's health snapshot for one telemetry epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Overlay node id of the producer.
    pub node: u32,
    /// Emission sequence number, starting at 0 — a collector detects loss
    /// by gaps and producer restarts by regressions.
    pub seq: u64,
    /// Times the producer re-baselined a regressed counter set (visible
    /// restart indicator).
    pub restarts: u64,
    /// Driver time of the snapshot, ns since the run epoch.
    pub at_ns: u64,
    /// Host wall clock, ns: since the Unix epoch on the real leg, since the
    /// simulation was built on the sim leg (a tick whose `wall_ns` jumps
    /// while `at_ns` advances by one epoch is a host stall).
    pub wall_ns: u64,
    /// Time since this producer first emitted, ns.
    pub uptime_ns: u64,
    /// Structural health block.
    pub health: NodeHealth,
    /// Counter readings (registration order).
    pub counters: Vec<CounterDelta>,
    /// Histograms (registration order), non-empty ones only.
    pub hists: Vec<NamedDigest>,
}

// ---------------------------------------------------------------- producer

/// Renders per-epoch [`TelemetrySnapshot`]s from a node's registry and
/// health block, holding the counter baselines between emissions.
///
/// The baseline is a vector of `(rendered key, last total)` in registration
/// order rather than a map: within one registry incarnation counters are
/// append-only and their order is stable, so the steady-state `produce`
/// revalidates each cached key in place
/// ([`InstrumentDesc::key_matches`](crate::registry::InstrumentDesc::key_matches),
/// no allocation) instead of re-rendering and re-hashing every key every
/// epoch. Only when the registry disagrees with the cache (a restarted
/// incarnation) does it fall back to keyed matching.
#[derive(Debug)]
pub struct SnapshotProducer {
    node: u32,
    seq: u64,
    restarts: u64,
    started_at_ns: Option<u64>,
    baseline: Vec<(String, u64)>,
}

impl SnapshotProducer {
    /// A producer for node `node`; the first emission carries seq 0 and
    /// deltas equal to the totals.
    #[must_use]
    pub fn new(node: u32) -> SnapshotProducer {
        SnapshotProducer {
            node,
            seq: 0,
            restarts: 0,
            started_at_ns: None,
            baseline: Vec::new(),
        }
    }

    /// Renders the next snapshot. Counter deltas are `current - baseline`,
    /// except that a regressed counter (the instrumented process restarted
    /// and lost its state between emissions) **re-baselines**: its delta is
    /// its current value, the snapshot's `restarts` count is bumped once
    /// per such emission, and the baseline map is rebuilt from the current
    /// registry only — so counters of a dead incarnation cannot resurface
    /// as wrapped deltas later.
    pub fn produce(
        &mut self,
        at_ns: u64,
        wall_ns: u64,
        registry: &Registry,
        health: &NodeHealth,
    ) -> TelemetrySnapshot {
        let started = *self.started_at_ns.get_or_insert(at_ns);
        let mut regressed = false;
        let mut counters = Vec::with_capacity(self.baseline.len().max(16));
        // Steady state: the registry still carries every baselined counter,
        // in order (registries are append-only within an incarnation), so
        // the cached key strings are reusable as-is and the whole pass
        // allocates nothing beyond the snapshot's own key clones.
        let aligned = registry.counters().count() >= self.baseline.len()
            && registry
                .counters()
                .zip(self.baseline.iter())
                .all(|((desc, _), (key, _))| desc.key_matches(key));
        if aligned {
            for (i, (desc, total)) in registry.counters().enumerate() {
                if let Some((key, prev)) = self.baseline.get_mut(i) {
                    let delta = if total < *prev {
                        regressed = true;
                        total
                    } else {
                        total - *prev
                    };
                    *prev = total;
                    counters.push(CounterDelta {
                        key: key.clone(),
                        total,
                        delta,
                    });
                } else {
                    // Appeared since the last emission: baseline 0.
                    let key = desc.key();
                    self.baseline.push((key.clone(), total));
                    counters.push(CounterDelta {
                        key,
                        total,
                        delta: total,
                    });
                }
            }
        } else {
            // The registry disagrees with the cache — a restarted
            // incarnation (fewer / renamed / reordered counters). Match by
            // key, then rebuild the baseline from the current registry only,
            // so counters of a dead incarnation cannot resurface as wrapped
            // deltas later.
            let prev_map: HashMap<String, u64> = self.baseline.drain(..).collect();
            for (desc, total) in registry.counters() {
                let key = desc.key();
                let prev = prev_map.get(&key).copied().unwrap_or(0);
                let delta = if total < prev {
                    regressed = true;
                    total
                } else {
                    total - prev
                };
                self.baseline.push((key.clone(), total));
                counters.push(CounterDelta { key, total, delta });
            }
        }
        if regressed {
            self.restarts += 1;
        }
        let hists = registry
            .histograms()
            .filter(|(_, h)| !h.is_empty())
            .map(|(desc, h)| NamedDigest {
                key: desc.key(),
                hist: h.clone(),
            })
            .collect();
        let snap = TelemetrySnapshot {
            node: self.node,
            seq: self.seq,
            restarts: self.restarts,
            at_ns,
            wall_ns,
            uptime_ns: at_ns.saturating_sub(started),
            health: health.clone(),
            counters,
            hists,
        };
        self.seq += 1;
        snap
    }
}

impl TelemetrySnapshot {
    /// The snapshot as one datagram: exactly the bytes of
    /// [`TelemetrySnapshot::write_row_json`], so a collector records what it
    /// received verbatim and a replay of the recording reads the same rows.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::TooLarge`] when the row is longer than
    /// [`MAX_DATAGRAM_BYTES`]: no single datagram could carry it.
    pub fn encode(&self) -> Result<Vec<u8>, TelemetryError> {
        let row = self.row_json();
        if row.len() > MAX_DATAGRAM_BYTES {
            return Err(TelemetryError::TooLarge(row.len()));
        }
        Ok(row.into_bytes())
    }

    /// Decodes one datagram or recorded line (the same bytes): UTF-8, then
    /// [`Json::parse`], then [`TelemetrySnapshot::from_row`].
    ///
    /// # Errors
    ///
    /// [`TelemetryError::BadUtf8`], or [`TelemetryError::BadRow`] naming why
    /// the text is not a telemetry row (a row of another kind included).
    pub fn decode(datagram: &[u8]) -> Result<TelemetrySnapshot, TelemetryError> {
        let text = std::str::from_utf8(datagram).map_err(|_| TelemetryError::BadUtf8)?;
        let row = Json::parse(text).map_err(TelemetryError::BadRow)?;
        TelemetrySnapshot::from_row(&row)
            .map_err(TelemetryError::BadRow)?
            .ok_or_else(|| TelemetryError::BadRow("not a telemetry row".to_owned()))
    }

    /// Serializes the snapshot as one JSONL row (`kind:"telemetry"`) into
    /// `out` — a snapshot's one encoding, on both legs. `sum` splits into
    /// `sum_hi`/`sum_lo` because JSON numbers here are `u64`. One pass with
    /// no intermediate [`Json`] tree (the tree costs an allocation per
    /// field): per-epoch sim-leg emitters write every node's row every
    /// 500 ms while the bench clock runs, so this keeps the telemetry plane
    /// inside the ≤5% observability overhead budget.
    pub fn write_row_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"kind\":\"telemetry\",\"v\":{},\"node\":{},\"seq\":{},\"restarts\":{},\
             \"at_ns\":{},\"wall_ns\":{},\"uptime_ns\":{},\"queue_depth\":{},\
             \"flows\":{},\"footprint_bytes\":{},\"links\":[",
            TELEMETRY_VERSION,
            self.node,
            self.seq,
            self.restarts,
            self.at_ns,
            self.wall_ns,
            self.uptime_ns,
            self.health.queue_depth,
            self.health.flows,
            self.health.footprint_bytes,
        );
        for (i, l) in self.health.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"link\":{},\"neighbor\":{},\"queue_depth\":{},\"suspended\":{},\
                 \"probing\":{}}}",
                l.link, l.neighbor, l.queue_depth, l.suspended, l.probing
            );
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":");
            crate::json::escape_into(&c.key, out);
            let _ = write!(out, ",\"total\":{},\"delta\":{}}}", c.total, c.delta);
        }
        out.push_str("],\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":");
            crate::json::escape_into(&h.key, out);
            let _ = write!(
                out,
                ",\"count\":{},\"sum_hi\":{},\"sum_lo\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.hist.count(),
                (h.hist.sum() >> 64) as u64,
                h.hist.sum() as u64,
                wire_min(&h.hist),
                h.hist.max()
            );
            for (j, (bi, bc)) in h.hist.bucket_counts().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bi},{bc}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }

    /// [`TelemetrySnapshot::write_row_json`] into a fresh `String`.
    #[must_use]
    pub fn row_json(&self) -> String {
        let mut out = String::new();
        self.write_row_json(&mut out);
        out
    }

    /// The same row as a [`Json`] tree, for writers that tag rows (the
    /// experiment exports' `run` key) before rendering them.
    #[must_use]
    pub fn row(&self) -> Json {
        Json::parse(&self.row_json()).expect("a rendered row parses")
    }

    /// Parses a row written by [`TelemetrySnapshot::write_row_json`]. Returns
    /// `None` for rows of other kinds (experiment files interleave kinds);
    /// a row claiming `kind:"telemetry"` but structurally broken is an
    /// error, not a silent skip.
    ///
    /// # Errors
    ///
    /// Names the first missing or ill-typed field, or the rule a
    /// histogram's bucket list broke.
    pub fn from_row(row: &Json) -> Result<Option<TelemetrySnapshot>, String> {
        if row.get("kind").and_then(Json::as_str) != Some("telemetry") {
            return Ok(None);
        }
        let u = |key| num(row, key);
        let v = u("v")?;
        if v != u64::from(TELEMETRY_VERSION) {
            return Err(format!("telemetry row: unsupported version {v}"));
        }
        let mut links = Vec::new();
        for l in list(row, "links")? {
            links.push(LinkHealth {
                link: u32::try_from(num(l, "link")?).map_err(|_| "link index")?,
                neighbor: u32::try_from(num(l, "neighbor")?).map_err(|_| "neighbor id")?,
                queue_depth: num(l, "queue_depth")?,
                suspended: l.get("suspended").and_then(Json::as_bool).unwrap_or(false),
                probing: l.get("probing").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        let mut counters = Vec::new();
        for c in list(row, "counters")? {
            counters.push(CounterDelta {
                key: text(c, "key")?,
                total: num(c, "total")?,
                delta: num(c, "delta")?,
            });
        }
        let mut hists = Vec::new();
        for h in list(row, "hists")? {
            let mut buckets = Vec::new();
            for b in list(h, "buckets")? {
                let pair = |i| {
                    b.as_arr()
                        .and_then(|pair| pair.get(i))
                        .and_then(Json::as_u64)
                };
                let (Some(idx), Some(cnt)) = (pair(0), pair(1)) else {
                    return Err("telemetry row: a bucket is not an [index, count] pair".to_owned());
                };
                // An index past `usize` is past 64 too.
                buckets.push((usize::try_from(idx).unwrap_or(usize::MAX), cnt));
            }
            let sum = (u128::from(num(h, "sum_hi")?) << 64) | u128::from(num(h, "sum_lo")?);
            let (count, min, max) = (num(h, "count")?, num(h, "min")?, num(h, "max")?);
            hists.push(NamedDigest {
                key: text(h, "key")?,
                hist: LatencyHistogram::from_sparse(count, sum, min, max, buckets)
                    .map_err(|rule| format!("telemetry hist: {rule}"))?,
            });
        }
        Ok(Some(TelemetrySnapshot {
            node: u32::try_from(u("node")?).map_err(|_| "node id")?,
            seq: u("seq")?,
            restarts: u("restarts")?,
            at_ns: u("at_ns")?,
            wall_ns: u("wall_ns")?,
            uptime_ns: u("uptime_ns")?,
            health: NodeHealth {
                queue_depth: u("queue_depth")?,
                links,
                flows: u("flows")?,
                footprint_bytes: u("footprint_bytes")?,
            },
            counters,
            hists,
        }))
    }
}

/// Field `key` of a row object, which must be an unsigned integer.
fn num(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("telemetry row: missing integer field {key:?}"))
}

/// Field `key` of a row object, which must be a string.
fn text(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("telemetry row: missing string field {key:?}"))
}

/// Field `key` of a row object, which must be an array.
fn list<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("telemetry row: missing array field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut h = LatencyHistogram::new();
        for v in [1_000u64, 2_500, 2_500_000, 90] {
            h.record(v);
        }
        TelemetrySnapshot {
            node: 3,
            seq: 17,
            restarts: 1,
            at_ns: 4_500_000_000,
            wall_ns: 1_700_000_000_000_000_000,
            uptime_ns: 4_000_000_000,
            health: NodeHealth {
                queue_depth: 7,
                links: vec![
                    LinkHealth {
                        link: 0,
                        neighbor: 2,
                        queue_depth: 5,
                        suspended: true,
                        probing: false,
                    },
                    LinkHealth {
                        link: 1,
                        neighbor: 4,
                        queue_depth: 2,
                        suspended: false,
                        probing: true,
                    },
                ],
                flows: 3,
                footprint_bytes: 2_600_000,
            },
            counters: vec![
                CounterDelta {
                    key: "node.forwarded{node=3}".to_owned(),
                    total: 12_000,
                    delta: 340,
                },
                CounterDelta {
                    key: "drop.loss{node=3}".to_owned(),
                    total: 12,
                    delta: 12,
                },
            ],
            hists: vec![NamedDigest {
                key: "node.delivery_latency_ns{node=3}".to_owned(),
                hist: h,
            }],
        }
    }

    const GOLDEN_ROW: &str = concat!(
        r#"{"kind":"telemetry","v":1,"node":3,"seq":17,"restarts":1,"at_ns":4500000000,"#,
        r#""wall_ns":1700000000000000000,"uptime_ns":4000000000,"queue_depth":7,"flows":3,"#,
        r#""footprint_bytes":2600000,"links":[{"link":0,"neighbor":2,"queue_depth":5,"#,
        r#""suspended":true,"probing":false},{"link":1,"neighbor":4,"queue_depth":2,"#,
        r#""suspended":false,"probing":true}],"counters":[{"key":"node.forwarded{node=3}","#,
        r#""total":12000,"delta":340},{"key":"drop.loss{node=3}","total":12,"delta":12}],"#,
        r#""hists":[{"key":"node.delivery_latency_ns{node=3}","count":4,"sum_hi":0,"#,
        r#""sum_lo":2503590,"min":90,"max":2500000,"buckets":[[7,1],[10,1],[12,1],[22,1]]}]}"#,
    );

    #[test]
    fn datagram_is_the_row() {
        let datagram = sample_snapshot().encode().unwrap();
        assert_eq!(datagram, GOLDEN_ROW.as_bytes());
        assert_eq!(TelemetrySnapshot::decode(&datagram), Ok(sample_snapshot()));
    }

    #[test]
    fn row_round_trip() {
        let mut snap = sample_snapshot();
        assert_eq!(snap.row_json(), GOLDEN_ROW);
        // A key the writer must escape, and a sum that needs `sum_hi`.
        snap.counters[1].key = "drop.loss{node=3,via=\"a\\b\n\"}".to_owned();
        for _ in 0..3 {
            snap.hists[0].hist.record(u64::MAX);
        }
        assert!(snap.hists[0].hist.sum() > u128::from(u64::MAX));
        let round_trip = |s: &TelemetrySnapshot| {
            TelemetrySnapshot::from_row(&Json::parse(&s.row_json()).unwrap())
                .unwrap()
                .expect("is a telemetry row")
        };
        assert_eq!(round_trip(&snap), snap);

        // Degenerate shape too: no links, no counters, no hists.
        let empty = TelemetrySnapshot {
            health: NodeHealth::default(),
            counters: vec![],
            hists: vec![],
            ..snap
        };
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn foreign_rows_are_not_telemetry() {
        let row = Json::parse(r#"{"kind":"trace","at_ns":5}"#).unwrap();
        assert_eq!(TelemetrySnapshot::from_row(&row), Ok(None));
    }

    /// A registry too large for one datagram fails to encode, so a daemon
    /// counts it as an encode error instead of a failed send.
    #[test]
    fn a_row_longer_than_a_datagram_does_not_encode() {
        let mut registry = Registry::new();
        for i in 0..1_600 {
            let c = registry.counter("node.forwarded", &[("flow", &i.to_string())]);
            registry.add(c, 1);
        }
        let snap = SnapshotProducer::new(0).produce(0, 0, &registry, &NodeHealth::default());
        let len = snap.row_json().len();
        assert!(len > MAX_DATAGRAM_BYTES, "{len} B");
        assert_eq!(snap.encode(), Err(TelemetryError::TooLarge(len)));
    }

    #[test]
    fn deltas_rebaseline_on_counter_regression_instead_of_wrapping() {
        let mut producer = SnapshotProducer::new(0);
        let mut full = Registry::new();
        let c = full.counter("node.forwarded", &[("node", "0")]);
        full.add(c, 1_000);
        let health = NodeHealth::default();
        let first = producer.produce(1_000, 0, &full, &health);
        assert_eq!(first.seq, 0);
        assert_eq!(first.restarts, 0);
        assert_eq!(first.counters[0].delta, 1_000);

        full.add(c, 500);
        let second = producer.produce(2_000, 0, &full, &health);
        assert_eq!(second.counters[0].delta, 500);
        assert_eq!(second.restarts, 0);

        // The instrumented process restarts: a fresh registry, counters
        // far below the collector-side baseline. A plain subtraction would
        // wrap to ~2^64; the producer must re-baseline.
        let mut fresh = Registry::new();
        let c2 = fresh.counter("node.forwarded", &[("node", "0")]);
        fresh.add(c2, 40);
        let third = producer.produce(3_000, 0, &fresh, &health);
        assert_eq!(third.restarts, 1, "restart must be visible");
        assert_eq!(third.counters[0].total, 40);
        assert_eq!(third.counters[0].delta, 40, "re-baselined, not wrapped");
        assert!(third.counters[0].delta <= third.counters[0].total);

        // And the baseline is the fresh value afterwards.
        fresh.add(c2, 10);
        let fourth = producer.produce(4_000, 0, &fresh, &health);
        assert_eq!(fourth.counters[0].delta, 10);
        assert_eq!(fourth.restarts, 1, "no new restart");
    }

    #[test]
    fn stale_keys_are_dropped_with_their_incarnation() {
        let mut producer = SnapshotProducer::new(0);
        let mut old = Registry::new();
        let a = old.counter("node.forwarded", &[("node", "0")]);
        old.add(a, 100);
        let gone = old.counter("flow.sent", &[("flow", "dead"), ("node", "0")]);
        old.add(gone, 7);
        let health = NodeHealth::default();
        producer.produce(1_000, 0, &old, &health);

        let mut fresh = Registry::new();
        let b = fresh.counter("node.forwarded", &[("node", "0")]);
        fresh.add(b, 5);
        producer.produce(2_000, 0, &fresh, &health);

        // The dead flow's counter re-registers later at a small value; its
        // stale baseline (7) must not survive to produce a wrapped delta.
        let c = fresh.counter("flow.sent", &[("flow", "dead"), ("node", "0")]);
        fresh.add(c, 3);
        let snap = producer.produce(3_000, 0, &fresh, &health);
        let flow = snap
            .counters
            .iter()
            .find(|c| c.key.starts_with("flow.sent"))
            .unwrap();
        assert_eq!(flow.delta, 3, "stale baseline was dropped");
    }

    /// Whatever keeps a datagram from being a telemetry row is refused and
    /// named: bad UTF-8, a parse error, a row of another kind, a missing
    /// field, and each rule of `from_sparse`.
    #[test]
    fn decode_names_what_a_datagram_gets_wrong() {
        let mut bad = GOLDEN_ROW.as_bytes().to_vec();
        bad[20] = 0xff;
        let refused = TelemetrySnapshot::decode(&bad);
        assert_eq!(refused, Err(TelemetryError::BadUtf8));
        for (from, to, why) in [
            ("]}]}", "]}]", "expected"),
            ("]}]}", "]}]}}", "trailing data"),
            (
                GOLDEN_ROW,
                r#"{"kind":"trace","at_ns":5}"#,
                "not a telemetry row",
            ),
            (r#""v":1,"#, "", r#"missing integer field "v""#),
            ("[7,1]", "[65,1]", "bucket index above 64"),
            ("[10,1]", "[7,1]", "bucket indices not strictly ascending"),
            ("[7,1]", "[7,0]", "empty bucket listed"),
            ("\"count\":4", "\"count\":5", "do not add up to the count"),
            ("\"min\":90", "\"min\":2500001", "min above max"),
        ] {
            match TelemetrySnapshot::decode(GOLDEN_ROW.replace(from, to).as_bytes()) {
                Err(TelemetryError::BadRow(e)) => assert!(e.contains(why), "{e}"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any snapshot survives its datagram, and merging the histograms
        /// an aggregator decoded equals the histogram of everything they
        /// recorded.
        fn arbitrary_snapshot_round_trips(
            node in 0u32..1024,
            seq in 0u64..1_000_000,
            parts in proptest::collection::vec(
                proptest::collection::vec(0u64..10_000_000_000, 0..60),
                0..4,
            ),
            totals in proptest::collection::vec(0u64..1_000_000, 0..20),
            links in proptest::collection::vec(
                (0u64..64, any::<bool>(), any::<bool>()),
                0..8,
            ),
        ) {
            let mut union = LatencyHistogram::new();
            let hists = parts
                .iter()
                .enumerate()
                .filter(|(_, values)| !values.is_empty())
                .map(|(i, values)| {
                    let mut hist = LatencyHistogram::new();
                    for &v in values {
                        hist.record(v);
                        union.record(v);
                    }
                    NamedDigest {
                        key: format!("h{i}{{node={node}}}"),
                        hist,
                    }
                })
                .collect();
            let snap = TelemetrySnapshot {
                node,
                seq,
                restarts: seq % 3,
                at_ns: seq.wrapping_mul(500_000_000),
                wall_ns: seq.wrapping_mul(7),
                uptime_ns: seq,
                health: NodeHealth {
                    queue_depth: totals.iter().sum(),
                    links: links
                        .iter()
                        .enumerate()
                        .map(|(i, &(q, s, p))| LinkHealth {
                            link: i as u32,
                            neighbor: (i as u32 + 1) % 64,
                            queue_depth: q,
                            suspended: s,
                            probing: p,
                        })
                        .collect(),
                    flows: totals.len() as u64,
                    footprint_bytes: 1_234_567,
                },
                counters: totals
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| CounterDelta {
                        key: format!("c{i}{{node={node}}}"),
                        total: t,
                        delta: t / 2,
                    })
                    .collect(),
                hists,
            };
            let decoded = TelemetrySnapshot::decode(&snap.encode().unwrap()).unwrap();
            prop_assert_eq!(&decoded, &snap);
            let mut merged = LatencyHistogram::new();
            for h in &decoded.hists {
                merged.merge(&h.hist);
            }
            prop_assert_eq!(&merged, &union);
        }
    }
}
