//! Streaming telemetry snapshots: the live-cluster health plane.
//!
//! Exit-time JSONL exports answer "what happened"; a running cluster needs
//! "what is happening". A [`SnapshotProducer`] renders one compact,
//! versioned [`TelemetrySnapshot`] per telemetry epoch from a node's
//! metrics [`Registry`] plus its [`NodeHealth`] block
//! (queue depths, per-link watch state, flow occupancy, footprint).
//! The same snapshot travels two ways:
//!
//! - **bytes** ([`TelemetrySnapshot::encode`]/[`TelemetrySnapshot::decode`])
//!   over a separate
//!   best-effort UDP socket from a real `son-node` daemon — self-describing
//!   (magic/version header, mirroring `son_overlay::wire`) and seq-numbered
//!   so the collector can *see* loss instead of guessing;
//! - **JSONL rows** ([`TelemetrySnapshot::write_row_json`]/
//!   [`TelemetrySnapshot::from_row`]) from the
//!   simulator leg via `Fleet::run_with_telemetry`, so one schema serves
//!   both worlds and an aggregator cannot tell (modulo wall-clock fields)
//!   which leg fed it.
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
//! merging is. Both decoders rebuild through
//! [`LatencyHistogram::from_sparse`], which rejects a bucket list no
//! histogram could have produced ([`TelemetryError::BadHist`]).

use std::collections::HashMap;

use crate::json::Json;
use crate::registry::Registry;
use crate::LatencyHistogram;

/// Current telemetry codec version; bumped on any layout change.
pub const TELEMETRY_VERSION: u8 = 1;

/// First byte of every telemetry frame (distinct from the overlay link
/// codec's `0xA5`, so a misrouted datagram fails fast).
pub const TELEMETRY_MAGIC: u8 = 0xA7;

/// Frame kind byte: one health snapshot.
const KIND_SNAPSHOT: u8 = 1;

/// Size of the fixed frame header: magic, version, kind, flags, body length.
pub const TELEMETRY_HEADER_BYTES: usize = 8;

/// The telemetry epoch, ns: a daemon renders one snapshot every 500 ms, on
/// both legs, and a collector counts staleness in these epochs.
pub const EPOCH_NS: u64 = 500_000_000;

/// What can go wrong decoding a telemetry frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// The frame ended before a field was complete.
    Truncated,
    /// Bytes remained after the declared body, or inside it after the
    /// last section.
    Trailing,
    /// The first byte was not [`TELEMETRY_MAGIC`].
    BadMagic(u8),
    /// The version byte was not [`TELEMETRY_VERSION`].
    BadVersion(u8),
    /// The kind byte had no defined meaning.
    BadKind(u8),
    /// A string field was not valid UTF-8.
    BadUtf8(&'static str),
    /// A value exceeded its wire-field range.
    TooLarge(&'static str),
    /// A histogram's bucket list broke the named rule of
    /// [`LatencyHistogram::from_sparse`].
    BadHist(&'static str),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Truncated => write!(f, "telemetry frame truncated"),
            TelemetryError::Trailing => write!(f, "trailing bytes after telemetry body"),
            TelemetryError::BadMagic(b) => write!(f, "bad telemetry magic 0x{b:02x}"),
            TelemetryError::BadVersion(v) => write!(f, "unsupported telemetry version {v}"),
            TelemetryError::BadKind(k) => write!(f, "unknown telemetry kind {k}"),
            TelemetryError::BadUtf8(what) => write!(f, "{what} is not valid UTF-8"),
            TelemetryError::TooLarge(what) => write!(f, "{what} exceeds wire field range"),
            TelemetryError::BadHist(rule) => write!(f, "malformed histogram: {rule}"),
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

/// `min` as frames and rows carry it: an empty histogram's is `u64::MAX`.
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

// ------------------------------------------------------------- byte codec

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) -> Result<(), TelemetryError> {
        let len = u16::try_from(s.len()).map_err(|_| TelemetryError::TooLarge("string"))?;
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TelemetryError> {
        if self.buf.len() < n {
            return Err(TelemetryError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, TelemetryError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, TelemetryError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, TelemetryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, TelemetryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn u128(&mut self) -> Result<u128, TelemetryError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }
    fn str(&mut self, what: &'static str) -> Result<String, TelemetryError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| TelemetryError::BadUtf8(what))
    }
}

const LINK_FLAG_SUSPENDED: u8 = 1 << 0;
const LINK_FLAG_PROBING: u8 = 1 << 1;

impl TelemetrySnapshot {
    /// Encodes this snapshot as one self-describing frame.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::TooLarge`] when a collection or string
    /// exceeds its wire-field range (more than 2^16 counters would mean a
    /// runaway registry, not a bigger length field).
    pub fn encode(&self) -> Result<Vec<u8>, TelemetryError> {
        let mut w = Writer {
            buf: Vec::with_capacity(256),
        };
        w.u8(TELEMETRY_MAGIC);
        w.u8(TELEMETRY_VERSION);
        w.u8(KIND_SNAPSHOT);
        w.u8(0); // flags, reserved
        w.u32(0); // body length, patched below
        w.u32(self.node);
        w.u64(self.seq);
        w.u64(self.restarts);
        w.u64(self.at_ns);
        w.u64(self.wall_ns);
        w.u64(self.uptime_ns);
        w.u64(self.health.queue_depth);
        w.u64(self.health.flows);
        w.u64(self.health.footprint_bytes);
        let links = u16::try_from(self.health.links.len())
            .map_err(|_| TelemetryError::TooLarge("links"))?;
        w.u16(links);
        for l in &self.health.links {
            w.u32(l.link);
            w.u32(l.neighbor);
            w.u64(l.queue_depth);
            let mut flags = 0u8;
            if l.suspended {
                flags |= LINK_FLAG_SUSPENDED;
            }
            if l.probing {
                flags |= LINK_FLAG_PROBING;
            }
            w.u8(flags);
        }
        let counters =
            u16::try_from(self.counters.len()).map_err(|_| TelemetryError::TooLarge("counters"))?;
        w.u16(counters);
        for c in &self.counters {
            w.str(&c.key)?;
            w.u64(c.total);
            w.u64(c.delta);
        }
        let hists =
            u16::try_from(self.hists.len()).map_err(|_| TelemetryError::TooLarge("hists"))?;
        w.u16(hists);
        for h in &self.hists {
            w.str(&h.key)?;
            w.u64(h.hist.count());
            w.u128(h.hist.sum());
            w.u64(wire_min(&h.hist));
            w.u64(h.hist.max());
            w.u8(h.hist.bucket_counts().count() as u8);
            for (i, c) in h.hist.bucket_counts() {
                w.u8(i as u8); // 65 buckets
                w.u64(c);
            }
        }
        let body = u32::try_from(w.buf.len() - TELEMETRY_HEADER_BYTES)
            .map_err(|_| TelemetryError::TooLarge("body"))?;
        w.buf[4..8].copy_from_slice(&body.to_le_bytes());
        Ok(w.buf)
    }

    /// Decodes one frame produced by [`TelemetrySnapshot::encode`].
    ///
    /// # Errors
    ///
    /// Returns the first structural violation: bad magic/version/kind,
    /// truncation, trailing bytes, or a histogram whose bucket list no
    /// histogram could have produced.
    pub fn decode(frame: &[u8]) -> Result<TelemetrySnapshot, TelemetryError> {
        let mut r = Reader { buf: frame };
        let magic = r.u8()?;
        if magic != TELEMETRY_MAGIC {
            return Err(TelemetryError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != TELEMETRY_VERSION {
            return Err(TelemetryError::BadVersion(version));
        }
        let kind = r.u8()?;
        if kind != KIND_SNAPSHOT {
            return Err(TelemetryError::BadKind(kind));
        }
        let _flags = r.u8()?;
        let body_len = r.u32()? as usize;
        if r.buf.len() < body_len {
            return Err(TelemetryError::Truncated);
        }
        if r.buf.len() > body_len {
            return Err(TelemetryError::Trailing);
        }
        let node = r.u32()?;
        let seq = r.u64()?;
        let restarts = r.u64()?;
        let at_ns = r.u64()?;
        let wall_ns = r.u64()?;
        let uptime_ns = r.u64()?;
        let queue_depth = r.u64()?;
        let flows = r.u64()?;
        let footprint_bytes = r.u64()?;
        let n_links = r.u16()?;
        let mut links = Vec::with_capacity(n_links as usize);
        for _ in 0..n_links {
            let link = r.u32()?;
            let neighbor = r.u32()?;
            let queue_depth = r.u64()?;
            let flags = r.u8()?;
            links.push(LinkHealth {
                link,
                neighbor,
                queue_depth,
                suspended: flags & LINK_FLAG_SUSPENDED != 0,
                probing: flags & LINK_FLAG_PROBING != 0,
            });
        }
        let n_counters = r.u16()?;
        let mut counters = Vec::with_capacity(n_counters as usize);
        for _ in 0..n_counters {
            let key = r.str("counter key")?;
            let total = r.u64()?;
            let delta = r.u64()?;
            counters.push(CounterDelta { key, total, delta });
        }
        let n_hists = r.u16()?;
        let mut hists = Vec::with_capacity(n_hists as usize);
        for _ in 0..n_hists {
            let key = r.str("hist key")?;
            let count = r.u64()?;
            let sum = r.u128()?;
            let min = r.u64()?;
            let max = r.u64()?;
            let n_buckets = r.u8()?;
            let mut buckets = Vec::with_capacity(n_buckets as usize);
            for _ in 0..n_buckets {
                let i = r.u8()?;
                let c = r.u64()?;
                buckets.push((usize::from(i), c));
            }
            let hist = LatencyHistogram::from_sparse(count, sum, min, max, buckets)
                .map_err(TelemetryError::BadHist)?;
            hists.push(NamedDigest { key, hist });
        }
        if !r.buf.is_empty() {
            // The body is longer than its own counts account for.
            return Err(TelemetryError::Trailing);
        }
        Ok(TelemetrySnapshot {
            node,
            seq,
            restarts,
            at_ns,
            wall_ns,
            uptime_ns,
            health: NodeHealth {
                queue_depth,
                links,
                flows,
                footprint_bytes,
            },
            counters,
            hists,
        })
    }

    // ------------------------------------------------------------ row form

    /// Serializes the snapshot as one JSONL row (`kind:"telemetry"`) into
    /// `out` — the sim leg's dialect of the same schema. `sum` splits into
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
    let s = obj.get(key).and_then(Json::as_str);
    Ok(
        s.ok_or_else(|| format!("telemetry row: missing string field {key:?}"))?
            .to_owned(),
    )
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

    /// [`sample_snapshot`] as the last build with a separate digest type
    /// encoded it: version 1 frames and rows did not change with the type.
    const GOLDEN_FRAME_HEX: &str = "\
        a7010100260100000300000011000000000000000100000000000000008d380c01000000\
        00002a36fe9c971700286bee000000000700000000000000030000000000000040ac2700\
        00000000020000000000020000000500000000000000010100000004000000020000000000\
        000002020016006e6f64652e666f727761726465647b6e6f64653d337de02e0000000000\
        005401000000000000110064726f702e6c6f73737b6e6f64653d337d0c00000000000000\
        0c00000000000000010020006e6f64652e64656c69766572795f6c6174656e63795f6e73\
        7b6e6f64653d337d0400000000000000a63326000000000000000000000000005a000000\
        00000000a025260000000000040701000000000000000a01000000000000000c01000000\
        00000000160100000000000000";
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
    fn bytes_round_trip() {
        let snap = sample_snapshot();
        let frame = snap.encode().unwrap();
        assert_eq!(frame[0], TELEMETRY_MAGIC);
        assert_eq!(TelemetrySnapshot::decode(&frame).unwrap(), snap);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_FRAME_HEX);
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

    #[test]
    fn decode_rejects_structural_damage() {
        let snap = sample_snapshot();
        let frame = snap.encode().unwrap();
        let mut bad = frame.clone();
        bad[0] = 0xA5;
        assert_eq!(
            TelemetrySnapshot::decode(&bad),
            Err(TelemetryError::BadMagic(0xA5))
        );
        let mut bad = frame.clone();
        bad[1] = 99;
        assert_eq!(
            TelemetrySnapshot::decode(&bad),
            Err(TelemetryError::BadVersion(99))
        );
        assert_eq!(
            TelemetrySnapshot::decode(&frame[..frame.len() - 3]),
            Err(TelemetryError::Truncated)
        );
        // A section count that leaves the rest of the body unread: the one
        // histogram (34-byte key field, 41 bytes of scalars, 4 buckets).
        let mut bad = frame.clone();
        let n_hists = frame.len() - (34 + 41 + 4 * 9) - 2;
        assert_eq!(bad[n_hists], 1);
        bad[n_hists] = 0;
        assert_eq!(
            TelemetrySnapshot::decode(&bad),
            Err(TelemetryError::Trailing)
        );
        let mut long = frame;
        long.push(0);
        assert_eq!(
            TelemetrySnapshot::decode(&long),
            Err(TelemetryError::Trailing)
        );
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

    /// Each rule of `from_sparse`, broken by one byte of a valid frame (which
    /// ends with its one histogram: count, sum, min, max, the bucket count,
    /// then four `(index u8, count u64)` buckets) and named by both decoders.
    #[test]
    fn decoders_name_the_rule_a_histogram_breaks() {
        let snap = sample_snapshot();
        let frame = snap.encode().unwrap();
        let buckets = frame.len() - 4 * 9;
        let (count, min) = (buckets - 1 - 8 - 8 - 16 - 8, buckets - 1 - 8 - 8);
        for (at, byte, rule) in [
            (buckets, 65, "bucket index above 64"),
            (buckets + 9, 7, "bucket indices not strictly ascending"),
            (buckets + 1, 0, "empty bucket listed"),
            (count, 5, "bucket counts do not add up to the count"),
            (min + 7, 1, "min above max"),
        ] {
            let mut bad = frame.clone();
            bad[at] = byte;
            assert_eq!(
                TelemetrySnapshot::decode(&bad),
                Err(TelemetryError::BadHist(rule))
            );
        }
        for (from, to, rule) in [
            ("[7,1]", "[65,1]", "bucket index above 64"),
            ("[10,1]", "[7,1]", "bucket indices not strictly ascending"),
            ("[7,1]", "[7,0]", "empty bucket listed"),
            ("\"count\":4", "\"count\":5", "do not add up to the count"),
            ("\"min\":90", "\"min\":2500001", "min above max"),
        ] {
            let row = Json::parse(&snap.row_json().replace(from, to)).unwrap();
            let err = TelemetrySnapshot::from_row(&row).unwrap_err();
            assert!(err.contains(rule), "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any snapshot survives both encodings, and merging the histograms
        /// an aggregator decoded from either equals the histogram of
        /// everything they recorded.
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
            let row = Json::parse(&snap.row_json()).unwrap();
            let parsed = TelemetrySnapshot::from_row(&row).unwrap().unwrap();
            prop_assert_eq!(&parsed, &snap);
            for got in [decoded, parsed] {
                let mut merged = LatencyHistogram::new();
                for h in &got.hists {
                    merged.merge(&h.hist);
                }
                prop_assert_eq!(&merged, &union);
            }
        }
    }
}
