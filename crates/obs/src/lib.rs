//! # son-obs — cross-layer observability for the structured-overlay stack
//!
//! Shared instrumentation used by the simulator (`son-netsim`), the overlay
//! daemon (`son-overlay`), and the experiment harness (`son-bench`):
//!
//! - a [`registry::Registry`] of typed, labelled instruments — counters,
//!   gauges, and log₂-bucketed [`hist::LatencyHistogram`]s — addressed by
//!   copyable index handles so the hot path costs a `Vec` index plus an add;
//! - one bounded [`ring::Ring`] behind every per-node event history —
//!   sampled cross-node [`trace`] events and [`watch`]dog audit events —
//!   growing with what it records and counting what it evicts;
//! - the [`snapshot`] telemetry plane, the one periodic sampler: a
//!   seq-numbered per-node health snapshot per epoch, one JSONL row that a
//!   daemon sends as a UDP datagram and the simulator writes to a file;
//! - the unified [`taxonomy::DropClass`] drop-reason taxonomy shared by
//!   every layer that discards packets, so "packets in = packets delivered +
//!   packets dropped" is checkable with every drop attributed;
//! - the [`export`] JSONL sink and registry row schema used by the
//!   experiment binaries.
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! durations are plain `u64` nanoseconds (matching `SimTime::as_nanos`).
//! Observability is designed to be zero-cost when disabled: callers hold an
//! `Option<...>`/enabled flag and skip the calls entirely.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod footprint;
pub mod hist;
pub mod json;
pub mod perf;
pub mod registry;
pub mod ring;
pub mod snapshot;
pub mod taxonomy;
pub mod trace;
pub mod watch;

pub use export::{obs_dir, registry_rows, JsonlSink};
pub use footprint::{FootprintPart, FootprintReport, MemFootprint};
pub use hist::LatencyHistogram;
pub use json::Json;
pub use perf::{perf_rows, PerfRegistry, PerfSpan, PerfStageStats, PerfToken, PERF_SAMPLE_EVERY};
pub use registry::{CounterId, GaugeId, HistId, InstrumentDesc, Registry};
pub use ring::Ring;
pub use snapshot::{
    CounterDelta, LinkHealth, NamedDigest, NodeHealth, SnapshotProducer, TelemetryError,
    TelemetrySnapshot, TELEMETRY_VERSION,
};
pub use taxonomy::DropClass;
pub use trace::{
    attribute, median_ns, reconstruct, self_check, HopStat, PacketKey, SelfCheck, Terminal,
    Timeline, TraceContext, TraceEvent, TraceRing, TraceStage, TRACE_CONTEXT_BYTES,
};
pub use watch::{WatchEvent, WatchKind, WatchRing};

/// One-stop imports for instrumented components.
pub mod prelude {
    pub use crate::export::{obs_dir, registry_rows, JsonlSink};
    pub use crate::footprint::{FootprintReport, MemFootprint};
    pub use crate::hist::LatencyHistogram;
    pub use crate::json::Json;
    pub use crate::perf::{PerfRegistry, PerfSpan};
    pub use crate::registry::{CounterId, GaugeId, HistId, Registry};
    pub use crate::snapshot::{SnapshotProducer, TelemetrySnapshot};
    pub use crate::taxonomy::DropClass;
    pub use crate::trace::{PacketKey, TraceContext, TraceEvent, TraceRing, TraceStage};
    pub use crate::watch::{WatchEvent, WatchKind, WatchRing};
}
