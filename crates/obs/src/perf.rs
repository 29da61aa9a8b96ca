//! Hierarchical wall-clock span profiler for the simulation hot path.
//!
//! A [`PerfRegistry`] attributes *wall-clock* time (not simulated time) to a
//! small set of static stage labels — event dispatch, message handling,
//! route recomputation, link-protocol work, the watchdog epoch — so the
//! scale experiments can answer "where does a wall second go at N nodes?".
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when off.** The kill-switch is a single [`Cell<bool>`] load;
//!    a disabled registry records nothing and interns no labels.
//! 2. **Cheap when on.** Timestamps are raw TSC ticks on `x86_64`
//!    (`_rdtsc`, a few ns bare-metal, tens of ns virtualized) and `Instant`
//!    nanoseconds elsewhere; conversion to nanoseconds happens once at
//!    snapshot time against a calibration pair captured when the registry
//!    was created. Because even one clock read can rival the work being
//!    measured, the registry can sample: record every `k`th *top-level*
//!    event tree in full and skip the rest for a few `Cell` operations
//!    ([`PerfRegistry::set_sample_every`]; the production wiring uses
//!    [`PERF_SAMPLE_EVERY`]). Children follow their tree's fate, so
//!    self/total arithmetic stays exact within every recorded tree, and
//!    snapshot sums are scaled by `k` to estimate true totals.
//! 3. **Hierarchical.** Spans nest: a frame stack attributes child time to
//!    the enclosing frame, so every stage gets both a *total* (inclusive)
//!    and a *self* (exclusive) distribution, each a log₂-bucketed
//!    [`LatencyHistogram`].
//!
//! Two usage styles are supported:
//!
//! - RAII guards for straight-line scopes:
//!   `let _g = perf.span("route.rebuild");`
//! - explicit enter/exit tokens for code that needs `&mut self` between the
//!   two points (the registry only needs `&self`, so a token can straddle
//!   arbitrary mutable work):
//!   `let t = perf.enter("node.on_message"); ... ; perf.exit(t);`
//!
//! Caveats (documented, accepted): TSC ticks are assumed constant-rate and
//! comparable across the run (true on the `constant_tsc` CPUs this targets;
//! the fallback clock is always safe); recursive spans of the same label
//! double-count the nested total into the outer total, as in most tree
//! profilers, while self-time stays exact.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::hist::LatencyHistogram;
use crate::json::Json;

/// Reads the raw timestamp counter (ticks; converted to ns at snapshot).
#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks() -> u64 {
    // SAFETY: RDTSC is unprivileged and has no memory side effects.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Fallback clock: monotonic nanoseconds since an arbitrary process epoch
/// (ticks and nanoseconds coincide, so calibration is the identity).
#[cfg(not(target_arch = "x86_64"))]
fn raw_ticks() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open frame on the span stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    stage: u16,
    start_ticks: u64,
    /// Total ticks spent in already-closed children of this frame.
    child_ticks: u64,
}

/// Accumulated statistics for one stage label.
#[derive(Debug)]
struct StageStats {
    label: &'static str,
    count: u64,
    self_ticks: u64,
    total_ticks: u64,
    self_hist: LatencyHistogram,
    total_hist: LatencyHistogram,
}

impl StageStats {
    fn new(label: &'static str) -> Self {
        StageStats {
            label,
            count: 0,
            self_ticks: 0,
            total_ticks: 0,
            self_hist: LatencyHistogram::new(),
            total_hist: LatencyHistogram::new(),
        }
    }
}

#[derive(Debug, Default)]
struct PerfInner {
    stages: Vec<StageStats>,
    stack: Vec<Frame>,
}

impl PerfInner {
    fn stage_id(&mut self, label: &'static str) -> u16 {
        // Hot path: a call site hands over the same `&'static str` every
        // time, so pointer identity over the handful of stages resolves the
        // id without hashing the string (a SipHash per span enter was the
        // single largest profiler cost).
        if let Some(id) = self
            .stages
            .iter()
            .position(|s| s.label.as_ptr() == label.as_ptr() && s.label.len() == label.len())
        {
            return id as u16;
        }
        // Same label text from a different static (another call site or
        // crate): merge by string equality so stats stay keyed per label.
        if let Some(id) = self.stages.iter().position(|s| s.label == label) {
            return id as u16;
        }
        let id = u16::try_from(self.stages.len()).expect("too many perf stages");
        self.stages.push(StageStats::new(label));
        id
    }
}

/// Token returned by [`PerfRegistry::enter`]; hand it back to
/// [`PerfRegistry::exit`]. A skip token (disabled registry) makes the exit a
/// no-op, so callers never branch on the kill-switch themselves.
#[derive(Debug, Clone, Copy)]
#[must_use = "a perf token must be closed with PerfRegistry::exit"]
pub struct PerfToken {
    /// Expected stack depth *after* the matching exit; `u32::MAX` = skip.
    depth: u32,
    stage: u16,
}

const SKIP: u32 = u32::MAX;
const UNSAMPLED: u32 = u32::MAX - 1;

/// Sampling period the production wiring uses (the event loop's and each
/// daemon's registry): every 16th top-level event tree is recorded, the
/// same order of sampling as 1-in-64 packet tracing, keeping the profiler
/// inside the ≤5% overhead budget even though one clock read costs tens of
/// nanoseconds under virtualization.
pub const PERF_SAMPLE_EVERY: u32 = 16;

impl PerfToken {
    /// A token whose exit is a no-op (used when the profiler is disabled).
    pub fn skip() -> Self {
        PerfToken {
            depth: SKIP,
            stage: 0,
        }
    }

    /// A token for a span inside an unsampled event tree: its exit only
    /// balances the logical open-depth counter.
    fn unsampled() -> Self {
        PerfToken {
            depth: UNSAMPLED,
            stage: 0,
        }
    }
}

/// RAII guard closing its span on drop. Created by [`PerfRegistry::span`].
#[derive(Debug)]
#[must_use = "the span closes when this guard drops"]
pub struct PerfSpan<'a> {
    reg: &'a PerfRegistry,
    token: PerfToken,
}

impl Drop for PerfSpan<'_> {
    fn drop(&mut self) {
        self.reg.exit(self.token);
    }
}

/// Snapshot of one stage's accumulated statistics, in nanoseconds.
#[derive(Debug, Clone)]
pub struct PerfStageStats {
    /// The static stage label.
    pub label: &'static str,
    /// Number of closed spans.
    pub count: u64,
    /// Exclusive time: total minus time in child spans.
    pub self_ns: f64,
    /// Inclusive time.
    pub total_ns: f64,
    /// Median exclusive span duration.
    pub self_p50_ns: f64,
    /// 99th-percentile exclusive span duration.
    pub self_p99_ns: f64,
    /// Median inclusive span duration.
    pub total_p50_ns: f64,
    /// 99th-percentile inclusive span duration.
    pub total_p99_ns: f64,
    /// Largest inclusive span duration.
    pub total_max_ns: f64,
}

/// Hierarchical wall-clock profiler; see the [module docs](self).
///
/// Interior-mutable so spans borrow `&PerfRegistry` and nest freely; not
/// `Sync` (one registry per node / per simulation, matching the
/// single-threaded core).
#[derive(Debug)]
pub struct PerfRegistry {
    enabled: Cell<bool>,
    /// Record every `k`th top-level event tree (1 = every span). The clock
    /// read itself costs tens of nanoseconds under virtualization, so the
    /// production wiring samples trees the same way packet tracing samples
    /// packets; an unsampled tree costs a few `Cell` operations.
    sample_every: Cell<u32>,
    /// Top-level trees left to skip before the next sampled one.
    countdown: Cell<u32>,
    /// Is the currently open top-level tree being recorded?
    sampling: Cell<bool>,
    /// Logical span nesting depth, counting unsampled opens too (the frame
    /// stack only holds sampled spans).
    open_depth: Cell<u32>,
    inner: RefCell<PerfInner>,
    cal_instant: Instant,
    cal_ticks: u64,
}

impl Default for PerfRegistry {
    fn default() -> Self {
        Self::new(true)
    }
}

impl PerfRegistry {
    /// Creates a registry; the calibration pair (wall instant, raw ticks) is
    /// captured now and used to convert ticks to nanoseconds at snapshot
    /// time.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        PerfRegistry {
            enabled: Cell::new(enabled),
            sample_every: Cell::new(1),
            countdown: Cell::new(1),
            sampling: Cell::new(false),
            open_depth: Cell::new(0),
            inner: RefCell::new(PerfInner::default()),
            cal_instant: Instant::now(),
            cal_ticks: raw_ticks(),
        }
    }

    /// Is the profiler recording?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Runtime kill-switch. Disabling mid-run is safe: outstanding tokens
    /// still pop their frames, future enters are skipped.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Records every `k`th top-level event tree (children follow their
    /// tree's fate, so self/total arithmetic stays exact within a sampled
    /// tree). `k = 1` records everything; snapshot sums and counts are
    /// scaled by `k`, so they stay estimates of the true totals.
    pub fn set_sample_every(&self, k: u32) {
        self.sample_every.set(k.max(1));
        self.countdown.set(1);
    }

    /// The configured sampling period.
    #[must_use]
    pub fn sample_every(&self) -> u32 {
        self.sample_every.get()
    }

    /// Opens a span for `label` and returns the token that closes it.
    /// Inlined into the caller up to the sampling decision: a disabled
    /// registry costs one `Cell` load and returns a skip token, an
    /// unsampled tree a few more. Only a sampled span calls out, to
    /// `open_frame`.
    #[inline(always)]
    pub fn enter(&self, label: &'static str) -> PerfToken {
        if !self.enabled.get() {
            return PerfToken::skip();
        }
        let logical = self.open_depth.get();
        self.open_depth.set(logical + 1);
        if logical == 0 {
            // Top of a new event tree: decide whether this tree is sampled.
            let cd = self.countdown.get();
            if cd > 1 {
                self.countdown.set(cd - 1);
                self.sampling.set(false);
                return PerfToken::unsampled();
            }
            self.countdown.set(self.sample_every.get());
            self.sampling.set(true);
        } else if !self.sampling.get() {
            return PerfToken::unsampled();
        }
        self.open_frame(label)
    }

    /// Pushes the frame of a sampled span.
    #[inline]
    fn open_frame(&self, label: &'static str) -> PerfToken {
        let mut inner = self.inner.borrow_mut();
        let stage = inner.stage_id(label);
        let depth = u32::try_from(inner.stack.len()).expect("perf stack too deep");
        inner.stack.push(Frame {
            stage,
            start_ticks: raw_ticks(),
            child_ticks: 0,
        });
        PerfToken { depth, stage }
    }

    /// Closes the span opened by `token`, attributing its total ticks to the
    /// parent frame's child time. Exits must be LIFO (guaranteed by the RAII
    /// guard; enforced by debug assertion for manual tokens). Inlined as
    /// [`PerfRegistry::enter`] is: only a sampled span calls out, to
    /// `close_frame`.
    #[inline(always)]
    pub fn exit(&self, token: PerfToken) {
        if token.depth == SKIP {
            return;
        }
        self.open_depth.set(self.open_depth.get().saturating_sub(1));
        if token.depth == UNSAMPLED {
            return;
        }
        self.close_frame(token);
    }

    /// Pops the frame of a sampled span and books its ticks.
    #[inline]
    fn close_frame(&self, token: PerfToken) {
        let now = raw_ticks();
        let mut inner = self.inner.borrow_mut();
        let Some(frame) = inner.stack.pop() else {
            debug_assert!(false, "perf exit with empty stack");
            return;
        };
        debug_assert_eq!(
            inner.stack.len(),
            token.depth as usize,
            "perf exit out of order"
        );
        debug_assert_eq!(frame.stage, token.stage, "perf exit stage mismatch");
        let total = now.saturating_sub(frame.start_ticks);
        let own = total.saturating_sub(frame.child_ticks);
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ticks += total;
        }
        let stats = &mut inner.stages[frame.stage as usize];
        stats.count += 1;
        stats.self_ticks += own;
        stats.total_ticks += total;
        stats.self_hist.record(own);
        stats.total_hist.record(total);
    }

    /// Opens an RAII span; closes on drop. Use when no `&mut` borrows of the
    /// owning structure are needed inside the scope.
    #[inline]
    pub fn span(&self, label: &'static str) -> PerfSpan<'_> {
        PerfSpan {
            reg: self,
            token: self.enter(label),
        }
    }

    /// Estimated nanoseconds per raw tick, from the calibration pair.
    /// 1.0 on the `Instant` fallback clock; ~0.3–0.5 on typical x86 TSCs.
    /// Falls back to 1.0 if the registry is younger than the measurable
    /// resolution.
    #[must_use]
    pub fn ns_per_tick(&self) -> f64 {
        let elapsed_ns = self.cal_instant.elapsed().as_nanos() as f64;
        let elapsed_ticks = raw_ticks().saturating_sub(self.cal_ticks) as f64;
        if elapsed_ticks <= 0.0 || elapsed_ns <= 0.0 {
            return 1.0;
        }
        elapsed_ns / elapsed_ticks
    }

    /// Total closed-span count across all stages.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.inner.borrow().stages.iter().map(|s| s.count).sum()
    }

    /// Sum of raw self ticks for one label (test hook; 0 if never seen).
    #[must_use]
    pub fn self_ticks(&self, label: &str) -> u64 {
        let inner = self.inner.borrow();
        inner
            .stages
            .iter()
            .find(|s| s.label == label)
            .map_or(0, |s| s.self_ticks)
    }

    /// Sum of raw total ticks for one label (test hook; 0 if never seen).
    #[must_use]
    pub fn total_ticks(&self, label: &str) -> u64 {
        let inner = self.inner.borrow();
        inner
            .stages
            .iter()
            .find(|s| s.label == label)
            .map_or(0, |s| s.total_ticks)
    }

    /// Merges `other`'s closed-span statistics into `self`, by label.
    /// Intended for same-process roll-up (identical tick rate); open frames
    /// in `other` are not transferred. The roll-up adopts the coarsest
    /// sampling period seen, so snapshot scaling stays right when absorbing
    /// uniformly sampled registries (mixed rates yield an approximation).
    pub fn absorb(&self, other: &PerfRegistry) {
        self.sample_every
            .set(self.sample_every.get().max(other.sample_every.get()));
        let theirs = other.inner.borrow();
        let mut ours = self.inner.borrow_mut();
        for s in &theirs.stages {
            let id = ours.stage_id(s.label);
            let dst = &mut ours.stages[id as usize];
            dst.count += s.count;
            dst.self_ticks += s.self_ticks;
            dst.total_ticks += s.total_ticks;
            dst.self_hist.merge(&s.self_hist);
            dst.total_hist.merge(&s.total_hist);
        }
    }

    /// Snapshot of every stage, in nanoseconds, sorted by self time
    /// descending.
    #[must_use]
    pub fn stats(&self) -> Vec<PerfStageStats> {
        let rate = self.ns_per_tick();
        // Sums and counts are scaled back up by the sampling period so they
        // estimate true totals; per-span percentiles need no correction.
        let scale = f64::from(self.sample_every.get());
        let inner = self.inner.borrow();
        let mut out: Vec<PerfStageStats> = inner
            .stages
            .iter()
            .map(|s| PerfStageStats {
                label: s.label,
                count: s.count * u64::from(self.sample_every.get()),
                self_ns: s.self_ticks as f64 * rate * scale,
                total_ns: s.total_ticks as f64 * rate * scale,
                self_p50_ns: s.self_hist.p50() as f64 * rate,
                self_p99_ns: s.self_hist.p99() as f64 * rate,
                total_p50_ns: s.total_hist.p50() as f64 * rate,
                total_p99_ns: s.total_hist.p99() as f64 * rate,
                total_max_ns: s.total_hist.max() as f64 * rate,
            })
            .collect();
        out.sort_by(|a, b| b.self_ns.total_cmp(&a.self_ns));
        out
    }

    /// The `k` stages with the largest self time.
    #[must_use]
    pub fn top_by_self(&self, k: usize) -> Vec<PerfStageStats> {
        let mut v = self.stats();
        v.truncate(k);
        v
    }
}

/// Renders one JSONL row per stage (`"kind":"perf"`), sorted by self time.
#[must_use]
pub fn perf_rows(reg: &PerfRegistry) -> Vec<Json> {
    reg.stats()
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("kind", Json::str("perf")),
                ("stage", Json::str(s.label)),
                ("count", Json::U64(s.count)),
                ("self_ns", Json::F64(s.self_ns)),
                ("total_ns", Json::F64(s.total_ns)),
                ("self_p50_ns", Json::F64(s.self_p50_ns)),
                ("self_p99_ns", Json::F64(s.self_p99_ns)),
                ("total_p50_ns", Json::F64(s.total_p50_ns)),
                ("total_p99_ns", Json::F64(s.total_p99_ns)),
                ("total_max_ns", Json::F64(s.total_max_ns)),
            ])
        })
        .collect()
}

impl crate::footprint::MemFootprint for PerfRegistry {
    fn footprint_bytes(&self) -> usize {
        use crate::footprint::vec_bytes;
        let inner = self.inner.borrow();
        vec_bytes(&inner.stages)
            + inner
                .stages
                .iter()
                .map(|s| s.self_hist.footprint_bytes() + s.total_hist.footprint_bytes())
                .sum::<usize>()
            + vec_bytes(&inner.stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(reg: &PerfRegistry, label: &'static str, iters: u64) {
        let _g = reg.span(label);
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn nested_self_time_sums_to_parent_total() {
        let reg = PerfRegistry::new(true);
        {
            let parent = reg.enter("parent");
            spin(&reg, "child_a", 20_000);
            spin(&reg, "child_b", 20_000);
            reg.exit(parent);
        }
        // By construction self = total - Σ(child totals), so the identity
        // parent_total == parent_self + child_a_total + child_b_total holds
        // exactly in tick space.
        let parent_total = reg.total_ticks("parent");
        let reassembled =
            reg.self_ticks("parent") + reg.total_ticks("child_a") + reg.total_ticks("child_b");
        assert_eq!(parent_total, reassembled);
        assert!(parent_total > 0, "clock must have advanced");
        // And the nested children did the work, so parent self-time is the
        // smaller share.
        assert!(reg.self_ticks("parent") < parent_total);
    }

    #[test]
    fn deep_nesting_attributes_each_level() {
        let reg = PerfRegistry::new(true);
        {
            let a = reg.enter("a");
            {
                let b = reg.enter("b");
                spin(&reg, "c", 30_000);
                reg.exit(b);
            }
            reg.exit(a);
        }
        assert_eq!(reg.total_count(), 3);
        assert_eq!(
            reg.total_ticks("a"),
            reg.self_ticks("a") + reg.total_ticks("b")
        );
        assert_eq!(
            reg.total_ticks("b"),
            reg.self_ticks("b") + reg.total_ticks("c")
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = PerfRegistry::new(false);
        {
            let t = reg.enter("never");
            spin(&reg, "also_never", 1_000);
            reg.exit(t);
        }
        assert_eq!(reg.stats().len(), 0, "disabled profiler interned a label");
        assert_eq!(reg.total_count(), 0);
        assert!(reg.stats().is_empty());
        assert!(perf_rows(&reg).is_empty());
    }

    #[test]
    fn sampling_records_every_kth_tree_and_scales_sums() {
        let reg = PerfRegistry::new(true);
        reg.set_sample_every(4);
        for _ in 0..8 {
            let t = reg.enter("outer");
            spin(&reg, "child", 200);
            reg.exit(t);
        }
        let inner = reg.self_ticks("child");
        assert!(inner > 0, "sampled trees must record children");
        let stats = reg.stats();
        let outer = stats.iter().find(|s| s.label == "outer").unwrap();
        // 8 trees at 1-in-4 sampling: 2 recorded, reported scaled to 8.
        assert_eq!(outer.count, 8);
        assert_eq!(reg.total_ticks("outer"), reg.self_ticks("outer") + inner);
        let child = stats.iter().find(|s| s.label == "child").unwrap();
        assert_eq!(child.count, 8);
    }

    #[test]
    fn unsampled_trees_cost_no_frames() {
        let reg = PerfRegistry::new(true);
        reg.set_sample_every(1000);
        let t = reg.enter("first"); // tree 1 is always sampled
        reg.exit(t);
        for _ in 0..10 {
            let t = reg.enter("rest");
            let u = reg.enter("rest_child");
            reg.exit(u);
            reg.exit(t);
        }
        assert_eq!(reg.stats().len(), 1, "unsampled trees must intern nothing");
        assert_eq!(reg.total_count(), 1);
    }

    #[test]
    fn kill_switch_mid_run_is_balanced() {
        let reg = PerfRegistry::new(true);
        let t = reg.enter("outer");
        reg.set_enabled(false);
        // Disabled: new spans skip entirely...
        let skipped = reg.enter("skipped");
        reg.exit(skipped);
        // ...but the outstanding token still closes its frame.
        reg.exit(t);
        assert_eq!(reg.stats().len(), 1);
        assert_eq!(reg.total_count(), 1);
        reg.set_enabled(true);
        spin(&reg, "later", 100);
        assert_eq!(reg.stats().len(), 2);
    }

    #[test]
    fn absorb_merges_by_label() {
        let a = PerfRegistry::new(true);
        let b = PerfRegistry::new(true);
        spin(&a, "shared", 5_000);
        spin(&b, "shared", 5_000);
        spin(&b, "only_b", 5_000);
        let roll = PerfRegistry::new(true);
        roll.absorb(&a);
        roll.absorb(&b);
        let stats = roll.stats();
        assert_eq!(stats.len(), 2);
        let shared = stats.iter().find(|s| s.label == "shared").unwrap();
        assert_eq!(shared.count, 2);
        assert_eq!(
            roll.total_ticks("shared"),
            a.total_ticks("shared") + b.total_ticks("shared")
        );
        assert_eq!(roll.total_ticks("only_b"), b.total_ticks("only_b"));
    }

    #[test]
    fn stats_sorted_by_self_time_and_in_ns() {
        let reg = PerfRegistry::new(true);
        spin(&reg, "heavy", 200_000);
        spin(&reg, "light", 100);
        let stats = reg.stats();
        assert_eq!(stats[0].label, "heavy");
        assert!(stats[0].self_ns >= stats[1].self_ns);
        assert!(reg.ns_per_tick() > 0.0);
        let top = reg.top_by_self(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].label, "heavy");
    }
}
