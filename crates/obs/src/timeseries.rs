//! The flight recorder: bounded time series of selected instruments.
//!
//! End-of-run registry totals answer *how much*; experiments about dynamics
//! (reroute gaps, churn, recovery bursts) also need *when*. A
//! [`TimeSeriesRing`] snapshots a fixed set of instrument values on a
//! simulation-clock cadence (driven by the harness via
//! `Simulation::run_with_cadence`), keeping the last `capacity` samples, and
//! exports them as `metrics_ts.jsonl` rows alongside the trace export.

use crate::footprint::{vec_bytes, MemFootprint};
use crate::json::Json;
use crate::registry::Registry;
use crate::ring::Ring;

/// One cadence tick: every tracked series sampled at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TsSample {
    /// Simulation time of the snapshot, nanoseconds.
    pub at_ns: u64,
    /// Wall-clock time of the snapshot, nanoseconds since the run's wall
    /// epoch — lets rows be joined against wall-clock profiler data.
    pub wall_ns: u64,
    /// Values in tracked-series order.
    pub values: Vec<f64>,
}

/// A bounded [`Ring`] of periodic snapshots of named instrument values.
#[derive(Debug)]
pub struct TimeSeriesRing {
    tracked: Vec<String>,
    ring: Ring<TsSample>,
}

impl TimeSeriesRing {
    /// Creates a recorder tracking `tracked` series names, keeping at most
    /// `capacity` samples (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or no series are tracked.
    #[must_use]
    pub fn new(capacity: usize, tracked: Vec<String>) -> Self {
        assert!(!tracked.is_empty(), "must track at least one series");
        TimeSeriesRing {
            tracked,
            ring: Ring::new(capacity),
        }
    }

    /// The tracked series names, in sample order.
    #[must_use]
    pub fn tracked(&self) -> &[String] {
        &self.tracked
    }

    /// Takes one snapshot at simulation time `at_ns` / wall-clock time
    /// `wall_ns`, reading each tracked series through `read`. Returns `true`
    /// if an older sample was evicted.
    pub fn snapshot_with(
        &mut self,
        at_ns: u64,
        wall_ns: u64,
        mut read: impl FnMut(&str) -> f64,
    ) -> bool {
        let values = self.tracked.iter().map(|name| read(name)).collect();
        self.ring.record(TsSample {
            at_ns,
            wall_ns,
            values,
        })
    }

    /// Takes one snapshot of counter totals (summed across label sets) from
    /// `registry`. Series missing from the registry sample as 0.
    pub fn snapshot_registry(&mut self, at_ns: u64, wall_ns: u64, registry: &Registry) -> bool {
        self.snapshot_with(at_ns, wall_ns, |name| registry.counter_total(name) as f64)
    }

    /// The retained samples (oldest first), with the recorded and evicted
    /// counts.
    #[must_use]
    pub fn samples(&self) -> &Ring<TsSample> {
        &self.ring
    }

    /// The retained series as `metrics_ts.jsonl` rows, one per
    /// (sample, series) pair:
    /// `{"kind":"ts","at_ns":…,"wall_ns":…,"name":…,"value":…}`.
    #[must_use]
    pub fn rows(&self) -> Vec<Json> {
        let mut rows = Vec::new();
        for sample in self.ring.events() {
            for (name, value) in self.tracked.iter().zip(&sample.values) {
                rows.push(Json::obj(vec![
                    ("kind", Json::str("ts")),
                    ("at_ns", Json::U64(sample.at_ns)),
                    ("wall_ns", Json::U64(sample.wall_ns)),
                    ("name", Json::str(name)),
                    ("value", Json::F64(*value)),
                ]));
            }
        }
        rows
    }
}

impl MemFootprint for TimeSeriesRing {
    fn footprint_bytes(&self) -> usize {
        let tracked: usize = self
            .tracked
            .iter()
            .map(|s| s.len() + std::mem::size_of::<String>())
            .sum();
        let samples: usize = self.ring.events().map(|s| vec_bytes(&s.values)).sum();
        self.ring.footprint_bytes() + tracked + samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn tracked() -> Vec<String> {
        vec!["a".to_owned(), "b".to_owned()]
    }

    #[test]
    fn snapshots_sample_every_series_in_order() {
        let mut ts = TimeSeriesRing::new(8, tracked());
        ts.snapshot_with(100, 1_100, |name| if name == "a" { 1.0 } else { 2.0 });
        ts.snapshot_with(200, 2_200, |name| if name == "a" { 3.0 } else { 4.0 });
        let samples: Vec<&TsSample> = ts.samples().events().collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].at_ns, 100);
        assert_eq!(samples[0].values, vec![1.0, 2.0]);
        assert_eq!(samples[1].values, vec![3.0, 4.0]);
    }

    #[test]
    fn registry_snapshots_sum_label_sets_and_default_missing_to_zero() {
        let mut reg = Registry::new();
        let c1 = reg.counter("a", &[("link", "0")]);
        let c2 = reg.counter("a", &[("link", "1")]);
        reg.inc(c1);
        reg.add(c2, 4);
        let mut ts = TimeSeriesRing::new(4, tracked());
        ts.snapshot_registry(7, 70, &reg);
        let sample = ts.samples().events().next().unwrap();
        assert_eq!(sample.values, vec![5.0, 0.0]);
    }

    #[test]
    fn rows_carry_schema_fields() {
        let mut ts = TimeSeriesRing::new(4, tracked());
        ts.snapshot_with(50, 555, |_| 9.0);
        let rows = ts.rows();
        assert_eq!(rows.len(), 2);
        let parsed = Json::parse(&rows[0].to_json()).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("ts"));
        assert_eq!(parsed.get("at_ns").unwrap().as_u64(), Some(50));
        assert_eq!(parsed.get("wall_ns").unwrap().as_u64(), Some(555));
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a"));
        assert_eq!(parsed.get("value").unwrap().as_f64(), Some(9.0));
    }
}
