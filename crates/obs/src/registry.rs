//! The metrics registry: typed counters, gauges, and latency histograms.
//!
//! Instruments are registered once by `(name, labels)` and thereafter
//! addressed by a copyable index handle ([`CounterId`], [`GaugeId`],
//! [`HistId`]). The hot path is therefore a bounds-checked `Vec` index and an
//! add — the same cost as bumping a struct field — while the slow path
//! (registration, lookup by name, export) carries the metadata. Registering
//! the same `(name, labels)` twice returns the same handle, so components
//! can re-register idempotently instead of threading handles around.

use std::collections::BTreeMap;

use crate::hist::LatencyHistogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(usize);

/// Handle to a registered latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(usize);

/// Name and labels of one registered instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrumentDesc {
    /// Dotted metric name, e.g. `node.forwarded`.
    pub name: String,
    /// Label pairs, e.g. `[("node", "3"), ("proto", "reliable")]`.
    pub labels: Vec<(String, String)>,
}

impl InstrumentDesc {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        InstrumentDesc {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }

    /// Canonical `name{k=v,...}` rendering (also the registry lookup key).
    #[must_use]
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out.push('}');
        out
    }

    /// `true` iff `rendered` is exactly what [`InstrumentDesc::key`] would
    /// return, checked without allocating — the telemetry producer
    /// revalidates its cached key strings against the registry this way
    /// every epoch, so the steady-state snapshot path never re-renders.
    #[must_use]
    pub fn key_matches(&self, rendered: &str) -> bool {
        let Some(mut rest) = rendered.strip_prefix(self.name.as_str()) else {
            return false;
        };
        if self.labels.is_empty() {
            return rest.is_empty();
        }
        let Some(r) = rest.strip_prefix('{') else {
            return false;
        };
        rest = r;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                let Some(r) = rest.strip_prefix(',') else {
                    return false;
                };
                rest = r;
            }
            let Some(r) = rest.strip_prefix(k.as_str()) else {
                return false;
            };
            let Some(r) = r.strip_prefix('=') else {
                return false;
            };
            let Some(r) = r.strip_prefix(v.as_str()) else {
                return false;
            };
            rest = r;
        }
        rest == "}"
    }
}

fn lookup_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// A registry of labelled instruments.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<u64>,
    counter_meta: Vec<InstrumentDesc>,
    counter_index: BTreeMap<String, CounterId>,
    gauges: Vec<f64>,
    gauge_meta: Vec<InstrumentDesc>,
    gauge_index: BTreeMap<String, GaugeId>,
    hists: Vec<LatencyHistogram>,
    hist_meta: Vec<InstrumentDesc>,
    hist_index: BTreeMap<String, HistId>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) the counter `name{labels}`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        let key = lookup_key(name, labels);
        if let Some(&id) = self.counter_index.get(&key) {
            return id;
        }
        let id = CounterId(self.counters.len());
        self.counters.push(0);
        self.counter_meta.push(InstrumentDesc::new(name, labels));
        self.counter_index.insert(key, id);
        id
    }

    /// Registers (or finds) the gauge `name{labels}`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        let key = lookup_key(name, labels);
        if let Some(&id) = self.gauge_index.get(&key) {
            return id;
        }
        let id = GaugeId(self.gauges.len());
        self.gauges.push(0.0);
        self.gauge_meta.push(InstrumentDesc::new(name, labels));
        self.gauge_index.insert(key, id);
        id
    }

    /// Registers (or finds) the histogram `name{labels}`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistId {
        let key = lookup_key(name, labels);
        if let Some(&id) = self.hist_index.get(&key) {
            return id;
        }
        let id = HistId(self.hists.len());
        self.hists.push(LatencyHistogram::new());
        self.hist_meta.push(InstrumentDesc::new(name, labels));
        self.hist_index.insert(key, id);
        id
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0] = value;
    }

    /// Records a duration in nanoseconds into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, nanos: u64) {
        self.hists[id.0].record(nanos);
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Read access to a histogram.
    #[must_use]
    pub fn hist(&self, id: HistId) -> &LatencyHistogram {
        &self.hists[id.0]
    }

    /// Looks up a counter's value by name and labels without registering it.
    #[must_use]
    pub fn counter_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counter_index
            .get(&lookup_key(name, labels))
            .map(|&id| self.counters[id.0])
    }

    /// Looks up a histogram by name and labels without registering it.
    #[must_use]
    pub fn hist_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LatencyHistogram> {
        self.hist_index
            .get(&lookup_key(name, labels))
            .map(|&id| &self.hists[id.0])
    }

    /// Sum of all counters sharing `name`, across label sets.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counter_meta
            .iter()
            .zip(self.counters.iter())
            .filter(|(m, _)| m.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Every histogram sharing `name` merged into one, across label sets.
    #[must_use]
    pub fn hist_merged(&self, name: &str) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for (m, h) in self.hist_meta.iter().zip(self.hists.iter()) {
            if m.name == name {
                out.merge(h);
            }
        }
        out
    }

    /// All counters as `(descriptor, value)`, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&InstrumentDesc, u64)> {
        self.counter_meta.iter().zip(self.counters.iter().copied())
    }

    /// All gauges as `(descriptor, value)`, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&InstrumentDesc, f64)> {
        self.gauge_meta.iter().zip(self.gauges.iter().copied())
    }

    /// All histograms as `(descriptor, histogram)`, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&InstrumentDesc, &LatencyHistogram)> {
        self.hist_meta.iter().zip(self.hists.iter())
    }

    /// Folds every instrument of `other` into this registry, matching by
    /// `(name, labels)` and registering anything not yet present. Used to
    /// aggregate per-node registries into an experiment-wide view.
    pub fn absorb(&mut self, other: &Registry) {
        for (desc, v) in other.counters() {
            let labels: Vec<(&str, &str)> = desc
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let id = self.counter(&desc.name, &labels);
            self.counters[id.0] += v;
        }
        for (desc, v) in other.gauges() {
            let labels: Vec<(&str, &str)> = desc
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let id = self.gauge(&desc.name, &labels);
            self.gauges[id.0] = v;
        }
        for (desc, h) in other.histograms() {
            let labels: Vec<(&str, &str)> = desc
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let id = self.histogram(&desc.name, &labels);
            self.hists[id.0].merge(h);
        }
    }
}

impl crate::footprint::MemFootprint for Registry {
    fn footprint_bytes(&self) -> usize {
        use crate::footprint::{btreemap_bytes, vec_bytes, MemFootprint};
        let meta: usize = self
            .counter_meta
            .iter()
            .chain(&self.gauge_meta)
            .chain(&self.hist_meta)
            .map(|d| {
                d.name.len()
                    + d.labels
                        .iter()
                        .map(|(k, v)| k.len() + v.len() + std::mem::size_of::<(String, String)>())
                        .sum::<usize>()
            })
            .sum();
        let keys: usize = self
            .counter_index
            .keys()
            .chain(self.gauge_index.keys())
            .chain(self.hist_index.keys())
            .map(String::len)
            .sum();
        vec_bytes(&self.counters)
            + vec_bytes(&self.counter_meta)
            + vec_bytes(&self.gauges)
            + vec_bytes(&self.gauge_meta)
            + vec_bytes(&self.hists)
            + vec_bytes(&self.hist_meta)
            + self
                .hists
                .iter()
                .map(MemFootprint::footprint_bytes)
                .sum::<usize>()
            + btreemap_bytes(&self.counter_index)
            + btreemap_bytes(&self.gauge_index)
            + btreemap_bytes(&self.hist_index)
            + meta
            + keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("node.forwarded", &[("node", "1")]);
        let b = r.counter("node.forwarded", &[("node", "1")]);
        let c = r.counter("node.forwarded", &[("node", "2")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value(a), 3);
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.counter_named("node.forwarded", &[("node", "1")]), Some(3));
        assert_eq!(r.counter_named("node.forwarded", &[("node", "9")]), None);
    }

    #[test]
    fn totals_aggregate_across_labels() {
        let mut r = Registry::new();
        for node in 0..4 {
            let id = r.counter("node.forwarded", &[("node", &node.to_string())]);
            r.add(id, node + 10);
        }
        assert_eq!(r.counter_total("node.forwarded"), 10 + 11 + 12 + 13);
        assert_eq!(r.counter_total("missing"), 0);
    }

    #[test]
    fn gauges_and_histograms() {
        let mut r = Registry::new();
        let g = r.gauge("link.window", &[]);
        r.set(g, 12.5);
        assert_eq!(r.gauges().next().map(|(_, v)| v), Some(12.5));
        let h = r.histogram("link.recovery_ns", &[("proto", "reliable")]);
        r.observe(h, 1_000);
        r.observe(h, 3_000);
        assert_eq!(r.hist(h).count(), 2);
        assert_eq!(
            r.hist_named("link.recovery_ns", &[("proto", "reliable")])
                .unwrap()
                .max(),
            3_000
        );
        let merged = r.hist_merged("link.recovery_ns");
        assert_eq!(merged.count(), 2);
    }

    #[test]
    fn absorb_merges_by_identity() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let ca = a.counter("x", &[("n", "1")]);
        a.add(ca, 5);
        let cb = b.counter("x", &[("n", "1")]);
        b.add(cb, 7);
        let cb2 = b.counter("x", &[("n", "2")]);
        b.add(cb2, 1);
        let hb = b.histogram("lat", &[]);
        b.observe(hb, 100);
        a.absorb(&b);
        assert_eq!(a.counter_named("x", &[("n", "1")]), Some(12));
        assert_eq!(a.counter_named("x", &[("n", "2")]), Some(1));
        assert_eq!(a.hist_named("lat", &[]).unwrap().count(), 1);
    }

    #[test]
    fn descriptor_keys_render() {
        let d = InstrumentDesc::new("a.b", &[("k", "v"), ("x", "1")]);
        assert_eq!(d.key(), "a.b{k=v,x=1}");
        assert_eq!(InstrumentDesc::new("plain", &[]).key(), "plain");
    }
}
