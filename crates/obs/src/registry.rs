//! The metrics registry: typed counters, gauges, and latency histograms.
//!
//! Instruments are registered once by `(name, labels)` and thereafter
//! addressed by a copyable index handle ([`CounterId`], [`GaugeId`],
//! [`HistId`]). The hot path is therefore a bounds-checked `Vec` index and an
//! add — the same cost as bumping a struct field — while the slow path
//! (registration, lookup by name, export) carries the metadata. Registering
//! the same `(name, labels)` twice returns the same handle, so components
//! can re-register idempotently instead of threading handles around.
//!
//! A registry costs what it records. Labels every instrument shares (a
//! daemon's `node=<id>`) are stored once per registry
//! ([`Registry::with_labels`]); an instrument keeps its name — borrowed when
//! the code wrote it as a literal — and only its own labels. There is no
//! rendered-key index: registration and the `*_named` lookups compare name
//! and labels in place, a linear scan over a registry's few dozen
//! instruments on paths that run once per instrument, not per packet.

use std::borrow::Cow;

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

/// One stored label pair: keys are always literals, values are copied.
type Label = (&'static str, Box<str>);

fn copy_labels(labels: &[(&'static str, &str)]) -> Box<[Label]> {
    labels.iter().map(|&(k, v)| (k, Box::from(v))).collect()
}

fn labels_bytes(labels: &[Label]) -> usize {
    std::mem::size_of_val(labels) + labels.iter().map(|(_, v)| v.len()).sum::<usize>()
}

/// What a registry stores per instrument.
#[derive(Debug)]
struct Meta {
    name: Cow<'static, str>,
    /// The instrument's own labels; the registry's common ones precede them.
    labels: Box<[Label]>,
}

impl Meta {
    fn is(&self, name: &str, labels: &[(&'static str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (k2, v2))| k == k2 && **v == **v2)
    }

    fn heap_bytes(&self) -> usize {
        let name = match &self.name {
            Cow::Borrowed(_) => 0,
            Cow::Owned(s) => s.capacity(),
        };
        name + labels_bytes(&self.labels)
    }
}

/// Index of the instrument `name{labels}` (own labels) in `metas`, and
/// whether this call registered it.
fn register(
    metas: &mut Vec<Meta>,
    name: Cow<'static, str>,
    labels: &[(&'static str, &str)],
) -> (usize, bool) {
    if let Some(i) = metas.iter().position(|m| m.is(&name, labels)) {
        return (i, false);
    }
    let labels = copy_labels(labels);
    metas.push(Meta { name, labels });
    (metas.len() - 1, true)
}

/// Name and labels of one registered instrument, as a reader sees them:
/// the registry's common labels first, then the instrument's own.
#[derive(Debug, Clone, Copy)]
pub struct InstrumentDesc<'a> {
    /// Dotted metric name, e.g. `node.forwarded`.
    pub name: &'a str,
    common: &'a [Label],
    own: &'a [Label],
}

impl<'a> InstrumentDesc<'a> {
    fn new(common: &'a [Label], meta: &'a Meta) -> Self {
        InstrumentDesc {
            name: &meta.name,
            common,
            own: &meta.labels,
        }
    }

    /// Label pairs, e.g. `("node", "3"), ("proto", "reliable")`.
    pub fn labels(&self) -> impl Iterator<Item = (&'static str, &'a str)> + 'a {
        let (common, own) = (self.common, self.own);
        common.iter().chain(own).map(|(k, v)| (*k, &**v))
    }

    /// Canonical `name{k=v,...}` rendering (the telemetry key).
    #[must_use]
    pub fn key(&self) -> String {
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(self.name);
        for (i, (k, v)) in self.labels().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        if self.labelled() {
            out.push('}');
        }
        out
    }

    /// `true` iff `rendered` is exactly what [`InstrumentDesc::key`] would
    /// return, checked without allocating — the telemetry producer
    /// revalidates its cached key strings against the registry this way
    /// every epoch, so the steady-state snapshot path never re-renders.
    #[must_use]
    pub fn key_matches(&self, rendered: &str) -> bool {
        let Some(mut rest) = rendered.strip_prefix(self.name) else {
            return false;
        };
        for (i, (k, v)) in self.labels().enumerate() {
            let Some(r) = rest.strip_prefix(if i == 0 { '{' } else { ',' }) else {
                return false;
            };
            let Some(r) = r.strip_prefix(k) else {
                return false;
            };
            let Some(r) = r.strip_prefix('=') else {
                return false;
            };
            let Some(r) = r.strip_prefix(v) else {
                return false;
            };
            rest = r;
        }
        rest == if self.labelled() { "}" } else { "" }
    }

    fn labelled(&self) -> bool {
        !self.common.is_empty() || !self.own.is_empty()
    }

    /// `true` iff this is the instrument `name{labels}` (every label, the
    /// common ones included).
    fn is(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && self.common.len() + self.own.len() == labels.len()
            && self.labels().zip(labels).all(|(a, b)| a == *b)
    }
}

/// A registry of labelled instruments.
#[derive(Debug, Default)]
pub struct Registry {
    /// Labels every instrument carries, ahead of its own.
    common: Box<[Label]>,
    counters: Vec<u64>,
    counter_meta: Vec<Meta>,
    gauges: Vec<f64>,
    gauge_meta: Vec<Meta>,
    hists: Vec<LatencyHistogram>,
    hist_meta: Vec<Meta>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry whose every instrument carries `common` ahead of
    /// its own labels, stored once here (a daemon's `node=<id>`).
    #[must_use]
    pub fn with_labels(common: &[(&'static str, &str)]) -> Self {
        Registry {
            common: copy_labels(common),
            ..Registry::default()
        }
    }

    /// Registers (or finds) the counter `name{labels}`; `labels` are the
    /// instrument's own, after the registry's common ones.
    pub fn counter(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        labels: &[(&'static str, &str)],
    ) -> CounterId {
        let (i, new) = register(&mut self.counter_meta, name.into(), labels);
        if new {
            self.counters.push(0);
        }
        CounterId(i)
    }

    /// Registers (or finds) the gauge `name{labels}` (own labels, as for
    /// [`Registry::counter`]).
    pub fn gauge(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        labels: &[(&'static str, &str)],
    ) -> GaugeId {
        let (i, new) = register(&mut self.gauge_meta, name.into(), labels);
        if new {
            self.gauges.push(0.0);
        }
        GaugeId(i)
    }

    /// Registers (or finds) the histogram `name{labels}` (own labels, as
    /// for [`Registry::counter`]). Its buckets are allocated on its first
    /// record.
    pub fn histogram(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        labels: &[(&'static str, &str)],
    ) -> HistId {
        let (i, new) = register(&mut self.hist_meta, name.into(), labels);
        if new {
            self.hists.push(LatencyHistogram::new());
        }
        HistId(i)
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

    /// Looks up a counter's value by name and every label (the common ones
    /// included) without registering it.
    #[must_use]
    pub fn counter_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters()
            .find(|(desc, _)| desc.is(name, labels))
            .map(|(_, v)| v)
    }

    /// Looks up a histogram by name and every label without registering it.
    #[must_use]
    pub fn hist_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LatencyHistogram> {
        self.histograms()
            .find(|(desc, _)| desc.is(name, labels))
            .map(|(_, h)| h)
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

    fn descs<'a>(&'a self, metas: &'a [Meta]) -> impl Iterator<Item = InstrumentDesc<'a>> {
        metas.iter().map(|m| InstrumentDesc::new(&self.common, m))
    }

    /// All counters as `(descriptor, value)`, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (InstrumentDesc<'_>, u64)> {
        let values = self.counters.iter().copied();
        self.descs(&self.counter_meta).zip(values)
    }

    /// All gauges as `(descriptor, value)`, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (InstrumentDesc<'_>, f64)> {
        self.descs(&self.gauge_meta)
            .zip(self.gauges.iter().copied())
    }

    /// All histograms as `(descriptor, histogram)`, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (InstrumentDesc<'_>, &LatencyHistogram)> {
        self.descs(&self.hist_meta).zip(self.hists.iter())
    }

    /// `other`'s labels for `meta` (its common ones, then the instrument's)
    /// as own labels of this registry: past this registry's common ones,
    /// which must lead them.
    fn rebased<'a>(&self, other: &'a Registry, meta: &'a Meta) -> Vec<(&'static str, &'a str)> {
        let mut labels: Vec<(&'static str, &str)> =
            InstrumentDesc::new(&other.common, meta).labels().collect();
        let common = self.common.iter().map(|(k, v)| (*k, &**v));
        assert!(
            labels.len() >= self.common.len()
                && common.eq(labels[..self.common.len()].iter().copied()),
            "absorbed instrument {} lacks this registry's common labels",
            meta.name
        );
        labels.drain(..self.common.len());
        labels
    }

    /// Folds every instrument of `other` into this registry, matching by
    /// `(name, labels)` and registering anything not yet present. Used to
    /// aggregate per-node registries into an experiment-wide view (one
    /// whose common labels, if any, lead every absorbed instrument's).
    pub fn absorb(&mut self, other: &Registry) {
        for (meta, &v) in other.counter_meta.iter().zip(&other.counters) {
            let id = self.counter(meta.name.clone(), &self.rebased(other, meta));
            self.counters[id.0] += v;
        }
        for (meta, &v) in other.gauge_meta.iter().zip(&other.gauges) {
            let id = self.gauge(meta.name.clone(), &self.rebased(other, meta));
            self.gauges[id.0] = v;
        }
        for (meta, h) in other.hist_meta.iter().zip(&other.hists) {
            let id = self.histogram(meta.name.clone(), &self.rebased(other, meta));
            self.hists[id.0].merge(h);
        }
    }
}

impl crate::footprint::MemFootprint for Registry {
    fn footprint_bytes(&self) -> usize {
        use crate::footprint::{vec_bytes, MemFootprint};
        let meta: usize = self
            .counter_meta
            .iter()
            .chain(&self.gauge_meta)
            .chain(&self.hist_meta)
            .map(Meta::heap_bytes)
            .sum();
        labels_bytes(&self.common)
            + vec_bytes(&self.counters)
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
            + meta
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
        let mut r = Registry::new();
        r.counter("a.b", &[("k", "v"), ("x", "1")]);
        r.counter("plain", &[]);
        let keys: Vec<String> = r.counters().map(|(d, _)| d.key()).collect();
        assert_eq!(keys, ["a.b{k=v,x=1}", "plain"]);
        for (d, _) in r.counters() {
            assert!(d.key_matches(&d.key()));
            assert!(!d.key_matches(&(d.key() + "}")));
        }
    }

    /// Common labels are stored once and read as every instrument's first
    /// labels: by the key, the `*_named` lookups, and an absorbing registry.
    #[test]
    fn common_labels_lead_every_instrument() {
        let mut r = Registry::with_labels(&[("node", "7")]);
        let plain = r.counter("node.forwarded", &[]);
        let proto = r.counter("link.retransmit", &[("proto", "reliable")]);
        assert_eq!(r.counter("node.forwarded", &[]), plain);
        assert_ne!(r.counter("link.retransmit", &[("proto", "fec")]), proto);
        r.add(proto, 4);
        let h = r.histogram("link.recovery_ns", &[("proto", "reliable")]);
        r.observe(h, 5);

        let descs: Vec<(String, Vec<(&str, &str)>)> = r
            .counters()
            .map(|(d, _)| (d.key(), d.labels().collect()))
            .collect();
        assert_eq!(
            descs[0],
            ("node.forwarded{node=7}".into(), vec![("node", "7")])
        );
        let both = vec![("node", "7"), ("proto", "reliable")];
        assert_eq!(
            descs[1],
            ("link.retransmit{node=7,proto=reliable}".into(), both)
        );
        assert_eq!(
            r.counter_named("link.retransmit", &[("node", "7"), ("proto", "reliable")]),
            Some(4)
        );
        assert_eq!(
            r.counter_named("link.retransmit", &[("proto", "reliable")]),
            None
        );
        assert_eq!(r.counter_named("node.forwarded", &[("node", "7")]), Some(0));
        let full = [("node", "7"), ("proto", "reliable")];
        assert_eq!(
            r.hist_named("link.recovery_ns", &full)
                .map(LatencyHistogram::count),
            Some(1)
        );

        let mut all = Registry::new();
        all.absorb(&r);
        all.absorb(&r);
        assert_eq!(all.counter_named("link.retransmit", &full), Some(8));
        assert_eq!(
            all.hist_named("link.recovery_ns", &full)
                .map(LatencyHistogram::count),
            Some(2)
        );
        let mut same = Registry::with_labels(&[("node", "7")]);
        same.absorb(&r);
        assert_eq!(same.counter_named("link.retransmit", &full), Some(4));
    }

    #[test]
    #[should_panic(expected = "lacks this registry's common labels")]
    fn absorbing_an_instrument_without_the_common_labels_panics() {
        let mut other = Registry::new();
        other.counter("x", &[("node", "1")]);
        Registry::with_labels(&[("node", "2")]).absorb(&other);
    }

    /// A name written as a literal is borrowed, and an instrument without
    /// labels of its own costs its slots only; a computed name and a label
    /// value are copied once.
    #[test]
    fn instruments_cost_their_slots_and_what_they_copy() {
        use crate::footprint::MemFootprint;
        let mut r = Registry::with_labels(&[("node", "12")]);
        let common = std::mem::size_of::<Label>() + 2;
        assert_eq!(r.footprint_bytes(), common);
        r.counter("node.forwarded", &[]);
        r.histogram("node.delivery_latency_ns", &[]);
        let slots = r.counters.capacity() * std::mem::size_of::<u64>()
            + r.counter_meta.capacity() * std::mem::size_of::<Meta>()
            + r.hists.capacity() * std::mem::size_of::<LatencyHistogram>()
            + r.hist_meta.capacity() * std::mem::size_of::<Meta>();
        assert_eq!(r.footprint_bytes(), common + slots);
        r.counter(String::from("computed"), &[("proto", "fec")]);
        let meta = r.counter_meta.last().unwrap();
        assert_eq!(
            meta.heap_bytes(),
            "computed".len() + std::mem::size_of::<Label>() + 3
        );
    }
}
