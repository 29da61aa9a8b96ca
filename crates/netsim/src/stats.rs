//! Metric collection: percentile samplers, counters, and fairness indices.
//!
//! Experiments in `son-bench` print the same rows the paper reports, so the
//! primitives here focus on the quantities the paper talks about: delivery
//! latency percentiles, jitter, loss/overhead ratios, and fairness indices.

/// Exact percentile sampler: stores every observation.
///
/// Simulations in this workspace record at most a few million samples per
/// flow, so exact storage is affordable and avoids sketch error in the
/// reported percentiles.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty sampler.
    #[must_use]
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The `q`-quantile (`q` in `[0,1]`) using nearest-rank interpolation,
    /// or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median shortcut.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Fraction of observations `<= bound`, or `None` when empty.
    #[must_use]
    pub fn fraction_within(&self, bound: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.iter().filter(|&&x| x <= bound).count();
        Some(n as f64 / self.samples.len() as f64)
    }

    /// Mean of the observations, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |m: f64| m.max(x))))
    }

    /// Read-only view of the raw samples (in insertion order until a quantile
    /// query sorts them).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let samples: Vec<f64> = iter.into_iter().collect();
        Percentiles {
            samples,
            sorted: false,
        }
    }
}

impl Extend<f64> for Percentiles {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

/// A monotonically increasing named counter set.
///
/// Names are looked up by string; a holder with a few names it bumps on
/// every event resolves them once with [`Counters::with_fixed`] and bumps
/// them by index. Readers cannot tell the two apart.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    map: std::collections::BTreeMap<String, u64>,
    /// Names resolved once; `slots[i]` counts `fixed[i]`.
    fixed: &'static [&'static str],
    /// `None` until first bumped, so an untouched name stays absent.
    slots: Vec<Option<u64>>,
}

impl Counters {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty counter set whose `fixed[i]` can be bumped as
    /// [`Counters::bump`]`(i, _)`.
    #[must_use]
    pub fn with_fixed(fixed: &'static [&'static str]) -> Self {
        Counters {
            map: std::collections::BTreeMap::new(),
            fixed,
            slots: vec![None; fixed.len()],
        }
    }

    /// Adds `n` to the `index`-th name given to [`Counters::with_fixed`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn bump(&mut self, index: usize, n: u64) {
        *self.slots[index].get_or_insert(0) += n;
    }

    /// Adds `n` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        // `entry` would build a `String` per bump; allocate on first sight only.
        match self.map.get_mut(name) {
            Some(value) => *value += n,
            None => {
                self.map.insert(name.to_owned(), n);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        let bumped = self.fixed.iter().position(|&f| f == name);
        self.map.get(name).copied().unwrap_or(0) + bumped.and_then(|i| self.slots[i]).unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        let mut all: std::collections::BTreeMap<&str, u64> =
            self.map.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        for (&name, slot) in self.fixed.iter().zip(&self.slots) {
            if let Some(v) = slot {
                *all.entry(name).or_default() += v;
            }
        }
        all.into_iter()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

/// Jain's fairness index over a set of per-entity allocations.
///
/// Returns 1.0 for perfectly equal allocations and approaches `1/n` as one
/// entity dominates. Returns `None` for an empty input or all-zero input.
#[must_use]
pub fn jain_fairness(allocations: &[f64]) -> Option<f64> {
    if allocations.is_empty() {
        return None;
    }
    let sum: f64 = allocations.iter().sum();
    let sq_sum: f64 = allocations.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return None;
    }
    Some(sum * sum / (allocations.len() as f64 * sq_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut p: Percentiles = (1..=100).map(f64::from).collect();
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert!((p.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.99).unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn percentiles_fraction_within() {
        let p: Percentiles = (1..=10).map(f64::from).collect();
        assert_eq!(p.fraction_within(5.0), Some(0.5));
        assert_eq!(p.fraction_within(0.0), Some(0.0));
        assert_eq!(p.fraction_within(100.0), Some(1.0));
        assert_eq!(Percentiles::new().fraction_within(1.0), None);
    }

    #[test]
    fn percentiles_empty_returns_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert_eq!(p.mean(), None);
        assert_eq!(p.max(), None);
    }

    #[test]
    fn percentiles_record_after_query() {
        let mut p = Percentiles::new();
        p.record(5.0);
        assert_eq!(p.median(), Some(5.0));
        p.record(1.0); // re-sorts lazily
        assert_eq!(p.quantile(0.0), Some(1.0));
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut c = Counters::new();
        c.incr("sent");
        c.add("sent", 4);
        c.incr("lost");
        assert_eq!(c.get("sent"), 5);
        assert_eq!(c.get("missing"), 0);

        let mut d = Counters::new();
        d.add("sent", 10);
        c.merge(&d);
        assert_eq!(c.get("sent"), 15);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["lost", "sent"]);
    }

    #[test]
    fn fixed_names_read_like_any_other_counter() {
        let mut c = Counters::with_fixed(&["pipe.delivered", "pipe.bytes"]);
        c.incr("drop.loss");
        c.bump(0, 1);
        c.bump(0, 1);
        c.incr("zz");
        assert_eq!(c.get("pipe.delivered"), 2);
        assert_eq!(c.get("pipe.bytes"), 0);
        let pairs: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(
            pairs,
            vec![("drop.loss", 1), ("pipe.delivered", 2), ("zz", 1)],
            "name order; a fixed name nobody bumped is absent, not zero"
        );
        // A zero-sized bump still creates the name, as `add(name, 0)` does.
        c.bump(1, 0);
        assert!(c.iter().any(|(k, v)| (k, v) == ("pipe.bytes", 0)));
        // Bumped by index here, by name there: one counter after a merge.
        let mut total = Counters::new();
        total.add("pipe.delivered", 5);
        total.merge(&c);
        assert_eq!(total.get("pipe.delivered"), 7);
        c.add("pipe.delivered", 1);
        assert_eq!(c.get("pipe.delivered"), 3);
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[100.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), None);
        assert_eq!(jain_fairness(&[0.0, 0.0]), None);
    }
}
