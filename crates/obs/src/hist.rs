//! Log-bucketed latency histograms.
//!
//! [`LatencyHistogram`] records durations in nanoseconds into power-of-two
//! buckets: bucket *i* (for *i* ≥ 1) covers `(2^(i-1), 2^i]` ns, bucket 0
//! covers `[0, 1]`. The bucket array is allocated on the first record (or
//! the first non-empty merge), so a histogram that never records — most
//! daemons' delivery latency — costs no heap; after that, recording is O(1)
//! with no allocation. Quantiles are read out with linear interpolation inside the
//! resolved bucket (≤ 2× relative error by construction, far better in
//! practice for smooth distributions), and two histograms merge exactly —
//! unlike sample-keeping percentile estimators, which either grow without
//! bound or subsample.

/// Number of buckets: zero bucket + one per possible leading-bit position.
const BUCKETS: usize = 65;

/// The bucket counts of a histogram that has not allocated its own.
static NO_COUNTS: [u64; BUCKETS] = [0; BUCKETS];

/// A fixed-size log₂-bucketed histogram of durations in nanoseconds.
/// (Equality compares what the accessors read: an empty histogram equals
/// another empty one whether or not either allocated its buckets.)
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `None` until the first record or non-empty merge.
    counts: Option<Box<[u64; BUCKETS]>>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        (self.count, self.sum, self.min, self.max) == (other.count, other.sum, other.min, other.max)
            && self.buckets() == other.buckets()
    }
}

impl Eq for LatencyHistogram {}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Bucket index for a value: bucket 0 covers `[0, 1]`, bucket `i` (≥ 1)
/// covers `(2^(i-1), 2^i]`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - (v - 1).leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` in nanoseconds.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Exclusive lower bound of bucket `i` in nanoseconds (inclusive 0 for the
/// zero bucket).
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: None,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a histogram from its sparse form — what
    /// [`bucket_counts`](Self::bucket_counts), [`count`](Self::count),
    /// [`sum`](Self::sum), [`min`](Self::min) and [`max`](Self::max) read
    /// off one — as it arrives in a telemetry frame or row. The parts come
    /// from outside the program, so everything a later
    /// [`quantile`](Self::quantile) relies on is checked here.
    ///
    /// # Errors
    ///
    /// Names the first violation: a bucket index above 64, indices not
    /// strictly ascending, a zero bucket count, bucket counts that do not
    /// add up to `count`, or `min > max` on a non-empty histogram.
    pub fn from_sparse(
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        buckets: impl IntoIterator<Item = (usize, u64)>,
    ) -> Result<LatencyHistogram, &'static str> {
        let mut h = LatencyHistogram::new();
        let mut next = 0;
        let mut total = 0u64;
        for (i, c) in buckets {
            if i >= BUCKETS {
                return Err("bucket index above 64");
            }
            if i < next {
                return Err("bucket indices not strictly ascending");
            }
            if c == 0 {
                return Err("empty bucket listed");
            }
            total = total
                .checked_add(c)
                .ok_or("bucket counts overflow the count")?;
            h.counts_mut()[i] = c;
            next = i + 1;
        }
        if total != count {
            return Err("bucket counts do not add up to the count");
        }
        if count > 0 {
            if min > max {
                return Err("min above max");
            }
            (h.count, h.sum, h.min, h.max) = (count, sum, min, max);
        }
        Ok(h)
    }

    fn buckets(&self) -> &[u64; BUCKETS] {
        self.counts.as_deref().unwrap_or(&NO_COUNTS)
    }

    fn counts_mut(&mut self) -> &mut [u64; BUCKETS] {
        self.counts.get_or_insert_with(|| Box::new([0; BUCKETS]))
    }

    /// Records one duration in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.counts_mut()[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum += u128::from(nanos);
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value in nanoseconds, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value in nanoseconds, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values in nanoseconds, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, or 0 when empty.
    ///
    /// The answer is exact to the resolved bucket and linearly interpolated
    /// within it, clamped to the observed `[min, max]` so the tails never
    /// overshoot the data.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets().iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate position within this bucket.
                let into = (rank - seen) as f64 / c as f64;
                let lo = bucket_lo(i) as f64;
                let hi = bucket_hi(i) as f64;
                let v = lo + (hi - lo) * into;
                return (v as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Shorthand for the 50th percentile in nanoseconds.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Shorthand for the 90th percentile in nanoseconds.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Shorthand for the 99th percentile in nanoseconds.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one. Merging is exact: the result
    /// is identical to having recorded every value into one histogram.
    /// (Counts saturate instead of wrapping: a collector merges histograms
    /// whose counts remote senders chose.)
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if let Some(theirs) = &other.counts {
            for (a, b) in self.counts_mut().iter_mut().zip(theirs.iter()) {
                *a = a.saturating_add(*b);
            }
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Exact sum of recorded values in nanoseconds (`u128`: a u64 count of
    /// u64 values cannot overflow it).
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Non-empty buckets as `(bucket index, count)`, index-ascending — the
    /// sparse form a [`TelemetrySnapshot`](crate::TelemetrySnapshot)
    /// serializes and [`from_sparse`](Self::from_sparse) reads back.
    pub fn bucket_counts(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

impl crate::footprint::MemFootprint for LatencyHistogram {
    fn footprint_bytes(&self) -> usize {
        self.counts
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<[u64; BUCKETS]>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 20), 20);
        assert_eq!(bucket_of((1 << 20) + 1), 21);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Each value lies within its bucket's (lo, hi] range.
        for v in [1u64, 2, 3, 4, 5, 1023, 1024, 1025, u64::MAX] {
            let i = bucket_of(v);
            assert!(v <= bucket_hi(i), "{v} above hi of bucket {i}");
            assert!(i == 0 || v > bucket_lo(i), "{v} below lo of bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn single_value_quantiles() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1_000_000, "q={q}");
        }
    }

    #[test]
    fn quantiles_bounded_by_bucket() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 200, 400, 800, 1600, 3200] {
            h.record(v);
        }
        let p50 = h.p50();
        // Exact p50 (rank 3 of 6) is 400; bucket (256, 512] bounds the error.
        assert!(p50 > 256 && p50 <= 512, "p50={p50}");
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 3200);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for v in [5u64, 17, 200, 90_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [3u64, 1_000_000, 64] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        assert_eq!(a.mean(), combined.mean());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), combined.quantile(q), "q={q}");
        }
    }

    #[test]
    fn buckets_are_allocated_on_the_first_record_or_non_empty_merge() {
        use crate::footprint::MemFootprint;
        let bytes = std::mem::size_of::<[u64; BUCKETS]>();
        let mut h = LatencyHistogram::new();
        h.merge(&LatencyHistogram::new());
        assert_eq!(h.footprint_bytes(), 0);
        assert_eq!(h, LatencyHistogram::from_sparse(0, 0, 0, 0, []).unwrap());
        let mut one = LatencyHistogram::new();
        one.record(40);
        assert_eq!(one.footprint_bytes(), bytes);
        h.merge(&one);
        assert_eq!((h.footprint_bytes(), h.count()), (bytes, 1));
        assert_eq!(h, one);
        assert_ne!(one, LatencyHistogram::new());
    }

    /// (`snapshot`'s decoder tests break each rule once more, through a
    /// frame and a row.)
    #[test]
    fn from_sparse_rebuilds_what_the_accessors_read_and_rejects_the_rest() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 90, 2_500_000, u64::MAX] {
            h.record(v);
        }
        let rebuilt =
            LatencyHistogram::from_sparse(h.count(), h.sum(), h.min(), h.max(), h.bucket_counts());
        assert_eq!(rebuilt, Ok(h));
        // Whatever min and max an empty one claims, it is the empty one.
        assert_eq!(
            LatencyHistogram::from_sparse(0, 9, 7, 3, []),
            Ok(LatencyHistogram::new())
        );
        let rejected = |count, min, max, buckets: &[(usize, u64)]| {
            LatencyHistogram::from_sparse(count, 0, min, max, buckets.iter().copied()).unwrap_err()
        };
        assert_eq!(rejected(1, 0, 0, &[(65, 1)]), "bucket index above 64");
        let order = "bucket indices not strictly ascending";
        assert_eq!(rejected(2, 0, 9, &[(3, 1), (2, 1)]), order);
        assert_eq!(rejected(2, 0, 9, &[(3, 1), (3, 1)]), order);
        assert_eq!(rejected(1, 0, 9, &[(3, 1), (4, 0)]), "empty bucket listed");
        let short = "bucket counts do not add up to the count";
        assert_eq!(rejected(3, 0, 9, &[(3, 1), (4, 1)]), short);
        assert_eq!(
            rejected(u64::MAX, 0, 9, &[(3, u64::MAX), (4, 1)]),
            "bucket counts overflow the count"
        );
        assert_eq!(rejected(1, 10, 9, &[(3, 1)]), "min above max");

        // Two as full as the encoding allows merge without wrapping.
        let full = LatencyHistogram::from_sparse(u64::MAX, u128::MAX, 5, 8, [(3, u64::MAX)]);
        let mut twice = full.clone().unwrap();
        twice.merge(&full.unwrap());
        assert_eq!((twice.count(), twice.sum()), (u64::MAX, u128::MAX));
        assert_eq!(twice.quantile(0.5), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn percentiles_are_monotone(values in proptest::collection::vec(0u64..10_000_000_000, 1..300)) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0u64;
            for &q in &qs {
                let v = h.quantile(q);
                prop_assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
                prop_assert!(v >= h.min() && v <= h.max());
                prev = v;
            }
            prop_assert_eq!(h.count(), values.len() as u64);
        }

        fn quantile_within_a_factor_of_two(values in proptest::collection::vec(1u64..1_000_000_000, 1..200), qi in 0usize..5) {
            let q = [0.1, 0.5, 0.9, 0.95, 0.99][qi];
            let mut h = LatencyHistogram::new();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &v in &values {
                h.record(v);
            }
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = sorted[rank - 1];
            let est = h.quantile(q);
            // The estimate lands in the exact value's bucket or is clamped to
            // observed min/max, so it is within 2x below and 2x above.
            prop_assert!(est <= exact.saturating_mul(2), "est={est} exact={exact}");
            prop_assert!(est >= exact / 2, "est={est} exact={exact}");
        }
    }
}
