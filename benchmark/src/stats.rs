//! Order statistics for the benchmark's own samples.
//!
//! Design rule 5: timings are medians; a percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it, and every record states
//! its sample count.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder a latency sample is summarised on.
pub const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The `q`-quantile of `sorted` (ascending), linearly interpolated between
/// the two nearest ranks. `None` on an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Whether a sample of `n` values supports the `q`-quantile: at least
/// [`MIN_BEYOND`] of them lie beyond it. The median is always supported.
pub fn supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 = 0.0999…` so 100 samples support p90.
    q <= 0.5 || (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The `q`-quantile of `sorted`, or `None` when the sample does not support
/// it under the [`MIN_BEYOND`] rule.
pub fn quantile_checked(sorted: &[f64], q: f64) -> Option<f64> {
    if supported(sorted.len(), q) {
        quantile_sorted(sorted, q)
    } else {
        None
    }
}

/// The highest rung of [`LADDER`] a sample of `n` values supports.
pub fn highest_supported(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&q| supported(n, q))
        .fold(0.5, f64::max)
}

/// The median of `values` (any order). `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Median over chunks of each chunk's figure: `figure` is taken per chunk,
/// chunks it has none for (too few samples for a percentile, nothing
/// delivered) are left out, and the result is `None` when no chunk has one.
pub fn median_of_chunks<C>(chunks: &[C], figure: impl Fn(&C) -> Option<f64>) -> Option<f64> {
    median(&chunks.iter().filter_map(figure).collect::<Vec<_>>())
}

/// Relative disagreement of two measurements of one quantity:
/// `|a - b| / min(|a|, |b|)`, the share by which the worse one is off the
/// better one whichever direction is better.
pub fn rel_spread(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

/// How many of `sent` operations are missing for `floor` of them to have
/// arrived on time; zero at or above the floor.
pub fn shortfall(sent: u64, on_time: u64, floor: f64) -> u64 {
    ((floor * sent as f64).ceil() as u64).saturating_sub(on_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortfall_counts_only_what_is_under_the_floor() {
        assert_eq!(shortfall(1000, 990, 0.99), 0);
        assert_eq!(shortfall(1000, 1000, 0.99), 0);
        assert_eq!(shortfall(1000, 985, 0.99), 5);
        assert_eq!(shortfall(0, 0, 0.99), 0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has 9 beyond it; of 1000 it has 10.
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(supported(100, 0.90));
        assert!(!supported(99, 0.90));
        // The median never needs the rule.
        assert!(supported(1, 0.5));
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(quantile_checked(&small, 0.99), None);
        assert!(quantile_checked(&small, 0.5).is_some());
        assert_eq!(highest_supported(50), 0.5);
        assert_eq!(highest_supported(150), 0.90);
        assert_eq!(highest_supported(4_900), 0.99);
        assert_eq!(highest_supported(10_000), 0.999);
    }

    #[test]
    fn median_of_chunks_takes_each_chunks_quantile_first() {
        let q = |q: f64| move |c: &Vec<f64>| quantile_checked(c, q);
        let chunks = vec![
            vec![1.0, 2.0, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![100.0, 200.0, 300.0],
        ];
        assert_eq!(median_of_chunks(&chunks, q(0.5)), Some(20.0));
        // No chunk supports p99, so there is no figure, not a made-up one.
        assert_eq!(median_of_chunks(&chunks, q(0.99)), None);
        // A chunk too small for the percentile is left out, not zero-filled.
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let mixed = vec![big.clone(), vec![5.0; 20], big];
        let p99 = median_of_chunks(&mixed, q(0.99)).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn rel_spread_is_symmetric() {
        assert!((rel_spread(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((rel_spread(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_spread(0.0, 0.0), 0.0);
        assert_eq!(rel_spread(0.0, 1.0), f64::INFINITY);
    }
}
