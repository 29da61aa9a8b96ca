//! Deterministic randomness for reproducible simulations.
//!
//! Every run of a simulation is a pure function of `(configuration, seed)`.
//! To keep components statistically independent while preserving determinism
//! regardless of the order in which they are created, each component derives
//! its own [`SimRng`] stream from the master seed and a stable label via
//! [`SimRng::fork`].
//!
//! # Examples
//!
//! ```
//! use son_netsim::rng::SimRng;
//! use rand::Rng;
//!
//! let mut root = SimRng::seed(42);
//! let mut link_a = root.fork("link:a->b");
//! let mut link_b = root.fork("link:b->a");
//! // Streams are independent but fully reproducible:
//! let x: f64 = link_a.gen();
//! let y: f64 = link_b.gen();
//! assert_ne!(x, y);
//! assert_eq!(SimRng::seed(42).fork("link:a->b").gen::<f64>(), x);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator stream.
///
/// Wraps [`StdRng`] seeded either directly ([`SimRng::seed`]) or by hashing a
/// parent seed with a label ([`SimRng::fork`]). Forking from a label rather
/// than drawing from the parent stream means adding a new component never
/// perturbs the random numbers seen by existing components.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates the root stream for a run from a master seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child depends only on this stream's seed and the label, not on how
    /// many values have been drawn, so fork order does not matter.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        let child = splitmix(self.seed ^ fnv1a(label.as_bytes()));
        SimRng::seed(child)
    }

    /// Derives an independent child stream identified by an index.
    #[must_use]
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        let child = splitmix(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix(idx));
        SimRng::seed(child)
    }

    /// Draws a boolean that is `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0.0, 1.0]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Draws a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Draws an exponentially distributed value with the given mean.
    ///
    /// Useful for Poisson inter-arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be finite and positive"
        );
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Picks a uniformly random element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.inner.gen_range(0..slice.len());
            Some(&slice[i])
        }
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// FNV-1a hash of a byte string; stable across platforms and runs.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer; decorrelates related seed values.
#[must_use]
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_draw_order() {
        let mut root1 = SimRng::seed(9);
        let _ = root1.next_u64(); // drawing from the parent...
        let mut child1 = root1.fork("x");

        let root2 = SimRng::seed(9); // ...does not change the child stream
        let mut child2 = root2.fork("x");
        assert_eq!(child1.next_u64(), child2.next_u64());
    }

    #[test]
    fn different_labels_give_different_streams() {
        let root = SimRng::seed(1);
        let a = root.fork("a").next_u64();
        let b = root.fork("b").next_u64();
        assert_ne!(a, b);
        let i0 = root.fork_idx("n", 0).next_u64();
        let i1 = root.fork_idx("n", 1).next_u64();
        assert_ne!(i0, i1);
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = SimRng::seed(3);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_is_approximately_calibrated() {
        let mut r = SimRng::seed(11);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn exponential_mean_is_calibrated() {
        let mut r = SimRng::seed(13);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = SimRng::seed(17);
        assert!(r.choose::<u32>(&[]).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));

        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle staying sorted is ~impossible"
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vector: empty string hashes to the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
