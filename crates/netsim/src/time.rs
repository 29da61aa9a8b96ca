//! Virtual time for the discrete-event simulator.
//!
//! All simulation timestamps are [`SimTime`] values (nanoseconds since the
//! start of the run) and all intervals are [`SimDuration`] values. Both are
//! thin newtypes over `u64` so arithmetic is cheap and `Copy`, while the type
//! system keeps instants and intervals from being confused ([C-NEWTYPE]).
//!
//! # Examples
//!
//! ```
//! use son_netsim::time::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let later = start + SimDuration::from_millis(50);
//! assert_eq!(later.as_millis_f64(), 50.0);
//! assert_eq!(later - start, SimDuration::from_millis(50));
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the start of the run.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since the start of the run.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since the start of the run.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since the start of the run.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the start of the run.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later (saturating, never panics).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty interval.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable interval; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((ms * 1e6).round() as u64)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in (possibly fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed in (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the empty interval.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; never underflows.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer factor (saturating).
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(
            rhs.is_finite() && rhs >= 0.0,
            "duration factor must be finite, non-negative"
        );
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2_000.0);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis_f64(), 250.0);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(t - SimDuration::from_millis(15), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3u64, SimDuration::from_millis(30));
        assert_eq!(d * 0.5, SimDuration::from_millis(5));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!((d - SimDuration::from_millis(4)).as_millis_f64(), 6.0);
    }

    #[test]
    fn duration_sum_and_ordering() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .sum();
        assert_eq!(total, SimDuration::from_millis(6));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
        assert_eq!(
            SimDuration::from_millis(7).max(SimDuration::from_millis(3)),
            SimDuration::from_millis(7)
        );
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(2)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX.saturating_mul(2), SimDuration::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_millis(3).to_string(), "t=3.000ms");
    }
}
