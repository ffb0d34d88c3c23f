//! Virtual time types.
//!
//! The simulation measures time in whole nanoseconds. Two newtypes keep
//! instants and durations statically distinct (an instant plus a duration is
//! an instant; a duration plus a duration is a duration; instants cannot be
//! added together).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, in nanoseconds since the start of the
/// simulation.
///
/// # Example
///
/// ```
/// use ddc_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_secs_f64(), 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
///
/// # Example
///
/// ```
/// use ddc_sim::SimDuration;
///
/// let d = SimDuration::from_millis(1) + SimDuration::from_micros(500);
/// assert_eq!(d.as_nanos(), 1_500_000);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far in
    /// the future" sentinel for idle processes.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of the two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of the two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> SimDuration {
        SimDuration(nanos)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(micros: u64) -> SimDuration {
        SimDuration(micros * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(millis: u64) -> SimDuration {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * 1_000_000_000)
    }

    /// Raw nanoseconds in the span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in the span, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds in the span as a float (for latency reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds in the span as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of the two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of the two spans.
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

    /// The instant `rhs` earlier, saturating at time zero.
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
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
        debug_assert!(self.0 >= rhs.0, "negative duration: {self:?} - {rhs:?}");
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
        debug_assert!(rhs.is_finite() && rhs >= 0.0);
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
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
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
    fn time_plus_duration() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
    }

    #[test]
    fn time_minus_duration_is_time() {
        let t = SimTime::from_secs(3) - SimDuration::from_secs(1);
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(
            SimTime::from_secs(1) - SimDuration::from_secs(5),
            SimTime::ZERO
        );
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a - b, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(2));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 2, SimDuration::from_secs(1));
        assert_eq!(d * 0.5, SimDuration::from_secs(1));
        let mut acc = SimDuration::ZERO;
        acc += d;
        acc -= SimDuration::from_secs(1);
        assert_eq!(acc, SimDuration::from_secs(1));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn saturating_add_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }
}
