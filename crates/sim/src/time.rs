//! Virtual time. Nanosecond-resolution `u64` wrapped in a newtype so that
//! simulated durations can never be confused with wall-clock durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on (or a distance along) the simulated clock, in nanoseconds.
///
/// `SimTime` is totally ordered and supports saturating-free arithmetic;
/// the engine guarantees monotone, non-negative times, and subtraction of a
/// later time from an earlier one is a programming error (panics in debug).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero: the instant the simulation starts.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; used as "never" by the engine.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from (non-negative, finite) seconds, rounding to the
    /// nearest nanosecond.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "bad duration: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as `f64` (lossy for very large times).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `max(self, other)`.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Checked difference: `None` when `earlier > self`.
    pub fn checked_sub(self, earlier: SimTime) -> Option<SimTime> {
        self.0.checked_sub(earlier.0).map(SimTime)
    }

    /// Capped exponential backoff before retry number `attempt`
    /// (1-based): `self · 2^(attempt-1)`, doubling at most 20 times and
    /// never above `cap`.
    pub fn backoff(self, attempt: u32, cap: SimTime) -> SimTime {
        let shift = attempt.saturating_sub(1).min(20);
        SimTime(self.0.saturating_mul(1 << shift).min(cap.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow: subtracting a later time"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rounding_is_nearest() {
        // 0.4 ns rounds down, 0.6 ns rounds up.
        assert_eq!(SimTime::from_secs_f64(0.4e-9).as_nanos(), 0);
        assert_eq!(SimTime::from_secs_f64(0.6e-9).as_nanos(), 1);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(25);
        assert!(a < b);
        assert_eq!((b - a).as_nanos(), 15);
        assert_eq!((a + b).as_nanos(), 35);
        assert_eq!(a.max(b), b);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(SimTime::from_nanos(15)));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtracting_later_time_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_nanos(12_000).to_string(), "12.000us");
        assert_eq!(SimTime::from_nanos(12_000_000).to_string(), "12.000ms");
        assert_eq!(SimTime::from_nanos(12_000_000_000).to_string(), "12.000s");
    }
}
