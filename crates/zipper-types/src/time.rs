//! Virtual time for the discrete-event simulator and measurement helpers.
//!
//! [`SimTime`] is a nanosecond-resolution virtual clock value. Nanoseconds
//! in a `u64` cover ~584 years of virtual time, far beyond any workflow run,
//! while keeping arithmetic exact (no floating-point drift in the event
//! queue ordering).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero time (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as "never" in schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    ///
    /// Panics if `secs` is negative or non-finite — there is no valid
    /// negative duration in the simulator.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * 1e9).round() as u64)
    }

    /// Whole seconds, truncated.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to a whole
    /// nanosecond so repeated transfers never take zero virtual time.
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> SimTime {
        assert!(
            bytes_per_sec > 0.0,
            "bandwidth must be positive, got {bytes_per_sec}"
        );
        let ns = (bytes as f64 / bytes_per_sec * 1e9).ceil() as u64;
        SimTime(ns.max(if bytes > 0 { 1 } else { 0 }))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    /// Human-scale rendering: picks the largest unit that keeps at least one
    /// integral digit (`1.234s`, `56.7ms`, `890µs`, `12ns`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.1}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.0}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn bytes_transfer_time_matches_bandwidth() {
        // 1 GiB at 1 GiB/s is exactly one second.
        let one_gib = 1u64 << 30;
        assert_eq!(
            SimTime::for_bytes(one_gib, one_gib as f64),
            SimTime::from_secs_f64(1.0)
        );
        // Zero bytes take zero time.
        assert_eq!(SimTime::for_bytes(0, 1e9), SimTime::ZERO);
        // Tiny transfers still advance the clock.
        assert!(SimTime::for_bytes(1, 1e30) > SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(1);
        assert_eq!(a + b, SimTime::from_millis(4));
        assert_eq!(a - b, SimTime::from_millis(2));
        assert_eq!(a * 2, SimTime::from_millis(6));
        assert_eq!(a / 3, SimTime::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(890).to_string(), "890µs");
        assert_eq!(SimTime::from_secs_f64(1.234).to_string(), "1.234s");
    }

    #[test]
    fn sum_accumulates() {
        let total: SimTime = (1..=4).map(SimTime::from_millis).sum();
        assert_eq!(total, SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
