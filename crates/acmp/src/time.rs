//! Simulated time: integer nanoseconds for exact, deterministic ordering.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Shared human-readable formatting: picks ns/µs/ms/s by magnitude.
macro_rules! fmt_time_impl {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let ns = self.0;
            if ns < 1_000 {
                write!(f, "{ns}ns")
            } else if ns < 1_000_000 {
                write!(f, "{:.1}us", ns as f64 / 1e3)
            } else if ns < 1_000_000_000 {
                write!(f, "{:.2}ms", ns as f64 / 1e6)
            } else {
                write!(f, "{:.3}s", ns as f64 / 1e9)
            }
        }
    };
}

/// An instant on the simulation clock, in nanoseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From fractional milliseconds (rounds to nanoseconds; negative
    /// inputs clamp to zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimTime((ms.max(0.0) * 1e6).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {earlier} > {self}"
        );
        Duration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fmt_time_impl!();
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// From fractional milliseconds (rounds; clamps negatives to zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration((ms.max(0.0) * 1e6).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this is the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Duration {
    fmt_time_impl!();
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2000.0);
        assert_eq!(Duration::from_millis_f64(16.6).as_millis_f64(), 16.6);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t.since(SimTime::from_millis(10)), Duration::from_millis(5));
        assert_eq!(
            Duration::from_millis(3) + Duration::from_millis(4),
            Duration::from_millis(7)
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_when_backwards() {
        SimTime::from_millis(1).since(SimTime::from_millis(2));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(2)),
            Duration::ZERO
        );
    }

    #[test]
    fn negative_f64_clamps_to_zero() {
        assert_eq!(Duration::from_millis_f64(-5.0), Duration::ZERO);
        assert_eq!(SimTime::from_millis_f64(-5.0), SimTime::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Duration::from_nanos(500).to_string(), "500ns");
        assert_eq!(Duration::from_micros(1500).to_string(), "1.50ms");
        assert_eq!(Duration::from_millis(2500).to_string(), "2.500s");
    }

    #[test]
    fn ordering_is_total() {
        let mut times = [
            SimTime::from_millis(3),
            SimTime::from_millis(1),
            SimTime::from_millis(2),
        ];
        times.sort();
        assert_eq!(times[0], SimTime::from_millis(1));
        assert_eq!(times[2], SimTime::from_millis(3));
    }
}
