//! Simulation time.
//!
//! The whole workspace shares one clock representation: microseconds since
//! the start of the simulated trace, in a `u64`. Microsecond resolution is
//! two orders of magnitude finer than anything the weblog pipeline needs
//! (chunk inter-arrival times are tens of milliseconds and up) while a
//! `u64` still spans ~585 k years of trace, so overflow is a non-concern.
//!
//! We deliberately do not reuse `std::time`: simulated time must be
//! freely constructible, serializable and totally decoupled from the wall
//! clock so experiments replay deterministically.

use serde::{Deserialize, Serialize};

/// A point in simulated time (microseconds since trace start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Instant(pub u64);

/// A span of simulated time (microseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Instant {
    /// The trace origin.
    pub const ZERO: Instant = Instant(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Instant(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Instant(ms * 1_000)
    }

    /// Microseconds since trace start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since trace start, as a float (for feature computation).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`; saturates to zero if `earlier` is
    /// later (clock skew cannot occur in simulation, but saturation keeps
    /// the arithmetic total).
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked advance by a duration.
    pub fn checked_add(self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d.0).map(Instant)
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Construct from fractional seconds. Negative and NaN inputs clamp
    /// to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration(0);
        }
        Duration((s * 1e6).round() as u64)
    }

    /// Microseconds in the span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in the span, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Scale by a non-negative factor (clamped at zero; saturates at
    /// `u64::MAX` µs).
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.0))
    }
}

impl std::ops::AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }
}

impl std::ops::AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 = self.0.saturating_add(other.0);
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Instant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Instant::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(Duration::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(Duration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(Duration::from_secs_f64(-2.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn duration_since_saturates() {
        let a = Instant::from_secs(5);
        let b = Instant::from_secs(10);
        assert_eq!(b.duration_since(a), Duration::from_secs(5));
        assert_eq!(a.duration_since(b), Duration::ZERO);
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = Instant::ZERO;
        t += Duration::from_millis(100);
        t += Duration::from_millis(400);
        assert_eq!(t, Instant::from_millis(500));
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&s| Duration::from_secs(s)).sum();
        assert_eq!(total, Duration::from_secs(6));
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(Duration::from_secs(10).mul_f64(0.5), Duration::from_secs(5));
        assert_eq!(Duration::from_secs(10).mul_f64(-1.0), Duration::ZERO);
    }

    proptest! {
        #[test]
        fn prop_add_then_duration_since_roundtrips(t0 in 0u64..1u64<<40, d in 0u64..1u64<<40) {
            let start = Instant(t0);
            let later = start + Duration(d);
            prop_assert_eq!(later.duration_since(start), Duration(d));
        }

        #[test]
        fn prop_secs_f64_roundtrip_within_microsecond(us in 0u64..1u64<<50) {
            let d = Duration(us);
            let rt = Duration::from_secs_f64(d.as_secs_f64());
            let diff = rt.0.abs_diff(d.0);
            // f64 has 52 bits of mantissa; at this range error ≤ a few µs.
            prop_assert!(diff <= 4, "diff {diff}");
        }
    }
}
