use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (events here never fire).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional hours of virtual time (the unit
    /// traces and experiment horizons are expressed in).
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative input.
    pub fn from_hours(h: f64) -> Self {
        assert!(h.is_finite() && h >= 0.0, "invalid hour offset {h}");
        SimTime((h * 3.6e12) as u64)
    }

    /// Hours since the epoch as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e12
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds (saturating, non-negative).
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds in this span as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds in this span as a float.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the span by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative factors.
    pub(crate) fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        self.scaled(factor)
    }

    /// [`mul_f64`](SimDuration::mul_f64) without the check, for a caller
    /// that validated its factors once up front (the per-message latency
    /// draw).
    pub(crate) fn scaled(self, factor: f64) -> Self {
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

/// `x.round() as u64` — half away from zero, saturating, NaN to 0 —
/// without the libm call `f64::round` compiles to on baseline x86-64.
/// For `0 ≤ x < 2⁵³`, `x - trunc(x)` is exact, so comparing it with ½
/// rounds exactly; at or above 2⁵³ every `f64` is an integer and the
/// fraction is 0.
fn round_to_u64(x: f64) -> u64 {
    let i = x as u64;
    i.saturating_add(u64::from(x - i as f64 >= 0.5))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_millis(3).as_millis_f64(), 3.0);
    }

    #[test]
    fn hours_round_trip() {
        assert_eq!(SimTime::from_hours(1.0).as_nanos(), 3_600_000_000_000);
        assert_eq!(SimTime::from_hours(0.5), SimTime::from_secs(1800));
        assert_eq!(SimTime::from_hours(0.0), SimTime::ZERO);
        let t = SimTime::from_hours(1.4);
        assert!((t.as_hours_f64() - 1.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid hour offset")]
    fn negative_hours_panic() {
        let _ = SimTime::from_hours(-0.1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 10.5);
        assert_eq!((t - SimTime::from_secs(10)).as_millis_f64(), 500.0);
        // Saturation, not underflow.
        assert_eq!((SimTime::ZERO - SimTime::from_secs(1)).as_nanos(), 0);
        let mut acc = SimTime::ZERO;
        acc += SimDuration::from_secs(2);
        assert_eq!(acc, SimTime::from_secs(2));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimDuration::from_millis(10).mul_f64(2.5),
            SimDuration::from_millis(25)
        );
        assert_eq!(SimDuration::from_secs(1).mul_f64(0.0), SimDuration::ZERO);
    }

    /// The libm-free round agrees with `f64::round` on halves and the
    /// value just below each, around 2⁵² and 2⁵³, past `u64::MAX`, on
    /// what is not a non-negative number, and on a seeded sweep of the
    /// products a jittered latency draw forms.
    #[test]
    fn round_to_u64_matches_f64_round() {
        let same = |x: f64| {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "{x:e} ({:#x})",
                x.to_bits()
            );
        };
        for k in 0..1_000u32 {
            let half = f64::from(k) + 0.5;
            same(half);
            same(f64::from_bits(half.to_bits() - 1));
        }
        let (p52, p53) = (2f64.powi(52), 2f64.powi(53));
        for x in [
            0.0,
            0.5,
            0.49999999999999994,
            p52 - 1.0,
            p52 - 0.5,
            p52,
            p52 + 0.5,
            p52 + 1.0,
            p53 - 1.0,
            p53,
            p53 + 2.0,
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
            -0.5,
            -1.5,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            same(x);
        }
        // base × (1 ± j): splitmix64 over bases of every magnitude a span
        // takes and factors in (0, 2).
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..100_000 {
            let base = next() >> (next() % 64);
            let j = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let factor = if next() & 1 == 0 { 1.0 + j } else { 1.0 - j };
            same(base as f64 * factor);
        }
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(format!("{:?}", SimTime::from_secs(2)), "t=2.000000s");
    }
}
