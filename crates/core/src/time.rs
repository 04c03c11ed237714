//! Simulation time: nanosecond instants and durations.
//!
//! All timing in the workspace is expressed in integer nanoseconds so that
//! the discrete-event simulator is exactly deterministic and traces can be
//! serialized without floating-point round-trip loss. Conversions to `f64`
//! seconds happen only at metric-computation and reporting boundaries.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the (virtual or wall) clock, in nanoseconds since an
/// arbitrary epoch (simulation start, or trace-session start for real runs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(pub u64);

/// A span of time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Dur(pub u64);

impl Nanos {
    /// The epoch (time zero).
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * NANOS_PER_SEC)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }
    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        secs_f64(self.0)
    }
    /// Elapsed time since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Nanos) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * NANOS_PER_SEC)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }
    /// Construct from fractional seconds (rounds to nearest nanosecond;
    /// negative inputs clamp to zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return Dur::ZERO;
        }
        let x = s * NANOS_PER_SEC as f64;
        // `f64::round` is a library call on some targets. Below 2^63 the
        // integer part `i` is exact and so is `x - i` (Sterbenz), so
        // rounding half away from zero is one compare. Larger values,
        // +inf and NaN keep `round`; the result is identical everywhere.
        // In that range the signed conversions truncate and re-widen
        // exactly, in one instruction each where `u64`'s take several.
        if x < 9_223_372_036_854_775_808.0 {
            let i = x as i64;
            return Dur(i as u64 + u64::from(x - i as f64 >= 0.5));
        }
        Dur(x.round() as u64)
    }
    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        secs_f64(self.0)
    }
    /// True if the duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

/// `n` nanoseconds in seconds, rounded as `n as f64 / 1e9` is. Below 2^63
/// `n as i64 as f64` rounds the same as `n as f64` (both round to
/// nearest), in one `cvtsi2sd` instead of the unsigned sequence.
#[inline]
fn secs_f64(n: u64) -> f64 {
    let x = if n < 1 << 63 {
        n as i64 as f64
    } else {
        n as f64
    };
    x / NANOS_PER_SEC as f64
}

impl Add<Dur> for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Dur) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}
impl AddAssign<Dur> for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub<Dur> for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Dur) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}
impl Sub<Nanos> for Nanos {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Nanos) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}
impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos(2 * NANOS_PER_SEC));
        assert_eq!(Nanos::from_millis(3), Nanos(3_000_000));
        assert_eq!(Nanos::from_micros(5), Nanos(5_000));
        assert_eq!(Dur::from_secs(1), Dur(NANOS_PER_SEC));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Nanos::from_millis(10);
        let d = Dur::from_millis(4);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        let mut u = t;
        u += d;
        assert_eq!(u, Nanos::from_millis(14));
    }

    #[test]
    fn since_saturates() {
        let a = Nanos::from_millis(1);
        let b = Nanos::from_millis(2);
        assert_eq!(b.since(a), Dur::from_millis(1));
        assert_eq!(a.since(b), Dur::ZERO);
    }

    #[test]
    fn secs_f64_conversion() {
        assert!((Dur::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Dur::from_secs_f64(1.5), Dur::from_millis(1500));
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Dur(500)), "500ns");
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.00us");
        assert_eq!(format!("{}", Dur::from_millis(12)), "12.00ms");
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000s");
    }

    #[test]
    fn min_max() {
        let a = Nanos(3);
        let b = Nanos(7);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
