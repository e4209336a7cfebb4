//! Virtual time types.
//!
//! The simulator measures time in integer nanoseconds. [`Time`] is a point on
//! the virtual timeline (nanoseconds since simulation start) and [`Dur`] is a
//! span between two points. Both are thin wrappers around `u64` so they are
//! `Copy`, totally ordered, and cheap to store in timer heaps.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time, in nanoseconds since the start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The origin of the virtual timeline.
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// The longest representable span (~584 years); used as "no timeout".
    pub(crate) const MAX: Dur = Dur(u64::MAX);

    /// A span of `s` whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// A span of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// A span of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// A span of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// A span of `s` seconds given as a float. Negative and NaN inputs clamp
    /// to zero; values beyond the representable range clamp to `Dur::MAX`.
    pub fn from_secs_f64(s: f64) -> Dur {
        // `!(s > 0.0)` (rather than `s <= 0.0`) also catches NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(s > 0.0) {
            return Dur::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Dur::MAX
        } else {
            Dur(ns as u64)
        }
    }

    /// The span in whole nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in whole milliseconds (truncated).
    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// True if the span is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::from_secs(2), Dur(2_000_000_000));
        assert_eq!(Dur::from_millis(3), Dur(3_000_000));
        assert_eq!(Dur::from_micros(5), Dur(5_000));
        assert_eq!(Dur::from_nanos(7), Dur(7));
        assert_eq!(Dur::from_secs_f64(1.5), Dur(1_500_000_000));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::INFINITY), Dur::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Dur::from_secs(1);
        assert_eq!(t.as_nanos(), 1_000_000_000);
        assert_eq!(t - Time::ZERO, Dur::from_secs(1));
        // Saturating: earlier.since(later) is zero, not underflow.
        assert_eq!(Time::ZERO.since(t), Dur::ZERO);
    }

    #[test]
    fn dur_arithmetic_saturates() {
        assert_eq!(Dur::MAX + Dur::from_secs(1), Dur::MAX);
        assert_eq!(Dur::ZERO - Dur::from_secs(1), Dur::ZERO);
        assert_eq!(Dur::from_secs(4) / 2, Dur::from_secs(2));
        assert_eq!(Dur::from_secs(2) * 3, Dur::from_secs(6));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", Dur::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", Time::ZERO + Dur::from_secs(2)), "2.000000s");
    }
}
