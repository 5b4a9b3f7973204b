//! Power and energy quantities.
//!
//! The paper's scheduling metrics are all powers (runqueue power, thermal
//! power, maximum power) or energies (per-timeslice consumption, counter
//! weights). Keeping them as distinct types documents every conversion:
//! energy is only obtained from power by multiplying with a duration, and
//! vice versa.

use crate::time::SimDuration;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Power in watts.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy in joules.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// The energy dissipated at this power over `dt`.
    #[inline]
    pub fn over(self, dt: SimDuration) -> Joules {
        Joules(self.0 * dt.as_secs_f64())
    }

    /// The dimensionless ratio `self / other`, e.g. a runqueue power
    /// divided by the CPU's maximum power (Section 4.3).
    ///
    /// Returns zero when `other` is zero so that an unconfigured CPU
    /// (no power budget) never looks attractive to the balancer.
    pub fn ratio(self, other: Watts) -> f64 {
        if other.0 == 0.0 {
            0.0
        } else {
            self.0 / other.0
        }
    }

    /// Clamps the power into `[lo, hi]`.
    pub fn clamp(self, lo: Watts, hi: Watts) -> Watts {
        Watts(self.0.clamp(lo.0, hi.0))
    }

    /// The larger of two powers.
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// The smaller of two powers.
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Whether the value is finite and non-negative — a sanity predicate
    /// used by debug assertions throughout the workspace.
    pub fn is_sane(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Joules {
    /// Zero joules.
    pub const ZERO: Joules = Joules(0.0);

    /// The average power when this energy is spread over `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    #[inline]
    pub fn average_power(self, dt: SimDuration) -> Watts {
        assert!(!dt.is_zero(), "average power over an empty interval");
        Watts(self.0 / dt.as_secs_f64())
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Watts {
    type Output = Watts;
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Mul<SimDuration> for Watts {
    type Output = Joules;
    fn mul(self, rhs: SimDuration) -> Joules {
        self.over(rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<SimDuration> for Joules {
    type Output = Watts;
    fn div(self, rhs: SimDuration) -> Watts {
        self.average_power(rhs)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl fmt::Debug for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}W", self.0)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}W", self.0)
    }
}

impl fmt::Debug for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}J", self.0)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_duration_is_energy() {
        let e = Watts(50.0) * SimDuration::from_millis(100);
        assert!((e.0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn energy_over_duration_is_power() {
        let p = Joules(5.0) / SimDuration::from_millis(100);
        assert!((p.0 - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn average_power_over_zero_panics() {
        let _ = Joules(1.0).average_power(SimDuration::ZERO);
    }

    #[test]
    fn ratio_handles_zero_budget() {
        assert_eq!(Watts(30.0).ratio(Watts(60.0)), 0.5);
        assert_eq!(Watts(30.0).ratio(Watts::ZERO), 0.0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let w = Watts(40.0) + Watts(20.0) - Watts(10.0);
        assert_eq!(w, Watts(50.0));
        assert_eq!(w * 2.0, Watts(100.0));
        assert_eq!(w / 2.0, Watts(25.0));
        assert_eq!(-w, Watts(-50.0));
    }

    #[test]
    fn summation() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
        let e: Joules = [Joules(1.5), Joules(2.5)].into_iter().sum();
        assert_eq!(e, Joules(4.0));
    }

    #[test]
    fn sanity_predicate() {
        assert!(Watts(13.6).is_sane());
        assert!(!Watts(-1.0).is_sane());
        assert!(!Watts(f64::NAN).is_sane());
        assert!(!Watts(f64::INFINITY).is_sane());
    }

    #[test]
    fn clamp_min_max() {
        assert_eq!(Watts(70.0).clamp(Watts::ZERO, Watts(60.0)), Watts(60.0));
        assert_eq!(Watts(10.0).max(Watts(20.0)), Watts(20.0));
        assert_eq!(Watts(10.0).min(Watts(20.0)), Watts(10.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts(61.04)), "61.0W");
        assert_eq!(format!("{:?}", Watts(61.0449)), "61.045W");
        assert_eq!(format!("{}", Joules(1.2345)), "1.234J");
    }
}
