//! Per-cycle event rates: the activity signature of a program phase.
//!
//! A phase of a simulated program is characterised by how many events of
//! each kind it generates per clock cycle. Executing `n` cycles of the
//! phase deterministically produces `rate * n` events (the simulator may
//! add sampling noise on top). The [`EventKind::Cycles`] component is
//! always 1: every unhalted cycle counts itself.

use crate::event::{EventCounts, EventKind, N_EVENTS};
use ebs_units::Cycles;

/// Events generated per clock cycle, one entry per [`EventKind`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EventRates([f64; N_EVENTS]);

impl EventRates {
    /// Rates of a halted CPU: no events at all, not even cycles (the
    /// Pentium 4's `global_power_events` only counts unhalted cycles).
    pub const HALTED: EventRates = EventRates([0.0; N_EVENTS]);

    /// Starts building a rate vector; the `Cycles` rate is fixed at 1.
    pub fn builder() -> EventRatesBuilder {
        EventRatesBuilder::default()
    }

    /// Creates rates from a raw array.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    pub fn from_array(rates: [f64; N_EVENTS]) -> Self {
        for (i, &r) in rates.iter().enumerate() {
            assert!(
                r.is_finite() && r >= 0.0,
                "event rate {i} must be finite and non-negative, got {r}"
            );
        }
        EventRates(rates)
    }

    /// The raw array, in index order.
    pub const fn as_array(&self) -> &[f64; N_EVENTS] {
        &self.0
    }

    /// Rate of one event.
    pub fn get(&self, kind: EventKind) -> f64 {
        self.0[kind.index()]
    }

    /// The exact (noise-free) event counts generated by `cycles` cycles
    /// of this activity, each rounded to the nearest integer count with
    /// ties rounded half away from zero (see [`nearest_count`]).
    #[inline]
    pub fn counts_for_cycles(&self, cycles: Cycles) -> EventCounts {
        let mut out = [0u64; N_EVENTS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = nearest_count(self.0[i] * cycles as f64);
        }
        EventCounts::from_array(out)
    }

    /// Scales every activity rate (but not the `Cycles` self-count) by
    /// `factor`, modelling reduced per-cycle activity, e.g. under SMT
    /// resource sharing.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[inline]
    pub fn scale_activity(&self, factor: f64) -> EventRates {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "activity scale {factor} must be finite and non-negative"
        );
        let mut out = self.0;
        for (i, slot) in out.iter_mut().enumerate() {
            if i != EventKind::Cycles.index() {
                *slot *= factor;
            }
        }
        EventRates(out)
    }
}

/// `x.round() as u64` without the call to the C library's `round`
/// that baseline x86-64 (no `roundsd`) makes for every `f64::round`:
/// ties round half away from zero, NaN and negative values give 0, and
/// values past `u64::MAX` saturate to it.
///
/// Exact for every `f64`: below 2⁶⁴ the truncation `t` converts back
/// without loss and `x - t` is the exact fractional part, so comparing
/// it with one half rounds exactly (from 2⁵² on every `f64` is integral
/// and the part is zero). NaN and negative values truncate to 0 with a
/// remainder that fails the comparison; past `u64::MAX` the cast
/// saturates and the saturating add keeps it there.
#[inline]
pub fn nearest_count(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// `x.ceil() as u64` without the call to the C library's `ceil` that
/// baseline x86-64 (no `roundsd`) makes for every `f64::ceil`: NaN and
/// values at or below zero give 0, and values past `u64::MAX` saturate
/// to it.
///
/// Exact for every `f64`, as [`nearest_count`] is: below 2⁶⁴ the
/// truncation `t` converts back without loss, so `x > t` holds exactly
/// when `x` has a fractional part. NaN and values at or below zero
/// truncate to 0 and fail the comparison; past `u64::MAX` the cast
/// saturates and the saturating add keeps it there.
#[inline]
pub fn ceil_count(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x > t as f64) as u64)
}

/// Builder for [`EventRates`]; unset events default to zero.
#[derive(Clone, Copy, Debug)]
pub struct EventRatesBuilder([f64; N_EVENTS]);

impl Default for EventRatesBuilder {
    fn default() -> Self {
        let mut rates = [0.0; N_EVENTS];
        rates[EventKind::Cycles.index()] = 1.0;
        EventRatesBuilder(rates)
    }
}

macro_rules! rate_setter {
    ($(#[$doc:meta])* $name:ident, $kind:expr) => {
        $(#[$doc])*
        pub fn $name(mut self, rate: f64) -> Self {
            assert!(
                rate.is_finite() && rate >= 0.0,
                concat!(stringify!($name), " rate must be finite and non-negative")
            );
            self.0[$kind.index()] = rate;
            self
        }
    };
}

impl EventRatesBuilder {
    rate_setter!(
        /// Retired micro-operations per cycle.
        uops_retired,
        EventKind::UopsRetired
    );
    rate_setter!(
        /// Floating-point micro-operations per cycle.
        fp_uops,
        EventKind::FpUops
    );
    rate_setter!(
        /// Load micro-operations per cycle.
        mem_loads,
        EventKind::MemLoads
    );
    rate_setter!(
        /// Store micro-operations per cycle.
        mem_stores,
        EventKind::MemStores
    );
    rate_setter!(
        /// L2 references (L1 misses) per cycle.
        l2_references,
        EventKind::L2References
    );
    rate_setter!(
        /// L2 misses per cycle.
        l2_misses,
        EventKind::L2Misses
    );
    rate_setter!(
        /// Front-side-bus transactions per cycle.
        bus_transactions,
        EventKind::BusTransactions
    );
    rate_setter!(
        /// Mispredicted branches per cycle.
        branch_mispredictions,
        EventKind::BranchMispredictions
    );

    /// Finishes the builder.
    pub fn build(self) -> EventRates {
        EventRates(self.0)
    }
}

impl ebs_store::Snapshot for EventRates {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        for &r in self.as_array() {
            w.f64(r);
        }
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        let mut rates = [0.0; N_EVENTS];
        for rate in &mut rates {
            let v = r.f64()?;
            if !v.is_finite() || v < 0.0 {
                return Err(ebs_store::StoreError::Invalid(format!("event rate {v}")));
            }
            *rate = v;
        }
        *self = EventRates::from_array(rates);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fixes_cycle_rate_at_one() {
        let rates = EventRates::builder().uops_retired(1.5).build();
        assert_eq!(rates.get(EventKind::Cycles), 1.0);
        assert_eq!(rates.get(EventKind::UopsRetired), 1.5);
        assert_eq!(rates.get(EventKind::L2Misses), 0.0);
    }

    #[test]
    fn counts_scale_with_cycles() {
        let rates = EventRates::builder()
            .uops_retired(2.0)
            .l2_misses(0.001)
            .build();
        let counts = rates.counts_for_cycles(1_000_000);
        assert_eq!(counts.get(EventKind::Cycles), 1_000_000);
        assert_eq!(counts.get(EventKind::UopsRetired), 2_000_000);
        assert_eq!(counts.get(EventKind::L2Misses), 1_000);
    }

    #[test]
    fn counts_round_to_nearest() {
        let rates = EventRates::builder().uops_retired(0.4).build();
        assert_eq!(rates.counts_for_cycles(1).get(EventKind::UopsRetired), 0);
        assert_eq!(rates.counts_for_cycles(4).get(EventKind::UopsRetired), 2);
    }

    #[test]
    fn nearest_count_matches_round_on_edge_cases() {
        let two_52 = (1u64 << 52) as f64;
        let two_53 = (1u64 << 53) as f64;
        let two_64 = 2.0f64.powi(64);
        let cases = [
            // Ties round half away from zero.
            0.5,
            1.5,
            2.5,
            // The largest double below one half.
            0.49999999999999994,
            // Not representable: the sum is already an integer.
            two_52 + 0.5,
            // The last binade with halves.
            two_52 - 0.5,
            two_53,
            two_53 + 2.0,
            2.0f64.powi(63),
            two_64 - 2048.0,
            two_64,
            two_64 * 2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            -0.5,
            -0.0,
            -1.5,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            0.0,
        ];
        for x in cases {
            assert_eq!(nearest_count(x), x.round() as u64, "{x:e}");
        }
        assert_eq!(nearest_count(0.5), 1);
        assert_eq!(nearest_count(2.5), 3);
        assert_eq!(nearest_count(0.49999999999999994), 0);
        assert_eq!(nearest_count(two_64), u64::MAX);
        assert_eq!(nearest_count(f64::NAN), 0);
        assert_eq!(nearest_count(-0.5), 0);
    }

    #[test]
    fn ceil_count_matches_ceil_on_edge_cases() {
        let two_52 = (1u64 << 52) as f64;
        let two_53 = (1u64 << 53) as f64;
        let two_63 = 2.0f64.powi(63);
        let two_64 = 2.0f64.powi(64);
        let cases = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.5,
            0.49999999999999994,
            1.0,
            1.5,
            3.0,
            1e6,
            -0.5,
            -1.0,
            -1.5,
            // The last binade with halves.
            two_52 - 0.5,
            // Not representable: the sum is already an integer.
            two_52 + 0.5,
            two_52 + 1.0,
            two_53,
            two_53 + 2.0,
            two_63,
            two_64 - 2048.0,
            two_64,
            two_64 * 2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in cases {
            assert_eq!(ceil_count(x), x.ceil() as u64, "{x:e}");
        }
        assert_eq!(ceil_count(f64::MIN_POSITIVE), 1);
        assert_eq!(ceil_count(0.5), 1);
        assert_eq!(ceil_count(3.0), 3);
        assert_eq!(ceil_count(-0.5), 0);
        assert_eq!(ceil_count(two_52 - 0.5), 1 << 52);
        assert_eq!(ceil_count(two_52 + 0.5), 1 << 52);
        assert_eq!(ceil_count(two_64), u64::MAX);
        assert_eq!(ceil_count(f64::INFINITY), u64::MAX);
        assert_eq!(ceil_count(f64::NAN), 0);
    }

    #[test]
    fn halted_produces_no_events() {
        assert!(EventRates::HALTED.counts_for_cycles(1_000_000).is_zero());
    }

    #[test]
    fn scale_activity_preserves_cycle_count() {
        let r = EventRates::builder()
            .uops_retired(2.0)
            .mem_loads(0.5)
            .build()
            .scale_activity(0.5);
        assert_eq!(r.get(EventKind::Cycles), 1.0);
        assert_eq!(r.get(EventKind::UopsRetired), 1.0);
        assert_eq!(r.get(EventKind::MemLoads), 0.25);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_array_rejects_negative() {
        let mut rates = [0.0; N_EVENTS];
        rates[2] = -0.5;
        let _ = EventRates::from_array(rates);
    }
}
