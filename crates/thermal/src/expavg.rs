//! Variable-period exponentially weighted moving averages (paper Eq. 2).
//!
//! The classic exponential average assumes samples arrive at a constant
//! period. Tasks do not cooperate: they block mid-timeslice, get
//! preempted, or run extra-long slices. The paper extends the algorithm
//! to *variable periods* by adjusting the weight: if the sampling period
//! is shorter than the standard timeslice the past gets a bigger weight
//! (the average is recalculated more often), if it is longer the past
//! gets a smaller weight.
//!
//! With standard weight `p` over standard period `D`, a period of length
//! `d` uses the effective weight
//!
//! ```text
//! p_eff = 1 - (1 - p)^(d / D)
//! ```
//!
//! which makes the decay of old information depend only on *elapsed
//! time*, not on how that time was chopped into samples.

use ebs_units::{SimDuration, Watts};

/// A variable-period exponential average over `f64` samples.
#[derive(Clone, Copy, Debug)]
pub struct ExpAverage {
    value: f64,
    standard_period: SimDuration,
    /// Weight applied to a sample spanning exactly one standard period.
    standard_weight: f64,
}

impl ExpAverage {
    /// Creates an average with the given standard period and weight and
    /// an initial value.
    ///
    /// # Panics
    ///
    /// Panics if the weight is outside `(0, 1]` or the period is zero.
    pub fn new(initial: f64, standard_period: SimDuration, standard_weight: f64) -> Self {
        assert!(
            standard_weight > 0.0 && standard_weight <= 1.0,
            "standard weight {standard_weight} outside (0, 1]"
        );
        assert!(
            !standard_period.is_zero(),
            "standard period must be positive"
        );
        ExpAverage {
            value: initial,
            standard_period,
            standard_weight,
        }
    }

    /// Creates an average whose step response mimics a first-order
    /// system with time constant `tau`: the weight for one standard
    /// period is `1 - exp(-D / tau)`.
    ///
    /// This is the calibration the paper applies to *thermal power* so
    /// that its course follows the RC model's temperature.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or the period is zero.
    pub fn with_time_constant(
        initial: f64,
        standard_period: SimDuration,
        tau: SimDuration,
    ) -> Self {
        assert!(!tau.is_zero(), "time constant must be positive");
        let weight = 1.0 - (-standard_period.ratio(tau)).exp();
        ExpAverage::new(initial, standard_period, weight)
    }

    /// The current average.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The weight that a sample spanning `period` receives.
    pub fn effective_weight(&self, period: SimDuration) -> f64 {
        let exponent = period.ratio(self.standard_period);
        1.0 - (1.0 - self.standard_weight).powf(exponent)
    }

    /// Folds in a sample averaged over `period` (Eq. 2 with the
    /// variable weight). A zero-length period leaves the average
    /// untouched.
    pub fn update(&mut self, sample: f64, period: SimDuration) -> f64 {
        if period.is_zero() {
            return self.value;
        }
        self.fold(sample, self.effective_weight(period))
    }

    /// Folds in a sample with a `weight` that
    /// [`effective_weight`](Self::effective_weight) already computed:
    /// [`update`](Self::update) without the `powf`, for callers that
    /// fold many averages of one standard period and weight over the
    /// same period.
    #[inline]
    pub fn fold(&mut self, sample: f64, weight: f64) -> f64 {
        self.value = weight * sample + (1.0 - weight) * self.value;
        self.value
    }

    /// Resets the average to a fixed value (used when a task's profile
    /// is seeded from the initial-placement table).
    pub fn reset(&mut self, value: f64) {
        self.value = value;
    }
}

/// An exponential average over power samples; the type used for both
/// task energy profiles and per-CPU thermal power.
#[derive(Clone, Copy, Debug)]
pub struct PowerAverage(ExpAverage);

impl PowerAverage {
    /// Creates a power average with standard period and weight.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ExpAverage::new`].
    pub fn new(initial: Watts, standard_period: SimDuration, standard_weight: f64) -> Self {
        PowerAverage(ExpAverage::new(initial.0, standard_period, standard_weight))
    }

    /// Creates a power average tracking a first-order system with time
    /// constant `tau`; see [`ExpAverage::with_time_constant`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ExpAverage::with_time_constant`].
    pub fn with_time_constant(
        initial: Watts,
        standard_period: SimDuration,
        tau: SimDuration,
    ) -> Self {
        PowerAverage(ExpAverage::with_time_constant(
            initial.0,
            standard_period,
            tau,
        ))
    }

    /// The current average power.
    pub fn watts(&self) -> Watts {
        Watts(self.0.value())
    }

    /// Folds in a power sample observed over `period`.
    pub fn update(&mut self, sample: Watts, period: SimDuration) -> Watts {
        Watts(self.0.update(sample.0, period))
    }

    /// Folds in a power sample with a precomputed effective weight
    /// (see [`ExpAverage::fold`]).
    #[inline]
    pub fn fold(&mut self, sample: Watts, weight: f64) -> Watts {
        Watts(self.0.fold(sample.0, weight))
    }

    /// Resets to a fixed power.
    pub fn reset(&mut self, value: Watts) {
        self.0.reset(value.0)
    }

    /// The weight that a sample spanning `period` receives.
    pub fn effective_weight(&self, period: SimDuration) -> f64 {
        self.0.effective_weight(period)
    }
}

impl ebs_store::Snapshot for ExpAverage {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The period and weight are configuration; only the evolving
        // average travels.
        w.f64(self.value);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.value = r.f64()?;
        Ok(())
    }
}

impl ebs_store::Snapshot for PowerAverage {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        self.0.save(w);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.0.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS100: SimDuration = SimDuration::from_millis(100);

    #[test]
    fn standard_period_uses_standard_weight() {
        let mut avg = ExpAverage::new(0.0, MS100, 0.25);
        assert!((avg.effective_weight(MS100) - 0.25).abs() < 1e-12);
        avg.update(1.0, MS100);
        assert!((avg.value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shorter_period_weights_past_more() {
        let avg = ExpAverage::new(0.0, MS100, 0.25);
        let short = avg.effective_weight(SimDuration::from_millis(10));
        assert!(short < 0.25, "short-period weight {short} not smaller");
        let long = avg.effective_weight(SimDuration::from_millis(500));
        assert!(long > 0.25, "long-period weight {long} not larger");
    }

    #[test]
    fn split_period_equals_single_update() {
        // Updating with the same constant sample over two half-periods
        // must decay the past exactly as much as one full-period update:
        // that is the whole point of the variable weight.
        let mut whole = ExpAverage::new(10.0, MS100, 0.3);
        whole.update(2.0, MS100);

        let mut split = ExpAverage::new(10.0, MS100, 0.3);
        split.update(2.0, SimDuration::from_millis(60));
        split.update(2.0, SimDuration::from_millis(40));

        assert!(
            (whole.value() - split.value()).abs() < 1e-9,
            "{} vs {}",
            whole.value(),
            split.value()
        );
    }

    #[test]
    fn converges_to_constant_input() {
        let mut avg = ExpAverage::new(0.0, MS100, 0.1);
        for _ in 0..400 {
            avg.update(55.0, MS100);
        }
        assert!((avg.value() - 55.0).abs() < 1e-6);
    }

    #[test]
    fn zero_period_is_a_no_op() {
        let mut avg = ExpAverage::new(5.0, MS100, 0.5);
        avg.update(100.0, SimDuration::ZERO);
        assert_eq!(avg.value(), 5.0);
    }

    #[test]
    fn time_constant_calibration_matches_rc_step() {
        // With weight 1 - exp(-D / tau), feeding a constant power step
        // must trace the same exponential as a first-order system.
        let tau = SimDuration::from_secs(15);
        let mut avg = ExpAverage::with_time_constant(0.0, MS100, tau);
        let mut t = 0u64;
        for _ in 0..150 {
            avg.update(60.0, MS100);
            t += 100_000;
        }
        let elapsed = t as f64 / 1e6;
        let expected = 60.0 * (1.0 - (-elapsed / 15.0).exp());
        assert!(
            (avg.value() - expected).abs() < 1e-6,
            "avg {} expected {expected}",
            avg.value()
        );
    }

    #[test]
    fn weight_one_tracks_sample_exactly() {
        let mut avg = ExpAverage::new(3.0, MS100, 1.0);
        avg.update(9.0, MS100);
        assert_eq!(avg.value(), 9.0);
        // Weight 1 means "no memory" at every granularity: the decay
        // base (1 - p) is zero, so any positive period yields weight 1.
        let w = avg.effective_weight(SimDuration::from_millis(1));
        assert_eq!(w, 1.0);
    }

    #[test]
    fn reset_overrides_history() {
        let mut avg = ExpAverage::new(3.0, MS100, 0.5);
        avg.update(100.0, MS100);
        avg.reset(7.0);
        assert_eq!(avg.value(), 7.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_weight_rejected() {
        let _ = ExpAverage::new(0.0, MS100, 0.0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = ExpAverage::new(0.0, SimDuration::ZERO, 0.5);
    }

    #[test]
    fn power_average_wrapper_round_trips() {
        let mut avg = PowerAverage::new(Watts(13.6), MS100, 0.2);
        let v = avg.update(Watts(61.0), MS100);
        assert!((v.0 - (0.2 * 61.0 + 0.8 * 13.6)).abs() < 1e-12);
        assert_eq!(avg.watts(), v);
        avg.reset(Watts(40.0));
        assert_eq!(avg.watts(), Watts(40.0));
        assert!((avg.effective_weight(MS100) - 0.2).abs() < 1e-12);
    }
}
