//! Property-based tests for the thermal substrate.

use ebs_thermal::{ExpAverage, RcThermalModel, ThermalNode, ThrottleController};
use ebs_units::{SimDuration, Watts};
use proptest::prelude::*;

proptest! {
    /// The exponential average is a convex combination: it always lies
    /// between its previous value and the sample.
    #[test]
    fn expavg_stays_between_past_and_sample(
        initial in -100.0f64..100.0,
        samples in prop::collection::vec((-100.0f64..100.0, 1u64..400), 1..40),
        weight in 0.01f64..1.0,
    ) {
        let mut avg = ExpAverage::new(initial, SimDuration::from_millis(100), weight);
        for (sample, ms) in samples {
            let before = avg.value();
            let after = avg.update(sample, SimDuration::from_millis(ms));
            let lo = before.min(sample) - 1e-9;
            let hi = before.max(sample) + 1e-9;
            prop_assert!(after >= lo && after <= hi, "{after} outside [{lo}, {hi}]");
        }
    }

    /// Longer sampling periods always weigh the sample more.
    #[test]
    fn effective_weight_is_monotone_in_period(
        weight in 0.01f64..0.99,
        a_ms in 1u64..1_000,
        b_ms in 1u64..1_000,
    ) {
        let avg = ExpAverage::new(0.0, SimDuration::from_millis(100), weight);
        let wa = avg.effective_weight(SimDuration::from_millis(a_ms));
        let wb = avg.effective_weight(SimDuration::from_millis(b_ms));
        if a_ms < b_ms {
            prop_assert!(wa <= wb + 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&wa));
    }

    /// Steady state of the RC model is exact: after many time
    /// constants, the temperature equals `ambient + R * P`.
    #[test]
    fn rc_converges_to_steady_state(
        power in 0.0f64..120.0,
        factor in 0.5f64..1.5,
    ) {
        let model = RcThermalModel::reference().with_cooling_factor(factor);
        let mut node = ThermalNode::new(model);
        node.step(Watts(power), SimDuration::from_secs(1_000));
        let expected = model.steady_state(Watts(power));
        prop_assert!((node.temperature().0 - expected.0).abs() < 1e-6);
    }

    /// The throttle controller's accounting is exact: observed time
    /// equals the sum of inputs, and the throttled share never exceeds
    /// the observed time.
    #[test]
    fn throttle_accounting_is_exact(
        limit in 10.0f64..80.0,
        powers in prop::collection::vec(0.0f64..100.0, 1..200),
    ) {
        let mut ctl = ThrottleController::new(Watts(limit));
        let dt = SimDuration::from_millis(1);
        for &p in &powers {
            ctl.observe(Watts(p), dt);
        }
        let stats = ctl.stats();
        prop_assert_eq!(stats.observed, SimDuration::from_millis(powers.len() as u64));
        prop_assert!(stats.throttled <= stats.observed);
        let frac = stats.throttled_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }
}
