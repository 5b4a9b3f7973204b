//! The linear counter-to-energy model (paper Eq. 1) and the simulator's
//! ground truth.
//!
//! Two instances of the same [`EnergyModel`] type appear in the system:
//!
//! - The **ground truth** drives the simulated physics. Its weights are
//!   what a perfect multimeter would see; on top of the linear part, the
//!   physical power includes a small temperature-dependent leakage term
//!   ([`LeakageModel`]) that no counter observes.
//! - The **calibrated model** is what the kernel-side estimator uses.
//!   It is produced by [`crate::calibration`] from noisy measurements
//!   and therefore differs slightly from the truth — reproducing the
//!   <10 % estimation error the paper reports.

use crate::event::{EventCounts, EventKind, N_EVENTS};
use crate::rates::EventRates;
use ebs_units::{Celsius, Joules, Watts};

/// Per-event energy weights in nanojoules; evaluates Eq. 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    weights_nj: [f64; N_EVENTS],
}

impl EnergyModel {
    /// Creates a model from per-event weights in nanojoules.
    ///
    /// Negative weights are accepted: least-squares calibration can
    /// produce slightly negative weights for collinear events, and the
    /// paper's estimator tolerates this as long as total estimates stay
    /// accurate.
    ///
    /// # Panics
    ///
    /// Panics if any weight is non-finite.
    pub fn from_weights_nj(weights_nj: [f64; N_EVENTS]) -> Self {
        for (i, w) in weights_nj.iter().enumerate() {
            assert!(w.is_finite(), "weight {i} must be finite, got {w}");
        }
        EnergyModel { weights_nj }
    }

    /// The ground-truth weights of the simulated processor.
    ///
    /// Chosen so that the workload programs of the paper's Table 2 land
    /// at their published power levels on a 2.2 GHz part (see
    /// `ebs-workloads` for the per-program activity vectors).
    pub fn ground_truth_weights() -> Self {
        let mut w = [0.0; N_EVENTS];
        w[EventKind::Cycles.index()] = 6.0;
        w[EventKind::UopsRetired.index()] = 7.0;
        w[EventKind::FpUops.index()] = 11.0;
        w[EventKind::MemLoads.index()] = 3.5;
        w[EventKind::MemStores.index()] = 4.5;
        w[EventKind::L2References.index()] = 25.0;
        w[EventKind::L2Misses.index()] = 70.0;
        w[EventKind::BusTransactions.index()] = 110.0;
        w[EventKind::BranchMispredictions.index()] = 55.0;
        EnergyModel { weights_nj: w }
    }

    /// The raw weights in nanojoules, index order of [`EventKind::ALL`].
    pub const fn weights_nj(&self) -> &[f64; N_EVENTS] {
        &self.weights_nj
    }

    /// Evaluates Eq. 1: the energy attributed to the given counter
    /// deltas.
    #[inline]
    pub fn estimate(&self, counts: &EventCounts) -> Joules {
        let mut nanojoules = 0.0;
        for (i, &w) in self.weights_nj.iter().enumerate() {
            nanojoules += w * counts.as_array()[i] as f64;
        }
        Joules(nanojoules * 1e-9)
    }

    /// The steady power of a CPU continuously executing activity
    /// `rates` at clock frequency `freq_hz`.
    pub fn power_for_rates(&self, rates: &EventRates, freq_hz: f64) -> Watts {
        let mut nj_per_cycle = 0.0;
        for (i, &w) in self.weights_nj.iter().enumerate() {
            nj_per_cycle += w * rates.as_array()[i];
        }
        Watts(nj_per_cycle * 1e-9 * freq_hz)
    }

    /// Mean absolute relative deviation from another model's weights,
    /// weighting each event by its weight magnitude in `self`.
    ///
    /// Used by calibration tests to quantify recovery quality.
    pub fn relative_deviation(&self, other: &EnergyModel) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..N_EVENTS {
            num += (self.weights_nj[i] - other.weights_nj[i]).abs();
            den += self.weights_nj[i].abs();
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

/// Temperature-dependent leakage power, invisible to the counters.
///
/// Real CMOS leakage grows with die temperature. A linear approximation
/// around the operating range is enough to give the counter-based
/// estimator a realistic irreducible error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeakageModel {
    /// Additional watts per kelvin above the reference temperature.
    pub watts_per_kelvin: f64,
    /// Reference temperature at which leakage is folded into the static
    /// (per-cycle) weight.
    pub reference: Celsius,
}

impl LeakageModel {
    /// The simulated processor's leakage: ~0.15 W/K above ambient.
    pub fn default_p4() -> Self {
        LeakageModel {
            watts_per_kelvin: 0.15,
            reference: Celsius::AMBIENT,
        }
    }

    /// A model with no leakage (makes the linear model exact).
    pub fn none() -> Self {
        LeakageModel {
            watts_per_kelvin: 0.0,
            reference: Celsius::AMBIENT,
        }
    }

    /// Leakage power at die temperature `t`, clamped to be non-negative.
    pub fn power(&self, t: Celsius) -> Watts {
        Watts((self.watts_per_kelvin * t.delta(self.reference)).max(0.0))
    }
}

/// The simulated processor's true power behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroundTruth {
    /// The linear activity-to-power part (perfectly counter-observable).
    pub model: EnergyModel,
    /// The counter-invisible leakage part.
    pub leakage: LeakageModel,
    /// Power drawn while halted (`hlt`); the paper measures 13.6 W.
    pub halt_power: Watts,
    /// Core clock in hertz (2.2 GHz Xeon in the paper's testbed).
    pub freq_hz: f64,
}

impl GroundTruth {
    /// The paper-testbed processor: 2.2 GHz, 13.6 W halt power.
    pub fn p4_xeon_2200() -> Self {
        GroundTruth {
            model: EnergyModel::ground_truth_weights(),
            leakage: LeakageModel::default_p4(),
            halt_power: Watts(13.6),
            freq_hz: 2.2e9,
        }
    }

    /// A hypothetical efficiency core paired with the Xeon class on
    /// hybrid shapes: 1.6 GHz nominal clock, per-event energies scaled
    /// to ~55 % of the performance class (its supply voltage is far
    /// lower, and event energy goes with V²), a 4.5 W halt floor, and
    /// roughly half the leakage slope of the big core's die area.
    pub fn efficiency_core() -> Self {
        let mut w = *EnergyModel::ground_truth_weights().weights_nj();
        for v in &mut w {
            *v *= 0.55;
        }
        GroundTruth {
            model: EnergyModel::from_weights_nj(w),
            leakage: LeakageModel {
                watts_per_kelvin: 0.08,
                reference: Celsius::AMBIENT,
            },
            halt_power: Watts(4.5),
            freq_hz: 1.6e9,
        }
    }

    /// True power of a logical CPU running activity `rates` at die
    /// temperature `t`. `None` rates mean the CPU is halted.
    pub fn power(&self, rates: Option<&EventRates>, t: Celsius) -> Watts {
        match rates {
            Some(r) => self.model.power_for_rates(r, self.freq_hz) + self.leakage.power(t),
            None => self.halt_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::EventRates;

    #[test]
    fn zero_counts_estimate_zero_energy() {
        let m = EnergyModel::ground_truth_weights();
        assert_eq!(m.estimate(&EventCounts::ZERO), Joules::ZERO);
    }

    #[test]
    fn estimate_is_linear_in_counts() {
        let m = EnergyModel::ground_truth_weights();
        let rates = EventRates::builder()
            .uops_retired(2.0)
            .mem_loads(0.5)
            .build();
        let once = m.estimate(&rates.counts_for_cycles(1_000_000));
        let thrice = m.estimate(&rates.counts_for_cycles(3_000_000));
        assert!((thrice.0 - 3.0 * once.0).abs() < 1e-9);
    }

    #[test]
    fn power_matches_energy_rate() {
        // Power for rates should equal energy of one second of counts.
        let m = EnergyModel::ground_truth_weights();
        let rates = EventRates::builder()
            .uops_retired(1.7)
            .l2_references(0.01)
            .build();
        let freq = 2.2e9;
        let p = m.power_for_rates(&rates, freq);
        let e = m.estimate(&rates.counts_for_cycles(freq as u64));
        assert!((p.0 - e.0).abs() < 1e-6, "{p:?} vs {e:?}");
    }

    #[test]
    fn idle_cycle_power_is_static_floor() {
        // A CPU spinning without retiring anything burns the per-cycle
        // static power: 6 nJ * 2.2 GHz = 13.2 W.
        let m = EnergyModel::ground_truth_weights();
        let idle = EventRates::builder().build();
        let p = m.power_for_rates(&idle, 2.2e9);
        assert!((p.0 - 13.2).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn leakage_grows_with_temperature_and_clamps() {
        let leak = LeakageModel::default_p4();
        assert_eq!(leak.power(Celsius::AMBIENT), Watts::ZERO);
        let hot = leak.power(Celsius(42.0));
        assert!((hot.0 - 3.0).abs() < 1e-9, "{hot:?}");
        assert_eq!(leak.power(Celsius(10.0)), Watts::ZERO);
        assert_eq!(LeakageModel::none().power(Celsius(80.0)), Watts::ZERO);
    }

    #[test]
    fn ground_truth_halt_power() {
        let gt = GroundTruth::p4_xeon_2200();
        assert_eq!(gt.power(None, Celsius(45.0)), Watts(13.6));
    }

    #[test]
    fn ground_truth_running_power_includes_leakage() {
        let gt = GroundTruth::p4_xeon_2200();
        let rates = EventRates::builder().uops_retired(2.0).build();
        let cool = gt.power(Some(&rates), Celsius::AMBIENT);
        let warm = gt.power(Some(&rates), Celsius(42.0));
        assert!(warm > cool);
        assert!((warm.0 - cool.0 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_core_is_cheaper_per_event_and_slower() {
        let p = GroundTruth::p4_xeon_2200();
        let e = GroundTruth::efficiency_core();
        assert!(e.freq_hz < p.freq_hz);
        assert!(e.halt_power < p.halt_power);
        assert!(e.leakage.watts_per_kelvin < p.leakage.watts_per_kelvin);
        let rates = EventRates::builder().uops_retired(2.0).build();
        // Same activity vector: the E core burns less power both from
        // the cheaper events and the slower clock.
        let pe = e.model.power_for_rates(&rates, e.freq_hz);
        let pp = p.model.power_for_rates(&rates, p.freq_hz);
        assert!(pe.0 < 0.5 * pp.0, "{pe:?} vs {pp:?}");
        // Energy per fixed work (counts, not rates) is ~55 %.
        let counts = rates.counts_for_cycles(1_000_000);
        let ratio = e.model.estimate(&counts).0 / p.model.estimate(&counts).0;
        assert!((ratio - 0.55).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn relative_deviation_zero_for_identical() {
        let m = EnergyModel::ground_truth_weights();
        assert_eq!(m.relative_deviation(&m), 0.0);
        let mut w = *m.weights_nj();
        for v in &mut w {
            *v *= 1.1;
        }
        let off = EnergyModel::from_weights_nj(w);
        let dev = m.relative_deviation(&off);
        assert!((dev - 0.1).abs() < 1e-9, "{dev}");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_weight_rejected() {
        let mut w = [0.0; N_EVENTS];
        w[3] = f64::NAN;
        let _ = EnergyModel::from_weights_nj(w);
    }
}
