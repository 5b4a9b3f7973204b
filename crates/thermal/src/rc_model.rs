//! The RC thermal network of paper Section 4.2 (Fig. 2).
//!
//! One thermal resistor models the heat sink delivering heat to the
//! ambient air; one thermal capacitor models the chip and heat sink
//! storing energy. Driven by a power `P`, the die temperature obeys
//!
//! ```text
//! C * dT/dt = P - (T - T_ambient) / R
//! ```
//!
//! whose solution for piecewise-constant power is an exponential with
//! time constant `tau = R * C` towards the steady state
//! `T_ambient + R * P`. The integration below uses that exact solution,
//! so simulation steps of any length are stable and bit-reproducible.

use ebs_units::{Celsius, SimDuration, Watts};

/// Thermal parameters of one physical processor and its heat sink.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RcThermalModel {
    /// Heat-sink thermal resistance in kelvin per watt.
    pub resistance_k_per_w: f64,
    /// Chip + heat-sink thermal capacitance in joules per kelvin.
    pub capacitance_j_per_k: f64,
    /// Ambient air temperature.
    pub ambient: Celsius,
}

impl RcThermalModel {
    /// The reference processor of the simulated testbed: reaches the
    /// paper's 45 degC running the hottest workload (~68 W package
    /// power) from a 22 degC ambient, with a ~15 s time constant.
    pub fn reference() -> Self {
        RcThermalModel {
            resistance_k_per_w: 0.34,
            capacitance_j_per_k: 44.0,
            ambient: Celsius::AMBIENT,
        }
    }

    /// A variant with scaled thermal resistance, for modelling CPUs
    /// closer to or farther from fans and air inlets (Section 4's
    /// motivation for balancing power *ratios*).
    ///
    /// The capacitance is scaled inversely so every CPU keeps the same
    /// time constant; only steady-state cooling differs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn with_cooling_factor(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "cooling factor {factor} must be positive"
        );
        RcThermalModel {
            resistance_k_per_w: self.resistance_k_per_w * factor,
            capacitance_j_per_k: self.capacitance_j_per_k / factor,
            ambient: self.ambient,
        }
    }

    /// The time constant `tau = R * C`.
    pub fn time_constant(&self) -> SimDuration {
        SimDuration::from_micros(
            (self.resistance_k_per_w * self.capacitance_j_per_k * 1e6).round() as u64,
        )
    }

    /// Steady-state temperature under constant power.
    pub fn steady_state(&self, power: Watts) -> Celsius {
        self.ambient + self.resistance_k_per_w * power.0
    }

    /// The *maximum power* of the paper: the largest constant power the
    /// processor sustains without exceeding `limit` — the budget the
    /// scheduling metrics are normalised by.
    pub fn max_power_for_limit(&self, limit: Celsius) -> Watts {
        Watts((limit.delta(self.ambient) / self.resistance_k_per_w).max(0.0))
    }

    /// The temperature that corresponds to a given thermal power in
    /// steady state — the inverse of [`RcThermalModel::max_power_for_limit`].
    pub fn temp_for_power(&self, power: Watts) -> Celsius {
        self.steady_state(power)
    }
}

/// The evolving thermal state of one physical processor.
#[derive(Clone, Copy, Debug)]
pub struct ThermalNode {
    model: RcThermalModel,
    temperature: Celsius,
}

impl ThermalNode {
    /// Creates a node at ambient temperature.
    pub fn new(model: RcThermalModel) -> Self {
        ThermalNode {
            temperature: model.ambient,
            model,
        }
    }

    /// Creates a node at a specific initial temperature.
    pub fn with_temperature(model: RcThermalModel, temperature: Celsius) -> Self {
        ThermalNode { model, temperature }
    }

    /// Current die temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Advances the node by `dt` under constant power, using the exact
    /// exponential solution of the RC network.
    pub fn step(&mut self, power: Watts, dt: SimDuration) -> Celsius {
        debug_assert!(power.is_sane(), "insane power {power:?}");
        if dt.is_zero() {
            return self.temperature;
        }
        let t_inf = self.model.steady_state(power);
        let tau = self.model.resistance_k_per_w * self.model.capacitance_j_per_k;
        let decay = (-dt.as_secs_f64() / tau).exp();
        self.temperature = Celsius(t_inf.0 + (self.temperature.0 - t_inf.0) * decay);
        self.temperature
    }
}

impl ebs_store::Snapshot for ThermalNode {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The RC parameters are configuration; the die temperature is
        // the node's only evolving state.
        w.celsius(self.temperature);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.temperature = r.celsius()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RcThermalModel {
        RcThermalModel::reference()
    }

    #[test]
    fn reference_time_constant() {
        let tau = model().time_constant();
        let secs = tau.as_secs_f64();
        assert!((secs - 14.96).abs() < 0.01, "tau {secs}");
    }

    #[test]
    fn steady_state_matches_paper_testbed() {
        // ~68 W package power should land near the paper's observed
        // 45 degC maximum.
        let t = model().steady_state(Watts(68.0));
        assert!((t.0 - 45.1).abs() < 0.3, "{t:?}");
    }

    #[test]
    fn max_power_inverts_steady_state() {
        let m = model();
        let p = m.max_power_for_limit(Celsius(38.0));
        let t = m.steady_state(p);
        assert!((t.0 - 38.0).abs() < 1e-9);
        // Negative headroom clamps to zero.
        assert_eq!(m.max_power_for_limit(Celsius(10.0)), Watts::ZERO);
    }

    #[test]
    fn step_converges_to_steady_state() {
        let mut node = ThermalNode::new(model());
        for _ in 0..100_000 {
            node.step(Watts(60.0), SimDuration::from_millis(10));
        }
        let expected = model().steady_state(Watts(60.0));
        assert!((node.temperature().0 - expected.0).abs() < 1e-6);
    }

    #[test]
    fn step_is_exact_for_any_step_size() {
        // One big step must equal many small ones (exact exponential).
        let mut coarse = ThermalNode::new(model());
        coarse.step(Watts(50.0), SimDuration::from_secs(10));
        let mut fine = ThermalNode::new(model());
        for _ in 0..10_000 {
            fine.step(Watts(50.0), SimDuration::from_millis(1));
        }
        assert!(
            (coarse.temperature().0 - fine.temperature().0).abs() < 1e-9,
            "{:?} vs {:?}",
            coarse.temperature(),
            fine.temperature()
        );
    }

    #[test]
    fn heating_is_monotone_and_bounded() {
        let mut node = ThermalNode::new(model());
        let mut last = node.temperature();
        let t_inf = model().steady_state(Watts(61.0));
        for _ in 0..1_000 {
            let t = node.step(Watts(61.0), SimDuration::from_millis(100));
            assert!(t >= last, "temperature decreased while heating");
            assert!(t <= t_inf, "temperature overshot steady state");
            last = t;
        }
    }

    #[test]
    fn cooling_returns_to_ambient() {
        let mut node = ThermalNode::with_temperature(model(), Celsius(45.0));
        for _ in 0..100_000 {
            node.step(Watts::ZERO, SimDuration::from_millis(10));
        }
        assert!((node.temperature().0 - model().ambient.0).abs() < 1e-6);
    }

    #[test]
    fn zero_dt_is_identity() {
        let mut node = ThermalNode::with_temperature(model(), Celsius(30.0));
        let t = node.step(Watts(100.0), SimDuration::ZERO);
        assert_eq!(t, Celsius(30.0));
    }

    #[test]
    fn cooling_factor_scales_resistance_keeps_tau() {
        let base = model();
        let poor = base.with_cooling_factor(1.25);
        assert!((poor.resistance_k_per_w - base.resistance_k_per_w * 1.25).abs() < 1e-12);
        assert_eq!(poor.time_constant(), base.time_constant());
        // Poorer cooling -> lower power budget at the same limit.
        assert!(poor.max_power_for_limit(Celsius(38.0)) < base.max_power_for_limit(Celsius(38.0)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_cooling_factor_rejected() {
        let _ = model().with_cooling_factor(0.0);
    }
}
