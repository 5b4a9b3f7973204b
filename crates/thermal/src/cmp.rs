//! Two-layer thermal model for chip multiprocessors (paper Section 7).
//!
//! The paper's future-work section argues that energy-aware scheduling
//! extends naturally to CMPs: "different cores on the same chip can
//! have different temperatures", and migrating between cores of one
//! die is cheaper than between chips. Modelling that requires more
//! than the single RC node of Fig. 2: each core needs its own (small)
//! thermal capacitance, coupled through the die to a shared heat sink:
//!
//! ```text
//! core i:     C_core * dT_i/dt  = P_i - (T_i - T_hs) / R_die
//! heat sink:  C_hs  * dT_hs/dt = sum_i (T_i - T_hs) / R_die
//!                                 - (T_hs - T_ambient) / R_hs
//! ```
//!
//! Core time constants are around a second (small silicon volume),
//! the heat sink's tens of seconds — so a hot task heats *its* core
//! quickly while the others stay cooler, which is exactly the gradient
//! a core-level hot-task migration exploits.

use ebs_units::{Celsius, SimDuration, Watts};

/// Thermal parameters of a multi-core package.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CmpThermalModel {
    /// Die spreading resistance between one core and the heat sink, in
    /// kelvin per watt.
    pub die_resistance_k_per_w: f64,
    /// Thermal capacitance of one core in joules per kelvin.
    pub core_capacitance_j_per_k: f64,
    /// Heat-sink resistance to ambient in kelvin per watt.
    pub sink_resistance_k_per_w: f64,
    /// Heat-sink capacitance in joules per kelvin.
    pub sink_capacitance_j_per_k: f64,
    /// Ambient temperature.
    pub ambient: Celsius,
}

impl CmpThermalModel {
    /// A plausible dual-era part: per-core tau ~1 s, heat-sink tau in
    /// the tens of seconds, sized so a ~60 W package reaches the same
    /// temperatures as the paper-era single-core reference.
    pub fn reference() -> Self {
        CmpThermalModel {
            die_resistance_k_per_w: 0.45,
            core_capacitance_j_per_k: 2.2,
            sink_resistance_k_per_w: 0.30,
            sink_capacitance_j_per_k: 50.0,
            ambient: Celsius::AMBIENT,
        }
    }

    /// Steady-state heat-sink temperature under a total package power.
    pub fn sink_steady_state(&self, total_power: Watts) -> Celsius {
        self.ambient + self.sink_resistance_k_per_w * total_power.0
    }

    /// Steady-state temperature of a core drawing `core_power` while
    /// the whole package draws `total_power`.
    pub fn core_steady_state(&self, core_power: Watts, total_power: Watts) -> Celsius {
        self.sink_steady_state(total_power) + self.die_resistance_k_per_w * core_power.0
    }

    /// The largest steady per-core power that keeps the core at or
    /// below `limit` when the package as a whole draws `total_power`.
    pub fn core_power_budget(&self, limit: Celsius, total_power: Watts) -> Watts {
        let headroom = limit.delta(self.sink_steady_state(total_power));
        Watts((headroom / self.die_resistance_k_per_w).max(0.0))
    }
}

/// The evolving thermal state of one multi-core package.
#[derive(Clone, Debug)]
pub struct CmpThermalNode {
    model: CmpThermalModel,
    core_temps: Vec<Celsius>,
    sink_temp: Celsius,
}

impl CmpThermalNode {
    /// Creates a package with `n_cores` cores, everything at ambient.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn new(model: CmpThermalModel, n_cores: usize) -> Self {
        assert!(n_cores > 0, "a package needs at least one core");
        CmpThermalNode {
            core_temps: vec![model.ambient; n_cores],
            sink_temp: model.ambient,
            model,
        }
    }

    /// The model parameters.
    pub fn model(&self) -> &CmpThermalModel {
        &self.model
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.core_temps.len()
    }

    /// Current temperature of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_temp(&self, core: usize) -> Celsius {
        self.core_temps[core]
    }

    /// Current heat-sink temperature.
    pub fn sink_temp(&self) -> Celsius {
        self.sink_temp
    }

    /// Advances the package by `dt` under the given per-core powers.
    ///
    /// Integration is semi-implicit Euler with internal sub-stepping
    /// bounded well below the core time constant, so arbitrary `dt`
    /// values are stable.
    ///
    /// # Panics
    ///
    /// Panics if `powers` length differs from the core count.
    pub fn step(&mut self, powers: &[Watts], dt: SimDuration) {
        assert_eq!(powers.len(), self.core_temps.len(), "one power per core");
        if dt.is_zero() {
            return;
        }
        let tau_core = self.model.die_resistance_k_per_w * self.model.core_capacitance_j_per_k;
        // Sub-step at <= tau/10 for accuracy.
        let max_sub = tau_core / 10.0;
        let total = dt.as_secs_f64();
        let n_sub = (total / max_sub).ceil().max(1.0) as usize;
        let h = total / n_sub as f64;
        for _ in 0..n_sub {
            let mut into_sink = 0.0;
            for (temp, power) in self.core_temps.iter_mut().zip(powers) {
                let flow = (temp.0 - self.sink_temp.0) / self.model.die_resistance_k_per_w;
                into_sink += flow;
                let delta = (power.0 - flow) / self.model.core_capacitance_j_per_k * h;
                *temp += delta;
            }
            let out_flow =
                (self.sink_temp.0 - self.model.ambient.0) / self.model.sink_resistance_k_per_w;
            self.sink_temp += (into_sink - out_flow) / self.model.sink_capacitance_j_per_k * h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_steady(node: &mut CmpThermalNode, powers: &[Watts]) {
        for _ in 0..4_000 {
            node.step(powers, SimDuration::from_millis(100));
        }
    }

    #[test]
    fn uniform_load_reaches_analytic_steady_state() {
        let model = CmpThermalModel::reference();
        let mut node = CmpThermalNode::new(model, 4);
        let powers = vec![Watts(15.0); 4];
        run_to_steady(&mut node, &powers);
        let expected = model.core_steady_state(Watts(15.0), Watts(60.0));
        for c in 0..4 {
            assert!(
                (node.core_temp(c).0 - expected.0).abs() < 0.05,
                "core {c}: {:?} vs {expected:?}",
                node.core_temp(c)
            );
        }
        let sink_expected = model.sink_steady_state(Watts(60.0));
        assert!((node.sink_temp().0 - sink_expected.0).abs() < 0.05);
    }

    #[test]
    fn hot_core_runs_hotter_than_its_neighbours() {
        // The Section 7 premise: cores on one chip can have different
        // temperatures.
        let model = CmpThermalModel::reference();
        let mut node = CmpThermalNode::new(model, 4);
        let powers = vec![Watts(45.0), Watts(5.0), Watts(5.0), Watts(5.0)];
        run_to_steady(&mut node, &powers);
        assert!(node.core_temp(0).0 > node.core_temp(1).0 + 10.0);
        // Neighbours still warm up through the shared sink.
        assert!(node.core_temp(1).0 > model.ambient.0 + 5.0);
        // And neighbours are all equal by symmetry.
        assert!((node.core_temp(1).0 - node.core_temp(3).0).abs() < 1e-6);
    }

    #[test]
    fn core_gradient_decays_after_migration() {
        // Move the hot load from core 0 to core 2: the gradient flips
        // within a few core time constants while the sink barely moves.
        let model = CmpThermalModel::reference();
        let mut node = CmpThermalNode::new(model, 4);
        run_to_steady(
            &mut node,
            &[Watts(45.0), Watts(5.0), Watts(5.0), Watts(5.0)],
        );
        let sink_before = node.sink_temp();
        let migrated = vec![Watts(5.0), Watts(5.0), Watts(45.0), Watts(5.0)];
        for _ in 0..50 {
            node.step(&migrated, SimDuration::from_millis(100));
        }
        // 5 s later (5x the core tau) the hot spot moved.
        assert!(node.core_temp(2) > node.core_temp(0));
        // The heat sink, with its much larger capacitance, is nearly
        // unchanged: total power did not change.
        assert!((node.sink_temp().0 - sink_before.0).abs() < 0.5);
    }

    #[test]
    fn sub_stepping_makes_large_steps_agree_with_small_ones() {
        let model = CmpThermalModel::reference();
        let powers = vec![Watts(30.0), Watts(10.0)];
        let mut coarse = CmpThermalNode::new(model, 2);
        coarse.step(&powers, SimDuration::from_secs(10));
        let mut fine = CmpThermalNode::new(model, 2);
        for _ in 0..10_000 {
            fine.step(&powers, SimDuration::from_millis(1));
        }
        for c in 0..2 {
            assert!(
                (coarse.core_temp(c).0 - fine.core_temp(c).0).abs() < 0.05,
                "core {c}: {:?} vs {:?}",
                coarse.core_temp(c),
                fine.core_temp(c)
            );
        }
    }

    #[test]
    fn core_budget_shrinks_with_package_load() {
        let model = CmpThermalModel::reference();
        let lightly = model.core_power_budget(Celsius(60.0), Watts(30.0));
        let heavily = model.core_power_budget(Celsius(60.0), Watts(80.0));
        assert!(lightly > heavily);
        // Saturates at zero when the sink alone exceeds the limit.
        assert_eq!(
            model.core_power_budget(Celsius(25.0), Watts(200.0)),
            Watts::ZERO
        );
    }

    #[test]
    fn zero_dt_is_identity() {
        let model = CmpThermalModel::reference();
        let mut node = CmpThermalNode::new(model, 2);
        let before = node.core_temp(0);
        node.step(&[Watts(50.0), Watts(50.0)], SimDuration::ZERO);
        assert_eq!(node.core_temp(0), before);
    }

    #[test]
    #[should_panic(expected = "one power per core")]
    fn wrong_power_count_rejected() {
        let model = CmpThermalModel::reference();
        let mut node = CmpThermalNode::new(model, 4);
        node.step(&[Watts(10.0)], SimDuration::from_millis(1));
    }
}
