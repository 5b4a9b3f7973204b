//! P-states: the discrete frequency/voltage operating points.

use ebs_units::{Hertz, Volts};

/// One operating point: a clock frequency and the supply voltage the
/// part needs to sustain it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PState {
    /// Core clock.
    pub frequency: Hertz,
    /// Supply voltage.
    pub voltage: Volts,
}

impl PState {
    /// Creates a P-state.
    ///
    /// # Panics
    ///
    /// Panics if frequency or voltage is not positive and finite.
    pub fn new(frequency: Hertz, voltage: Volts) -> Self {
        assert!(
            frequency.is_sane() && frequency.0 > 0.0,
            "P-state frequency {frequency:?} must be positive"
        );
        assert!(
            voltage.is_sane() && voltage.0 > 0.0,
            "P-state voltage {voltage:?} must be positive"
        );
        PState { frequency, voltage }
    }

    /// Instruction-throughput factor relative to `nominal`: `f / f₀`.
    pub fn speed_factor(&self, nominal: &PState) -> f64 {
        self.frequency.ratio(nominal.frequency)
    }

    /// Dynamic-power factor relative to `nominal`: `(V/V₀)² · f/f₀`.
    ///
    /// CMOS dynamic power is `α · C · V² · f`; activity `α` and
    /// capacitance `C` are properties of the workload and the die, so
    /// between P-states only `V² · f` moves.
    pub fn power_factor(&self, nominal: &PState) -> f64 {
        self.voltage.ratio_squared(nominal.voltage) * self.speed_factor(nominal)
    }
}

/// An ordered table of P-states, fastest first (index 0 = P0, the
/// nominal state), mirroring the ACPI convention.
#[derive(Clone, Debug, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Creates a table from states sorted fastest-first.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, frequencies are not strictly
    /// decreasing, or voltages are not non-increasing.
    pub fn new(states: Vec<PState>) -> Self {
        assert!(!states.is_empty(), "P-state table needs at least one state");
        for pair in states.windows(2) {
            assert!(
                pair[1].frequency < pair[0].frequency,
                "P-state frequencies must strictly decrease: {:?} then {:?}",
                pair[0].frequency,
                pair[1].frequency
            );
            assert!(
                pair[1].voltage <= pair[0].voltage,
                "P-state voltages must not increase as frequency drops"
            );
        }
        PStateTable { states }
    }

    /// The scaling ladder of the simulated 2.2 GHz Pentium 4 Xeon.
    ///
    /// The real Gallatin-era Xeon exposed only coarse clock modulation;
    /// this table is the SpeedStep-style ladder such a part would
    /// plausibly have had, with ~0.05 V of supply headroom per 200 MHz
    /// bin — enough spread that the slowest state cuts dynamic power to
    /// ~38 % of nominal.
    pub fn p4_xeon() -> Self {
        PStateTable::new(vec![
            PState::new(Hertz::from_ghz(2.2), Volts(1.50)),
            PState::new(Hertz::from_ghz(2.0), Volts(1.45)),
            PState::new(Hertz::from_ghz(1.8), Volts(1.40)),
            PState::new(Hertz::from_ghz(1.6), Volts(1.35)),
            PState::new(Hertz::from_ghz(1.4), Volts(1.30)),
            PState::new(Hertz::from_ghz(1.2), Volts(1.25)),
        ])
    }

    /// The scaling ladder of a hypothetical efficiency core paired
    /// with the [`PStateTable::p4_xeon`] performance ladder on hybrid
    /// shapes: a shorter, lower ladder (1.6 → 0.8 GHz) running at
    /// markedly lower voltages, so its whole operating range sits
    /// below the performance class's energy-per-work curve.
    pub fn efficiency_core() -> Self {
        PStateTable::new(vec![
            PState::new(Hertz::from_ghz(1.6), Volts(1.10)),
            PState::new(Hertz::from_ghz(1.4), Volts(1.05)),
            PState::new(Hertz::from_ghz(1.2), Volts(1.00)),
            PState::new(Hertz::from_ghz(1.0), Volts(0.95)),
            PState::new(Hertz::from_ghz(0.8), Volts(0.90)),
        ])
    }

    /// A degenerate single-state table pinning the part at `frequency`
    /// — what a machine without DVFS support looks like to the engine.
    pub fn nominal_only(frequency: Hertz, voltage: Volts) -> Self {
        PStateTable::new(vec![PState::new(frequency, voltage)])
    }

    /// Number of states.
    #[allow(clippy::len_without_is_empty)] // Construction rejects empty tables.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// The state at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> &PState {
        &self.states[index]
    }

    /// The nominal (fastest) state, P0.
    pub fn nominal(&self) -> &PState {
        &self.states[0]
    }

    /// Index of the slowest state.
    pub fn slowest_index(&self) -> usize {
        self.states.len() - 1
    }

    /// Iterates the states, fastest first.
    pub fn iter(&self) -> impl Iterator<Item = &PState> {
        self.states.iter()
    }

    /// Dynamic-power factor of state `index` relative to nominal.
    pub fn power_factor(&self, index: usize) -> f64 {
        self.states[index].power_factor(self.nominal())
    }

    /// Speed factor of state `index` relative to nominal.
    pub fn speed_factor(&self, index: usize) -> f64 {
        self.states[index].speed_factor(self.nominal())
    }

    /// The fastest state whose dynamic-power factor does not exceed
    /// `budget_factor`; the slowest state if none fits.
    pub fn highest_within(&self, budget_factor: f64) -> usize {
        (0..self.states.len())
            .find(|&i| self.power_factor(i) <= budget_factor)
            .unwrap_or(self.slowest_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p4_table_shape() {
        let t = PStateTable::p4_xeon();
        assert_eq!(t.len(), 6);
        assert_eq!(t.nominal().frequency, Hertz::from_ghz(2.2));
        assert_eq!(t.slowest_index(), 5);
    }

    #[test]
    fn factors_decrease_along_the_table() {
        let t = PStateTable::p4_xeon();
        assert_eq!(t.speed_factor(0), 1.0);
        assert_eq!(t.power_factor(0), 1.0);
        for i in 1..t.len() {
            assert!(t.speed_factor(i) < t.speed_factor(i - 1));
            assert!(t.power_factor(i) < t.power_factor(i - 1));
            // Voltage scaling makes power drop faster than speed.
            assert!(t.power_factor(i) < t.speed_factor(i));
        }
        // The slowest state cuts dynamic power to ~38 % of nominal.
        assert!((t.power_factor(5) - (1.25f64 / 1.5).powi(2) * (1.2 / 2.2)).abs() < 1e-12);
    }

    #[test]
    fn highest_within_picks_the_fastest_fitting_state() {
        let t = PStateTable::p4_xeon();
        assert_eq!(t.highest_within(1.0), 0);
        // Budget factor just under P1's power factor lands on P2.
        let p1 = t.power_factor(1);
        assert_eq!(t.highest_within(p1), 1);
        assert_eq!(t.highest_within(p1 - 1e-9), 2);
        // Impossible budgets fall back to the slowest state.
        assert_eq!(t.highest_within(0.0), t.slowest_index());
        assert_eq!(t.highest_within(-1.0), t.slowest_index());
    }

    #[test]
    fn efficiency_table_sits_below_the_p4_ladder() {
        let e = PStateTable::efficiency_core();
        let p = PStateTable::p4_xeon();
        assert_eq!(e.len(), 5);
        let p_slowest = p.get(p.slowest_index());
        assert!(e.nominal().frequency < p_slowest.frequency * 2.0);
        assert!(e.nominal().voltage < p_slowest.voltage);
        // Monotone factors hold for the new ladder too.
        for i in 1..e.len() {
            assert!(e.speed_factor(i) < e.speed_factor(i - 1));
            assert!(e.power_factor(i) < e.power_factor(i - 1));
        }
    }

    #[test]
    fn nominal_only_is_a_single_pinned_state() {
        let t = PStateTable::nominal_only(Hertz::from_ghz(2.2), Volts(1.5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.highest_within(0.0), 0);
        assert_eq!(t.power_factor(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn unsorted_table_rejected() {
        let _ = PStateTable::new(vec![
            PState::new(Hertz::from_ghz(1.2), Volts(1.25)),
            PState::new(Hertz::from_ghz(2.2), Volts(1.50)),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_table_rejected() {
        let _ = PStateTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = PState::new(Hertz::ZERO, Volts(1.0));
    }
}
