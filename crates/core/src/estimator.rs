//! The kernel-side energy estimator (paper Sections 3.2 and 5).
//!
//! "Our energy estimator, which we integrated into the kernel, reads
//! the CPU's event counters on every task switch and at the end of each
//! timeslice, transforming the counter values into energy values."
//!
//! The estimator keeps one previous counter snapshot per logical CPU;
//! each accounting call attributes the events since that snapshot to
//! the task that just ran. Time the CPU spent halted during the
//! interval produces no events, so the estimator adds the known halt
//! power for it — the kernel knows exactly when it was in the idle
//! loop.

use ebs_counters::{CounterBank, CounterSnapshot, EnergyModel};
use ebs_topology::CpuId;
use ebs_units::{Joules, SimDuration, Watts};

/// Per-CPU counter-based energy accounting.
///
/// On homogeneous machines every CPU shares one calibrated model and
/// one halt share; on hybrid machines each core class carries its own
/// calibrated model (the per-event energies of an efficiency core are
/// genuinely different) and its own halt share, and the estimator
/// resolves both through the per-CPU class table.
#[derive(Clone, Debug)]
pub struct EnergyEstimator {
    /// Calibrated models, one per core class (class 0 first).
    models: Vec<EnergyModel>,
    /// Class index per logical CPU (all zero on homogeneous machines).
    cpu_class: Vec<usize>,
    last: Vec<CounterSnapshot>,
    /// Halt power share per core class.
    halt_shares: Vec<Watts>,
}

impl EnergyEstimator {
    /// Creates an estimator for `n_cpus` logical CPUs of one class.
    ///
    /// `model` is the *calibrated* energy model (not the ground truth);
    /// `halt_power_share` is the power attributed to one logical CPU
    /// while halted — the measured package halt power divided by the
    /// number of hardware threads.
    pub fn new(model: EnergyModel, n_cpus: usize, halt_power_share: Watts) -> Self {
        Self::with_classes(vec![model], vec![0; n_cpus], vec![halt_power_share])
    }

    /// Creates a class-aware estimator: one calibrated model and halt
    /// share per class, plus the class of every logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if the tables are inconsistent (empty classes, a CPU
    /// pointing past the class tables, or a non-sane halt share).
    pub fn with_classes(
        models: Vec<EnergyModel>,
        cpu_class: Vec<usize>,
        halt_shares: Vec<Watts>,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one class model");
        assert_eq!(
            models.len(),
            halt_shares.len(),
            "one halt share per class model"
        );
        for share in &halt_shares {
            assert!(share.is_sane(), "halt power share not sane");
        }
        for &class in &cpu_class {
            assert!(class < models.len(), "CPU class {class} has no model");
        }
        let n_cpus = cpu_class.len();
        EnergyEstimator {
            models,
            cpu_class,
            last: vec![CounterSnapshot::ZERO; n_cpus],
            halt_shares,
        }
    }

    /// The calibrated model governing one CPU.
    pub fn model_for(&self, cpu: CpuId) -> &EnergyModel {
        &self.models[self.cpu_class[cpu.0]]
    }

    /// The calibrated model of one class.
    pub fn class_model(&self, class: usize) -> &EnergyModel {
        &self.models[class]
    }

    /// The halt power attributed to one specific CPU.
    pub fn halt_share_of(&self, cpu: CpuId) -> Watts {
        self.halt_shares[self.cpu_class[cpu.0]]
    }

    /// Accounts the energy spent on `cpu` since the previous read.
    ///
    /// `interval` is the wall time covered and `halted` how much of it
    /// the CPU spent in the idle/halt loop. Returns the estimated
    /// energy for the interval.
    ///
    /// # Panics
    ///
    /// Panics if `halted` exceeds `interval` or `cpu` is out of range.
    pub fn account(
        &mut self,
        cpu: CpuId,
        bank: &CounterBank,
        interval: SimDuration,
        halted: SimDuration,
    ) -> Joules {
        assert!(halted <= interval, "halted time exceeds the interval");
        let snap = bank.snapshot();
        let delta = snap.since(&self.last[cpu.0]);
        self.last[cpu.0] = snap;
        let class = self.cpu_class[cpu.0];
        self.models[class].estimate(&delta) + self.halt_shares[class].over(halted)
    }

    /// Accounts an `interval` that `cpu` spent wholly halted: its halt
    /// share over the interval, bit for bit what
    /// [`account`](Self::account) returns with `halted == interval`.
    /// A halted CPU records no events, so its delta since the previous
    /// read is all zero; Eq. 1 of an all-zero delta is `+0.0` for
    /// finite weights, and `0.0 + x == x`. The previous read stays
    /// current, so the bank is only read to check that it has not
    /// moved.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `bank` recorded events since the
    /// previous read.
    pub fn account_halted(&self, cpu: CpuId, bank: &CounterBank, interval: SimDuration) -> Joules {
        debug_assert!(
            bank.snapshot() == self.last[cpu.0],
            "CPU {} recorded events since the previous read",
            cpu.0
        );
        self.halt_share_of(cpu).over(interval)
    }
}

impl ebs_store::Snapshot for EnergyEstimator {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The model and halt power share are calibration config; only
        // the per-CPU "previous read" snapshots are run state.
        w.seq(&self.last, |w, snap| snap.save(w));
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.table("estimator CPUs", &mut self.last, |r, snap| snap.restore(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_counters::EventRates;

    fn estimator() -> EnergyEstimator {
        EnergyEstimator::new(EnergyModel::ground_truth_weights(), 2, Watts(6.8))
    }

    fn run_cycles(bank: &mut CounterBank, rates: &EventRates, cycles: u64) {
        bank.record(&rates.counts_for_cycles(cycles));
    }

    #[test]
    fn attributes_only_the_interval_delta() {
        let mut est = estimator();
        let mut bank = CounterBank::new();
        let rates = EventRates::builder().uops_retired(2.0).build();
        let slice = SimDuration::from_millis(100);

        run_cycles(&mut bank, &rates, 220_000_000);
        let first = est.account(CpuId(0), &bank, slice, SimDuration::ZERO);
        run_cycles(&mut bank, &rates, 220_000_000);
        let second = est.account(CpuId(0), &bank, slice, SimDuration::ZERO);
        // Identical activity in both slices: identical energy, no
        // double counting.
        assert!((first.0 - second.0).abs() < 1e-9);
        assert!(first.0 > 0.0);
    }

    #[test]
    fn per_cpu_snapshots_are_independent() {
        let mut est = estimator();
        let mut bank0 = CounterBank::new();
        let bank1 = CounterBank::new();
        let rates = EventRates::builder().uops_retired(1.0).build();
        run_cycles(&mut bank0, &rates, 1_000_000);
        let slice = SimDuration::from_millis(10);
        let e0 = est.account(CpuId(0), &bank0, slice, SimDuration::ZERO);
        // CPU 1 saw nothing.
        let e1 = est.account(CpuId(1), &bank1, slice, SimDuration::ZERO);
        assert!(e0.0 > 0.0);
        assert_eq!(e1, Joules::ZERO);
    }

    #[test]
    fn halted_time_charged_at_halt_share() {
        let mut est = estimator();
        let bank = CounterBank::new();
        let interval = SimDuration::from_millis(100);
        // Fully halted interval: no events, only halt power.
        let e = est.account(CpuId(0), &bank, interval, interval);
        assert!((e.0 - 6.8 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn mixed_interval_adds_both_parts() {
        let mut est = estimator();
        let mut bank = CounterBank::new();
        let rates = EventRates::builder().uops_retired(2.0).build();
        // 50 ms running at 2.2 GHz, 50 ms halted.
        run_cycles(&mut bank, &rates, 110_000_000);
        let e = est.account(
            CpuId(0),
            &bank,
            SimDuration::from_millis(100),
            SimDuration::from_millis(50),
        );
        let running_part =
            EnergyModel::ground_truth_weights().estimate(&rates.counts_for_cycles(110_000_000));
        assert!((e.0 - running_part.0 - 6.8 * 0.05).abs() < 1e-9);
    }

    #[test]
    fn class_aware_estimator_resolves_model_and_halt_per_cpu() {
        let perf = EnergyModel::ground_truth_weights();
        let mut cheap = *perf.weights_nj();
        for w in &mut cheap {
            *w *= 0.5;
        }
        let eff = EnergyModel::from_weights_nj(cheap);
        // CPU 0 is a performance core, CPU 1 an efficiency core.
        let mut est = EnergyEstimator::with_classes(
            vec![perf, eff],
            vec![0, 1],
            vec![Watts(6.8), Watts(2.25)],
        );
        assert_eq!(est.model_for(CpuId(0)), &perf);
        assert_eq!(est.model_for(CpuId(1)), &eff);
        assert_eq!(est.halt_share_of(CpuId(1)), Watts(2.25));

        let rates = EventRates::builder().uops_retired(2.0).build();
        let slice = SimDuration::from_millis(100);
        let mut bank0 = CounterBank::new();
        let mut bank1 = CounterBank::new();
        run_cycles(&mut bank0, &rates, 100_000_000);
        run_cycles(&mut bank1, &rates, 100_000_000);
        let e0 = est.account(CpuId(0), &bank0, slice, SimDuration::ZERO);
        let e1 = est.account(CpuId(1), &bank1, slice, SimDuration::ZERO);
        // Same counter deltas, half the per-event energy.
        assert!((e1.0 - 0.5 * e0.0).abs() < 1e-12, "{e1:?} vs {e0:?}");
    }

    #[test]
    fn halted_accounting_matches_a_fully_halted_read() {
        let perf = EnergyModel::ground_truth_weights();
        let mut cheap = *perf.weights_nj();
        for w in &mut cheap {
            *w *= 0.5;
        }
        let mut est = EnergyEstimator::with_classes(
            vec![perf, EnergyModel::from_weights_nj(cheap)],
            vec![0, 1],
            vec![Watts(6.8), Watts(2.25)],
        );
        let rates = EventRates::builder().uops_retired(2.0).build();
        for cpu in [CpuId(0), CpuId(1)] {
            let mut bank = CounterBank::new();
            // Halted from bring-up, then again after a running read.
            for ran in [false, true] {
                if ran {
                    run_cycles(&mut bank, &rates, 22_000_000);
                    let _ =
                        est.account(cpu, &bank, SimDuration::from_millis(10), SimDuration::ZERO);
                }
                for ms in [1, 4, 25, 100] {
                    let dt = SimDuration::from_millis(ms);
                    let halted = est.account_halted(cpu, &bank, dt);
                    let read = est.account(cpu, &bank, dt, dt);
                    assert_eq!(halted.0.to_bits(), read.0.to_bits(), "{cpu:?} over {dt:?}");
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recorded events since the previous read")]
    fn halted_accounting_rejects_a_bank_that_moved() {
        let est = estimator();
        let mut bank = CounterBank::new();
        run_cycles(
            &mut bank,
            &EventRates::builder().uops_retired(1.0).build(),
            1_000,
        );
        let _ = est.account_halted(CpuId(0), &bank, SimDuration::from_millis(1));
    }

    #[test]
    fn single_class_constructor_matches_class_aware_form() {
        let model = EnergyModel::ground_truth_weights();
        let mut a = EnergyEstimator::new(model, 2, Watts(6.8));
        let mut b = EnergyEstimator::with_classes(vec![model], vec![0, 0], vec![Watts(6.8)]);
        let rates = EventRates::builder().mem_loads(0.4).build();
        let slice = SimDuration::from_millis(10);
        let mut bank = CounterBank::new();
        run_cycles(&mut bank, &rates, 22_000_000);
        let bank2 = bank.clone();
        let ea = a.account(CpuId(0), &bank, slice, SimDuration::ZERO);
        let eb = b.account(CpuId(0), &bank2, slice, SimDuration::ZERO);
        assert_eq!(ea, eb);
    }

    #[test]
    #[should_panic(expected = "halted time exceeds")]
    fn halted_longer_than_interval_rejected() {
        let mut est = estimator();
        let bank = CounterBank::new();
        let _ = est.account(
            CpuId(0),
            &bank,
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        );
    }
}
