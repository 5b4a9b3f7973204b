//! The kernel-side energy estimator (paper Sections 3.2 and 5).
//!
//! "Our energy estimator, which we integrated into the kernel, reads
//! the CPU's event counters on every task switch and at the end of each
//! timeslice, transforming the counter values into energy values."
//!
//! The estimator keeps one previous counter snapshot per logical CPU;
//! each read of a running CPU attributes the events since that snapshot
//! to the task that just ran. A halted CPU produces no events, so the
//! estimator charges the known halt power for it instead — the kernel
//! knows exactly when it was in the idle loop.

use ebs_counters::{CounterBank, CounterSnapshot, EnergyModel, EventCounts};
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
    #[inline]
    pub fn model_for(&self, cpu: CpuId) -> &EnergyModel {
        &self.models[self.cpu_class[cpu.0]]
    }

    /// The calibrated model of one class.
    pub fn class_model(&self, class: usize) -> &EnergyModel {
        &self.models[class]
    }

    /// The halt power attributed to one specific CPU.
    #[inline]
    pub fn halt_share_of(&self, cpu: CpuId) -> Watts {
        self.halt_shares[self.cpu_class[cpu.0]]
    }

    /// Accounts an interval that `cpu` spent running: the events `bank`
    /// recorded since the previous read are `delta`, and `estimate` is
    /// their Eq. 1 energy under the CPU's calibrated model
    /// ([`model_for`](Self::model_for)). Moves the previous read up to
    /// `bank` and returns `estimate`.
    ///
    /// The caller passes what it recorded, so an Eq. 1 energy it
    /// memoised for the same counts serves unchanged: the read costs a
    /// copy of the registers, not a second evaluation of Eq. 1.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `bank` moved by anything but `delta`
    /// since the previous read, or if `estimate` is not bit for bit
    /// Eq. 1 of `delta`.
    #[inline]
    pub fn account_running(
        &mut self,
        cpu: CpuId,
        bank: &CounterBank,
        delta: &EventCounts,
        estimate: Joules,
    ) -> Joules {
        let snap = bank.snapshot();
        debug_assert!(
            snap.since(&self.last[cpu.0]) == *delta,
            "CPU {} recorded other events than the counts read",
            cpu.0
        );
        debug_assert!(
            self.model_for(cpu).estimate(delta).0.to_bits() == estimate.0.to_bits(),
            "the estimate read on CPU {} is not Eq. 1 of its counts",
            cpu.0
        );
        self.last[cpu.0] = snap;
        estimate
    }

    /// Accounts an `interval` that `cpu` spent wholly halted: its halt
    /// share over the interval. A halted CPU records no events, so the
    /// previous read stays current and the bank is only read to check
    /// that it has not moved.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `bank` recorded events since the
    /// previous read.
    #[inline]
    pub fn account_halted(&self, cpu: CpuId, bank: &CounterBank, interval: SimDuration) -> Joules {
        debug_assert!(
            bank.snapshot() == self.last[cpu.0],
            "CPU {} recorded events since the previous read",
            cpu.0
        );
        self.halt_share_of(cpu).over(interval)
    }

    /// Checks that each CPU's previous read equals its bank's
    /// registers, as it does at every step boundary (the debug
    /// self-checks of the accounting calls rely on it).
    ///
    /// # Errors
    ///
    /// A message naming the first CPU whose previous read differs from
    /// its bank.
    pub fn check_reads(&self, banks: &[CounterBank]) -> Result<(), String> {
        match self
            .last
            .iter()
            .zip(banks)
            .position(|(last, bank)| *last != bank.snapshot())
        {
            Some(cpu) => Err(format!(
                "cpu{cpu}'s previous counter read differs from its bank"
            )),
            None => Ok(()),
        }
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

    /// Runs `cycles` cycles of `rates` on `bank` and reads them back
    /// as a running interval, the way the engine does.
    fn run_and_read(
        est: &mut EnergyEstimator,
        cpu: CpuId,
        bank: &mut CounterBank,
        rates: &EventRates,
        cycles: u64,
    ) -> Joules {
        let counts = rates.counts_for_cycles(cycles);
        bank.record(&counts);
        let estimate = est.model_for(cpu).estimate(&counts);
        est.account_running(cpu, bank, &counts, estimate)
    }

    #[test]
    fn attributes_only_the_interval_delta() {
        let mut est = estimator();
        let mut bank = CounterBank::new();
        let rates = EventRates::builder().uops_retired(2.0).build();

        let first = run_and_read(&mut est, CpuId(0), &mut bank, &rates, 220_000_000);
        assert_eq!(est.last[0], bank.snapshot());
        let second = run_and_read(&mut est, CpuId(0), &mut bank, &rates, 220_000_000);
        assert_eq!(est.last[0], bank.snapshot());
        // Identical activity in both slices: identical energy, no
        // double counting.
        assert!((first.0 - second.0).abs() < 1e-9);
        assert!(first.0 > 0.0);
    }

    #[test]
    fn per_cpu_snapshots_are_independent() {
        let mut est = estimator();
        let mut bank0 = CounterBank::new();
        let mut bank1 = CounterBank::new();
        let rates = EventRates::builder().uops_retired(1.0).build();
        let e0 = run_and_read(&mut est, CpuId(0), &mut bank0, &rates, 1_000_000);
        // CPU 1 saw nothing.
        let e1 = run_and_read(&mut est, CpuId(1), &mut bank1, &EventRates::HALTED, 0);
        assert!(e0.0 > 0.0);
        assert_eq!(e1, Joules::ZERO);
        assert_eq!(est.last[0], bank0.snapshot());
        assert_eq!(est.last[1], CounterSnapshot::ZERO);
    }

    #[test]
    fn halted_time_charged_at_halt_share() {
        let est = estimator();
        let bank = CounterBank::new();
        // Fully halted interval: no events, only halt power.
        let e = est.account_halted(CpuId(0), &bank, SimDuration::from_millis(100));
        assert!((e.0 - 6.8 * 0.1).abs() < 1e-12);
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
        let mut bank0 = CounterBank::new();
        let mut bank1 = CounterBank::new();
        let e0 = run_and_read(&mut est, CpuId(0), &mut bank0, &rates, 100_000_000);
        let e1 = run_and_read(&mut est, CpuId(1), &mut bank1, &rates, 100_000_000);
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
        for (cpu, share) in [(CpuId(0), Watts(6.8)), (CpuId(1), Watts(2.25))] {
            let mut bank = CounterBank::new();
            // Halted from bring-up, then again after a running read:
            // each whole interval at the CPU's own class share.
            for ran in [false, true] {
                if ran {
                    let _ = run_and_read(&mut est, cpu, &mut bank, &rates, 22_000_000);
                }
                for ms in [1, 4, 25, 100] {
                    let dt = SimDuration::from_millis(ms);
                    let halted = est.account_halted(cpu, &bank, dt);
                    assert_eq!(
                        halted.0.to_bits(),
                        share.over(dt).0.to_bits(),
                        "{cpu:?} over {dt:?}"
                    );
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
        bank.record(
            &EventRates::builder()
                .uops_retired(1.0)
                .build()
                .counts_for_cycles(1_000),
        );
        let _ = est.account_halted(CpuId(0), &bank, SimDuration::from_millis(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recorded other events than the counts read")]
    fn running_read_rejects_counts_the_bank_did_not_record() {
        let mut est = estimator();
        let mut bank = CounterBank::new();
        let rates = EventRates::builder().uops_retired(1.0).build();
        let _ = run_and_read(&mut est, CpuId(0), &mut bank, &rates, 1_000);
        // Two steps recorded, one read: the second read's counts miss
        // the first step's events.
        bank.record(&rates.counts_for_cycles(1_000));
        let _ = run_and_read(&mut est, CpuId(0), &mut bank, &rates, 1_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not Eq. 1 of its counts")]
    fn running_read_rejects_an_estimate_off_eq_1() {
        let mut est = EnergyEstimator::with_classes(
            vec![
                EnergyModel::ground_truth_weights(),
                EnergyModel::from_weights_nj([1.0; ebs_counters::N_EVENTS]),
            ],
            vec![0, 1],
            vec![Watts(6.8), Watts(2.25)],
        );
        let mut bank = CounterBank::new();
        let counts = EventRates::builder()
            .uops_retired(1.0)
            .build()
            .counts_for_cycles(1_000);
        bank.record(&counts);
        // The other class's model.
        let estimate = est.model_for(CpuId(0)).estimate(&counts);
        let _ = est.account_running(CpuId(1), &bank, &counts, estimate);
    }

    #[test]
    fn single_class_constructor_matches_class_aware_form() {
        let model = EnergyModel::ground_truth_weights();
        let mut a = EnergyEstimator::new(model, 2, Watts(6.8));
        let mut b = EnergyEstimator::with_classes(vec![model], vec![0, 0], vec![Watts(6.8)]);
        let rates = EventRates::builder().mem_loads(0.4).build();
        let mut bank_a = CounterBank::new();
        let mut bank_b = CounterBank::new();
        for cpu in [CpuId(0), CpuId(1)] {
            assert_eq!(a.model_for(cpu), b.model_for(cpu));
            assert_eq!(a.halt_share_of(cpu), b.halt_share_of(cpu));
        }
        let ea = run_and_read(&mut a, CpuId(0), &mut bank_a, &rates, 22_000_000);
        let eb = run_and_read(&mut b, CpuId(0), &mut bank_b, &rates, 22_000_000);
        assert_eq!(ea, eb);
        assert_eq!(a.last, b.last);
    }
}
