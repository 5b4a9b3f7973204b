//! The kernel-side energy estimator (paper Sections 3.2 and 5).
//!
//! "Our energy estimator, which we integrated into the kernel, reads
//! the CPU's event counters on every task switch and at the end of each
//! timeslice, transforming the counter values into energy values."
//!
//! The estimator holds calibration only: one calibrated Eq. 1 model and
//! one halt share per core class, and the class of every logical CPU.
//! Each step, the engine charges a running CPU Eq. 1 of the events it
//! retired under the CPU's model ([`EnergyEstimator::model_for`]), and
//! a halted CPU its class's halt share
//! ([`EnergyEstimator::halt_share_of`]): a halted CPU produces no
//! events, and the kernel knows exactly when it was in the idle loop.

use ebs_counters::EnergyModel;
use ebs_topology::CpuId;
use ebs_units::Watts;

/// Per-CPU calibration of the counter-based energy estimate.
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
    /// Halt power share per core class.
    halt_shares: Vec<Watts>,
}

impl EnergyEstimator {
    /// Creates a class-aware estimator: one calibrated model and halt
    /// share per class, plus the class of every logical CPU. A
    /// homogeneous machine passes one class and every CPU in it.
    ///
    /// Each model is a *calibrated* energy model (not the ground
    /// truth); each halt share is the power attributed to one logical
    /// CPU of its class while halted — the measured package halt power
    /// divided by the number of hardware threads.
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
        EnergyEstimator {
            models,
            cpu_class,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_counters::EventRates;

    #[test]
    fn class_aware_estimator_resolves_model_and_halt_per_cpu() {
        let perf = EnergyModel::ground_truth_weights();
        let mut cheap = *perf.weights_nj();
        for w in &mut cheap {
            *w *= 0.5;
        }
        let eff = EnergyModel::from_weights_nj(cheap);
        // CPU 0 is a performance core, CPU 1 an efficiency core.
        let est = EnergyEstimator::with_classes(
            vec![perf, eff],
            vec![0, 1],
            vec![Watts(6.8), Watts(2.25)],
        );
        assert_eq!(est.model_for(CpuId(0)), &perf);
        assert_eq!(est.model_for(CpuId(1)), &eff);
        assert_eq!(est.class_model(1), &eff);
        assert_eq!(est.halt_share_of(CpuId(0)), Watts(6.8));
        assert_eq!(est.halt_share_of(CpuId(1)), Watts(2.25));

        let counts = EventRates::builder()
            .uops_retired(2.0)
            .build()
            .counts_for_cycles(100_000_000);
        let e0 = est.model_for(CpuId(0)).estimate(&counts);
        let e1 = est.model_for(CpuId(1)).estimate(&counts);
        // Same counts, half the per-event energy.
        assert!((e1.0 - 0.5 * e0.0).abs() < 1e-12, "{e1:?} vs {e0:?}");
    }

    #[test]
    fn one_class_tables_resolve_every_cpu() {
        let model = EnergyModel::ground_truth_weights();
        let est = EnergyEstimator::with_classes(vec![model], vec![0, 0], vec![Watts(6.8)]);
        assert_eq!(est.class_model(0), &model);
        for cpu in [CpuId(0), CpuId(1)] {
            assert_eq!(est.model_for(cpu), &model);
            assert_eq!(est.halt_share_of(cpu), Watts(6.8));
        }
    }
}
