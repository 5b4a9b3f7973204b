//! A per-CPU memo of the counter work a running CPU does every engine
//! step (paper Section 5, Eq. 1).
//!
//! Each step, a running CPU turns its task's jitter-scaled event rates
//! and the step's whole cycles into the event counts it retired, then
//! evaluates Eq. 1 on those counts twice: under its class's ground
//! truth, which drives the physics, and under the estimator's
//! calibrated model, which the step charges. The rates change only at
//! a slice boundary, a phase change or a dispatch, and on a fixed tick
//! the cycles repeat: at 2.2 GHz a 1 ms step is exactly 2,200,000
//! cycles for a lone thread and 1,375,000 for each of an SMT pair. So
//! within a timeslice the same inputs come back every step.

use ebs_counters::{nearest_count, EnergyModel, EventCounts, EventRates, N_EVENTS};
use ebs_units::{Cycles, Joules};

/// 2⁶³: below it a non-negative product rounds through `i64`
/// conversions, one instruction each on baseline x86-64, where the
/// saturating `u64` casts [`nearest_count`] makes cost several.
const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0;

/// The events `cycles` cycles at some event rates retire on a CPU,
/// with their Eq. 1 energies.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CounterKernel {
    /// The event counts, as [`EventRates::counts_for_cycles`] rounds
    /// them.
    pub counts: EventCounts,
    /// Eq. 1 of `counts` under the CPU's ground-truth weights.
    pub truth: Joules,
    /// Eq. 1 of `counts` under the estimator's calibrated weights.
    pub estimate: Joules,
}

impl CounterKernel {
    /// The kernel of `cycles` cycles at `rates` on a CPU whose class
    /// has ground truth `truth` and calibrated model `model`, in one
    /// pass: each product is rounded as
    /// [`EventRates::counts_for_cycles`] rounds it and added to both
    /// Eq. 1 sums in [`EnergyModel::estimate`]'s order, so the result
    /// is bit for bit theirs.
    ///
    /// A product in `[0, 2⁶³)` rounds through `i64`: its truncation and
    /// the count convert exactly either way, so the fraction and the
    /// count are [`nearest_count`]'s. Any other product (NaN, negative
    /// or huge) takes [`nearest_count`] itself.
    ///
    /// # Panics
    ///
    /// In debug builds, unless the result is bit for bit
    /// [`CounterKernel::reference`].
    #[inline]
    fn compute(
        rates: &EventRates,
        cycles: Cycles,
        truth: &EnergyModel,
        model: &EnergyModel,
    ) -> Self {
        let n = cycles as f64;
        let (w_truth, w_model) = (truth.weights_nj(), model.weights_nj());
        let mut counts = [0u64; N_EVENTS];
        let (mut truth_nj, mut model_nj) = (0.0, 0.0);
        for (i, &rate) in rates.as_array().iter().enumerate() {
            let x = rate * n;
            let (count, c) = if (0.0..I64_LIMIT).contains(&x) {
                let t = x as i64;
                let c = t + (x - t as f64 >= 0.5) as i64;
                (c as u64, c as f64)
            } else {
                let c = nearest_count(x);
                (c, c as f64)
            };
            counts[i] = count;
            truth_nj += w_truth[i] * c;
            model_nj += w_model[i] * c;
        }
        let kernel = CounterKernel {
            counts: EventCounts::from_array(counts),
            truth: Joules(truth_nj * 1e-9),
            estimate: Joules(model_nj * 1e-9),
        };
        debug_assert!(
            kernel.bit_eq(&Self::reference(rates, cycles, truth, model)),
            "one-pass counter kernel differs from counts_for_cycles plus estimate"
        );
        kernel
    }

    /// The kernel as its definition reads: the rounded counts, then
    /// Eq. 1 of them under each model.
    fn reference(
        rates: &EventRates,
        cycles: Cycles,
        truth: &EnergyModel,
        model: &EnergyModel,
    ) -> Self {
        let counts = rates.counts_for_cycles(cycles);
        CounterKernel {
            counts,
            truth: truth.estimate(&counts),
            estimate: model.estimate(&counts),
        }
    }

    /// Whether every count and both energies are bit for bit equal.
    fn bit_eq(&self, other: &CounterKernel) -> bool {
        self.counts == other.counts
            && self.truth.0.to_bits() == other.truth.0.to_bits()
            && self.estimate.0.to_bits() == other.estimate.0.to_bits()
    }
}

/// One CPU's last [`CounterKernel`], keyed on the values of its inputs:
/// the jitter-scaled rates (compared bit for bit) and the whole cycles.
///
/// A CPU's class, and with it both models, never changes, so the class
/// is not part of the key. The kernel is a pure function of the key, so
/// nothing needs to invalidate the memo: a dispatch, a frequency change
/// or a restore only changes the inputs. It is engine scratch, never
/// saved in a store image or hashed, so a restored engine starts cold
/// and still computes every step bit for bit as the engine it came
/// from.
///
/// A cold memo holds the kernel of zero cycles at
/// [`EventRates::HALTED`]: all-zero counts, whose Eq. 1 is `+0.0` under
/// any finite weights, which is right for every class.
#[derive(Clone, Debug)]
pub(crate) struct CounterMemo {
    rates: EventRates,
    cycles: Cycles,
    kernel: CounterKernel,
}

impl Default for CounterMemo {
    fn default() -> Self {
        CounterMemo {
            rates: EventRates::HALTED,
            cycles: 0,
            kernel: CounterKernel {
                counts: EventCounts::ZERO,
                truth: Joules::ZERO,
                estimate: Joules::ZERO,
            },
        }
    }
}

impl CounterMemo {
    /// The kernel of `cycles` cycles at `rates`, with the models of the
    /// CPU's class: the memoised one when the inputs repeat, a fresh
    /// one (kept for next time) otherwise.
    ///
    /// # Panics
    ///
    /// In debug builds, a hit recomputes the kernel and panics unless
    /// it is bit for bit the memoised one.
    #[inline]
    pub(crate) fn kernel(
        &mut self,
        rates: EventRates,
        cycles: Cycles,
        truth: &EnergyModel,
        model: &EnergyModel,
    ) -> &CounterKernel {
        let same_rates = self
            .rates
            .as_array()
            .iter()
            .zip(rates.as_array())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if cycles == self.cycles && same_rates {
            debug_assert!(
                self.kernel
                    .bit_eq(&CounterKernel::compute(&rates, cycles, truth, model)),
                "memoised counter kernel differs from a fresh one"
            );
        } else {
            self.kernel = CounterKernel::compute(&rates, cycles, truth, model);
            self.rates = rates;
            self.cycles = cycles;
        }
        &self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated() -> EnergyModel {
        let mut w = *EnergyModel::ground_truth_weights().weights_nj();
        for (i, w) in w.iter_mut().enumerate() {
            *w *= 1.0 + 0.01 * i as f64;
        }
        EnergyModel::from_weights_nj(w)
    }

    #[test]
    fn every_lookup_is_a_fresh_kernel() {
        let truth = EnergyModel::ground_truth_weights();
        let model = calibrated();
        let busy = EventRates::builder()
            .uops_retired(1.9)
            .mem_loads(0.3)
            .l2_misses(0.004)
            .build();
        let jittered = busy.scale_activity(1.0 + 1e-12);
        let mut memo = CounterMemo::default();
        // Cold, then a lone thread's step repeated, the SMT pair's,
        // a one-cycle carry step, a new slice's jitter, back to the
        // first key, and a halted-rates lookup.
        let keys = [
            (EventRates::HALTED, 0),
            (busy, 2_200_000),
            (busy, 2_200_000),
            (busy, 1_375_000),
            (busy, 1_375_001),
            (jittered, 1_375_001),
            (jittered, 1_375_001),
            (busy, 2_200_000),
            (EventRates::HALTED, 2_200_000),
            (EventRates::HALTED, 0),
        ];
        for (rates, cycles) in keys {
            let fresh = CounterKernel::compute(&rates, cycles, &truth, &model);
            let got = *memo.kernel(rates, cycles, &truth, &model);
            assert!(got.bit_eq(&fresh), "{cycles} cycles: {got:?} vs {fresh:?}");
        }
        // Two models, two energies: the memo keeps them apart.
        let k = *memo.kernel(busy, 2_200_000, &truth, &model);
        assert_ne!(k.truth.0.to_bits(), k.estimate.0.to_bits());
    }

    #[test]
    fn one_pass_kernel_is_counts_plus_estimate_bit_for_bit() {
        let truth = EnergyModel::ground_truth_weights();
        let model = calibrated();
        // Every event at the same rate, and one vector whose products
        // take every path at once.
        let flat = |r: f64| EventRates::from_array([r; N_EVENTS]);
        let mixed = EventRates::from_array(std::array::from_fn(|i| {
            [1.0, 0.5, 1e-9, 3e12, 0.0, 1.5, 2.5, 0.25, 1e300][i % 9]
        }));
        let busy = EventRates::builder()
            .uops_retired(1.9)
            .mem_loads(0.3)
            .l2_misses(0.004)
            .build();
        let rates = [
            EventRates::HALTED,
            busy,
            mixed,
            // Exact halves at odd cycles.
            flat(0.5),
            flat(1.5),
            flat(1.0),
            flat(2.0),
            flat(4.0),
            flat(1e300),
            flat(f64::MAX),
        ];
        let cycles: [Cycles; 16] = [
            0,
            1,
            3,
            1_375_001,
            2_200_000,
            (1 << 40) + 1,
            // Counts around 2⁵² and 2⁵³.
            (1 << 52) - 1,
            1 << 52,
            (1 << 52) + 1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            // Products at or above 2⁶³: the fallback path.
            1 << 62,
            1 << 63,
            (1 << 63) + (1 << 20),
            u64::MAX,
        ];
        for r in &rates {
            for &n in &cycles {
                let one = CounterKernel::compute(r, n, &truth, &model);
                let two = CounterKernel::reference(r, n, &truth, &model);
                assert!(one.bit_eq(&two), "{n} cycles at {r:?}: {one:?} vs {two:?}");
            }
        }
        // The fallback path counts 2 × 2⁶² = 2⁶³ exactly and saturates
        // past u64::MAX.
        let k = CounterKernel::compute(&flat(2.0), 1 << 62, &truth, &model);
        assert_eq!(k.counts.as_array()[0], 1 << 63);
        let k = CounterKernel::compute(&flat(4.0), 1 << 62, &truth, &model);
        assert_eq!(k.counts.as_array()[0], u64::MAX);
        let k = CounterKernel::compute(&flat(1.0), u64::MAX, &truth, &model);
        assert_eq!(k.counts.as_array()[0], u64::MAX);
        // A tie rounds away from zero: 0.5 × 3 cycles is 2 events.
        let k = CounterKernel::compute(&flat(0.5), 3, &truth, &model);
        assert_eq!(k.counts.as_array()[0], 2);
    }

    #[test]
    fn a_cold_memo_is_right_for_any_model() {
        let zero = CounterKernel::compute(
            &EventRates::HALTED,
            0,
            &EnergyModel::from_weights_nj([-3.0; ebs_counters::N_EVENTS]),
            &calibrated(),
        );
        assert!(CounterMemo::default().kernel.bit_eq(&zero));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "memoised counter kernel differs")]
    fn a_stale_hit_is_caught_in_debug_builds() {
        let truth = EnergyModel::ground_truth_weights();
        let rates = EventRates::builder().uops_retired(1.0).build();
        let mut memo = CounterMemo::default();
        let _ = memo.kernel(rates, 1_000, &truth, &truth);
        // The same key under a model the kernel was not computed with.
        let _ = memo.kernel(rates, 1_000, &truth, &calibrated());
    }
}
