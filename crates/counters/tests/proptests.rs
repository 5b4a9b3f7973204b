//! Property-based tests for the counter and calibration machinery.

use ebs_counters::{
    calibration, ceil_count, linalg, nearest_count, EnergyModel, EventCounts, EventRates,
    GroundTruth, LeakageModel, N_EVENTS,
};
use ebs_units::SimDuration;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Gaussian elimination actually solves the system: for random
    /// diagonally dominant (hence well-conditioned) matrices,
    /// `a * solve(a, b) == b` up to rounding.
    #[test]
    fn solve_satisfies_the_system(
        n in 1usize..7,
        entries in prop::collection::vec(-10.0f64..10.0, 49),
        rhs in prop::collection::vec(-100.0f64..100.0, 7),
    ) {
        let mut a = linalg::Matrix::zeros(n, n);
        for r in 0..n {
            let mut off_diag = 0.0;
            for c in 0..n {
                if r != c {
                    let v = entries[r * 7 + c];
                    a.set(r, c, v);
                    off_diag += v.abs();
                }
            }
            // Diagonal dominance guarantees solvability.
            a.set(r, r, off_diag + 1.0);
        }
        let b: Vec<f64> = rhs[..n].to_vec();
        let x = linalg::solve(a.clone(), b.clone()).expect("dominant matrix is regular");
        let back = a.mul_vec(&x).unwrap();
        for (lhs, rhs) in back.iter().zip(&b) {
            prop_assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
        }
    }

    /// Eq. 1 is linear: estimating the sum of two count vectors equals
    /// the sum of the estimates.
    #[test]
    fn estimation_is_additive(
        a in prop::collection::vec(0u64..1_000_000, N_EVENTS),
        b in prop::collection::vec(0u64..1_000_000, N_EVENTS),
    ) {
        let model = EnergyModel::ground_truth_weights();
        let mut ca = [0u64; N_EVENTS];
        let mut cb = [0u64; N_EVENTS];
        ca.copy_from_slice(&a);
        cb.copy_from_slice(&b);
        let ca = EventCounts::from_array(ca);
        let cb = EventCounts::from_array(cb);
        let separate = model.estimate(&ca).0 + model.estimate(&cb).0;
        let together = model.estimate(&(ca + cb)).0;
        prop_assert!((separate - together).abs() < 1e-9);
    }

    /// Counts accumulate independently of chunking: the counts of the
    /// chunks sum to the counts of the whole span, up to rounding.
    #[test]
    fn counter_accumulation_is_chunking_invariant(
        uops_rate in 0.0f64..3.0,
        chunks in prop::collection::vec(1u64..1_000_000, 1..10),
    ) {
        let rates = EventRates::builder().uops_retired(uops_rate).build();
        let total: u64 = chunks.iter().sum();
        let chunked = chunks
            .iter()
            .fold(EventCounts::ZERO, |acc, &c| acc + rates.counts_for_cycles(c));
        let whole = rates.counts_for_cycles(total);
        let diff = chunked.get(ebs_counters::EventKind::UopsRetired) as i64
            - whole.get(ebs_counters::EventKind::UopsRetired) as i64;
        // Rounding once per chunk can drift by at most half an event
        // per chunk.
        prop_assert!(diff.unsigned_abs() <= chunks.len() as u64);
    }

    /// Noise-free calibration recovers the weights for any leakage-free
    /// ground truth scaled within a plausible range.
    #[test]
    fn calibration_recovers_scaled_truths(scale in 0.5f64..2.0, seed in 0u64..500) {
        let mut weights = *EnergyModel::ground_truth_weights().weights_nj();
        for w in &mut weights {
            *w *= scale;
        }
        let truth = GroundTruth {
            model: EnergyModel::from_weights_nj(weights),
            leakage: LeakageModel::none(),
            halt_power: ebs_units::Watts(13.6),
            freq_hz: 2.2e9,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let runs = calibration::synthesize_runs(&truth, 30, SimDuration::from_secs(1), 0.0, &mut rng);
        let model = calibration::calibrate(&runs).unwrap();
        prop_assert!(truth.model.relative_deviation(&model) < 1e-4);
    }

    /// Activity scaling never touches the cycle self-count and scales
    /// all other rates linearly.
    #[test]
    fn scale_activity_is_linear(factor in 0.0f64..2.0, uops in 0.0f64..3.0) {
        let base = EventRates::builder().uops_retired(uops).build();
        let scaled = base.scale_activity(factor);
        prop_assert_eq!(scaled.get(ebs_counters::EventKind::Cycles), 1.0);
        prop_assert!(
            (scaled.get(ebs_counters::EventKind::UopsRetired) - uops * factor).abs() < 1e-12
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// The library-call-free rounding is `f64::round() as u64` for
    /// every bit pattern: NaNs, infinities, negatives, subnormals and
    /// values past `u64::MAX` included.
    #[test]
    fn nearest_count_is_round_for_any_bits(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(nearest_count(x), x.round() as u64, "{:e} ({:#x})", x, bits);
    }

    /// The library-call-free ceiling is `f64::ceil() as u64` for every
    /// bit pattern.
    #[test]
    fn ceil_count_is_ceil_for_any_bits(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(ceil_count(x), x.ceil() as u64, "{:e} ({:#x})", x, bits);
    }

    /// The same over the counts a CPU step actually rounds: integral
    /// parts of every magnitude below 2⁵³ with any fraction, halves
    /// included.
    #[test]
    fn nearest_count_is_round_below_two_to_the_53(
        raw in 0u64..(1 << 53),
        shift in 0u32..53,
        tie in any::<bool>(),
        fine in 0.0f64..1.0,
    ) {
        let x = (raw >> shift) as f64 + if tie { 0.5 } else { fine };
        prop_assert_eq!(nearest_count(x), x.round() as u64, "{:e}", x);
    }
}
