//! Weight calibration: recovering the per-event energies from
//! "multimeter" measurements.
//!
//! The paper calibrates the weights `a_i` of Eq. 1 by running test
//! applications, measuring true consumption with a multimeter, counting
//! events, and solving the resulting linear equations. This module
//! reproduces that procedure against the simulated ground truth:
//!
//! 1. [`synthesize_runs`] executes a spread of synthetic calibration
//!    workloads and produces (counter values, measured energy) pairs;
//!    the measurement includes multimeter noise and the
//!    counter-invisible leakage term.
//! 2. [`calibrate`] solves the least-squares system for the weights.
//! 3. [`evaluate`] quantifies the resulting estimation error, which for
//!    realistic noise levels lands below the paper's 10 % bound.

use crate::energy_model::{EnergyModel, GroundTruth};
use crate::event::{EventCounts, EventKind, N_EVENTS};
use crate::linalg::{self, LinalgError, Matrix};
use crate::rates::EventRates;
use ebs_units::{Celsius, Joules, SimDuration};
use rand::Rng;

/// One calibration measurement: the events counted during a run and the
/// energy a multimeter attributed to it.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationRun {
    /// Counter deltas over the run.
    pub counts: EventCounts,
    /// Multimeter-measured energy over the run.
    pub measured: Joules,
}

/// Errors produced by weight calibration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CalibrationError {
    /// Fewer runs than unknown weights.
    TooFewRuns { runs: usize, needed: usize },
    /// The calibration workloads do not span the event space.
    DegenerateDesign(LinalgError),
}

impl core::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CalibrationError::TooFewRuns { runs, needed } => {
                write!(
                    f,
                    "{runs} calibration runs cannot determine {needed} weights"
                )
            }
            CalibrationError::DegenerateDesign(e) => {
                write!(f, "calibration workloads are degenerate: {e}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Quality metrics of a calibrated model against a set of runs.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationReport {
    /// Root-mean-square relative energy error across the runs.
    pub rms_relative_error: f64,
    /// Worst-case relative energy error.
    pub max_relative_error: f64,
}

/// Generates `n_runs` calibration measurements against the ground truth.
///
/// Each run executes a random activity mix for `duration`, at an
/// operating temperature drawn from the realistic range, and reads the
/// "multimeter" with multiplicative noise of the given relative
/// magnitude (1 % is typical bench equipment).
///
/// # Panics
///
/// Panics if `duration` is zero or `noise` is negative.
pub fn synthesize_runs<R: Rng>(
    truth: &GroundTruth,
    n_runs: usize,
    duration: SimDuration,
    noise: f64,
    rng: &mut R,
) -> Vec<CalibrationRun> {
    assert!(!duration.is_zero(), "calibration runs need a duration");
    assert!(noise >= 0.0, "noise magnitude must be non-negative");
    let cycles = (truth.freq_hz * duration.as_secs_f64()) as u64;
    (0..n_runs)
        .map(|i| {
            let rates = random_activity(i, rng);
            let counts = rates.counts_for_cycles(cycles);
            // The die warms with activity; calibration rigs run hot.
            let temp = Celsius(30.0 + rng.gen_range(0.0..14.0));
            let true_power = truth.power(Some(&rates), temp);
            let noisy = true_power.0 * (1.0 + rng.gen_range(-noise..=noise));
            CalibrationRun {
                counts,
                measured: Joules(noisy * duration.as_secs_f64()),
            }
        })
        .collect()
}

/// Draws a random but plausible activity vector.
///
/// The first [`N_EVENTS`] runs are near-pure single-event microbenchmarks
/// (like the paper's synthetic calibration suite), which guarantees the
/// design matrix has full column rank; later runs are mixed workloads.
fn random_activity<R: Rng>(index: usize, rng: &mut R) -> EventRates {
    let mut rates = [0.0; N_EVENTS];
    rates[EventKind::Cycles.index()] = 1.0;
    let maxima = activity_maxima();
    if index > 0 && index < N_EVENTS {
        // Stress one event class, mildly exercise uops.
        rates[index] = maxima[index] * rng.gen_range(0.6..1.0);
        if index != EventKind::UopsRetired.index() {
            rates[EventKind::UopsRetired.index()] = rng.gen_range(0.1..0.4);
        }
    } else {
        for (i, slot) in rates.iter_mut().enumerate().skip(1) {
            *slot = maxima[i] * rng.gen_range(0.0..1.0);
        }
    }
    EventRates::from_array(rates)
}

/// Per-event maximum plausible rates (events per cycle).
fn activity_maxima() -> [f64; N_EVENTS] {
    let mut m = [0.0; N_EVENTS];
    m[EventKind::Cycles.index()] = 1.0;
    m[EventKind::UopsRetired.index()] = 3.0;
    m[EventKind::FpUops.index()] = 1.0;
    m[EventKind::MemLoads.index()] = 1.0;
    m[EventKind::MemStores.index()] = 0.6;
    m[EventKind::L2References.index()] = 0.08;
    m[EventKind::L2Misses.index()] = 0.04;
    m[EventKind::BusTransactions.index()] = 0.05;
    m[EventKind::BranchMispredictions.index()] = 0.03;
    m
}

/// Recovers an [`EnergyModel`] from calibration runs by least squares.
///
/// # Errors
///
/// Returns [`CalibrationError::TooFewRuns`] with fewer runs than
/// unknowns, or [`CalibrationError::DegenerateDesign`] when the runs do
/// not span the event space.
pub fn calibrate(runs: &[CalibrationRun]) -> Result<EnergyModel, CalibrationError> {
    if runs.len() < N_EVENTS {
        return Err(CalibrationError::TooFewRuns {
            runs: runs.len(),
            needed: N_EVENTS,
        });
    }
    // Work in units of (events * 1e9, joules) so the weights come out in
    // nanojoules directly and the Gram matrix stays well-scaled.
    let mut design = Matrix::zeros(runs.len(), N_EVENTS);
    for (r, run) in runs.iter().enumerate() {
        for (c, &count) in run.counts.as_array().iter().enumerate() {
            design.set(r, c, count as f64 * 1e-9);
        }
    }
    let rhs: Vec<f64> = runs.iter().map(|r| r.measured.0).collect();
    let weights =
        linalg::least_squares(&design, &rhs).map_err(CalibrationError::DegenerateDesign)?;
    let mut arr = [0.0; N_EVENTS];
    arr.copy_from_slice(&weights);
    Ok(EnergyModel::from_weights_nj(arr))
}

/// Measures how well `model` predicts the measured energies of `runs`.
pub fn evaluate(model: &EnergyModel, runs: &[CalibrationRun]) -> CalibrationReport {
    let mut sum_sq = 0.0;
    let mut max = 0.0_f64;
    let mut n = 0usize;
    for run in runs {
        if run.measured.0 == 0.0 {
            continue;
        }
        let predicted = model.estimate(&run.counts);
        let rel = ((predicted.0 - run.measured.0) / run.measured.0).abs();
        sum_sq += rel * rel;
        max = max.max(rel);
        n += 1;
    }
    CalibrationReport {
        rms_relative_error: if n == 0 {
            0.0
        } else {
            (sum_sq / n as f64).sqrt()
        },
        max_relative_error: max,
    }
}

/// Convenience: synthesize, calibrate, and return the calibrated model,
/// using the standard rig (40 runs of 1 s, 1 % multimeter noise).
///
/// This is the model the simulated kernel boots with.
pub fn standard_calibration<R: Rng>(truth: &GroundTruth, rng: &mut R) -> EnergyModel {
    let runs = synthesize_runs(truth, 40, SimDuration::from_secs(1), 0.01, rng);
    calibrate(&runs).expect("standard calibration rig is well-posed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth() -> GroundTruth {
        GroundTruth::p4_xeon_2200()
    }

    #[test]
    fn noise_free_leakage_free_calibration_is_exact() {
        let mut gt = truth();
        gt.leakage = crate::LeakageModel::none();
        let mut rng = StdRng::seed_from_u64(7);
        let runs = synthesize_runs(&gt, 30, SimDuration::from_secs(1), 0.0, &mut rng);
        let model = calibrate(&runs).unwrap();
        let dev = gt.model.relative_deviation(&model);
        assert!(dev < 1e-6, "deviation {dev}");
    }

    #[test]
    fn realistic_calibration_is_under_ten_percent() {
        // The paper reports <10 % estimation error for real workloads.
        let gt = truth();
        let mut rng = StdRng::seed_from_u64(42);
        let model = standard_calibration(&gt, &mut rng);
        let fresh = synthesize_runs(&gt, 50, SimDuration::from_secs(1), 0.0, &mut rng);
        let report = evaluate(&model, &fresh);
        assert!(
            report.max_relative_error < 0.10,
            "max error {}",
            report.max_relative_error
        );
        assert!(
            report.rms_relative_error < 0.05,
            "rms error {}",
            report.rms_relative_error
        );
    }

    #[test]
    fn calibration_error_is_not_zero_with_leakage() {
        // Leakage is invisible to counters, so some bias must remain.
        let gt = truth();
        let mut rng = StdRng::seed_from_u64(3);
        let model = standard_calibration(&gt, &mut rng);
        let dev = gt.model.relative_deviation(&model);
        assert!(dev > 1e-4, "calibration suspiciously exact: {dev}");
    }

    #[test]
    fn too_few_runs_rejected() {
        let gt = truth();
        let mut rng = StdRng::seed_from_u64(1);
        let runs = synthesize_runs(&gt, 4, SimDuration::from_secs(1), 0.0, &mut rng);
        assert_eq!(
            calibrate(&runs),
            Err(CalibrationError::TooFewRuns {
                runs: 4,
                needed: N_EVENTS
            })
        );
    }

    #[test]
    fn degenerate_design_rejected() {
        // All runs identical: rank 1 design matrix.
        let run = CalibrationRun {
            counts: EventRates::builder()
                .uops_retired(1.0)
                .build()
                .counts_for_cycles(1_000_000),
            measured: Joules(0.05),
        };
        let runs = vec![run; 20];
        assert!(matches!(
            calibrate(&runs),
            Err(CalibrationError::DegenerateDesign(_))
        ));
    }

    #[test]
    fn evaluate_on_perfect_model_reports_zero() {
        let mut gt = truth();
        gt.leakage = crate::LeakageModel::none();
        let mut rng = StdRng::seed_from_u64(11);
        let runs = synthesize_runs(&gt, 20, SimDuration::from_secs(1), 0.0, &mut rng);
        // Counter counts are rounded to whole events, so the error is
        // not exactly zero, only vanishingly small.
        let report = evaluate(&gt.model, &runs);
        assert!(report.max_relative_error < 1e-6);
        assert!(report.rms_relative_error < 1e-6);
    }

    #[test]
    fn error_messages() {
        let e = CalibrationError::TooFewRuns { runs: 2, needed: 9 };
        assert_eq!(
            e.to_string(),
            "2 calibration runs cannot determine 9 weights"
        );
    }
}
