//! Open workloads: task *arrivals* instead of a fixed task population.
//!
//! The paper's evaluation is closed — 18 tasks start together and run
//! for the whole experiment. Production traffic is open: requests
//! arrive over time, do a bounded amount of work, and leave. This
//! module describes such traffic: a Poisson arrival process whose rate
//! follows a [`LoadCurve`] (diurnal sine, step, burst, or constant),
//! drawing each arriving task from a program palette with a service
//! demand (total instructions) sampled from a bounded range.
//!
//! The simulation engine turns the description into arrivals by
//! thinning a homogeneous Poisson process at the curve's peak rate —
//! exact for time-varying rates and deterministic per seed.

use crate::arrivals::Arrival;
use crate::program::Program;
use ebs_units::{Instructions, SimDuration, SimTime};

/// How the arrival rate varies over simulated time, as a factor
/// applied to the base rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadCurve {
    /// Rate factor 1 throughout.
    Constant,
    /// A day/night sine: the factor starts at `floor` (trough at
    /// t = 0), peaks at 1 mid-period, and returns to `floor`.
    Diurnal {
        /// Length of one full day/night cycle.
        period: SimDuration,
        /// Trough factor in `[0, 1]`.
        floor: f64,
    },
    /// A one-time level change at `at`.
    Step {
        /// When the rate switches.
        at: SimDuration,
        /// Factor before the switch.
        before: f64,
        /// Factor after the switch.
        after: f64,
    },
    /// Periodic traffic spikes: the first `duty` fraction of every
    /// period runs at factor `high`, the rest at 1.
    Burst {
        /// Length of one burst cycle.
        period: SimDuration,
        /// Fraction of the period spent bursting, in `(0, 1)`.
        duty: f64,
        /// Rate factor during the burst (≥ 1).
        high: f64,
    },
}

impl LoadCurve {
    /// A short name for tables and CSV rows.
    pub const fn name(&self) -> &'static str {
        match self {
            LoadCurve::Constant => "constant",
            LoadCurve::Diurnal { .. } => "diurnal",
            LoadCurve::Step { .. } => "step",
            LoadCurve::Burst { .. } => "burst",
        }
    }

    /// The rate factor at instant `t`.
    pub fn factor_at(&self, t: SimTime) -> f64 {
        match *self {
            LoadCurve::Constant => 1.0,
            LoadCurve::Diurnal { period, floor } => {
                let x = t.as_secs_f64() / period.as_secs_f64();
                floor + (1.0 - floor) * 0.5 * (1.0 - (2.0 * core::f64::consts::PI * x).cos())
            }
            LoadCurve::Step { at, before, after } => {
                if t.as_micros() < at.as_micros() {
                    before
                } else {
                    after
                }
            }
            LoadCurve::Burst { period, duty, high } => {
                let phase = (t.as_micros() % period.as_micros()) as f64 / period.as_micros() as f64;
                if phase < duty {
                    high
                } else {
                    1.0
                }
            }
        }
    }

    /// The largest factor the curve ever reaches (the thinning
    /// envelope).
    pub fn peak_factor(&self) -> f64 {
        match *self {
            LoadCurve::Constant => 1.0,
            LoadCurve::Diurnal { .. } => 1.0,
            LoadCurve::Step { before, after, .. } => before.max(after),
            LoadCurve::Burst { high, .. } => high.max(1.0),
        }
    }

    /// The curve phase in effect at `t`, as an index into
    /// [`LoadCurve::phases`] (latency percentiles are reported per
    /// phase).
    pub fn phase_at(&self, t: SimTime) -> u8 {
        match *self {
            LoadCurve::Constant => 0,
            // "peak" from the mid factor up, "trough" below it.
            LoadCurve::Diurnal { floor, .. } => {
                let mid = (1.0 + floor) / 2.0;
                u8::from(self.factor_at(t) >= mid)
            }
            // "after" from the switch on.
            LoadCurve::Step { at, .. } => u8::from(t.as_micros() >= at.as_micros()),
            // "burst" in the first `duty` of the period, "base" after.
            LoadCurve::Burst { period, duty, .. } => {
                let phase = (t.as_micros() % period.as_micros()) as f64 / period.as_micros() as f64;
                u8::from(phase < duty)
            }
        }
    }

    /// Every phase label the curve can produce, in canonical order.
    pub const fn phases(&self) -> &'static [&'static str] {
        match self {
            LoadCurve::Constant => &["steady"],
            LoadCurve::Diurnal { .. } => &["trough", "peak"],
            LoadCurve::Step { .. } => &["before", "after"],
            LoadCurve::Burst { .. } => &["base", "burst"],
        }
    }

    /// Whether the curve's parameters are usable (positive periods,
    /// factors in range).
    pub fn is_valid(&self) -> bool {
        match *self {
            LoadCurve::Constant => true,
            LoadCurve::Diurnal { period, floor } => {
                !period.is_zero() && (0.0..=1.0).contains(&floor)
            }
            LoadCurve::Step { before, after, .. } => {
                before.is_finite()
                    && after.is_finite()
                    && before >= 0.0
                    && after >= 0.0
                    && before.max(after) > 0.0
            }
            LoadCurve::Burst { period, duty, high } => {
                !period.is_zero() && duty > 0.0 && duty < 1.0 && high.is_finite() && high >= 1.0
            }
        }
    }
}

/// An open workload: Poisson arrivals of bounded-service tasks.
#[derive(Clone, Debug)]
pub struct OpenWorkload {
    /// The palette of programs arrivals are drawn from, uniformly
    /// (repeat an entry to weight it).
    pub programs: Vec<Program>,
    /// Mean arrivals per simulated second at rate factor 1.
    pub base_rate_hz: f64,
    /// The time-varying rate factor.
    pub curve: LoadCurve,
    /// Minimum service demand of one arriving task (instructions).
    pub min_work: Instructions,
    /// Maximum service demand of one arriving task (instructions).
    pub max_work: Instructions,
}

impl OpenWorkload {
    /// Creates an open workload with a constant curve and a default
    /// service-demand range of 0.6–1.8 billion instructions (a few
    /// hundred milliseconds of solo execution on the paper's 2.2 GHz
    /// part).
    ///
    /// # Panics
    ///
    /// Panics if the palette is empty or the rate is not finite and
    /// non-negative.
    pub fn new(programs: Vec<Program>, base_rate_hz: f64) -> Self {
        assert!(!programs.is_empty(), "open workload needs programs");
        assert!(
            base_rate_hz.is_finite() && base_rate_hz >= 0.0,
            "arrival rate {base_rate_hz} must be finite and non-negative"
        );
        OpenWorkload {
            programs,
            base_rate_hz,
            curve: LoadCurve::Constant,
            min_work: 600_000_000,
            max_work: 1_800_000_000,
        }
    }

    /// Sets the load curve.
    ///
    /// # Panics
    ///
    /// Panics if the curve's parameters are out of range.
    pub fn curve(mut self, curve: LoadCurve) -> Self {
        assert!(curve.is_valid(), "invalid load curve {curve:?}");
        self.curve = curve;
        self
    }

    /// Bounds the service demand of arriving tasks.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or starts at zero.
    pub fn service_work(mut self, min: Instructions, max: Instructions) -> Self {
        assert!(min > 0 && min <= max, "bad service range {min}..={max}");
        self.min_work = min;
        self.max_work = max;
        self
    }

    /// The instantaneous arrival rate at `t`, in arrivals per second.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.base_rate_hz * self.curve.factor_at(t)
    }

    /// The peak arrival rate over all time (the thinning envelope).
    pub fn peak_rate(&self) -> f64 {
        self.base_rate_hz * self.curve.peak_factor()
    }

    /// Resolves an accepted arrival into the program to spawn: the
    /// palette entry it drew, bounded to its sampled service demand.
    /// Every router — the engine's own arrival tick, the parallel
    /// synchronizer, the fleet dispatcher — spawns exactly this.
    pub fn materialize(&self, arrival: &Arrival) -> Program {
        self.programs[arrival.program_index]
            .clone()
            .with_total_work(arrival.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The label of the phase `c` is in at `t` seconds.
    fn phase_name(c: &LoadCurve, t: u64) -> &'static str {
        c.phases()[usize::from(c.phase_at(secs(t)))]
    }

    #[test]
    fn constant_curve_is_flat() {
        let c = LoadCurve::Constant;
        for t in [0, 1, 100, 10_000] {
            assert_eq!(c.factor_at(secs(t)), 1.0);
            assert_eq!(phase_name(&c, t), "steady");
        }
        assert_eq!(c.peak_factor(), 1.0);
        assert_eq!(c.phases(), &["steady"]);
    }

    #[test]
    fn diurnal_troughs_at_zero_and_peaks_mid_period() {
        let c = LoadCurve::Diurnal {
            period: SimDuration::from_secs(100),
            floor: 0.2,
        };
        assert!((c.factor_at(secs(0)) - 0.2).abs() < 1e-12);
        assert!((c.factor_at(secs(50)) - 1.0).abs() < 1e-12);
        assert!((c.factor_at(secs(100)) - 0.2).abs() < 1e-9);
        assert_eq!(phase_name(&c, 0), "trough");
        assert_eq!(phase_name(&c, 50), "peak");
        // The factor never leaves [floor, 1].
        for t in 0..200 {
            let f = c.factor_at(secs(t));
            assert!((0.2..=1.0 + 1e-12).contains(&f), "t={t}: {f}");
        }
        assert_eq!(c.peak_factor(), 1.0);
    }

    #[test]
    fn step_switches_once() {
        let c = LoadCurve::Step {
            at: SimDuration::from_secs(30),
            before: 0.4,
            after: 1.0,
        };
        assert_eq!(c.factor_at(secs(29)), 0.4);
        assert_eq!(c.factor_at(secs(30)), 1.0);
        assert_eq!(phase_name(&c, 10), "before");
        assert_eq!(phase_name(&c, 31), "after");
        assert_eq!(c.peak_factor(), 1.0);
    }

    #[test]
    fn burst_repeats_per_period() {
        let c = LoadCurve::Burst {
            period: SimDuration::from_secs(10),
            duty: 0.2,
            high: 3.0,
        };
        assert_eq!(c.factor_at(secs(1)), 3.0); // In the first burst.
        assert_eq!(c.factor_at(secs(5)), 1.0);
        assert_eq!(c.factor_at(secs(11)), 3.0); // Second period.
        assert_eq!(phase_name(&c, 1), "burst");
        assert_eq!(phase_name(&c, 5), "base");
        assert_eq!(c.peak_factor(), 3.0);
    }

    #[test]
    fn curve_validity() {
        assert!(LoadCurve::Constant.is_valid());
        assert!(!LoadCurve::Diurnal {
            period: SimDuration::ZERO,
            floor: 0.5
        }
        .is_valid());
        assert!(!LoadCurve::Diurnal {
            period: SimDuration::from_secs(1),
            floor: 1.5
        }
        .is_valid());
        assert!(!LoadCurve::Burst {
            period: SimDuration::from_secs(1),
            duty: 0.0,
            high: 2.0
        }
        .is_valid());
        assert!(!LoadCurve::Step {
            at: SimDuration::from_secs(1),
            before: 0.0,
            after: 0.0
        }
        .is_valid());
        // Non-finite factors would turn the thinning ratio into NaN
        // mid-simulation; reject them up front.
        assert!(!LoadCurve::Burst {
            period: SimDuration::from_secs(1),
            duty: 0.5,
            high: f64::INFINITY
        }
        .is_valid());
        assert!(!LoadCurve::Step {
            at: SimDuration::from_secs(1),
            before: f64::NAN,
            after: 1.0
        }
        .is_valid());
    }

    #[test]
    fn workload_rates_follow_the_curve() {
        let w = OpenWorkload::new(vec![catalog::aluadd()], 10.0).curve(LoadCurve::Step {
            at: SimDuration::from_secs(5),
            before: 0.5,
            after: 2.0,
        });
        assert_eq!(w.rate_at(secs(0)), 5.0);
        assert_eq!(w.rate_at(secs(5)), 20.0);
        assert_eq!(w.peak_rate(), 20.0);
    }

    #[test]
    fn service_bounds_validated() {
        let w = OpenWorkload::new(vec![catalog::memrw()], 1.0).service_work(100, 200);
        assert_eq!((w.min_work, w.max_work), (100, 200));
    }

    #[test]
    #[should_panic(expected = "needs programs")]
    fn empty_palette_rejected() {
        let _ = OpenWorkload::new(vec![], 1.0);
    }

    #[test]
    #[should_panic(expected = "bad service range")]
    fn inverted_service_range_rejected() {
        let _ = OpenWorkload::new(vec![catalog::memrw()], 1.0).service_work(200, 100);
    }

    #[test]
    #[should_panic(expected = "invalid load curve")]
    fn invalid_curve_rejected() {
        let _ = OpenWorkload::new(vec![catalog::memrw()], 1.0).curve(LoadCurve::Burst {
            period: SimDuration::ZERO,
            duty: 0.5,
            high: 2.0,
        });
    }
}
