//! `hlt`-based bang-bang temperature control (paper Section 6.2).
//!
//! The paper's evaluation throttles a CPU "by executing the hlt
//! instruction" whenever its thermal power rises above the value
//! corresponding to the temperature limit, and lets it run again once
//! the thermal power has fallen below the limit. Throttling is the
//! *penalty* energy-aware scheduling strives to avoid; the controller
//! here is deliberately the same simple mechanism so that the comparison
//! between policies is apples-to-apples.

use ebs_units::{SimDuration, Watts};

/// Whether the CPU is currently allowed to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThrottleState {
    /// Executing normally.
    Running,
    /// Forced into `hlt`; the CPU consumes only halt power.
    Halted,
}

/// Cumulative throttling statistics for one CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThrottleStats {
    /// Total time spent throttled.
    pub throttled: SimDuration,
    /// Total time observed (throttled or not).
    pub observed: SimDuration,
    /// Number of Running -> Halted transitions.
    pub engagements: u64,
}

impl ThrottleStats {
    /// Fraction of observed time spent throttled, in `[0, 1]`.
    pub fn throttled_fraction(&self) -> f64 {
        if self.observed.is_zero() {
            0.0
        } else {
            self.throttled.ratio(self.observed)
        }
    }
}

/// Bang-bang throttle controller for one CPU.
///
/// Engages when thermal power reaches `limit`, releases when it has
/// fallen below `limit * (1 - release_margin)`. The margin prevents
/// engage/release chatter at the limit without materially changing the
/// duty cycle (the thermal-power average itself moves slowly).
#[derive(Clone, Copy, Debug)]
pub struct ThrottleController {
    limit: Watts,
    release_margin: f64,
    state: ThrottleState,
    stats: ThrottleStats,
}

impl ThrottleController {
    /// Default release margin: release at 1 % below the limit.
    pub const DEFAULT_RELEASE_MARGIN: f64 = 0.01;

    /// Creates a controller with the default release margin.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not a sane power.
    pub fn new(limit: Watts) -> Self {
        Self::with_release_margin(limit, Self::DEFAULT_RELEASE_MARGIN)
    }

    /// Creates a controller with an explicit release margin in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not a sane power or the margin is out of
    /// range.
    pub fn with_release_margin(limit: Watts, release_margin: f64) -> Self {
        assert!(limit.is_sane(), "throttle limit {limit:?} not sane");
        assert!(
            (0.0..1.0).contains(&release_margin),
            "release margin {release_margin} outside [0, 1)"
        );
        ThrottleController {
            limit,
            release_margin,
            state: ThrottleState::Running,
            stats: ThrottleStats::default(),
        }
    }

    /// The configured limit (the CPU's maximum power).
    pub fn limit(&self) -> Watts {
        self.limit
    }

    /// The thermal power at which a running CPU engages the throttle.
    pub fn engage_threshold(&self) -> Watts {
        self.limit
    }

    /// The thermal power below which a halted CPU resumes execution.
    pub fn release_threshold(&self) -> Watts {
        self.limit * (1.0 - self.release_margin)
    }

    /// The thermal power at which the *next* observation flips the
    /// state: the engage threshold while running, the release
    /// threshold while halted. Variable-stride engines bound their
    /// step length by the time the thermal average needs to reach this
    /// value.
    pub fn flip_threshold(&self) -> Watts {
        match self.state {
            ThrottleState::Running => self.engage_threshold(),
            ThrottleState::Halted => self.release_threshold(),
        }
    }

    /// Current state.
    pub fn state(&self) -> ThrottleState {
        self.state
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ThrottleStats {
        self.stats
    }

    /// Observes the CPU's thermal power for an interval of length `dt`
    /// and decides the state for the *next* interval.
    pub fn observe(&mut self, thermal_power: Watts, dt: SimDuration) -> ThrottleState {
        self.stats.observed += dt;
        if self.state == ThrottleState::Halted {
            self.stats.throttled += dt;
        }
        match self.state {
            ThrottleState::Running if thermal_power >= self.limit => {
                self.state = ThrottleState::Halted;
                self.stats.engagements += 1;
            }
            ThrottleState::Halted if thermal_power < self.limit * (1.0 - self.release_margin) => {
                self.state = ThrottleState::Running;
            }
            _ => {}
        }
        self.state
    }
}

impl ebs_store::Snapshot for ThrottleController {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The limit and release margin are configuration.
        w.bool(matches!(self.state, ThrottleState::Halted));
        w.duration(self.stats.throttled);
        w.duration(self.stats.observed);
        w.u64(self.stats.engagements);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.state = if r.bool()? {
            ThrottleState::Halted
        } else {
            ThrottleState::Running
        };
        self.stats.throttled = r.duration()?;
        self.stats.observed = r.duration()?;
        self.stats.engagements = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn stays_running_below_limit() {
        let mut c = ThrottleController::new(Watts(50.0));
        for _ in 0..100 {
            assert_eq!(c.observe(Watts(40.0), TICK), ThrottleState::Running);
        }
        assert_eq!(c.stats().throttled, SimDuration::ZERO);
        assert_eq!(c.stats().engagements, 0);
        assert_eq!(c.stats().observed, SimDuration::from_millis(100));
    }

    #[test]
    fn engages_at_limit_and_releases_below_margin() {
        let mut c = ThrottleController::with_release_margin(Watts(50.0), 0.02);
        assert_eq!(c.observe(Watts(50.0), TICK), ThrottleState::Halted);
        assert_eq!(c.stats().engagements, 1);
        // Just below the limit but inside the margin: stays halted.
        assert_eq!(c.observe(Watts(49.5), TICK), ThrottleState::Halted);
        // Below the release threshold (49.0): resumes.
        assert_eq!(c.observe(Watts(48.9), TICK), ThrottleState::Running);
    }

    #[test]
    fn counts_throttled_time() {
        let mut c = ThrottleController::new(Watts(50.0));
        c.observe(Watts(55.0), TICK); // Engages; this tick was running.
        c.observe(Watts(55.0), TICK); // Throttled tick.
        c.observe(Watts(55.0), TICK); // Throttled tick.
        c.observe(Watts(10.0), TICK); // Throttled tick, then releases.
        c.observe(Watts(10.0), TICK); // Running tick.
        let stats = c.stats();
        assert_eq!(stats.throttled, SimDuration::from_millis(3));
        assert_eq!(stats.observed, SimDuration::from_millis(5));
        assert!((stats.throttled_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_tracks_overshoot() {
        // A synthetic thermal power that rises while running and decays
        // while halted must produce an intermediate duty cycle.
        let mut c = ThrottleController::new(Watts(50.0));
        let mut p = 45.0_f64;
        for _ in 0..20_000 {
            let state = c.observe(Watts(p), TICK);
            p = match state {
                ThrottleState::Running => (p + 0.02).min(70.0),
                ThrottleState::Halted => (p - 0.01).max(13.6),
            };
        }
        let frac = c.stats().throttled_fraction();
        assert!(frac > 0.4 && frac < 0.9, "duty cycle {frac}");
        assert!(c.stats().engagements > 1);
    }

    #[test]
    fn variable_dt_observation_accumulates_like_split_ticks() {
        // The controller's time accounting is linear in `dt`: one 5 ms
        // observation carries the same statistics as five 1 ms ones
        // under a constant thermal power (the state machine only
        // decides at observation ends, which is what a variable-stride
        // engine's step boundaries are).
        let mut coarse = ThrottleController::new(Watts(50.0));
        let mut fine = ThrottleController::new(Watts(50.0));
        coarse.observe(Watts(55.0), SimDuration::from_millis(5));
        for _ in 0..5 {
            fine.observe(Watts(55.0), TICK);
        }
        assert_eq!(coarse.stats().observed, fine.stats().observed);
        assert_eq!(coarse.state(), fine.state());
        // Both engaged exactly once.
        assert_eq!(coarse.stats().engagements, 1);
        // Halted time then accrues with whatever dt is offered.
        coarse.observe(Watts(55.0), SimDuration::from_millis(7));
        assert_eq!(coarse.stats().throttled, SimDuration::from_millis(7));
    }

    #[test]
    fn flip_threshold_follows_state() {
        let mut c = ThrottleController::with_release_margin(Watts(50.0), 0.02);
        assert_eq!(c.engage_threshold(), Watts(50.0));
        assert_eq!(c.release_threshold(), Watts(49.0));
        assert_eq!(c.flip_threshold(), Watts(50.0));
        c.observe(Watts(55.0), TICK);
        assert_eq!(c.state(), ThrottleState::Halted);
        assert_eq!(c.flip_threshold(), Watts(49.0));
    }

    #[test]
    fn empty_observation_fraction_is_zero() {
        let c = ThrottleController::new(Watts(50.0));
        assert_eq!(c.stats().throttled_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not sane")]
    fn insane_limit_rejected() {
        let _ = ThrottleController::new(Watts(-5.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn bad_margin_rejected() {
        let _ = ThrottleController::with_release_margin(Watts(50.0), 1.0);
    }
}
