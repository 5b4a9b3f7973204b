//! Figures 6 and 7: thermal power of the eight CPUs with energy
//! balancing disabled (Fig. 6) and enabled (Fig. 7).
//!
//! Setup per Section 6.1: SMT disabled, maximum power 60 W for every
//! CPU, the mixed workload of Table 2 started three times each
//! (18 tasks), no throttling — the 50 W line is the *hypothetical*
//! limit the paper draws to show which CPUs would have to throttle.

use ebs_sim::{MaxPowerSpec, SimConfig, Simulation, ThermalTrace};
use ebs_units::{SimDuration, SimTime, Watts};
use ebs_workloads::section61_mix;

/// The hypothetical limit line of the reproduction.
///
/// The paper draws its line at 50 W; our absolute thermal-power levels
/// sit ~3 W higher because the calibrated estimator folds the
/// temperature-dependent leakage of the operating range into its
/// weights, so the analogous line — just above the balanced band,
/// below the unbalanced peaks — is 55 W.
pub const LIMIT: Watts = Watts(55.0);

/// Result of one of the two runs.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The thermal-power trace of all CPUs.
    pub trace: ThermalTrace,
    /// Steady-state band (min, max) of thermal power across CPUs.
    pub band: (Watts, Watts),
    /// Largest instantaneous spread between hottest and coolest CPU.
    pub max_spread: Watts,
    /// Fraction of steady-state samples with some CPU above 50 W.
    pub fraction_above_limit: f64,
    /// Total migrations during the run.
    pub migrations: u64,
}

/// The paired Fig. 6 / Fig. 7 result.
#[derive(Clone, Debug)]
pub struct Fig67 {
    /// Energy balancing disabled (Fig. 6).
    pub disabled: RunResult,
    /// Energy balancing enabled (Fig. 7).
    pub enabled: RunResult,
}

fn one_run(enabled: bool, duration: SimDuration, warmup: SimTime) -> RunResult {
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(enabled)
        .throttling(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(60.0)))
        .metrics_every(SimDuration::from_secs(1))
        .seed(20060418); // EuroSys'06 started April 18, 2006.
    let mut sim = Simulation::new(cfg);
    sim.spawn_mix(&section61_mix(), 3);
    sim.run_for(duration);
    let trace = sim.thermal_trace();
    let band = trace.band(warmup).unwrap_or((Watts::ZERO, Watts::ZERO));
    let max_spread = trace.max_spread(warmup).unwrap_or(Watts::ZERO);
    let fraction_above_limit = trace.fraction_any_above(LIMIT, warmup);
    RunResult {
        band,
        max_spread,
        fraction_above_limit,
        migrations: sim.report().migrations,
        trace,
    }
}

/// Runs both figures' experiments.
pub fn run(quick: bool) -> Fig67 {
    // The stronger hysteresis margins take a few minutes of simulated
    // time to converge (thermal power moves with a 15 s constant and
    // migrations happen one per balancing pass), so even the quick run
    // needs several hundred seconds.
    let duration = SimDuration::from_secs(if quick { 500 } else { 800 });
    // Skip the warm-up/convergence phase when summarising, like the
    // paper's reading of the figures' right-hand side.
    let warmup = SimTime::from_secs(300);
    Fig67 {
        disabled: one_run(false, duration, warmup),
        enabled: one_run(true, duration, warmup),
    }
}

impl core::fmt::Display for Fig67 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Figures 6/7: thermal power of the 8 CPUs, mixed workload (18 tasks)"
        )?;
        let mut t = crate::fmt::Table::new(vec![
            "energy balancing",
            "band",
            "max spread",
            "above limit",
            "migrations",
        ]);
        for (label, r) in [("disabled", &self.disabled), ("enabled", &self.enabled)] {
            t.row(vec![
                label.to_string(),
                format!(
                    "{}-{}",
                    crate::fmt::watts(r.band.0),
                    crate::fmt::watts(r.band.1)
                ),
                crate::fmt::watts(r.max_spread),
                crate::fmt::pct(r.fraction_above_limit),
                r.migrations.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "(limit line at {LIMIT}; paper draws 50 W against its lower absolute levels — \
             disabled curves diverge above the limit, enabled stays narrow and below it)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balancing_narrows_the_band_and_avoids_the_limit() {
        let fig = run(true);
        // Fig. 6: without balancing, CPUs diverge and some exceed 50 W
        // part of the time.
        assert!(
            fig.disabled.fraction_above_limit > 0.05,
            "disabled never exceeded the limit ({})",
            fig.disabled.fraction_above_limit
        );
        // Fig. 7: with balancing, the band is distinctly narrower...
        assert!(
            fig.enabled.max_spread.0 < fig.disabled.max_spread.0 * 0.8,
            "spread {}W (on) vs {}W (off)",
            fig.enabled.max_spread.0,
            fig.disabled.max_spread.0
        );
        // ...and the limit is (almost) never exceeded.
        assert!(
            fig.enabled.fraction_above_limit < fig.disabled.fraction_above_limit / 4.0,
            "above-limit fraction {} (on) vs {} (off)",
            fig.enabled.fraction_above_limit,
            fig.disabled.fraction_above_limit
        );
        // Balancing costs migrations (Section 6.1 reports ~10x).
        assert!(fig.enabled.migrations > fig.disabled.migrations);
    }
}
