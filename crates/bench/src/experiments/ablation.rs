//! Ablation of Section 4.3's design argument: why the balancer needs
//! *both* the runqueue power ratio and the thermal power ratio.
//!
//! "Algorithms based on the processors' power consumptions, since
//! power consumption changes quickly, easily lead to ping-pong
//! effects. Scheduling algorithms only based on temperature, on the
//! other hand, tend to over-balance." The ablation disables one guard
//! at a time (by making its margin vacuous) on the Section 6.1
//! workload and measures migration counts and the resulting thermal
//! band.

use crate::fmt::{watts, Table};
use ebs_core::EnergyBalanceConfig;
use ebs_sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs_units::{SimDuration, SimTime, Watts};
use ebs_workloads::section61_mix;

/// One variant's result.
#[derive(Clone, Debug)]
pub struct Row {
    /// Variant name.
    pub label: &'static str,
    /// Migrations over the run.
    pub migrations: u64,
    /// Steady-state max spread between hottest and coolest CPU.
    pub spread: Watts,
}

/// The ablation result.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Paper variant, power-only, thermal-only, and no balancing.
    pub rows: Vec<Row>,
    /// Run length.
    pub duration: SimDuration,
}

fn variant(
    label: &'static str,
    cfg_balance: Option<EnergyBalanceConfig>,
    duration: SimDuration,
) -> Row {
    let mut cfg = SimConfig::xseries445()
        .smt(false)
        .throttling(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(60.0)))
        .metrics_every(SimDuration::from_secs(1))
        .seed(20060418);
    cfg = match cfg_balance {
        Some(balance) => cfg.energy_aware(true).balance_config(balance),
        None => cfg.energy_aware(false),
    };
    let mut sim = Simulation::new(cfg);
    sim.spawn_mix(&section61_mix(), 3);
    sim.run_for(duration);
    let warm = SimTime::from_secs(200);
    Row {
        label,
        migrations: sim.report().migrations,
        spread: sim.thermal_trace().max_spread(warm).unwrap_or(Watts::ZERO),
    }
}

/// Runs the ablation.
pub fn run(quick: bool) -> Ablation {
    let duration = SimDuration::from_secs(if quick { 400 } else { 900 });
    // A vacuous margin makes the corresponding guard always pass.
    const VACUOUS: f64 = -1e9;
    let both = EnergyBalanceConfig::default();
    let power_only = EnergyBalanceConfig {
        thermal_ratio_margin: VACUOUS,
        runqueue_ratio_margin: 0.0,
        ..both
    };
    let thermal_only = EnergyBalanceConfig {
        runqueue_ratio_margin: VACUOUS,
        thermal_ratio_margin: 0.0,
        ..both
    };
    let rows = vec![
        variant("both metrics (paper)", Some(both), duration),
        variant("power only", Some(power_only), duration),
        variant("thermal only", Some(thermal_only), duration),
        variant("no energy balancing", None, duration),
    ];
    Ablation { rows, duration }
}

impl core::fmt::Display for Ablation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Ablation (Section 4.3): balancer guards, 18-task workload, {}",
            self.duration
        )?;
        let mut t = Table::new(vec!["variant", "migrations", "max spread"]);
        for r in &self.rows {
            t.row(vec![
                r.label.to_string(),
                r.migrations.to_string(),
                watts(r.spread),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "(single-metric variants churn tasks for a band no better than the paper's \
             two-metric hysteresis)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_metric_variants_migrate_far_more() {
        let a = run(true);
        let get = |label: &str| a.rows.iter().find(|r| r.label.contains(label)).unwrap();
        let both = get("both");
        let power = get("power only");
        let thermal = get("thermal only");
        let none = get("no energy");
        // The paper variant is dramatically calmer than either
        // single-metric variant...
        assert!(
            power.migrations > both.migrations * 3,
            "power-only {} vs both {}",
            power.migrations,
            both.migrations
        );
        assert!(
            thermal.migrations > both.migrations * 3,
            "thermal-only {} vs both {}",
            thermal.migrations,
            both.migrations
        );
        // ...while balancing at least as well as doing nothing.
        assert!(both.spread < none.spread);
    }
}
