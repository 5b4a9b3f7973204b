//! The DVFS-vs-hlt thermal enforcement study.
//!
//! The paper's evaluation enforces power budgets by executing `hlt`
//! and treats the throttled time as the penalty energy-aware
//! scheduling exists to avoid; voltage/frequency scaling is named as
//! the alternative actuator it does not model. This experiment runs
//! the Section 6.1 mix (18 tasks, SMT off) under a 40 W package budget
//! with every enforcement mechanism the simulator now has:
//!
//! - no enforcement (the loss reference),
//! - `hlt` throttling alone and with energy-aware balancing,
//! - `ThermalAware` DVFS alone and with energy-aware balancing,
//! - DVFS with the `hlt` controller armed as a backstop.
//!
//! The interesting shape: at the same budget, DVFS loses *less
//! throughput* than `hlt` (work continues at a reduced clock instead
//! of stopping) and spends *less energy per instruction* (dynamic
//! energy drops with V² where `hlt`'s does not), while the backstop
//! row shows the governor engaging early enough that the throttle
//! never fires.

use crate::fmt::{pct, Table};
use ebs_dvfs::GovernorKind;
use ebs_sim::{run_seeds, MaxPowerSpec, SimConfig, SimReport, Simulation};
use ebs_units::{SimDuration, Watts};
use ebs_workloads::section61_mix;
use std::time::Instant;

/// One enforcement variant's averaged outcome.
#[derive(Clone, Debug)]
pub struct DvfsRow {
    /// Variant name.
    pub name: &'static str,
    /// Mean instructions per second.
    pub throughput_ips: f64,
    /// Throughput loss versus the unconstrained reference.
    pub loss: f64,
    /// Mean true energy over the run.
    pub energy_kj: f64,
    /// Mean true energy per instruction in nanojoules.
    pub nj_per_instruction: f64,
    /// Mean fraction of time spent hlt-throttled.
    pub throttled: f64,
    /// Mean number of hlt engagements summed over packages (from the
    /// per-package [`ebs_thermal::ThrottleStats`] in the report).
    pub hlt_engagements: f64,
    /// Mean fraction of time spent below the nominal clock.
    pub scaled: f64,
    /// Mean effective core clock in gigahertz.
    pub mean_ghz: f64,
    /// Mean governor decisions per run (0 without DVFS).
    pub dvfs_decisions: f64,
    /// Simulated seconds per wall second over the variant's runs.
    pub sim_per_wall: f64,
}

/// The study result.
#[derive(Clone, Debug)]
pub struct DvfsStudy {
    /// One row per enforcement variant, reference first.
    pub rows: Vec<DvfsRow>,
}

/// The package power budget of the study.
pub const BUDGET: Watts = Watts(40.0);

fn base_config() -> SimConfig {
    SimConfig::xseries445()
        .smt(false)
        .energy_aware(false)
        .throttling(false)
        .max_power(MaxPowerSpec::PerPackage(BUDGET))
}

fn variants() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("no enforcement", base_config()),
        ("hlt", base_config().throttling(true)),
        (
            "hlt + energy-aware",
            base_config().throttling(true).energy_aware(true),
        ),
        (
            "dvfs (thermal-aware)",
            base_config().dvfs_governor(GovernorKind::ThermalAware),
        ),
        (
            "dvfs + energy-aware",
            base_config()
                .dvfs_governor(GovernorKind::ThermalAware)
                .energy_aware(true),
        ),
        (
            "dvfs + hlt backstop",
            base_config()
                .dvfs_governor(GovernorKind::ThermalAware)
                .throttling(true),
        ),
    ]
}

fn averaged(
    name: &'static str,
    reports: &[SimReport],
    reference_ips: f64,
    sim_per_wall: f64,
) -> DvfsRow {
    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let ips = mean(&|r| r.throughput_ips);
    DvfsRow {
        name,
        throughput_ips: ips,
        loss: if reference_ips == 0.0 {
            0.0
        } else {
            (1.0 - ips / reference_ips).max(0.0)
        },
        energy_kj: mean(&|r| r.true_energy.0) / 1e3,
        nj_per_instruction: mean(&|r| r.nj_per_instruction()),
        throttled: mean(&|r| r.avg_throttled_fraction),
        hlt_engagements: mean(&|r| {
            r.throttle_stats.iter().map(|s| s.engagements).sum::<u64>() as f64
        }),
        scaled: mean(&|r| r.avg_scaled_fraction),
        mean_ghz: mean(&|r| r.mean_frequency.as_ghz()),
        dvfs_decisions: mean(&|r| r.dvfs_decisions as f64),
        sim_per_wall,
    }
}

/// Runs the study.
pub fn run(quick: bool) -> DvfsStudy {
    let duration = SimDuration::from_secs(if quick { 120 } else { 300 });
    let seeds: &[u64] = if quick {
        &crate::SEEDS[..2]
    } else {
        &crate::SEEDS[..3]
    };
    let mix = section61_mix();
    let mut rows = Vec::new();
    let mut reference_ips = 0.0;
    for (name, cfg) in variants() {
        let start = Instant::now();
        let reports = run_seeds(&cfg, seeds, duration, |sim| sim.spawn_mix(&mix, 3));
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let sim_per_wall = duration.as_secs_f64() * seeds.len() as f64 / wall;
        let row = averaged(name, &reports, reference_ips, sim_per_wall);
        if rows.is_empty() {
            reference_ips = row.throughput_ips;
        }
        rows.push(row);
    }
    DvfsStudy { rows }
}

/// One traced run's artefacts (the `--trace` mode of `exp_dvfs`).
#[derive(Clone, Debug)]
pub struct TracedDvfs {
    /// Simulated horizon of the run.
    pub duration: SimDuration,
    /// Scheduling events recorded.
    pub events: usize,
    /// Metrics snapshots taken (100 ms cadence).
    pub snapshots: usize,
    /// The Perfetto/Chrome trace-event document (`trace_dvfs.json`).
    pub perfetto_json: String,
    /// The metrics-registry snapshot table (`metrics_dvfs.csv`).
    pub metrics_csv: String,
}

impl core::fmt::Display for TracedDvfs {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "traced DVFS run (dvfs + hlt backstop, seed {}, {:.0} s): \
             {} scheduling events, {} metrics snapshots",
            crate::SEEDS[0],
            self.duration.as_secs_f64(),
            self.events,
            self.snapshots
        )?;
        writeln!(
            f,
            "open results/trace_dvfs.json in Perfetto (ui.perfetto.dev) or \
             chrome://tracing; results/metrics_dvfs.csv holds the counter table"
        )
    }
}

/// Runs the backstop variant once with the full observability stack
/// on — event tracing and 100 ms metrics snapshots — and exports the
/// Perfetto document plus the metrics CSV.
/// One seed, shorter horizon than the study: the artefact is for
/// humans scrubbing a timeline, not for averaged numbers.
pub fn traced_run(quick: bool) -> TracedDvfs {
    let duration = SimDuration::from_secs(if quick { 20 } else { 60 });
    let cfg = base_config()
        .dvfs_governor(GovernorKind::ThermalAware)
        .throttling(true)
        .seed(crate::SEEDS[0])
        .trace_events(true)
        .metrics_every(SimDuration::from_millis(100));
    let mut sim = Simulation::new(cfg);
    sim.spawn_mix(&section61_mix(), 3);
    sim.run_for(duration);
    TracedDvfs {
        duration,
        events: sim.events().map_or(0, |t| t.len()),
        snapshots: sim.metrics().map_or(0, |m| m.snapshots().len()),
        perfetto_json: sim.perfetto_json().expect("event tracing is on"),
        metrics_csv: sim.metrics().expect("metrics are on").to_csv(),
    }
}

impl DvfsStudy {
    /// The row for a variant.
    pub fn row(&self, name: &str) -> &DvfsRow {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no variant named {name}"))
    }

    /// Renders the study as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "variant,gips,loss,energy_kj,nj_per_instr,throttled,hlt_engagements,scaled,\
             mean_ghz,dvfs_decisions,sim_per_wall\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.4},{:.4},{:.2},{:.3},{:.4},{:.1},{:.4},{:.3},{:.1},{:.1}\n",
                r.name,
                r.throughput_ips / 1e9,
                r.loss,
                r.energy_kj,
                r.nj_per_instruction,
                r.throttled,
                r.hlt_engagements,
                r.scaled,
                r.mean_ghz,
                r.dvfs_decisions,
                r.sim_per_wall
            ));
        }
        out
    }
}

impl core::fmt::Display for DvfsStudy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "DVFS vs hlt: Section 6.1 mix under a {BUDGET} package budget (SMT off)"
        )?;
        let mut t = Table::new(vec![
            "enforcement",
            "Ginstr/s",
            "loss",
            "energy",
            "nJ/instr",
            "throttled",
            "hlt engages",
            "scaled",
            "mean clock",
            "decisions",
            "sim/wall",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.to_string(),
                format!("{:.2}", r.throughput_ips / 1e9),
                pct(r.loss),
                format!("{:.1}kJ", r.energy_kj),
                format!("{:.2}", r.nj_per_instruction),
                pct(r.throttled),
                format!("{:.0}", r.hlt_engagements),
                pct(r.scaled),
                format!("{:.2}GHz", r.mean_ghz),
                format!("{:.0}", r.dvfs_decisions),
                format!("{:.0}", r.sim_per_wall),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "(scaling trades clock for continuity: same budget, less lost throughput, \
             fewer joules per instruction)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_loses_less_than_hlt_at_the_same_budget() {
        let study = run(true);
        assert_eq!(study.rows.len(), 6);
        let hlt = study.row("hlt");
        let dvfs = study.row("dvfs (thermal-aware)");
        // Both mechanisms actually engaged.
        assert!(hlt.throttled > 0.05, "hlt never bit: {}", hlt.throttled);
        assert!(dvfs.scaled > 0.05, "DVFS never engaged: {}", dvfs.scaled);
        assert!(dvfs.mean_ghz < 2.2);
        // The acceptance shape: lower throughput loss and better
        // energy per instruction under DVFS.
        assert!(
            dvfs.loss < hlt.loss,
            "DVFS lost more than hlt: {} vs {}",
            dvfs.loss,
            hlt.loss
        );
        assert!(dvfs.nj_per_instruction < hlt.nj_per_instruction);
        // The backstop row: the governor engages before the throttle,
        // which therefore (almost) never fires.
        let backstop = study.row("dvfs + hlt backstop");
        assert!(
            backstop.throttled < 0.01,
            "hlt fired despite the governor: {}",
            backstop.throttled
        );
        assert!(
            backstop.hlt_engagements < hlt.hlt_engagements,
            "backstop engaged as often as bare hlt: {} vs {}",
            backstop.hlt_engagements,
            hlt.hlt_engagements
        );
        assert!(hlt.hlt_engagements >= 1.0, "hlt rows must engage");
        // Energy-aware balancing cannot conjure headroom when every
        // package is over budget, but it must not hurt either.
        let ea = study.row("hlt + energy-aware");
        assert!(ea.loss < hlt.loss + 0.02);
    }

    #[test]
    fn traced_run_exports_valid_perfetto_and_metrics() {
        use ebs_trace::{parse_json, Json};
        let traced = traced_run(true);
        assert!(traced.events > 0, "no events recorded");
        // 20 s at a 100 ms cadence: one snapshot per interval.
        assert!(
            traced.snapshots >= 190,
            "only {} snapshots",
            traced.snapshots
        );
        // The Perfetto document parses and carries the acceptance
        // tracks: task slices, thermal power, and frequency counters.
        let parsed = parse_json(&traced.perfetto_json).expect("valid JSON");
        let list = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let slices = list
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        assert!(slices > 10, "expected task slices, saw {slices}");
        let counter_has = |prefix: &str| {
            list.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("C")
                    && e.get("name")
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.starts_with(prefix))
            })
        };
        assert!(counter_has("thermal.power_w."), "no thermal power track");
        assert!(counter_has("dvfs.freq_ghz."), "no frequency track");
        // Slice labels carry catalog program names.
        assert!(traced.perfetto_json.contains("bitcnts"));
        // The metrics CSV has the registry header plus one line per
        // snapshot.
        let header = traced.metrics_csv.lines().next().expect("header");
        assert!(header.starts_with("time_s,"));
        assert!(header.contains("dvfs.decisions"));
        assert!(header.contains("sched.context_switches"));
        assert_eq!(
            traced.metrics_csv.lines().count(),
            traced.snapshots + 1,
            "one CSV line per snapshot"
        );
    }

    #[test]
    fn csv_has_one_line_per_variant() {
        let study = DvfsStudy {
            rows: vec![DvfsRow {
                name: "x",
                throughput_ips: 1e9,
                loss: 0.1,
                energy_kj: 2.0,
                nj_per_instruction: 3.0,
                throttled: 0.0,
                hlt_engagements: 0.0,
                scaled: 0.5,
                mean_ghz: 1.8,
                dvfs_decisions: 12.0,
                sim_per_wall: 250.0,
            }],
        };
        let csv = study.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().next().unwrap().contains("hlt_engagements"));
        assert!(csv.lines().next().unwrap().contains("dvfs_decisions"));
        assert_eq!(
            csv.lines().nth(1).unwrap(),
            "x,1.0000,0.1000,2.00,3.000,0.0000,0.0,0.5000,1.800,12.0,250.0"
        );
    }
}
