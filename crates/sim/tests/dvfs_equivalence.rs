//! Equivalence suite for event-driven DVFS governors.
//!
//! Governors re-decide when a signal leaves the hold band of their
//! last decision. The reference they are checked against is the dense
//! decision schedule, `max_hold == interval`: a forced decision every
//! interval on top of the triggers. Two layers:
//!
//! 1. **The reference is the cadence**: with a [`Fixed`] governor
//!    (whose [`DecisionHold`] never expires) only the `max_hold`
//!    deadlines remain, so the dense reference decides exactly once
//!    per domain per interval, on the same grid at a one-tick and at
//!    the default stride cap.
//! 2. **Tolerance for real triggers**: across topology presets ×
//!    governors × seeds, trigger-only runs must agree with the dense
//!    reference within the engine-core suite's tolerances — arrivals
//!    exactly (pure function of the clock), instructions/energy within
//!    3 %, temperature within 1.5 K, latency percentiles within
//!    15 %/25 % — while taking strictly fewer governor decisions.
//!
//! [`Fixed`]: GovernorKind::Fixed
//! [`DecisionHold`]: ebs_dvfs::DecisionHold

use ebs_dvfs::GovernorKind;
use ebs_sim::{
    rel_dev as rel, report_fingerprint as fingerprint, DvfsSpec, MaxPowerSpec, SimConfig,
    SimEngine, SimReport, Simulation,
};
use ebs_topology::TopologyPreset;
use ebs_trace::EventKind;
use ebs_units::{SimDuration, SimTime, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use proptest::prelude::*;

fn run(cfg: SimConfig, mix: usize, duration: SimDuration) -> SimReport {
    let mut sim = Simulation::new(cfg);
    if mix > 0 {
        sim.spawn_mix(&section61_mix(), mix);
    }
    sim.run_for(duration);
    sim.report()
}

/// `spec` under the dense reference schedule: a forced decision every
/// `interval`, on top of the triggers.
fn dense(spec: DvfsSpec) -> DvfsSpec {
    DvfsSpec {
        max_hold: Some(spec.interval),
        ..spec
    }
}

#[test]
fn dense_reference_decides_on_the_cadence_grid() {
    // Fixed(2) pins the clock below nominal so the DVFS subsystem is
    // actually exercised (scaled execution, residency accounting), and
    // its hold never expires — the only decision points left are the
    // max_hold deadlines. The first decision fires at the first step
    // end (one tick in); each one re-arms the next an interval later.
    let spec = dense(DvfsSpec {
        governor: GovernorKind::Fixed(2),
        ..DvfsSpec::default()
    });
    let interval = spec.interval;
    let duration = SimDuration::from_secs(3);
    let base = SimConfig::xseries445()
        .smt(false)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
        .seed(3)
        .dvfs(spec);
    let tick = base.tick;
    let grid: Vec<SimTime> = (0..)
        .map(|k| SimTime::ZERO + tick + interval * k)
        .take_while(|&t| t <= SimTime::ZERO + duration)
        .collect();
    for cfg in [base.clone(), base.strided()] {
        let strided = cfg.strided_enabled();
        let traced = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg.trace_events(true));
            sim.spawn_mix(&section61_mix(), 3);
            sim.run_for(duration);
            sim
        };
        let sim = traced(cfg.clone());
        let report = sim.report();
        let n_packages = cfg.n_packages();
        assert_eq!(
            report.dvfs_decisions,
            (grid.len() * n_packages) as u64,
            "decision count off the grid (strided = {strided})"
        );
        let events = sim.events().expect("tracing on").to_vec();
        for pkg in 0..n_packages as u32 {
            // Every decision re-picks the pinned state.
            let decision = EventKind::GovernorDecision {
                package: pkg,
                pstate: 2,
            };
            let instants: Vec<SimTime> = events
                .iter()
                .filter(|e| e.kind == decision)
                .map(|e| e.t)
                .collect();
            assert_eq!(
                instants, grid,
                "package {pkg} decided off the cadence grid (strided = {strided})"
            );
        }
        assert!(report.avg_scaled_fraction > 0.99, "Fixed(2) did not scale");
        // Reproducible per seed, state hash included.
        let again = traced(cfg);
        assert_eq!(fingerprint(&again.report()), fingerprint(&report));
        assert_eq!(
            again.state_hash(),
            sim.state_hash(),
            "state hash not reproducible (strided = {strided})"
        );
    }
}

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
    ][idx]
}

fn governor(idx: usize) -> GovernorKind {
    [
        GovernorKind::OnDemand,
        GovernorKind::ThermalAware,
        GovernorKind::Fixed(1),
    ][idx]
        .clone()
}

/// An open-workload cell under budget pressure, so both the
/// utilization-driven and the thermal governors actually move;
/// `reference` selects the dense decision schedule.
fn open_cfg(preset_idx: usize, governor_idx: usize, seed: u64, reference: bool) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::bitcnts(), catalog::memrw(), catalog::aluadd()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(4),
        floor: 0.3,
    })
    .service_work(200_000_000, 500_000_000);
    let spec = DvfsSpec {
        governor: governor(governor_idx),
        ..DvfsSpec::default()
    };
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .throttling(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
        .strided()
        .dvfs(if reference { dense(spec) } else { spec })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Event-driven vs the dense (cadence) reference across presets ×
    /// governors: identical arrival streams, headline metrics within
    /// the engine-core equivalence tolerances, fewer governor
    /// wake-ups.
    #[test]
    fn event_driven_matches_cadence_within_tolerance(
        preset_idx in 0usize..4,
        governor_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(4);
        let cadence = run(open_cfg(preset_idx, governor_idx, seed, true), 0, duration);
        let event = run(open_cfg(preset_idx, governor_idx, seed, false), 0, duration);

        prop_assert_eq!(cadence.arrivals, event.arrivals);
        prop_assert_eq!(cadence.duration, event.duration);
        prop_assert!(
            rel(cadence.instructions_retired as f64, event.instructions_retired as f64) < 0.03,
            "instructions: {} vs {}", cadence.instructions_retired, event.instructions_retired
        );
        prop_assert!(
            rel(cadence.true_energy.0, event.true_energy.0) < 0.03,
            "energy: {:?} vs {:?}", cadence.true_energy, event.true_energy
        );
        prop_assert!(
            (cadence.max_package_temp.0 - event.max_package_temp.0).abs() < 1.5,
            "max temp: {:?} vs {:?}", cadence.max_package_temp, event.max_package_temp
        );
        prop_assert!(
            cadence.completions.abs_diff(event.completions) <= 3,
            "completions: {} vs {}", cadence.completions, event.completions
        );
        if cadence.latency.count > 20 && event.latency.count > 20 {
            prop_assert!(
                rel(cadence.latency.p50_s, event.latency.p50_s) < 0.15,
                "p50: {} vs {}", cadence.latency.p50_s, event.latency.p50_s
            );
            prop_assert!(
                rel(cadence.latency.p95_s, event.latency.p95_s) < 0.25,
                "p95: {} vs {}", cadence.latency.p95_s, event.latency.p95_s
            );
        }
        // The whole point: triggers fire less often than the cadence.
        prop_assert!(
            event.dvfs_decisions < cadence.dvfs_decisions,
            "no decision savings: {} vs {}", event.dvfs_decisions, cadence.dvfs_decisions
        );
        // And no NaN ever leaks into the frequency accounting (the
        // zero-width-window regression, observed end to end).
        prop_assert!(event.mean_frequency.0.is_finite());
        let fractions: f64 = event.pstate_residency.iter().map(|r| r.fraction).sum();
        prop_assert!((fractions - 1.0).abs() < 1e-9, "residency fractions {fractions}");
    }

    /// Event-driven runs stay deterministic per seed.
    #[test]
    fn event_driven_runs_are_deterministic(
        preset_idx in 0usize..4,
        governor_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(3);
        let a = run(open_cfg(preset_idx, governor_idx, seed, false), 0, duration);
        let b = run(open_cfg(preset_idx, governor_idx, seed, false), 0, duration);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
