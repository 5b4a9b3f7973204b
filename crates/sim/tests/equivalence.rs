//! Equivalence suite for variable strides.
//!
//! Every step runs the same `step_span`; the stride cap only decides
//! how far one step may reach. A cap at or below the tick (the default)
//! is the fixed-tick reference — the same code path, so there is no
//! second engine to compare bit for bit. What needs checking is the
//! **tolerance at the default cap**: with real strides the headline
//! metrics — energy, temperature, throughput, latency percentiles —
//! must agree with the one-tick reference within tight bounds, across
//! topology presets and load curves, and stay deterministic per seed.

use ebs_dvfs::GovernorKind;
use ebs_sim::{
    rel_dev as rel, report_fingerprint as fingerprint, MaxPowerSpec, SimConfig, SimEngine,
    SimReport, Simulation,
};
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use proptest::prelude::*;

/// Runs an open-workload `cfg` for `duration`.
fn run(cfg: SimConfig, duration: SimDuration) -> SimReport {
    let mut sim = Simulation::new(cfg);
    sim.run_for(duration);
    sim.report()
}

#[test]
fn throttle_duty_cycle_survives_strides() {
    // Bang-bang `hlt` enforcement is the part a naive strided engine
    // breaks: flips must not drift by more than the tick they are
    // resolved at. bitcnts under a 40 W package budget throttles
    // heavily; the duty cycle must match the fixed-tick core.
    let cfg = || {
        SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
            .seed(5)
    };
    let duration = SimDuration::from_secs(40);
    let run_one = |cfg: SimConfig| {
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(duration);
        sim.report()
    };
    let fixed = run_one(cfg());
    let strided = run_one(cfg().strided());
    // Only the package running bitcnts throttles; compare that one.
    let hot = |r: &SimReport| r.throttled_fraction.iter().cloned().fold(0.0_f64, f64::max);
    assert!(
        hot(&fixed) > 0.15,
        "scenario must actually throttle: {}",
        hot(&fixed)
    );
    let d = (hot(&fixed) - hot(&strided)).abs();
    assert!(
        d < 0.03,
        "duty cycle drifted: fixed {} vs strided {}",
        hot(&fixed),
        hot(&strided)
    );
    let engagements = |r: &SimReport| r.throttle_stats.iter().map(|s| s.engagements).sum::<u64>();
    assert!(
        engagements(&strided) > 0,
        "strided core never engaged the throttle"
    );
    let rel_energy = (fixed.true_energy.0 - strided.true_energy.0).abs() / fixed.true_energy.0;
    assert!(rel_energy < 0.02, "energy drifted {rel_energy}");
}

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
    ][idx]
}

fn curve(idx: usize) -> LoadCurve {
    [
        LoadCurve::Constant,
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(4),
            floor: 0.3,
        },
        LoadCurve::Burst {
            period: SimDuration::from_secs(3),
            duty: 0.25,
            high: 2.0,
        },
        LoadCurve::Step {
            at: SimDuration::from_secs(2),
            before: 0.4,
            after: 1.0,
        },
    ][idx]
}

fn open_cfg(preset_idx: usize, curve_idx: usize, seed: u64) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::aluadd(), catalog::memrw(), catalog::pushpop()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(curve(curve_idx))
    .service_work(200_000_000, 500_000_000);
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strided vs fixed-tick on open workloads across machine shapes
    /// and load curves: identical arrival streams, and headline
    /// metrics within tight tolerance.
    #[test]
    fn strided_matches_fixed_within_tolerance(
        preset_idx in 0usize..4,
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(4);
        let fixed = run(open_cfg(preset_idx, curve_idx, seed), duration);
        let strided = run(open_cfg(preset_idx, curve_idx, seed).strided(), duration);

        // The thinned arrival stream is a pure function of the seed
        // and the clock, so it is *exactly* preserved.
        prop_assert_eq!(fixed.arrivals, strided.arrivals);
        prop_assert_eq!(fixed.duration, strided.duration);
        // Work, energy, and heat agree tightly.
        prop_assert!(
            rel(fixed.instructions_retired as f64, strided.instructions_retired as f64) < 0.03,
            "instructions: {} vs {}", fixed.instructions_retired, strided.instructions_retired
        );
        prop_assert!(
            rel(fixed.true_energy.0, strided.true_energy.0) < 0.03,
            "energy: {:?} vs {:?}", fixed.true_energy, strided.true_energy
        );
        prop_assert!(
            rel(fixed.estimated_energy.0, strided.estimated_energy.0) < 0.03,
            "estimated energy: {:?} vs {:?}", fixed.estimated_energy, strided.estimated_energy
        );
        prop_assert!(
            (fixed.max_package_temp.0 - strided.max_package_temp.0).abs() < 1.5,
            "max temp: {:?} vs {:?}", fixed.max_package_temp, strided.max_package_temp
        );
        // Completions may differ by tasks in flight at the horizon.
        prop_assert!(
            fixed.completions.abs_diff(strided.completions) <= 3,
            "completions: {} vs {}", fixed.completions, strided.completions
        );
        // Latency percentiles (milliseconds scale) stay close.
        if fixed.latency.count > 20 && strided.latency.count > 20 {
            prop_assert!(
                rel(fixed.latency.p50_s, strided.latency.p50_s) < 0.15,
                "p50: {} vs {}", fixed.latency.p50_s, strided.latency.p50_s
            );
            prop_assert!(
                rel(fixed.latency.p95_s, strided.latency.p95_s) < 0.25,
                "p95: {} vs {}", fixed.latency.p95_s, strided.latency.p95_s
            );
        }
    }

    /// The strided core is deterministic: same seed, same report.
    #[test]
    fn strided_runs_are_deterministic(
        preset_idx in 0usize..4,
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(3);
        let hashed_run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            sim.run_for(duration);
            (sim.report(), sim.state_hash())
        };
        let (a, ha) = hashed_run(open_cfg(preset_idx, curve_idx, seed).strided());
        let (b, hb) = hashed_run(open_cfg(preset_idx, curve_idx, seed).strided());
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert!(a.bit_eq(&b), "reports not bit-equal");
        prop_assert_eq!(ha, hb, "state hashes diverged");
    }
}

/// Homogeneous bit-identity regression for the heterogeneous-hardware
/// refactor: on every single-class preset, switching the policy layer
/// `class_blind` is a byte-level no-op on both engine cores, because
/// with one class there are no capacities to ignore.
#[test]
fn homogeneous_presets_are_unchanged_by_the_class_refactor() {
    use ebs_sim::ParallelSimulation;
    for preset in TopologyPreset::all() {
        let base = SimConfig::preset(preset)
            .seed(13)
            .respawn(false)
            .dvfs_governor(GovernorKind::OnDemand);
        assert!(
            !base.is_hybrid(),
            "{} should be single-class",
            preset.name()
        );
        let strided_run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg.strided());
            sim.spawn_mix(&section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(2));
            (fingerprint(&sim.report()), sim.state_hash())
        };
        let parallel_run = |cfg: SimConfig| {
            let mut sim = ParallelSimulation::new(cfg.parallel(2));
            sim.spawn_mix(&section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(2));
            (fingerprint(&sim.report()), sim.state_hash())
        };
        for run in [strided_run, parallel_run] {
            let default = run(base.clone());
            let blind = run(base.clone().class_blind(true));
            assert_eq!(
                default,
                blind,
                "{}: class_blind changed a homogeneous run",
                preset.name()
            );
        }
    }
}
