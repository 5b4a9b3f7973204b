//! Cross-crate integration tests: the paper's qualitative results,
//! asserted end-to-end through the facade crate.

use ebs::sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs::topology::{CpuId, Topology};
use ebs::units::{Celsius, SimDuration, SimTime, Watts};
use ebs::workloads::{catalog, section61_mix};

/// Section 6.1 / Figures 6-7: energy balancing collapses the thermal
/// band of a mixed workload.
#[test]
fn energy_balancing_collapses_thermal_band() {
    let run = |on: bool| {
        let cfg = SimConfig::xseries445()
            .smt(false)
            .energy_aware(on)
            .throttling(false)
            .max_power(MaxPowerSpec::PerLogical(Watts(60.0)))
            .metrics_every(SimDuration::from_secs(1))
            .seed(99);
        let mut sim = Simulation::new(cfg);
        sim.spawn_mix(&section61_mix(), 3);
        sim.run_for(SimDuration::from_secs(500));
        sim.thermal_trace()
            .max_spread(SimTime::from_secs(300))
            .unwrap()
    };
    let spread_off = run(false);
    let spread_on = run(true);
    assert!(
        spread_on.0 < spread_off.0 * 0.7,
        "balancing did not narrow the band: {spread_on:?} vs {spread_off:?}"
    );
}

/// Section 6.2 / Table 3: under a temperature limit, energy-aware
/// scheduling reduces throttling and increases throughput.
#[test]
fn throttle_reduction_increases_throughput() {
    let run = |on: bool| {
        let cfg = SimConfig::xseries445()
            .smt(true)
            .energy_aware(on)
            .throttling(true)
            .cooling_factors(vec![1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66])
            .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
            .seed(7);
        let mut sim = Simulation::new(cfg);
        sim.spawn_mix(&section61_mix(), 6);
        sim.run_for(SimDuration::from_secs(300));
        sim.report()
    };
    let off = run(false);
    let on = run(true);
    assert!(on.avg_throttled_fraction < off.avg_throttled_fraction);
    assert!(on.throughput_ips > off.throughput_ips);
}

/// Section 6.4 / Figure 9: a lone hot task escapes throttling by
/// migration, never via the SMT sibling, never across the node.
#[test]
fn hot_task_roams_legally() {
    let cfg = SimConfig::xseries445()
        .smt(true)
        .energy_aware(true)
        .throttling(true)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
        .trace_events(true)
        .seed(13);
    let mut sim = Simulation::new(cfg);
    let id = sim.spawn_program(&catalog::bitcnts());
    sim.run_for(SimDuration::from_secs(120));
    let visits = sim.task_visits(id);
    assert!(visits.len() >= 5, "too few hops: {visits:?}");
    let topo = Topology::xseries445(true);
    for pair in visits.windows(2) {
        assert!(
            !topo.same_package(pair[0].1, pair[1].1),
            "hopped to the sibling: {pair:?}"
        );
        assert!(
            topo.same_node(pair[0].1, pair[1].1),
            "crossed the node boundary: {pair:?}"
        );
    }
    assert!(sim.report().avg_throttled_fraction < 0.02);
}

/// Section 3.3 / Table 2: online estimation converges task profiles to
/// their programs' power levels within the estimation error bound.
#[test]
fn profiles_match_ground_truth_within_ten_percent() {
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(false)
        .throttling(false)
        .seed(3);
    let mut sim = Simulation::new(cfg);
    let expectations = [
        (sim.spawn_program(&catalog::bitcnts()), 61.0),
        (sim.spawn_program(&catalog::memrw()), 38.0),
        (sim.spawn_program(&catalog::aluadd()), 50.0),
        (sim.spawn_program(&catalog::pushpop()), 47.0),
    ];
    sim.run_for(SimDuration::from_secs(20));
    for (id, expected) in expectations {
        let p = sim.system().task(id).profile();
        let err = (p.0 - expected).abs() / expected;
        assert!(err < 0.10, "task {id:?}: profile {p:?} vs {expected} W");
    }
}

/// The scheduler invariants hold through a long mixed run with
/// migrations, blocking, completions, and respawns.
#[test]
fn scheduler_invariants_hold_under_churn() {
    let cfg = SimConfig::xseries445()
        .smt(true)
        .energy_aware(true)
        .seed(21);
    let mut sim = Simulation::new(cfg);
    // A churny workload: interactive + short tasks + hot hogs.
    sim.spawn_mix(&[catalog::bash(), catalog::sshd()], 4);
    let short = catalog::aluadd().with_total_work(1_000_000_000);
    sim.spawn_mix(&[short], 6);
    sim.spawn_mix(&[catalog::bitcnts()], 2);
    for _ in 0..40 {
        sim.run_for(SimDuration::from_millis(500));
        sim.system().validate();
    }
    let report = sim.report();
    assert!(report.completions > 10, "short tasks kept completing");
    assert!(report.instructions_retired > 0);
}

/// Whole-stack determinism: identical configs produce identical traces.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let cfg = SimConfig::xseries445()
            .smt(true)
            .energy_aware(true)
            .metrics_every(SimDuration::from_secs(1))
            .seed(12345);
        let mut sim = Simulation::new(cfg);
        sim.spawn_mix(&section61_mix(), 2);
        sim.run_for(SimDuration::from_secs(60));
        (
            sim.report().instructions_retired,
            sim.report().migrations,
            sim.thermal_trace().to_csv(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// The public facade exposes every layer: a user can reach topology,
/// counters, thermal, sched, core, workloads, and sim types.
#[test]
fn facade_exposes_all_layers() {
    let topo = ebs::topology::Topology::xseries445(false);
    assert_eq!(topo.n_cpus(), 8);
    let model = ebs::counters::EnergyModel::ground_truth_weights();
    let rates = ebs::counters::EventRates::builder()
        .uops_retired(1.0)
        .build();
    assert!(model.power_for_rates(&rates, 2.2e9).0 > 0.0);
    let rc = ebs::thermal::RcThermalModel::reference();
    assert!(rc.max_power_for_limit(ebs::units::Celsius(38.0)).0 > 0.0);
    let sys = ebs::sched::System::new(topo);
    assert_eq!(sys.n_tasks(), 0);
    let _ = ebs::core::PlacementTable::new(Watts(30.0));
    assert_eq!(ebs::workloads::section61_mix().len(), 6);
    let _ = CpuId(0);
}
