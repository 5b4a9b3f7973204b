//! Behavioural integration tests of the simulated machine: SMT
//! contention, estimation accuracy, physics consistency, and DVFS
//! enforcement.

use ebs_dvfs::GovernorKind;
use ebs_sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs_units::{SimDuration, SimTime, Watts};
use ebs_workloads::{catalog, section61_mix};

/// Two tasks forced onto one package's hardware threads progress
/// slower per task (but faster combined) than one task alone: the SMT
/// contention model.
#[test]
fn smt_siblings_share_the_pipeline() {
    let single_pkg = |n_tasks: usize| {
        let mut cfg = SimConfig::xseries445()
            .smt(true)
            .energy_aware(false)
            .throttling(false)
            .seed(1);
        cfg.n_nodes = 1;
        cfg.packages_per_node = 1; // One package, two hardware threads.
        let mut sim = Simulation::new(cfg);
        for _ in 0..n_tasks {
            sim.spawn_program(&catalog::aluadd());
        }
        sim.run_for(SimDuration::from_secs(10));
        sim.report().instructions_retired as f64
    };
    let solo = single_pkg(1);
    let pair = single_pkg(2);
    // Combined throughput improves, but by the SMT factor (~1.25), not
    // by 2x.
    assert!(pair > solo * 1.1, "no SMT benefit: {pair} vs {solo}");
    assert!(pair < solo * 1.45, "SMT speedup too high: {pair} vs {solo}");
}

/// Counter-based estimation tracks ground-truth energy within the
/// paper's 10 % bound, end to end, for a mixed workload with
/// migrations, throttling, and idling.
#[test]
fn end_to_end_estimation_error_is_small() {
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(true)
        .throttling(false)
        .seed(9);
    let mut sim = Simulation::new(cfg);
    sim.spawn_mix(&section61_mix(), 2);
    sim.run_for(SimDuration::from_secs(60));
    let report = sim.report();
    assert!(report.true_energy.0 > 0.0);
    assert!(
        report.estimation_error() < 0.10,
        "estimation error {:.3}",
        report.estimation_error()
    );
    // With the ground-truth model the only gap is the
    // counter-invisible leakage (a few percent, always an
    // underestimate).
    let mut sim = Simulation::new(
        SimConfig::xseries445()
            .smt(false)
            .energy_aware(true)
            .throttling(false)
            .perfect_estimation(true)
            .seed(9),
    );
    sim.spawn_mix(&section61_mix(), 2);
    sim.run_for(SimDuration::from_secs(60));
    let perfect = sim.report();
    assert!(perfect.estimated_energy <= perfect.true_energy);
    assert!(perfect.estimation_error() < 0.06);
}

/// An idle machine dissipates exactly the halt power.
#[test]
fn idle_machine_burns_halt_power() {
    let cfg = SimConfig::xseries445().smt(true).seed(1);
    let mut sim = Simulation::new(cfg);
    let dur = SimDuration::from_secs(10);
    sim.run_for(dur);
    let report = sim.report();
    // 8 packages at 13.6 W for 10 s = 1088 J, plus the small leakage
    // of the dies warming a few kelvin above ambient (at the halted
    // steady state of ~26.6 degC that is ~0.7 W per package).
    let floor = 8.0 * 13.6 * 10.0;
    let ceiling = floor + 8.0 * 0.8 * 10.0;
    assert!(
        report.true_energy.0 >= floor && report.true_energy.0 <= ceiling,
        "true energy {:?} outside [{floor}, {ceiling}] J",
        report.true_energy
    );
}

/// Throttling caps the thermal power near the budget: the bang-bang
/// controller holds the package at its limit, not far above it.
#[test]
fn throttle_holds_the_package_at_its_budget() {
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(false) // No escape: the task must throttle.
        .throttling(true)
        .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
        .metrics_every(SimDuration::from_secs(1))
        .seed(2);
    let mut sim = Simulation::new(cfg);
    sim.spawn_program(&catalog::bitcnts());
    sim.run_for(SimDuration::from_secs(120));
    // After convergence the hottest CPU's thermal power hovers at the
    // 40 W limit (within the bang-bang ripple).
    let (_, hi) = sim
        .thermal_trace()
        .band(ebs_units::SimTime::from_secs(60))
        .unwrap();
    assert!(hi.0 < 43.0, "thermal power escaped the limit: {hi:?}");
    assert!(hi.0 > 36.0, "throttle overshot far below the limit: {hi:?}");
    let frac = sim.report().avg_throttled_fraction;
    assert!(frac > 0.02, "never throttled");
}

/// A DVFS-enforced run never exceeds the package power budget: the
/// ThermalAware governor engages below the limit, so the thermal power
/// of every CPU stays under 40 W with `hlt` throttling switched off
/// entirely.
#[test]
fn dvfs_enforcement_never_exceeds_the_budget() {
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(false)
        .throttling(false) // No hlt backstop: DVFS enforces alone.
        .dvfs_governor(GovernorKind::ThermalAware)
        .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
        .metrics_every(SimDuration::from_secs(1))
        .seed(8);
    let mut sim = Simulation::new(cfg);
    // Hot tasks on every package: each wants ~61 W against 40 W.
    for _ in 0..8 {
        sim.spawn_program(&catalog::bitcnts());
    }
    sim.run_for(SimDuration::from_secs(120));
    let (_, hi) = sim
        .thermal_trace()
        .band(SimTime::from_secs(30))
        .expect("trace has samples");
    assert!(
        hi < Watts(40.0),
        "thermal power escaped the budget under DVFS: {hi:?}"
    );
    let report = sim.report();
    assert_eq!(report.avg_throttled_fraction, 0.0, "hlt was off");
    assert!(report.avg_scaled_fraction > 0.5, "DVFS barely engaged");
    // Work still progresses at the scaled clock.
    assert!(report.instructions_retired > 0);
}

/// DVFS and hlt throttling enforce the same budget, but scaling wastes
/// less: at an equal package power budget the ThermalAware governor
/// loses less throughput than the bang-bang hlt controller, and spends
/// less energy per instruction (V² drops where hlt's does not).
#[test]
fn dvfs_beats_hlt_at_the_same_budget() {
    let base = || {
        SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
            .seed(31)
    };
    let run = |cfg: SimConfig| {
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_secs(180));
        sim.report()
    };
    let unconstrained = run(base().throttling(false));
    let hlt = run(base().throttling(true));
    let dvfs = run(base()
        .throttling(false)
        .dvfs_governor(GovernorKind::ThermalAware));
    let hlt_loss = hlt.throughput_loss_vs(&unconstrained);
    let dvfs_loss = dvfs.throughput_loss_vs(&unconstrained);
    assert!(hlt_loss > 0.2, "hlt never bit: loss {hlt_loss}");
    assert!(
        dvfs_loss < hlt_loss,
        "DVFS lost more throughput than hlt: {dvfs_loss} vs {hlt_loss}"
    );
    assert!(
        dvfs.nj_per_instruction() < hlt.nj_per_instruction(),
        "DVFS spent more energy per instruction: {} vs {}",
        dvfs.nj_per_instruction(),
        hlt.nj_per_instruction()
    );
}

/// Paper Section 4.2: "The error resulting from estimating energy and
/// then estimating temperature based on the energy estimate is smaller
/// than one Kelvin for real-world applications." Thermal power mapped
/// through the RC model must track the true die temperature that
/// closely once the averages have settled.
#[test]
fn estimated_temperature_tracks_truth_within_one_kelvin() {
    use ebs_thermal::RcThermalModel;
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(false)
        .throttling(false)
        .seed(3);
    let mut sim = Simulation::new(cfg);
    let id = sim.spawn_program(&catalog::bitcnts());
    let model = RcThermalModel::reference();
    let mut worst = 0.0_f64;
    for step in 0..40 {
        sim.run_for(SimDuration::from_secs(5));
        if step < 4 {
            continue; // The averages need ~20 s to settle.
        }
        let cpu = sim.system().task(id).cpu();
        let pkg = sim.system().topology().package_of(cpu);
        let predicted = model.temp_for_power(sim.power_state().thermal_power(cpu));
        let truth = sim.machine().package_temp(pkg);
        worst = worst.max(predicted.delta(truth).abs());
    }
    assert!(worst < 1.0, "temperature estimate off by {worst:.2} K");
}

/// Migration costs show up in throughput: the same workload with
/// artificially enormous warm-up penalties retires fewer instructions.
/// The runs are loaded 8-CPU energy-aware ones with real migration
/// traffic, so each also checks the scheduler's invariants — runqueues
/// and every unit of the aggregate tree recomputed from scratch.
#[test]
fn cache_warmth_penalty_is_observable() {
    let run = |floor: f64, ramp: u64| {
        let mut cfg = SimConfig::xseries445()
            .smt(false)
            .energy_aware(true)
            .throttling(false)
            .seed(6);
        cfg.warmup_ipc_floor = floor;
        cfg.warmup_instructions = ramp;
        cfg.warmup_ipc_floor_cross_node = floor * 0.8;
        cfg.warmup_instructions_cross_node = ramp * 2;
        let mut sim = Simulation::new(cfg);
        sim.spawn_mix(&section61_mix(), 3);
        sim.run_for(SimDuration::from_secs(60));
        sim.system().validate();
        let report = sim.report();
        assert!(report.migrations > 0, "no migration traffic");
        report.instructions_retired
    };
    let realistic = run(0.55, 40_000_000);
    let brutal = run(0.05, 4_000_000_000);
    assert!(
        brutal < realistic,
        "huge warmup penalty had no effect: {brutal} vs {realistic}"
    );
    // The realistic penalty is small: Section 6.5's argument.
    let none = run(1.0, 1);
    let loss = 1.0 - realistic as f64 / none as f64;
    assert!(loss < 0.03, "realistic warmup lost {loss:.3} of throughput");
}

/// Disabled SMT halves the logical CPU count but each thread gets the
/// full pipeline: 8 solo tasks retire more with SMT off than 8 tasks
/// spread as siblings pairs would.
#[test]
fn smt_off_gives_full_pipeline_per_task() {
    let run = |smt: bool| {
        let cfg = SimConfig::xseries445()
            .smt(smt)
            .energy_aware(false)
            .throttling(false)
            .seed(4);
        let mut sim = Simulation::new(cfg);
        for _ in 0..8 {
            sim.spawn_program(&catalog::pushpop());
        }
        sim.run_for(SimDuration::from_secs(20));
        sim.report().instructions_retired
    };
    let smt_off = run(false);
    let smt_on = run(true);
    // 8 tasks on 8 packages: with SMT off each runs solo; with SMT on
    // the idlest-CPU placement also spreads them one per package, so
    // throughput should be equal (no contention either way).
    let ratio = smt_on as f64 / smt_off as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "8 tasks on 8 packages should not contend: ratio {ratio}"
    );
}
