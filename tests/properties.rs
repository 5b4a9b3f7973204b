//! Property-based integration tests: invariants that must hold for
//! *any* workload mix, machine shape, and seed.

use ebs::core::{runqueue_power, PowerState, PowerStateConfig};
use ebs::sched::{MigrationReason, System, TaskConfig};
use ebs::sim::{SimConfig, Simulation};
use ebs::thermal::{RcThermalModel, ThermalNode};
use ebs::topology::{CpuId, Topology};
use ebs::units::{SimDuration, Watts};
use ebs::workloads::{catalog, Program};
use proptest::prelude::*;

fn any_program(idx: usize) -> Program {
    let programs = [
        catalog::bitcnts(),
        catalog::memrw(),
        catalog::aluadd(),
        catalog::pushpop(),
        catalog::openssl(),
        catalog::bzip2(),
        catalog::bash(),
        catalog::grep(),
        catalog::sshd(),
    ];
    programs[idx % programs.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mix on any machine shape: scheduler invariants hold, every
    /// spawned-and-unfinished task is somewhere, counters only grow.
    #[test]
    fn simulation_preserves_task_accounting(
        seed in 0u64..1_000,
        smt in any::<bool>(),
        programs in prop::collection::vec(0usize..9, 1..12),
    ) {
        let cfg = SimConfig::xseries445().smt(smt).energy_aware(true).seed(seed);
        let mut sim = Simulation::new(cfg);
        for idx in &programs {
            sim.spawn_program(&any_program(*idx));
        }
        sim.run_for(SimDuration::from_secs(3));
        sim.system().validate();
        let report = sim.report();
        // With respawn on, the live population equals the spawn count
        // (runnable + running + blocked).
        let on_queues: usize = sim
            .system()
            .topology()
            .cpu_ids()
            .map(|c| sim.system().nr_running(c))
            .sum();
        prop_assert!(on_queues <= programs.len());
        prop_assert!(report.instructions_retired > 0);
        for f in &report.throttled_fraction {
            prop_assert!((0.0..=1.0).contains(f));
        }
    }

    /// Migrations never teleport a task outside the machine and the
    /// migration counters are consistent.
    #[test]
    fn migration_accounting_is_consistent(
        seed in 0u64..1_000,
        n_tasks in 1usize..10,
    ) {
        let cfg = SimConfig::xseries445().smt(false).energy_aware(true).seed(seed);
        let mut sim = Simulation::new(cfg);
        for i in 0..n_tasks {
            sim.spawn_program(&any_program(i));
        }
        sim.run_for(SimDuration::from_secs(5));
        let by_reason: u64 = sim.report().migrations_by_reason.iter().sum();
        prop_assert_eq!(by_reason, sim.report().migrations);
        for (_, task) in sim.system().task_table().iter() {
            prop_assert!(task.cpu().0 < sim.system().topology().n_cpus());
        }
    }

    /// Runqueue power is always inside the span of its tasks' profiles
    /// (it is an average), for arbitrary profile assignments.
    #[test]
    fn runqueue_power_is_a_mean(
        profiles in prop::collection::vec(5.0f64..100.0, 1..8),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        for &p in &profiles {
            sys.spawn(
                TaskConfig { initial_profile: Watts(p), ..TaskConfig::default() },
                CpuId(0),
            );
        }
        let power = runqueue_power(&sys, CpuId(0), Watts(13.6));
        let lo = profiles.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = profiles.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(power.0 >= lo - 1e-9 && power.0 <= hi + 1e-9);
    }

    /// The RC model never overshoots: for any constant power, the
    /// temperature stays between the initial value and steady state.
    #[test]
    fn rc_model_never_overshoots(
        power in 0.0f64..150.0,
        steps in 1usize..500,
        step_ms in 1u64..5_000,
    ) {
        let model = RcThermalModel::reference();
        let mut node = ThermalNode::new(model);
        let t0 = node.temperature();
        let t_inf = model.steady_state(Watts(power));
        for _ in 0..steps {
            let t = node.step(Watts(power), SimDuration::from_millis(step_ms));
            let lo = t0.min(t_inf).0 - 1e-9;
            let hi = t0.max(t_inf).0 + 1e-9;
            prop_assert!(t.0 >= lo && t.0 <= hi, "t = {t:?} outside [{lo}, {hi}]");
        }
    }

    /// Variable-period averaging is consistent: chopping an interval
    /// into arbitrary pieces with a constant sample gives the same
    /// result as one update over the whole interval.
    #[test]
    fn expavg_period_composition(
        pieces in prop::collection::vec(1u64..400, 1..10),
        sample in 0.0f64..100.0,
        initial in 0.0f64..100.0,
    ) {
        use ebs::thermal::ExpAverage;
        let std_period = SimDuration::from_millis(100);
        let total: u64 = pieces.iter().sum();
        let mut whole = ExpAverage::new(initial, std_period, 0.3);
        whole.update(sample, SimDuration::from_millis(total));
        let mut split = ExpAverage::new(initial, std_period, 0.3);
        for &ms in &pieces {
            split.update(sample, SimDuration::from_millis(ms));
        }
        prop_assert!(
            (whole.value() - split.value()).abs() < 1e-6,
            "{} vs {}", whole.value(), split.value()
        );
    }

    /// `migrate_queued` either succeeds and moves exactly one task, or
    /// fails and changes nothing.
    #[test]
    fn migration_is_atomic(
        src in 0usize..8,
        dst in 0usize..8,
        n_tasks in 0usize..4,
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        let ids: Vec<_> = (0..n_tasks)
            .map(|_| sys.spawn(TaskConfig::default(), CpuId(src)))
            .collect();
        let before: Vec<usize> = (0..8).map(|c| sys.nr_running(CpuId(c))).collect();
        if let Some(&id) = ids.first() {
            let result = sys.migrate_queued(id, CpuId(dst), MigrationReason::LoadBalance);
            let after: Vec<usize> = (0..8).map(|c| sys.nr_running(CpuId(c))).collect();
            if result.is_ok() {
                prop_assert_eq!(after[dst], before[dst] + 1);
                prop_assert_eq!(after[src], before[src] - 1);
            } else {
                prop_assert_eq!(before, after);
            }
            sys.validate();
        }
    }

    /// Thermal ratios are scale-free: doubling both the thermal power
    /// and the budget leaves every ratio unchanged.
    #[test]
    fn power_ratios_are_scale_free(
        power_w in 1.0f64..100.0,
        budget_w in 1.0f64..100.0,
        scale in 0.1f64..10.0,
    ) {
        let mk = |p: f64, b: f64| {
            let mut ps = PowerState::uniform(1, Watts(b), PowerStateConfig::default());
            for _ in 0..5_000 {
                ps.observe(CpuId(0), Watts(p), SimDuration::from_millis(100));
            }
            ps.thermal_ratio(CpuId(0))
        };
        let base = mk(power_w, budget_w);
        let scaled = mk(power_w * scale, budget_w * scale);
        // The initial idle power differs in relative weight, so allow
        // a small tolerance after convergence.
        prop_assert!((base - scaled).abs() < 0.02, "{base} vs {scaled}");
    }
}
