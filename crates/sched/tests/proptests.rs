//! Property-based tests: scheduler invariants under arbitrary
//! operation sequences.

use ebs_sched::{LoadBalancer, LoadBalancerConfig, MigrationReason, System, TaskConfig, TaskState};
use ebs_topology::{CpuId, Topology};
use ebs_units::{SimDuration, SimTime, Watts};
use proptest::prelude::*;

/// An abstract scheduler operation for random-sequence testing.
#[derive(Clone, Debug)]
enum Op {
    Spawn(usize),
    Tick(usize, u64),
    Switch(usize),
    Block(usize),
    WakeOldest,
    MigrateQueued(usize, usize),
    MigrateRunning(usize, usize),
    Exit(usize),
    /// Fold a power sample into the running task's profile (the
    /// runqueue-power-relevant mutation the aggregate tree must track).
    ProfileUpdate(usize, u64),
}

fn op_strategy(n_cpus: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_cpus).prop_map(Op::Spawn),
        ((0..n_cpus), 1u64..150).prop_map(|(c, ms)| Op::Tick(c, ms)),
        (0..n_cpus).prop_map(Op::Switch),
        (0..n_cpus).prop_map(Op::Block),
        Just(Op::WakeOldest),
        ((0..n_cpus), (0..n_cpus)).prop_map(|(a, b)| Op::MigrateQueued(a, b)),
        ((0..n_cpus), (0..n_cpus)).prop_map(|(a, b)| Op::MigrateRunning(a, b)),
        (0..n_cpus).prop_map(Op::Exit),
        ((0..n_cpus), 10u64..90).prop_map(|(c, w)| Op::ProfileUpdate(c, w)),
    ]
}

/// Applies one op to the system, mirroring how engines drive it.
fn apply_op(sys: &mut System, blocked: &mut Vec<ebs_sched::TaskId>, op: Op) {
    match op {
        Op::Spawn(c) => {
            sys.spawn(TaskConfig::default(), CpuId(c));
        }
        Op::Tick(c, ms) => {
            sys.tick(CpuId(c), SimDuration::from_millis(ms));
        }
        Op::Switch(c) => {
            sys.context_switch(CpuId(c));
        }
        Op::Block(c) => {
            if let Some(id) = sys.block_current(CpuId(c)) {
                blocked.push(id);
            }
        }
        Op::WakeOldest => {
            if !blocked.is_empty() {
                let id = blocked.remove(0);
                sys.wake(id, None);
            }
        }
        Op::MigrateQueued(a, b) => {
            let candidate = sys.rq(CpuId(a)).iter_migration_candidates().next();
            if let Some(id) = candidate {
                let _ = sys.migrate_queued(id, CpuId(b), MigrationReason::LoadBalance);
            }
        }
        Op::MigrateRunning(a, b) => {
            let _ = sys.migrate_running(CpuId(a), CpuId(b), MigrationReason::HotTask);
        }
        Op::Exit(c) => {
            sys.exit_current(CpuId(c));
        }
        Op::ProfileUpdate(c, w) => {
            if let Some(id) = sys.current(CpuId(c)) {
                sys.update_profile(id, Watts(w as f64), SimDuration::from_millis(100));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of scheduler operations preserves the system
    /// invariants (each live task on exactly one queue, states
    /// consistent, no task lost or duplicated).
    #[test]
    fn invariants_hold_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(8), 1..120),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        let mut blocked: Vec<ebs_sched::TaskId> = Vec::new();
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            sys.set_now(SimTime::from_millis(clock));
            apply_op(&mut sys, &mut blocked, op);
            sys.validate();
        }
        // Final consistency: every task is in exactly the state the
        // bookkeeping says.
        let mut live = 0;
        for (id, task) in sys.task_table().iter() {
            match task.state() {
                TaskState::Runnable | TaskState::Running => live += 1,
                TaskState::Blocked => prop_assert!(blocked.contains(&id)),
            }
        }
        let queued: usize = (0..8).map(|c| sys.nr_running(CpuId(c))).sum();
        prop_assert_eq!(live, queued);
    }

    /// From any initial distribution, repeated balancing converges to
    /// queue lengths within one task of each other, and then stays
    /// quiescent.
    #[test]
    fn load_balancer_converges_and_stays_quiet(
        loads in prop::collection::vec(0usize..8, 8),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        for (c, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                sys.spawn(TaskConfig::default(), CpuId(c));
            }
        }
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        for step in 0..60u64 {
            sys.set_now(SimTime::from_millis(step * 64));
            for c in 0..8 {
                lb.run(CpuId(c), &mut sys);
            }
        }
        let final_loads: Vec<usize> = (0..8).map(|c| sys.nr_running(CpuId(c))).collect();
        let max = *final_loads.iter().max().unwrap();
        let min = *final_loads.iter().min().unwrap();
        prop_assert!(max - min <= 1, "{final_loads:?}");
        // Once balanced, further passes migrate nothing.
        let before = sys.stats().migrations();
        for step in 60..80u64 {
            sys.set_now(SimTime::from_millis(step * 64));
            for c in 0..8 {
                lb.run(CpuId(c), &mut sys);
            }
        }
        prop_assert_eq!(sys.stats().migrations(), before);
        sys.validate();
    }

    /// After any random sequence of enqueue/dequeue/migrate/
    /// profile-change operations, every domain group's incremental
    /// sums equal a from-scratch recomputation — the aggregate-tree
    /// mirror of the queued-profile cache's `validate()` guarantee.
    /// Runs on a CMP shape so core-, package-, and node-level units
    /// are all exercised.
    #[test]
    fn aggregates_match_recompute_after_random_ops(
        ops in prop::collection::vec(op_strategy(16), 1..160),
    ) {
        let topo = Topology::build_cmp(2, 2, 2, 2); // 16 CPUs, 4 levels.
        let mut sys = System::new(topo);
        let mut blocked: Vec<ebs_sched::TaskId> = Vec::new();
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            sys.set_now(SimTime::from_millis(clock));
            apply_op(&mut sys, &mut blocked, op);
        }
        // `validate()` checks every unit cell against a fresh
        // recount...
        sys.validate();
        // ...and the group-level reads the balancers use must agree
        // with explicit scans of the group members, for every group of
        // every CPU's domain stack.
        for cpu in sys.topology().cpu_ids() {
            for domain in sys.topology().domains(cpu) {
                for group in domain.groups() {
                    let running: usize =
                        group.cpus().iter().map(|&c| sys.nr_running(c)).sum();
                    prop_assert_eq!(sys.group_nr_running(group), running);
                }
            }
        }
    }

    /// Profile updates keep the profile within the observed sample
    /// range — no overshoot for any update sequence.
    #[test]
    fn profiles_are_convex_combinations(
        updates in prop::collection::vec((5.0f64..100.0, 1u64..300), 1..50),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        let id = sys.spawn(
            TaskConfig { initial_profile: Watts(30.0), ..TaskConfig::default() },
            CpuId(0),
        );
        let mut lo = 30.0f64;
        let mut hi = 30.0f64;
        for (watts, ms) in updates {
            lo = lo.min(watts);
            hi = hi.max(watts);
            sys.update_profile(id, Watts(watts), SimDuration::from_millis(ms));
            let p = sys.task(id).profile().0;
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
            sys.validate();
        }
    }
}
