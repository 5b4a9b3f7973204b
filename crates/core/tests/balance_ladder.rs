//! Balancing rounds on every rung of the topology ladder, counted
//! exactly. A full round runs every CPU's pass with all domain levels
//! due, under the stock or the energy-aware balancer. A balanced
//! machine must move nothing; a ping-pong of queued tasks between
//! fixed CPU pairs never builds an imbalance either balancer acts on,
//! so the only moves are the ping-pong's own. An under-loaded machine
//! with no task waiting has nothing to pull: its rounds only re-arm
//! the timers, and a single waiting task is pulled onto an idle CPU.
//! What a round costs is timed by the repo benchmark
//! (`sched.balance_round_us`, `core.energy_balance_round_us`); nothing
//! here reads a clock.

use ebs_core::{EnergyAwareBalancer, EnergyBalanceConfig, PowerState, PowerStateConfig};
use ebs_sched::{
    BalanceTimers, LoadBalancer, LoadBalancerConfig, MigrationReason, System, TaskConfig, TaskId,
};
use ebs_topology::{CpuId, TopologyPreset};
use ebs_units::{SimDuration, SimTime, Watts};

/// Rounds run after the two settling rounds.
const ROUNDS: usize = 12;

/// `per_cpu(c)` tasks on each CPU `c`, the first of them running, with
/// a varied (but deterministic) profile spread, plus a thermal
/// landscape warm enough that the energy balancer's margin checks read
/// the group metrics, yet far from the margins.
fn build_state(preset: TopologyPreset, per_cpu: impl Fn(usize) -> usize) -> (System, PowerState) {
    let topo = preset.build();
    let n = topo.n_cpus();
    let mut sys = System::new(topo);
    for c in 0..n {
        for i in 0..per_cpu(c) {
            sys.spawn(
                TaskConfig {
                    initial_profile: Watts(25.0 + ((c * 7 + i * 13) % 30) as f64),
                    ..TaskConfig::default()
                },
                CpuId(c),
            );
        }
        sys.context_switch(CpuId(c));
    }
    let mut power = PowerState::uniform(n, Watts(60.0), PowerStateConfig::default());
    for c in 0..n {
        let watts = 30.0 + ((c * 11) % 8) as f64;
        for _ in 0..2_000 {
            power.observe(CpuId(c), Watts(watts), SimDuration::from_millis(100));
        }
    }
    (sys, power)
}

/// The stock or the energy-aware balancer.
enum Balancer {
    Stock(LoadBalancer),
    EnergyAware(EnergyAwareBalancer),
}

impl Balancer {
    fn new(sys: &System, energy: bool) -> Self {
        if energy {
            Balancer::EnergyAware(EnergyAwareBalancer::new(
                sys,
                EnergyBalanceConfig::default(),
            ))
        } else {
            Balancer::Stock(LoadBalancer::new(sys, LoadBalancerConfig::default()))
        }
    }

    /// One full round: every CPU's periodic pass. Returns the pulls.
    fn round(&mut self, sys: &mut System, power: &PowerState) -> usize {
        (0..sys.topology().n_cpus())
            .map(|c| match self {
                Balancer::Stock(lb) => lb.run(CpuId(c), sys).pulled,
                Balancer::EnergyAware(eb) => eb.run(CpuId(c), sys, power).pulled,
            })
            .sum()
    }

    fn newidle(&mut self, cpu: CpuId, sys: &mut System, power: &PowerState) -> usize {
        match self {
            Balancer::Stock(lb) => lb.newidle(cpu, sys).pulled,
            Balancer::EnergyAware(eb) => eb.newidle(cpu, sys, power).pulled,
        }
    }

    fn next_due(&self) -> SimTime {
        match self {
            Balancer::Stock(lb) => lb.next_due(),
            Balancer::EnergyAware(eb) => eb.next_due(),
        }
    }
}

/// An instant past the longest domain interval after the previous
/// round's, so every level of every CPU is due.
fn round_start(round: usize) -> SimTime {
    SimTime::from_millis(((round + 1) * 300) as u64)
}

/// Moves the first migration candidate of each of four fixed CPU pairs
/// across its pair, in alternating directions from round to round, and
/// returns the moves made.
fn ping_pong(sys: &mut System, round: usize) -> u64 {
    let n = sys.topology().n_cpus();
    let mut moves = 0;
    for k in 0..4usize {
        let a = CpuId((k * (n / 4)) % n);
        let b = CpuId((k * (n / 4) + n / 2) % n);
        let (from, to) = if round.is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        let candidate = sys.rq(from).iter_migration_candidates().next();
        if let Some(id) = candidate {
            if sys
                .migrate_queued(id, to, MigrationReason::LoadBalance)
                .is_ok()
            {
                moves += 1;
            }
        }
    }
    moves
}

/// Runs two settling rounds, then [`ROUNDS`] full rounds, each after a
/// ping-pong when `with_ping_pong` is set. Returns the ping-pong's
/// moves and the machine's migrations in total.
fn rounds(preset: TopologyPreset, energy: bool, with_ping_pong: bool) -> (u64, u64) {
    let (mut sys, power) = build_state(preset, |_| 2);
    let mut balancer = Balancer::new(&sys, energy);
    let settle = 2;
    let mut own = 0;
    for round in 0..settle + ROUNDS {
        if with_ping_pong && round >= settle {
            own += ping_pong(&mut sys, round);
        }
        sys.set_now(round_start(round));
        balancer.round(&mut sys, &power);
    }
    sys.validate();
    (own, sys.stats().migrations())
}

#[test]
fn a_balanced_machine_moves_nothing_on_every_rung() {
    for preset in TopologyPreset::all() {
        for energy in [false, true] {
            let (_, total) = rounds(preset, energy, false);
            assert_eq!(total, 0, "{} energy-aware={energy}", preset.name());
        }
    }
}

#[test]
fn a_ping_pong_moves_only_its_own_tasks_on_every_rung() {
    for preset in TopologyPreset::all() {
        for energy in [false, true] {
            let (own, total) = rounds(preset, energy, true);
            let cell = format!("{} energy-aware={energy}", preset.name());
            assert_eq!(own, 4 * ROUNDS as u64, "{cell}: a ping-pong move failed");
            assert_eq!(total, own, "{cell}: a balancer moved a task");
        }
    }
}

/// With nothing waiting a round only re-arms the timers, exactly as a
/// full pass does; one waiting task is pulled onto an idle CPU, by a
/// periodic round and by a new-idle pass alike.
#[test]
fn an_underloaded_machine_pulls_only_a_waiting_task_on_every_rung() {
    for preset in TopologyPreset::all() {
        for energy in [false, true] {
            let cell = format!("{} energy-aware={energy}", preset.name());
            // Every even CPU runs one task; nothing waits.
            let (mut sys, power) = build_state(preset, |c| usize::from(c % 2 == 0));
            assert_eq!(sys.nr_queued(), 0, "{cell}");
            let mut balancer = Balancer::new(&sys, energy);
            // The timers a full pass re-arms: every due level of every
            // CPU, by the timer rule itself.
            let mut full_pass = BalanceTimers::new(sys.topology());
            let settle = 3;
            for round in 0..settle {
                let now = round_start(round);
                sys.set_now(now);
                assert_eq!(balancer.round(&mut sys, &power), 0, "{cell}");
                let topo = sys.topology();
                for cpu in topo.cpu_ids() {
                    full_pass.due(cpu, topo.domains(cpu), now).count();
                }
                assert_eq!(balancer.next_due(), full_pass.next_due(), "{cell}");
                assert!(balancer.next_due() > now, "{cell}");
            }
            assert_eq!(sys.stats().migrations(), 0, "{cell}");
            sys.validate();

            // One task waits on busy CPU 0; CPU 1 is idle.
            let placed: Vec<(TaskId, CpuId)> = sys
                .task_table()
                .iter()
                .map(|(id, t)| (id, t.cpu()))
                .collect();
            let extra = sys.spawn(TaskConfig::default(), CpuId(0));
            assert_eq!(sys.nr_queued(), 1, "{cell}");
            let mut newidle_sys = sys.clone();

            sys.set_now(round_start(settle));
            assert!(balancer.round(&mut sys, &power) >= 1, "{cell}");
            let to = sys.task(extra).cpu();
            assert!(sys.nr_running(to) == 1 && to.0 % 2 == 1, "{cell}: on {to}");
            for &(t, cpu) in &placed {
                assert_eq!(sys.task(t).cpu(), cpu, "{cell}");
            }
            sys.validate();

            let sys = &mut newidle_sys;
            let pulled = Balancer::new(sys, energy).newidle(CpuId(1), sys, &power);
            assert_eq!(pulled, 1, "{cell}");
            assert_eq!(sys.task(extra).cpu(), CpuId(1), "{cell}");
            sys.validate();
        }
    }
}
