//! Balancing rounds on every rung of the topology ladder, counted
//! exactly. A full round runs every CPU's pass with all domain levels
//! due, under the stock or the energy-aware balancer. A balanced
//! machine must move nothing; a ping-pong of queued tasks between
//! fixed CPU pairs never builds an imbalance either balancer acts on,
//! so the only moves are the ping-pong's own. What a round costs is
//! timed by the repo benchmark (`sched.balance_round_us`,
//! `core.energy_balance_round_us`); nothing here reads a clock.

use ebs_core::{EnergyAwareBalancer, EnergyBalanceConfig, PowerState, PowerStateConfig};
use ebs_sched::{LoadBalancer, LoadBalancerConfig, MigrationReason, System, TaskConfig};
use ebs_topology::{CpuId, TopologyPreset};
use ebs_units::{SimDuration, SimTime, Watts};

/// Rounds run after the two settling rounds.
const ROUNDS: usize = 12;

/// Two tasks per CPU with a varied (but deterministic) profile spread,
/// plus a thermal landscape warm enough that the energy balancer's
/// margin checks read the group metrics, yet far from the margins.
fn build_state(preset: TopologyPreset) -> (System, PowerState) {
    let topo = preset.build();
    let n = topo.n_cpus();
    let mut sys = System::new(topo);
    for c in 0..n {
        for i in 0..2 {
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
    let (mut sys, power) = build_state(preset);
    let mut stock = LoadBalancer::new(&sys, LoadBalancerConfig::default());
    let mut energy_aware = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
    let n = sys.topology().n_cpus();
    let settle = 2;
    let mut own = 0;
    for round in 0..settle + ROUNDS {
        if with_ping_pong && round >= settle {
            own += ping_pong(&mut sys, round);
        }
        // Past the longest domain interval, so every level of every
        // CPU is due.
        sys.set_now(SimTime::from_millis(((round + 1) * 300) as u64));
        for c in 0..n {
            if energy {
                energy_aware.run(CpuId(c), &mut sys, &power);
            } else {
                stock.run(CpuId(c), &mut sys);
            }
        }
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
