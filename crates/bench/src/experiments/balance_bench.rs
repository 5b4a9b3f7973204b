//! Balancing-cost benchmark across the topology ladder.
//!
//! The question the aggregate tree answers: what does one full
//! balancing round (every CPU runs its periodic pass, all domain
//! levels due) cost as the machine grows? Rescanning every runqueue
//! per group selection would make a round O(CPUs²) at the top domain
//! level; the aggregate tree reads per-unit running sums and memoised
//! ratio sums, making a round O(CPUs). Both balancers run here, on
//! identical scheduler states with identical churn.
//!
//! This is a pure scheduler microbenchmark (no simulation engine): it
//! measures exactly the passes a large-machine scenario pays for,
//! including the numa64 rung's 256 CPUs.

use crate::fmt::Table;
use ebs_core::{EnergyAwareBalancer, EnergyBalanceConfig, PowerState, PowerStateConfig};
use ebs_sched::{LoadBalancer, LoadBalancerConfig, MigrationReason, System, TaskConfig};
use ebs_topology::{CpuId, TopologyPreset};
use ebs_units::{SimDuration, SimTime, Watts};
use std::time::Instant;

/// One (topology, balancer, scenario) measurement.
#[derive(Clone, Debug)]
pub struct BalanceBenchRow {
    /// Topology preset name.
    pub topology: &'static str,
    /// Logical CPUs of the shape.
    pub cpus: usize,
    /// Balancer: "stock" or "energy".
    pub balancer: &'static str,
    /// Scenario: "quiescent" (balanced machine, the recurring cost
    /// every balance interval pays even when nothing moves) or
    /// "churn" (tasks keep migrating between rounds, so passes also
    /// inspect and sometimes act on imbalances).
    pub scenario: &'static str,
    /// Full balancing rounds timed.
    pub rounds: usize,
    /// Mean wall-clock per full round (every CPU, all levels due),
    /// microseconds.
    pub us_per_round: f64,
    /// Mean wall-clock per single CPU pass, nanoseconds.
    pub ns_per_pass: f64,
    /// Migrations the rounds performed.
    pub migrations: u64,
}

/// The benchmark result.
#[derive(Clone, Debug)]
pub struct BalanceBench {
    /// Rows in (topology, balancer, scenario) order.
    pub rows: Vec<BalanceBenchRow>,
}

/// Builds the benchmark's scheduler state: two tasks per CPU with a
/// varied (but deterministic) profile spread, plus a thermal landscape
/// warm enough that the energy balancer's margin checks actually read
/// the group metrics.
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
        // A mild deterministic thermal spread, far from the margins.
        let watts = 30.0 + ((c * 11) % 8) as f64;
        for _ in 0..2_000 {
            power.observe(CpuId(c), Watts(watts), SimDuration::from_millis(100));
        }
    }
    (sys, power)
}

/// Steady-state churn between rounds: a few queued tasks ping-pong
/// between fixed CPU pairs, dirtying O(1) unit paths per round the way
/// real migrations and wakes do — without it the aggregate tree would
/// only ever serve warm caches, which understates a round's cost.
fn churn(sys: &mut System, round: usize) {
    let n = sys.topology().n_cpus();
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
            let _ = sys.migrate_queued(id, to, MigrationReason::LoadBalance);
        }
    }
}

enum Bal {
    Stock(LoadBalancer),
    Energy(EnergyAwareBalancer),
}

/// Runs `rounds` timed balancing rounds and returns (mean µs/round,
/// total migrations). The first two rounds are an un-timed warmup
/// letting the balancer converge from the initial spawn pattern; in
/// the quiescent scenario the timed rounds then measure the pure
/// every-interval pass cost on a balanced machine, while the churn
/// scenario keeps migrating tasks between rounds.
fn measure(preset: TopologyPreset, energy: bool, with_churn: bool, rounds: usize) -> (f64, u64) {
    let (mut sys, power) = build_state(preset);
    let mut bal = if energy {
        Bal::Energy(EnergyAwareBalancer::new(
            &sys,
            EnergyBalanceConfig::default(),
        ))
    } else {
        Bal::Stock(LoadBalancer::new(&sys, LoadBalancerConfig::default()))
    };
    let n = sys.topology().n_cpus();
    let mut elapsed = 0.0;
    let warmup = 2;
    for round in 0..rounds + warmup {
        if with_churn && round >= warmup {
            churn(&mut sys, round);
        }
        // Advance past the longest domain interval so every level of
        // every CPU is due — the worst-case round.
        sys.set_now(SimTime::from_millis(((round + 1) * 300) as u64));
        let start = Instant::now();
        for c in 0..n {
            match &mut bal {
                Bal::Stock(lb) => {
                    lb.run(CpuId(c), &mut sys);
                }
                Bal::Energy(eb) => {
                    eb.run(CpuId(c), &mut sys, &power);
                }
            }
        }
        if round >= warmup {
            elapsed += start.elapsed().as_secs_f64();
        }
    }
    sys.validate();
    (elapsed * 1e6 / rounds as f64, sys.stats().migrations())
}

/// The benchmark ladder: the acceptance rungs numa16 → numa64 plus
/// the small shapes for context.
fn presets() -> Vec<TopologyPreset> {
    TopologyPreset::all()
}

/// Runs the benchmark. `quick` only reduces the number of timed
/// rounds; the ladder (through numa64's 256 CPUs) stays complete
/// because the O(CPUs) claim is about its top rungs.
pub fn run(quick: bool) -> BalanceBench {
    let rounds = if quick { 12 } else { 60 };
    let mut rows = Vec::new();
    for preset in presets() {
        let cpus = preset.build().n_cpus();
        for (balancer, energy) in [("stock", false), ("energy", true)] {
            for (scenario, with_churn) in [("quiescent", false), ("churn", true)] {
                let (us_per_round, migrations) = measure(preset, energy, with_churn, rounds);
                rows.push(BalanceBenchRow {
                    topology: preset.name(),
                    cpus,
                    balancer,
                    scenario,
                    rounds,
                    us_per_round,
                    ns_per_pass: us_per_round * 1e3 / cpus as f64,
                    migrations,
                });
            }
        }
    }
    BalanceBench { rows }
}

impl BalanceBench {
    /// The row of one (topology, balancer, scenario) cell.
    pub fn cell(&self, topology: &str, balancer: &str, scenario: &str) -> Option<&BalanceBenchRow> {
        self.rows
            .iter()
            .find(|r| r.topology == topology && r.balancer == balancer && r.scenario == scenario)
    }

    /// The growth exponent of round cost between two topology rungs:
    /// `log(t_big / t_small) / log(cpus_big / cpus_small)` — ~1 for
    /// linear scaling, ~2 for quadratic.
    pub fn growth_exponent(
        &self,
        small: &str,
        big: &str,
        balancer: &str,
        scenario: &str,
    ) -> Option<f64> {
        let s = self.cell(small, balancer, scenario)?;
        let b = self.cell(big, balancer, scenario)?;
        Some((b.us_per_round / s.us_per_round).ln() / (b.cpus as f64 / s.cpus as f64).ln())
    }

    /// Renders the benchmark as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "topology,cpus,balancer,scenario,rounds,us_per_round,ns_per_pass,migrations\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{:.2},{:.1},{}\n",
                r.topology,
                r.cpus,
                r.balancer,
                r.scenario,
                r.rounds,
                r.us_per_round,
                r.ns_per_pass,
                r.migrations
            ));
        }
        out
    }
}

impl core::fmt::Display for BalanceBench {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Balancing cost per full round (every CPU, all levels due)"
        )?;
        let mut t = Table::new(vec![
            "topology", "cpus", "balancer", "scenario", "us/round", "ns/pass", "migr",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.topology.to_string(),
                r.cpus.to_string(),
                r.balancer.to_string(),
                r.scenario.to_string(),
                format!("{:.1}", r.us_per_round),
                format!("{:.0}", r.ns_per_pass),
                r.migrations.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(f)?;
        for balancer in ["stock", "energy"] {
            for scenario in ["quiescent", "churn"] {
                if let Some(e) = self.growth_exponent("numa16", "numa64", balancer, scenario) {
                    writeln!(
                        f,
                        "{balancer}/{scenario}: cost ~ CPUs^{e:.2} on numa16 -> numa64"
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_covers_the_ladder() {
        let bench = run(true);
        // 5 topologies × 2 balancers × 2 scenarios.
        assert_eq!(bench.rows.len(), 20);
        assert_eq!(bench.to_csv().lines().count(), 21);
        // Migration counts are deterministic: a balanced machine stays
        // quiet, and under churn the only moves are the churn's own
        // four per round (a ping-pong never builds an imbalance either
        // balancer acts on). Wall-clock columns are never asserted on.
        for r in &bench.rows {
            let expected = if r.scenario == "churn" {
                4 * r.rounds as u64
            } else {
                0
            };
            assert_eq!(
                r.migrations, expected,
                "{}/{}/{}",
                r.topology, r.balancer, r.scenario
            );
        }
        assert!(bench
            .growth_exponent("numa16", "numa64", "energy", "quiescent")
            .is_some_and(f64::is_finite));
    }
}
