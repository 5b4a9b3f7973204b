//! SMT-aware energy balancing (the paper's Section 4.7).
//!
//! With hyperthreading, two logical CPUs share one package's power
//! budget. Moving a hot task between siblings cannot cool the package,
//! so the energy balancer skips the sibling domain; only the package
//! *sum* matters. This example loads two packages asymmetrically and
//! shows the balancer levelling package power — not sibling power.
//!
//! ```sh
//! cargo run --release --example smt_balance
//! ```

use ebs::sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs::topology::{CpuId, PackageId, Topology};
use ebs::units::{SimDuration, Watts};
use ebs::workloads::catalog;

fn package_summary(sim: &Simulation, topo: &Topology) {
    println!(
        "{:>8} {:>18} {:>14} {:>10}",
        "package", "thermal sum", "temperature", "tasks"
    );
    for p in 0..topo.n_packages() {
        let pkg = PackageId(p);
        let cpus: Vec<_> = topo.cpus_of_package(pkg).collect();
        let sum: Watts = cpus
            .iter()
            .map(|&c| sim.power_state().thermal_power(c))
            .sum();
        let tasks: usize = cpus.iter().map(|&c| sim.system().nr_running(c)).sum();
        if tasks > 0 || sum.0 > 15.0 {
            println!(
                "{:>8} {:>18} {:>14} {:>10}",
                format!("pkg{p}"),
                format!("{sum}"),
                format!("{}", sim.machine().package_temp(pkg)),
                tasks
            );
        }
    }
}

fn main() {
    let cfg = SimConfig::xseries445()
        .smt(true)
        .energy_aware(true)
        .throttling(false)
        .max_power(MaxPowerSpec::PerPackage(Watts(120.0)))
        .seed(5);
    let mut sim = Simulation::new(cfg);
    let topo = Topology::xseries445(true);

    // Load: sixteen hot and sixteen cool tasks — two per logical CPU,
    // so every runqueue holds multiple tasks and energy *balancing*
    // applies (with one task per CPU only hot task *migration* could
    // act, as Section 4 explains).
    for _ in 0..16 {
        sim.spawn_program(&catalog::bitcnts());
        sim.spawn_program(&catalog::memrw());
    }

    println!("after 10 s (profiles still settling):");
    sim.run_for(SimDuration::from_secs(10));
    package_summary(&sim, &topo);

    println!("\nafter 300 s (energy-balanced):");
    sim.run_for(SimDuration::from_secs(290));
    package_summary(&sim, &topo);

    // Show that sibling pairs were never balanced against each other:
    // the scheduler-domain flag suppressed the energy step at the SMT
    // level.
    let smt_domain = &topo.domains(CpuId(0))[0];
    println!(
        "\nSMT domain share_cpu_power flag: {} (energy step skipped there)",
        smt_domain.flags().share_cpu_power
    );
    println!(
        "total migrations: {} (energy {}, exchange {})",
        sim.report().migrations,
        sim.report().migrations_by_reason[1],
        sim.report().migrations_by_reason[3],
    );
}
