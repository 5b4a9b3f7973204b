//! Watch a single hot task wander across the machine (the paper's
//! Figure 9, live).
//!
//! One bitcnts instance burns ~61 W; every package is budgeted at
//! 40 W. Just before a package would have to throttle, the scheduler
//! moves the task to the coolest processor — never to the SMT sibling
//! (same package, same heat) and never across the NUMA boundary (a
//! same-node processor has always cooled down by then).
//!
//! ```sh
//! cargo run --release --example hot_task_demo
//! ```

use ebs::sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs::topology::Topology;
use ebs::units::{SimDuration, Watts};
use ebs::workloads::catalog;

fn main() {
    let cfg = SimConfig::xseries445()
        .smt(true)
        .energy_aware(true)
        .throttling(true)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
        .trace_events(true)
        .seed(3);
    let mut sim = Simulation::new(cfg);
    let id = sim.spawn_program(&catalog::bitcnts());
    sim.run_for(SimDuration::from_secs(150));

    let topo = Topology::xseries445(true);
    let visits = sim.task_visits(id);
    println!("single bitcnts (~61 W) under a 40 W package budget:\n");
    println!("{:>8} {:>6} {:>8} {:>6}", "time", "cpu", "package", "node");
    for (t, cpu) in &visits {
        println!(
            "{:>8} {:>6} {:>8} {:>6}",
            format!("{:.1}s", t.as_secs_f64()),
            format!("cpu{}", cpu.0),
            format!("pkg{}", topo.package_of(*cpu).0),
            format!("n{}", topo.node_of(*cpu).0),
        );
    }
    let hops = visits.len().saturating_sub(1);
    let report = sim.report();
    println!(
        "\n{hops} migrations in 150 s, throttled {:.1}% of the time",
        report.avg_throttled_fraction * 100.0
    );
    println!("(without hot task migration the package would throttle ~50% of the time)");
}
