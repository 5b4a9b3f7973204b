//! Figure 9: hot task migration of a single task.
//!
//! One bitcnts (~61 W) on the SMT machine with a 40 W package budget:
//! every ~10 s the package's thermal-power sum approaches its limit
//! and the task hops to the coolest processor. The paper highlights
//! two properties: the task is *never* migrated to a sibling (that
//! would not cool the package) and *never* across the node boundary
//! (a same-node CPU has always cooled down enough by the time a full
//! round-robin turn completes).

use ebs_sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs_topology::{CpuId, Topology};
use ebs_units::{SimDuration, SimTime, Watts};
use ebs_workloads::catalog;

/// The Figure 9 result.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// (time, cpu) placements of the single bitcnts task, in order.
    pub visits: Vec<(SimTime, CpuId)>,
    /// Number of migrations that targeted the sibling of the current
    /// CPU (must be zero).
    pub sibling_moves: usize,
    /// Number of migrations that crossed the node boundary (must be
    /// zero).
    pub cross_node_moves: usize,
    /// Distinct packages visited.
    pub packages_visited: usize,
    /// Mean time between migrations.
    pub mean_hop_secs: f64,
    /// Fraction of time throttled (should be zero — migration beats
    /// throttling here).
    pub throttled: f64,
}

/// Runs the Figure 9 experiment.
pub fn run(quick: bool) -> Fig9 {
    let duration = SimDuration::from_secs(if quick { 120 } else { 220 });
    let cfg = SimConfig::xseries445()
        .smt(true)
        .energy_aware(true)
        .throttling(true)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
        .trace_events(true)
        .seed(3);
    let mut sim = Simulation::new(cfg);
    let id = sim.spawn_program(&catalog::bitcnts());
    sim.run_for(duration);

    let visits = sim.task_visits(id);
    let topo = Topology::xseries445(true);
    let mut sibling_moves = 0;
    let mut cross_node_moves = 0;
    for pair in visits.windows(2) {
        let (from, to) = (pair[0].1, pair[1].1);
        if topo.same_package(from, to) {
            sibling_moves += 1;
        }
        if !topo.same_node(from, to) {
            cross_node_moves += 1;
        }
    }
    let mut packages: Vec<usize> = visits.iter().map(|&(_, c)| topo.package_of(c).0).collect();
    packages.sort_unstable();
    packages.dedup();
    let mean_hop_secs = if visits.len() > 1 {
        (visits.last().unwrap().0 - visits[0].0).as_secs_f64() / (visits.len() - 1) as f64
    } else {
        f64::INFINITY
    };
    Fig9 {
        sibling_moves,
        cross_node_moves,
        packages_visited: packages.len(),
        mean_hop_secs,
        throttled: sim.report().avg_throttled_fraction,
        visits,
    }
}

impl Fig9 {
    /// CSV of the visit sequence (Figure 9's data).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,cpu\n");
        for (t, c) in &self.visits {
            out.push_str(&format!("{:.3},{}\n", t.as_secs_f64(), c.0));
        }
        out
    }
}

impl core::fmt::Display for Fig9 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Figure 9: hot task migration of a single bitcnts (40 W package limit)"
        )?;
        write!(f, "visits:")?;
        for (t, c) in self.visits.iter().take(24) {
            write!(f, " {:.0}s->cpu{}", t.as_secs_f64(), c.0)?;
        }
        if self.visits.len() > 24 {
            write!(f, " ... ({} total)", self.visits.len())?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "hops: {} (mean {:.1}s apart, paper ~10s); sibling moves: {}; \
             cross-node moves: {}; packages visited: {}; throttled: {}",
            self.visits.len().saturating_sub(1),
            self.mean_hop_secs,
            self.sibling_moves,
            self.cross_node_moves,
            self.packages_visited,
            crate::fmt::pct(self.throttled)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_wanders_within_one_node_and_never_to_siblings() {
        let fig = run(true);
        assert!(
            fig.visits.len() >= 6,
            "too few migrations: {:?}",
            fig.visits
        );
        assert_eq!(fig.sibling_moves, 0, "moved to a sibling");
        assert_eq!(fig.cross_node_moves, 0, "crossed the node boundary");
        // Round-robin over the four packages of one node.
        assert_eq!(fig.packages_visited, 4);
        // Roughly the paper's ten-second cadence.
        assert!(
            fig.mean_hop_secs > 4.0 && fig.mean_hop_secs < 25.0,
            "hop cadence {}s",
            fig.mean_hop_secs
        );
        // Migration avoids throttling entirely.
        assert!(fig.throttled < 0.01, "throttled {}", fig.throttled);
    }
}
