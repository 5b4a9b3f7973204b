//! The incremental aggregate tree over the topology's unit hierarchy.
//!
//! Balancing has to compare load and power across *CPU groups* — and
//! every group of a generated domain hierarchy is exactly one hardware
//! unit (a CPU, core, package, or node; see
//! [`ebs_topology::GroupUnit`]). Instead of re-summing a group's
//! runqueues on every balancing pass (O(span) per pass, O(CPUs²) per
//! due interval at the top level of a big machine), [`System`] keeps
//! per-unit running sums here and updates them on every operation that
//! changes a runqueue — enqueue, dequeue, migration, profile change —
//! in O(depth), i.e. O(1) hops up the fixed core → package → node
//! chain.
//!
//! Two kinds of state per unit:
//!
//! - **`nr_running` sum** (an integer, exact): the load metric.
//!   Reading a group's load becomes one table lookup, and the value is
//!   *bitwise identical* to a fresh scan because integer sums carry no
//!   rounding.
//! - **`gen`** (a change counter): bumped whenever any state a
//!   *runqueue-power* read depends on changes — membership, a
//!   profile, or a context switch whose credit/debit round-trip
//!   perturbed the queued-profile bits (switches preserve the queue's
//!   task set, so most leave the power reads bit-unchanged and skip
//!   the bump).
//!   Consumers that cache derived per-group floats (the energy
//!   balancer's group ratio cache) key their entries on this counter,
//!   so their lazily recomputed sums are always built by the same
//!   member-order scan as the code they replace — bitwise-identical
//!   balancing decisions, at amortised O(1) reads.
//!
//! Per-unit capacity sums ride along; they are config-derived and
//! change only when capacities are installed.
//!
//! [`System`]: crate::System

use crate::system::ensure;
use ebs_topology::{CpuId, GroupUnit, Topology};

/// One unit's running sums.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AggCell {
    /// Sum of `nr_running` over the unit's CPUs.
    pub nr_running: usize,
    /// Change counter for runqueue-power-relevant state.
    pub gen: u64,
}

/// Per-unit aggregate tables for one machine, maintained by
/// [`crate::System`].
#[derive(Clone, Debug)]
pub struct LoadAggregates {
    core: Vec<AggCell>,
    package: Vec<AggCell>,
    node: Vec<AggCell>,
    /// `(core, package, node)` table indices per CPU — the O(depth)
    /// update path.
    paths: Vec<(usize, usize, usize)>,
    /// Class-weighted compute capacity per logical CPU (1.0 per CPU on
    /// homogeneous machines). Config-derived, never serialized: a
    /// restored system re-installs the capacities of its topology.
    cap_cpu: Vec<f64>,
    /// Capacity sums per unit, same layout as the cell tables. At unit
    /// capacity these equal the unit's CPU count exactly, so
    /// capacity-normalized loads reduce to the per-CPU average.
    cap_core: Vec<f64>,
    cap_package: Vec<f64>,
    cap_node: Vec<f64>,
}

impl LoadAggregates {
    /// Creates zeroed aggregates shaped like `topo`, with unit
    /// capacity (1.0) per CPU.
    pub fn new(topo: &Topology) -> Self {
        let paths: Vec<(usize, usize, usize)> = topo
            .cpu_ids()
            .map(|c| (topo.core_of(c).0, topo.package_of(c).0, topo.node_of(c).0))
            .collect();
        let mut agg = LoadAggregates {
            core: vec![AggCell::default(); topo.n_cores()],
            package: vec![AggCell::default(); topo.n_packages()],
            node: vec![AggCell::default(); topo.n_nodes()],
            paths,
            cap_cpu: Vec::new(),
            cap_core: Vec::new(),
            cap_package: Vec::new(),
            cap_node: Vec::new(),
        };
        agg.set_cpu_capacities(&vec![1.0; topo.n_cpus()]);
        agg
    }

    /// Installs per-CPU class-weighted capacities and rebuilds the
    /// per-unit capacity sums.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is not one finite positive value per CPU.
    pub fn set_cpu_capacities(&mut self, caps: &[f64]) {
        assert_eq!(caps.len(), self.paths.len(), "one capacity per CPU");
        assert!(
            caps.iter().all(|c| c.is_finite() && *c > 0.0),
            "capacities must be finite and positive"
        );
        self.cap_cpu = caps.to_vec();
        self.cap_core = vec![0.0; self.core.len()];
        self.cap_package = vec![0.0; self.package.len()];
        self.cap_node = vec![0.0; self.node.len()];
        for (cpu, &(core, package, node)) in self.paths.iter().enumerate() {
            self.cap_core[core] += caps[cpu];
            self.cap_package[package] += caps[cpu];
            self.cap_node[node] += caps[cpu];
        }
    }

    /// The class-weighted capacity of one unit (a single CPU's own
    /// capacity for `Cpu` units). Equals the unit's CPU count on
    /// homogeneous machines.
    pub fn capacity(&self, unit: GroupUnit) -> f64 {
        match unit {
            GroupUnit::Cpu(c) => self.cap_cpu[c.0],
            GroupUnit::Core(c) => self.cap_core[c.0],
            GroupUnit::Package(p) => self.cap_package[p.0],
            GroupUnit::Node(n) => self.cap_node[n.0],
        }
    }

    /// The capacity of one logical CPU.
    pub fn cpu_capacity(&self, cpu: CpuId) -> f64 {
        self.cap_cpu[cpu.0]
    }

    /// Applies one runqueue change on `cpu` to every ancestor unit:
    /// the task-count delta, plus the generation bump consumers key
    /// their caches on. Every change routed here moves runqueue power
    /// (membership, a profile, or a perturbed context switch), so every
    /// call bumps.
    pub(crate) fn apply(&mut self, cpu: CpuId, d_running: isize) {
        let (core, package, node) = self.paths[cpu.0];
        for cell in [
            &mut self.core[core],
            &mut self.package[package],
            &mut self.node[node],
        ] {
            cell.nr_running = cell
                .nr_running
                .checked_add_signed(d_running)
                .expect("aggregate nr_running underflow: runqueue hooks out of sync");
            cell.gen += 1;
        }
    }

    /// Compares every unit's `nr_running` sum with a recount of
    /// `per_cpu`, one `nr_running` per logical CPU in id order.
    ///
    /// # Errors
    ///
    /// A message naming the first unit whose sum differs.
    pub(crate) fn check(&self, per_cpu: impl Iterator<Item = usize>) -> Result<(), String> {
        let tables = [
            ("core", &self.core),
            ("package", &self.package),
            ("node", &self.node),
        ];
        let mut fresh = tables.map(|(_, cells)| vec![0; cells.len()]);
        for (&(core, package, node), n) in self.paths.iter().zip(per_cpu) {
            fresh[0][core] += n;
            fresh[1][package] += n;
            fresh[2][node] += n;
        }
        for ((what, cells), sums) in tables.into_iter().zip(fresh) {
            for (i, (cell, sum)) in cells.iter().zip(sums).enumerate() {
                ensure(cell.nr_running == sum, || {
                    format!(
                        "{what} {i}: aggregate nr_running {} but {sum} runnable",
                        cell.nr_running
                    )
                })?;
            }
        }
        Ok(())
    }

    /// The aggregate cell of one unit. `Cpu` units have no cell — the
    /// runqueue itself is the source of truth for a single CPU.
    pub fn cell(&self, unit: GroupUnit) -> Option<&AggCell> {
        match unit {
            GroupUnit::Cpu(_) => None,
            GroupUnit::Core(c) => self.core.get(c.0),
            GroupUnit::Package(p) => self.package.get(p.0),
            GroupUnit::Node(n) => self.node.get(n.0),
        }
    }
}

impl ebs_store::Snapshot for AggCell {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.usize(self.nr_running);
        w.u64(self.gen);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.nr_running = r.usize()?;
        self.gen = r.u64()?;
        Ok(())
    }
}

impl ebs_store::Snapshot for LoadAggregates {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // `paths` is topology-derived config and never serialized.
        for table in [&self.core, &self.package, &self.node] {
            w.seq(table, |w, cell| cell.save(w));
        }
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        for (what, table) in [
            ("core cells", &mut self.core),
            ("package cells", &mut self.package),
            ("node cells", &mut self.node),
        ] {
            r.table(what, table, |r, cell| cell.restore(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_topology::{CoreId, NodeId, PackageId};

    #[test]
    fn apply_walks_the_unit_path() {
        let topo = Topology::build_cmp(2, 2, 2, 2); // 16 CPUs.
        let mut agg = LoadAggregates::new(&topo);
        // CPU 9 = thread 1 of core 1 (package 0, node 0).
        agg.apply(CpuId(9), 1);
        let core = agg.cell(GroupUnit::Core(topo.core_of(CpuId(9)))).unwrap();
        assert_eq!(core.nr_running, 1);
        assert_eq!(core.gen, 1);
        let pkg = agg
            .cell(GroupUnit::Package(topo.package_of(CpuId(9))))
            .unwrap();
        assert_eq!(pkg.nr_running, 1);
        let node = agg.cell(GroupUnit::Node(topo.node_of(CpuId(9)))).unwrap();
        assert_eq!(node.nr_running, 1);
        // Unrelated units untouched.
        assert_eq!(agg.cell(GroupUnit::Node(NodeId(1))).unwrap().nr_running, 0);
        assert_eq!(agg.cell(GroupUnit::Package(PackageId(3))).unwrap().gen, 0);
    }

    #[test]
    fn cpu_units_have_no_cell() {
        let topo = Topology::build(1, 1, 1);
        let agg = LoadAggregates::new(&topo);
        assert!(agg.cell(GroupUnit::Cpu(CpuId(0))).is_none());
    }

    #[test]
    fn capacities_default_to_cpu_counts_and_reweigh() {
        let topo = Topology::build_cmp(2, 2, 2, 1); // 8 CPUs, 4 per node.
        let mut agg = LoadAggregates::new(&topo);
        assert_eq!(agg.capacity(GroupUnit::Cpu(CpuId(0))), 1.0);
        assert_eq!(agg.capacity(GroupUnit::Node(NodeId(0))), 4.0);
        // Halve the capacity of node 1's CPUs (an efficiency cluster).
        let caps: Vec<f64> = (0..8).map(|c| if c >= 4 { 0.5 } else { 1.0 }).collect();
        agg.set_cpu_capacities(&caps);
        assert_eq!(agg.capacity(GroupUnit::Node(NodeId(0))), 4.0);
        assert_eq!(agg.capacity(GroupUnit::Node(NodeId(1))), 2.0);
        assert_eq!(agg.cpu_capacity(CpuId(7)), 0.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_capacity_rejected() {
        let topo = Topology::build(1, 2, 1);
        let mut agg = LoadAggregates::new(&topo);
        agg.set_cpu_capacities(&[1.0, 0.0]);
    }

    #[test]
    fn gen_only_bumps_when_asked() {
        let topo = Topology::build(1, 2, 1); // Two packages, one node.
        let mut agg = LoadAggregates::new(&topo);
        let gen = |agg: &LoadAggregates, unit| agg.cell(unit).unwrap().gen;
        // A profile-style change on CPU 1: its own core and the shared
        // node move, CPU 0's core does not.
        agg.apply(CpuId(1), 0);
        assert_eq!(gen(&agg, GroupUnit::Core(CoreId(0))), 0);
        assert_eq!(gen(&agg, GroupUnit::Core(CoreId(1))), 1);
        assert_eq!(gen(&agg, GroupUnit::Node(NodeId(0))), 1);
        agg.apply(CpuId(0), 1);
        assert_eq!(gen(&agg, GroupUnit::Core(CoreId(0))), 1);
        assert_eq!(gen(&agg, GroupUnit::Core(CoreId(1))), 1);
        assert_eq!(gen(&agg, GroupUnit::Node(NodeId(0))), 2);
    }
}
