//! Hot task migration (Section 4.5, Fig. 5).
//!
//! Energy balancing needs multiple tasks per queue to combine. When a
//! CPU runs a *single* hot task, the policy instead migrates that task
//! to a cooler CPU at the moment the hot CPU approaches the temperature
//! limit at which throttling would start. The destination must be
//! *considerably* cooler — a minimum thermal-power gap — which bounds
//! the migration frequency.
//!
//! The search for a destination walks the scheduler-domain hierarchy
//! bottom-up. For each domain, the coolest CPU that is cool enough is
//! examined (on hybrid machines, the coolest of the highest-capacity
//! ones): if it is idle, the hot task moves there; if it runs a single
//! *cool* task, the two tasks are exchanged (so no load imbalance
//! arises); otherwise the search ascends one level. If
//! the top level yields nothing, every CPU is hot and the task stays —
//! throttling is then unavoidable.
//!
//! SMT adaptations (Section 4.7): the trigger compares the *sum* of the
//! sibling thermal powers against the package budget (only physical
//! processors overheat), candidate coolness is judged per core, and
//! the sibling level is skipped when searching for a destination
//! (migrating to an SMT sibling does not cool anything).
//!
//! CMP adaptation (Section 7): on multi-core packages the destination
//! search naturally includes the *other cores of the same die* — the
//! core-level scheduler domain is walked before the node level, so a
//! cooler core one die away is preferred over a cooler package two
//! migrations' worth of cache misses away.

use crate::metrics::PowerState;
use ebs_sched::{MigrationReason, System, TaskId};
use ebs_topology::{CpuId, Topology};
use ebs_units::Watts;

/// Tunables of hot task migration.
#[derive(Clone, Copy, Debug)]
pub struct HotTaskConfig {
    /// Trigger fraction: act when the package thermal power reaches
    /// this fraction of the package maximum power ("comes closer to
    /// the CPU's maximum power than a predefined threshold").
    pub trigger_fraction: f64,
    /// Minimum gap between source and destination per-CPU thermal
    /// power, expressed as a fraction of the source CPU's maximum
    /// power ("the destination CPU must be considerably cooler ... a
    /// threshold by which the thermal powers must at least differ").
    pub min_gap_fraction: f64,
    /// A destination's running task counts as *cool* (exchangeable) if
    /// its profile is below the hot task's profile by this many watts.
    pub exchange_margin: Watts,
}

impl Default for HotTaskConfig {
    fn default() -> Self {
        HotTaskConfig {
            trigger_fraction: 0.95,
            min_gap_fraction: 0.20,
            exchange_margin: Watts(5.0),
        }
    }
}

/// The decision the migrator reached for a hot CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotMigration {
    /// The hot task moved to an idle CPU.
    ToIdle { task: TaskId, dest: CpuId },
    /// The hot task swapped places with a cool task.
    Exchanged {
        task: TaskId,
        dest: CpuId,
        cool_task: TaskId,
    },
}

/// Hot task migration policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotTaskMigrator {
    cfg: HotTaskConfig,
}

impl HotTaskMigrator {
    /// Creates a migrator with the given tunables.
    pub fn new(cfg: HotTaskConfig) -> Self {
        HotTaskMigrator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &HotTaskConfig {
        &self.cfg
    }

    /// Whether `cpu` currently satisfies the migration trigger: it runs
    /// exactly one task and its *package* thermal power has reached the
    /// trigger fraction of the package budget.
    pub fn triggered(&self, cpu: CpuId, sys: &System, power: &PowerState) -> bool {
        let rq = sys.rq(cpu);
        if rq.nr_running() != 1 || rq.current().is_none() {
            return false;
        }
        let topo = sys.topology();
        let pkg = topo.package_of(cpu);
        let thermal = power.thermal_power_sum(topo.cpus_of_package(pkg));
        let budget = power.max_power_sum(topo.cpus_of_package(pkg));
        thermal.0 >= budget.0 * self.cfg.trigger_fraction
    }

    /// Checks the trigger and, if it fires, searches for a destination
    /// and performs the migration. Returns what happened, if anything.
    ///
    /// Only CPUs satisfying the coolness gap compete; among them the
    /// search prefers the *highest-capacity* CPU (see
    /// [`System::cpu_capacity`]), then the coolest. A hot task is
    /// by construction a throughput-heavy one — parking it on a
    /// sufficiently cool efficiency core when a cool performance core
    /// also qualifies trades the thermal win for a throughput collapse.
    /// At unit capacity this is the paper's search: the coolest CPU
    /// qualifies exactly when any CPU does.
    ///
    /// The caller (the simulation engine) is responsible for context
    /// switching the CPUs whose running tasks were moved, as Linux's
    /// migration thread would.
    pub fn run(&self, cpu: CpuId, sys: &mut System, power: &PowerState) -> Option<HotMigration> {
        if !self.triggered(cpu, sys, power) {
            return None;
        }
        let hot_task = sys.current(cpu)?;
        let hot_profile = sys.task(hot_task).profile();
        let src_thermal = core_avg_thermal(sys.topology(), cpu, power);
        let min_gap = power.max_power(cpu) * self.cfg.min_gap_fraction;

        // Shared handle instead of a deep clone (the clone copied
        // every domain stack on each triggered check).
        let topo_arc = sys.topology_shared();
        let topo = &*topo_arc;
        for domain in topo.domains(cpu) {
            // Migrating to an SMT sibling does not cool anything: skip
            // shared-power domains.
            if domain.flags().share_cpu_power {
                continue;
            }
            // Search the domain (outside the source core) for CPUs
            // cool enough, judging coolness per core; rank them by
            // capacity (descending), then coolness, preferring idle
            // CPUs among a core's hardware threads. Total orders, so a
            // NaN thermal power on a degenerate machine skews instead
            // of panics.
            let candidate = domain
                .span()
                .filter(|&c| !topo.same_core(c, cpu))
                .map(|c| (c, sys.cpu_capacity(c), candidate_key(topo, sys, power, c)))
                .filter(|&(_, _, key)| src_thermal.0 - key.0 >= min_gap.0)
                .min_by(|(_, ca, ka), (_, cb, kb)| {
                    cb.total_cmp(ca)
                        .then(ka.0.total_cmp(&kb.0))
                        .then((ka.1, ka.2).cmp(&(kb.1, kb.2)))
                });
            let Some((dest, _, _)) = candidate else {
                continue; // Ascend one level.
            };
            // CPU idle?
            if sys.rq(dest).is_idle() {
                sys.migrate_running(cpu, dest, MigrationReason::HotTask)
                    .expect("triggered CPU has a running task");
                return Some(HotMigration::ToIdle {
                    task: hot_task,
                    dest,
                });
            }
            // CPU running (exactly) a cool task? Exchange the tasks so
            // no load imbalance arises.
            if sys.rq(dest).nr_running() == 1 {
                if let Some(cool_task) = sys.current(dest) {
                    if sys.task(cool_task).profile() + self.cfg.exchange_margin <= hot_profile {
                        sys.migrate_running(dest, cpu, MigrationReason::Exchange)
                            .expect("destination has a running task");
                        sys.migrate_running(cpu, dest, MigrationReason::HotTask)
                            .expect("source still has its running task");
                        return Some(HotMigration::Exchanged {
                            task: hot_task,
                            dest,
                            cool_task,
                        });
                    }
                }
            }
            // Neither idle nor running a cool task: ascend.
        }
        None
    }
}

/// Per-logical-CPU average thermal power of `cpu`'s core — the
/// coolness metric for destination candidates. Judging per core
/// prevents "cool" idle siblings of hot cores from attracting the
/// task. On single-core packages (the paper's machine) this equals
/// the package average.
fn core_avg_thermal(topo: &Topology, cpu: CpuId, power: &PowerState) -> Watts {
    power.thermal_power_sum(topo.cpus_of_core(topo.core_of(cpu))) / topo.threads_per_core() as f64
}

/// Sort key for destination candidates: core coolness first, then
/// prefer idle CPUs, then lower ids for determinism.
fn candidate_key(
    topo: &Topology,
    sys: &System,
    power: &PowerState,
    cpu: CpuId,
) -> (f64, usize, usize) {
    (
        core_avg_thermal(topo, cpu, power).0,
        sys.rq(cpu).nr_running(),
        cpu.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PowerState, PowerStateConfig};
    use ebs_sched::TaskConfig;
    use ebs_topology::Topology;
    use ebs_units::SimDuration;

    fn heat(power: &mut PowerState, cpu: CpuId, watts: f64) {
        for _ in 0..5_000 {
            power.observe(cpu, Watts(watts), SimDuration::from_millis(100));
        }
    }

    fn spawn_running(sys: &mut System, cpu: CpuId, profile: f64) -> TaskId {
        let id = sys.spawn(
            TaskConfig {
                initial_profile: Watts(profile),
                ..TaskConfig::default()
            },
            cpu,
        );
        sys.context_switch(cpu);
        id
    }

    fn setup_no_smt() -> (System, PowerState) {
        let sys = System::new(Topology::xseries445(false));
        let power = PowerState::uniform(8, Watts(47.0), PowerStateConfig::default());
        (sys, power)
    }

    #[test]
    fn trigger_requires_single_task_and_heat() {
        let (mut sys, mut power) = setup_no_smt();
        let m = HotTaskMigrator::default();
        // Idle CPU: no trigger.
        assert!(!m.triggered(CpuId(0), &sys, &power));
        let _hot = spawn_running(&mut sys, CpuId(0), 61.0);
        // Cool CPU: no trigger yet.
        assert!(!m.triggered(CpuId(0), &sys, &power));
        heat(&mut power, CpuId(0), 61.0);
        assert!(m.triggered(CpuId(0), &sys, &power));
        // Two tasks: energy balancing territory, not hot migration.
        sys.spawn(TaskConfig::default(), CpuId(0));
        assert!(!m.triggered(CpuId(0), &sys, &power));
    }

    #[test]
    fn migrates_to_coolest_idle_cpu() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        // CPU 2 is slightly warm, CPU 1 and 3 are cold.
        heat(&mut power, CpuId(2), 20.0);
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        match result {
            HotMigration::ToIdle { task, dest } => {
                assert_eq!(task, hot);
                // Coolest idle CPU on the same node, lowest id tie-break.
                assert_eq!(dest, CpuId(1));
            }
            other => panic!("expected idle migration, got {other:?}"),
        }
        assert_eq!(sys.task(hot).cpu(), CpuId(1));
        assert_eq!(sys.current(CpuId(0)), None);
        sys.validate();
    }

    #[test]
    fn prefers_same_node_destination() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        // Node-0 CPUs warm but eligible; node-1 CPUs ice cold.
        for c in 1..4 {
            heat(&mut power, CpuId(c), 25.0);
        }
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        if let HotMigration::ToIdle { dest, .. } = result {
            assert!(
                sys.topology().same_node(dest, CpuId(0)),
                "crossed node though a same-node CPU was cool enough"
            );
        }
        let _ = hot;
    }

    #[test]
    fn exchanges_with_cool_task_when_no_idle_cpu() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        // Every other CPU runs a cool task.
        let mut cool_ids = Vec::new();
        for c in 1..8 {
            cool_ids.push(spawn_running(&mut sys, CpuId(c), 30.0));
            heat(&mut power, CpuId(c), 30.0);
        }
        heat(&mut power, CpuId(0), 61.0);
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        match result {
            HotMigration::Exchanged {
                task,
                dest,
                cool_task,
            } => {
                assert_eq!(task, hot);
                assert_eq!(sys.task(hot).cpu(), dest);
                // The cool task came back to the hot CPU: no load
                // imbalance.
                assert_eq!(sys.task(cool_task).cpu(), CpuId(0));
                assert_eq!(sys.nr_running(CpuId(0)), 1);
                assert_eq!(sys.nr_running(dest), 1);
            }
            other => panic!("expected exchange, got {other:?}"),
        }
        sys.validate();
    }

    #[test]
    fn stays_put_when_all_cpus_hot() {
        // "If no suitable CPU is found after searching the top-level
        // domain, all of the system's CPUs are hot and the hot task
        // must remain" — throttling follows.
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        for c in 0..8 {
            heat(&mut power, CpuId(c), 61.0);
            if c > 0 {
                spawn_running(&mut sys, CpuId(c), 61.0);
            }
        }
        let m = HotTaskMigrator::default();
        assert!(m.run(CpuId(0), &mut sys, &power).is_none());
        assert_eq!(sys.task(hot).cpu(), CpuId(0));
    }

    #[test]
    fn gap_threshold_blocks_marginal_moves() {
        let (mut sys, mut power) = setup_no_smt();
        let _hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 47.0);
        // All other CPUs only slightly cooler than the source.
        for c in 1..8 {
            heat(&mut power, CpuId(c), 44.0);
        }
        let m = HotTaskMigrator::default();
        assert!(m.run(CpuId(0), &mut sys, &power).is_none());
        assert_eq!(sys.stats().migrations(), 0);
    }

    #[test]
    fn capacity_search_prefers_cool_performance_core() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        // On the source node CPU 1 is the coolest CPU, and CPU 2 also
        // satisfies the gap.
        heat(&mut power, CpuId(1), 2.0);
        heat(&mut power, CpuId(2), 10.0);
        for c in 3..8 {
            heat(&mut power, CpuId(c), 40.0);
        }
        let m = HotTaskMigrator::default();
        // Unit capacities: the coolest CPU wins.
        let mut unit_sys = sys.clone();
        let unit = m.run(CpuId(0), &mut unit_sys, &power).unwrap();
        assert_eq!(
            unit,
            HotMigration::ToIdle {
                task: hot,
                dest: CpuId(1)
            }
        );
        // Odd CPUs become efficiency cores: the search must prefer the
        // cool performance core over the cooler efficiency core.
        let caps: Vec<f64> = (0..8)
            .map(|c| if c % 2 == 1 { 0.55 } else { 1.0 })
            .collect();
        sys.set_cpu_capacities(&caps);
        let aware = m.run(CpuId(0), &mut sys, &power).unwrap();
        assert_eq!(
            aware,
            HotMigration::ToIdle {
                task: hot,
                dest: CpuId(2)
            },
            "hot task parked on an efficiency core"
        );
        sys.validate();
    }

    #[test]
    fn smt_trigger_uses_package_sum_and_skips_siblings() {
        let mut sys = System::new(Topology::xseries445(true));
        // Per-logical budget 20 W (40 W package, Section 6.4).
        let mut power = PowerState::uniform(16, Watts(20.0), PowerStateConfig::default());
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        // CPU 0 runs bitcnts (61 W), sibling CPU 8 idles at 6.8 W:
        // package sum ~67.8 W >= 0.95 * 40 W.
        heat(&mut power, CpuId(0), 61.0);
        heat(&mut power, CpuId(8), 6.8);
        let m = HotTaskMigrator::default();
        assert!(m.triggered(CpuId(0), &sys, &power));
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        match result {
            HotMigration::ToIdle { task, dest } => {
                assert_eq!(task, hot);
                // Never the sibling (CPU 8), and same node preferred.
                assert!(!sys.topology().same_package(dest, CpuId(0)));
                assert!(sys.topology().same_node(dest, CpuId(0)));
            }
            other => panic!("unexpected {other:?}"),
        }
        sys.validate();
    }

    #[test]
    fn smt_cool_sibling_of_hot_package_is_not_a_destination() {
        let mut sys = System::new(Topology::xseries445(true));
        let mut power = PowerState::uniform(16, Watts(20.0), PowerStateConfig::default());
        let _hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        heat(&mut power, CpuId(8), 6.8);
        // Package 1 (CPUs 1 and 9): CPU 1 runs hot, CPU 9 idles and
        // looks cold in isolation, but the *package* is hot.
        spawn_running(&mut sys, CpuId(1), 61.0);
        heat(&mut power, CpuId(1), 61.0);
        heat(&mut power, CpuId(9), 6.8);
        // All other packages cold.
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        if let HotMigration::ToIdle { dest, .. } = result {
            assert_ne!(sys.topology().package_of(dest), ebs_topology::PackageId(1));
        }
    }
}
