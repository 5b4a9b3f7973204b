//! The merged energy-and-load balancing algorithm (Section 4.4, Fig. 4).
//!
//! Energy balancing levels the power consumption of CPUs whose
//! runqueues hold multiple tasks by combining hot tasks with cool tasks
//! on each CPU. It is merged with load balancing into one algorithm so
//! the two never undo each other's migrations, and it is pull-only and
//! distributed like Linux's balancer. Both steps below move only
//! waiting tasks, so while none waits anywhere
//! ([`System::nr_queued`] is zero) a periodic pass only re-arms its
//! timers and a new-idle pass returns at once. The ratio cache is left
//! as it was; its entries equal a fresh scan, so no later decision
//! changes.
//!
//! Per domain level, bottom-up:
//!
//! 1. **Energy step** (skipped in domains whose CPUs share chip power,
//!    i.e. SMT siblings): find the CPU group with the highest average
//!    *runqueue power ratio*. If it is not the local group **and** the
//!    remote group is hotter in *both* metrics — thermal power ratio
//!    (slow; provides hysteresis) and runqueue power ratio (fast;
//!    forbids pulling an undue number of tasks) — pull a hot task from
//!    the hottest queue of that group, and push a cool task back if
//!    that created a load imbalance.
//! 2. **Load step**: find the group with the highest average runqueue
//!    length per unit of compute capacity and pull tasks from its
//!    busiest queue, choosing *hot* tasks if the remote group is hotter
//!    and *cool* tasks if it is cooler, so load balancing does not
//!    create energy imbalances.

use crate::metrics::{runqueue_power, runqueue_power_ratio, GroupRatioCache, PowerState};
use ebs_sched::{
    busiest_queued_cpu, BalanceOutcome, BalanceTimers, MigrationReason, System, TaskId,
};
use ebs_topology::{CpuId, SchedDomain};
use ebs_units::{SimTime, Watts};

/// Tunables of the merged balancer.
#[derive(Clone, Copy, Debug)]
pub struct EnergyBalanceConfig {
    /// Minimum `nr_running` difference before the load step moves
    /// tasks (as in the baseline balancer).
    pub min_imbalance: usize,
    /// The remote group must exceed the local group's *thermal power
    /// ratio* by this margin before the energy step acts. The thermal
    /// ratio moves with the RC time constant, so the margin translates
    /// into a minimum time between opposing decisions (hysteresis).
    pub thermal_ratio_margin: f64,
    /// The remote group must exceed the local group's *runqueue power
    /// ratio* by this margin. This metric reacts instantly to
    /// migrations and stops the balancer from over-pulling.
    pub runqueue_ratio_margin: f64,
    /// Whether the energy step runs at all; disabling it degrades the
    /// balancer to energy-*aware task selection* in the load step only
    /// (used by ablation experiments).
    pub energy_step_enabled: bool,
}

impl Default for EnergyBalanceConfig {
    /// Margins calibrated on the Section 6.1 workload so that the
    /// balancer converges with a migration rate in the paper's range
    /// (a few dozen per 15 minutes) instead of chasing every phase
    /// swing of openssl/bzip2. Smaller margins balance tighter at the
    /// cost of many more migrations; the ablation experiment
    /// quantifies the trade-off.
    fn default() -> Self {
        EnergyBalanceConfig {
            min_imbalance: 2,
            thermal_ratio_margin: 0.10,
            runqueue_ratio_margin: 0.12,
            energy_step_enabled: true,
        }
    }
}

/// Per-CPU periodic state of the merged balancer.
#[derive(Clone, Debug)]
pub struct EnergyAwareBalancer {
    cfg: EnergyBalanceConfig,
    timers: BalanceTimers,
    /// Memoised group runqueue-power ratios (see [`GroupRatioCache`]).
    ratios: GroupRatioCache,
}

impl EnergyAwareBalancer {
    /// Creates a balancer for systems shaped like `sys`.
    pub fn new(sys: &System, cfg: EnergyBalanceConfig) -> Self {
        EnergyAwareBalancer {
            cfg,
            timers: BalanceTimers::new(sys.topology()),
            ratios: GroupRatioCache::new(sys.topology()),
        }
    }

    /// The earliest instant any CPU's domain level is due for a
    /// periodic balancing pass (see [`BalanceTimers::next_due`]).
    pub fn next_due(&self) -> SimTime {
        self.timers.next_due()
    }

    /// Runs the merged algorithm for `cpu` on every domain level whose
    /// balancing interval elapsed. Both steps pull only waiting tasks,
    /// so with none anywhere the due levels are only re-armed.
    pub fn run(&mut self, cpu: CpuId, sys: &mut System, power: &PowerState) -> BalanceOutcome {
        let now = sys.now();
        if sys.nr_queued() == 0 {
            self.timers.skip_due(cpu, sys.topology().domains(cpu), now);
            return BalanceOutcome::default();
        }
        let mut outcome = BalanceOutcome::default();
        // Shared topology handle: iterating the domain stack while
        // mutating the system, without cloning a domain (whose group
        // lists span O(CPUs) at the top level) every pass.
        let topo = sys.topology_shared();
        for domain in self.timers.due(cpu, topo.domains(cpu), now) {
            if self.cfg.energy_step_enabled && !domain.flags().share_cpu_power {
                outcome.pulled += energy_step(sys, cpu, domain, power, &self.cfg, &mut self.ratios);
            }
            outcome.pulled += load_step(sys, cpu, domain, power, &self.cfg);
        }
        outcome
    }

    /// New-idle balancing, identical to the baseline's but choosing
    /// tasks energy-aware: when `cpu` just went idle, pull the task
    /// whose profile best matches what this CPU can afford. Returns at
    /// once when no task waits anywhere.
    pub fn newidle(&mut self, cpu: CpuId, sys: &mut System, power: &PowerState) -> BalanceOutcome {
        if sys.nr_queued() == 0 {
            return BalanceOutcome::default();
        }
        let topo = sys.topology_shared();
        for domain in topo.domains(cpu) {
            let busiest = busiest_queued_cpu(sys, domain, cpu);
            if let Some(src) = busiest {
                if sys.rq(src).nr_queued() >= 1 && sys.nr_running(src) >= 2 {
                    // Pull hot tasks onto cool CPUs and vice versa.
                    let hottest_first = power.thermal_ratio(cpu) <= power.thermal_ratio(src);
                    let pulled = pull_sorted(
                        sys,
                        src,
                        cpu,
                        1,
                        MigrationReason::LoadBalance,
                        hottest_first,
                    );
                    if pulled > 0 {
                        return BalanceOutcome { pulled };
                    }
                }
            }
        }
        BalanceOutcome::default()
    }
}

/// The energy balancing step of Fig. 4 (left column). Returns tasks
/// pulled.
fn energy_step(
    sys: &mut System,
    cpu: CpuId,
    domain: &SchedDomain,
    power: &PowerState,
    cfg: &EnergyBalanceConfig,
    ratios: &mut GroupRatioCache,
) -> usize {
    let Some(local_idx) = domain.local_group_index(cpu) else {
        return 0;
    };
    // Group ratios memoised against the aggregate tree's generations:
    // amortised O(1) per group, bitwise equal to a fresh scan.
    let mut group_ratio =
        |sys: &System, i: usize| ratios.group_ratio(sys, &domain.groups()[i], power);
    // Search the CPU group with the highest average power ratio.
    let Some((hot_idx, hot_rq_ratio)) = (0..domain.groups().len())
        .map(|i| (i, group_ratio(sys, i)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return 0;
    };
    // Group contains local CPU? Then there is nothing to pull here.
    if hot_idx == local_idx {
        return 0;
    }
    // Hysteresis: the remote group must be hotter in *both* metrics.
    let local_rq_ratio = group_ratio(sys, local_idx);
    let local_group = &domain.groups()[local_idx];
    let hot_group = &domain.groups()[hot_idx];
    if hot_rq_ratio <= local_rq_ratio + cfg.runqueue_ratio_margin {
        return 0;
    }
    if power.group_thermal_ratio(hot_group)
        <= power.group_thermal_ratio(local_group) + cfg.thermal_ratio_margin
    {
        return 0;
    }
    // Search the queue with the highest power ratio within the group.
    let Some(src) = hot_group.cpus().iter().copied().max_by(|&a, &b| {
        runqueue_power_ratio(sys, a, power).total_cmp(&runqueue_power_ratio(sys, b, power))
    }) else {
        return 0;
    };
    // The source queue itself must be hotter than the local queue in
    // both metrics as well.
    if runqueue_power_ratio(sys, src, power)
        <= runqueue_power_ratio(sys, cpu, power) + cfg.runqueue_ratio_margin
        || power.thermal_ratio(src) <= power.thermal_ratio(cpu) + cfg.thermal_ratio_margin
    {
        return 0;
    }
    // Migrate hot task(s) to the local CPU: the hottest waiting task
    // that is actually hotter than what the local queue averages —
    // otherwise the move would not transport heat.
    let local_power = runqueue_power(sys, cpu, power.idle_power());
    let Some(hot_task) = hottest_candidate(sys, src, |p| p > local_power) else {
        return 0;
    };
    if sys
        .migrate_queued(hot_task, cpu, MigrationReason::EnergyBalance)
        .is_err()
    {
        return 0;
    }
    let mut pulled = 1;
    // Created a load imbalance? Migrate cool task(s) back in exchange.
    if sys.nr_running(cpu) > sys.nr_running(src) {
        if let Some(cool_task) = coolest_candidate(sys, cpu, |id, p| {
            id != hot_task && p < sys.task(hot_task).profile()
        }) {
            if sys
                .migrate_queued(cool_task, src, MigrationReason::Exchange)
                .is_ok()
            {
                pulled += 1;
            }
        }
    }
    pulled
}

/// The load balancing step of Fig. 4 (right column). Returns tasks
/// pulled.
///
/// Loads are normalized by class-weighted compute capacity (see
/// [`System::cpu_capacity`]): the busiest group is the one with the
/// highest `nr_running / capacity`, and the number of tasks to move
/// solves the effective-load equalisation
/// `src_eff − n/c_src = dst_eff + n/c_dst`. At unit capacity this is
/// exactly the integer halving of `src − dst`, gated on
/// `src − dst ≥ min_imbalance`.
fn load_step(
    sys: &mut System,
    cpu: CpuId,
    domain: &SchedDomain,
    power: &PowerState,
    cfg: &EnergyBalanceConfig,
) -> usize {
    let Some(local_idx) = domain.local_group_index(cpu) else {
        return 0;
    };
    let Some((busiest_idx, _)) = ebs_sched::find_busiest_group(sys, domain, local_idx) else {
        return 0;
    };
    let busiest_group = &domain.groups()[busiest_idx];
    let Some(src) = ebs_sched::busiest_queue_in_group(sys, busiest_group) else {
        return 0;
    };
    let c_src = sys.cpu_capacity(src);
    let c_dst = sys.cpu_capacity(cpu);
    let src_eff = sys.nr_running(src) as f64 / c_src;
    let dst_eff = sys.nr_running(cpu) as f64 / c_dst;
    // Moving n tasks shifts the effective loads by n/c each way;
    // equalisation at n = Δeff / (1/c_src + 1/c_dst).
    let n_f = (src_eff - dst_eff) / (1.0 / c_src + 1.0 / c_dst);
    if 2.0 * n_f < cfg.min_imbalance as f64 {
        return 0;
    }
    let n_move = (n_f.floor() as usize).min(sys.rq(src).nr_queued());
    if n_move == 0 {
        return 0;
    }
    // Move hot tasks if the remote group is hotter, cool tasks if it is
    // cooler, so the load step does not create energy imbalances. In
    // shared-power (SMT) domains the energy restrictions do not apply;
    // thermal ratios of siblings are equal anyway, making the order
    // irrelevant there.
    let hottest_first = power.group_thermal_ratio(busiest_group)
        >= power.group_thermal_ratio(&domain.groups()[local_idx]);
    pull_sorted(
        sys,
        src,
        cpu,
        n_move,
        MigrationReason::LoadBalance,
        hottest_first,
    )
}

/// The hottest waiting (non-running) task on `src` whose profile
/// satisfies `pred`.
fn hottest_candidate<F>(sys: &System, src: CpuId, pred: F) -> Option<TaskId>
where
    F: Fn(Watts) -> bool,
{
    sys.rq(src)
        .iter_migration_candidates()
        .filter(|&id| pred(sys.task(id).profile()))
        .max_by(|&a, &b| sys.task(a).profile().0.total_cmp(&sys.task(b).profile().0))
}

/// The coolest waiting task on `src` satisfying `pred`.
fn coolest_candidate<F>(sys: &System, src: CpuId, pred: F) -> Option<TaskId>
where
    F: Fn(TaskId, Watts) -> bool,
{
    sys.rq(src)
        .iter_migration_candidates()
        .filter(|&id| pred(id, sys.task(id).profile()))
        .min_by(|&a, &b| sys.task(a).profile().0.total_cmp(&sys.task(b).profile().0))
}

/// Pulls up to `n` waiting tasks from `src` to `dst`, hottest or
/// coolest profiles first.
fn pull_sorted(
    sys: &mut System,
    src: CpuId,
    dst: CpuId,
    n: usize,
    reason: MigrationReason,
    hottest_first: bool,
) -> usize {
    if src == dst || n == 0 {
        return 0;
    }
    let mut candidates: Vec<TaskId> = sys.rq(src).iter_migration_candidates().collect();
    candidates.sort_by(|&a, &b| {
        let pa = sys.task(a).profile();
        let pb = sys.task(b).profile();
        let ord = pa.0.total_cmp(&pb.0);
        if hottest_first {
            ord.reverse()
        } else {
            ord
        }
    });
    let mut moved = 0;
    for id in candidates {
        if moved == n {
            break;
        }
        if sys.migrate_queued(id, dst, reason).is_ok() {
            moved += 1;
        }
    }
    moved
}

impl ebs_store::Snapshot for EnergyAwareBalancer {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The ratio cache is never serialized: its entries are bitwise
        // identical to a fresh member-order scan, so a restored
        // balancer simply starts all-stale and recomputes on demand.
        self.timers.save(w);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.timers.restore(r)?;
        self.ratios.mark_all_stale();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PowerState, PowerStateConfig};
    use ebs_sched::TaskConfig;
    use ebs_topology::Topology;
    use ebs_units::SimDuration;

    fn setup() -> (System, PowerState) {
        let sys = System::new(Topology::xseries445(false));
        let power = PowerState::uniform(8, Watts(60.0), PowerStateConfig::default());
        (sys, power)
    }

    fn spawn(sys: &mut System, cpu: CpuId, profile: f64) -> TaskId {
        sys.spawn(
            TaskConfig {
                initial_profile: Watts(profile),
                ..TaskConfig::default()
            },
            cpu,
        )
    }

    /// Drives the thermal power of a CPU to a steady value.
    fn heat(power: &mut PowerState, cpu: CpuId, watts: f64) {
        for _ in 0..5_000 {
            power.observe(cpu, Watts(watts), SimDuration::from_millis(100));
        }
    }

    #[test]
    fn pulls_hot_task_from_hot_group() {
        let (mut sys, mut power) = setup();
        // CPU 1 runs two hot tasks and is hot; CPU 0 runs two cool
        // tasks and is cool. Same load: the stock balancer would do
        // nothing.
        let hot_a = spawn(&mut sys, CpuId(1), 61.0);
        let _hot_b = spawn(&mut sys, CpuId(1), 60.0);
        let _cool_a = spawn(&mut sys, CpuId(0), 38.0);
        let _cool_b = spawn(&mut sys, CpuId(0), 37.0);
        heat(&mut power, CpuId(1), 60.0);
        heat(&mut power, CpuId(0), 38.0);

        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        let outcome = bal.run(CpuId(0), &mut sys, &power);
        assert!(outcome.pulled >= 1, "energy step did not act");
        // The hottest waiting task moved to CPU 0, and a cool task
        // moved back: load stays equal.
        assert_eq!(sys.task(hot_a).cpu(), CpuId(0));
        assert_eq!(sys.nr_running(CpuId(0)), 2);
        assert_eq!(sys.nr_running(CpuId(1)), 2);
        assert!(sys.stats().migrations_for(MigrationReason::EnergyBalance) >= 1);
        assert!(sys.stats().migrations_for(MigrationReason::Exchange) >= 1);
        sys.validate();
    }

    #[test]
    fn equal_heat_means_no_action() {
        let (mut sys, mut power) = setup();
        for c in 0..8 {
            spawn(&mut sys, CpuId(c), 50.0);
            spawn(&mut sys, CpuId(c), 50.0);
            heat(&mut power, CpuId(c), 50.0);
        }
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        for c in 0..8 {
            assert_eq!(bal.run(CpuId(c), &mut sys, &power).pulled, 0);
        }
        assert_eq!(sys.stats().migrations(), 0);
    }

    #[test]
    fn thermal_hysteresis_blocks_fresh_imbalance() {
        // Runqueue power says CPU 1 is hotter, but its thermal power
        // has not caught up yet (e.g. the hot tasks just arrived
        // there): the energy step must wait. This is the ping-pong
        // guard.
        let (mut sys, mut power) = setup();
        spawn(&mut sys, CpuId(1), 61.0);
        spawn(&mut sys, CpuId(1), 60.0);
        spawn(&mut sys, CpuId(0), 38.0);
        spawn(&mut sys, CpuId(0), 37.0);
        // Both CPUs at the same (cool) thermal power.
        heat(&mut power, CpuId(0), 30.0);
        heat(&mut power, CpuId(1), 30.0);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        assert_eq!(bal.run(CpuId(0), &mut sys, &power).pulled, 0);
    }

    #[test]
    fn runqueue_ratio_guard_blocks_overpull() {
        // Thermal power says CPU 1 is hot, but its runqueue is already
        // cooler than ours (the hot task has left): pulling would
        // over-balance — exactly the "replaced by an imbalance in the
        // opposite direction" failure of temperature-only balancing.
        let (mut sys, mut power) = setup();
        spawn(&mut sys, CpuId(1), 38.0);
        spawn(&mut sys, CpuId(1), 37.0);
        spawn(&mut sys, CpuId(0), 61.0);
        spawn(&mut sys, CpuId(0), 60.0);
        heat(&mut power, CpuId(1), 60.0); // Still hot from the past.
        heat(&mut power, CpuId(0), 38.0);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        assert_eq!(bal.run(CpuId(0), &mut sys, &power).pulled, 0);
        assert_eq!(sys.stats().migrations(), 0);
    }

    #[test]
    fn energy_step_does_not_create_load_imbalance() {
        let (mut sys, mut power) = setup();
        // Hot CPU with 3 tasks, cool CPU with 2: pulling one hot task
        // equalises load (3->2, 2->3 would overshoot; exchange brings
        // it back).
        spawn(&mut sys, CpuId(1), 61.0);
        spawn(&mut sys, CpuId(1), 60.0);
        spawn(&mut sys, CpuId(1), 59.0);
        spawn(&mut sys, CpuId(0), 38.0);
        spawn(&mut sys, CpuId(0), 37.0);
        heat(&mut power, CpuId(1), 60.0);
        heat(&mut power, CpuId(0), 38.0);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        bal.run(CpuId(0), &mut sys, &power);
        let l0 = sys.nr_running(CpuId(0));
        let l1 = sys.nr_running(CpuId(1));
        assert!(
            (l0 as i64 - l1 as i64).abs() <= 1,
            "energy step created load imbalance: {l0} vs {l1}"
        );
        sys.validate();
    }

    #[test]
    fn load_step_moves_cool_tasks_to_hot_cpu() {
        let (mut sys, mut power) = setup();
        // CPU 1 is overloaded with mixed tasks; CPU 0 is *hotter*
        // thermally. The load step must prefer pulling the cool tasks.
        let _h = spawn(&mut sys, CpuId(1), 61.0);
        let cool = spawn(&mut sys, CpuId(1), 30.0);
        spawn(&mut sys, CpuId(1), 45.0);
        spawn(&mut sys, CpuId(1), 44.0);
        heat(&mut power, CpuId(0), 55.0);
        heat(&mut power, CpuId(1), 40.0);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        let outcome = bal.run(CpuId(0), &mut sys, &power);
        assert!(outcome.pulled >= 1);
        // The coolest task is among those moved.
        assert_eq!(sys.task(cool).cpu(), CpuId(0));
        sys.validate();
    }

    #[test]
    fn newidle_prefers_hot_task_for_cool_cpu() {
        let (mut sys, mut power) = setup();
        let hot = spawn(&mut sys, CpuId(1), 61.0);
        let _cool = spawn(&mut sys, CpuId(1), 30.0);
        spawn(&mut sys, CpuId(1), 45.0);
        heat(&mut power, CpuId(1), 50.0);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        let outcome = bal.newidle(CpuId(0), &mut sys, &power);
        assert_eq!(outcome.pulled, 1);
        assert_eq!(sys.task(hot).cpu(), CpuId(0));
        sys.validate();
    }

    #[test]
    fn disabled_energy_step_skips_pulls() {
        let (mut sys, mut power) = setup();
        spawn(&mut sys, CpuId(1), 61.0);
        spawn(&mut sys, CpuId(1), 60.0);
        spawn(&mut sys, CpuId(0), 38.0);
        spawn(&mut sys, CpuId(0), 37.0);
        heat(&mut power, CpuId(1), 60.0);
        heat(&mut power, CpuId(0), 38.0);
        let cfg = EnergyBalanceConfig {
            energy_step_enabled: false,
            ..EnergyBalanceConfig::default()
        };
        let mut bal = EnergyAwareBalancer::new(&sys, cfg);
        assert_eq!(bal.run(CpuId(0), &mut sys, &power).pulled, 0);
        assert_eq!(sys.stats().migrations(), 0);
    }

    #[test]
    fn capacity_normalized_load_step_drains_efficiency_cores() {
        // Equal raw load everywhere: 4 tasks per CPU.
        let (mut sys, mut power) = setup();
        for c in 0..8 {
            for _ in 0..4 {
                spawn(&mut sys, CpuId(c), 45.0);
            }
            heat(&mut power, CpuId(c), 45.0);
        }
        // Unit capacities: nothing to do.
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        let pulled: usize = (0..8)
            .map(|c| bal.run(CpuId(c), &mut sys, &power).pulled)
            .sum();
        assert_eq!(pulled, 0);
        // CPUs 4..8 become efficiency cores at 0.55 capacity, i.e.
        // 4/0.55 ≈ 7.3 tasks' worth of effective load each.
        let caps: Vec<f64> = (0..8).map(|c| if c >= 4 { 0.55 } else { 1.0 }).collect();
        sys.set_cpu_capacities(&caps);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        let pulled: usize = (0..8)
            .map(|c| bal.run(CpuId(c), &mut sys, &power).pulled)
            .sum();
        assert!(pulled >= 1, "capacity-normalized load step did not act");
        // Tasks flowed off the low-capacity CPUs, never onto them.
        let eff_load: usize = (4..8).map(|c| sys.nr_running(CpuId(c))).sum();
        assert!(eff_load < 16, "efficiency cores kept their full load");
        sys.validate();
    }

    #[test]
    fn smt_domain_skips_energy_step() {
        // With SMT, level 0 shares chip power; the energy step must not
        // move tasks between siblings even under a blatant "imbalance".
        let mut sys = System::new(Topology::xseries445(true));
        let power = {
            let mut p = PowerState::uniform(16, Watts(20.0), PowerStateConfig::default());
            heat(&mut p, CpuId(0), 20.0);
            p
        };
        spawn(&mut sys, CpuId(0), 61.0);
        spawn(&mut sys, CpuId(0), 60.0);
        spawn(&mut sys, CpuId(8), 10.0);
        spawn(&mut sys, CpuId(8), 11.0);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        // Balance only the sibling (level 0 is its first domain).
        let before = sys.stats().migrations();
        bal.run(CpuId(8), &mut sys, &power);
        // Any migrations that happened must not be EnergyBalance ones
        // between siblings (the load is equal, so no load moves
        // either).
        assert_eq!(sys.stats().migrations(), before);
    }
}
