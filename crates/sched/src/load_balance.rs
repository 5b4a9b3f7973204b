//! The stock hierarchical load balancer (the paper's baseline).
//!
//! Mirrors the Linux 2.6 algorithm at the granularity the paper cares
//! about: each CPU periodically walks its domain hierarchy bottom-up;
//! within a domain it finds the busiest CPU group, and if that group is
//! busier than the local one by a meaningful margin, it *pulls* tasks
//! from the busiest runqueue of that group into the local runqueue.
//! Balancing is pull-only — push imbalances resolve when the balancer
//! runs on the remote CPU (Section 4.4 describes how the energy
//! balancer inherits this structure). Only a waiting task can be
//! pulled, so while no task waits anywhere ([`System::nr_queued`] is
//! zero) a periodic pass only re-arms its timers and a new-idle pass
//! returns at once.
//!
//! The group/queue search helpers are public: `ebs-core` reuses them to
//! implement the merged energy-and-load balancing algorithm of Fig. 4.

use crate::system::{MigrationReason, System};
use crate::task::TaskId;
use ebs_topology::{CpuGroup, CpuId, SchedDomain, Topology};
use ebs_units::SimTime;
use std::cell::Cell;

/// Tunables of the baseline balancer.
#[derive(Clone, Copy, Debug)]
pub struct LoadBalancerConfig {
    /// Minimum `nr_running` difference between the busiest and the
    /// local runqueue before tasks are moved. Linux moves half the
    /// difference and therefore effectively requires a difference of
    /// two; the same default keeps the baseline as quiet as the paper's
    /// (3.3 migrations in 15 minutes).
    pub min_imbalance: usize,
}

impl Default for LoadBalancerConfig {
    fn default() -> Self {
        LoadBalancerConfig { min_imbalance: 2 }
    }
}

/// What a balancing pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceOutcome {
    /// Tasks pulled to the balancing CPU.
    pub pulled: usize,
}

/// When each CPU's domain levels are next due for a periodic
/// balancing pass — the timer table both balancers embed.
#[derive(Clone, Debug)]
pub struct BalanceTimers {
    /// `next[cpu][level]`: when that domain level is due.
    next: Vec<Vec<SimTime>>,
    /// The minimum of `next`, or `None` once a re-arm or a restore may
    /// have moved it. [`BalanceTimers::next_due`] rescans only then,
    /// so the engine's every-step read costs O(1) between balancing
    /// passes.
    earliest: Cell<Option<SimTime>>,
}

impl BalanceTimers {
    /// Every level of every CPU of `topo` due at once.
    pub fn new(topo: &Topology) -> Self {
        let next = topo
            .cpu_ids()
            .map(|c| vec![SimTime::ZERO; topo.domains(c).len()])
            .collect();
        BalanceTimers {
            next,
            earliest: Cell::new(None),
        }
    }

    /// The earliest instant any CPU's domain level is due. The
    /// variable-stride engine bounds its steps by this so balancing
    /// runs on schedule, and skips both balancers on any step that
    /// ends before it.
    #[inline]
    pub fn next_due(&self) -> SimTime {
        let due = self.earliest.get().unwrap_or_else(|| {
            let due = self.scan();
            self.earliest.set(Some(due));
            due
        });
        debug_assert_eq!(due, self.scan(), "stale earliest balance due");
        due
    }

    /// The minimum over every CPU's levels, by a full scan.
    fn scan(&self) -> SimTime {
        self.next
            .iter()
            .flatten()
            .copied()
            .min()
            // No domain levels at all (degenerate one-CPU machines):
            // never due, not "due now" — ZERO here would floor a
            // variable-stride engine to tick steps forever.
            .unwrap_or(SimTime::from_micros(u64::MAX))
    }

    /// The levels of `cpu`'s domain stack `domains` due at `now`,
    /// bottom-up; each is re-armed one balance interval later as the
    /// iterator reaches it. Only `cpu`'s own levels move, so a step's
    /// pass over every CPU finds due exactly the levels that were due
    /// before it started.
    #[inline]
    pub fn due<'a>(
        &'a mut self,
        cpu: CpuId,
        domains: &'a [SchedDomain],
        now: SimTime,
    ) -> impl Iterator<Item = &'a SchedDomain> + 'a {
        let BalanceTimers { next, earliest } = self;
        next[cpu.0]
            .iter_mut()
            .zip(domains)
            .filter_map(move |(next, domain)| {
                if now < *next {
                    return None;
                }
                *next = now + domain.balance_interval();
                earliest.set(None);
                Some(domain)
            })
    }

    /// Re-arms exactly the levels [`BalanceTimers::due`] would yield,
    /// for a pass that has nothing to do at any of them.
    pub fn skip_due(&mut self, cpu: CpuId, domains: &[SchedDomain], now: SimTime) {
        self.due(cpu, domains, now).for_each(drop);
    }
}

impl ebs_store::Snapshot for BalanceTimers {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.seq(&self.next, |w, levels| {
            w.seq(levels, |w, &t| w.time(t));
        });
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.earliest.set(None);
        r.table("balancer CPUs", &mut self.next, |r, levels| {
            r.table("balancer levels", levels, |r, t| r.time().map(|v| *t = v))
        })
    }
}

/// Periodic, per-CPU hierarchical load balancing state.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    cfg: LoadBalancerConfig,
    timers: BalanceTimers,
}

impl LoadBalancer {
    /// Creates a balancer for systems shaped like `sys`.
    pub fn new(sys: &System, cfg: LoadBalancerConfig) -> Self {
        LoadBalancer {
            cfg,
            timers: BalanceTimers::new(sys.topology()),
        }
    }

    /// The earliest instant any CPU's domain level is due for a
    /// periodic balancing pass (see [`BalanceTimers::next_due`]).
    pub fn next_due(&self) -> SimTime {
        self.timers.next_due()
    }

    /// Runs periodic balancing for `cpu`: every domain level whose
    /// interval elapsed gets one balancing attempt. With no task
    /// waiting anywhere there is nothing to pull, so the due levels
    /// are only re-armed.
    pub fn run(&mut self, cpu: CpuId, sys: &mut System) -> BalanceOutcome {
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
            outcome.pulled += balance_domain(sys, cpu, domain, &self.cfg);
        }
        outcome
    }

    /// New-idle balancing: called when `cpu` just went idle; pulls one
    /// task from the nearest overloaded queue so the CPU does not sit
    /// idle while others queue (work conservation). Returns at once
    /// when no task waits anywhere.
    pub fn newidle(&mut self, cpu: CpuId, sys: &mut System) -> BalanceOutcome {
        debug_assert!(sys.rq(cpu).is_idle(), "newidle on a busy CPU");
        if sys.nr_queued() == 0 {
            return BalanceOutcome::default();
        }
        let topo = sys.topology_shared();
        for domain in topo.domains(cpu) {
            // Pull from the busiest queue in the whole domain span that
            // has waiting tasks.
            let busiest = busiest_queued_cpu(sys, domain, cpu);
            if let Some(src) = busiest {
                if sys.rq(src).nr_queued() >= 1 && sys.nr_running(src) >= 2 {
                    let pulled =
                        pull_tasks(sys, src, cpu, 1, MigrationReason::LoadBalance, |_, _| true);
                    if pulled > 0 {
                        return BalanceOutcome { pulled };
                    }
                }
            }
        }
        BalanceOutcome::default()
    }
}

/// One balancing attempt within one domain, pulling towards `cpu`.
/// Returns the number of tasks moved.
pub fn balance_domain(
    sys: &mut System,
    cpu: CpuId,
    domain: &SchedDomain,
    cfg: &LoadBalancerConfig,
) -> usize {
    let Some(local_idx) = domain.local_group_index(cpu) else {
        return 0;
    };
    let Some((busiest_idx, _)) = find_busiest_group(sys, domain, local_idx) else {
        return 0;
    };
    let Some(src) = busiest_queue_in_group(sys, &domain.groups()[busiest_idx]) else {
        return 0;
    };
    let src_load = sys.nr_running(src);
    let dst_load = sys.nr_running(cpu);
    if src_load < dst_load + cfg.min_imbalance {
        return 0;
    }
    let n_move = (src_load - dst_load) / 2;
    if n_move == 0 {
        return 0;
    }
    pull_tasks(
        sys,
        src,
        cpu,
        n_move,
        MigrationReason::LoadBalance,
        |_, _| true,
    )
}

/// Finds the group with the highest load, excluding the local group.
/// Load is `nr_running` per unit of class-weighted compute capacity
/// ([`group_effective_load`]), as Linux 2.6 scales group load by
/// `cpu_power`: an efficiency cluster saturates at fewer tasks than a
/// performance cluster of the same width. Returns `None` when no
/// remote group is busier than the local one.
///
/// Every CPU weighs 1.0 unless class capacities were installed (see
/// [`System::set_cpu_capacities`]); a sum of ones is an exact integer,
/// so on single-class machines the load is exactly the per-CPU average
/// runqueue length. Counts and capacities come from the incremental
/// aggregate tree: O(1) per group instead of a scan of its runqueues,
/// which turns a balancing pass over a domain of `g` groups spanning
/// `n` CPUs from O(n) into O(g). The counts are exact integers, so the
/// result is bitwise what a scan of the runqueues would give
/// ([`System::validate`] recomputes every unit from scratch).
pub fn find_busiest_group(
    sys: &System,
    domain: &SchedDomain,
    local_idx: usize,
) -> Option<(usize, f64)> {
    let groups = domain.groups();
    let local_load = group_effective_load(sys, &groups[local_idx]);
    let mut best: Option<(usize, f64)> = None;
    for (i, group) in groups.iter().enumerate() {
        if i == local_idx {
            continue;
        }
        let load = group_effective_load(sys, group);
        if load > local_load && best.is_none_or(|(_, b)| load > b) {
            best = Some((i, load));
        }
    }
    best
}

/// Average `nr_running` per unit of class-weighted capacity over a
/// group (0 for a degenerate empty group, rather than a NaN that would
/// poison comparisons).
pub fn group_effective_load(sys: &System, group: &CpuGroup) -> f64 {
    if group.is_empty() {
        return 0.0;
    }
    sys.group_nr_running(group) as f64 / sys.group_capacity(group)
}

/// The CPU with the most *queued* (waiting) tasks in the domain's
/// span, `exclude` excluded; `None` when every queue is empty. Ties
/// resolve to the last CPU in span order.
pub fn busiest_queued_cpu(sys: &System, domain: &SchedDomain, exclude: CpuId) -> Option<CpuId> {
    domain
        .span()
        .filter(|&c| c != exclude)
        .map(|c| (sys.rq(c).nr_queued(), c))
        .filter(|&(queued, _)| queued > 0)
        .max_by_key(|&(queued, _)| queued)
        .map(|(_, c)| c)
}

/// The queue with the most runnable tasks in a group; `None` if every
/// queue in the group is idle.
pub fn busiest_queue_in_group(sys: &System, group: &CpuGroup) -> Option<CpuId> {
    group
        .cpus()
        .iter()
        .copied()
        .max_by_key(|&c| sys.nr_running(c))
        .filter(|&c| sys.nr_running(c) > 0)
}

/// Pulls up to `n` queued tasks from `src` to `dst`, preferring tasks
/// that will not run soon (the reverse of run order; see
/// [`crate::RunQueue::iter_migration_candidates`]). `filter` lets the
/// caller restrict the choice, e.g. to hot or cool tasks when the
/// energy balancer avoids creating energy imbalances.
///
/// Returns the number of tasks actually moved.
pub fn pull_tasks<F>(
    sys: &mut System,
    src: CpuId,
    dst: CpuId,
    n: usize,
    reason: MigrationReason,
    mut filter: F,
) -> usize
where
    F: FnMut(&System, TaskId) -> bool,
{
    if src == dst || n == 0 {
        return 0;
    }
    let candidates: Vec<TaskId> = sys.rq(src).iter_migration_candidates().collect();
    let mut moved = 0;
    for id in candidates {
        if moved == n {
            break;
        }
        if !filter(sys, id) {
            continue;
        }
        if sys.migrate_queued(id, dst, reason).is_ok() {
            moved += 1;
        }
    }
    moved
}

/// The CPU with the fewest runnable tasks (ties broken by lowest id) —
/// the baseline placement for newly spawned tasks. `None` only for a
/// degenerate CPU-less system, so callers skip instead of panicking.
pub fn idlest_cpu(sys: &System) -> Option<CpuId> {
    sys.topology()
        .cpu_ids()
        .min_by_key(|&c| (sys.nr_running(c), c.0))
}

impl ebs_store::Snapshot for LoadBalancer {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        self.timers.save(w);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.timers.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use ebs_topology::Topology;

    fn system() -> System {
        System::new(Topology::xseries445(false))
    }

    fn spawn_n(sys: &mut System, cpu: CpuId, n: usize) -> Vec<TaskId> {
        (0..n)
            .map(|_| sys.spawn(TaskConfig::default(), cpu))
            .collect()
    }

    #[test]
    fn balanced_system_stays_quiet() {
        let mut sys = system();
        for c in 0..8 {
            spawn_n(&mut sys, CpuId(c), 2);
        }
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        for _ in 0..10 {
            for c in 0..8 {
                lb.run(CpuId(c), &mut sys);
            }
            let t = sys.now() + ebs_units::SimDuration::from_millis(100);
            sys.set_now(t);
        }
        assert_eq!(
            sys.stats().migrations(),
            0,
            "balanced load must not migrate"
        );
        sys.validate();
    }

    #[test]
    fn off_by_one_does_not_migrate() {
        // 18 tasks on 8 CPUs: queues of 2 and 3; Linux tolerates this.
        let mut sys = system();
        for c in 0..8 {
            spawn_n(&mut sys, CpuId(c), if c < 2 { 3 } else { 2 });
        }
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        for c in 0..8 {
            lb.run(CpuId(c), &mut sys);
        }
        assert_eq!(sys.stats().migrations(), 0);
    }

    #[test]
    fn gross_imbalance_is_pulled_level() {
        let mut sys = system();
        spawn_n(&mut sys, CpuId(0), 8);
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        // Run balancing on every CPU over a few intervals.
        for step in 0..20u64 {
            sys.set_now(ebs_units::SimTime::from_millis(step * 64));
            for c in 0..8 {
                lb.run(CpuId(c), &mut sys);
            }
        }
        let loads: Vec<usize> = (0..8).map(|c| sys.nr_running(CpuId(c))).collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= 1, "loads {loads:?} not balanced");
        assert!(sys.stats().migrations() >= 6);
        sys.validate();
    }

    #[test]
    fn next_due_advances_with_balancing() {
        let mut sys = system();
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        // Fresh balancer: everything due immediately.
        assert_eq!(lb.next_due(), ebs_units::SimTime::ZERO);
        sys.set_now(ebs_units::SimTime::from_millis(10));
        for c in 0..8 {
            lb.run(CpuId(c), &mut sys);
        }
        // Every level re-armed: the earliest due is one node-level
        // interval (the shortest without SMT) past now.
        let due = lb.next_due();
        assert!(due > ebs_units::SimTime::from_millis(10), "due {due:?}");
    }

    #[test]
    fn next_due_is_the_minimum_over_every_level() {
        use ebs_store::Snapshot;
        use ebs_units::{SimDuration, SimTime};
        // SMT on: three levels per CPU with three different intervals.
        let topo = Topology::xseries445(true);
        let mut timers = BalanceTimers::new(&topo);
        // The test's own copy of every level's due instant.
        let mut model: Vec<Vec<SimTime>> = topo
            .cpu_ids()
            .map(|c| vec![SimTime::ZERO; topo.domains(c).len()])
            .collect();
        let earliest = |model: &[Vec<SimTime>]| model.iter().flatten().copied().min().unwrap();
        let pass =
            |timers: &mut BalanceTimers, model: &mut [Vec<SimTime>], cpu: CpuId, now: SimTime| {
                let domains = topo.domains(cpu);
                let yielded = timers.due(cpu, domains, now).count();
                let mut expected = 0;
                for (next, domain) in model[cpu.0].iter_mut().zip(domains) {
                    if now >= *next {
                        *next = now + domain.balance_interval();
                        expected += 1;
                    }
                }
                assert_eq!(yielded, expected, "levels due on {cpu:?} at {now:?}");
            };
        assert_eq!(timers.next_due(), SimTime::ZERO);
        // A subset of CPUs at staggered instants: the others stay due
        // at zero until the full pass.
        for (k, c) in [0, 3, 5, 3, 10].into_iter().enumerate() {
            let now = SimTime::from_millis(7 * k as u64 + 3);
            pass(&mut timers, &mut model, CpuId(c), now);
            assert_eq!(timers.next_due(), earliest(&model));
        }
        let full = SimTime::from_millis(40);
        for cpu in topo.cpu_ids() {
            pass(&mut timers, &mut model, cpu, full);
        }
        assert_eq!(timers.next_due(), earliest(&model));
        assert!(timers.next_due() > full);
        // Staggered passes once the shortest intervals elapse: only
        // some levels re-arm.
        for (k, c) in [1, 14, 6, 1].into_iter().enumerate() {
            let now = full + SimDuration::from_millis(64 + 20 * k as u64);
            pass(&mut timers, &mut model, CpuId(c), now);
            assert_eq!(timers.next_due(), earliest(&model));
        }
        // A restore replaces a fresh table whose earliest (zero) was
        // already read.
        let mut w = ebs_store::StateWriter::new();
        timers.save(&mut w);
        let image = w.finish();
        let mut restored = BalanceTimers::new(&topo);
        assert_eq!(restored.next_due(), SimTime::ZERO);
        restored
            .restore(&mut image.open().expect("valid image"))
            .expect("restore");
        assert_eq!(restored.next_due(), earliest(&model));
        assert!(restored.next_due() > SimTime::ZERO);
    }

    #[test]
    fn newidle_pulls_one_task() {
        let mut sys = system();
        spawn_n(&mut sys, CpuId(1), 3);
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        let outcome = lb.newidle(CpuId(0), &mut sys);
        assert_eq!(outcome.pulled, 1);
        assert_eq!(sys.nr_running(CpuId(0)), 1);
        assert_eq!(sys.nr_running(CpuId(1)), 2);
        sys.validate();
    }

    #[test]
    fn newidle_leaves_single_running_task_alone() {
        // A lone running task cannot be stolen (it is not queued).
        let mut sys = system();
        spawn_n(&mut sys, CpuId(1), 1);
        sys.context_switch(CpuId(1));
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        let outcome = lb.newidle(CpuId(0), &mut sys);
        assert_eq!(outcome.pulled, 0);
        assert_eq!(sys.nr_running(CpuId(1)), 1);
    }

    #[test]
    fn find_busiest_group_ignores_local() {
        let mut sys = system();
        spawn_n(&mut sys, CpuId(0), 1);
        spawn_n(&mut sys, CpuId(1), 3);
        spawn_n(&mut sys, CpuId(2), 2);
        let domain = sys.topology().domains(CpuId(0))[0].clone();
        let local_idx = domain.local_group_index(CpuId(0)).unwrap();
        let busiest = find_busiest_group(&sys, &domain, local_idx);
        // CPU 1's group is the busiest *remote* group.
        let (idx, load) = busiest.unwrap();
        assert!(domain.groups()[idx].contains(CpuId(1)));
        assert!((load - 3.0).abs() < 1e-12);
    }

    #[test]
    fn find_busiest_group_weighs_counts_by_capacity() {
        let mut sys = system();
        spawn_n(&mut sys, CpuId(1), 2);
        spawn_n(&mut sys, CpuId(2), 2);
        let domain = sys.topology().domains(CpuId(0))[0].clone();
        let local_idx = domain.local_group_index(CpuId(0)).unwrap();
        // Unit capacities: equal counts tie, the first group wins.
        let (idx, load) = find_busiest_group(&sys, &domain, local_idx).unwrap();
        assert!(domain.groups()[idx].contains(CpuId(1)));
        assert_eq!(load, 2.0);
        // CPU 2 becomes a half-capacity efficiency core: at the same
        // count its group carries twice the load.
        let caps: Vec<f64> = (0..8).map(|c| if c == 2 { 0.5 } else { 1.0 }).collect();
        sys.set_cpu_capacities(&caps);
        let (idx, load) = find_busiest_group(&sys, &domain, local_idx).unwrap();
        assert!(domain.groups()[idx].contains(CpuId(2)));
        assert_eq!(load, 4.0);
    }

    #[test]
    fn find_busiest_group_none_when_local_heaviest() {
        let mut sys = system();
        spawn_n(&mut sys, CpuId(0), 5);
        let domain = sys.topology().domains(CpuId(0))[0].clone();
        let local_idx = domain.local_group_index(CpuId(0)).unwrap();
        assert!(find_busiest_group(&sys, &domain, local_idx).is_none());
    }

    #[test]
    fn pull_tasks_respects_filter_and_limit() {
        let mut sys = system();
        let tasks = spawn_n(&mut sys, CpuId(0), 4);
        let banned = tasks[0];
        let moved = pull_tasks(
            &mut sys,
            CpuId(0),
            CpuId(1),
            2,
            MigrationReason::LoadBalance,
            |_, id| id != banned,
        );
        assert_eq!(moved, 2);
        assert_eq!(sys.nr_running(CpuId(1)), 2);
        assert_eq!(sys.task(banned).cpu(), CpuId(0));
    }

    #[test]
    fn pull_tasks_noop_cases() {
        let mut sys = system();
        spawn_n(&mut sys, CpuId(0), 2);
        assert_eq!(
            pull_tasks(
                &mut sys,
                CpuId(0),
                CpuId(0),
                5,
                MigrationReason::LoadBalance,
                |_, _| true
            ),
            0
        );
        assert_eq!(
            pull_tasks(
                &mut sys,
                CpuId(0),
                CpuId(1),
                0,
                MigrationReason::LoadBalance,
                |_, _| true
            ),
            0
        );
    }

    #[test]
    fn idlest_cpu_prefers_low_load_then_low_id() {
        let mut sys = system();
        assert_eq!(idlest_cpu(&sys), Some(CpuId(0)));
        spawn_n(&mut sys, CpuId(0), 1);
        assert_eq!(idlest_cpu(&sys), Some(CpuId(1)));
        for c in 1..8 {
            spawn_n(&mut sys, CpuId(c), 1);
        }
        assert_eq!(idlest_cpu(&sys), Some(CpuId(0)));
    }
}
