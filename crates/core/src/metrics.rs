//! The calculation parameters of energy-aware scheduling (Section 4.3).
//!
//! The paper's key observation: power and temperature have very
//! different time constants, and an algorithm using only one of them
//! misbehaves (power-only balancing ping-pongs; temperature-only
//! balancing over-balances). The scheduler therefore works with *both*:
//!
//! - **Runqueue power**: the average of the energy profiles of all
//!   tasks in a CPU's runqueue — reacts *immediately* to migrations.
//! - **Thermal power**: a per-CPU exponential average of estimated
//!   power calibrated to the RC time constant — follows temperature,
//!   but keeps the dimension of a power.
//! - **Maximum power**: the largest sustained power the CPU endures
//!   without overheating; CPU-specific because cooling differs.
//! - The **ratios** of the first two to the third are what the
//!   balancing policies actually compare.

use ebs_sched::System;
use ebs_thermal::PowerAverage;
use ebs_topology::{CpuGroup, CpuId, GroupUnit, Topology};
use ebs_units::{SimDuration, Watts};

/// Configuration of the per-CPU power metrics.
#[derive(Clone, Copy, Debug)]
pub struct PowerStateConfig {
    /// Standard sampling period of the thermal-power average (one
    /// timeslice).
    pub standard_period: SimDuration,
    /// Time constant the thermal-power average is calibrated to — the
    /// RC constant of the processor's thermal model (Section 4.3:
    /// "choosing an appropriate weight p ... that corresponds to the
    /// time constant of the exponential function from the thermal
    /// model").
    pub time_constant: SimDuration,
    /// Power attributed to an idle logical CPU; used as the runqueue
    /// power of an empty queue and as the initial thermal power.
    pub idle_power: Watts,
}

impl Default for PowerStateConfig {
    fn default() -> Self {
        PowerStateConfig {
            standard_period: SimDuration::from_millis(100),
            time_constant: SimDuration::from_micros(14_960_000),
            idle_power: Watts(6.8),
        }
    }
}

/// Per-CPU scheduling metrics state. The maximum powers are fixed at
/// construction.
#[derive(Clone, Debug)]
pub struct PowerState {
    thermal: Vec<PowerAverage>,
    max_power: Vec<Watts>,
    idle_power: Watts,
    /// The last observed non-zero period and its Eq. 2 weight. Every
    /// average shares one standard period and weight, and every CPU
    /// observes the same engine step, so one `powf` serves a step.
    weight: (SimDuration, f64),
}

impl PowerState {
    /// Creates metrics for `n_cpus` logical CPUs, each with its own
    /// maximum power budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_powers` length differs from `n_cpus`.
    pub fn new(n_cpus: usize, max_powers: &[Watts], cfg: PowerStateConfig) -> Self {
        assert_eq!(max_powers.len(), n_cpus, "one max power per CPU required");
        PowerState {
            thermal: (0..n_cpus)
                .map(|_| {
                    PowerAverage::with_time_constant(
                        cfg.idle_power,
                        cfg.standard_period,
                        cfg.time_constant,
                    )
                })
                .collect(),
            max_power: max_powers.to_vec(),
            idle_power: cfg.idle_power,
            weight: (SimDuration::ZERO, 0.0),
        }
    }

    /// Creates metrics with a uniform maximum power (the paper's
    /// Section 6.1 setup: "we set the maximum power of all CPUs to
    /// 60 W").
    pub fn uniform(n_cpus: usize, max_power: Watts, cfg: PowerStateConfig) -> Self {
        PowerState::new(n_cpus, &vec![max_power; n_cpus], cfg)
    }

    /// Number of CPUs tracked.
    pub fn n_cpus(&self) -> usize {
        self.thermal.len()
    }

    /// Folds an estimated power sample (over `period` of wall time)
    /// into `cpu`'s thermal power. A zero period leaves it untouched.
    #[inline]
    pub fn observe(&mut self, cpu: CpuId, power: Watts, period: SimDuration) -> Watts {
        let avg = &mut self.thermal[cpu.0];
        if period.is_zero() {
            return avg.watts();
        }
        if self.weight.0 != period {
            self.weight = (period, avg.effective_weight(period));
        }
        avg.fold(power, self.weight.1)
    }

    /// The thermal power of `cpu` — the scheduler's temperature proxy.
    pub fn thermal_power(&self, cpu: CpuId) -> Watts {
        self.thermal[cpu.0].watts()
    }

    /// The maximum power of `cpu`.
    pub fn max_power(&self, cpu: CpuId) -> Watts {
        self.max_power[cpu.0]
    }

    /// The power attributed to an idle CPU.
    pub fn idle_power(&self) -> Watts {
        self.idle_power
    }

    /// Thermal power ratio of `cpu` (Section 4.3).
    pub fn thermal_ratio(&self, cpu: CpuId) -> f64 {
        self.thermal_power(cpu).ratio(self.max_power(cpu))
    }

    /// Average thermal power ratio over a CPU group.
    pub fn group_thermal_ratio(&self, group: &CpuGroup) -> f64 {
        group
            .cpus()
            .iter()
            .map(|&c| self.thermal_ratio(c))
            .sum::<f64>()
            / group.len() as f64
    }

    /// Sum of the thermal powers of the given CPUs — the package-level
    /// quantity the SMT adaptations compare against the package budget
    /// (Section 4.7).
    /// Takes any CPU sequence, so a topology listing is summed without
    /// being collected first.
    pub fn thermal_power_sum(&self, cpus: impl IntoIterator<Item = CpuId>) -> Watts {
        cpus.into_iter().map(|c| self.thermal_power(c)).sum()
    }

    /// Sum of the maximum powers of the given CPUs.
    pub fn max_power_sum(&self, cpus: impl IntoIterator<Item = CpuId>) -> Watts {
        cpus.into_iter().map(|c| self.max_power(c)).sum()
    }
}

/// Runqueue power of `cpu` (Section 4.3): the average of the energy
/// profiles of every task associated with the queue, including the
/// running one. An empty queue reports the idle power.
///
/// O(1): the waiting tasks' profile sum is cached on the runqueue
/// (profiles only change while a task runs), so the balancer's
/// machine-wide group scans no longer walk every queue's tasks.
pub fn runqueue_power(sys: &System, cpu: CpuId, idle_power: Watts) -> Watts {
    let rq = sys.rq(cpu);
    let n = rq.nr_running();
    if n == 0 {
        return idle_power;
    }
    let mut total = rq.queued_profile();
    if let Some(current) = rq.current() {
        total += sys.task(current).profile().0;
    }
    Watts(total / n as f64)
}

/// Runqueue power ratio of `cpu`: runqueue power over maximum power.
pub fn runqueue_power_ratio(sys: &System, cpu: CpuId, power: &PowerState) -> f64 {
    runqueue_power(sys, cpu, power.idle_power()).ratio(power.max_power(cpu))
}

/// Average runqueue power ratio over a CPU group, by scanning its
/// CPUs (each read is O(1) via the queued-profile cache, but the scan
/// is O(group)). The energy balancer reads this through
/// [`GroupRatioCache`] instead, which amortises the scan away.
pub fn group_runqueue_ratio(sys: &System, group: &CpuGroup, power: &PowerState) -> f64 {
    group
        .cpus()
        .iter()
        .map(|&c| runqueue_power_ratio(sys, c, power))
        .sum::<f64>()
        / group.len() as f64
}

/// Memoised group runqueue-power ratios, keyed by the aggregate
/// tree's per-unit generation counters.
///
/// The per-CPU ratio is a nonlinear function (a ratio of sums divided
/// by a per-CPU budget), so group ratios cannot be folded into linear
/// running sums without changing their float rounding — and balancing
/// decisions must stay *bitwise identical* to a fresh scan of the
/// group. Instead each unit's ratio sum is recomputed lazily,
/// by exactly the member-order scan [`group_runqueue_ratio`] performs,
/// and reused until the unit's generation (bumped by `ebs_sched` on
/// any membership or profile change, in O(depth)) moves. A balancing
/// pass over a quiescent domain therefore costs O(groups) instead of
/// O(CPUs), while yielding the same bits as a full rescan. Budgets are
/// fixed when the [`PowerState`] is built, so the unit generation is
/// the whole key.
#[derive(Clone, Debug)]
pub struct GroupRatioCache {
    /// Cached `(unit_gen, ratio_sum)` per core / package / node.
    core: Vec<(u64, f64)>,
    package: Vec<(u64, f64)>,
    node: Vec<(u64, f64)>,
}

/// Sentinel forcing the first read of a slot to recompute (unit
/// generations start at 0 and only grow).
const STALE: u64 = u64::MAX;

impl GroupRatioCache {
    /// Creates an all-stale cache shaped like `topo`.
    pub fn new(topo: &Topology) -> Self {
        GroupRatioCache {
            core: vec![(STALE, 0.0); topo.n_cores()],
            package: vec![(STALE, 0.0); topo.n_packages()],
            node: vec![(STALE, 0.0); topo.n_nodes()],
        }
    }

    /// Average runqueue power ratio over a group — bitwise identical
    /// to [`group_runqueue_ratio`], amortised O(1) for unit-tagged
    /// groups.
    pub fn group_ratio(&mut self, sys: &System, group: &CpuGroup, power: &PowerState) -> f64 {
        // Singleton groups (SMT siblings, one-CPU packages) skip the
        // cache: the direct read is already O(1), and `r / 1.0 == r`
        // keeps the bits identical to the scan.
        if let [only] = group.cpus() {
            return runqueue_power_ratio(sys, *only, power);
        }
        let slot = match group.unit() {
            Some(GroupUnit::Core(c)) => &mut self.core[c.0],
            Some(GroupUnit::Package(p)) => &mut self.package[p.0],
            Some(GroupUnit::Node(n)) => &mut self.node[n.0],
            // Untagged groups — and `Cpu`-tagged ones, singletons by
            // construction and so already handled above — take the
            // plain scan.
            Some(GroupUnit::Cpu(_)) | None => return group_runqueue_ratio(sys, group, power),
        };
        let gen = sys
            .group_gen(group)
            .expect("unit-tagged multi-CPU group has a generation");
        if slot.0 != gen {
            *slot = (
                gen,
                group
                    .cpus()
                    .iter()
                    .map(|&c| runqueue_power_ratio(sys, c, power))
                    .sum::<f64>(),
            );
        }
        slot.1 / group.len() as f64
    }
}

impl GroupRatioCache {
    /// Marks every slot stale, forcing the next read of each unit to
    /// recompute by the member-order scan. Because cached entries are
    /// bitwise identical to a fresh scan, dropping them is invisible
    /// to balancing decisions — which is why snapshots never carry the
    /// cache: a restored balancer starts all-stale.
    pub(crate) fn mark_all_stale(&mut self) {
        for slot in self
            .core
            .iter_mut()
            .chain(self.package.iter_mut())
            .chain(self.node.iter_mut())
        {
            slot.0 = STALE;
        }
    }
}

impl ebs_store::Snapshot for PowerState {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The budgets and idle power are configuration.
        w.seq(&self.thermal, |w, avg| avg.save(w));
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.table("thermal averages", &mut self.thermal, |r, avg| {
            avg.restore(r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_sched::TaskConfig;
    use ebs_topology::Topology;

    fn cfg() -> PowerStateConfig {
        PowerStateConfig::default()
    }

    fn spawn_with_profile(sys: &mut System, cpu: CpuId, watts: f64) {
        let id = sys.spawn(
            TaskConfig {
                initial_profile: Watts(watts),
                ..TaskConfig::default()
            },
            cpu,
        );
        // Profiles start exactly at the configured initial value.
        assert_eq!(sys.task(id).profile(), Watts(watts));
    }

    #[test]
    fn thermal_power_starts_at_idle_and_rises_slowly() {
        let mut ps = PowerState::uniform(2, Watts(60.0), cfg());
        assert_eq!(ps.thermal_power(CpuId(0)), Watts(6.8));
        let after = ps.observe(CpuId(0), Watts(61.0), SimDuration::from_millis(100));
        // One timeslice against a 15 s time constant barely moves it.
        assert!(after > Watts(6.8));
        assert!(
            after < Watts(7.4),
            "thermal power moved too fast: {after:?}"
        );
        // CPU 1 untouched.
        assert_eq!(ps.thermal_power(CpuId(1)), Watts(6.8));
    }

    #[test]
    fn thermal_power_converges_to_sustained_load() {
        let mut ps = PowerState::uniform(1, Watts(60.0), cfg());
        for _ in 0..3_000 {
            ps.observe(CpuId(0), Watts(61.0), SimDuration::from_millis(100));
        }
        // 300 s >> 15 s time constant.
        assert!((ps.thermal_power(CpuId(0)).0 - 61.0).abs() < 0.01);
    }

    #[test]
    fn observe_matches_one_update_per_cpu() {
        let mut ps = PowerState::uniform(3, Watts(60.0), cfg());
        let mut reference = ps.thermal.clone();
        let periods = [1_000, 4_000, 1_000, 25_000, 0].map(SimDuration::from_micros);
        // Whole steps of one period, then CPUs interleaving periods.
        for k in 0..4 * periods.len() {
            for (c, avg) in reference.iter_mut().enumerate() {
                let period = periods[if k < 2 * periods.len() { k } else { k + c } % periods.len()];
                let sample = Watts(10.0 + 7.5 * c as f64 + k as f64);
                let observed = ps.observe(CpuId(c), sample, period);
                let updated = avg.update(sample, period);
                assert_eq!(
                    observed.0.to_bits(),
                    updated.0.to_bits(),
                    "CPU {c}, {period:?}"
                );
            }
        }
        for (c, avg) in reference.iter().enumerate() {
            assert_eq!(
                ps.thermal_power(CpuId(c)).0.to_bits(),
                avg.watts().0.to_bits()
            );
        }
    }

    #[test]
    fn ratios_normalise_by_cpu_budget() {
        let mut ps = PowerState::new(2, &[Watts(60.0), Watts(40.0)], cfg());
        for _ in 0..3_000 {
            ps.observe(CpuId(0), Watts(30.0), SimDuration::from_millis(100));
            ps.observe(CpuId(1), Watts(30.0), SimDuration::from_millis(100));
        }
        // Same thermal power, different budgets, different ratios.
        assert!((ps.thermal_ratio(CpuId(0)) - 0.5).abs() < 0.01);
        assert!((ps.thermal_ratio(CpuId(1)) - 0.75).abs() < 0.01);
    }

    #[test]
    fn runqueue_power_averages_profiles() {
        let mut sys = System::new(Topology::xseries445(false));
        spawn_with_profile(&mut sys, CpuId(0), 61.0);
        spawn_with_profile(&mut sys, CpuId(0), 38.0);
        // Running tasks count too.
        sys.context_switch(CpuId(0));
        let p = runqueue_power(&sys, CpuId(0), Watts(6.8));
        assert!((p.0 - 49.5).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn empty_runqueue_reports_idle_power() {
        let sys = System::new(Topology::xseries445(false));
        assert_eq!(runqueue_power(&sys, CpuId(3), Watts(6.8)), Watts(6.8));
    }

    #[test]
    fn group_averages() {
        let mut sys = System::new(Topology::xseries445(false));
        let ps = PowerState::uniform(8, Watts(60.0), cfg());
        spawn_with_profile(&mut sys, CpuId(0), 60.0);
        spawn_with_profile(&mut sys, CpuId(1), 30.0);
        let domain = sys.topology().domains(CpuId(0))[0].clone();
        // Node-level group 0 contains only CPU 0.
        let g0 = &domain.groups()[0];
        assert!((group_runqueue_ratio(&sys, g0, &ps) - 1.0).abs() < 1e-9);
        let g1 = &domain.groups()[1];
        assert!((group_runqueue_ratio(&sys, g1, &ps) - 0.5).abs() < 1e-9);
        assert!(ps.group_thermal_ratio(g0) > 0.0);
    }

    #[test]
    fn package_sums_for_smt() {
        let mut ps = PowerState::uniform(4, Watts(20.0), cfg());
        for _ in 0..3_000 {
            ps.observe(CpuId(0), Watts(30.0), SimDuration::from_millis(100));
            ps.observe(CpuId(2), Watts(10.0), SimDuration::from_millis(100));
        }
        let sum = ps.thermal_power_sum([CpuId(0), CpuId(2)]);
        assert!((sum.0 - 40.0).abs() < 0.1);
        assert_eq!(ps.max_power_sum([CpuId(0), CpuId(2)]), Watts(40.0));
    }

    #[test]
    fn ratio_cache_matches_scans_and_tracks_changes() {
        let topo = Topology::build_cmp(2, 2, 2, 1); // 8 CPUs, 3 levels.
        let mut sys = System::new(topo.clone());
        let ps = PowerState::uniform(8, Watts(60.0), cfg());
        let mut cache = GroupRatioCache::new(&topo);
        for c in 0..8 {
            spawn_with_profile(&mut sys, CpuId(c), 20.0 + 5.0 * c as f64);
        }
        let check = |cache: &mut GroupRatioCache, sys: &System, ps: &PowerState| {
            for cpu in sys.topology().cpu_ids() {
                for domain in sys.topology().domains(cpu) {
                    for group in domain.groups() {
                        let fresh = group_runqueue_ratio(sys, group, ps);
                        let cached = cache.group_ratio(sys, group, ps);
                        assert_eq!(cached.to_bits(), fresh.to_bits(), "cache diverged");
                    }
                }
            }
        };
        check(&mut cache, &sys, &ps);
        // A migration invalidates exactly the touched units.
        let moved = sys.rq(CpuId(0)).iter_migration_candidates().next().unwrap();
        sys.migrate_queued(moved, CpuId(7), ebs_sched::MigrationReason::LoadBalance)
            .unwrap();
        check(&mut cache, &sys, &ps);
    }

    #[test]
    #[should_panic(expected = "one max power per CPU")]
    fn wrong_budget_count_rejected() {
        let _ = PowerState::new(3, &[Watts(60.0)], cfg());
    }
}
