//! Simulation configuration.

use ebs_core::EnergyBalanceConfig;
use ebs_dvfs::{DomainScope, GovernorKind, PStateTable};
use ebs_topology::{TopologyBuilder, TopologyPreset};
use ebs_units::{Celsius, SimDuration, Watts};
use ebs_workloads::OpenWorkload;

/// How the per-CPU maximum power (the thermal budget) is determined.
#[derive(Clone, Debug, PartialEq)]
pub enum MaxPowerSpec {
    /// The same budget for every *logical* CPU, as in Section 6.1
    /// ("we set the maximum power of all CPUs to 60 W") — with SMT the
    /// package budget is split between siblings, so Section 6.4's
    /// "40 W per physical processor" is `PerPackage(Watts(40.0))`.
    PerLogical(Watts),
    /// A budget per physical package, split evenly between its
    /// hardware threads.
    PerPackage(Watts),
    /// Derive each package's budget from its (possibly heterogeneous)
    /// thermal model at the given temperature limit — the Section 6.2
    /// setup with its artificial 38 degC limit.
    FromThermalLimit(Celsius),
}

/// Configuration of the DVFS subsystem.
#[derive(Clone, Debug, PartialEq)]
pub struct DvfsSpec {
    /// The P-state ladder every package scales over. Execution speed
    /// follows the table's *absolute* frequencies, so a table whose
    /// nominal differs from [`SimConfig::freq_hz`] simulates a
    /// differently-clocked part consistently (reports and physics
    /// agree); `freq_hz` only sets the clock of a machine without
    /// DVFS.
    pub table: PStateTable,
    /// The governor policy driving each package's frequency domain.
    pub governor: GovernorKind,
    /// Length of the utilization averaging window: without a decision
    /// to reset it, the window renormalises at this length, so windowed
    /// utilization stays as responsive as a governor re-deciding every
    /// `interval` (10 ms, a few scheduler ticks, as in cpufreq).
    pub interval: SimDuration,
    /// Optional periodic fallback: re-decide at least this often even
    /// inside the hold bands. `None` (the default) trusts the triggers
    /// alone — governors re-decide only when a signal leaves the
    /// [`ebs_dvfs::DecisionHold`] band of the last decision, so a
    /// steady domain needs no governor wake-ups at all.
    /// `Some(interval)` is the dense reference: a decision at least
    /// every `interval`, which for a [`GovernorKind::Fixed`] governor
    /// (whose hold never expires) is exactly the fixed decision
    /// cadence.
    pub max_hold: Option<SimDuration>,
}

impl Default for DvfsSpec {
    fn default() -> Self {
        DvfsSpec {
            table: PStateTable::p4_xeon(),
            governor: GovernorKind::ThermalAware,
            interval: SimDuration::from_millis(10),
            max_hold: None,
        }
    }
}

/// Full configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// NUMA nodes.
    pub n_nodes: usize,
    /// Physical packages per node.
    pub packages_per_node: usize,
    /// Cores per package (1 = the paper's machine; more adds the
    /// Section 7 CMP layer to the domain hierarchy).
    pub cores_per_package: usize,
    /// Hardware threads per core (1 = SMT off, 2 = two-way SMT).
    pub threads_per_core: usize,
    /// Performance (class 0) cores leading each package; the rest are
    /// efficiency (class 1) cores. `0` (the default) keeps the machine
    /// homogeneous — the paper's testbed and every legacy preset.
    pub perf_cores_per_package: usize,
    /// Ignore core classes in balancing, placement, and hot-migration
    /// decisions (capacity-blind): the engine installs no class
    /// capacities, so every CPU weighs 1.0 — the `exp_hybrid` control
    /// that treats every runnable task as worth the same on any core.
    /// The physics (per-class speed, power, calibration) stays
    /// class-aware either way.
    pub class_blind: bool,
    /// RNG seed; every random choice in the run derives from it.
    pub seed: u64,
    /// Simulation tick (scheduler granularity): the engine's *finest*
    /// step and the granularity at which throttle flips are resolved.
    pub tick: SimDuration,
    /// Upper bound on one engine step. Each step advances in one exact
    /// span to the next scheduling-relevant event, capped at this and
    /// floored at one tick, so a cap at or below `tick` — the default,
    /// `ZERO` — makes every step exactly one tick (the fixed-tick
    /// reference).
    pub max_stride: SimDuration,
    /// Core clock in hertz.
    pub freq_hz: f64,
    /// Energy-aware scheduling: the merged energy balancer (Fig. 4)
    /// instead of the stock load balancer, hot task migration (Fig. 5),
    /// and energy-aware initial placement (Section 4.6) — the toggle
    /// the paper's "energy-aware scheduling enabled/disabled"
    /// comparisons flip.
    pub energy_aware: bool,
    /// Tunables of the energy-aware balancer (margins provide the
    /// hysteresis of Section 4.3; the ablation experiments weaken them
    /// to reproduce the ping-pong and over-balancing failure modes).
    pub balance: EnergyBalanceConfig,
    /// Enable `hlt` throttling at the maximum power.
    pub throttling: bool,
    /// Dynamic voltage/frequency scaling; `None` pins every package at
    /// the nominal clock (the paper's original testbed behaviour).
    pub dvfs: Option<DvfsSpec>,
    /// The per-CPU power budgets.
    pub max_power: MaxPowerSpec,
    /// Per-package cooling factors scaling the thermal resistance
    /// (>1 = poorer cooling). Empty means homogeneous.
    pub cooling_factors: Vec<f64>,
    /// Use the ground-truth energy model in the estimator instead of a
    /// calibrated one (for ablation: what would perfect estimation
    /// change?).
    pub perfect_estimation: bool,
    /// Respawn a finished task's program immediately (keeps the
    /// configured task population constant, as the paper's throughput
    /// runs do).
    pub respawn: bool,
    /// Record the structured scheduling-event trace (context switches,
    /// migrations, governor decisions, ...), which also yields each
    /// task's CPU visits (fig. 9). Off by default; off means the
    /// engine allocates nothing and reports are bit-identical.
    pub event_trace: bool,
    /// Snapshot the metrics registry (counters and gauges) at this
    /// interval into a time series; `None` disables metrics entirely.
    /// The snapshots also feed the thermal-power view (fig. 6/7). An
    /// active snapshot cadence bounds the variable-stride engine so
    /// snapshots land on their exact instants.
    pub metrics_interval: Option<SimDuration>,
    /// Measure host wall time per engine phase (stride selection,
    /// physics, scheduler, ...). Purely an engine-side profile; the
    /// simulation's behaviour is unaffected.
    pub profile_engine: bool,
    /// An open workload driven by the engine: Poisson task arrivals
    /// under a load curve. `None` keeps the paper's closed model
    /// (tasks are spawned explicitly and optionally respawned).
    pub open_workload: Option<OpenWorkload>,
    /// Worker threads of the parallel (per-package partitioned) engine
    /// core; `None` selects the single-loop cores. See
    /// [`SimConfig::parallel`].
    pub parallel_workers: Option<usize>,
    /// Combined throughput factor of two busy SMT siblings relative to
    /// one solo thread (the literature's ~1.25 for the Pentium 4).
    pub smt_speedup: f64,
    /// Cache-warmup model: IPC factor right after an intra-node
    /// migration, ramping linearly back to 1.
    pub warmup_ipc_floor: f64,
    /// Instructions to regain full warmth after an intra-node
    /// migration.
    pub warmup_instructions: u64,
    /// IPC floor after a cross-node migration (node affinity is more
    /// expensive to rebuild, Section 4.1).
    pub warmup_ipc_floor_cross_node: f64,
    /// Instructions to regain full warmth after a cross-node migration.
    pub warmup_instructions_cross_node: u64,
}

impl SimConfig {
    /// Default stride cap of the variable-stride engine core: long
    /// enough to skip most idle ticks, short enough that the thermal
    /// averages (τ ≈ 15 s) move by well under a watt per step.
    pub const DEFAULT_MAX_STRIDE: SimDuration = SimDuration::from_millis(25);

    /// The paper's testbed shape with the paper's defaults: SMT on,
    /// energy-aware scheduling on, throttling on, 60 W logical budgets.
    pub fn xseries445() -> Self {
        SimConfig::with_topology(TopologyPreset::XSeries445 { smt: true }.builder())
    }

    /// The paper's defaults on an arbitrary machine shape.
    pub fn with_topology(topo: TopologyBuilder) -> Self {
        SimConfig {
            n_nodes: topo.n_nodes(),
            packages_per_node: topo.n_packages_per_node(),
            cores_per_package: topo.n_cores_per_package(),
            threads_per_core: topo.n_threads_per_core(),
            perf_cores_per_package: topo.n_perf_cores_per_package(),
            class_blind: false,
            seed: 1,
            tick: SimDuration::from_millis(1),
            max_stride: SimDuration::ZERO,
            freq_hz: 2.2e9,
            energy_aware: true,
            balance: EnergyBalanceConfig::default(),
            throttling: true,
            dvfs: None,
            max_power: MaxPowerSpec::PerLogical(Watts(60.0)),
            cooling_factors: Vec::new(),
            perfect_estimation: false,
            respawn: true,
            event_trace: false,
            metrics_interval: None,
            profile_engine: false,
            open_workload: None,
            parallel_workers: None,
            smt_speedup: 1.25,
            warmup_ipc_floor: 0.55,
            warmup_instructions: 40_000_000,
            warmup_ipc_floor_cross_node: 0.40,
            warmup_instructions_cross_node: 90_000_000,
        }
    }

    /// The paper's defaults on a named preset shape.
    pub fn preset(preset: TopologyPreset) -> Self {
        SimConfig::with_topology(preset.builder())
    }

    /// Sets two-way SMT on or off.
    pub fn smt(mut self, smt: bool) -> Self {
        self.threads_per_core = if smt { 2 } else { 1 };
        self
    }

    /// Whether SMT is enabled.
    pub fn smt_enabled(&self) -> bool {
        self.threads_per_core > 1
    }

    /// Replaces the machine shape.
    pub fn topology(mut self, topo: TopologyBuilder) -> Self {
        self.n_nodes = topo.n_nodes();
        self.packages_per_node = topo.n_packages_per_node();
        self.cores_per_package = topo.n_cores_per_package();
        self.threads_per_core = topo.n_threads_per_core();
        self.perf_cores_per_package = topo.n_perf_cores_per_package();
        self
    }

    /// The machine shape as a [`TopologyBuilder`].
    pub fn topology_builder(&self) -> TopologyBuilder {
        TopologyBuilder::new()
            .nodes(self.n_nodes)
            .packages_per_node(self.packages_per_node)
            .cores_per_package(self.cores_per_package)
            .threads_per_core(self.threads_per_core)
            .perf_cores_per_package(self.perf_cores_per_package)
    }

    /// Makes the shape hybrid: the leading `n` cores of each package
    /// become performance (class 0) cores, the rest efficiency
    /// (class 1). `0` keeps the machine homogeneous.
    pub fn perf_cores(mut self, n: usize) -> Self {
        self.perf_cores_per_package = n;
        self
    }

    /// Makes balancing/placement/hot-migration ignore core classes
    /// (the `exp_hybrid` baseline).
    pub fn class_blind(mut self, on: bool) -> Self {
        self.class_blind = on;
        self
    }

    /// Whether the machine mixes core classes.
    pub fn is_hybrid(&self) -> bool {
        self.perf_cores_per_package > 0
    }

    /// Number of distinct core classes (1 = homogeneous).
    pub fn n_classes(&self) -> usize {
        if self.is_hybrid() {
            2
        } else {
            1
        }
    }

    /// The frequency-domain granularity the engine will run, derived
    /// from the shape: per-package on homogeneous machines (the paper's
    /// testbed, where SMT siblings share one plane) and per-core on
    /// hybrid ones (classes run distinct P-state ladders, so they
    /// cannot share a plane).
    pub fn effective_domain_scope(&self) -> DomainScope {
        if self.is_hybrid() {
            DomainScope::PerCore
        } else {
            DomainScope::PerPackage
        }
    }

    /// Frequency domains per package under the effective scope.
    pub fn domains_per_package(&self) -> usize {
        self.effective_domain_scope()
            .domains_per_package(self.cores_per_package)
    }

    /// Frequency domains across the machine.
    pub fn n_domains(&self) -> usize {
        self.n_packages() * self.domains_per_package()
    }

    /// Drives the simulation with an open workload (Poisson arrivals
    /// under a load curve) instead of a fixed task population.
    pub fn open_workload(mut self, workload: OpenWorkload) -> Self {
        self.open_workload = Some(workload);
        self
    }

    /// Removes any engine-owned open workload. Used by outer layers
    /// (the fleet dispatcher) that generate arrivals themselves and
    /// route them in via [`crate::SimEngine::queue_arrival`] — a host
    /// must not *also* draw its own arrival stream.
    pub fn closed(mut self) -> Self {
        self.open_workload = None;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lets steps stretch to the default stride cap,
    /// [`SimConfig::DEFAULT_MAX_STRIDE`].
    pub fn strided(self) -> Self {
        self.max_stride(Self::DEFAULT_MAX_STRIDE)
    }

    /// Sets the stride cap. Caps at or below one tick make every step
    /// one tick (see [`SimConfig::max_stride`]).
    pub fn max_stride(mut self, cap: SimDuration) -> Self {
        self.max_stride = cap;
        self
    }

    /// Whether steps may span more than one tick.
    pub fn strided_enabled(&self) -> bool {
        self.max_stride > self.tick
    }

    /// Selects the parallel engine core: the machine is split into
    /// per-package simulation partitions with their own event
    /// calendars, synchronized by conservative lookahead, stepped by up
    /// to `workers` threads (clamped to the package count and the
    /// host's parallelism; threads only engage when both exceed one).
    /// Partitions ride the variable-stride core, so this implies
    /// [`SimConfig::strided`] unless the config is already strided.
    /// `parallel(1)` runs the whole machine as one partition —
    /// bit-identical to the strided core by construction.
    pub fn parallel(mut self, workers: usize) -> Self {
        self.parallel_workers = Some(workers.max(1));
        if !self.strided_enabled() {
            self.max_stride = Self::DEFAULT_MAX_STRIDE;
        }
        self
    }

    /// Whether the parallel partitioned core is selected.
    pub fn parallel_enabled(&self) -> bool {
        self.parallel_workers.is_some()
    }

    /// Enables or disables energy-aware scheduling: balancer, hot task
    /// migration and placement together.
    pub fn energy_aware(mut self, on: bool) -> Self {
        self.energy_aware = on;
        self
    }

    /// Overrides the energy-balancer tunables (ablations).
    pub fn balance_config(mut self, balance: EnergyBalanceConfig) -> Self {
        self.balance = balance;
        self
    }

    /// Enables or disables throttling.
    pub fn throttling(mut self, on: bool) -> Self {
        self.throttling = on;
        self
    }

    /// Enables DVFS with an explicit specification.
    pub fn dvfs(mut self, spec: DvfsSpec) -> Self {
        self.dvfs = Some(spec);
        self
    }

    /// Enables DVFS with the default P4 Xeon table and decision
    /// interval, under the given governor.
    pub fn dvfs_governor(mut self, governor: GovernorKind) -> Self {
        self.dvfs = Some(DvfsSpec {
            governor,
            ..DvfsSpec::default()
        });
        self
    }

    /// Disables DVFS (the default).
    pub fn dvfs_off(mut self) -> Self {
        self.dvfs = None;
        self
    }

    /// Whether DVFS is enabled.
    pub fn dvfs_enabled(&self) -> bool {
        self.dvfs.is_some()
    }

    /// Sets the power budget specification.
    pub fn max_power(mut self, spec: MaxPowerSpec) -> Self {
        self.max_power = spec;
        self
    }

    /// Sets per-package cooling factors (length must equal the package
    /// count; checked at machine construction).
    pub fn cooling_factors(mut self, factors: Vec<f64>) -> Self {
        self.cooling_factors = factors;
        self
    }

    /// Enables the structured scheduling-event trace.
    pub fn trace_events(mut self, on: bool) -> Self {
        self.event_trace = on;
        self
    }

    /// Enables metrics snapshots at the given cadence.
    pub fn metrics_every(mut self, every: SimDuration) -> Self {
        self.metrics_interval = Some(every);
        self
    }

    /// Enables per-phase engine self-profiling.
    pub fn profile_engine(mut self, on: bool) -> Self {
        self.profile_engine = on;
        self
    }

    /// Enables or disables respawning of finished tasks.
    pub fn respawn(mut self, on: bool) -> Self {
        self.respawn = on;
        self
    }

    /// Uses the ground-truth model for estimation (ablation).
    pub fn perfect_estimation(mut self, on: bool) -> Self {
        self.perfect_estimation = on;
        self
    }

    /// Number of physical packages.
    pub fn n_packages(&self) -> usize {
        self.n_nodes * self.packages_per_node
    }

    /// Number of logical CPUs.
    pub fn n_cpus(&self) -> usize {
        self.n_packages() * self.threads_per_package()
    }

    /// Hardware threads per package.
    pub fn threads_per_package(&self) -> usize {
        self.cores_per_package * self.threads_per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_testbed_shape() {
        let cfg = SimConfig::xseries445();
        assert_eq!(cfg.n_packages(), 8);
        assert_eq!(cfg.n_cpus(), 16);
        assert_eq!(cfg.threads_per_package(), 2);
        let cfg = cfg.smt(false);
        assert_eq!(cfg.n_cpus(), 8);
        assert_eq!(cfg.threads_per_package(), 1);
    }

    #[test]
    fn topology_builders_round_trip() {
        let cfg = SimConfig::preset(TopologyPreset::Numa16);
        assert_eq!(cfg.n_packages(), 16);
        assert_eq!(cfg.n_cpus(), 32);
        assert_eq!(cfg.threads_per_package(), 2);
        assert!(!cfg.smt_enabled());
        let builder = cfg.topology_builder();
        assert_eq!(builder, TopologyPreset::Numa16.builder());
        // Replacing the shape keeps the rest of the config.
        let cfg = cfg.seed(5).topology(TopologyPreset::Dual.builder());
        assert_eq!(cfg.n_packages(), 2);
        assert_eq!(cfg.n_cpus(), 8);
        assert_eq!(cfg.seed, 5);
        assert!(cfg.smt_enabled());
    }

    #[test]
    fn hybrid_shape_and_scope_resolution() {
        let cfg = SimConfig::xseries445();
        assert!(!cfg.is_hybrid());
        assert_eq!(cfg.n_classes(), 1);
        assert_eq!(cfg.effective_domain_scope(), DomainScope::PerPackage);
        assert_eq!(cfg.n_domains(), cfg.n_packages());

        let cfg = SimConfig::preset(TopologyPreset::Hybrid8);
        assert!(cfg.is_hybrid());
        assert_eq!(cfg.n_classes(), 2);
        assert_eq!(cfg.perf_cores_per_package, 4);
        // Hybrid shapes default to per-core domains.
        assert_eq!(cfg.effective_domain_scope(), DomainScope::PerCore);
        assert_eq!(cfg.n_domains(), 8);
        // The builder round-trips the hybrid split.
        assert_eq!(cfg.topology_builder(), TopologyPreset::Hybrid8.builder());
        // Replacing the shape with a homogeneous one clears the split
        // and returns to per-package domains.
        let cfg2 = cfg.clone().topology(TopologyPreset::Dual.builder());
        assert!(!cfg2.is_hybrid());
        assert_eq!(cfg2.perf_cores_per_package, 0);
        assert_eq!(cfg2.effective_domain_scope(), DomainScope::PerPackage);
        // Class-blind is a separate toggle.
        assert!(!cfg.class_blind);
        assert!(cfg.class_blind(true).class_blind);
    }

    #[test]
    fn open_workload_builder() {
        use ebs_workloads::{catalog, LoadCurve, OpenWorkload};
        let cfg = SimConfig::xseries445();
        assert!(cfg.open_workload.is_none());
        let cfg = cfg.open_workload(
            OpenWorkload::new(vec![catalog::aluadd()], 4.0).curve(LoadCurve::Constant),
        );
        let w = cfg.open_workload.as_ref().unwrap();
        assert_eq!(w.base_rate_hz, 4.0);
        assert_eq!(w.curve, LoadCurve::Constant);
    }

    #[test]
    fn dvfs_builders() {
        let cfg = SimConfig::xseries445();
        assert!(!cfg.dvfs_enabled());
        let cfg = cfg.dvfs_governor(GovernorKind::ThermalAware);
        assert!(cfg.dvfs_enabled());
        let spec = cfg.dvfs.clone().unwrap();
        assert_eq!(spec.governor, GovernorKind::ThermalAware);
        assert_eq!(spec.table, PStateTable::p4_xeon());
        assert_eq!(spec.interval, SimDuration::from_millis(10));
        // Trigger-only decision points are the default.
        assert_eq!(spec.max_hold, None);
        let custom = DvfsSpec {
            governor: GovernorKind::Fixed(2),
            interval: SimDuration::from_millis(50),
            ..DvfsSpec::default()
        };
        let cfg = cfg.dvfs(custom.clone());
        assert_eq!(cfg.dvfs, Some(custom));
        assert!(!cfg.dvfs_off().dvfs_enabled());
    }

    #[test]
    fn engine_mode_builders() {
        let cfg = SimConfig::xseries445();
        assert!(!cfg.strided_enabled());
        assert_eq!(cfg.max_stride, SimDuration::ZERO);
        let cfg = cfg.strided();
        assert!(cfg.strided_enabled());
        assert_eq!(cfg.max_stride, SimConfig::DEFAULT_MAX_STRIDE);
        let cfg = cfg.max_stride(SimDuration::from_millis(5));
        assert_eq!(cfg.max_stride, SimDuration::from_millis(5));
        // A cap at the tick is the fixed-tick reference, whatever the
        // tick.
        assert!(!cfg.clone().max_stride(cfg.tick).strided_enabled());
        let mut fine = cfg;
        fine.tick = SimDuration::from_micros(500);
        assert!(fine.strided_enabled());
        assert!(!fine
            .max_stride(SimDuration::from_micros(500))
            .strided_enabled());
    }

    #[test]
    fn parallel_builder_implies_strided() {
        let cfg = SimConfig::xseries445();
        assert!(!cfg.parallel_enabled());
        let cfg = cfg.parallel(4);
        assert!(cfg.parallel_enabled());
        assert_eq!(cfg.parallel_workers, Some(4));
        // Partitions ride the strided core.
        assert_eq!(cfg.max_stride, SimConfig::DEFAULT_MAX_STRIDE);
        // An explicit stride cap survives.
        let cfg = SimConfig::xseries445()
            .max_stride(SimDuration::from_millis(5))
            .parallel(2);
        assert_eq!(cfg.max_stride, SimDuration::from_millis(5));
        // Zero workers clamps to one.
        assert_eq!(
            SimConfig::xseries445().parallel(0).parallel_workers,
            Some(1)
        );
    }

    #[test]
    fn builder_round_trip() {
        let cfg = SimConfig::xseries445()
            .seed(99)
            .energy_aware(false)
            .throttling(false)
            .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
            .respawn(false)
            .perfect_estimation(true)
            .trace_events(true)
            .metrics_every(SimDuration::from_millis(250))
            .profile_engine(true)
            .cooling_factors(vec![1.0; 8]);
        assert_eq!(cfg.seed, 99);
        assert!(!cfg.energy_aware);
        assert!(!cfg.throttling);
        assert_eq!(cfg.max_power, MaxPowerSpec::PerPackage(Watts(40.0)));
        assert!(!cfg.respawn);
        assert!(cfg.perfect_estimation);
        assert!(cfg.event_trace);
        assert_eq!(cfg.metrics_interval, Some(SimDuration::from_millis(250)));
        assert!(cfg.profile_engine);
        assert_eq!(cfg.cooling_factors.len(), 8);
    }
}
