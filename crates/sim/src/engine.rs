//! The simulation engine: advances the machine, drives the scheduler,
//! and wires the energy-aware policies into it exactly where the paper
//! patched Linux (Section 5).
//!
//! Each step spans the exact time to the next scheduling-relevant
//! event — open-workload arrival, sleeper wake, timeslice expiry, DVFS
//! trigger, balancer interval, metrics snapshot, run end — capped
//! at [`SimConfig::max_stride`] and floored at one
//! [`SimConfig::tick`]. Physics, thermal state, and the Eq. 2
//! estimators integrate exactly over any span (the variable-period
//! averages compose), so longer steps trade no modelling fidelity
//! where conditions are constant; where a `hlt` throttle flip could
//! occur inside a span the stride collapses to the tick, preserving
//! the bang-bang duty cycle. A cap at or below the tick (the default)
//! makes every step one tick: the fixed-tick reference.

use crate::api::EngineCounters;
use crate::config::SimConfig;
use crate::counter_memo::CounterMemo;
use crate::dvfs::{DomainDecision, DomainSignals, Horizon};
use crate::machine::PhysicalMachine;
use crate::runtime::{TaskRuntime, WarmthModel};
use crate::trace::{merge_residency, phase_latencies, LatencyStats, SimReport, ThermalTrace};
use ebs_core::{
    place_new_task, EnergyAwareBalancer, EnergyEstimator, HotTaskConfig, HotTaskMigrator,
    PlacementTable, PowerState, PowerStateConfig,
};
use ebs_counters::{calibration, ceil_count, EnergyModel};
use ebs_dvfs::{Governor, GovernorInput};
use ebs_sched::{
    idlest_cpu, BalanceTimers, BinaryId, LoadBalancer, LoadBalancerConfig, System, TaskConfig,
    TaskId, TaskState, TaskTable,
};
use ebs_thermal::ThrottleState;
use ebs_topology::CpuId;
use ebs_trace::{CounterId, EventKind, EventTrace, GaugeId, MetricsRegistry, PhaseProfiler};
use ebs_units::{Celsius, Joules, SimDuration, SimTime, Watts};
use ebs_workloads::{ArrivalProcess, Program, ProgramState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Time for a first-order exponential average at `avg`, driven by a
/// constant sample, to reach `target`; `None` when it never does
/// (`target` not strictly between `avg` and `sample`).
pub(crate) fn crossing_time_s(avg: f64, sample: f64, target: f64, tau_s: f64) -> Option<f64> {
    let num = sample - avg;
    let den = sample - target;
    if den == 0.0 || num == 0.0 || (num > 0.0) != (den > 0.0) || num.abs() <= den.abs() {
        return None;
    }
    Some(tau_s * (num / den).ln())
}

/// Which balancing policy drives periodic migration decisions.
#[derive(Clone, Debug)]
enum Balancer {
    /// The stock Linux-like load balancer (energy-aware disabled).
    Baseline(LoadBalancer),
    /// The merged energy-and-load balancer of Fig. 4.
    EnergyAware(EnergyAwareBalancer),
}

impl Balancer {
    /// The earliest instant any CPU's domain level is due for a
    /// periodic balancing pass.
    fn next_due(&self) -> SimTime {
        match self {
            Balancer::Baseline(lb) => lb.next_due(),
            Balancer::EnergyAware(eb) => eb.next_due(),
        }
    }
}

/// Per-CPU accounting of the currently running task's interval (energy
/// and execution time since it was dispatched or last accounted). An
/// idle CPU names no task, so no accumulator outlives its task.
#[derive(Clone, Copy, Debug, Default)]
struct IntervalAcc {
    task: Option<TaskId>,
    energy: Joules,
    time: SimDuration,
}

/// One package's power sums over its CPUs in core-major order
/// ([`ebs_topology::Topology::cpus_of_package`], the order the hot-task
/// trigger sums in), so a step sums each package once. Engine scratch,
/// like [`DomainSignals`]: never saved or hashed.
#[derive(Clone, Copy, Debug, Default)]
struct PackageSums {
    /// Thermal power, written after every physics step, at
    /// construction and on restore.
    thermal: Watts,
    /// Budget, fixed at construction.
    budget: Watts,
    /// Whether the package passed the hot-task pre-screen this step.
    hot: bool,
}

/// Whether `thermal` and `budget` are bit for bit the thermal-power and
/// budget sums over `cpus`, in their order.
fn sums_are_fresh(thermal: Watts, budget: Watts, power: &PowerState, cpus: &[CpuId]) -> bool {
    thermal.0.to_bits() == power.thermal_power_sum(cpus.iter().copied()).0.to_bits()
        && budget.0.to_bits() == power.max_power_sum(cpus.iter().copied()).0.to_bits()
}

/// Engine-phase indices into the self-profiler (names below, same
/// order).
const PHASE_STRIDE: usize = 0;
const PHASE_ARRIVALS: usize = 1;
const PHASE_PHYSICS: usize = 2;
const PHASE_THROTTLE: usize = 3;
const PHASE_DVFS: usize = 4;
const PHASE_SCHED: usize = 5;
const PHASE_SAMPLING: usize = 6;
const PHASE_NAMES: [&str; 7] = [
    "stride",
    "arrivals",
    "physics",
    "throttle",
    "dvfs",
    "scheduler",
    "sampling",
];

/// The metrics registry plus its snapshot cadence and the pre-interned
/// counter/gauge ids, so the per-step publishing path never hashes a
/// metric name.
struct MetricsState {
    reg: MetricsRegistry,
    interval: SimDuration,
    /// The next snapshot instant; bounds variable strides so every
    /// snapshot lands exactly on it.
    next: SimTime,
    c_steps: CounterId,
    c_ctx: CounterId,
    c_migrations: CounterId,
    c_completions: CounterId,
    c_arrivals: CounterId,
    c_instructions: CounterId,
    c_dvfs_decisions: CounterId,
    c_dvfs_transitions: CounterId,
    c_throttle_engagements: CounterId,
    /// Per-CPU thermal power, watts.
    g_power: Vec<GaugeId>,
    /// Per-CPU runqueue depth (including the running task).
    g_rq: Vec<GaugeId>,
    /// Per-frequency-domain clock, GHz.
    g_freq: Vec<GaugeId>,
    /// Per-frequency-domain windowed utilization, `[0, 1]`.
    g_util: Vec<GaugeId>,
}

impl MetricsState {
    /// `per_core` selects the gauge naming: the historical
    /// `dvfs.*.pkg{i}` names under per-package scope (domain i ==
    /// package i), `dvfs.*.dom{i}` under per-core scope.
    fn new(interval: SimDuration, n_cpus: usize, n_domains: usize, per_core: bool) -> Self {
        let mut reg = MetricsRegistry::new();
        let dom_name = |i: usize| {
            if per_core {
                format!("dom{i}")
            } else {
                format!("pkg{i}")
            }
        };
        MetricsState {
            c_steps: reg.counter("engine.steps"),
            c_instructions: reg.counter("engine.instructions"),
            c_ctx: reg.counter("sched.context_switches"),
            c_migrations: reg.counter("sched.migrations"),
            c_completions: reg.counter("sched.completions"),
            c_arrivals: reg.counter("workloads.arrivals"),
            c_dvfs_decisions: reg.counter("dvfs.decisions"),
            c_dvfs_transitions: reg.counter("dvfs.transitions"),
            c_throttle_engagements: reg.counter("thermal.throttle_engagements"),
            g_power: (0..n_cpus)
                .map(|c| reg.gauge(&format!("thermal.power_w.cpu{c}")))
                .collect(),
            g_rq: (0..n_cpus)
                .map(|c| reg.gauge(&format!("sched.runqueue.cpu{c}")))
                .collect(),
            g_freq: (0..n_domains)
                .map(|d| reg.gauge(&format!("dvfs.freq_ghz.{}", dom_name(d))))
                .collect(),
            g_util: (0..n_domains)
                .map(|d| reg.gauge(&format!("dvfs.util.{}", dom_name(d))))
                .collect(),
            reg,
            interval,
            next: SimTime::ZERO,
        }
    }
}

/// An open-workload arrival routed to an engine by an outer
/// dispatcher — the parallel synchronizer between packages, or the
/// fleet dispatcher between hosts: the resolved program plus the
/// exact due instant from the shared arrival process.
#[derive(Clone, Debug)]
pub struct RoutedArrival {
    pub due: SimTime,
    pub program: Program,
    pub seed: u64,
    /// The load-curve phase of the arrival, as an index into the
    /// curve's phases.
    pub phase: u8,
}

/// A task in flight between partitions: everything the receiving
/// engine needs to resume it as if it had migrated across packages.
pub(crate) struct TaskHandoff {
    pub runtime: TaskRuntime,
    pub profile: Watts,
    pub binary: u64,
}

/// A complete simulation: machine, scheduler, policies, and statistics.
pub struct Simulation {
    cfg: SimConfig,
    sys: System,
    machine: PhysicalMachine,
    power: PowerState,
    estimator: EnergyEstimator,
    balancer: Balancer,
    hot: HotTaskMigrator,
    placement: PlacementTable,
    warmth: WarmthModel,
    /// The frequency governor (`None` when DVFS is disabled). Governors
    /// hold configuration only, so one instance decides for every
    /// domain.
    governor: Option<Box<dyn Governor + Send>>,
    /// Per-frequency-domain decision state, indexed like
    /// [`crate::DomainMap`]: one record per package on homogeneous
    /// machines, one per core on hybrid shapes. The vector is
    /// `n_domains` long even with DVFS off, so an hlt warm-up restores
    /// fresh records into DVFS cells.
    dvfs: Vec<DomainDecision>,
    /// Per-frequency-domain signals a step reads, indexed like `dvfs`:
    /// power sums and the kept busy fraction and predicted sample.
    signals: Vec<DomainSignals>,
    /// Per-package CPU lists, precomputed once — the topology is
    /// immutable and the physics/throttle paths below run every tick.
    pkg_cpus: Vec<Vec<CpuId>>,
    /// Per-package power sums and hot-task pre-screen, indexed like
    /// `pkg_cpus`.
    pkg_sums: Vec<PackageSums>,
    /// Governor decisions taken over the run (statistics: the
    /// event-driven path exists to shrink this).
    dvfs_decisions: u64,
    /// Arrivals routed to this engine by an outer synchronizer (the
    /// parallel partition driver), sorted by due time and drained by
    /// `arrival_tick` exactly like the engine-owned arrival process.
    inbox: std::collections::VecDeque<RoutedArrival>,
    /// Runtime state of every live task, under the scheduler's ids:
    /// a runtime leaves with its task.
    runtimes: TaskTable<TaskRuntime>,
    /// Program catalog by binary id, for respawning.
    programs: HashMap<u64, Program>,
    /// Blocked tasks and their wake times (microseconds).
    sleepers: BinaryHeap<Reverse<(u64, TaskId)>>,
    /// Open-workload arrival process (None for closed runs).
    open: Option<ArrivalProcess>,
    /// Sojourn times of completed open tasks: (arrival phase index,
    /// secs).
    latencies: Vec<(u8, f64)>,
    /// Per-CPU fractional cycles not yet counted as whole cycles.
    /// `(freq * dt * share)` is rarely integral; truncating it every
    /// step would make retired work depend on the step size, so the
    /// remainder carries over (tick-size-invariant accounting).
    cycle_carry: Vec<f64>,
    /// Per-CPU fractional instructions not yet retired (same carry
    /// scheme, applied to the instruction stream).
    instr_carry: Vec<f64>,
    /// Per-CPU memo of the last step's counts and Eq. 1 energies
    /// (scratch: never saved or hashed).
    counter_memo: Vec<CounterMemo>,
    /// Time constant of the per-CPU thermal-power averages, for the
    /// stride bound that predicts throttle flips.
    thermal_tau: SimDuration,
    rng: StdRng,
    acc: Vec<IntervalAcc>,
    /// Whether a new-idle balance attempt is pending for the CPU.
    newidle_pending: Vec<bool>,
    now: SimTime,
    // Statistics.
    steps: u64,
    completions: HashMap<u64, u64>,
    instructions: u64,
    max_temp: Celsius,
    true_energy: Joules,
    estimated_energy: Joules,
    /// Structured scheduling-event trace (`None` when disabled: the
    /// disabled path is a single branch and allocates nothing).
    tracer: Option<EventTrace>,
    /// Metrics registry with its snapshot cadence (`None` = disabled).
    metrics: Option<Box<MetricsState>>,
    /// Host wall-time self-profile per engine phase.
    profiler: Option<PhaseProfiler>,
    /// Per-task successive-timeslice power samples (Table 1), recorded
    /// when enabled via [`Simulation::record_slice_powers`].
    slice_powers: Option<HashMap<TaskId, Vec<Watts>>>,
}

impl Simulation {
    /// Builds a simulation from a configuration. The energy model is
    /// calibrated (least squares over synthetic multimeter runs) as
    /// part of bring-up, unless `perfect_estimation` is set.
    ///
    /// # Panics
    ///
    /// Panics if [`SimConfig::tick`] is zero: the tick floors every
    /// step, so a zero tick could never advance the clock.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(
            !cfg.tick.is_zero(),
            "SimConfig::tick must be positive (a zero tick never advances the clock)"
        );
        let topo = cfg.topology_builder().build();
        let machine = PhysicalMachine::new(&cfg, &topo);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Calibrate one model per core class, class 0 first — the
        // single-class path consumes the RNG stream exactly as the
        // legacy one-model calibration did.
        let models: Vec<EnergyModel> = if cfg.perfect_estimation {
            machine.catalog().iter().map(|c| c.truth.model).collect()
        } else {
            machine
                .catalog()
                .iter()
                .map(|c| calibration::standard_calibration(&c.truth, &mut rng))
                .collect()
        };
        let n_cpus = topo.n_cpus();
        let power_cfg = PowerStateConfig {
            idle_power: machine.halt_power_share(),
            ..PowerStateConfig::default()
        };
        let power = PowerState::new(n_cpus, machine.max_powers(), power_cfg);
        let threads_per_package = topo.threads_per_package();
        let cpu_class: Vec<usize> = topo.cpu_ids().map(|c| topo.class_of(c).0).collect();
        let class_halt: Vec<Watts> = machine
            .catalog()
            .iter()
            .map(|c| c.truth.halt_power / threads_per_package as f64)
            .collect();
        let estimator = EnergyEstimator::with_classes(models, cpu_class, class_halt);
        // Every policy reads class-weighted capacities from the
        // aggregate tree. `class_blind` installs none, so every CPU
        // keeps the tree's default weight of 1.0.
        let mut sys = System::new(topo);
        if !cfg.class_blind {
            let capacities = machine.catalog().cpu_capacities(sys.topology());
            sys.set_cpu_capacities(&capacities);
        }
        let balancer = if cfg.energy_aware {
            Balancer::EnergyAware(EnergyAwareBalancer::new(&sys, cfg.balance))
        } else {
            Balancer::Baseline(LoadBalancer::new(&sys, LoadBalancerConfig::default()))
        };
        let warmth = WarmthModel {
            floor: cfg.warmup_ipc_floor,
            ramp: cfg.warmup_instructions,
            floor_cross_node: cfg.warmup_ipc_floor_cross_node,
            ramp_cross_node: cfg.warmup_instructions_cross_node,
        };
        let tracer = cfg.event_trace.then(EventTrace::new);
        let profiler = cfg.profile_engine.then(|| PhaseProfiler::new(&PHASE_NAMES));
        // DVFS decision state is keyed per *frequency domain*: under
        // per-package scope the domain map is index-identical to the
        // package tables.
        let n_domains = machine.domain_map().n_domains();
        let pkg_cpus: Vec<Vec<CpuId>> = (0..sys.topology().n_packages())
            .map(|p| {
                sys.topology()
                    .cpus_of_package(ebs_topology::PackageId(p))
                    .collect()
            })
            .collect();
        let open = cfg
            .open_workload
            .clone()
            .map(|spec| ArrivalProcess::new(spec, cfg.seed));
        // Budgets never change, so their sums are taken once; thermal
        // sums are written below from the fresh averages.
        let pkg_sums = pkg_cpus
            .iter()
            .map(|cpus| PackageSums {
                budget: power.max_power_sum(cpus.iter().copied()),
                ..PackageSums::default()
            })
            .collect();
        let map = machine.domain_map();
        let signals = (0..n_domains)
            .map(|dom| DomainSignals::new(power.max_power_sum(map.cpus(dom).iter().copied())))
            .collect();
        let mut sim = Simulation {
            sys,
            power,
            estimator,
            balancer,
            hot: HotTaskMigrator::new(HotTaskConfig::default()),
            placement: PlacementTable::new(Watts(30.0)),
            warmth,
            governor: cfg.dvfs.as_ref().map(|spec| spec.governor.build()),
            dvfs: vec![DomainDecision::default(); n_domains],
            signals,
            pkg_cpus,
            pkg_sums,
            dvfs_decisions: 0,
            inbox: std::collections::VecDeque::new(),
            runtimes: TaskTable::new(),
            programs: HashMap::new(),
            sleepers: BinaryHeap::new(),
            open,
            latencies: Vec::new(),
            cycle_carry: vec![0.0; n_cpus],
            instr_carry: vec![0.0; n_cpus],
            counter_memo: vec![CounterMemo::default(); n_cpus],
            thermal_tau: power_cfg.time_constant,
            rng,
            acc: vec![IntervalAcc::default(); n_cpus],
            newidle_pending: vec![false; n_cpus],
            now: SimTime::ZERO,
            steps: 0,
            completions: HashMap::new(),
            instructions: 0,
            max_temp: Celsius::AMBIENT,
            true_energy: Joules::ZERO,
            estimated_energy: Joules::ZERO,
            tracer,
            metrics: cfg.metrics_interval.map(|every| {
                Box::new(MetricsState::new(
                    every,
                    n_cpus,
                    n_domains,
                    machine.domain_map().scope() == ebs_dvfs::DomainScope::PerCore,
                ))
            }),
            profiler,
            slice_powers: None,
            machine,
            cfg,
        };
        sim.write_power_sums();
        sim
    }

    /// Enables per-timeslice power logging (Table 1 experiments).
    pub fn record_slice_powers(&mut self) {
        self.slice_powers = Some(HashMap::new());
    }

    /// The recorded per-task timeslice powers, if enabled.
    pub fn slice_powers(&self) -> Option<&HashMap<TaskId, Vec<Watts>>> {
        self.slice_powers.as_ref()
    }

    /// The scheduler state (read-only).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// The per-CPU power metrics (read-only).
    pub fn power_state(&self) -> &PowerState {
        &self.power
    }

    /// The physical machine (read-only).
    pub fn machine(&self) -> &PhysicalMachine {
        &self.machine
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The per-CPU thermal-power trace (figs. 6/7): one row per
    /// metrics snapshot, read from the `thermal.power_w.cpu*` gauges.
    /// Empty unless metrics are enabled
    /// ([`SimConfig::metrics_every`]).
    pub fn thermal_trace(&self) -> ThermalTrace {
        let samples = self.metrics.as_deref().map_or_else(Vec::new, |m| {
            m.reg
                .snapshots()
                .iter()
                .map(|snap| {
                    let row = m.g_power.iter().map(|&g| Watts(snap.gauge(g))).collect();
                    (snap.t, row)
                })
                .collect()
        });
        ThermalTrace { samples }
    }

    /// The CPUs `task` ran on (fig. 9): its `Spawn` and `Migration`
    /// events, in order. Empty unless event tracing is enabled
    /// ([`SimConfig::trace_events`]).
    pub fn task_visits(&self, task: TaskId) -> Vec<(SimTime, CpuId)> {
        self.tracer
            .iter()
            .flat_map(EventTrace::iter)
            .filter_map(|ev| match ev.kind {
                EventKind::Spawn { task: id, cpu, .. }
                | EventKind::Migration { task: id, cpu, .. }
                    if id == task.0 =>
                {
                    Some((ev.t, CpuId(cpu as usize)))
                }
                _ => None,
            })
            .collect()
    }

    /// The structured event trace (`None` unless enabled).
    pub fn events(&self) -> Option<&EventTrace> {
        self.tracer.as_ref()
    }

    /// The metrics registry (`None` unless enabled).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref().map(|m| &m.reg)
    }

    /// The engine self-profile (`None` unless enabled).
    pub fn engine_profile(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// The run so far as a Chrome trace-event JSON document (openable
    /// in `ui.perfetto.dev`), with counter tracks from the metrics
    /// registry when it is enabled. `None` unless event tracing is on.
    pub fn perfetto_json(&self) -> Option<String> {
        let trace = self.tracer.as_ref()?;
        let mut names: HashMap<u64, String> = self
            .programs
            .iter()
            .map(|(&binary, p)| (binary, p.name.to_string()))
            .collect();
        if let Some(open) = &self.open {
            for p in &open.spec().programs {
                names.entry(p.binary).or_insert_with(|| p.name.to_string());
            }
        }
        let events = trace.to_vec();
        Some(ebs_trace::perfetto::export(
            &events,
            self.metrics.as_deref().map(|m| &m.reg),
            &names,
            self.cfg.effective_domain_scope() == ebs_dvfs::DomainScope::PerCore,
        ))
    }

    /// Records one scheduling event into the event trace when it is
    /// enabled. With tracing disabled this allocates nothing.
    #[inline]
    fn emit(&mut self, kind: EventKind) {
        if let Some(trace) = self.tracer.as_mut() {
            trace.record(self.now, kind);
        }
    }

    /// Starts a profiled phase (`None` when profiling is off, so the
    /// disabled path never reads the host clock).
    #[inline]
    fn prof_start(&self) -> Option<std::time::Instant> {
        self.profiler.as_ref().map(|_| std::time::Instant::now())
    }

    /// Ends a profiled phase started by [`Simulation::prof_start`].
    #[inline]
    fn prof_end(&mut self, phase: usize, t0: Option<std::time::Instant>) {
        if let (Some(p), Some(t0)) = (self.profiler.as_mut(), t0) {
            p.record(phase, t0.elapsed());
        }
    }

    /// Spawns one instance of a program; returns its task id.
    pub fn spawn_program(&mut self, program: &Program) -> TaskId {
        self.programs
            .entry(program.binary)
            .or_insert_with(|| program.clone());
        let seed = self.rng.gen();
        self.spawn_internal(program.clone(), seed)
    }

    /// Spawns `copies` instances of every program in the slice (the
    /// paper's "started each program thrice, for a total of 18 running
    /// tasks").
    pub fn spawn_mix(&mut self, programs: &[Program], copies: usize) {
        for program in programs {
            for _ in 0..copies {
                self.spawn_program(program);
            }
        }
    }

    /// Spawns a [`ebs_workloads::Mix`] (programs with counts).
    pub fn spawn_mix_entries(&mut self, mix: &ebs_workloads::Mix) {
        for entry in mix {
            for _ in 0..entry.count {
                self.spawn_program(&entry.program);
            }
        }
    }

    fn spawn_internal(&mut self, program: Program, seed: u64) -> TaskId {
        let binary = BinaryId(program.binary);
        let profile = if self.cfg.energy_aware {
            self.placement.profile_for(binary)
        } else {
            Watts(30.0)
        };
        self.admit(
            binary,
            profile,
            TaskRuntime::new(ProgramState::new(program, seed)),
        )
    }

    /// Places a new task with initial `profile` (energy-aware placement
    /// or the idlest CPU), spawns it there, installs its runtime state,
    /// and records the spawn.
    fn admit(&mut self, binary: BinaryId, profile: Watts, mut rt: TaskRuntime) -> TaskId {
        let cpu = if self.cfg.energy_aware {
            place_new_task(&self.sys, &self.power, profile)
        } else {
            idlest_cpu(&self.sys)
        }
        .unwrap_or(CpuId(0));
        let id = self.sys.spawn(
            TaskConfig {
                binary,
                initial_profile: profile,
            },
            cpu,
        );
        rt.last_class = self.sys.topology().class_of(cpu).0;
        let rt_id = self.runtimes.insert(rt);
        debug_assert_eq!(rt_id, id, "runtime ids follow the scheduler's");
        self.emit(EventKind::Spawn {
            task: id.0,
            cpu: cpu.0 as u32,
            binary: binary.0,
        });
        id
    }

    /// Queues an arrival routed by the parallel synchronizer: it
    /// spawns when the clock reaches `due` (the next stride is
    /// bounded the same way engine-owned arrivals bound it).
    pub(crate) fn queue_arrival(&mut self, a: RoutedArrival) {
        debug_assert!(
            self.inbox.back().is_none_or(|b| b.due <= a.due),
            "routed arrivals must be queued in due order"
        );
        self.inbox.push_back(a);
    }

    /// Removes up to `n` queued (never running) tasks for
    /// cross-partition handoff, in deterministic CPU-then-queue order.
    pub(crate) fn extract_queued(&mut self, n: usize) -> Vec<TaskHandoff> {
        let mut out = Vec::new();
        'cpus: for c in 0..self.n_cpus() {
            let cpu = CpuId(c);
            loop {
                if out.len() == n {
                    break 'cpus;
                }
                let current = self.sys.rq(cpu).current();
                let Some(id) = self.sys.rq(cpu).iter_all().find(|&id| Some(id) != current) else {
                    break;
                };
                let profile = self.sys.task(id).profile();
                let binary = self.sys.task(id).binary().0;
                if self.sys.take_queued(id).is_err() {
                    break;
                }
                let runtime = self
                    .runtimes
                    .remove(id)
                    .expect("queued task has runtime state");
                out.push(TaskHandoff {
                    runtime,
                    profile,
                    binary,
                });
            }
        }
        out
    }

    /// Injects a task handed off from another partition: places it
    /// like a fresh spawn, then restores its runtime state with the
    /// warmth reset of a cross-node migration (the handoff *is* a
    /// cross-package move). Arrival metadata survives, so sojourn
    /// times keep measuring from the original arrival.
    pub(crate) fn inject_task(&mut self, h: TaskHandoff) {
        let mut rt = h.runtime;
        rt.note_migration(0, true);
        self.admit(BinaryId(h.binary), h.profile, rt);
    }

    /// Raw open-workload sojourn samples: (arrival phase index,
    /// seconds).
    pub(crate) fn raw_latencies(&self) -> &[(u8, f64)] {
        &self.latencies
    }

    /// Appends the sojourn seconds recorded past `offset` to `out` and
    /// advances `offset` to the end of the record.
    pub(crate) fn sojourns_since(&self, offset: &mut usize, out: &mut Vec<f64>) {
        out.extend(self.latencies[*offset..].iter().map(|&(_, s)| s));
        *offset = self.latencies.len();
    }

    /// The cumulative counters [`Simulation::report`] summarises.
    pub(crate) fn counters(&self) -> EngineCounters {
        EngineCounters {
            instructions_retired: self.instructions,
            completions: self.completions.values().sum(),
            true_energy: self.true_energy,
        }
    }

    /// Runnable tasks (running + queued) across the whole system.
    pub(crate) fn runnable_tasks(&self) -> usize {
        (0..self.n_cpus())
            .map(|c| self.sys.nr_running(CpuId(c)))
            .sum()
    }

    /// Routed arrivals queued but not yet spawned — part of the load a
    /// dispatcher routing one arrival at a time must account for.
    pub(crate) fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Runs the simulation for a span of simulated time. The final
    /// step is clamped so the run covers *exactly* `duration` —
    /// [`SimReport::duration`] equals the time requested even when it
    /// is not a tick multiple.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            let t0 = self.prof_start();
            let dt = self.next_stride(end);
            self.prof_end(PHASE_STRIDE, t0);
            self.step_span(dt);
        }
        // Drain arrivals due exactly by the horizon: the next step
        // would spawn them at this same instant, so doing it here
        // makes the arrival count over `[0, duration]` a pure
        // function of the clock — independent of engine mode and of
        // any stride slack near the run end.
        self.arrival_tick();
    }

    /// One engine step spanning `dt`: releases every event due *now*
    /// (wakes, arrivals, dispatches), then advances machine, policies,
    /// and scheduler state over the span in one pass. `dt` is bounded
    /// so that no scheduling-relevant event falls strictly inside the
    /// span.
    fn step_span(&mut self, dt: SimDuration) {
        debug_assert!(!dt.is_zero(), "empty engine step");
        self.steps += 1;
        let t0 = self.prof_start();
        self.wake_sleepers();
        self.arrival_tick();
        self.dispatch_idle_cpus();
        self.prof_end(PHASE_ARRIVALS, t0);

        self.now += dt;
        self.sys.set_now(self.now);

        let t0 = self.prof_start();
        let completed = self.physics_tick(dt);
        self.prof_end(PHASE_PHYSICS, t0);
        if self.cfg.throttling {
            let t0 = self.prof_start();
            self.throttle_tick(dt);
            self.prof_end(PHASE_THROTTLE, t0);
        }
        let t0 = self.prof_start();
        self.dvfs_tick(dt);
        self.prof_end(PHASE_DVFS, t0);
        let t0 = self.prof_start();
        self.scheduler_tick(dt, &completed);
        self.prof_end(PHASE_SCHED, t0);
        let t0 = self.prof_start();
        self.sample_tick();
        self.prof_end(PHASE_SAMPLING, t0);
        self.emit(EventKind::EngineStep { stride: dt });
    }

    /// The span of the next step, from `self.now`: the time to the
    /// nearest scheduling-relevant event, capped at the stride cap and
    /// the run end, floored at one tick (events inside a tick resolve
    /// at tick granularity).
    fn next_stride(&self, end: SimTime) -> SimDuration {
        let tick = self.cfg.tick;
        let cap = self.cfg.max_stride;
        // A cap at or below the tick leaves nothing to predict: every
        // bound below can only shorten the span, and the floor lifts
        // it back to one tick.
        if cap <= tick {
            return tick.min(end - self.now);
        }
        // Events that merely *add or finish work* — arrivals,
        // completions, clustered timeslice expiries — may resolve a
        // few ticks late: one-tick steps already quantise them to a
        // tick, and a handful of extra milliseconds is noise
        // against service times while letting a saturated machine's
        // event hail merge into fewer spans.
        let slack = tick * 4;
        let mut dt = cap;

        // Sleeper wakes and open-workload arrivals.
        if let Some(&Reverse((when, _))) = self.sleepers.peek() {
            dt = dt.min(SimTime::from_micros(when).saturating_since(self.now));
        }
        if let Some(open) = &self.open {
            dt = dt.min(open.next_arrival().saturating_since(self.now).max(slack));
        }
        if let Some(a) = self.inbox.front() {
            dt = dt.min(a.due.saturating_since(self.now).max(slack));
        }
        // Forced governor decisions (the `max_hold` fallback).
        // Governor *triggers* are predicted per domain in the loop
        // below.
        if self.cfg.dvfs.is_some() {
            for deadline in self.dvfs.iter().filter_map(DomainDecision::deadline) {
                dt = dt.min(deadline.saturating_since(self.now));
            }
        }
        // An active snapshot cadence bounds strides so snapshots land
        // on their exact instants; no subscription, no bound.
        if let Some(m) = &self.metrics {
            dt = dt.min(m.next.saturating_since(self.now));
        }
        // Periodic balancing passes.
        dt = dt.min(self.balancer.next_due().saturating_since(self.now));

        let tau_s = self.thermal_tau.as_secs_f64();
        let threads_per_core = self.sys.topology().threads_per_core().max(1);
        for (pkg, cpus) in self.pkg_cpus.iter().enumerate() {
            let pkg_running = self.machine.throttles[pkg].state() == ThrottleState::Running;
            if pkg_running {
                // `cpus` is core-major, so each chunk is one core.
                for core in cpus.chunks(threads_per_core) {
                    let share = self.smt_share(core);
                    for &cpu in core {
                        let Some(task) = self.sys.current(cpu) else {
                            continue;
                        };
                        let rt = &self.runtimes[task];
                        // Timeslice expiry — but only where the expiry can
                        // change *what runs*: round-robin with queued
                        // tasks, or a program that may block at slice end.
                        // A solo non-blocking task just gets a fresh slice
                        // and keeps running, and the Eq. 2 variable-period
                        // profile average absorbs a stretched slice
                        // exactly, so those expiries resolve at span ends.
                        // Expiries that do matter get a few ticks of slack
                        // (a slice stretching 100 → 104 ms shifts nothing
                        // measurable) so a saturated machine's clustered
                        // expiries merge into one span instead of forcing
                        // per-tick steps.
                        let expiry_matters =
                            self.sys.nr_running(cpu) > 1 || rt.program.program().blocking.is_some();
                        if expiry_matters {
                            if let Some(left) = self.sys.time_to_timeslice_expiry(cpu) {
                                dt = dt.min(left.max(slack));
                            }
                        }
                        // Earliest completion and dwell-driven phase
                        // rotations: these change the task set or the
                        // execution rates, so the span ends near them. The
                        // completion estimate uses the task's *current*
                        // rate (clock, SMT share, warmth): past warmup the
                        // rate is constant within a span, so the estimate
                        // is exact and the completion lands right on the
                        // span boundary. A warming task speeds up and
                        // completes slightly inside its span instead —
                        // detected at the span end, like in a one-tick step.
                        if let Some(total) = rt.program.program().total_work {
                            let freq = self.machine.cpu_frequency(cpu).0;
                            let rate =
                                freq * share * rt.program.ipc() * rt.warmth_factor(&self.warmth);
                            if rate > 0.0 {
                                let left = total.saturating_sub(rt.program.work_done());
                                let eta = SimDuration::from_micros(ceil_count(
                                    (left as f64 / rate) * 1e6,
                                ));
                                dt = dt.min(eta.max(slack));
                            }
                        }
                        if let Some(dwell) = rt.program.time_to_phase_change() {
                            dt = dt.min(dwell);
                        }
                    }
                }
            }
            // Throttle flips change what executes, so they may not
            // fall inside a span: if the package's thermal power could
            // cross the controller's flip threshold, bound the span by
            // the predicted crossing time (exact for the first-order
            // average under constant samples); once past the
            // threshold, fall back to tick-sized steps.
            if self.cfg.throttling {
                let avg = self.package_sums(pkg).thermal.0;
                let thr = self.machine.throttles[pkg].flip_threshold().0;
                let crossed = if pkg_running { avg >= thr } else { avg < thr };
                if crossed {
                    dt = dt.min(tick);
                } else if dt > tick {
                    // Cheap screen before the per-CPU prediction: over
                    // one capped span the average moves by at most
                    // `w(cap) · |sample - avg|`; with samples bounded
                    // by ~120 W per hardware thread, a package more
                    // than `margin` away cannot reach the threshold
                    // this span.
                    let w_cap = 1.0 - (-dt.as_secs_f64() / tau_s).exp();
                    let margin = w_cap * 120.0 * cpus.len() as f64;
                    if (avg - thr).abs() <= margin {
                        let sample = self.predicted_sample(pkg, cpus, threads_per_core);
                        if let Some(t) = crossing_time_s(avg, sample, thr, tau_s) {
                            dt = dt.min(SimDuration::from_micros((t * 1e6) as u64));
                        }
                    }
                }
            }
        }
        // Governor triggers, per frequency domain: bound the span by the
        // predicted escape time of the last decision's hold bands, so a
        // trigger lands on a step end instead of drifting up to a whole
        // stride late. Without DVFS every hold is `None`, which would
        // floor every span at one tick.
        if let Some(spec) = &self.cfg.dvfs {
            let at = Horizon {
                now: self.now,
                tick,
                window_cap_s: spec.interval.as_secs_f64(),
                tau_s,
            };
            let map = self.machine.domain_map();
            for (dom, d) in self.dvfs.iter().enumerate() {
                let signals = self.domain_signals(dom);
                dt = d.stride_bound(
                    &at,
                    dt,
                    signals.busy_fraction(|| self.busy_fraction(dom)),
                    signals.thermal,
                    || {
                        signals.predicted_sample(|| {
                            self.predicted_sample(
                                map.package_of(dom),
                                map.cpus(dom),
                                threads_per_core,
                            )
                        })
                    },
                );
            }
        }
        dt.max(tick).min(end - self.now)
    }

    /// Combined throughput factor of two busy SMT siblings relative to
    /// one solo thread (the literature's ~1.25 for the Pentium 4).
    const SMT_SPEEDUP: f64 = 1.25;

    /// The issue share of each running thread of `core`, one
    /// `threads_per_core` chunk of a core-major CPU list: SMT contention
    /// is per *core*, so only the running hardware threads sharing its
    /// pipeline split the issue width. A one-thread core reads 1.0
    /// without looking.
    #[inline]
    fn smt_share(&self, core: &[CpuId]) -> f64 {
        if core.len() < 2 {
            return 1.0;
        }
        let n_active = core
            .iter()
            .filter(|&&c| self.sys.current(c).is_some())
            .count();
        if n_active <= 1 {
            1.0
        } else {
            Self::SMT_SPEEDUP / n_active as f64
        }
    }

    /// The instantaneous busy fraction of frequency domain `dom`: its
    /// share of CPUs running a task, zero while its package is halted
    /// (a throttled domain executes nothing, whatever its runqueues
    /// hold, so it reads as idle and the governor downclocks to
    /// relieve the pressure).
    fn busy_fraction(&self, dom: usize) -> f64 {
        let map = self.machine.domain_map();
        if self.machine.throttles[map.package_of(dom)].state() != ThrottleState::Running {
            return 0.0;
        }
        let cpus = map.cpus(dom);
        let busy = cpus
            .iter()
            .filter(|&&c| self.sys.current(c).is_some())
            .count();
        busy as f64 / cpus.len() as f64
    }

    /// Predicts the thermal-power *sample* sum a CPU list (a package,
    /// or one frequency domain of it) will feed its averages this
    /// span: the model power of each running task at its domain's
    /// clock and SMT share, halt power elsewhere. `pkg` is the package
    /// owning every CPU of the list (its throttle gates execution).
    /// Used only to bound strides; physics recomputes the real thing.
    /// SMT shares are taken per `threads_per_core` chunk of `cpus`,
    /// whatever order it lists.
    fn predicted_sample(&self, pkg: usize, cpus: &[CpuId], threads_per_core: usize) -> f64 {
        if self.machine.throttles[pkg].state() != ThrottleState::Running {
            // Halted: every CPU sits at its halt share.
            return self.machine.halt_floor(cpus);
        }
        let mut sum = 0.0;
        for core in cpus.chunks(threads_per_core) {
            let share = self.smt_share(core);
            for &cpu in core {
                let Some(task) = self.sys.current(cpu) else {
                    sum += self.machine.halt_power_share_of(cpu).0;
                    continue;
                };
                let dom = self.machine.domain_map().domain_of(cpu);
                let freq = self.machine.freq_domains[dom].frequency().0;
                let vsq = self.machine.freq_domains[dom].voltage_scale_sq();
                let rates = self.runtimes[task].program.current_rates();
                sum += self
                    .estimator
                    .model_for(cpu)
                    .power_for_rates(&rates, freq * share)
                    .0
                    * vsq;
            }
        }
        sum
    }

    /// Package `pkg`'s kept power sums.
    ///
    /// # Panics
    ///
    /// In debug builds, unless they are bit for bit fresh sums.
    #[inline]
    fn package_sums(&self, pkg: usize) -> &PackageSums {
        let sums = &self.pkg_sums[pkg];
        debug_assert!(
            sums_are_fresh(sums.thermal, sums.budget, &self.power, &self.pkg_cpus[pkg]),
            "kept power sums of package {pkg} differ from fresh ones"
        );
        sums
    }

    /// Frequency domain `dom`'s kept signals (DVFS runs only: without
    /// DVFS nothing writes the domain sums).
    ///
    /// # Panics
    ///
    /// In debug builds, unless its power sums are bit for bit fresh
    /// ones.
    #[inline]
    fn domain_signals(&self, dom: usize) -> &DomainSignals {
        let signals = &self.signals[dom];
        debug_assert!(
            sums_are_fresh(
                signals.thermal,
                signals.budget,
                &self.power,
                self.machine.domain_map().cpus(dom)
            ),
            "kept power sums of domain {dom} differ from fresh ones"
        );
        signals
    }

    /// Writes every package's thermal-power sum and, with DVFS, every
    /// frequency domain's, each over its own CPU list in that list's
    /// order: a per-package domain lists its CPUs ascending, its
    /// package core-major, and the two sums can differ in the last bit.
    /// Called wherever the averages change: after each physics step,
    /// at construction and on restore.
    fn write_power_sums(&mut self) {
        for (sums, cpus) in self.pkg_sums.iter_mut().zip(&self.pkg_cpus) {
            sums.thermal = self.power.thermal_power_sum(cpus.iter().copied());
        }
        if self.cfg.dvfs.is_some() {
            let map = self.machine.domain_map();
            for (dom, signals) in self.signals.iter_mut().enumerate() {
                signals.thermal = self.power.thermal_power_sum(map.cpus(dom).iter().copied());
            }
        }
    }

    /// Spawns open-workload arrivals due now. The arrival process
    /// ([`ArrivalProcess`]) thins a peak-rate Poisson stream — exact
    /// for any time-varying rate, and deterministic per seed.
    fn arrival_tick(&mut self) {
        // Arrivals routed by an outer synchronizer first: the inbox is
        // sorted by due time and spawns follow routing order, which is
        // deterministic per seed.
        while self.inbox.front().is_some_and(|a| a.due <= self.now) {
            let a = self.inbox.pop_front().expect("checked non-empty");
            let id = self.spawn_internal(a.program, a.seed);
            self.runtimes[id].arrival = Some((self.now, a.phase));
        }
        let due = match self.open.as_mut() {
            Some(open) => open.pop_due(self.now),
            None => return,
        };
        for arrival in due {
            let program = self
                .open
                .as_ref()
                .expect("open workload active")
                .spec()
                .materialize(&arrival);
            let id = self.spawn_internal(program, arrival.seed);
            self.runtimes[id].arrival = Some((self.now, arrival.phase));
        }
    }

    /// Wakes blocked tasks whose sleep expired.
    fn wake_sleepers(&mut self) {
        while let Some(&Reverse((when, task))) = self.sleepers.peek() {
            if when > self.now.as_micros() {
                break;
            }
            self.sleepers.pop();
            self.sys.wake(task, None);
            self.emit(EventKind::Wakeup { task: task.0 });
        }
    }

    /// Gives idle CPUs with runnable tasks something to run. A CPU
    /// dispatches only from its own queue, and a dispatch changes no
    /// other queue, so the walk stops once it has passed every waiting
    /// task: no later CPU holds one.
    fn dispatch_idle_cpus(&mut self) {
        let mut waiting = self.sys.nr_queued();
        for c in 0..self.n_cpus() {
            if waiting == 0 {
                break;
            }
            let cpu = CpuId(c);
            let queued = self.sys.rq(cpu).nr_queued();
            waiting -= queued;
            if queued > 0 && self.sys.current(cpu).is_none() {
                let sw = self.sys.context_switch(cpu);
                if let Some(next) = sw.next {
                    self.on_dispatch(cpu, next);
                }
            }
        }
    }

    /// Executes one tick of physical machine time: instruction
    /// progress, counter events, true power, temperature. Returns the
    /// CPUs whose running task completed its work this tick.
    fn physics_tick(&mut self, dt: SimDuration) -> Vec<CpuId> {
        let mut completed = Vec::new();
        // The per-package CPU lists are only read here; taking the
        // vector out frees `self` for the mutations below without the
        // per-tick clone this loop used to pay (restored at the end).
        let pkg_cpus = std::mem::take(&mut self.pkg_cpus);
        let threads_per_core = self.sys.topology().threads_per_core().max(1);
        for (pkg, cpus) in pkg_cpus.iter().enumerate() {
            // A CPU executes this tick if it has a running task and is
            // not halted by the throttle controller. Nothing in this
            // loop changes the scheduler, so the running set holds over
            // the whole span.
            let pkg_running = self.machine.throttles[pkg].state() == ThrottleState::Running;
            let mut pkg_energy = Joules::ZERO;
            // `cpus` is core-major, so each chunk is one core's SMT
            // siblings.
            for core in cpus.chunks(threads_per_core) {
                let share = self.smt_share(core);
                for &cpu in core {
                    let running = if pkg_running {
                        self.sys.current(cpu)
                    } else {
                        None
                    };
                    if let Some(task) = running {
                        // The CPU's frequency domain scales execution
                        // speed (cycles ~ f) and dynamic energy per event
                        // (~ V²); the event counts themselves already
                        // shrink with the cycle count, so dynamic power
                        // scales as V²·f overall. The domain's frequency
                        // is absolute, so classes with different nominal
                        // clocks genuinely execute at different speeds.
                        let dom = self.machine.domain_map().domain_of(cpu);
                        let domain = &self.machine.freq_domains[dom];
                        let (freq, vscale_sq) = (domain.frequency().0, domain.voltage_scale_sq());
                        // Emit whole cycles, carrying the fractional part
                        // so retired work is step-size-invariant: chopping
                        // the same wall time into different spans yields
                        // the same cumulative cycle count (±1).
                        let raw_cycles = freq * dt.as_secs_f64() * share;
                        let cycles_f = raw_cycles + self.cycle_carry[cpu.0];
                        let cycles = cycles_f as u64;
                        self.cycle_carry[cpu.0] = (cycles_f - cycles as f64).max(0.0);
                        let rt = &mut self.runtimes[task];
                        let class = self.sys.topology().class_of(cpu);
                        let kernel = self.counter_memo[cpu.0].kernel(
                            rt.program.current_rates(),
                            cycles,
                            &self.machine.class_truth(class).model,
                            self.estimator.model_for(cpu),
                        );
                        pkg_energy += kernel.truth * vscale_sq;
                        // Instruction progress, damped by cache warmth and
                        // the class's pipeline width (`ipc_factor` is
                        // exactly 1.0 for class 0, so homogeneous runs are
                        // bit-identical). The instruction stream carries
                        // its own remainder off the *unrounded* cycle
                        // flow, so its total is independent of how cycles
                        // happened to round.
                        let wf = rt.warmth_factor(&self.warmth);
                        let class_ipc = self.machine.catalog().get(class).ipc_factor;
                        let instr_f = raw_cycles * rt.program.ipc() * wf * class_ipc
                            + self.instr_carry[cpu.0];
                        let instr = instr_f as u64;
                        self.instr_carry[cpu.0] = (instr_f - instr as f64).max(0.0);
                        rt.add_warmth(instr);
                        let done = rt.program.add_work(instr);
                        let phase = rt.program.phase_index();
                        rt.program.advance_time(dt);
                        if rt.program.phase_index() != phase {
                            // New rates: the domain's kept sample is stale.
                            self.signals[dom].clear();
                        }
                        self.instructions += instr;
                        if done {
                            completed.push(cpu);
                        }
                        // Estimator: the memoised Eq. 1 estimate of the
                        // step's counts under the CPU's calibrated model.
                        // The kernel programs the P-state itself, so it
                        // scales the counter-derived energy by the known
                        // (V/V₀)² just as it adds the known halt power for
                        // idling.
                        let est = kernel.estimate * vscale_sq;
                        self.acc[cpu.0].energy += est;
                        self.acc[cpu.0].time += dt;
                        self.estimated_energy += est;
                        self.power.observe(cpu, est.average_power(dt), dt);
                    } else {
                        // Idle or throttled: halt power only (the class's
                        // own share on hybrid machines). The CPU retired no
                        // events, so the estimator charges its class's halt
                        // share.
                        pkg_energy += self.machine.halt_power_share_of(cpu).over(dt);
                        let est = self.estimator.halt_share_of(cpu).over(dt);
                        self.estimated_energy += est;
                        self.power.observe(cpu, est.average_power(dt), dt);
                    }
                }
            }
            // Counter-invisible leakage, then the RC step.
            let temp = self.machine.thermals[pkg].temperature();
            pkg_energy += self.machine.package_leakage(pkg).power(temp).over(dt);
            self.true_energy += pkg_energy;
            let t = self.machine.thermals[pkg].step(pkg_energy.average_power(dt), dt);
            self.max_temp = self.max_temp.max(t);
        }
        self.pkg_cpus = pkg_cpus;
        self.write_power_sums();
        completed
    }

    /// Updates the per-package throttle controllers from the sum of
    /// the sibling thermal powers (only physical processors overheat).
    fn throttle_tick(&mut self, dt: SimDuration) {
        for pkg in 0..self.pkg_cpus.len() {
            let thermal = self.package_sums(pkg).thermal;
            let before = self.machine.throttles[pkg].state();
            let after = self.machine.throttles[pkg].observe(thermal, dt);
            if before != after {
                // A flip gates execution on every domain of the package.
                for &dom in self.machine.domain_map().domains_of_package(pkg) {
                    self.signals[dom].clear();
                }
                self.emit(match after {
                    ThrottleState::Halted => EventKind::ThrottleEngage {
                        package: pkg as u32,
                    },
                    ThrottleState::Running => EventKind::ThrottleRelease {
                        package: pkg as u32,
                    },
                });
            }
        }
    }

    /// Advances P-state residency and re-runs the governor for each
    /// domain at its decision points: triggers (the windowed
    /// utilization or the thermal power left the
    /// [`ebs_dvfs::DecisionHold`] band of the last decision, both fed
    /// from the same signals the throttle controllers watch) and the
    /// optional `max_hold` deadline.
    fn dvfs_tick(&mut self, dt: SimDuration) {
        for dom in &mut self.machine.freq_domains {
            dom.advance(dt);
        }
        let Some(spec) = &self.cfg.dvfs else { return };
        let interval = spec.interval;
        let max_hold = spec.max_hold;
        // Accrue busy time every step so a task blocking and waking
        // between decisions still shows up as load.
        for dom in 0..self.dvfs.len() {
            let busy = self.signals[dom].busy_fraction(|| self.busy_fraction(dom));
            self.dvfs[dom].accrue(dt, busy, interval);
        }
        for dom in 0..self.dvfs.len() {
            if self.dvfs[dom].is_due(self.now, self.domain_signals(dom).thermal) {
                self.dvfs_decide(dom, max_hold);
            }
        }
    }

    /// One governor decision for `dom`: assembles the input from the
    /// accumulated utilization window and the thermal-power signal,
    /// lets the governor pick the P-state, and re-arms the domain's
    /// next decision point (hold bands and the optional `max_hold`
    /// deadline). The idle floor is the halt power of the domain's
    /// core class — an efficiency domain idles at a lower floor than a
    /// performance one, so its governor reads headroom correctly.
    fn dvfs_decide(&mut self, dom: usize, max_hold: Option<SimDuration>) {
        let governor = self
            .governor
            .as_deref()
            .expect("DVFS decisions need a governor");
        let map = self.machine.domain_map();
        let signals = self.domain_signals(dom);
        let input = GovernorInput {
            thermal_power: signals.thermal,
            budget: signals.budget,
            idle_floor: self.machine.class_truth(map.class_of(dom)).halt_power,
            utilization: self.dvfs[dom].utilization(),
        };
        let domain = &self.machine.freq_domains[dom];
        let next = governor.decide(&input, domain);
        let hold = governor.hold(&input, domain, next);
        let from = domain.current_index();
        self.dvfs[dom].arm(self.now, &input, hold, max_hold);
        self.dvfs_decisions += 1;
        self.machine.freq_domains[dom].set_state(next);
        self.emit(EventKind::GovernorDecision {
            package: dom as u32,
            pstate: next as u32,
        });
        if from != next {
            // A new clock: the domain's kept sample is stale.
            self.signals[dom].clear();
            self.emit(EventKind::PStateTransition {
                package: dom as u32,
                from: from as u32,
                to: next as u32,
            });
        }
    }

    /// Scheduler work for one tick: timeslices, completions, blocking,
    /// the balancing policies, and hot task migration.
    fn scheduler_tick(&mut self, dt: SimDuration, completed: &[CpuId]) {
        // Hot-task pre-screen, once per package: the full trigger test
        // re-sums the package thermal power for every CPU; packages
        // below the trigger fraction can skip it wholesale. The
        // comparison is exactly the one `HotTaskMigrator::triggered`
        // performs (same CPU list, same float sum), so the screen
        // never changes a decision.
        if self.cfg.energy_aware {
            let trigger = self.hot.config().trigger_fraction;
            for pkg in 0..self.pkg_sums.len() {
                let sums = self.package_sums(pkg);
                let hot = sums.thermal.0 >= sums.budget.0 * trigger;
                self.pkg_sums[pkg].hot = hot;
            }
        }
        // Task completions first: they free CPUs and may respawn.
        for &cpu in completed {
            if let Some(task) = self.sys.current(cpu) {
                self.finalize_interval(cpu);
                // The task's record and runtime leave with it.
                let binary = self.sys.task(task).binary().0;
                self.sys.exit_current(cpu);
                *self.completions.entry(binary).or_insert(0) += 1;
                self.emit(EventKind::Completion {
                    task: task.0,
                    cpu: cpu.0 as u32,
                });
                let arrived = self.runtimes.remove(task).and_then(|rt| rt.arrival);
                if let Some((t0, phase)) = arrived {
                    self.latencies
                        .push((phase, self.now.saturating_since(t0).as_secs_f64()));
                }
                // Only closed-workload tasks respawn; open arrivals
                // complete and leave the system.
                if arrived.is_none() && self.cfg.respawn {
                    if let Some(program) = self.programs.get(&binary).cloned() {
                        let seed = self.rng.gen();
                        self.spawn_internal(program, seed);
                    }
                }
                self.switch(cpu);
            }
        }

        // Periodic balancing, entered only on a step with a level due.
        // A pass re-arms only its own CPU's levels, so whether any
        // level is due cannot change within the loop below.
        let balance_due = self.now >= self.balancer.next_due();
        for c in 0..self.n_cpus() {
            let cpu = CpuId(c);
            // Timeslice accounting only while actually executing.
            let pkg = self.sys.topology().package_of(cpu).0;
            let throttled = self.machine.throttles[pkg].state() == ThrottleState::Halted;
            if !throttled && self.sys.current(cpu).is_some() {
                let r = self.sys.tick(cpu, dt);
                if r.timeslice_expired {
                    self.end_of_timeslice(cpu);
                }
            }

            // Hot task migration: checked whenever thermal power was
            // updated, i.e. every step (cheap trigger test behind the
            // per-package pre-screen).
            if self.cfg.energy_aware && self.pkg_sums[pkg].hot {
                self.hot_check(cpu);
            }

            // Periodic balancing of the CPU's due domain levels.
            if balance_due {
                let pulled = match &mut self.balancer {
                    Balancer::Baseline(lb) => lb.run(cpu, &mut self.sys).pulled,
                    Balancer::EnergyAware(eb) => eb.run(cpu, &mut self.sys, &self.power).pulled,
                };
                if pulled > 0 {
                    self.emit(EventKind::BalancerRound {
                        cpu: cpu.0 as u32,
                        pulled: pulled as u32,
                    });
                }
            }

            // New-idle balancing, once per idle transition.
            if self.newidle_pending[c] && self.sys.rq(cpu).is_idle() {
                self.newidle_pending[c] = false;
                let pulled = match &mut self.balancer {
                    Balancer::Baseline(lb) => lb.newidle(cpu, &mut self.sys).pulled,
                    Balancer::EnergyAware(eb) => eb.newidle(cpu, &mut self.sys, &self.power).pulled,
                };
                if pulled > 0 {
                    self.emit(EventKind::BalancerRound {
                        cpu: cpu.0 as u32,
                        pulled: pulled as u32,
                    });
                }
            }
        }
    }

    /// Handles a timeslice expiry on `cpu`: energy accounting, the
    /// blocking decision, and the context switch.
    fn end_of_timeslice(&mut self, cpu: CpuId) {
        let Some(task) = self.sys.current(cpu) else {
            return;
        };
        self.finalize_interval(cpu);
        // Interactive programs may block at slice end.
        let sleeps = self.runtimes[task].program.end_slice();
        if let Some(sleep) = sleeps {
            self.sys.block_current(cpu);
            self.sleepers
                .push(Reverse(((self.now + sleep).as_micros(), task)));
        }
        self.switch(cpu);
    }

    /// Context-switches `cpu` to its next runnable task, or records it
    /// going idle (a new-idle balance attempt becomes pending).
    fn switch(&mut self, cpu: CpuId) {
        match self.sys.context_switch(cpu).next {
            Some(next) => self.on_dispatch(cpu, next),
            None => self.went_idle(cpu),
        }
    }

    /// Records `cpu` going idle: its accounting interval (already
    /// closed) stops naming the task that left, a new-idle balance
    /// attempt becomes pending, and the domain's kept signals are
    /// stale.
    fn went_idle(&mut self, cpu: CpuId) {
        self.acc[cpu.0] = IntervalAcc::default();
        self.newidle_pending[cpu.0] = true;
        self.signals[self.machine.domain_map().domain_of(cpu)].clear();
        self.emit(EventKind::ContextSwitch {
            cpu: cpu.0 as u32,
            task: None,
        });
    }

    /// Runs the hot-task policy for `cpu`; performs the context
    /// switches its migrations require.
    fn hot_check(&mut self, cpu: CpuId) -> Option<()> {
        if !self.hot.triggered(cpu, &self.sys, &self.power) {
            return None;
        }
        // The running task is about to move: close its accounting
        // interval first.
        self.finalize_interval(cpu);
        let migration = self.hot.run(cpu, &mut self.sys, &self.power)?;
        match migration {
            ebs_core::HotMigration::ToIdle { dest, .. } => {
                // Source went idle; destination dispatches the task.
                let sw = self.sys.context_switch(dest);
                if let Some(next) = sw.next {
                    self.on_dispatch(dest, next);
                }
                self.went_idle(cpu);
            }
            ebs_core::HotMigration::Exchanged { dest, .. } => {
                self.finalize_interval(dest);
                for c in [cpu, dest] {
                    let sw = self.sys.context_switch(c);
                    if let Some(next) = sw.next {
                        self.on_dispatch(c, next);
                    }
                }
            }
        }
        Some(())
    }

    /// Bookkeeping when `task` starts running on `cpu`. It begins a
    /// slice with fresh rates, on a CPU that was idle or ran another
    /// task, so the domain's kept signals are stale.
    fn on_dispatch(&mut self, cpu: CpuId, task: TaskId) {
        self.signals[self.machine.domain_map().domain_of(cpu)].clear();
        let migrations = self.sys.task(task).migrations();
        let last = self.sys.task(task).last_migration();
        let mut migrated = false;
        let class = self.sys.topology().class_of(cpu).0;
        let mut refit = None;
        let rt = &mut self.runtimes[task];
        if migrations != rt.migrations_seen {
            let cross = last.is_some_and(|(_, cross)| cross);
            rt.note_migration(migrations, cross);
            migrated = true;
        }
        if rt.last_class != class {
            refit = Some(rt.last_class);
            rt.last_class = class;
        }
        rt.program.begin_slice();
        // Cross-class profile refit: the profile measured on the old
        // class predicts the wrong power here — the same counter
        // activity costs class-specific per-event energies at a
        // class-specific nominal clock. Rescale by the calibrated
        // models' power ratio for the task's current rates so the
        // balancer sees a sane estimate immediately instead of waiting
        // a profile half-life. Only hybrid machines have a second
        // class, so homogeneous runs never take this path.
        if let Some(old_class) = refit {
            let rates = self.runtimes[task].program.current_rates();
            let old_hz = self
                .machine
                .class_truth(ebs_topology::ClassId(old_class))
                .freq_hz;
            let new_hz = self
                .machine
                .class_truth(ebs_topology::ClassId(class))
                .freq_hz;
            let old_p = self
                .estimator
                .class_model(old_class)
                .power_for_rates(&rates, old_hz);
            let new_p = self
                .estimator
                .class_model(class)
                .power_for_rates(&rates, new_hz);
            if old_p.0 > 0.0 && new_p.0 > 0.0 {
                let scaled = self.sys.task(task).profile().0 * new_p.0 / old_p.0;
                self.sys.reset_profile(task, Watts(scaled));
            }
        }
        if migrated {
            let reason = last.map_or("unknown", |(reason, _)| reason.name());
            self.emit(EventKind::Migration {
                task: task.0,
                cpu: cpu.0 as u32,
                reason,
            });
        }
        self.emit(EventKind::ContextSwitch {
            cpu: cpu.0 as u32,
            task: Some(task.0),
        });
        self.acc[cpu.0] = IntervalAcc {
            task: Some(task),
            energy: Joules::ZERO,
            time: SimDuration::ZERO,
        };
    }

    /// Closes the running task's accounting interval on `cpu`: updates
    /// its energy profile (Eq. 2, variable period) and the placement
    /// table after the first timeslice.
    fn finalize_interval(&mut self, cpu: CpuId) {
        let a = self.acc[cpu.0];
        self.acc[cpu.0] = IntervalAcc {
            task: a.task,
            energy: Joules::ZERO,
            time: SimDuration::ZERO,
        };
        let Some(task) = a.task else { return };
        if a.time.is_zero() {
            return;
        }
        let p = a.energy.average_power(a.time);
        // Through the system, not the task: the profile of a running
        // task feeds its queue's runqueue power, whose changes the
        // aggregate tree's generations track.
        self.sys.update_profile(task, p, a.time);
        let binary = self.sys.task(task).binary();
        let rt = &mut self.runtimes[task];
        if !rt.first_slice_recorded {
            rt.first_slice_recorded = true;
            self.placement.record_first_slice(binary, p);
        }
        if let Some(log) = self.slice_powers.as_mut() {
            // Only count substantial slices; sub-50 ms fragments are
            // migration artefacts, not the paper's "timeslices".
            if a.time >= SimDuration::from_millis(50) {
                log.entry(task).or_default().push(p);
            }
        }
    }

    /// End-of-step sampling: the metrics snapshot at its cadence. The
    /// cadence also bounds variable strides (see
    /// [`Simulation::next_stride`]), so snapshots land on their exact
    /// instants in either engine core.
    fn sample_tick(&mut self) {
        // Taking the state out ends the borrow on `self.metrics`, so
        // publishing can read the rest of `self` freely.
        if let Some(mut m) = self.metrics.take() {
            if self.now >= m.next {
                self.publish_metrics(&mut m);
                m.reg.snapshot(self.now);
                m.next += m.interval;
            }
            self.metrics = Some(m);
        }
    }

    /// Pushes the current totals and signal levels into the metrics
    /// registry (called at snapshot instants only: counters are read
    /// from existing statistics, so skipping steps loses nothing).
    fn publish_metrics(&mut self, m: &mut MetricsState) {
        let stats = self.sys.stats();
        let reg = &mut m.reg;
        reg.set_total(m.c_steps, self.steps);
        reg.set_total(m.c_instructions, self.instructions);
        reg.set_total(m.c_ctx, stats.context_switches);
        reg.set_total(m.c_migrations, stats.migrations());
        reg.set_total(m.c_completions, self.completions.values().sum());
        reg.set_total(m.c_arrivals, self.open.as_ref().map_or(0, |o| o.accepted()));
        reg.set_total(m.c_dvfs_decisions, self.dvfs_decisions);
        reg.set_total(
            m.c_dvfs_transitions,
            self.machine
                .freq_domains
                .iter()
                .map(|d| d.transitions())
                .sum(),
        );
        reg.set_total(
            m.c_throttle_engagements,
            self.machine
                .throttles
                .iter()
                .map(|t| t.stats().engagements)
                .sum(),
        );
        for c in 0..self.n_cpus() {
            let cpu = CpuId(c);
            reg.set_gauge(m.g_power[c], self.power.thermal_power(cpu).0);
            reg.set_gauge(m.g_rq[c], self.sys.nr_running(cpu) as f64);
        }
        for (d, dom) in self.machine.freq_domains.iter().enumerate() {
            reg.set_gauge(m.g_freq[d], dom.frequency().0 / 1e9);
        }
        for (dom, d) in self.dvfs.iter().enumerate() {
            reg.set_gauge(m.g_util[dom], d.utilization());
        }
    }

    pub(crate) fn n_cpus(&self) -> usize {
        self.sys.topology().n_cpus()
    }

    /// Summarises the run.
    pub fn report(&self) -> SimReport {
        let stats = self.sys.stats();
        // Per-logical view of the per-package throttle statistics.
        let throttled: Vec<f64> = (0..self.n_cpus())
            .map(|c| {
                let pkg = self.sys.topology().package_of(CpuId(c)).0;
                self.machine.throttles[pkg].stats().throttled_fraction()
            })
            .collect();
        let avg = if throttled.is_empty() {
            0.0
        } else {
            throttled.iter().sum::<f64>() / throttled.len() as f64
        };
        let mut completions_by_binary: Vec<(u64, u64)> =
            self.completions.iter().map(|(&b, &n)| (b, n)).collect();
        completions_by_binary.sort_unstable();
        // Per-package throttle statistics, surfaced directly so
        // experiments stop recomputing them from per-logical views.
        let throttle_stats: Vec<_> = self.machine.throttles.iter().map(|t| t.stats()).collect();
        let domains = &self.machine.freq_domains;
        let pstate_residency = merge_residency(domains.iter().flat_map(|d| d.residency()));
        let avg_scaled_fraction =
            domains.iter().map(|d| d.scaled_fraction()).sum::<f64>() / domains.len() as f64;
        let mean_frequency = ebs_units::Hertz(
            domains.iter().map(|d| d.mean_frequency().0).sum::<f64>() / domains.len() as f64,
        );
        // Open-workload statistics: overall and per-curve-phase
        // sojourn times of every completed arrival.
        let latency = LatencyStats::from_samples(self.latencies.iter().map(|&(_, s)| s).collect());
        let phase_latencies = phase_latencies(self.cfg.open_workload.as_ref(), &self.latencies);
        SimReport {
            duration: self.now - SimTime::ZERO,
            engine_steps: self.steps,
            migrations: stats.migrations(),
            migrations_by_reason: stats.migrations_by_reason,
            context_switches: stats.context_switches,
            completions: completions_by_binary.iter().map(|&(_, n)| n).sum(),
            arrivals: self.open.as_ref().map_or(0, |o| o.accepted()),
            latency,
            phase_latencies,
            completions_by_binary,
            instructions_retired: self.instructions,
            throughput_ips: if self.now == SimTime::ZERO {
                0.0
            } else {
                self.instructions as f64 / self.now.as_secs_f64()
            },
            throttled_fraction: throttled,
            avg_throttled_fraction: avg,
            throttle_stats,
            pstate_residency,
            avg_scaled_fraction,
            mean_frequency,
            dvfs_transitions: domains.iter().map(|d| d.transitions()).sum(),
            dvfs_decisions: self.dvfs_decisions,
            max_package_temp: self.max_temp,
            true_energy: self.true_energy,
            estimated_energy: self.estimated_energy,
        }
    }
}

// ---------------------------------------------------------------------
// Checkpointing.
//
// A [`Simulation`] snapshot captures every piece of evolving state —
// scheduler, machine physics, policy timers, RNG streams, carries, and
// run statistics — but never configuration (rebuilt by constructing a
// fresh engine from the same [`SimConfig`]) and never observability
// sinks (traces, metrics histories, profiles), with one deliberate
// exception: the metrics *cadence cursor* is state, because it bounds
// variable strides and therefore shapes the event sequence.
// ---------------------------------------------------------------------

impl ebs_store::Snapshot for Simulation {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.key("engine");
        self.sys.save(w);
        self.machine.save(w);
        w.key("policies");
        self.power.save(w);
        match &self.balancer {
            Balancer::Baseline(b) => {
                w.u8(0);
                b.save(w);
            }
            Balancer::EnergyAware(b) => {
                w.u8(1);
                b.save(w);
            }
        }
        self.placement.save(w);
        w.key("dvfs");
        w.seq(&self.dvfs, |w, d| d.save(w));
        w.u64(self.dvfs_decisions);
        w.key("workload");
        w.usize(self.inbox.len());
        for routed in &self.inbox {
            w.time(routed.due);
            routed.program.save(w);
            w.u64(routed.seed);
            w.u8(routed.phase);
        }
        self.runtimes.save_with(w, |w, rt| rt.save(w));
        // HashMap iteration order is arbitrary; sort so equal catalogs
        // hash equally.
        let mut programs: Vec<&Program> = self.programs.values().collect();
        programs.sort_by_key(|p| p.binary);
        w.usize(programs.len());
        for p in programs {
            p.save(w);
        }
        // The sleeper heap's internal layout is insertion-dependent;
        // its *contents* are the state (pop order is fully determined
        // by the unique (wake, id) keys), so serialize sorted.
        let mut sleepers: Vec<(u64, u64)> = self
            .sleepers
            .iter()
            .map(|Reverse((wake, id))| (*wake, id.0))
            .collect();
        sleepers.sort_unstable();
        w.seq(&sleepers, |w, &(wake, id)| {
            w.u64(wake);
            w.u64(id);
        });
        w.opt(&self.open, |w, open| open.save(w));
        w.key("stats");
        w.seq(&self.latencies, |w, &(phase, secs)| {
            w.u8(phase);
            w.f64(secs);
        });
        w.seq(&self.cycle_carry, |w, &c| w.f64(c));
        w.seq(&self.instr_carry, |w, &c| w.f64(c));
        w.u64(self.rng.state());
        w.seq(&self.acc, |w, acc| {
            w.opt(&acc.task, |w, id| w.u64(id.0));
            w.joules(acc.energy);
            w.duration(acc.time);
        });
        w.seq(&self.newidle_pending, |w, &p| w.bool(p));
        w.time(self.now);
        w.u64(self.steps);
        let mut completions: Vec<(u64, u64)> =
            self.completions.iter().map(|(&b, &n)| (b, n)).collect();
        completions.sort_unstable();
        w.seq(&completions, |w, &(binary, n)| {
            w.u64(binary);
            w.u64(n);
        });
        w.u64(self.instructions);
        w.celsius(self.max_temp);
        w.joules(self.true_energy);
        w.joules(self.estimated_energy);
        // The metrics cadence cursor bounds variable strides, so it is
        // state even though the recorded snapshots are not.
        w.opt(&self.metrics.as_ref().map(|m| m.next), |w, &t| w.time(t));
    }

    /// Restores into a freshly constructed engine of the same
    /// topology. Policy-specific sections (balancer kind, frequency
    /// domains) apply only when this engine's shape matches the saved
    /// one; mismatched sections are read and discarded, leaving the
    /// fresh construction-time defaults — the deterministic
    /// "shape-matched restore" rule that lets one warm-up snapshot
    /// fork into cells of *different* policies.
    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.key("engine")?;
        self.sys.restore(r)?;
        self.machine.restore(r)?;
        r.key("policies")?;
        self.power.restore(r)?;
        let balancer_tag = r.u8()?;
        match (balancer_tag, &mut self.balancer) {
            (0, Balancer::Baseline(b)) => b.restore(r)?,
            (1, Balancer::EnergyAware(b)) => b.restore(r)?,
            // A snapshot from the other balancer kind: consume its
            // timer table (both kinds embed the same type) and keep
            // this engine's fresh timers.
            (0 | 1, _) => BalanceTimers::new(self.sys.topology()).restore(r)?,
            (tag, _) => {
                return Err(ebs_store::StoreError::Invalid(format!(
                    "balancer tag {tag}"
                )));
            }
        }
        self.placement.restore(r)?;
        r.key("dvfs")?;
        r.table("dvfs domains", &mut self.dvfs, |r, d| d.restore(r))?;
        self.dvfs_decisions = r.u64()?;
        r.key("workload")?;
        let n_inbox = r.usize()?;
        self.inbox.clear();
        for _ in 0..n_inbox {
            let due = r.time()?;
            let mut program = placeholder_program();
            program.restore(r)?;
            let seed = r.u64()?;
            let phase = r.u8()?;
            self.inbox.push_back(RoutedArrival {
                due,
                program,
                seed,
                phase,
            });
        }
        self.runtimes = TaskTable::restore_with(r, |r, _| {
            let mut rt = TaskRuntime::new(ProgramState::new(placeholder_program(), 0));
            rt.restore(r)?;
            Ok(rt)
        })?;
        self.check_runtimes()?;
        let n_programs = r.usize()?;
        self.programs.clear();
        for _ in 0..n_programs {
            let mut program = placeholder_program();
            program.restore(r)?;
            self.programs.insert(program.binary, program);
        }
        let sleepers = r.seq(|r| Ok((r.u64()?, TaskId(r.u64()?))))?;
        self.check_sleepers(&sleepers)?;
        self.sleepers = sleepers.into_iter().map(Reverse).collect();
        let has_open = r.bool()?;
        match (has_open, &mut self.open) {
            (true, Some(open)) => open.restore(r)?,
            (false, None) => {}
            (saved, _) => {
                return Err(ebs_store::StoreError::Invalid(format!(
                    "snapshot open-workload presence {saved} does not match the config"
                )));
            }
        }
        r.key("stats")?;
        self.latencies = r.seq(|r| Ok((r.u8()?, r.f64()?)))?;
        r.table("cycle carries", &mut self.cycle_carry, |r, c| {
            r.f64().map(|v| *c = v)
        })?;
        r.table("instruction carries", &mut self.instr_carry, |r, c| {
            r.f64().map(|v| *c = v)
        })?;
        self.rng = StdRng::from_state(r.u64()?);
        let sys = &self.sys;
        r.table("interval accumulators", &mut self.acc, |r, acc| {
            acc.task = r.opt(|r| Ok(TaskId(r.u64()?)))?;
            if let Some(id) = acc.task.filter(|&id| sys.task_table().get(id).is_none()) {
                return Err(ebs_store::StoreError::Invalid(format!(
                    "an interval accumulator names {id}, which is not live"
                )));
            }
            acc.energy = r.joules()?;
            acc.time = r.duration()?;
            Ok(())
        })?;
        r.table("new-idle flags", &mut self.newidle_pending, |r, p| {
            r.bool().map(|v| *p = v)
        })?;
        self.now = r.time()?;
        if self.now != self.sys.now() {
            return Err(ebs_store::StoreError::Invalid(format!(
                "engine clock {:?} but scheduler clock {:?}",
                self.now,
                self.sys.now()
            )));
        }
        self.steps = r.u64()?;
        let completions = r.seq(|r| Ok((r.u64()?, r.u64()?)))?;
        self.completions = completions.into_iter().collect();
        self.instructions = r.u64()?;
        self.max_temp = r.celsius()?;
        self.true_energy = r.joules()?;
        self.estimated_energy = r.joules()?;
        let metrics_next = r.opt(|r| r.time())?;
        // Every average and every signal input may have changed.
        self.write_power_sums();
        for signals in &mut self.signals {
            signals.clear();
        }
        if let Some(m) = self.metrics.as_deref_mut() {
            // An image written without metrics carries no cursor:
            // resume where a straight run holds it at `now`, the next
            // cadence instant (a zero cadence samples every step).
            let interval = m.interval.as_micros();
            m.next = metrics_next.unwrap_or_else(|| {
                self.now
                    .as_micros()
                    .checked_div(interval)
                    .map_or(self.now, |k| SimTime::from_micros((k + 1) * interval))
            });
        }
        Ok(())
    }
}

impl Simulation {
    /// Restore check: the runtimes are exactly those of the live
    /// tasks, each valid on this machine.
    fn check_runtimes(&self) -> Result<(), ebs_store::StoreError> {
        let invalid = |msg: String| Err(ebs_store::StoreError::Invalid(msg));
        let tasks = self.sys.task_table();
        if let Some(id) = tasks.ids().find(|&id| self.runtimes.get(id).is_none()) {
            return invalid(format!("live {id} has no runtime"));
        }
        if let Some(id) = self.runtimes.ids().find(|&id| tasks.get(id).is_none()) {
            return invalid(format!("a runtime names {id}, which is not live"));
        }
        if self.runtimes.next_id() != tasks.next_id() {
            return invalid(format!(
                "runtime ids end at {} but task ids at {}",
                self.runtimes.next_id(),
                tasks.next_id()
            ));
        }
        let n_classes = self.machine.catalog().n_classes();
        if let Some((id, rt)) = self
            .runtimes
            .iter()
            .find(|(_, rt)| rt.last_class >= n_classes)
        {
            return invalid(format!(
                "{id} last ran on core class {} of {n_classes}",
                rt.last_class
            ));
        }
        Ok(())
    }

    /// Restore check: each sleeper names a distinct blocked task, and
    /// every blocked task sleeps (a wake needs a blocked task, and a
    /// blocked task without a sleeper would never run again).
    fn check_sleepers(&self, sleepers: &[(u64, TaskId)]) -> Result<(), ebs_store::StoreError> {
        let invalid = |msg: String| Err(ebs_store::StoreError::Invalid(msg));
        let mut ids: Vec<TaskId> = sleepers.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return invalid(format!("{} sleeps twice", w[0]));
        }
        for &id in &ids {
            match self.sys.task_table().get(id).map(|t| t.state()) {
                Some(TaskState::Blocked) => {}
                Some(state) => return invalid(format!("sleeping {id} is {state:?}")),
                None => return invalid(format!("a sleeper names {id}, which is not live")),
            }
        }
        let blocked = self
            .sys
            .task_table()
            .iter()
            .filter(|(_, t)| t.state() == TaskState::Blocked)
            .count();
        if blocked != ids.len() {
            return invalid(format!(
                "{blocked} blocked tasks but {} sleepers",
                ids.len()
            ));
        }
        Ok(())
    }
}

/// A minimal valid program overwritten entirely by
/// [`ebs_store::Snapshot::restore`].
fn placeholder_program() -> Program {
    Program::new(
        "placeholder",
        0,
        vec![ebs_workloads::Phase::new(
            "placeholder",
            ebs_counters::EventRates::HALTED,
            1.0,
            SimDuration::from_secs(1),
        )],
        ebs_workloads::Behavior::Steady,
        0.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SimEngine;
    use ebs_workloads::catalog;

    fn quick_cfg() -> SimConfig {
        SimConfig::xseries445().smt(false).seed(7)
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let cfg = quick_cfg();
        let mut straight = Simulation::new(cfg.clone());
        straight.spawn_mix(&ebs_workloads::section61_mix(), 1);
        straight.run_for(SimDuration::from_secs(2));
        let image = straight.snapshot();
        assert_eq!(image.hash(), straight.state_hash());

        // The checkpointed engine and a fresh engine restored from the
        // image must agree bit-for-bit after the same continuation.
        let mut forked = Simulation::from_snapshot(cfg, &image).expect("restore");
        assert_eq!(forked.state_hash(), straight.state_hash());
        straight.run_for(SimDuration::from_secs(2));
        forked.run_for(SimDuration::from_secs(2));
        assert_eq!(forked.state_hash(), straight.state_hash());
        assert_eq!(
            forked.report().instructions_retired,
            straight.report().instructions_retired
        );
    }

    #[test]
    fn snapshot_file_roundtrip_preserves_hash() {
        let mut sim = Simulation::new(quick_cfg());
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_millis(200));
        let image = sim.snapshot();
        let dir = std::env::temp_dir().join("ebs-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        image.write_file(&path).unwrap();
        let back = ebs_store::StateImage::read_file(&path).unwrap();
        assert_eq!(back.hash(), image.hash());
        let mut restored = Simulation::new(quick_cfg());
        restored.restore_snapshot(&back).unwrap();
        assert_eq!(restored.state_hash(), sim.state_hash());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "SimConfig::tick must be positive")]
    fn zero_tick_is_rejected_at_construction() {
        let mut cfg = quick_cfg();
        cfg.tick = SimDuration::ZERO;
        let _ = Simulation::new(cfg);
    }

    #[test]
    fn empty_simulation_idles_at_halt_power() {
        let mut sim = Simulation::new(quick_cfg());
        sim.run_for(SimDuration::from_secs(1));
        let report = sim.report();
        assert_eq!(report.instructions_retired, 0);
        assert_eq!(report.migrations, 0);
        // Thermal power of every CPU sits at the halt share.
        for c in 0..8 {
            let p = sim.power_state().thermal_power(CpuId(c));
            assert!((p.0 - 13.6).abs() < 0.5, "cpu{c}: {p:?}");
        }
    }

    #[test]
    fn single_task_makes_progress_and_heats_its_package() {
        let mut sim = Simulation::new(quick_cfg().throttling(false));
        let id = sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_secs(10));
        assert!(sim.report().instructions_retired > 1_000_000_000);
        let cpu = sim.system().task(id).cpu();
        let pkg = sim.system().topology().package_of(cpu);
        assert!(
            sim.machine().package_temp(pkg).0 > 30.0,
            "package never warmed: {:?}",
            sim.machine().package_temp(pkg)
        );
        // Thermal power approaches the ~61 W profile of bitcnts.
        let tp = sim.power_state().thermal_power(cpu);
        assert!(tp.0 > 35.0, "thermal power {tp:?}");
    }

    #[test]
    fn profiles_converge_to_table2_powers() {
        let mut sim = Simulation::new(quick_cfg().throttling(false));
        let hot = sim.spawn_program(&catalog::bitcnts());
        let cool = sim.spawn_program(&catalog::memrw());
        sim.run_for(SimDuration::from_secs(5));
        let hot_profile = sim.system().task(hot).profile();
        let cool_profile = sim.system().task(cool).profile();
        // Within estimation error (<10 %) of Table 2.
        assert!(
            (hot_profile.0 - 61.0).abs() < 6.0,
            "bitcnts profile {hot_profile:?}"
        );
        assert!(
            (cool_profile.0 - 38.0).abs() < 4.0,
            "memrw profile {cool_profile:?}"
        );
    }

    #[test]
    fn tasks_spread_across_cpus() {
        let mut sim = Simulation::new(quick_cfg());
        sim.spawn_mix(&ebs_workloads::section61_mix(), 1);
        sim.run_for(SimDuration::from_millis(100));
        // Six tasks on eight CPUs: all running simultaneously.
        let running = (0..8)
            .filter(|&c| sim.system().current(CpuId(c)).is_some())
            .count();
        assert_eq!(running, 6);
    }

    #[test]
    fn retired_work_is_tick_size_invariant() {
        // The carry fix: chopping the same wall time into 1 ms or
        // 0.5 ms steps must retire the same instructions (±1 per CPU)
        // — fractional cycles/instructions are carried, not dropped.
        // Warmup is disabled so the IPC factor is step-independent.
        let run = |tick_us: u64| {
            let mut cfg = quick_cfg().throttling(false).energy_aware(false);
            cfg.tick = SimDuration::from_micros(tick_us);
            cfg.warmup_ipc_floor = 1.0;
            cfg.warmup_ipc_floor_cross_node = 1.0;
            let mut sim = Simulation::new(cfg);
            sim.spawn_program(&catalog::aluadd());
            sim.run_for(SimDuration::from_secs(2));
            sim.report().instructions_retired
        };
        let coarse = run(1_000);
        let fine = run(500);
        assert!(
            coarse.abs_diff(fine) <= 1,
            "tick size changed retired work: {coarse} vs {fine}"
        );
    }

    #[test]
    fn truncation_would_lose_work_without_carry() {
        // Quantifies the bug the carry fixes: at 2.2 GHz and 1 ms the
        // per-step instruction flow is fractional almost always, so a
        // truncating engine under-retires by up to 1 instruction per
        // step. With the carry the total matches the closed form.
        let mut cfg = quick_cfg().throttling(false).energy_aware(false);
        cfg.warmup_ipc_floor = 1.0;
        cfg.warmup_ipc_floor_cross_node = 1.0;
        let mut sim = Simulation::new(cfg);
        let program = catalog::aluadd();
        let ipc = program.main_phase().ipc;
        let jitter = program.jitter;
        sim.spawn_program(&program);
        sim.run_for(SimDuration::from_secs(2));
        let got = sim.report().instructions_retired as f64;
        let nominal = 2.2e9 * 2.0 * ipc;
        assert!(
            (got - nominal).abs() <= nominal * (jitter + 1e-9),
            "retired {got} not within jitter of the closed form {nominal}"
        );
    }

    #[test]
    fn run_for_covers_exactly_the_requested_duration() {
        // A duration that is not a tick multiple must not overshoot.
        let mut sim = Simulation::new(quick_cfg());
        sim.run_for(SimDuration::from_micros(1_500));
        assert_eq!(sim.now(), SimTime::from_micros(1_500));
        assert_eq!(sim.report().duration, SimDuration::from_micros(1_500));
        // Sub-tick requests clamp too, and repeated runs accumulate.
        sim.run_for(SimDuration::from_micros(700));
        assert_eq!(sim.report().duration, SimDuration::from_micros(2_200));
        // Strided runs clamp identically.
        let mut sim = Simulation::new(quick_cfg().strided());
        sim.run_for(SimDuration::from_micros(123_456));
        assert_eq!(sim.report().duration, SimDuration::from_micros(123_456));
    }

    #[test]
    fn default_cap_takes_one_step_per_tick_at_any_tick() {
        // The default stride cap (zero) sits below every tick, so each
        // step spans exactly one tick — here half a millisecond, on a
        // loaded machine with plenty of events to predict.
        let mut cfg = quick_cfg();
        cfg.tick = SimDuration::from_micros(500);
        assert!(!cfg.strided_enabled());
        let mut sim = Simulation::new(cfg);
        sim.spawn_mix(&ebs_workloads::section61_mix(), 2);
        let duration = SimDuration::from_secs(2);
        sim.run_for(duration);
        let report = sim.report();
        assert_eq!(report.duration, duration);
        assert_eq!(report.engine_steps, 4_000);
        assert!(report.instructions_retired > 0);
    }

    #[test]
    fn every_step_balances_each_level_due_by_its_end() {
        // The scheduler phase enters the balancers only on steps with a
        // level due; no step may leave a level due at or before the
        // clock, on either balancer and at either stride cap.
        for energy_aware in [false, true] {
            for strided in [false, true] {
                let cfg = quick_cfg().energy_aware(energy_aware);
                let mut sim = Simulation::new(if strided { cfg.strided() } else { cfg });
                sim.spawn_mix(&ebs_workloads::section61_mix(), 2);
                let end = sim.now + SimDuration::from_secs(2);
                let mut passes = 0;
                while sim.now < end {
                    let due = sim.balancer.next_due();
                    let dt = sim.next_stride(end);
                    sim.step_span(dt);
                    passes += usize::from(sim.now >= due);
                    assert!(
                        sim.balancer.next_due() > sim.now,
                        "a level due by {:?} was left unbalanced",
                        sim.now
                    );
                }
                assert!(passes >= 8, "{passes} balancing steps in 2 s");
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let mut sim = Simulation::new(quick_cfg().seed(1234));
            sim.spawn_mix(&ebs_workloads::section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(3));
            let r = sim.report();
            (r.instructions_retired, r.migrations, r.context_switches)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut sim = Simulation::new(quick_cfg().seed(seed));
            sim.spawn_mix(&ebs_workloads::section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(2));
            sim.report().instructions_retired
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn throttling_engages_under_low_budget() {
        let cfg = quick_cfg()
            .max_power(crate::MaxPowerSpec::PerLogical(Watts(40.0)))
            .energy_aware(false);
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_secs(60));
        let report = sim.report();
        assert!(
            report.avg_throttled_fraction > 0.01,
            "bitcnts at 61 W under a 40 W budget must throttle: {}",
            report.avg_throttled_fraction
        );
    }

    #[test]
    fn hot_task_migration_avoids_throttling() {
        let base = quick_cfg()
            .max_power(crate::MaxPowerSpec::PerLogical(Watts(40.0)))
            .seed(5);
        let mut off = Simulation::new(base.clone().energy_aware(false));
        off.spawn_program(&catalog::bitcnts());
        off.run_for(SimDuration::from_secs(120));
        let mut on = Simulation::new(base.energy_aware(true));
        on.spawn_program(&catalog::bitcnts());
        on.run_for(SimDuration::from_secs(120));
        let gain = on.report().throughput_gain_over(&off.report());
        assert!(
            gain > 0.10,
            "hot task migration should improve throughput substantially, got {gain:.3}"
        );
        assert!(on.report().migrations > off.report().migrations);
    }

    #[test]
    fn dvfs_off_reports_a_pinned_nominal_clock() {
        let mut sim = Simulation::new(quick_cfg());
        sim.spawn_program(&catalog::aluadd());
        sim.run_for(SimDuration::from_secs(2));
        let report = sim.report();
        assert_eq!(report.pstate_residency.len(), 1);
        assert!((report.pstate_residency[0].fraction - 1.0).abs() < 1e-12);
        assert_eq!(report.avg_scaled_fraction, 0.0);
        assert_eq!(report.dvfs_transitions, 0);
        assert!((report.mean_frequency.as_ghz() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn thermal_aware_dvfs_scales_under_budget_pressure() {
        let cfg = quick_cfg()
            .max_power(crate::MaxPowerSpec::PerLogical(Watts(40.0)))
            .energy_aware(false)
            .throttling(false)
            .dvfs_governor(ebs_dvfs::GovernorKind::ThermalAware);
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_secs(90));
        let report = sim.report();
        // bitcnts at ~61 W against a 40 W budget: the clock must come
        // down, and with it the mean frequency.
        assert!(
            report.avg_scaled_fraction > 0.05,
            "never scaled: {}",
            report.avg_scaled_fraction
        );
        assert!(report.mean_frequency.as_ghz() < 2.2);
        assert!(report.dvfs_transitions > 0);
        // The residency table accounts every tick across all states.
        assert_eq!(report.pstate_residency.len(), 6);
        let fractions: f64 = report.pstate_residency.iter().map(|r| r.fraction).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
        // Enforcement works: the hot package's thermal power converges
        // below its 40 W budget without any hlt involvement.
        let cpu = (0..8)
            .map(CpuId)
            .max_by(|&a, &b| {
                let pa = sim.power_state().thermal_power(a).0;
                let pb = sim.power_state().thermal_power(b).0;
                pa.partial_cmp(&pb).expect("finite powers")
            })
            .expect("eight CPUs");
        assert!(
            sim.power_state().thermal_power(cpu) < Watts(40.0),
            "budget exceeded: {:?}",
            sim.power_state().thermal_power(cpu)
        );
        assert_eq!(report.avg_throttled_fraction, 0.0);
    }

    #[test]
    fn fixed_governor_slows_execution_proportionally() {
        let run = |dvfs: Option<crate::DvfsSpec>| {
            let mut cfg = quick_cfg().energy_aware(false).throttling(false);
            cfg.dvfs = dvfs;
            let mut sim = Simulation::new(cfg);
            sim.spawn_program(&catalog::aluadd());
            sim.run_for(SimDuration::from_secs(10));
            sim.report().instructions_retired as f64
        };
        let nominal = run(None);
        let slowest = run(Some(crate::DvfsSpec {
            governor: ebs_dvfs::GovernorKind::Fixed(5),
            ..crate::DvfsSpec::default()
        }));
        // Throughput ~ f: the 1.2 GHz state retires ~1.2/2.2 of the
        // nominal instructions.
        let ratio = slowest / nominal;
        assert!(
            (ratio - 1.2 / 2.2).abs() < 0.03,
            "throughput did not track frequency: ratio {ratio}"
        );
    }

    #[test]
    fn custom_table_nominal_drives_execution_absolutely() {
        // A table whose nominal is half the machine clock must halve
        // throughput and report the table's own frequency.
        let run = |dvfs: Option<crate::DvfsSpec>| {
            let mut cfg = quick_cfg().energy_aware(false).throttling(false);
            cfg.dvfs = dvfs;
            let mut sim = Simulation::new(cfg);
            sim.spawn_program(&catalog::aluadd());
            sim.run_for(SimDuration::from_secs(10));
            sim.report()
        };
        let nominal = run(None);
        let half = run(Some(crate::DvfsSpec {
            table: ebs_dvfs::PStateTable::nominal_only(
                ebs_units::Hertz::from_ghz(1.1),
                ebs_units::Volts(1.5),
            ),
            governor: ebs_dvfs::GovernorKind::Fixed(0),
            ..crate::DvfsSpec::default()
        }));
        let ratio = half.instructions_retired as f64 / nominal.instructions_retired as f64;
        assert!(
            (ratio - 0.5).abs() < 0.02,
            "1.1 GHz table did not halve 2.2 GHz throughput: {ratio}"
        );
        assert!((half.mean_frequency.as_ghz() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn dvfs_runs_stay_deterministic() {
        let run = || {
            let cfg = quick_cfg()
                .max_power(crate::MaxPowerSpec::PerLogical(Watts(40.0)))
                .dvfs_governor(ebs_dvfs::GovernorKind::ThermalAware)
                .seed(77);
            let mut sim = Simulation::new(cfg);
            sim.spawn_mix(&ebs_workloads::section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(5));
            let r = sim.report();
            (r.instructions_retired, r.dvfs_transitions, r.migrations)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ondemand_governor_downclocks_idle_packages() {
        let cfg = quick_cfg()
            .energy_aware(false)
            .dvfs_governor(ebs_dvfs::GovernorKind::OnDemand);
        // One busy task: seven packages idle at the slowest state, one
        // stays at nominal.
        let mut sim = Simulation::new(cfg);
        let id = sim.spawn_program(&catalog::aluadd());
        sim.run_for(SimDuration::from_secs(5));
        let busy_pkg = sim
            .system()
            .topology()
            .package_of(sim.system().task(id).cpu());
        for p in 0..8 {
            let dom = sim.machine().freq_domain(ebs_topology::PackageId(p));
            if p == busy_pkg.0 {
                assert_eq!(dom.current_index(), 0, "busy package downclocked");
            } else {
                assert_eq!(
                    dom.current_index(),
                    dom.table().slowest_index(),
                    "idle package {p} not downclocked"
                );
            }
        }
        // Idle packages burn halt power regardless of their clock, so
        // the report's mean frequency reflects the idle downclocking.
        assert!(sim.report().mean_frequency.as_ghz() < 2.2);
    }

    #[test]
    fn zero_width_decision_window_carries_utilization() {
        // A decision forced on a zero-width window (an event trigger
        // coinciding with the step that reset the window) must carry
        // the previous utilization — never a NaN — and leave the
        // governor on sane frequencies.
        let cfg = quick_cfg()
            .energy_aware(false)
            .dvfs_governor(ebs_dvfs::GovernorKind::OnDemand);
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::aluadd());
        sim.run_for(SimDuration::from_millis(50));
        let mut busy = false;
        for pkg in 0..sim.dvfs.len() {
            let before = sim.dvfs[pkg].utilization();
            busy |= before > 0.0;
            // The first decision reads the window and resets it; the
            // second decides on the zero-width window it left.
            sim.dvfs_decide(pkg, None);
            sim.dvfs_decide(pkg, None);
            let u = sim.dvfs[pkg].utilization();
            assert!(u.is_finite(), "package {pkg} utilization became {u}");
            assert_eq!(u, before, "package {pkg} lost its utilization");
        }
        assert!(busy, "no package ever busy");
        // The governor decided from the carried signal, so the busy
        // package holds nominal while the idle ones stay downclocked.
        sim.run_for(SimDuration::from_secs(1));
        let report = sim.report();
        assert!(report.mean_frequency.0.is_finite());
        assert!(report.instructions_retired > 0);
    }

    /// An OnDemand governor under trigger-only decisions, or under the
    /// dense reference (`max_hold = interval`: a decision at least
    /// every interval on top of the triggers).
    fn ondemand(dense: bool) -> crate::DvfsSpec {
        let spec = crate::DvfsSpec {
            governor: ebs_dvfs::GovernorKind::OnDemand,
            ..crate::DvfsSpec::default()
        };
        crate::DvfsSpec {
            max_hold: dense.then_some(spec.interval),
            ..spec
        }
    }

    #[test]
    fn event_driven_governors_decide_rarely_when_steady() {
        // A steady machine — one always-busy task, everything else
        // idle — gives the dense reference nothing to do, yet it still
        // pays one decision per package per 10 ms. Triggers alone
        // answer once and hold.
        let run = |dense: bool| {
            let cfg = quick_cfg()
                .energy_aware(false)
                .throttling(false)
                .dvfs(ondemand(dense));
            let mut sim = Simulation::new(cfg);
            sim.spawn_program(&catalog::aluadd());
            sim.run_for(SimDuration::from_secs(5));
            sim.report()
        };
        let dense = run(true);
        let event = run(false);
        // 8 packages × 500 intervals for the reference.
        assert!(dense.dvfs_decisions >= 4_000, "{}", dense.dvfs_decisions);
        assert!(
            event.dvfs_decisions * 20 < dense.dvfs_decisions,
            "event-driven path still decides constantly: {} vs {}",
            event.dvfs_decisions,
            dense.dvfs_decisions
        );
        // Same enforcement outcome within tolerance.
        let rel = (dense.instructions_retired as f64 - event.instructions_retired as f64).abs()
            / dense.instructions_retired as f64;
        assert!(rel < 0.03, "work drifted {rel}");
        assert_eq!(dense.pstate_residency.len(), event.pstate_residency.len());
    }

    #[test]
    fn event_driven_dvfs_lifts_the_stride_floor() {
        // Under the dense reference every strided span ends at a 10 ms
        // decision deadline. Triggers alone let steady spans stretch
        // toward the 25 ms cap, so the engine takes measurably fewer
        // steps for the same simulated time — a counter-based claim,
        // immune to wall-clock noise.
        let run = |dense: bool| {
            let cfg = quick_cfg()
                .strided()
                .energy_aware(false)
                .throttling(false)
                .dvfs(ondemand(dense));
            let mut sim = Simulation::new(cfg);
            sim.spawn_program(&catalog::aluadd());
            sim.run_for(SimDuration::from_secs(5));
            sim.report()
        };
        let dense = run(true);
        let event = run(false);
        assert!(
            event.engine_steps * 2 < dense.engine_steps,
            "strides did not stretch: {} vs {} steps",
            event.engine_steps,
            dense.engine_steps
        );
        let rel = (dense.instructions_retired as f64 - event.instructions_retired as f64).abs()
            / dense.instructions_retired as f64;
        assert!(rel < 0.03, "work drifted {rel}");
    }

    #[test]
    fn event_driven_thermal_governor_still_enforces_budget() {
        // ThermalAware's hold band tops out exactly at the engagement
        // target, so trigger-driven enforcement reacts no later than a
        // decision every 10 ms would.
        let cfg = quick_cfg()
            .max_power(crate::MaxPowerSpec::PerLogical(Watts(40.0)))
            .energy_aware(false)
            .throttling(false)
            .dvfs_governor(ebs_dvfs::GovernorKind::ThermalAware);
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_secs(90));
        let report = sim.report();
        assert!(report.avg_scaled_fraction > 0.05);
        let hottest = (0..8)
            .map(|c| sim.power_state().thermal_power(CpuId(c)).0)
            .fold(0.0_f64, f64::max);
        assert!(hottest < 40.0, "budget exceeded: {hottest}");
        // And it needed far fewer decisions than one per package per
        // 10 ms would have paid (8 packages × 9000 intervals).
        assert!(
            report.dvfs_decisions < 72_000 / 10,
            "too many decisions: {}",
            report.dvfs_decisions
        );
    }

    #[test]
    fn thermal_dwell_rate_limits_decision_bursts() {
        // The governor's input is a lagging average, so right after a
        // downclock the observed power still reads above the new hold
        // band's upper edge even though the instantaneous power is
        // already compliant. Without a dwell the escape trigger
        // re-fires on that stale reading, overshooting the ladder and
        // then paying recovery decisions to climb back. The
        // rate-limited hold must cut those bursts substantially while
        // enforcing the same budget.
        let run = |min_dwell: SimDuration| {
            let cfg = quick_cfg()
                .max_power(crate::MaxPowerSpec::PerLogical(Watts(40.0)))
                .energy_aware(false)
                .throttling(false)
                .dvfs_governor(ebs_dvfs::GovernorKind::ThermalAware);
            let mut sim = Simulation::new(cfg);
            sim.governor = Some(Box::new(ebs_dvfs::ThermalAware {
                engage: 0.95,
                min_dwell,
            }));
            sim.spawn_mix(&ebs_workloads::section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(30));
            sim.report()
        };
        let chatty = run(SimDuration::ZERO);
        let limited = run(SimDuration::from_secs(3));
        // The dwell must remove at least a third of the decisions
        // (measured: roughly half) — the overshoot descents and the
        // recovery ascents they force.
        assert!(
            limited.dvfs_decisions * 3 < chatty.dvfs_decisions * 2,
            "dwell did not cut decision bursts: {} vs {}",
            limited.dvfs_decisions,
            chatty.dvfs_decisions
        );
        // Same enforcement outcome: the ladder still descends and the
        // retired work stays close (the dwell run comes out slightly
        // ahead — skipping the overshoot keeps the clock honest).
        assert!(limited.avg_scaled_fraction > 0.05);
        let rel = (chatty.instructions_retired as f64 - limited.instructions_retired as f64).abs()
            / chatty.instructions_retired as f64;
        assert!(rel < 0.10, "work drifted {rel}");
    }

    /// Asserts that every power sum and every kept busy fraction and
    /// predicted sample of `sim` is bit for bit a fresh computation.
    fn assert_kept_signals_fresh(sim: &Simulation) {
        let at = sim.now;
        for (pkg, sums) in sim.pkg_sums.iter().enumerate() {
            assert!(
                sums_are_fresh(sums.thermal, sums.budget, &sim.power, &sim.pkg_cpus[pkg]),
                "package {pkg} sums at {at:?}"
            );
        }
        let map = sim.machine.domain_map();
        let threads_per_core = sim.sys.topology().threads_per_core().max(1);
        for (dom, signals) in sim.signals.iter().enumerate() {
            let cpus = map.cpus(dom);
            assert!(
                sums_are_fresh(signals.thermal, signals.budget, &sim.power, cpus),
                "domain {dom} sums at {at:?}"
            );
            let (busy, sample) = signals.kept();
            if let Some(busy) = busy {
                let fresh = sim.busy_fraction(dom);
                assert_eq!(
                    busy.to_bits(),
                    fresh.to_bits(),
                    "domain {dom} busy at {at:?}"
                );
            }
            if let Some(sample) = sample {
                let fresh = sim.predicted_sample(map.package_of(dom), cpus, threads_per_core);
                assert_eq!(
                    sample.to_bits(),
                    fresh.to_bits(),
                    "domain {dom} sample at {at:?}"
                );
            }
        }
    }

    #[test]
    fn kept_signals_stay_fresh_through_every_clearing_event() {
        // dual2's per-package domains list their CPUs in another order
        // than their packages; hybrid8 has a domain per core. The mix
        // rotates openssl's phases and blocks bash and sshd, a low
        // budget flips the hlt throttle, and both governors move the
        // clock. One-tick runs check the kept values at every step end.
        use ebs_dvfs::GovernorKind::{OnDemand, ThermalAware};
        use ebs_workloads::{Behavior, Phase};
        // openssl's 12 s dwells are whole 100 ms slices, so its
        // rotations land on slice ends, whose dispatch clears anyway; a
        // cycler whose dwells are not rotates mid-slice.
        let rates = |uops| {
            ebs_counters::EventRates::builder()
                .uops_retired(uops)
                .mem_loads(0.2)
                .build()
        };
        let cycler = Program::new(
            "cycler",
            99,
            vec![
                Phase::new("light", rates(0.6), 0.8, SimDuration::from_millis(37)),
                Phase::new("heavy", rates(2.1), 1.5, SimDuration::from_millis(53)),
            ],
            Behavior::Cyclic,
            0.0,
        );
        for preset in [
            ebs_topology::TopologyPreset::Dual,
            ebs_topology::TopologyPreset::Hybrid8,
        ] {
            for governor in [ThermalAware, OnDemand] {
                let what = format!("{preset:?}/{governor:?}");
                let thermal = governor == ThermalAware;
                let cfg = SimConfig::preset(preset)
                    .max_power(crate::MaxPowerSpec::PerLogical(Watts(10.0)))
                    .dvfs_governor(governor)
                    .strided()
                    .trace_events(true)
                    .seed(5);
                let mut sim = Simulation::new(cfg);
                sim.spawn_mix(&ebs_workloads::section61_mix(), 1);
                sim.spawn_program(&catalog::bash());
                sim.spawn_program(&catalog::sshd());
                sim.spawn_program(&cycler);
                let tick = sim.config().tick;
                let half = 10_000;
                let mut image = None;
                let mut samples = 0;
                for step in 0..2 * half {
                    if step == half {
                        image = Some(sim.snapshot());
                    }
                    sim.run_for(tick);
                    assert_kept_signals_fresh(&sim);
                    samples += sim.signals.iter().filter(|s| s.kept().1.is_some()).count();
                }
                // Only the thermal governor's hold has a power band, the
                // one stride bound that reads a predicted sample.
                assert_eq!(samples > half, thermal, "{what}: {samples} kept samples");
                // Restore halfway into the engine that ran on, whose
                // kept values belong to a later state.
                sim.restore_snapshot(&image.expect("taken halfway"))
                    .expect("restore");
                assert_kept_signals_fresh(&sim);
                for _ in 0..half / 10 {
                    sim.run_for(tick);
                    assert_kept_signals_fresh(&sim);
                }
                let events = sim.events().expect("traced");
                let count =
                    |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
                for (event, n) in [
                    (
                        "dispatch",
                        count(|k| matches!(k, EventKind::ContextSwitch { task: Some(_), .. })),
                    ),
                    (
                        "idle",
                        count(|k| matches!(k, EventKind::ContextSwitch { task: None, .. })),
                    ),
                    (
                        "P-state change",
                        count(|k| matches!(k, EventKind::PStateTransition { .. })),
                    ),
                    (
                        "throttle flip",
                        count(|k| matches!(k, EventKind::ThrottleEngage { .. })),
                    ),
                ] {
                    assert!(n > 0, "{what}: no {event}");
                }
            }
        }
    }

    /// An engine with a task blocked (an always-blocking bash), tasks
    /// running and one waiting, and an exited task inside the id
    /// window; `corrupt` then breaks one reference before the
    /// snapshot, whose restore must be refused naming `what`.
    fn assert_restore_refused(corrupt: impl FnOnce(&mut Simulation), what: &str) {
        let cfg = quick_cfg().perfect_estimation(true).respawn(false);
        let mut sim = Simulation::new(cfg.clone());
        let sleepy = ebs_workloads::BlockProfile::new(1.0, SimDuration::from_secs(5));
        sim.spawn_program(&catalog::bash().with_blocking(sleepy));
        sim.spawn_program(&catalog::aluadd().with_total_work(50_000_000));
        for _ in 0..8 {
            sim.spawn_program(&catalog::memrw());
        }
        sim.run_for(SimDuration::from_millis(300));
        let blocked = sim.sleepers.peek().map(|Reverse((_, id))| *id);
        assert_eq!(blocked, Some(TaskId(0)), "bash sleeps");
        assert!(
            sim.sys.task_table().get(TaskId(1)).is_none(),
            "the short task exited"
        );
        assert!(Simulation::from_snapshot(cfg.clone(), &sim.snapshot()).is_ok());
        corrupt(&mut sim);
        match Simulation::from_snapshot(cfg, &sim.snapshot()) {
            Err(ebs_store::StoreError::Invalid(msg)) => {
                assert!(msg.contains(what), "{msg:?} does not name {what:?}")
            }
            Err(other) => panic!("refused for another reason: {other}"),
            Ok(_) => panic!("an image naming a missing or wrong task restored"),
        }
    }

    #[test]
    fn restore_refuses_references_to_missing_tasks() {
        let busy = |sim: &Simulation| sim.sys.current(CpuId(1)).expect("a running task");
        assert_restore_refused(
            |sim| sim.sleepers.push(Reverse((u64::MAX, TaskId(1)))),
            "a sleeper names task1, which is not live",
        );
        assert_restore_refused(
            |sim| {
                let id = busy(sim);
                sim.sleepers.push(Reverse((u64::MAX, id)));
            },
            "is Running",
        );
        assert_restore_refused(|sim| sim.sleepers.clear(), "1 blocked tasks but 0 sleepers");
        assert_restore_refused(
            |sim| {
                let id = busy(sim);
                sim.runtimes.remove(id);
            },
            "has no runtime",
        );
        assert_restore_refused(
            |sim| {
                sim.runtimes.insert(sim.runtimes[TaskId(0)].clone());
            },
            "a runtime names task10, which is not live",
        );
        assert_restore_refused(
            |sim| {
                let id = sim.runtimes.insert(sim.runtimes[TaskId(0)].clone());
                sim.runtimes.remove(id);
            },
            "runtime ids end at task11 but task ids at task10",
        );
        assert_restore_refused(
            |sim| sim.acc[0].task = Some(TaskId(1)),
            "an interval accumulator names task1, which is not live",
        );
        assert_restore_refused(|sim| sim.now += SimDuration::from_millis(1), "engine clock");
    }

    #[test]
    fn blocked_tasks_wake_up() {
        let mut sim = Simulation::new(quick_cfg());
        let id = sim.spawn_program(&catalog::bash());
        sim.run_for(SimDuration::from_secs(5));
        // bash blocks constantly but must keep making progress: more
        // than half a second of CPU at its prompt phase's IPC of 0.8
        // at 2.2 GHz.
        let done = sim.runtimes[id].program.work_done();
        assert!(done > 880_000_000, "bash retired only {done} instructions");
        assert!(sim.report().instructions_retired > 0);
    }

    #[test]
    fn respawn_keeps_population_constant() {
        let program = catalog::aluadd().with_total_work(2_000_000_000); // ~0.45 s.
        let mut sim = Simulation::new(quick_cfg());
        for _ in 0..4 {
            sim.spawn_program(&program);
        }
        sim.run_for(SimDuration::from_secs(10));
        let report = sim.report();
        assert!(
            report.completions >= 4,
            "completions {}",
            report.completions
        );
        // Population stays at 4 runnable tasks.
        let running: usize = (0..8).map(|c| sim.system().nr_running(CpuId(c))).sum();
        assert_eq!(running, 4);
    }

    #[test]
    fn traces_record_when_enabled() {
        // Hot tasks over a 40 W budget migrate every few seconds.
        let cfg = quick_cfg()
            .energy_aware(true)
            .max_power(crate::MaxPowerSpec::PerPackage(Watts(40.0)))
            .metrics_every(SimDuration::from_millis(500))
            .trace_events(true);
        let mut sim = Simulation::new(cfg);
        let ids: Vec<TaskId> = (0..3)
            .map(|_| sim.spawn_program(&catalog::bitcnts()))
            .collect();
        sim.run_for(SimDuration::from_secs(30));

        // The thermal view has one row per registry snapshot, each
        // row that snapshot's per-CPU thermal-power gauges.
        let reg = sim.metrics().expect("metrics on");
        let names = reg.gauge_names();
        let power: Vec<usize> = (0..sim.n_cpus())
            .map(|c| {
                let name = format!("thermal.power_w.cpu{c}");
                names.iter().position(|n| *n == name).expect("power gauge")
            })
            .collect();
        let trace = sim.thermal_trace();
        assert!(trace.samples.len() >= 4);
        assert_eq!(trace.samples.len(), reg.snapshots().len());
        for ((t, row), snap) in trace.samples.iter().zip(reg.snapshots()) {
            assert_eq!(*t, snap.t);
            assert_eq!(row.len(), sim.n_cpus());
            let gauges: Vec<Watts> = power.iter().map(|&i| Watts(snap.gauges[i])).collect();
            assert_eq!(*row, gauges);
        }

        // Visits start at the spawn CPU and add one entry per
        // `Migration` event of the task.
        let events = sim.events().expect("tracing on").to_vec();
        let mut moved = 0;
        for id in ids {
            let spawn_cpu = events.iter().find_map(|e| match e.kind {
                EventKind::Spawn { task, cpu, .. } if task == id.0 => Some(cpu),
                _ => None,
            });
            let migrations = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Migration { task, .. } if task == id.0))
                .count();
            let visits = sim.task_visits(id);
            assert_eq!(visits[0].1, CpuId(spawn_cpu.expect("spawned") as usize));
            assert_eq!(visits.len(), 1 + migrations);
            moved += migrations;
        }
        assert!(moved > 0, "hot tasks should migrate");
    }

    #[test]
    fn slice_power_log_tracks_timeslices() {
        let mut sim = Simulation::new(quick_cfg().throttling(false));
        sim.record_slice_powers();
        let id = sim.spawn_program(&catalog::bitcnts());
        sim.run_for(SimDuration::from_secs(3));
        let log = sim.slice_powers().unwrap();
        let slices = &log[&id];
        // ~30 timeslices in 3 s at 100 ms each.
        assert!(slices.len() >= 25, "only {} slices", slices.len());
        // All near the 61 W level.
        for p in slices {
            assert!((p.0 - 61.0).abs() < 8.0, "slice power {p:?}");
        }
    }
}
