//! The four benchmark workloads: how each builds its engines, how one
//! leg of it runs and is timed, and what a finished leg reports.
//!
//! Every workload is driven only through the simulator's public API:
//! `Simulation`/`ParallelSimulation` (both `SimEngine`s), `Fleet`, and
//! the `SimConfig`/`FleetConfig` builders.

use crate::host;
use ebs::fleet::{DispatchPolicy, Fleet};
use ebs::sched::MigrationReason;
use ebs::sim::{
    LatencyStats, MaxPowerSpec, ParallelSimulation, SimConfig, SimEngine, SimReport, Simulation,
};
use ebs::topology::TopologyPreset;
use ebs::units::{Celsius, SimDuration, Watts};
use ebs::workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use ebs_bench::experiments::fleet::cell_config;
use ebs_bench::testbed_cooling_factors;
use std::time::Instant;

/// Worker threads of the two-thread workloads: at most the two cores
/// of the smallest host the benchmark targets.
const WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Section 6.2 / Table 3 experiment.
    PaperThermal,
    /// The numa64 open-workload cell on the sequential strided core.
    Numa64Open,
    /// The same cell on the partitioned core with two workers.
    Numa64Par,
    /// The 64-host `exp_fleet` rack, power-aware dispatch, DVFS.
    Fleet64,
}

/// How a leg is timed: an untimed warm-up span, then `slices` timed
/// `run_for` spans of `slice` simulated time each.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Untimed simulated span before timing starts (zero: cold).
    pub warmup: SimDuration,
    /// Simulated length of one timed slice.
    pub slice: SimDuration,
    /// Timed slices per leg.
    pub slices: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperThermal,
        Workload::Numa64Open,
        Workload::Numa64Par,
        Workload::Fleet64,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperThermal => "paper-thermal",
            Workload::Numa64Open => "numa64-open",
            Workload::Numa64Par => "numa64-par",
            Workload::Fleet64 => "fleet64",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The legs one iteration runs, in order. The last leg is the
    /// headline one the end-to-end modelled metrics come from.
    pub fn legs(self) -> &'static [&'static str] {
        match self {
            Workload::PaperThermal => &["stock", "energy-aware"],
            _ => &["energy-aware"],
        }
    }

    /// How one leg is timed.
    pub fn timing(self) -> Timing {
        match self {
            // Cold, like the paper's runs: 36 tasks spawned at t = 0
            // on a machine at ambient temperature.
            Workload::PaperThermal => Timing {
                warmup: SimDuration::ZERO,
                slice: SimDuration::from_secs(10),
                slices: 30,
            },
            // One diurnal period fills the machine before timing.
            Workload::Numa64Open | Workload::Numa64Par => Timing {
                warmup: SimDuration::from_secs(8),
                slice: SimDuration::from_secs(1),
                slices: 64,
            },
            // One diurnal period (16 epochs) of warm-up, then 96 timed
            // epochs; a slice is one dispatcher epoch.
            Workload::Fleet64 => Timing {
                warmup: SimDuration::from_secs(4),
                slice: SimDuration::from_millis(250),
                slices: 96,
            },
        }
    }

    /// One line on the workload's loop type and, from [`Workload::timing`],
    /// where timing starts and what it covers.
    pub fn describe(self) -> String {
        let what = match self {
            Workload::PaperThermal => {
                "closed loop, 36 tasks (6 x the Section 6.1 mix) on xseries445 SMT, 38 degC \
                 limit, hlt, fixed 1 ms tick; legs stock then energy-aware"
            }
            Workload::Numa64Open => {
                "open loop, Poisson arrivals at 1.5/s per core under an 8 s diurnal curve \
                 (floor 0.25), numa64 (256 CPUs), 40 W/logical hlt, sequential strided core"
            }
            Workload::Numa64Par => "numa64-open on the partitioned core, parallel(2)",
            Workload::Fleet64 => {
                "open loop, 64 mixed hosts (incl. hybrid8), power-aware dispatch, \
                 thermal-aware DVFS, 18 W/logical rack budget, 250 ms epochs, 2 workers"
            }
        };
        let t = self.timing();
        let start = if t.warmup.is_zero() {
            "cold".to_string()
        } else {
            format!("after a {} s warm-up", t.warmup.as_secs_f64())
        };
        format!(
            "{what}; timing starts {start} and covers {} slices of {} s ({} s simulated) per leg",
            t.slices,
            t.slice.as_secs_f64(),
            t.slices as f64 * t.slice.as_secs_f64()
        )
    }

    /// Builds leg `leg`'s engine for `seed` and queues its initial
    /// work. `traced` turns on the event trace and the engine's phase
    /// profiler, which must leave every report bit-identical.
    pub fn build(self, leg: usize, seed: u64, traced: bool) -> Engine {
        let trace = |cfg: SimConfig| {
            if traced {
                cfg.trace_events(true).profile_engine(true)
            } else {
                cfg
            }
        };
        match self {
            Workload::PaperThermal => {
                let cfg = SimConfig::xseries445()
                    .smt(true)
                    .throttling(true)
                    .cooling_factors(testbed_cooling_factors())
                    .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
                    .energy_aware(self.legs()[leg] == "energy-aware")
                    .seed(seed);
                let mut sim = Simulation::new(trace(cfg));
                sim.spawn_mix(&section61_mix(), 6);
                Engine::Seq(sim)
            }
            Workload::Numa64Open => Engine::Seq(Simulation::new(trace(numa64_config(seed)))),
            Workload::Numa64Par => Engine::Par(ParallelSimulation::new(trace(
                numa64_config(seed).parallel(WORKERS),
            ))),
            Workload::Fleet64 => {
                // The full `exp_fleet` rack, power-aware dispatch, DVFS.
                let mut cfg = cell_config(false, DispatchPolicy::PowerAware, "dvfs")
                    .seed(seed)
                    .workers(WORKERS);
                cfg.base = trace(cfg.base);
                Engine::Fleet(Fleet::new(cfg))
            }
        }
    }
}

/// The numa64 cell of `exp_engine_bench` (`dvfs=off`).
fn numa64_config(seed: u64) -> SimConfig {
    let shape = TopologyPreset::Numa64.builder();
    let workload = OpenWorkload::new(table2_programs(), 1.5 * shape.n_cores() as f64).curve(
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(8),
            floor: 0.25,
        },
    );
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
        .open_workload(workload)
        .strided()
}

/// The four Table 2 programs the open workloads draw from.
fn table2_programs() -> Vec<ebs::workloads::Program> {
    vec![
        catalog::bitcnts(),
        catalog::memrw(),
        catalog::aluadd(),
        catalog::pushpop(),
    ]
}

/// A built engine of any of the three kinds the workloads use.
pub enum Engine {
    /// The sequential core (fixed-tick or strided).
    Seq(Simulation),
    /// The partitioned core.
    Par(ParallelSimulation),
    /// A rack of engines behind the fleet dispatcher.
    Fleet(Fleet),
}

impl Engine {
    /// Advances by `span` of simulated time (whole epochs for a fleet).
    pub fn advance(&mut self, span: SimDuration) {
        match self {
            Engine::Seq(sim) => sim.run_for(span),
            Engine::Par(sim) => sim.run_for(span),
            Engine::Fleet(fleet) => {
                let end = fleet.now() + span;
                while fleet.now() < end {
                    fleet.run_epoch();
                }
            }
        }
    }

    /// Every engine's report: one for a machine, one per fleet host.
    pub fn reports(&self) -> Vec<SimReport> {
        match self {
            Engine::Seq(sim) => vec![sim.report()],
            Engine::Par(sim) => vec![sim.report()],
            Engine::Fleet(fleet) => fleet.host_reports(),
        }
    }

    /// The single machine behind a sequential or partitioned engine.
    pub fn machine(&self) -> Option<&dyn SimEngine> {
        match self {
            Engine::Seq(sim) => Some(sim),
            Engine::Par(sim) => Some(sim),
            Engine::Fleet(_) => None,
        }
    }

    /// Summarises the engine's state, given its [`Engine::reports`].
    pub fn summary(&self, reports: &[SimReport]) -> LegSummary {
        let mut s = LegSummary {
            steps: reports.iter().map(|r| r.engine_steps).sum(),
            migrations: reports.iter().map(|r| r.migrations).sum(),
            context_switches: reports.iter().map(|r| r.context_switches).sum(),
            hot_migrations: reports
                .iter()
                .map(|r| r.migrations_by_reason[hot_task_index()])
                .sum(),
            engagements: reports
                .iter()
                .flat_map(|r| &r.throttle_stats)
                .map(|t| t.engagements)
                .sum(),
            max_temp_c: reports
                .iter()
                .map(|r| r.max_package_temp.0)
                .fold(f64::NEG_INFINITY, f64::max),
            dvfs_decisions: reports.iter().map(|r| r.dvfs_decisions).sum(),
            dvfs_transitions: reports.iter().map(|r| r.dvfs_transitions).sum(),
            estimated_energy_j: reports.iter().map(|r| r.estimated_energy.0).sum(),
            throttled: reports
                .iter()
                .map(|r| r.avg_throttled_fraction)
                .sum::<f64>()
                / reports.len() as f64,
            engine_s: reports.iter().map(|r| r.duration.as_secs_f64()).sum(),
            ..LegSummary::default()
        };
        match self {
            Engine::Seq(_) | Engine::Par(_) => {
                let r = &reports[0];
                s.sim_s = r.duration.as_secs_f64();
                s.arrivals = r.arrivals;
                s.completions = r.completions;
                s.live = self.machine().map(|m| m.runnable_tasks() as u64);
                s.instructions = r.instructions_retired;
                s.energy_j = r.true_energy.0;
                s.latency = r.latency;
            }
            Engine::Fleet(fleet) => {
                let r = fleet.report();
                s.sim_s = r.duration.as_secs_f64();
                s.arrivals = r.arrivals;
                s.epoch_arrivals = fleet.epochs().iter().map(|e| e.arrivals).sum();
                s.completions = r.completions;
                s.instructions = r.instructions_retired;
                s.energy_j = r.true_energy.0;
                s.latency = r.latency;
                s.stranded_w_mean = r.stranded_w_mean;
            }
        }
        if let Engine::Par(sim) = self {
            // Each partition simulates the whole span on its own clock.
            s.engine_s = s.sim_s * sim.partitions() as f64;
            s.handoffs = sim.handoff_log().len() as u64;
        }
        s
    }
}

fn hot_task_index() -> usize {
    MigrationReason::ALL
        .iter()
        .position(|r| *r == MigrationReason::HotTask)
        .expect("HotTask is a migration reason")
}

/// What a finished leg achieved: simulated outcomes and counters, all
/// deterministic per seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LegSummary {
    /// Simulated seconds.
    pub sim_s: f64,
    /// Simulated seconds summed over engines (partitions, hosts).
    pub engine_s: f64,
    /// Engine steps, summed over engines.
    pub steps: u64,
    /// Open-workload arrivals (0 for a closed loop).
    pub arrivals: u64,
    /// Arrivals the fleet's epochs recorded (fleet only).
    pub epoch_arrivals: u64,
    /// Task completions.
    pub completions: u64,
    /// Tasks still runnable at the end (`None` where the API hides it).
    pub live: Option<u64>,
    /// Instructions retired.
    pub instructions: u64,
    /// Ground-truth energy, joules.
    pub energy_j: f64,
    /// Counter-estimated energy, joules.
    pub estimated_energy_j: f64,
    /// Sojourn statistics of completed open-workload tasks.
    pub latency: LatencyStats,
    /// Mean hlt duty (fraction of time throttled).
    pub throttled: f64,
    /// Task migrations.
    pub migrations: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Hot-task migrations.
    pub hot_migrations: u64,
    /// Running -> halted throttle transitions.
    pub engagements: u64,
    /// Hottest package temperature, degC.
    pub max_temp_c: f64,
    /// DVFS governor decisions.
    pub dvfs_decisions: u64,
    /// DVFS P-state transitions.
    pub dvfs_transitions: u64,
    /// Cross-partition handoffs (partitioned core only).
    pub handoffs: u64,
    /// Mean stranded rack power, watts (fleet only).
    pub stranded_w_mean: f64,
}

impl LegSummary {
    /// Simulated throughput, giga-instructions per simulated second.
    pub fn gips(&self) -> f64 {
        self.instructions as f64 / 1e9 / self.sim_s
    }

    /// Simulated efficiency, giga-instructions per joule.
    pub fn gips_per_joule(&self) -> f64 {
        self.instructions as f64 / 1e9 / self.energy_j
    }
}

/// One leg, run and timed.
pub struct LegRun {
    /// Wall seconds to build the engine and queue its initial work.
    pub setup_s: f64,
    /// Wall seconds of each timed slice.
    pub slice_wall_s: Vec<f64>,
    /// Host calibrations taken between slices, seconds each.
    pub calibration_s: Vec<f64>,
    /// Process CPU seconds over the timed slices (all threads).
    pub span_cpu_s: f64,
    /// Engine steps taken in the timed span.
    pub span_steps: u64,
    /// Outcomes and counters at the end of the leg.
    pub summary: LegSummary,
    /// Every engine's report at the end of the leg.
    pub reports: Vec<SimReport>,
    /// The engine in its end state.
    pub engine: Engine,
}

impl LegRun {
    /// Wall seconds of the timed slices.
    pub fn span_wall_s(&self) -> f64 {
        self.slice_wall_s.iter().sum()
    }
}

/// Simulator wall time between host calibrations inside a leg.
const CALIBRATE_EVERY_S: f64 = 0.03;

/// Builds and runs one leg: set-up, untimed warm-up, timed slices, with
/// [`host::calibrate`] run between slices about every
/// [`CALIBRATE_EVERY_S`] of simulator wall time.
pub fn run_leg(workload: Workload, leg: usize, seed: u64, traced: bool) -> LegRun {
    let timing = workload.timing();
    let start = Instant::now();
    let mut engine = workload.build(leg, seed, traced);
    let setup_s = start.elapsed().as_secs_f64();
    if !timing.warmup.is_zero() {
        engine.advance(timing.warmup);
    }
    let steps_before: u64 = engine.reports().iter().map(|r| r.engine_steps).sum();
    let cpu_before = host::cpu_seconds();
    let mut slice_wall_s = Vec::with_capacity(timing.slices);
    let mut calibration_s = Vec::new();
    let mut since_calibration = 0.0;
    for _ in 0..timing.slices {
        let t = Instant::now();
        engine.advance(timing.slice);
        let wall = t.elapsed().as_secs_f64();
        slice_wall_s.push(wall);
        since_calibration += wall;
        if since_calibration >= CALIBRATE_EVERY_S {
            calibration_s.push(host::calibrate());
            since_calibration = 0.0;
        }
    }
    if calibration_s.is_empty() {
        calibration_s.push(host::calibrate());
    }
    // The kernel runs on one thread: its wall time is its CPU time.
    let span_cpu_s = host::cpu_seconds() - cpu_before - calibration_s.iter().sum::<f64>();
    let reports = engine.reports();
    let summary = engine.summary(&reports);
    LegRun {
        setup_s,
        slice_wall_s,
        calibration_s,
        span_cpu_s,
        span_steps: summary.steps - steps_before,
        summary,
        reports,
        engine,
    }
}
