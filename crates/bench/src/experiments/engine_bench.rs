//! Engine micro-benchmark: simulated seconds per wall second, at a
//! one-tick stride cap and at the default one.
//!
//! The scaling sweeps are wall-clock bound on the engine's main loop;
//! this benchmark quantifies exactly what variable strides buy, per
//! machine shape, on the sweep's own workload (open arrivals under a
//! diurnal curve, per-core-scaled rate). The realised mean stride
//! (`sim_time / engine_steps`) shows how far the engine gets from its
//! one-tick floor on each shape. The DVFS cells run the scaling
//! sweep's thermal-aware enforcement, whose governors only end spans
//! when a hold band is about to be escaped. The numa64 `strided` and
//! `par4` cells run again with `profile_engine` on, so the table ends
//! with the sequential core's phase profile at 256 CPUs and the
//! partitioned core's synchronizer profile (route, step, rebalance per
//! horizon).

use crate::fmt::Table;
use ebs_dvfs::GovernorKind;
use ebs_sim::{build_engine, MaxPowerSpec, ParallelSimulation, SimConfig, Simulation};
use ebs_topology::TopologyPreset;
use ebs_trace::PhaseProfiler;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, LoadCurve, OpenWorkload};
use std::time::Instant;

/// One (topology, engine mode, DVFS mode) measurement.
#[derive(Clone, Debug)]
pub struct EngineBenchRow {
    /// Topology preset name.
    pub topology: &'static str,
    /// Logical CPUs of the shape.
    pub cpus: usize,
    /// Engine mode: "fixed" (one-tick stride cap), "strided", or
    /// "par4" (the partitioned core built with `parallel(4)`: one
    /// partition per package).
    pub mode: &'static str,
    /// DVFS mode of the cell: "off" or "event" (thermal-aware
    /// governors on hold-band triggers).
    pub dvfs: &'static str,
    /// Simulated duration.
    pub sim_s: f64,
    /// Wall-clock the run took.
    pub wall_s: f64,
    /// Simulated seconds per wall second — the headline rate.
    pub sim_per_wall: f64,
    /// Engine steps taken.
    pub steps: u64,
    /// Realised mean stride in microseconds (tick = 1000).
    pub mean_stride_us: f64,
    /// Governor decisions taken (0 with DVFS off).
    pub dvfs_decisions: u64,
    /// Instructions retired (sanity: all modes must agree closely).
    pub instructions: u64,
}

/// One numa64 cell run again with `profile_engine` on. On the
/// sequential `strided` core the profile charges host wall time per
/// step to the engine phases (stride, arrivals, physics, throttle,
/// DVFS, scheduler, sampling); on the partitioned `par4` core it
/// charges it per horizon to the synchronizer's routing, stepping of
/// the partitions and rebalancing. The call counts are deterministic;
/// the wall times are informational.
#[derive(Clone, Debug)]
pub struct ProfiledRun {
    /// Topology of the profiled cell.
    pub topology: &'static str,
    /// Engine steps of the profiled run (profiling must not move it).
    pub steps: u64,
    /// The per-phase profile.
    pub profile: PhaseProfiler,
    /// Wall seconds of the profiled run (informational).
    pub wall_s: f64,
}

/// The benchmark result.
#[derive(Clone, Debug)]
pub struct EngineBench {
    /// Rows in (topology, mode) order, fixed before strided.
    pub rows: Vec<EngineBenchRow>,
    /// The sequential core's engine phase profile (numa64 `strided`).
    pub phases: ProfiledRun,
    /// The partitioned core's synchronizer profile (numa64 `par4`).
    pub sync: ProfiledRun,
}

fn cell(preset: TopologyPreset, strided: bool, dvfs: &str) -> SimConfig {
    let shape = preset.builder();
    let workload = OpenWorkload::new(
        vec![
            catalog::bitcnts(),
            catalog::memrw(),
            catalog::aluadd(),
            catalog::pushpop(),
        ],
        1.5 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(8),
        floor: 0.25,
    });
    let cfg = SimConfig::with_topology(shape)
        .seed(42)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
        .open_workload(workload);
    let cfg = if strided { cfg.strided() } else { cfg };
    match dvfs {
        // The scaling sweep's DVFS cells: thermal-aware enforcement
        // instead of hlt.
        "event" => cfg
            .throttling(false)
            .dvfs_governor(GovernorKind::ThermalAware),
        _ => cfg,
    }
}

/// The (engine mode, DVFS mode, workers) matrix: the classic
/// fixed-vs-strided pair without DVFS, a strided DVFS cell, and the
/// partitioned core with one partition per package ("par4").
/// `workers == 0` selects the sequential engine.
const MODES: [(&str, bool, &str, usize); 4] = [
    ("fixed", false, "off", 0),
    ("strided", true, "off", 0),
    ("strided", true, "event", 0),
    ("par4", true, "off", 4),
];

/// The simulated span of every cell: 4 s under `quick`, 20 s on the
/// full ladder.
fn duration(quick: bool) -> SimDuration {
    SimDuration::from_secs(if quick { 4 } else { 20 })
}

/// Runs the benchmark. `quick` shortens the simulated horizon and the
/// topology ladder for CI.
pub fn run(quick: bool) -> EngineBench {
    let presets = if quick {
        vec![
            TopologyPreset::XSeries445 { smt: false },
            TopologyPreset::Numa16,
        ]
    } else {
        TopologyPreset::all()
    };
    let mut rows = Vec::new();
    for preset in presets {
        for (mode, _, dvfs, _) in MODES {
            rows.push(measure(preset, mode, dvfs, quick));
        }
    }
    let phases = phase_profile(duration(quick));
    let sync = sync_profile(duration(quick));
    EngineBench { rows, phases, sync }
}

/// Measures one cell of the matrix: `preset` in the engine mode `mode`
/// with DVFS mode `dvfs`, over the span [`run`] uses for `quick`.
/// Re-measuring a cell repeats its counters exactly; only the wall
/// columns move.
pub fn measure(preset: TopologyPreset, mode: &str, dvfs: &str, quick: bool) -> EngineBenchRow {
    let (mode, strided, dvfs, workers) = MODES
        .into_iter()
        .find(|m| m.0 == mode && m.2 == dvfs)
        .expect("a (mode, dvfs) pair of the matrix");
    let cfg = cell(preset, strided, dvfs);
    let cpus = cfg.n_cpus();
    // `workers == 0` leaves the config sequential; `build_engine` then
    // picks the core.
    let cfg = if workers > 0 {
        cfg.parallel(workers)
    } else {
        cfg
    };
    let start = Instant::now();
    let mut sim = build_engine(cfg);
    sim.run_for(duration(quick));
    let (wall_s, report) = (start.elapsed().as_secs_f64().max(1e-9), sim.report());
    let sim_s = report.duration.as_secs_f64();
    EngineBenchRow {
        topology: preset.name(),
        cpus,
        mode,
        dvfs,
        sim_s,
        wall_s,
        sim_per_wall: sim_s / wall_s,
        steps: report.engine_steps,
        mean_stride_us: sim_s * 1e6 / report.engine_steps.max(1) as f64,
        dvfs_decisions: report.dvfs_decisions,
        instructions: report.instructions_retired,
    }
}

/// Runs the numa64 `strided` cell with the engine phase profile on.
fn phase_profile(duration: SimDuration) -> ProfiledRun {
    let preset = TopologyPreset::Numa64;
    let cfg = cell(preset, true, "off").profile_engine(true);
    let start = Instant::now();
    let mut sim = Simulation::new(cfg);
    sim.run_for(duration);
    let wall_s = start.elapsed().as_secs_f64();
    ProfiledRun {
        topology: preset.name(),
        steps: sim.report().engine_steps,
        profile: sim.engine_profile().expect("profiling on").clone(),
        wall_s,
    }
}

/// Runs the numa64 `par4` cell with the synchronizer profile on.
fn sync_profile(duration: SimDuration) -> ProfiledRun {
    let preset = TopologyPreset::Numa64;
    let cfg = cell(preset, true, "off").parallel(4).profile_engine(true);
    let start = Instant::now();
    let mut sim = ParallelSimulation::new(cfg);
    sim.run_for(duration);
    let wall_s = start.elapsed().as_secs_f64();
    ProfiledRun {
        topology: preset.name(),
        steps: sim.report().engine_steps,
        profile: sim
            .sync_profile()
            .expect("a multi-package shape with profiling on")
            .clone(),
        wall_s,
    }
}

impl EngineBench {
    /// The row of one (topology, engine mode, DVFS mode) cell.
    pub fn cell(&self, topology: &str, mode: &str, dvfs: &str) -> Option<&EngineBenchRow> {
        self.rows
            .iter()
            .find(|r| r.topology == topology && r.mode == mode && r.dvfs == dvfs)
    }

    /// Wall-clock speedup of strided over fixed for one topology
    /// (DVFS off — the classic engine-core comparison).
    pub fn speedup(&self, topology: &str) -> Option<f64> {
        Some(
            self.cell(topology, "fixed", "off")?.wall_s
                / self.cell(topology, "strided", "off")?.wall_s,
        )
    }

    /// Simulated-seconds-per-wall-second ratio of the partitioned mode
    /// ("par4") over strided for one topology (DVFS off) — the
    /// partitioned-core speedup gate. Both run on one thread, so the
    /// ratio measures per-package calendars against the whole-machine
    /// calendar.
    pub fn parallel_speedup(&self, topology: &str, mode: &str) -> Option<f64> {
        Some(
            self.cell(topology, mode, "off")?.sim_per_wall
                / self.cell(topology, "strided", "off")?.sim_per_wall,
        )
    }

    /// Renders the benchmark as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "topology,cpus,mode,dvfs,sim_s,wall_s,sim_per_wall,steps,mean_stride_us,\
             dvfs_decisions,instructions\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{:.1},{:.3},{:.1},{},{:.1},{},{}\n",
                r.topology,
                r.cpus,
                r.mode,
                r.dvfs,
                r.sim_s,
                r.wall_s,
                r.sim_per_wall,
                r.steps,
                r.mean_stride_us,
                r.dvfs_decisions,
                r.instructions
            ));
        }
        out
    }
}

impl core::fmt::Display for EngineBench {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Engine cores: simulated seconds per wall second (open diurnal workload; \
             dvfs cells run thermal-aware enforcement)"
        )?;
        let mut t = Table::new(vec![
            "topology",
            "cpus",
            "mode",
            "dvfs",
            "sim/wall",
            "steps",
            "stride",
            "decisions",
            "Ginstr",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.topology.to_string(),
                r.cpus.to_string(),
                r.mode.to_string(),
                r.dvfs.to_string(),
                format!("{:.1}", r.sim_per_wall),
                r.steps.to_string(),
                format!("{:.1}us", r.mean_stride_us),
                r.dvfs_decisions.to_string(),
                format!("{:.1}", r.instructions as f64 / 1e9),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "\nEngine phase profile ({} strided, profile_engine on; {} engine \
             steps, wall {:.3}s, informational):",
            self.phases.topology, self.phases.steps, self.phases.wall_s,
        )?;
        write!(f, "{}", self.phases.profile)?;
        writeln!(
            f,
            "\nSynchronizer self-profile ({} par4, profile_engine on; {} engine \
             steps, wall {:.3}s, informational):",
            self.sync.topology, self.sync.steps, self.sync.wall_s,
        )?;
        write!(f, "{}", self.sync.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_modes_agree_on_work() {
        let bench = run(true);
        // 2 presets × (fixed/off, strided/off, strided/event, par4/off).
        assert_eq!(bench.rows.len(), 8);
        for topo in ["xseries445", "numa16"] {
            // Every comparison below is counter-based (steps retired,
            // instructions, decisions): single-core CI containers make
            // wall-clock ratios inherently flaky, so the timing columns
            // are recorded in the CSV but never asserted on.
            let fixed = bench.cell(topo, "fixed", "off").unwrap();
            let strided = bench.cell(topo, "strided", "off").unwrap();
            assert!(
                strided.steps * 2 < fixed.steps,
                "{topo}: {} vs {} steps",
                strided.steps,
                fixed.steps
            );
            let rel = (fixed.instructions as f64 - strided.instructions as f64).abs()
                / fixed.instructions as f64;
            assert!(rel < 0.03, "{topo}: work drifted {rel}");
            // The DVFS cell's governors actually decide.
            let event = bench.cell(topo, "strided", "event").unwrap();
            assert!(event.dvfs_decisions > 0, "{topo}: no governor decisions");
            // Per-package partitions discretise cross-package policy at
            // horizon boundaries; the retired work must still agree.
            let par4 = bench.cell(topo, "par4", "off").unwrap();
            assert!(par4.steps > 0);
            let rel = (strided.instructions as f64 - par4.instructions as f64).abs()
                / strided.instructions as f64;
            assert!(rel < 0.03, "{topo}: par4 work drifted {rel}");
        }
        assert_eq!(bench.to_csv().lines().count(), 9);
        // The 256-CPU phase profile: every phase runs once per step
        // (throttling is on in the cell). Counts only.
        let rows = bench.phases.profile.rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "stride",
                "arrivals",
                "physics",
                "throttle",
                "dvfs",
                "scheduler",
                "sampling"
            ]
        );
        for row in rows {
            assert_eq!(row.calls, bench.phases.steps, "{} calls", row.name);
        }
        // The quick ladder has no numa64 row, so measure the bare cell.
        let bare = measure(TopologyPreset::Numa64, "strided", "off", true);
        assert_eq!(bench.phases.steps, bare.steps, "profiling moved the steps");
        // The synchronizer profile: every phase runs once per horizon
        // (4 s of 25 ms horizons). Counts only, never wall times.
        let rows = bench.sync.profile.rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["route", "step", "rebalance"]);
        for row in rows {
            assert_eq!(row.calls, 160, "{} calls", row.name);
        }
        assert!(bench.sync.steps > 0);
    }
}
