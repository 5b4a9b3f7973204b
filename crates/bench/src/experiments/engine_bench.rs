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

use crate::experiments::scaling;
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
    /// "parN" (the partitioned core built with `parallel(N)`: one
    /// whole-machine partition for N = 1, one per package otherwise).
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

/// The tracing-parity measurement: one strided event-DVFS cell run
/// bare and again with the observability stack on (event trace +
/// phase profiler). The check is counter-based by design — the two
/// reports must be bit-identical, which subsumes every counter — so
/// CI wall-clock noise cannot perturb it; the wall times are recorded
/// for the table but never asserted on.
#[derive(Clone, Debug)]
pub struct TraceParity {
    /// Topology of the parity cell.
    pub topology: &'static str,
    /// Whether the bare and instrumented reports are bit-identical.
    pub identical: bool,
    /// Engine steps of the instrumented run.
    pub steps: u64,
    /// Scheduling events the instrumented run recorded.
    pub events: usize,
    /// Rendered per-phase wall-time profile of the instrumented run.
    pub profile: String,
    /// Wall seconds of the bare run (informational).
    pub bare_wall_s: f64,
    /// Wall seconds of the instrumented run (informational).
    pub traced_wall_s: f64,
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

/// The fork-sweep amortization measurement: the scaling matrix run
/// straight (one warm-up per cell) vs forked from per-group
/// `ebs-store` checkpoints (one warm-up per topology×curve group).
/// The headline is the executed-step ratio — counter-verified warm-up
/// amortization, free of wall-clock noise — with the wall speedup
/// recorded for the table but never asserted on. `identical` holds
/// both equality oracles: CSV bytes and per-cell end-state hashes.
#[derive(Clone, Debug)]
pub struct ForkSweep {
    /// Matrix cells measured by each leg.
    pub cells: usize,
    /// Topology×curve groups (= warm-ups the forked leg runs).
    pub groups: usize,
    /// Engine steps the straight leg executed (warm-ups included).
    pub straight_steps: u64,
    /// Engine steps the forked leg executed.
    pub fork_steps: u64,
    /// straight/forked executed-step ratio.
    pub step_ratio: f64,
    /// Wall seconds of the straight leg (informational).
    pub straight_wall_s: f64,
    /// Wall seconds of the forked leg (informational).
    pub fork_wall_s: f64,
    /// Wall-clock speedup of the forked leg (informational).
    pub speedup: f64,
    /// Whether the legs are byte-identical (CSV and state hashes).
    pub identical: bool,
}

/// The benchmark result.
#[derive(Clone, Debug)]
pub struct EngineBench {
    /// Rows in (topology, mode) order, fixed before strided.
    pub rows: Vec<EngineBenchRow>,
    /// The tracing-overhead / self-profiling measurement.
    pub parity: TraceParity,
    /// The sequential core's engine phase profile (numa64 `strided`).
    pub phases: ProfiledRun,
    /// The partitioned core's synchronizer profile (numa64 `par4`).
    pub sync: ProfiledRun,
    /// The checkpoint/fork warm-up-amortization measurement.
    pub fork: ForkSweep,
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
/// partitioned core's worker ladder ("par1" must reproduce "strided"
/// bit-exactly; "par4" exercises per-package partitions).
/// `workers == 0` selects the sequential engine.
const MODES: [(&str, bool, &str, usize); 5] = [
    ("fixed", false, "off", 0),
    ("strided", true, "off", 0),
    ("strided", true, "event", 0),
    ("par1", true, "off", 1),
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
    let parity = trace_parity(duration(quick));
    let phases = phase_profile(duration(quick));
    let sync = sync_profile(duration(quick));
    let fork = fork_sweep(quick);
    EngineBench {
        rows,
        parity,
        phases,
        sync,
        fork,
    }
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

/// Runs both legs of the scaling fork sweep (the smoke matrix under
/// `quick`) and distils the amortization numbers.
fn fork_sweep(quick: bool) -> ForkSweep {
    let cmp = scaling::run_fork_compare(quick);
    ForkSweep {
        cells: cmp.straight.sweep.rows.len(),
        groups: cmp.snapshots.len(),
        straight_steps: cmp.straight.executed_steps,
        fork_steps: cmp.forked.executed_steps,
        step_ratio: cmp.step_ratio(),
        straight_wall_s: cmp.straight.sweep.wall_s,
        fork_wall_s: cmp.forked.sweep.wall_s,
        speedup: cmp.speedup(),
        identical: cmp.identical(),
    }
}

/// Runs the parity cell: the strided event-DVFS xseries445 shape,
/// bare vs instrumented (event tracing + engine self-profiling).
fn trace_parity(duration: SimDuration) -> TraceParity {
    let preset = TopologyPreset::XSeries445 { smt: false };
    let cfg = cell(preset, true, "event");
    let start = Instant::now();
    let mut bare = Simulation::new(cfg.clone());
    bare.run_for(duration);
    let bare_wall_s = start.elapsed().as_secs_f64();
    let bare_report = bare.report();
    let start = Instant::now();
    let mut traced = Simulation::new(cfg.trace_events(true).profile_engine(true));
    traced.run_for(duration);
    let traced_wall_s = start.elapsed().as_secs_f64();
    let traced_report = traced.report();
    TraceParity {
        topology: preset.name(),
        identical: bare_report.bit_eq(&traced_report),
        steps: traced_report.engine_steps,
        events: traced.events().map_or(0, |t| t.len()),
        profile: traced
            .engine_profile()
            .map(|p| p.to_string())
            .unwrap_or_default(),
        bare_wall_s,
        traced_wall_s,
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

    /// Simulated-seconds-per-wall-second ratio of a partitioned mode
    /// ("par1"/"par4") over strided for one topology (DVFS off) — the
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
            "\nEngine self-profile ({} strided event-DVFS cell, event tracing + \
             phase profiler on):",
            self.parity.topology
        )?;
        write!(f, "{}", self.parity.profile)?;
        writeln!(
            f,
            "trace parity: reports {} with tracing on; {} events recorded, \
             {} engine steps; wall {:.3}s bare vs {:.3}s traced \
             (informational)",
            if self.parity.identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            self.parity.events,
            self.parity.steps,
            self.parity.bare_wall_s,
            self.parity.traced_wall_s,
        )?;
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
        write!(f, "{}", self.sync.profile)?;
        writeln!(
            f,
            "
Fork sweep ({} cells, {} warm-up groups): {:.2}x fewer engine steps \
             with shared warm-ups ({} -> {}), {:.2}x wall speedup \
             ({:.1}s -> {:.1}s, informational); legs {}",
            self.fork.cells,
            self.fork.groups,
            self.fork.step_ratio,
            self.fork.straight_steps,
            self.fork.fork_steps,
            self.fork.speedup,
            self.fork.straight_wall_s,
            self.fork.fork_wall_s,
            if self.fork.identical {
                "byte-identical"
            } else {
                "DIVERGED"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_modes_agree_on_work() {
        let bench = run(true);
        // 2 presets × (fixed/off, strided/off, strided/event,
        // par1/off, par4/off).
        assert_eq!(bench.rows.len(), 10);
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
            // The partitioned core with one worker is the strided core
            // verbatim: counters match exactly, not just closely.
            let par1 = bench.cell(topo, "par1", "off").unwrap();
            assert_eq!(par1.steps, strided.steps, "{topo}: par1 steps diverged");
            assert_eq!(
                par1.instructions, strided.instructions,
                "{topo}: par1 work diverged"
            );
            // Per-package partitions discretise cross-package policy at
            // horizon boundaries; the retired work must still agree.
            let par4 = bench.cell(topo, "par4", "off").unwrap();
            assert!(par4.steps > 0);
            let rel = (strided.instructions as f64 - par4.instructions as f64).abs()
                / strided.instructions as f64;
            assert!(rel < 0.03, "{topo}: par4 work drifted {rel}");
        }
        let csv = bench.to_csv();
        assert_eq!(csv.lines().count(), 11);
        // The observability stack must not perturb the simulation:
        // bit-identical reports subsume every counter comparison, and
        // the phase profile covers the whole loop. All counter-based —
        // no wall-clock assertions.
        let parity = &bench.parity;
        assert!(parity.identical, "tracing perturbed the report");
        assert!(parity.events > 0, "no events recorded");
        for phase in [
            "stride",
            "arrivals",
            "physics",
            "throttle",
            "dvfs",
            "scheduler",
            "sampling",
        ] {
            assert!(
                parity.profile.contains(phase),
                "phase {phase} missing from profile:\n{}",
                parity.profile
            );
        }
        // The fork sweep: warm-up amortization must be counter-real
        // (theoretical shared-warm-up ceiling on a 4-policy matrix with
        // W = M is 8/5 = 1.6x; the realised step ratio sits near 1.5x
        // because warm-up and measurement spans retire slightly
        // different step counts) and the legs must be byte-identical.
        // Wall columns are informational only — never asserted.
        let fork = &bench.fork;
        assert!(fork.identical, "fork-sweep legs diverged");
        assert_eq!(fork.cells, 24);
        assert_eq!(fork.groups, 6);
        assert!(
            fork.step_ratio >= 1.4,
            "warm-up amortization collapsed: {:.2}x ({} -> {} steps)",
            fork.step_ratio,
            fork.straight_steps,
            fork.fork_steps
        );
        assert!(bench.to_string().contains("bit-identical"));
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
