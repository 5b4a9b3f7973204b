//! The scenario-engine scaling sweep.
//!
//! The paper evaluates on one machine shape under one closed task mix.
//! This sweep runs the full policy matrix — stock vs energy-aware
//! scheduling × `hlt` vs DVFS enforcement — across a ladder of
//! generated topologies (2 to 64 packages) and open-workload load
//! curves (diurnal sine, step, bursts), all sharded through the capped
//! parallel runner. Per cell it reports throughput, energy per
//! instruction, migrations, and tail latency, so the scaling questions
//! ("does energy-aware scheduling still pay at 32 packages?", "how do
//! tails behave under bursts?") become one table.
//!
//! Arrival rates scale with the machine's *core* count, so every
//! topology sees a comparable offered load per unit of compute (~0.45
//! task-seconds per core second at the base rate) and the rows compare
//! machine *shapes*, not different saturation levels.

use crate::fmt::Table;
use ebs_dvfs::GovernorKind;
use ebs_sim::{
    default_workers, map_parallel, run_configs, MaxPowerSpec, SimConfig, SimEngine, SimReport,
    Simulation,
};
use ebs_store::StateImage;
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, LoadCurve, OpenWorkload};

/// The policy matrix: scheduling × thermal enforcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Stock load balancing, `hlt` throttling.
    StockHlt,
    /// Energy-aware scheduling, `hlt` throttling.
    EnergyAwareHlt,
    /// Stock load balancing, thermal-aware DVFS.
    StockDvfs,
    /// Energy-aware scheduling, thermal-aware DVFS.
    EnergyAwareDvfs,
}

impl Policy {
    /// All four policy-matrix cells.
    pub const ALL: [Policy; 4] = [
        Policy::StockHlt,
        Policy::EnergyAwareHlt,
        Policy::StockDvfs,
        Policy::EnergyAwareDvfs,
    ];

    /// Short name for tables and CSV.
    pub const fn name(self) -> &'static str {
        match self {
            Policy::StockHlt => "stock+hlt",
            Policy::EnergyAwareHlt => "ea+hlt",
            Policy::StockDvfs => "stock+dvfs",
            Policy::EnergyAwareDvfs => "ea+dvfs",
        }
    }

    /// Applies the cell to a config.
    pub fn apply(self, cfg: SimConfig) -> SimConfig {
        let (energy_aware, dvfs) = match self {
            Policy::StockHlt => (false, false),
            Policy::EnergyAwareHlt => (true, false),
            Policy::StockDvfs => (false, true),
            Policy::EnergyAwareDvfs => (true, true),
        };
        let cfg = cfg.energy_aware(energy_aware);
        if dvfs {
            cfg.throttling(false)
                .dvfs_governor(GovernorKind::ThermalAware)
        } else {
            // Clear any governor a reused base config carries — an
            // "hlt" cell must never run both actuators.
            cfg.throttling(true).dvfs_off()
        }
    }
}

/// One sweep cell's outcome.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Topology preset name.
    pub topology: &'static str,
    /// Physical packages of the shape.
    pub packages: usize,
    /// Logical CPUs of the shape.
    pub cpus: usize,
    /// Load-curve name.
    pub curve: &'static str,
    /// Policy-matrix cell name.
    pub policy: &'static str,
    /// Tasks that arrived.
    pub arrivals: u64,
    /// Tasks that completed.
    pub completions: u64,
    /// Instructions per second, in billions.
    pub gips: f64,
    /// True energy per instruction, nanojoules.
    pub nj_per_instruction: f64,
    /// Total migrations.
    pub migrations: u64,
    /// Median sojourn time, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn time, milliseconds.
    pub p95_ms: f64,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct ScalingSweep {
    /// One row per (topology, curve, policy) cell, in sweep order.
    pub rows: Vec<ScalingRow>,
    /// Simulated duration of each cell.
    pub duration: SimDuration,
    /// Wall-clock the whole sweep took (all cells through the runner).
    pub wall_s: f64,
}

/// The power budget of the sweep, per *logical CPU* so enforcement
/// pressure is comparable across shapes whose packages hold 1 to 4
/// hardware threads (on the paper's single-threaded packages this is
/// exactly the Table 3 "40 W per processor" setup).
pub const BUDGET: Watts = Watts(40.0);

/// The load curves of the sweep, smoke subset first.
fn curves(smoke: bool) -> Vec<LoadCurve> {
    let mut out = vec![
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(8),
            floor: 0.25,
        },
        LoadCurve::Burst {
            period: SimDuration::from_secs(4),
            duty: 0.25,
            high: 2.5,
        },
    ];
    if !smoke {
        out.push(LoadCurve::Step {
            at: SimDuration::from_secs(20),
            before: 0.35,
            after: 1.0,
        });
    }
    out
}

/// The topology ladder of the sweep.
fn topologies(smoke: bool) -> Vec<TopologyPreset> {
    if smoke {
        vec![
            TopologyPreset::Dual,
            TopologyPreset::XSeries445 { smt: false },
            TopologyPreset::Numa16,
        ]
    } else {
        TopologyPreset::all()
    }
}

/// The open workload of one cell: a palette of the four steady
/// Table 2 programs, short bounded service demands, and an arrival
/// rate proportional to the machine's *core* count — SMT siblings add
/// only ~25 % throughput, so scaling by logical CPUs would overload
/// every SMT shape and diverge.
fn workload(n_cores: usize, curve: LoadCurve) -> OpenWorkload {
    let palette = vec![
        catalog::bitcnts(),
        catalog::memrw(),
        catalog::aluadd(),
        catalog::pushpop(),
    ];
    // Mean service demand ~1.2e9 instructions (~0.3 s solo at IPC
    // ~1.7): 1.5 arrivals/s/core offers ~0.45 utilisation at factor
    // 1, so the machine saturates only at burst peaks (the
    // tail-latency stress) instead of accumulating an unbounded
    // backlog.
    OpenWorkload::new(palette, 1.5 * n_cores as f64)
        .curve(curve)
        .service_work(600_000_000, 1_800_000_000)
}

/// Builds the full config list of the sweep (public so tests can
/// check the matrix without running it). By default the sweep runs on
/// the variable-stride engine core: headline metrics match fixed-tick
/// within tolerance (see the sim crate's equivalence suite) at a
/// fraction of the wall-clock. `sweep_configs_with_engine` builds the
/// fixed-tick variant the CI regression gate compares against.
pub fn sweep_configs(smoke: bool) -> Vec<(ScalingRow, SimConfig)> {
    sweep_configs_with_engine(smoke, true)
}

/// The sweep's config list on an explicit engine core.
pub fn sweep_configs_with_engine(smoke: bool, strided: bool) -> Vec<(ScalingRow, SimConfig)> {
    let mut out = Vec::new();
    for preset in topologies(smoke) {
        let shape = preset.builder();
        for curve in curves(smoke) {
            for policy in Policy::ALL {
                let cfg = SimConfig::with_topology(shape)
                    .seed(42)
                    .respawn(false)
                    .max_power(MaxPowerSpec::PerLogical(BUDGET))
                    .open_workload(workload(shape.n_cores(), curve));
                let cfg = if strided { cfg.strided() } else { cfg };
                let cfg = policy.apply(cfg);
                let row = ScalingRow {
                    topology: preset.name(),
                    packages: shape.n_packages(),
                    cpus: shape.n_cpus(),
                    curve: curve.name(),
                    policy: policy.name(),
                    arrivals: 0,
                    completions: 0,
                    gips: 0.0,
                    nj_per_instruction: 0.0,
                    migrations: 0,
                    p50_ms: 0.0,
                    p95_ms: 0.0,
                };
                out.push((row, cfg));
            }
        }
    }
    out
}

/// Looks up one sweep cell by its `topology/curve/policy` key (the
/// key format of `scaling.csv` and the gate's violation reports),
/// returning its strided config. Both the smoke and the full matrix
/// are searched, so any key a sweep artifact can contain resolves;
/// the trace-diff tooling replays these cells.
pub fn cell_config(key: &str) -> Option<SimConfig> {
    [true, false].into_iter().find_map(|smoke| {
        sweep_configs(smoke)
            .into_iter()
            .find(|(row, _)| format!("{}/{}/{}", row.topology, row.curve, row.policy) == key)
            .map(|(_, cfg)| cfg)
    })
}

fn fill(row: &mut ScalingRow, report: &SimReport) {
    row.arrivals = report.arrivals;
    row.completions = report.completions;
    row.gips = report.throughput_ips / 1e9;
    row.nj_per_instruction = report.nj_per_instruction();
    row.migrations = report.migrations;
    row.p50_ms = report.latency.p50_s * 1e3;
    row.p95_ms = report.latency.p95_s * 1e3;
}

/// Runs the sweep: every cell through the capped parallel runner, in
/// one sharded batch.
pub fn run(smoke: bool) -> ScalingSweep {
    run_with_engine(smoke, true)
}

/// Runs the sweep on an explicit engine core (`strided == false` is
/// the fixed-tick leg of the CI fixed-vs-strided regression gate).
pub fn run_with_engine(smoke: bool, strided: bool) -> ScalingSweep {
    let duration = SimDuration::from_secs(if smoke { 6 } else { 45 });
    let (mut rows, configs): (Vec<ScalingRow>, Vec<SimConfig>) =
        sweep_configs_with_engine(smoke, strided)
            .into_iter()
            .unzip();
    let start = std::time::Instant::now();
    let reports = run_configs(configs, duration, |_| {});
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    for (row, report) in rows.iter_mut().zip(&reports) {
        fill(row, report);
    }
    ScalingSweep {
        rows,
        duration,
        wall_s,
    }
}

impl ScalingSweep {
    /// The rows of one topology preset.
    pub fn rows_for(&self, topology: &str) -> Vec<&ScalingRow> {
        self.rows
            .iter()
            .filter(|r| r.topology == topology)
            .collect()
    }

    /// Renders the sweep as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "topology,packages,cpus,curve,policy,arrivals,completions,gips,\
             nj_per_instr,migrations,p50_ms,p95_ms\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.3},{:.3},{},{:.1},{:.1}\n",
                r.topology,
                r.packages,
                r.cpus,
                r.curve,
                r.policy,
                r.arrivals,
                r.completions,
                r.gips,
                r.nj_per_instruction,
                r.migrations,
                r.p50_ms,
                r.p95_ms
            ));
        }
        out
    }
}

impl core::fmt::Display for ScalingSweep {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Scaling sweep: open workloads across the topology ladder \
             ({} s per cell, {BUDGET} per-CPU budget)",
            self.duration.as_secs_f64()
        )?;
        let mut t = Table::new(vec![
            "topology", "pkgs", "cpus", "curve", "policy", "arrived", "done", "Ginstr/s",
            "nJ/instr", "migr", "p50", "p95",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.topology.to_string(),
                r.packages.to_string(),
                r.cpus.to_string(),
                r.curve.to_string(),
                r.policy.to_string(),
                r.arrivals.to_string(),
                r.completions.to_string(),
                format!("{:.2}", r.gips),
                format!("{:.2}", r.nj_per_instruction),
                r.migrations.to_string(),
                format!("{:.0}ms", r.p50_ms),
                format!("{:.0}ms", r.p95_ms),
            ]);
        }
        write!(f, "{t}")?;
        // The sweep-level rate makes engine-speed regressions visible
        // in the CI log without adding columns the gate would trip
        // over.
        writeln!(
            f,
            "sweep wall-clock: {:.1}s ({:.0} simulated seconds per wall second over {} cells)",
            self.wall_s,
            self.duration.as_secs_f64() * self.rows.len() as f64 / self.wall_s,
            self.rows.len()
        )
    }
}

// ---------------------------------------------------------------------
// The fork sweep: checkpoint each topology×curve warm-up once, fork
// the policy matrix from the snapshot.
// ---------------------------------------------------------------------

/// One topology×curve group of the fork sweep: a shared warm-up
/// configuration (the [`Policy::StockHlt`] baseline) and the four
/// policy cells forked from its measurement-boundary checkpoint.
#[derive(Clone, Debug)]
pub struct ForkGroup {
    /// Group key: `topology/curve`.
    pub key: String,
    /// The warm-up cell: the stock baseline of the group.
    pub warmup: SimConfig,
    /// The policy cells forked from the warm-up checkpoint.
    pub cells: Vec<(ScalingRow, SimConfig)>,
}

/// One leg of the fork sweep (straight or forked).
#[derive(Clone, Debug)]
pub struct ForkLeg {
    /// The filled sweep rows (CSV-identical across legs by the
    /// determinism contract).
    pub sweep: ScalingSweep,
    /// Per-cell end-of-measurement state hash, keyed
    /// `topology/curve/policy` — the equality oracle sharper than any
    /// CSV tolerance.
    pub hashes: Vec<(String, u64)>,
    /// Engine steps actually executed by this leg (warm-ups included
    /// once per execution, so the straight/fork ratio *is* the
    /// warm-up amortization, counter-verified).
    pub executed_steps: u64,
}

/// The outcome of running both legs and comparing them.
#[derive(Clone, Debug)]
pub struct ForkCompare {
    /// The per-cell-warm-up leg.
    pub straight: ForkLeg,
    /// The shared-warm-up leg.
    pub forked: ForkLeg,
    /// The warm-up checkpoint of every group, keyed `topology/curve`
    /// (persisted as `results/*.snap` by `exp_scaling --fork`).
    pub snapshots: Vec<(String, StateImage)>,
    /// Whether the two legs' CSVs are byte-identical.
    pub csv_identical: bool,
    /// Whether every cell's end-state hash matches across legs.
    pub hashes_identical: bool,
    /// Warm-up span both legs ran before each measurement.
    pub warmup: SimDuration,
}

/// Warm-up span of one fork-sweep cell. Smoke keeps it equal to the
/// measurement span (theoretical shared-warm-up amortization of a
/// 4-policy matrix: 8/5 = 1.6× in engine steps); the full matrix uses
/// the sweep's original 45 s cell span — a long shared prefix is
/// exactly what forking amortizes best (steps ceiling
/// (4W+4M)/(W+4M) ≈ 2×), and warm-up steps under the stock baseline
/// are cheaper per simulated second than measurement steps, so the
/// wall-clock speedup needs the longer prefix to clear 1.5×.
pub fn fork_warmup(smoke: bool) -> SimDuration {
    SimDuration::from_secs(if smoke { 3 } else { 45 })
}

/// Measurement span of one fork-sweep cell.
pub fn fork_measure(smoke: bool) -> SimDuration {
    SimDuration::from_secs(if smoke { 3 } else { 22 })
}

/// The fork-sweep groups: one per topology×curve, cells in policy
/// order. The warm-up runs the stock baseline; the cells fork from
/// its checkpoint, so a cell's measurement covers `[W, W+M]` under
/// its own policy after a shared prefix.
pub fn fork_groups(smoke: bool) -> Vec<ForkGroup> {
    let mut groups: Vec<ForkGroup> = Vec::new();
    for (row, cfg) in sweep_configs(smoke) {
        let key = format!("{}/{}", row.topology, row.curve);
        if groups.last().map(|g| g.key.as_str()) != Some(key.as_str()) {
            groups.push(ForkGroup {
                key,
                warmup: Policy::StockHlt.apply(cfg.clone()),
                cells: Vec::new(),
            });
        }
        groups
            .last_mut()
            .expect("group just pushed")
            .cells
            .push((row, cfg));
    }
    groups
}

/// Runs one group's warm-up to the measurement boundary and returns
/// the checkpoint plus the steps it took.
fn warm_up(group: &ForkGroup, warmup: SimDuration) -> (StateImage, u64) {
    let mut sim = Simulation::new(group.warmup.clone());
    sim.run_for(warmup);
    (sim.snapshot(), sim.report().engine_steps)
}

/// Forks one cell from a warm-up checkpoint and measures it.
fn measure_cell(cfg: &SimConfig, image: &StateImage, measure: SimDuration) -> (SimReport, u64) {
    let mut sim = Simulation::from_snapshot(cfg.clone(), image)
        .expect("warm-up checkpoint restores into its own group's cells");
    sim.run_for(measure);
    (sim.report(), sim.state_hash())
}

/// Runs the fork sweep. `fork == false` is the straight leg: every
/// cell runs its own warm-up before forking — the same code path, so
/// the two legs are byte-identical cell for cell and the only
/// difference is how often the warm-up executes. Both legs shard over
/// the work-stealing runner.
pub fn run_forked(smoke: bool, fork: bool) -> (ForkLeg, Vec<(String, StateImage)>) {
    let (warmup, measure) = (fork_warmup(smoke), fork_measure(smoke));
    let groups = fork_groups(smoke);
    let start = std::time::Instant::now();
    let mut rows = Vec::new();
    let mut hashes = Vec::new();
    let mut executed_steps = 0u64;
    let mut snapshots = Vec::new();
    if fork {
        // One warm-up per group, then the policy matrix forks from
        // the checkpoint.
        let results = map_parallel(&groups, default_workers(), |group| {
            let (image, warm_steps) = warm_up(group, warmup);
            let cells: Vec<(ScalingRow, SimReport, u64)> = group
                .cells
                .iter()
                .map(|(row, cfg)| {
                    let (report, hash) = measure_cell(cfg, &image, measure);
                    (row.clone(), report, hash)
                })
                .collect();
            (group.key.clone(), image, warm_steps, cells)
        });
        for (key, image, warm_steps, cells) in results {
            executed_steps += warm_steps;
            for (mut row, report, hash) in cells {
                executed_steps += report.engine_steps - warm_steps;
                fill(&mut row, &report);
                hashes.push((
                    format!("{}/{}/{}", row.topology, row.curve, row.policy),
                    hash,
                ));
                rows.push(row);
            }
            snapshots.push((key, image));
        }
    } else {
        // Per-cell warm-ups: flatten the groups into (warmup, cell)
        // pairs so the runner load-balances across all cells.
        let flat: Vec<(SimConfig, ScalingRow, SimConfig)> = groups
            .iter()
            .flat_map(|g| {
                g.cells
                    .iter()
                    .map(|(row, cfg)| (g.warmup.clone(), row.clone(), cfg.clone()))
            })
            .collect();
        let results = map_parallel(&flat, default_workers(), |(warmup_cfg, row, cfg)| {
            let mut sim = Simulation::new(warmup_cfg.clone());
            sim.run_for(warmup);
            let image = sim.snapshot();
            let (report, hash) = measure_cell(cfg, &image, measure);
            (row.clone(), report, hash)
        });
        for (mut row, report, hash) in results {
            // The cell's end-step count covers its warm-up prefix too
            // (the `steps` counter travels with the snapshot).
            executed_steps += report.engine_steps;
            fill(&mut row, &report);
            hashes.push((
                format!("{}/{}/{}", row.topology, row.curve, row.policy),
                hash,
            ));
            rows.push(row);
        }
    }
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let leg = ForkLeg {
        sweep: ScalingSweep {
            rows,
            duration: measure,
            wall_s,
        },
        hashes,
        executed_steps,
    };
    (leg, snapshots)
}

impl ForkCompare {
    /// Wall-clock speedup of the forked leg over the straight leg.
    pub fn speedup(&self) -> f64 {
        self.straight.sweep.wall_s / self.forked.sweep.wall_s.max(1e-9)
    }

    /// Executed-step ratio straight/forked — the counter-verified
    /// warm-up amortization, free of wall-clock noise.
    pub fn step_ratio(&self) -> f64 {
        self.straight.executed_steps as f64 / self.forked.executed_steps.max(1) as f64
    }

    /// Whether both equality oracles (CSV bytes, state hashes) agree.
    pub fn identical(&self) -> bool {
        self.csv_identical && self.hashes_identical
    }

    /// Renders the per-cell hash table as CSV (`key,straight,fork`).
    pub fn hashes_csv(&self) -> String {
        let mut out = String::from("cell,straight_hash,fork_hash\n");
        for ((key, s), (_, f)) in self.straight.hashes.iter().zip(&self.forked.hashes) {
            out.push_str(&format!("{key},{s:016x},{f:016x}\n"));
        }
        out
    }
}

/// Runs both legs of the fork sweep and compares them cell by cell.
pub fn run_fork_compare(smoke: bool) -> ForkCompare {
    let (straight, _) = run_forked(smoke, false);
    let (forked, snapshots) = run_forked(smoke, true);
    let csv_identical = straight.sweep.to_csv() == forked.sweep.to_csv();
    let hashes_identical = straight.hashes == forked.hashes;
    ForkCompare {
        straight,
        forked,
        snapshots,
        csv_identical,
        hashes_identical,
        warmup: fork_warmup(smoke),
    }
}

impl core::fmt::Display for ForkCompare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Fork sweep: {} cells in {} topology-curve groups \
             ({:.0} s warm-up, {:.0} s measurement)",
            self.forked.sweep.rows.len(),
            self.snapshots.len(),
            self.warmup.as_secs_f64(),
            self.forked.sweep.duration.as_secs_f64()
        )?;
        writeln!(
            f,
            "  straight leg: {} engine steps, {:.1}s wall ({} warm-ups)",
            self.straight.executed_steps,
            self.straight.sweep.wall_s,
            self.straight.sweep.rows.len()
        )?;
        writeln!(
            f,
            "  forked leg:   {} engine steps, {:.1}s wall ({} warm-ups)",
            self.forked.executed_steps,
            self.forked.sweep.wall_s,
            self.snapshots.len()
        )?;
        writeln!(
            f,
            "  amortization: {:.2}x fewer engine steps, {:.2}x wall-clock speedup",
            self.step_ratio(),
            self.speedup()
        )?;
        writeln!(
            f,
            "  equality: CSV {}, state hashes {}",
            if self.csv_identical {
                "byte-identical"
            } else {
                "DIVERGED"
            },
            if self.hashes_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_covers_at_least_24_cells() {
        let cells = sweep_configs(true);
        assert!(cells.len() >= 24, "only {} cells", cells.len());
        // 3 topologies × 2 curves × 4 policies.
        assert_eq!(cells.len(), 24);
        // Full sweep: 5 topologies × 3 curves × 4 policies.
        assert_eq!(sweep_configs(false).len(), 60);
        // Every cell is an open workload with a core-scaled rate.
        for (row, cfg) in &cells {
            let w = cfg.open_workload.as_ref().expect("open workload");
            let n_cores = cfg.n_packages() * cfg.cores_per_package;
            assert_eq!(w.base_rate_hz, 1.5 * n_cores as f64);
            assert!(!cfg.respawn);
            assert_eq!(cfg.n_packages(), row.packages);
        }
    }

    #[test]
    fn fixed_engine_leg_differs_only_in_stride() {
        let strided = sweep_configs(true);
        let fixed = sweep_configs_with_engine(true, false);
        assert_eq!(strided.len(), fixed.len());
        for ((srow, scfg), (frow, fcfg)) in strided.iter().zip(&fixed) {
            assert_eq!(srow.topology, frow.topology);
            assert_eq!(srow.policy, frow.policy);
            assert!(scfg.strided_enabled());
            assert!(!fcfg.strided_enabled());
            assert_eq!(scfg.seed, fcfg.seed);
            let rate = |cfg: &SimConfig| cfg.open_workload.as_ref().map(|w| w.base_rate_hz);
            assert_eq!(rate(scfg), rate(fcfg));
        }
    }

    #[test]
    fn cell_configs_resolves_gate_keys() {
        let cfg = cell_config("dual2/burst/ea+dvfs").expect("smoke cell");
        assert!(cfg.strided_enabled() && cfg.dvfs_enabled());
        assert_eq!(cfg.seed, 42);
        // Keys only the full matrix holds (the step curve) resolve too.
        assert!(cell_config("numa64/step/stock+hlt").is_some());
        assert!(cell_config("numa16/step/nope").is_none());
        assert!(cell_config("garbage").is_none());
    }

    #[test]
    fn policy_matrix_distinct_and_complete() {
        let base = SimConfig::xseries445();
        let hlt = Policy::StockHlt.apply(base.clone());
        assert!(hlt.throttling && !hlt.energy_aware && hlt.dvfs.is_none());
        let ea = Policy::EnergyAwareHlt.apply(base.clone());
        assert!(ea.energy_aware);
        let dvfs = Policy::StockDvfs.apply(base.clone());
        assert!(!dvfs.throttling && dvfs.dvfs.is_some());
        let both = Policy::EnergyAwareDvfs.apply(base);
        assert!(both.energy_aware && both.dvfs.is_some() && !both.throttling);
        let names: Vec<_> = Policy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
        // An hlt cell built from a DVFS-configured base must not keep
        // the governor.
        let reused = Policy::StockHlt
            .apply(SimConfig::xseries445().dvfs_governor(GovernorKind::ThermalAware));
        assert!(reused.dvfs.is_none() && reused.throttling);
    }

    #[test]
    fn fork_groups_partition_the_matrix() {
        // Smoke: 3 topologies × 2 curves, 4 policy cells each; full:
        // 5 × 3. Every group's warm-up is the stock baseline of its
        // own topology, and the cells cover the whole sweep in order.
        let groups = fork_groups(true);
        assert_eq!(groups.len(), 6);
        assert_eq!(fork_groups(false).len(), 15);
        let sweep = sweep_configs(true);
        let mut flattened = 0;
        for g in &groups {
            assert_eq!(g.cells.len(), Policy::ALL.len());
            assert!(g.warmup.throttling, "warm-up is not the hlt baseline");
            assert!(g.warmup.dvfs.is_none());
            for (row, cfg) in &g.cells {
                assert_eq!(format!("{}/{}", row.topology, row.curve), g.key);
                assert_eq!(cfg.n_packages(), g.warmup.n_packages());
                assert_eq!(cfg.seed, g.warmup.seed);
                flattened += 1;
            }
        }
        assert_eq!(flattened, sweep.len());
    }

    #[test]
    fn smoke_sweep_produces_sane_rows() {
        let sweep = run(true);
        assert_eq!(sweep.rows.len(), 24);
        for r in &sweep.rows {
            assert!(
                r.arrivals > 0,
                "{}/{}/{}: no arrivals",
                r.topology,
                r.curve,
                r.policy
            );
            assert!(
                r.completions > 0,
                "{}/{}/{}: nothing completed",
                r.topology,
                r.curve,
                r.policy
            );
            assert!(r.completions <= r.arrivals);
            assert!(r.gips > 0.0);
            assert!(r.nj_per_instruction > 0.0);
            assert!(r.p95_ms >= r.p50_ms);
        }
        // Offered load scales with CPU count, so bigger machines
        // retire more instructions under the same curve and policy.
        for curve in ["diurnal", "burst"] {
            for policy in ["stock+hlt", "ea+hlt", "stock+dvfs", "ea+dvfs"] {
                let gips = |topo: &str| {
                    sweep
                        .rows
                        .iter()
                        .find(|r| r.topology == topo && r.curve == curve && r.policy == policy)
                        .expect("cell present")
                        .gips
                };
                assert!(
                    gips("numa16") > gips("dual2"),
                    "{curve}/{policy}: 16 packages no faster than 2"
                );
            }
        }
        // The CSV has one line per row plus the header.
        assert_eq!(sweep.to_csv().lines().count(), 25);
        assert_eq!(sweep.rows_for("numa16").len(), 8);
    }
}
