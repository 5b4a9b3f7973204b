//! The heterogeneous-hardware study: class-aware vs class-blind
//! energy balancing on hybrid machines.
//!
//! Section 7 of the paper claims the scheme extends to CMPs "by adding
//! an additional layer to the domain hierarchy"; the open question is
//! whether counter-based energy balancing still pays off when cores
//! differ in *class* — when a migration changes the IPC, the P-state
//! ladder, and the counter-rate truth under a task. This sweep answers
//! it head-on: a two-package machine at three P/E splits serves the
//! open-workload curves twice — once with the class-aware policies
//! (capacity-normalized load, class-aware placement, cross-class
//! estimator refit) and once `class_blind` (every policy pretends the
//! cores are identical, the pre-refactor behaviour) — and the cells
//! compare gips/joule. Each cell averages the seeds in
//! [`crate::SEEDS`]; `results/hybrid.csv` gets one row per cell.

use crate::fmt::{pct, Table};
use ebs_dvfs::GovernorKind;
use ebs_sim::{run_seeds, ClassCatalog, MaxPowerSpec, SimConfig, SimReport};
use ebs_topology::{ClassId, TopologyBuilder};
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, LoadCurve, OpenWorkload, Program};

/// Cores per package of the study machine (two packages, SMT off).
const CORES_PER_PACKAGE: usize = 8;

/// Service-demand bounds of arriving tasks, in instructions. Tasks are
/// *long* — tens of seconds solo — so each one outlives the thermal
/// time constant, heats its package into the hot-task trigger, and has
/// to wander (the Figure 9 regime, many tasks at once). Long tasks are
/// also what makes the cells discriminating: most of the offered work
/// is still in flight at the horizon, so throughput is set by where
/// the wanderers *sit*, not by work conservation.
const MIN_WORK: u64 = 20_000_000_000;
const MAX_WORK: u64 = 50_000_000_000;

/// Target utilization at the curve's peak rate factor, as a fraction
/// of the machine's aggregate instruction capacity. Deliberately below
/// saturation: hot-task migration only fires for CPUs running exactly
/// one task, and the idle cores are what the class-aware and
/// class-blind destination searches disagree about.
const PEAK_UTIL: f64 = 0.4;

/// The P/E splits under study: performance cores per 8-core package.
pub fn perf_splits() -> Vec<usize> {
    vec![2, 4, 6]
}

/// The arrival curves under study.
pub fn curves() -> Vec<LoadCurve> {
    vec![
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(3),
            floor: 0.3,
        },
        LoadCurve::Burst {
            period: SimDuration::from_secs(2),
            duty: 0.25,
            high: 2.0,
        },
    ]
}

/// The task palette: the compute-bound catalog programs. All three
/// run hot enough to reach the package trigger, and their IPCs (2.0,
/// 1.5, 1.8) are exactly what an efficiency core cannot sustain —
/// parking one there costs ~45% of its throughput.
fn palette() -> Vec<Program> {
    vec![catalog::aluadd(), catalog::pushpop(), catalog::bitcnts()]
}

/// Peak arrival rate (tasks/s) that offers [`PEAK_UTIL`] of the
/// machine's aggregate capacity. Capacity is counted in class-0 CPU
/// equivalents from the [`ClassCatalog`] (an E core contributes its
/// real fraction of a P core), and service time uses the palette's
/// mean inverse IPC — so the offered load lands in the same queueing
/// regime at every P/E split.
fn peak_rate(cfg: &SimConfig, perf: usize) -> f64 {
    let cat = ClassCatalog::for_config(cfg);
    let eff_cap = cat.capacity(ClassId(1));
    let p_equiv = 2.0 * (perf as f64 + (CORES_PER_PACKAGE - perf) as f64 * eff_cap);
    let programs = palette();
    let mean_inv_ipc = programs
        .iter()
        .map(|p| 1.0 / p.main_phase().ipc)
        .sum::<f64>()
        / programs.len() as f64;
    let mean_work = 0.5 * (MIN_WORK + MAX_WORK) as f64;
    let mean_service_s = mean_work * mean_inv_ipc / cfg.freq_hz;
    PEAK_UTIL * p_equiv / mean_service_s
}

/// Builds one variant's config: a `2 × (perf P + (8-perf) E)` machine
/// under the given curve, class-aware or class-blind. The seed is set
/// by the runner ([`run_seeds`] stamps one per run).
pub fn cell_config(perf: usize, curve: LoadCurve, blind: bool) -> SimConfig {
    let shape = TopologyBuilder::new()
        .nodes(1)
        .packages_per_node(2)
        .cores_per_package(CORES_PER_PACKAGE)
        .threads_per_core(1)
        .perf_cores_per_package(perf);
    // Package 0 cools poorly, package 1 well (the paper's testbed had
    // the same spread), and the package budget is tight relative to
    // two resident compute tasks — so long-running tasks repeatedly
    // hit the hot-task trigger and must wander. The destination search
    // is where class-aware and class-blind genuinely disagree: blind
    // picks the coolest CPU (an idle efficiency core, because they
    // idle coldest), aware the highest-capacity CPU among those that
    // satisfy the coolness gap. The on-demand governor lets whichever
    // cores each policy leaves idle clock down.
    let cfg = SimConfig::with_topology(shape)
        .respawn(false)
        .energy_aware(true)
        .class_blind(blind)
        .max_power(MaxPowerSpec::PerPackage(Watts(140.0)))
        .cooling_factors(vec![1.25, 0.65])
        .dvfs_governor(GovernorKind::OnDemand)
        .strided();
    let workload = OpenWorkload::new(palette(), peak_rate(&cfg, perf))
        .curve(curve)
        .service_work(MIN_WORK, MAX_WORK);
    cfg.open_workload(workload)
}

/// One variant's averaged outcome within a cell.
#[derive(Clone, Copy, Debug)]
pub struct VariantOutcome {
    /// Mean throughput in giga-instructions per second.
    pub gips: f64,
    /// Mean efficiency in giga-instructions per joule.
    pub gips_per_joule: f64,
    /// Mean completed tasks per run.
    pub completions: f64,
    /// Mean hot-task migrations per run (idle moves + exchanges) —
    /// the mechanism under study; zero would mean the regime never
    /// exercised the class-aware destination search.
    pub hot_migrations: f64,
    /// Mean fraction of CPU time spent throttled.
    pub throttled: f64,
}

fn averaged(reports: &[SimReport]) -> VariantOutcome {
    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    VariantOutcome {
        gips: mean(&|r| r.instructions_retired as f64 / 1e9 / r.duration.as_secs_f64()),
        gips_per_joule: mean(&|r| {
            if r.true_energy.0 > 0.0 {
                r.instructions_retired as f64 / 1e9 / r.true_energy.0
            } else {
                0.0
            }
        }),
        completions: mean(&|r| r.completions as f64),
        hot_migrations: mean(&|r| (r.migrations_by_reason[2] + r.migrations_by_reason[3]) as f64),
        throttled: mean(&|r| r.avg_throttled_fraction),
    }
}

/// One P/E-split × curve cell: both variants plus the headline delta.
#[derive(Clone, Debug)]
pub struct HybridCell {
    /// Performance cores per package (of `CORES_PER_PACKAGE`).
    pub perf: usize,
    /// Curve name (`diurnal` / `burst`).
    pub curve: &'static str,
    /// The class-aware variant.
    pub aware: VariantOutcome,
    /// The class-blind baseline.
    pub blind: VariantOutcome,
}

impl HybridCell {
    /// `aP+bE` label of the split.
    pub fn ratio(&self) -> String {
        format!("{}P+{}E", self.perf, CORES_PER_PACKAGE - self.perf)
    }

    /// Relative gips/joule gain of class-aware over class-blind.
    pub fn efficiency_gain(&self) -> f64 {
        if self.blind.gips_per_joule > 0.0 {
            self.aware.gips_per_joule / self.blind.gips_per_joule - 1.0
        } else {
            0.0
        }
    }
}

/// The study result: the full P/E × curve grid.
#[derive(Clone, Debug)]
pub struct HybridStudy {
    /// Cells, splits-major, curves in [`curves`] order.
    pub cells: Vec<HybridCell>,
}

impl HybridStudy {
    /// Whether class-aware balancing beats class-blind in gips/joule
    /// on at least one cell — the study's acceptance gate.
    pub fn any_aware_win(&self) -> bool {
        self.cells.iter().any(|c| c.efficiency_gain() > 0.0)
    }

    /// Renders the grid as CSV, one row per cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "ratio,curve,aware_gips,blind_gips,aware_gips_per_j,blind_gips_per_j,\
             efficiency_gain,aware_hot_migrations,blind_hot_migrations,\
             aware_throttled,blind_throttled,aware_completions,blind_completions\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.5},{:.5},{:.4},{:.1},{:.1},{:.4},{:.4},{:.1},{:.1}\n",
                c.ratio(),
                c.curve,
                c.aware.gips,
                c.blind.gips,
                c.aware.gips_per_joule,
                c.blind.gips_per_joule,
                c.efficiency_gain(),
                c.aware.hot_migrations,
                c.blind.hot_migrations,
                c.aware.throttled,
                c.blind.throttled,
                c.aware.completions,
                c.blind.completions,
            ));
        }
        out
    }
}

impl core::fmt::Display for HybridStudy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Hybrid study: class-aware vs class-blind energy balancing, \
             2 packages x {CORES_PER_PACKAGE} cores"
        )?;
        let mut t = Table::new(vec![
            "split",
            "curve",
            "aware G/J",
            "blind G/J",
            "gain",
            "aware gips",
            "blind gips",
            "aware hot-migr",
            "blind hot-migr",
        ]);
        for c in &self.cells {
            t.row(vec![
                c.ratio(),
                c.curve.to_string(),
                format!("{:.4}", c.aware.gips_per_joule),
                format!("{:.4}", c.blind.gips_per_joule),
                pct(c.efficiency_gain()),
                format!("{:.2}", c.aware.gips),
                format!("{:.2}", c.blind.gips),
                format!("{:.1}", c.aware.hot_migrations),
                format!("{:.1}", c.blind.hot_migrations),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "(gain = class-aware gips/joule over class-blind; positive means \
             knowing the core classes paid for itself)"
        )
    }
}

/// Runs the study. `smoke` shrinks the horizon and seed set to the CI
/// size; the grid itself (3 splits x 2 curves) stays complete.
pub fn run(smoke: bool) -> HybridStudy {
    let duration = SimDuration::from_secs(if smoke { 24 } else { 60 });
    let seeds: &[u64] = if smoke {
        &crate::SEEDS[..3]
    } else {
        &crate::SEEDS
    };
    let mut cells = Vec::new();
    for perf in perf_splits() {
        for curve in curves() {
            let run_variant = |blind: bool| {
                let cfg = cell_config(perf, curve, blind);
                run_seeds(&cfg, seeds, duration, |_| {})
            };
            cells.push(HybridCell {
                perf,
                curve: curve.name(),
                aware: averaged(&run_variant(false)),
                blind: averaged(&run_variant(true)),
            });
        }
    }
    HybridStudy { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_aware_beats_class_blind_somewhere() {
        let study = run(true);
        assert_eq!(study.cells.len(), 6);
        for c in &study.cells {
            assert!(
                c.aware.gips > 0.0,
                "{} {} retired nothing",
                c.ratio(),
                c.curve
            );
            assert!(c.blind.gips_per_joule > 0.0);
        }
        // The regime must actually exercise the mechanism under study:
        // hot-task migrations fire in both variants.
        assert!(
            study.cells.iter().any(|c| c.aware.hot_migrations > 0.0)
                && study.cells.iter().any(|c| c.blind.hot_migrations > 0.0),
            "hot-task migration never fired:\n{study}"
        );
        // The acceptance shape: knowing the classes wins gips/joule on
        // at least one split x curve cell.
        assert!(
            study.any_aware_win(),
            "class-aware never beat class-blind:\n{study}"
        );
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let study = HybridStudy {
            cells: vec![HybridCell {
                perf: 2,
                curve: "diurnal",
                aware: VariantOutcome {
                    gips: 10.0,
                    gips_per_joule: 0.05,
                    completions: 100.0,
                    hot_migrations: 12.0,
                    throttled: 0.01,
                },
                blind: VariantOutcome {
                    gips: 9.0,
                    gips_per_joule: 0.04,
                    completions: 90.0,
                    hot_migrations: 12.0,
                    throttled: 0.02,
                },
            }],
        };
        let csv = study.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().next().unwrap().contains("efficiency_gain"));
        assert!(csv.contains("2P+6E,diurnal,"));
        let cell = &study.cells[0];
        assert!((cell.efficiency_gain() - 0.25).abs() < 1e-9);
        assert!(study.any_aware_win());
    }
}
