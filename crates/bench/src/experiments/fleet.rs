//! The fleet headline: a diurnal open workload over a 64-host mixed
//! rack, stock (least-loaded) vs power-aware dispatch, crossed with
//! the two per-host enforcement mechanisms the paper studies (`hlt`
//! throttling vs thermal-aware DVFS). Writes per-epoch fleet metrics
//! for every cell to `results/fleet.csv`.
//!
//! Beside the result table, every cell prints its fleet phase split
//! ([`Fleet::profile`]): the share of host wall time and the mean per
//! epoch spent routing, stepping and rolling up. Wall times never
//! reach the CSV.
//!
//! `--smoke` shrinks the rack to 8 hosts and the horizon to 4 s — the
//! CI variant — and the sweep always ends with a worker-invariance
//! check: one cell re-run at 1 vs 2 workers must produce bit-equal
//! per-host reports, with any mismatch named down to the first
//! divergent host and event via [`worker_divergence`] (the same
//! verdict wording the sim-level trace-diff gates use).

use ebs_dvfs::GovernorKind;
use ebs_fleet::{
    worker_divergence, DispatchPolicy, EpochMetrics, Fleet, FleetConfig, FleetReport, PowerBudget,
    CSV_HEADER,
};
use ebs_sim::{default_workers, SimConfig};
use ebs_topology::TopologyPreset;
use ebs_trace::PhaseProfiler;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, LoadCurve, OpenWorkload};
use std::fmt;

/// Rack provisioning per logical CPU — tight enough that the budget
/// actually binds under the diurnal peak (a busy logical CPU draws
/// well above this), so `hlt` vs DVFS enforcement differentiates.
const RACK_W_PER_CPU: f64 = 18.0;

/// The sweep seed (fixed: the headline must be byte-reproducible).
const SEED: u64 = 42;

/// The mixed rack: hosts cycle through five shapes, 8..=32 CPUs each,
/// including one hybrid (4P+4E) shape so the sweep and its invariance
/// gate cover class-heterogeneous hosts.
pub fn host_shapes(smoke: bool) -> Vec<TopologyPreset> {
    let cycle = [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
        TopologyPreset::Hybrid8,
    ];
    let n = if smoke { 8 } else { 64 };
    (0..n).map(|i| cycle[i % cycle.len()]).collect()
}

/// Builds one cell's fleet config.
///
/// # Panics
///
/// Panics if `mechanism` is not `"hlt"` or `"dvfs"`.
pub fn cell_config(smoke: bool, dispatch: DispatchPolicy, mechanism: &'static str) -> FleetConfig {
    let hosts = host_shapes(smoke);
    let total_cpus: usize = hosts.iter().map(|p| p.builder().n_cpus()).sum();
    let base = SimConfig::xseries445()
        .energy_aware(true)
        .respawn(false)
        .strided();
    let base = match mechanism {
        "hlt" => base.throttling(true),
        "dvfs" => base
            .throttling(false)
            .dvfs_governor(GovernorKind::ThermalAware),
        other => panic!("unknown enforcement mechanism {other}"),
    };
    let workload = OpenWorkload::new(
        vec![
            catalog::bitcnts(),
            catalog::memrw(),
            catalog::aluadd(),
            catalog::pushpop(),
        ],
        0.8 * total_cpus as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(4),
        floor: 0.3,
    })
    .service_work(600_000_000, 1_800_000_000);
    FleetConfig::new(base, hosts, workload)
        .seed(SEED)
        .epoch(SimDuration::from_millis(250))
        .dispatch(dispatch)
        .budget(PowerBudget::rack(Watts(RACK_W_PER_CPU * total_cpus as f64)))
        .workers(default_workers())
}

/// Dispatcher epochs per cell: 4 s smoke, 12 s full.
fn epochs(smoke: bool) -> usize {
    if smoke {
        16
    } else {
        48
    }
}

/// One sweep cell: a dispatch policy crossed with an enforcement
/// mechanism.
pub struct FleetCell {
    /// Placement policy.
    pub dispatch: DispatchPolicy,
    /// Per-host budget enforcement: `"hlt"` or `"dvfs"`.
    pub mechanism: &'static str,
    /// Whole-run roll-up.
    pub report: FleetReport,
    /// Per-epoch fleet metrics.
    pub epochs: Vec<EpochMetrics>,
    /// Host wall time per epoch phase (route, step, roll-up).
    pub profile: PhaseProfiler,
}

/// The full sweep plus the worker-invariance verdict.
pub struct FleetSweep {
    /// Host count per cell.
    pub hosts: usize,
    /// The four cells, dispatch-major.
    pub cells: Vec<FleetCell>,
    /// The [`worker_divergence`] verdict for the invariance check.
    pub invariance: String,
}

impl FleetSweep {
    /// Whether the worker-invariance check passed.
    pub fn invariance_ok(&self) -> bool {
        self.invariance.contains("identical")
    }

    /// Every cell's per-epoch rows as one CSV document.
    pub fn to_csv(&self) -> String {
        let mut out = format!("dispatch,mechanism,{CSV_HEADER}\n");
        for cell in &self.cells {
            for e in &cell.epochs {
                out.push_str(&format!(
                    "{},{},{}\n",
                    cell.dispatch.name(),
                    cell.mechanism,
                    e.csv_row()
                ));
            }
        }
        out
    }
}

impl fmt::Display for FleetSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet sweep: {} hosts, diurnal open workload, seed {SEED}",
            self.hosts
        )?;
        writeln!(
            f,
            "{:<14} {:<5} {:>8} {:>9} {:>9} {:>8} {:>8} {:>10}",
            "dispatch", "mech", "gips", "gips/J", "p95 s", "compl", "arriv", "stranded W"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<14} {:<5} {:>8.2} {:>9.4} {:>9.3} {:>8} {:>8} {:>10.1}",
                c.dispatch.name(),
                c.mechanism,
                c.report.gips,
                c.report.gips_per_joule,
                c.report.latency.p95_s,
                c.report.completions,
                c.report.arrivals,
                c.report.stranded_w_mean,
            )?;
        }
        writeln!(
            f,
            "fleet phases, share of wall time and mean ms per epoch:\n{:<14} {:<5} {:>16} {:>16} {:>16}",
            "dispatch", "mech", "route", "step", "roll-up"
        )?;
        for c in &self.cells {
            write!(f, "{:<14} {:<5}", c.dispatch.name(), c.mechanism)?;
            for row in c.profile.rows() {
                write!(f, " {:>6.1}% {:>8.3}", row.share * 100.0, row.mean_ns / 1e6)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "worker invariance: {}", self.invariance)
    }
}

/// Runs the sweep. `smoke` selects the reduced CI matrix.
pub fn run(smoke: bool) -> FleetSweep {
    let mut cells = Vec::new();
    for dispatch in [DispatchPolicy::LeastLoaded, DispatchPolicy::PowerAware] {
        for mechanism in ["hlt", "dvfs"] {
            let mut fleet = Fleet::new(cell_config(smoke, dispatch, mechanism));
            fleet.run(epochs(smoke));
            cells.push(FleetCell {
                dispatch,
                mechanism,
                report: fleet.report(),
                epochs: fleet.epochs().to_vec(),
                profile: fleet.profile().clone(),
            });
        }
    }
    // The invariance gate always runs on the smoke-sized rack (the
    // property under test is the fleet machinery, not the rack size;
    // the determinism suite additionally covers it property-wise).
    let invariance = worker_divergence(
        &cell_config(true, DispatchPolicy::PowerAware, "hlt"),
        8,
        1,
        2,
    );
    FleetSweep {
        hosts: host_shapes(smoke).len(),
        cells,
        invariance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_smoke_cell_produces_work_and_rows() {
        let mut fleet = Fleet::new(cell_config(true, DispatchPolicy::PowerAware, "dvfs"));
        fleet.run(4);
        let report = fleet.report();
        assert_eq!(report.hosts, 8);
        assert!(report.instructions_retired > 0);
        assert!(report.arrivals > 0);
        assert_eq!(fleet.epochs().len(), 4);
    }

    #[test]
    fn smoke_invariance_gate_passes() {
        let verdict = worker_divergence(
            &cell_config(true, DispatchPolicy::LeastLoaded, "hlt"),
            4,
            1,
            2,
        );
        assert!(verdict.contains("identical"), "{verdict}");
    }
}
