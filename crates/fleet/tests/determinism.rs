//! Fleet determinism: a fleet run is a pure function of its seed, and
//! worker-count choices change wall-clock only — never results.
//!
//! The oracle is layered, sharpest last: identical epoch CSV bytes
//! (every rolled-up metric), bit-equal per-host reports, and equal
//! per-host end-state hashes (which cover every serialized engine
//! field).

use ebs_fleet::{worker_divergence, DispatchPolicy, Fleet, FleetConfig, PowerBudget};
use ebs_sim::SimConfig;
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, LoadCurve, OpenWorkload};
use proptest::prelude::*;

/// A small mixed-shape fleet: 4 hosts, 40 logical CPUs total. One
/// host is hybrid (4P+4E), so every property below also pins down
/// determinism with class-heterogeneous hosts in the rack.
fn small_fleet(seed: u64, policy: DispatchPolicy) -> FleetConfig {
    let workload = OpenWorkload::new(
        vec![catalog::bitcnts(), catalog::memrw(), catalog::aluadd()],
        24.0,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(2),
        floor: 0.3,
    })
    .service_work(200_000_000, 600_000_000);
    FleetConfig::new(
        SimConfig::xseries445()
            .energy_aware(true)
            .throttling(true)
            .respawn(false)
            .strided(),
        vec![
            TopologyPreset::Dual,
            TopologyPreset::XSeries445 { smt: false },
            TopologyPreset::XSeries445 { smt: true },
            TopologyPreset::Hybrid8,
        ],
        workload,
    )
    .seed(seed)
    .dispatch(policy)
    .budget(PowerBudget::rack(Watts(30.0 * 40.0)))
    .epoch(SimDuration::from_millis(250))
}

fn run(cfg: FleetConfig, epochs: usize) -> (String, Vec<u64>) {
    let mut fleet = Fleet::new(cfg);
    fleet.run(epochs);
    (fleet.epochs_csv(), fleet.state_hashes())
}

fn policy(idx: usize) -> DispatchPolicy {
    [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::PowerAware,
    ][idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed ⇒ identical fleet CSV and per-host end-state hashes
    /// across 1, 2, and 4 workers, under every dispatch policy, with
    /// or without partitioned hosts (`parallel(2)` partitions every
    /// multi-package host; the hybrid host stays one partition).
    #[test]
    fn fleet_runs_are_worker_count_invariant(
        seed in 0u64..1_000,
        policy_idx in 0usize..3,
        partitioned in any::<bool>(),
    ) {
        let mut cfg = small_fleet(seed, policy(policy_idx));
        if partitioned {
            cfg.base = cfg.base.parallel(2);
        }
        let (csv1, hashes1) = run(cfg.clone().workers(1), 8);
        let (csv2, hashes2) = run(cfg.clone().workers(2), 8);
        let (csv4, hashes4) = run(cfg.workers(4), 8);
        prop_assert_eq!(&csv1, &csv2, "CSV diverged between 1 and 2 workers");
        prop_assert_eq!(&csv1, &csv4, "CSV diverged between 1 and 4 workers");
        prop_assert_eq!(&hashes1, &hashes2, "state hashes diverged at 2 workers");
        prop_assert_eq!(&hashes1, &hashes4, "state hashes diverged at 4 workers");
    }
}

#[test]
fn same_seed_reproduces_and_different_seed_does_not() {
    let epochs = 8;
    let (csv_a, hashes_a) = run(
        small_fleet(7, DispatchPolicy::PowerAware).workers(2),
        epochs,
    );
    let (csv_b, hashes_b) = run(
        small_fleet(7, DispatchPolicy::PowerAware).workers(2),
        epochs,
    );
    assert_eq!(csv_a, csv_b, "same seed must reproduce byte-identically");
    assert_eq!(hashes_a, hashes_b);
    let (csv_c, _) = run(
        small_fleet(8, DispatchPolicy::PowerAware).workers(2),
        epochs,
    );
    assert_ne!(csv_a, csv_c, "a different seed must change the run");
}

#[test]
fn fleet_actually_serves_the_workload() {
    let mut fleet = Fleet::new(small_fleet(3, DispatchPolicy::LeastLoaded).workers(2));
    fleet.run(12);
    let report = fleet.report();
    assert_eq!(report.hosts, 4);
    assert!(report.arrivals > 10, "arrivals: {}", report.arrivals);
    assert!(report.completions > 0, "nothing completed");
    assert!(report.instructions_retired > 0);
    assert!(report.true_energy.0 > 0.0);
    assert!(report.latency.count > 0, "no sojourn samples pooled");
    // Every host must have received work under least-loaded dispatch
    // at this arrival rate.
    let per_host = fleet.host_reports();
    for (i, r) in per_host.iter().enumerate() {
        assert!(r.instructions_retired > 0, "host {i} retired nothing");
    }
    // The rolled-up totals must equal the per-host sums exactly.
    assert_eq!(
        report.completions,
        per_host.iter().map(|r| r.completions).sum::<u64>()
    );
}

#[test]
fn worker_divergence_reports_identity_for_a_deterministic_fleet() {
    let cfg = small_fleet(11, DispatchPolicy::PowerAware);
    let verdict = worker_divergence(&cfg, 4, 1, 4);
    assert!(
        verdict.contains("identical"),
        "fleet diverged across workers: {verdict}"
    );
}
