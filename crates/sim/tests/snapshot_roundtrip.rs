//! Checkpoint/restore round-trip suite.
//!
//! The contract of `ebs-store` snapshots: checkpointing at a
//! `run_for` boundary, restoring into a freshly built engine of the
//! same config, and running to the end is **bit-identical** to
//! running through the boundary uninterrupted — same end-of-run state
//! hash, same report, on both the strided and the parallel(4) engine
//! cores, across topology presets × governors × seeds.
//!
//! The boundary matters: a `run_for` horizon caps the last stride and
//! drains due arrivals, so the uninterrupted leg pauses at the same
//! instant (two `run_for` calls on one engine) rather than running
//! straight past it — exactly the structure of the fork-sweep's
//! warm-up/measurement split.

use ebs_dvfs::GovernorKind;
use ebs_sim::{
    report_fingerprint, MaxPowerSpec, ParallelSimulation, SimConfig, SimEngine, Simulation,
};
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, LoadCurve, OpenWorkload};
use proptest::prelude::*;

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
    ][idx]
}

/// The enforcement/governor axis: `hlt` throttling, thermal-aware
/// DVFS, and utilization-driven DVFS.
fn apply_governor(cfg: SimConfig, idx: usize) -> SimConfig {
    match idx {
        0 => cfg.throttling(true),
        1 => cfg
            .throttling(false)
            .dvfs_governor(GovernorKind::ThermalAware),
        _ => cfg.throttling(false).dvfs_governor(GovernorKind::OnDemand),
    }
}

fn open_cfg(preset_idx: usize, governor_idx: usize, seed: u64) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::bitcnts(), catalog::memrw(), catalog::aluadd()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(4),
        floor: 0.3,
    })
    .service_work(200_000_000, 500_000_000);
    let cfg = SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
        .strided();
    apply_governor(cfg, governor_idx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strided core: checkpoint at the half-way boundary, restore
    /// into a fresh engine, run to the end — bit-identical to the
    /// uninterrupted engine.
    #[test]
    fn strided_checkpoint_restore_is_lossless(
        preset_idx in 0usize..4,
        governor_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let half = SimDuration::from_secs(2);
        let cfg = open_cfg(preset_idx, governor_idx, seed);

        let mut uninterrupted = Simulation::new(cfg.clone());
        uninterrupted.run_for(half);
        let image = uninterrupted.snapshot();
        prop_assert_eq!(image.hash(), uninterrupted.state_hash());

        let mut resumed = Simulation::from_snapshot(cfg, &image)
            .expect("restore into a same-config engine");
        prop_assert_eq!(resumed.state_hash(), uninterrupted.state_hash());

        uninterrupted.run_for(half);
        resumed.run_for(half);
        prop_assert_eq!(
            resumed.state_hash(),
            uninterrupted.state_hash(),
            "end-of-run state hashes diverged"
        );
        let (a, b) = (uninterrupted.report(), resumed.report());
        prop_assert!(
            a.bit_eq(&b),
            "reports diverged:\n{}\nvs\n{}",
            report_fingerprint(&a),
            report_fingerprint(&b)
        );
    }

    /// Parallel(4) core: the whole partitioned state — every shard,
    /// the synchronizer's arrival cursor, the handoff log — survives
    /// the round trip losslessly.
    #[test]
    fn parallel4_checkpoint_restore_is_lossless(
        preset_idx in 0usize..4,
        governor_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let half = SimDuration::from_secs(2);
        let cfg = open_cfg(preset_idx, governor_idx, seed).parallel(4);

        let mut uninterrupted = ParallelSimulation::new(cfg.clone());
        uninterrupted.run_for(half);
        let image = uninterrupted.snapshot();

        let mut resumed = ParallelSimulation::from_snapshot(cfg, &image)
            .expect("restore into a same-config engine");
        prop_assert_eq!(resumed.state_hash(), uninterrupted.state_hash());

        uninterrupted.run_for(half);
        resumed.run_for(half);
        prop_assert_eq!(
            resumed.state_hash(),
            uninterrupted.state_hash(),
            "end-of-run state hashes diverged"
        );
        let (a, b) = (uninterrupted.report(), resumed.report());
        prop_assert!(
            a.bit_eq(&b),
            "reports diverged:\n{}\nvs\n{}",
            report_fingerprint(&a),
            report_fingerprint(&b)
        );
        prop_assert_eq!(uninterrupted.handoff_log(), resumed.handoff_log());
    }
}

/// A snapshot must refuse to restore into an engine of a different
/// shape instead of silently corrupting it.
#[test]
fn shape_mismatch_is_rejected() {
    let mut small = Simulation::new(open_cfg(0, 0, 1));
    small.run_for(SimDuration::from_millis(200));
    let image = small.snapshot();
    let err = Simulation::from_snapshot(open_cfg(3, 0, 1), &image);
    assert!(err.is_err(), "16-package engine accepted a 2-package image");
}

/// One readable format: a real engine image restamped with the
/// previous format version is refused with a typed version error by
/// the standard fork entry point, never restored.
#[test]
fn other_format_versions_are_refused() {
    assert_eq!(ebs_store::FORMAT_VERSION, 4);
    let cfg = open_cfg(1, 2, 7);
    let mut warm = Simulation::new(cfg.clone());
    warm.run_for(SimDuration::from_secs(2));
    let mut bytes = warm.snapshot().as_bytes().to_vec();
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    let old = ebs_store::StateImage::from_bytes(bytes);
    assert_eq!(old.version(), 3);
    assert!(matches!(
        Simulation::from_snapshot(cfg, &old),
        Err(ebs_store::StoreError::Version {
            found: 3,
            expected: 4
        })
    ));
}

/// Fork semantics across *policies*: one warm-up snapshot restored
/// into differently configured cells is deterministic — every fork of
/// the same image under the same cell config lands in the same state.
#[test]
fn cross_policy_forks_are_deterministic() {
    let warmup_cfg = open_cfg(1, 0, 42);
    let mut warmup = Simulation::new(warmup_cfg);
    warmup.run_for(SimDuration::from_secs(2));
    let image = warmup.snapshot();
    for governor_idx in 0..3 {
        let cell = || {
            let cfg = open_cfg(1, governor_idx, 42);
            let mut sim = Simulation::from_snapshot(cfg, &image).expect("fork");
            sim.run_for(SimDuration::from_secs(2));
            sim.state_hash()
        };
        assert_eq!(
            cell(),
            cell(),
            "governor {governor_idx} fork not deterministic"
        );
    }
}
