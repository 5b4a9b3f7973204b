//! Equivalence suite for the parallel (partitioned) engine core.
//!
//! Three layers of guarantee, mirroring the strided suite:
//!
//! 1. **Bit-identity with one worker**: `parallel(1)` constructs a
//!    single whole-machine partition — literally the strided core — so
//!    its reports must be byte-for-byte identical to `strided()`.
//!    Checked over the exp_table2, exp_dvfs, and exp_scaling smoke
//!    shapes. Failures replay with event tracing and name the first
//!    divergent event.
//! 2. **Tolerance with many workers**: multi-partition runs discretise
//!    cross-package balancing at horizon boundaries, so they agree
//!    with the strided core within the strided suite's tolerances —
//!    exact arrival streams, energy and instructions within 3 %,
//!    latency percentiles within 15 % / 25 %.
//! 3. **Determinism**: reports depend on `(seed)` only — never on the
//!    worker count (any `w ≥ 2` is identical to any other) or on the
//!    thread schedule (repeated runs are identical). Cross-partition
//!    handoffs are logged and must be applied exactly once, in the
//!    same order, for every worker count.

use ebs_dvfs::GovernorKind;
use ebs_sim::{
    rel_dev as rel, report_fingerprint as fingerprint, stride_divergence, MaxPowerSpec,
    ParallelSimulation, SimConfig, SimEngine, SimReport,
};
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use proptest::prelude::*;

/// Runs `cfg` on the sequential engine (whatever core `cfg` selects).
fn run_sequential(cfg: SimConfig, mix: usize, duration: SimDuration) -> SimReport {
    let mut sim = ebs_sim::Simulation::new(cfg);
    if mix > 0 {
        sim.spawn_mix(&section61_mix(), mix);
    }
    sim.run_for(duration);
    sim.report()
}

/// Runs `cfg` on the partitioned engine.
fn run_parallel(cfg: SimConfig, mix: usize, duration: SimDuration) -> SimReport {
    let mut sim = ParallelSimulation::new(cfg);
    if mix > 0 {
        sim.spawn_mix(&section61_mix(), mix);
    }
    sim.run_for(duration);
    sim.report()
}

/// Asserts bit-identity between `strided()` and `parallel(1)` over one
/// scenario, replaying with event tracing on failure.
fn assert_one_worker_identity(cfg: SimConfig, mix: usize, duration: SimDuration, label: &str) {
    let hashed = |cfg: SimConfig| {
        let mut sim = ParallelSimulation::new(cfg);
        if mix > 0 {
            sim.spawn_mix(&section61_mix(), mix);
        }
        sim.run_for(duration);
        (sim.report(), sim.state_hash())
    };
    let strided = run_sequential(cfg.clone().strided(), mix, duration);
    let par = run_parallel(cfg.clone().parallel(1), mix, duration);
    // The state hash covers every serialized field of every shard —
    // two parallel(1) builds must agree on it exactly.
    let (ra, ha) = hashed(cfg.clone().parallel(1));
    let (rb, hb) = hashed(cfg.clone().parallel(1));
    assert_eq!(ha, hb, "{label}: parallel(1) state hash not deterministic");
    assert!(
        ra.bit_eq(&rb),
        "{label}: parallel(1) reports not bit-equal across builds"
    );
    if !strided.bit_eq(&par) || fingerprint(&strided) != fingerprint(&par) {
        let diff = stride_divergence(cfg.clone().strided(), cfg.parallel(1), duration, |sim| {
            if mix > 0 {
                sim.spawn_mix(&section61_mix(), mix);
            }
        });
        panic!("{label}: parallel(1) diverged from strided; {diff}");
    }
}

#[test]
fn one_worker_is_bit_identical_on_table2_shape() {
    // The exp_table2 setup: each program solo, throttling off.
    for program in section61_mix() {
        let cfg = SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .throttling(false)
            .respawn(false)
            .seed(7);
        let duration = SimDuration::from_secs(5);
        let strided = {
            let mut sim = ebs_sim::Simulation::new(cfg.clone().strided());
            sim.spawn_program(&program);
            sim.run_for(duration);
            fingerprint(&sim.report())
        };
        let par = {
            let mut sim = ParallelSimulation::new(cfg.clone().parallel(1));
            sim.spawn_program(&program);
            sim.run_for(duration);
            fingerprint(&sim.report())
        };
        if strided != par {
            let diff = stride_divergence(cfg.clone().strided(), cfg.parallel(1), duration, |sim| {
                sim.spawn_program(&program);
            });
            panic!(
                "{} solo: parallel(1) diverged from strided; {diff}",
                program.name
            );
        }
    }
}

#[test]
fn one_worker_is_bit_identical_on_dvfs_shapes() {
    // The exp_dvfs variant matrix: every enforcement mechanism.
    let base = || {
        SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .throttling(false)
            .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
            .seed(1)
    };
    let variants = vec![
        base(),
        base().throttling(true),
        base().throttling(true).energy_aware(true),
        base().dvfs_governor(GovernorKind::ThermalAware),
        base()
            .dvfs_governor(GovernorKind::ThermalAware)
            .energy_aware(true),
    ];
    for (i, cfg) in variants.into_iter().enumerate() {
        assert_one_worker_identity(
            cfg,
            3,
            SimDuration::from_secs(3),
            &format!("dvfs variant {i}"),
        );
    }
}

#[test]
fn one_worker_is_bit_identical_on_scaling_smoke_shapes() {
    // The exp_scaling smoke shape: open workload over the topology
    // ladder, including the engine-owned arrival process.
    for preset in [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::Numa16,
    ] {
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
        .curve(LoadCurve::Burst {
            period: SimDuration::from_secs(3),
            duty: 0.25,
            high: 2.0,
        })
        .service_work(600_000_000, 1_800_000_000);
        let cfg = SimConfig::with_topology(shape)
            .seed(42)
            .respawn(false)
            .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
            .open_workload(workload);
        assert_one_worker_identity(cfg, 0, SimDuration::from_secs(4), preset.name());
    }
}

/// An open-workload cell on a hybrid (two-class) preset.
fn hybrid_cfg(preset: TopologyPreset, seed: u64) -> SimConfig {
    let shape = preset.builder();
    let workload = OpenWorkload::new(
        vec![catalog::aluadd(), catalog::memrw(), catalog::pushpop()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(3),
        floor: 0.3,
    })
    .service_work(200_000_000, 500_000_000);
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
}

/// Class-heterogeneous machines through the partitioned core:
/// `parallel(1)` stays bit-identical to strided on every hybrid
/// preset (partitioning must not perturb per-core frequency domains
/// or cross-class refits).
#[test]
fn one_worker_is_bit_identical_on_hybrid_shapes() {
    for preset in TopologyPreset::hybrids() {
        assert_one_worker_identity(
            hybrid_cfg(preset, 19),
            0,
            SimDuration::from_secs(3),
            preset.name(),
        );
    }
}

/// Worker-count invariance holds on multi-package hybrid shapes: the
/// partition-per-package split leaves each shard class-complete (every
/// package carries both classes), and the frequency-keyed residency
/// merge is schedule-independent.
#[test]
fn hybrid_multi_worker_runs_are_worker_count_invariant() {
    let duration = SimDuration::from_secs(3);
    let w2a = run_parallel(
        hybrid_cfg(TopologyPreset::BigLittle16, 5).parallel(2),
        0,
        duration,
    );
    let w2b = run_parallel(
        hybrid_cfg(TopologyPreset::BigLittle16, 5).parallel(2),
        0,
        duration,
    );
    let w4 = run_parallel(
        hybrid_cfg(TopologyPreset::Hybrid64, 5).parallel(4),
        0,
        duration,
    );
    let w8 = run_parallel(
        hybrid_cfg(TopologyPreset::Hybrid64, 5).parallel(8),
        0,
        duration,
    );
    assert_eq!(fingerprint(&w2a), fingerprint(&w2b));
    assert_eq!(fingerprint(&w4), fingerprint(&w8));
    // Hybrid residency merges by frequency across both classes'
    // ladders: both ladders must be populated after a loaded run.
    assert!(
        w4.pstate_residency.len() > 1,
        "hybrid residency should span both class ladders: {:?}",
        w4.pstate_residency
    );
}

/// The first-divergent-event diagnostics work on hybrid shapes: two
/// genuinely different cells name the first divergent event instead
/// of claiming identity.
#[test]
fn divergence_diagnostics_work_on_hybrid_shapes() {
    let text = stride_divergence(
        hybrid_cfg(TopologyPreset::Hybrid8, 3).strided(),
        hybrid_cfg(TopologyPreset::Hybrid8, 4).parallel(1),
        SimDuration::from_secs(2),
        |_| {},
    );
    assert!(
        text.contains("diverge") || text.contains("event"),
        "diagnostics on a hybrid shape produced: {text}"
    );
}

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
    ][idx]
}

fn curve(idx: usize) -> LoadCurve {
    [
        LoadCurve::Constant,
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(4),
            floor: 0.3,
        },
        LoadCurve::Burst {
            period: SimDuration::from_secs(3),
            duty: 0.25,
            high: 2.0,
        },
        LoadCurve::Step {
            at: SimDuration::from_secs(2),
            before: 0.4,
            after: 1.0,
        },
    ][idx]
}

/// The strided suite's open-workload cell on a multi-package preset.
fn open_cfg(preset_idx: usize, curve_idx: usize, seed: u64) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::aluadd(), catalog::memrw(), catalog::pushpop()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(curve(curve_idx))
    .service_work(200_000_000, 500_000_000);
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Multi-worker partitioned runs vs the strided core on open
    /// workloads: identical arrival streams, and headline metrics
    /// within the strided suite's tolerances.
    #[test]
    fn multi_worker_matches_strided_within_tolerance(
        preset_idx in 0usize..3,
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(4);
        let strided = run_sequential(open_cfg(preset_idx, curve_idx, seed).strided(), 0, duration);
        let par = run_parallel(open_cfg(preset_idx, curve_idx, seed).parallel(4), 0, duration);

        // The thinned arrival stream is a pure function of the seed
        // and the clock, owned by one global process: *exactly*
        // preserved.
        prop_assert_eq!(strided.arrivals, par.arrivals);
        prop_assert_eq!(strided.duration, par.duration);
        prop_assert!(
            rel(strided.instructions_retired as f64, par.instructions_retired as f64) < 0.03,
            "instructions: {} vs {}", strided.instructions_retired, par.instructions_retired
        );
        prop_assert!(
            rel(strided.true_energy.0, par.true_energy.0) < 0.03,
            "energy: {:?} vs {:?}", strided.true_energy, par.true_energy
        );
        prop_assert!(
            rel(strided.estimated_energy.0, par.estimated_energy.0) < 0.03,
            "estimated energy: {:?} vs {:?}", strided.estimated_energy, par.estimated_energy
        );
        // Peak package temperature depends on task *concentration*,
        // which the partitioned placement legitimately shifts (tasks
        // route at horizon boundaries instead of continuously); only
        // gross physics divergence is ruled out here.
        prop_assert!(
            (strided.max_package_temp.0 - par.max_package_temp.0).abs() < 5.0,
            "max temp: {:?} vs {:?}", strided.max_package_temp, par.max_package_temp
        );
        // Latency percentiles stay close once both sides have enough
        // completions for percentiles to be stable.
        if strided.latency.count > 20 && par.latency.count > 20 {
            prop_assert!(
                rel(strided.latency.p50_s, par.latency.p50_s) < 0.15,
                "p50: {} vs {}", strided.latency.p50_s, par.latency.p50_s
            );
            prop_assert!(
                rel(strided.latency.p95_s, par.latency.p95_s) < 0.25,
                "p95: {} vs {}", strided.latency.p95_s, par.latency.p95_s
            );
        }
    }

    /// The partitioned engine is deterministic per seed, and the
    /// worker count never changes results — it only sizes the thread
    /// pool. Any `w ≥ 2` produces the same report as any other, and
    /// repeated runs reproduce bit-exactly.
    #[test]
    fn parallel_runs_are_deterministic_and_worker_count_invariant(
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(3);
        let w2a = run_parallel(open_cfg(2, curve_idx, seed).parallel(2), 0, duration);
        let w2b = run_parallel(open_cfg(2, curve_idx, seed).parallel(2), 0, duration);
        let w4 = run_parallel(open_cfg(2, curve_idx, seed).parallel(4), 0, duration);
        prop_assert_eq!(fingerprint(&w2a), fingerprint(&w2b));
        prop_assert_eq!(fingerprint(&w2a), fingerprint(&w4));
    }

    /// Cross-partition handoffs queued at a horizon boundary are
    /// applied exactly once (contiguous global sequence numbers) and
    /// in the same deterministic order for every worker count; one
    /// worker runs a single whole-machine partition, so its log is
    /// empty by construction.
    #[test]
    fn handoffs_are_exactly_once_and_worker_count_invariant(
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(3);
        let log_of = |workers: usize| {
            let mut sim = ParallelSimulation::new(open_cfg(2, curve_idx, seed).parallel(workers));
            sim.run_for(duration);
            sim.handoff_log().to_vec()
        };
        let w1 = log_of(1);
        let w2 = log_of(2);
        let w4 = log_of(4);
        prop_assert!(w1.is_empty(), "single-partition mode must not hand off");
        prop_assert_eq!(&w2, &w4);
        for (i, h) in w2.iter().enumerate() {
            // Exactly-once application: the sequence is contiguous,
            // each record names distinct partitions, and boundaries
            // are non-decreasing horizon instants.
            prop_assert_eq!(h.seq, i as u64);
            prop_assert!(h.from_shard != h.to_shard);
            if i > 0 {
                prop_assert!(w2[i - 1].at <= h.at);
            }
        }
    }
}

/// A skewed closed workload must actually exercise the handoff queue
/// — guards against the rebalancer silently never firing. Half the
/// partitions are loaded with a queued surplus of long tasks; the
/// other half drain early and must receive the surplus when their
/// CPUs go idle.
#[test]
fn drained_partitions_receive_handoffs() {
    let cfg = SimConfig::xseries445()
        .smt(false)
        .energy_aware(false)
        .throttling(false)
        .respawn(false)
        .seed(11)
        .parallel(4);
    let mut sim = ParallelSimulation::new(cfg);
    assert_eq!(sim.partitions(), 8);
    let short = catalog::aluadd().with_total_work(200_000_000); // ~50 ms
    let long = catalog::aluadd().with_total_work(20_000_000_000); // ~4.5 s
                                                                  // One short task per partition, then 12 long tasks: least-loaded
                                                                  // routing parks a *second* queued long on partitions 0–3 only.
    sim.spawn_mix(&[short], 8);
    sim.spawn_mix(&[long], 12);
    sim.run_for(SimDuration::from_secs(8));
    let log = sim.handoff_log();
    assert!(
        !log.is_empty(),
        "partitions drained with queued surplus elsewhere, yet no handoffs fired"
    );
    for h in log {
        assert!(h.from_shard < 4, "surplus lives on partitions 0-3: {h:?}");
        assert!(h.to_shard >= 4, "deficit lives on partitions 4-7: {h:?}");
    }
    // Exactly-once: every moved task completes exactly once overall
    // (20 tasks, all bounded, all must finish within the run).
    assert_eq!(sim.report().completions, 20);
}
