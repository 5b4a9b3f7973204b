//! Byte-mutation fuzz of a whole engine image: a corrupted image
//! either fails to restore or restores into an engine that passes the
//! scheduler checks and keeps running, never a panic.

use ebs_sim::{RoutedArrival, SimConfig, SimEngine, Simulation};
use ebs_store::StateImage;
use ebs_topology::{CpuId, TopologyBuilder};
use ebs_units::SimDuration;
use ebs_workloads::{catalog, Behavior, BlockProfile, LoadCurve, OpenWorkload, Program};

/// Image header: magic(4) + version(4) + hash(8) + payload length(8).
const HEADER_LEN: usize = 24;

/// Two single-core packages with the energy-aware policies and `hlt`
/// throttling on, and no calibration, so a fresh engine is cheap.
fn cfg() -> SimConfig {
    SimConfig::with_topology(TopologyBuilder::new().packages_per_node(2))
        .perfect_estimation(true)
        .respawn(false)
        .seed(3)
}

/// [`cfg`] with an open workload of short tasks on a diurnal curve:
/// about one arrival every 25 ms, each 2 to 200 million instructions
/// (under 1 ms to about 0.4 s of CPU).
fn open_cfg() -> SimConfig {
    let workload = OpenWorkload::new(vec![catalog::aluadd(), catalog::memrw()], 40.0)
        .curve(LoadCurve::Diurnal {
            period: SimDuration::from_millis(400),
            floor: 0.5,
        })
        .service_work(2_000_000, 200_000_000);
    cfg().open_workload(workload)
}

/// A bzip2 that spikes on every timeslice it runs.
fn always_spiky() -> Program {
    Program {
        behavior: Behavior::Spiky { spike_prob: 1.0 },
        ..catalog::bzip2()
    }
}

/// An engine with tasks running, queued, blocked and exited (an exited
/// id inside the window of live ids), one of them the spiky task, which
/// runs mid-spike.
fn populated() -> Simulation {
    let mut sim = Simulation::new(cfg());
    let sleepy = BlockProfile::new(1.0, SimDuration::from_secs(1));
    sim.spawn_program(&catalog::bash().with_blocking(sleepy));
    sim.spawn_program(&catalog::aluadd().with_total_work(50_000_000));
    let spiky = sim.spawn_program(&always_spiky());
    sim.spawn_program(&catalog::memrw());
    sim.spawn_program(&catalog::bitcnts());
    // Snapshot once the spiky task runs.
    let spiking = |sim: &Simulation| (0..2).any(|c| sim.system().current(CpuId(c)) == Some(spiky));
    sim.run_for(SimDuration::from_millis(150));
    while !spiking(&sim) && sim.now() < ebs_units::SimTime::from_secs(1) {
        sim.run_for(SimDuration::from_millis(10));
    }
    assert!(spiking(&sim), "the spiky task never ran");
    let sys = sim.system();
    let states: Vec<_> = sys.task_table().iter().map(|(_, t)| t.state()).collect();
    assert_eq!(sys.n_tasks(), 4, "the short task exited: {states:?}");
    assert_eq!(sys.task_table().span(), 5, "its id stays in the window");
    for state in [
        ebs_sched::TaskState::Running,
        ebs_sched::TaskState::Runnable,
        ebs_sched::TaskState::Blocked,
    ] {
        assert!(states.contains(&state), "no {state:?} task: {states:?}");
    }
    sim
}

/// An open engine whose image holds every workload section: a pending
/// arrival, live tasks with arrival metadata, sojourn samples of
/// completed tasks, and one routed arrival waiting in the inbox.
fn populated_open() -> Simulation {
    let mut sim = Simulation::new(open_cfg());
    sim.run_for(SimDuration::from_millis(250));
    sim.queue_arrival(RoutedArrival {
        due: sim.now() + SimDuration::from_secs(1),
        program: catalog::bitcnts().with_total_work(1_000_000),
        seed: 9,
        phase: 1,
    });
    let report = sim.report();
    assert!(report.latency.count > 0, "no task completed");
    assert!(sim.system().n_tasks() > 0, "no arrived task is live");
    assert_eq!(report.phase_latencies.len(), 2, "samples in both phases");
    sim
}

/// Restores `bytes` into a fresh engine of `cfg`. After an `Ok` the
/// scheduler state must pass its checks, before and after a few engine
/// steps. Returns whether the image restored.
fn restore_and_run(cfg: SimConfig, bytes: Vec<u8>) -> bool {
    let mut sim = Simulation::new(cfg);
    if sim
        .restore_snapshot(&StateImage::from_bytes(bytes))
        .is_err()
    {
        return false;
    }
    sim.system().validate();
    sim.run_for(SimDuration::from_millis(3));
    sim.system().validate();
    true
}

/// Sets each payload byte of `clean` to 0x00, to 0xFF and to its value
/// plus one, re-seals the image and restores it into an engine of
/// `cfg`: no case may panic, and some must restore and some be refused.
fn fuzz(cfg: fn() -> SimConfig, clean: &[u8]) {
    let (mut restored, mut refused, mut panicked) = (0, 0, Vec::new());
    for pos in HEADER_LEN..clean.len() {
        for value in [0x00, 0xFF, clean[pos].wrapping_add(1)] {
            let mut bytes = clean.to_vec();
            bytes[pos] = value;
            // Re-seal: the hash covers the version and the payload.
            let mut hashed = bytes[4..8].to_vec();
            hashed.extend_from_slice(&bytes[HEADER_LEN..]);
            bytes[8..16].copy_from_slice(&ebs_store::fnv1a(&hashed).to_le_bytes());
            match std::panic::catch_unwind(|| restore_and_run(cfg(), bytes)) {
                Ok(true) => restored += 1,
                Ok(false) => refused += 1,
                Err(_) => panicked.push((pos, value)),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} (byte, value) mutations of a {}-byte image panicked: {panicked:?}",
        panicked.len(),
        clean.len()
    );
    assert!(
        restored > 0 && refused > 0,
        "{restored} restored, {refused} refused"
    );
}

#[test]
fn mutated_engine_images_never_panic() {
    fuzz(cfg, populated().snapshot().as_bytes());
}

#[test]
fn mutated_open_engine_images_never_panic() {
    fuzz(open_cfg, populated_open().snapshot().as_bytes());
}
