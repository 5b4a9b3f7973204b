//! Byte-mutation fuzz of a real scheduler image: a corrupted image
//! either fails to restore or restores into a state the scheduler can
//! keep running, never a panic.

use ebs_sched::{MigrationReason, System, TaskConfig, TaskId, TaskState, DEFAULT_TIMESLICE};
use ebs_store::{Snapshot, StateImage, StateWriter};
use ebs_topology::{CpuId, Topology};
use ebs_units::{SimDuration, SimTime, Watts};

/// Image header: magic(4) + version(4) + hash(8) + payload length(8).
const HEADER_LEN: usize = 24;

/// A small system with tasks running, queued on the active and on the
/// expired array, blocked, exited, and migrated (queued and running).
fn populated() -> System {
    let mut sys = System::new(Topology::xseries445(false));
    let cpu = CpuId;
    for _ in 0..3 {
        sys.spawn(TaskConfig::default(), cpu(0));
    }
    sys.set_now(SimTime::from_millis(10));
    sys.context_switch(cpu(0));
    sys.tick(cpu(0), DEFAULT_TIMESLICE);
    sys.context_switch(cpu(0));
    let running = sys.current(cpu(0)).expect("a running task");
    sys.update_profile(running, Watts(55.0), SimDuration::from_millis(40));
    sys.spawn(TaskConfig::default(), cpu(1));
    sys.context_switch(cpu(1));
    sys.block_current(cpu(1));
    sys.spawn(TaskConfig::default(), cpu(2));
    sys.context_switch(cpu(2));
    sys.exit_current(cpu(2));
    sys.spawn(TaskConfig::default(), cpu(3));
    let queued = sys.spawn(TaskConfig::default(), cpu(3));
    sys.context_switch(cpu(3));
    sys.migrate_queued(queued, cpu(4), MigrationReason::LoadBalance)
        .expect("queued migration");
    sys.migrate_running(cpu(3), cpu(5), MigrationReason::HotTask)
        .expect("running migration");
    sys.validate();
    sys
}

/// Restores `bytes` into a fresh system. After an `Ok` the state must
/// pass the checks and survive a context switch on every CPU and a
/// wake of every blocked task. Returns whether the image restored.
fn restore_and_run(bytes: Vec<u8>, topology: &Topology) -> bool {
    let mut sys = System::new(topology.clone());
    let image = StateImage::from_bytes(bytes);
    let mut reader = image.open().expect("a resealed image opens");
    if sys.restore(&mut reader).is_err() {
        return false;
    }
    sys.validate();
    for cpu in topology.cpu_ids() {
        sys.context_switch(cpu);
    }
    let blocked: Vec<TaskId> = sys
        .task_table()
        .iter()
        .filter(|(_, t)| t.state() == TaskState::Blocked)
        .map(|(id, _)| id)
        .collect();
    for id in blocked {
        sys.wake(id, None);
    }
    sys.validate();
    true
}

#[test]
fn mutated_scheduler_images_never_panic() {
    let sys = populated();
    let mut w = StateWriter::new();
    sys.save(&mut w);
    let clean = w.finish().as_bytes().to_vec();
    let (mut restored, mut refused, mut panicked) = (0, 0, Vec::new());
    for pos in HEADER_LEN..clean.len() {
        for value in [0x00, 0xFF, clean[pos].wrapping_add(1)] {
            let mut bytes = clean.clone();
            bytes[pos] = value;
            // Re-seal: the hash covers the version and the payload.
            let mut hashed = bytes[4..8].to_vec();
            hashed.extend_from_slice(&bytes[HEADER_LEN..]);
            bytes[8..16].copy_from_slice(&ebs_store::fnv1a(&hashed).to_le_bytes());
            match std::panic::catch_unwind(|| restore_and_run(bytes, sys.topology())) {
                Ok(true) => restored += 1,
                Ok(false) => refused += 1,
                Err(_) => panicked.push((pos, value)),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "(byte, value) mutations that panicked: {panicked:?}"
    );
    assert!(
        restored > 0 && refused > 0,
        "{restored} restored, {refused} refused"
    );
}
