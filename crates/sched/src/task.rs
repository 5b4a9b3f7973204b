//! Tasks: the schedulable entities.
//!
//! Besides the usual scheduler bookkeeping (state, timeslice), a task
//! carries the fields the paper adds to Linux's `task_struct`:
//! the *energy profile* — a variable-period exponential average of the
//! power the task drew while executing (Section 3.3) — and the identity
//! of the binary it was started from, which keys the initial-placement
//! table (Section 4.6).

use crate::system::MigrationReason;
use ebs_store::Snapshot as _;
use ebs_thermal::PowerAverage;
use ebs_topology::CpuId;
use ebs_units::{SimDuration, Watts};

/// Identifies a task for the lifetime of a [`crate::System`]: ids count
/// up from 0 and are never reused, also after their task has left.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

impl core::fmt::Display for TaskId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifies the binary a task was started from — the simulation's
/// analogue of the inode number the paper hashes on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BinaryId(pub u64);

/// Task lifecycle states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// On a runqueue, waiting for the CPU.
    Runnable,
    /// Currently executing on its CPU.
    Running,
    /// Sleeping; not on any runqueue.
    Blocked,
}

/// The timeslice every task is granted, Linux 2.6's slice for nice 0
/// (100 ms). Every task runs at that one static priority: the paper's
/// evaluation workloads are CPU hogs at default priority.
pub const DEFAULT_TIMESLICE: SimDuration = SimDuration::from_millis(100);

/// Standard weight of a task profile's exponential average for one
/// standard timeslice. The paper leaves the constant unspecified;
/// 0.25 makes a phase change dominate the profile after ~5 slices,
/// slow enough to ride out momentary spikes (Section 3.3).
pub const PROFILE_WEIGHT: f64 = 0.25;

/// Parameters for spawning a task.
#[derive(Clone, Copy, Debug)]
pub struct TaskConfig {
    /// The binary the task executes, for the placement table.
    pub binary: BinaryId,
    /// Initial energy-profile estimate. The paper seeds this from the
    /// per-binary hash table, falling back to a default for binaries
    /// never seen before.
    pub initial_profile: Watts,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            binary: BinaryId(0),
            initial_profile: Watts(30.0),
        }
    }
}

/// A schedulable task.
#[derive(Clone, Debug)]
pub struct Task {
    id: TaskId,
    binary: BinaryId,
    state: TaskState,
    /// The CPU whose runqueue the task is (or was last) associated with.
    cpu: CpuId,
    /// Remaining time of the current timeslice.
    timeslice: SimDuration,
    /// Energy profile: expected power while executing (Section 3.3).
    profile: PowerAverage,
    /// Most recent migration: why it happened (for event tracing) and
    /// whether it crossed a node boundary (for the cache-warmth model).
    last_migration: Option<(MigrationReason, bool)>,
    /// Total number of migrations this task experienced.
    migrations: u64,
}

impl Task {
    /// Creates a task on `cpu` in the `Runnable` state.
    pub(crate) fn new(id: TaskId, config: TaskConfig, cpu: CpuId) -> Self {
        Task {
            id,
            binary: config.binary,
            state: TaskState::Runnable,
            cpu,
            timeslice: DEFAULT_TIMESLICE,
            profile: PowerAverage::new(config.initial_profile, DEFAULT_TIMESLICE, PROFILE_WEIGHT),
            last_migration: None,
            migrations: 0,
        }
    }

    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The binary this task runs.
    pub fn binary(&self) -> BinaryId {
        self.binary
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: TaskState) {
        self.state = state;
    }

    /// The CPU the task is associated with.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    pub(crate) fn set_cpu(&mut self, cpu: CpuId) {
        self.cpu = cpu;
    }

    /// Remaining timeslice.
    pub fn timeslice(&self) -> SimDuration {
        self.timeslice
    }

    /// Consumes up to `dt` of the timeslice; returns `true` if the
    /// slice is now exhausted.
    pub(crate) fn consume_timeslice(&mut self, dt: SimDuration) -> bool {
        self.timeslice = if dt >= self.timeslice {
            SimDuration::ZERO
        } else {
            self.timeslice - dt
        };
        self.timeslice.is_zero()
    }

    /// Grants a fresh timeslice (on expiry).
    pub(crate) fn refresh_timeslice(&mut self) {
        self.timeslice = DEFAULT_TIMESLICE;
    }

    /// The current energy profile: the power this task is expected to
    /// draw during its next stretch of execution.
    pub fn profile(&self) -> Watts {
        self.profile.watts()
    }

    /// Folds an observed energy sample into the profile (Eq. 2 with the
    /// variable weight): the task drew `power` on average over `period`
    /// of execution.
    pub fn update_profile(&mut self, power: Watts, period: SimDuration) -> Watts {
        self.profile.update(power, period)
    }

    /// Overwrites the profile, used when seeding from the placement
    /// table.
    pub fn reset_profile(&mut self, power: Watts) {
        self.profile.reset(power);
    }

    /// The most recent migration, if any: why it happened and whether
    /// it crossed a node boundary.
    pub fn last_migration(&self) -> Option<(MigrationReason, bool)> {
        self.last_migration
    }

    pub(crate) fn record_migration(&mut self, reason: MigrationReason, cross_node: bool) {
        self.last_migration = Some((reason, cross_node));
        self.migrations += 1;
    }

    /// Number of times this task has been migrated.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}

fn state_code(state: TaskState) -> u8 {
    match state {
        TaskState::Runnable => 0,
        TaskState::Running => 1,
        TaskState::Blocked => 2,
    }
}

fn state_from_code(code: u8) -> Result<TaskState, ebs_store::StoreError> {
    Ok(match code {
        0 => TaskState::Runnable,
        1 => TaskState::Running,
        2 => TaskState::Blocked,
        other => {
            return Err(ebs_store::StoreError::Invalid(format!(
                "task state code {other}"
            )))
        }
    })
}

fn reason_code(reason: MigrationReason) -> u8 {
    match reason {
        MigrationReason::LoadBalance => 0,
        MigrationReason::EnergyBalance => 1,
        MigrationReason::HotTask => 2,
        MigrationReason::Exchange => 3,
    }
}

fn reason_from_code(code: u8) -> Result<MigrationReason, ebs_store::StoreError> {
    MigrationReason::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| ebs_store::StoreError::Invalid(format!("migration reason code {code}")))
}

impl Task {
    /// Rebuilds task `id` from its snapshot record — the binary
    /// travels with the mutable state, so restore needs no other
    /// context. The id is the record's place in the task table, not
    /// part of the record.
    pub(crate) fn from_snapshot(
        r: &mut ebs_store::StateReader<'_>,
        id: TaskId,
    ) -> Result<Self, ebs_store::StoreError> {
        let config = TaskConfig {
            binary: BinaryId(r.u64()?),
            ..TaskConfig::default()
        };
        let cpu = CpuId(r.usize()?);
        let mut task = Task::new(id, config, cpu);
        task.state = state_from_code(r.u8()?)?;
        task.timeslice = r.duration()?;
        // Overwrites the default initial profile.
        task.profile.restore(r)?;
        task.last_migration = r.opt(|r| Ok((reason_from_code(r.u8()?)?, r.bool()?)))?;
        task.migrations = r.u64()?;
        Ok(task)
    }
}

impl ebs_store::Snapshot for Task {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.u64(self.binary.0);
        w.usize(self.cpu.0);
        w.u8(state_code(self.state));
        w.duration(self.timeslice);
        self.profile.save(w);
        w.opt(&self.last_migration, |w, &(reason, cross)| {
            w.u8(reason_code(reason));
            w.bool(cross);
        });
        w.u64(self.migrations);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        *self = Task::from_snapshot(r, self.id)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(TaskId(1), TaskConfig::default(), CpuId(0))
    }

    #[test]
    fn new_task_is_runnable_with_full_slice() {
        let t = task();
        assert_eq!(t.state(), TaskState::Runnable);
        assert_eq!(t.timeslice(), DEFAULT_TIMESLICE);
        assert_eq!(t.profile(), Watts(30.0));
        assert_eq!(t.migrations(), 0);
    }

    #[test]
    fn timeslice_consumption_and_expiry() {
        let mut t = task();
        assert!(!t.consume_timeslice(SimDuration::from_millis(60)));
        assert_eq!(t.timeslice(), SimDuration::from_millis(40));
        assert!(t.consume_timeslice(SimDuration::from_millis(40)));
        assert!(t.timeslice().is_zero());
        // Over-consumption clamps.
        assert!(t.consume_timeslice(SimDuration::from_millis(10)));
        t.refresh_timeslice();
        assert_eq!(t.timeslice(), DEFAULT_TIMESLICE);
    }

    #[test]
    fn profile_updates_follow_exponential_average() {
        let mut t = task();
        let updated = t.update_profile(Watts(62.0), DEFAULT_TIMESLICE);
        let expected = 0.25 * 62.0 + 0.75 * 30.0;
        assert!((updated.0 - expected).abs() < 1e-12);
        assert_eq!(t.profile(), updated);
        t.reset_profile(Watts(47.0));
        assert_eq!(t.profile(), Watts(47.0));
    }

    #[test]
    fn migration_bookkeeping() {
        let mut t = task();
        assert!(t.last_migration().is_none());
        t.record_migration(MigrationReason::HotTask, true);
        assert_eq!(t.last_migration(), Some((MigrationReason::HotTask, true)));
        t.record_migration(MigrationReason::LoadBalance, false);
        assert_eq!(
            t.last_migration(),
            Some((MigrationReason::LoadBalance, false))
        );
        assert_eq!(t.migrations(), 2);
    }
}
