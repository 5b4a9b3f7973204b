//! The scheduler system: task table, per-CPU runqueues, and migration
//! machinery.
//!
//! [`System`] owns every live task and runqueue and enforces the state
//! invariants (a live task is either running on exactly one CPU, queued
//! on exactly one runqueue, or blocked; a task that exits leaves the
//! system). Policies — the baseline load balancer here and the
//! energy-aware policies in `ebs-core` — mutate the system exclusively
//! through its migration and scheduling methods, so the invariants hold
//! no matter what a policy does.

use crate::aggregates::LoadAggregates;
use crate::runqueue::RunQueue;
use crate::task::{Task, TaskConfig, TaskId, TaskState};
use crate::task_table::TaskTable;
use ebs_topology::{CpuGroup, CpuId, GroupUnit, Topology};
use ebs_units::{SimDuration, SimTime, Watts};

/// Why a migration happened, for the statistics the paper reports
/// (migration counts with and without energy balancing, Section 6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationReason {
    /// The stock load balancer equalising runqueue lengths.
    LoadBalance,
    /// The energy balancing step pulling heat towards a cool CPU.
    EnergyBalance,
    /// Hot task migration away from a nearly-overheating CPU.
    HotTask,
    /// The cool task moved in exchange, to avoid a load imbalance.
    Exchange,
}

impl MigrationReason {
    /// All reasons, for stats arrays.
    pub const ALL: [MigrationReason; 4] = [
        MigrationReason::LoadBalance,
        MigrationReason::EnergyBalance,
        MigrationReason::HotTask,
        MigrationReason::Exchange,
    ];

    fn index(self) -> usize {
        match self {
            MigrationReason::LoadBalance => 0,
            MigrationReason::EnergyBalance => 1,
            MigrationReason::HotTask => 2,
            MigrationReason::Exchange => 3,
        }
    }

    /// A stable human-readable label, used by event traces.
    pub const fn name(self) -> &'static str {
        match self {
            MigrationReason::LoadBalance => "load-balance",
            MigrationReason::EnergyBalance => "energy-balance",
            MigrationReason::HotTask => "hot-task",
            MigrationReason::Exchange => "exchange",
        }
    }
}

/// Aggregate scheduler statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemStats {
    /// Total task migrations, by reason (index via
    /// [`MigrationReason::ALL`] order).
    pub migrations_by_reason: [u64; 4],
    /// Context switches performed.
    pub context_switches: u64,
}

impl SystemStats {
    /// Total migrations across all reasons.
    pub fn migrations(&self) -> u64 {
        self.migrations_by_reason.iter().sum()
    }

    /// Migrations attributed to one reason.
    pub fn migrations_for(&self, reason: MigrationReason) -> u64 {
        self.migrations_by_reason[reason.index()]
    }
}

/// Result of a clock tick on one CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickResult {
    /// The task that was charged the tick, if any.
    pub current: Option<TaskId>,
    /// Whether its timeslice is now exhausted (caller should context
    /// switch and perform end-of-timeslice energy accounting).
    pub timeslice_expired: bool,
}

/// Result of a context switch on one CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchResult {
    /// The task that was descheduled, if any.
    pub prev: Option<TaskId>,
    /// The task now running, if any.
    pub next: Option<TaskId>,
}

/// Errors from migration requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrateError {
    /// Source and destination CPU are the same.
    SameCpu,
    /// The task is not in a migratable state (blocked, or no longer
    /// live).
    BadState,
    /// The task is currently running; use [`System::migrate_running`].
    Running,
    /// The CPU has no running task to push.
    NoCurrent,
}

impl core::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MigrateError::SameCpu => write!(f, "source and destination CPU are identical"),
            MigrateError::BadState => write!(f, "task is not runnable"),
            MigrateError::Running => write!(f, "task is running; push it via migrate_running"),
            MigrateError::NoCurrent => write!(f, "CPU has no running task"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// The multiprocessor scheduler state.
#[derive(Clone, Debug)]
pub struct System {
    /// Shared because it is immutable after construction: policies
    /// hold a cheap handle ([`System::topology_shared`]) and walk
    /// domain stacks while mutating the system, instead of cloning a
    /// domain (O(span) per balancing pass) to satisfy the borrow
    /// checker.
    topology: std::sync::Arc<Topology>,
    /// Live tasks only: a task's record leaves when it exits or is
    /// handed out, while ids keep counting.
    tasks: TaskTable<Task>,
    rqs: Vec<RunQueue>,
    /// Per-unit (core/package/node) `nr_running` sums and change
    /// generations, updated in O(depth) by every runqueue-changing
    /// operation below.
    agg: LoadAggregates,
    /// Tasks waiting (queued, not running) on every runqueue together:
    /// see [`System::nr_queued`]. Not stored in images; restore
    /// recounts it.
    queued: usize,
    now: SimTime,
    stats: SystemStats,
}

impl System {
    /// Creates a system with empty runqueues.
    pub fn new(topology: Topology) -> Self {
        let rqs = topology.cpu_ids().map(RunQueue::new).collect();
        let agg = LoadAggregates::new(&topology);
        System {
            topology: std::sync::Arc::new(topology),
            tasks: TaskTable::new(),
            rqs,
            agg,
            queued: 0,
            now: SimTime::ZERO,
            stats: SystemStats::default(),
        }
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A shared handle to the (immutable) topology, for callers that
    /// need to iterate domain stacks while mutating the system.
    pub fn topology_shared(&self) -> std::sync::Arc<Topology> {
        std::sync::Arc::clone(&self.topology)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the scheduler clock. The driving engine calls this once
    /// per simulation step, before any scheduling operations for that
    /// step.
    pub fn set_now(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "clock moved backwards");
        self.now = now;
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Spawns a task and enqueues it runnable on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn spawn(&mut self, config: TaskConfig, cpu: CpuId) -> TaskId {
        assert!(cpu.0 < self.rqs.len(), "{cpu} out of range");
        let id = self
            .tasks
            .insert(Task::new(self.tasks.next_id(), config, cpu));
        self.enqueue(id, cpu);
        id
    }

    /// Immutable task accessor.
    ///
    /// # Panics
    ///
    /// Panics if the task is not live: never spawned, exited, or
    /// handed out.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// Number of live tasks (running, queued or blocked).
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The live tasks by id; engines keep their own per-task state
    /// under the same ids.
    pub fn task_table(&self) -> &TaskTable<Task> {
        &self.tasks
    }

    /// The runqueue of `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn rq(&self, cpu: CpuId) -> &RunQueue {
        &self.rqs[cpu.0]
    }

    /// The running task on `cpu`.
    pub fn current(&self, cpu: CpuId) -> Option<TaskId> {
        self.rqs[cpu.0].current()
    }

    /// `nr_running` of `cpu` (queued plus running).
    pub fn nr_running(&self, cpu: CpuId) -> usize {
        self.rqs[cpu.0].nr_running()
    }

    /// Tasks waiting (queued, not running) across the whole machine —
    /// the sum of [`RunQueue::nr_queued`] over every runqueue, kept in
    /// O(1) by every operation that queues or dequeues a task. Every
    /// pull-only path (both balancers' periodic and new-idle passes,
    /// and an idle CPU's dispatch) can move or start only a waiting
    /// task, so at zero each returns at once.
    pub fn nr_queued(&self) -> usize {
        self.queued
    }

    /// Time until the running task of `cpu` exhausts its timeslice if
    /// it keeps executing, i.e. its remaining slice. `None` for an
    /// idle CPU. The variable-stride engine uses this to bound a step
    /// so that expiries land exactly on step boundaries.
    pub fn time_to_timeslice_expiry(&self, cpu: CpuId) -> Option<SimDuration> {
        self.rqs[cpu.0]
            .current()
            .map(|id| self.tasks[id].timeslice())
    }

    /// Charges `dt` of CPU time to the running task of `cpu`.
    pub fn tick(&mut self, cpu: CpuId, dt: SimDuration) -> TickResult {
        match self.rqs[cpu.0].current() {
            Some(id) => {
                let expired = self.tasks[id].consume_timeslice(dt);
                TickResult {
                    current: Some(id),
                    timeslice_expired: expired,
                }
            }
            None => TickResult {
                current: None,
                timeslice_expired: false,
            },
        }
    }

    /// Performs a context switch on `cpu`: the running task (if any) is
    /// put back — on the expired array with a fresh timeslice if its
    /// slice ran out, on the active array otherwise — and the next task
    /// is picked.
    pub fn context_switch(&mut self, cpu: CpuId) -> SwitchResult {
        let prev = self.rqs[cpu.0].current();
        // The queue's queued-plus-running profile total before the
        // switch; each task is looked up once, and its profile read
        // there.
        let mut total_before = self.rqs[cpu.0].queued_profile();
        if let Some(id) = prev {
            let task = &mut self.tasks[id];
            task.set_state(TaskState::Runnable);
            let expired = task.timeslice().is_zero();
            if expired {
                task.refresh_timeslice();
            }
            let profile = task.profile().0;
            total_before += profile;
            let rq = &mut self.rqs[cpu.0];
            if expired {
                rq.enqueue_expired(id);
            } else {
                rq.enqueue_active(id);
            }
            rq.credit_profile(profile);
            self.queued += 1;
        }
        let next = self.rqs[cpu.0].pick_next();
        let next_profile = next.map(|id| {
            let task = &mut self.tasks[id];
            task.set_state(TaskState::Running);
            task.set_cpu(cpu);
            task.profile().0
        });
        let rq = &mut self.rqs[cpu.0];
        if let Some(profile) = next_profile {
            rq.debit_profile(profile);
            self.queued -= 1;
        }
        rq.set_current(next);
        let total_after = next_profile.map_or(rq.queued_profile(), |p| rq.queued_profile() + p);
        if prev != next {
            self.stats.context_switches += 1;
        }
        // A context switch shuffles tasks between "queued" and
        // "running" without changing the queue's task set or
        // `nr_running`, so usually the tree needs no update. But the
        // cached `queued_profile` does not always round-trip *bitwise*
        // through credit(prev)/debit(next) — `(Q + p) - p` can differ
        // from `Q` by an ulp — and cached group ratios must stay
        // bit-identical to fresh scans. So the generation is bumped
        // exactly when the queue's profile total changed bits.
        if total_after.to_bits() != total_before.to_bits() {
            self.agg.apply(cpu, 0);
        }
        SwitchResult { prev, next }
    }

    /// Blocks the running task of `cpu` (it leaves the runqueue) and
    /// returns it.
    pub fn block_current(&mut self, cpu: CpuId) -> Option<TaskId> {
        let id = self.rqs[cpu.0].current()?;
        self.rqs[cpu.0].set_current(None);
        self.tasks[id].set_state(TaskState::Blocked);
        self.agg.apply(cpu, -1);
        Some(id)
    }

    /// Wakes a blocked task, enqueuing it runnable on `cpu` (or on the
    /// CPU it last ran on when `None`).
    ///
    /// # Panics
    ///
    /// Panics if the task is not blocked.
    pub fn wake(&mut self, id: TaskId, cpu: Option<CpuId>) {
        let task = &mut self.tasks[id];
        assert_eq!(
            task.state(),
            TaskState::Blocked,
            "waking a non-blocked task"
        );
        let target = cpu.unwrap_or(task.cpu());
        task.set_state(TaskState::Runnable);
        task.set_cpu(target);
        self.enqueue(id, target);
    }

    /// Terminates the running task of `cpu` and returns its id; its
    /// record leaves the system.
    pub fn exit_current(&mut self, cpu: CpuId) -> Option<TaskId> {
        let id = self.rqs[cpu.0].current()?;
        self.rqs[cpu.0].set_current(None);
        self.tasks.remove(id);
        self.agg.apply(cpu, -1);
        Some(id)
    }

    /// Migrates a *queued* (waiting, not running) task to another CPU's
    /// active array.
    ///
    /// # Errors
    ///
    /// Returns [`MigrateError`] when the task is running, not runnable,
    /// or already on the destination CPU.
    pub fn migrate_queued(
        &mut self,
        id: TaskId,
        to: CpuId,
        reason: MigrationReason,
    ) -> Result<(), MigrateError> {
        if self.tasks.get(id).ok_or(MigrateError::BadState)?.cpu() == to {
            return Err(MigrateError::SameCpu);
        }
        let from = self.dequeue(id)?;
        self.enqueue(id, to);
        self.finish_migration(id, from, to, reason);
        Ok(())
    }

    /// Removes a *queued* (waiting, not running) task from its
    /// runqueue and from the system — the extraction half of a
    /// cross-partition handoff: the partitioned engine re-injects the
    /// task's state into another partition's `System` as a fresh
    /// spawn, so within this system the id is simply gone (counted
    /// neither as an exit nor as a migration).
    ///
    /// # Errors
    ///
    /// Returns [`MigrateError`] when the task is running, blocked or
    /// not live.
    pub fn take_queued(&mut self, id: TaskId) -> Result<(), MigrateError> {
        self.dequeue(id)?;
        self.tasks.remove(id);
        Ok(())
    }

    /// Pushes the *running* task of `from` to `to`'s active array. The
    /// source CPU is left without a current task; the caller performs
    /// the context switch (as Linux's migration thread does).
    ///
    /// # Errors
    ///
    /// Returns [`MigrateError::NoCurrent`] if `from` is idle or
    /// [`MigrateError::SameCpu`] for a self-migration.
    pub fn migrate_running(
        &mut self,
        from: CpuId,
        to: CpuId,
        reason: MigrationReason,
    ) -> Result<TaskId, MigrateError> {
        if from == to {
            return Err(MigrateError::SameCpu);
        }
        let id = self.rqs[from.0].current().ok_or(MigrateError::NoCurrent)?;
        self.rqs[from.0].set_current(None);
        self.tasks[id].set_state(TaskState::Runnable);
        self.agg.apply(from, -1);
        self.enqueue(id, to);
        self.finish_migration(id, from, to, reason);
        Ok(id)
    }

    /// Folds an observed power sample into a task's energy profile
    /// (Eq. 2) and keeps the runqueue power caches coherent. Engines
    /// must use this instead of mutating the task directly: a profile
    /// change while the task is on a runqueue shifts that queue's
    /// runqueue power, which the queue's queued-profile sum and the
    /// aggregate tree's generation counters track.
    pub fn update_profile(&mut self, id: TaskId, power: Watts, period: SimDuration) -> Watts {
        let task = &mut self.tasks[id];
        let old = task.profile().0;
        let new = task.update_profile(power, period);
        let (cpu, state) = (task.cpu(), task.state());
        match state {
            TaskState::Running => self.agg.apply(cpu, 0),
            // Engines only update running tasks, but a queued task's
            // profile feeds the runqueue-level cache as well.
            TaskState::Runnable => {
                self.rqs[cpu.0].credit_profile(new.0 - old);
                self.agg.apply(cpu, 0);
            }
            // Off-queue tasks contribute to no cache.
            TaskState::Blocked => {}
        }
        new
    }

    /// Replaces a task's energy profile outright, keeping the
    /// aggregate tree and runqueue power caches coherent — the same
    /// plumbing as [`System::update_profile`] but without the Eq. 2
    /// blend. Engines use this when a task's known activity suddenly
    /// costs a different amount of power, e.g. after a migration onto
    /// a different core class.
    pub fn reset_profile(&mut self, id: TaskId, power: Watts) {
        let task = &mut self.tasks[id];
        let old = task.profile().0;
        task.reset_profile(power);
        let new = task.profile();
        let (cpu, state) = (task.cpu(), task.state());
        match state {
            TaskState::Running => self.agg.apply(cpu, 0),
            TaskState::Runnable => {
                self.rqs[cpu.0].credit_profile(new.0 - old);
                self.agg.apply(cpu, 0);
            }
            TaskState::Blocked => {}
        }
    }

    /// Sum of `nr_running` over a group's CPUs — one table lookup when
    /// the group is tagged with its hardware unit (all generated
    /// hierarchies are), a scan otherwise. Identical to the scan in
    /// either case: integer sums carry no rounding.
    pub fn group_nr_running(&self, group: &CpuGroup) -> usize {
        match group.unit() {
            Some(GroupUnit::Cpu(c)) => self.nr_running(c),
            Some(unit) => {
                self.agg
                    .cell(unit)
                    .expect("non-CPU unit has a cell")
                    .nr_running
            }
            None => group.cpus().iter().map(|&c| self.nr_running(c)).sum(),
        }
    }

    /// Installs class-weighted per-CPU compute capacities into the
    /// aggregate tree (see [`crate::LoadAggregates::set_cpu_capacities`]).
    /// Engines call this once at construction; without it every CPU
    /// weighs 1.0.
    pub fn set_cpu_capacities(&mut self, caps: &[f64]) {
        self.agg.set_cpu_capacities(caps);
    }

    /// Class-weighted capacity sum over a group's CPUs — the unit's
    /// aggregate when the group is unit-tagged, a scan otherwise.
    /// Equals the group's CPU count on homogeneous machines.
    pub fn group_capacity(&self, group: &CpuGroup) -> f64 {
        match group.unit() {
            Some(unit) => self.agg.capacity(unit),
            None => group.cpus().iter().map(|&c| self.agg.cpu_capacity(c)).sum(),
        }
    }

    /// The class-weighted capacity of one logical CPU.
    pub fn cpu_capacity(&self, cpu: CpuId) -> f64 {
        self.agg.cpu_capacity(cpu)
    }

    /// The generation counter of a group's unit: it changes whenever
    /// any member queue's *runqueue-power-relevant* state (task set or
    /// a member profile) changes. `None` for single-CPU or untagged
    /// groups, whose consumers read the queue directly. Caches of
    /// derived per-group values key on this.
    pub fn group_gen(&self, group: &CpuGroup) -> Option<u64> {
        match group.unit() {
            Some(GroupUnit::Cpu(_)) | None => None,
            Some(unit) => self.agg.cell(unit).map(|cell| cell.gen),
        }
    }

    /// Appends a runnable task to `cpu`'s active array and credits it
    /// to the queued-profile and aggregate caches.
    fn enqueue(&mut self, id: TaskId, cpu: CpuId) {
        let profile = self.tasks[id].profile().0;
        self.rqs[cpu.0].enqueue_active(id);
        self.rqs[cpu.0].credit_profile(profile);
        self.agg.apply(cpu, 1);
        self.queued += 1;
    }

    /// Removes a *queued* (runnable, not running) task from its
    /// runqueue and debits the caches; returns the CPU it left.
    fn dequeue(&mut self, id: TaskId) -> Result<CpuId, MigrateError> {
        let (from, state) = {
            let t = self.tasks.get(id).ok_or(MigrateError::BadState)?;
            (t.cpu(), t.state())
        };
        match state {
            TaskState::Runnable => {}
            TaskState::Running => return Err(MigrateError::Running),
            TaskState::Blocked => return Err(MigrateError::BadState),
        }
        if self.rqs[from.0].current() == Some(id) {
            return Err(MigrateError::Running);
        }
        let removed = self.rqs[from.0].remove(id);
        debug_assert!(removed, "runnable task {id} missing from its runqueue");
        if removed {
            let profile = self.tasks[id].profile().0;
            self.rqs[from.0].debit_profile(profile);
            self.agg.apply(from, -1);
            self.queued -= 1;
        }
        Ok(from)
    }

    fn finish_migration(&mut self, id: TaskId, from: CpuId, to: CpuId, reason: MigrationReason) {
        let cross_node = !self.topology.same_node(from, to);
        let task = &mut self.tasks[id];
        task.set_cpu(to);
        task.record_migration(reason, cross_node);
        self.stats.migrations_by_reason[reason.index()] += 1;
    }

    /// Checks every cross-structure invariant: each runqueue names
    /// only live tasks, each in the state its place implies and
    /// homed on that queue's CPU; every runnable or running task sits
    /// on exactly one runqueue; every task's CPU exists and its profile
    /// is finite; each queued-profile cache matches a fresh sum; and
    /// the waiting-task count and the aggregate tree's `nr_running`
    /// sums match a recount. Restore runs it on every image, so
    /// inconsistent state fails there instead of panicking at first
    /// use.
    ///
    /// # Errors
    ///
    /// A message naming the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        // Runqueue appearances per id of the task window.
        let first = self.tasks.ids().next().map_or(0, |id| id.0);
        let mut seen = vec![0usize; self.tasks.span()];
        for rq in &self.rqs {
            let cpu = rq.cpu();
            let mut fresh = 0.0;
            for id in rq.iter_all() {
                let task = self
                    .tasks
                    .get(id)
                    .ok_or_else(|| format!("{cpu} lists unknown {id}"))?;
                seen[(id.0 - first) as usize] += 1;
                let state = if rq.current() == Some(id) {
                    TaskState::Running
                } else {
                    fresh += task.profile().0;
                    TaskState::Runnable
                };
                ensure(task.cpu() == cpu, || {
                    format!("{id} on {cpu} but task.cpu() says {}", task.cpu())
                })?;
                ensure(task.state() == state, || {
                    format!("{id} on {cpu} is {:?}, expected {state:?}", task.state())
                })?;
            }
            // The cached queued-profile sum matches a fresh recompute
            // (a NaN fails the comparison).
            let cached = rq.queued_profile();
            ensure((fresh - cached).abs() < 1e-6 * fresh.abs().max(1.0), || {
                format!("queued-profile cache drifted on {cpu}: {cached} vs {fresh}")
            })?;
        }
        for (id, task) in self.tasks.iter() {
            let (n, state) = (seen[(id.0 - first) as usize], task.state());
            let queued = state != TaskState::Blocked;
            ensure(n == usize::from(queued), || {
                format!("{id} in state {state:?} appears {n} times on runqueues")
            })?;
            ensure(task.cpu().0 < self.rqs.len(), || {
                format!("{id} homed on unknown {}", task.cpu())
            })?;
            ensure(task.profile().0.is_finite(), || {
                format!("{id} has profile {}", task.profile().0)
            })?;
        }
        let waiting: usize = self.rqs.iter().map(RunQueue::nr_queued).sum();
        ensure(self.queued == waiting, || {
            format!("queued count {} but {waiting} tasks wait", self.queued)
        })?;
        self.agg.check(self.rqs.iter().map(RunQueue::nr_running))
    }

    /// [`System::check`] for tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics with the check's message on any violated invariant.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// `Ok` when `ok` holds, else the error `msg` describes.
pub(crate) fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

impl ebs_store::Snapshot for SystemStats {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        for &n in &self.migrations_by_reason {
            w.u64(n);
        }
        w.u64(self.context_switches);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        for n in &mut self.migrations_by_reason {
            *n = r.u64()?;
        }
        self.context_switches = r.u64()?;
        Ok(())
    }
}

impl ebs_store::Snapshot for System {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.key("system");
        self.tasks.save_with(w, |w, t| t.save(w));
        w.seq(&self.rqs, |w, rq| rq.save(w));
        self.agg.save(w);
        w.time(self.now);
        self.stats.save(w);
    }

    /// Restores into a freshly built [`System::new`] of the *same
    /// topology*; tasks travel with their binaries, so nothing else
    /// about the saved workload needs to be re-created by the caller.
    /// The image holds the window of task ids from the oldest live task
    /// to the next id, with the record of each live task. The restored
    /// state must pass [`System::check`]; an image that fails it is
    /// refused with [`ebs_store::StoreError::Invalid`].
    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.key("system")?;
        self.tasks = TaskTable::restore_with(r, Task::from_snapshot)?;
        r.table("runqueues", &mut self.rqs, |r, rq| rq.restore(r))?;
        self.queued = self.rqs.iter().map(RunQueue::nr_queued).sum();
        self.agg.restore(r)?;
        self.now = r.time()?;
        self.stats.restore(r)?;
        self.check().map_err(ebs_store::StoreError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> System {
        System::new(Topology::xseries445(false))
    }

    #[test]
    fn spawn_enqueues_runnable() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(3));
        assert_eq!(sys.task(t).state(), TaskState::Runnable);
        assert_eq!(sys.nr_running(CpuId(3)), 1);
        sys.validate();
    }

    /// Every task has the one static priority, so the highest-priority
    /// runnable task is always the one queued first: a CPU runs its
    /// tasks in FIFO order.
    #[test]
    fn context_switch_runs_highest_priority() {
        let mut sys = system();
        let ids: Vec<_> = (0..3)
            .map(|_| sys.spawn(TaskConfig::default(), CpuId(0)))
            .collect();
        let mut order = Vec::new();
        while let Some(id) = sys.context_switch(CpuId(0)).next {
            assert_eq!(sys.task(id).state(), TaskState::Running);
            sys.validate();
            order.extend(sys.block_current(CpuId(0)));
        }
        assert_eq!(order, ids);
    }

    /// The active/expired pair decides that a task enqueued on the
    /// active array — woken, or migrated in — runs before every task
    /// whose slice already expired, however long those have waited.
    #[test]
    fn woken_and_migrated_tasks_run_before_expired_ones() {
        let mut sys = system();
        let slice = crate::task::DEFAULT_TIMESLICE;
        let hogs: Vec<_> = (0..3)
            .map(|_| sys.spawn(TaskConfig::default(), CpuId(0)))
            .collect();
        // Each hog burns its whole slice; the last keeps running.
        sys.context_switch(CpuId(0));
        for _ in 0..2 {
            sys.tick(CpuId(0), slice);
            sys.context_switch(CpuId(0));
        }
        assert_eq!(sys.current(CpuId(0)), Some(hogs[2]));
        // A task blocks on CPU 1; another waits there.
        let woken = sys.spawn(TaskConfig::default(), CpuId(1));
        sys.context_switch(CpuId(1));
        sys.block_current(CpuId(1));
        let migrant = sys.spawn(TaskConfig::default(), CpuId(1));
        sys.wake(woken, Some(CpuId(0)));
        sys.migrate_queued(migrant, CpuId(0), MigrationReason::LoadBalance)
            .unwrap();
        sys.validate();
        let mut order = Vec::new();
        for _ in 0..7 {
            sys.tick(CpuId(0), slice);
            order.extend(sys.context_switch(CpuId(0)).next);
        }
        let expected = [woken, migrant, hogs[0], hogs[1], hogs[2], woken, migrant];
        assert_eq!(order, expected);
        sys.validate();
    }

    #[test]
    fn tick_expires_timeslice_and_round_robins() {
        let mut sys = system();
        let a = sys.spawn(TaskConfig::default(), CpuId(0));
        let b = sys.spawn(TaskConfig::default(), CpuId(0));
        assert_eq!(sys.context_switch(CpuId(0)).next, Some(a));
        // Burn a's entire 100 ms slice.
        let mut expired = false;
        for _ in 0..100 {
            expired = sys
                .tick(CpuId(0), SimDuration::from_millis(1))
                .timeslice_expired;
        }
        assert!(expired);
        let sw = sys.context_switch(CpuId(0));
        assert_eq!(sw.prev, Some(a));
        assert_eq!(sw.next, Some(b));
        // a got a fresh slice for its next turn.
        assert_eq!(sys.task(a).timeslice(), crate::task::DEFAULT_TIMESLICE);
        sys.validate();
    }

    #[test]
    fn time_to_expiry_tracks_remaining_slice() {
        let mut sys = system();
        assert_eq!(sys.time_to_timeslice_expiry(CpuId(0)), None);
        sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        assert_eq!(
            sys.time_to_timeslice_expiry(CpuId(0)),
            Some(crate::task::DEFAULT_TIMESLICE)
        );
        sys.tick(CpuId(0), SimDuration::from_millis(30));
        assert_eq!(
            sys.time_to_timeslice_expiry(CpuId(0)),
            Some(SimDuration::from_millis(70))
        );
    }

    #[test]
    fn tick_on_idle_cpu_is_empty() {
        let mut sys = system();
        let r = sys.tick(CpuId(1), SimDuration::from_millis(1));
        assert_eq!(r.current, None);
        assert!(!r.timeslice_expired);
    }

    #[test]
    fn block_and_wake_cycle() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        assert_eq!(sys.block_current(CpuId(0)), Some(t));
        assert_eq!(sys.task(t).state(), TaskState::Blocked);
        assert!(sys.rq(CpuId(0)).is_idle());
        sys.validate();
        sys.wake(t, None);
        assert_eq!(sys.task(t).state(), TaskState::Runnable);
        assert_eq!(sys.nr_running(CpuId(0)), 1);
        sys.validate();
        // Wake onto a different CPU.
        sys.context_switch(CpuId(0));
        sys.block_current(CpuId(0));
        sys.wake(t, Some(CpuId(5)));
        assert_eq!(sys.task(t).cpu(), CpuId(5));
        sys.validate();
    }

    #[test]
    fn exit_removes_from_scheduling() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        assert_eq!(sys.exit_current(CpuId(0)), Some(t));
        // The record leaves with the task; ids keep counting.
        assert_eq!(sys.n_tasks(), 0);
        assert!(sys.task_table().get(t).is_none());
        assert_eq!(sys.context_switch(CpuId(0)).next, None);
        assert_eq!(sys.spawn(TaskConfig::default(), CpuId(0)), TaskId(1));
        sys.validate();
    }

    #[test]
    fn take_queued_extracts_for_handoff() {
        let mut sys = system();
        let running = sys.spawn(TaskConfig::default(), CpuId(0));
        let queued = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        // The running task cannot be taken; the queued one can.
        assert_eq!(sys.take_queued(running), Err(MigrateError::Running));
        sys.take_queued(queued).unwrap();
        assert!(sys.task_table().get(queued).is_none());
        assert_eq!(sys.nr_running(CpuId(0)), 1);
        // A handoff is not a migration.
        assert_eq!(sys.stats().migrations(), 0);
        // Re-taking fails, as does migrating the gone task; blocked
        // tasks fail too.
        assert_eq!(sys.take_queued(queued), Err(MigrateError::BadState));
        assert_eq!(
            sys.migrate_queued(queued, CpuId(1), MigrationReason::LoadBalance),
            Err(MigrateError::BadState)
        );
        sys.validate();
    }

    #[test]
    fn migrate_queued_moves_between_runqueues() {
        let mut sys = system();
        let _running = sys.spawn(TaskConfig::default(), CpuId(0));
        let queued = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        sys.migrate_queued(queued, CpuId(4), MigrationReason::LoadBalance)
            .unwrap();
        assert_eq!(sys.task(queued).cpu(), CpuId(4));
        assert_eq!(sys.nr_running(CpuId(4)), 1);
        assert_eq!(sys.stats().migrations(), 1);
        assert_eq!(sys.stats().migrations_for(MigrationReason::LoadBalance), 1);
        // Cross-node flag: CPU 0 is node 0, CPU 4 is node 1.
        assert_eq!(
            sys.task(queued).last_migration(),
            Some((MigrationReason::LoadBalance, true))
        );
        sys.validate();
    }

    #[test]
    fn migrate_queued_rejects_running_and_same_cpu() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        assert_eq!(
            sys.migrate_queued(t, CpuId(1), MigrationReason::LoadBalance),
            Err(MigrateError::Running)
        );
        let q = sys.spawn(TaskConfig::default(), CpuId(0));
        assert_eq!(
            sys.migrate_queued(q, CpuId(0), MigrationReason::LoadBalance),
            Err(MigrateError::SameCpu)
        );
    }

    #[test]
    fn migrate_queued_rejects_blocked() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        sys.block_current(CpuId(0));
        assert_eq!(
            sys.migrate_queued(t, CpuId(1), MigrationReason::LoadBalance),
            Err(MigrateError::BadState)
        );
    }

    #[test]
    fn migrate_running_pushes_current() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        let moved = sys
            .migrate_running(CpuId(0), CpuId(2), MigrationReason::HotTask)
            .unwrap();
        assert_eq!(moved, t);
        assert_eq!(sys.current(CpuId(0)), None);
        assert_eq!(sys.task(t).cpu(), CpuId(2));
        assert_eq!(sys.task(t).state(), TaskState::Runnable);
        assert_eq!(sys.stats().migrations_for(MigrationReason::HotTask), 1);
        // Destination picks it up at its next switch.
        assert_eq!(sys.context_switch(CpuId(2)).next, Some(t));
        sys.validate();
    }

    #[test]
    fn migrate_running_errors() {
        let mut sys = system();
        assert_eq!(
            sys.migrate_running(CpuId(0), CpuId(1), MigrationReason::HotTask),
            Err(MigrateError::NoCurrent)
        );
        let _ = sys.spawn(TaskConfig::default(), CpuId(0));
        sys.context_switch(CpuId(0));
        assert_eq!(
            sys.migrate_running(CpuId(0), CpuId(0), MigrationReason::HotTask),
            Err(MigrateError::SameCpu)
        );
    }

    #[test]
    fn hot_task_exchange_sequence() {
        // The Fig. 5 "exchange tasks" path: hot current moves to dest,
        // dest's cool current moves back.
        let mut sys = system();
        let hot = sys.spawn(TaskConfig::default(), CpuId(0));
        let cool = sys.spawn(TaskConfig::default(), CpuId(1));
        sys.context_switch(CpuId(0));
        sys.context_switch(CpuId(1));
        sys.migrate_running(CpuId(1), CpuId(0), MigrationReason::Exchange)
            .unwrap();
        sys.migrate_running(CpuId(0), CpuId(1), MigrationReason::HotTask)
            .unwrap();
        assert_eq!(sys.context_switch(CpuId(0)).next, Some(cool));
        assert_eq!(sys.context_switch(CpuId(1)).next, Some(hot));
        assert_eq!(sys.stats().migrations(), 2);
        sys.validate();
    }

    /// The waiting-task count follows every operation that queues or
    /// dequeues a task, and equals the sum over the runqueues after
    /// each of them and after a restore, which recounts it.
    #[test]
    fn nr_queued_follows_every_queue_change() {
        use ebs_store::Snapshot as _;
        let mut sys = system();
        let expect = |sys: &System, n: usize| {
            let sum: usize = (0..8).map(|c| sys.rq(CpuId(c)).nr_queued()).sum();
            assert_eq!((sys.nr_queued(), sum), (n, n));
            sys.validate();
        };
        let a = sys.spawn(TaskConfig::default(), CpuId(0));
        let b = sys.spawn(TaskConfig::default(), CpuId(0));
        expect(&sys, 2);
        // No prev, a next: one task leaves the queue.
        assert_eq!(sys.context_switch(CpuId(0)).next, Some(a));
        expect(&sys, 1);
        // A prev and a next: `a` goes back, `b` comes off.
        sys.tick(CpuId(0), crate::task::DEFAULT_TIMESLICE);
        let sw = sys.context_switch(CpuId(0));
        assert_eq!((sw.prev, sw.next), (Some(a), Some(b)));
        expect(&sys, 1);
        // Neither prev nor next: an idle CPU's switch changes nothing.
        assert_eq!(sys.context_switch(CpuId(1)).next, None);
        expect(&sys, 1);
        // Leaving the CPU does not touch the queue.
        assert_eq!(sys.block_current(CpuId(0)), Some(b));
        expect(&sys, 1);
        sys.wake(b, Some(CpuId(2)));
        expect(&sys, 2);
        sys.migrate_queued(b, CpuId(3), MigrationReason::LoadBalance)
            .unwrap();
        expect(&sys, 2);
        assert_eq!(sys.context_switch(CpuId(3)).next, Some(b));
        expect(&sys, 1);
        // Pushing the running task queues it on the destination.
        sys.migrate_running(CpuId(3), CpuId(4), MigrationReason::HotTask)
            .unwrap();
        expect(&sys, 2);
        sys.take_queued(b).unwrap();
        expect(&sys, 1);
        assert_eq!(sys.context_switch(CpuId(0)).next, Some(a));
        expect(&sys, 0);
        // A lone task goes back on its queue and comes straight off.
        let sw = sys.context_switch(CpuId(0));
        assert_eq!((sw.prev, sw.next), (Some(a), Some(a)));
        expect(&sys, 0);
        assert_eq!(sys.exit_current(CpuId(0)), Some(a));
        expect(&sys, 0);
        // Images carry no count: restore rebuilds it from the queues.
        for c in [5, 5, 6] {
            sys.spawn(TaskConfig::default(), CpuId(c));
        }
        sys.context_switch(CpuId(6));
        expect(&sys, 2);
        let mut w = ebs_store::StateWriter::new();
        sys.save(&mut w);
        let mut restored = system();
        restored
            .restore(&mut w.finish().open().expect("a sealed image"))
            .expect("a consistent image");
        expect(&restored, 2);
    }

    #[test]
    fn check_refuses_a_queued_count_off_by_one() {
        let mut sys = system();
        sys.spawn(TaskConfig::default(), CpuId(0));
        sys.queued += 1;
        let err = sys.check().expect_err("count off by one");
        assert_eq!(err, "queued count 2 but 1 tasks wait");
    }

    #[test]
    fn clock_is_monotone() {
        let mut sys = system();
        sys.set_now(SimTime::from_millis(5));
        assert_eq!(sys.now(), SimTime::from_millis(5));
    }

    /// Snapshots `src`, restores the image into a fresh system, and
    /// expects the restore to refuse it, naming `what`.
    fn assert_refused(src: &System, what: &str) {
        use ebs_store::Snapshot as _;
        let mut w = ebs_store::StateWriter::new();
        src.save(&mut w);
        let image = w.finish();
        let mut dst = System::new(src.topology().clone());
        match dst.restore(&mut image.open().expect("a sealed image")) {
            Err(ebs_store::StoreError::Invalid(msg)) => {
                assert!(msg.contains(what), "{msg:?} does not name {what:?}")
            }
            other => panic!("inconsistent image restored: {other:?}"),
        }
    }

    /// A runqueue naming a task the table does not hold is refused at
    /// restore; unchecked, the next context switch on that CPU indexed
    /// past the end of the task table.
    #[test]
    fn restore_refuses_an_orphan_task_id() {
        let mut sys = system();
        sys.spawn(TaskConfig::default(), CpuId(0));
        sys.tasks = TaskTable::new();
        assert_refused(&sys, "cpu0 lists unknown task0");
    }

    #[test]
    fn restore_refuses_a_task_queued_on_two_cpus() {
        let mut sys = system();
        let t = sys.spawn(TaskConfig::default(), CpuId(0));
        // Everything but the duplicate entry stays consistent.
        let profile = sys.task(t).profile().0;
        sys.rqs[1].enqueue_active(t);
        sys.rqs[1].credit_profile(profile);
        sys.agg.apply(CpuId(1), 1);
        assert_refused(&sys, "task0 on cpu1 but task.cpu() says cpu0");
    }

    #[test]
    fn restore_refuses_an_aggregate_off_by_one() {
        let mut sys = system();
        sys.spawn(TaskConfig::default(), CpuId(0));
        sys.agg.apply(CpuId(0), 1);
        assert_refused(&sys, "aggregate nr_running 2 but 1 runnable");
    }
}
