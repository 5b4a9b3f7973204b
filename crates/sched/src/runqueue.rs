//! Per-CPU runqueues with active/expired arrays.
//!
//! As in Linux 2.6: each CPU owns a runqueue with two arrays. Tasks
//! whose timeslice expires move to the *expired* array; when the
//! *active* array drains, the arrays are swapped. This gives
//! round-robin behaviour at timeslice granularity, and a woken or
//! migrated-in task (enqueued on the active array) runs before every
//! expired one. Every task runs at the one static priority, so each
//! array is a plain FIFO.

use crate::task::TaskId;
use ebs_topology::CpuId;
use std::collections::VecDeque;

/// A per-CPU runqueue.
#[derive(Clone, Debug)]
pub struct RunQueue {
    cpu: CpuId,
    active: VecDeque<TaskId>,
    expired: VecDeque<TaskId>,
    /// The task currently executing on this CPU (not in either array).
    current: Option<TaskId>,
    /// Sum of the energy profiles (watts) of the *queued* tasks,
    /// maintained incrementally by [`crate::System`]. A task's profile
    /// only changes while it runs — never while it waits in an array —
    /// so the cache is exact; it turns the runqueue-power metric the
    /// energy balancer reads O(CPUs · queue depth) times per pass into
    /// an O(1) lookup.
    queued_profile: f64,
}

impl RunQueue {
    /// Creates an empty runqueue for `cpu`.
    pub fn new(cpu: CpuId) -> Self {
        RunQueue {
            cpu,
            active: VecDeque::new(),
            expired: VecDeque::new(),
            current: None,
            queued_profile: 0.0,
        }
    }

    /// The owning CPU.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// The currently executing task.
    pub fn current(&self) -> Option<TaskId> {
        self.current
    }

    pub(crate) fn set_current(&mut self, task: Option<TaskId>) {
        self.current = task;
    }

    /// Number of runnable tasks including the running one — Linux's
    /// `nr_running`, the load metric the balancer equalises.
    pub fn nr_running(&self) -> usize {
        self.active.len() + self.expired.len() + usize::from(self.current.is_some())
    }

    /// Whether the CPU has nothing to run.
    pub fn is_idle(&self) -> bool {
        self.nr_running() == 0
    }

    /// Number of tasks waiting in the arrays (excluding current).
    pub fn nr_queued(&self) -> usize {
        self.active.len() + self.expired.len()
    }

    /// Enqueues a task at the back of the active array.
    pub(crate) fn enqueue_active(&mut self, task: TaskId) {
        self.active.push_back(task);
    }

    /// Enqueues a task at the back of the expired array (timeslice ran
    /// out).
    pub(crate) fn enqueue_expired(&mut self, task: TaskId) {
        self.expired.push_back(task);
    }

    /// Removes a queued (non-running) task; returns whether it was
    /// found.
    pub(crate) fn remove(&mut self, task: TaskId) -> bool {
        for q in [&mut self.active, &mut self.expired] {
            if let Some(pos) = q.iter().position(|&t| t == task) {
                q.remove(pos);
                return true;
            }
        }
        false
    }

    /// Picks the next task to run, swapping the arrays if the active
    /// one drained. Returns `None` if the queue is empty. The caller is
    /// responsible for updating `current`.
    pub(crate) fn pick_next(&mut self) -> Option<TaskId> {
        if self.active.is_empty() && !self.expired.is_empty() {
            core::mem::swap(&mut self.active, &mut self.expired);
        }
        self.active.pop_front()
    }

    /// Sum of the queued (waiting) tasks' energy profiles, in watts.
    pub fn queued_profile(&self) -> f64 {
        self.queued_profile
    }

    /// Credits a newly queued task's profile to the cached sum.
    pub(crate) fn credit_profile(&mut self, watts: f64) {
        self.queued_profile += watts;
    }

    /// Debits a dequeued task's profile from the cached sum. An empty
    /// queue snaps the sum back to exactly zero, so floating-point
    /// residue cannot accumulate across millions of operations.
    pub(crate) fn debit_profile(&mut self, watts: f64) {
        self.queued_profile -= watts;
        if self.nr_queued() == 0 {
            self.queued_profile = 0.0;
        }
    }

    /// Iterates over queued (waiting) tasks in migration-preference
    /// order, the reverse of run order: the expired array from its
    /// back, then the active array from its back — the tasks that will
    /// not run for the longest time first.
    pub fn iter_migration_candidates(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.expired
            .iter()
            .rev()
            .chain(self.active.iter().rev())
            .copied()
    }

    /// Iterates over every task associated with this queue, including
    /// the running one. This is the set whose energy profiles average
    /// into the *runqueue power* (Section 4.3).
    pub fn iter_all(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.current
            .into_iter()
            .chain(self.active.iter().copied())
            .chain(self.expired.iter().copied())
    }
}

impl ebs_store::Snapshot for RunQueue {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        for q in [&self.active, &self.expired] {
            w.usize(q.len());
            for id in q {
                w.u64(id.0);
            }
        }
        w.opt(&self.current, |w, id| w.u64(id.0));
        w.f64(self.queued_profile);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        for q in [&mut self.active, &mut self.expired] {
            *q = r.seq(|r| Ok(TaskId(r.u64()?)))?.into();
        }
        self.current = r.opt(|r| Ok(TaskId(r.u64()?)))?;
        self.queued_profile = r.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rq() -> RunQueue {
        RunQueue::new(CpuId(0))
    }

    #[test]
    fn empty_queue_is_idle() {
        let q = rq();
        assert!(q.is_idle());
        assert_eq!(q.nr_running(), 0);
        assert_eq!(q.current(), None);
    }

    #[test]
    fn nr_running_counts_current() {
        let mut q = rq();
        q.enqueue_active(TaskId(1));
        q.set_current(Some(TaskId(2)));
        assert_eq!(q.nr_running(), 2);
        assert_eq!(q.nr_queued(), 1);
        assert!(!q.is_idle());
    }

    #[test]
    fn pick_next_swaps_arrays_when_active_drains() {
        let mut q = rq();
        q.enqueue_active(TaskId(1));
        q.enqueue_expired(TaskId(2));
        assert_eq!(q.pick_next(), Some(TaskId(1)));
        // Active now empty; expired array must rotate in.
        assert_eq!(q.pick_next(), Some(TaskId(2)));
        assert_eq!(q.pick_next(), None);
    }

    #[test]
    fn round_robin_via_expired_array() {
        let mut q = rq();
        q.enqueue_active(TaskId(1));
        q.enqueue_active(TaskId(2));
        // Simulate: run 1, expire it, run 2, expire it, then both again.
        let first = q.pick_next().unwrap();
        q.enqueue_expired(first);
        let second = q.pick_next().unwrap();
        q.enqueue_expired(second);
        assert_eq!(first, TaskId(1));
        assert_eq!(second, TaskId(2));
        assert_eq!(q.pick_next(), Some(TaskId(1)));
        assert_eq!(q.pick_next(), Some(TaskId(2)));
    }

    #[test]
    fn remove_searches_both_arrays() {
        let mut q = rq();
        q.enqueue_active(TaskId(1));
        q.enqueue_expired(TaskId(2));
        assert!(q.remove(TaskId(2)));
        assert!(q.remove(TaskId(1)));
        assert!(!q.remove(TaskId(3)));
        assert_eq!(q.nr_queued(), 0);
    }

    /// Migration prefers the tasks that will wait longest: the expired
    /// array from its back, then the active array from its back — the
    /// exact reverse of the order [`RunQueue::pick_next`] runs them in.
    #[test]
    fn migration_candidates_prefer_expired_and_low_prio() {
        let mut q = rq();
        for id in [1, 2, 3] {
            q.enqueue_active(TaskId(id));
        }
        for id in [4, 5] {
            q.enqueue_expired(TaskId(id));
        }
        let order: Vec<_> = q.iter_migration_candidates().collect();
        assert_eq!(order, [5, 4, 3, 2, 1].map(TaskId));
        let run: Vec<_> = std::iter::from_fn(|| q.pick_next()).collect();
        assert_eq!(run, [1, 2, 3, 4, 5].map(TaskId));
    }

    #[test]
    fn iter_all_includes_current() {
        let mut q = rq();
        q.set_current(Some(TaskId(9)));
        q.enqueue_active(TaskId(1));
        q.enqueue_expired(TaskId(2));
        let all: Vec<_> = q.iter_all().collect();
        assert_eq!(all, vec![TaskId(9), TaskId(1), TaskId(2)]);
    }
}
