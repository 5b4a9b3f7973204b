//! Live tasks behind monotone ids.
//!
//! Task ids count up forever — sleeper tie-breaks, trace events and
//! every simulated outcome name tasks by them — but a task's record is
//! only needed while it lives. [`TaskTable`] keeps a window over the
//! ids, from the oldest live id to the next id to hand out: a lookup is
//! one subtraction and one bounds check, and the window always starts
//! at the oldest live task. Memory is bounded by the span of live ids
//! (arrival rate × the oldest live task's age), not by every task ever
//! spawned.

use crate::task::TaskId;

/// Records of live tasks, addressed by their [`TaskId`].
#[derive(Clone, Debug)]
pub struct TaskTable<T> {
    /// Id of `slots[0]`.
    base: u64,
    /// One slot per id in `base..next_id()`; `None` marks a task that
    /// already left.
    slots: Vec<Option<T>>,
    /// Position of the window's first slot: the oldest live task, or
    /// the end when no task lives. The dead slots before it are
    /// dropped in bulk once they fill half the vector, so a removal
    /// costs amortised O(1) and the vector stays under twice the
    /// window.
    head: usize,
    /// Number of `Some` slots.
    live: usize,
}

impl<T> Default for TaskTable<T> {
    fn default() -> Self {
        TaskTable::new()
    }
}

impl<T> TaskTable<T> {
    /// An empty table whose first id is 0.
    pub fn new() -> Self {
        TaskTable {
            base: 0,
            slots: Vec::new(),
            head: 0,
            live: 0,
        }
    }

    /// The id the next [`TaskTable::insert`] takes.
    pub fn next_id(&self) -> TaskId {
        TaskId(self.base + self.slots.len() as u64)
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no task lives.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Ids the window spans, from the oldest live id to the next id.
    pub fn span(&self) -> usize {
        self.slots.len() - self.head
    }

    /// Stores `value` under the next id and returns that id.
    pub fn insert(&mut self, value: T) -> TaskId {
        let id = self.next_id();
        self.slots.push(Some(value));
        self.live += 1;
        id
    }

    /// Position of `id` in `slots`. An id before `base` wraps to a
    /// position past the end, so the slot lookup's own bounds check
    /// rejects ids on both sides.
    #[inline]
    fn slot(&self, id: TaskId) -> usize {
        id.0.wrapping_sub(self.base) as usize
    }

    /// The record of `id`, or `None` when it is not live.
    #[inline]
    pub fn get(&self, id: TaskId) -> Option<&T> {
        self.slots.get(self.slot(id))?.as_ref()
    }

    /// The record of `id` for update, or `None` when it is not live.
    #[inline]
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut T> {
        let i = self.slot(id);
        self.slots.get_mut(i)?.as_mut()
    }

    /// Takes the record of `id` out of the table; the window then
    /// starts at the oldest task still live.
    pub fn remove(&mut self, id: TaskId) -> Option<T> {
        let i = self.slot(id);
        let value = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while self.slots.get(self.head).is_some_and(Option::is_none) {
            self.head += 1;
        }
        if self.head * 2 >= self.slots.len() {
            self.slots.drain(..self.head);
            self.base += self.head as u64;
            self.head = 0;
        }
        Some(value)
    }

    /// Live records in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &T)> + '_ {
        let first = self.base + self.head as u64;
        self.slots[self.head..]
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (TaskId(first + i as u64), v)))
    }

    /// Live ids in order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Saves the window: its first id, then one presence flag per id up
    /// to the next id, each live record written by `f`.
    pub fn save_with(
        &self,
        w: &mut ebs_store::StateWriter,
        mut f: impl FnMut(&mut ebs_store::StateWriter, &T),
    ) {
        w.u64(self.base + self.head as u64);
        w.seq(&self.slots[self.head..], |w, slot| w.opt(slot, &mut f));
    }

    /// Reads a window written by [`TaskTable::save_with`], each live
    /// record by `f`, which is given the record's id. An image spells
    /// out every id of its window, so what restore allocates is bounded
    /// by the image's own length.
    ///
    /// # Errors
    ///
    /// [`ebs_store::StoreError::Invalid`] when the window does not
    /// start at a live id or its end overflows the id space; otherwise
    /// any failure of `f`.
    pub fn restore_with(
        r: &mut ebs_store::StateReader<'_>,
        mut f: impl FnMut(&mut ebs_store::StateReader<'_>, TaskId) -> Result<T, ebs_store::StoreError>,
    ) -> Result<Self, ebs_store::StoreError> {
        let base = r.u64()?;
        let mut next = base;
        let slots = r.seq(|r| {
            let id = TaskId(next);
            next = next.checked_add(1).ok_or_else(|| {
                ebs_store::StoreError::Invalid(format!("task window from task{base} overflows"))
            })?;
            r.opt(|r| f(r, id))
        })?;
        if slots.first().is_some_and(Option::is_none) {
            return Err(ebs_store::StoreError::Invalid(format!(
                "task window starts at task{base}, which is not live"
            )));
        }
        Ok(TaskTable {
            base,
            live: slots.iter().filter(|slot| slot.is_some()).count(),
            slots,
            head: 0,
        })
    }
}

impl<T> std::ops::Index<TaskId> for TaskTable<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    fn index(&self, id: TaskId) -> &T {
        self.get(id).unwrap_or_else(|| not_live(id))
    }
}

impl<T> std::ops::IndexMut<TaskId> for TaskTable<T> {
    #[inline]
    fn index_mut(&mut self, id: TaskId) -> &mut T {
        self.get_mut(id).unwrap_or_else(|| not_live(id))
    }
}

/// The panic of a lookup that misses, kept off the lookup's own path.
#[cold]
#[inline(never)]
fn not_live(id: TaskId) -> ! {
    panic!("{id} is not live")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_store::StateWriter;

    #[test]
    fn ids_count_up_and_removal_drops_the_dead_prefix() {
        let mut t = TaskTable::new();
        let ids: Vec<TaskId> = (0..5).map(|v| t.insert(v * 10)).collect();
        assert_eq!(ids, (0..5).map(TaskId).collect::<Vec<_>>());
        assert_eq!((t.len(), t.span(), t.next_id()), (5, 5, TaskId(5)));
        // A hole in the middle keeps the window.
        assert_eq!(t.remove(TaskId(2)), Some(20));
        assert_eq!((t.len(), t.span()), (4, 5));
        assert_eq!(t.get(TaskId(2)), None);
        assert_eq!(t.remove(TaskId(2)), None);
        // Removing the oldest drops it and every dead id behind it.
        t.remove(TaskId(0));
        assert_eq!((t.span(), t.get(TaskId(0))), (4, None));
        t.remove(TaskId(1));
        assert_eq!((t.len(), t.span()), (2, 2));
        assert_eq!(t.ids().collect::<Vec<_>>(), [TaskId(3), TaskId(4)]);
        // Ids keep counting past removed ones, and stale or future ids
        // miss.
        assert_eq!(t.insert(50), TaskId(5));
        assert_eq!(t[TaskId(5)], 50);
        assert_eq!(t.get(TaskId(0)), None);
        assert_eq!(t.get(TaskId(6)), None);
        *t.get_mut(TaskId(4)).expect("live") += 1;
        assert_eq!(t[TaskId(4)], 41);
        for id in [TaskId(3), TaskId(4), TaskId(5)] {
            t.remove(id);
        }
        assert!(t.is_empty());
        assert_eq!((t.span(), t.next_id()), (0, TaskId(6)));
    }

    /// Dead slots before the window are dropped in bulk, so the
    /// vector stays under twice the window however long ids count.
    #[test]
    fn memory_follows_the_window() {
        let mut t = TaskTable::new();
        for round in 0..50u64 {
            for v in 0..10 {
                t.insert(round * 10 + v);
            }
            for id in (round * 10)..(round * 10 + 8) {
                t.remove(TaskId(id));
                assert!(t.slots.len() <= 2 * t.span(), "{} slots", t.slots.len());
            }
        }
        assert_eq!((t.len(), t.next_id()), (100, TaskId(500)));
        // Only the oldest live id bounds the window: 8 of every 10
        // ids left, but the first round's last two still live.
        assert_eq!(t.span(), 492);
        t.remove(TaskId(8));
        t.remove(TaskId(9));
        assert_eq!(t.span(), 482);
        assert!(t.slots.len() <= 2 * t.span());
    }

    #[test]
    #[should_panic(expected = "task1 is not live")]
    fn indexing_a_removed_id_panics() {
        let mut t = TaskTable::new();
        t.insert('a');
        let id = t.insert('b');
        t.remove(id);
        let _ = t[id];
    }

    fn image(t: &TaskTable<u64>) -> ebs_store::StateImage {
        let mut w = StateWriter::new();
        t.save_with(&mut w, |w, &v| w.u64(v));
        w.finish()
    }

    fn restore(image: &ebs_store::StateImage) -> Result<TaskTable<u64>, ebs_store::StoreError> {
        TaskTable::restore_with(&mut image.open().expect("sealed"), |r, _| r.u64())
    }

    #[test]
    fn a_window_round_trips_with_its_ids() {
        let mut t = TaskTable::new();
        for v in 0..6 {
            t.insert(v);
        }
        for id in [0, 1, 3, 5] {
            t.remove(TaskId(id));
        }
        let back = restore(&image(&t)).expect("a valid window");
        assert_eq!(back.next_id(), TaskId(6));
        assert_eq!(back.span(), t.span());
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            t.iter().collect::<Vec<_>>()
        );
        // An empty table keeps its next id.
        let mut empty = TaskTable::new();
        let id = empty.insert(7);
        empty.remove(id);
        let back = restore(&image(&empty)).expect("an empty window");
        assert_eq!((back.len(), back.next_id()), (0, TaskId(1)));
    }

    #[test]
    fn restore_refuses_a_window_starting_at_a_dead_id() {
        let mut w = StateWriter::new();
        w.u64(4);
        w.usize(2);
        w.opt(&None::<u64>, |w, &v| w.u64(v));
        w.opt(&Some(9u64), |w, &v| w.u64(v));
        let err = restore(&w.finish()).expect_err("a dead first id");
        assert_eq!(
            err,
            ebs_store::StoreError::Invalid("task window starts at task4, which is not live".into())
        );
    }

    #[test]
    fn restore_refuses_a_window_past_the_id_space() {
        let mut w = StateWriter::new();
        w.u64(u64::MAX);
        w.usize(2);
        assert!(matches!(
            restore(&w.finish()),
            Err(ebs_store::StoreError::Invalid(msg)) if msg.contains("overflows")
        ));
    }
}
