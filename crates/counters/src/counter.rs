//! Per-CPU counter banks.
//!
//! Each simulated logical CPU owns one [`CounterBank`]. The execution
//! engine records events into the bank as the CPU runs; the energy
//! estimator reads the bank *on every task switch and at the end of each
//! timeslice* (paper Section 5) and attributes the difference since the
//! previous read to the task that just ran.

use crate::event::EventCounts;

/// The event-monitoring counter registers of one logical CPU.
///
/// Counts are cumulative since the last [`CounterBank::reset`]. Hardware
/// counters wrap; at 64 bits a 2.2 GHz CPU would need centuries to wrap,
/// so the simulation treats counters as non-wrapping and the snapshot
/// diff uses saturating arithmetic purely as a defensive measure.
#[derive(Clone, Debug, Default)]
pub struct CounterBank {
    counts: EventCounts,
}

/// A point-in-time copy of a counter bank's registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    counts: EventCounts,
}

impl CounterBank {
    /// Creates a zeroed counter bank.
    pub fn new() -> Self {
        CounterBank::default()
    }

    /// Accumulates events observed during a stretch of execution.
    #[inline]
    pub fn record(&mut self, events: &EventCounts) {
        self.counts += *events;
    }

    /// Reads the current register values without disturbing them.
    #[inline]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            counts: self.counts,
        }
    }

    /// Clears all registers.
    pub fn reset(&mut self) {
        self.counts = EventCounts::ZERO;
    }
}

impl CounterSnapshot {
    /// A snapshot with all registers zero, for seeding the "previous
    /// read" at CPU bring-up.
    pub const ZERO: CounterSnapshot = CounterSnapshot {
        counts: EventCounts::ZERO,
    };

    /// The raw register values.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Events that occurred between `earlier` and `self`.
    pub fn since(&self, earlier: &CounterSnapshot) -> EventCounts {
        self.counts.saturating_sub(&earlier.counts)
    }
}

impl ebs_store::Snapshot for CounterBank {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        self.counts.save(w);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.counts.restore(r)
    }
}

impl ebs_store::Snapshot for CounterSnapshot {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        self.counts.save(w);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.counts.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventCounts, EventKind};

    fn counts(cycles: u64, uops: u64) -> EventCounts {
        let mut c = EventCounts::ZERO;
        c[EventKind::Cycles] = cycles;
        c[EventKind::UopsRetired] = uops;
        c
    }

    #[test]
    fn record_accumulates() {
        let mut bank = CounterBank::new();
        bank.record(&counts(100, 200));
        bank.record(&counts(50, 25));
        let snap = bank.snapshot();
        assert_eq!(snap.counts().get(EventKind::Cycles), 150);
        assert_eq!(snap.counts().get(EventKind::UopsRetired), 225);
    }

    #[test]
    fn snapshot_diff_attributes_interval() {
        let mut bank = CounterBank::new();
        bank.record(&counts(100, 200));
        let first = bank.snapshot();
        bank.record(&counts(70, 10));
        let second = bank.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.get(EventKind::Cycles), 70);
        assert_eq!(delta.get(EventKind::UopsRetired), 10);
    }

    #[test]
    fn diff_across_reset_saturates() {
        let mut bank = CounterBank::new();
        bank.record(&counts(100, 100));
        let before = bank.snapshot();
        bank.reset();
        bank.record(&counts(10, 10));
        let after = bank.snapshot();
        // The interval spans a reset: saturating diff yields zeros
        // rather than wrapping garbage.
        assert!(after.since(&before).is_zero());
    }

    #[test]
    fn zero_snapshot_is_identity_baseline() {
        let mut bank = CounterBank::new();
        bank.record(&counts(5, 7));
        let snap = bank.snapshot();
        assert_eq!(snap.since(&CounterSnapshot::ZERO), snap.counts());
    }
}
