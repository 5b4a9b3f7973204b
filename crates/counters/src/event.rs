//! The set of counted processor events.
//!
//! The paper's estimator runs on a Pentium 4 and counts a fixed set of
//! events that correlate with energy-relevant chip activity. We model a
//! nine-event set: elapsed unhalted cycles (which folds the static,
//! activity-independent part of the power into the linear model, as in
//! Bellosa's event-driven accounting) plus eight activity events.

use core::fmt;
use core::ops::{Add, AddAssign, Index, IndexMut, Sub};

/// Number of simultaneously counted events.
pub const N_EVENTS: usize = 9;

/// A processor event observable through the event-monitoring counters.
///
/// The discriminants double as indices into [`EventCounts`] and
/// [`crate::EventRates`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(usize)]
pub enum EventKind {
    /// Unhalted clock cycles. Carries the static (per-cycle) power.
    Cycles = 0,
    /// Retired micro-operations; the bulk of dynamic integer power.
    UopsRetired = 1,
    /// Retired floating-point micro-operations (x87/SSE).
    FpUops = 2,
    /// Retired load micro-operations hitting the L1.
    MemLoads = 3,
    /// Retired store micro-operations.
    MemStores = 4,
    /// L2 cache references (L1 misses).
    L2References = 5,
    /// L2 cache misses.
    L2Misses = 6,
    /// Front-side-bus transactions (memory traffic).
    BusTransactions = 7,
    /// Mispredicted branches (pipeline flush energy).
    BranchMispredictions = 8,
}

impl EventKind {
    /// All events, in index order.
    pub const ALL: [EventKind; N_EVENTS] = [
        EventKind::Cycles,
        EventKind::UopsRetired,
        EventKind::FpUops,
        EventKind::MemLoads,
        EventKind::MemStores,
        EventKind::L2References,
        EventKind::L2Misses,
        EventKind::BusTransactions,
        EventKind::BranchMispredictions,
    ];

    /// The event's index into count/rate vectors.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// A short mnemonic resembling the hardware event name.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            EventKind::Cycles => "global_power_events",
            EventKind::UopsRetired => "uops_retired",
            EventKind::FpUops => "x87_fp_uop",
            EventKind::MemLoads => "ld_port_replay",
            EventKind::MemStores => "st_port_replay",
            EventKind::L2References => "bsq_cache_reference",
            EventKind::L2Misses => "bsq_cache_miss",
            EventKind::BusTransactions => "fsb_data_activity",
            EventKind::BranchMispredictions => "mispred_branch_retired",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A vector of event occurrence counts, one entry per [`EventKind`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EventCounts([u64; N_EVENTS]);

impl EventCounts {
    /// The all-zero count vector.
    pub const ZERO: EventCounts = EventCounts([0; N_EVENTS]);

    /// Creates counts from a raw array (index order of [`EventKind::ALL`]).
    pub const fn from_array(counts: [u64; N_EVENTS]) -> Self {
        EventCounts(counts)
    }

    /// The raw array, in index order.
    pub const fn as_array(&self) -> &[u64; N_EVENTS] {
        &self.0
    }

    /// Count for one event.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.0[kind.index()]
    }

    /// Total number of events across all kinds (useful as a cheap
    /// activity proxy in tests).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }
}

impl Index<EventKind> for EventCounts {
    type Output = u64;
    fn index(&self, kind: EventKind) -> &u64 {
        &self.0[kind.index()]
    }
}

impl IndexMut<EventKind> for EventCounts {
    fn index_mut(&mut self, kind: EventKind) -> &mut u64 {
        &mut self.0[kind.index()]
    }
}

impl Add for EventCounts {
    type Output = EventCounts;
    fn add(self, rhs: EventCounts) -> EventCounts {
        let mut out = [0u64; N_EVENTS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.0[i] + rhs.0[i];
        }
        EventCounts(out)
    }
}

impl AddAssign for EventCounts {
    #[inline]
    fn add_assign(&mut self, rhs: EventCounts) {
        for i in 0..N_EVENTS {
            self.0[i] += rhs.0[i];
        }
    }
}

impl Sub for EventCounts {
    type Output = EventCounts;
    /// Component-wise difference.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component underflows.
    fn sub(self, rhs: EventCounts) -> EventCounts {
        let mut out = [0u64; N_EVENTS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.0[i] - rhs.0[i];
        }
        EventCounts(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_index_once() {
        let mut seen = [false; N_EVENTS];
        for kind in EventKind::ALL {
            assert!(!seen[kind.index()], "duplicate index {}", kind.index());
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mnemonics_are_unique() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a.mnemonic(), b.mnemonic());
            }
        }
    }

    #[test]
    fn indexing_round_trips() {
        let mut counts = EventCounts::ZERO;
        counts[EventKind::L2Misses] = 42;
        assert_eq!(counts.get(EventKind::L2Misses), 42);
        assert_eq!(counts[EventKind::L2Misses], 42);
        assert_eq!(counts.get(EventKind::Cycles), 0);
    }

    #[test]
    fn addition_and_total() {
        let a = EventCounts::from_array([1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = EventCounts::from_array([9, 8, 7, 6, 5, 4, 3, 2, 1]);
        let sum = a + b;
        assert_eq!(sum.as_array(), &[10; N_EVENTS]);
        assert_eq!(sum.total(), 90);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, sum);
    }

    #[test]
    fn subtraction_and_saturation() {
        let a = EventCounts::from_array([5, 5, 5, 5, 5, 5, 5, 5, 5]);
        let b = EventCounts::from_array([1, 2, 3, 4, 5, 0, 0, 0, 0]);
        assert_eq!(a - b, EventCounts::from_array([4, 3, 2, 1, 0, 5, 5, 5, 5]));
        // Counts neither saturate nor wrap: a component that would go
        // negative panics.
        #[cfg(debug_assertions)]
        assert!(std::panic::catch_unwind(|| b - a).is_err());
    }

    #[test]
    fn zero_predicate() {
        assert!(EventCounts::ZERO.is_zero());
        assert!(!EventCounts::from_array([0, 0, 0, 1, 0, 0, 0, 0, 0]).is_zero());
    }
}
