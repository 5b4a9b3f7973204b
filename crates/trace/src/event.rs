//! Typed scheduling events and the trace sinks that collect them.

use core::fmt;
use ebs_units::{SimDuration, SimTime};

/// One scheduling-relevant event. Identities are raw ids (`u64` tasks
/// and binaries, `u32` CPUs and packages) so producers anywhere in the
/// workspace can emit events without depending on scheduler types.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// One engine step of the given span completed.
    EngineStep { stride: SimDuration },
    /// A task entered the system (explicit spawn, respawn, or open
    /// arrival) and was placed on a CPU.
    Spawn { task: u64, cpu: u32, binary: u64 },
    /// A blocked task woke up and re-entered its runqueue.
    Wakeup { task: u64 },
    /// A CPU switched to running `Some(task)`, or went idle (`None`).
    ContextSwitch { cpu: u32, task: Option<u64> },
    /// A migrated task was dispatched on its new CPU.
    Migration {
        task: u64,
        cpu: u32,
        reason: &'static str,
    },
    /// A task finished its total work.
    Completion { task: u64, cpu: u32 },
    /// A governor decided a P-state for a frequency domain. The
    /// `package` field carries the *domain* index — under per-package
    /// scope domain `i` is package `i` (the historical meaning), under
    /// per-core scope it is the machine-global domain number.
    GovernorDecision { package: u32, pstate: u32 },
    /// The decided P-state differed from the previous one. Keyed like
    /// [`EventKind::GovernorDecision`]: the `package` field is the
    /// frequency-domain index.
    PStateTransition { package: u32, from: u32, to: u32 },
    /// The throttle controller halted a package.
    ThrottleEngage { package: u32 },
    /// The throttle controller released a halted package.
    ThrottleRelease { package: u32 },
    /// A balancer round on a CPU pulled tasks.
    BalancerRound { cpu: u32, pulled: u32 },
}

impl EventKind {
    /// Short stable label of the event class (metrics names, diffs).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::EngineStep { .. } => "step",
            EventKind::Spawn { .. } => "spawn",
            EventKind::Wakeup { .. } => "wakeup",
            EventKind::ContextSwitch { .. } => "switch",
            EventKind::Migration { .. } => "migration",
            EventKind::Completion { .. } => "completion",
            EventKind::GovernorDecision { .. } => "governor",
            EventKind::PStateTransition { .. } => "pstate",
            EventKind::ThrottleEngage { .. } => "throttle-engage",
            EventKind::ThrottleRelease { .. } => "throttle-release",
            EventKind::BalancerRound { .. } => "balance",
        }
    }

    /// The CPU the event is anchored to, if it has one.
    pub fn cpu(&self) -> Option<u32> {
        match *self {
            EventKind::Spawn { cpu, .. }
            | EventKind::ContextSwitch { cpu, .. }
            | EventKind::Migration { cpu, .. }
            | EventKind::Completion { cpu, .. }
            | EventKind::BalancerRound { cpu, .. } => Some(cpu),
            _ => None,
        }
    }

    /// The event with its CPU, package, and frequency-domain ids
    /// shifted by the given offsets — used when per-partition streams
    /// from the parallel engine (each numbered from zero) merge into
    /// one machine-global stream. Governor and P-state events shift by
    /// `domain_offset` (their id field is a domain index, which under
    /// per-core scope advances by domains-per-package per partition);
    /// throttle events shift by `package_offset`. Task ids stay
    /// partition-local: partitions allocate them independently, so no
    /// global renumbering exists.
    #[must_use]
    pub fn offset_ids(self, cpu_offset: u32, package_offset: u32, domain_offset: u32) -> EventKind {
        match self {
            EventKind::Spawn { task, cpu, binary } => EventKind::Spawn {
                task,
                cpu: cpu + cpu_offset,
                binary,
            },
            EventKind::ContextSwitch { cpu, task } => EventKind::ContextSwitch {
                cpu: cpu + cpu_offset,
                task,
            },
            EventKind::Migration { task, cpu, reason } => EventKind::Migration {
                task,
                cpu: cpu + cpu_offset,
                reason,
            },
            EventKind::Completion { task, cpu } => EventKind::Completion {
                task,
                cpu: cpu + cpu_offset,
            },
            EventKind::BalancerRound { cpu, pulled } => EventKind::BalancerRound {
                cpu: cpu + cpu_offset,
                pulled,
            },
            EventKind::GovernorDecision { package, pstate } => EventKind::GovernorDecision {
                package: package + domain_offset,
                pstate,
            },
            EventKind::PStateTransition { package, from, to } => EventKind::PStateTransition {
                package: package + domain_offset,
                from,
                to,
            },
            EventKind::ThrottleEngage { package } => EventKind::ThrottleEngage {
                package: package + package_offset,
            },
            EventKind::ThrottleRelease { package } => EventKind::ThrottleRelease {
                package: package + package_offset,
            },
            e @ (EventKind::EngineStep { .. } | EventKind::Wakeup { .. }) => e,
        }
    }
}

/// Merges per-partition event streams — each already in timestamp
/// order — into one stream in global timestamp order. Ties break by
/// stream index (then intra-stream order), so the merge is
/// deterministic.
pub fn merge_streams(streams: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = streams.into_iter().flatten().collect();
    // Stable sort: equal timestamps keep the flattened (stream index,
    // position) order.
    all.sort_by_key(|e| e.t);
    all
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventKind::EngineStep { stride } => write!(f, "step {stride}"),
            EventKind::Spawn { task, cpu, binary } => {
                write!(f, "spawn task{task} (bin{binary}) on cpu{cpu}")
            }
            EventKind::Wakeup { task } => write!(f, "wakeup task{task}"),
            EventKind::ContextSwitch { cpu, task: Some(t) } => {
                write!(f, "cpu{cpu} switch -> task{t}")
            }
            EventKind::ContextSwitch { cpu, task: None } => write!(f, "cpu{cpu} switch -> idle"),
            EventKind::Migration { task, cpu, reason } => {
                write!(f, "task{task} migrated to cpu{cpu} ({reason})")
            }
            EventKind::Completion { task, cpu } => write!(f, "task{task} completed on cpu{cpu}"),
            EventKind::GovernorDecision { package, pstate } => {
                write!(f, "pkg{package} governor -> P{pstate}")
            }
            EventKind::PStateTransition { package, from, to } => {
                write!(f, "pkg{package} P{from} -> P{to}")
            }
            EventKind::ThrottleEngage { package } => write!(f, "pkg{package} throttle engaged"),
            EventKind::ThrottleRelease { package } => write!(f, "pkg{package} throttle released"),
            EventKind::BalancerRound { cpu, pulled } => {
                write!(f, "cpu{cpu} balance pulled {pulled}")
            }
        }
    }
}

/// An event stamped with the simulated instant it occurred at.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// When the event occurred.
    pub t: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {}", self.t, self.kind)
    }
}

/// The engine's event sink: an append-only in-memory event buffer.
#[derive(Clone, Debug, Default)]
pub struct EventTrace {
    buf: Vec<TraceEvent>,
}

impl EventTrace {
    /// An empty event buffer.
    pub fn new() -> Self {
        EventTrace::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// The buffered events as a contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.buf.clone()
    }

    /// Records one event at instant `t`.
    pub fn record(&mut self, t: SimTime, kind: EventKind) {
        self.buf.push(TraceEvent { t, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_buffer_keeps_everything_in_order() {
        let mut trace = EventTrace::new();
        for i in 0..100 {
            trace.record(SimTime::from_millis(i), EventKind::Wakeup { task: i });
        }
        assert_eq!(trace.len(), 100);
        let v = trace.to_vec();
        assert_eq!(v[0].kind, EventKind::Wakeup { task: 0 });
        assert_eq!(v[99].t, SimTime::from_millis(99));
    }

    #[test]
    fn display_is_readable() {
        let ev = TraceEvent {
            t: SimTime::from_millis(1500),
            kind: EventKind::Migration {
                task: 7,
                cpu: 3,
                reason: "hot-task",
            },
        };
        assert_eq!(
            format!("{ev}"),
            "[t+1.500000s] task7 migrated to cpu3 (hot-task)"
        );
        assert_eq!(ev.kind.label(), "migration");
        assert_eq!(ev.kind.cpu(), Some(3));
        assert_eq!(EventKind::Wakeup { task: 1 }.cpu(), None);
    }
}
