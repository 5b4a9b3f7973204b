//! Observability for the EBS workspace: structured event traces, a
//! metrics registry, a Perfetto/Chrome trace-event exporter, engine
//! self-profiling, and trace diffing.
//!
//! The paper's evidence *is* traces — thermal-power curves (Figs. 6/7)
//! and task-to-CPU placement timelines (Fig. 9) — and this crate turns
//! the simulator's internals into first-class observable streams:
//!
//! - [`EventKind`]/[`TraceEvent`]: typed scheduling-relevant events
//!   (context switches, wakeups, migrations with reasons, arrivals and
//!   completions, governor decisions and P-state transitions, throttle
//!   flips, balancer rounds, engine strides), collected in the
//!   [`EventTrace`] buffer.
//! - [`MetricsRegistry`]: named monotonic counters and instantaneous
//!   gauges, registered by subsystem, snapshotted periodically into a
//!   time-series CSV.
//! - [`perfetto`]: renders an event stream plus gauge snapshots as
//!   Chrome trace-event JSON — per-CPU tracks with task slices,
//!   instants for policy decisions (on per-package or per-frequency-
//!   domain tracks, matching the machine's domain scope), counter
//!   tracks for thermal power, per-domain frequency, runqueue depth,
//!   and utilization — openable directly in `ui.perfetto.dev`.
//! - [`PhaseProfiler`]: host wall-time accounting per engine phase,
//!   the baseline for any future parallel engine core.
//! - [`first_divergence`]: trace diffing, so two runs that drift can be
//!   pinned to the first divergent event instead of eyeballed CSVs.
//!
//! The crate depends only on `ebs-units`: events carry raw ids
//! (`u64` tasks/binaries, `u32` CPUs/packages), so every layer of the
//! workspace can emit into it without dependency cycles.

mod diff;
mod event;
mod json;
mod metrics;
pub mod perfetto;
mod profile;

pub use diff::{first_divergence, Divergence};
pub use event::{merge_streams, EventKind, EventTrace, TraceEvent};
pub use json::{parse as parse_json, Json};
pub use metrics::{CounterId, GaugeId, MetricsRegistry};
pub use profile::{PhaseProfiler, PhaseRow};
