//! Deterministic discrete-time simulation of the paper's testbed.
//!
//! The paper evaluates energy-aware scheduling on an IBM xSeries 445:
//! two NUMA nodes of four 2.2 GHz Pentium 4 Xeons, each two-way
//! multithreaded. This crate provides that machine in software —
//! counter-generating CPUs, RC thermal dynamics per package,
//! `hlt`-style throttling, SMT contention, and cache-affinity costs —
//! and drives the full scheduling stack over it — in 1 ms ticks, or in
//! variable strides to the next scheduling-relevant event once
//! `SimConfig::strided` lifts the stride cap (see the engine docs for
//! the equivalence guarantees):
//!
//! - every step, a running CPU retires event counts, and the
//!   [`ebs_core::EnergyEstimator`]'s calibrated Eq. 1 model charges
//!   their energy to the CPU's thermal power and to the running task's
//!   interval; a halted CPU is charged its halt share;
//! - a task's energy profile takes its interval's energy on every task
//!   switch and timeslice end;
//! - the configured policy (baseline load balancing, or the merged
//!   energy-aware balancer plus hot task migration plus energy-aware
//!   placement) moves tasks around;
//! - the throttle controller halts CPUs whose thermal power exceeds
//!   their maximum power.
//!
//! Everything is reproducible from the seed in [`SimConfig`].
//!
//! # Examples
//!
//! ```
//! use ebs_sim::{SimConfig, Simulation};
//! use ebs_units::SimDuration;
//! use ebs_workloads::section61_mix;
//!
//! let cfg = SimConfig::xseries445()
//!     .smt(false)
//!     .energy_aware(true)
//!     .seed(7);
//! let mut sim = Simulation::new(cfg);
//! sim.spawn_mix(&section61_mix(), 1);
//! sim.run_for(SimDuration::from_secs(2));
//! assert!(sim.report().instructions_retired > 0);
//! ```

mod api;
mod classes;
mod config;
mod counter_memo;
mod diag;
mod dvfs;
mod engine;
mod machine;
mod parallel;
mod runner;
mod runtime;
mod trace;

pub use api::{build_engine, EngineCounters, SimEngine, SojournCursor};
pub use classes::{ClassCatalog, CoreClass, DomainMap};
pub use config::{DvfsSpec, MaxPowerSpec, SimConfig};
pub use diag::{divergence_verdict, rel_dev, report_fingerprint, stride_divergence, traced_events};
pub use engine::{RoutedArrival, Simulation};
pub use machine::PhysicalMachine;
pub use parallel::{HandoffRecord, ParallelSimulation};
pub use runner::{
    default_workers, map_parallel, mean, run_configs, run_configs_with_workers, run_one, run_seeds,
};
pub use runtime::TaskRuntime;
pub use trace::{LatencyStats, SimReport, ThermalTrace};
