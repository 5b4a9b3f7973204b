//! EBS fleet layer: a rack of simulated hosts behind one dispatcher.
//!
//! The paper evaluates energy-aware scheduling *within* one
//! multiprocessor. This crate scales the question out one level: N
//! independent host simulations (mixed [`TopologyPreset`] shapes), a
//! cluster [`Dispatcher`] that routes a shared open workload's
//! arrivals across them each epoch, and a rack-level [`PowerBudget`]
//! apportioned to hosts and enforced jointly with each host's own
//! `hlt`/DVFS governor.
//!
//! Every host is a [`ebs_sim::SimEngine`] trait object built through
//! [`ebs_sim::build_engine`], so a fleet can mix one-tick, strided,
//! and partitioned-parallel hosts without caring which is which. Hosts step concurrently between dispatcher epochs via
//! [`ebs_sim::map_parallel`]; runs are seed-deterministic and
//! worker-count-invariant (see `tests/determinism.rs`).
//!
//! [`TopologyPreset`]: ebs_topology::TopologyPreset
//!
//! # Example
//!
//! ```
//! use ebs_fleet::{DispatchPolicy, Fleet, FleetConfig, PowerBudget};
//! use ebs_sim::SimConfig;
//! use ebs_topology::TopologyPreset;
//! use ebs_units::{SimDuration, Watts};
//! use ebs_workloads::{catalog, OpenWorkload};
//!
//! let workload = OpenWorkload::new(vec![catalog::aluadd(), catalog::memrw()], 8.0)
//!     .service_work(200_000_000, 500_000_000);
//! let cfg = FleetConfig::new(
//!     SimConfig::xseries445().energy_aware(true).strided(),
//!     vec![TopologyPreset::Dual, TopologyPreset::XSeries445 { smt: false }],
//!     workload,
//! )
//! .seed(7)
//! .dispatch(DispatchPolicy::PowerAware)
//! .budget(PowerBudget::rack(Watts(512.0)))
//! .epoch(SimDuration::from_millis(250));
//! let mut fleet = Fleet::new(cfg);
//! fleet.run(8); // eight dispatcher epochs = 2 s
//! let report = fleet.report();
//! assert_eq!(report.hosts, 2);
//! assert!(report.instructions_retired > 0);
//! ```

mod budget;
mod dispatch;
mod fleet;

pub use budget::PowerBudget;
pub use dispatch::{DispatchPolicy, Dispatcher, HostStat};
pub use fleet::{worker_divergence, EpochMetrics, Fleet, FleetConfig, FleetReport, CSV_HEADER};
