//! Energy-aware multiprocessor scheduling — the primary contribution of
//! Merkel & Bellosa, *Balancing Power Consumption in Multiprocessor
//! Systems* (EuroSys 2006).
//!
//! The crate implements the paper's policy layer on top of the
//! `ebs-sched` substrate:
//!
//! - [`EnergyEstimator`] (Section 3.2): reads the event-monitoring
//!   counters on every task switch and timeslice end and converts the
//!   deltas into energy via the calibrated linear model.
//! - Task energy profiles (Section 3.3) live on `ebs_sched::Task`; the
//!   estimator feeds them through the variable-period exponential
//!   average.
//! - [`PowerState`] (Section 4.3): the per-CPU scheduling metrics —
//!   *thermal power* (an exponential average calibrated to the RC time
//!   constant, so it tracks temperature while staying a power),
//!   *maximum power* (the per-CPU budget derived from its cooling), and
//!   the *runqueue power*/*thermal power ratios* built from them.
//! - [`EnergyAwareBalancer`] (Section 4.4, Fig. 4): the merged
//!   energy-and-load balancing algorithm walking the scheduler-domain
//!   hierarchy.
//! - [`HotTaskMigrator`] (Section 4.5, Fig. 5): migrating a lone hot
//!   task away from a nearly-overheating CPU, with the SMT adaptations
//!   of Section 4.7.
//! - [`PlacementTable`] / [`place_new_task`] (Section 4.6): initial
//!   placement of new tasks using first-timeslice energy per binary.

mod energy_balance;
mod estimator;
mod hot_migration;
mod metrics;
mod placement;

pub use energy_balance::{EnergyAwareBalancer, EnergyBalanceConfig};
pub use estimator::EnergyEstimator;
pub use hot_migration::{HotMigration, HotTaskConfig, HotTaskMigrator};
pub use metrics::{
    group_runqueue_ratio, runqueue_power, runqueue_power_ratio, GroupRatioCache, PowerState,
    PowerStateConfig,
};
pub use placement::{place_new_task, PlacementTable};
