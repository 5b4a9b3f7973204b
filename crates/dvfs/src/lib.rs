//! Dynamic voltage/frequency scaling for the simulated testbed.
//!
//! Merkel & Bellosa's evaluation enforces thermal limits by executing
//! `hlt` — a blunt actuator that throws away whole timeslices — and
//! names voltage/frequency scaling as the obvious alternative it does
//! not model (Section 7). This crate supplies that alternative, so the
//! simulator can compare both enforcement mechanisms under the same
//! power budgets:
//!
//! - [`PState`] / [`PStateTable`]: the discrete frequency/voltage
//!   operating points of the simulated Pentium 4 Xeon. Dynamic power
//!   scales with `V² · f` and instruction throughput with `f`, so each
//!   state carries its [`PState::power_factor`] and
//!   [`PState::speed_factor`] relative to the nominal (fastest) state.
//! - [`FrequencyDomain`]: the scaling state of one clock/voltage
//!   plane; [`DomainScope`] sets the granularity (one plane per
//!   package — the paper's testbed, where SMT siblings share clock and
//!   thermal budget — or one per core for modern hybrid parts). Tracks
//!   per-state residency for reporting.
//! - [`Governor`]s deciding the next P-state: [`Fixed`] (pin a state),
//!   [`OnDemand`] (classic utilization-driven stepping), and
//!   [`ThermalAware`] (drives frequency from the same thermal-power
//!   exponential average the `hlt` throttle watches, but engages
//!   *before* the limit so the budget is never reached). Each decision
//!   also reports a [`DecisionHold`] — the signal bands within which
//!   the answer stands — so an event-driven engine re-decides on
//!   utilization/thermal *deltas* instead of a fixed cadence.
//!   [`Governor::decide`] takes `&self`: governors hold configuration
//!   only, so one instance serves every domain.
//!
//! # Examples
//!
//! ```
//! use ebs_dvfs::{FrequencyDomain, Governor, GovernorInput, PStateTable, ThermalAware};
//! use ebs_units::Watts;
//!
//! let mut domain = FrequencyDomain::new(PStateTable::p4_xeon());
//! let governor = ThermalAware::default();
//! // A package pulling 52 W of thermal power against a 40 W budget:
//! let input = GovernorInput {
//!     thermal_power: Watts(52.0),
//!     budget: Watts(40.0),
//!     idle_floor: Watts(13.6),
//!     utilization: 1.0,
//! };
//! let next = governor.decide(&input, &domain);
//! domain.set_state(next);
//! // The governor slowed the clock below nominal to fit the budget.
//! assert!(domain.speed_factor() < 1.0);
//! ```

mod domain;
mod governor;
mod pstate;

pub use domain::{DomainScope, FrequencyDomain, PStateResidency};
pub use governor::{
    DecisionHold, Fixed, Governor, GovernorInput, GovernorKind, OnDemand, ThermalAware,
};
pub use pstate::{PState, PStateTable};
