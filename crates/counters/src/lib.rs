//! Simulated event-monitoring counters and counter-based energy
//! estimation.
//!
//! Merkel & Bellosa estimate the energy a CPU spends during an interval
//! as a linear combination of event-monitoring counter values (Eq. 1):
//!
//! ```text
//! E = sum(i = 1..n) a_i * c_i
//! ```
//!
//! where `c_i` is the number of occurrences of event `i` during the
//! interval and `a_i` is a per-event energy weight calibrated against a
//! multimeter. This crate provides the whole pipeline in simulation:
//!
//! - [`EventKind`]/[`EventCounts`]: the counted events, modelled after
//!   the Pentium 4 event set used by the paper's estimator.
//! - [`EventRates`]: per-cycle event rates; a program phase is described
//!   by such a vector, and executing `n` cycles retires `rate * n`
//!   events ([`EventRates::counts_for_cycles`]): the counts a CPU's
//!   counters would advance by over the interval.
//! - [`EnergyModel`]: weights `a_i` plus the evaluation of Eq. 1. The
//!   simulator's *ground-truth* model and the estimator's *calibrated*
//!   model are both instances of this type.
//! - [`calibration`]: recovers weights from noisy "multimeter" readings
//!   by least squares, reproducing the <10 % estimation error regime the
//!   paper reports for the real implementation.
//!
//! # Examples
//!
//! ```
//! use ebs_counters::{EnergyModel, EventRates};
//!
//! let model = EnergyModel::ground_truth_weights();
//! let rates = EventRates::builder()
//!     .uops_retired(2.0)
//!     .mem_loads(0.3)
//!     .build();
//! // The events of 2.2e9 cycles (one second at 2.2 GHz) of this phase,
//! // and their Eq. 1 energy.
//! let counts = rates.counts_for_cycles(2_200_000_000);
//! let energy = model.estimate(&counts);
//! assert!(energy.0 > 0.0);
//! ```

mod energy_model;
mod event;
mod rates;

pub mod calibration;
pub mod linalg;

pub use energy_model::{EnergyModel, GroundTruth, LeakageModel};
pub use event::{EventCounts, EventKind, N_EVENTS};
pub use rates::{ceil_count, nearest_count, EventRates};
