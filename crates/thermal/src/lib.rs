//! Thermal modelling for energy-aware scheduling.
//!
//! The paper couples its scheduler to a simple thermal model (Section
//! 4.2, Fig. 2): one thermal resistor (heat sink to ambient) and one
//! thermal capacitor (chip + heat sink mass), yielding exponential
//! temperature responses. On top of the physical model, the scheduler
//! works with *thermal power* (Section 4.3): an exponentially weighted
//! moving average of estimated power whose weight is calibrated to the
//! RC time constant, so that it tracks temperature while keeping the
//! dimension of a power.
//!
//! This crate provides:
//!
//! - [`ExpAverage`] / [`PowerAverage`]: the variable-period exponential
//!   average of Eq. 2, supporting arbitrary sampling intervals (a task
//!   "may block any time").
//! - [`RcThermalModel`] / [`ThermalNode`]: the RC network with exact
//!   exponential integration, per-CPU heterogeneous cooling, and the
//!   derived *maximum power* of a CPU.
//! - [`ThrottleController`]: the `hlt`-based bang-bang temperature
//!   control used in the evaluation (Section 6.2).

mod expavg;
mod rc_model;
mod throttle;

pub use expavg::{ExpAverage, PowerAverage};
pub use rc_model::{RcThermalModel, ThermalNode};
pub use throttle::{ThrottleController, ThrottleState, ThrottleStats};
