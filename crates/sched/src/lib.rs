//! Multiprocessor scheduler substrate.
//!
//! This crate is the stand-in for the Linux 2.6.10 scheduler the paper
//! modifies (Section 5): per-CPU runqueues with active and expired FIFO
//! arrays, one fixed timeslice, task states, migration machinery, and
//! the stock hierarchical load balancer. The energy-aware policies of
//! `ebs-core` plug into this substrate exactly where the paper patched
//! Linux:
//!
//! - the load-balancing algorithm is replaceable (the paper *merges*
//!   energy balancing into it, Fig. 4),
//! - a running task can be pushed to another CPU (hot task migration,
//!   Fig. 5),
//! - the placement of newly started tasks is a policy hook
//!   (Section 4.6).
//!
//! Simplifications relative to real Linux 2.6 are documented on the
//! items concerned; the main ones are one static priority for every
//! task (no nice levels and no interactive bonus — the evaluation
//! workloads are CPU hogs at default priority) and load measured as
//! runqueue length (which is what the paper balances).
//!
//! # Examples
//!
//! ```
//! use ebs_sched::{System, TaskConfig};
//! use ebs_topology::{CpuId, Topology};
//!
//! let mut sys = System::new(Topology::xseries445(false));
//! let t = sys.spawn(TaskConfig::default(), CpuId(0));
//! let next = sys.context_switch(CpuId(0)).next;
//! assert_eq!(next, Some(t));
//! ```

mod aggregates;
mod load_balance;
mod runqueue;
mod system;
mod task;
mod task_table;

pub use aggregates::{AggCell, LoadAggregates};
pub use load_balance::{
    balance_domain, busiest_queue_in_group, busiest_queued_cpu, find_busiest_group,
    group_effective_load, idlest_cpu, pull_tasks, BalanceOutcome, BalanceTimers, LoadBalancer,
    LoadBalancerConfig,
};
pub use runqueue::RunQueue;
pub use system::{MigrateError, MigrationReason, SwitchResult, System, SystemStats, TickResult};
pub use task::{BinaryId, Task, TaskConfig, TaskId, TaskState, DEFAULT_TIMESLICE, PROFILE_WEIGHT};
pub use task_table::TaskTable;
