//! The parallel engine core: per-package simulation partitions with
//! their own event calendars, synchronized by conservative lookahead.
//!
//! The sequential cores advance all simulated CPUs in lockstep to the
//! nearest *global* event, so one saturated package floors every
//! package's stride. But the paper's policies are package-structured:
//! DVFS domains, throttling, and thermal state are per package, and
//! the balancing that crosses packages runs on multi-millisecond
//! intervals. This module exploits that structure:
//!
//! - Each package becomes a **partition** — a complete [`Simulation`]
//!   over a single-package topology, owning its runqueues, thermal
//!   state, frequency domain, and event trace.
//! - A **synchronizer** advances every partition through a shared
//!   *horizon* (the stride cap). Within a horizon, partitions share
//!   nothing, and the synchronizer steps them one after another in
//!   package order on the calling thread. The speed comes from the
//!   calendars: a partition's step advances only its own package's
//!   CPUs, where a global core's step advances every CPU of the
//!   machine.
//! - Partitions interact **only at horizon boundaries**: open-workload
//!   arrivals are routed to the least-loaded partition, and a
//!   cross-package handoff queue rebalances queued tasks from
//!   partitions with more runnable tasks than CPUs to partitions with
//!   spare capacity. Routing and handoffs are computed in
//!   partition-index order, so results are deterministic per seed.
//! - With [`SimConfig::profile_engine`] on, the synchronizer charges
//!   its host wall time per horizon to three phases — `route`, `step`
//!   (the partitions' own stepping) and `rebalance` — readable as
//!   [`ParallelSimulation::sync_profile`]. Profiling never changes a
//!   result and is never written into snapshots.
//!
//! # Determinism contract
//!
//! - `parallel(1)` (or a single-package topology) runs one partition
//!   spanning the whole machine — literally the strided core, so the
//!   report is **bit-identical** to `strided()`.
//! - `parallel(w)` for any `w ≥ 2` partitions per package. Beyond
//!   choosing one partition or one per package, the count selects
//!   nothing, so every `w ≥ 2` produces the same report, and every
//!   seed reproduces exactly.
//! - Multi-partition runs are a *different policy discretisation*
//!   than the global cores (cross-package balancing happens at
//!   horizon boundaries instead of continuously), so they agree with
//!   the sequential cores within the equivalence-suite tolerances,
//!   not bit-exactly. The arrival stream is still exact: one global
//!   [`ArrivalProcess`] owns it.

use crate::api::{EngineCounters, SojournCursor};
use crate::config::SimConfig;
use crate::engine::{RoutedArrival, Simulation};
use crate::trace::{merge_residency, phase_latencies, LatencyStats, SimReport};
use ebs_sched::MigrationReason;
use ebs_trace::{PhaseProfiler, TraceEvent};
use ebs_units::{Hertz, Joules, SimDuration, SimTime};
use ebs_workloads::{ArrivalProcess, Program};
use std::time::Instant;

/// Synchronizer-phase indices into the self-profiler (names below,
/// same order).
const PHASE_ROUTE: usize = 0;
const PHASE_STEP: usize = 1;
const PHASE_REBALANCE: usize = 2;
const PHASE_NAMES: [&str; 3] = ["route", "step", "rebalance"];

/// One cross-partition task handoff, recorded for the determinism
/// tests: handoffs must be identical for every `w ≥ 2` and applied
/// exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandoffRecord {
    /// The horizon boundary at which the handoff was applied.
    pub at: SimTime,
    /// Global sequence number (application order).
    pub seq: u64,
    /// Binary id of the moved task.
    pub binary: u64,
    /// Donating partition (package index).
    pub from_shard: usize,
    /// Receiving partition (package index).
    pub to_shard: usize,
}

/// The partitioned engine. See the module docs for the model and the
/// determinism contract; construction is driven by
/// [`SimConfig::parallel`].
pub struct ParallelSimulation {
    cfg: SimConfig,
    /// One partition per package (or a single whole-machine partition
    /// when one worker is requested or the topology has one package).
    shards: Vec<Simulation>,
    /// The global arrival process (multi-partition mode only; the
    /// single-partition fallback keeps it inside the engine).
    open: Option<ArrivalProcess>,
    now: SimTime,
    horizon: SimDuration,
    handoffs: Vec<HandoffRecord>,
    next_seq: u64,
    /// Host wall time per synchronizer phase (multi-partition mode
    /// with `profile_engine` only).
    profiler: Option<PhaseProfiler>,
}

impl ParallelSimulation {
    /// Builds the partitioned engine from a configuration (typically
    /// via [`SimConfig::parallel`]). With one worker or one package
    /// this constructs a single whole-machine partition — the strided
    /// core, bit-identical reports and all.
    ///
    /// # Panics
    ///
    /// If [`SimConfig::cooling_factors`] is set but does not hold one
    /// factor per package.
    pub fn new(cfg: SimConfig) -> Self {
        let workers = cfg.parallel_workers.unwrap_or(1).max(1);
        let n_packages = cfg.n_nodes * cfg.packages_per_node;
        assert!(
            cfg.cooling_factors.is_empty() || cfg.cooling_factors.len() == n_packages,
            "need one cooling factor per package"
        );
        let horizon = if cfg.strided_enabled() {
            cfg.max_stride
        } else {
            SimConfig::DEFAULT_MAX_STRIDE
        };
        if workers == 1 || n_packages == 1 {
            let mut inner = cfg.clone();
            inner.parallel_workers = None;
            return ParallelSimulation {
                shards: vec![Simulation::new(inner)],
                open: None,
                now: SimTime::ZERO,
                horizon,
                handoffs: Vec::new(),
                next_seq: 0,
                profiler: None,
                cfg,
            };
        }
        let shards = (0..n_packages)
            .map(|pkg| Simulation::new(shard_cfg(&cfg, pkg)))
            .collect();
        let open = cfg
            .open_workload
            .clone()
            .map(|spec| ArrivalProcess::new(spec, cfg.seed));
        ParallelSimulation {
            shards,
            open,
            now: SimTime::ZERO,
            horizon,
            handoffs: Vec::new(),
            next_seq: 0,
            profiler: cfg.profile_engine.then(|| PhaseProfiler::new(&PHASE_NAMES)),
            cfg,
        }
    }

    /// The configuration the engine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of partitions (1 = the sequential fallback).
    pub fn partitions(&self) -> usize {
        self.shards.len()
    }

    /// The recorded cross-partition handoffs, in application order.
    pub fn handoff_log(&self) -> &[HandoffRecord] {
        &self.handoffs
    }

    /// The synchronizer's self-profile: host wall time per horizon
    /// spent routing arrivals, stepping the partitions and
    /// rebalancing. `None` unless [`SimConfig::profile_engine`] is set
    /// and the machine runs more than one partition.
    pub fn sync_profile(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// Spawns one instance of a program on the least-loaded partition
    /// (ties go to the lowest package index). Mix spawning comes from
    /// the [`crate::SimEngine`] provided methods.
    pub fn spawn_program(&mut self, program: &Program) {
        let idx = least_loaded(self.shards.iter().map(Simulation::runnable_tasks));
        self.shards[idx].spawn_program(program);
    }

    /// Queues an externally routed arrival on the least-loaded
    /// partition, counting arrivals already sitting in partition
    /// inboxes so one-at-a-time routing spreads like
    /// [`route_arrivals`] does.
    pub(crate) fn queue_routed(&mut self, a: RoutedArrival) {
        let idx = least_loaded(
            self.shards
                .iter()
                .map(|s| s.runnable_tasks() + s.inbox_len()),
        );
        self.shards[idx].queue_arrival(a);
    }

    /// Runnable tasks (running + queued) across every partition.
    pub(crate) fn total_runnable(&self) -> usize {
        self.shards.iter().map(|s| s.runnable_tasks()).sum()
    }

    /// Logical CPUs across every partition.
    pub(crate) fn total_cpus(&self) -> usize {
        self.shards.iter().map(|s| s.n_cpus()).sum()
    }

    /// The [`crate::SimEngine::read_counters`] read: each partition's
    /// new sojourn samples in partition order, then the counters
    /// summed exactly as [`ParallelSimulation::report`] sums them.
    pub(crate) fn read_counters(
        &self,
        cursor: &mut SojournCursor,
        samples: &mut Vec<f64>,
    ) -> EngineCounters {
        let offsets = cursor.offsets(self.shards.len());
        for (shard, offset) in self.shards.iter().zip(offsets) {
            shard.sojourns_since(offset, samples);
        }
        let parts = self.shards.iter().map(Simulation::counters);
        EngineCounters {
            instructions_retired: parts.clone().map(|c| c.instructions_retired).sum(),
            completions: parts.clone().map(|c| c.completions).sum(),
            // Shard order, like `report`'s sum over shard reports (a
            // float sum of one shard is that shard's value, bit for
            // bit, as `report` returns it).
            true_energy: parts.map(|c| c.true_energy).sum(),
        }
    }

    /// Runs the simulation for a span of simulated time: repeated
    /// horizons, each of which routes the arrivals due within it, steps
    /// every partition through it in package order, and rebalances
    /// handoffs at its boundary.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        if self.shards.len() == 1 {
            self.shards[0].run_for(duration);
            self.now = end;
            return;
        }
        while self.now < end {
            let h = self.horizon.min(end - self.now);
            let t0 = start_phase(&self.profiler);
            if let Some(open) = self.open.as_mut() {
                route_arrivals(&mut self.shards, open, self.now + h);
            }
            record(&mut self.profiler, PHASE_ROUTE, t0);
            let t0 = start_phase(&self.profiler);
            for shard in &mut self.shards {
                shard.run_for(h);
            }
            record(&mut self.profiler, PHASE_STEP, t0);
            self.now += h;
            let t0 = start_phase(&self.profiler);
            rebalance(
                &mut self.shards,
                self.now,
                &mut self.handoffs,
                &mut self.next_seq,
            );
            record(&mut self.profiler, PHASE_REBALANCE, t0);
        }
    }

    /// The merged event streams of all partitions, in global timestamp
    /// order (ties in partition order), with CPU and package ids
    /// remapped to the machine-global numbering. `None` when event
    /// tracing is disabled. Task ids stay partition-local.
    pub fn events(&self) -> Option<Vec<TraceEvent>> {
        if self.shards.len() == 1 {
            return self.shards[0].events().map(|t| t.to_vec());
        }
        let mut streams = Vec::with_capacity(self.shards.len());
        let mut cpu_offset = 0u32;
        let doms_per_pkg = self.cfg.domains_per_package() as u32;
        for (pkg, shard) in self.shards.iter().enumerate() {
            let trace = shard.events()?;
            streams.push(
                trace
                    .iter()
                    .map(|e| TraceEvent {
                        t: e.t,
                        kind: e
                            .kind
                            .offset_ids(cpu_offset, pkg as u32, pkg as u32 * doms_per_pkg),
                    })
                    .collect(),
            );
            cpu_offset += shard.n_cpus() as u32;
        }
        Some(ebs_trace::merge_streams(streams))
    }

    /// Summarises the run: partition reports merged into one
    /// machine-global [`SimReport`]. Counters sum, per-CPU vectors
    /// concatenate in package order (partition CPU order *is* the
    /// global package-major order), latency statistics recompute from
    /// the pooled raw samples, and residencies merge by frequency.
    pub fn report(&self) -> SimReport {
        if self.shards.len() == 1 {
            return self.shards[0].report();
        }
        let reports: Vec<SimReport> = self.shards.iter().map(|s| s.report()).collect();
        let duration = self.now - SimTime::ZERO;
        let mut migrations_by_reason = [0u64; MigrationReason::ALL.len()];
        for r in &reports {
            for (acc, v) in migrations_by_reason.iter_mut().zip(r.migrations_by_reason) {
                *acc += v;
            }
        }
        let mut by_binary: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for r in &reports {
            for &(binary, n) in &r.completions_by_binary {
                *by_binary.entry(binary).or_default() += n;
            }
        }
        let mut completions_by_binary: Vec<(u64, u64)> = by_binary.into_iter().collect();
        completions_by_binary.sort_unstable();
        let samples: Vec<(u8, f64)> = self
            .shards
            .iter()
            .flat_map(|s| s.raw_latencies().iter().copied())
            .collect();
        let latency = LatencyStats::from_samples(samples.iter().map(|&(_, s)| s).collect());
        let phase_latencies = phase_latencies(self.cfg.open_workload.as_ref(), &samples);
        let pstate_residency = merge_residency(
            reports
                .iter()
                .flat_map(|r| r.pstate_residency.iter().copied()),
        );
        let throttled_fraction: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.throttled_fraction.iter().copied())
            .collect();
        let avg_throttled_fraction = if throttled_fraction.is_empty() {
            0.0
        } else {
            throttled_fraction.iter().sum::<f64>() / throttled_fraction.len() as f64
        };
        let n = reports.len() as f64;
        let instructions_retired: u64 = reports.iter().map(|r| r.instructions_retired).sum();
        SimReport {
            duration,
            engine_steps: reports.iter().map(|r| r.engine_steps).sum(),
            migrations: migrations_by_reason.iter().sum(),
            migrations_by_reason,
            context_switches: reports.iter().map(|r| r.context_switches).sum(),
            completions: completions_by_binary.iter().map(|&(_, c)| c).sum(),
            arrivals: self.open.as_ref().map_or(0, |o| o.accepted()),
            latency,
            phase_latencies,
            completions_by_binary,
            instructions_retired,
            throughput_ips: if duration.is_zero() {
                0.0
            } else {
                instructions_retired as f64 / duration.as_secs_f64()
            },
            throttled_fraction,
            avg_throttled_fraction,
            throttle_stats: reports
                .iter()
                .flat_map(|r| r.throttle_stats.iter().copied())
                .collect(),
            pstate_residency,
            avg_scaled_fraction: reports.iter().map(|r| r.avg_scaled_fraction).sum::<f64>() / n,
            mean_frequency: Hertz(reports.iter().map(|r| r.mean_frequency.0).sum::<f64>() / n),
            dvfs_transitions: reports.iter().map(|r| r.dvfs_transitions).sum(),
            dvfs_decisions: reports.iter().map(|r| r.dvfs_decisions).sum(),
            max_package_temp: reports.iter().map(|r| r.max_package_temp).fold(
                ebs_units::Celsius::AMBIENT,
                |a, b| if b.0 > a.0 { b } else { a },
            ),
            true_energy: Joules(reports.iter().map(|r| r.true_energy.0).sum()),
            estimated_energy: Joules(reports.iter().map(|r| r.estimated_energy.0).sum()),
        }
    }
}

impl ebs_store::Snapshot for ParallelSimulation {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.key("parallel");
        w.usize(self.shards.len());
        for shard in &self.shards {
            shard.save(w);
        }
        w.opt(&self.open, |w, open| open.save(w));
        w.time(self.now);
        w.seq(&self.handoffs, |w, h| {
            w.time(h.at);
            w.u64(h.seq);
            w.u64(h.binary);
            w.usize(h.from_shard);
            w.usize(h.to_shard);
        });
        w.u64(self.next_seq);
    }

    /// Restores into a freshly built engine of the same partitioning
    /// (worker count may differ — partition count may not, since it is
    /// fixed by the topology).
    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.key("parallel")?;
        r.table("partitions", &mut self.shards, |r, shard| shard.restore(r))?;
        let has_open = r.bool()?;
        match (has_open, &mut self.open) {
            (true, Some(open)) => open.restore(r)?,
            (false, None) => {}
            (saved, _) => {
                return Err(ebs_store::StoreError::Invalid(format!(
                    "snapshot open-workload presence {saved} does not match the config"
                )));
            }
        }
        self.now = r.time()?;
        self.handoffs = r.seq(|r| {
            Ok(HandoffRecord {
                at: r.time()?,
                seq: r.u64()?,
                binary: r.u64()?,
                from_shard: r.usize()?,
                to_shard: r.usize()?,
            })
        })?;
        self.next_seq = r.u64()?;
        Ok(())
    }
}

/// Starts a profiled phase (`None` when profiling is off, so the
/// disabled path never reads the host clock).
fn start_phase(profiler: &Option<PhaseProfiler>) -> Option<Instant> {
    profiler.as_ref().map(|_| Instant::now())
}

/// Ends a profiled phase started by [`start_phase`].
fn record(profiler: &mut Option<PhaseProfiler>, phase: usize, t0: Option<Instant>) {
    if let (Some(p), Some(t0)) = (profiler.as_mut(), t0) {
        p.record(phase, t0.elapsed());
    }
}

/// Pops every arrival due by `until` off the shared process and
/// queues it on the least-loaded partition, preserving its exact due
/// instant. Index-ordered, so the routing is deterministic.
fn route_arrivals(shards: &mut [Simulation], open: &mut ArrivalProcess, until: SimTime) {
    let mut routed = vec![0usize; shards.len()];
    loop {
        let t = open.next_arrival();
        if t > until {
            break;
        }
        for a in open.pop_due(t) {
            let program = open.spec().materialize(&a);
            let idx = least_loaded(
                shards
                    .iter()
                    .zip(&routed)
                    .map(|(s, &r)| s.runnable_tasks() + r),
            );
            routed[idx] += 1;
            shards[idx].queue_arrival(RoutedArrival {
                due: t,
                program,
                seed: a.seed,
                phase: a.phase,
            });
        }
    }
}

/// The cross-package handoff queue, applied at the horizon boundary
/// `at`: partitions holding more runnable tasks than CPUs donate
/// queued (never running) tasks to partitions with spare capacity.
/// Donors and receivers are visited in ascending package order, so
/// the handoff sequence is deterministic.
fn rebalance(
    shards: &mut [Simulation],
    at: SimTime,
    handoffs: &mut Vec<HandoffRecord>,
    next_seq: &mut u64,
) {
    let n = shards.len();
    let mut counts: Vec<usize> = shards.iter().map(|s| s.runnable_tasks()).collect();
    let caps: Vec<usize> = shards.iter().map(|s| s.n_cpus()).collect();
    for donor in 0..n {
        for recv in 0..n {
            let surplus = counts[donor].saturating_sub(caps[donor]);
            if surplus == 0 {
                break;
            }
            if recv == donor {
                continue;
            }
            let deficit = caps[recv].saturating_sub(counts[recv]);
            if deficit == 0 {
                continue;
            }
            let want = surplus.min(deficit);
            let tasks = shards[donor].extract_queued(want);
            let moved = tasks.len();
            for task in tasks {
                handoffs.push(HandoffRecord {
                    at,
                    seq: *next_seq,
                    binary: task.binary,
                    from_shard: donor,
                    to_shard: recv,
                });
                *next_seq += 1;
                shards[recv].inject_task(task);
            }
            counts[donor] -= moved;
            counts[recv] += moved;
            if moved < want {
                // Nothing else extractable from this donor (its
                // remaining runnable tasks are all running).
                break;
            }
        }
    }
}

/// The index of the partition with the least load; ties go to the
/// lowest package index (`min_by_key` keeps the first minimum).
fn least_loaded(loads: impl Iterator<Item = usize>) -> usize {
    loads
        .enumerate()
        .min_by_key(|&(_, load)| load)
        .map(|(i, _)| i)
        .expect("at least one partition")
}

/// The configuration of partition `pkg`: the same machine parameters
/// over a single-package topology. The seed is unchanged, so every
/// partition calibrates the *same* energy model the global cores use;
/// the arrival process moves to the synchronizer. Partitions never
/// self-profile: nothing can read their profiles, and the clock reads
/// would inflate the synchronizer's `step` phase.
fn shard_cfg(cfg: &SimConfig, pkg: usize) -> SimConfig {
    let mut s = cfg.clone();
    s.n_nodes = 1;
    s.packages_per_node = 1;
    s.parallel_workers = None;
    s.open_workload = None;
    s.profile_engine = false;
    if !cfg.cooling_factors.is_empty() {
        s.cooling_factors = vec![cfg.cooling_factors[pkg]];
    }
    s
}
