//! The fleet proper: N hosts, one shared arrival stream, a dispatcher,
//! and a rack budget.
//!
//! # Execution model
//!
//! Time advances in *dispatcher epochs*, each in three phases:
//!
//! 1. **Route.** The fleet drains every arrival due within the
//!    upcoming epoch from the shared [`ArrivalProcess`] — one at a
//!    time, in due order — and asks the [`Dispatcher`] where each one
//!    goes. The dispatcher reads one [`HostStat`] buffer built at the
//!    epoch boundary; each pick bumps the chosen host's runnable
//!    count in place. The host's engine gets the arrival as a
//!    [`RoutedArrival`] (the same currency the parallel core's
//!    synchronizer uses between packages) and spawns it at its exact
//!    due instant during the epoch.
//! 2. **Step.** The hosts step through the epoch concurrently via
//!    [`map_parallel`], largest first: hosts are handed out in
//!    descending CPU count (ties in host order), so the costliest
//!    engines start early and a worker is not left stepping a big
//!    host alone at the end of the epoch.
//! 3. **Roll up.** Each host, in host order, answers the narrow
//!    [`SimEngine::read_counters`] read: its cumulative counters,
//!    differenced against the previous epoch's, plus the sojourn
//!    samples recorded past its [`SojournCursor`] (one offset per
//!    partition, so partitioned hosts contribute exactly the epoch's
//!    samples). No host report is built, so an epoch costs the
//!    epoch's new work, not the run's history.
//!
//! The fleet times the three phases in an always-on [`PhaseProfiler`]
//! ([`Fleet::profile`]): four clock reads per epoch.
//!
//! Determinism: routing is serial and a pure function of
//! epoch-boundary state; hosts are independent engines with disjoint
//! seeds; and [`map_parallel`] and the step order only change *when*
//! each host steps, never what it computes. A fleet run is therefore
//! bit-identical across worker counts and reproducible per seed — the
//! property the determinism suite pins down.

use crate::budget::PowerBudget;
use crate::dispatch::{DispatchPolicy, Dispatcher, HostStat};
use ebs_sim::{
    build_engine, divergence_verdict, map_parallel, EngineCounters, LatencyStats, MaxPowerSpec,
    RoutedArrival, SimConfig, SimEngine, SimReport, SojournCursor,
};
use ebs_topology::TopologyPreset;
use ebs_trace::PhaseProfiler;
use ebs_units::{Joules, SimDuration, SimTime, Watts};
use ebs_workloads::{ArrivalProcess, OpenWorkload};
use std::cmp::Reverse;
use std::sync::Mutex;
use std::time::Instant;

/// Salt for deriving per-host engine seeds from the fleet seed, so no
/// host shares an RNG stream with the fleet-level arrival process or
/// with another host.
const HOST_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The epoch phases [`Fleet::profile`] times, in epoch order.
const PHASE_NAMES: [&str; 3] = ["route", "step", "roll-up"];
const PHASE_ROUTE: usize = 0;
const PHASE_STEP: usize = 1;
const PHASE_ROLL_UP: usize = 2;

/// Configuration for a [`Fleet`] run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Per-host engine template: policies, governors, tick shape.
    /// Topology, seed, power cap, and any open workload are overridden
    /// per host (hosts never draw their own arrivals).
    pub base: SimConfig,
    /// One topology preset per host; mixed shapes are the point, and
    /// hybrid (two-class) presets are welcome — each host engine picks
    /// up its own class layout and frequency-domain scope from its
    /// preset, so homogeneous and big.LITTLE hosts coexist in a rack.
    pub hosts: Vec<TopologyPreset>,
    /// Fleet seed: drives the shared arrival process and derives every
    /// host's engine seed.
    pub seed: u64,
    /// Dispatcher epoch: how often placement decisions are made.
    pub epoch: SimDuration,
    /// Arrival placement policy.
    pub dispatch: DispatchPolicy,
    /// Rack power budget, apportioned to hosts by logical CPU count.
    pub budget: PowerBudget,
    /// The open workload every host serves (arrival stream + palette).
    pub workload: OpenWorkload,
    /// Worker threads for stepping hosts between epochs.
    pub workers: usize,
}

impl FleetConfig {
    /// Creates a fleet config with a 250 ms epoch, least-loaded
    /// dispatch, a 40 W/logical-CPU rack budget, seed 42, and one
    /// worker.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty.
    pub fn new(base: SimConfig, hosts: Vec<TopologyPreset>, workload: OpenWorkload) -> Self {
        assert!(!hosts.is_empty(), "a fleet needs at least one host");
        let total_cpus: usize = hosts.iter().map(|p| p.builder().n_cpus()).sum();
        FleetConfig {
            base,
            hosts,
            seed: 42,
            epoch: SimDuration::from_millis(250),
            dispatch: DispatchPolicy::LeastLoaded,
            budget: PowerBudget::rack(Watts(40.0 * total_cpus as f64)),
            workload,
            workers: 1,
        }
    }

    /// Sets the fleet seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the dispatcher epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "dispatcher epoch must be positive");
        self.epoch = epoch;
        self
    }

    /// Sets the placement policy.
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch = policy;
        self
    }

    /// Sets the rack power budget.
    pub fn budget(mut self, budget: PowerBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the worker-thread count for concurrent host stepping
    /// (0 is treated as 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// One simulated host: an engine plus the dispatcher's book-keeping.
struct Host {
    engine: Box<dyn SimEngine>,
    /// Preset name, for CSV rows and divergence messages.
    preset: &'static str,
    cpus: usize,
    /// This host's share of the rack budget.
    share: Watts,
    /// Mean power draw over the previous epoch (0 before the first).
    power_w: f64,
    /// The counters at the previous roll-up, for per-epoch deltas.
    last: EngineCounters,
    /// How far the roll-up has read the host's sojourn record.
    cursor: SojournCursor,
}

/// Per-epoch fleet metrics, rolled up across hosts.
#[derive(Clone, Debug)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub index: usize,
    /// Epoch start instant.
    pub start: SimTime,
    /// Epoch end instant.
    pub end: SimTime,
    /// Arrivals routed during this epoch.
    pub arrivals: u64,
    /// Task completions across the fleet during this epoch.
    pub completions: u64,
    /// Instructions retired across the fleet during this epoch.
    pub instructions: u64,
    /// Energy consumed across the fleet during this epoch.
    pub energy_j: f64,
    /// Mean fleet power over the epoch.
    pub power_w: f64,
    /// Budget allocated but not drawn: sum over hosts of
    /// `max(0, share - draw)`.
    pub stranded_w: f64,
    /// Fleet throughput over the epoch, in giga-instructions/s.
    pub gips: f64,
    /// Epoch efficiency: giga-instructions per joule.
    pub gips_per_joule: f64,
    /// Sojourn-time stats over tasks that completed this epoch.
    pub latency: LatencyStats,
}

/// Column header matching [`EpochMetrics::csv_row`].
pub const CSV_HEADER: &str = "epoch,start_s,end_s,arrivals,completions,instructions,\
     energy_j,power_w,stranded_w,gips,gips_per_joule,lat_count,lat_p50_s,lat_p95_s,lat_p99_s";

impl EpochMetrics {
    /// Renders the epoch as one CSV row (no trailing newline),
    /// matching [`CSV_HEADER`].
    pub fn csv_row(&self) -> String {
        format!(
            "{},{:.3},{:.3},{},{},{},{:.6},{:.3},{:.3},{:.4},{:.5},{},{:.4},{:.4},{:.4}",
            self.index,
            self.start.as_secs_f64(),
            self.end.as_secs_f64(),
            self.arrivals,
            self.completions,
            self.instructions,
            self.energy_j,
            self.power_w,
            self.stranded_w,
            self.gips,
            self.gips_per_joule,
            self.latency.count,
            self.latency.p50_s,
            self.latency.p95_s,
            self.latency.p99_s,
        )
    }
}

/// Whole-run fleet summary, rolled up from every host's
/// [`SimEngine::read_counters`] read.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Host count.
    pub hosts: usize,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Arrivals routed over the whole run.
    pub arrivals: u64,
    /// Completions across the fleet.
    pub completions: u64,
    /// Instructions retired across the fleet.
    pub instructions_retired: u64,
    /// Total energy across the fleet.
    pub true_energy: Joules,
    /// Fleet throughput in giga-instructions/s.
    pub gips: f64,
    /// Whole-run efficiency in giga-instructions per joule.
    pub gips_per_joule: f64,
    /// Sojourn stats pooled over every completed task on every host.
    pub latency: LatencyStats,
    /// Mean stranded power across epochs.
    pub stranded_w_mean: f64,
}

/// A rack of simulated hosts behind one dispatcher.
pub struct Fleet {
    cfg: FleetConfig,
    hosts: Vec<Host>,
    dispatcher: Dispatcher,
    arrivals: ArrivalProcess,
    now: SimTime,
    routed_total: u64,
    epochs: Vec<EpochMetrics>,
    /// Host indices in step order: descending CPU count, ties in host
    /// order.
    step_order: Vec<usize>,
    profile: PhaseProfiler,
}

impl Fleet {
    /// Builds the fleet: apportions the rack budget, derives per-host
    /// seeds, and constructs each host's engine through
    /// [`build_engine`] (so `base.parallel(n)` selects the partitioned
    /// core per host, and everything else the strided/fixed core).
    pub fn new(cfg: FleetConfig) -> Self {
        let cpus: Vec<usize> = cfg.hosts.iter().map(|p| p.builder().n_cpus()).collect();
        let shares = cfg.budget.shares(&cpus);
        let hosts = cfg
            .hosts
            .iter()
            .zip(cpus.iter().zip(shares.iter()))
            .enumerate()
            .map(|(i, (preset, (&cpus, &share)))| {
                let per_logical = Watts(share.0 / cpus as f64);
                let host_cfg = cfg
                    .base
                    .clone()
                    .topology(preset.builder())
                    .closed()
                    .seed(host_seed(cfg.seed, i))
                    .max_power(MaxPowerSpec::PerLogical(per_logical));
                Host {
                    engine: build_engine(host_cfg),
                    preset: preset.name(),
                    cpus,
                    share,
                    power_w: 0.0,
                    last: EngineCounters::default(),
                    cursor: SojournCursor::default(),
                }
            })
            .collect();
        let arrivals = ArrivalProcess::new(cfg.workload.clone(), cfg.seed);
        let dispatcher = Dispatcher::new(cfg.dispatch);
        // A stable sort keeps equal-sized hosts in host order.
        let mut step_order: Vec<usize> = (0..cpus.len()).collect();
        step_order.sort_by_key(|&i| Reverse(cpus[i]));
        Fleet {
            cfg,
            hosts,
            dispatcher,
            arrivals,
            now: SimTime::ZERO,
            routed_total: 0,
            epochs: Vec::new(),
            step_order,
            profile: PhaseProfiler::new(&PHASE_NAMES),
        }
    }

    /// The fleet's config.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Current simulated time (always an epoch boundary).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Host count.
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Per-epoch metrics recorded so far.
    pub fn epochs(&self) -> &[EpochMetrics] {
        &self.epochs
    }

    /// Total arrivals routed so far.
    pub fn routed(&self) -> u64 {
        self.routed_total
    }

    /// Host wall time spent so far in each epoch phase — `route`,
    /// `step` and `roll-up`, in that order — with one call per phase
    /// per epoch. Always on: four clock reads per epoch.
    pub fn profile(&self) -> &PhaseProfiler {
        &self.profile
    }

    /// Advances the fleet by exactly one dispatcher epoch: route every
    /// arrival due within it, step all hosts concurrently, then roll
    /// up the epoch's metrics.
    pub fn run_epoch(&mut self) {
        let boundary = self.now + self.cfg.epoch;
        let epoch_secs = self.cfg.epoch.as_secs_f64();
        let t_route = Instant::now();

        // --- Route (serial, due order). Runnable counts are kept
        // current as arrivals land; power draw stays frozen at the
        // previous epoch's measurement.
        let mut stats: Vec<HostStat> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| HostStat {
                host: i,
                runnable: h.engine.runnable_tasks(),
                cpus: h.cpus,
                power_w: h.power_w,
                budget_w: h.share,
            })
            .collect();
        let mut arrivals_this_epoch = 0u64;
        while self.arrivals.next_arrival() <= boundary {
            let due = self.arrivals.next_arrival();
            for a in self.arrivals.pop_due(due) {
                let program = self.arrivals.spec().materialize(&a);
                let idx = self.dispatcher.pick(&stats);
                self.hosts[idx].engine.queue_arrival(RoutedArrival {
                    due,
                    program,
                    seed: a.seed,
                    phase: a.phase,
                });
                stats[idx].runnable += 1;
                arrivals_this_epoch += 1;
            }
        }
        self.routed_total += arrivals_this_epoch;
        let t_step = Instant::now();
        self.profile.record(PHASE_ROUTE, t_step - t_route);

        // --- Step all hosts through the epoch, possibly concurrently,
        // largest first. Hosts are independent engines, so neither the
        // order nor *which worker steps which host* can change any
        // host's state.
        let epoch = self.cfg.epoch;
        let slots: Vec<Mutex<&mut Host>> = self.hosts.iter_mut().map(Mutex::new).collect();
        map_parallel(&self.step_order, self.cfg.workers, |&i| {
            slots[i]
                .lock()
                .expect("host mutex poisoned")
                .engine
                .run_for(epoch);
        });
        let t_roll_up = Instant::now();
        self.profile.record(PHASE_STEP, t_roll_up - t_step);

        // --- Roll up (serial, host order).
        let mut completions = 0u64;
        let mut instructions = 0u64;
        let mut energy_j = 0.0f64;
        let mut stranded_w = 0.0f64;
        let mut samples: Vec<f64> = Vec::new();
        for host in &mut self.hosts {
            let now = host.engine.read_counters(&mut host.cursor, &mut samples);
            let d_energy = now.true_energy.0 - host.last.true_energy.0;
            completions += now.completions - host.last.completions;
            instructions += now.instructions_retired - host.last.instructions_retired;
            energy_j += d_energy;
            host.last = now;
            host.power_w = d_energy / epoch_secs;
            stranded_w += (host.share.0 - host.power_w).max(0.0);
        }
        self.epochs.push(EpochMetrics {
            index: self.epochs.len(),
            start: self.now,
            end: boundary,
            arrivals: arrivals_this_epoch,
            completions,
            instructions,
            energy_j,
            power_w: energy_j / epoch_secs,
            stranded_w,
            gips: instructions as f64 / 1e9 / epoch_secs,
            gips_per_joule: if energy_j > 0.0 {
                instructions as f64 / 1e9 / energy_j
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(samples),
        });
        self.now = boundary;
        self.profile.record(PHASE_ROLL_UP, t_roll_up.elapsed());
    }

    /// Runs `n` dispatcher epochs.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.run_epoch();
        }
    }

    /// Whole-run summary: every host's counters and complete sojourn
    /// record (read from a fresh cursor), pooled in host order.
    pub fn report(&self) -> FleetReport {
        let mut samples: Vec<f64> = Vec::new();
        let counters: Vec<EngineCounters> = self
            .hosts
            .iter()
            .map(|h| {
                h.engine
                    .read_counters(&mut SojournCursor::default(), &mut samples)
            })
            .collect();
        let completions: u64 = counters.iter().map(|c| c.completions).sum();
        let instructions: u64 = counters.iter().map(|c| c.instructions_retired).sum();
        let energy: f64 = counters.iter().map(|c| c.true_energy.0).sum();
        let duration_s = self.now.as_secs_f64();
        let stranded_w_mean = if self.epochs.is_empty() {
            0.0
        } else {
            self.epochs.iter().map(|e| e.stranded_w).sum::<f64>() / self.epochs.len() as f64
        };
        FleetReport {
            hosts: self.hosts.len(),
            duration: self.now.saturating_since(SimTime::ZERO),
            arrivals: self.routed_total,
            completions,
            instructions_retired: instructions,
            true_energy: Joules(energy),
            gips: if duration_s > 0.0 {
                instructions as f64 / 1e9 / duration_s
            } else {
                0.0
            },
            gips_per_joule: if energy > 0.0 {
                instructions as f64 / 1e9 / energy
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(samples),
            stranded_w_mean,
        }
    }

    /// Every host's full [`SimReport`], in host order.
    pub fn host_reports(&self) -> Vec<SimReport> {
        self.hosts.iter().map(|h| h.engine.report()).collect()
    }

    /// Every host's end-state hash, in host order — the sharpest
    /// equality oracle for determinism checks.
    pub fn state_hashes(&self) -> Vec<u64> {
        self.hosts.iter().map(|h| h.engine.state_hash()).collect()
    }

    /// The recorded epochs as a CSV document ([`CSV_HEADER`] + rows).
    pub fn epochs_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for e in &self.epochs {
            out.push_str(&e.csv_row());
            out.push('\n');
        }
        out
    }
}

/// Derives host `i`'s engine seed from the fleet seed. Never equal to
/// the fleet seed itself (which feeds the arrival process).
fn host_seed(fleet_seed: u64, host: usize) -> u64 {
    fleet_seed.wrapping_add(HOST_SEED_SALT.wrapping_mul(host as u64 + 1))
}

/// Re-runs a fleet config at two worker counts with event tracing on
/// and names the first divergent host and event — the fleet-level
/// analogue of [`ebs_sim::stride_divergence`], reusing the same
/// verdict wording so CI failures read alike at both layers.
pub fn worker_divergence(
    cfg: &FleetConfig,
    epochs: usize,
    workers_a: usize,
    workers_b: usize,
) -> String {
    let run = |workers: usize| {
        let mut traced = cfg.clone().workers(workers);
        traced.base = traced.base.clone().trace_events(true);
        let mut fleet = Fleet::new(traced);
        fleet.run(epochs);
        fleet
    };
    let a = run(workers_a);
    let b = run(workers_b);
    let (ra, rb) = (a.host_reports(), b.host_reports());
    for (h, (report_a, report_b)) in ra.iter().zip(rb.iter()).enumerate() {
        if !report_a.bit_eq(report_b) {
            let ea = a.hosts[h].engine.event_stream().unwrap_or_default();
            let eb = b.hosts[h].engine.event_stream().unwrap_or_default();
            return format!(
                "host {h} ({}): {}",
                a.hosts[h].preset,
                divergence_verdict(&ea, &eb)
            );
        }
    }
    format!(
        "per-host reports identical across {workers_a} and {workers_b} workers ({} hosts)",
        ra.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workloads::{catalog, LoadCurve};

    /// The `exp_fleet` workload shape at 0.8 arrivals/s per logical CPU.
    fn workload(total_cpus: usize) -> OpenWorkload {
        OpenWorkload::new(
            vec![
                catalog::bitcnts(),
                catalog::memrw(),
                catalog::aluadd(),
                catalog::pushpop(),
            ],
            0.8 * total_cpus as f64,
        )
        .curve(LoadCurve::Diurnal {
            period: SimDuration::from_secs(4),
            floor: 0.3,
        })
        .service_work(600_000_000, 1_800_000_000)
    }

    fn config(hosts: Vec<TopologyPreset>, partitioned: bool) -> FleetConfig {
        let total_cpus: usize = hosts.iter().map(|p| p.builder().n_cpus()).sum();
        let base = SimConfig::xseries445()
            .energy_aware(true)
            .throttling(true)
            .respawn(false)
            .strided();
        let base = if partitioned { base.parallel(2) } else { base };
        FleetConfig::new(base, hosts, workload(total_cpus)).workers(2)
    }

    /// A host's complete sojourn record, read from a fresh cursor.
    fn whole_record(host: &Host) -> Vec<f64> {
        let mut all = Vec::new();
        host.engine
            .read_counters(&mut SojournCursor::default(), &mut all);
        all
    }

    /// The samples of `after` that `before` does not account for, as a
    /// multiset (a record only grows, but a partitioned host's whole
    /// record interleaves its partitions' growth).
    fn multiset_difference(after: &[f64], before: &[f64]) -> Vec<f64> {
        let mut after = after.to_vec();
        let mut before = before.to_vec();
        after.sort_by(f64::total_cmp);
        before.sort_by(f64::total_cmp);
        let mut out = Vec::new();
        let mut old = before.iter().peekable();
        for s in after {
            if old.peek().is_some_and(|o| o.to_bits() == s.to_bits()) {
                old.next();
            } else {
                out.push(s);
            }
        }
        assert!(old.next().is_none(), "a host's sojourn record shrank");
        out
    }

    /// Every epoch's latency statistics cover exactly the samples its
    /// hosts recorded during that epoch — on partitioned hosts too,
    /// whose record is one growing list per partition.
    #[test]
    fn epoch_latency_covers_exactly_the_epochs_samples() {
        let cfg = config(vec![TopologyPreset::Numa16; 2], true);
        let mut fleet = Fleet::new(cfg);
        let mut pooled = 0;
        for epoch in 0..40 {
            let before: Vec<Vec<f64>> = fleet.hosts.iter().map(whole_record).collect();
            fleet.run_epoch();
            let mut new = Vec::new();
            for (host, before) in fleet.hosts.iter().zip(&before) {
                new.extend(multiset_difference(&whole_record(host), before));
            }
            pooled += new.len();
            let got = &fleet.epochs()[epoch].latency;
            let want = LatencyStats::from_samples(new);
            assert!(got.bit_eq(&want), "epoch {epoch}: {got:?} != {want:?}");
        }
        assert!(pooled > 100, "too few completions to test: {pooled}");
    }

    /// The per-epoch roll-up conserves the hosts' own totals, on both
    /// engine cores.
    #[test]
    fn roll_up_conserves_host_totals() {
        for partitioned in [false, true] {
            let hosts = vec![
                TopologyPreset::Dual,
                TopologyPreset::XSeries445 { smt: false },
                TopologyPreset::XSeries445 { smt: true },
                TopologyPreset::Hybrid8,
            ];
            let mut fleet = Fleet::new(config(hosts, partitioned));
            fleet.run(16);
            let reports = fleet.host_reports();
            let epochs = fleet.epochs();
            assert_eq!(
                epochs.iter().map(|e| e.completions).sum::<u64>(),
                reports.iter().map(|r| r.completions).sum::<u64>()
            );
            assert_eq!(
                epochs.iter().map(|e| e.instructions).sum::<u64>(),
                reports.iter().map(|r| r.instructions_retired).sum::<u64>()
            );
            let report = fleet.report();
            assert!(report.latency.count > 0, "nothing completed");
            assert_eq!(
                epochs.iter().map(|e| e.latency.count).sum::<u64>(),
                report.latency.count
            );
            let hosts_j: f64 = reports.iter().map(|r| r.true_energy.0).sum();
            let epochs_j: f64 = epochs.iter().map(|e| e.energy_j).sum();
            assert!(
                (epochs_j - hosts_j).abs() <= 1e-9 * hosts_j,
                "partitioned {partitioned}: epochs {epochs_j} J vs hosts {hosts_j} J"
            );
        }
    }

    /// Hosts step largest first, equal sizes in host order.
    #[test]
    fn step_order_is_largest_first_then_host_order() {
        let hosts = vec![
            TopologyPreset::Dual,                      // 8 CPUs
            TopologyPreset::XSeries445 { smt: false }, // 8
            TopologyPreset::XSeries445 { smt: true },  // 16
            TopologyPreset::Numa16,                    // 32
            TopologyPreset::Hybrid8,                   // 8
            TopologyPreset::XSeries445 { smt: true },  // 16
        ];
        let fleet = Fleet::new(config(hosts, false));
        assert_eq!(fleet.step_order, [3, 2, 5, 0, 1, 4]);
    }

    /// The phase profile records each phase once per epoch.
    #[test]
    fn profile_times_every_phase_once_per_epoch() {
        let hosts = vec![TopologyPreset::Dual, TopologyPreset::Hybrid8];
        let mut fleet = Fleet::new(config(hosts, false));
        fleet.run(5);
        let rows = fleet.profile().rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["route", "step", "roll-up"]);
        for row in rows {
            assert_eq!(row.calls, 5, "{} calls", row.name);
        }
    }
}
