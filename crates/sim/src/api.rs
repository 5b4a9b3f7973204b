//! The unified engine API: one trait over both engine cores.
//!
//! The sequential/strided core ([`Simulation`]) and the partitioned
//! core ([`ParallelSimulation`]) grew identical-but-duplicated surface
//! for everything a driver needs — run, report, spawn, snapshot,
//! restore — which forced every generic consumer (the bench helpers,
//! the trace-diff glue, and now the fleet layer) to dispatch on the
//! concrete type by hand. [`SimEngine`] is that surface as a trait:
//! the core-specific methods are required, and the plumbing that was
//! copy-pasted between `engine.rs` and `parallel.rs` — the snapshot /
//! state-hash / restore / fork family and the mix-spawning loops —
//! lives here once, as provided methods over the required ones.
//!
//! [`build_engine`] picks the core a [`SimConfig`] selects
//! (`parallel(w)` → partitioned, anything else → the
//! sequential/strided core), so callers that are generic over the
//! core never name one.

use crate::config::SimConfig;
use crate::engine::{RoutedArrival, Simulation};
use crate::parallel::ParallelSimulation;
use crate::trace::SimReport;
use ebs_trace::TraceEvent;
use ebs_units::{Joules, SimDuration, SimTime};
use ebs_workloads::{Mix, Program};

/// The cumulative counters a roll-up differences between reads — the
/// matching [`SimReport`] fields, bit for bit, without summarising
/// the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineCounters {
    /// Instructions retired so far ([`SimReport::instructions_retired`]).
    pub instructions_retired: u64,
    /// Tasks completed so far ([`SimReport::completions`]).
    pub completions: u64,
    /// True energy consumed so far ([`SimReport::true_energy`]).
    pub true_energy: Joules,
}

/// How far a reader has consumed one engine's sojourn record. A
/// partitioned engine records each partition's samples separately, so
/// the cursor holds one offset per partition; a fresh cursor reads
/// the whole record.
#[derive(Clone, Debug, Default)]
pub struct SojournCursor {
    offsets: Vec<usize>,
}

impl SojournCursor {
    /// The per-partition offsets, sized on first use.
    pub(crate) fn offsets(&mut self, partitions: usize) -> &mut [usize] {
        self.offsets.resize(partitions, 0);
        &mut self.offsets
    }
}

/// The driving surface shared by both engine cores.
///
/// Everything a generic driver does to a simulated machine: build it,
/// feed it work (closed spawns or routed open-workload arrivals), run
/// it, summarise it, and checkpoint it. The snapshot family and the
/// mix-spawning loops are provided methods — one implementation,
/// layered on the [`ebs_store::Snapshot`] supertrait and
/// [`SimEngine::spawn_program`] — so the cores only supply what
/// genuinely differs between them.
pub trait SimEngine: ebs_store::Snapshot + Send {
    /// Builds the engine from a configuration.
    fn build(cfg: SimConfig) -> Self
    where
        Self: Sized;

    /// The configuration the engine was built from.
    fn config(&self) -> &SimConfig;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Runs the simulation for a span of simulated time.
    fn run_for(&mut self, duration: SimDuration);

    /// Summarises the run so far.
    fn report(&self) -> SimReport;

    /// Spawns one instance of a program.
    fn spawn_program(&mut self, program: &Program);

    /// Queues an arrival routed by an outer dispatcher (the parallel
    /// synchronizer between packages, or the fleet dispatcher between
    /// hosts): the task spawns when the clock reaches its due instant.
    /// Arrivals must be queued in non-decreasing due order.
    fn queue_arrival(&mut self, arrival: RoutedArrival);

    /// Runnable tasks (running + queued) across the machine.
    fn runnable_tasks(&self) -> usize;

    /// Logical CPUs of the machine.
    fn n_cpus(&self) -> usize;

    /// The recorded event stream in machine-global ids, `None` unless
    /// event tracing is enabled in the config.
    fn event_stream(&self) -> Option<Vec<TraceEvent>>;

    /// The roll-up read: the cumulative [`EngineCounters`], plus the
    /// open-workload sojourn seconds recorded past `cursor`, appended
    /// to `samples` in partition order (each partition's in
    /// completion order) before `cursor` advances past them. Costs the
    /// new samples only, where [`SimEngine::report`] re-sorts every
    /// sample of the run.
    fn read_counters(&self, cursor: &mut SojournCursor, samples: &mut Vec<f64>) -> EngineCounters;

    /// Spawns `copies` instances of every program in the slice.
    fn spawn_mix(&mut self, programs: &[Program], copies: usize) {
        for program in programs {
            for _ in 0..copies {
                self.spawn_program(program);
            }
        }
    }

    /// Spawns a [`Mix`] (programs with counts).
    fn spawn_mix_entries(&mut self, mix: &Mix) {
        for entry in mix {
            for _ in 0..entry.count {
                self.spawn_program(&entry.program);
            }
        }
    }

    /// Serializes the complete evolving state into a sealed, hashed,
    /// versioned image.
    fn snapshot(&self) -> ebs_store::StateImage {
        let mut w = ebs_store::StateWriter::new();
        self.save(&mut w);
        w.finish()
    }

    /// Content hash of the current state — equal states (same bytes
    /// under [`SimEngine::snapshot`]) hash equally across processes.
    fn state_hash(&self) -> u64 {
        self.snapshot().hash()
    }

    /// Overwrites this engine's state from a snapshot image. The
    /// engine must have been freshly built from a config of the same
    /// topology and workload shape; see [`ebs_store::Snapshot`] on the
    /// concrete core for the shape-matching rules on policy sections.
    ///
    /// Opens with [`ebs_store::StateImage::open`], so an image of
    /// another format version fails with
    /// [`ebs_store::StoreError::Version`].
    fn restore_snapshot(
        &mut self,
        image: &ebs_store::StateImage,
    ) -> Result<(), ebs_store::StoreError> {
        let mut r = image.open()?;
        self.restore(&mut r)?;
        if r.remaining() != 0 {
            return Err(ebs_store::StoreError::Invalid(format!(
                "{} trailing bytes after the engine state",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// Builds an engine from `cfg` and restores `image` into it — the
    /// fork operation: one warm-up snapshot, many differently
    /// configured continuations.
    fn from_snapshot(
        cfg: SimConfig,
        image: &ebs_store::StateImage,
    ) -> Result<Self, ebs_store::StoreError>
    where
        Self: Sized,
    {
        let mut sim = Self::build(cfg);
        sim.restore_snapshot(image)?;
        Ok(sim)
    }
}

/// Builds the engine core `cfg` selects: the partitioned core when
/// `parallel(w)` is set, the sequential/strided core otherwise.
pub fn build_engine(cfg: SimConfig) -> Box<dyn SimEngine> {
    if cfg.parallel_enabled() {
        Box::new(ParallelSimulation::new(cfg))
    } else {
        Box::new(Simulation::new(cfg))
    }
}

impl SimEngine for Simulation {
    fn build(cfg: SimConfig) -> Self {
        Simulation::new(cfg)
    }

    fn config(&self) -> &SimConfig {
        Simulation::config(self)
    }

    fn now(&self) -> SimTime {
        Simulation::now(self)
    }

    fn run_for(&mut self, duration: SimDuration) {
        Simulation::run_for(self, duration);
    }

    fn report(&self) -> SimReport {
        Simulation::report(self)
    }

    fn spawn_program(&mut self, program: &Program) {
        Simulation::spawn_program(self, program);
    }

    fn queue_arrival(&mut self, arrival: RoutedArrival) {
        Simulation::queue_arrival(self, arrival);
    }

    fn runnable_tasks(&self) -> usize {
        Simulation::runnable_tasks(self)
    }

    fn n_cpus(&self) -> usize {
        Simulation::n_cpus(self)
    }

    fn event_stream(&self) -> Option<Vec<TraceEvent>> {
        self.events().map(|t| t.to_vec())
    }

    fn read_counters(&self, cursor: &mut SojournCursor, samples: &mut Vec<f64>) -> EngineCounters {
        self.sojourns_since(&mut cursor.offsets(1)[0], samples);
        self.counters()
    }
}

impl SimEngine for ParallelSimulation {
    fn build(cfg: SimConfig) -> Self {
        ParallelSimulation::new(cfg)
    }

    fn config(&self) -> &SimConfig {
        ParallelSimulation::config(self)
    }

    fn now(&self) -> SimTime {
        ParallelSimulation::now(self)
    }

    fn run_for(&mut self, duration: SimDuration) {
        ParallelSimulation::run_for(self, duration);
    }

    fn report(&self) -> SimReport {
        ParallelSimulation::report(self)
    }

    fn spawn_program(&mut self, program: &Program) {
        ParallelSimulation::spawn_program(self, program);
    }

    fn queue_arrival(&mut self, arrival: RoutedArrival) {
        self.queue_routed(arrival);
    }

    fn runnable_tasks(&self) -> usize {
        self.total_runnable()
    }

    fn n_cpus(&self) -> usize {
        self.total_cpus()
    }

    fn event_stream(&self) -> Option<Vec<TraceEvent>> {
        self.events()
    }

    fn read_counters(&self, cursor: &mut SojournCursor, samples: &mut Vec<f64>) -> EngineCounters {
        ParallelSimulation::read_counters(self, cursor, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LatencyStats;
    use ebs_workloads::{catalog, OpenWorkload};

    fn cfg() -> SimConfig {
        SimConfig::xseries445().smt(false).seed(5)
    }

    /// The narrow roll-up read equals the matching `report()` fields
    /// bit for bit on both cores, at several instants; the samples it
    /// appends past a running cursor add up to the whole record, which
    /// a fresh cursor reads in one go.
    #[test]
    fn read_counters_matches_report_on_both_cores() {
        let workload = OpenWorkload::new(vec![catalog::aluadd(), catalog::memrw()], 12.0)
            .service_work(100_000_000, 300_000_000);
        for cfg in [
            cfg().open_workload(workload.clone()).strided(),
            cfg().open_workload(workload).parallel(2),
        ] {
            let mut sim = build_engine(cfg);
            let mut cursor = SojournCursor::default();
            let mut read = Vec::new();
            for _ in 0..4 {
                sim.run_for(SimDuration::from_secs(1));
                let counters = sim.read_counters(&mut cursor, &mut read);
                let report = sim.report();
                assert_eq!(counters.instructions_retired, report.instructions_retired);
                assert_eq!(counters.completions, report.completions);
                assert_eq!(
                    counters.true_energy.0.to_bits(),
                    report.true_energy.0.to_bits()
                );
                assert_eq!(read.len() as u64, report.latency.count);
                let mut whole = Vec::new();
                let fresh = sim.read_counters(&mut SojournCursor::default(), &mut whole);
                assert_eq!(fresh, counters);
                assert!(LatencyStats::from_samples(whole).bit_eq(&report.latency));
            }
            assert!(
                read.len() > 10,
                "too few completions to compare: {}",
                read.len()
            );
        }
    }

    /// `build_engine` picks the core the config selects, and the trait
    /// surface drives both identically.
    #[test]
    fn build_engine_selects_the_configured_core() {
        let run = |cfg: SimConfig| {
            let mut sim = build_engine(cfg);
            sim.spawn_mix(&[catalog::aluadd()], 2);
            sim.run_for(SimDuration::from_millis(300));
            sim.report()
        };
        let strided = run(cfg().strided());
        let par1 = run(cfg().parallel(1));
        assert!(
            strided.bit_eq(&par1),
            "parallel(1) must stay bit-identical to strided through the trait"
        );
        assert!(strided.instructions_retired > 0);
    }

    /// The provided snapshot family round-trips through `dyn SimEngine`
    /// exactly like the old inherent methods did.
    #[test]
    fn snapshot_family_works_object_safe() {
        let mut sim = build_engine(cfg());
        sim.spawn_mix(&[catalog::memrw()], 2);
        sim.run_for(SimDuration::from_millis(200));
        let image = sim.snapshot();
        let h = sim.state_hash();
        let mut fork = build_engine(cfg());
        fork.restore_snapshot(&image)
            .expect("restore into a same-shape engine");
        assert_eq!(fork.state_hash(), h);
        let a = {
            let mut s = fork;
            s.run_for(SimDuration::from_millis(200));
            s.report()
        };
        let b = {
            let mut s = Simulation::from_snapshot(cfg(), &image).expect("fork");
            s.run_for(SimDuration::from_millis(200));
            s.report()
        };
        assert!(a.bit_eq(&b), "dyn and concrete forks must agree");
    }

    /// Routed arrivals through the trait spawn at their due instants on
    /// both cores.
    #[test]
    fn queue_arrival_spawns_on_both_cores() {
        for build in [
            |c: SimConfig| build_engine(c.strided()),
            |c: SimConfig| build_engine(c.parallel(2)),
        ] {
            let mut sim = build(cfg());
            for k in 0..4u64 {
                sim.queue_arrival(RoutedArrival {
                    due: SimTime::from_millis(10 + 20 * k),
                    program: catalog::aluadd().with_total_work(1_000_000),
                    seed: k,
                    phase: 0,
                });
            }
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(sim.report().completions, 4);
        }
    }
}
