//! Parallel experiment running.
//!
//! The paper averages its migration counts and throughput numbers over
//! several runs; the benchmark harness sweeps workload mixes and task
//! counts. Both map to running many independent simulations, which
//! parallelise trivially — each simulation is self-contained and
//! deterministic given its config.
//!
//! Underneath is the crate's one work-stealing loop, [`map_parallel`]:
//! one call maps a closure over a slice on threads spawned for that
//! call, with the caller working as one of them. The sweeps and the
//! fleet run on it; the partitioned engine
//! ([`crate::ParallelSimulation`]) steps its partitions on the calling
//! thread and needs no threads at all.

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::trace::SimReport;
use ebs_units::SimDuration;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs one simulation to completion: build, populate via `setup`,
/// run, report.
pub fn run_one<F>(cfg: SimConfig, duration: SimDuration, setup: F) -> SimReport
where
    F: FnOnce(&mut Simulation),
{
    let mut sim = Simulation::new(cfg);
    setup(&mut sim);
    sim.run_for(duration);
    sim.report()
}

/// Runs the same experiment under several seeds in parallel and
/// returns the reports in seed order.
pub fn run_seeds<F>(
    base: &SimConfig,
    seeds: &[u64],
    duration: SimDuration,
    setup: F,
) -> Vec<SimReport>
where
    F: Fn(&mut Simulation) + Sync,
{
    run_parallel(
        seeds
            .iter()
            .map(|&s| base.clone().seed(s))
            .collect::<Vec<_>>(),
        duration,
        default_workers(),
        &setup,
    )
}

/// Runs several configurations in parallel and returns the reports in
/// input order. Work is chunked across [`default_workers`] OS threads
/// — one thread per *worker*, not per config, so arbitrarily large
/// sweeps neither oversubscribe the host nor exhaust thread limits.
/// The available parallelism is probed per call (per shard), and a
/// one-worker shard — a single-core container, or a one-config cell —
/// runs inline with no threading machinery at all.
pub fn run_configs<F>(configs: Vec<SimConfig>, duration: SimDuration, setup: F) -> Vec<SimReport>
where
    F: Fn(&mut Simulation) + Sync,
{
    run_parallel(configs, duration, default_workers(), &setup)
}

/// Like [`run_configs`] with an explicit worker count (1 = serial).
/// Results are identical for every worker count: each simulation is
/// self-contained and deterministic given its config, and reports are
/// returned in input order regardless of which worker ran them.
pub fn run_configs_with_workers<F>(
    configs: Vec<SimConfig>,
    duration: SimDuration,
    workers: usize,
    setup: F,
) -> Vec<SimReport>
where
    F: Fn(&mut Simulation) + Sync,
{
    run_parallel(configs, duration, workers, &setup)
}

/// The default worker count: the host's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `workers` OS threads and returns the
/// results in input order. This is the generic core under
/// [`run_configs`]; sweeps whose unit of work is *not* "build one
/// simulation, run, report" — the fork-sweep's warm-up-then-fork
/// groups, for instance — map their own closures over it, and so does
/// the fleet, one call per epoch. Results are identical for every
/// worker count: each item is processed independently and slotted
/// back by index. One effective worker — a single-core container, or a
/// cell too small to share — is a plain serial loop with no spawned
/// thread.
///
/// Otherwise the caller and `workers - 1` scoped helpers take items
/// off a shared index, whichever is free next: work-stealing, because
/// items can differ wildly in cost (a 64-package machine simulates far
/// slower than a 2-package one). A panic in `f` reaches the caller
/// with its own payload, whichever thread raised it.
pub fn map_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    // The shared index publishes no data (items are only read, and
    // results come back through `join`), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let steal = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(|_| steal())).collect();
        let mut done = steal();
        for helper in helpers {
            // Joined here, a helper's panic re-raises with its own
            // payload instead of the scope's generic one.
            done.extend(helper.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        for (i, out) in done {
            slots[i] = Some(out);
        }
    })
    .expect("crossbeam scope");
    slots
        .into_iter()
        .map(|out| out.expect("every slot filled"))
        .collect()
}

fn run_parallel<F>(
    configs: Vec<SimConfig>,
    duration: SimDuration,
    workers: usize,
    setup: &F,
) -> Vec<SimReport>
where
    F: Fn(&mut Simulation) + Sync,
{
    map_parallel(&configs, workers, |cfg| {
        let mut sim = Simulation::new(cfg.clone());
        setup(&mut sim);
        sim.run_for(duration);
        sim.report()
    })
}

/// The mean of a per-report metric.
pub fn mean<F: Fn(&SimReport) -> f64>(reports: &[SimReport], f: F) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workloads::catalog;
    use std::panic::AssertUnwindSafe;
    use std::sync::Mutex;

    #[test]
    fn seeds_run_in_parallel_and_stay_deterministic() {
        let base = SimConfig::xseries445().smt(false);
        let setup = |sim: &mut Simulation| {
            sim.spawn_program(&catalog::aluadd());
            sim.spawn_program(&catalog::memrw());
        };
        let a = run_seeds(&base, &[1, 2, 3], SimDuration::from_secs(1), setup);
        let b = run_seeds(&base, &[1, 2, 3], SimDuration::from_secs(1), setup);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.instructions_retired, y.instructions_retired);
        }
        // Different seeds genuinely differ.
        assert_ne!(a[0].instructions_retired, a[1].instructions_retired);
    }

    #[test]
    fn run_one_matches_manual_run() {
        let cfg = SimConfig::xseries445().smt(false).seed(9);
        let report = run_one(cfg.clone(), SimDuration::from_secs(1), |sim| {
            sim.spawn_program(&catalog::pushpop());
        });
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::pushpop());
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            report.instructions_retired,
            sim.report().instructions_retired
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let configs: Vec<SimConfig> = (0..6)
            .map(|s| SimConfig::xseries445().smt(false).seed(s))
            .collect();
        let setup = |sim: &mut Simulation| {
            sim.spawn_program(&catalog::aluadd());
        };
        // workers == 1 exercises the serial fold (no threads spawned);
        // its reports must be byte-equal to the pooled paths'.
        let serial =
            run_configs_with_workers(configs.clone(), SimDuration::from_millis(300), 1, setup);
        let pooled =
            run_configs_with_workers(configs.clone(), SimDuration::from_millis(300), 3, setup);
        let oversubscribed =
            run_configs_with_workers(configs, SimDuration::from_millis(300), 64, setup);
        assert_eq!(serial.len(), 6);
        for ((a, b), c) in serial.iter().zip(&pooled).zip(&oversubscribed) {
            assert_eq!(a.instructions_retired, b.instructions_retired);
            assert_eq!(a.instructions_retired, c.instructions_retired);
            assert_eq!(a.migrations, b.migrations);
        }
    }

    #[test]
    fn empty_and_default_worker_paths() {
        assert!(run_configs(Vec::new(), SimDuration::from_millis(10), |_| {}).is_empty());
        assert!(default_workers() >= 1);
    }

    /// Runs `f` on its own thread and returns its panic message
    /// (`None` if it returned), failing the test instead of hanging if
    /// it never does.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let message = panic::catch_unwind(AssertUnwindSafe(f))
                .err()
                .map(|payload| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_default()
                });
            tx.send(message).expect("test thread listening");
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("map_parallel hung")
    }

    #[test]
    fn a_panic_on_one_item_reaches_the_caller() {
        for workers in [1, 2, 8] {
            let message = panic_message(move || {
                let items: Vec<usize> = (0..16).collect();
                map_parallel(&items, workers, |&item| {
                    assert!(item != 5, "item 5 fails");
                });
            });
            assert_eq!(
                message.as_deref(),
                Some("item 5 fails"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_helper_thread_panic_reaches_the_caller() {
        // Forces the panic onto a spawned helper: the caller's first
        // item waits until a helper has taken an item and is about to
        // panic on it. The caller must re-raise the helper's own
        // panic, not the scope's generic "a scoped thread panicked".
        let message = panic_message(|| {
            let caller = std::thread::current().id();
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(Some(rx)));
            let items: Vec<usize> = (0..16).collect();
            map_parallel(&items, 2, |_| {
                if std::thread::current().id() != caller {
                    tx.lock().unwrap().send(()).unwrap();
                    panic!("helper fails");
                }
                if let Some(rx) = rx.lock().unwrap().take() {
                    rx.recv().unwrap();
                }
            });
        });
        assert_eq!(message.as_deref(), Some("helper fails"));
    }

    #[test]
    fn mean_helper() {
        let base = SimConfig::xseries445().smt(false);
        let reports = run_seeds(&base, &[1, 2], SimDuration::from_millis(100), |sim| {
            sim.spawn_program(&catalog::aluadd());
        });
        let m = mean(&reports, |r| r.instructions_retired as f64);
        assert!(m > 0.0);
        assert_eq!(mean(&[], |_| 1.0), 0.0);
    }
}
