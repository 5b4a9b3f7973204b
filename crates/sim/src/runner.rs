//! Parallel experiment running.
//!
//! The paper averages its migration counts and throughput numbers over
//! several runs; the benchmark harness sweeps workload mixes and task
//! counts. Both map to running many independent simulations, which
//! parallelise trivially — each simulation is self-contained and
//! deterministic given its config.
//!
//! Underneath is the crate's one work-stealing loop, [`run_rounds`]:
//! rounds of work over a slice on threads spawned once per call, which
//! park between rounds while a serial step runs alone on the calling
//! thread, and the caller works as one of the threads. A sweep is its
//! one-round case ([`map_parallel`]); the partitioned engine
//! ([`crate::ParallelSimulation`]) runs one round per horizon.

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::trace::SimReport;
use ebs_units::SimDuration;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// Maps `f` over `items` on a work-stealing pool of `workers` OS
/// threads and returns the results in input order. This is the
/// generic core under [`run_configs`]; sweeps whose unit of work is
/// *not* "build one simulation, run, report" — the fork-sweep's
/// warm-up-then-fork groups, for instance — map their own closures
/// over it. Results are identical for every worker count: each item
/// is processed independently and slotted back by index. One
/// effective worker — a single-core container, or a cell too small to
/// share — is a plain serial loop with no spawned thread.
///
/// It is the one-round case of the crate's round runner, the same
/// work-stealing loop the partitioned engine steps its partitions on.
pub fn map_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<(&T, Option<R>)> = items.iter().map(|item| (item, None)).collect();
    let mut pending = true;
    run_rounds(
        &mut slots,
        workers,
        |_| std::mem::take(&mut pending).then_some(()),
        |(item, out), ()| *out = Some(f(*item)),
    );
    slots
        .into_iter()
        .map(|(_, out)| out.expect("every slot filled"))
        .collect()
}

/// Runs rounds of work over `items` on `workers` threads: the caller
/// plus `workers - 1` helpers, spawned once for the whole call and
/// parked between rounds.
///
/// Before each round, `serial` runs alone on the caller with every
/// item in index order and returns the round's parameter, or `None`
/// to stop. The round then applies `work(item, param)` to every item
/// exactly once. Items are taken from a shared index by whichever
/// thread is free — work-stealing, because items can differ wildly in
/// cost — and the round ends only when every item is done, so the
/// next `serial` sees each item's state after it. With one effective
/// worker everything runs on the caller and no thread is spawned.
///
/// A panic in `work` on any thread, or in `serial`, reaches the
/// caller as a panic; the helpers are told to exit first, so nothing
/// waits on a parked thread.
pub(crate) fn run_rounds<T, P, S, W>(items: &mut [T], workers: usize, mut serial: S, work: W)
where
    T: Send,
    P: Copy + Send,
    S: FnMut(&mut [&mut T]) -> Option<P>,
    W: Fn(&mut T, P) + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        let mut view: Vec<&mut T> = items.iter_mut().collect();
        while let Some(param) = serial(&mut view) {
            for item in view.iter_mut() {
                work(item, param);
            }
        }
        return;
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let rounds = Rounds {
        next: AtomicUsize::new(0),
        state: Mutex::new(RoundState {
            published: 0,
            param: None,
            busy: 0,
            panic: None,
        }),
        wake: Condvar::new(),
        done: Condvar::new(),
    };
    let (slots, work, rounds) = (&slots, &work, &rounds);
    crossbeam::thread::scope(|scope| {
        // Dropped on every way out of this closure, unwinding
        // included: the helpers wake to a stop and exit, so the scope
        // can join them.
        let _stop = StopHelpers(rounds);
        for _ in 1..workers {
            scope.spawn(move |_| rounds.help(slots, work));
        }
        loop {
            let param = {
                // The helpers are parked: every lock is uncontended.
                let mut guards: Vec<_> = slots
                    .iter()
                    .map(|slot| slot.lock().expect("item slot poisoned"))
                    .collect();
                let mut view: Vec<&mut T> = guards.iter_mut().map(|g| &mut ***g).collect();
                serial(&mut view)
            };
            let Some(param) = param else { break };
            rounds.run(slots, work, param, workers - 1);
        }
    })
    .expect("crossbeam scope");
}

/// The hand-off between [`run_rounds`]' caller and its helpers.
struct Rounds<P> {
    /// The shared index the current round's items are taken from.
    next: AtomicUsize,
    state: Mutex<RoundState<P>>,
    /// Signals helpers that a round, or the stop, was published.
    wake: Condvar,
    /// Signals the caller that the last helper left the round.
    done: Condvar,
}

struct RoundState<P> {
    /// Rounds published so far, the stop included; a parked helper
    /// waits for it to move.
    published: u64,
    /// The published round's parameter; `None` tells helpers to exit.
    param: Option<P>,
    /// Helpers still inside the published round.
    busy: usize,
    /// The first panic a helper caught in the published round.
    panic: Option<Box<dyn Any + Send>>,
}

impl<P: Copy> Rounds<P> {
    fn lock(&self) -> MutexGuard<'_, RoundState<P>> {
        self.state.lock().expect("round state poisoned")
    }

    /// Takes items off the shared index until none are left.
    fn steal<T, W: Fn(&mut T, P)>(&self, slots: &[Mutex<&mut T>], work: &W, param: P) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return };
            work(&mut slot.lock().expect("item slot poisoned"), param);
        }
    }

    /// The caller's side of one round: publish it, steal alongside
    /// the helpers, wait for the last of them, and re-raise the first
    /// panic one of them caught.
    fn run<T, W: Fn(&mut T, P)>(
        &self,
        slots: &[Mutex<&mut T>],
        work: &W,
        param: P,
        helpers: usize,
    ) {
        // Every helper left the previous round before `busy` reached
        // zero, so none can still be taking from the old index. The
        // index publishes no data: the reset reaches the helpers
        // through the state mutex (unlocked below, locked by each
        // helper before it steals), and item data through the slots.
        self.next.store(0, Ordering::Relaxed);
        {
            let mut state = self.lock();
            state.published += 1;
            state.param = Some(param);
            state.busy = helpers;
            self.wake.notify_all();
        }
        self.steal(slots, work, param);
        let mut state = self.lock();
        while state.busy > 0 {
            state = self.done.wait(state).expect("round state poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
    }

    /// A helper's life: park until a round is published, steal its
    /// items, leave it; exit at the stop. A panic in `work` ends the
    /// helper's part of the round and is handed to the caller.
    fn help<T, W: Fn(&mut T, P)>(&self, slots: &[Mutex<&mut T>], work: &W) {
        let mut seen = 0;
        loop {
            let param = {
                let mut state = self.lock();
                while state.published == seen {
                    state = self.wake.wait(state).expect("round state poisoned");
                }
                seen = state.published;
                state.param
            };
            let Some(param) = param else { return };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| self.steal(slots, work, param)));
            let mut state = self.lock();
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.busy -= 1;
            if state.busy == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Publishes the stop when dropped.
struct StopHelpers<'a, P>(&'a Rounds<P>);

impl<P> Drop for StopHelpers<'_, P> {
    fn drop(&mut self) {
        // Never panic here: this runs while the caller unwinds.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.published += 1;
        state.param = None;
        self.0.wake.notify_all();
    }
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

    /// Runs five rounds of `x <- 3x + round` over 16 items and returns
    /// what the serial step saw before each round, plus the end state.
    fn rounds_log(workers: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
        let mut items: Vec<u64> = (0..16).collect();
        let mut seen = Vec::new();
        run_rounds(
            &mut items,
            workers,
            |view| {
                seen.push(view.iter().map(|x| **x).collect::<Vec<u64>>());
                (seen.len() <= 5).then_some(seen.len() as u64)
            },
            |x, round| *x = *x * 3 + round,
        );
        (seen, items)
    }

    #[test]
    fn rounds_are_worker_count_invariant_and_serial_sees_each_round() {
        let (seen, end) = rounds_log(1);
        // Five rounds, then the serial step that stops.
        assert_eq!(seen.len(), 6);
        let mut expect: Vec<u64> = (0..16).collect();
        for (round, state) in seen.iter().enumerate() {
            assert_eq!(state, &expect, "serial step before round {}", round + 1);
            for x in &mut expect {
                *x = *x * 3 + round as u64 + 1;
            }
        }
        assert_eq!(end, seen[5]);
        for workers in [2, 8] {
            assert_eq!(
                rounds_log(workers),
                (seen.clone(), end.clone()),
                "{workers} workers"
            );
        }
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
            .expect("round runner hung")
    }

    /// Five rounds over 16 items; `work` sees `(item, round)`.
    fn five_rounds(workers: usize, work: impl Fn(usize, u64) + Sync) {
        let mut items: Vec<usize> = (0..16).collect();
        let mut round = 0;
        run_rounds(
            &mut items,
            workers,
            |_| {
                round += 1;
                (round <= 5).then_some(round)
            },
            |item, round| work(*item, round),
        );
    }

    #[test]
    fn a_work_panic_in_round_three_reaches_the_caller() {
        for workers in [1, 2, 8] {
            let message = panic_message(move || {
                five_rounds(workers, |item, round| {
                    assert!(round != 3 || item != 5, "item 5 fails in round 3");
                });
            });
            assert_eq!(
                message.as_deref(),
                Some("item 5 fails in round 3"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_helper_thread_panic_reaches_the_caller() {
        // Forces the panic onto a spawned helper: in round 3 the
        // caller's first item waits until a helper has taken an item
        // and is about to panic on it. The caller must re-raise the
        // helper's own panic, not a later symptom of it.
        let message = panic_message(|| {
            let caller = std::thread::current().id();
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(Some(rx)));
            five_rounds(2, |_, round| {
                if round != 3 {
                    return;
                }
                if std::thread::current().id() != caller {
                    tx.lock().unwrap().send(()).unwrap();
                    panic!("helper fails in round 3");
                }
                if let Some(rx) = rx.lock().unwrap().take() {
                    rx.recv().unwrap();
                }
            });
        });
        assert_eq!(message.as_deref(), Some("helper fails in round 3"));
    }

    #[test]
    fn a_serial_step_panic_after_round_two_reaches_the_caller() {
        for workers in [1, 2, 8] {
            let message = panic_message(move || {
                let mut items = vec![0u64; 16];
                let mut rounds = 0;
                run_rounds(
                    &mut items,
                    workers,
                    |_| {
                        assert!(rounds < 2, "serial step fails after round 2");
                        rounds += 1;
                        Some(())
                    },
                    |x, ()| *x += 1,
                );
            });
            assert_eq!(
                message.as_deref(),
                Some("serial step fails after round 2"),
                "{workers} workers"
            );
        }
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
