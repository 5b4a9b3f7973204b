//! The arrival process realising an [`OpenWorkload`]: a thinned
//! homogeneous Poisson process at the curve's peak rate.
//!
//! Candidate instants arrive with exponential gaps at the peak rate
//! and are accepted with probability `rate(t) / peak` — exact for any
//! time-varying rate, and deterministic per seed. The process lives
//! here (not in the engine) so the engine can *peek* the next
//! accepted arrival and bound a variable-length step by it: arrivals
//! then land exactly on step boundaries instead of being quantised to
//! a fixed tick.

use crate::open::OpenWorkload;
use ebs_units::{Instructions, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt separating the arrival RNG stream from the engine's main one,
/// so enabling an open workload never perturbs a closed run's draws.
pub const ARRIVAL_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One accepted arrival, ready for the engine to spawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Index into the workload's program palette.
    pub program_index: usize,
    /// Sampled service demand (total instructions).
    pub work: Instructions,
    /// Seed for the spawned task's private RNG.
    pub seed: u64,
    /// The load-curve phase at the arrival instant, as an index into
    /// the curve's [`LoadCurve::phases`](crate::LoadCurve::phases).
    pub phase: u8,
}

/// One exponential inter-arrival gap at `rate_hz`, at least 1 µs.
fn exp_gap(rng: &mut StdRng, rate_hz: f64) -> SimDuration {
    let u: f64 = rng.gen();
    let secs = -(1.0 - u).ln() / rate_hz;
    SimDuration::from_micros(((secs * 1e6).round() as u64).max(1))
}

/// State of the Poisson arrival process driving an open workload.
///
/// The thinning of rejected candidates is resolved *ahead* of the
/// clock: the process always knows the instant of its next *accepted*
/// arrival, so a variable-stride engine only ends steps at arrivals
/// that actually spawn a task. Resolving ahead consumes the dedicated
/// RNG stream in exactly the order lazy evaluation would, so the
/// arrival sequence is independent of how the clock is advanced.
#[derive(Clone, Debug)]
pub struct ArrivalProcess {
    spec: OpenWorkload,
    /// Dedicated RNG: arrivals, palette picks, and service demands.
    rng: StdRng,
    /// Next candidate of the peak-rate (pre-thinning) process still
    /// to be resolved.
    next_candidate: SimTime,
    /// The next accepted arrival, already resolved.
    pending: Option<(SimTime, Arrival)>,
    accepted: u64,
}

impl ArrivalProcess {
    /// Creates the process for `spec`, deriving its RNG stream from
    /// the engine seed via [`ARRIVAL_SEED_SALT`].
    pub fn new(spec: OpenWorkload, engine_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(engine_seed ^ ARRIVAL_SEED_SALT);
        let peak = spec.peak_rate();
        let next_candidate = if peak > 0.0 {
            SimTime::ZERO + exp_gap(&mut rng, peak)
        } else {
            SimTime::from_micros(u64::MAX)
        };
        let mut process = ArrivalProcess {
            spec,
            rng,
            next_candidate,
            pending: None,
            accepted: 0,
        };
        process.resolve();
        process
    }

    /// The workload description the process realises.
    pub fn spec(&self) -> &OpenWorkload {
        &self.spec
    }

    /// Advances the candidate stream until one candidate survives the
    /// thinning (or the stream runs dry for a zero rate).
    fn resolve(&mut self) {
        let peak = self.spec.peak_rate();
        if peak <= 0.0 {
            return;
        }
        while self.pending.is_none() {
            let t = self.next_candidate;
            self.next_candidate = t + exp_gap(&mut self.rng, peak);
            let accept = (self.spec.rate_at(t) / peak).clamp(0.0, 1.0);
            if self.rng.gen_bool(accept) {
                let program_index = self.rng.gen_range(0..self.spec.programs.len());
                let work = self.rng.gen_range(self.spec.min_work..=self.spec.max_work);
                let seed = self.rng.gen();
                self.pending = Some((
                    t,
                    Arrival {
                        program_index,
                        work,
                        seed,
                        phase: self.spec.curve.phase_at(t),
                    },
                ));
            }
        }
    }

    /// The instant of the next *accepted* arrival — a variable-stride
    /// engine ends its step here so the spawn happens on time;
    /// effectively `u64::MAX` µs when the rate is zero.
    pub fn next_arrival(&self) -> SimTime {
        self.pending
            .as_ref()
            .map_or(SimTime::from_micros(u64::MAX), |&(t, _)| t)
    }

    /// Arrivals accepted so far (released through
    /// [`ArrivalProcess::pop_due`]).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Pops every arrival due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(&(t, arrival)) = self.pending.as_ref() {
            if t > now {
                break;
            }
            self.pending = None;
            self.accepted += 1;
            out.push(arrival);
            self.resolve();
        }
        out
    }
}

impl ebs_store::Snapshot for ArrivalProcess {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // The workload spec is config; the stream position is state.
        w.u64(self.rng.state());
        w.time(self.next_candidate);
        w.opt(&self.pending, |w, &(t, a)| {
            w.time(t);
            w.usize(a.program_index);
            w.u64(a.work);
            w.u64(a.seed);
            w.u8(a.phase);
        });
        w.u64(self.accepted);
    }

    /// Restores into a process built from the *same* spec and any
    /// seed: every cursor of the stream is overwritten, so the next
    /// accepted arrival is exactly the one the saved process would
    /// have produced.
    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.rng = StdRng::from_state(r.u64()?);
        self.next_candidate = r.time()?;
        self.pending = r.opt(|r| {
            let t = r.time()?;
            let program_index = r.usize()?;
            let work = r.u64()?;
            let seed = r.u64()?;
            let phase = r.u8()?;
            Ok((
                t,
                Arrival {
                    program_index,
                    work,
                    seed,
                    phase,
                },
            ))
        })?;
        if let Some((_, a)) = &self.pending {
            if a.program_index >= self.spec.programs.len() {
                return Err(ebs_store::StoreError::Invalid(format!(
                    "pending arrival references program {} of {}",
                    a.program_index,
                    self.spec.programs.len()
                )));
            }
            let phases = self.spec.curve.phases().len();
            if usize::from(a.phase) >= phases {
                return Err(ebs_store::StoreError::Invalid(format!(
                    "pending arrival references load-curve phase {} of {phases}",
                    a.phase
                )));
            }
        }
        self.accepted = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::open::LoadCurve;

    fn workload(rate: f64) -> OpenWorkload {
        OpenWorkload::new(vec![catalog::aluadd(), catalog::memrw()], rate)
            .service_work(1_000, 2_000)
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = ArrivalProcess::new(workload(50.0), seed);
            p.pop_due(SimTime::from_secs(2))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn chopping_does_not_change_the_stream() {
        // Popping in many small windows yields the same arrivals as
        // one big pop — the property that lets strides vary freely.
        let mut coarse = ArrivalProcess::new(workload(80.0), 3);
        let all = coarse.pop_due(SimTime::from_secs(1));
        let mut fine = ArrivalProcess::new(workload(80.0), 3);
        let mut chopped = Vec::new();
        for ms in (0..=1_000).step_by(7) {
            chopped.extend(fine.pop_due(SimTime::from_millis(ms)));
        }
        chopped.extend(fine.pop_due(SimTime::from_secs(1)));
        assert_eq!(all, chopped);
        assert_eq!(coarse.accepted(), fine.accepted());
    }

    #[test]
    fn rates_and_bounds_respected() {
        let mut p = ArrivalProcess::new(workload(100.0), 1);
        let arrivals = p.pop_due(SimTime::from_secs(10));
        // ~1000 expected; be generous.
        assert!(arrivals.len() > 700, "only {}", arrivals.len());
        for a in &arrivals {
            assert!(a.program_index < 2);
            assert!((1_000..=2_000).contains(&a.work));
            assert_eq!(a.phase, 0, "the constant curve's one phase");
        }
        assert_eq!(p.accepted(), arrivals.len() as u64);
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut p = ArrivalProcess::new(workload(0.0), 1);
        assert!(p.pop_due(SimTime::from_secs(1_000)).is_empty());
        assert_eq!(p.next_arrival(), SimTime::from_micros(u64::MAX));
    }

    #[test]
    fn arrival_peek_matches_pop() {
        let mut p = ArrivalProcess::new(workload(20.0), 5);
        let first = p.next_arrival();
        assert!(first > SimTime::ZERO);
        // Nothing due strictly before the peeked arrival, exactly one
        // at it, and the peek then moves strictly forward.
        assert!(p
            .pop_due(SimTime::from_micros(first.as_micros() - 1))
            .is_empty());
        assert_eq!(p.next_arrival(), first);
        assert_eq!(p.pop_due(first).len(), 1);
        assert!(p.next_arrival() > first);
    }

    #[test]
    fn thinning_is_resolved_ahead_of_the_clock() {
        // A heavily thinned stream (rate factor 0.1 before the step)
        // still reports the next *accepted* arrival, not the next
        // candidate of the peak-rate envelope.
        let spec = workload(100.0).curve(LoadCurve::Step {
            at: SimDuration::from_secs(1_000),
            before: 0.01,
            after: 1.0,
        });
        let p = ArrivalProcess::new(spec, 2);
        // Mean accepted gap ~1 s vs candidate gap ~10 ms.
        assert!(p.next_arrival() > SimTime::from_millis(50));
    }

    /// A pending arrival's phase past its curve's phases is refused
    /// on restore; one within them restores.
    #[test]
    fn restore_refuses_a_pending_phase_past_the_curve() {
        use ebs_store::Snapshot as _;
        let spec = workload(20.0).curve(LoadCurve::Diurnal {
            period: SimDuration::from_secs(8),
            floor: 0.25,
        });
        for (phase, refused) in [(1, false), (2, true), (u8::MAX, true)] {
            let mut p = ArrivalProcess::new(spec.clone(), 5);
            p.pending.as_mut().expect("an arrival is resolved").1.phase = phase;
            let mut w = ebs_store::StateWriter::new();
            p.save(&mut w);
            let image = w.finish();
            let mut restored = ArrivalProcess::new(spec.clone(), 0);
            match restored.restore(&mut image.open().expect("valid image")) {
                Err(ebs_store::StoreError::Invalid(msg)) if refused => {
                    let what = format!("load-curve phase {phase} of 2");
                    assert!(msg.contains(&what), "{msg:?} does not name {what:?}");
                }
                Ok(()) if !refused => {
                    assert_eq!(restored.pop_due(SimTime::from_secs(60))[0].phase, 1)
                }
                other => panic!("phase {phase}: {other:?}"),
            }
        }
    }

    #[test]
    fn thinning_follows_the_curve() {
        let spec = workload(100.0).curve(LoadCurve::Step {
            at: SimDuration::from_secs(5),
            before: 0.1,
            after: 1.0,
        });
        let mut p = ArrivalProcess::new(spec, 11);
        let before = p.pop_due(SimTime::from_secs(5)).len();
        let after = p.pop_due(SimTime::from_secs(10)).len();
        assert!(
            after > before * 3,
            "thinning ignored the curve: {before} vs {after}"
        );
    }
}
