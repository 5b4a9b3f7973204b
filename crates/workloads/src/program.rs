//! Programs and their per-task runtime state.

use crate::phase::{Behavior, BlockProfile, Phase};
use ebs_counters::EventRates;
use ebs_units::{Instructions, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A workload program: phases plus the behaviour moving between them.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name as reported in tables ("bitcnts", ...).
    pub name: &'static str,
    /// The binary identity, keying the initial-placement table. One
    /// id per program, shared by all its instances — like the inode of
    /// `/usr/bin/bzip2`.
    pub binary: u64,
    /// The phases; phase 0 is the initial/dominant one.
    pub phases: Vec<Phase>,
    /// Phase-transition behaviour.
    pub behavior: Behavior,
    /// Per-timeslice multiplicative activity jitter (relative, e.g.
    /// 0.02 = ±2 %): input-data dependence within a phase.
    pub jitter: f64,
    /// Blocking behaviour, for interactive programs.
    pub blocking: Option<BlockProfile>,
    /// Instructions until the task finishes; `None` runs forever.
    pub total_work: Option<Instructions>,
}

impl Program {
    /// Creates a program.
    ///
    /// # Panics
    ///
    /// Panics if there are no phases, the jitter is outside `[0, 1)`,
    /// or the program is [`Behavior::Cyclic`] and a phase dwells for
    /// zero time (a rotation through zero-dwell phases never consumes
    /// execution time, so it could never finish).
    pub fn new(
        name: &'static str,
        binary: u64,
        phases: Vec<Phase>,
        behavior: Behavior,
        jitter: f64,
    ) -> Self {
        assert!(!phases.is_empty(), "program needs at least one phase");
        assert!(
            (0.0..1.0).contains(&jitter),
            "jitter {jitter} outside [0, 1)"
        );
        assert!(
            !has_zero_dwell_cycle(behavior, &phases),
            "cyclic program with a zero-dwell phase"
        );
        Program {
            name,
            binary,
            phases,
            behavior,
            jitter,
            blocking: None,
            total_work: None,
        }
    }

    /// Adds blocking behaviour.
    pub fn with_blocking(mut self, blocking: BlockProfile) -> Self {
        self.blocking = Some(blocking);
        self
    }

    /// Bounds the task's work so it terminates (for throughput
    /// experiments).
    pub fn with_total_work(mut self, instructions: Instructions) -> Self {
        self.total_work = Some(instructions);
        self
    }

    /// The program's dominant (initial) phase.
    pub fn main_phase(&self) -> &Phase {
        &self.phases[0]
    }
}

/// Per-task runtime state of a program: phase position, per-slice
/// jitter, accumulated work, and a private RNG so every task instance
/// behaves deterministically given its seed (the paper: "the sequence
/// and the duration of these phases depend on the task's input data").
#[derive(Clone, Debug)]
pub struct ProgramState {
    program: Program,
    phase_idx: usize,
    dwell_left: SimDuration,
    /// A one-timeslice spike phase, overriding `phase_idx`.
    spike: Option<usize>,
    jitter_factor: f64,
    work_done: Instructions,
    rng: StdRng,
}

impl ProgramState {
    /// Creates runtime state for one task instance.
    pub fn new(program: Program, seed: u64) -> Self {
        let dwell = program.phases[0].dwell;
        ProgramState {
            program,
            phase_idx: 0,
            dwell_left: dwell,
            spike: None,
            jitter_factor: 1.0,
            work_done: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The program definition.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Index of the phase currently in effect (spikes included).
    #[inline]
    pub fn phase_index(&self) -> usize {
        self.spike.unwrap_or(self.phase_idx)
    }

    /// The phase currently in effect.
    #[inline]
    pub fn active_phase(&self) -> &Phase {
        &self.program.phases[self.phase_index()]
    }

    /// Called when the task starts a new timeslice: resamples the
    /// per-slice jitter and, for spiky programs, decides whether this
    /// slice is a spike.
    pub fn begin_slice(&mut self) {
        let j = self.program.jitter;
        self.jitter_factor = if j > 0.0 {
            1.0 + self.rng.gen_range(-j..=j)
        } else {
            1.0
        };
        self.spike = None;
        if let Behavior::Spiky { spike_prob } = self.program.behavior {
            if self.program.phases.len() > 1 && self.rng.gen_bool(spike_prob) {
                self.spike = Some(self.rng.gen_range(1..self.program.phases.len()));
            }
        }
    }

    /// Called at the end of a timeslice: interactive programs may
    /// decide to block; returns the sleep duration if so.
    pub fn end_slice(&mut self) -> Option<SimDuration> {
        self.spike = None;
        let blocking = self.program.blocking?;
        if self.rng.gen_bool(blocking.prob_per_slice) {
            let scale = self.rng.gen_range(0.5..=1.5);
            Some(blocking.mean_sleep.mul_f64(scale))
        } else {
            None
        }
    }

    /// Advances phase dwell by `dt` of *execution* time (only while the
    /// task actually runs).
    #[inline]
    pub fn advance_time(&mut self, dt: SimDuration) {
        if matches!(self.program.behavior, Behavior::Steady) || self.program.phases.len() < 2 {
            return;
        }
        if let Behavior::Cyclic = self.program.behavior {
            let mut dt = dt;
            while dt >= self.dwell_left {
                dt -= self.dwell_left;
                self.phase_idx = (self.phase_idx + 1) % self.program.phases.len();
                self.dwell_left = self.program.phases[self.phase_idx].dwell;
            }
            self.dwell_left -= dt;
        }
        // Spiky programs stay in phase 0 between spikes.
    }

    /// Execution time until the next dwell-driven phase rotation, or
    /// `None` when the activity cannot change mid-slice (steady and
    /// spiky programs only switch at slice boundaries). A
    /// variable-stride engine bounds its step by this so a cyclic
    /// program's rates stay constant within one step.
    pub fn time_to_phase_change(&self) -> Option<SimDuration> {
        match self.program.behavior {
            Behavior::Cyclic if self.program.phases.len() >= 2 => Some(self.dwell_left),
            _ => None,
        }
    }

    /// The effective event rates right now: the active phase's rates
    /// with the per-slice jitter applied to the activity events.
    #[inline]
    pub fn current_rates(&self) -> EventRates {
        self.active_phase().rates.scale_activity(self.jitter_factor)
    }

    /// The effective IPC right now. Power and speed move together: a
    /// slice with more activity per cycle also retires more
    /// instructions.
    #[inline]
    pub fn ipc(&self) -> f64 {
        self.active_phase().ipc * self.jitter_factor
    }

    /// Credits retired instructions; returns `true` when the program's
    /// total work is complete.
    #[inline]
    pub fn add_work(&mut self, instructions: Instructions) -> bool {
        self.work_done = self.work_done.saturating_add(instructions);
        self.is_complete()
    }

    /// Whether the program has finished its work.
    #[inline]
    pub fn is_complete(&self) -> bool {
        match self.program.total_work {
            Some(total) => self.work_done >= total,
            None => false,
        }
    }

    /// Instructions retired so far.
    pub fn work_done(&self) -> Instructions {
        self.work_done
    }
}

/// Whether a [`Behavior::Cyclic`] program has a phase it would leave
/// as soon as it entered it.
fn has_zero_dwell_cycle(behavior: Behavior, phases: &[Phase]) -> bool {
    matches!(behavior, Behavior::Cyclic) && phases.iter().any(|p| p.dwell.is_zero())
}

fn behavior_code(b: Behavior) -> (u8, f64) {
    match b {
        Behavior::Steady => (0, 0.0),
        Behavior::Cyclic => (1, 0.0),
        Behavior::Spiky { spike_prob } => (2, spike_prob),
    }
}

fn behavior_from_code(code: u8, arg: f64) -> Result<Behavior, ebs_store::StoreError> {
    match code {
        0 => Ok(Behavior::Steady),
        1 => Ok(Behavior::Cyclic),
        2 => Ok(Behavior::Spiky {
            spike_prob: probability("spike probability", arg)?,
        }),
        _ => Err(ebs_store::StoreError::Invalid(format!(
            "behavior code {code}"
        ))),
    }
}

/// `p` when it is a probability, else the restore error naming `what`
/// (a draw with it would panic).
fn probability(what: &str, p: f64) -> Result<f64, ebs_store::StoreError> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(ebs_store::StoreError::Invalid(format!(
            "{what} {p} outside [0, 1]"
        )))
    }
}

impl ebs_store::Snapshot for Program {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.str(self.name);
        w.u64(self.binary);
        w.seq(&self.phases, |w, phase| {
            w.str(phase.name);
            phase.rates.save(w);
            w.f64(phase.ipc);
            w.duration(phase.dwell);
        });
        let (code, arg) = behavior_code(self.behavior);
        w.u8(code);
        w.f64(arg);
        w.f64(self.jitter);
        w.opt(&self.blocking, |w, b| {
            w.f64(b.prob_per_slice);
            w.duration(b.mean_sleep);
        });
        w.opt(&self.total_work, |w, &i| w.u64(i));
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        // Program names come from the static catalog; snapshots of
        // dynamically assembled programs round-trip through the
        // interner.
        self.name = ebs_store::intern(&r.str()?);
        self.binary = r.u64()?;
        let phases = r.seq(|r| {
            let name = ebs_store::intern(&r.str()?);
            let mut rates = ebs_counters::EventRates::HALTED;
            rates.restore(r)?;
            let ipc = r.f64()?;
            let dwell = r.duration()?;
            Ok(Phase {
                name,
                rates,
                ipc,
                dwell,
            })
        })?;
        if phases.is_empty() {
            return Err(ebs_store::StoreError::Invalid(
                "program with no phases".into(),
            ));
        }
        self.phases = phases;
        let code = r.u8()?;
        let arg = r.f64()?;
        self.behavior = behavior_from_code(code, arg)?;
        if has_zero_dwell_cycle(self.behavior, &self.phases) {
            return Err(ebs_store::StoreError::Invalid(
                "cyclic program with a zero-dwell phase".into(),
            ));
        }
        // `Program::new`'s bound: jitter samples stay in (0, 2).
        self.jitter = r.f64()?;
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(ebs_store::StoreError::Invalid(format!(
                "jitter {} outside [0, 1)",
                self.jitter
            )));
        }
        self.blocking = r.opt(|r| {
            Ok(BlockProfile {
                prob_per_slice: probability("blocking probability", r.f64()?)?,
                mean_sleep: r.duration()?,
            })
        })?;
        self.total_work = r.opt(|r| r.u64())?;
        Ok(())
    }
}

impl ebs_store::Snapshot for ProgramState {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        self.program.save(w);
        w.usize(self.phase_idx);
        w.duration(self.dwell_left);
        w.opt(&self.spike, |w, &i| w.usize(i));
        w.f64(self.jitter_factor);
        w.u64(self.work_done);
        w.u64(self.rng.state());
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.program.restore(r)?;
        self.phase_idx = r.usize()?;
        if self.phase_idx >= self.program.phases.len() {
            return Err(ebs_store::StoreError::Invalid(format!(
                "phase index {} of {}",
                self.phase_idx,
                self.program.phases.len()
            )));
        }
        self.dwell_left = r.duration()?;
        self.spike = r.opt(|r| r.usize())?;
        if let Some(spike) = self.spike.filter(|&i| i >= self.program.phases.len()) {
            return Err(ebs_store::StoreError::Invalid(format!(
                "spike phase {spike} of {}",
                self.program.phases.len()
            )));
        }
        // The activity scale every rate query applies.
        self.jitter_factor = r.f64()?;
        if !(self.jitter_factor.is_finite() && self.jitter_factor >= 0.0) {
            return Err(ebs_store::StoreError::Invalid(format!(
                "jitter factor {}",
                self.jitter_factor
            )));
        }
        self.work_done = r.u64()?;
        self.rng = StdRng::from_state(r.u64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_counters::{EnergyModel, EventRates};
    use ebs_store::Snapshot;
    use ebs_units::Watts;

    fn two_phase_program(behavior: Behavior) -> Program {
        Program::new(
            "test",
            1,
            vec![
                Phase::new(
                    "main",
                    EventRates::builder().uops_retired(2.0).build(),
                    1.5,
                    SimDuration::from_secs(1),
                ),
                Phase::new(
                    "alt",
                    EventRates::builder().uops_retired(0.5).build(),
                    0.5,
                    SimDuration::from_secs(2),
                ),
            ],
            behavior,
            0.02,
        )
    }

    #[test]
    fn steady_program_never_changes_phase() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Steady), 1);
        for _ in 0..100 {
            s.begin_slice();
            s.advance_time(SimDuration::from_millis(100));
            assert_eq!(s.phase_index(), 0);
        }
    }

    #[test]
    fn cyclic_program_rotates_on_dwell() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Cyclic), 1);
        assert_eq!(s.phase_index(), 0);
        s.advance_time(SimDuration::from_millis(1_000));
        assert_eq!(s.phase_index(), 1);
        s.advance_time(SimDuration::from_millis(2_000));
        assert_eq!(s.phase_index(), 0);
        // Multiple dwells in one call wrap correctly.
        s.advance_time(SimDuration::from_millis(3_000));
        assert_eq!(s.phase_index(), 0);
    }

    #[test]
    fn time_to_phase_change_tracks_dwell() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Cyclic), 1);
        assert_eq!(s.time_to_phase_change(), Some(SimDuration::from_secs(1)));
        s.advance_time(SimDuration::from_millis(400));
        assert_eq!(
            s.time_to_phase_change(),
            Some(SimDuration::from_millis(600))
        );
        // Steady programs never change mid-slice.
        let s = ProgramState::new(two_phase_program(Behavior::Steady), 1);
        assert_eq!(s.time_to_phase_change(), None);
        let s = ProgramState::new(two_phase_program(Behavior::Spiky { spike_prob: 0.5 }), 1);
        assert_eq!(s.time_to_phase_change(), None);
    }

    #[test]
    fn spiky_program_spikes_for_one_slice() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Spiky { spike_prob: 1.0 }), 7);
        s.begin_slice();
        assert_eq!(s.phase_index(), 1, "guaranteed spike did not occur");
        // The spike ends with the slice.
        let _ = s.end_slice();
        assert_eq!(s.phase_index(), 0);
    }

    #[test]
    fn spike_probability_zero_never_spikes() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Spiky { spike_prob: 0.0 }), 7);
        for _ in 0..200 {
            s.begin_slice();
            assert_eq!(s.phase_index(), 0);
            let _ = s.end_slice();
        }
    }

    #[test]
    fn jitter_moves_power_and_speed_together() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Steady), 3);
        let model = EnergyModel::ground_truth_weights();
        let base_power = model.power_for_rates(&s.program().phases[0].rates, 2.2e9);
        let base_ipc = s.program().phases[0].ipc;
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..50 {
            s.begin_slice();
            let p = model.power_for_rates(&s.current_rates(), 2.2e9);
            let rel_power = (p.0 - base_power.0) / (base_power.0 - 13.2);
            let rel_ipc = s.ipc() / base_ipc - 1.0;
            // Same relative deviation for dynamic power and IPC.
            assert!(
                (rel_power - rel_ipc).abs() < 1e-9,
                "power jitter {rel_power} != ipc jitter {rel_ipc}"
            );
            if rel_ipc < -0.005 {
                saw_low = true;
            }
            if rel_ipc > 0.005 {
                saw_high = true;
            }
        }
        assert!(saw_low && saw_high, "jitter never varied");
        let _ = Watts(0.0);
    }

    #[test]
    fn work_accounting_completes() {
        let p = two_phase_program(Behavior::Steady).with_total_work(1_000);
        let mut s = ProgramState::new(p, 1);
        assert!(!s.add_work(400));
        assert!(!s.is_complete());
        assert!(s.add_work(600));
        assert!(s.is_complete());
        assert_eq!(s.work_done(), 1_000);
    }

    #[test]
    fn unbounded_program_never_completes() {
        let mut s = ProgramState::new(two_phase_program(Behavior::Steady), 1);
        assert!(!s.add_work(u64::MAX / 2));
        assert!(!s.is_complete());
    }

    #[test]
    fn blocking_program_blocks_eventually() {
        let p = two_phase_program(Behavior::Steady)
            .with_blocking(BlockProfile::new(0.5, SimDuration::from_millis(40)));
        let mut s = ProgramState::new(p, 11);
        let mut blocked = 0;
        for _ in 0..100 {
            s.begin_slice();
            if let Some(sleep) = s.end_slice() {
                blocked += 1;
                // ±50 % around the mean.
                assert!(sleep >= SimDuration::from_millis(20));
                assert!(sleep <= SimDuration::from_millis(60));
            }
        }
        assert!(blocked > 20 && blocked < 80, "blocked {blocked}/100");
    }

    #[test]
    fn determinism_per_seed() {
        let mk = || {
            let mut s =
                ProgramState::new(two_phase_program(Behavior::Spiky { spike_prob: 0.3 }), 99);
            let mut trace = Vec::new();
            for _ in 0..50 {
                s.begin_slice();
                trace.push((s.phase_index(), s.ipc().to_bits()));
                let _ = s.end_slice();
            }
            trace
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_program_rejected() {
        let _ = Program::new("bad", 0, vec![], Behavior::Steady, 0.0);
    }

    fn zero_dwell_phases() -> Vec<Phase> {
        let rates = EventRates::builder().uops_retired(1.0).build();
        vec![
            Phase::new("a", rates, 1.0, SimDuration::ZERO),
            Phase::new("b", rates, 1.0, SimDuration::ZERO),
        ]
    }

    #[test]
    #[should_panic(expected = "cyclic program with a zero-dwell phase")]
    fn zero_dwell_cycle_rejected() {
        // Rotating through these would never consume the time to
        // advance, so `advance_time` would spin forever.
        let _ = Program::new("spin", 0, zero_dwell_phases(), Behavior::Cyclic, 0.0);
    }

    /// Saves `state`, restores the image into a fresh state and
    /// expects the restore to refuse it, naming `what`. A state
    /// restored anyway runs one slice, where the unchecked field
    /// panics: a rate query reads the spike phase and applies the
    /// jitter factor, and a slice's start and end draw with the jitter,
    /// the spike probability and the blocking probability.
    fn assert_refused(state: &ProgramState, what: &str) {
        let mut w = ebs_store::StateWriter::new();
        state.save(&mut w);
        let image = w.finish();
        let mut restored = ProgramState::new(two_phase_program(Behavior::Steady), 1);
        match restored.restore(&mut image.open().expect("valid image")) {
            Err(ebs_store::StoreError::Invalid(msg)) => {
                assert!(msg.contains(what), "{msg:?} does not name {what:?}")
            }
            other => {
                let _ = restored.current_rates();
                restored.begin_slice();
                let _ = restored.current_rates();
                let _ = restored.end_slice();
                panic!("a corrupt program state restored: {other:?}");
            }
        }
    }

    #[test]
    fn restore_refuses_a_spike_past_the_phases() {
        let mut state =
            ProgramState::new(two_phase_program(Behavior::Spiky { spike_prob: 0.5 }), 1);
        state.spike = Some(2);
        assert_refused(&state, "spike phase 2 of 2");
    }

    #[test]
    fn restore_refuses_a_jitter_factor_that_is_not_a_scale() {
        for factor in [f64::NAN, -0.5] {
            let mut state = ProgramState::new(two_phase_program(Behavior::Steady), 1);
            state.jitter_factor = factor;
            assert_refused(&state, &format!("jitter factor {factor}"));
        }
    }

    #[test]
    fn restore_refuses_a_jitter_outside_the_unit_interval() {
        let program = Program {
            jitter: f64::INFINITY,
            ..two_phase_program(Behavior::Steady)
        };
        assert_refused(&ProgramState::new(program, 1), "jitter inf outside [0, 1)");
    }

    #[test]
    fn restore_refuses_a_spike_probability_outside_the_unit_interval() {
        let program = two_phase_program(Behavior::Spiky { spike_prob: 1.5 });
        assert_refused(
            &ProgramState::new(program, 1),
            "spike probability 1.5 outside [0, 1]",
        );
    }

    #[test]
    fn restore_refuses_a_blocking_probability_outside_the_unit_interval() {
        let program = Program {
            blocking: Some(BlockProfile {
                prob_per_slice: 1.5,
                mean_sleep: SimDuration::from_millis(40),
            }),
            ..two_phase_program(Behavior::Steady)
        };
        assert_refused(
            &ProgramState::new(program, 1),
            "blocking probability 1.5 outside [0, 1]",
        );
    }

    #[test]
    fn zero_dwell_cycle_image_is_invalid() {
        // Zero dwell is harmless where nothing rotates on dwell.
        let steady = Program::new("still", 0, zero_dwell_phases(), Behavior::Steady, 0.0);
        let mut state = ProgramState::new(steady.clone(), 1);
        state.advance_time(SimDuration::from_millis(1));
        // The image of a cyclic program whose dwells were zeroed after
        // construction restores to an error, not to a task that hangs
        // on its first step.
        let mut cyclic = two_phase_program(Behavior::Cyclic);
        for phase in &mut cyclic.phases {
            phase.dwell = SimDuration::ZERO;
        }
        let mut w = ebs_store::StateWriter::new();
        ProgramState::new(cyclic, 1).save(&mut w);
        let image = w.finish();
        let mut restored = ProgramState::new(steady, 1);
        let err = restored
            .restore(&mut image.open().expect("valid image"))
            .expect_err("zero-dwell cycle restored");
        assert!(
            matches!(&err, ebs_store::StoreError::Invalid(what) if what.contains("zero-dwell")),
            "{err}"
        );
    }
}
