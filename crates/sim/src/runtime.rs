//! Per-task runtime state: the running program plus the cache-warmth
//! model.
//!
//! Migrations break processor affinity (Section 4.1): after a move the
//! task must refill caches, which the simulator models as a reduced IPC
//! ramping linearly back to 1 over a number of instructions. "Caches
//! can be considered warm after executing some millions of
//! instructions" (Section 6.5) — three orders of magnitude less than
//! the ~10 billion instructions between hot-task migrations, which is
//! why the paper calls the penalty negligible. The model makes that
//! argument measurable rather than assumed.

use ebs_units::{Instructions, SimTime};
use ebs_workloads::ProgramState;

/// Cache-warmth parameters (from the simulation config).
#[derive(Clone, Copy, Debug)]
pub struct WarmthModel {
    /// IPC factor immediately after an intra-node migration.
    pub floor: f64,
    /// Instructions to full warmth, intra-node.
    pub ramp: u64,
    /// IPC factor immediately after a cross-node migration.
    pub floor_cross_node: f64,
    /// Instructions to full warmth, cross-node.
    pub ramp_cross_node: u64,
}

/// Runtime state the engine keeps for each live task.
#[derive(Clone, Debug)]
pub struct TaskRuntime {
    /// The program execution state.
    pub program: ProgramState,
    /// Migration count last seen by the engine (to detect new moves).
    pub migrations_seen: u64,
    /// Instructions executed since the last migration.
    instr_since_migration: Instructions,
    /// Whether the last migration crossed a node boundary.
    last_move_cross_node: bool,
    /// Whether the first timeslice has completed (placement table).
    pub first_slice_recorded: bool,
    /// The core class the task last executed on. A dispatch onto a
    /// different class triggers the estimator's cross-class profile
    /// refit (the same counter activity costs different energy there).
    pub last_class: usize,
    /// When (and in which load-curve phase, an index into the curve's
    /// phases) the task arrived, for open-workload tasks; `None` marks
    /// closed-workload tasks, which respawn instead of reporting a
    /// sojourn time.
    pub arrival: Option<(SimTime, u8)>,
}

impl TaskRuntime {
    /// Creates runtime state for a freshly spawned task. A new task
    /// starts cold (it has never touched any cache).
    pub fn new(program: ProgramState) -> Self {
        TaskRuntime {
            program,
            migrations_seen: 0,
            instr_since_migration: 0,
            last_move_cross_node: false,
            first_slice_recorded: false,
            last_class: 0,
            arrival: None,
        }
    }

    /// Notes that the task was migrated (the engine observed its
    /// migration counter advance); resets warmth.
    pub fn note_migration(&mut self, migrations: u64, cross_node: bool) {
        self.migrations_seen = migrations;
        self.instr_since_migration = 0;
        self.last_move_cross_node = cross_node;
    }

    /// Credits executed instructions towards cache warmth.
    pub fn add_warmth(&mut self, instructions: Instructions) {
        self.instr_since_migration = self.instr_since_migration.saturating_add(instructions);
    }

    /// The current IPC multiplier in `[floor, 1]`.
    pub fn warmth_factor(&self, model: &WarmthModel) -> f64 {
        let (floor, ramp) = if self.last_move_cross_node {
            (model.floor_cross_node, model.ramp_cross_node)
        } else {
            (model.floor, model.ramp)
        };
        if self.instr_since_migration >= ramp {
            return 1.0;
        }
        let progress = self.instr_since_migration as f64 / ramp as f64;
        floor + (1.0 - floor) * progress
    }
}

impl ebs_store::Snapshot for TaskRuntime {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        self.program.save(w);
        w.u64(self.migrations_seen);
        w.u64(self.instr_since_migration);
        w.bool(self.last_move_cross_node);
        w.bool(self.first_slice_recorded);
        w.usize(self.last_class);
        w.opt(&self.arrival, |w, &(t, phase)| {
            w.time(t);
            w.u8(phase);
        });
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        self.program.restore(r)?;
        self.migrations_seen = r.u64()?;
        self.instr_since_migration = r.u64()?;
        self.last_move_cross_node = r.bool()?;
        self.first_slice_recorded = r.bool()?;
        self.last_class = r.usize()?;
        self.arrival = r.opt(|r| Ok((r.time()?, r.u8()?)))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_units::SimDuration;
    use ebs_workloads::{Behavior, Phase, Program};

    fn model() -> WarmthModel {
        WarmthModel {
            floor: 0.55,
            ramp: 40_000_000,
            floor_cross_node: 0.40,
            ramp_cross_node: 90_000_000,
        }
    }

    fn runtime() -> TaskRuntime {
        let program = Program::new(
            "t",
            1,
            vec![Phase::new(
                "p",
                ebs_counters::EventRates::builder()
                    .uops_retired(1.0)
                    .build(),
                1.0,
                SimDuration::from_secs(1),
            )],
            Behavior::Steady,
            0.0,
        );
        TaskRuntime::new(ProgramState::new(program, 1))
    }

    #[test]
    fn new_task_starts_cold_and_warms_up() {
        let mut rt = runtime();
        let m = model();
        assert!((rt.warmth_factor(&m) - 0.55).abs() < 1e-12);
        rt.add_warmth(20_000_000);
        let half = rt.warmth_factor(&m);
        assert!((half - 0.775).abs() < 1e-9, "{half}");
        rt.add_warmth(20_000_000);
        assert_eq!(rt.warmth_factor(&m), 1.0);
        // Warmth saturates.
        rt.add_warmth(u64::MAX / 2);
        assert_eq!(rt.warmth_factor(&m), 1.0);
    }

    #[test]
    fn migration_resets_warmth() {
        let mut rt = runtime();
        let m = model();
        rt.add_warmth(100_000_000);
        assert_eq!(rt.warmth_factor(&m), 1.0);
        rt.note_migration(1, false);
        assert!((rt.warmth_factor(&m) - 0.55).abs() < 1e-12);
        assert_eq!(rt.migrations_seen, 1);
    }

    #[test]
    fn cross_node_migration_is_costlier() {
        let mut intra = runtime();
        let mut cross = runtime();
        let m = model();
        intra.note_migration(1, false);
        cross.note_migration(1, true);
        assert!(cross.warmth_factor(&m) < intra.warmth_factor(&m));
        // And it takes longer to recover.
        intra.add_warmth(40_000_000);
        cross.add_warmth(40_000_000);
        assert_eq!(intra.warmth_factor(&m), 1.0);
        assert!(cross.warmth_factor(&m) < 1.0);
    }

    #[test]
    fn warmth_penalty_is_negligible_at_paper_scale() {
        // Section 6.5: a migration every ~10 s costs well under 1 % of
        // the ~10 billion instructions executed between moves.
        let m = model();
        let mut rt = runtime();
        rt.note_migration(1, false);
        // Integrate lost instructions over the ramp: average factor
        // (floor+1)/2 over `ramp` instructions of progress.
        let lost = (1.0 - (m.floor + 1.0) / 2.0) * m.ramp as f64;
        let between_migrations = 10e9;
        assert!(
            lost / between_migrations < 0.01,
            "warmup loss fraction {}",
            lost / between_migrations
        );
    }
}
