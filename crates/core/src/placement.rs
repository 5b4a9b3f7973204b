//! Initial task placement (Section 4.6).
//!
//! A task's energy characteristics cannot be known before it runs, but
//! its *initial* behaviour (initialisation code) is independent of the
//! input data. The paper therefore stores the energy a task consumed
//! during its first timeslice in a hash table indexed by the inode
//! number of the task's binary, and seeds the energy profile of every
//! new task from that table (falling back to a default for binaries
//! started for the very first time).
//!
//! With the seeded profile, the scheduler places the task on a CPU
//! that (a) does not create a load imbalance — only CPUs with the
//! minimum number of running tasks are eligible — and (b) brings the
//! CPU's runqueue power ratio as close as possible to the system-wide
//! average ratio.

use crate::metrics::{runqueue_power, PowerState};
use ebs_sched::{BinaryId, System};
use ebs_topology::CpuId;
use ebs_units::Watts;
use std::collections::HashMap;

/// The per-binary first-timeslice energy table.
#[derive(Clone, Debug)]
pub struct PlacementTable {
    entries: HashMap<BinaryId, Watts>,
    default_profile: Watts,
    hits: u64,
    misses: u64,
}

impl PlacementTable {
    /// Creates a table with the given default profile for unknown
    /// binaries.
    ///
    /// # Panics
    ///
    /// Panics if the default is not a sane power.
    pub fn new(default_profile: Watts) -> Self {
        assert!(default_profile.is_sane(), "default profile not sane");
        PlacementTable {
            entries: HashMap::new(),
            default_profile,
            hits: 0,
            misses: 0,
        }
    }

    /// The initial profile for a task started from `binary`.
    pub fn profile_for(&mut self, binary: BinaryId) -> Watts {
        match self.entries.get(&binary) {
            Some(&w) => {
                self.hits += 1;
                w
            }
            None => {
                self.misses += 1;
                self.default_profile
            }
        }
    }

    /// Records the power a task from `binary` drew during its first
    /// timeslice (later starts overwrite earlier ones — behaviour can
    /// drift with program versions).
    pub fn record_first_slice(&mut self, binary: BinaryId, power: Watts) {
        if power.is_sane() {
            self.entries.insert(binary, power);
        }
    }

    /// Number of binaries with recorded profiles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup statistics `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Chooses the CPU for a newly started task with the given seeded
/// profile (Section 4.6): among the least-loaded CPUs, the one whose
/// runqueue power ratio *including the new task* comes closest to the
/// current average ratio of all CPUs. `None` only for a degenerate
/// CPU-less system, so callers fall back instead of panicking; ratio
/// comparisons use a total order, so a NaN ratio (e.g. a zero power
/// budget on a generated machine) cannot panic either.
///
/// Load is `nr_running / capacity`, read from the aggregate tree (see
/// [`System::cpu_capacity`]): an efficiency core with one task is
/// *more* loaded than a performance core with one task, so new work
/// drifts toward the cores that chew through it fastest. At unit
/// capacity (every single-class machine) the quotient is the raw
/// count exactly.
pub fn place_new_task(sys: &System, power: &PowerState, profile: Watts) -> Option<CpuId> {
    let topo = sys.topology();
    let load = |c: CpuId| sys.nr_running(c) as f64 / sys.cpu_capacity(c);
    let min_load = topo.cpu_ids().map(load).min_by(f64::total_cmp)?;
    // The average runqueue power ratio over all CPUs, before placement.
    let avg_ratio = topo
        .cpu_ids()
        .map(|c| crate::metrics::runqueue_power_ratio(sys, c, power))
        .sum::<f64>()
        / topo.n_cpus() as f64;
    let distance = |c: CpuId| (ratio_with_task(sys, power, c, profile) - avg_ratio).abs();
    topo.cpu_ids()
        .filter(|&c| load(c) == min_load)
        .map(|c| (distance(c), c))
        .min_by(|(da, a), (db, b)| da.total_cmp(db).then(a.0.cmp(&b.0)))
        .map(|(_, c)| c)
}

/// The runqueue power ratio `cpu` would have if `profile` joined its
/// queue.
fn ratio_with_task(sys: &System, power: &PowerState, cpu: CpuId, profile: Watts) -> f64 {
    let n = sys.nr_running(cpu);
    let current_power = runqueue_power(sys, cpu, power.idle_power());
    let new_power = if n == 0 {
        profile
    } else {
        (current_power * n as f64 + profile) / (n + 1) as f64
    };
    new_power.ratio(power.max_power(cpu))
}

impl ebs_store::Snapshot for PlacementTable {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // HashMap iteration order is arbitrary; sort by binary id so
        // equal tables always serialize to equal bytes (the content
        // hash depends on it).
        let mut entries: Vec<(BinaryId, Watts)> =
            self.entries.iter().map(|(&b, &p)| (b, p)).collect();
        entries.sort_by_key(|&(b, _)| b.0);
        w.seq(&entries, |w, &(b, p)| {
            w.u64(b.0);
            w.watts(p);
        });
        w.u64(self.hits);
        w.u64(self.misses);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        let entries = r.seq(|r| Ok((BinaryId(r.u64()?), r.watts()?)))?;
        self.entries = entries.into_iter().collect();
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PowerStateConfig;
    use ebs_sched::TaskConfig;
    use ebs_topology::Topology;

    fn setup() -> (System, PowerState) {
        let sys = System::new(Topology::xseries445(false));
        let power = PowerState::uniform(8, Watts(60.0), PowerStateConfig::default());
        (sys, power)
    }

    fn spawn(sys: &mut System, cpu: CpuId, profile: f64) {
        sys.spawn(
            TaskConfig {
                initial_profile: Watts(profile),
                ..TaskConfig::default()
            },
            cpu,
        );
    }

    #[test]
    fn table_round_trip_and_default() {
        let mut table = PlacementTable::new(Watts(30.0));
        assert!(table.is_empty());
        assert_eq!(table.profile_for(BinaryId(7)), Watts(30.0));
        table.record_first_slice(BinaryId(7), Watts(61.0));
        assert_eq!(table.profile_for(BinaryId(7)), Watts(61.0));
        assert_eq!(table.len(), 1);
        assert_eq!(table.stats(), (1, 1));
        // Overwrite wins.
        table.record_first_slice(BinaryId(7), Watts(48.0));
        assert_eq!(table.profile_for(BinaryId(7)), Watts(48.0));
        // Insane values ignored.
        table.record_first_slice(BinaryId(9), Watts(f64::NAN));
        assert_eq!(table.profile_for(BinaryId(9)), Watts(30.0));
    }

    #[test]
    fn placement_never_creates_load_imbalance() {
        let (mut sys, power) = setup();
        // CPUs 0..4 already loaded.
        for c in 0..4 {
            spawn(&mut sys, CpuId(c), 50.0);
        }
        let dest = place_new_task(&sys, &power, Watts(61.0)).unwrap();
        assert!(dest.0 >= 4, "picked a loaded CPU {dest} over an idle one");
    }

    #[test]
    fn hot_task_goes_to_cool_cpu() {
        let (mut sys, power) = setup();
        // Every CPU has one task; CPU 5's is coolest.
        for c in 0..8 {
            spawn(&mut sys, CpuId(c), if c == 5 { 20.0 } else { 45.0 });
        }
        let dest = place_new_task(&sys, &power, Watts(61.0)).unwrap();
        assert_eq!(dest, CpuId(5));
    }

    #[test]
    fn cool_task_goes_to_hot_cpu() {
        let (mut sys, power) = setup();
        for c in 0..8 {
            spawn(&mut sys, CpuId(c), if c == 2 { 61.0 } else { 40.0 });
        }
        let dest = place_new_task(&sys, &power, Watts(15.0)).unwrap();
        assert_eq!(dest, CpuId(2));
    }

    #[test]
    fn heterogeneous_budgets_affect_placement() {
        let mut sys = System::new(Topology::xseries445(false));
        // CPU 3 has a poor heat sink: a hot task there would push its
        // *ratio* far above average.
        let budgets: Vec<Watts> = (0..8)
            .map(|c| Watts(if c == 3 { 40.0 } else { 60.0 }))
            .collect();
        let power = PowerState::new(8, &budgets, PowerStateConfig::default());
        for c in 0..8 {
            spawn(&mut sys, CpuId(c), 40.0);
        }
        let dest = place_new_task(&sys, &power, Watts(61.0)).unwrap();
        assert_ne!(dest, CpuId(3), "hot task placed on the poorly cooled CPU");
    }

    #[test]
    fn empty_system_places_deterministically() {
        let (sys, power) = setup();
        assert_eq!(place_new_task(&sys, &power, Watts(45.0)), Some(CpuId(0)));
    }

    #[test]
    fn capacity_placement_prefers_underloaded_performance_cores() {
        let (mut sys, power) = setup();
        // Every CPU already runs one task; CPU 5's is coolest.
        for c in 0..8 {
            spawn(&mut sys, CpuId(c), if c == 5 { 20.0 } else { 40.0 });
        }
        // Unit capacities: counts tie everywhere and the hot task goes
        // to the cool CPU.
        assert_eq!(place_new_task(&sys, &power, Watts(61.0)), Some(CpuId(5)));
        // CPUs 4..8 become efficiency cores at half capacity: a new
        // task must land on a performance core (1/1.0 < 1/0.5), however
        // cool the efficiency queue.
        let caps: Vec<f64> = (0..8).map(|c| if c >= 4 { 0.5 } else { 1.0 }).collect();
        sys.set_cpu_capacities(&caps);
        let dest = place_new_task(&sys, &power, Watts(61.0)).unwrap();
        assert!(dest.0 < 4, "placed on an efficiency core {dest}");
    }
}
