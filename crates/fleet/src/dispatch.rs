//! Arrival placement policies.
//!
//! The dispatcher routes one arrival at a time, in due order, using
//! only epoch-boundary knowledge: per-host runnable counts (kept
//! current as it routes) and the per-host power draw measured over the
//! previous epoch (frozen for the epoch — hosts step concurrently, so
//! mid-epoch draw is unobservable without breaking worker-count
//! invariance). Every decision is a pure function of the stats
//! vector, which keeps fleet runs seed-deterministic.

use ebs_units::Watts;

/// How the dispatcher places open-workload arrivals on hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through hosts in id order, ignoring load and power.
    RoundRobin,
    /// Send each arrival to the host with the lowest runnable-per-CPU
    /// ratio; ties break toward the lowest host id.
    LeastLoaded,
    /// Least-loaded among hosts with power headroom (measured draw
    /// below their budget share); ties prefer the larger headroom,
    /// then the lowest host id. Falls back to plain least-loaded when
    /// every host is at or over its share.
    PowerAware,
}

impl DispatchPolicy {
    /// The policy's name as used in experiment cell keys and CSV rows.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::PowerAware => "power-aware",
        }
    }
}

/// One host's state as the dispatcher sees it at an epoch boundary.
#[derive(Clone, Copy, Debug)]
pub struct HostStat {
    /// Host id (index into the fleet).
    pub host: usize,
    /// Runnable tasks, *including* arrivals routed earlier this epoch
    /// but not yet spawned — otherwise every arrival in an epoch would
    /// pile onto the same host.
    pub runnable: usize,
    /// Logical CPU count (the denominator of the load ratio).
    pub cpus: usize,
    /// Mean power draw over the previous epoch.
    pub power_w: f64,
    /// The host's share of the rack budget.
    pub budget_w: Watts,
}

impl HostStat {
    /// Power headroom: share minus measured draw, clamped at zero.
    pub fn headroom_w(&self) -> f64 {
        (self.budget_w.0 - self.power_w).max(0.0)
    }

    /// Whether `self` is less loaded than `other`, comparing
    /// runnable-per-CPU ratios by cross-multiplication so the
    /// comparison is exact in integers (no float ties on mixed
    /// topologies like 3/8 vs 12/32).
    fn less_loaded_than(&self, other: &HostStat) -> bool {
        self.runnable * other.cpus < other.runnable * self.cpus
    }
}

/// Routes arrivals to hosts according to a [`DispatchPolicy`].
#[derive(Clone, Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    /// Round-robin cursor (next host id to use).
    rr_next: usize,
}

impl Dispatcher {
    /// Creates a dispatcher with the given policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher { policy, rr_next: 0 }
    }

    /// The policy this dispatcher routes with.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Picks the host for the next arrival. Returns an index into
    /// `stats` (== the host id, as the fleet passes hosts in order).
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty.
    pub fn pick(&mut self, stats: &[HostStat]) -> usize {
        assert!(!stats.is_empty(), "cannot dispatch to an empty fleet");
        match self.policy {
            DispatchPolicy::RoundRobin => {
                let host = self.rr_next % stats.len();
                self.rr_next = (self.rr_next + 1) % stats.len();
                host
            }
            DispatchPolicy::LeastLoaded => Self::least_loaded(stats),
            DispatchPolicy::PowerAware => {
                // `None`: the whole rack is saturated; shed load evenly.
                Self::power_aware(stats).unwrap_or_else(|| Self::least_loaded(stats))
            }
        }
    }

    /// Lowest runnable-per-CPU ratio; ties break to the lowest id.
    fn least_loaded(stats: &[HostStat]) -> usize {
        let mut best = &stats[0];
        for s in &stats[1..] {
            if s.less_loaded_than(best) {
                best = s;
            }
        }
        best.host
    }

    /// Least-loaded, then max headroom, then lowest id — among hosts
    /// with positive headroom, in one pass; `None` when no host has
    /// any.
    fn power_aware(stats: &[HostStat]) -> Option<usize> {
        let mut best: Option<&HostStat> = None;
        for s in stats.iter().filter(|s| s.headroom_w() > 0.0) {
            let Some(b) = best else {
                best = Some(s);
                continue;
            };
            if s.less_loaded_than(b) {
                best = Some(s);
            } else if !b.less_loaded_than(s) {
                // Equal load ratio: prefer the larger headroom.
                // total_cmp keeps the comparison deterministic even
                // for equal headrooms (falls through to lowest id by
                // iteration order).
                if s.headroom_w().total_cmp(&b.headroom_w()) == std::cmp::Ordering::Greater {
                    best = Some(s);
                }
            }
        }
        best.map(|b| b.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(host: usize, runnable: usize, cpus: usize, power_w: f64, budget_w: f64) -> HostStat {
        HostStat {
            host,
            runnable,
            cpus,
            power_w,
            budget_w: Watts(budget_w),
        }
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let stats: Vec<HostStat> = (0..3).map(|h| stat(h, 10 * h, 8, 0.0, 100.0)).collect();
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let picks: Vec<usize> = (0..7).map(|_| d.pick(&stats)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_compares_ratios_not_counts() {
        // Host 1 has more runnable tasks but 4x the CPUs: 6/32 < 3/8.
        let stats = vec![stat(0, 3, 8, 0.0, 100.0), stat(1, 6, 32, 0.0, 100.0)];
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded);
        assert_eq!(d.pick(&stats), 1);
    }

    #[test]
    fn least_loaded_ties_break_to_lowest_host_id() {
        // 4/8 == 16/32 == 4/8: all tied, host 0 wins.
        let stats = vec![
            stat(2, 4, 8, 0.0, 100.0),
            stat(0, 16, 32, 0.0, 100.0),
            stat(1, 4, 8, 0.0, 100.0),
        ];
        // The fleet passes stats in host order; emulate that here with
        // shuffled ids to prove the tie-break keys on `host`, not on
        // slice position alone — stats arrive sorted by host id.
        let mut sorted = stats;
        sorted.sort_by_key(|s| s.host);
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded);
        assert_eq!(d.pick(&sorted), 0);
    }

    #[test]
    fn power_aware_skips_hosts_over_their_share() {
        // Host 0 is the least loaded but is over budget; host 1 has
        // headroom and must win despite the higher load.
        let stats = vec![stat(0, 1, 8, 120.0, 100.0), stat(1, 4, 8, 60.0, 100.0)];
        let mut d = Dispatcher::new(DispatchPolicy::PowerAware);
        assert_eq!(d.pick(&stats), 1);
    }

    #[test]
    fn power_aware_breaks_load_ties_by_headroom() {
        // Equal load; host 1 has 40 W headroom vs host 0's 10 W.
        let stats = vec![stat(0, 2, 8, 90.0, 100.0), stat(1, 2, 8, 60.0, 100.0)];
        let mut d = Dispatcher::new(DispatchPolicy::PowerAware);
        assert_eq!(d.pick(&stats), 1);
    }

    #[test]
    fn power_aware_falls_back_to_least_loaded_when_rack_saturated() {
        let stats = vec![stat(0, 5, 8, 130.0, 100.0), stat(1, 2, 8, 140.0, 100.0)];
        let mut d = Dispatcher::new(DispatchPolicy::PowerAware);
        assert_eq!(d.pick(&stats), 1);
    }

    #[test]
    fn power_aware_full_tie_goes_to_lowest_id() {
        let stats = vec![stat(0, 2, 8, 50.0, 100.0), stat(1, 2, 8, 50.0, 100.0)];
        let mut d = Dispatcher::new(DispatchPolicy::PowerAware);
        assert_eq!(d.pick(&stats), 0);
    }
}
