//! A registry of named metrics: monotonic counters and instantaneous
//! gauges, snapshotted periodically into a time-series CSV.
//!
//! Naming convention: `subsystem.metric[.instance]`, e.g.
//! `sched.context_switches`, `thermal.power_w.cpu3`,
//! `dvfs.freq_ghz.pkg0` (per-package frequency domains) or
//! `dvfs.freq_ghz.dom5` (per-core domains on hybrid machines).
//! Subsystems in use: `engine`, `sched`, `dvfs`, `thermal`,
//! `workloads`.

use ebs_units::SimTime;

/// Handle of a registered counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GaugeId(usize);

/// One periodic snapshot of every registered metric.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The instant the snapshot was taken.
    pub t: SimTime,
    /// Counter values, in registration order.
    pub counters: Vec<u64>,
    /// Gauge values, in registration order.
    pub gauges: Vec<f64>,
}

impl Snapshot {
    /// The value a gauge held when the snapshot was taken.
    pub fn gauge(&self, id: GaugeId) -> f64 {
        self.gauges[id.0]
    }
}

/// Named monotonic counters and instantaneous gauges.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    snapshots: Vec<Snapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a monotonic counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Sets a counter to an absolute total. Totals must be monotone;
    /// producers that already keep a cumulative statistic publish it
    /// here instead of instrumenting every increment site.
    pub fn set_total(&mut self, id: CounterId, total: u64) {
        debug_assert!(
            total >= self.counters[id.0].1,
            "counter {} went backwards: {} -> {}",
            self.counters[id.0].0,
            self.counters[id.0].1,
            total
        );
        self.counters[id.0].1 = total;
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge; the next snapshot records the value.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Records a snapshot of every metric at instant `t`.
    pub fn snapshot(&mut self, t: SimTime) {
        self.snapshots.push(Snapshot {
            t,
            counters: self.counters.iter().map(|&(_, v)| v).collect(),
            gauges: self.gauges.iter().map(|&(_, v)| v).collect(),
        });
    }

    /// The recorded snapshots, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Registered counter names, in registration order.
    pub fn counter_names(&self) -> Vec<&str> {
        self.counters.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Registered gauge names, in registration order.
    pub fn gauge_names(&self) -> Vec<&str> {
        self.gauges.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The snapshot time series as CSV: one `time_s` column, then one
    /// column per counter and per gauge, in registration order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s");
        for (name, _) in &self.counters {
            out.push(',');
            out.push_str(name);
        }
        for (name, _) in &self.gauges {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for snap in &self.snapshots {
            out.push_str(&format!("{:.3}", snap.t.as_secs_f64()));
            for v in &snap.counters {
                out.push_str(&format!(",{v}"));
            }
            for v in &snap.gauges {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_dedup_and_count() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("sched.migrations");
        let b = reg.counter("sched.migrations");
        assert_eq!(a, b);
        reg.set_total(a, 10);
        reg.snapshot(SimTime::ZERO);
        assert_eq!(reg.snapshots()[0].counters, vec![10]);
        assert_eq!(reg.counter_names(), vec!["sched.migrations"]);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    #[cfg(debug_assertions)]
    fn counters_reject_regressions() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("engine.steps");
        reg.set_total(a, 5);
        reg.set_total(a, 4);
    }

    #[test]
    fn csv_has_header_and_one_row_per_snapshot() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("engine.steps");
        let g = reg.gauge("dvfs.freq_ghz.pkg0");
        reg.set_total(c, 7);
        reg.set_gauge(g, 2.2);
        reg.snapshot(SimTime::from_millis(100));
        reg.set_total(c, 14);
        reg.set_gauge(g, 1.8);
        reg.snapshot(SimTime::from_millis(200));
        let snaps = reg.snapshots();
        assert_eq!((snaps[0].gauge(g), snaps[1].gauge(g)), (2.2, 1.8));
        let csv = reg.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "time_s,engine.steps,dvfs.freq_ghz.pkg0");
        assert_eq!(lines[1], "0.100,7,2.200000");
        assert_eq!(lines[2], "0.200,14,1.800000");
    }
}
