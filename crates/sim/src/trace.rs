//! Traces and run reports.

use ebs_dvfs::PStateResidency;
use ebs_thermal::ThrottleStats;
use ebs_units::{Celsius, Hertz, Joules, SimDuration, SimTime, Watts};
use ebs_workloads::OpenWorkload;

/// Sampled per-CPU thermal power over time — the data behind the
/// paper's Figures 6 and 7. A view over the metrics registry's
/// `thermal.power_w.cpu*` gauges, one row per snapshot (see
/// [`crate::Simulation::thermal_trace`]).
#[derive(Clone, Debug, Default)]
pub struct ThermalTrace {
    /// One row per sample: time and the thermal power of every CPU.
    pub samples: Vec<(SimTime, Vec<Watts>)>,
}

impl ThermalTrace {
    /// The minimum and maximum thermal power over all CPUs in samples
    /// taken at or after `from` — the "width of the array of curves"
    /// the paper reads off Figures 6 and 7.
    pub fn band(&self, from: SimTime) -> Option<(Watts, Watts)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (t, row) in &self.samples {
            if *t < from {
                continue;
            }
            for w in row {
                lo = lo.min(w.0);
                hi = hi.max(w.0);
            }
        }
        if lo.is_finite() {
            Some((Watts(lo), Watts(hi)))
        } else {
            None
        }
    }

    /// The largest spread between the hottest and coolest CPU within
    /// any single sample at or after `from`.
    pub fn max_spread(&self, from: SimTime) -> Option<Watts> {
        self.samples
            .iter()
            .filter(|(t, _)| *t >= from)
            .map(|(_, row)| {
                let lo = row.iter().cloned().fold(Watts(f64::INFINITY), Watts::min);
                let hi = row
                    .iter()
                    .cloned()
                    .fold(Watts(f64::NEG_INFINITY), Watts::max);
                hi - lo
            })
            .max_by(|a, b| a.partial_cmp(b).expect("finite spreads"))
    }

    /// Fraction of samples (at or after `from`) in which at least one
    /// CPU exceeds `limit` — "some of the time some CPUs operate above
    /// the limit".
    pub fn fraction_any_above(&self, limit: Watts, from: SimTime) -> f64 {
        let rows: Vec<_> = self.samples.iter().filter(|(t, _)| *t >= from).collect();
        if rows.is_empty() {
            return 0.0;
        }
        let above = rows
            .iter()
            .filter(|(_, row)| row.iter().any(|&w| w > limit))
            .count();
        above as f64 / rows.len() as f64
    }

    /// Renders the trace as CSV (`time_s,cpu0,cpu1,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        if let Some((_, first)) = self.samples.first() {
            out.push_str("time_s");
            for i in 0..first.len() {
                out.push_str(&format!(",cpu{i}"));
            }
            out.push('\n');
        }
        for (t, row) in &self.samples {
            out.push_str(&format!("{:.3}", t.as_secs_f64()));
            for w in row {
                out.push_str(&format!(",{:.3}", w.0));
            }
            out.push('\n');
        }
        out
    }
}

/// Sojourn-time (arrival to completion) statistics of an open
/// workload's tasks, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Completed tasks the statistics cover.
    pub count: u64,
    /// Mean sojourn time.
    pub mean_s: f64,
    /// Median sojourn time.
    pub p50_s: f64,
    /// 95th-percentile sojourn time.
    pub p95_s: f64,
    /// 99th-percentile sojourn time.
    pub p99_s: f64,
    /// Worst sojourn time.
    pub max_s: f64,
}

impl LatencyStats {
    /// Computes the statistics from raw samples (empty input yields
    /// the all-zero default). Percentiles use the nearest-rank method.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        LatencyStats {
            count: n as u64,
            mean_s: samples.iter().sum::<f64>() / n as f64,
            p50_s: rank(0.50),
            p95_s: rank(0.95),
            p99_s: rank(0.99),
            max_s: samples[n - 1],
        }
    }

    /// NaN-safe bit-equality: every float compares via its bit
    /// pattern, so two identical runs agree even where a metric is
    /// NaN (a zero-completion cell), which `==` would call unequal.
    pub fn bit_eq(&self, other: &LatencyStats) -> bool {
        self.count == other.count
            && self.mean_s.to_bits() == other.mean_s.to_bits()
            && self.p50_s.to_bits() == other.p50_s.to_bits()
            && self.p95_s.to_bits() == other.p95_s.to_bits()
            && self.p99_s.to_bits() == other.p99_s.to_bits()
            && self.max_s.to_bits() == other.max_s.to_bits()
    }
}

/// Sojourn-time statistics per load-curve phase of arrival, in the
/// curve's canonical phase order, from `(arrival phase index, seconds)`
/// samples. Phases without completions are skipped, and a sample whose
/// index is past the curve's phases counts toward none; closed runs
/// (`workload` is `None`) have no phases.
pub(crate) fn phase_latencies(
    workload: Option<&OpenWorkload>,
    samples: &[(u8, f64)],
) -> Vec<(String, LatencyStats)> {
    let phases = workload.map_or(&[][..], |w| w.curve.phases());
    phases
        .iter()
        .enumerate()
        .filter_map(|(i, &ph)| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|&&(p, _)| usize::from(p) == i)
                .map(|&(_, s)| s)
                .collect();
            (!xs.is_empty()).then(|| (ph.to_string(), LatencyStats::from_samples(xs)))
        })
        .collect()
}

/// Merges P-state residencies from several frequency domains (or
/// partitions) by exact frequency, fastest state first. Hybrid classes
/// run distinct ladders; identical ladders merge state by state, since
/// every [`ebs_dvfs::PStateTable`] has strictly decreasing frequencies.
/// Fractions are of the merged total, which is the summed observed
/// time (a domain's residencies sum exactly to it), and 0 when nothing
/// was observed.
pub(crate) fn merge_residency(
    residencies: impl IntoIterator<Item = PStateResidency>,
) -> Vec<PStateResidency> {
    let mut merged: Vec<PStateResidency> = Vec::new();
    for r in residencies {
        match merged.iter_mut().find(|m| m.frequency == r.frequency) {
            Some(m) => m.time += r.time,
            None => merged.push(PStateResidency {
                frequency: r.frequency,
                time: r.time,
                fraction: 0.0,
            }),
        }
    }
    merged.sort_by(|a, b| b.frequency.0.total_cmp(&a.frequency.0));
    let total: SimDuration = merged.iter().map(|m| m.time).sum();
    for m in &mut merged {
        m.fraction = if total.is_zero() {
            0.0
        } else {
            m.time.ratio(total)
        };
    }
    merged
}

/// Summary of a finished simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Simulated wall time.
    pub duration: SimDuration,
    /// Engine steps taken. The fixed-tick core takes
    /// `duration / tick`; the variable-stride core takes fewer —
    /// `duration / engine_steps` is the realised mean stride.
    pub engine_steps: u64,
    /// Total task migrations.
    pub migrations: u64,
    /// Migrations by reason, in [`ebs_sched::MigrationReason::ALL`]
    /// order (load, energy, hot-task, exchange).
    pub migrations_by_reason: [u64; 4],
    /// Context switches.
    pub context_switches: u64,
    /// Tasks that ran to completion.
    pub completions: u64,
    /// Open-workload tasks that arrived during the run (0 for closed
    /// workloads).
    pub arrivals: u64,
    /// Sojourn-time statistics over every completed open-workload
    /// task (all-zero for closed workloads).
    pub latency: LatencyStats,
    /// Sojourn-time statistics split by the load-curve phase the task
    /// *arrived* in, in the curve's canonical phase order (empty for
    /// closed workloads and for phases without completions).
    pub phase_latencies: Vec<(String, LatencyStats)>,
    /// Completions per binary id.
    pub completions_by_binary: Vec<(u64, u64)>,
    /// Total instructions retired — the throughput measure for
    /// non-terminating workloads.
    pub instructions_retired: u64,
    /// Instructions per simulated second.
    pub throughput_ips: f64,
    /// Fraction of time each logical CPU spent throttled (Table 3).
    pub throttled_fraction: Vec<f64>,
    /// Average throttled fraction over all CPUs.
    pub avg_throttled_fraction: f64,
    /// Per-package throttle statistics (engagements, throttled and
    /// observed time) straight from the controllers.
    pub throttle_stats: Vec<ThrottleStats>,
    /// P-state residency aggregated over all packages, fastest state
    /// first (one entry per table state; a single entry means DVFS was
    /// off and the clock pinned at nominal).
    pub pstate_residency: Vec<PStateResidency>,
    /// Average fraction of time the packages ran below the nominal
    /// clock — DVFS's analogue of the throttled fraction.
    pub avg_scaled_fraction: f64,
    /// Time-weighted mean core clock over the run, averaged over
    /// packages.
    pub mean_frequency: Hertz,
    /// Total P-state transitions performed by the governors.
    pub dvfs_transitions: u64,
    /// Governor decisions taken (a decision may keep the state).
    /// Governors decide when a hold band is escaped (plus any
    /// `max_hold` deadline), so this counts governor wake-ups.
    pub dvfs_decisions: u64,
    /// Hottest package temperature seen during the run.
    pub max_package_temp: Celsius,
    /// Ground-truth energy the machine physically dissipated.
    pub true_energy: Joules,
    /// Energy the counter-based estimator accounted for — comparing
    /// the two gives the end-to-end estimation error (paper: <10 %).
    pub estimated_energy: Joules,
}

impl SimReport {
    /// Relative end-to-end energy estimation error, `|est - true| /
    /// true` (zero for an empty run).
    pub fn estimation_error(&self) -> f64 {
        if self.true_energy.0 == 0.0 {
            0.0
        } else {
            (self.estimated_energy.0 - self.true_energy.0).abs() / self.true_energy.0
        }
    }

    /// Relative throughput gain of `self` over a baseline run, in
    /// instructions per second (the paper's "increase in throughput").
    pub fn throughput_gain_over(&self, baseline: &SimReport) -> f64 {
        if baseline.throughput_ips == 0.0 {
            0.0
        } else {
            self.throughput_ips / baseline.throughput_ips - 1.0
        }
    }

    /// Relative throughput *loss* versus a (faster) baseline, clamped
    /// at zero — the penalty metric of the DVFS-vs-`hlt` comparison.
    pub fn throughput_loss_vs(&self, baseline: &SimReport) -> f64 {
        (-self.throughput_gain_over(baseline)).max(0.0)
    }

    /// True energy spent per retired instruction, in nanojoules — the
    /// efficiency metric frequency scaling moves and `hlt` cannot.
    pub fn nj_per_instruction(&self) -> f64 {
        if self.instructions_retired == 0 {
            0.0
        } else {
            self.true_energy.0 * 1e9 / self.instructions_retired as f64
        }
    }

    /// NaN-safe bit-equality over every field: integers and durations
    /// compare exactly, floats via their bit patterns. This is the
    /// comparison the bit-identity gates want — stricter than `==` on
    /// signed zeros, yet true where both sides hold the same NaN (a
    /// zero-completion cell's percentiles), which `==` would fail.
    pub fn bit_eq(&self, other: &SimReport) -> bool {
        let f = |a: f64, b: f64| a.to_bits() == b.to_bits();
        self.duration == other.duration
            && self.engine_steps == other.engine_steps
            && self.migrations == other.migrations
            && self.migrations_by_reason == other.migrations_by_reason
            && self.context_switches == other.context_switches
            && self.completions == other.completions
            && self.arrivals == other.arrivals
            && self.latency.bit_eq(&other.latency)
            && self.phase_latencies.len() == other.phase_latencies.len()
            && self
                .phase_latencies
                .iter()
                .zip(&other.phase_latencies)
                .all(|((an, a), (bn, b))| an == bn && a.bit_eq(b))
            && self.completions_by_binary == other.completions_by_binary
            && self.instructions_retired == other.instructions_retired
            && f(self.throughput_ips, other.throughput_ips)
            && self.throttled_fraction.len() == other.throttled_fraction.len()
            && self
                .throttled_fraction
                .iter()
                .zip(&other.throttled_fraction)
                .all(|(&a, &b)| f(a, b))
            && f(self.avg_throttled_fraction, other.avg_throttled_fraction)
            && self.throttle_stats == other.throttle_stats
            && self.pstate_residency.len() == other.pstate_residency.len()
            && self
                .pstate_residency
                .iter()
                .zip(&other.pstate_residency)
                .all(|(a, b)| {
                    a.frequency.0.to_bits() == b.frequency.0.to_bits()
                        && a.time == b.time
                        && f(a.fraction, b.fraction)
                })
            && f(self.avg_scaled_fraction, other.avg_scaled_fraction)
            && f(self.mean_frequency.0, other.mean_frequency.0)
            && self.dvfs_transitions == other.dvfs_transitions
            && self.dvfs_decisions == other.dvfs_decisions
            && f(self.max_package_temp.0, other.max_package_temp.0)
            && f(self.true_energy.0, other.true_energy.0)
            && f(self.estimated_energy.0, other.estimated_energy.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ThermalTrace {
        ThermalTrace {
            samples: vec![
                (SimTime::from_secs(0), vec![Watts(10.0), Watts(20.0)]),
                (SimTime::from_secs(1), vec![Watts(30.0), Watts(55.0)]),
                (SimTime::from_secs(2), vec![Watts(35.0), Watts(45.0)]),
            ],
        }
    }

    #[test]
    fn band_over_window() {
        let t = trace();
        let (lo, hi) = t.band(SimTime::ZERO).unwrap();
        assert_eq!((lo, hi), (Watts(10.0), Watts(55.0)));
        let (lo, hi) = t.band(SimTime::from_secs(2)).unwrap();
        assert_eq!((lo, hi), (Watts(35.0), Watts(45.0)));
        assert!(t.band(SimTime::from_secs(3)).is_none());
    }

    #[test]
    fn max_spread_is_within_sample() {
        let t = trace();
        assert_eq!(t.max_spread(SimTime::ZERO), Some(Watts(25.0)));
        assert_eq!(t.max_spread(SimTime::from_secs(2)), Some(Watts(10.0)));
    }

    #[test]
    fn fraction_above_limit() {
        let t = trace();
        let f = t.fraction_any_above(Watts(50.0), SimTime::ZERO);
        assert!((f - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.fraction_any_above(Watts(100.0), SimTime::ZERO), 0.0);
    }

    #[test]
    fn thermal_csv_shape() {
        let csv = trace().to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,cpu0,cpu1");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0.000,10.000,20.000"));
    }

    #[test]
    fn latency_stats_percentiles() {
        // 1..=100 seconds: nearest-rank percentiles are exact.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
        // Unsorted input is handled; tiny inputs clamp sanely.
        let s = LatencyStats::from_samples(vec![3.0, 1.0]);
        assert_eq!((s.p50_s, s.p99_s, s.max_s), (1.0, 3.0, 3.0));
        assert_eq!(LatencyStats::from_samples(vec![]), LatencyStats::default());
    }

    /// Samples group by phase index under the phase's name, in the
    /// curve's order; an index past the curve's phases counts toward
    /// none.
    #[test]
    fn phase_latencies_group_samples_by_index() {
        let open = OpenWorkload::new(vec![ebs_workloads::catalog::aluadd()], 1.0).curve(
            ebs_workloads::LoadCurve::Diurnal {
                period: SimDuration::from_secs(8),
                floor: 0.25,
            },
        );
        let samples = [(1, 4.0), (0, 1.0), (2, 9.0), (u8::MAX, 9.0), (1, 2.0)];
        let by_phase = phase_latencies(Some(&open), &samples);
        let got: Vec<(&str, u64, f64)> = by_phase
            .iter()
            .map(|(ph, st)| (ph.as_str(), st.count, st.max_s))
            .collect();
        assert_eq!(got, [("trough", 1, 1.0), ("peak", 2, 4.0)]);
        assert!(phase_latencies(None, &samples).is_empty());
    }

    #[test]
    fn ratio_metrics_guard_degenerate_runs() {
        // A zero-length / fully-throttled run retires nothing and may
        // dissipate nothing; every ratio metric must report 0 rather
        // than NaN or infinity.
        let empty = SimReport {
            duration: SimDuration::ZERO,
            engine_steps: 0,
            migrations: 0,
            migrations_by_reason: [0; 4],
            context_switches: 0,
            completions: 0,
            arrivals: 0,
            latency: LatencyStats::default(),
            phase_latencies: vec![],
            completions_by_binary: vec![],
            instructions_retired: 0,
            throughput_ips: 0.0,
            throttled_fraction: vec![],
            avg_throttled_fraction: 0.0,
            throttle_stats: vec![],
            pstate_residency: vec![],
            avg_scaled_fraction: 0.0,
            mean_frequency: Hertz::from_ghz(2.2),
            dvfs_transitions: 0,
            dvfs_decisions: 0,
            max_package_temp: Celsius(22.0),
            true_energy: Joules::ZERO,
            estimated_energy: Joules::ZERO,
        };
        assert_eq!(empty.nj_per_instruction(), 0.0);
        assert_eq!(empty.estimation_error(), 0.0);
        // Gain/loss against a zero-throughput baseline (and of a
        // zero-throughput run against a real one) stay finite.
        assert_eq!(empty.throughput_gain_over(&empty), 0.0);
        assert_eq!(empty.throughput_loss_vs(&empty), 0.0);
        let mut real = empty.clone();
        real.throughput_ips = 100.0;
        real.instructions_retired = 1;
        real.true_energy = Joules(5.0);
        assert_eq!(real.throughput_gain_over(&empty), 0.0);
        assert_eq!(real.throughput_loss_vs(&empty), 0.0);
        assert_eq!(empty.throughput_loss_vs(&real), 1.0);
        for v in [
            empty.nj_per_instruction(),
            empty.estimation_error(),
            real.throughput_gain_over(&empty),
            empty.throughput_gain_over(&real),
        ] {
            assert!(v.is_finite(), "metric not finite: {v}");
        }
    }

    #[test]
    fn throughput_gain() {
        let mk = |ips: f64| SimReport {
            duration: SimDuration::from_secs(1),
            engine_steps: 1000,
            migrations: 0,
            migrations_by_reason: [0; 4],
            context_switches: 0,
            completions: 0,
            arrivals: 0,
            latency: LatencyStats::default(),
            phase_latencies: vec![],
            completions_by_binary: vec![],
            instructions_retired: 0,
            throughput_ips: ips,
            throttled_fraction: vec![],
            avg_throttled_fraction: 0.0,
            throttle_stats: vec![],
            pstate_residency: vec![],
            avg_scaled_fraction: 0.0,
            mean_frequency: Hertz::from_ghz(2.2),
            dvfs_transitions: 0,
            dvfs_decisions: 0,
            max_package_temp: Celsius(22.0),
            true_energy: Joules(100.0),
            estimated_energy: Joules(95.0),
        };
        let base = mk(100.0);
        let better = mk(105.0);
        assert!((better.throughput_gain_over(&base) - 0.05).abs() < 1e-12);
        assert_eq!(better.throughput_gain_over(&mk(0.0)), 0.0);
        // Loss is the clamped negative gain.
        assert!((base.throughput_loss_vs(&better) - 5.0 / 105.0).abs() < 1e-12);
        assert_eq!(better.throughput_loss_vs(&base), 0.0);
        // No instructions -> no per-instruction energy.
        assert_eq!(base.nj_per_instruction(), 0.0);
        let mut r = mk(1.0);
        r.instructions_retired = 50_000_000_000;
        assert!((r.nj_per_instruction() - 2.0).abs() < 1e-12);
    }

    /// One domain's residency table over a ladder, with the given
    /// milliseconds per state.
    fn ladder(ghz: &[f64], ms: &[u64]) -> Vec<PStateResidency> {
        ghz.iter()
            .zip(ms)
            .map(|(&f, &t)| PStateResidency {
                frequency: Hertz::from_ghz(f),
                time: SimDuration::from_millis(t),
                fraction: 0.0,
            })
            .collect()
    }

    fn times_ms(merged: &[PStateResidency]) -> Vec<u64> {
        merged.iter().map(|r| r.time.as_micros() / 1000).collect()
    }

    #[test]
    fn merge_residency_sums_identical_ladders_state_by_state() {
        let ghz = [2.2, 1.8, 1.4];
        let a = ladder(&ghz, &[600, 300, 100]);
        let b = ladder(&ghz, &[200, 0, 800]);
        let merged = merge_residency(a.into_iter().chain(b));
        let freqs: Vec<Hertz> = merged.iter().map(|r| r.frequency).collect();
        assert_eq!(freqs, ghz.map(Hertz::from_ghz));
        assert_eq!(times_ms(&merged), [800, 300, 900]);
        let fractions: Vec<f64> = merged.iter().map(|r| r.fraction).collect();
        assert_eq!(fractions, [0.4, 0.15, 0.45]);
    }

    #[test]
    fn merge_residency_unions_disjoint_ladders_fastest_first() {
        let perf = ladder(&[2.2, 1.4], &[500, 500]);
        let eff = ladder(&[1.8, 1.2, 0.8], &[250, 0, 750]);
        let merged = merge_residency(perf.into_iter().chain(eff));
        let freqs: Vec<Hertz> = merged.iter().map(|r| r.frequency).collect();
        assert_eq!(freqs, [2.2, 1.8, 1.4, 1.2, 0.8].map(Hertz::from_ghz));
        assert_eq!(times_ms(&merged), [500, 250, 500, 0, 750]);
        let total: f64 = merged.iter().map(|r| r.fraction).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_residency_of_an_unobserved_run_has_zero_fractions() {
        let ghz = [2.2, 1.8];
        let merged = merge_residency(
            ladder(&ghz, &[0, 0])
                .into_iter()
                .chain(ladder(&ghz, &[0, 0])),
        );
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().all(|r| r.fraction == 0.0), "{merged:?}");
        assert!(merge_residency([]).is_empty());
    }
}
