//! The repo benchmark: simulator speed and modelled outcomes on four
//! workloads, with a traced run for per-layer numbers. See README.md
//! beside this crate for the workloads and the layer map.
//!
//! A run builds each leg's engines several times (set-up), then repeats
//! the workload's legs — bit-identical work every time — until the time
//! budget is spent. Host-time metrics are medians over those repeats;
//! modelled metrics come from the first repeat and are deterministic
//! per seed, and every later repeat must reproduce them exactly.

pub mod checks;
pub mod host;
pub mod probe;
pub mod workload;

use checks::{Checks, DEFAULT_SEED, RECORDED_REFERENCE};
use probe::{median, quantile, time_ms};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{run_leg, Engine, LegRun, LegSummary, Workload};

/// End-to-end metrics: (name, unit). Measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_per_wall", "sim-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("gips", "Ginstr/s"),
    ("gips_per_joule", "Ginstr/J"),
];

/// Per-layer metrics: (name, unit). Reported by the traced run; a
/// metric whose layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sim.phase.stride_us", "us"),
    ("sim.phase.arrivals_us", "us"),
    ("sim.phase.physics_us", "us"),
    ("sim.phase.throttle_us", "us"),
    ("sim.phase.dvfs_us", "us"),
    ("sim.phase.scheduler_us", "us"),
    ("sim.phase.sampling_us", "us"),
    ("sim.steps", "count"),
    ("sim.mean_stride_us", "us"),
    ("sim.us_per_step", "us"),
    ("sim.run_for_ms_p50", "ms"),
    ("sim.run_for_ms_p99", "ms"),
    ("sim.report_ms", "ms"),
    ("sched.balance_round_us", "us"),
    ("sched.migrations", "count"),
    ("sched.context_switches", "count"),
    ("core.energy_balance_round_us", "us"),
    ("core.hot_migrations", "count"),
    ("core.estimation_error_pct", "%"),
    ("thermal.throttle_engagements", "count"),
    ("thermal.max_package_temp_c", "degC"),
    ("dvfs.decisions", "count"),
    ("dvfs.transitions", "count"),
    ("workloads.arrivals", "count"),
    ("workloads.completions", "count"),
    ("parallel.handoffs", "count"),
    ("parallel.cores_used", "cores"),
    ("fleet.epoch_ms_p50", "ms"),
    ("fleet.epoch_ms_p99", "ms"),
    ("fleet.cores_used", "cores"),
    ("fleet.report_ms", "ms"),
    ("fleet.state_hashes_ms", "ms"),
    ("fleet.stranded_w_mean", "W"),
    ("store.snapshot_ms", "ms"),
    ("store.state_hash_ms", "ms"),
    ("store.restore_ms", "ms"),
    ("store.image_kb", "KiB"),
    ("trace.overhead_pct", "%"),
    ("trace.events", "count"),
    ("throttled_pct", "%"),
    ("throttled_pct_stock", "%"),
    ("ea_gain_pct", "%"),
    ("sojourn_p50_s", "s"),
    ("sojourn_p99_s", "s"),
    ("sojourn_samples", "count"),
    ("failed_frac", "ratio"),
    ("host.sim_per_wall_raw", "sim-s/s"),
    ("host.calibration_ms", "ms"),
];

/// Set-up samples taken before timing starts (each builds every leg).
const SETUP_SAMPLES: usize = 15;

/// Balancing rounds replayed per balancer in the traced run.
const BALANCE_ROUNDS: usize = 15;

/// The paper's Table 3 figures: mean throttling with energy balancing
/// off and on, and the throughput gain, all in percent.
const PAPER_THROTTLED_STOCK: f64 = 15.2;
const PAPER_THROTTLED_EA: f64 = 10.2;
const PAPER_GAIN: f64 = 4.7;

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every random input.
    pub seed: u64,
    /// Wall-time budget of the timed repeats, seconds.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    /// Unknown flags are errors.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = number(value()?)?,
                "--seconds" => seconds = number(value()?)?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A finished run: every metric measured, and the checks made.
#[derive(Debug)]
pub struct Outcome {
    /// The arguments the run was made with.
    pub args: Args,
    /// Timed repeats of the workload's legs.
    pub iterations: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The output checks.
    pub checks: Checks,
}

/// Per-iteration timing of one leg.
struct LegTiming {
    setup_s: f64,
    slice_wall_s: Vec<f64>,
    calibration_s: Vec<f64>,
    span_cpu_s: f64,
    span_steps: u64,
}

impl LegTiming {
    fn of(run: &LegRun) -> LegTiming {
        LegTiming {
            setup_s: run.setup_s,
            slice_wall_s: run.slice_wall_s.clone(),
            calibration_s: run.calibration_s.clone(),
            span_cpu_s: run.span_cpu_s,
            span_steps: run.span_steps,
        }
    }
}

/// One timed repeat of every leg.
struct Repeat {
    legs: Vec<LegTiming>,
    /// Median host calibration over the repeat, seconds.
    calibration_s: f64,
}

impl Repeat {
    fn new(runs: &[LegRun]) -> Repeat {
        let legs: Vec<LegTiming> = runs.iter().map(LegTiming::of).collect();
        let calibrations: Vec<f64> = legs
            .iter()
            .flat_map(|l| l.calibration_s.iter().copied())
            .collect();
        Repeat {
            calibration_s: median(&calibrations),
            legs,
        }
    }

    fn slices(&self) -> impl Iterator<Item = f64> + '_ {
        self.legs
            .iter()
            .flat_map(|l| l.slice_wall_s.iter().copied())
    }

    fn sum(&self, f: fn(&LegTiming) -> f64) -> f64 {
        self.legs.iter().map(f).sum()
    }

    fn span_wall_s(&self) -> f64 {
        self.slices().sum()
    }
}

fn reports_bit_eq(a: &LegRun, b: &LegRun) -> bool {
    a.reports.len() == b.reports.len() && a.reports.iter().zip(&b.reports).all(|(x, y)| x.bit_eq(y))
}

/// Runs the benchmark once, checked against the recorded reference.
pub fn run(args: &Args) -> Outcome {
    run_against(args, RECORDED_REFERENCE)
}

/// Runs the benchmark once, checking the default-seed statistics
/// against the reference document `reference`.
pub fn run_against(args: &Args, reference: &str) -> Outcome {
    let w = args.workload;
    let legs = w.legs();
    let mut checks = Checks::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let reference_s = host::CALIBRATION_REFERENCE_S;

    // Set-up: build every leg's engine and queue its initial work. Each
    // sample is scaled to the reference host speed by a calibration
    // taken right after it.
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let s: f64 = (0..legs.len())
                .map(|leg| {
                    let start = Instant::now();
                    let engine = w.build(leg, args.seed, false);
                    let s = start.elapsed().as_secs_f64();
                    drop(engine);
                    s
                })
                .sum();
            s / host::calibrate() * reference_s
        })
        .collect();

    // Timed repeats until the budget is spent; never start a repeat
    // the budget cannot hold, but always run one.
    let start = Instant::now();
    let mut first: Vec<LegRun> = Vec::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    loop {
        let runs: Vec<LegRun> = (0..legs.len())
            .map(|leg| run_leg(w, leg, args.seed, false))
            .collect();
        repeats.push(Repeat::new(&runs));
        if first.is_empty() {
            first = runs;
        } else {
            for ((label, a), b) in legs.iter().zip(&first).zip(&runs) {
                let i = repeats.len();
                checks.check(reports_bit_eq(a, b), || {
                    format!("{label}: repeat {i} diverged from repeat 1 on the same seed")
                });
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (1.0 + 1.0 / repeats.len() as f64) > args.seconds as f64 {
            break;
        }
    }
    let summaries: Vec<LegSummary> = first.iter().map(|r| r.summary).collect();
    for (label, s) in legs.iter().zip(&summaries) {
        checks.leg_invariants(label, s);
    }

    // The recorded reference is taken at the default seed: reuse the
    // first repeat when that is this run's seed, else run it once more.
    let at_default: Vec<LegSummary> = if args.seed == DEFAULT_SEED {
        summaries.clone()
    } else {
        (0..legs.len())
            .map(|leg| run_leg(w, leg, DEFAULT_SEED, false).summary)
            .collect()
    };
    checks.against_reference(reference, w, &at_default);

    // End to end. Every repeat does identical work. Each slice's wall
    // time is scaled by its repeat's host calibration to the reference
    // host speed, then takes its median over the repeats: a co-tenant
    // that slows the host slows the calibration with it, and a stall
    // within one repeat cannot move the median.
    let timing = w.timing();
    let n_slices = legs.len() * timing.slices;
    let sim_s = n_slices as f64 * timing.slice.as_secs_f64();
    let per_repeat: Vec<Vec<f64>> = repeats.iter().map(|r| r.slices().collect()).collect();
    let slice_medians = |scale: &dyn Fn(&Repeat) -> f64| -> f64 {
        (0..n_slices)
            .map(|k| {
                let xs: Vec<f64> = per_repeat
                    .iter()
                    .zip(&repeats)
                    .map(|(walls, r)| walls[k] / scale(r))
                    .collect();
                median(&xs)
            })
            .sum()
    };
    let scaled_wall = slice_medians(&|r| r.calibration_s) * reference_s;
    m.insert("sim_per_wall", sim_s / scaled_wall);
    m.insert("host.sim_per_wall_raw", sim_s / slice_medians(&|_| 1.0));
    let calibrations: Vec<f64> = repeats.iter().map(|r| r.calibration_s).collect();
    m.insert("host.calibration_ms", median(&calibrations) * 1e3);
    setups.extend(
        repeats
            .iter()
            .map(|r| r.sum(|t| t.setup_s) / r.calibration_s * reference_s),
    );
    m.insert("setup_s", median(&setups));
    let head = summaries[legs.len() - 1];
    m.insert("gips", head.gips());
    m.insert("gips_per_joule", head.gips_per_joule());

    // Modelled outcomes and counters (first repeat, summed over legs).
    let sum = |f: fn(&LegSummary) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    m.insert("throttled_pct", head.throttled * 100.0);
    let stock = (legs.len() == 2).then(|| summaries[0]);
    m.insert(
        "throttled_pct_stock",
        stock.map_or(0.0, |s| s.throttled * 100.0),
    );
    m.insert(
        "ea_gain_pct",
        stock.map_or(0.0, |s| (head.gips() / s.gips() - 1.0) * 100.0),
    );
    m.insert("sojourn_p50_s", head.latency.p50_s);
    m.insert("sojourn_p99_s", head.latency.p99_s);
    m.insert("sojourn_samples", head.latency.count as f64);
    m.insert("sim.steps", sum(|s| s.steps));
    m.insert(
        "sim.mean_stride_us",
        summaries.iter().map(|s| s.engine_s).sum::<f64>() * 1e6 / sum(|s| s.steps),
    );
    m.insert("sched.migrations", sum(|s| s.migrations));
    m.insert("sched.context_switches", sum(|s| s.context_switches));
    m.insert("core.hot_migrations", sum(|s| s.hot_migrations));
    let energy: f64 = summaries.iter().map(|s| s.energy_j).sum();
    let estimated: f64 = summaries.iter().map(|s| s.estimated_energy_j).sum();
    m.insert(
        "core.estimation_error_pct",
        (estimated - energy).abs() / energy * 100.0,
    );
    m.insert("thermal.throttle_engagements", sum(|s| s.engagements));
    m.insert(
        "thermal.max_package_temp_c",
        summaries
            .iter()
            .map(|s| s.max_temp_c)
            .fold(f64::NEG_INFINITY, f64::max),
    );
    m.insert("dvfs.decisions", sum(|s| s.dvfs_decisions));
    m.insert("dvfs.transitions", sum(|s| s.dvfs_transitions));
    m.insert("workloads.arrivals", sum(|s| s.arrivals));
    m.insert("workloads.completions", sum(|s| s.completions));
    m.insert("parallel.handoffs", sum(|s| s.handoffs));
    m.insert("fleet.stranded_w_mean", head.stranded_w_mean);

    // Per-layer host time from the timed repeats (raw wall time).
    let span_walls: Vec<f64> = repeats.iter().map(Repeat::span_wall_s).collect();
    let span_steps: f64 = repeats[0].legs.iter().map(|t| t.span_steps).sum::<u64>() as f64;
    m.insert("sim.us_per_step", median(&span_walls) * 1e6 / span_steps);
    let slices_ms: Vec<f64> = per_repeat.iter().flatten().map(|s| s * 1e3).collect();
    let cores_used = repeats.iter().map(|r| r.sum(|t| t.span_cpu_s)).sum::<f64>()
        / span_walls.iter().sum::<f64>();
    let (slice_metric, cores_metric) = match first[0].engine {
        Engine::Fleet(_) => (
            ["fleet.epoch_ms_p50", "fleet.epoch_ms_p99"],
            Some("fleet.cores_used"),
        ),
        Engine::Par(_) => (
            ["sim.run_for_ms_p50", "sim.run_for_ms_p99"],
            Some("parallel.cores_used"),
        ),
        Engine::Seq(_) => (["sim.run_for_ms_p50", "sim.run_for_ms_p99"], None),
    };
    m.insert(slice_metric[0], quantile(&slices_ms, 0.5));
    m.insert(slice_metric[1], quantile(&slices_ms, 0.99));
    if let Some(name) = cores_metric {
        m.insert(name, cores_used);
    }

    if args.trace {
        let timed: Vec<f64> = repeats
            .iter()
            .map(|r| r.span_wall_s() / r.calibration_s)
            .collect();
        traced_run(args, &first, median(&timed), &mut m, &mut checks);
    }

    m.insert("peak_rss_mb", host::peak_rss_mb());
    m.insert("failed_frac", checks.failed_frac());
    Outcome {
        args: args.clone(),
        iterations: repeats.len(),
        metrics: m,
        checks,
    }
}

/// The traced run: the legs once more with the event trace and phase
/// profiler on (reports must stay bit-identical), then the outside-in
/// layer probes on the first repeat's end state.
fn traced_run(
    args: &Args,
    first: &[LegRun],
    timed_scaled_wall: f64,
    m: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    let w = args.workload;
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    let traced: Vec<LegRun> = (0..first.len())
        .map(|leg| run_leg(w, leg, args.seed, true))
        .collect();
    for ((label, a), b) in w.legs().iter().zip(first).zip(&traced) {
        checks.check(reports_bit_eq(a, b), || {
            format!("{label}: the traced report differs from the timed one")
        });
    }
    // Both sides scaled by their host calibration, as end to end.
    let traced_wall: f64 = traced.iter().map(LegRun::span_wall_s).sum();
    let traced_calibrations: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.calibration_s.iter().copied())
        .collect();
    m.insert(
        "trace.overhead_pct",
        (traced_wall / median(&traced_calibrations) / timed_scaled_wall - 1.0) * 100.0,
    );

    // Engine phases: self time per engine step, where the profiler is
    // reachable (the sequential core).
    let steps: u64 = traced.iter().map(|r| r.summary.steps).sum();
    let mut events = 0usize;
    for run in &traced {
        match &run.engine {
            Engine::Seq(sim) => {
                events += sim.events().map_or(0, |t| t.len());
                for row in sim.engine_profile().map(|p| p.rows()).unwrap_or_default() {
                    if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| {
                        n.strip_prefix("sim.phase.") == Some(&format!("{}_us", row.name))
                    }) {
                        *m.get_mut(name).expect("initialised above") +=
                            row.total_s * 1e6 / steps as f64;
                    }
                }
            }
            Engine::Par(sim) => events += sim.events().map_or(0, |e| e.len()),
            Engine::Fleet(_) => {}
        }
    }
    m.insert("trace.events", events as f64);
    drop(traced);

    let head = &first[first.len() - 1].engine;
    match head {
        Engine::Fleet(fleet) => {
            m.insert(
                "sim.report_ms",
                time_ms(3, || fleet.host_reports()) / fleet.hosts() as f64,
            );
            m.insert("fleet.report_ms", time_ms(5, || fleet.report()));
            m.insert("fleet.state_hashes_ms", time_ms(3, || fleet.state_hashes()));
        }
        Engine::Seq(_) | Engine::Par(_) => {
            let machine = head.machine().expect("a single machine");
            m.insert("sim.report_ms", time_ms(5, || machine.report()));
            let store = probe::store_round_trip(machine, checks);
            m.insert("store.snapshot_ms", store.snapshot_ms);
            m.insert("store.state_hash_ms", store.state_hash_ms);
            m.insert("store.restore_ms", store.restore_ms);
            m.insert("store.image_kb", store.image_kb);
        }
    }
    if let Engine::Seq(sim) = head {
        let (stock, energy) = probe::balance_rounds_us(sim, BALANCE_ROUNDS);
        m.insert("sched.balance_round_us", stock);
        m.insert("core.energy_balance_round_us", energy);
    }
}

impl Outcome {
    /// The metrics this run reports: end-to-end ones untraced,
    /// per-layer ones traced.
    pub fn reported(&self) -> &'static [(&'static str, &'static str)] {
        if self.args.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the reported metrics.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                // JSON has no NaN: an unmeasured metric reads 0 and is
                // listed among the failures by `render`.
                let v = if v.is_finite() { v } else { 0.0 };
                // Names and units are fixed identifiers: nothing to escape.
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let missing = self.missing().len() as u64;
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && missing == 0,
            self.checks.attempted + missing,
            self.checks.failures.len() as u64 + missing,
            metrics.join(", ")
        )
    }

    /// Reported metrics that were not measured or are not finite.
    fn missing(&self) -> Vec<&'static str> {
        self.reported()
            .iter()
            .filter(|(name, _)| !self.metrics.get(name).is_some_and(|v| v.is_finite()))
            .map(|&(name, _)| name)
            .collect()
    }

    /// The human-readable report: host and build facts, every metric
    /// by name with its unit, accuracy against the paper, the checks.
    pub fn render(&self) -> String {
        let a = &self.args;
        let mut out = format!(
            "perfbench {}: seed {}, trace {}\nhost: {} cores (available_parallelism); {}; \
             commit {}; {} timed repeats\nworkload: {}\n",
            a.workload.name(),
            a.seed,
            u8::from(a.trace),
            host::cores(),
            host::RUSTC,
            host::commit(),
            self.iterations,
            a.workload.describe(),
        );
        let mut section = |title: &str, table: &[(&str, &str)]| {
            out.push_str(title);
            for (name, unit) in table {
                if let Some(v) = self.metrics.get(name) {
                    out.push_str(&format!("  {name:<30} {v:>16.6} {unit}\n"));
                }
            }
        };
        section(
            "end to end (host time: tracing off; modelled: simulated):\n",
            &END_TO_END,
        );
        section("per layer and per workload:\n", &PER_LAYER);
        let v = |name: &str| self.metrics.get(name).copied().unwrap_or(0.0);
        if a.workload == Workload::PaperThermal {
            out.push_str(&format!(
                "accuracy vs the paper (Table 3): throttled stock {:.2} % (paper {PAPER_THROTTLED_STOCK} %, \
                 error {:+.2} pts); energy-aware {:.2} % (paper {PAPER_THROTTLED_EA} %, error {:+.2} pts); \
                 gain {:+.2} % (paper {PAPER_GAIN:+} %, error {:+.2} pts)\n",
                v("throttled_pct_stock"),
                v("throttled_pct_stock") - PAPER_THROTTLED_STOCK,
                v("throttled_pct"),
                v("throttled_pct") - PAPER_THROTTLED_EA,
                v("ea_gain_pct"),
                v("ea_gain_pct") - PAPER_GAIN,
            ));
        } else {
            out.push_str("accuracy: model unvalidated (the paper measured no such machine)\n");
        }
        out.push_str(&format!(
            "checks: {} attempted, {} failed\n",
            self.checks.attempted,
            self.checks.failures.len()
        ));
        for f in &self.checks.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        for name in self.missing() {
            out.push_str(&format!("  FAILED metric {name} not measured\n"));
        }
        out
    }
}

/// Runs every workload once at the default seed and renders the
/// reference document the output checks compare against.
pub fn record_reference() -> String {
    let legs: Vec<(Workload, Vec<LegSummary>)> = Workload::ALL
        .iter()
        .map(|&w| {
            let legs = (0..w.legs().len())
                .map(|leg| run_leg(w, leg, DEFAULT_SEED, false).summary)
                .collect();
            (w, legs)
        })
        .collect();
    checks::render_reference(&legs)
}
