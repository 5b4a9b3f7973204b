//! Observability guarantees: tracing must be free when off, faithful
//! when on, and never change what the simulation does.
//!
//! - **Off ⇒ bit-identical**: enabling nothing produces the same
//!   `SimReport` bytes as the seed code path always did, and enabling
//!   event tracing / profiling produces the same report as not
//!   enabling them (they observe, never steer).
//! - **On ⇒ faithful**: event counts reconcile exactly with the
//!   report's counters, and the Perfetto export round-trips through a
//!   JSON parser with matched slices.
//! - **Sampling floors**: the metrics cadence bounds variable strides
//!   (snapshots land exactly, also after a restore); no subscription,
//!   no floor.

use ebs_sim::{MaxPowerSpec, SimConfig, SimEngine, SimReport, Simulation};
use ebs_trace::{parse_json, EventKind, Json};
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use std::collections::HashMap;

fn fingerprint(r: &SimReport) -> String {
    format!("{r:?}")
}

fn base_cfg() -> SimConfig {
    SimConfig::xseries445().smt(false).seed(11)
}

/// A config that exercises DVFS, throttling, and migrations at once.
fn busy_cfg() -> SimConfig {
    base_cfg()
        .dvfs_governor(ebs_dvfs::GovernorKind::ThermalAware)
        .throttling(true)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
}

fn run_traced(cfg: SimConfig, duration: SimDuration) -> Simulation {
    let mut sim = Simulation::new(cfg);
    sim.spawn_mix(&section61_mix(), 2);
    sim.run_for(duration);
    sim
}

#[test]
fn tracing_and_profiling_leave_reports_bit_identical() {
    let duration = SimDuration::from_secs(2);
    for strided in [false, true] {
        let cfg = || {
            let c = busy_cfg();
            if strided {
                c.strided()
            } else {
                c
            }
        };
        let plain = fingerprint(&run_traced(cfg(), duration).report());
        let traced = fingerprint(
            &run_traced(cfg().trace_events(true).profile_engine(true), duration).report(),
        );
        assert_eq!(
            plain, traced,
            "tracing changed the simulation (strided = {strided})"
        );
    }
}

#[test]
fn metrics_leave_reports_bit_identical_on_the_fixed_core() {
    // Metrics snapshots bound *strides*, so bit-identity holds on the
    // fixed-tick core, where there are no strides to bound.
    let duration = SimDuration::from_secs(2);
    let plain = fingerprint(&run_traced(busy_cfg(), duration).report());
    let metered = fingerprint(
        &run_traced(
            busy_cfg().metrics_every(SimDuration::from_millis(100)),
            duration,
        )
        .report(),
    );
    assert_eq!(plain, metered, "metrics sampling changed the simulation");
}

/// A config whose load churns: an overloaded bursty open workload on
/// top of the closed mix, so balancing actually migrates and arrivals
/// actually complete.
fn churn_cfg() -> SimConfig {
    let shape = ebs_topology::TopologyPreset::XSeries445 { smt: false }.builder();
    let workload = OpenWorkload::new(
        vec![catalog::aluadd(), catalog::memrw(), catalog::bash()],
        1.5 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Burst {
        period: SimDuration::from_secs(1),
        duty: 0.4,
        high: 2.5,
    })
    .service_work(200_000_000, 800_000_000);
    SimConfig::with_topology(shape)
        .seed(11)
        .respawn(false)
        .dvfs_governor(ebs_dvfs::GovernorKind::ThermalAware)
        .throttling(true)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
        .open_workload(workload)
}

#[test]
fn event_counts_reconcile_with_report_counters() {
    let sim = run_traced(churn_cfg().trace_events(true), SimDuration::from_secs(4));
    let report = sim.report();
    let events = sim.events().expect("tracing on").to_vec();
    let count = |pred: &dyn Fn(&EventKind) -> bool| -> u64 {
        events.iter().filter(|e| pred(&e.kind)).count() as u64
    };
    assert_eq!(
        count(&|k| matches!(k, EventKind::EngineStep { .. })),
        report.engine_steps,
        "one EngineStep per step"
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::GovernorDecision { .. })),
        report.dvfs_decisions,
        "one GovernorDecision per decision"
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::PStateTransition { .. })),
        report.dvfs_transitions,
        "one PStateTransition per domain transition"
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::Completion { .. })),
        report.completions,
        "one Completion per completed task"
    );
    // A Migration event is emitted when the migrated task is next
    // dispatched; tasks migrated again before running, or parked at
    // the horizon, emit fewer events than the migration count.
    let migrations = count(&|k| matches!(k, EventKind::Migration { .. }));
    assert!(
        migrations <= report.migrations,
        "{migrations} migration events > {} migrations",
        report.migrations
    );
    assert!(migrations > 0, "churning run should migrate");
    assert!(report.completions > 0, "open arrivals should complete");
    // Spawns cover the initial mix (12 tasks) plus every accepted
    // arrival.
    let spawns = count(&|k| matches!(k, EventKind::Spawn { .. }));
    assert_eq!(spawns, 12 + report.arrivals, "one Spawn per task");
}

#[test]
fn throttle_events_reconcile_with_engagement_counts() {
    // bitcnts under a 40 W package budget throttles heavily (the
    // equivalence suite's duty-cycle scenario).
    let cfg = base_cfg()
        .energy_aware(false)
        .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
        .trace_events(true);
    let mut sim = Simulation::new(cfg);
    sim.spawn_program(&catalog::bitcnts());
    sim.run_for(SimDuration::from_secs(20));
    let report = sim.report();
    let engagements: u64 = report.throttle_stats.iter().map(|s| s.engagements).sum();
    assert!(engagements > 0, "scenario must throttle");
    let events = sim.events().expect("tracing on").to_vec();
    let engages = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ThrottleEngage { .. }))
        .count() as u64;
    let releases = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ThrottleRelease { .. }))
        .count() as u64;
    assert_eq!(engages, engagements, "one ThrottleEngage per engagement");
    // Every engage is eventually released, except possibly the last.
    assert!(
        engages - releases <= 1,
        "{engages} engages vs {releases} releases"
    );
}

#[test]
fn event_ring_capacity_keeps_the_newest_events() {
    let sim = run_traced(busy_cfg().trace_events_cap(256), SimDuration::from_secs(2));
    let trace = sim.events().expect("tracing on");
    assert_eq!(trace.len(), 256);
    assert!(trace.dropped() > 0);
    // The ring still yields events oldest-first.
    let events = trace.to_vec();
    assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
}

#[test]
fn metrics_cadence_floors_strides_only_when_subscribed() {
    // An open workload with long quiet gaps: the strided engine takes
    // long spans unless something bounds them.
    let cfg = |metrics: bool| {
        let shape = ebs_topology::TopologyPreset::Dual.builder();
        let workload = OpenWorkload::new(vec![catalog::aluadd()], 0.5)
            .curve(LoadCurve::Constant)
            .service_work(50_000_000, 100_000_000);
        let c = SimConfig::with_topology(shape)
            .seed(3)
            .respawn(false)
            .open_workload(workload)
            .strided();
        if metrics {
            c.metrics_every(SimDuration::from_millis(1))
        } else {
            c
        }
    };
    let steps = |cfg: SimConfig| {
        let mut sim = Simulation::new(cfg);
        sim.run_for(SimDuration::from_secs(2));
        sim.report().engine_steps
    };
    let free = steps(cfg(false));
    let floored = steps(cfg(true));
    // A 1 ms cadence forces a step per tick: 2000 steps. Without the
    // subscription the engine must stride far past that.
    assert!(floored >= 2_000, "cadence not honoured: {floored} steps");
    assert!(
        free * 2 < floored,
        "no-sampling run took {free} steps vs {floored} with a 1 ms cadence — the floor \
         is applied unconditionally"
    );
}

#[test]
fn metrics_snapshots_land_on_the_cadence_and_export_csv() {
    let every = SimDuration::from_millis(100);
    let sim = run_traced(
        busy_cfg().metrics_every(every).strided(),
        SimDuration::from_secs(2),
    );
    let reg = sim.metrics().expect("metrics on");
    let snaps = reg.snapshots();
    // One snapshot at the end of the first step, then every 100 ms:
    // at least 20 over 2 s, each exactly on a multiple of the cadence
    // (the stride bound guarantees the engine steps on those instants
    // after the first).
    assert!(snaps.len() >= 20, "only {} snapshots", snaps.len());
    for snap in &snaps[1..] {
        assert_eq!(
            snap.t.as_micros() % every.as_micros(),
            0,
            "snapshot off-cadence at {:?}",
            snap.t
        );
    }
    let csv = reg.to_csv();
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("time_s,"));
    assert!(header.contains("engine.steps"));
    assert!(header.contains("thermal.power_w.cpu0"));
    assert!(header.contains("dvfs.freq_ghz.pkg0"));
    assert_eq!(lines.count(), snaps.len());
}

/// A checkpoint written without metrics carries no snapshot cursor.
/// Restored into a metered engine, the cadence resumes where a straight
/// metered run holds it, instead of replaying every instant since
/// t = 0 with a snapshot (and a one-tick stride) per step.
#[test]
fn restored_metrics_cadence_resumes_on_the_grid() {
    let every = SimDuration::from_millis(100);
    let cfg = SimConfig::xseries445().smt(false).seed(7).strided();
    let warm_up = |cfg: SimConfig| {
        let mut sim = Simulation::new(cfg);
        for p in [catalog::aluadd(), catalog::memrw()] {
            sim.spawn_program(&p);
            sim.spawn_program(&p);
        }
        sim.run_for(SimDuration::from_secs(10));
        sim
    };
    let steps_over_one_second = |sim: &mut Simulation| {
        let before = sim.report().engine_steps;
        sim.run_for(SimDuration::from_secs(1));
        sim.report().engine_steps - before
    };

    let image = warm_up(cfg.clone()).snapshot();
    let mut resumed =
        Simulation::from_snapshot(cfg.clone().metrics_every(every), &image).expect("restores");
    let resumed_steps = steps_over_one_second(&mut resumed);
    let snaps = resumed.metrics().expect("metrics on").snapshots();
    assert_eq!(snaps.len(), 10, "one snapshot per 100 ms");
    for snap in snaps {
        assert_eq!(
            snap.t.as_micros() % every.as_micros(),
            0,
            "snapshot off-cadence at {:?}",
            snap.t
        );
    }

    let mut straight = warm_up(cfg.metrics_every(every));
    assert_eq!(resumed_steps, steps_over_one_second(&mut straight));
}

#[test]
fn perfetto_export_round_trips_with_matched_slices() {
    let sim = run_traced(
        busy_cfg()
            .trace_events(true)
            .metrics_every(SimDuration::from_millis(100)),
        SimDuration::from_secs(2),
    );
    let doc = sim.perfetto_json().expect("tracing on");
    let parsed = parse_json(&doc).expect("exporter must emit valid JSON");
    let list = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(list.len() > 100, "suspiciously small trace: {}", list.len());

    let mut open: HashMap<(u64, u64), f64> = HashMap::new();
    let mut counter_names: Vec<String> = Vec::new();
    let mut slices = 0u64;
    for item in list {
        let ph = item.get("ph").and_then(Json::as_str).expect("ph");
        let pid = item.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tid = item.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let ts = item.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        match ph {
            "B" => {
                slices += 1;
                assert!(
                    open.insert((pid, tid), ts).is_none(),
                    "nested slice on track ({pid},{tid})"
                );
            }
            "E" => {
                let begin = open.remove(&(pid, tid)).expect("slice end without a begin");
                assert!(ts >= begin, "slice ends before it begins");
            }
            "C" => {
                if let Some(name) = item.get("name").and_then(Json::as_str) {
                    if !counter_names.iter().any(|n| n == name) {
                        counter_names.push(name.to_string());
                    }
                }
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed slices: {open:?}");
    assert!(slices > 10, "expected task slices, saw {slices}");
    // The acceptance bar: thermal power and frequency counter tracks.
    assert!(
        counter_names
            .iter()
            .any(|n| n.starts_with("thermal.power_w.")),
        "no thermal power counters in {counter_names:?}"
    );
    assert!(
        counter_names
            .iter()
            .any(|n| n.starts_with("dvfs.freq_ghz.")),
        "no frequency counters in {counter_names:?}"
    );
    // Task slices carry program names from the catalog.
    assert!(
        doc.contains("bitcnts"),
        "slice labels missing program names"
    );
}

#[test]
fn engine_profile_counts_every_phase() {
    let mut sim = Simulation::new(busy_cfg().profile_engine(true));
    sim.spawn_mix(&section61_mix(), 1);
    sim.run_for(SimDuration::from_millis(500));
    let profile = sim.engine_profile().expect("profiling on");
    let rows = profile.rows();
    let by_name: HashMap<&str, u64> = rows.iter().map(|r| (r.name, r.calls)).collect();
    let steps = sim.report().engine_steps;
    // Counter-based (CI-safe): every phase inside step_span runs once
    // per step; the stride phase once per run_for iteration.
    for phase in [
        "arrivals",
        "physics",
        "throttle",
        "dvfs",
        "scheduler",
        "sampling",
    ] {
        assert_eq!(by_name[phase], steps, "phase {phase} calls != steps");
    }
    assert_eq!(by_name["stride"], steps);
    // The table renders one row per phase.
    assert_eq!(format!("{profile}").lines().count(), rows.len() + 1);
}
