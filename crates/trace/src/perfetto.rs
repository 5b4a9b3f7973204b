//! Chrome trace-event JSON export, openable directly in
//! `ui.perfetto.dev` (or `chrome://tracing`).
//!
//! Layout:
//!
//! - process 1 ("machine"): one thread track per CPU carrying task
//!   slices (`B`/`E` pairs reconstructed from the context-switch
//!   stream) and instants for spawns, completions, migrations, and
//!   balancer rounds; one thread track per package carrying throttle
//!   instants (and, under per-package frequency domains, the governor
//!   and P-state instants); under per-core domains one thread track
//!   per frequency domain carries those instead.
//! - process 2 ("metrics"): one counter track (`C` events) per
//!   registered gauge — thermal power, frequency, runqueue depth,
//!   windowed utilization — fed from the registry's snapshots.
//!
//! Engine-step and wakeup events are deliberately not rendered (pure
//! volume, no track to pin them to); the raw event buffer keeps them.

use crate::event::{EventKind, TraceEvent};
use crate::json::escape;
use crate::metrics::MetricsRegistry;
use std::collections::HashMap;

const PID_MACHINE: u32 = 1;
const PID_METRICS: u32 = 2;
/// Package tracks live above any plausible CPU id.
const PKG_TID_BASE: u32 = 4000;
/// Frequency-domain tracks (per-core scope only) live above the
/// package tracks — a hybrid machine's domain ids overlap its package
/// ids numerically while meaning different hardware.
const DOM_TID_BASE: u32 = 8000;

fn meta(pid: u32, tid: u32, key: &str, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{key}\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    )
}

fn instant(ts: u64, tid: u32, name: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":{PID_MACHINE},\"tid\":{tid},\"ts\":{ts},\
         \"s\":\"t\",\"name\":\"{}\"}}",
        escape(name)
    )
}

/// Renders an event stream (and optionally a metrics registry's gauge
/// snapshots) as a Chrome trace-event JSON document. `binary_names`
/// labels task slices by the program each task runs (tasks map to
/// binaries via their `Spawn` events; unknown binaries fall back to
/// `bin<id>`).
///
/// Without `per_core_domains`, governor and P-state instants land on
/// the `package{i}` tracks — correct for per-package frequency
/// domains, where domain `i` *is* package `i`. With it, those instants
/// (whose id field carries a *domain* index) render on dedicated
/// `domain{i}` tracks, one per frequency domain, while throttle
/// instants stay on the `package{i}` tracks they are keyed by — on a
/// hybrid machine the two id spaces overlap numerically but name
/// different hardware.
pub fn export(
    events: &[TraceEvent],
    metrics: Option<&MetricsRegistry>,
    binary_names: &HashMap<u64, String>,
    per_core_domains: bool,
) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut cpus: Vec<u32> = Vec::new();
    let mut packages: Vec<u32> = Vec::new();
    let mut domains: Vec<u32> = Vec::new();
    let mut labels: HashMap<u64, String> = HashMap::new();
    // Open slice per CPU: the label of the task currently on it.
    let mut open: HashMap<u32, String> = HashMap::new();
    let mut last_ts = 0u64;

    let label_of = |labels: &HashMap<u64, String>, task: u64| -> String {
        labels
            .get(&task)
            .cloned()
            .unwrap_or_else(|| format!("task{task}"))
    };

    for ev in events {
        let ts = ev.t.as_micros();
        last_ts = last_ts.max(ts);
        if let Some(cpu) = ev.kind.cpu() {
            if !cpus.contains(&cpu) {
                cpus.push(cpu);
            }
        }
        match ev.kind {
            EventKind::EngineStep { .. } | EventKind::Wakeup { .. } => {}
            EventKind::Spawn { task, cpu, binary } => {
                let name = binary_names
                    .get(&binary)
                    .cloned()
                    .unwrap_or_else(|| format!("bin{binary}"));
                labels.insert(task, format!("{name} t{task}"));
                out.push(instant(
                    ts,
                    cpu,
                    &format!("spawn {}", label_of(&labels, task)),
                ));
            }
            EventKind::ContextSwitch { cpu, task } => {
                if open.remove(&cpu).is_some() {
                    out.push(format!(
                        "{{\"ph\":\"E\",\"pid\":{PID_MACHINE},\"tid\":{cpu},\"ts\":{ts}}}"
                    ));
                }
                if let Some(task) = task {
                    let label = label_of(&labels, task);
                    out.push(format!(
                        "{{\"ph\":\"B\",\"pid\":{PID_MACHINE},\"tid\":{cpu},\"ts\":{ts},\
                         \"name\":\"{}\"}}",
                        escape(&label)
                    ));
                    open.insert(cpu, label);
                }
            }
            EventKind::Migration { task, cpu, reason } => {
                out.push(instant(
                    ts,
                    cpu,
                    &format!("migrate {} ({reason})", label_of(&labels, task)),
                ));
            }
            EventKind::Completion { task, cpu } => {
                out.push(instant(
                    ts,
                    cpu,
                    &format!("done {}", label_of(&labels, task)),
                ));
            }
            EventKind::BalancerRound { cpu, pulled } => {
                out.push(instant(ts, cpu, &format!("balance pulled {pulled}")));
            }
            EventKind::GovernorDecision { package, pstate } => {
                let tid = if per_core_domains {
                    if !domains.contains(&package) {
                        domains.push(package);
                    }
                    DOM_TID_BASE + package
                } else {
                    if !packages.contains(&package) {
                        packages.push(package);
                    }
                    PKG_TID_BASE + package
                };
                out.push(instant(ts, tid, &format!("governor P{pstate}")));
            }
            EventKind::PStateTransition { package, from, to } => {
                let tid = if per_core_domains {
                    if !domains.contains(&package) {
                        domains.push(package);
                    }
                    DOM_TID_BASE + package
                } else {
                    if !packages.contains(&package) {
                        packages.push(package);
                    }
                    PKG_TID_BASE + package
                };
                out.push(instant(ts, tid, &format!("P{from} -> P{to}")));
            }
            EventKind::ThrottleEngage { package } => {
                if !packages.contains(&package) {
                    packages.push(package);
                }
                out.push(instant(ts, PKG_TID_BASE + package, "throttle engage"));
            }
            EventKind::ThrottleRelease { package } => {
                if !packages.contains(&package) {
                    packages.push(package);
                }
                out.push(instant(ts, PKG_TID_BASE + package, "throttle release"));
            }
        }
    }
    // Close slices still open at the end of the trace.
    let mut still_open: Vec<u32> = open.into_keys().collect();
    still_open.sort_unstable();
    for cpu in still_open {
        out.push(format!(
            "{{\"ph\":\"E\",\"pid\":{PID_MACHINE},\"tid\":{cpu},\"ts\":{last_ts}}}"
        ));
    }

    // Counter tracks from the gauge snapshots.
    if let Some(reg) = metrics {
        let names = reg.gauge_names();
        for snap in reg.snapshots() {
            let ts = snap.t.as_micros();
            for (name, value) in names.iter().zip(&snap.gauges) {
                out.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{PID_METRICS},\"tid\":0,\"ts\":{ts},\
                     \"name\":\"{}\",\"args\":{{\"value\":{value:.6}}}}}",
                    escape(name)
                ));
            }
        }
    }

    // Track naming metadata.
    let mut head = vec![
        meta(PID_MACHINE, 0, "process_name", "machine"),
        meta(PID_METRICS, 0, "process_name", "metrics"),
    ];
    cpus.sort_unstable();
    for cpu in cpus {
        head.push(meta(PID_MACHINE, cpu, "thread_name", &format!("cpu{cpu}")));
    }
    packages.sort_unstable();
    for pkg in packages {
        head.push(meta(
            PID_MACHINE,
            PKG_TID_BASE + pkg,
            "thread_name",
            &format!("package{pkg}"),
        ));
    }
    domains.sort_unstable();
    for dom in domains {
        head.push(meta(
            PID_MACHINE,
            DOM_TID_BASE + dom,
            "thread_name",
            &format!("domain{dom}"),
        ));
    }
    head.extend(out);
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        head.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use ebs_units::SimTime;

    fn ev(t_ms: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_millis(t_ms),
            kind,
        }
    }

    #[test]
    fn export_round_trips_with_matched_slices_and_counters() {
        let events = vec![
            ev(
                0,
                EventKind::Spawn {
                    task: 1,
                    cpu: 0,
                    binary: 9,
                },
            ),
            ev(
                0,
                EventKind::ContextSwitch {
                    cpu: 0,
                    task: Some(1),
                },
            ),
            ev(
                5,
                EventKind::Migration {
                    task: 1,
                    cpu: 2,
                    reason: "hot-task",
                },
            ),
            ev(5, EventKind::ContextSwitch { cpu: 0, task: None }),
            ev(
                5,
                EventKind::ContextSwitch {
                    cpu: 2,
                    task: Some(1),
                },
            ),
            ev(
                7,
                EventKind::GovernorDecision {
                    package: 0,
                    pstate: 2,
                },
            ),
            ev(9, EventKind::Completion { task: 1, cpu: 2 }),
            // Task 1 keeps running past the end: closed synthetically.
        ];
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("thermal.power_w.cpu0");
        reg.set_gauge(g, 13.5);
        reg.snapshot(SimTime::from_millis(4));
        let mut names = HashMap::new();
        names.insert(9u64, "bitcnts".to_string());

        let doc = export(&events, Some(&reg), &names, false);
        let parsed = parse(&doc).expect("valid JSON");
        let list = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");

        // Slices balance per (pid, tid), with monotone timestamps.
        let mut open: HashMap<(u64, u64), f64> = HashMap::new();
        let mut counters = 0;
        for item in list {
            let ph = item.get("ph").and_then(Json::as_str).expect("ph");
            let tid = item.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let pid = item.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let ts = item.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
            match ph {
                "B" => {
                    assert!(open.insert((pid, tid), ts).is_none(), "nested slice");
                }
                "E" => {
                    let begin = open.remove(&(pid, tid)).expect("E without B");
                    assert!(ts >= begin, "slice ends before it begins");
                }
                "C" => {
                    counters += 1;
                    assert!(item.get("args").and_then(|a| a.get("value")).is_some());
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "unclosed slices: {open:?}");
        assert_eq!(counters, 1);
        // The slice is labelled with the program name.
        assert!(doc.contains("bitcnts t1"));
        assert!(doc.contains("thermal.power_w.cpu0"));
        assert!(doc.contains("hot-task"));
    }

    #[test]
    fn per_core_scope_renders_domain_tracks() {
        let events = vec![
            ev(
                1,
                EventKind::GovernorDecision {
                    package: 5,
                    pstate: 1,
                },
            ),
            ev(
                2,
                EventKind::PStateTransition {
                    package: 5,
                    from: 0,
                    to: 1,
                },
            ),
            ev(3, EventKind::ThrottleEngage { package: 0 }),
        ];
        let names = HashMap::new();

        // Per-package domains: everything on package tracks.
        let flat = export(&events, None, &names, false);
        assert!(flat.contains("package5"));
        assert!(!flat.contains("domain5"));

        // Per-core domains: governor/P-state instants move to their
        // own domain track; the throttle stays per package.
        let scoped = export(&events, None, &names, true);
        assert!(scoped.contains("domain5"), "{scoped}");
        assert!(!scoped.contains("package5"), "{scoped}");
        assert!(scoped.contains("package0"), "{scoped}");
        assert!(parse(&scoped).is_ok(), "valid JSON");
    }

    #[test]
    fn offset_ids_shifts_domains_independently_of_packages() {
        let gov = EventKind::GovernorDecision {
            package: 3,
            pstate: 1,
        }
        .offset_ids(0, 1, 8);
        assert_eq!(
            gov,
            EventKind::GovernorDecision {
                package: 11,
                pstate: 1
            }
        );
        let thr = EventKind::ThrottleEngage { package: 0 }.offset_ids(0, 1, 8);
        assert_eq!(thr, EventKind::ThrottleEngage { package: 1 });
    }
}
