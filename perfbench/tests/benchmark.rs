//! The benchmark's own tests: short runs of every workload emit every
//! metric `BENCHMARK.json` names, a tampered reference fails the
//! output checks, and modelled metrics and counts repeat exactly.

use ebs_trace::{parse_json, Json};
use perfbench::workload::Workload;
use perfbench::{run, run_against, Args, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 1,
        trace,
    }
}

fn result(line: &str) -> Json {
    parse_json(line).expect("the result line is JSON")
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    let table = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (m, (_, unit)) in doc.get(key).unwrap().as_arr().unwrap().iter().zip(table) {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }
}

#[test]
fn short_mode_emits_every_named_metric_on_every_workload() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&args(w, 42, trace));
            let line = result(&outcome.result_line());
            let expected = names(&doc, if trace { "per_layer" } else { "end_to_end" });
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics object");
            };
            let mut got: Vec<&String> = metrics.keys().collect();
            let mut want: Vec<&String> = expected.iter().collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} trace {trace}", w.name());
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{} trace {trace}:\n{}",
                w.name(),
                outcome.render()
            );
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            for (name, v) in metrics {
                let v = v.get("value").and_then(Json::as_f64).expect("a value");
                assert!(v.is_finite(), "{name} = {v}");
                if !trace {
                    assert!(v > 0.0, "{}: end-to-end {name} reads {v}", w.name());
                }
            }
        }
    }
}

#[test]
fn a_tampered_reference_drives_failed_frac_above_zero() {
    let recorded = perfbench::checks::RECORDED_REFERENCE;
    let tampered = recorded.replacen("\"arrivals\": 13648", "\"arrivals\": 13649", 1);
    assert_ne!(
        tampered, recorded,
        "the fleet64 reference changed; update the tamper"
    );
    let outcome = run_against(&args(Workload::Fleet64, 42, false), &tampered);
    assert!(!outcome.correct());
    assert!(outcome.metrics["failed_frac"] > 0.0);
    let line = result(&outcome.result_line());
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn modelled_metrics_and_counts_repeat_exactly_per_seed() {
    const DETERMINISTIC: [&str; 16] = [
        "gips",
        "gips_per_joule",
        "sim.steps",
        "sched.migrations",
        "sched.context_switches",
        "core.hot_migrations",
        "thermal.throttle_engagements",
        "dvfs.decisions",
        "dvfs.transitions",
        "workloads.arrivals",
        "workloads.completions",
        "parallel.handoffs",
        "throttled_pct",
        "sojourn_p50_s",
        "sojourn_p99_s",
        "fleet.stranded_w_mean",
    ];
    for w in [Workload::Numa64Par, Workload::Fleet64] {
        let a = run(&args(w, 7, false));
        let b = run(&args(w, 7, false));
        for name in DETERMINISTIC {
            assert_eq!(
                a.metrics[name].to_bits(),
                b.metrics[name].to_bits(),
                "{}: {name}",
                w.name()
            );
        }
        let other = run(&args(w, 8, false));
        assert_ne!(
            a.metrics["gips"], other.metrics["gips"],
            "the seed drives the inputs"
        );
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    assert!(parse("--workload fleet64 --seed 3 --seconds 2 --trace 1").is_ok());
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload fleet64 --trace 2").is_err());
    assert!(parse("--workload fleet64 --bogus 1").is_err());
    assert!(parse("--seed 3").is_err());
}
