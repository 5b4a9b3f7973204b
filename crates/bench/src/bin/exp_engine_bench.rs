//! Benchmarks the engine cores: simulated seconds per wall second for
//! the fixed-tick, variable-stride, and partitioned (parallel) loops
//! across the topology ladder, then prints the sequential core's
//! engine phase profile for one profiled numa64 `strided` run and the
//! partitioned core's synchronizer profile (route, step and rebalance
//! wall time per horizon) for one profiled numa64 `par4` run.
//! `--quick` runs the reduced two-shape matrix.
//!
//! On the full ladder, the numa64 shape (256 CPUs) gates the
//! partitioned core: its simulated-seconds-per-wall-second must reach
//! at least 2x the strided core's. Both step on one thread, so the gate
//! measures per-package event calendars against the whole-machine
//! calendar, and it means the same on every host. The numa64 `strided`
//! and `par4` cells run twice more, alternating, and the gate reads the
//! median of the three ratios. Counters are checked first: `par4` must
//! retire the strided core's work within 3 %, and every repeat must
//! retire exactly the instructions of its mode's first run.

use ebs_bench::experiments::engine_bench;
use ebs_topology::TopologyPreset;

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    let bench = engine_bench::run(quick);
    ebs_bench::write_artifact("engine_bench.csv", &bench.to_csv()).expect("engine_bench.csv");
    println!("{bench}");
    if quick {
        return;
    }
    let strided = bench
        .cell("numa64", "strided", "off")
        .expect("numa64 strided cell");
    let par = bench
        .cell("numa64", "par4", "off")
        .expect("numa64 par4 cell");
    // Counter verification first: a speedup that drops work is noise.
    let rel =
        (strided.instructions as f64 - par.instructions as f64).abs() / strided.instructions as f64;
    assert!(
        rel < 0.03,
        "numa64 par4 retired work drifted {rel} from strided"
    );
    assert_eq!(
        bench.phases.steps, strided.steps,
        "the engine profile changed the numa64 strided run"
    );
    assert_eq!(
        bench.sync.steps, par.steps,
        "the synchronizer profile changed the numa64 par4 run"
    );
    let mut ratios = vec![bench
        .parallel_speedup("numa64", "par4")
        .expect("numa64 speedup")];
    for _ in 0..2 {
        let s = engine_bench::measure(TopologyPreset::Numa64, "strided", "off", quick);
        let p = engine_bench::measure(TopologyPreset::Numa64, "par4", "off", quick);
        assert_eq!(
            s.instructions, strided.instructions,
            "a numa64 strided repeat retired different work"
        );
        assert_eq!(
            p.instructions, par.instructions,
            "a numa64 par4 repeat retired different work"
        );
        ratios.push(p.sim_per_wall / s.sim_per_wall);
    }
    let runs: Vec<String> = ratios.iter().map(|r| format!("{r:.2}x")).collect();
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[1];
    println!(
        "numa64 partitioned speedup: {speedup:.2}x (par4 over strided, both on one \
         thread: per-package calendars against the whole-machine calendar; \
         median of {})",
        runs.join(", ")
    );
    assert!(
        speedup >= 2.0,
        "numa64 partitioned core below the 2x gate: {speedup:.2}x"
    );
}
