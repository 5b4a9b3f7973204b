//! Benchmarks the engine cores: simulated seconds per wall second for
//! the fixed-tick, variable-stride, and partitioned (parallel) loops
//! across the topology ladder. `--quick` runs the reduced two-shape
//! matrix CI exercises.
//!
//! On the full ladder, the numa64 shape (256 CPUs) gates the parallel
//! core: its simulated-seconds-per-wall-second must reach at least 2x
//! the single-thread strided core, with the retired work matching —
//! skipped on hosts without parallelism, where partitions step
//! serially and no speedup is physically possible.

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    let bench = ebs_bench::experiments::engine_bench::run(quick);
    ebs_bench::write_artifact("engine_bench.csv", &bench.to_csv()).expect("engine_bench.csv");
    println!("{bench}");
    if quick {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores <= 1 {
        println!("numa64 parallel speedup gate: skipped (single-CPU host)");
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
    let speedup = bench
        .parallel_speedup("numa64", "par4")
        .expect("numa64 speedup");
    println!("numa64 parallel speedup: {speedup:.2}x (par4 over single-thread strided)");
    assert!(
        speedup >= 2.0,
        "numa64 parallel core below the 2x gate: {speedup:.2}x"
    );
}
