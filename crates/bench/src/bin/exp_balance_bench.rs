//! Benchmarks the cost of a full balancing round across the topology
//! ladder, for both balancers; artifact `results/balance_bench.csv`.
//! `--quick` (or `--smoke`) reduces the timed rounds for CI while
//! keeping the full ladder through numa64's 256 CPUs.

fn main() {
    let quick = ebs_bench::reduced(&ebs_bench::SMOKE.args());
    let bench = ebs_bench::experiments::balance_bench::run(quick);
    ebs_bench::write_artifact("balance_bench.csv", &bench.to_csv()).expect("balance_bench.csv");
    println!("{bench}");
}
