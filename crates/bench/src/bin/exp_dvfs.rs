//! Runs the DVFS-vs-hlt thermal enforcement study. With `--trace` it
//! instead runs one traced cell and exports a Perfetto timeline
//! (`results/trace_dvfs.json`) plus the metrics-registry CSV
//! (`results/metrics_dvfs.csv`).

use ebs_bench::Cli;

fn main() {
    let args = Cli::switches(&["--quick", "--trace"]).args();
    let quick = args.flag("--quick");
    if args.flag("--trace") {
        let traced = ebs_bench::experiments::dvfs::traced_run(quick);
        ebs_bench::write_artifact("trace_dvfs.json", &traced.perfetto_json)
            .expect("trace_dvfs.json");
        ebs_bench::write_artifact("metrics_dvfs.csv", &traced.metrics_csv)
            .expect("metrics_dvfs.csv");
        print!("{traced}");
        return;
    }
    let study = ebs_bench::experiments::dvfs::run(quick);
    ebs_bench::write_artifact("dvfs.csv", &study.to_csv()).expect("dvfs.csv");
    println!("{study}");
}
