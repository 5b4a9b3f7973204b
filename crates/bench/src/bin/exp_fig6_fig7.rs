//! Regenerates Figures 6 and 7 (thermal power of the eight CPUs with
//! energy balancing disabled/enabled).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    let fig = ebs_bench::experiments::fig67::run(quick);
    let p6 = ebs_bench::write_artifact("fig6.csv", &fig.disabled.trace.to_csv())
        .expect("write fig6.csv");
    let p7 =
        ebs_bench::write_artifact("fig7.csv", &fig.enabled.trace.to_csv()).expect("write fig7.csv");
    println!("{fig}");
    println!("curves written to {} and {}", p6.display(), p7.display());
}
