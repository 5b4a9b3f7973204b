//! Regenerates Figure 3 (temperature vs power vs thermal power).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    let fig = ebs_bench::experiments::fig3::run(quick);
    let path = ebs_bench::write_artifact("fig3.csv", &fig.to_csv()).expect("write fig3.csv");
    println!("{fig}");
    println!("curves written to {}", path.display());
}
