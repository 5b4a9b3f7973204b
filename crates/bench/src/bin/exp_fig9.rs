//! Regenerates Figure 9 (hot task migration of a single task).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    let fig = ebs_bench::experiments::fig9::run(quick);
    let path = ebs_bench::write_artifact("fig9.csv", &fig.to_csv()).expect("write fig9.csv");
    println!("{fig}");
    println!("visit trace written to {}", path.display());
}
