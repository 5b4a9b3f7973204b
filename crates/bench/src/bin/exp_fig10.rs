//! Regenerates Figure 10 (hot task migration with multiple tasks).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::fig10::run(quick));
}
