//! Runs the Section 4.3 balancer-metric ablation (beyond the paper).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::ablation::run(quick));
}
