//! Regenerates the Section 6.1 migration counts.

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::migrations::run(quick));
}
