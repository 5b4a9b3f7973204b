//! Regenerates Table 3 (CPU throttling percentages and throughput).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::table3::run(quick));
}
