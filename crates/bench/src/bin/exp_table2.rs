//! Regenerates Table 2 (program power levels).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::table2::run(quick));
}
