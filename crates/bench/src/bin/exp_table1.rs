//! Regenerates Table 1 (successive-timeslice power changes).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::table1::run(quick));
}
