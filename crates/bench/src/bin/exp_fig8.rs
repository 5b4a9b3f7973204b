//! Regenerates Figure 8 (throughput gain vs workload homogeneity).

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    println!("{}", ebs_bench::experiments::fig8::run(quick));
}
