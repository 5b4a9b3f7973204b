//! Runs the complete evaluation: every table and figure, in paper
//! order, writing CSV artefacts under `results/`.

use ebs_bench::experiments as exp;

fn main() {
    let quick = ebs_bench::QUICK.args().flag("--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("== EBS evaluation ({mode} mode) ==\n");

    let t1 = exp::table1::run(quick);
    println!("{t1}");
    let t2 = exp::table2::run(quick);
    println!("{t2}");
    let f3 = exp::fig3::run(quick);
    ebs_bench::write_artifact("fig3.csv", &f3.to_csv()).expect("fig3.csv");
    println!("{f3}");
    let f67 = exp::fig67::run(quick);
    ebs_bench::write_artifact("fig6.csv", &f67.disabled.trace.to_csv()).expect("fig6.csv");
    ebs_bench::write_artifact("fig7.csv", &f67.enabled.trace.to_csv()).expect("fig7.csv");
    println!("{f67}");
    let mig = exp::migrations::run(quick);
    println!("{mig}");
    let t3 = exp::table3::run(quick);
    println!("{t3}");
    let f8 = exp::fig8::run(quick);
    println!("{f8}");
    let f9 = exp::fig9::run(quick);
    ebs_bench::write_artifact("fig9.csv", &f9.to_csv()).expect("fig9.csv");
    println!("{f9}");
    let f10 = exp::fig10::run(quick);
    println!("{f10}");
    let ab = exp::ablation::run(quick);
    println!("{ab}");
    let dv = exp::dvfs::run(quick);
    ebs_bench::write_artifact("dvfs.csv", &dv.to_csv()).expect("dvfs.csv");
    println!("{dv}");
    let fl = exp::fleet::run(quick);
    ebs_bench::write_artifact("fleet.csv", &fl.to_csv()).expect("fleet.csv");
    println!("{fl}");

    println!("done; CSV artefacts in results/");
}
