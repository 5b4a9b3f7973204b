//! Runs the scenario-engine scaling sweep: the policy matrix across
//! generated topologies and open-workload load curves, sharded through
//! the capped parallel runner. `--smoke` (or `--quick`) runs the
//! reduced 24-cell matrix CI exercises on every push; `--fixed` runs
//! the sweep at a one-tick stride cap and writes
//! `results/scaling_fixed.csv` — the baseline leg of the CI
//! fixed-vs-strided regression gate (`exp_scaling_gate`).
//!
//! `--fork` runs the checkpoint/fork sweep instead: both legs of the
//! warm-up-amortized matrix (per-cell warm-ups vs one shared warm-up
//! per topology×curve group, forked from its `ebs-store` checkpoint),
//! verifies they are byte-identical cell for cell, and writes
//! `results/scaling_fork.csv`, `results/scaling_straight.csv`, and one
//! `results/*.snap` checkpoint per group (replay them with
//! `exp_trace_diff --from-snapshot`). Exits non-zero when the legs
//! diverge, naming every cell whose end-state hash differs. The fork
//! sweep runs on the strided core only, so `--fork` refuses `--fixed`.

use ebs_bench::Cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::switches(&["--smoke", "--quick", "--fixed", "--fork"]);
    let args = cli.args();
    let smoke = ebs_bench::reduced(&args);
    let fixed = args.flag("--fixed");
    let fork = args.flag("--fork");
    if fork && fixed {
        cli.fail("--fixed does not apply to --fork (the fork sweep runs on the strided core)");
    }
    if fork {
        let cmp = ebs_bench::experiments::scaling::run_fork_compare(smoke);
        ebs_bench::write_artifact("scaling_fork.csv", &cmp.forked.sweep.to_csv())
            .expect("fork csv");
        ebs_bench::write_artifact("scaling_straight.csv", &cmp.straight.sweep.to_csv())
            .expect("straight csv");
        for (key, image) in &cmp.snapshots {
            let name = format!("{}.snap", key.replace('/', "-"));
            image
                .write_file(&std::path::Path::new("results").join(name))
                .expect("snap file");
        }
        print!("{cmp}");
        return if cmp.identical() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let sweep = ebs_bench::experiments::scaling::run_with_engine(smoke, !fixed);
    let artifact = if fixed {
        "scaling_fixed.csv"
    } else {
        "scaling.csv"
    };
    ebs_bench::write_artifact(artifact, &sweep.to_csv()).expect("scaling csv");
    println!("{sweep}");
    ExitCode::SUCCESS
}
