//! Runs the fleet headline: a diurnal open workload dispatched across
//! a 64-host mixed rack (8 hosts with `--smoke`), stock vs power-aware
//! placement crossed with `hlt` vs DVFS budget enforcement. Writes
//! per-epoch fleet metrics to `results/fleet.csv` and exits non-zero
//! if the worker-invariance gate fails (the failure message names the
//! first divergent host and event).

use std::process::ExitCode;

fn main() -> ExitCode {
    let smoke = ebs_bench::reduced(&ebs_bench::SMOKE.args());
    let sweep = ebs_bench::experiments::fleet::run(smoke);
    ebs_bench::write_artifact("fleet.csv", &sweep.to_csv()).expect("fleet csv");
    print!("{sweep}");
    if sweep.invariance_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
