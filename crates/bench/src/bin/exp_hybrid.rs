//! Runs the heterogeneous-hardware study: class-aware vs class-blind
//! energy balancing on a two-package hybrid machine, swept across P/E
//! splits and open-workload curves. Writes the grid to
//! `results/hybrid.csv` and exits non-zero if class-aware balancing
//! fails to beat class-blind in gips/joule on at least one cell.

use std::process::ExitCode;

fn main() -> ExitCode {
    let smoke = ebs_bench::reduced(&ebs_bench::SMOKE.args());
    let study = ebs_bench::experiments::hybrid::run(smoke);
    ebs_bench::write_artifact("hybrid.csv", &study.to_csv()).expect("hybrid csv");
    print!("{study}");
    if study.any_aware_win() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
