//! CI regression gate over the scaling sweep: compares the strided
//! (`results/scaling.csv`) and fixed-tick (`results/scaling_fixed.csv`)
//! legs of `exp_scaling --smoke` cell by cell and exits non-zero when
//! any headline metric drifts past the equivalence-suite tolerances,
//! listing every violating cell. Takes no arguments.

use ebs_bench::Cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    Cli::switches(&[]).args();
    match ebs_bench::experiments::scaling_gate::run(
        "results/scaling.csv",
        "results/scaling_fixed.csv",
    ) {
        Ok(result) => {
            print!("{result}");
            if result.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("scaling gate error: {message}");
            ExitCode::FAILURE
        }
    }
}
