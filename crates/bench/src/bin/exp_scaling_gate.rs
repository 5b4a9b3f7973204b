//! CI regression gate over the scaling sweep: compares the strided
//! (`results/scaling.csv`) and fixed-tick (`results/scaling_fixed.csv`)
//! legs of `exp_scaling --smoke` cell by cell and exits non-zero when
//! any headline metric drifts past the equivalence-suite tolerances,
//! listing every violating cell.
//! Optional arguments override the two artifact paths, strided first.
//!
//! When `results/scaling_fork_hashes.csv` exists (written by
//! `exp_scaling --fork`), the state-hash gate runs too: every fork
//! cell's end-state hash must match its straight-leg twin exactly —
//! an equality oracle that does not inherit the ≥20-completion
//! percentile gating hole of the metric tolerances.

use ebs_bench::Cli;
use std::process::ExitCode;

const HASHES: &str = "results/scaling_fork_hashes.csv";

/// Runs the state-hash gate when its artifact exists. `true` = pass
/// (including "artifact absent": the fork sweep did not run).
fn hash_gate_passes() -> bool {
    if !std::path::Path::new(HASHES).exists() {
        return true;
    }
    match ebs_bench::experiments::scaling_gate::hash_gate(HASHES) {
        Ok((cells, mismatched)) if mismatched.is_empty() => {
            println!("state-hash gate: {cells} fork cells, all hashes identical");
            true
        }
        Ok((cells, mismatched)) => {
            println!(
                "state-hash gate: {}/{cells} fork cells DIVERGED: {}",
                mismatched.len(),
                mismatched.join(", ")
            );
            false
        }
        Err(message) => {
            eprintln!("state-hash gate error: {message}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = Cli {
        switches: &[],
        valued: &[],
        positional: &["strided.csv", "fixed.csv"],
    }
    .args();
    let paths = args.positional();
    let strided = paths.first().map_or("results/scaling.csv", String::as_str);
    let fixed = paths
        .get(1)
        .map_or("results/scaling_fixed.csv", String::as_str);
    match ebs_bench::experiments::scaling_gate::run(strided, fixed) {
        Ok(result) => {
            print!("{result}");
            if result.passed() && hash_gate_passes() {
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
