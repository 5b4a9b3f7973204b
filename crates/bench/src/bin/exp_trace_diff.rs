//! Trace-diff debugging tool: replays one scaling-sweep cell twice
//! with event tracing on and prints the first divergent event, or that
//! the traced streams match.
//!
//! Usage:
//!
//! ```text
//! exp_trace_diff [topology/curve/policy] --seed-b N
//! exp_trace_diff [topology/curve/policy] --from-snapshot results/<group>.snap
//! ```
//!
//! With `--seed-b N` the cell is replayed on the strided core under
//! its sweep seed and seed `N` — a demonstration mode whose divergence
//! is expected at the first seed-driven arrival.
//!
//! With `--from-snapshot <path>` the cell is forked twice from the
//! named `exp_scaling --fork` checkpoint and the two forks are
//! diffed — the bisection mode for a fork-sweep divergence. The exit
//! status is 1 unless both forks agree on every event and on the
//! end-state hash; `--seed-b` exits 0 whatever it finds, since its
//! divergence is expected.

use ebs_bench::experiments::trace_diff;
use ebs_bench::Cli;
use std::process::ExitCode;

const CLI: Cli = Cli {
    switches: &[],
    valued: &["--seed-b", "--from-snapshot"],
    positional: &["topology/curve/policy"],
};

fn main() -> ExitCode {
    let args = CLI.args();
    let key = args
        .positional()
        .first()
        .map_or(trace_diff::DEFAULT_KEY, String::as_str);
    let result = match (args.value("--from-snapshot"), args.value("--seed-b")) {
        (Some(path), None) => trace_diff::from_snapshot(path, key),
        (None, Some(seed)) => match seed.parse() {
            Ok(seed) => trace_diff::seeds(key, seed),
            Err(_) => CLI.fail(&format!("--seed-b takes a number, got {seed}")),
        },
        _ => CLI.fail("choose one mode: --seed-b or --from-snapshot"),
    };
    match result {
        Ok(diff) => {
            print!("{diff}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("trace-diff error: {message}");
            ExitCode::FAILURE
        }
    }
}
