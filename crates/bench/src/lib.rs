//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 6).
//!
//! Each experiment is a function returning a result struct whose
//! `Display` prints the same rows or series the paper reports; the
//! binaries in `src/bin/` are thin wrappers, and `exp_all` runs the
//! complete evaluation. Absolute numbers differ from the paper (the
//! substrate is a simulator, not an xSeries 445), but the shapes —
//! who wins, by roughly what factor, where the crossovers fall — are
//! the reproduction targets; see the README's "Running the paper
//! experiments" section.

pub mod cli;
pub mod experiments;
pub mod fmt;

pub use cli::{Args, Cli};

/// Standard multi-seed set for averaged experiments.
pub const SEEDS: [u64; 5] = [11, 23, 37, 51, 73];

/// The command line of the paper experiments: `--quick` shortens the
/// runs for smoke testing (full runs match paper scale).
pub const QUICK: Cli = Cli::switches(&["--quick"]);

/// The command line of the sweeps: `--smoke` (or its alias `--quick`)
/// runs the reduced matrix CI exercises on every push.
pub const SMOKE: Cli = Cli::switches(&["--smoke", "--quick"]);

/// Whether `args` ask for the reduced run (`--smoke` or `--quick`).
pub fn reduced(args: &Args) -> bool {
    args.flag("--smoke") || args.flag("--quick")
}

/// Writes a results artefact (CSV or text) under `results/`.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// The heterogeneous per-package cooling factors of the simulated
/// testbed, tuned so Table 3's pattern emerges: packages 0 and 3 cool
/// poorly (their hardware threads 0/8 and 3/11 throttle most),
/// package 4 is middling (threads 4/12 throttle a little without
/// energy balancing), and the rest never exceed the 38 degC limit even
/// running bitcnts.
pub fn testbed_cooling_factors() -> Vec<f64> {
    vec![1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66]
}
