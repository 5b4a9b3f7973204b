//! Trace-diff debugging for the gates: replays one scaling-sweep cell
//! with event tracing on and reports the first divergent event.
//!
//! Two modes:
//!
//! - [`seeds`]: the same strided cell under two seeds, a
//!   demonstration mode whose divergence is expected at the first
//!   seed-driven arrival.
//! - [`from_snapshot`]: replays a `results/*.snap` checkpoint
//!   (written by `exp_scaling --fork`) twice under one cell's config
//!   and diffs the forks — the bisection mode for a fork-sweep
//!   divergence, confirming (or localising) fork determinism from the
//!   exact checkpoint CI used.

use crate::experiments::scaling;
use ebs_sim::{stride_divergence, SimEngine, Simulation};
use ebs_store::StateImage;
use ebs_trace::{first_divergence, TraceEvent};
use ebs_units::SimDuration;
use std::fmt;
use std::path::Path;

/// The cell replayed when the binary gets no key argument: a DVFS
/// smoke cell, where the stride machinery has the most moving parts.
pub const DEFAULT_KEY: &str = "xseries445/diurnal/stock+dvfs";

/// The replay horizon: the smoke sweep's own cell duration — long
/// enough for arrivals, migrations, and governor decisions, short
/// enough to run inside an already-failing CI job.
fn horizon() -> SimDuration {
    SimDuration::from_secs(6)
}

/// One trace-diff outcome.
#[derive(Clone, Debug)]
pub struct TraceDiff {
    /// The `topology/curve/policy` cell key replayed.
    pub key: String,
    /// Human description of what was compared.
    pub mode: String,
    /// The verdict line: the first divergent event, or a statement
    /// that the traced streams match.
    pub summary: String,
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace-diff: cell {} ({}, {:.0} s replay)",
            self.key,
            self.mode,
            horizon().as_secs_f64()
        )?;
        writeln!(f, "  {}", self.summary)
    }
}

/// Replays `key` on the strided core under its sweep seed and
/// `seed_b`.
///
/// # Errors
///
/// Returns a message when `key` names no sweep cell.
pub fn seeds(key: &str, seed_b: u64) -> Result<TraceDiff, String> {
    let strided = scaling::cell_config(key)
        .ok_or_else(|| format!("no sweep cell named {key} (expected topology/curve/policy)"))?;
    let summary = stride_divergence(strided.clone(), strided.seed(seed_b), horizon(), |_| {});
    Ok(TraceDiff {
        key: key.to_string(),
        mode: format!("strided, sweep seed vs seed {seed_b}"),
        summary,
    })
}

/// Replays the checkpoint at `snap_path` twice under `key`'s strided
/// cell config with event tracing on and diffs the two forks.
///
/// Identical event streams *and* equal end-state hashes mean the fork
/// is deterministic from that checkpoint — a fork-sweep divergence
/// then points at the straight leg, not the fork machinery. A
/// divergent event localises nondeterminism to its first observable
/// effect; matching streams with differing hashes push the hunt
/// outside the traced event set.
///
/// # Errors
///
/// Returns a message when the snapshot cannot be read, `key` names no
/// sweep cell, or the image does not fit the cell's topology — and
/// the full diff report when the two forks disagree.
pub fn from_snapshot(snap_path: &str, key: &str) -> Result<TraceDiff, String> {
    let image = StateImage::read_file(Path::new(snap_path))
        .map_err(|e| format!("cannot read snapshot {snap_path}: {e}"))?;
    let strided = scaling::cell_config(key)
        .ok_or_else(|| format!("no sweep cell named {key} (expected topology/curve/policy)"))?;
    let cfg = strided.trace_events(true);
    let fork = || -> Result<(Vec<TraceEvent>, u64), String> {
        let mut sim = Simulation::from_snapshot(cfg.clone(), &image)
            .map_err(|e| format!("snapshot {snap_path} does not fit cell {key}: {e}"))?;
        sim.run_for(horizon());
        let events = sim.events().map(|e| e.to_vec()).unwrap_or_default();
        Ok((events, sim.state_hash()))
    };
    let (events_a, hash_a) = fork()?;
    let (events_b, hash_b) = fork()?;
    let report = |summary| TraceDiff {
        key: key.to_string(),
        mode: format!("forked twice from {snap_path}"),
        summary,
    };
    fork_verdict(&events_a, hash_a, &events_b, hash_b)
        .map(report)
        .map_err(|summary| report(summary).to_string())
}

/// The verdict on two forks' event streams and end-state hashes: the
/// agreement line when both match, otherwise the first difference.
fn fork_verdict(
    events_a: &[TraceEvent],
    hash_a: u64,
    events_b: &[TraceEvent],
    hash_b: u64,
) -> Result<String, String> {
    match first_divergence(events_a, events_b) {
        None if hash_a == hash_b => Ok(format!(
            "fork deterministic: event streams identical ({} events), end-state hash {hash_a:016x}",
            events_a.len()
        )),
        None => Err(format!(
            "event streams identical ({} events) but end-state hashes differ \
             ({hash_a:016x} vs {hash_b:016x}) — divergence is outside the traced event set",
            events_a.len()
        )),
        Some(d) => Err(format!("first divergent event — {d}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_replay_names_the_first_divergent_event() {
        // Different seeds shift the first open arrival, so the diff
        // must localise a concrete event, not just report a mismatch.
        let diff = seeds("dual2/diurnal/stock+hlt", 77).expect("known cell");
        assert!(
            diff.summary.contains("first divergent event"),
            "seeds did not diverge: {}",
            diff.summary
        );
        assert!(diff.to_string().contains("dual2/diurnal/stock+hlt"));
    }

    #[test]
    fn snapshot_replay_confirms_fork_determinism() {
        // Warm a small cell up, checkpoint it to disk, and replay the
        // file through the bisection mode: both forks must agree.
        let key = "dual2/burst/stock+hlt";
        let strided = scaling::cell_config(key).expect("known cell");
        let mut warmup = Simulation::new(strided);
        warmup.run_for(SimDuration::from_secs(1));
        let path = std::env::temp_dir().join(format!("ebs-trace-diff-{}.snap", std::process::id()));
        warmup.snapshot().write_file(&path).expect("write snapshot");
        let diff = from_snapshot(path.to_str().expect("utf-8 path"), key).expect("forks agree");
        let _ = std::fs::remove_file(&path);
        assert!(
            diff.summary.contains("fork deterministic"),
            "{}",
            diff.summary
        );
        // Forks that differ in the end state or in any event are
        // refused, which is what makes the binary exit non-zero.
        let mut traced = Simulation::new(scaling::cell_config(key).unwrap().trace_events(true));
        traced.run_for(SimDuration::from_millis(200));
        let events = traced.events().expect("tracing on").to_vec();
        assert!(events.len() > 1, "no events to diverge on");
        assert!(fork_verdict(&events, 7, &events, 7).is_ok());
        let hashes = fork_verdict(&events, 7, &events, 8).unwrap_err();
        assert!(hashes.contains("end-state hashes differ"), "{hashes}");
        let short = &events[..events.len() - 1];
        let event = fork_verdict(&events, 7, short, 7).unwrap_err();
        assert!(event.contains("first divergent event"), "{event}");
    }

    #[test]
    fn snapshot_replay_rejects_missing_files_and_bad_cells() {
        assert!(from_snapshot("/nonexistent/no.snap", "dual2/burst/stock+hlt").is_err());
        let path =
            std::env::temp_dir().join(format!("ebs-trace-diff-bad-{}.snap", std::process::id()));
        let mut sim = Simulation::new(scaling::cell_config("dual2/burst/stock+hlt").unwrap());
        sim.run_for(SimDuration::from_millis(100));
        sim.snapshot().write_file(&path).expect("write snapshot");
        // A 2-package image must not restore into a 16-package cell.
        let err = from_snapshot(path.to_str().unwrap(), "numa16/diurnal/stock+hlt");
        let _ = std::fs::remove_file(&path);
        assert!(err.is_err(), "shape-mismatched snapshot was accepted");
    }

    #[test]
    fn unknown_keys_are_an_error() {
        assert!(seeds("nope/nope/nope", 1).is_err());
    }
}
