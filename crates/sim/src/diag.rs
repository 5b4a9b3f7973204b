//! Trace-diff debugging for the equivalence gates.
//!
//! When two engine configurations that should agree drift apart, an
//! aggregate-report mismatch says *that* they diverged; the event
//! trace says *where*. These helpers re-run both cells with event
//! tracing forced on and name the first divergent event — instant,
//! CPU, kind — which is usually enough to localise the bug to one
//! subsystem.
//!
//! Every cell runs through [`build_engine`], so one code path serves
//! any pair of configurations — two seeds, strided vs partitioned —
//! instead of a per-core dispatch per comparison.
//!
//! Tracing never feeds back into scheduling or the RNG, so the traced
//! re-run reproduces the original runs exactly (per the bit-identity
//! guarantees tested in `tests/trace.rs`).

use crate::api::{build_engine, SimEngine};
use crate::config::SimConfig;
use crate::trace::SimReport;
use ebs_trace::{first_divergence, TraceEvent};
use ebs_units::SimDuration;

/// Byte-level fingerprint of a report for assertion messages (Rust's
/// float Debug is the shortest round-trip representation, so string
/// equality is value bit-equality — except under NaN, which is why
/// the equality check itself is [`SimReport::bit_eq`], not this
/// string). Shared by every bit-identity suite so the gates render
/// mismatches the same way.
pub fn report_fingerprint(r: &SimReport) -> String {
    format!("{r:?}")
}

/// Relative deviation of two metrics, shared by the tolerance suites.
/// Non-finite input yields infinity so a NaN metric can never slip
/// through a `dev < tol` comparison as a pass.
pub fn rel_dev(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() {
        return f64::INFINITY;
    }
    if a == 0.0 && b == 0.0 {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Runs `cfg` for `duration` with event tracing forced on (`setup`
/// spawns the workload) and returns the recorded event stream, from
/// whichever engine core the config selects.
pub fn traced_events(
    cfg: SimConfig,
    duration: SimDuration,
    setup: impl FnOnce(&mut dyn SimEngine),
) -> Vec<TraceEvent> {
    let mut sim = build_engine(cfg.trace_events(true));
    setup(sim.as_mut());
    sim.run_for(duration);
    sim.event_stream().unwrap_or_default()
}

/// The one-line verdict both divergence helpers render: where two
/// traced event streams first disagree, or that they never do.
pub fn divergence_verdict(a: &[TraceEvent], b: &[TraceEvent]) -> String {
    match first_divergence(a, b) {
        None => format!(
            "event streams identical ({} events) — divergence is outside the traced event set",
            a.len()
        ),
        Some(d) => format!("first divergent event — {d}"),
    }
}

/// Replays two configurations over the same workload and summarises
/// where their event streams first disagree — the gate-failure
/// diagnostic. Returns a one-line human-readable verdict.
///
/// `setup` must be deterministic (it runs once per cell); spawning the
/// same mix into both simulations qualifies. Either config may select
/// any engine core — the partitioned engine's merged, id-remapped
/// stream compares directly against a sequential stream.
pub fn stride_divergence(
    left: SimConfig,
    right: SimConfig,
    duration: SimDuration,
    mut setup: impl FnMut(&mut dyn SimEngine),
) -> String {
    let a = traced_events(left, duration, &mut setup);
    let b = traced_events(right, duration, &mut setup);
    divergence_verdict(&a, &b)
}

/// Replays a sequential cell against the partitioned engine built from
/// `parallel_cfg` and names the first divergent event — the diagnostic
/// behind the `parallel(1)` bit-identity gate. Since both cores hang
/// off [`SimEngine`], this is [`stride_divergence`] under a name that
/// says which gate failed.
pub fn parallel_divergence(
    sequential: SimConfig,
    parallel_cfg: SimConfig,
    duration: SimDuration,
    setup: impl FnMut(&mut dyn SimEngine),
) -> String {
    stride_divergence(sequential, parallel_cfg, duration, setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workloads::catalog;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::xseries445().smt(false).seed(seed)
    }

    #[test]
    fn identical_cells_report_no_divergence() {
        let text = stride_divergence(cfg(3), cfg(3), SimDuration::from_millis(300), |sim| {
            sim.spawn_mix(&[catalog::bitcnts()], 2);
        });
        assert!(text.contains("identical"), "{text}");
    }

    #[test]
    fn different_seeds_name_the_first_divergent_event() {
        // `bash` blocks with seed-driven sleeps, so different seeds
        // diverge within the first few slices.
        let text = stride_divergence(cfg(3), cfg(4), SimDuration::from_secs(1), |sim| {
            sim.spawn_mix(&[catalog::bash()], 2);
        });
        assert!(text.contains("first divergent event"), "{text}");
        assert!(text.contains("[t+"), "{text}");
    }

    #[test]
    fn parallel_divergence_drives_both_cores() {
        // The parallel(1) partition is the strided core, so against
        // `strided()` the streams must be identical.
        let text = parallel_divergence(
            cfg(3).strided(),
            cfg(3).parallel(1),
            SimDuration::from_millis(300),
            |sim| {
                sim.spawn_mix(&[catalog::aluadd()], 2);
            },
        );
        assert!(text.contains("identical"), "{text}");
    }
}
