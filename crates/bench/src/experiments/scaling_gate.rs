//! The fixed-vs-strided scaling-sweep regression gate.
//!
//! The equivalence suite bounds strided-vs-fixed drift per metric on
//! synthetic shapes; this gate applies the same tolerances at the
//! *experiment* level: CI runs `exp_scaling --smoke` under both engine
//! cores and the comparator asserts that every cell's headline metrics
//! — arrivals (exact), throughput, energy per instruction, and the
//! p50/p95 sojourn percentiles — agree, failing the build on drift.
//! Anything that changes what either engine core computes now breaks
//! CI at the sweep level, not just in unit-sized scenarios.

use ebs_sim::rel_dev;
use std::fmt;

/// Tolerances mirroring the equivalence suite
/// (`crates/sim/tests/equivalence.rs`): instructions and energy drift
/// under 3 % each there, so their ratio (nJ/instruction) gets the sum
/// of the two; percentiles get the suite's 15 %/25 %.
pub const GIPS_TOL: f64 = 0.03;
pub const NJ_TOL: f64 = 0.06;
pub const P50_TOL: f64 = 0.15;
pub const P95_TOL: f64 = 0.25;
/// Percentile checks need enough completed arrivals to be stable (the
/// equivalence suite gates on sample count the same way).
pub const MIN_COMPLETIONS: u64 = 20;

/// One parsed `scaling.csv` row (the metrics the gate compares).
#[derive(Clone, Debug, PartialEq)]
pub struct GateRow {
    /// Cell key: `topology/curve/policy`.
    pub key: String,
    /// Tasks that arrived (must match exactly across engine cores).
    pub arrivals: u64,
    /// Tasks that completed.
    pub completions: u64,
    /// Instructions per second, in billions.
    pub gips: f64,
    /// True energy per instruction, nanojoules.
    pub nj_per_instruction: f64,
    /// Median sojourn time, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn time, milliseconds.
    pub p95_ms: f64,
}

/// One tolerance violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Cell key.
    pub key: String,
    /// Metric name.
    pub metric: &'static str,
    /// Strided value.
    pub strided: f64,
    /// Fixed-tick value.
    pub fixed: f64,
    /// Observed relative deviation.
    pub deviation: f64,
    /// Allowed relative deviation.
    pub allowed: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} drifted {:.1}% (allowed {:.1}%): strided {} vs fixed {}",
            self.key,
            self.metric,
            self.deviation * 100.0,
            self.allowed * 100.0,
            self.strided,
            self.fixed
        )
    }
}

/// The gate's outcome: per-cell comparisons plus any violations.
#[derive(Clone, Debug)]
pub struct GateResult {
    /// Cells compared.
    pub cells: usize,
    /// Largest relative deviation seen per metric (for the CI log).
    pub max_deviation: Vec<(&'static str, f64)>,
    /// Tolerance violations (empty = gate passes).
    pub violations: Vec<Violation>,
}

impl GateResult {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for GateResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fixed-vs-strided scaling gate: {} cells compared",
            self.cells
        )?;
        for (metric, dev) in &self.max_deviation {
            writeln!(f, "  max |drift| {metric}: {:.2}%", dev * 100.0)?;
        }
        if self.passed() {
            writeln!(f, "  PASS: every metric within the equivalence tolerances")?;
        } else {
            for v in &self.violations {
                writeln!(f, "  FAIL: {v}")?;
            }
        }
        Ok(())
    }
}

/// Parses a `scaling.csv` artifact into gate rows.
///
/// # Errors
///
/// Returns a message naming the offending line for any malformed row.
pub fn parse_csv(csv: &str) -> Result<Vec<GateRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in csv.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 12 {
            return Err(format!(
                "line {}: expected 12 fields, got {}",
                i + 1,
                fields.len()
            ));
        }
        let num = |idx: usize| -> Result<f64, String> {
            fields[idx]
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("line {}: field {}: {e}", i + 1, idx + 1))
        };
        rows.push(GateRow {
            key: format!("{}/{}/{}", fields[0], fields[3], fields[4]),
            arrivals: num(5)? as u64,
            completions: num(6)? as u64,
            gips: num(7)?,
            nj_per_instruction: num(8)?,
            p50_ms: num(10)?,
            p95_ms: num(11)?,
        });
    }
    Ok(rows)
}

/// Compares the strided sweep against the fixed-tick sweep.
///
/// # Errors
///
/// Returns a message when the two artifacts do not cover the same
/// cells (a sweep-matrix mismatch is itself a regression).
pub fn compare(strided: &[GateRow], fixed: &[GateRow]) -> Result<GateResult, String> {
    if strided.len() != fixed.len() {
        return Err(format!(
            "cell count mismatch: strided {} vs fixed {}",
            strided.len(),
            fixed.len()
        ));
    }
    let mut violations = Vec::new();
    let mut max_dev = [
        ("arrivals", 0.0f64),
        ("gips", 0.0),
        ("nj_per_instr", 0.0),
        ("p50_ms", 0.0),
        ("p95_ms", 0.0),
    ];
    for s in strided {
        let f = fixed
            .iter()
            .find(|f| f.key == s.key)
            .ok_or_else(|| format!("cell {} missing from the fixed-tick sweep", s.key))?;
        // The thinned arrival stream is a pure function of seed and
        // clock: any difference at all is a regression.
        if s.arrivals != f.arrivals {
            violations.push(Violation {
                key: s.key.clone(),
                metric: "arrivals",
                strided: s.arrivals as f64,
                fixed: f.arrivals as f64,
                deviation: rel_dev(s.arrivals as f64, f.arrivals as f64),
                allowed: 0.0,
            });
        }
        max_dev[0].1 = max_dev[0]
            .1
            .max(rel_dev(s.arrivals as f64, f.arrivals as f64));
        let mut check = |metric: &'static str, sv: f64, fv: f64, tol: f64, slot: usize| {
            let dev = rel_dev(sv, fv);
            if let Some(m) = max_dev.get_mut(slot) {
                m.1 = m.1.max(dev);
            }
            if dev > tol {
                violations.push(Violation {
                    key: s.key.clone(),
                    metric,
                    strided: sv,
                    fixed: fv,
                    deviation: dev,
                    allowed: tol,
                });
            }
        };
        check("gips", s.gips, f.gips, GIPS_TOL, 1);
        check(
            "nj_per_instr",
            s.nj_per_instruction,
            f.nj_per_instruction,
            NJ_TOL,
            2,
        );
        // Percentiles over thin samples are noisy in both engines; the
        // equivalence suite gates them on sample count the same way.
        if s.completions >= MIN_COMPLETIONS && f.completions >= MIN_COMPLETIONS {
            check("p50_ms", s.p50_ms, f.p50_ms, P50_TOL, 3);
            check("p95_ms", s.p95_ms, f.p95_ms, P95_TOL, 4);
        }
    }
    Ok(GateResult {
        cells: strided.len(),
        max_deviation: max_dev.to_vec(),
        violations,
    })
}

/// Runs the gate over two artifact files.
///
/// # Errors
///
/// Returns a message when an artifact is unreadable, malformed, or
/// covers different cells.
pub fn run(strided_path: &str, fixed_path: &str) -> Result<GateResult, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let strided = parse_csv(&read(strided_path)?)?;
    let fixed = parse_csv(&read(fixed_path)?)?;
    if strided.is_empty() {
        return Err(format!("{strided_path} holds no sweep rows"));
    }
    compare(&strided, &fixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "topology,packages,cpus,curve,policy,arrivals,completions,gips,\
                          nj_per_instr,migrations,p50_ms,p95_ms\n";

    fn row(
        key: (&str, &str, &str),
        arrivals: u64,
        gips: f64,
        nj: f64,
        p50: f64,
        p95: f64,
    ) -> String {
        format!(
            "{},2,8,{},{},{arrivals},{},{gips:.3},{nj:.3},5,{p50:.1},{p95:.1}\n",
            key.0,
            key.1,
            key.2,
            arrivals.saturating_sub(2),
        )
    }

    fn csv(rows: &[String]) -> String {
        let mut out = String::from(HEADER);
        for r in rows {
            out.push_str(r);
        }
        out
    }

    #[test]
    fn identical_sweeps_pass() {
        let a = csv(&[
            row(
                ("dual2", "diurnal", "stock+hlt"),
                40,
                10.0,
                5.0,
                300.0,
                900.0,
            ),
            row(("dual2", "burst", "ea+dvfs"), 44, 11.0, 4.5, 280.0, 950.0),
        ]);
        let rows = parse_csv(&a).unwrap();
        let result = compare(&rows, &rows).unwrap();
        assert!(result.passed(), "{result}");
        assert_eq!(result.cells, 2);
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let strided = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            40,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let fixed = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            40,
            10.2,
            5.1,
            320.0,
            1000.0,
        )]))
        .unwrap();
        let result = compare(&strided, &fixed).unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn arrival_mismatch_fails_exactly() {
        let strided = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            40,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let fixed = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            41,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let result = compare(&strided, &fixed).unwrap();
        assert!(!result.passed());
        assert_eq!(result.violations[0].metric, "arrivals");
    }

    #[test]
    fn throughput_drift_beyond_tolerance_fails() {
        let strided = parse_csv(&csv(&[row(
            ("numa16", "burst", "ea+hlt"),
            80,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let fixed = parse_csv(&csv(&[row(
            ("numa16", "burst", "ea+hlt"),
            80,
            11.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let result = compare(&strided, &fixed).unwrap();
        assert!(!result.passed());
        assert!(result.violations.iter().any(|v| v.metric == "gips"));
        assert!(result.to_string().contains("FAIL"));
    }

    #[test]
    fn thin_samples_skip_percentile_checks() {
        // 10 completions: p50/p95 noise must not fail the gate.
        let strided = parse_csv(&csv(&[row(
            ("dual2", "burst", "stock+dvfs"),
            12,
            10.0,
            5.0,
            100.0,
            200.0,
        )]))
        .unwrap();
        let fixed = parse_csv(&csv(&[row(
            ("dual2", "burst", "stock+dvfs"),
            12,
            10.0,
            5.0,
            400.0,
            900.0,
        )]))
        .unwrap();
        assert!(compare(&strided, &fixed).unwrap().passed());
    }

    #[test]
    fn non_finite_metrics_fail_the_gate() {
        // A NaN metric is itself the regression class the gate exists
        // for; it must never slide through a `NaN > tol` comparison.
        let strided = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            40,
            f64::NAN,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let fixed = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            40,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let result = compare(&strided, &fixed).unwrap();
        assert!(!result.passed());
        assert!(result.violations.iter().any(|v| v.metric == "gips"));
    }

    #[test]
    fn mismatched_matrices_are_an_error() {
        let a = parse_csv(&csv(&[row(
            ("dual2", "diurnal", "stock+hlt"),
            40,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        let b = parse_csv(&csv(&[row(
            ("numa16", "diurnal", "stock+hlt"),
            40,
            10.0,
            5.0,
            300.0,
            900.0,
        )]))
        .unwrap();
        assert!(compare(&a, &b).is_err());
        assert!(compare(&a, &[]).is_err());
    }

    #[test]
    fn malformed_csv_is_an_error() {
        assert!(parse_csv("topology,short\nonly,two\n").is_err());
        let bad = format!("{HEADER}dual2,2,8,diurnal,stock+hlt,x,1,1,1,1,1,1\n");
        assert!(parse_csv(&bad).is_err());
        assert_eq!(parse_csv(HEADER).unwrap().len(), 0);
    }

    #[test]
    fn real_sweep_csv_round_trips() {
        // The gate must accept exactly what `ScalingSweep::to_csv`
        // emits.
        let sweep = crate::experiments::scaling::ScalingSweep {
            rows: vec![crate::experiments::scaling::ScalingRow {
                topology: "dual2",
                packages: 2,
                cpus: 8,
                curve: "diurnal",
                policy: "stock+hlt",
                arrivals: 40,
                completions: 38,
                gips: 9.876,
                nj_per_instruction: 5.432,
                migrations: 7,
                p50_ms: 123.4,
                p95_ms: 567.8,
            }],
            duration: ebs_units::SimDuration::from_secs(6),
            wall_s: 1.0,
        };
        let rows = parse_csv(&sweep.to_csv()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "dual2/diurnal/stock+hlt");
        assert_eq!(rows[0].arrivals, 40);
        assert!((rows[0].gips - 9.876).abs() < 1e-9);
        assert!((rows[0].p95_ms - 567.8).abs() < 0.05);
    }
}
