//! Output checks and the recorded reference they compare against.
//! Every check counts as attempted; each one that fails is named, and
//! the failed share is the run's `failed_frac`.

use crate::workload::{LegSummary, Workload};
use ebs_trace::{parse_json, Json};

/// The seed the recorded reference was taken at.
pub const DEFAULT_SEED: u64 = 42;

/// The reference recorded at [`DEFAULT_SEED`], compiled in.
pub const RECORDED_REFERENCE: &str = include_str!("../reference.json");

/// Attempted checks and the failures among them.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks over checks attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Checks a finished leg's invariants: task conservation, and
    /// finite, positive energy and finite temperatures and outcomes.
    pub fn leg_invariants(&mut self, label: &str, s: &LegSummary) {
        match s.live {
            Some(live) => self.check(
                s.arrivals == 0 || s.arrivals == s.completions + live,
                || {
                    format!(
                        "{label}: arrivals {} != completions {} + live {live}",
                        s.arrivals, s.completions
                    )
                },
            ),
            // A fleet hides its hosts' live tasks: check what it shows.
            None => self.check(
                s.completions <= s.arrivals && s.epoch_arrivals == s.arrivals,
                || {
                    format!(
                        "{label}: completions {} / epoch arrivals {} vs routed {}",
                        s.completions, s.epoch_arrivals, s.arrivals
                    )
                },
            ),
        }
        self.check(s.energy_j.is_finite() && s.energy_j > 0.0, || {
            format!("{label}: energy {} J", s.energy_j)
        });
        self.check(
            s.estimated_energy_j.is_finite() && s.max_temp_c.is_finite(),
            || {
                format!(
                    "{label}: estimated energy {} J, max temperature {} degC",
                    s.estimated_energy_j, s.max_temp_c
                )
            },
        );
        let outcomes = [
            s.gips(),
            s.gips_per_joule(),
            s.throttled,
            s.latency.p50_s,
            s.latency.p99_s,
        ];
        self.check(
            outcomes.iter().all(|x| x.is_finite()) && s.gips() > 0.0,
            || format!("{label}: non-finite or zero outcome in {outcomes:?}"),
        );
    }

    /// Compares each leg of `actual` (taken at [`DEFAULT_SEED`]) with
    /// the recorded reference, within the repo's equivalence
    /// tolerances: arrivals exact, instructions and energy 3 %, sojourn
    /// p50/p95 15 %/25 %, throttle duty 0.03 absolute.
    pub fn against_reference(
        &mut self,
        reference: &str,
        workload: Workload,
        actual: &[LegSummary],
    ) {
        let legs = match reference_legs(reference, workload) {
            Ok(legs) => legs,
            Err(e) => return self.check(false, || format!("reference: {e}")),
        };
        self.check(legs.len() == actual.len(), || {
            format!(
                "reference has {} legs, run has {}",
                legs.len(),
                actual.len()
            )
        });
        for ((label, want), got) in workload.legs().iter().zip(&legs).zip(actual) {
            let got = LegStats::of(got);
            let rel = |a: f64, b: f64| if a == b { 0.0 } else { (a - b).abs() / b.abs() };
            let fields = [
                ("arrivals", got.arrivals, want.arrivals, 0.0, false),
                (
                    "instructions",
                    got.instructions,
                    want.instructions,
                    0.03,
                    false,
                ),
                ("energy_j", got.energy_j, want.energy_j, 0.03, false),
                ("p50_s", got.p50_s, want.p50_s, 0.15, false),
                ("p95_s", got.p95_s, want.p95_s, 0.25, false),
                ("throttled", got.throttled, want.throttled, 0.03, true),
            ];
            for (name, g, w, tol, absolute) in fields {
                let dev = if absolute { (g - w).abs() } else { rel(g, w) };
                self.check(dev <= tol, || {
                    format!(
                        "{label}: {name} {g} vs reference {w} (deviation {dev:.4}, tolerance {tol})"
                    )
                });
            }
        }
    }
}

/// The reference statistics of one leg.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LegStats {
    /// Open-workload arrivals.
    pub arrivals: f64,
    /// Instructions retired.
    pub instructions: f64,
    /// Ground-truth energy, joules.
    pub energy_j: f64,
    /// Median sojourn, seconds.
    pub p50_s: f64,
    /// 95th-percentile sojourn, seconds.
    pub p95_s: f64,
    /// Mean hlt duty.
    pub throttled: f64,
}

impl LegStats {
    const FIELDS: [&'static str; 6] = [
        "arrivals",
        "instructions",
        "energy_j",
        "p50_s",
        "p95_s",
        "throttled",
    ];

    /// The statistics of a finished leg.
    pub fn of(s: &LegSummary) -> LegStats {
        LegStats {
            arrivals: s.arrivals as f64,
            instructions: s.instructions as f64,
            energy_j: s.energy_j,
            p50_s: s.latency.p50_s,
            p95_s: s.latency.p95_s,
            throttled: s.throttled,
        }
    }

    fn values(&self) -> [f64; 6] {
        [
            self.arrivals,
            self.instructions,
            self.energy_j,
            self.p50_s,
            self.p95_s,
            self.throttled,
        ]
    }

    fn to_json(self) -> String {
        let fields: Vec<String> = Self::FIELDS
            .iter()
            .zip(self.values())
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn from_json(v: &Json) -> Result<LegStats, String> {
        let f = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("leg field {k} missing"))
        };
        Ok(LegStats {
            arrivals: f("arrivals")?,
            instructions: f("instructions")?,
            energy_j: f("energy_j")?,
            p50_s: f("p50_s")?,
            p95_s: f("p95_s")?,
            throttled: f("throttled")?,
        })
    }
}

/// The recorded legs of `workload` in a reference document.
pub fn reference_legs(reference: &str, workload: Workload) -> Result<Vec<LegStats>, String> {
    let doc = parse_json(reference)?;
    let seed = doc.get("seed").and_then(Json::as_f64);
    if seed != Some(DEFAULT_SEED as f64) {
        return Err(format!(
            "recorded at seed {seed:?}, expected {DEFAULT_SEED}"
        ));
    }
    doc.get("workloads")
        .and_then(|w| w.get(workload.name()))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no legs recorded for {}", workload.name()))?
        .iter()
        .map(LegStats::from_json)
        .collect()
}

/// Renders a reference document from each workload's leg summaries.
pub fn render_reference(legs: &[(Workload, Vec<LegSummary>)]) -> String {
    let rows: Vec<String> = legs
        .iter()
        .map(|(w, legs)| {
            let legs: Vec<String> = legs
                .iter()
                .map(|s| format!("      {}", LegStats::of(s).to_json()))
                .collect();
            format!("    \"{}\": [\n{}\n    ]", w.name(), legs.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}
