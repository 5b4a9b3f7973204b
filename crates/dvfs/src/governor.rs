//! Frequency governors: the policies choosing the next P-state.

use crate::domain::FrequencyDomain;
use ebs_units::{SimDuration, Watts};

/// The per-domain observations a governor decides from, assembled by
/// the simulation engine for each frequency domain it owns (one per
/// package under [`crate::DomainScope::PerPackage`], one per core
/// under [`crate::DomainScope::PerCore`]).
#[derive(Clone, Copy, Debug)]
pub struct GovernorInput {
    /// The domain's thermal power — the sum of its hardware threads'
    /// exponential power averages (the same signal the `hlt` throttle
    /// compares against the budget).
    pub thermal_power: Watts,
    /// The domain's power budget (the summed maximum power of its
    /// hardware threads).
    pub budget: Watts,
    /// The domain's power at zero activity (halt power): the floor no
    /// amount of frequency scaling goes below.
    pub idle_floor: Watts,
    /// Fraction of the domain's hardware threads that were busy over
    /// the last interval, in `[0, 1]`.
    pub utilization: f64,
}

/// The re-decision triggers a governor reports alongside a decision:
/// the bands of the observed signals within which its latest answer is
/// guaranteed to stand. An event-driven engine re-runs [`Governor::
/// decide`] only when a signal leaves its band (or a configured hold
/// horizon expires) instead of on a fixed cadence — a package whose
/// utilization and thermal power sit comfortably inside their bands
/// needs no governor wake-ups at all.
///
/// Band semantics: the answer is unchanged while each reported signal
/// stays *strictly inside* its closed band. Exactly on an edge the
/// engine may re-decide spuriously (harmless: the answer is recomputed
/// and the state only changes if it differs) or hold one extra
/// evaluation; both resolve as soon as the signal moves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionHold {
    /// The answer holds while the windowed package utilization stays in
    /// `[lo, hi]`; `None` means utilization cannot change it.
    pub utilization: Option<(f64, f64)>,
    /// The answer holds while the package thermal power stays in
    /// `[lo, hi]`; `None` means thermal power cannot change it.
    pub thermal_power: Option<(Watts, Watts)>,
    /// Minimum spacing to the *next* band-escape re-decision: the
    /// engine suppresses escape triggers for this long after the
    /// decision (deadline-forced decisions are unaffected). Zero — the
    /// default everywhere except [`ThermalAware`]'s descending steps —
    /// re-decides as soon as a signal leaves its band. A governor
    /// whose band edge coincides with the signal's settling point
    /// (e.g. thermal enforcement steering *to* the band edge) uses
    /// this to turn per-tick decision bursts into one decision per
    /// dwell.
    pub min_dwell: SimDuration,
}

impl DecisionHold {
    /// A hold that never expires: no observable signal changes the
    /// governor's answer (e.g. [`Fixed`], or a single-state table).
    pub const fn never() -> Self {
        DecisionHold {
            utilization: None,
            thermal_power: None,
            min_dwell: SimDuration::ZERO,
        }
    }

    /// Whether any drift in `utilization` or `thermal_power` away from
    /// the given values escapes this hold.
    pub fn is_escaped(&self, utilization: f64, thermal_power: Watts) -> bool {
        if let Some((lo, hi)) = self.utilization {
            if utilization < lo || utilization > hi {
                return true;
            }
        }
        if let Some((lo, hi)) = self.thermal_power {
            if thermal_power < lo || thermal_power > hi {
                return true;
            }
        }
        false
    }

    /// Whether an escape observed during the dwell is the
    /// *stale-average artifact* the dwell exists to suppress: the
    /// thermal power sits above the band's upper edge but has not
    /// risen past `armed_power`, the value the decision was made from.
    /// The decision already accounted for that much power — the reading
    /// is the lagging average still settling toward the state just
    /// chosen, not new information. A power that climbs *above* the
    /// armed level (the workload genuinely grew), or any escape on the
    /// utilization band or below the thermal band's lower edge
    /// (recovery), is genuine and must be acted on immediately.
    pub fn stale_descent(&self, thermal_power: Watts, armed_power: Watts) -> bool {
        match self.thermal_power {
            Some((_, hi)) => thermal_power > hi && thermal_power <= armed_power,
            None => false,
        }
    }
}

/// A frequency-selection policy for [`FrequencyDomain`]s.
///
/// A governor is configuration only: [`Governor::decide`] takes
/// `&self`, so one instance can serve every domain of a machine, each
/// decision reading nothing but its input and its domain.
pub trait Governor {
    /// Chooses the P-state index for the next interval. Must return an
    /// index within the domain's table.
    fn decide(&self, input: &GovernorInput, domain: &FrequencyDomain) -> usize;

    /// Reports the conditions under which the answer `chosen`, just
    /// returned by [`Governor::decide`] for `input`, could change.
    /// Called *before* the engine switches the domain to `chosen`;
    /// thermal-power bands must be expressed for the post-switch state
    /// (its power factor is `domain.table().power_factor(chosen)`).
    ///
    /// The default is maximally conservative — zero-width bands around
    /// the observed signals, so any drift re-decides — which is always
    /// correct, merely event-free in name only.
    fn hold(&self, input: &GovernorInput, domain: &FrequencyDomain, chosen: usize) -> DecisionHold {
        let _ = (domain, chosen);
        DecisionHold {
            utilization: Some((input.utilization, input.utilization)),
            thermal_power: Some((input.thermal_power, input.thermal_power)),
            min_dwell: SimDuration::ZERO,
        }
    }

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Pins the domain at one P-state (the paper's fixed-clock baseline,
/// or a fixed low-power mode).
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub usize);

impl Governor for Fixed {
    fn decide(&self, _input: &GovernorInput, domain: &FrequencyDomain) -> usize {
        self.0.min(domain.table().slowest_index())
    }

    /// A pinned clock never re-decides: the answer ignores every input.
    fn hold(
        &self,
        _input: &GovernorInput,
        _domain: &FrequencyDomain,
        _chosen: usize,
    ) -> DecisionHold {
        DecisionHold::never()
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// The classic utilization-driven governor, after Linux's `ondemand`:
/// jump to nominal when the package is busy beyond the up-threshold,
/// otherwise pick the slowest state still fast enough to serve the
/// observed load (`f/f₀ ≥ utilization / up_threshold`).
///
/// Picking proportionally — instead of stepping down and holding —
/// means the governor can ramp back *up* from any state: a package
/// with one busy SMT sibling (utilization 0.5) settles at the state
/// serving half-load, rather than staying trapped wherever an earlier
/// idle period left it.
#[derive(Clone, Copy, Debug)]
pub struct OnDemand {
    /// Utilization at or above which the governor jumps to P0.
    pub up_threshold: f64,
}

impl Default for OnDemand {
    fn default() -> Self {
        OnDemand { up_threshold: 0.8 }
    }
}

impl Governor for OnDemand {
    fn decide(&self, input: &GovernorInput, domain: &FrequencyDomain) -> usize {
        if input.utilization >= self.up_threshold {
            return 0;
        }
        let required = input.utilization / self.up_threshold;
        let table = domain.table();
        // Slowest state still fast enough; P0 (speed factor 1) always
        // qualifies, so the search cannot fail.
        (0..table.len())
            .rev()
            .find(|&i| table.speed_factor(i) >= required)
            .unwrap_or(0)
    }

    /// The answer is a pure function of utilization: state `i` is
    /// chosen exactly while `u / up_threshold` lies in
    /// `(speed_factor(i+1), speed_factor(i)]` (with `u ≥ up_threshold`
    /// collapsing to P0), so the hold band is that interval scaled by
    /// the threshold. Thermal power never enters the decision.
    fn hold(
        &self,
        _input: &GovernorInput,
        domain: &FrequencyDomain,
        chosen: usize,
    ) -> DecisionHold {
        let table = domain.table();
        if table.len() == 1 {
            return DecisionHold::never();
        }
        let hi = if chosen == 0 {
            f64::INFINITY
        } else {
            self.up_threshold * table.speed_factor(chosen)
        };
        let lo = if chosen == table.slowest_index() {
            f64::NEG_INFINITY
        } else {
            self.up_threshold * table.speed_factor(chosen + 1)
        };
        DecisionHold {
            utilization: Some((lo, hi)),
            thermal_power: None,
            min_dwell: SimDuration::ZERO,
        }
    }

    fn name(&self) -> &'static str {
        "ondemand"
    }
}

/// Thermal enforcement by scaling instead of halting.
///
/// Projects what the package's thermal power would become at every
/// P-state and picks the fastest one whose projection stays below
/// `engage · budget`. Counter-visible power — static cycle cost
/// included — scales with `V² · f`, so the projection normalises the
/// observed thermal power back to the nominal state through the
/// current state's power factor and rescales it with each candidate's.
/// (Time spent halted does not scale; ignoring that only makes the
/// projection conservative, since halt power is far below any running
/// power.) Engaging at a margin *below* the budget (default 95 %)
/// means the `hlt` limit is never reached: the clock has already come
/// down by the time the bang-bang controller would have tripped.
#[derive(Clone, Copy, Debug)]
pub struct ThermalAware {
    /// Fraction of the budget the governor steers to, in `(0, 1]`.
    pub engage: f64,
    /// Minimum re-decision spacing while *descending* the ladder.
    ///
    /// The decision input is a lagging average (~15 s time constant),
    /// so right after a downclock the observed power is still the
    /// *old* state's — above the new hold band's upper edge — even
    /// though the instantaneous power already complies. Without a
    /// dwell, the escape trigger re-fires on that stale reading every
    /// engine step, overshooting the ladder to its slowest rungs and
    /// then paying recovery decisions to climb back: an edge-chatter
    /// limit cycle. Spacing descending re-decisions out by a fraction
    /// of the averaging lag gives the average time to reflect the
    /// state just chosen, which removes the overshoot without
    /// delaying genuine enforcement (the instantaneous power is
    /// already at or below target when the dwell starts); ascending
    /// (recovery) decisions stay unthrottled.
    pub min_dwell: SimDuration,
}

impl Default for ThermalAware {
    fn default() -> Self {
        ThermalAware {
            engage: 0.95,
            // ~tau/5 of the default thermal averaging lag: long enough
            // for the average to start reflecting the state just
            // chosen, short enough that genuine load increases are
            // answered well within one thermal time constant.
            min_dwell: SimDuration::from_secs(3),
        }
    }
}

impl Governor for ThermalAware {
    fn decide(&self, input: &GovernorInput, domain: &FrequencyDomain) -> usize {
        let target = input.budget * self.engage;
        if (target - input.idle_floor).0 <= 0.0 {
            // The budget does not even cover halt power; all the
            // governor can do is run as slowly as possible.
            return domain.table().slowest_index();
        }
        // The observed thermal power normalised back to what it would
        // be at nominal frequency and voltage.
        let nominal_power = input.thermal_power.0 / domain.power_factor();
        if nominal_power <= 0.0 {
            return 0;
        }
        // Fastest state whose projected power fits the target.
        domain.table().highest_within(target.0 / nominal_power)
    }

    /// The answer depends on the thermal power alone (budget and idle
    /// floor are run constants). State `i` is chosen exactly while the
    /// *nominal-normalised* power `np = tp / pf(current)` lies in
    /// `(target/pf(i-1), target/pf(i)]` — with the slowest state also
    /// owning the whole overload region above `target/pf(last-1)`.
    /// After the engine switches to `chosen`, the observed power
    /// corresponds to `np · pf(chosen)`, so the band scales by
    /// `pf(chosen)`; its upper edge for any non-slowest state is then
    /// exactly the engagement target.
    fn hold(&self, input: &GovernorInput, domain: &FrequencyDomain, chosen: usize) -> DecisionHold {
        let table = domain.table();
        let target = input.budget * self.engage;
        if (target - input.idle_floor).0 <= 0.0 || table.len() == 1 {
            // Hopeless budgets pin the slowest state for the whole run;
            // single-state tables have nothing to re-decide.
            return DecisionHold::never();
        }
        let pf_new = table.power_factor(chosen);
        let hi = if chosen == table.slowest_index() {
            Watts(f64::INFINITY)
        } else {
            // target / pf(chosen) · pf(chosen) — the engagement target.
            target
        };
        let lo = if chosen == 0 {
            Watts(f64::NEG_INFINITY)
        } else {
            target * (pf_new / table.power_factor(chosen - 1))
        };
        DecisionHold {
            utilization: None,
            thermal_power: Some((lo, hi)),
            // Rate-limit only the descending direction: that is where
            // the band edge coincides with the enforcement target and
            // bursts form. Recovery (speeding back up) stays instant.
            min_dwell: if chosen > domain.current_index() {
                self.min_dwell
            } else {
                SimDuration::ZERO
            },
        }
    }

    fn name(&self) -> &'static str {
        "thermal-aware"
    }
}

/// Serialisable governor selection for simulation configs; builds the
/// boxed policy instance an engine shares across its frequency
/// domains.
#[derive(Clone, Debug, PartialEq)]
pub enum GovernorKind {
    /// [`Fixed`] at the given P-state index.
    Fixed(usize),
    /// [`OnDemand`] with default thresholds.
    OnDemand,
    /// [`ThermalAware`] with the default engagement margin.
    ThermalAware,
}

impl GovernorKind {
    /// Instantiates the governor.
    pub fn build(&self) -> Box<dyn Governor + Send> {
        match *self {
            GovernorKind::Fixed(index) => Box::new(Fixed(index)),
            GovernorKind::OnDemand => Box::new(OnDemand::default()),
            GovernorKind::ThermalAware => Box::new(ThermalAware::default()),
        }
    }

    /// The policy's report name.
    pub fn name(&self) -> &'static str {
        match self {
            GovernorKind::Fixed(_) => "fixed",
            GovernorKind::OnDemand => "ondemand",
            GovernorKind::ThermalAware => "thermal-aware",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::PStateTable;

    fn domain() -> FrequencyDomain {
        FrequencyDomain::new(PStateTable::p4_xeon())
    }

    fn input(thermal: f64) -> GovernorInput {
        GovernorInput {
            thermal_power: Watts(thermal),
            budget: Watts(40.0),
            idle_floor: Watts(13.6),
            utilization: 1.0,
        }
    }

    #[test]
    fn fixed_clamps_to_table() {
        let d = domain();
        assert_eq!(Fixed(2).decide(&input(50.0), &d), 2);
        assert_eq!(Fixed(99).decide(&input(50.0), &d), 5);
    }

    #[test]
    fn ondemand_follows_utilization() {
        let mut d = domain();
        let g = OnDemand::default();
        let at = |utilization: f64| GovernorInput {
            utilization,
            ..input(30.0)
        };
        // Idle drops straight to the slowest state.
        let next = g.decide(&at(0.0), &d);
        assert_eq!(next, 5);
        d.set_state(next);
        // Half-load (one busy SMT sibling) recovers from the slowest
        // state to the one serving 0.5/0.8 of nominal speed — 1.4 GHz
        // (0.636) — instead of staying trapped at 1.2 GHz.
        let next = g.decide(&at(0.5), &d);
        assert_eq!(next, 4);
        d.set_state(next);
        // Busy jumps straight back to nominal.
        assert_eq!(g.decide(&at(1.0), &d), 0);
        assert_eq!(g.decide(&at(0.8), &d), 0);
    }

    #[test]
    fn ondemand_is_monotone_in_utilization() {
        let d = domain();
        let g = OnDemand::default();
        let mut last = d.table().slowest_index();
        for tenths in 0..=10 {
            let next = g.decide(
                &GovernorInput {
                    utilization: tenths as f64 / 10.0,
                    ..input(30.0)
                },
                &d,
            );
            assert!(next <= last, "clock dropped as load grew");
            last = next;
        }
    }

    #[test]
    fn thermal_aware_is_idle_at_nominal_when_cool() {
        let d = domain();
        let g = ThermalAware::default();
        // Thermal power well under the 38 W target: stay at P0.
        assert_eq!(g.decide(&input(30.0), &d), 0);
        // At the idle floor (nothing running): P0.
        assert_eq!(g.decide(&input(13.6), &d), 0);
    }

    #[test]
    fn thermal_aware_scales_down_under_pressure() {
        let d = domain();
        let g = ThermalAware::default();
        // 61 W of thermal power against a 40 W budget: power must
        // shrink to the 38 W target, a factor ~0.62 — P3 (0.59) is the
        // fastest fitting state.
        let idx = g.decide(&input(61.0), &d);
        assert_eq!(idx, 3);
        // And the projection at the chosen state fits the target.
        assert!(61.0 * d.table().power_factor(idx) <= 38.0);
    }

    #[test]
    fn thermal_aware_monotone_in_thermal_power() {
        let d = domain();
        let g = ThermalAware::default();
        let mut last = 0;
        for tenths in 136..800 {
            let idx = g.decide(&input(tenths as f64 / 10.0), &d);
            assert!(
                idx >= last,
                "frequency rose as thermal power grew: {last} -> {idx}"
            );
            last = idx;
        }
        assert_eq!(last, d.table().slowest_index());
    }

    #[test]
    fn thermal_aware_projection_accounts_for_current_state() {
        let mut d = domain();
        let g = ThermalAware::default();
        // Already slowed to P4: 30 W observed there corresponds to
        // ~63 W of nominal-state power, so speeding back up to P0
        // would overshoot; the governor holds a reduced state.
        d.set_state(4);
        let idx = g.decide(&input(30.0), &d);
        assert!(idx > 0, "governor sped up into an overshoot");
        // Near-idle at P4, though, it returns to nominal: 7 W observed
        // projects to ~15 W even at full clock.
        assert_eq!(g.decide(&input(7.0), &d), 0);
    }

    #[test]
    fn thermal_aware_handles_budget_below_idle_floor() {
        let d = domain();
        let g = ThermalAware::default();
        let hopeless = GovernorInput {
            budget: Watts(10.0),
            ..input(30.0)
        };
        assert_eq!(g.decide(&hopeless, &d), d.table().slowest_index());
    }

    #[test]
    fn fixed_hold_never_expires() {
        let d = domain();
        let g = Fixed(2);
        let hold = g.hold(&input(50.0), &d, 2);
        assert_eq!(hold, DecisionHold::never());
        assert!(!hold.is_escaped(0.0, Watts(1e6)));
        assert!(!hold.is_escaped(1.0, Watts(0.0)));
    }

    #[test]
    fn ondemand_hold_band_is_consistent_with_decide() {
        // Safety property of the trigger API: any utilization strictly
        // inside the reported band yields the same decision, and the
        // nearest values outside it yield a different one.
        let d = domain();
        let g = OnDemand::default();
        let at = |u: f64| GovernorInput {
            utilization: u,
            ..input(30.0)
        };
        for tenmils in 0..=1000 {
            let u = tenmils as f64 / 1000.0;
            let chosen = g.decide(&at(u), &d);
            let hold = g.hold(&at(u), &d, chosen);
            let (lo, hi) = hold.utilization.expect("utilization drives ondemand");
            assert!(hold.thermal_power.is_none());
            assert!(u >= lo && u <= hi, "u={u} outside its own band [{lo},{hi}]");
            let eps = 1e-9;
            for probe in [
                (lo + eps).min(hi),
                (hi - eps).max(lo),
                (u + eps).min(hi),
                (u - eps).max(lo),
            ] {
                assert_eq!(
                    g.decide(&at(probe), &d),
                    chosen,
                    "decision changed inside the band: u={u} probe={probe}"
                );
            }
            if lo.is_finite() {
                assert_ne!(
                    g.decide(&at(lo - eps), &d),
                    chosen,
                    "band too wide at lo={lo}"
                );
            }
            if hi.is_finite() && hi + eps <= 1.0 {
                assert_ne!(
                    g.decide(&at(hi + eps), &d),
                    chosen,
                    "band too wide at hi={hi}"
                );
            }
        }
    }

    #[test]
    fn thermal_aware_hold_band_is_consistent_with_decide() {
        // As above, sweeping thermal power: after the engine switches
        // the domain to the chosen state, any thermal power strictly
        // inside the band re-yields the chosen state, and values
        // outside it change the answer.
        let g = ThermalAware::default();
        for tenths in 137..900 {
            let tp = tenths as f64 / 10.0;
            let mut d = domain();
            d.set_state(2); // Decisions normalise via the current state.
            let chosen = g.decide(&input(tp), &d);
            let hold = g.hold(&input(tp), &d, chosen);
            let (lo, hi) = hold
                .thermal_power
                .expect("thermal power drives the governor");
            assert!(hold.utilization.is_none());
            // Move the domain to the chosen state, as the engine does.
            d.set_state(chosen);
            let eps = 1e-6;
            for probe in [lo.0 + eps, hi.0 - eps] {
                if !probe.is_finite() {
                    continue;
                }
                assert_eq!(
                    g.decide(&input(probe), &d),
                    chosen,
                    "decision changed inside the band: tp={tp} probe={probe}"
                );
            }
            if lo.0.is_finite() {
                assert_ne!(
                    g.decide(&input(lo.0 - eps), &d),
                    chosen,
                    "band too wide at lo={lo:?} (tp={tp})"
                );
            }
            if hi.0.is_finite() {
                assert_ne!(
                    g.decide(&input(hi.0 + eps), &d),
                    chosen,
                    "band too wide at hi={hi:?} (tp={tp})"
                );
            }
            // Any non-slowest state re-decides exactly at the
            // engagement target, so enforcement never lags the budget.
            if chosen != d.table().slowest_index() {
                assert_eq!(hi, Watts(40.0) * 0.95);
            }
        }
    }

    #[test]
    fn thermal_aware_dwell_rate_limits_descent_only() {
        let g = ThermalAware::default();
        assert!(g.min_dwell > SimDuration::ZERO);
        // Overload at nominal: the decision descends the ladder, so
        // the hold carries the dwell.
        let mut d = domain();
        let gov = g;
        let chosen = gov.decide(&input(61.0), &d);
        assert!(chosen > 0);
        let hold = gov.hold(&input(61.0), &d, chosen);
        assert_eq!(hold.min_dwell, g.min_dwell);
        // Recovery from a slow state back toward nominal: unthrottled.
        d.set_state(4);
        let chosen = gov.decide(&input(7.0), &d);
        assert_eq!(chosen, 0);
        let hold = gov.hold(&input(7.0), &d, chosen);
        assert_eq!(hold.min_dwell, SimDuration::ZERO);
        // Holding the current state re-arms without a dwell either.
        let d = domain();
        let chosen = gov.decide(&input(30.0), &d);
        assert_eq!(chosen, 0);
        assert_eq!(
            gov.hold(&input(30.0), &d, chosen).min_dwell,
            SimDuration::ZERO
        );
    }

    #[test]
    fn thermal_aware_hold_never_expires_when_hopeless() {
        let d = domain();
        let g = ThermalAware::default();
        let hopeless = GovernorInput {
            budget: Watts(10.0),
            ..input(30.0)
        };
        assert_eq!(
            g.hold(&hopeless, &d, d.table().slowest_index()),
            DecisionHold::never()
        );
    }

    #[test]
    fn single_state_tables_hold_forever() {
        let d = FrequencyDomain::new(PStateTable::nominal_only(
            ebs_units::Hertz::from_ghz(2.2),
            ebs_units::Volts(1.5),
        ));
        assert_eq!(
            OnDemand::default().hold(&input(30.0), &d, 0),
            DecisionHold::never()
        );
        assert_eq!(
            ThermalAware::default().hold(&input(30.0), &d, 0),
            DecisionHold::never()
        );
    }

    #[test]
    fn default_hold_is_zero_width() {
        // A governor that does not implement `hold` re-decides on any
        // signal drift: correct, never stale.
        struct Custom;
        impl Governor for Custom {
            fn decide(&self, _: &GovernorInput, _: &FrequencyDomain) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "custom"
            }
        }
        let d = domain();
        let hold = Custom.hold(&input(30.0), &d, 0);
        assert!(!hold.is_escaped(1.0, Watts(30.0)));
        assert!(hold.is_escaped(1.0 - 1e-12, Watts(30.0)));
        assert!(hold.is_escaped(1.0, Watts(30.0 + 1e-9)));
    }

    #[test]
    fn kind_builds_matching_governor() {
        for (kind, name) in [
            (GovernorKind::Fixed(1), "fixed"),
            (GovernorKind::OnDemand, "ondemand"),
            (GovernorKind::ThermalAware, "thermal-aware"),
        ] {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.build().name(), name);
        }
    }
}
