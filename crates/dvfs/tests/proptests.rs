//! Property-based tests: governor invariants over arbitrary tables,
//! domain states, and observations.

use ebs_dvfs::{
    Fixed, FrequencyDomain, Governor, GovernorInput, GovernorKind, OnDemand, PState, PStateTable,
    ThermalAware,
};
use ebs_units::{Hertz, SimDuration, Volts, Watts};
use proptest::prelude::*;

/// A strategy for valid P-state tables: strictly decreasing
/// frequencies, non-increasing voltages, 1..=8 states.
fn table_strategy() -> impl Strategy<Value = PStateTable> {
    (
        prop::collection::vec((0.02f64..0.12, 0.0f64..0.08), 0..7),
        1.0f64..3.5,
        0.9f64..1.6,
    )
        .prop_map(|(steps, top_ghz, top_volts)| {
            let mut states = vec![PState::new(Hertz::from_ghz(top_ghz), Volts(top_volts))];
            let (mut f, mut v) = (top_ghz, top_volts);
            for (df, dv) in steps {
                f -= df;
                v -= dv;
                states.push(PState::new(Hertz::from_ghz(f), Volts(v)));
            }
            PStateTable::new(states)
        })
}

fn input_strategy() -> impl Strategy<Value = GovernorInput> {
    (5.0f64..120.0, 10.0f64..80.0, 1.0f64..20.0, 0.0f64..=1.0).prop_map(
        |(thermal, budget, idle, utilization)| GovernorInput {
            thermal_power: Watts(thermal),
            budget: Watts(budget),
            idle_floor: Watts(idle),
            utilization,
        },
    )
}

fn governor_strategy() -> impl Strategy<Value = GovernorKind> {
    prop_oneof![
        (0usize..10).prop_map(GovernorKind::Fixed),
        Just(GovernorKind::OnDemand),
        Just(GovernorKind::ThermalAware),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every governor, on every table, from every domain state,
    /// returns a P-state index within the table bounds.
    #[test]
    fn governors_stay_within_table_bounds(
        table in table_strategy(),
        kind in governor_strategy(),
        start in 0usize..8,
        inputs in prop::collection::vec(input_strategy(), 1..20),
    ) {
        let mut domain = FrequencyDomain::new(table);
        domain.set_state(start.min(domain.table().slowest_index()));
        let governor = kind.build();
        for input in inputs {
            let next = governor.decide(&input, &domain);
            prop_assert!(
                next < domain.table().len(),
                "{} returned {next} for a {}-state table",
                governor.name(),
                domain.table().len()
            );
            domain.set_state(next);
            domain.advance(SimDuration::from_millis(10));
        }
    }

    /// ThermalAware is monotone in thermal power: more heat never
    /// selects a faster clock (all other inputs and the domain state
    /// held fixed).
    #[test]
    fn thermal_aware_is_monotone_in_thermal_power(
        table in table_strategy(),
        state in 0usize..8,
        budget in 20.0f64..70.0,
        idle in 1.0f64..15.0,
        a in 0.0f64..120.0,
        b in 0.0f64..120.0,
    ) {
        let mut domain = FrequencyDomain::new(table);
        domain.set_state(state.min(domain.table().slowest_index()));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mk = |thermal: f64| GovernorInput {
            thermal_power: Watts(thermal),
            budget: Watts(budget),
            idle_floor: Watts(idle),
            utilization: 1.0,
        };
        let governor = ThermalAware::default();
        let cool = governor.decide(&mk(lo), &domain);
        let warm = governor.decide(&mk(hi), &domain);
        let f_cool = domain.table().get(cool).frequency;
        let f_warm = domain.table().get(warm).frequency;
        prop_assert!(
            f_warm <= f_cool,
            "thermal power {lo} -> {f_cool:?} but {hi} -> {f_warm:?}"
        );
    }

    /// ThermalAware's choice always projects within the engagement
    /// target, or is the slowest state when nothing fits.
    #[test]
    fn thermal_aware_projection_fits_the_target(
        table in table_strategy(),
        state in 0usize..8,
        input in input_strategy(),
    ) {
        let mut domain = FrequencyDomain::new(table);
        domain.set_state(state.min(domain.table().slowest_index()));
        let governor = ThermalAware::default();
        let next = governor.decide(&input, &domain);
        let nominal_power = input.thermal_power.0 / domain.power_factor();
        let projected = nominal_power * domain.table().power_factor(next);
        let target = input.budget.0 * 0.95;
        prop_assert!(
            projected <= target + 1e-9 || next == domain.table().slowest_index(),
            "state {next} projects {projected:.2} W against target {target:.2} W"
        );
    }

    /// OnDemand always picks the slowest state that still serves the
    /// observed load, from any starting state — no trapping.
    #[test]
    fn ondemand_serves_the_load(
        table in table_strategy(),
        start in 0usize..8,
        utilizations in prop::collection::vec(0.0f64..=1.0, 1..30),
    ) {
        let mut domain = FrequencyDomain::new(table);
        domain.set_state(start.min(domain.table().slowest_index()));
        let governor = OnDemand::default();
        for u in utilizations {
            let input = GovernorInput {
                thermal_power: Watts(30.0),
                budget: Watts(60.0),
                idle_floor: Watts(13.6),
                utilization: u,
            };
            let next = governor.decide(&input, &domain);
            prop_assert!(next < domain.table().len());
            // Fast enough for the load...
            let required = (u / 0.8).min(1.0);
            prop_assert!(
                domain.table().speed_factor(next) + 1e-12 >= required,
                "state {next} too slow for utilization {u}"
            );
            // ...and the slowest such state (any slower one would not
            // serve it).
            if next < domain.table().slowest_index() {
                prop_assert!(domain.table().speed_factor(next + 1) < required);
            }
            domain.set_state(next);
        }
    }

    /// Fixed never leaves its (clamped) state.
    #[test]
    fn fixed_is_fixed(
        table in table_strategy(),
        pin in 0usize..12,
        inputs in prop::collection::vec(input_strategy(), 1..10),
    ) {
        let domain = FrequencyDomain::new(table);
        let governor = Fixed(pin);
        let expected = pin.min(domain.table().slowest_index());
        for input in inputs {
            prop_assert_eq!(governor.decide(&input, &domain), expected);
        }
    }

    /// Residency bookkeeping: per-state times always sum to the
    /// observed total and fractions to one.
    #[test]
    fn residency_sums_to_observed(
        table in table_strategy(),
        steps in prop::collection::vec((0usize..8, 1u64..500), 1..40),
    ) {
        let mut domain = FrequencyDomain::new(table);
        let mut total = SimDuration::ZERO;
        for (state, ms) in steps {
            domain.set_state(state.min(domain.table().slowest_index()));
            let dt = SimDuration::from_millis(ms);
            domain.advance(dt);
            total += dt;
        }
        prop_assert_eq!(domain.observed(), total);
        let residency = domain.residency();
        let sum: SimDuration = residency.iter().map(|r| r.time).sum();
        prop_assert_eq!(sum, total);
        let fractions: f64 = residency.iter().map(|r| r.fraction).sum();
        prop_assert!((fractions - 1.0).abs() < 1e-9);
    }
}
