//! Per-frequency-domain DVFS decision state.
//!
//! The engine keeps one [`DomainDecision`] per frequency domain (one
//! per package on homogeneous machines, one per core on hybrid ones).
//! The record owns everything a domain's governor schedule evolves
//! between decisions: the utilization window, the hold bands of the
//! last decision with their dwell, and the optional forced deadline.
//! Its fields are private, so the engine changes that state only
//! through the record's transitions (accrue, due test and arm).
//!
//! Beside it the engine keeps one [`DomainSignals`] per domain: the
//! signals a step reads of the domain, each computed once and kept
//! until what it is computed from changes.

use crate::engine::crossing_time_s;
use ebs_dvfs::{DecisionHold, GovernorInput};
use ebs_store::{StateReader, StateWriter, StoreError};
use ebs_units::{SimDuration, SimTime, Watts};
use std::cell::Cell;

/// Utilization over a governor decision window: busy thread-seconds
/// over the window length, clamped to `[0, 1]`.
///
/// A zero-width window — possible once decisions are event-triggered
/// (a forced decision can coincide with the step that just reset the
/// window) — carries no signal at all, so the *previous* utilization is
/// carried forward instead: dividing would yield `0/0 = NaN`, and
/// `f64::clamp` propagates NaN straight into `GovernorInput`, where it
/// poisons every utilization comparison a governor makes.
fn windowed_utilization(busy_s: f64, window: SimDuration, previous: f64) -> f64 {
    if window.is_zero() {
        return previous;
    }
    (busy_s / window.as_secs_f64()).clamp(0.0, 1.0)
}

/// Time for the windowed utilization (`busy_s` busy thread-seconds
/// accumulated over a `window_s`-second window, the window capped at
/// `cap_s`) to reach `target` while the instantaneous busy fraction
/// holds at `b`; `None` when it never does.
///
/// While the window still grows the average drifts hyperbolically
/// toward `b` — `u(x) = (B + b·x) / (W + x)` — which inverts in closed
/// form. Once capped, the per-step renormalisation of
/// [`DomainDecision::accrue`] is the discretisation of a first-order
/// lag with time constant `cap_s`, so the tail reuses
/// [`crossing_time_s`]. Exact in phase one and a close bound in phase
/// two; the engine re-checks the real signal at every step end, so an
/// estimate that lands short merely costs one more step.
fn utilization_crossing_s(
    busy_s: f64,
    window_s: f64,
    b: f64,
    target: f64,
    cap_s: f64,
) -> Option<f64> {
    if !target.is_finite() || cap_s <= 0.0 {
        return None;
    }
    let u0 = if window_s > 0.0 { busy_s / window_s } else { b };
    if target == u0 {
        return Some(0.0);
    }
    // Monotone drift from u0 toward the asymptote b: a crossing needs
    // the target on that path, strictly before the asymptote.
    if ((b - u0) > 0.0) != ((target - u0) > 0.0) || (target - u0).abs() >= (b - u0).abs() {
        return None;
    }
    if window_s < cap_s {
        let x = ((target * window_s - busy_s) / (b - target)).max(0.0);
        if window_s + x <= cap_s {
            return Some(x);
        }
    }
    let grow = (cap_s - window_s).max(0.0);
    let at_cap = (busy_s + b * grow) / (window_s + grow);
    crossing_time_s(at_cap, b, target, cap_s).map(|t| grow + t)
}

/// A whole-microsecond span from fractional seconds, truncated.
fn micros(s: f64) -> SimDuration {
    SimDuration::from_micros((s * 1e6) as u64)
}

/// The clock and time constants a [`DomainDecision::stride_bound`]
/// prediction reads, shared by every domain of one step.
pub(crate) struct Horizon {
    /// The step's start.
    pub now: SimTime,
    /// The engine tick: an escaped trigger fires at the next step.
    pub tick: SimDuration,
    /// The utilization window cap, [`crate::DvfsSpec::interval`].
    pub window_cap_s: f64,
    /// Time constant of the thermal-power averages.
    pub tau_s: f64,
}

/// The decision state of one frequency domain.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DomainDecision {
    /// The next *forced* decision: the optional `max_hold` fallback
    /// (`None` = triggers only). Fresh records are due at once.
    deadline: Option<SimTime>,
    /// The signal bands within which the last decision stands; `None`
    /// before the first decision, which therefore fires at the first
    /// step.
    hold: Option<DecisionHold>,
    /// Busy thread-fraction · seconds accumulated since the last
    /// decision, so utilization covers the whole window rather than
    /// sampling the decision instant.
    busy: f64,
    /// Wall time accumulated since the last decision, capped at the
    /// decision interval.
    window: SimDuration,
    /// Utilization reported at the last decision, carried into any
    /// decision whose window is zero-width.
    util: f64,
    /// Instant before which *stale-average* escapes are suppressed —
    /// the hold's `min_dwell` rate limit (see
    /// [`DecisionHold::stale_descent`]). Genuine escapes and forced
    /// deadlines are unaffected.
    dwell_until: SimTime,
    /// Domain thermal power the last decision was made from — the
    /// reference [`DecisionHold::stale_descent`] compares against.
    armed_power: Watts,
}

impl Default for DomainDecision {
    fn default() -> Self {
        DomainDecision {
            deadline: Some(SimTime::ZERO),
            hold: None,
            busy: 0.0,
            window: SimDuration::ZERO,
            util: 0.0,
            dwell_until: SimTime::ZERO,
            armed_power: Watts(0.0),
        }
    }
}

impl DomainDecision {
    /// The next forced decision, if one is armed.
    #[inline]
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The windowed utilization a decision taken now would read.
    #[inline]
    pub fn utilization(&self) -> f64 {
        windowed_utilization(self.busy, self.window, self.util)
    }

    /// Accrues one live step of `dt` at instantaneous busy fraction
    /// `busy_fraction` (zero while the package is halted), then caps
    /// the window at `interval`: without decisions to reset it, an
    /// unbounded window would make utilization arbitrarily sluggish,
    /// and the renormalisation keeps it as responsive as a window reset
    /// every `interval`.
    pub fn accrue(&mut self, dt: SimDuration, busy_fraction: f64, interval: SimDuration) {
        self.window += dt;
        self.busy += busy_fraction * dt.as_secs_f64();
        if self.window > interval {
            let scale = interval.ratio(self.window);
            self.busy *= scale;
            self.window = interval;
        }
    }

    /// Whether a decision is due at `now`, with the domain's thermal
    /// power at `power`: the forced deadline passed, no decision was
    /// taken yet, or a signal left its hold band. An escape during the
    /// dwell that is only the post-downclock stale average is
    /// suppressed; forced deadlines never are.
    pub fn is_due(&self, now: SimTime, power: Watts) -> bool {
        if self.deadline.is_some_and(|t| now >= t) {
            return true;
        }
        match &self.hold {
            None => true,
            Some(hold) => {
                hold.is_escaped(self.utilization(), power)
                    && (now >= self.dwell_until || !hold.stale_descent(power, self.armed_power))
            }
        }
    }

    /// Re-arms the record after the governor decided from `input` at
    /// `now` and reported `hold`: the window restarts, the utilization
    /// it read carries into any zero-width window, and the next forced
    /// decision lands `max_hold` later (if any).
    pub fn arm(
        &mut self,
        now: SimTime,
        input: &GovernorInput,
        hold: DecisionHold,
        max_hold: Option<SimDuration>,
    ) {
        self.busy = 0.0;
        self.window = SimDuration::ZERO;
        self.util = input.utilization;
        self.dwell_until = now + hold.min_dwell;
        self.armed_power = input.thermal_power;
        self.hold = Some(hold);
        self.deadline = max_hold.map(|h| now + h);
    }

    /// Bounds the span `dt` of the next step so that a trigger of this
    /// record lands on a step end instead of drifting up to a
    /// whole stride late: the predicted escape time of each hold band
    /// (the forced deadline bounds spans through
    /// [`DomainDecision::deadline`]). `busy_fraction` and `power` are the
    /// domain's instantaneous busy fraction (constant within a span:
    /// dispatches, blocks, wakes and throttle flips all end spans) and
    /// thermal power; `predicted_sample` is the thermal-power sample the
    /// domain will feed its averages this span, computed only when a
    /// thermal crossing needs it. Steady records (signals parked inside
    /// their bands) impose no bound at all.
    pub fn stride_bound(
        &self,
        at: &Horizon,
        mut dt: SimDuration,
        busy_fraction: f64,
        power: Watts,
        predicted_sample: impl FnOnce() -> f64,
    ) -> SimDuration {
        let tick = at.tick;
        // First decision still pending: it fires next step.
        let Some(hold) = &self.hold else {
            return dt.min(tick);
        };
        if let Some((lo, hi)) = hold.utilization {
            let window = self.window.as_secs_f64();
            // Where the windowed utilization will sit at the next step
            // end: already at the asymptote for a just-reset window.
            let u0 = if window > 0.0 {
                self.busy / window
            } else {
                busy_fraction
            };
            if u0 < lo || u0 > hi {
                // Already escaped (e.g. the busy fraction jumped right
                // after a decision): the trigger fires at the next
                // step, at tick granularity.
                dt = dt.min(tick);
            } else {
                for edge in [lo, hi] {
                    if let Some(s) = utilization_crossing_s(
                        self.busy,
                        window,
                        busy_fraction,
                        edge,
                        at.window_cap_s,
                    ) {
                        dt = dt.min(micros(s));
                    }
                }
            }
        }
        if let Some((lo, hi)) = hold.thermal_power {
            let avg = power.0;
            if hold.stale_descent(power, self.armed_power) {
                // Escaped, but suppressed as the post-downclock
                // stale-average artifact: the trigger fires at the
                // dwell expiry — or earlier, if the power climbs past
                // the armed level (the workload genuinely grew).
                let mut wait = self.dwell_until.saturating_since(at.now).max(tick);
                let sample = predicted_sample();
                if let Some(t) = crossing_time_s(avg, sample, self.armed_power.0, at.tau_s) {
                    wait = wait.min(micros(t).max(tick));
                }
                dt = dt.min(wait);
            } else if avg < lo.0 || avg > hi.0 {
                // Already escaped: the trigger fires at the next step,
                // at tick granularity.
                dt = dt.min(tick);
            } else if dt > tick {
                // The same closed-form first-order crossing the
                // throttle-flip bound uses.
                let sample = predicted_sample();
                for edge in [lo.0, hi.0] {
                    if let Some(t) = crossing_time_s(avg, sample, edge, at.tau_s) {
                        dt = dt.min(micros(t));
                    }
                }
            }
        }
        dt
    }
}

/// What a step reads of one frequency domain besides its decision
/// state.
///
/// - The thermal-power sum over the domain's CPUs, in
///   [`crate::DomainMap::cpus`] order, written after every physics
///   step (the only place the averages change), at construction and
///   on restore; and the budget sum over the same list, fixed at
///   construction.
/// - The instantaneous busy fraction and the predicted thermal-power
///   sample, computed at their first read and kept until the engine
///   clears them: a dispatch or an idle transition on one of the
///   domain's CPUs, a phase change of a task running on one, a
///   P-state change, a throttle flip of its package, or a restore.
///   Nothing else changes what they are computed from.
///
/// Engine scratch: never saved in a store image or hashed. The kept
/// values are [`Cell`]s because the stride prediction reads (and so
/// first computes) them through a shared borrow.
#[derive(Clone, Debug, Default)]
pub(crate) struct DomainSignals {
    /// Thermal-power sum over the domain's CPUs.
    pub thermal: Watts,
    /// Budget sum over the domain's CPUs.
    pub budget: Watts,
    busy: Cell<Option<f64>>,
    sample: Cell<Option<f64>>,
}

impl DomainSignals {
    /// The signals of a domain whose CPUs' budgets sum to `budget`,
    /// with nothing kept yet.
    pub fn new(budget: Watts) -> Self {
        DomainSignals {
            budget,
            ..DomainSignals::default()
        }
    }

    /// Forgets the kept busy fraction and predicted sample.
    #[inline]
    pub fn clear(&mut self) {
        self.busy.set(None);
        self.sample.set(None);
    }

    /// The domain's busy fraction: the kept one, or `fresh()` kept from
    /// now on.
    ///
    /// # Panics
    ///
    /// In debug builds, unless a kept value is bit for bit `fresh()`.
    #[inline]
    pub fn busy_fraction(&self, fresh: impl FnOnce() -> f64) -> f64 {
        kept_or_fresh(&self.busy, fresh, "busy fraction")
    }

    /// The domain's predicted thermal-power sample: the kept one, or
    /// `fresh()` kept from now on.
    ///
    /// # Panics
    ///
    /// In debug builds, unless a kept value is bit for bit `fresh()`.
    #[inline]
    pub fn predicted_sample(&self, fresh: impl FnOnce() -> f64) -> f64 {
        kept_or_fresh(&self.sample, fresh, "predicted sample")
    }

    /// The kept busy fraction and predicted sample, if any.
    #[cfg(test)]
    pub fn kept(&self) -> (Option<f64>, Option<f64>) {
        (self.busy.get(), self.sample.get())
    }
}

/// The value kept in `slot`, or `fresh()`, which `slot` keeps from now
/// on. A debug build recomputes a kept value and panics unless the two
/// are bit for bit equal.
#[inline]
fn kept_or_fresh(slot: &Cell<Option<f64>>, fresh: impl FnOnce() -> f64, what: &str) -> f64 {
    match slot.get() {
        Some(v) => {
            debug_assert!(
                v.to_bits() == fresh().to_bits(),
                "kept {what} {v} differs from a fresh one"
            );
            v
        }
        None => {
            let v = fresh();
            slot.set(Some(v));
            v
        }
    }
}

impl ebs_store::Snapshot for DomainDecision {
    fn save(&self, w: &mut StateWriter) {
        w.opt(&self.deadline, |w, &t| w.time(t));
        w.opt(&self.hold, |w, hold| {
            w.opt(&hold.utilization, |w, &(lo, hi)| {
                w.f64(lo);
                w.f64(hi);
            });
            w.opt(&hold.thermal_power, |w, &(lo, hi)| {
                w.watts(lo);
                w.watts(hi);
            });
            w.duration(hold.min_dwell);
        });
        w.f64(self.busy);
        w.duration(self.window);
        w.f64(self.util);
        w.time(self.dwell_until);
        w.watts(self.armed_power);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StoreError> {
        self.deadline = r.opt(|r| r.time())?;
        self.hold = r.opt(|r| {
            Ok(DecisionHold {
                utilization: r.opt(|r| Ok((r.f64()?, r.f64()?)))?,
                thermal_power: r.opt(|r| Ok((r.watts()?, r.watts()?)))?,
                min_dwell: r.duration()?,
            })
        })?;
        self.busy = r.f64()?;
        self.window = r.duration()?;
        self.util = r.f64()?;
        self.dwell_until = r.time()?;
        self.armed_power = r.watts()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_store::Snapshot as _;

    const INTERVAL: SimDuration = SimDuration::from_millis(10);

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn input(utilization: f64, thermal_power: f64) -> GovernorInput {
        GovernorInput {
            thermal_power: Watts(thermal_power),
            budget: Watts(40.0),
            idle_floor: Watts(13.6),
            utilization,
        }
    }

    /// A record armed at `now` with `hold` from `input(util, power)`.
    fn armed(now: SimTime, hold: DecisionHold, util: f64, power: f64) -> DomainDecision {
        let mut d = DomainDecision::default();
        d.arm(now, &input(util, power), hold, None);
        d
    }

    fn thermal_band(lo: f64, hi: f64, min_dwell: SimDuration) -> DecisionHold {
        DecisionHold {
            utilization: None,
            thermal_power: Some((Watts(lo), Watts(hi))),
            min_dwell,
        }
    }

    #[test]
    #[allow(clippy::zero_divided_by_zero)]
    fn windowed_utilization_guards_zero_windows() {
        // The bug the guard fixes: the old expression was
        // `(busy / window).clamp(0.0, 1.0)`, and `f64::clamp`
        // propagates the 0/0 NaN straight into `GovernorInput`.
        assert!((0.0_f64 / 0.0).clamp(0.0, 1.0).is_nan());
        let carried = windowed_utilization(0.0, SimDuration::ZERO, 0.42);
        assert_eq!(carried, 0.42);
        // Non-degenerate windows behave exactly as before.
        assert_eq!(
            windowed_utilization(0.005, SimDuration::from_millis(10), 0.42),
            0.5
        );
        assert_eq!(
            windowed_utilization(99.0, SimDuration::from_millis(10), 0.0),
            1.0
        );
    }

    #[test]
    fn utilization_crossing_matches_discrete_accumulation() {
        // The closed form the stride bound uses, against a brute-force
        // replay of the accumulate-and-cap loop.
        let brute = |mut busy: f64, mut window: f64, b: f64, target: f64, cap: f64| -> f64 {
            let dt = 1e-4;
            let mut t = 0.0;
            let start = if window > 0.0 { busy / window } else { b };
            for _ in 0..2_000_000 {
                busy += b * dt;
                window += dt;
                if window > cap {
                    busy *= cap / window;
                    window = cap;
                }
                t += dt;
                let u = busy / window;
                if (start < target && u >= target) || (start > target && u <= target) {
                    return t;
                }
            }
            f64::INFINITY
        };
        for (busy, window, b, target) in [
            (0.002, 0.01, 1.0, 0.5),    // rising within the window
            (0.009, 0.01, 0.0, 0.3),    // falling, crosses after the cap
            (0.0045, 0.005, 0.25, 0.6), // growing window, rising
        ] {
            let cap = 0.01;
            let predicted =
                utilization_crossing_s(busy, window, b, target, cap).expect("crossing exists");
            let simulated = brute(busy, window, b, target, cap);
            assert!(
                (predicted - simulated).abs() <= 0.1 * simulated + 2e-4,
                "crossing mismatch for ({busy},{window},{b},{target}): \
                 predicted {predicted}, simulated {simulated}"
            );
        }
        // No crossing when the asymptote never reaches the target.
        assert_eq!(utilization_crossing_s(0.002, 0.01, 0.4, 0.5, 0.01), None);
        assert_eq!(
            utilization_crossing_s(0.002, 0.01, 0.2, f64::INFINITY, 0.01),
            None
        );
        // Zero-width window: utilization is already at the asymptote.
        assert_eq!(utilization_crossing_s(0.0, 0.0, 0.5, 0.7, 0.01), None);
    }

    #[test]
    fn is_due_on_deadline_first_decision_escape_and_after_dwell() {
        // A fresh record has no hold yet: due at once.
        assert!(DomainDecision::default().is_due(ms(0), Watts(0.0)));
        // Inside the band, a forced deadline still fires.
        let hold = thermal_band(10.0, 38.0, SimDuration::ZERO);
        let mut d = DomainDecision::default();
        d.arm(ms(0), &input(0.5, 30.0), hold, Some(INTERVAL));
        assert!(!d.is_due(ms(5), Watts(30.0)));
        assert!(d.is_due(ms(10), Watts(30.0)));
        // A band escape fires on either edge.
        let d = armed(ms(0), hold, 0.5, 30.0);
        assert!(d.is_due(ms(5), Watts(38.5)));
        assert!(d.is_due(ms(5), Watts(9.5)));
        // A downclock decided from 45 W with a 3 s dwell: a reading above
        // the new band but not above the armed power is the stale average,
        // suppressed during the dwell and acted on after it. Climbing past
        // the armed level is genuine even during the dwell.
        let d = armed(
            ms(0),
            thermal_band(20.0, 38.0, SimDuration::from_secs(3)),
            1.0,
            45.0,
        );
        assert!(!d.is_due(ms(1_000), Watts(42.0)));
        assert!(d.is_due(ms(3_000), Watts(42.0)));
        assert!(d.is_due(ms(1_000), Watts(46.0)));
    }

    #[test]
    fn save_restore_round_trips_live_and_parked_records() {
        let hold = DecisionHold {
            utilization: Some((0.25, 0.75)),
            thermal_power: Some((Watts(12.0), Watts(38.0))),
            min_dwell: SimDuration::from_secs(3),
        };
        let mut live = armed(ms(7), hold, 0.5, 31.25);
        live.accrue(SimDuration::from_millis(3), 0.5, INTERVAL);
        // A fresh record covers the other branch of both options: no
        // hold yet, and a deadline due at once.
        for record in [live, DomainDecision::default()] {
            let mut w = StateWriter::new();
            record.save(&mut w);
            let image = w.finish();
            let mut r = image.open().expect("valid image");
            let mut back = DomainDecision::default();
            back.restore(&mut r).expect("restore");
            assert_eq!(r.remaining(), 0);
            assert_eq!(back, record);
        }
    }
}
