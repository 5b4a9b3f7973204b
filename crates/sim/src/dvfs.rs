//! Per-frequency-domain DVFS decision state.
//!
//! The engine keeps one [`DomainDecision`] per frequency domain (one
//! per package on homogeneous machines, one per core on hybrid ones).
//! The record owns everything a domain's governor schedule evolves
//! between decisions: the utilization window, the hold bands of the
//! last decision with their dwell, the optional forced deadline, and
//! the frozen span of a provably parked domain. Its fields are private,
//! so the engine changes that state only through the record's
//! transitions (accrue, due test, arm, park, catch-up and thaw), each
//! guarded by the condition under which the engine may take it.

use crate::engine::crossing_time_s;
use ebs_dvfs::{DecisionHold, GovernorInput};
use ebs_store::{StateReader, StateWriter, StoreError};
use ebs_units::{SimDuration, SimTime, Watts};

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
    /// Set while the domain is provably parked: it accrues exactly zero
    /// busy time, its hold bands contain every future signal value, and
    /// no deadline is armed, so no decision can fire until a scheduling
    /// or throttle event thaws it. Holds the instant the window was
    /// last brought up to date.
    frozen_since: Option<SimTime>,
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
            frozen_since: None,
        }
    }
}

impl DomainDecision {
    /// Whether the domain is frozen out of the per-step accounting.
    #[inline]
    pub fn is_frozen(&self) -> bool {
        self.frozen_since.is_some()
    }

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
        debug_assert!(!self.is_frozen(), "a frozen domain accrues nothing");
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
        debug_assert!(!self.is_frozen(), "a frozen domain cannot decide");
        self.busy = 0.0;
        self.window = SimDuration::ZERO;
        self.util = input.utilization;
        self.dwell_until = now + hold.min_dwell;
        self.armed_power = input.thermal_power;
        self.hold = Some(hold);
        self.deadline = max_hold.map(|h| now + h);
    }

    /// Freezes the record at `now` when no decision can fire until an
    /// event touches the domain: no deadline armed, exactly zero busy
    /// time, nothing executing (`idle`: every CPU idle or the package
    /// halted — either way the busy increment stays zero until a
    /// scheduling or throttle event), and hold bands that contain the
    /// whole future signal trajectory. Utilization is pinned at zero;
    /// the thermal-power average (`thermal().0`) decays monotonically
    /// toward the halt floor (`thermal().1`), so containing both bounds
    /// every intermediate value. The closures run only when needed.
    pub fn try_park(
        &mut self,
        now: SimTime,
        idle: impl FnOnce() -> bool,
        thermal: impl FnOnce() -> (f64, f64),
    ) {
        if self.is_frozen() || self.deadline.is_some() || self.busy != 0.0 {
            return;
        }
        let Some(hold) = &self.hold else { return };
        if !idle() {
            return;
        }
        if let Some((lo, hi)) = hold.utilization {
            if lo > 0.0 || hi < 0.0 {
                return;
            }
        }
        if let Some((lo, hi)) = hold.thermal_power {
            let (avg, floor) = thermal();
            if avg < lo.0 || avg > hi.0 || floor < lo.0 || floor > hi.0 {
                return;
            }
        }
        self.frozen_since = Some(now);
    }

    /// Catches a frozen record's window up to `now` in one move and
    /// keeps it frozen; a live record is left alone. Exact: the busy
    /// time stayed exactly zero over the frozen span (renormalising a
    /// zero is a zero), so the only state the skipped steps would have
    /// changed is the window length, which saturates at `interval`.
    #[inline]
    pub fn catch_up(&mut self, now: SimTime, interval: SimDuration) {
        if let Some(since) = self.frozen_since {
            self.window = (self.window + now.saturating_since(since)).min(interval);
            self.frozen_since = Some(now);
        }
    }

    /// Ends a frozen span at `now` (a no-op on a live record): the
    /// window catches up and per-step accounting resumes.
    #[inline]
    pub fn thaw(&mut self, now: SimTime, interval: SimDuration) {
        self.catch_up(now, interval);
        self.frozen_since = None;
    }

    /// Bounds the span `dt` of the next step so that a trigger of this
    /// live record lands on a step end instead of drifting up to a
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
        w.opt(&self.frozen_since, |w, &t| w.time(t));
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
        self.frozen_since = r.opt(|r| r.time())?;
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
    fn parked_catch_up_equals_stepwise_idle_accrual() {
        // An idle domain parked at 3 ms: one catch-up at 40 ms must land
        // exactly where per-step accrual at zero busy time would, and
        // the window saturates at the interval.
        let hold = DecisionHold {
            utilization: Some((f64::NEG_INFINITY, 0.2)),
            thermal_power: None,
            min_dwell: SimDuration::ZERO,
        };
        let mut stepped = armed(ms(0), hold, 0.0, 13.6);
        for _ in 0..3 {
            stepped.accrue(SimDuration::from_millis(1), 0.0, INTERVAL);
        }
        let mut parked = stepped.clone();
        // An executing domain never parks; an idle one does.
        parked.try_park(ms(3), || false, || unreachable!("no thermal band"));
        assert!(!parked.is_frozen());
        parked.try_park(ms(3), || true, || unreachable!("no thermal band"));
        assert!(parked.is_frozen());
        for _ in 3..40 {
            stepped.accrue(SimDuration::from_millis(1), 0.0, INTERVAL);
        }
        parked.catch_up(ms(40), INTERVAL);
        assert!(parked.is_frozen(), "catching up keeps the record frozen");
        parked.thaw(ms(40), INTERVAL);
        assert_eq!(parked, stepped);
        assert_eq!(parked.window, INTERVAL);
        // Thawing a live record changes nothing.
        parked.thaw(ms(90), INTERVAL);
        assert_eq!(parked, stepped);
        // Busy time, an armed deadline, or a thermal band that excludes
        // the halt floor the average decays toward keep a record live.
        let mut busy = armed(ms(0), hold, 0.0, 13.6);
        busy.accrue(SimDuration::from_millis(1), 0.5, INTERVAL);
        busy.try_park(ms(1), || true, || (0.0, 0.0));
        let mut deadline = DomainDecision::default();
        deadline.arm(ms(0), &input(0.0, 13.6), hold, Some(INTERVAL));
        deadline.try_park(ms(1), || true, || (0.0, 0.0));
        let mut cooling = armed(
            ms(0),
            thermal_band(15.0, 38.0, SimDuration::ZERO),
            0.0,
            20.0,
        );
        cooling.try_park(ms(1), || true, || (20.0, 13.6));
        assert!(!busy.is_frozen() && !deadline.is_frozen() && !cooling.is_frozen());
        cooling.try_park(ms(1), || true, || (20.0, 16.0));
        assert!(cooling.is_frozen());
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
        let mut parked = armed(ms(7), DecisionHold::never(), 0.0, 13.6);
        parked.try_park(ms(8), || true, || unreachable!("no thermal band"));
        assert!(parked.is_frozen());
        for record in [live, parked] {
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
