//! Superposition of noise envelopes onto victim transitions and the
//! resulting **delay noise** measurement.
//!
//! The linear noise framework (paper §2) computes worst-case delay noise by
//! superimposing the combined noise envelope with the latest victim
//! transition and observing the shift of the 50 %-Vdd crossing. For a
//! rising victim the worst-direction noise pulls the node *down*, so the
//! noisy waveform is `transition(t) - envelope(t)`; for a falling victim it
//! pushes the node *up* and the envelope is added. In both cases the delay
//! noise is the rightward shift of the final 50 % crossing, floored at
//! zero (noise can never help the worst case in this bounding framework).

use crate::pwl::{segment_value, upward_crossing, PointSink, SegmentCursor};
use crate::{Edge, Envelope, Pwl, Transition, EPS};

/// Margin under 50 % Vdd below which an envelope value counts as
/// released ([`Envelope::release`]): a saturated victim carrying noise
/// below `0.5 - GUARD` sits strictly on its settled side, however the
/// value was rounded on the way.
pub const GUARD: f64 = 1e-6;

/// The noisy victim waveform: the transition with the envelope superimposed
/// in the delay-increasing direction.
///
/// # Example
///
/// ```
/// use dna_waveform::{superposition, Transition, Edge, Envelope, NoisePulse};
///
/// let victim = Transition::new(0.0, 10.0, Edge::Rising);
/// let env = Envelope::from_pulse(&NoisePulse::symmetric(4.0, 0.3, 4.0));
/// let noisy = superposition::noisy_waveform(&victim, &env);
/// // The envelope peaks at t = 6 where the clean ramp reads 0.6.
/// assert!((noisy.eval(6.0) - 0.3).abs() < 1e-9);
/// ```
#[must_use]
pub fn noisy_waveform(victim: &Transition, envelope: &Envelope) -> Pwl {
    let clean = victim.to_pwl();
    match victim.edge() {
        Edge::Rising => &clean - envelope.as_pwl(),
        Edge::Falling => &clean + envelope.as_pwl(),
    }
}

/// The 50 %-Vdd crossing time of the noisy victim waveform.
///
/// This is the *latest* 50 % crossing: a large noise bump can push the
/// waveform back across 50 % after it first switched, and static analysis
/// must take the final crossing (paper Fig. 3).
///
/// Returns the noiseless `t50` when the envelope cannot produce a later
/// crossing.
#[must_use]
pub fn noisy_t50(victim: &Transition, envelope: &Envelope) -> f64 {
    if envelope.is_zero() {
        return victim.t50();
    }
    floored_t50(victim, final_crossing(victim, envelope))
}

/// The final 50 %-Vdd crossing of the noisy victim waveform, before
/// [`noisy_t50`] floors it at the noiseless `t50`: bit for bit
/// [`noisy_waveform`] measured with `last_time_at_or_below(0.5)`
/// (rising) or `last_time_at_or_above(0.5)` (falling), `±INFINITY`
/// included.
///
/// Allocation-free: the crossing is streamed over the clean ramp (held on
/// the stack) and the envelope's breakpoints by a `CrossingTracker` —
/// the same tracker that scores an envelope sum or difference without
/// building it ([`Envelope::sum_delay_noise`],
/// [`Envelope::saturating_sub_delay_noise`]). The stream stops as soon
/// as the crossing is decided, past the ramp's end and the envelope's
/// [`release`](Envelope::release) (the tail cut).
#[must_use]
pub fn final_crossing(victim: &Transition, envelope: &Envelope) -> f64 {
    let (_, crossing) = track(victim, envelope.release(), |tracker| {
        for &(t, v) in envelope.as_pwl().points() {
            tracker.push_point(t, v);
            if tracker.done() {
                break;
            }
        }
    });
    crossing
}

/// Delay noise of the envelope whose breakpoints `feed` streams into the
/// tracker it is handed: bit for bit [`delay_noise`] of that envelope once
/// built, zero-envelope rule included, but no point is stored. Every
/// breakpoint `feed` streams at or after `release` must be below
/// `0.5 - GUARD` (plus EPS); `feed` may stop once the tracker is done.
pub(crate) fn streamed_delay_noise(
    victim: &Transition,
    release: f64,
    feed: impl FnOnce(&mut CrossingTracker<'_>),
) -> f64 {
    let (peak, crossing) = track(victim, release, feed);
    // `Envelope::is_zero` of the streamed curve.
    let t50 = if peak.max(0.0) <= EPS { victim.t50() } else { floored_t50(victim, crossing) };
    (t50 - victim.t50()).max(0.0)
}

/// Runs `feed` against a tracker for `victim`'s ramp and edge, cut at the
/// later of the ramp's end and the streamed envelope's `release`: the
/// envelope's raw peak (as far as it was read) and the final crossing.
fn track(
    victim: &Transition,
    release: f64,
    feed: impl FnOnce(&mut CrossingTracker<'_>),
) -> (f64, f64) {
    let (ramp, n) = victim.ramp_points();
    let mut tracker = CrossingTracker::new(&ramp[..n], victim.edge(), victim.end().max(release));
    feed(&mut tracker);
    tracker.finish()
}

/// `crossing` floored at the noiseless `t50`; a crossing at `±INFINITY`
/// (the waveform never settles, or the envelope never disturbs it) is the
/// noiseless `t50` itself.
fn floored_t50(victim: &Transition, crossing: f64) -> f64 {
    if crossing.is_finite() {
        crossing.max(victim.t50())
    } else {
        victim.t50()
    }
}

/// Point sink measuring where the noisy victim waveform last sits at or
/// below 50 % Vdd while the envelope's breakpoints stream in.
///
/// The noisy waveform is sampled at the merged, EPS-deduplicated
/// breakpoint times of the clean ramp (at most 2) and the envelope, as
/// the curve `+`/`-` operators sample it: `c - e` at level 0.5 for a
/// rising victim, `-(c + e)` at −0.5 for a falling one (bit for bit the
/// `negated()` of `c + e`). The envelope's value at a merged time equal
/// to a breakpoint needs the breakpoint after it, so that one time is
/// held until the next breakpoint or the end of the stream. The tracker
/// keeps the previous sample and the last segment whose left value is at
/// or below the level — the one a right-to-left scan of the built curve
/// stops at — and the envelope's raw peak, for the zero-envelope rule.
///
/// **Tail cut.** The tracker is `done` — its stream may stop — once the
/// breakpoint just pushed is at or after `cut`, the last sample lies
/// strictly on the settled side of the level, and the raw peak is above
/// EPS. `cut` is at or after the ramp's end, so every later sample reads
/// the clean ramp exactly at its rail (all ramp times are merged by
/// then); and the caller guarantees every envelope breakpoint from `cut`
/// on is below `0.5 - GUARD` (plus EPS). Every later sample — the held
/// time, which is that breakpoint, and any after it — reads the envelope
/// at or after that breakpoint, on segments between such breakpoints or
/// on the constant extension, so it lands strictly on the settled side:
/// after a settled `prev` it can neither open a dip nor leave `prev` at
/// or below the level. The zero-envelope rule is decided once the peak
/// exceeds EPS. So the crossing, and the rule, are final.
pub(crate) struct CrossingTracker<'r> {
    /// Clean ramp breakpoints, and the first one not yet merged.
    ramp: &'r [(f64, f64)],
    next_ramp: usize,
    ramp_at: SegmentCursor<'r>,
    falling: bool,
    level: f64,
    /// Last merged time emitted, from either source (`-INFINITY` before
    /// the first).
    last_time: f64,
    /// The emitted time equal to the latest breakpoint, whose envelope
    /// value waits on the next one.
    held: Option<f64>,
    /// The latest envelope breakpoint.
    env_last: Option<(f64, f64)>,
    /// Raw maximum of the envelope values (`Envelope`'s cached peak).
    peak: f64,
    /// The previous sample; its value starts above every level.
    prev: (f64, f64),
    dip: Option<((f64, f64), (f64, f64))>,
    /// Time from which the ramp is at its rail and every envelope
    /// breakpoint is released.
    cut: f64,
    /// Whether the crossing is decided (the tail cut).
    done: bool,
}

impl<'r> CrossingTracker<'r> {
    fn new(ramp: &'r [(f64, f64)], edge: Edge, cut: f64) -> Self {
        let falling = edge == Edge::Falling;
        Self {
            ramp,
            next_ramp: 0,
            ramp_at: SegmentCursor::new(ramp),
            falling,
            level: if falling { -0.5 } else { 0.5 },
            last_time: f64::NEG_INFINITY,
            held: None,
            env_last: None,
            peak: f64::NEG_INFINITY,
            prev: (f64::NAN, f64::INFINITY),
            dip: None,
            cut,
            done: false,
        }
    }

    /// Whether merged time `t` is emitted: it must lie more than EPS
    /// after the last one.
    fn fresh(&mut self, t: f64) -> bool {
        let fresh = (t - self.last_time).abs() > EPS;
        if fresh {
            self.last_time = t;
        }
        fresh
    }

    /// Samples the noisy waveform at merged time `t`, where the envelope
    /// reads `e`.
    fn sample(&mut self, t: f64, e: f64) {
        let c = self.ramp_at.eval_monotone(t);
        let p = (t, if self.falling { -(c + e) } else { c - e });
        if self.prev.1 <= self.level {
            self.dip = Some((self.prev, p));
        }
        self.prev = p;
    }

    /// Ends the stream: `(raw envelope peak, final crossing)`, the
    /// crossing as `Pwl::last_time_at_or_below` reports it. After a tail
    /// cut the held time is the last breakpoint pushed, whose own value
    /// this reads, as the uncut stream would.
    fn finish(mut self) -> (f64, f64) {
        // Times at or after the last breakpoint read its value (the
        // constant extension on the right).
        let (_, v_last) = self.env_last.expect("an envelope has at least one breakpoint");
        if let Some(h) = self.held.take() {
            self.sample(h, v_last);
        }
        while let Some(&(r, _)) = self.ramp.get(self.next_ramp) {
            self.next_ramp += 1;
            if self.fresh(r) {
                self.sample(r, v_last);
            }
        }
        let crossing = if self.prev.1 <= self.level {
            f64::INFINITY
        } else {
            self.dip.map_or(f64::NEG_INFINITY, |(p0, p1)| upward_crossing(p0, p1, self.level))
        };
        (self.peak, crossing)
    }
}

impl PointSink for CrossingTracker<'_> {
    fn push_point(&mut self, t: f64, v: f64) {
        if v > self.peak {
            self.peak = v;
        }
        // Envelope value at an emitted time before `t`: on the segment
        // ending at (t, v), or the constant extension on the left.
        let env_before = |env_last: Option<(f64, f64)>, s: f64| {
            env_last.map_or(v, |p0| segment_value(p0, (t, v), s))
        };
        if let Some(h) = self.held.take() {
            self.sample(h, env_before(self.env_last, h));
        }
        // Merge: ramp times at or before `t` go first, as in `merge_times`.
        while let Some(&(r, _)) = self.ramp.get(self.next_ramp).filter(|&&(r, _)| r <= t) {
            self.next_ramp += 1;
            if self.fresh(r) {
                if r < t {
                    self.sample(r, env_before(self.env_last, r));
                } else {
                    self.held = Some(r);
                }
            }
        }
        if self.fresh(t) {
            self.held = Some(t);
        }
        self.env_last = Some((t, v));
        self.done |= t >= self.cut && self.prev.1 > self.level && self.peak > EPS;
    }

    fn done(&self) -> bool {
        self.done
    }
}

/// A lower bound on the delay noise of every residual `max(m - a, 0)` of
/// one member envelope `m`, read off `m` alone: the elimination
/// enumeration scores its records in the order of this bound and stops
/// once no unscored record can make the rank cut.
///
/// The profile holds `m`'s noisy victim waveform in the form the crossing
/// tracker reads it (`c - m` against 0.5 for a rising victim, `-(c + m)`
/// against −0.5 for a falling one), sampled at the merged breakpoints of
/// the clean ramp and `m`, with the suffix minima of the samples. For an
/// atom of peak `A`, the residual's waveform lies at most `A` above the
/// member's, so where the member's waveform last sits at or below
/// `level - A - GUARD` the residual's still sits below the level: its
/// final crossing comes no earlier (DESIGN §18.8 has the proof, with the
/// floor, the zero-envelope rule and the infinite crossings).
#[derive(Debug, Clone)]
pub struct CrossingProfile {
    /// The member's noisy waveform samples, in time order.
    samples: Vec<(f64, f64)>,
    /// `suffix_min[i]`: the least sample value at or after `i` — a
    /// non-decreasing list, so a binary search finds the last sample at
    /// or below a level.
    suffix_min: Vec<f64>,
    /// 0.5 or −0.5, the tracker's level for the victim's edge.
    level: f64,
    t50: f64,
    /// Whether the member's tail settles above `level + GUARD` (so every
    /// residual's tail settles above the level) and no sample is NaN.
    settled: bool,
}

impl CrossingProfile {
    /// Builds the profile of `member` on `victim`.
    #[must_use]
    pub fn new(victim: &Transition, member: &Envelope) -> Self {
        let sign = if victim.edge() == Edge::Falling { -1.0 } else { 1.0 };
        let level = 0.5 * sign;
        let samples: Vec<(f64, f64)> =
            noisy_waveform(victim, member).points().iter().map(|&(t, v)| (t, sign * v)).collect();
        let tail = samples.last().map_or(f64::NAN, |p| p.1);
        let mut settled = tail > level + GUARD;
        let mut suffix_min = vec![0.0; samples.len()];
        let mut running = f64::INFINITY;
        for (min, &(_, v)) in suffix_min.iter_mut().zip(&samples).rev() {
            settled &= !v.is_nan();
            running = running.min(v);
            *min = running;
        }
        Self { samples, suffix_min, level, t50: victim.t50(), settled }
    }

    /// A lower bound on `delay_noise(victim, &member.saturating_sub(atom))`
    /// for every non-negative `atom` whose peak is at most `atom_peak`:
    /// the member waveform's final crossing of `level - atom_peak -
    /// GUARD`, minus `t50`, floored at zero. Zero when the member's tail
    /// does not settle above `level + GUARD` (which covers a level
    /// reached only on the last sample or its constant extension), when
    /// no sample reaches the lowered level, and for a NaN `atom_peak`.
    #[must_use]
    pub fn sub_delay_noise_bound(&self, atom_peak: f64) -> f64 {
        if !self.settled {
            return 0.0;
        }
        let level = self.level - atom_peak - GUARD;
        let after = self.suffix_min.partition_point(|&m| m <= level);
        match (after.checked_sub(1), self.samples.get(after)) {
            (Some(last), Some(&next)) => {
                (upward_crossing(self.samples[last], next, level) - self.t50).max(0.0)
            }
            _ => 0.0,
        }
    }
}

/// Worst-case delay noise: the shift of the victim's 50 % crossing caused
/// by the envelope, floored at zero.
///
/// # Example
///
/// ```
/// use dna_waveform::{superposition, Transition, Edge, Envelope, NoisePulse};
///
/// let victim = Transition::new(0.0, 10.0, Edge::Rising);
/// // A pulse centred right on the victim's t50 delays the crossing…
/// let on_time = Envelope::from_pulse(&NoisePulse::symmetric(3.0, 0.3, 4.0));
/// assert!(superposition::delay_noise(&victim, &on_time) > 0.0);
/// // …while a pulse long before the transition does nothing.
/// let early = Envelope::from_pulse(&NoisePulse::symmetric(-100.0, 0.3, 4.0));
/// assert_eq!(superposition::delay_noise(&victim, &early), 0.0);
/// ```
#[must_use]
pub fn delay_noise(victim: &Transition, envelope: &Envelope) -> f64 {
    (noisy_t50(victim, envelope) - victim.t50()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoisePulse, TimeInterval};

    fn victim() -> Transition {
        Transition::new(0.0, 10.0, Edge::Rising)
    }

    #[test]
    fn zero_envelope_no_noise() {
        assert_eq!(delay_noise(&victim(), &Envelope::zero()), 0.0);
        assert_eq!(noisy_t50(&victim(), &Envelope::zero()), 5.0);
    }

    #[test]
    fn pulse_on_crossing_delays() {
        let env = Envelope::from_pulse(&NoisePulse::symmetric(3.0, 0.2, 4.0));
        // Peak 0.2 at t=5 where the clean ramp is exactly 0.5: the noisy
        // waveform reads 0.3 there and recrosses 0.5 later.
        let d = delay_noise(&victim(), &env);
        assert!(d > 0.0, "expected positive delay noise, got {d}");
        // Analytic check: noisy(t) = t/10 - pulse(t). On the pulse's falling
        // edge (t in [5,7]) pulse = 0.2*(7-t)/2, so noisy = 0.5 at
        // t/10 - 0.1*(7-t) = 0.5 -> 0.1t - 0.7 + 0.1t = 0.5 -> t = 6.
        assert!((d - 1.0).abs() < 1e-9, "delay noise {d} != 1.0");
    }

    #[test]
    fn early_and_late_pulses_are_harmless() {
        let early = Envelope::from_pulse(&NoisePulse::symmetric(-50.0, 0.4, 4.0));
        assert_eq!(delay_noise(&victim(), &early), 0.0);
        // A pulse after the ramp saturates cannot pull it below 0.5 when its
        // peak is under 0.5.
        let late = Envelope::from_pulse(&NoisePulse::symmetric(30.0, 0.4, 4.0));
        assert_eq!(delay_noise(&victim(), &late), 0.0);
    }

    #[test]
    fn late_tall_pulse_recrosses() {
        // A pulse with peak > 0.5 after saturation drags the settled node
        // below 50% and produces delay noise (glitch re-crossing).
        let late = Envelope::from_pulse(&NoisePulse::symmetric(30.0, 0.8, 4.0));
        let d = delay_noise(&victim(), &late);
        assert!(d > 20.0, "expected large delay noise, got {d}");
    }

    #[test]
    fn falling_victim_mirrors_rising() {
        let rise = Transition::new(0.0, 10.0, Edge::Rising);
        let fall = Transition::new(0.0, 10.0, Edge::Falling);
        let env = Envelope::from_pulse(&NoisePulse::symmetric(3.0, 0.2, 4.0));
        let dr = delay_noise(&rise, &env);
        let df = delay_noise(&fall, &env);
        assert!((dr - df).abs() < 1e-9, "rise {dr} vs fall {df}");
    }

    #[test]
    fn monotone_in_envelope_scale() {
        let base = Envelope::from_pulse(&NoisePulse::symmetric(2.0, 0.3, 6.0));
        let mut prev = 0.0;
        for i in 1..=6 {
            let env = base.scaled(i as f64 / 6.0);
            let d = delay_noise(&victim(), &env);
            assert!(d + EPS >= prev, "delay noise not monotone in scale");
            prev = d;
        }
    }

    #[test]
    fn theorem_1_waveform_level() {
        // If P encapsulates Q, then P + a produces >= delay noise than Q + a
        // for any extra envelope a (paper Theorem 1).
        let v = victim();
        let p = Envelope::from_window(&NoisePulse::symmetric(0.0, 0.25, 4.0), 0.0, 8.0);
        let q = Envelope::from_window(&NoisePulse::symmetric(0.0, 0.2, 4.0), 2.0, 6.0);
        let iv = TimeInterval::new(-10.0, 40.0);
        assert!(p.encapsulates(&q, iv));
        for shift in [-4.0, 0.0, 3.0, 6.0, 12.0] {
            let a = Envelope::from_pulse(&NoisePulse::symmetric(shift, 0.15, 5.0));
            let dp = delay_noise(&v, &p.sum(&a));
            let dq = delay_noise(&v, &q.sum(&a));
            assert!(dp + EPS >= dq, "Theorem 1 violated: {dp} < {dq} at shift {shift}");
        }
    }

    #[test]
    fn combined_envelope_noise_at_least_individual() {
        let v = victim();
        let a = Envelope::from_pulse(&NoisePulse::symmetric(2.0, 0.2, 5.0));
        let b = Envelope::from_pulse(&NoisePulse::symmetric(4.0, 0.15, 5.0));
        let dc = delay_noise(&v, &a.sum(&b));
        assert!(dc + EPS >= delay_noise(&v, &a));
        assert!(dc + EPS >= delay_noise(&v, &b));
    }

    /// A sink that counts the breakpoints reaching the tracker it wraps.
    struct Counting<'r> {
        tracker: CrossingTracker<'r>,
        points: usize,
    }

    impl PointSink for Counting<'_> {
        fn push_point(&mut self, t: f64, v: f64) {
            self.points += 1;
            self.tracker.push_point(t, v);
        }

        fn done(&self) -> bool {
            self.tracker.done()
        }
    }

    /// Streams `a + b` into a tracker cut at `cut`: the points it read and
    /// the final crossing.
    fn counted_sum(victim: &Transition, a: &Envelope, b: &Envelope, cut: f64) -> (usize, f64) {
        let (ramp, n) = victim.ramp_points();
        let tracker = CrossingTracker::new(&ramp[..n], victim.edge(), cut);
        let mut sink = Counting { tracker, points: 0 };
        a.as_pwl().add_simplified_to(b.as_pwl(), EPS, &mut sink);
        (sink.points, sink.tracker.finish().1)
    }

    #[test]
    fn tail_cut_stops_the_stream_and_keeps_the_crossing() {
        let v = victim();
        // A pulse on the crossing, then a long train of low pulses after
        // the ramp has saturated.
        let head = Envelope::from_pulse(&NoisePulse::symmetric(3.0, 0.2, 4.0));
        let train = Envelope::sum_all((0..20).map(|i| {
            Envelope::from_pulse(&NoisePulse::symmetric(20.0 + 6.0 * f64::from(i), 0.3, 4.0))
        }));
        let all = head.sum(&train).as_pwl().points().len();
        let (uncut, want) = counted_sum(&v, &head, &train, f64::INFINITY);
        assert_eq!(uncut, all, "an uncut stream reads every breakpoint");
        // Neither operand reaches the release level, so the sum is cut
        // at the ramp's end.
        assert_eq!(head.release().max(train.release()), f64::NEG_INFINITY);
        let (read, got) = counted_sum(&v, &head, &train, v.end());
        assert!(read < all / 4, "the cut read {read} of {all} breakpoints");
        assert_eq!(got.to_bits(), want.to_bits());
    }

    /// The last sample must be settled for the cut to decide. Here the
    /// ramp's end is the cut (every breakpoint from there on is released)
    /// but reads a falling segment still above the level; the crossing
    /// lies after it.
    #[test]
    fn unsettled_sample_past_the_cut_does_not_decide() {
        let v = victim();
        let env =
            Envelope::from_curve(&Pwl::new(vec![(0.0, 0.0), (9.0, 0.9), (20.0, 0.0)]).unwrap());
        let (ramp, n) = v.ramp_points();
        let mut tracker = CrossingTracker::new(&ramp[..n], v.edge(), v.end());
        for &(t, e) in env.as_pwl().points() {
            tracker.push_point(t, e);
            if tracker.done() {
                break;
            }
        }
        let want = noisy_waveform(&v, &env).last_time_at_or_below(0.5);
        assert!(want > v.end());
        assert_eq!(tracker.finish().1.to_bits(), want.to_bits());
    }

    #[test]
    fn noisy_waveform_superposes_linearly() {
        let v = victim();
        let env = Envelope::from_pulse(&NoisePulse::symmetric(2.0, 0.3, 5.0));
        let noisy = noisy_waveform(&v, &env);
        for i in 0..=60 {
            let t = i as f64 * 0.25;
            assert!((noisy.eval(t) - (v.eval(t) - env.eval(t))).abs() < 1e-9);
        }
    }
}
