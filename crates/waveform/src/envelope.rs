//! Trapezoidal noise envelopes (paper Fig. 2 and Fig. 3).

use std::borrow::Borrow;
use std::fmt;

use crate::{superposition, NoisePulse, Pwl, TimeInterval, Transition, EPS};

/// A noise envelope: an upper bound on the noise an aggressor (or a set of
/// aggressors) can couple onto a victim at every instant.
///
/// Per §2 of the paper, the *trapezoidal* envelope of a single aggressor is
/// built by placing the aggressor's noise pulse at its earliest arrival
/// time (EAT) and at its latest arrival time (LAT) and connecting the two
/// peaks ([`Envelope::from_window`]). Envelopes of multiple aggressors are
/// added pointwise to form a *combined* envelope ([`Envelope::sum`],
/// Fig. 3).
///
/// Invariants: values are non-negative everywhere, and the envelope decays
/// to zero at both ends of its breakpoint list (so the constant extension
/// of the underlying [`Pwl`] is zero).
///
/// # Example
///
/// ```
/// use dna_waveform::{NoisePulse, Envelope};
///
/// let pulse = NoisePulse::symmetric(0.0, 0.2, 4.0);
/// let env = Envelope::from_window(&pulse, 10.0, 20.0);
/// // Flat top between the two peak positions.
/// assert_eq!(env.eval(12.0), 0.2);
/// assert_eq!(env.eval(22.0), 0.2);
/// assert_eq!(env.peak(), 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct Envelope {
    curve: Pwl,
    /// Cached raw maximum of the curve ([`Pwl::max_value`]).
    peak: f64,
    /// Cached time at which `peak` is first attained.
    peak_time: f64,
    /// Cached support lower bound: for `t < support_lo` the curve is
    /// guaranteed within [`EPS`] of zero. `f64::INFINITY` for the zero
    /// envelope, `f64::NEG_INFINITY` when the left tail does not decay.
    support_lo: f64,
    /// Cached support upper bound, mirror of `support_lo`.
    support_hi: f64,
    /// Cached release time: from here on every breakpoint is below
    /// [`RELEASE_LEVEL`], so the envelope alone can no longer pull a
    /// saturated victim back to 50 % (the tail cut of
    /// [`superposition::final_crossing`]).
    release: f64,
}

/// The level an envelope breakpoint must stay below to count as
/// released: [`superposition::GUARD`] under 50 % Vdd, a margin far wider
/// than the rounding of any sum, difference or interpolation that reads
/// it.
const RELEASE_LEVEL: f64 = 0.5 - superposition::GUARD;

/// Cached bounds equality ignores the cache: two envelopes are equal when
/// their curves are (honest caches are a pure function of the curve).
impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.curve == other.curve
    }
}

impl Envelope {
    /// Wraps a curve, computing the cached peak/support/release bounds in
    /// one scan.
    fn from_raw(curve: Pwl) -> Self {
        let pts = curve.points();
        let mut peak = f64::NEG_INFINITY;
        let mut peak_time = pts.first().map_or(0.0, |p| p.0);
        let mut lo_idx = None;
        let mut hi_idx = None;
        let mut high_idx = None;
        for (i, &(t, v)) in pts.iter().enumerate() {
            if v > peak {
                peak = v;
                peak_time = t;
            }
            if v.abs() > EPS {
                lo_idx.get_or_insert(i);
                hi_idx = Some(i);
            }
            // A NaN value counts as high: nothing is known about it.
            if v >= RELEASE_LEVEL || v.is_nan() {
                high_idx = Some(i);
            }
        }
        let (support_lo, support_hi) = match (lo_idx, hi_idx) {
            (Some(lo), Some(hi)) => {
                // Outside the breakpoints flanking the outermost
                // above-EPS values the curve (with its constant
                // extensions) stays within EPS of zero — unless the tail
                // value itself is above EPS, where the extension keeps it
                // there forever.
                let l = if lo == 0 { f64::NEG_INFINITY } else { pts[lo - 1].0 };
                let h = if hi == pts.len() - 1 { f64::INFINITY } else { pts[hi + 1].0 };
                (l, h)
            }
            // Identically (near-)zero curve: empty support.
            _ => (f64::INFINITY, f64::NEG_INFINITY),
        };
        // The breakpoint after the last high one; a high last breakpoint
        // stays high forever through the constant extension.
        let release = match high_idx {
            None => f64::NEG_INFINITY,
            Some(h) => pts.get(h + 1).map_or(f64::INFINITY, |p| p.0),
        };
        Self { curve, peak, peak_time, support_lo, support_hi, release }
    }

    /// The identically-zero envelope (no noise).
    #[must_use]
    pub fn zero() -> Self {
        Self::from_raw(Pwl::zero())
    }

    /// Builds the trapezoidal envelope of an aggressor whose switching
    /// instant sweeps the timing window `[eat, lat]`.
    ///
    /// The result is the aggressor's pulse aligned at `eat`, the same pulse
    /// aligned at `lat`, with the two peaks connected — a triangle when
    /// `eat == lat`, a flat-topped trapezoid otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `eat > lat`.
    #[must_use]
    pub fn from_window(pulse: &NoisePulse, eat: f64, lat: f64) -> Self {
        assert!(eat <= lat, "EAT {eat} must not exceed LAT {lat}");
        let early = pulse.shifted(eat);
        let late = pulse.shifted(lat);
        let pts = vec![
            (early.start(), 0.0),
            (early.peak_time(), pulse.peak()),
            (late.peak_time(), pulse.peak()),
            (late.end(), 0.0),
        ];
        Self::from_raw(Pwl::new(pts).expect("window corners are ordered"))
    }

    /// Builds the envelope of an aggressor switching at a single known
    /// instant (a degenerate window).
    #[must_use]
    pub fn from_pulse(pulse: &NoisePulse) -> Self {
        Self::from_window(pulse, 0.0, 0.0)
    }

    /// Wraps an arbitrary non-negative curve as an envelope.
    ///
    /// Negative excursions smaller than [`EPS`] are clamped to zero; the
    /// curve must decay to (near) zero at both ends so the implicit
    /// constant extension is zero. Used for *pseudo input aggressors*
    /// (§3.1), whose shape is the difference of a noisy and a noiseless
    /// victim transition.
    ///
    /// # Panics
    ///
    /// Panics if the curve ends above `tolerance` at either extreme (such a
    /// curve would represent noise that never decays) where `tolerance` is
    /// `1e-6`.
    #[must_use]
    pub fn from_curve(curve: &Pwl) -> Self {
        const TAIL_TOL: f64 = 1e-6;
        let pts = curve.points();
        let first = pts[0].1;
        let last = pts[pts.len() - 1].1;
        assert!(
            first.abs() <= TAIL_TOL && last.abs() <= TAIL_TOL,
            "envelope curve must decay to zero at both ends (got {first} and {last})"
        );
        let mut clamped = curve.clamped_min(0.0);
        // Pin the extremes exactly at zero so extensions are zero.
        let mut p = clamped.points().to_vec();
        if let Some(f) = p.first_mut() {
            f.1 = 0.0;
        }
        if let Some(l) = p.last_mut() {
            l.1 = 0.0;
        }
        clamped = Pwl::new(p).expect("clamped points remain ordered");
        Self::from_raw(clamped)
    }

    /// Wraps an arbitrary curve as an envelope **without any validation**.
    ///
    /// Unlike [`from_curve`](Self::from_curve) this performs no clamping,
    /// tail pinning or decay checks, so the result may violate every
    /// envelope invariant (non-negativity, zero tails). The cached bounds
    /// are still computed honestly from the curve. Intended only for
    /// IR-level tooling — in particular the `dna-lint` verifier's known-bad
    /// test corpus, which exercises the `L023` envelope-malformed rule.
    #[must_use]
    pub fn from_pwl_unchecked(curve: Pwl) -> Self {
        Self::from_raw(curve)
    }

    /// Builds an envelope with a **caller-supplied cached peak, peak time
    /// and support lower bound**, bypassing the one-scan bound computation
    /// every checked constructor performs.
    ///
    /// Nothing validates that those values agree with `curve`, so the
    /// dominance prefilter ([`may_encapsulate`](Self::may_encapsulate)) can
    /// be driven to wrong answers. The support upper bound and the
    /// [`release`](Self::release) time are still derived from the curve:
    /// the fused scorers' tail cut trusts them, and a lie there would
    /// change a delay noise rather than a pruning decision. Intended only
    /// for IR-level tooling — the `dna-lint` rule `L025` (stale envelope
    /// cache) exists to catch exactly such values, and its known-bad test
    /// corpus is built through this constructor.
    #[must_use]
    pub fn with_cached_bounds_unchecked(
        curve: Pwl,
        peak: f64,
        peak_time: f64,
        support_lo: f64,
    ) -> Self {
        Self { peak, peak_time, support_lo, ..Self::from_raw(curve) }
    }

    /// Whether the cached peak/support/release bounds agree with the
    /// underlying curve — always true for envelopes from checked
    /// constructors; only
    /// [`with_cached_bounds_unchecked`](Self::with_cached_bounds_unchecked)
    /// can produce a stale cache. Backs the lint rule `L025`.
    #[must_use]
    pub fn cache_is_consistent(&self) -> bool {
        let honest = Self::from_raw(self.curve.clone());
        let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
        same(self.peak, honest.peak)
            && same(self.peak_time, honest.peak_time)
            && same(self.support_lo, honest.support_lo)
            && same(self.support_hi, honest.support_hi)
            && same(self.release, honest.release)
    }

    /// The underlying piecewise-linear curve.
    #[must_use]
    pub fn as_pwl(&self) -> &Pwl {
        &self.curve
    }

    /// Envelope magnitude at time `t`.
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        self.curve.eval(t)
    }

    /// Maximum magnitude of the envelope. Cached at construction — O(1).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak.max(0.0)
    }

    /// Time at which the cached [`peak`](Self::peak) is first attained.
    #[must_use]
    pub fn peak_time(&self) -> f64 {
        self.peak_time
    }

    /// Cached support lower bound: for `t < support_lo()` the envelope is
    /// within [`EPS`] of zero. `f64::INFINITY` for a zero envelope (empty
    /// support), `f64::NEG_INFINITY` when the left tail never decays
    /// (possible only through unchecked constructors).
    #[must_use]
    pub fn support_lo(&self) -> f64 {
        self.support_lo
    }

    /// Cached support upper bound, mirror of [`support_lo`](Self::support_lo).
    #[must_use]
    pub fn support_hi(&self) -> f64 {
        self.support_hi
    }

    /// Cached release time: every breakpoint at or after it is below
    /// `0.5 -` [`GUARD`](superposition::GUARD). It is the breakpoint after
    /// the last one that is not; `f64::INFINITY` when that one is the
    /// last breakpoint (a tail that never decays below the level),
    /// `f64::NEG_INFINITY` when no breakpoint reaches the level.
    ///
    /// Past both `release()` and the end of a victim ramp, the noisy
    /// waveform cannot come back to 50 %: the delay-noise measurement
    /// stops reading breakpoints there (the tail cut of
    /// [`superposition::final_crossing`]).
    #[must_use]
    pub fn release(&self) -> f64 {
        self.release
    }

    /// Maximum magnitude within `interval`.
    #[must_use]
    pub fn peak_over(&self, interval: TimeInterval) -> f64 {
        self.curve.max_over(interval).max(0.0)
    }

    /// Breakpoint span of the envelope (its support is contained in it).
    #[must_use]
    pub fn span(&self) -> TimeInterval {
        self.curve.span()
    }

    /// Whether the envelope is identically zero (peak below [`EPS`]).
    /// O(1) via the cached peak.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.peak() <= EPS
    }

    /// Pointwise sum of two envelopes (combined envelope, Fig. 3).
    ///
    /// Redundant (collinear within [`EPS`]) breakpoints are pruned so that
    /// long chains of sums — the hot loop of top-k enumeration — do not
    /// accumulate unbounded point counts. Runs as a single fused
    /// merge-add-simplify pass with one output allocation
    /// ([`Pwl::add_simplified`]).
    #[must_use]
    pub fn sum(&self, other: &Envelope) -> Envelope {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        Envelope::from_raw(self.curve.add_simplified(&other.curve, EPS))
    }

    /// [`sum`](Self::sum) writing the result's breakpoints into the
    /// recycled `buf` — the scratch-arena variant of the enumeration hot
    /// loop, bit-identical to the allocating path (which shares its
    /// kernel, [`Pwl::add_simplified_into`]). Returns the buffer unused
    /// when a zero-envelope short-circuit copies one operand instead, so
    /// the caller's arena keeps it.
    #[must_use]
    pub fn sum_into(&self, other: &Envelope, buf: Vec<(f64, f64)>) -> Envelope {
        if self.is_zero() {
            return other.clone_into(buf);
        }
        if other.is_zero() {
            return self.clone_into(buf);
        }
        Envelope::from_raw(self.curve.add_simplified_into(&other.curve, EPS, buf))
    }

    /// Delay noise of [`sum`](Self::sum) on `victim`, without building
    /// the sum: bit for bit `superposition::delay_noise(victim,
    /// &self.sum(other))`. The fused add-simplify pass streams each
    /// breakpoint straight into the crossing tracker of
    /// [`superposition::final_crossing`]; no point is written. This is
    /// how the enumeration scores every admitted candidate before ranking
    /// decides which few to materialize.
    #[must_use]
    pub fn sum_delay_noise(&self, other: &Envelope, victim: &Transition) -> f64 {
        if self.is_zero() {
            return superposition::delay_noise(victim, other);
        }
        if other.is_zero() {
            return superposition::delay_noise(victim, self);
        }
        // Past `a.release` and `b.support_hi`, `a + b` stays under the
        // release level plus EPS — and symmetrically; either time will do.
        let release = self.release.max(other.support_hi).min(other.release.max(self.support_hi));
        superposition::streamed_delay_noise(victim, release, |tracker| {
            self.curve.add_simplified_to(&other.curve, EPS, tracker);
        })
    }

    /// A copy of this envelope whose breakpoints live in the recycled
    /// `buf`. The cached bounds are copied verbatim (not
    /// recomputed), so the result is indistinguishable from
    /// [`Clone::clone`] — bit-identity demands it, since the cached
    /// fields feed the `may_encapsulate` prefilter.
    #[must_use]
    pub fn clone_into(&self, buf: Vec<(f64, f64)>) -> Envelope {
        Envelope {
            curve: self.curve.clone_into(buf),
            peak: self.peak,
            peak_time: self.peak_time,
            support_lo: self.support_lo,
            support_hi: self.support_hi,
            release: self.release,
        }
    }

    /// Consumes the envelope, returning its breakpoint buffer for
    /// recycling through a scratch arena.
    #[must_use]
    pub fn reclaim_points(self) -> Vec<(f64, f64)> {
        self.curve.into_points()
    }

    /// Combined envelope of an arbitrary collection, owned or borrowed —
    /// the iterator is consumed directly, no intermediate collection
    /// needed.
    #[must_use]
    pub fn sum_all<I>(envelopes: I) -> Envelope
    where
        I: IntoIterator,
        I::Item: Borrow<Envelope>,
    {
        envelopes.into_iter().fold(Envelope::zero(), |acc, e| acc.sum(e.borrow()))
    }

    /// `max(self - other, 0)` pointwise.
    ///
    /// Elimination-set analysis (§3.4) subtracts a candidate set's envelope
    /// from the *total* noise envelope before superposition; the residual
    /// can never be negative noise. Runs as a single fused
    /// merge-sub-clamp-simplify pass ([`Pwl::sub_clamped_simplified`]).
    #[must_use]
    pub fn saturating_sub(&self, other: &Envelope) -> Envelope {
        if other.is_zero() {
            return self.clone();
        }
        Envelope::from_raw(self.curve.sub_clamped_simplified(&other.curve, EPS))
    }

    /// [`saturating_sub`](Self::saturating_sub) writing the result's
    /// breakpoints into the recycled `buf`; bit-identical to the
    /// allocating path (shared kernel, cached fields copied verbatim on
    /// the short-circuit).
    #[must_use]
    pub fn saturating_sub_into(&self, other: &Envelope, buf: Vec<(f64, f64)>) -> Envelope {
        if other.is_zero() {
            return self.clone_into(buf);
        }
        Envelope::from_raw(self.curve.sub_clamped_simplified_into(&other.curve, EPS, buf))
    }

    /// Delay noise of [`saturating_sub`](Self::saturating_sub) on
    /// `victim`, without building the difference: bit for bit
    /// `superposition::delay_noise(victim, &self.saturating_sub(other))`,
    /// streamed like [`sum_delay_noise`](Self::sum_delay_noise).
    #[must_use]
    pub fn saturating_sub_delay_noise(&self, other: &Envelope, victim: &Transition) -> f64 {
        if other.is_zero() {
            return superposition::delay_noise(victim, self);
        }
        // `max(self - other, 0) <= self` for a non-negative `other`, so the
        // difference is released no later than `self` is.
        superposition::streamed_delay_noise(victim, self.release, |tracker| {
            self.curve.sub_clamped_simplified_to(&other.curve, EPS, tracker);
        })
    }

    /// The envelope translated by `dt`.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> Envelope {
        Envelope::from_raw(self.curve.shifted(dt))
    }

    /// The envelope with its magnitude scaled by `factor >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Envelope {
        assert!(factor >= 0.0, "envelope scale factor must be non-negative");
        Envelope::from_raw(self.curve.scaled(factor))
    }

    /// The envelope zeroed outside `interval`.
    ///
    /// Delay-noise analysis only cares about an envelope inside the
    /// victim's analysis window (from the start of the victim transition
    /// to the upper-bound noisy crossing): clipping keeps the point count
    /// of repeated envelope algebra proportional to the couplings that can
    /// actually matter. Clipping is *sound* only when `interval` covers
    /// that analysis window — the caller guarantees it.
    #[must_use]
    pub fn clipped(&self, interval: TimeInterval) -> Envelope {
        let span = self.curve.span();
        if span.lo() >= interval.lo() && span.hi() <= interval.hi() {
            return self.clone();
        }
        if !span.overlaps(interval) || self.peak_over(interval) <= EPS {
            return Envelope::zero();
        }
        const RAMP: f64 = 1e-6;
        let mut pts: Vec<(f64, f64)> = Vec::new();
        let v_lo = self.eval(interval.lo());
        if v_lo > 0.0 {
            pts.push((interval.lo() - RAMP, 0.0));
        }
        pts.push((interval.lo(), v_lo));
        for &(t, v) in self.curve.points() {
            if t > interval.lo() && t < interval.hi() {
                pts.push((t, v));
            }
        }
        let v_hi = self.eval(interval.hi());
        pts.push((interval.hi(), v_hi));
        if v_hi > 0.0 {
            pts.push((interval.hi() + RAMP, 0.0));
        }
        Envelope::from_raw(Pwl::new(pts).expect("clipped points stay ordered"))
    }

    /// O(1) necessary condition for `self.encapsulates(other, interval)`,
    /// using only the cached peak/support bounds — the dominance
    /// prefilter. A `false` return is a **proof** that full encapsulation
    /// is impossible; `true` means "plausible, run the PWL comparison".
    ///
    /// Soundness: let `t*` be `other`'s cached peak time and `p` its peak.
    /// When `p > EPS` and `t* ∈ interval`, encapsulation requires
    /// `self(t*) >= p - EPS`, hence `self.peak() >= p - EPS`. And if `t*`
    /// lies outside `self`'s support, `self(t*) <= EPS`, so `p <= 2·EPS`
    /// would be forced. Either bound failing rules encapsulation out.
    #[must_use]
    pub fn may_encapsulate(&self, other: &Envelope, interval: TimeInterval) -> bool {
        let p = other.peak();
        if p <= EPS {
            // Encapsulating a (near-)zero envelope is always plausible.
            return true;
        }
        let t = other.peak_time;
        if !interval.contains(t) {
            // The witness point is outside the interval; no cheap bound.
            return true;
        }
        if self.peak() < p - EPS {
            return false;
        }
        if p > 2.0 * EPS && (t < self.support_lo || t > self.support_hi) {
            return false;
        }
        true
    }

    /// Whether this envelope *encapsulates* `other` over `interval`:
    /// `self(t) >= other(t) - EPS` for all `t` in the interval.
    ///
    /// This is the primitive behind the paper's **dominance** relation
    /// (§3.2): aggressor (set) A dominates B when A's combined envelope
    /// encapsulates B's over the dominance interval. Encapsulation is
    /// reflexive and transitive but only a *partial* order — two envelopes
    /// can be mutually non-encapsulating.
    #[must_use]
    pub fn encapsulates(&self, other: &Envelope, interval: TimeInterval) -> bool {
        self.curve.ge_over(&other.curve, interval, EPS)
    }
}

impl Default for Envelope {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "envelope peak={:.4} span={}", self.peak(), self.span())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse() -> NoisePulse {
        NoisePulse::new(0.0, 2.0, 0.4, 6.0)
    }

    #[test]
    fn window_envelope_is_trapezoid() {
        let e = Envelope::from_window(&pulse(), 10.0, 20.0);
        // Leading edge follows the EAT-aligned pulse.
        assert_eq!(e.eval(10.0), 0.0);
        assert!((e.eval(11.0) - 0.2).abs() < 1e-12);
        // Flat top between peaks at 12 and 22.
        assert!((e.eval(12.0) - 0.4).abs() < 1e-12);
        assert!((e.eval(17.0) - 0.4).abs() < 1e-12);
        assert!((e.eval(22.0) - 0.4).abs() < 1e-12);
        // Trailing edge follows the LAT-aligned pulse, ending at 26.
        assert!((e.eval(24.0) - 0.2).abs() < 1e-12);
        assert_eq!(e.eval(26.0), 0.0);
        assert_eq!(e.eval(30.0), 0.0);
    }

    #[test]
    fn degenerate_window_is_triangle() {
        let e = Envelope::from_window(&pulse(), 5.0, 5.0);
        let p = pulse().shifted(5.0);
        for i in 0..=30 {
            let t = i as f64 * 0.5;
            assert!((e.eval(t) - p.eval(t)).abs() < 1e-9, "mismatch at {t}");
        }
    }

    #[test]
    fn sum_is_pointwise() {
        let a = Envelope::from_window(&pulse(), 0.0, 0.0);
        let b = Envelope::from_window(&pulse(), 1.0, 1.0);
        let s = a.sum(&b);
        for i in 0..=40 {
            let t = i as f64 * 0.25;
            assert!((s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_with_zero_is_identity() {
        let a = Envelope::from_window(&pulse(), 0.0, 4.0);
        assert_eq!(a.sum(&Envelope::zero()), a);
        assert_eq!(Envelope::zero().sum(&a), a);
    }

    #[test]
    fn sum_all_accumulates() {
        let envs: Vec<Envelope> =
            (0..3).map(|i| Envelope::from_window(&pulse(), i as f64, i as f64)).collect();
        let total = Envelope::sum_all(&envs);
        let manual = envs[0].sum(&envs[1]).sum(&envs[2]);
        for i in 0..=40 {
            let t = i as f64 * 0.25;
            assert!((total.eval(t) - manual.eval(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn saturating_sub_never_negative() {
        let big = Envelope::from_window(&pulse(), 0.0, 10.0);
        let small = Envelope::from_window(&pulse(), 2.0, 4.0);
        let d = big.saturating_sub(&small);
        for i in 0..=80 {
            let t = i as f64 * 0.25;
            assert!(d.eval(t) >= 0.0);
        }
        // Subtracting something bigger floors at zero.
        let z = small.saturating_sub(&big.scaled(2.0));
        assert!(z.peak() <= 0.4); // clamped, not negative
        for i in 0..=80 {
            let t = i as f64 * 0.25;
            assert!(z.eval(t) >= 0.0);
        }
    }

    #[test]
    fn encapsulation_partial_order() {
        let iv = TimeInterval::new(-5.0, 40.0);
        let wide = Envelope::from_window(&pulse(), 0.0, 20.0);
        let narrow = Envelope::from_window(&pulse(), 5.0, 10.0);
        assert!(wide.encapsulates(&narrow, iv));
        assert!(!narrow.encapsulates(&wide, iv));
        // Reflexive.
        assert!(wide.encapsulates(&wide, iv));
        // Mutually non-dominated pair: same shape, disjoint supports.
        let left = Envelope::from_window(&pulse(), 0.0, 0.0);
        let right = Envelope::from_window(&pulse(), 100.0, 100.0);
        assert!(!left.encapsulates(&right, TimeInterval::new(-5.0, 120.0)));
        assert!(!right.encapsulates(&left, TimeInterval::new(-5.0, 120.0)));
    }

    #[test]
    fn zero_envelope_properties() {
        let z = Envelope::zero();
        assert!(z.is_zero());
        assert_eq!(z.peak(), 0.0);
        assert_eq!(z.eval(123.0), 0.0);
        assert_eq!(Envelope::default(), z);
    }

    #[test]
    fn from_curve_clamps_and_pins_tails() {
        let p = Pwl::new(vec![(0.0, 0.0), (2.0, -1e-12), (4.0, 0.3), (8.0, 0.0)]).unwrap();
        let e = Envelope::from_curve(&p);
        assert!(e.eval(2.0) >= 0.0);
        assert!((e.peak() - 0.3).abs() < 1e-9);
        assert_eq!(e.eval(100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "decay to zero")]
    fn from_curve_rejects_nonzero_tail() {
        let p = Pwl::new(vec![(0.0, 0.0), (4.0, 0.3)]).unwrap();
        let _ = Envelope::from_curve(&p);
    }

    #[test]
    fn clipped_matches_inside_zero_outside() {
        let e = Envelope::from_window(&pulse(), 0.0, 30.0);
        let iv = TimeInterval::new(5.0, 20.0);
        let c = e.clipped(iv);
        for i in 0..=80 {
            let t = i as f64 * 0.5;
            if (5.0 + 1e-5..=20.0 - 1e-5).contains(&t) {
                assert!((c.eval(t) - e.eval(t)).abs() < 1e-9, "inside mismatch at {t}");
            } else if !(5.0 - 1e-5..=20.0 + 1e-5).contains(&t) {
                assert_eq!(c.eval(t), 0.0, "outside not zero at {t}");
            }
        }
        // Fully-contained envelopes are returned unchanged.
        let tight = Envelope::from_window(&pulse(), 8.0, 10.0);
        assert_eq!(tight.clipped(TimeInterval::new(0.0, 100.0)), tight);
        // Disjoint windows clip to zero.
        assert!(e.clipped(TimeInterval::new(500.0, 600.0)).is_zero());
    }

    #[test]
    fn cached_bounds_agree_with_curve() {
        let e = Envelope::from_window(&pulse(), 10.0, 20.0);
        assert_eq!(e.peak(), e.as_pwl().max_value().max(0.0));
        assert!((e.eval(e.peak_time()) - e.peak()).abs() < 1e-12);
        // Support bounds: within EPS of zero strictly outside them.
        assert!(e.eval(e.support_lo() - 1.0) <= EPS);
        assert!(e.eval(e.support_hi() + 1.0) <= EPS);
        assert!(e.support_lo() < e.support_hi());
        assert!(e.cache_is_consistent());
        // Algebra results keep honest caches too.
        let s = e.sum(&Envelope::from_window(&pulse(), 12.0, 14.0));
        assert!(s.cache_is_consistent());
        let d = s.saturating_sub(&e);
        assert!(d.cache_is_consistent());
        let c = e.clipped(TimeInterval::new(12.0, 18.0));
        assert!(c.cache_is_consistent());
        assert!(e.shifted(3.0).cache_is_consistent());
        assert!(e.scaled(0.5).cache_is_consistent());
    }

    #[test]
    fn zero_envelope_has_empty_support() {
        let z = Envelope::zero();
        assert_eq!(z.support_lo(), f64::INFINITY);
        assert_eq!(z.support_hi(), f64::NEG_INFINITY);
        assert!(z.cache_is_consistent());
    }

    #[test]
    fn stale_cache_is_detected() {
        let honest = Envelope::from_window(&pulse(), 0.0, 5.0);
        let stale = Envelope::with_cached_bounds_unchecked(
            honest.as_pwl().clone(),
            honest.peak() * 2.0, // lies about the peak
            honest.peak_time(),
            honest.support_lo(),
        );
        assert!(!stale.cache_is_consistent());
        // Equality ignores the cache: the curves are identical.
        assert_eq!(stale, honest);
    }

    #[test]
    fn may_encapsulate_never_rejects_true_encapsulation() {
        let iv = TimeInterval::new(-5.0, 40.0);
        let wide = Envelope::from_window(&pulse(), 0.0, 20.0);
        let narrow = Envelope::from_window(&pulse(), 5.0, 10.0);
        // Prefilter must pass everything encapsulates() accepts.
        assert!(wide.may_encapsulate(&narrow, iv));
        assert!(wide.may_encapsulate(&wide, iv));
        assert!(wide.may_encapsulate(&Envelope::zero(), iv));
        assert!(Envelope::zero().may_encapsulate(&Envelope::zero(), iv));
    }

    #[test]
    fn may_encapsulate_rejects_impossible_pairs() {
        // Lower peak can never encapsulate a higher one whose peak time
        // lies inside the interval.
        let tall = Envelope::from_window(&pulse(), 5.0, 10.0);
        let short = tall.scaled(0.25);
        let iv = TimeInterval::new(-5.0, 40.0);
        assert!(!short.may_encapsulate(&tall, iv));
        assert!(!short.encapsulates(&tall, iv));
        // Disjoint supports: probe's peak time is outside self's support.
        let left = Envelope::from_window(&pulse(), 0.0, 0.0);
        let right = Envelope::from_window(&pulse(), 100.0, 100.0);
        let big_iv = TimeInterval::new(-5.0, 120.0);
        assert!(!left.may_encapsulate(&right, big_iv));
        assert!(!left.encapsulates(&right, big_iv));
        // Probe peak outside the interval: prefilter stays conservative.
        let outside_iv = TimeInterval::new(50.0, 60.0);
        assert!(left.may_encapsulate(&right, outside_iv));
    }

    #[test]
    fn sum_all_accepts_owned_iterator() {
        let total =
            Envelope::sum_all((0..3).map(|i| Envelope::from_window(&pulse(), i as f64, i as f64)));
        let by_ref: Vec<Envelope> =
            (0..3).map(|i| Envelope::from_window(&pulse(), i as f64, i as f64)).collect();
        assert_eq!(total, Envelope::sum_all(&by_ref));
    }

    #[test]
    fn peak_over_interval() {
        let e = Envelope::from_window(&pulse(), 10.0, 20.0);
        assert!((e.peak_over(TimeInterval::new(0.0, 30.0)) - 0.4).abs() < 1e-12);
        assert!(e.peak_over(TimeInterval::new(0.0, 10.5)) < 0.4);
    }
}
