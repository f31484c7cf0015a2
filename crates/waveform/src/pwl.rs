//! Validated piecewise-linear curves.

use std::error::Error;
use std::fmt;
use std::ops::{Add, Sub};

use crate::{TimeInterval, EPS};

/// Error produced when constructing an invalid [`Pwl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PwlError {
    /// The point list was empty.
    Empty,
    /// A coordinate at the given index was NaN or infinite.
    NonFinite(usize),
    /// Breakpoint times decreased at the given index.
    NonIncreasing(usize),
}

impl fmt::Display for PwlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PwlError::Empty => write!(f, "piecewise-linear curve needs at least one point"),
            PwlError::NonFinite(i) => write!(f, "non-finite coordinate at breakpoint {i}"),
            PwlError::NonIncreasing(i) => {
                write!(f, "breakpoint times must be non-decreasing (violated at index {i})")
            }
        }
    }
}

impl Error for PwlError {}

/// A piecewise-linear curve `v(t)` over the whole time axis.
///
/// The curve is defined by a non-empty list of breakpoints with
/// non-decreasing times. Between breakpoints the value is linearly
/// interpolated; before the first and after the last breakpoint the value is
/// *extended as a constant* equal to the respective endpoint value. This
/// extension rule means a saturated ramp, a decayed noise pulse and a
/// constant are all representable without special cases.
///
/// `Pwl` is closed under addition, subtraction, pointwise maximum and
/// clamping — exactly the operations linear noise analysis needs
/// (envelope summation per paper Fig. 3, superposition per §3.1).
///
/// # Example
///
/// ```
/// use dna_waveform::Pwl;
///
/// let ramp = Pwl::new(vec![(0.0, 0.0), (10.0, 1.0)])?;
/// assert_eq!(ramp.eval(-5.0), 0.0); // constant extension on the left
/// assert_eq!(ramp.eval(5.0), 0.5);
/// assert_eq!(ramp.eval(20.0), 1.0); // constant extension on the right
/// # Ok::<(), dna_waveform::PwlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl {
    /// Breakpoints `(t, v)` with strictly increasing `t`.
    points: Vec<(f64, f64)>,
}

impl Pwl {
    /// Creates a curve from breakpoints.
    ///
    /// Breakpoints closer together in time than [`EPS`] are merged (the
    /// later value wins), so callers may pass the output of geometric
    /// constructions without worrying about degenerate segments.
    ///
    /// # Errors
    ///
    /// Returns [`PwlError::Empty`] for an empty list,
    /// [`PwlError::NonFinite`] if any coordinate is NaN/infinite and
    /// [`PwlError::NonIncreasing`] if times decrease.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, PwlError> {
        if points.is_empty() {
            return Err(PwlError::Empty);
        }
        for (i, &(t, v)) in points.iter().enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(PwlError::NonFinite(i));
            }
        }
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        for (i, &(t, v)) in points.iter().enumerate() {
            match merged.last_mut() {
                Some(&mut (lt, _)) if t < lt - EPS => return Err(PwlError::NonIncreasing(i)),
                Some(last) if t - last.0 <= EPS => {
                    // Merge near-coincident breakpoints; the later value wins.
                    last.1 = v;
                }
                _ => merged.push((t, v)),
            }
        }
        Ok(Self { points: merged })
    }

    /// Wraps raw breakpoints **without any validation or merging**.
    ///
    /// Every other constructor guarantees the breakpoint invariants
    /// (non-empty, finite, times strictly increasing after merging); this
    /// one does not, so the resulting curve may make `eval` and the curve
    /// algebra return nonsense. Intended only for IR-level tooling — in
    /// particular the `dna-lint` verifier's known-bad test corpus, which
    /// needs curves that [`Pwl::new`] rightly refuses to build.
    #[must_use]
    pub fn from_points_unchecked(points: Vec<(f64, f64)>) -> Self {
        Self { points }
    }

    /// Checks the breakpoint invariants on an already-built curve.
    ///
    /// Returns the first violation as the same [`PwlError`] that
    /// [`Pwl::new`] would report: the list must be non-empty, every
    /// coordinate finite and times strictly increasing. Curves from checked
    /// constructors always pass; this audit exists for curves smuggled in
    /// through [`from_points_unchecked`](Self::from_points_unchecked) or
    /// future deserializers, and backs the lint rules `L020`/`L021`.
    ///
    /// # Errors
    ///
    /// The first [`PwlError`] found, scanning left to right.
    pub fn is_well_formed(&self) -> Result<(), PwlError> {
        if self.points.is_empty() {
            return Err(PwlError::Empty);
        }
        for (i, &(t, v)) in self.points.iter().enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(PwlError::NonFinite(i));
            }
            if i > 0 && t <= self.points[i - 1].0 {
                return Err(PwlError::NonIncreasing(i));
            }
        }
        Ok(())
    }

    /// The constant curve `v(t) = v`.
    #[must_use]
    pub fn constant(v: f64) -> Self {
        Self { points: vec![(0.0, v)] }
    }

    /// The identically-zero curve.
    #[must_use]
    pub fn zero() -> Self {
        Self::constant(0.0)
    }

    /// Breakpoints of the curve.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Evaluates the curve at time `t`.
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts[pts.len() - 1];
        if t >= last.0 {
            return last.1;
        }
        // Binary search for the segment containing t.
        let idx = pts.partition_point(|&(pt, _)| pt <= t);
        let (t0, v0) = pts[idx - 1];
        let (t1, v1) = pts[idx];
        if t1 - t0 <= EPS {
            return v1;
        }
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// The curve translated right by `dt`.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> Self {
        debug_assert!(dt.is_finite(), "shift by non-finite dt {dt}");
        Self { points: self.points.iter().map(|&(t, v)| (t + dt, v)).collect() }
    }

    /// The curve with all values multiplied by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        debug_assert!(factor.is_finite(), "scale by non-finite factor {factor}");
        Self { points: self.points.iter().map(|&(t, v)| (t, v * factor)).collect() }
    }

    /// The curve negated pointwise.
    #[must_use]
    pub fn negated(&self) -> Self {
        self.scaled(-1.0)
    }

    /// Maximum value attained over the whole curve (including extensions,
    /// which equal the endpoint values).
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Maximum value attained within the closed `interval`.
    #[must_use]
    pub fn max_over(&self, interval: TimeInterval) -> f64 {
        let mut best = self.eval(interval.lo()).max(self.eval(interval.hi()));
        for &(t, v) in &self.points {
            if interval.contains(t) {
                best = best.max(v);
            }
        }
        best
    }

    /// Time span from the first to the last breakpoint.
    #[must_use]
    pub fn span(&self) -> TimeInterval {
        TimeInterval::new(self.points[0].0, self.points[self.points.len() - 1].0)
    }

    /// Merged, sorted breakpoint times of `self` and `other`.
    ///
    /// Both inputs are already sorted, so this is a linear merge — these
    /// curves are combined millions of times in the top-k hot loop.
    fn merged_times(&self, other: &Pwl) -> Vec<f64> {
        let a = &self.points;
        let b = &other.points;
        let mut ts: Vec<f64> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        let push = |ts: &mut Vec<f64>, t: f64| match ts.last() {
            Some(&last) if (t - last).abs() <= EPS => {}
            _ => ts.push(t),
        };
        while i < a.len() && j < b.len() {
            if a[i].0 <= b[j].0 {
                push(&mut ts, a[i].0);
                i += 1;
            } else {
                push(&mut ts, b[j].0);
                j += 1;
            }
        }
        while i < a.len() {
            push(&mut ts, a[i].0);
            i += 1;
        }
        while j < b.len() {
            push(&mut ts, b[j].0);
            j += 1;
        }
        ts
    }

    /// Combines two curves with a pointwise linear operation.
    ///
    /// Correct for operations (like `+` and `-`) that map line segments to
    /// line segments, so sampling at merged breakpoints loses nothing.
    fn zip_linear(&self, other: &Pwl, f: impl Fn(f64, f64) -> f64) -> Pwl {
        let pts = self
            .merged_times(other)
            .into_iter()
            .map(|t| (t, f(self.eval(t), other.eval(t))))
            .collect();
        Pwl::new(pts).expect("merged breakpoints are sorted and finite")
    }

    /// Pointwise maximum of two curves.
    ///
    /// Unlike `+`/`-`, `max` can create new breakpoints where the curves
    /// cross, so crossings between merged breakpoints are inserted.
    #[must_use]
    pub fn pointwise_max(&self, other: &Pwl) -> Pwl {
        let times = self.merged_times(other);
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(times.len() * 2);
        for (i, &t) in times.iter().enumerate() {
            let (a, b) = (self.eval(t), other.eval(t));
            pts.push((t, a.max(b)));
            if let Some(&tn) = times.get(i + 1) {
                let (an, bn) = (self.eval(tn), other.eval(tn));
                let d0 = a - b;
                let d1 = an - bn;
                // Sign change strictly inside the segment => crossing point.
                if d0 * d1 < 0.0 {
                    let alpha = d0 / (d0 - d1);
                    let tc = t + alpha * (tn - t);
                    if tc > t + EPS && tc < tn - EPS {
                        pts.push((tc, self.eval(tc).max(other.eval(tc))));
                    }
                }
            }
        }
        Pwl::new(pts).expect("constructed points are sorted and finite")
    }

    /// The curve clamped from below at `floor`.
    #[must_use]
    pub fn clamped_min(&self, floor: f64) -> Pwl {
        self.pointwise_max(&Pwl::constant(floor))
    }

    /// Supremum of `{ t : v(t) <= level }`.
    ///
    /// Returns `f64::INFINITY` when the curve ends at or below `level`
    /// (the set is unbounded above) and `f64::NEG_INFINITY` when the curve
    /// never reaches `level` at all. Otherwise the result is the **final
    /// upward crossing** of `level` — exactly the quantity needed for the
    /// `t50` of a noisy rising transition (latest time the waveform is
    /// still at or below 50 % Vdd).
    #[must_use]
    pub fn last_time_at_or_below(&self, level: f64) -> f64 {
        let pts = &self.points;
        let n = pts.len();
        if pts[n - 1].1 <= level {
            return f64::INFINITY;
        }
        // Scan segments right-to-left; the first one dipping to `level`
        // contains the final crossing. In the matched segment `v0 <= level`
        // and `v1 > level` (else the segment to the right matched first, or
        // the early return above fired), so the interpolation denominator
        // is strictly positive and the crossing it yields is exact — even
        // for near-flat segments, where the ratio of two tiny differences
        // stays well-conditioned. A plateau exactly at `level` never
        // reaches this branch directly: its right neighbour starts at
        // `level` and matches first with a zero numerator, returning the
        // plateau's right edge — the *latest* time at the level.
        for j in (0..n.saturating_sub(1)).rev() {
            if pts[j].1 <= level {
                return upward_crossing(pts[j], pts[j + 1], level);
            }
        }
        // No breakpoint at or below level; check the left extension.
        if pts[0].1 <= level {
            return pts[0].0;
        }
        f64::NEG_INFINITY
    }

    /// Supremum of `{ t : v(t) >= level }`; mirror of
    /// [`last_time_at_or_below`](Self::last_time_at_or_below) for falling
    /// victims.
    #[must_use]
    pub fn last_time_at_or_above(&self, level: f64) -> f64 {
        self.negated().last_time_at_or_below(-level)
    }

    /// The curve with collinear and near-collinear interior breakpoints
    /// removed.
    ///
    /// A breakpoint is dropped when the curve value there differs from the
    /// straight line between its retained neighbours by at most `tol`.
    /// Sums of many trapezoids accumulate redundant breakpoints; pruning
    /// them keeps repeated envelope algebra (the hot loop of top-k
    /// enumeration) close to linear cost.
    #[must_use]
    pub fn simplified(&self, tol: f64) -> Pwl {
        let pts = &self.points;
        if pts.len() <= 2 {
            return self.clone();
        }
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        out.push(pts[0]);
        for i in 1..pts.len() - 1 {
            let (t0, v0) = *out.last().expect("seeded with first point");
            let (t1, v1) = pts[i];
            let (t2, v2) = pts[i + 1];
            // Value predicted at t1 by the chord from the last kept point
            // to the next point.
            let predicted =
                if (t2 - t0).abs() <= EPS { v0 } else { v0 + (v2 - v0) * (t1 - t0) / (t2 - t0) };
            if (v1 - predicted).abs() > tol {
                out.push(pts[i]);
            }
        }
        out.push(pts[pts.len() - 1]);
        Pwl::new(out).expect("subset of ordered points stays ordered")
    }

    /// Pointwise sum of two curves with collinear breakpoints pruned, in
    /// one pass and one output allocation.
    ///
    /// Equivalent to `(&self + &other).simplified(tol)` but without the
    /// intermediate curve, the merged-times buffer, or the second
    /// simplification sweep — this is the allocation profile the top-k
    /// enumeration hot loop needs, where millions of envelope sums happen
    /// per run.
    #[must_use]
    pub fn add_simplified(&self, other: &Pwl, tol: f64) -> Pwl {
        let sink = Vec::with_capacity(self.points.len() + other.points.len());
        Pwl::from_builder(self.add_simplified_to(other, tol, sink))
    }

    /// The breakpoint stream of [`add_simplified`](Self::add_simplified),
    /// handed point by point to `sink` — a buffer, or a consumer (the
    /// delay-noise crossing tracker) that never stores the curve.
    pub(crate) fn add_simplified_to<S: PointSink>(&self, other: &Pwl, tol: f64, sink: S) -> S {
        let mut out = SimplifyingBuilder::new(sink, tol);
        let mut a = SegmentCursor::new(&self.points);
        let mut b = SegmentCursor::new(&other.points);
        merge_times(&self.points, &other.points, |t| {
            out.push(t, a.eval_monotone(t) + b.eval_monotone(t));
            !out.sink.done()
        });
        out.finish()
    }

    /// `max(self - other, 0)` pointwise with collinear breakpoints pruned,
    /// in one pass and one output allocation.
    ///
    /// Equivalent to `(&self - &other).clamped_min(0.0).simplified(tol)`
    /// but without the three intermediate curves that chain would build.
    /// Zero-crossings of the difference become breakpoints, exactly as
    /// [`pointwise_max`](Self::pointwise_max) against the zero curve would
    /// insert them.
    #[must_use]
    pub fn sub_clamped_simplified(&self, other: &Pwl, tol: f64) -> Pwl {
        let sink = Vec::with_capacity(self.points.len() + other.points.len());
        Pwl::from_builder(self.sub_clamped_simplified_to(other, tol, sink))
    }

    /// The breakpoint stream of
    /// [`sub_clamped_simplified`](Self::sub_clamped_simplified), handed
    /// point by point to `sink`.
    pub(crate) fn sub_clamped_simplified_to<S: PointSink>(
        &self,
        other: &Pwl,
        tol: f64,
        sink: S,
    ) -> S {
        let mut out = SimplifyingBuilder::new(sink, tol);
        let mut a = SegmentCursor::new(&self.points);
        let mut b = SegmentCursor::new(&other.points);
        // Difference at the previous merged time, for crossing detection.
        let mut prev: Option<(f64, f64)> = None;
        merge_times(&self.points, &other.points, |t| {
            let d = a.eval_monotone(t) - b.eval_monotone(t);
            if let Some((t0, d0)) = prev {
                // Sign change strictly inside the segment: the clamped
                // curve has a kink at the crossing.
                if d0 * d < 0.0 {
                    let tc = t0 + d0 / (d0 - d) * (t - t0);
                    if tc > t0 + EPS && tc < t - EPS {
                        out.push(tc, 0.0);
                    }
                }
            }
            prev = Some((t, d));
            out.push(t, d.max(0.0));
            !out.sink.done()
        });
        out.finish()
    }

    /// Wraps a builder's output buffer.
    fn from_builder(points: Vec<(f64, f64)>) -> Pwl {
        debug_assert!(
            !points.is_empty() && points.windows(2).all(|w| w[0].0 < w[1].0),
            "builder output times must strictly increase"
        );
        Pwl { points }
    }

    /// Whether `self(t) >= other(t) - tol` for every `t` in `interval`.
    ///
    /// This is the *encapsulation* primitive behind the paper's dominance
    /// relation: both curves are linear between their merged breakpoints,
    /// so checking the merged breakpoints (clipped to the interval) plus the
    /// interval endpoints is exact. One ascending walk over both
    /// breakpoint lists, with a cursor per curve.
    #[must_use]
    pub fn ge_over(&self, other: &Pwl, interval: TimeInterval, tol: f64) -> bool {
        let (a, b) = (&self.points, &other.points);
        let mut ca = SegmentCursor::new(a);
        let mut cb = SegmentCursor::new(b);
        let mut holds = |t: f64| ca.eval_monotone(t) >= cb.eval_monotone(t) - tol;
        if !holds(interval.lo()) {
            return false;
        }
        let (mut i, mut j) = (0, 0);
        loop {
            let t = match (a.get(i), b.get(j)) {
                (Some(&(ta, _)), Some(&(tb, _))) if ta <= tb => {
                    i += 1;
                    ta
                }
                (Some(&(ta, _)), None) => {
                    i += 1;
                    ta
                }
                (_, Some(&(tb, _))) => {
                    j += 1;
                    tb
                }
                (None, None) => break,
            };
            if t > interval.hi() {
                break;
            }
            if t >= interval.lo() && !holds(t) {
                return false;
            }
        }
        holds(interval.hi())
    }
}

/// The time the segment `(t0, v0) -> (t1, v1)`, whose left value is at or
/// below `level`, crosses it — the interpolation step of
/// [`Pwl::last_time_at_or_below`] (which explains why it is exact).
pub(crate) fn upward_crossing((t0, v0): (f64, f64), (t1, v1): (f64, f64), level: f64) -> f64 {
    if v1 <= v0 {
        // Unreachable for curves upholding the scan invariant; kept as a
        // belt-and-braces guard against division by a non-positive span
        // on unchecked inputs.
        return t1;
    }
    t0 + (level - v0) / (v1 - v0) * (t1 - t0)
}

/// Calls `visit` with the merged, EPS-deduplicated breakpoint times of
/// both point lists, in ascending order, without materializing them,
/// until `visit` returns `false`. Ties take `a`'s time first; each time
/// is deduplicated against the last one visited, whichever list it came
/// from.
fn merge_times(a: &[(f64, f64)], b: &[(f64, f64)], mut visit: impl FnMut(f64) -> bool) {
    let (mut i, mut j) = (0, 0);
    let mut last: Option<f64> = None;
    // Visits `t` unless it repeats the last time; `false` stops the merge.
    let mut emit = |t: f64| {
        if last.is_none_or(|l| (t - l).abs() > EPS) {
            last = Some(t);
            return visit(t);
        }
        true
    };
    while i < a.len() && j < b.len() {
        let t = if a[i].0 <= b[j].0 {
            i += 1;
            a[i - 1].0
        } else {
            j += 1;
            b[j - 1].0
        };
        if !emit(t) {
            return;
        }
    }
    for &(t, _) in a[i..].iter().chain(&b[j..]) {
        if !emit(t) {
            return;
        }
    }
}

/// Value at `t` of the segment `(t0, v0) -> (t1, v1)` with `t0 <= t`,
/// exactly as [`Pwl::eval`] interpolates. At `t == t0` the division is
/// skipped: `(v1 - v0) * 0.0 / (t1 - t0)` is a zero carrying the sign of
/// `v1 - v0`, so adding that signed zero to `v0` is bit for bit the
/// interpolated value (it differs from `v0` only when `v0` is `-0.0`).
pub(crate) fn segment_value((t0, v0): (f64, f64), (t1, v1): (f64, f64), t: f64) -> f64 {
    if t1 - t0 <= EPS {
        return v1;
    }
    if t == t0 {
        return v0 + 0.0_f64.copysign(v1 - v0);
    }
    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
}

/// Evaluates one curve at a non-decreasing sequence of times in overall
/// linear time, replacing the per-time binary search of [`Pwl::eval`].
pub(crate) struct SegmentCursor<'a> {
    pts: &'a [(f64, f64)],
    /// Index of the first breakpoint strictly after the last queried time.
    idx: usize,
}

impl<'a> SegmentCursor<'a> {
    pub(crate) fn new(pts: &'a [(f64, f64)]) -> Self {
        Self { pts, idx: 0 }
    }

    /// Value at `t`; callers must query with non-decreasing `t`.
    pub(crate) fn eval_monotone(&mut self, t: f64) -> f64 {
        let pts = self.pts;
        while self.idx < pts.len() && pts[self.idx].0 <= t {
            self.idx += 1;
        }
        if self.idx == 0 {
            return pts[0].1; // constant extension on the left
        }
        if self.idx == pts.len() {
            return pts[pts.len() - 1].1; // constant extension on the right
        }
        segment_value(pts[self.idx - 1], pts[self.idx], t)
    }
}

/// Receiver of a finished breakpoint stream, in ascending time order: a
/// buffer that becomes a curve, or a consumer that measures the curve
/// without storing it.
pub(crate) trait PointSink {
    /// Takes the next breakpoint.
    fn push_point(&mut self, t: f64, v: f64);

    /// Whether the sink has read all it needs: the producer may stop
    /// streaming. A buffer never is.
    fn done(&self) -> bool {
        false
    }
}

impl PointSink for Vec<(f64, f64)> {
    fn push_point(&mut self, t: f64, v: f64) {
        self.push((t, v));
    }
}

impl<S: PointSink> PointSink for &mut S {
    fn push_point(&mut self, t: f64, v: f64) {
        (**self).push_point(t, v);
    }

    fn done(&self) -> bool {
        (**self).done()
    }
}

/// Streaming breakpoint filter that prunes collinear interior points on
/// the fly, reproducing [`Pwl::simplified`]'s keep/drop decisions (chord
/// from the last kept point to the immediate next point) without a second
/// pass, and forwarding each point to its sink once it is final.
struct SimplifyingBuilder<S> {
    sink: S,
    /// Last kept point, the chord's anchor. Until `pending` is first set
    /// this is the curve's first point, which a successor within EPS may
    /// still overwrite; it reaches the sink only when a second distinct
    /// point arrives.
    last: Option<(f64, f64)>,
    /// Interior point whose keep/drop decision waits on its successor.
    pending: Option<(f64, f64)>,
    tol: f64,
}

impl<S: PointSink> SimplifyingBuilder<S> {
    fn new(sink: S, tol: f64) -> Self {
        Self { sink, last: None, pending: None, tol }
    }

    /// Appends a breakpoint; times must be non-decreasing. A point within
    /// EPS of its predecessor replaces that predecessor's value, matching
    /// the merge rule of [`Pwl::new`].
    fn push(&mut self, t: f64, v: f64) {
        if let Some(p) = &mut self.pending {
            if t - p.0 <= EPS {
                p.1 = v;
                return;
            }
        } else if let Some(first) = &mut self.last {
            if t - first.0 <= EPS {
                first.1 = v;
                return;
            }
        }
        let Some((t0, v0)) = self.last else {
            self.last = Some((t, v));
            return;
        };
        let Some((t1, v1)) = self.pending else {
            // A second distinct point: the first can no longer change.
            self.sink.push_point(t0, v0);
            self.pending = Some((t, v));
            return;
        };
        // Decide the held interior point against the chord last -> (t, v).
        let predicted =
            if (t - t0).abs() <= EPS { v0 } else { v0 + (v - v0) * (t1 - t0) / (t - t0) };
        if (v1 - predicted).abs() > self.tol {
            self.sink.push_point(t1, v1);
            self.last = Some((t1, v1));
        }
        self.pending = Some((t, v));
    }

    /// Flushes the final point (always kept) and returns the sink; a
    /// done sink, whose stream was cut short, gets no flush.
    fn finish(mut self) -> S {
        if let Some((t, v)) = self.pending.or(self.last).filter(|_| !self.sink.done()) {
            self.sink.push_point(t, v);
        }
        self.sink
    }
}

impl Add<&Pwl> for &Pwl {
    type Output = Pwl;

    fn add(self, rhs: &Pwl) -> Pwl {
        self.zip_linear(rhs, |a, b| a + b)
    }
}

impl Sub<&Pwl> for &Pwl {
    type Output = Pwl;

    fn sub(self, rhs: &Pwl) -> Pwl {
        self.zip_linear(rhs, |a, b| a - b)
    }
}

impl fmt::Display for Pwl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pwl[")?;
        for (i, (t, v)) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({t:.3}, {v:.4})")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Pwl {
        Pwl::new(vec![(0.0, 0.0), (10.0, 1.0)]).unwrap()
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Pwl::new(vec![]), Err(PwlError::Empty));
    }

    #[test]
    fn non_finite_rejected() {
        assert_eq!(Pwl::new(vec![(0.0, f64::NAN)]), Err(PwlError::NonFinite(0)));
        assert_eq!(Pwl::new(vec![(0.0, 0.0), (f64::INFINITY, 1.0)]), Err(PwlError::NonFinite(1)));
    }

    #[test]
    fn decreasing_times_rejected() {
        assert_eq!(Pwl::new(vec![(1.0, 0.0), (0.0, 1.0)]), Err(PwlError::NonIncreasing(1)));
    }

    #[test]
    fn coincident_points_merged() {
        let p = Pwl::new(vec![(0.0, 0.0), (0.0, 5.0), (1.0, 1.0)]).unwrap();
        assert_eq!(p.points().len(), 2);
        assert_eq!(p.eval(0.0), 5.0);
    }

    #[test]
    fn eval_interpolates_and_extends() {
        let r = ramp();
        assert_eq!(r.eval(-1.0), 0.0);
        assert_eq!(r.eval(0.0), 0.0);
        assert!((r.eval(2.5) - 0.25).abs() < 1e-12);
        assert_eq!(r.eval(10.0), 1.0);
        assert_eq!(r.eval(100.0), 1.0);
    }

    #[test]
    fn add_and_sub() {
        let r = ramp();
        let c = Pwl::constant(0.5);
        let s = &r + &c;
        assert!((s.eval(5.0) - 1.0).abs() < 1e-12);
        let d = &r - &c;
        assert!((d.eval(0.0) + 0.5).abs() < 1e-12);
        assert!((d.eval(10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pointwise_max_inserts_crossing() {
        let up = ramp();
        let down = Pwl::new(vec![(0.0, 1.0), (10.0, 0.0)]).unwrap();
        let m = up.pointwise_max(&down);
        // Crossing at t=5 where both are 0.5.
        assert!((m.eval(5.0) - 0.5).abs() < 1e-9);
        assert!((m.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((m.eval(10.0) - 1.0).abs() < 1e-12);
        // Strictly above min of both everywhere sampled.
        for i in 0..=20 {
            let t = i as f64 * 0.5;
            assert!(m.eval(t) + 1e-9 >= up.eval(t).max(down.eval(t)));
        }
    }

    #[test]
    fn clamp_min_floors_curve() {
        let dip = Pwl::new(vec![(0.0, 1.0), (5.0, -1.0), (10.0, 1.0)]).unwrap();
        let c = dip.clamped_min(0.0);
        assert_eq!(c.eval(5.0), 0.0);
        assert!((c.eval(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn last_crossing_simple_ramp() {
        let r = ramp();
        assert!((r.last_time_at_or_below(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn last_crossing_with_dip_takes_latest() {
        // Rise, dip below, rise again: the *last* 0.5-crossing matters.
        let w = Pwl::new(vec![(0.0, 0.0), (2.0, 0.8), (4.0, 0.2), (8.0, 1.0)]).unwrap();
        let t = w.last_time_at_or_below(0.5);
        // Segment (4,0.2)->(8,1.0): 0.5 at t = 4 + 0.3/0.8*4 = 5.5.
        assert!((t - 5.5).abs() < 1e-9);
    }

    #[test]
    fn last_crossing_degenerate_cases() {
        let below = Pwl::constant(0.2);
        assert_eq!(below.last_time_at_or_below(0.5), f64::INFINITY);
        let above = Pwl::constant(0.9);
        assert_eq!(above.last_time_at_or_below(0.5), f64::NEG_INFINITY);
    }

    #[test]
    fn last_above_mirrors_last_below() {
        let fall = Pwl::new(vec![(0.0, 1.0), (10.0, 0.0)]).unwrap();
        assert!((fall.last_time_at_or_above(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn last_crossing_plateau_exactly_at_level_returns_latest_time() {
        // Flat stretch exactly at the level, then a rise: the supremum of
        // `{t : v(t) <= 0.5}` is the plateau's right edge, not its start.
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 0.5), (6.0, 0.5), (8.0, 1.0)]).unwrap();
        assert!((w.last_time_at_or_below(0.5) - 6.0).abs() < 1e-12);
        // Mirror case for falling victims.
        let m = w.negated();
        assert!((m.last_time_at_or_above(-0.5) - 6.0).abs() < 1e-12);
        // Plateau at level after a dip from above: same answer from the
        // right-neighbour segment's zero-numerator interpolation.
        let v = Pwl::new(vec![(0.0, 1.0), (2.0, 0.5), (5.0, 0.5), (7.0, 1.0)]).unwrap();
        assert!((v.last_time_at_or_below(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn last_crossing_near_flat_segment_interpolates_exactly() {
        // A segment rising by less than EPS across a long span used to be
        // resolved to its right endpoint wholesale; the crossing must be
        // interpolated inside the segment instead.
        let d = 1e-10; // well under EPS
        let w = Pwl::new(vec![(0.0, 0.5 - d), (1000.0, 0.5 + d), (1001.0, 1.0)]).unwrap();
        let t = w.last_time_at_or_below(0.5);
        assert!((t - 500.0).abs() < 1e-6, "near-flat crossing {t}, expected 500");
    }

    #[test]
    fn last_crossing_matches_dense_sampling() {
        // Ground truth by dense sampling: the returned crossing time must
        // be the latest sample time still at or below the level, up to the
        // sampling step.
        let curves = [
            Pwl::new(vec![(0.0, 0.0), (1.0, 0.5), (6.0, 0.5), (8.0, 1.0)]).unwrap(),
            Pwl::new(vec![(0.0, 0.0), (2.0, 0.8), (4.0, 0.2), (8.0, 1.0)]).unwrap(),
            Pwl::new(vec![(0.0, 0.5 - 1e-10), (7.0, 0.5 + 1e-10), (8.0, 1.0)]).unwrap(),
            Pwl::new(vec![(0.0, 0.4), (3.0, 0.6), (4.0, 0.5), (5.0, 0.5), (8.0, 0.9)]).unwrap(),
        ];
        for (ci, w) in curves.iter().enumerate() {
            let t = w.last_time_at_or_below(0.5);
            let step = 1e-4;
            let mut latest = f64::NEG_INFINITY;
            let mut k = 0;
            loop {
                let s = k as f64 * step;
                if s > 8.0 {
                    break;
                }
                if w.eval(s) <= 0.5 {
                    latest = s;
                }
                k += 1;
            }
            assert!(
                (t - latest).abs() <= step + 1e-9,
                "curve {ci}: crossing {t} vs dense-sampled {latest}"
            );
            // And the reported time really sits at the level.
            assert!((w.eval(t) - 0.5).abs() <= 1e-9, "curve {ci}: v({t}) = {}", w.eval(t));
        }
    }

    #[test]
    fn ge_over_detects_encapsulation() {
        let big = Pwl::new(vec![(0.0, 0.0), (5.0, 1.0), (10.0, 0.0)]).unwrap();
        let small = Pwl::new(vec![(2.0, 0.0), (5.0, 0.5), (8.0, 0.0)]).unwrap();
        let iv = TimeInterval::new(0.0, 10.0);
        assert!(big.ge_over(&small, iv, EPS));
        assert!(!small.ge_over(&big, iv, EPS));
        // Every curve encapsulates itself under tolerance.
        assert!(big.ge_over(&big, iv, EPS));
    }

    #[test]
    fn ge_over_respects_interval_clipping() {
        let a = Pwl::new(vec![(0.0, 0.0), (10.0, 1.0)]).unwrap();
        let b = Pwl::new(vec![(0.0, 1.0), (10.0, 0.0)]).unwrap();
        // Over [6, 10] the rising curve is above the falling one.
        assert!(a.ge_over(&b, TimeInterval::new(6.0, 10.0), EPS));
        assert!(!a.ge_over(&b, TimeInterval::new(0.0, 10.0), EPS));
    }

    #[test]
    fn shift_and_scale() {
        let r = ramp();
        let s = r.shifted(5.0);
        assert!((s.eval(10.0) - 0.5).abs() < 1e-12);
        let k = r.scaled(2.0);
        assert!((k.eval(10.0) - 2.0).abs() < 1e-12);
        assert_eq!(r.negated().eval(10.0), -1.0);
    }

    #[test]
    fn max_over_interval() {
        let tri = Pwl::new(vec![(0.0, 0.0), (5.0, 1.0), (10.0, 0.0)]).unwrap();
        assert!((tri.max_over(TimeInterval::new(0.0, 10.0)) - 1.0).abs() < 1e-12);
        assert!((tri.max_over(TimeInterval::new(6.0, 10.0)) - tri.eval(6.0)).abs() < 1e-12);
    }

    #[test]
    fn well_formed_audit_matches_constructor() {
        assert_eq!(ramp().is_well_formed(), Ok(()));
        assert_eq!(Pwl::constant(3.0).is_well_formed(), Ok(()));
        let empty = Pwl::from_points_unchecked(vec![]);
        assert_eq!(empty.is_well_formed(), Err(PwlError::Empty));
        let nan = Pwl::from_points_unchecked(vec![(0.0, f64::NAN)]);
        assert_eq!(nan.is_well_formed(), Err(PwlError::NonFinite(0)));
        let backwards = Pwl::from_points_unchecked(vec![(1.0, 0.0), (0.5, 0.0)]);
        assert_eq!(backwards.is_well_formed(), Err(PwlError::NonIncreasing(1)));
        let duplicate = Pwl::from_points_unchecked(vec![(1.0, 0.0), (1.0, 2.0)]);
        assert_eq!(duplicate.is_well_formed(), Err(PwlError::NonIncreasing(1)));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", ramp()).is_empty());
    }

    #[test]
    fn add_simplified_matches_chained_ops() {
        let a = Pwl::new(vec![(0.0, 0.0), (2.0, 0.3), (5.0, 0.3), (9.0, 0.0)]).unwrap();
        let b = Pwl::new(vec![(1.0, 0.0), (4.0, 0.5), (6.0, 0.1), (8.0, 0.0)]).unwrap();
        let fused = a.add_simplified(&b, EPS);
        let chained = (&a + &b).simplified(EPS);
        assert_eq!(fused.points(), chained.points());
        for i in 0..=100 {
            let t = -1.0 + i as f64 * 0.11;
            assert!((fused.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9, "mismatch at {t}");
        }
        // Collinear interior points of the sum are pruned.
        let flat = Pwl::new(vec![(0.0, 0.0), (1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]).unwrap();
        let s = flat.add_simplified(&Pwl::zero(), 1e-9);
        assert!(s.points().len() <= 3);
    }

    #[test]
    fn sub_clamped_simplified_matches_chained_ops() {
        let a = Pwl::new(vec![(0.0, 0.0), (3.0, 0.6), (6.0, 0.6), (9.0, 0.0)]).unwrap();
        let b = Pwl::new(vec![(1.0, 0.0), (4.0, 0.9), (7.0, 0.0)]).unwrap();
        let fused = a.sub_clamped_simplified(&b, EPS);
        let chained = (&a - &b).clamped_min(0.0).simplified(EPS);
        for i in 0..=110 {
            let t = -1.0 + i as f64 * 0.1;
            let want = (a.eval(t) - b.eval(t)).max(0.0);
            assert!((fused.eval(t) - want).abs() < 1e-9, "fused mismatch at {t}");
            assert!((fused.eval(t) - chained.eval(t)).abs() < 1e-9, "chained mismatch at {t}");
        }
        // Never negative anywhere.
        assert!(fused.points().iter().all(|&(_, v)| v >= 0.0));
    }

    #[test]
    fn sub_clamped_simplified_full_cancellation() {
        let a = ramp();
        let z = a.sub_clamped_simplified(&a.scaled(2.0), EPS);
        for i in 0..=40 {
            let t = i as f64 * 0.5;
            assert_eq!(z.eval(t).max(0.0), z.eval(t));
            assert!(z.eval(t) <= 1e-12);
        }
    }

    #[test]
    fn builder_forwards_the_first_point_only_once_it_is_final() {
        // While nothing is pending, a successor within EPS overwrites the
        // first point; a sink that never stores the curve must not have
        // seen the stale value.
        let mut seen: Vec<(f64, f64)> = Vec::new();
        let mut b = SimplifyingBuilder::new(&mut seen, EPS);
        b.push(0.0, 0.1);
        b.push(0.5 * EPS, 0.2);
        b.push(1.0, 0.3);
        b.push(1.0 + 0.5 * EPS, 0.4);
        b.push(2.0, 0.1);
        b.finish();
        assert_eq!(seen, vec![(0.0, 0.2), (1.0, 0.4), (2.0, 0.1)]);
    }

    #[test]
    fn simplified_removes_collinear_points() {
        let p =
            Pwl::new(vec![(0.0, 0.0), (1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (10.0, 1.0)]).unwrap();
        let s = p.simplified(1e-9);
        assert!(s.points().len() < p.points().len());
        for i in 0..=40 {
            let t = i as f64 * 0.25;
            assert!((s.eval(t) - p.eval(t)).abs() < 1e-9, "mismatch at {t}");
        }
    }

    #[test]
    fn simplified_preserves_corners() {
        let tri = Pwl::new(vec![(0.0, 0.0), (5.0, 1.0), (10.0, 0.0)]).unwrap();
        let s = tri.simplified(1e-9);
        assert_eq!(s.points().len(), 3);
        assert_eq!(s, tri);
    }
}
