//! Switching transitions modeled as saturated ramps.

use std::fmt;

use crate::{Pwl, EPS};

/// Direction of a switching transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Transition from 0 to Vdd.
    Rising,
    /// Transition from Vdd to 0.
    Falling,
}

impl Edge {
    /// The opposite edge.
    #[must_use]
    pub fn flipped(self) -> Edge {
        match self {
            Edge::Rising => Edge::Falling,
            Edge::Falling => Edge::Rising,
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edge::Rising => write!(f, "rise"),
            Edge::Falling => write!(f, "fall"),
        }
    }
}

/// A saturated-ramp switching waveform.
///
/// The waveform starts switching at `start`, swings the full rail over
/// `slew` time units and then saturates. The 50 %-Vdd instant — the `t50`
/// the paper measures all arrival times and delay noise against — is
/// `start + slew / 2`.
///
/// # Example
///
/// ```
/// use dna_waveform::{Transition, Edge};
///
/// let t = Transition::new(100.0, 20.0, Edge::Rising);
/// assert_eq!(t.t50(), 110.0);
/// assert_eq!(t.eval(100.0), 0.0);
/// assert_eq!(t.eval(110.0), 0.5);
/// assert_eq!(t.eval(140.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    start: f64,
    slew: f64,
    edge: Edge,
}

impl Transition {
    /// Creates a transition that starts switching at `start` and completes
    /// `slew` time units later.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not finite or `slew` is not strictly positive
    /// and finite.
    #[must_use]
    pub fn new(start: f64, slew: f64, edge: Edge) -> Self {
        assert!(start.is_finite(), "transition start must be finite");
        assert!(slew.is_finite() && slew > 0.0, "slew must be positive, got {slew}");
        Self { start, slew, edge }
    }

    /// Creates a transition from its 50 %-Vdd crossing time instead of its
    /// start time.
    #[must_use]
    pub fn from_t50(t50: f64, slew: f64, edge: Edge) -> Self {
        Self::new(t50 - slew / 2.0, slew, edge)
    }

    /// Time at which the ramp starts switching.
    #[must_use]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Full-swing transition time.
    #[must_use]
    pub fn slew(&self) -> f64 {
        self.slew
    }

    /// Direction of the transition.
    #[must_use]
    pub fn edge(&self) -> Edge {
        self.edge
    }

    /// Time at which the waveform crosses 50 % of Vdd.
    #[must_use]
    pub fn t50(&self) -> f64 {
        self.start + self.slew / 2.0
    }

    /// Time at which the ramp saturates.
    #[must_use]
    pub fn end(&self) -> f64 {
        self.start + self.slew
    }

    /// Voltage (normalized to Vdd = 1) at time `t`.
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        let x = ((t - self.start) / self.slew).clamp(0.0, 1.0);
        match self.edge {
            Edge::Rising => x,
            Edge::Falling => 1.0 - x,
        }
    }

    /// The transition translated by `dt`.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> Transition {
        Transition::new(self.start + dt, self.slew, self.edge)
    }

    /// The waveform as a piecewise-linear curve.
    #[must_use]
    pub fn to_pwl(&self) -> Pwl {
        let (pts, n) = self.ramp_points();
        Pwl::new(pts[..n].to_vec()).expect("slew > 0 guarantees increasing times")
    }

    /// The breakpoints of [`to_pwl`](Self::to_pwl), held on the stack:
    /// the points array and how many of its entries are used. Normally
    /// `(start, v0), (end, v1)`; a ramp whose end lies within [`EPS`] of
    /// its start collapses to `(start, v1)`, the merge [`Pwl::new`] makes.
    pub(crate) fn ramp_points(&self) -> ([(f64, f64); 2], usize) {
        let (v0, v1) = match self.edge {
            Edge::Rising => (0.0, 1.0),
            Edge::Falling => (1.0, 0.0),
        };
        let end = self.end();
        if end - self.start <= EPS {
            ([(self.start, v1); 2], 1)
        } else {
            ([(self.start, v0), (end, v1)], 2)
        }
    }

    /// Whether two transitions are equal within [`EPS`].
    #[must_use]
    pub fn approx_eq(&self, other: &Transition) -> bool {
        self.edge == other.edge
            && (self.start - other.start).abs() <= EPS
            && (self.slew - other.slew).abs() <= EPS
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} t50={:.3} slew={:.3}", self.edge, self.t50(), self.slew)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_ramp_shape() {
        let t = Transition::new(0.0, 10.0, Edge::Rising);
        assert_eq!(t.eval(-1.0), 0.0);
        assert_eq!(t.eval(5.0), 0.5);
        assert_eq!(t.eval(10.0), 1.0);
        assert_eq!(t.eval(11.0), 1.0);
        assert_eq!(t.t50(), 5.0);
        assert_eq!(t.end(), 10.0);
    }

    #[test]
    fn falling_ramp_shape() {
        let t = Transition::new(0.0, 10.0, Edge::Falling);
        assert_eq!(t.eval(-1.0), 1.0);
        assert_eq!(t.eval(5.0), 0.5);
        assert_eq!(t.eval(10.0), 0.0);
    }

    #[test]
    fn from_t50_round_trips() {
        let t = Transition::from_t50(50.0, 8.0, Edge::Rising);
        assert_eq!(t.t50(), 50.0);
        assert_eq!(t.start(), 46.0);
    }

    #[test]
    #[should_panic(expected = "slew must be positive")]
    fn zero_slew_panics() {
        let _ = Transition::new(0.0, 0.0, Edge::Rising);
    }

    #[test]
    fn to_pwl_matches_eval() {
        let t = Transition::new(3.0, 7.0, Edge::Falling);
        let p = t.to_pwl();
        for i in 0..=20 {
            let x = i as f64;
            assert!((p.eval(x) - t.eval(x)).abs() < 1e-12, "mismatch at {x}");
        }
    }

    #[test]
    fn shift_moves_t50() {
        let t = Transition::new(0.0, 10.0, Edge::Rising).shifted(4.0);
        assert_eq!(t.t50(), 9.0);
    }

    #[test]
    fn edge_flip() {
        assert_eq!(Edge::Rising.flipped(), Edge::Falling);
        assert_eq!(Edge::Falling.flipped(), Edge::Rising);
    }
}
