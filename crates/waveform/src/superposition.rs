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

use crate::{Edge, Envelope, Pwl, Transition};

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
///
/// Allocation-free: the crossing is streamed over the clean ramp (held on
/// the stack) and the envelope's breakpoints, bit-identical to measuring
/// [`noisy_waveform`] with `last_time_at_or_below(0.5)` (rising) or
/// `last_time_at_or_above(0.5)` (falling), which the falling edge reaches
/// through `negated()` — hence its `-(c + e)` at level `-0.5`.
#[must_use]
pub fn noisy_t50(victim: &Transition, envelope: &Envelope) -> f64 {
    if envelope.is_zero() {
        return victim.t50();
    }
    let (ramp, n) = victim.ramp_points();
    let (clean, env) = (&ramp[..n], envelope.as_pwl());
    let crossing = match victim.edge() {
        Edge::Rising => Pwl::last_time_combined_at_or_below(clean, env, |c, e| c - e, 0.5),
        Edge::Falling => Pwl::last_time_combined_at_or_below(clean, env, |c, e| -(c + e), -0.5),
    };
    if crossing.is_finite() {
        crossing.max(victim.t50())
    } else {
        // Envelope never lets the waveform settle (cannot happen for
        // envelopes with decaying tails) or never disturbs it.
        victim.t50()
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
    use crate::{NoisePulse, TimeInterval, EPS};

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
