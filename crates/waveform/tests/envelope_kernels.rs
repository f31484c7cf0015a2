//! Envelope-cache and arena-kernel contracts of the enumeration hot loop:
//!
//! * a sum's peak never exceeds the sum of the peaks, and its support
//!   stays inside the union of the supports (the cached peak and support
//!   of a sum are consistent with its operands');
//! * the `_into` arena kernels are bitwise identical to their
//!   allocating twins, no matter what garbage the recycled buffer held;
//! * the streaming delay-noise kernel behind `superposition::noisy_t50`
//!   is bitwise identical to measuring the materialized noisy waveform.

use dna_waveform::{superposition, Edge, Envelope, NoisePulse, Pwl, TimeInterval, Transition, EPS};
use proptest::prelude::*;

/// A small zoo of envelope shapes: narrow/wide, early/late, degenerate
/// windows and broad ones, distinct peaks.
fn zoo() -> Vec<Envelope> {
    let mut z = Vec::new();
    for (start, peak_t, peak, end, eat, lat) in [
        (0.0, 2.0, 0.4, 6.0, 10.0, 20.0),
        (0.0, 1.0, 0.9, 2.0, 11.5, 11.5),
        (0.0, 0.5, 0.2, 4.0, 0.0, 3.0),
        (0.0, 3.0, 1.3, 3.5, 18.0, 25.0),
        (0.0, 0.1, 0.05, 0.2, 14.0, 14.1),
    ] {
        z.push(Envelope::from_window(&NoisePulse::new(start, peak_t, peak, end), eat, lat));
    }
    z.push(Envelope::zero());
    z
}

fn bits(e: &Envelope) -> Vec<(u64, u64)> {
    e.as_pwl().points().iter().map(|&(t, v)| (t.to_bits(), v.to_bits())).collect()
}

/// The sum's peak is bounded by the sum of peaks, and no noise appears
/// outside the union of the supports.
#[test]
fn sum_peak_and_support_bounds_are_sound() {
    let zoo = zoo();
    for a in &zoo {
        for b in &zoo {
            let s = a.sum(b);
            assert!(
                s.peak() <= a.peak() + b.peak() + 1e-9,
                "sum peak {} exceeds peak bound {} + {}",
                s.peak(),
                a.peak(),
                b.peak()
            );
            if !s.is_zero() {
                assert!(s.support_lo() >= a.support_lo().min(b.support_lo()) - 1e-9);
                assert!(s.support_hi() <= a.support_hi().max(b.support_hi()) + 1e-9);
            }
            // Dense pointwise spot-check of the same claim.
            for i in 0..=200 {
                let t = -2.0 + 0.2 * f64::from(i);
                assert!(s.eval(t) <= a.peak() + b.peak() + 1e-9);
            }
        }
    }
}

/// The arena kernels must be *bitwise* interchangeable with the
/// allocating paths — every enumeration result rests on this.
#[test]
fn into_kernels_match_allocating_twins_bitwise() {
    let zoo = zoo();
    // Recycled buffers arrive with arbitrary stale contents and capacity.
    let dirty = || vec![(f64::NAN, f64::INFINITY); 7];
    for a in &zoo {
        for b in &zoo {
            let sum = a.sum(b);
            let sum_arena = a.sum_into(b, dirty());
            assert_eq!(bits(&sum), bits(&sum_arena), "sum_into diverges");

            let sub = a.saturating_sub(b);
            let sub_arena = a.saturating_sub_into(b, dirty());
            assert_eq!(bits(&sub), bits(&sub_arena), "saturating_sub_into diverges");

            // Round-trip: the result's buffer reclaims for the next call.
            let recycled = sum_arena.reclaim_points();
            let again = a.sum_into(b, recycled);
            assert_eq!(bits(&sum), bits(&again), "recycled buffer corrupts the sum");
        }
    }
}

/// `noisy_t50` measured the allocating way: build the noisy waveform,
/// take its final crossing, floor it at the noiseless `t50`.
fn reference_t50(victim: &Transition, env: &Envelope) -> f64 {
    if env.is_zero() {
        return victim.t50();
    }
    let crossing = reference_crossing(victim, env);
    if crossing.is_finite() {
        crossing.max(victim.t50())
    } else {
        victim.t50()
    }
}

fn reference_crossing(victim: &Transition, env: &Envelope) -> f64 {
    let noisy = superposition::noisy_waveform(victim, env);
    match victim.edge() {
        Edge::Rising => noisy.last_time_at_or_below(0.5),
        Edge::Falling => noisy.last_time_at_or_above(0.5),
    }
}

/// The streamed crossing before the `t50` floor, which would otherwise
/// hide disagreements on early crossings and on the `±INFINITY` cases.
fn streamed_crossing(victim: &Transition, env: &Envelope) -> f64 {
    let clean = victim.to_pwl();
    match victim.edge() {
        Edge::Rising => {
            Pwl::last_time_combined_at_or_below(clean.points(), env.as_pwl(), |c, e| c - e, 0.5)
        }
        Edge::Falling => {
            Pwl::last_time_combined_at_or_below(clean.points(), env.as_pwl(), |c, e| -(c + e), -0.5)
        }
    }
}

/// Bit-equality of the kernel and of `noisy_t50` with their references;
/// the message names the case.
fn check_bitwise(victim: &Transition, env: &Envelope) -> Result<(), String> {
    let (got, want) = (streamed_crossing(victim, env), reference_crossing(victim, env));
    if got.to_bits() != want.to_bits() {
        return Err(format!("crossing {got} != {want} for {victim} and {}", env.as_pwl()));
    }
    let (got, want) = (superposition::noisy_t50(victim, env), reference_t50(victim, env));
    if got.to_bits() != want.to_bits() {
        return Err(format!("noisy_t50 {got} != {want} for {victim} and {}", env.as_pwl()));
    }
    Ok(())
}

fn assert_bitwise(victim: &Transition, env: &Envelope) {
    if let Err(msg) = check_bitwise(victim, env) {
        panic!("{msg}");
    }
}

fn edges() -> [Edge; 2] {
    [Edge::Rising, Edge::Falling]
}

/// A victim ramp: rising or falling, and with `tiny` a slew at or below
/// `EPS`, which collapses the clean ramp to a single breakpoint.
fn victim_strategy() -> impl Strategy<Value = Transition> {
    (-10.0..10.0f64, 0.5..25.0f64, prop::bool::ANY, prop::bool::ANY).prop_map(
        |(start, slew, rising, tiny)| {
            let slew = if tiny { slew * 4e-11 } else { slew };
            Transition::new(start, slew, if rising { Edge::Rising } else { Edge::Falling })
        },
    )
}

/// One aggressor's windowed pulse near the victim.
fn windowed_strategy() -> impl Strategy<Value = Envelope> {
    (-20.0..30.0f64, 0.01..0.9f64, 0.5..12.0f64, 0.0..1.0f64, 0.0..8.0f64).prop_map(
        |(start, peak, width, skew, window)| {
            let pulse = NoisePulse::new(start, start + skew * width, peak, start + width);
            Envelope::from_window(&pulse, 0.0, window)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sums of 1–6 windowed pulses, optionally clipped to an analysis
    /// window, against every victim shape.
    #[test]
    fn streamed_t50_matches_materialized_reference(
        victim in victim_strategy(),
        parts in prop::collection::vec(windowed_strategy(), 1..7),
        clip in prop::bool::ANY,
        (lo, len) in (-15.0..15.0f64, 0.0..30.0f64),
    ) {
        let sum = Envelope::sum_all(parts.iter());
        let env = if clip { sum.clipped(TimeInterval::new(lo, lo + len)) } else { sum };
        let verdict = check_bitwise(&victim, &env);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

#[test]
fn zero_envelope_returns_the_clean_t50() {
    for edge in edges() {
        for slew in [10.0, 0.5e-9] {
            let victim = Transition::new(1.0, slew, edge);
            assert_bitwise(&victim, &Envelope::zero());
            assert_eq!(superposition::noisy_t50(&victim, &Envelope::zero()), victim.t50());
        }
    }
}

/// A flat-topped envelope of exactly 0.5 over the settled ramp leaves the
/// noisy waveform sitting exactly on the level: the crossing is the
/// plateau's right edge.
#[test]
fn plateau_exactly_at_the_level() {
    let pulse = NoisePulse::new(0.0, 1.0, 0.5, 2.0);
    let env = Envelope::from_window(&pulse, 12.0, 20.0);
    for edge in edges() {
        let victim = Transition::new(0.0, 10.0, edge);
        assert_bitwise(&victim, &env);
        assert_eq!(superposition::noisy_t50(&victim, &env), 21.0);
    }
}

/// Tall pulses after the ramp settles drag the waveform back across the
/// level several times; only the final crossing counts.
#[test]
fn multiple_recrossings_take_the_last() {
    let env = Envelope::sum_all(
        [14.0, 22.0, 30.0]
            .iter()
            .map(|&at| Envelope::from_pulse(&NoisePulse::symmetric(at, 0.8, 4.0))),
    );
    for edge in edges() {
        let victim = Transition::new(0.0, 10.0, edge);
        assert_bitwise(&victim, &env);
        assert!(superposition::noisy_t50(&victim, &env) > 30.0);
    }
}

/// Envelope breakpoints within (and just beyond) `EPS` of either ramp end
/// exercise the merge's near-coincident time deduplication.
#[test]
fn breakpoints_near_the_ramp_ends() {
    for edge in edges() {
        let victim = Transition::new(2.0, 10.0, edge);
        for anchor in [victim.start(), victim.end()] {
            for k in -3..=3 {
                let at = anchor + f64::from(k) * 0.5 * EPS;
                for peak in [0.3, 0.6, 0.9] {
                    for (start, peak_time, end) in [
                        (at, at + 2.0, at + 4.0),
                        (at - 4.0, at, at + 4.0),
                        (at - 4.0, at - 2.0, at),
                    ] {
                        let env =
                            Envelope::from_pulse(&NoisePulse::new(start, peak_time, peak, end));
                        assert_bitwise(&victim, &env);
                    }
                }
            }
        }
    }
}
