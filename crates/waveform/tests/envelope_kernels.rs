//! Envelope-cache and arena-kernel contracts of the enumeration hot loop:
//!
//! * a sum's peak never exceeds the sum of the peaks, and its support
//!   stays inside the union of the supports (the cached peak and support
//!   of a sum are consistent with its operands');
//! * the `_into` arena kernels are bitwise identical to their
//!   allocating twins, no matter what garbage the recycled buffer held;
//! * the crossing tracker behind `superposition::final_crossing` and
//!   `noisy_t50` is bitwise identical to measuring the materialized noisy
//!   waveform;
//! * the fused scorers `Envelope::sum_delay_noise` and
//!   `saturating_sub_delay_noise` are bitwise identical to the delay
//!   noise of the materialized sum and difference;
//! * the tail cut (the tracker stops once the final crossing is decided)
//!   moves no bit, at the `0.5 - GUARD` release boundary, on tails that
//!   never decay and on near-zero streams;
//! * the crossing-profile bound never exceeds the residual delay noise
//!   it bounds, on plateaus at the lowered level, near-collinear dents
//!   the residual simplifies away, and tails that never decay;
//! * the linear `Pwl::ge_over` walk gives the same verdict as
//!   evaluating both curves at every breakpoint by binary search;
//! * the segment cursor's `t == t0` shortcut keeps the interpolated
//!   value's signed zero.
//!
//! Every delay-noise reference here is cut-free: the materialized noisy
//! waveform, scanned right to left by `last_time_at_or_below` / `_above`.

use dna_waveform::superposition::{CrossingProfile, GUARD};
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

/// `delay_noise` measured the allocating way.
fn reference_delay_noise(victim: &Transition, env: &Envelope) -> f64 {
    (reference_t50(victim, env) - victim.t50()).max(0.0)
}

fn reference_crossing(victim: &Transition, env: &Envelope) -> f64 {
    let noisy = superposition::noisy_waveform(victim, env);
    match victim.edge() {
        Edge::Rising => noisy.last_time_at_or_below(0.5),
        Edge::Falling => noisy.last_time_at_or_above(0.5),
    }
}

/// Bit-equality of the kernel and of `noisy_t50` with their references;
/// the message names the case.
fn check_bitwise(victim: &Transition, env: &Envelope) -> Result<(), String> {
    let (got, want) = (superposition::final_crossing(victim, env), reference_crossing(victim, env));
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

/// A combined envelope operand: a sum of 0–3 windowed pulses (the zero
/// envelope when empty), optionally clipped to an analysis window.
fn operand_strategy() -> impl Strategy<Value = Envelope> {
    (
        prop::collection::vec(windowed_strategy(), 0..4),
        prop::bool::ANY,
        (-15.0..15.0f64, 0.0..30.0f64),
    )
        .prop_map(|(parts, clip, (lo, len))| {
            let sum = Envelope::sum_all(parts.iter());
            if clip {
                sum.clipped(TimeInterval::new(lo, lo + len))
            } else {
                sum
            }
        })
}

/// Bit-equality of both fused scorers with the delay noise of the
/// materialized result; the message names the case.
fn check_scorers(victim: &Transition, a: &Envelope, b: &Envelope) -> Result<(), String> {
    let got = a.sum_delay_noise(b, victim);
    let want = reference_delay_noise(victim, &a.sum(b));
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "sum_delay_noise {got} != {want} for {victim}: {} + {}",
            a.as_pwl(),
            b.as_pwl()
        ));
    }
    let got = a.saturating_sub_delay_noise(b, victim);
    let want = reference_delay_noise(victim, &a.saturating_sub(b));
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "saturating_sub_delay_noise {got} != {want} for {victim}: {} - {}",
            a.as_pwl(),
            b.as_pwl()
        ));
    }
    Ok(())
}

fn assert_scorers(victim: &Transition, a: &Envelope, b: &Envelope) {
    if let Err(msg) = check_scorers(victim, a, b) {
        panic!("{msg}");
    }
}

/// `Pwl::ge_over` as it was before the linear walk: a binary-search
/// `eval` of both curves at the interval ends and at every breakpoint of
/// either curve inside the interval.
fn ge_over_reference(a: &Pwl, b: &Pwl, interval: TimeInterval, tol: f64) -> bool {
    let check = |t: f64| a.eval(t) >= b.eval(t) - tol;
    if !check(interval.lo()) || !check(interval.hi()) {
        return false;
    }
    a.points()
        .iter()
        .chain(b.points())
        .map(|&(t, _)| t)
        .filter(|&t| interval.contains(t))
        .all(check)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both fused scorers on random operand pairs, zero operands
    /// included, in both orders, and on the elimination shape (a total
    /// minus one of its parts).
    #[test]
    fn fused_scorers_match_materialized_delay_noise(
        victim in victim_strategy(),
        a in operand_strategy(),
        b in operand_strategy(),
    ) {
        let total = a.sum(&b);
        for (x, y) in [(&a, &b), (&b, &a), (&total, &a), (&total, &b)] {
            let verdict = check_scorers(&victim, x, y);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }

    /// The linear `ge_over` walk against the binary-search reference, on
    /// unrelated pairs and on near-copies (where the verdict hangs on the
    /// tolerance).
    #[test]
    fn linear_ge_over_matches_binary_search_reference(
        a in operand_strategy(),
        b in operand_strategy(),
        (lo, len) in (-25.0..25.0f64, 0.0..50.0f64),
        scale in 0.999_999..1.000_001f64,
        tol_pick in 0..3usize,
    ) {
        let tol = [0.0, EPS, 1e-3][tol_pick];
        let iv = TimeInterval::new(lo, lo + len);
        let near = a.scaled(scale);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &near), (&near, &a), (&a, &a)] {
            let (x, y) = (x.as_pwl(), y.as_pwl());
            prop_assert!(
                x.ge_over(y, iv, tol) == ge_over_reference(x, y, iv, tol),
                "ge_over({}, {}, {}, {}) disagrees with the reference", x, y, iv, tol
            );
        }
    }
}

/// Operand breakpoints within `EPS` of either ramp end, of the ramp's
/// `t50`, and of each other — including operands whose first
/// breakpoints lie within `EPS` of each other, where the merge keeps
/// only the first of the pair.
#[test]
fn fused_scorers_with_near_coincident_breakpoints() {
    for edge in edges() {
        let victim = Transition::new(2.0, 10.0, edge);
        for anchor in [victim.start(), victim.t50(), victim.end()] {
            for ka in -3..=3 {
                for kb in -3..=3 {
                    let ta = anchor + f64::from(ka) * 0.5 * EPS;
                    let tb = anchor + f64::from(kb) * 0.5 * EPS;
                    for peak in [0.3, 0.6, 0.9] {
                        let rise =
                            Envelope::from_pulse(&NoisePulse::new(ta, ta + 2.0, peak, ta + 4.0));
                        let same_start =
                            Envelope::from_pulse(&NoisePulse::new(tb, tb + 1.0, peak, tb + 3.0));
                        let apex =
                            Envelope::from_pulse(&NoisePulse::new(tb - 4.0, tb, peak, tb + 3.0));
                        let fall =
                            Envelope::from_pulse(&NoisePulse::new(tb - 3.0, tb - 1.0, peak, tb));
                        for (x, y) in [
                            (&rise, &same_start),
                            (&same_start, &rise),
                            (&rise, &apex),
                            (&apex, &rise),
                            (&rise, &fall),
                            (&fall, &rise),
                            (&apex, &fall),
                        ] {
                            assert_scorers(&victim, x, y);
                            assert_scorers(&victim, &x.sum(y), y);
                        }
                    }
                }
            }
        }
    }
}

/// A ramp end exactly on an envelope breakpoint reads that breakpoint's
/// own value. Interpolating the segment that ends there instead gives
/// `v0 + (v1 - v0)`, one ulp off `v1` for these values, and the sample
/// lies on the final dip, so the crossing would move.
#[test]
fn ramp_end_on_a_breakpoint_reads_the_breakpoint_value() {
    let (v0, v1) = (0.144_329_896_907_216_48, 0.646_919_431_279_620_8);
    assert_ne!(v0 + (v1 - v0) * 4.0 / 4.0, v1, "the case needs a lossy interpolation");
    let curve = Pwl::new(vec![(2.0, 0.0), (6.0, v0), (10.0, v1), (14.0, 0.0)]).unwrap();
    let env = Envelope::from_curve(&curve);
    let far = Envelope::from_pulse(&NoisePulse::symmetric(30.0, 0.1, 4.0));
    for edge in edges() {
        let victim = Transition::new(0.0, 10.0, edge);
        assert_bitwise(&victim, &env);
        assert_scorers(&victim, &env, &far);
        assert_scorers(&victim, &env.sum(&far), &far);
    }
}

/// Zero operands take the short-circuits: a zero addend scores as the
/// other operand alone, subtracting zero scores the minuend, and a
/// cancelled difference scores zero.
#[test]
fn fused_scorers_short_circuit_zero_operands() {
    let pulse = Envelope::from_pulse(&NoisePulse::symmetric(4.0, 0.4, 4.0));
    for edge in edges() {
        for slew in [10.0, 0.5e-9] {
            let victim = Transition::new(1.0, slew, edge);
            let z = Envelope::zero();
            for (x, y) in [(&z, &pulse), (&pulse, &z), (&z, &z), (&pulse, &pulse)] {
                assert_scorers(&victim, x, y);
            }
            let alone = reference_delay_noise(&victim, &pulse);
            assert_eq!(z.sum_delay_noise(&pulse, &victim).to_bits(), alone.to_bits());
            assert_eq!(pulse.saturating_sub_delay_noise(&z, &victim).to_bits(), alone.to_bits());
            assert_eq!(pulse.saturating_sub_delay_noise(&pulse, &victim), 0.0);
        }
    }
}

/// `v0` with the interpolation's signed zero: what `(a + b)` samples at
/// `t`, by the full division formula and without the `t == t0`
/// shortcut.
fn reference_value(pts: &[(f64, f64)], t: f64) -> f64 {
    let idx = pts.partition_point(|&(pt, _)| pt <= t);
    if idx == 0 {
        return pts[0].1;
    }
    if idx == pts.len() {
        return pts[pts.len() - 1].1;
    }
    let ((t0, v0), (t1, v1)) = (pts[idx - 1], pts[idx]);
    if t1 - t0 <= EPS {
        return v1;
    }
    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
}

/// Breakpoints holding `-0.0`: the cursor's `t == t0` shortcut must
/// return the same signed zero as the division it skips, which a sum of
/// two `-0.0` samples makes visible in the output bits.
#[test]
fn cursor_shortcut_keeps_signed_zeros() {
    let a = Pwl::new(vec![(0.0, -0.0), (1.0, -0.0), (2.0, 0.5), (3.0, -0.0), (5.0, -0.0)]).unwrap();
    let b =
        Pwl::new(vec![(0.0, -0.0), (1.5, -0.0), (3.0, 0.25), (4.0, -0.0), (5.0, -0.0)]).unwrap();
    for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
        let mut times: Vec<f64> = x.points().iter().chain(y.points()).map(|&(t, _)| t).collect();
        times.sort_by(f64::total_cmp);
        times.dedup_by(|t, last| (*t - *last).abs() <= EPS);
        let sampled = times
            .iter()
            .map(|&t| (t, reference_value(x.points(), t) + reference_value(y.points(), t)))
            .collect();
        let want = Pwl::new(sampled).unwrap().simplified(EPS);
        let got = x.add_simplified(y, EPS);
        let bits = |p: &Pwl| -> Vec<(u64, u64)> {
            p.points().iter().map(|&(t, v)| (t.to_bits(), v.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&want), "{x} + {y}");
    }
    // The same curves as (unchecked) envelopes through the fused scorers.
    let (ea, eb) = (Envelope::from_pwl_unchecked(a), Envelope::from_pwl_unchecked(b));
    for edge in edges() {
        let victim = Transition::new(0.5, 3.0, edge);
        assert_scorers(&victim, &ea, &eb);
        assert_scorers(&victim, &eb, &ea);
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

/// Victims for the tail-cut cases: both edges, a normal ramp and a
/// zero-slew one (a single clean breakpoint).
fn cut_victims() -> impl Iterator<Item = Transition> {
    edges().into_iter().flat_map(|edge| [10.0, 0.5e-9].map(|slew| Transition::new(0.0, slew, edge)))
}

/// The measurement and both scorers on `env`, alone and next to a pulse
/// on the crossing, against the cut-free references.
fn assert_cut_free(env: &Envelope) {
    let on_crossing = Envelope::from_pulse(&NoisePulse::symmetric(3.0, 0.2, 4.0));
    for victim in cut_victims() {
        assert_bitwise(&victim, env);
        for other in [&on_crossing, &Envelope::zero()] {
            assert_scorers(&victim, env, other);
            assert_scorers(&victim, other, env);
            assert_scorers(&victim, &env.sum(other), other);
            assert_scorers(&victim, &env.sum(other), env);
        }
    }
}

/// A settled-side plateau at `level` from 12 to 30, after a hump on the
/// crossing; the breakpoint after the plateau (32) is the release when
/// `level` is not below `0.5 - GUARD`.
fn plateau_tail(level: f64) -> Envelope {
    let curve = Pwl::new(vec![
        (0.0, 0.0),
        (4.0, 0.3),
        (6.0, 0.3),
        (8.0, 0.0),
        (12.0, level),
        (30.0, level),
        (32.0, 0.0),
        (40.0, 0.0),
    ])
    .unwrap();
    Envelope::from_curve(&curve)
}

/// A tail exactly at, one ulp under and one ulp over `0.5 - GUARD`: only
/// a tail below the level releases, and none of the three moves a bit.
#[test]
fn tail_cut_at_the_release_level_boundary() {
    let level = 0.5 - superposition::GUARD;
    for (tail, release) in [
        (level, 32.0),
        (level.next_down(), f64::NEG_INFINITY),
        (level.next_up(), 32.0),
        (0.5, 32.0),
        (0.7, 32.0),
    ] {
        let env = plateau_tail(tail);
        assert_eq!(env.release(), release, "tail {tail}");
        assert!(env.cache_is_consistent());
        assert_cut_free(&env);
    }
}

/// Tails that never decay: a curve ending high keeps `release = +inf`
/// (the cut never fires), one ending low but non-zero stays on the
/// settled side through its constant extension.
#[test]
fn tail_cut_on_tails_that_never_decay() {
    for (end, release) in [(0.7, f64::INFINITY), (0.5, f64::INFINITY), (0.2, 14.0)] {
        let curve = Pwl::new(vec![(0.0, 0.0), (4.0, 0.3), (8.0, 0.6), (14.0, end)]).unwrap();
        let env = Envelope::from_pwl_unchecked(curve);
        assert_eq!(env.release(), release, "tail {end}");
        assert_cut_free(&env);
    }
}

/// A stream whose peak is still at most EPS when the ramp saturates must
/// not stop there: a later low bump lifts the peak above EPS and turns
/// the zero-envelope rule off, so the tiny shift on the crossing counts.
/// A non-negative sub-EPS hump simplifies away, and a zero operand takes
/// the short-circuit, so the case is built from (unchecked) operands
/// that cancel early and leave the hump on negative values.
#[test]
fn tail_cut_waits_for_the_zero_envelope_rule() {
    let a = Envelope::from_pwl_unchecked(
        Pwl::new(vec![
            (0.0, 0.0),
            (1.0, -0.3),
            (2.0, 0.0),
            (4.0, -2e-9),
            (5.0, 1e-9),
            (6.0, -2e-9),
            (8.0, 0.0),
            (46.0, 0.0),
            (48.0, 0.3),
            (50.0, 0.0),
        ])
        .unwrap(),
    );
    let b = Envelope::from_pulse(&NoisePulse::symmetric(0.0, 0.3, 2.0));
    for edge in edges() {
        let victim = Transition::new(0.0, 10.0, edge);
        let want = reference_delay_noise(&victim, &a.sum(&b));
        assert!(want > 0.0, "the case needs a shift that only the late bump makes count");
        assert_scorers(&victim, &a, &b);
    }
    // Near-zero streams: a cancelled difference, and the sub-EPS hump
    // alone.
    let hump = Envelope::from_pwl_unchecked(
        Pwl::new(vec![(0.0, 0.0), (4.0, -2e-9), (5.0, 1e-9), (6.0, -2e-9), (8.0, 0.0)]).unwrap(),
    );
    assert!(hump.is_zero());
    let late = Envelope::from_pulse(&NoisePulse::symmetric(48.0, 0.3, 4.0));
    assert_cut_free(&hump);
    for victim in cut_victims() {
        assert_scorers(&victim, &late, &late);
        assert_scorers(&victim, &a, &late);
    }
}

/// A long train of low pulses after the ramp: the stream the cut skips.
fn train_strategy() -> impl Strategy<Value = Envelope> {
    (10.0..40.0f64, prop::collection::vec((0.01..0.49f64, 1.0..8.0f64, 0.0..6.0f64), 1..12))
        .prop_map(|(mut at, pulses)| {
            let mut train = Envelope::zero();
            for (peak, width, gap) in pulses {
                train = train.sum(&Envelope::from_pulse(&NoisePulse::new(
                    at,
                    at + width / 2.0,
                    peak,
                    at + width,
                )));
                at += gap;
            }
            train
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Operands with long settled tails (overlapping low pulses may add
    /// up past the level) against the cut-free references.
    #[test]
    fn tail_cut_matches_cut_free_reference(
        victim in victim_strategy(),
        head in operand_strategy(),
        train in train_strategy(),
    ) {
        let member = head.sum(&train);
        for (x, y) in [(&head, &train), (&train, &head), (&member, &head), (&member, &train)] {
            let verdict = check_scorers(&victim, x, y);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
        let verdict = check_bitwise(&victim, &member);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// The profile bound of `member ⊖ atom` against the fused score it
/// bounds; the message names the case.
fn check_profile_bound(
    victim: &Transition,
    member: &Envelope,
    atom: &Envelope,
) -> Result<(), String> {
    let bound = CrossingProfile::new(victim, member).sub_delay_noise_bound(atom.peak());
    let score = member.saturating_sub_delay_noise(atom, victim);
    if bound <= score {
        Ok(())
    } else {
        Err(format!(
            "bound {bound} above the score {score} for {victim}: {} - {}",
            member.as_pwl(),
            atom.as_pwl()
        ))
    }
}

fn assert_profile_bound(victim: &Transition, member: &Envelope, atom: &Envelope) {
    if let Err(msg) = check_profile_bound(victim, member, atom) {
        panic!("{msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random members and atoms on every victim shape: a total minus one
    /// of its own parts (the `total ⊖ atom` shape), minus a foreign
    /// operand scaled up to three times (atom peaks well past 0.5), minus
    /// itself (a zero residual) and minus nothing.
    #[test]
    fn crossing_profile_bounds_the_residual_delay_noise(
        victim in victim_strategy(),
        parts in prop::collection::vec(windowed_strategy(), 1..7),
        pick in 0..6usize,
        other in operand_strategy(),
        scale in 0.0..3.0f64,
    ) {
        let total = Envelope::sum_all(parts.iter());
        let part = &parts[pick % parts.len()];
        let scaled = other.scaled(scale);
        for member in [&total, &other] {
            for atom in [part, &other, &scaled, member, &Envelope::zero()] {
                let verdict = check_profile_bound(&victim, member, atom);
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }
}

/// A flat-topped atom of peak `peak` over `[lo, hi]`.
fn flat_atom(peak: f64, lo: f64, hi: f64) -> Envelope {
    Envelope::from_curve(
        &Pwl::new(vec![(lo - 1.0, 0.0), (lo, peak), (hi, peak), (hi + 1.0, 0.0)]).unwrap(),
    )
}

/// A member whose noisy waveform holds a plateau at the lowered level
/// `0.5 - A - GUARD` over `[20, 30]` (on either edge, once the ramp has
/// settled), and one `GUARD` under it: an atom of peak `A` flat over the
/// plateau leaves the residual just under 50 % there, so its crossing is
/// no earlier than the plateau's right end, which the bound reads once
/// the plateau is clearly under the level.
#[test]
fn crossing_profile_on_a_plateau_at_the_lowered_level() {
    for a in [0.0, 0.1, 0.3, 0.6] {
        for (lift, reads_plateau) in [(GUARD, false), (2.0 * GUARD, true)] {
            let m = 0.5 + a + lift;
            let member = Envelope::from_curve(
                &Pwl::new(vec![(14.0, 0.0), (20.0, m), (30.0, m), (36.0, 0.0)]).unwrap(),
            );
            let atoms = [flat_atom(a, 18.0, 32.0), flat_atom(a, 0.0, 5.0), Envelope::zero()];
            for victim in cut_victims() {
                let bound = CrossingProfile::new(&victim, &member).sub_delay_noise_bound(a);
                if reads_plateau {
                    let end = 30.0 - victim.t50();
                    assert!(bound >= end - 1e-9, "the plateau's end counts: {bound} < {end}");
                }
                for atom in atoms.iter().filter(|x| x.peak() <= a) {
                    assert_profile_bound(&victim, &member, atom);
                }
            }
        }
    }
}

/// A near-collinear dent: the member's middle breakpoint (t = 25) sits
/// `EPS / 2` above its neighbours' chord and exactly `A + EPS / 2` over
/// 50 %. The residual `member - A` simplifies that breakpoint away, so
/// its waveform crosses 50 % at 25 on the chord — while the member's
/// own sample at 25 lies at `0.5 - A - EPS / 2`. Only the `GUARD` margin
/// keeps the bound from reading that sample.
#[test]
fn crossing_profile_guard_covers_a_simplified_dent() {
    let a = 0.2;
    let dent = EPS / 2.0;
    let member = Envelope::from_pwl_unchecked(
        Pwl::new(vec![
            (14.0, 0.0),
            (20.0, 0.6 + a),
            (25.0, 0.5 + a + dent),
            (30.0, 0.4 + a),
            (36.0, 0.0),
        ])
        .unwrap(),
    );
    let atom = flat_atom(a, 0.0, 50.0);
    for edge in edges() {
        let victim = Transition::new(0.0, 10.0, edge);
        let score = member.saturating_sub_delay_noise(&atom, &victim);
        assert!(
            (score - (25.0 - victim.t50())).abs() < 1e-6,
            "the residual crosses at 25: {score}"
        );
        assert_profile_bound(&victim, &member, &atom);
    }
}

/// Tails that never settle above 50 %: the residual of an atom on the
/// member's early dip keeps the unsettled tail, never crosses for good,
/// and scores zero — the bound must too. A tail settled past the guard
/// still gives a bound.
#[test]
fn crossing_profile_on_tails_that_never_decay() {
    let atom = flat_atom(0.2, 11.0, 13.0);
    for (tail, bounded) in [(0.55, false), (0.5, false), (0.7, false), (0.2, true)] {
        let member = Envelope::from_pwl_unchecked(
            Pwl::new(vec![(8.0, 0.0), (12.0, 0.8), (14.0, tail), (40.0, tail)]).unwrap(),
        );
        for edge in edges() {
            let victim = Transition::new(0.0, 10.0, edge);
            let bound = CrossingProfile::new(&victim, &member).sub_delay_noise_bound(atom.peak());
            assert_eq!(bound > 0.0, bounded, "tail {tail}: bound {bound}");
            assert_profile_bound(&victim, &member, &atom);
        }
    }
}
