//! Envelope-cache and arena-kernel contracts of the enumeration hot loop:
//!
//! * a sum's peak never exceeds the sum of the peaks, and its support
//!   stays inside the union of the supports (the cached peak and support
//!   of a sum are consistent with its operands');
//! * the `_into` arena kernels are bitwise identical to their
//!   allocating twins, no matter what garbage the recycled buffer held.

use dna_waveform::{Envelope, NoisePulse};

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
