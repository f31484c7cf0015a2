//! Dominance pruning: irredundant lists (paper §3.2, Theorem 1).

use std::collections::HashSet;

use dna_waveform::TimeInterval;

use crate::{Candidate, CouplingSet};

/// Which way envelope encapsulation means "better".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominanceDirection {
    /// Addition mode: a candidate whose envelope encapsulates another's can
    /// never couple less delay noise (Theorem 1) — **bigger** envelopes
    /// dominate.
    BiggerIsBetter,
    /// Elimination mode: candidates carry *residual* envelopes and the
    /// residual that is encapsulated **by** the other's leaves less noise
    /// behind — **smaller** envelopes dominate.
    SmallerIsBetter,
}

/// Reduces `candidates` (all of the same cardinality, rendered at the same
/// victim) to an irredundant list.
///
/// Steps, in order:
///
/// 1. sort best-first by cached delay noise (direction-aware),
/// 2. deduplicate identical coupling sets (keeping the best occurrence),
/// 3. with a beam configured, pre-truncate to a bounded oversample,
/// 4. drop every candidate dominated by another within the victim's
///    `dominance_interval` (skipped when `use_dominance` is false, for the
///    ablation study) — an O(1) cached-bound prefilter rejects provably
///    non-dominating pairs before any full PWL comparison,
/// 5. apply the optional beam cap, keeping the candidates that are best by
///    cached delay noise — largest for addition, smallest for elimination.
///
/// Ties under mutual encapsulation (identical envelopes) keep the
/// earlier candidate so the result is deterministic.
#[must_use]
pub fn irredundant(
    candidates: Vec<Candidate>,
    dominance_interval: TimeInterval,
    direction: DominanceDirection,
    use_dominance: bool,
    beam: Option<usize>,
) -> Vec<Candidate> {
    irredundant_with_discard(candidates, dominance_interval, direction, use_dominance, beam, |_| {})
}

/// [`irredundant`] handing every dropped candidate to `discard` instead of
/// silently dropping it — the enumeration hot loop recycles their envelope
/// breakpoint buffers through the per-worker scratch arena. The kept list
/// (contents and order) is identical to [`irredundant`]'s.
pub fn irredundant_with_discard(
    mut candidates: Vec<Candidate>,
    dominance_interval: TimeInterval,
    direction: DominanceDirection,
    use_dominance: bool,
    beam: Option<usize>,
    mut discard: impl FnMut(Candidate),
) -> Vec<Candidate> {
    // 1. Sort best-delay-noise-first (direction-aware). Ordering first
    // means the dedupe below keeps the *best* candidate per coupling set —
    // the same set can be generated through different routes (e.g. as a
    // fanin pseudo aggressor and as a window widener) with different
    // envelopes.
    // `total_cmp`, not `partial_cmp(..).expect(..)`: one degenerate
    // candidate smuggled in with a NaN delay noise (e.g. through the
    // raw-parts escape hatch, or a `0.0 / 0.0` in a broken envelope)
    // must not abort the whole sweep. Under the IEEE total order NaN
    // sorts above every number, so `BiggerIsBetter` would rank it first;
    // the explicit non-finite demotion keeps such candidates *worst* in
    // either direction, where the beam cap and dominance pass dispose of
    // them deterministically.
    candidates.sort_by(|a, b| {
        match (a.delay_noise().is_finite(), b.delay_noise().is_finite()) {
            (true, false) => return std::cmp::Ordering::Less,
            (false, true) => return std::cmp::Ordering::Greater,
            _ => {}
        }
        let ord = a.delay_noise().total_cmp(&b.delay_noise());
        match direction {
            DominanceDirection::BiggerIsBetter => ord.reverse(),
            DominanceDirection::SmallerIsBetter => ord,
        }
    });

    // 2. Dedupe by coupling set, keeping the best occurrence. The keep
    // mask borrows the sets, so no candidate's set is cloned.
    let keep: Vec<bool> = {
        let mut seen: HashSet<&CouplingSet> = HashSet::with_capacity(candidates.len());
        candidates.iter().map(|c| seen.insert(c.set())).collect()
    };
    let mut unique: Vec<Candidate> = Vec::with_capacity(candidates.len());
    for (c, keep) in candidates.into_iter().zip(keep) {
        if keep {
            unique.push(c);
        } else {
            discard(c);
        }
    }
    let mut candidates = unique;

    // 3. With a beam configured, pre-truncate (already sorted) so the
    // quadratic dominance pass below runs on a bounded set. The
    // oversampling factor keeps enough diversity for dominance to matter;
    // exact mode (no beam) skips this entirely.
    if let Some(width) = beam {
        let cap = width.saturating_mul(4).max(64);
        if candidates.len() > cap {
            for c in candidates.drain(cap..) {
                discard(c);
            }
        }
    }

    // 4. Dominance pruning, exploiting the ordering invariant: an
    // envelope that encapsulates another produces at least as much delay
    // noise (Theorem 1 with the empty extension), so only *earlier*
    // candidates can dominate later ones. One forward sweep against the
    // kept list suffices. The O(1) cached-bound prefilter
    // (`may_encapsulate`) proves most pairs non-dominating without
    // touching their breakpoint lists, so the expensive PWL comparison
    // runs only on plausible pairs.
    if use_dominance && candidates.len() > 1 {
        let mut kept: Vec<Candidate> = Vec::with_capacity(candidates.len().min(64));
        let mut iter = candidates.into_iter();
        'next: for cand in iter.by_ref() {
            for winner in &kept {
                let (big, small) = match direction {
                    DominanceDirection::BiggerIsBetter => (winner, &cand),
                    DominanceDirection::SmallerIsBetter => (&cand, winner),
                };
                let dominated =
                    big.envelope().may_encapsulate(small.envelope(), dominance_interval)
                        && big.envelope().encapsulates(small.envelope(), dominance_interval);
                if dominated {
                    discard(cand);
                    continue 'next;
                }
            }
            kept.push(cand);
            // A full beam of mutually non-dominated candidates is enough —
            // anything sorted after them is either dominated or outside
            // the beam anyway.
            if let Some(width) = beam {
                if kept.len() >= width {
                    break;
                }
            }
        }
        for cand in iter {
            discard(cand);
        }
        candidates = kept;
    }

    // 5. Beam cap (already sorted best-first).
    if let Some(width) = beam {
        if candidates.len() > width {
            for c in candidates.drain(width..) {
                discard(c);
            }
        }
    }
    debug_assert!(
        !use_dominance || find_dominated_pair(&candidates, dominance_interval, direction).is_none(),
        "irredundant() output contains a dominated pair"
    );
    candidates
}

/// Finds a redundant pair in a **ranked** candidate list, if any.
///
/// `candidates` is assumed sorted best-first by cached delay noise, the
/// order [`irredundant`] produces. Returns `Some((winner, loser))` —
/// indices with `winner < loser` such that the better-ranked
/// `candidates[winner]` dominates `candidates[loser]` under `direction`
/// over `dominance_interval` — or `None` when every candidate earns its
/// slot. Identical envelopes count as dominance, mirroring
/// [`irredundant`] which keeps only one of a tied pair.
///
/// Only the earlier-dominates-later direction is checked: that is the
/// exact post-condition of [`irredundant`]'s forward sweep. The reverse
/// (a worse-ranked candidate whose envelope encapsulates a better-ranked
/// one) can legitimately survive, because the cached delay noise is
/// measured on the victim's clip window while encapsulation is tested on
/// the (narrower) dominance interval, and the two can disagree near ties.
///
/// A `debug_assert!` checks this after every prune, and the `dna-lint`
/// rule `L030` applies it to engine state. Quadratic — meant for checks,
/// not hot paths.
#[must_use]
pub fn find_dominated_pair(
    candidates: &[Candidate],
    dominance_interval: TimeInterval,
    direction: DominanceDirection,
) -> Option<(usize, usize)> {
    for i in 0..candidates.len() {
        for j in (i + 1)..candidates.len() {
            let (a, b) = (&candidates[i], &candidates[j]);
            let (big, small) = match direction {
                DominanceDirection::BiggerIsBetter => (a, b),
                DominanceDirection::SmallerIsBetter => (b, a),
            };
            // Same cheap-reject prefilter as `irredundant`: a pair the
            // cached bounds prove non-dominating skips the PWL comparison.
            let i_wins = big.envelope().may_encapsulate(small.envelope(), dominance_interval)
                && big.envelope().encapsulates(small.envelope(), dominance_interval);
            if i_wins {
                return Some((i, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::CouplingId;
    use dna_waveform::{Envelope, NoisePulse};

    fn cand(ids: &[u32], peak: f64, width: f64, dn: f64) -> Candidate {
        let set = ids.iter().map(|&i| CouplingId::new(i)).collect();
        let env = Envelope::from_window(&NoisePulse::symmetric(0.0, peak, 4.0), 0.0, width);
        Candidate::new(set, env, dn)
    }

    fn interval() -> TimeInterval {
        TimeInterval::new(-5.0, 40.0)
    }

    #[test]
    fn dedupes_identical_sets_keeping_best() {
        let c = vec![cand(&[1], 0.2, 5.0, 1.0), cand(&[1], 0.3, 9.0, 2.0)];
        let out = irredundant(c, interval(), DominanceDirection::BiggerIsBetter, true, None);
        assert_eq!(out.len(), 1);
        // The best occurrence wins: the same set can be generated through
        // different routes with different envelopes.
        assert_eq!(out[0].delay_noise(), 2.0);
        // In elimination direction the smaller residual wins instead.
        let c = vec![cand(&[1], 0.3, 9.0, 2.0), cand(&[1], 0.2, 5.0, 1.0)];
        let out = irredundant(c, interval(), DominanceDirection::SmallerIsBetter, true, None);
        assert_eq!(out[0].delay_noise(), 1.0);
    }

    #[test]
    fn bigger_envelope_dominates_in_addition() {
        let big = cand(&[1], 0.4, 10.0, 3.0);
        let small = cand(&[2], 0.2, 5.0, 1.0);
        let out = irredundant(
            vec![small, big],
            interval(),
            DominanceDirection::BiggerIsBetter,
            true,
            None,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].set().contains(CouplingId::new(1)));
    }

    #[test]
    fn smaller_envelope_dominates_in_elimination() {
        let big = cand(&[1], 0.4, 10.0, 3.0);
        let small = cand(&[2], 0.2, 5.0, 1.0);
        let out = irredundant(
            vec![big, small],
            interval(),
            DominanceDirection::SmallerIsBetter,
            true,
            None,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].set().contains(CouplingId::new(2)));
    }

    #[test]
    fn incomparable_candidates_both_survive() {
        // Same shape, disjoint supports: mutually non-dominated.
        let a = Candidate::new(
            CouplingSet::singleton(CouplingId::new(1)),
            Envelope::from_pulse(&NoisePulse::symmetric(0.0, 0.3, 4.0)),
            1.0,
        );
        let b = Candidate::new(
            CouplingSet::singleton(CouplingId::new(2)),
            Envelope::from_pulse(&NoisePulse::symmetric(20.0, 0.3, 4.0)),
            1.0,
        );
        let out =
            irredundant(vec![a, b], interval(), DominanceDirection::BiggerIsBetter, true, None);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn equal_envelopes_keep_first() {
        let a = cand(&[1], 0.3, 6.0, 2.0);
        let b = cand(&[2], 0.3, 6.0, 2.0);
        let out =
            irredundant(vec![a, b], interval(), DominanceDirection::BiggerIsBetter, true, None);
        assert_eq!(out.len(), 1);
        assert!(out[0].set().contains(CouplingId::new(1)));
    }

    #[test]
    fn nan_delay_noise_does_not_panic_and_ranks_worst() {
        // Regression: the sort comparator used
        // `partial_cmp(..).expect("finite delay noise")`, so a single
        // degenerate candidate (NaN cached delay noise, e.g. from a
        // zero-width envelope dividing 0.0 by 0.0) aborted the whole
        // sweep. `total_cmp` plus the non-finite demotion must survive it
        // and rank the degenerate entry last in either direction.
        // Disjoint support from the finite candidate, so dominance cannot
        // dispose of it and the *ordering* itself is what's under test.
        let nan = Candidate::from_raw_unchecked(
            CouplingSet::singleton(CouplingId::new(9)),
            Envelope::from_pulse(&NoisePulse::symmetric(20.0, 0.3, 4.0)),
            f64::NAN,
        );
        let good = cand(&[1], 0.3, 6.0, 2.0);
        for direction in [DominanceDirection::BiggerIsBetter, DominanceDirection::SmallerIsBetter] {
            let out =
                irredundant(vec![nan.clone(), good.clone()], interval(), direction, true, None);
            assert_eq!(out.len(), 2);
            assert_eq!(out[0].delay_noise(), 2.0, "finite candidate must rank first");
            assert!(out[1].delay_noise().is_nan());
        }
        // With a beam of 1, the degenerate candidate is squeezed out
        // entirely — never chosen over a finite one.
        let out = irredundant(
            vec![nan, good],
            interval(),
            DominanceDirection::BiggerIsBetter,
            true,
            Some(1),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].delay_noise().is_finite());
    }

    #[test]
    fn pruning_disabled_keeps_everything_distinct() {
        let c = vec![cand(&[1], 0.4, 10.0, 3.0), cand(&[2], 0.2, 5.0, 1.0)];
        let out = irredundant(c, interval(), DominanceDirection::BiggerIsBetter, false, None);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn beam_keeps_best_by_direction() {
        let c = vec![
            Candidate::new(
                CouplingSet::singleton(CouplingId::new(1)),
                Envelope::from_pulse(&NoisePulse::symmetric(0.0, 0.3, 4.0)),
                1.0,
            ),
            Candidate::new(
                CouplingSet::singleton(CouplingId::new(2)),
                Envelope::from_pulse(&NoisePulse::symmetric(50.0, 0.3, 4.0)),
                5.0,
            ),
            Candidate::new(
                CouplingSet::singleton(CouplingId::new(3)),
                Envelope::from_pulse(&NoisePulse::symmetric(100.0, 0.3, 4.0)),
                3.0,
            ),
        ];
        let add = irredundant(
            c.clone(),
            TimeInterval::new(-5.0, 200.0),
            DominanceDirection::BiggerIsBetter,
            true,
            Some(2),
        );
        assert_eq!(add.len(), 2);
        assert!(add.iter().any(|x| x.delay_noise() == 5.0));
        assert!(add.iter().all(|x| x.delay_noise() >= 3.0));

        let del = irredundant(
            c,
            TimeInterval::new(-5.0, 200.0),
            DominanceDirection::SmallerIsBetter,
            true,
            Some(1),
        );
        assert_eq!(del.len(), 1);
        assert_eq!(del[0].delay_noise(), 1.0);
    }
}
