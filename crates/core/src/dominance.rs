//! Dominance pruning: irredundant lists (paper §3.2, Theorem 1).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dna_waveform::TimeInterval;

use crate::Candidate;

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
/// Steps 1–3 are `rank`, which the enumeration also runs on its scored
/// records before it builds any envelope; steps 4–5 need envelopes.
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
    let order = rank(
        &candidates,
        Candidate::delay_noise,
        |c| c.set().key(),
        |a, b| a.set() == b.set(),
        direction,
        beam,
    );
    let mut slots: Vec<Option<Candidate>> = candidates.into_iter().map(Some).collect();
    let ranked =
        order.iter().map(|&i| slots[i as usize].take().expect("rank returns distinct indices"));
    prune(ranked.collect(), dominance_interval, direction, use_dominance, beam)
}

/// Steps 1–3 of [`irredundant`] over any records with a score and a
/// coupling-set key: the indices of the records that survive, best
/// first.
///
/// 1. Sort best-first by `score`, direction-aware, equal scores in input
///    order (an unstable sort on `(score, index)`, which is the stable
///    order). Non-finite scores rank worst in either direction.
/// 2. Keep the first occurrence of each coupling set. Records whose `key`s
///    match are compared with `same_set`, so a key collision never merges
///    two different sets.
/// 3. With a beam, stop at `max(4·width, 64)` survivors.
///
/// Ordering first means the dedupe keeps the *best* record per set — the
/// same set can be generated through different routes (e.g. as a fanin
/// pseudo aggressor and as a window widener) with different envelopes.
/// The pre-truncation bounds the quadratic dominance pass; its
/// oversampling keeps enough diversity for dominance to matter.
pub(crate) fn rank<T>(
    records: &[T],
    score: impl Fn(&T) -> f64,
    key: impl Fn(&T) -> u64,
    same_set: impl Fn(&T, &T) -> bool,
    direction: DominanceDirection,
    beam: Option<usize>,
) -> Vec<u32> {
    assert!(records.len() < NONE as usize, "a round ranks fewer than 2^32 - 1 records");
    let mut order: Vec<(f64, u32)> =
        records.iter().enumerate().map(|(i, r)| (score(r), i as u32)).collect();
    // `total_cmp`, not `partial_cmp(..).expect(..)`: one degenerate
    // candidate smuggled in with a NaN delay noise (e.g. through the
    // raw-parts escape hatch) must not abort the whole sweep. Under the
    // IEEE total order NaN sorts above every number, so `BiggerIsBetter`
    // would rank it first; the explicit non-finite demotion keeps such
    // records *worst* in either direction, where the beam cap and
    // dominance pass dispose of them deterministically.
    order.sort_unstable_by(|&(a, i), &(b, j)| {
        let by_score = match (a.is_finite(), b.is_finite()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => match direction {
                DominanceDirection::BiggerIsBetter => b.total_cmp(&a),
                DominanceDirection::SmallerIsBetter => a.total_cmp(&b),
            },
        };
        by_score.then(i.cmp(&j))
    });

    let cap = rank_cap(beam);
    let mut kept: Vec<u32> = Vec::with_capacity(order.len().min(cap));
    // Key -> the latest kept record with that key; `chain[k]` links kept
    // record `k` to the previous one with the same key.
    let mut by_key: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> =
        HashMap::with_capacity_and_hasher(kept.capacity(), BuildHasherDefault::default());
    let mut chain: Vec<u32> = Vec::with_capacity(kept.capacity());
    for &(_, i) in &order {
        if kept.len() >= cap {
            break;
        }
        let rec = &records[i as usize];
        let k = key(rec);
        let head = by_key.get(&k).copied().unwrap_or(NONE);
        let mut at = head;
        let mut duplicate = false;
        while at != NONE {
            if same_set(&records[kept[at as usize] as usize], rec) {
                duplicate = true;
                break;
            }
            at = chain[at as usize];
        }
        if !duplicate {
            by_key.insert(k, kept.len() as u32);
            chain.push(head);
            kept.push(i);
        }
    }
    kept
}

/// How many distinct sets [`rank`] keeps: `max(4·width, 64)` with a
/// beam, all of them without.
pub(crate) fn rank_cap(beam: Option<usize>) -> usize {
    beam.map_or(usize::MAX, |width| width.saturating_mul(4).max(64))
}

/// End of a [`rank`] key chain.
const NONE: u32 = u32::MAX;

/// Hasher for [`rank`]'s keys, which are already well-mixed digests
/// (`CouplingSet::key`: SplitMix64 of the engine's own coupling indices,
/// never raw input), so hashing them again would only cost time.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, k: u64) {
        self.0 = k;
    }
}

/// Steps 4–5 of [`irredundant`] on candidates already ranked by [`rank`].
pub(crate) fn prune(
    mut candidates: Vec<Candidate>,
    dominance_interval: TimeInterval,
    direction: DominanceDirection,
    use_dominance: bool,
    beam: Option<usize>,
) -> Vec<Candidate> {
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
        'next: for cand in candidates {
            for winner in &kept {
                let (big, small) = match direction {
                    DominanceDirection::BiggerIsBetter => (winner, &cand),
                    DominanceDirection::SmallerIsBetter => (&cand, winner),
                };
                let dominated =
                    big.envelope().may_encapsulate(small.envelope(), dominance_interval)
                        && big.envelope().encapsulates(small.envelope(), dominance_interval);
                if dominated {
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
        candidates = kept;
    }

    // 5. Beam cap (already sorted best-first).
    if let Some(width) = beam {
        candidates.truncate(width);
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
    use crate::CouplingSet;
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

    /// Steps 1–3 as `irredundant` ran them before `rank`: a stable sort
    /// with the non-finite demotion, a `HashSet` first-occurrence dedupe,
    /// then the pre-truncation.
    fn old_steps_1_to_3(
        recs: &[(f64, CouplingSet)],
        direction: DominanceDirection,
        beam: Option<usize>,
    ) -> Vec<u32> {
        let mut order: Vec<u32> = (0..recs.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (recs[a as usize].0, recs[b as usize].0);
            match (a.is_finite(), b.is_finite()) {
                (true, false) => return Ordering::Less,
                (false, true) => return Ordering::Greater,
                _ => {}
            }
            let ord = a.total_cmp(&b);
            match direction {
                DominanceDirection::BiggerIsBetter => ord.reverse(),
                DominanceDirection::SmallerIsBetter => ord,
            }
        });
        let mut seen = std::collections::HashSet::new();
        let mut kept: Vec<u32> =
            order.into_iter().filter(|&i| seen.insert(&recs[i as usize].1)).collect();
        if let Some(width) = beam {
            kept.truncate(width.saturating_mul(4).max(64));
        }
        kept
    }

    fn rank_records(
        recs: &[(f64, CouplingSet)],
        key: impl Fn(&(f64, CouplingSet)) -> u64,
        direction: DominanceDirection,
        beam: Option<usize>,
    ) -> Vec<u32> {
        rank(recs, |r| r.0, key, |a, b| a.1 == b.1, direction, beam)
    }

    #[test]
    fn rank_matches_the_old_sort_dedupe_truncate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        for case in 0..400 {
            let n = rng.gen_range(0..300usize);
            let recs: Vec<(f64, CouplingSet)> = (0..n)
                .map(|_| {
                    // Few distinct scores (ties) and few distinct sets
                    // (duplicates), with the odd non-finite score.
                    let score = match rng.gen_range(0..40u32) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => -0.0,
                        x => f64::from(x % 7) * 0.5,
                    };
                    let a = CouplingId::new(rng.gen_range(0..12u32));
                    let set = if rng.gen_bool(0.5) {
                        CouplingSet::singleton(a)
                    } else {
                        CouplingSet::singleton(a).with(CouplingId::new(rng.gen_range(0..12u32)))
                    };
                    (score, set)
                })
                .collect();
            for direction in
                [DominanceDirection::BiggerIsBetter, DominanceDirection::SmallerIsBetter]
            {
                for beam in [None, Some(1), Some(5), Some(40)] {
                    assert_eq!(
                        rank_records(&recs, |r| r.1.key(), direction, beam),
                        old_steps_1_to_3(&recs, direction, beam),
                        "case {case}, {direction:?}, beam {beam:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_never_merges_different_sets_with_equal_keys() {
        let recs: Vec<(f64, CouplingSet)> = [(2.0, 1), (3.0, 2), (1.0, 3), (2.5, 1), (3.0, 2)]
            .into_iter()
            .map(|(dn, id)| (dn, CouplingSet::singleton(CouplingId::new(id))))
            .collect();
        // Every record collides on the key; only true duplicates go.
        for direction in [DominanceDirection::BiggerIsBetter, DominanceDirection::SmallerIsBetter] {
            let kept = rank_records(&recs, |_| 42, direction, None);
            assert_eq!(kept, old_steps_1_to_3(&recs, direction, None));
            let mut sets: Vec<u32> =
                kept.iter().map(|&i| recs[i as usize].1.ids()[0].index() as u32).collect();
            sets.sort_unstable();
            assert_eq!(sets, vec![1, 2, 3], "{direction:?}");
        }
        assert_eq!(
            rank_records(&recs, |_| 42, DominanceDirection::BiggerIsBetter, None),
            vec![1, 3, 2]
        );
    }

    #[test]
    fn rank_without_beam_keeps_every_distinct_set() {
        // 200 distinct sets, each twice: far beyond the 64-record floor
        // of the pre-truncation, which only a beam applies.
        let recs: Vec<(f64, CouplingSet)> = (0..400u32)
            .map(|i| (f64::from(i % 13), CouplingSet::singleton(CouplingId::new(i % 200))))
            .collect();
        let kept = rank_records(&recs, |r| r.1.key(), DominanceDirection::BiggerIsBetter, None);
        assert_eq!(kept.len(), 200);
        let beamed =
            rank_records(&recs, |r| r.1.key(), DominanceDirection::BiggerIsBetter, Some(3));
        assert_eq!(beamed, kept[..64]);
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
