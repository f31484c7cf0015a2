//! Candidate aggressor sets rendered at one victim net.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use dna_waveform::Envelope;

use crate::aggressor::union_eq;
use crate::dominance::{self, rank_cap, DominanceDirection};
use crate::{CouplingSet, TopKError};

/// One entry of an irredundant list: a set of couplings together with its
/// noise envelope *as seen by the current victim* and the cached delay
/// noise that envelope produces.
///
/// In **addition** mode the envelope is the combined noise the set couples
/// onto the victim; in **elimination** mode it is the *residual* envelope
/// left after removing the set from the total (paper §3.4). The dominance
/// machinery works on either — only the comparison direction differs.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    set: CouplingSet,
    envelope: Envelope,
    delay_noise: f64,
}

impl Candidate {
    /// Creates a candidate. `delay_noise` must already correspond to
    /// superimposing `envelope` on the victim's transition, and must be a
    /// finite, non-negative number — use [`try_new`](Self::try_new) when
    /// the value comes from arithmetic that can degenerate.
    #[must_use]
    pub fn new(set: CouplingSet, envelope: Envelope, delay_noise: f64) -> Self {
        debug_assert!(
            delay_noise.is_finite() && delay_noise >= 0.0,
            "delay noise must be finite and non-negative, got {delay_noise}"
        );
        Self { set, envelope, delay_noise }
    }

    /// Creates a candidate, rejecting a non-finite or negative cached
    /// delay noise with a typed error instead of deferring the failure to
    /// whichever downstream sort or comparison trips over it first.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::NonFiniteDelayNoise`] when `delay_noise` is
    /// NaN, infinite, or negative.
    pub fn try_new(
        set: CouplingSet,
        envelope: Envelope,
        delay_noise: f64,
    ) -> Result<Self, TopKError> {
        Ok(Self { set, envelope, delay_noise: checked_delay_noise(delay_noise)? })
    }

    /// Creates a candidate without validating the cached delay noise.
    ///
    /// Intended only for IR-level tooling — the `dna-lint` verifier's
    /// known-bad test corpus needs candidates [`new`](Self::new) rejects.
    #[must_use]
    pub fn from_raw_unchecked(set: CouplingSet, envelope: Envelope, delay_noise: f64) -> Self {
        Self { set, envelope, delay_noise }
    }

    /// The couplings in the set.
    #[must_use]
    pub fn set(&self) -> &CouplingSet {
        &self.set
    }

    /// Cardinality of the set.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.set.len()
    }

    /// The envelope rendered at the current victim.
    #[must_use]
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Cached delay noise (addition) or residual delay noise (elimination)
    /// at the current victim, in ps.
    #[must_use]
    pub fn delay_noise(&self) -> f64 {
        self.delay_noise
    }

    /// Consumes the candidate, yielding its envelope — the scratch arena
    /// reclaims discarded candidates' breakpoint buffers through here.
    #[must_use]
    pub fn into_envelope(self) -> Envelope {
        self.envelope
    }
}

/// `delay_noise` itself when it is a finite, non-negative number — the
/// one rule every cached delay noise passes.
///
/// # Errors
///
/// [`TopKError::NonFiniteDelayNoise`] when `delay_noise` is NaN,
/// infinite, or negative.
pub(crate) fn checked_delay_noise(delay_noise: f64) -> Result<f64, TopKError> {
    if !delay_noise.is_finite() || delay_noise < 0.0 {
        return Err(TopKError::NonFiniteDelayNoise { delay_noise });
    }
    Ok(delay_noise)
}

/// One admitted candidate before ranking: the exact delay noise of
/// `member ⊕ atom` (NaN while an elimination record is not yet scored,
/// see [`rank_bounded`](Scored::rank_bounded)), the key of that set
/// ([`CouplingSet::key`]), and where its parts live. `member` indexes the
/// victim's I-lists as `(cardinality, index)` — `None` is the empty set,
/// so the record is the atom alone (addition) or the victim's total minus
/// the atom (elimination) — and `atom` indexes the mode's atom pool. Only
/// the records that survive [`rank`](Scored::rank) are built into a
/// [`Candidate`], with their union and envelope.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored {
    pub dn: f64,
    pub key: u64,
    pub member: Option<(u32, u32)>,
    pub atom: u32,
}

impl Scored {
    /// Steps 1–3 of [`irredundant`](crate::dominance::irredundant) over
    /// one round's records: survivor indices, best first. Sets are
    /// compared as `member ∪ atom` id lists, never built.
    pub(crate) fn rank<'a>(
        records: &[Scored],
        lists: &'a [Vec<Candidate>],
        atom_set: impl Fn(usize) -> &'a CouplingSet,
        direction: DominanceDirection,
        beam: Option<usize>,
    ) -> Vec<u32> {
        let parts = |s: &Scored| {
            let member =
                s.member.map_or(&[][..], |(j, m)| lists[j as usize][m as usize].set().ids());
            (member, atom_set(s.atom as usize).ids())
        };
        let same_set = |x: &Scored, y: &Scored| {
            let ((a, b), (c, d)) = (parts(x), parts(y));
            union_eq(a, b, c, d)
        };
        dominance::rank(records, |s| s.dn, |s| s.key, same_set, direction, beam)
    }

    /// [`rank`](Self::rank) of one elimination round's records, scoring
    /// only those that can make the cut: `score` gives a record's delay
    /// noise, `bound` a lower bound on it. Each record's `dn` is set to
    /// its score, or left NaN when it was never scored.
    ///
    /// While the round admits no more records than `rank` keeps
    /// ([`rank_cap`]), or without a beam, every record is scored.
    /// Otherwise records are scored in ascending bound order (a NaN bound
    /// first, so it never excludes a record), and the scoring stops once
    /// `cap` distinct keys each have a score strictly below the next
    /// bound: every unscored record scores at least that bound, so `rank`
    /// fills its cap before it reaches one. Distinct keys are distinct
    /// sets; a key collision only merges sets, which keeps the scoring
    /// going longer. `rank` then runs over the scored records in
    /// admission order: it walks the same records, in the same order, as
    /// it would over all of them.
    ///
    /// Debug builds also score the skipped records, and assert every
    /// bound and that ranking them all keeps the same survivors.
    ///
    /// # Errors
    ///
    /// The first error `score` returns.
    pub(crate) fn rank_bounded<'a>(
        records: &mut [Scored],
        lists: &'a [Vec<Candidate>],
        atom_set: impl Fn(usize) -> &'a CouplingSet,
        beam: Option<usize>,
        mut bound: impl FnMut(&Scored) -> f64,
        mut score: impl FnMut(&Scored) -> Result<f64, TopKError>,
    ) -> Result<Vec<u32>, TopKError> {
        let direction = DominanceDirection::SmallerIsBetter;
        let cap = rank_cap(beam);
        if records.len() <= cap {
            for r in records.iter_mut() {
                r.dn = score(r)?;
            }
            return Ok(Self::rank(records, lists, atom_set, direction, beam));
        }
        // Ascending `(bound, index)`, a NaN bound as `−∞`, popped lazily:
        // most records are never reached.
        let mut by_bound: BinaryHeap<Reverse<(OrdF64, u32)>> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let b = bound(r);
                Reverse((OrdF64(if b.is_nan() { f64::NEG_INFINITY } else { b }), i as u32))
            })
            .collect();
        // Scores not yet below the next bound, lowest first, and the keys
        // that have one below it.
        let mut pending: BinaryHeap<Reverse<(OrdF64, u64)>> = BinaryHeap::new();
        let mut counted: HashSet<u64> = HashSet::new();
        let mut scored: Vec<u32> = Vec::new();
        while let Some(Reverse((_, i))) = by_bound.pop() {
            let r = &mut records[i as usize];
            r.dn = score(r)?;
            scored.push(i);
            pending.push(Reverse((OrdF64(r.dn), r.key)));
            let next = by_bound.peek().map_or(f64::INFINITY, |Reverse((b, _))| b.0);
            while let Some(&Reverse((OrdF64(dn), key))) = pending.peek() {
                if dn >= next {
                    break;
                }
                pending.pop();
                counted.insert(key);
            }
            if counted.len() >= cap {
                break;
            }
        }
        // Rank the scored records in admission order, so that ties break
        // as they would among all records.
        scored.sort_unstable();
        let subset: Vec<Scored> = scored.iter().map(|&i| records[i as usize]).collect();
        let kept: Vec<u32> = Self::rank(&subset, lists, &atom_set, direction, beam)
            .into_iter()
            .map(|k| scored[k as usize])
            .collect();
        #[cfg(debug_assertions)]
        {
            let mut all = records.to_vec();
            let mut complete = true;
            for r in &mut all {
                let b = bound(r);
                if r.dn.is_nan() {
                    match score(r) {
                        Ok(dn) => r.dn = dn,
                        Err(_) => complete = false,
                    }
                }
                let sound = b.is_nan() || r.dn.is_nan() || b <= r.dn;
                assert!(sound, "bound {b} above the score {} of {r:?}", r.dn);
            }
            if complete {
                let want = Self::rank(&all, lists, &atom_set, direction, beam);
                assert_eq!(kept, want, "bound-ordered scoring changed the ranked survivors");
            }
        }
        Ok(kept)
    }

    /// The member `(cardinality, index)` as I-list indices.
    pub(crate) fn member_index(&self) -> Option<(usize, usize)> {
        self.member.map(|(j, m)| (j as usize, m as usize))
    }
}

/// An `f64` ordered by `total_cmp`, for [`Scored::rank_bounded`]'s heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dn={:.3}", self.set, self.delay_noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::CouplingId;
    use dna_waveform::NoisePulse;

    #[test]
    fn accessors() {
        let set = CouplingSet::singleton(CouplingId::new(7));
        let env = Envelope::from_pulse(&NoisePulse::symmetric(0.0, 0.2, 4.0));
        let c = Candidate::new(set.clone(), env.clone(), 1.5);
        assert_eq!(c.set(), &set);
        assert_eq!(c.cardinality(), 1);
        assert_eq!(c.envelope(), &env);
        assert_eq!(c.delay_noise(), 1.5);
        assert!(c.to_string().contains("cc7"));
    }

    /// One wide round for [`Scored::rank_bounded`]: per record `(set id,
    /// key, score, bound)`. Each record's member is its own empty-set
    /// candidate, so the record's set is the singleton of its set id.
    /// Returns the bounded ranking, the ranking of every record scored,
    /// and how many records the bounded ranking scored.
    fn bounded_vs_full(
        spec: &[(u32, u64, f64, f64)],
        beam: Option<usize>,
    ) -> (Vec<u32>, Vec<u32>, usize) {
        let member = Candidate::new(CouplingSet::new(), Envelope::zero(), 0.0);
        let lists = vec![vec![member; spec.len()]];
        let max_id = spec.iter().map(|r| r.0).max().unwrap_or(0);
        let sets: Vec<CouplingSet> =
            (0..=max_id).map(|id| CouplingSet::singleton(CouplingId::new(id))).collect();
        let mut records: Vec<Scored> = spec
            .iter()
            .enumerate()
            .map(|(r, &(id, key, _, _))| Scored {
                dn: f64::NAN,
                key,
                member: Some((0, r as u32)),
                atom: id,
            })
            .collect();
        let row = |s: &Scored| spec[s.member.unwrap().1 as usize];
        let bounded = Scored::rank_bounded(
            &mut records,
            &lists,
            |a| &sets[a],
            beam,
            |s| row(s).3,
            |s| Ok(row(s).2),
        )
        .unwrap();
        let mut scored = 0;
        for r in &records {
            if !r.dn.is_nan() {
                assert_eq!(r.dn, row(r).2, "a scored record holds its score");
                scored += 1;
            }
        }
        let all: Vec<Scored> = records.iter().map(|r| Scored { dn: row(r).2, ..*r }).collect();
        let direction = DominanceDirection::SmallerIsBetter;
        let full = Scored::rank(&all, &lists, |a| &sets[a], direction, beam);
        (bounded, full, scored)
    }

    /// `(set id, the set's own key, score, bound)`.
    fn rec(id: u32, score: f64, bound: f64) -> (u32, u64, f64, f64) {
        (id, CouplingSet::singleton(CouplingId::new(id)).key(), score, bound)
    }

    /// Beam width 1: `rank` keeps `max(4, 64) = 64` sets.
    const BEAM: Option<usize> = Some(1);

    #[test]
    fn bounded_ranking_matches_scoring_everything() {
        let check = |name: &str, spec: &[(u32, u64, f64, f64)], beam, scored: usize| {
            let (bounded, full, got) = bounded_vs_full(spec, beam);
            assert_eq!(bounded, full, "{name}: survivors differ from scoring everything");
            assert_eq!(got, scored, "{name}: scored records");
        };

        // n <= cap: everything is scored, bounds unread (here: wrong).
        let few: Vec<_> = (0..64).map(|i| rec(i, f64::from(i % 7), 1e9)).collect();
        check("n = cap", &few, BEAM, 64);
        // No beam: no cut, everything is scored.
        let many: Vec<_> = (0..200).map(|i| rec(i, f64::from(i), f64::from(i))).collect();
        check("no beam", &many, None, 200);
        // A clear cut: 64 sets score 1, the other 100 are bounded at 10.
        let cut: Vec<_> =
            (0..164).map(|i| if i < 64 { rec(i, 1.0, 0.0) } else { rec(i, 10.0, 10.0) }).collect();
        check("clear cut", &cut, BEAM, 64);

        // n = cap + 1 with a tie at the cut: record 0 and record 64 both
        // score 100, and record 0 wins the tie by admission order. The
        // 64th distinct score equals the next bound (100), which is no
        // reason to stop: record 0 must be scored.
        let mut tie = vec![rec(0, 100.0, 100.0)];
        tie.extend((1..64).map(|i| rec(i, f64::from(i), 0.0)));
        tie.push(rec(64, 100.0, 0.0));
        check("tie at the cut", &tie, BEAM, 65);

        // Duplicate sets count once: ten routes to set 0 plus 60 sets
        // score below 3, which is only 61 distinct sets — set 61
        // (bounded at 3) must still be scored and kept.
        let mut dup: Vec<_> = (0..10).map(|_| rec(0, 1.0, 0.0)).collect();
        dup.extend((1..=60).map(|i| rec(i, 2.0, 0.0)));
        dup.push(rec(61, 3.0, 3.0));
        dup.extend((62..82).map(|i| rec(i, 50.0, 50.0)));
        check("duplicate sets", &dup, BEAM, dup.len());
        let (bounded, _, _) = bounded_vs_full(&dup, BEAM);
        assert!(bounded.contains(&70), "set 61 makes the cut");

        // Forced key collisions: 40 different sets share one key, so the
        // stop rule sees them as one and keeps scoring; `rank` still
        // tells them apart.
        let mut collide: Vec<_> = (0..40).map(|i| (i, 7, 1.0, 0.0)).collect();
        collide.extend((40..70).map(|i| rec(i, 2.0, 0.0)));
        collide.extend((70..100).map(|i| rec(i, 10.0, 10.0)));
        check("key collisions", &collide, BEAM, collide.len());

        // A NaN bound never excludes its record, however late it sorts.
        let mut nan: Vec<_> = (0..64).map(|i| rec(i, 5.0, 0.0)).collect();
        nan.extend((64..84).map(|i| rec(i, 9.0, 9.0)));
        nan.push(rec(84, 1.0, f64::NAN));
        check("NaN bound", &nan, BEAM, 65);
        let (bounded, _, _) = bounded_vs_full(&nan, BEAM);
        assert_eq!(bounded[0], 84, "the NaN-bounded record scores best");
    }

    #[test]
    fn bounded_ranking_passes_scoring_errors_through() {
        let member = Candidate::new(CouplingSet::new(), Envelope::zero(), 0.0);
        let lists = vec![vec![member]];
        let sets: Vec<CouplingSet> =
            (0..100).map(|id| CouplingSet::singleton(CouplingId::new(id))).collect();
        let mut records: Vec<Scored> = (0..100)
            .map(|a| Scored { dn: f64::NAN, key: sets[a].key(), member: None, atom: a as u32 })
            .collect();
        let err = Scored::rank_bounded(
            &mut records,
            &lists,
            |a| &sets[a],
            BEAM,
            |_| 0.0,
            |_| checked_delay_noise(f64::NAN),
        )
        .unwrap_err();
        assert!(
            matches!(err, TopKError::NonFiniteDelayNoise { delay_noise } if delay_noise.is_nan())
        );
    }

    #[test]
    fn try_new_rejects_degenerate_delay_noise() {
        // A degenerate envelope with empty support: naive normalization
        // arithmetic over it degenerates to `0.0 / 0.0`. The typed
        // constructor must reject the NaN instead of caching it for a
        // downstream sort to trip over.
        let env = Envelope::zero();
        let width = (env.support_hi() - env.support_lo()).max(0.0);
        let dn = env.peak() / width;
        assert!(dn.is_nan(), "crafted degenerate envelope must divide 0.0 by 0.0");
        let err = Candidate::try_new(CouplingSet::new(), env.clone(), dn).unwrap_err();
        assert!(
            matches!(err, crate::TopKError::NonFiniteDelayNoise { delay_noise } if delay_noise.is_nan())
        );
        assert!(err.to_string().contains("not finite"));

        for bad in [f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(Candidate::try_new(CouplingSet::new(), env.clone(), bad).is_err());
        }
        let ok = Candidate::try_new(CouplingSet::new(), env, 0.25).unwrap();
        assert_eq!(ok.delay_noise(), 0.25);
    }
}
