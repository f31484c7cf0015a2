//! Candidate aggressor sets rendered at one victim net.

use std::fmt;

use dna_waveform::Envelope;

use crate::aggressor::union_eq;
use crate::dominance::{self, DominanceDirection};
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
/// `member ⊕ atom`, the key of that set ([`CouplingSet::key`]), and where
/// its parts live. `member` indexes the victim's I-lists as
/// `(cardinality, index)` — `None` is the empty set, so the record is the
/// atom alone (addition) or the victim's total minus the atom
/// (elimination) — and `atom` indexes the mode's atom pool. Only the
/// records that survive [`rank`](Scored::rank) are built into a
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

    /// The member `(cardinality, index)` as I-list indices.
    pub(crate) fn member_index(&self) -> Option<(usize, usize)> {
        self.member.map(|(j, m)| (j as usize, m as usize))
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
