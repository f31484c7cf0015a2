//! Lazy-envelope enumeration support: the eager/lazy mode switch and the
//! machine-checkable [`DeferredPruneCertificate`]s behind every bound-first
//! cull, which
//! [`TopKAnalysis::prune_audit`](crate::TopKAnalysis::prune_audit) captures
//! from its own sweeps and lint rule **L080** re-verifies.
//!
//! # The two-phase admission scheme
//!
//! Candidate admission in `addition::victim_lists` and its elimination
//! twin is two-phase. **Phase 1** enumerates the round's would-be
//! candidates (provenance + union set + budget replay) without touching
//! any PWL. **Phase 2** walks the events in order and, for each, either
//! *culls* it — when an O(1)-ish sound delay-noise bound proves the
//! candidate cannot survive `irredundant` — or *materializes* it through
//! the scratch-arena sum kernels. Culling is exact, not approximate: the
//! surviving lists (contents and order, at any thread count, under any
//! budget) are f64-bit-identical to the eager reference path, which stays
//! available via `DNA_ENUM_EAGER=1` (or [`force_enum_mode`] in-process).
//!
//! Two cull rules exist, chosen per round:
//!
//! * **Dominated** (rounds whose distinct-set count fits the beam's
//!   pre-truncation cap, so the cap is a no-op): the event's delay-noise
//!   upper bound is at most an already-materialized survivor's delay
//!   noise, and that survivor's envelope exceeds the event's
//!   member-plus-atom-box envelope by [`CULL_MARGIN`] everywhere — so in
//!   the eager path the candidate would be swept away by dominance
//!   (Theorem 1), with margin to spare for `EPS`-tolerant comparisons.
//! * **BeamSqueezed** (bigger rounds): at least `cap` distinct coupling
//!   sets have already materialized with delay noise strictly beyond the
//!   event's bound, so in the eager path the candidate would sort past
//!   the pre-truncation cap and be discarded unseen.
//!
//! Both rules only ever remove candidates the eager pipeline removes too,
//! and never change what the eager pipeline keeps — the invariance
//! argument is spelled out in DESIGN.md §18.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};

use dna_netlist::NetId;
use dna_waveform::Envelope;

use crate::CouplingSet;

/// Pointwise slack a dominance cull must prove beyond the dominated
/// envelope. Far above `EPS` plus the worst simplification deviation, so
/// `encapsulates`' `EPS`-tolerant checkpoint tests cannot disagree with
/// the margin proof.
pub(crate) const CULL_MARGIN: f64 = 1e-6;

/// Slack of the hardened settle-time anchor
/// ([`superposition::hardened_crossing`](dna_waveform::superposition::hardened_crossing))
/// and of the single-point residual lower bound. Must exceed `EPS` plus
/// the simplification deviation of one envelope sum.
pub(crate) const VSLACK: f64 = 1e-6;

/// How many anchor survivors a dominance cull may test with the full
/// geometric margin check before giving up and materializing. Bounds the
/// per-event cull cost; affects only the cull rate, never the result.
pub(crate) const ANCHOR_TRIES: usize = 6;

// --- Mode switch ----------------------------------------------------

/// 0 = follow `DNA_ENUM_EAGER`, 1 = forced eager, 2 = forced lazy.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Process-wide override of the enumeration mode, for tests and audits
/// that flip modes without re-spawning the process: `Some(true)` forces
/// the eager reference path, `Some(false)` forces lazy admission, `None`
/// restores the `DNA_ENUM_EAGER` environment switch. Callers that toggle
/// this concurrently must serialize (the test suites share a mutex).
pub fn force_enum_mode(eager: Option<bool>) {
    let code = match eager {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    MODE_OVERRIDE.store(code, Ordering::SeqCst);
}

/// Whether enumeration must take the eager reference path.
pub(crate) fn eager_mode() -> bool {
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => std::env::var_os("DNA_ENUM_EAGER").is_some_and(|v| v != "0"),
    }
}

// --- Certificates ---------------------------------------------------

/// Why a culled candidate cannot appear in the eager path's output.
#[derive(Debug, Clone)]
pub enum PruneKind {
    /// Strictly dominated by an already-materialized survivor of the same
    /// round: the survivor's delay noise meets the culled bound and its
    /// envelope clears the culled candidate's by [`CULL_MARGIN`].
    Dominated {
        /// Coupling set of the dominating survivor.
        anchor_set: CouplingSet,
        /// The survivor's (exact, materialized) delay noise — one half of
        /// the refuting bound pair.
        anchor_delay_noise: f64,
        /// The survivor's envelope, for direct re-verification.
        anchor_envelope: Envelope,
    },
    /// Provably beyond the beam's pre-truncation horizon: `stronger`
    /// distinct-set candidates had already materialized strictly better
    /// than the culled bound, filling the `cap`-wide pre-truncation
    /// window.
    BeamSqueezed {
        /// Distinct-set candidates strictly better than the bound at cull
        /// time.
        stronger: usize,
        /// The pre-truncation cap they fill.
        cap: usize,
    },
}

/// A machine-checkable record of one bound-first cull: which candidate
/// was never materialized, the sound bound that refuted it, and the
/// survivor (or beam window) that makes the cull invisible in the final
/// lists. Captured only by the prune audit's own sweeps (into their
/// `Prepared` world) — the hot path pays nothing otherwise — and
/// re-derived from scratch by
/// [`TopKAnalysis::prune_audit`](crate::TopKAnalysis::prune_audit) (lint
/// rule L080): the culled envelope is re-materialized, its true delay
/// noise is checked against the recorded bound, the claimed dominance is
/// re-proved on full PWLs, and the culled set is checked absent from the
/// eager reference lists.
#[derive(Debug, Clone)]
pub struct DeferredPruneCertificate {
    /// The victim whose round culled the candidate.
    pub victim: NetId,
    /// Candidate cardinality (the round index `i` of `I-list_i`).
    pub cardinality: usize,
    /// Index of the event among the round's budget-passing events, in
    /// generation order — pins the cull to one spot in the eager replay.
    pub event: usize,
    /// The coupling set that was never materialized.
    pub culled_set: CouplingSet,
    /// The sound delay-noise bound that refuted it: an upper bound in
    /// addition mode, a lower bound in elimination mode.
    pub culled_bound: f64,
    /// The culled candidate's envelope, materialized *for the audit
    /// record only* (capture-armed runs still take the cull branch).
    pub culled_envelope: Envelope,
    /// The culled candidate's true delay noise, measured on
    /// `culled_envelope` at capture time; the audit recomputes it.
    pub culled_delay_noise: f64,
    /// The refutation.
    pub kind: PruneKind,
}

// --- Round bookkeeping ----------------------------------------------

/// Per-round distinct-set ranking for BeamSqueezed culls: tracks, per
/// coupling set, the best materialized delay noise so far, and answers
/// "how many distinct sets are strictly better than this bound?" — the
/// count that proves an event sorts past the pre-truncation cap in the
/// eager path no matter what the rest of the round produces.
pub(crate) struct RoundRank {
    best_by_set: HashMap<CouplingSet, f64>,
    /// The values of `best_by_set`, ascending under `total_cmp`.
    sorted: Vec<f64>,
    bigger_is_better: bool,
}

impl RoundRank {
    pub(crate) fn new(bigger_is_better: bool) -> Self {
        Self { best_by_set: HashMap::new(), sorted: Vec::new(), bigger_is_better }
    }

    pub(crate) fn clear(&mut self) {
        self.best_by_set.clear();
        self.sorted.clear();
    }

    /// Feeds one materialized candidate. `dn` must be finite (candidates
    /// are validated at construction).
    pub(crate) fn admit(&mut self, set: &CouplingSet, dn: f64) {
        match self.best_by_set.get_mut(set) {
            Some(best) => {
                let old = *best;
                let improves = if self.bigger_is_better { dn > old } else { dn < old };
                if improves {
                    let at = self.sorted.partition_point(|x| x.total_cmp(&old).is_lt());
                    debug_assert!(self.sorted[at].to_bits() == old.to_bits());
                    self.sorted.remove(at);
                    let at = self.sorted.partition_point(|x| x.total_cmp(&dn).is_lt());
                    self.sorted.insert(at, dn);
                    *best = dn;
                }
            }
            None => {
                self.best_by_set.insert(set.clone(), dn);
                let at = self.sorted.partition_point(|x| x.total_cmp(&dn).is_lt());
                self.sorted.insert(at, dn);
            }
        }
    }

    /// Distinct sets whose best materialized delay noise is *strictly*
    /// better (direction-aware) than `bound`.
    pub(crate) fn strictly_better_than(&self, bound: f64) -> usize {
        if self.bigger_is_better {
            self.sorted.len() - self.sorted.partition_point(|x| x.total_cmp(&bound).is_le())
        } else {
            self.sorted.partition_point(|x| x.total_cmp(&bound).is_lt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::CouplingId;

    fn set(ids: &[u32]) -> CouplingSet {
        ids.iter().map(|&i| CouplingId::new(i)).collect()
    }

    #[test]
    fn round_rank_counts_distinct_sets_only() {
        let mut r = RoundRank::new(true);
        r.admit(&set(&[1]), 3.0);
        r.admit(&set(&[1]), 5.0); // same set, better: replaces, no new entry
        r.admit(&set(&[2]), 4.0);
        r.admit(&set(&[3]), 1.0);
        assert_eq!(r.strictly_better_than(2.0), 2); // 5.0 and 4.0
        assert_eq!(r.strictly_better_than(5.0), 0); // strict: ties don't count
        assert_eq!(r.strictly_better_than(0.5), 3);
        r.clear();
        assert_eq!(r.strictly_better_than(0.0), 0);
    }

    #[test]
    fn round_rank_elimination_direction() {
        let mut r = RoundRank::new(false);
        r.admit(&set(&[1]), 3.0);
        r.admit(&set(&[1]), 2.0); // smaller is better: replaces
        r.admit(&set(&[2]), 4.0);
        assert_eq!(r.strictly_better_than(3.0), 1); // only 2.0
        assert_eq!(r.strictly_better_than(2.0), 0);
        assert_eq!(r.strictly_better_than(10.0), 2);
    }

    #[test]
    fn round_rank_ignores_worse_duplicates() {
        let mut r = RoundRank::new(true);
        r.admit(&set(&[7]), 5.0);
        r.admit(&set(&[7]), 1.0); // worse duplicate: no effect
        assert_eq!(r.strictly_better_than(2.0), 1);
        assert_eq!(r.strictly_better_than(0.0), 1);
    }

    #[test]
    fn mode_override_wins_over_env() {
        // Serialized by being the only test in this binary that touches
        // the override; integration suites use a shared mutex.
        force_enum_mode(Some(true));
        assert!(eager_mode());
        force_enum_mode(Some(false));
        assert!(!eager_mode());
        force_enum_mode(None);
    }
}
