//! Incremental what-if re-analysis sessions.
//!
//! The elimination set exists to drive a *fix loop*: a designer shields
//! or spaces the reported top-k couplings, then must re-verify timing.
//! Re-running the whole analysis from scratch wastes almost all of that
//! work — only the fanout cones of the fixed couplings can change. A
//! [`WhatIfSession`] makes re-analysis proportional to the affected cone:
//!
//! * [`WhatIfSession::start`] runs the full analysis once and caches the
//!   per-victim irredundant lists (cheap `Arc` handles, no deep copies)
//!   together with the per-victim enumeration counters;
//! * [`WhatIfSession::apply`] takes a [`MaskDelta`] ("remove these
//!   couplings", "add those back"), seeds the dirty set with the
//!   endpoints of every coupling whose enable state actually flips,
//!   closes it over gate-fanout and **mask-aware** coupling-adjacency
//!   edges (`Circuit::dirty_closure_filtered` — a coupling disabled in
//!   both the old and new mask injects no noise in either world, so its
//!   adjacency edge cannot carry a difference and is dropped), and
//!   re-runs the scheduler sweep over only the dirty victims — every
//!   clean victim's lists and counters are served from the cache. The
//!   outcome also reports what the mask-oblivious closure would have
//!   been, so the adjacency filtering's savings are measurable per apply.
//!
//! For evaluating many *independent* deltas against one session snapshot,
//! see [`WhatIfBatch`](crate::WhatIfBatch) — it shares closure work across
//! scenarios and runs them through one thread pool.
//!
//! # Identity argument
//!
//! The per-victim enumeration is a pure function of (a) the victim's own
//! primaries under the mask, (b) per-net timing/bound state from
//! `Prepared`, and (c) the irredundant lists of its strict fanin. A net
//! whose inputs to that function can change under the new mask is, by
//! construction of the dirty closure, flagged dirty: a toggled coupling
//! dirties both endpoints, dirtiness follows gate fanout (arrival
//! changes propagate downstream) and coupling adjacency (a shifted
//! aggressor window changes its victims' envelopes — and its wideners'
//! rankings, which the adjacency edge also covers because a widener
//! change implies a dirty net in the aggressor's fanin cone, whose
//! fanout reaches the aggressor). Restricting adjacency to couplings
//! enabled in the old *or* new mask is sound: a coupling disabled in both
//! worlds contributes no primary, no widener and no noise in either, so
//! no per-victim input can differ through it, and flipped couplings'
//! endpoints are seeded directly. Clean victims therefore see inputs
//! bit-identical to a from-scratch run, so their cached lists *are* the
//! from-scratch lists, dirty victims read bit-identical fanin lists, and
//! the merged sweep output — and everything derived from it — is
//! bit-identical to [`TopKAnalysis::run_with_mask`] under the session's
//! current mask, at any [`threads`](crate::TopKConfig::threads) setting.

use std::time::Instant;

use dna_netlist::{CouplingId, NetId};
use dna_noise::CouplingMask;

use crate::batch::Evaluated;
use crate::bounds::SemanticState;
use crate::engine::{NetLists, VictimCounters};
use crate::persist::{self, ChainAnchor};
use crate::result::{Fault, FaultReport};
use crate::{Damping, Mode, TopKAnalysis, TopKError, TopKResult};

/// How many unsaved applies a session buffers as replayable deltas before
/// giving up on delta encoding for the next save. Each buffered delta
/// holds `Arc` handles to the dirty victims' lists (cheap to keep, but
/// they pin replaced lists alive), so a session applying thousands of
/// deltas without ever saving must not grow without bound: past this cap
/// the buffer is dropped and the next save writes a full checkpoint.
const MAX_PENDING_DELTAS: usize = 256;

/// One applied-but-unsaved generation, buffered so the next save can
/// append a delta record instead of rewriting the full artifact. Holds
/// exactly what chain replay needs to patch a session from generation
/// `g-1` to `g`: the flipped couplings, the post-apply state of the dirty
/// victims (everyone else is untouched by construction of the dirty
/// closure), and the full (small) result/fault state.
#[derive(Debug, Clone)]
pub(crate) struct PendingDelta {
    /// The generation this delta produces when replayed.
    pub generation: u64,
    /// Couplings this apply disabled (state actually flipped).
    pub removed: Vec<CouplingId>,
    /// Couplings this apply enabled (state actually flipped).
    pub added: Vec<CouplingId>,
    /// FNV-1a digest of the full post-apply mask, so replay can prove it
    /// patched its way to the same world (lint rule L072).
    pub mask_digest: u64,
    /// The post-apply result (small: the set, delays, counters).
    pub result: TopKResult,
    /// The post-apply session fault quarantines.
    pub faults: Vec<Fault>,
    /// Post-apply `(victim index, counters, lists)` of every victim the
    /// sweep recomputed — `Arc` handles, no envelope deep copies.
    pub dirty: Vec<(u32, VictimCounters, NetLists)>,
}

/// A change to the coupling set of a running [`WhatIfSession`].
///
/// Removals are applied before additions; a coupling named on both sides
/// ends up **enabled**. Toggles that do not change a coupling's current
/// state (removing an already-disabled coupling, adding an enabled one)
/// are no-ops and do not dirty anything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaskDelta {
    removed: Vec<CouplingId>,
    added: Vec<CouplingId>,
}

impl MaskDelta {
    /// Delta disabling `ids` — the "apply the elimination set" direction
    /// of the fix loop.
    #[must_use]
    pub fn remove(ids: &[CouplingId]) -> Self {
        Self { removed: ids.to_vec(), added: Vec::new() }
    }

    /// Delta re-enabling `ids` — the "undo a fix" direction.
    #[must_use]
    pub fn add(ids: &[CouplingId]) -> Self {
        Self { removed: Vec::new(), added: ids.to_vec() }
    }

    /// Delta combining removals and additions (removals apply first).
    #[must_use]
    pub fn new(removed: &[CouplingId], added: &[CouplingId]) -> Self {
        Self { removed: removed.to_vec(), added: added.to_vec() }
    }

    /// The couplings this delta disables.
    #[must_use]
    pub fn removed(&self) -> &[CouplingId] {
        &self.removed
    }

    /// The couplings this delta enables.
    #[must_use]
    pub fn added(&self) -> &[CouplingId] {
        &self.added
    }

    /// Whether the delta names no couplings at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// The result of one incremental [`WhatIfSession::apply`] step, with the
/// sweep counters that certify how much work the cache saved.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    result: TopKResult,
    changed: Vec<CouplingId>,
    dirty: Vec<bool>,
    recomputed_victims: usize,
    structural_dirty_victims: usize,
    unmasked_dirty_victims: usize,
    proven_clean: Vec<NetId>,
}

impl WhatIfOutcome {
    /// The re-analysis result — bit-identical to a from-scratch
    /// [`TopKAnalysis::run_with_mask`] under the session's new mask.
    #[must_use]
    pub fn result(&self) -> &TopKResult {
        &self.result
    }

    /// Couplings whose enable state actually flipped under the delta.
    #[must_use]
    pub fn changed_couplings(&self) -> &[CouplingId] {
        &self.changed
    }

    /// Per-net dirty flags the sweep ran under: `dirty_flags()[n]` is
    /// true iff net `n`'s irredundant lists were recomputed. Feed this to
    /// `dna_lint::lint_dirty_closure` to audit cache coherence.
    #[must_use]
    pub fn dirty_flags(&self) -> &[bool] {
        &self.dirty
    }

    /// How many victims the sweep recomputed (the dirty-cone size after
    /// any prover damping).
    #[must_use]
    pub fn recomputed_victims(&self) -> usize {
        self.recomputed_victims
    }

    /// How many victims the *structural* (mask-aware reachability) dirty
    /// closure flagged, before prover damping. Always at least
    /// [`recomputed_victims`](Self::recomputed_victims).
    #[must_use]
    pub fn structural_dirty_victims(&self) -> usize {
        self.structural_dirty_victims
    }

    /// How many structurally dirty victims the damping prover proved
    /// clean on this apply (and the sweep therefore served from cache) —
    /// the length of [`proven_clean`](Self::proven_clean). Zero under
    /// [`Damping::Structural`].
    #[must_use]
    pub fn proven_clean_victims(&self) -> usize {
        self.structural_dirty_victims - self.recomputed_victims
    }

    /// How many victims a mask-oblivious closure (adjacency through every
    /// coupling, enabled or not) would have re-swept. The gap to
    /// [`structural_dirty_victims`](Self::structural_dirty_victims) is
    /// what mask-aware adjacency saved on this apply; it is never
    /// negative.
    #[must_use]
    pub fn unmasked_dirty_victims(&self) -> usize {
        self.unmasked_dirty_victims
    }

    /// The structurally dirty victims the damping prover proved clean
    /// and the sweep served from cache, sorted by index. Empty under
    /// [`Damping::Structural`]. The proof is audited by the
    /// [`Oracle`](crate::Oracle), which diffs every victim of the session
    /// against a from-scratch run.
    #[must_use]
    pub fn proven_clean(&self) -> &[NetId] {
        &self.proven_clean
    }

    /// Total victims in the circuit.
    #[must_use]
    pub fn total_victims(&self) -> usize {
        self.dirty.len()
    }

    /// How many victims were served from the session cache.
    #[must_use]
    pub fn cached_victims(&self) -> usize {
        self.total_victims() - self.recomputed_victims
    }

    /// Victims quarantined by per-victim fault isolation in this step
    /// (including quarantines inherited from the cached clean victims).
    #[must_use]
    pub fn faults(&self) -> &FaultReport {
        self.result.faults()
    }

    /// Assembles an outcome from the what-if front end's parts.
    pub(crate) fn assemble(
        result: TopKResult,
        changed: Vec<CouplingId>,
        dirty: Vec<bool>,
        structural_dirty_victims: usize,
        unmasked_dirty_victims: usize,
        proven_clean: Vec<NetId>,
    ) -> Self {
        let recomputed_victims = dirty.iter().filter(|&&d| d).count();
        Self {
            result,
            changed,
            dirty,
            recomputed_victims,
            structural_dirty_victims,
            unmasked_dirty_victims,
            proven_clean,
        }
    }
}

/// The couplings whose enable state differs between `old` and `new`, with
/// both endpoints of each as dirty seeds — the first step of the what-if
/// front end. Iterates couplings in id order, so `changed` comes back
/// sorted.
pub(crate) fn changed_and_seeds(
    circuit: &dna_netlist::Circuit,
    old: &CouplingMask,
    new: &CouplingMask,
) -> (Vec<CouplingId>, Vec<NetId>) {
    let mut changed: Vec<CouplingId> = Vec::new();
    let mut seeds: Vec<NetId> = Vec::new();
    for id in circuit.coupling_ids() {
        if new.is_enabled(id) != old.is_enabled(id) {
            let cc = circuit.coupling(id);
            changed.push(id);
            seeds.push(cc.a());
            seeds.push(cc.b());
        }
    }
    (changed, seeds)
}

/// An incremental what-if re-analysis session over one
/// [`TopKAnalysis`].
///
/// The caching/incremental substrate for ECO-style fix loops: construct
/// with [`start`](Self::start) (one full run), then [`apply`](Self::apply)
/// coupling-set deltas; each apply re-sweeps only the dirty fanout cone
/// of the touched couplings. See the module docs for the identity
/// argument.
///
/// # Example
///
/// ```
/// use dna_netlist::suite;
/// use dna_topk::{MaskDelta, Mode, TopKAnalysis, TopKConfig, WhatIfSession};
///
/// let circuit = suite::benchmark("i1", 42)?;
/// let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
/// let mut session = WhatIfSession::start(&engine, Mode::Elimination, 3)?;
/// let fix = session.result().set().clone();
///
/// // What if we shield the reported top-3 couplings?
/// let outcome = session.apply(&MaskDelta::remove(fix.ids()))?;
/// assert!(outcome.result().delay_before() <= session.result().delay_before());
/// assert!(outcome.recomputed_victims() <= outcome.total_victims());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct WhatIfSession<'a, 'c> {
    // Fields are crate-visible for the artifact codec (`persist`), which
    // snapshots and restores the session's cached state.
    pub(crate) analysis: &'a TopKAnalysis<'c>,
    pub(crate) mode: Mode,
    pub(crate) k: usize,
    pub(crate) mask: CouplingMask,
    pub(crate) lists: Vec<NetLists>,
    pub(crate) counters: Vec<VictimCounters>,
    pub(crate) faults: Vec<Fault>,
    pub(crate) result: TopKResult,
    /// The damping prover's fingerprint of the current world (per-net
    /// digests + shift bounds), kept when
    /// [`damping`](crate::TopKConfig::damping) is [`Damping::Semantic`].
    /// `None` after an artifact resume (digests are not persisted): the
    /// next apply falls back to the structural closure and re-captures.
    pub(crate) semantic: Option<SemanticState>,
    /// The generation this session's state corresponds to: 0 after a
    /// fresh [`start`](Self::start), the chain tip after a resume, +1 per
    /// effective [`apply`](Self::apply) (one that flips at least one
    /// coupling — a no-op apply changes no state and records nothing).
    pub(crate) generation: u64,
    /// Applied-but-unsaved generations, oldest first, each replayable as
    /// a delta record. Cleared by a successful save; dropped (with the
    /// anchor) past [`MAX_PENDING_DELTAS`].
    pub(crate) pending: Vec<PendingDelta>,
    /// Tip of the on-disk chain this session's *saved* prefix
    /// (generations `..= generation - pending.len()`) is known to equal.
    /// `None` for fresh sessions: the next save must write a checkpoint.
    /// With an anchor, a save may append `pending` as delta records to a
    /// file whose tip still matches it.
    pub(crate) anchor: Option<ChainAnchor>,
}

impl<'a, 'c> WhatIfSession<'a, 'c> {
    /// Runs the full analysis over every coupling and caches its
    /// per-victim state for later incremental re-analysis.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn start(analysis: &'a TopKAnalysis<'c>, mode: Mode, k: usize) -> Result<Self, TopKError> {
        Self::start_with_mask(analysis, mode, k, CouplingMask::all(analysis.circuit()))
    }

    /// Like [`start`](Self::start), but anchored at a restricted mask —
    /// e.g. to resume a fix loop where some couplings are already
    /// shielded, or to exercise the `add` direction of a delta.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn start_with_mask(
        analysis: &'a TopKAnalysis<'c>,
        mode: Mode,
        k: usize,
        mask: CouplingMask,
    ) -> Result<Self, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let start = Instant::now();
        let prepared = analysis.prepare(mode, &mask)?;
        let semantic = (analysis.config().damping == Damping::Semantic)
            .then(|| SemanticState::capture(&prepared));
        let threads = analysis.config().effective_threads();
        let (result, swept) = analysis.run_prepared(&prepared, k, threads, start)?;
        Ok(Self {
            analysis,
            mode,
            k,
            mask,
            lists: swept.lists,
            counters: swept.counters,
            faults: swept.faults,
            result,
            semantic,
            generation: 0,
            pending: Vec::new(),
            anchor: None,
        })
    }

    /// An independent copy of this session for speculative exploration:
    /// the fork shares the underlying engine and the cached per-victim
    /// lists (`Arc` handles — O(nets) pointer copies, no envelope deep
    /// copies), and applying deltas to it leaves this session untouched.
    /// The batch engine's contract is stated in terms of `fork`: each
    /// scenario's outcome equals `fork().apply(delta)`.
    #[must_use]
    pub fn fork(&self) -> Self {
        Self {
            analysis: self.analysis,
            mode: self.mode,
            k: self.k,
            mask: self.mask.clone(),
            lists: self.lists.clone(),
            counters: self.counters.clone(),
            faults: self.faults.clone(),
            result: self.result.clone(),
            semantic: self.semantic.clone(),
            generation: self.generation,
            pending: self.pending.clone(),
            anchor: self.anchor,
        }
    }

    /// The generation this session's state corresponds to: 0 after a
    /// fresh [`start`](Self::start), the chain tip after a resume, and +1
    /// for every [`apply`](Self::apply) that flips at least one coupling.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many applied generations are buffered but not yet saved — the
    /// number of delta records the next
    /// [`commit_chain`](crate::commit_chain) would append (0 means the
    /// next save is either a no-op or a checkpoint).
    #[must_use]
    pub fn pending_deltas(&self) -> usize {
        self.pending.len()
    }

    /// The tip of the chain file this session's saved state is known to
    /// match, or `None` when the session was started fresh (or buffered
    /// past the delta cap) and the next save must write a checkpoint.
    #[must_use]
    pub fn chain_anchor(&self) -> Option<ChainAnchor> {
        self.anchor
    }

    /// The engine mode this session analyzes.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The `k` every run of this session requests.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The couplings currently enabled in this session.
    #[must_use]
    pub fn mask(&self) -> &CouplingMask {
        &self.mask
    }

    /// The most recent analysis result (from [`start`](Self::start) or
    /// the last [`apply`](Self::apply)).
    #[must_use]
    pub fn result(&self) -> &TopKResult {
        &self.result
    }

    /// Applies a coupling-set delta and incrementally re-analyzes: only
    /// victims in the dirty closure of the flipped couplings' endpoints
    /// are re-swept; everyone else is served from the session cache. This
    /// is [`apply_batch`](Self::apply_batch)'s front end with one delta;
    /// the session then adopts the new mask and caches, so deltas compose
    /// across calls.
    ///
    /// An empty (or fully no-op) delta recomputes nothing in the sweep
    /// and returns a result bit-identical to [`result`](Self::result).
    ///
    /// # Errors
    ///
    /// Propagates timing errors from the substrate analyses. The session
    /// state is unchanged on error.
    pub fn apply(&mut self, delta: &MaskDelta) -> Result<WhatIfOutcome, TopKError> {
        let start = Instant::now();
        let circuit = self.analysis.circuit();
        let (mut evaluated, ..) = self.evaluate(std::slice::from_ref(delta), true)?;
        let Evaluated { mask, outcome, swept, semantic } =
            evaluated.pop().expect("one delta, one scenario");

        self.mask = mask;
        let old_lists = std::mem::replace(&mut self.lists, swept.lists);
        let old_counters = std::mem::replace(&mut self.counters, swept.counters);
        self.faults = swept.faults;
        self.result = outcome.result.clone();
        self.semantic = semantic;
        // Record the generation step for the versioned store. A no-op
        // apply (nothing flipped) leaves the session bit-identical to the
        // generation it was already at, so it records nothing.
        if !outcome.changed.is_empty() {
            self.generation += 1;
            let mut removed = Vec::new();
            let mut added = Vec::new();
            for &id in &outcome.changed {
                if self.mask.is_enabled(id) {
                    added.push(id);
                } else {
                    removed.push(id);
                }
            }
            // Snapshot only the re-swept victims whose state actually
            // changed: on a saturated closure most re-sweeps reproduce
            // the old lists bit-for-bit, and replay-patching a victim to
            // bytes it already holds is a no-op — omitting it is exactly
            // as bit-exact as storing it, at a fraction of the record.
            let dirty_snapshot: Vec<(u32, VictimCounters, NetLists)> = outcome
                .dirty
                .iter()
                .enumerate()
                .filter(|&(vi, &d)| {
                    d && !persist::victim_state_identical(
                        &old_counters[vi],
                        &old_lists[vi],
                        &self.counters[vi],
                        &self.lists[vi],
                    )
                })
                .map(|(vi, _)| (vi as u32, self.counters[vi], self.lists[vi].clone()))
                .collect();
            self.pending.push(PendingDelta {
                generation: self.generation,
                removed,
                added,
                mask_digest: persist::mask_digest(circuit, &self.mask),
                result: self.result.clone(),
                faults: self.faults.clone(),
                dirty: dirty_snapshot,
            });
            if self.pending.len() > MAX_PENDING_DELTAS {
                // Too much unsaved history to keep pinned: forget it and
                // force the next save to checkpoint instead.
                self.pending.clear();
                self.anchor = None;
            }
        }
        if std::env::var_os("DNA_PROFILE").is_some() {
            eprintln!(
                "[profile] whatif apply: {:.2?} ({}/{} victims recomputed, {} proven clean, \
                 {} under mask-oblivious adjacency)",
                start.elapsed(),
                outcome.recomputed_victims,
                circuit.num_nets(),
                outcome.proven_clean_victims(),
                outcome.unmasked_dirty_victims,
            );
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, TopKConfig};
    use dna_netlist::{CellKind, Circuit, CircuitBuilder, Library};

    /// Two disjoint cones sharing no nets: fixing a coupling in one cone
    /// must leave the other cone's victims untouched.
    fn two_cones() -> Circuit {
        let mut b = CircuitBuilder::new(Library::cmos013());
        let a = b.input("a");
        let x = b.input("x");
        let p = b.input("p");
        let q = b.input("q");
        let v = b.gate(CellKind::Buf, "v", &[a]).unwrap();
        let g = b.gate(CellKind::Buf, "g", &[x]).unwrap();
        let w = b.gate(CellKind::Inv, "w", &[v]).unwrap();
        let r = b.gate(CellKind::Buf, "r", &[p]).unwrap();
        let s = b.gate(CellKind::Buf, "s", &[q]).unwrap();
        let t = b.gate(CellKind::Inv, "t", &[r]).unwrap();
        b.output(w);
        b.output(g);
        b.output(t);
        b.output(s);
        b.coupling(v, g, 8.0).unwrap();
        b.coupling(w, g, 4.0).unwrap();
        b.coupling(r, s, 8.0).unwrap();
        b.coupling(t, s, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mask_delta_constructors() {
        let ids = [CouplingId::new(0), CouplingId::new(2)];
        assert_eq!(MaskDelta::remove(&ids).removed(), &ids);
        assert!(MaskDelta::remove(&ids).added().is_empty());
        assert_eq!(MaskDelta::add(&ids).added(), &ids);
        assert!(MaskDelta::default().is_empty());
        assert!(!MaskDelta::new(&[], &ids).is_empty());
    }

    #[test]
    fn removed_and_added_coupling_ends_up_enabled() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let mut session = WhatIfSession::start(&engine, Mode::Elimination, 2).unwrap();
        let id = CouplingId::new(0);
        let outcome = session.apply(&MaskDelta::new(&[id], &[id])).unwrap();
        assert!(session.mask().is_enabled(id), "removals apply before additions");
        // Already enabled, so nothing flipped and nothing was recomputed.
        assert!(outcome.changed_couplings().is_empty());
        assert_eq!(outcome.recomputed_victims(), 0);
    }

    #[test]
    fn empty_delta_is_a_full_cache_hit() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let mut session = WhatIfSession::start(&engine, Mode::Addition, 2).unwrap();
        let before = session.result().fingerprint();
        let outcome = session.apply(&MaskDelta::default()).unwrap();
        assert_eq!(outcome.recomputed_victims(), 0);
        assert_eq!(outcome.cached_victims(), circuit.num_nets());
        assert_eq!(outcome.result().fingerprint(), before);
    }

    #[test]
    fn disjoint_cone_stays_cached() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        for mode in [Mode::Addition, Mode::Elimination] {
            let mut session = WhatIfSession::start(&engine, mode, 2).unwrap();
            // Remove a coupling of the first cone (v -- g): the second
            // cone (p, q, r, s, t) must be served entirely from cache.
            let outcome = session.apply(&MaskDelta::remove(&[CouplingId::new(0)])).unwrap();
            assert!(outcome.recomputed_victims() > 0);
            assert!(
                outcome.recomputed_victims() < circuit.num_nets(),
                "{}: dirty cone must not cover the disjoint cone",
                mode.name()
            );
            for name in ["p", "q", "r", "s", "t"] {
                let n = circuit.net_by_name(name).unwrap();
                assert!(!outcome.dirty_flags()[n.index()], "{name} must stay clean");
            }
        }
    }

    #[test]
    fn incremental_matches_from_scratch_both_directions() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        for mode in [Mode::Addition, Mode::Elimination] {
            let mut session = WhatIfSession::start(&engine, mode, 2).unwrap();
            let fix: Vec<CouplingId> = session.result().couplings().to_vec();

            for delta in [MaskDelta::remove(&fix), MaskDelta::add(&fix)] {
                session.apply(&delta).unwrap();
                let oracle = Oracle::new(&engine, mode, 2, session.mask()).unwrap();
                assert_eq!(oracle.check_session(&session), Ok(()), "{} {delta:?}", mode.name());
            }
        }
    }

    #[test]
    fn zero_k_is_rejected() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        assert!(matches!(WhatIfSession::start(&engine, Mode::Addition, 0), Err(TopKError::ZeroK)));
    }
}
