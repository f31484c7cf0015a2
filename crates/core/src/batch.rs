//! Batch what-if evaluation: many independent scenarios against one
//! session snapshot.
//!
//! A designer triaging an elimination set rarely has *one* question —
//! they have a menu: "what if I shield these two?", "what if only the
//! first?", "what if I also un-shield that earlier fix?". Applying each
//! [`MaskDelta`] through [`WhatIfSession::apply`] answers them one at a
//! time, but serializes work that is almost entirely shareable:
//!
//! * **Closure sharing.** Scenario dirty sets are fixpoints of a
//!   monotone worklist, and a scenario's adjacency predicate is `base
//!   mask ∪ its flipped couplings` — monotone in the flipped set. The
//!   batch sorts the distinct flipped-sets lexicographically and walks
//!   them as a trie: each prefix's dirty fixpoint is computed once
//!   ([`Circuit::dirty_closure_extend`]) and extended per added
//!   coupling, so scenarios sharing fix prefixes share the closure work
//!   ([`BatchStats::closure_frames_shared`] counts the reuse).
//! * **One sweep.** Instead of S sequential sweeps, the batch hands
//!   every scenario to one call of the scenario sweep
//!   ([`crate::engine::sweep`]), whose (scenario, victim) tasks share
//!   one deterministic ready-heap scheduler ([`crate::sched`]) —
//!   narrow cones that would each under-fill a thread pool fill the
//!   ready heap together, and a long-tail victim of one scenario no longer
//!   stalls any other scenario's progress.
//! * **Dedup.** Scenarios with identical flipped-sets (common when a
//!   script enumerates neighborhoods) are evaluated once.
//!
//! [`WhatIfSession::apply`] runs the same front end with a single delta
//! and then adopts its scenario's state.
//!
//! # Identity contract
//!
//! `apply_batch` does not mutate the session. Scenario `i`'s outcome is
//! bit-identical to `session.fork().apply(&deltas[i])` — same lists,
//! same counters, same faults, same result — at any
//! [`threads`](crate::TopKConfig::threads) setting, because the
//! per-victim enumeration is pure, every task writes only its own
//! scenario's victim slot, and each scenario's budget is pre-partitioned
//! over exactly the dirty set its own incremental sweep would partition
//! over (clean victims consume no share, so a scenario with nothing
//! dirty charges nothing, exactly as its own sweep would).

use std::time::Instant;

use dna_netlist::{CouplingId, NetId};
use dna_noise::CouplingMask;

use crate::bounds::{self, SemanticState};
use crate::engine::{self, Prepared, Swept};
use crate::result::FaultPhase;
use crate::sched::{self, SchedStats};
use crate::session::changed_and_seeds;
use crate::{Damping, MaskDelta, TopKError, TopKResult, WhatIfOutcome, WhatIfSession};

/// A set of independent what-if scenarios to evaluate against one
/// [`WhatIfSession`] snapshot with [`WhatIfSession::apply_batch`].
///
/// Each [`MaskDelta`] is interpreted against the session's *current*
/// mask — scenarios do not compose with each other.
#[derive(Debug, Clone, Default)]
pub struct WhatIfBatch {
    deltas: Vec<MaskDelta>,
}

impl WhatIfBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch over `deltas`, one scenario per delta, in order.
    #[must_use]
    pub fn from_deltas(deltas: Vec<MaskDelta>) -> Self {
        Self { deltas }
    }

    /// Appends one scenario.
    pub fn push(&mut self, delta: MaskDelta) {
        self.deltas.push(delta);
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch holds no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The scenarios, in submission order.
    #[must_use]
    pub fn deltas(&self) -> &[MaskDelta] {
        &self.deltas
    }
}

/// Work-sharing counters of one [`WhatIfSession::apply_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    scenarios: usize,
    distinct_scenarios: usize,
    dirty_victims: usize,
    unmasked_dirty_victims: usize,
    proven_clean_victims: usize,
    closure_frames_built: usize,
    closure_frames_shared: usize,
    sched: SchedStats,
}

impl BatchStats {
    /// Scenarios submitted.
    #[must_use]
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// Scenarios actually evaluated after deduplicating identical
    /// flipped-coupling sets.
    #[must_use]
    pub fn distinct_scenarios(&self) -> usize {
        self.distinct_scenarios
    }

    /// Structurally dirty victims across all distinct scenarios — what
    /// the batch *would* re-sweep under [`Damping::Structural`]. Under
    /// semantic damping the damping prover then removes
    /// [`proven_clean_victims`](Self::proven_clean_victims) of these, so
    /// the actual enumeration work is the difference.
    ///
    /// [`Damping::Structural`]: crate::Damping::Structural
    #[must_use]
    pub fn dirty_victims(&self) -> usize {
        self.dirty_victims
    }

    /// Structurally dirty victims (summed over distinct scenarios) the
    /// damping prover proved clean and the sweep therefore skipped.
    /// Zero under [`Damping::Structural`](crate::Damping::Structural) or
    /// when no semantic state is cached (first apply after a resume).
    #[must_use]
    pub fn proven_clean_victims(&self) -> usize {
        self.proven_clean_victims
    }

    /// What [`dirty_victims`](Self::dirty_victims) would have been under
    /// mask-oblivious adjacency (closure through every coupling, enabled
    /// or not) — the batch-level measurement of what mask-aware closure
    /// filtering saved. Never smaller than `dirty_victims`.
    #[must_use]
    pub fn unmasked_dirty_victims(&self) -> usize {
        self.unmasked_dirty_victims
    }

    /// Closure trie nodes computed: one per (prefix, coupling) extension
    /// actually run.
    #[must_use]
    pub fn closure_frames_built(&self) -> usize {
        self.closure_frames_built
    }

    /// Closure trie nodes *reused* from an earlier scenario's prefix —
    /// the closure work prefix sharing saved. `built + shared` equals the
    /// sum of flipped-set sizes over distinct scenarios.
    #[must_use]
    pub fn closure_frames_shared(&self) -> usize {
        self.closure_frames_shared
    }

    /// Scheduler counters of the shared (scenario × victim) sweep:
    /// threads, tasks and per-worker load spread. Diagnostic
    /// only — excluded from the batch identity contract.
    #[must_use]
    pub fn sched(&self) -> &SchedStats {
        &self.sched
    }
}

/// The result of one [`WhatIfSession::apply_batch`] call: one
/// [`WhatIfOutcome`] per submitted scenario (in submission order), plus
/// the batch's work-sharing counters.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    scenarios: Vec<WhatIfOutcome>,
    stats: BatchStats,
}

impl BatchOutcome {
    /// Per-scenario outcomes, indexed like the submitted deltas. Each is
    /// bit-identical to what `session.fork().apply(&delta)` returns.
    #[must_use]
    pub fn scenarios(&self) -> &[WhatIfOutcome] {
        &self.scenarios
    }

    /// Work-sharing counters of the batch evaluation.
    #[must_use]
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

/// One distinct scenario after the front end: the flipped couplings (the
/// dedup/trie key, sorted by id), their endpoint seeds and the scenario's
/// absolute mask.
struct Flipped {
    changed: Vec<CouplingId>,
    seeds: Vec<NetId>,
    mask: CouplingMask,
}

/// One distinct scenario evaluated against a session snapshot: its mask,
/// the outcome the caller sees, the swept per-victim state and the
/// damping prover's fingerprint of the scenario's world.
pub(crate) struct Evaluated {
    pub mask: CouplingMask,
    pub outcome: WhatIfOutcome,
    pub swept: Swept,
    pub semantic: Option<SemanticState>,
}

impl WhatIfSession<'_, '_> {
    /// Evaluates every scenario of `batch` against this session's current
    /// state, sharing closure work across scenarios and running all
    /// scenarios' dirty victims through one scheduler sweep.
    ///
    /// The session is **not** mutated: each scenario is independent, and
    /// its outcome is bit-identical to `self.fork().apply(&delta)` at any
    /// thread count (see the module docs). To commit a scenario, apply
    /// its delta with [`apply`](Self::apply).
    ///
    /// # Errors
    ///
    /// Propagates the first scenario's timing/engine error; the session
    /// is unchanged regardless.
    pub fn apply_batch(&self, batch: &WhatIfBatch) -> Result<BatchOutcome, TopKError> {
        let start = Instant::now();
        if batch.is_empty() {
            return Ok(BatchOutcome { scenarios: Vec::new(), stats: BatchStats::default() });
        }
        let (evaluated, group_of, stats) = self.evaluate(batch.deltas(), false)?;
        let outcomes: Vec<WhatIfOutcome> =
            group_of.iter().map(|&g| evaluated[g].outcome.clone()).collect();
        if std::env::var_os("DNA_PROFILE").is_some() {
            eprintln!(
                "[profile] whatif batch: {:.2?} ({} scenarios, {} distinct, {} dirty victims, \
                 {} closure frames shared)",
                start.elapsed(),
                stats.scenarios,
                stats.distinct_scenarios,
                stats.dirty_victims,
                stats.closure_frames_shared,
            );
        }
        Ok(BatchOutcome { scenarios: outcomes, stats })
    }

    /// The what-if front end shared by [`apply`](Self::apply) (one delta)
    /// and [`apply_batch`](Self::apply_batch): changed sets and dedup,
    /// dirty closures over the prefix trie, per-scenario preparation and
    /// prover refinement, one scenario sweep, per-scenario selection.
    /// Returns the distinct scenarios, the distinct scenario each delta
    /// maps to, and the batch counters. Reads the session, never mutates
    /// it.
    ///
    /// `capture_semantic` asks for each scenario's semantic fingerprint
    /// even when this session has none to refine against (the first
    /// apply after a resume), so an adopting caller can damp next time.
    pub(crate) fn evaluate(
        &self,
        deltas: &[MaskDelta],
        capture_semantic: bool,
    ) -> Result<(Vec<Evaluated>, Vec<usize>, BatchStats), TopKError> {
        let start = Instant::now();
        let circuit = self.analysis.circuit();

        // --- Flipped sets, dedup -------------------------------------
        let mut scenarios: Vec<Flipped> = Vec::with_capacity(deltas.len());
        let mut group_of: Vec<usize> = Vec::with_capacity(deltas.len());
        {
            let mut by_key: std::collections::HashMap<Vec<CouplingId>, usize> =
                std::collections::HashMap::new();
            for delta in deltas {
                let mask = self.mask.clone().without(delta.removed()).with(delta.added());
                let (changed, seeds) = changed_and_seeds(circuit, &self.mask, &mask);
                let group = *by_key.entry(changed.clone()).or_insert_with(|| {
                    scenarios.push(Flipped { changed, seeds, mask });
                    scenarios.len() - 1
                });
                group_of.push(group);
            }
        }

        // --- Shared dirty closures (prefix trie) ---------------------
        // A scenario's adjacency predicate is `base mask ∪ flipped set`
        // (the old ∪ new mask), monotone in the flipped set, and
        // `dirty_closure_extend`'s contract is met at every step: the
        // parent frame is a fixpoint of the prefix predicate, and the one
        // newly-allowed coupling's endpoints are exactly the new seeds.
        // Walking the distinct flipped-sets in lexicographic order makes
        // shared prefixes adjacent, so each trie node is computed once.
        let mut order: Vec<usize> = (0..scenarios.len()).collect();
        order.sort_by(|&a, &b| scenarios[a].changed.cmp(&scenarios[b].changed));
        let mut dirty_of: Vec<Vec<bool>> = vec![Vec::new(); scenarios.len()];
        let mut stats = BatchStats {
            scenarios: deltas.len(),
            distinct_scenarios: scenarios.len(),
            ..BatchStats::default()
        };
        {
            let root = vec![false; circuit.num_nets()];
            let mut frames: Vec<(CouplingId, Vec<bool>)> = Vec::new();
            let mut in_path = vec![false; circuit.num_couplings()];
            for &s in &order {
                let changed = &scenarios[s].changed;
                let mut common = 0;
                while common < frames.len()
                    && common < changed.len()
                    && frames[common].0 == changed[common]
                {
                    common += 1;
                }
                stats.closure_frames_shared += common;
                while frames.len() > common {
                    let (cc, _) = frames.pop().expect("len checked");
                    in_path[cc.index()] = false;
                }
                for &cc in &changed[common..] {
                    let mut dirty = frames.last().map_or(&root, |(_, d)| d).clone();
                    in_path[cc.index()] = true;
                    let ends = circuit.coupling(cc);
                    circuit.dirty_closure_extend(&mut dirty, &[ends.a(), ends.b()], |id| {
                        self.mask.is_enabled(id) || in_path[id.index()]
                    });
                    frames.push((cc, dirty));
                    stats.closure_frames_built += 1;
                }
                dirty_of[s] = frames.last().map_or_else(|| root.clone(), |(_, d)| d.clone());
            }
        }
        // The mask-oblivious closure is counted too, so the mask-aware
        // filtering's savings stay measurable.
        let unmasked_of: Vec<usize> = scenarios
            .iter()
            .map(|sc| circuit.dirty_closure(&sc.seeds).iter().filter(|&&d| d).count())
            .collect();
        let structural_of: Vec<usize> =
            dirty_of.iter().map(|d| d.iter().filter(|&&x| x).count()).collect();
        stats.dirty_victims = structural_of.iter().sum();
        stats.unmasked_dirty_victims = unmasked_of.iter().sum();

        // --- Per-scenario preparation --------------------------------
        let threads = self.analysis.config().effective_threads();
        let prepareds: Vec<Prepared<'_>> =
            sched::map(threads, scenarios.len(), FaultPhase::Prepare, |s| {
                self.analysis.prepare(self.mode, &scenarios[s].mask)
            })?;

        // --- Prover refinement (semantic damping) --------------------
        // When this session carries a semantic fingerprint of its world,
        // each scenario's structural closure shrinks to the victims whose
        // cleanliness cannot be proven. Without one (structural damping,
        // or the first apply after an artifact resume) the structural
        // closure is swept as is.
        let mut clean_of: Vec<Vec<NetId>> = vec![Vec::new(); scenarios.len()];
        let mut semantic_of: Vec<Option<SemanticState>> = Vec::with_capacity(scenarios.len());
        for (s, prepared) in prepareds.iter().enumerate() {
            semantic_of.push(match &self.semantic {
                Some(old) => {
                    let forced = prepared.faults.force_clean_victim;
                    let (dirty, state) = bounds::refine(prepared, old, &dirty_of[s], forced);
                    clean_of[s] = circuit
                        .net_ids()
                        .filter(|n| dirty_of[s][n.index()] && !dirty[n.index()])
                        .collect();
                    dirty_of[s] = dirty;
                    Some(state)
                }
                None => (capture_semantic && self.analysis.config().damping == Damping::Semantic)
                    .then(|| SemanticState::capture(prepared)),
            });
        }
        if self.semantic.is_some() {
            stats.proven_clean_victims = stats.dirty_victims
                - dirty_of.iter().map(|d| d.iter().filter(|&&x| x).count()).sum::<usize>();
        }

        // --- One scenario sweep --------------------------------------
        let sweep_in: Vec<engine::Scenario<'_, '_>> = prepareds
            .iter()
            .zip(&dirty_of)
            .map(|(prepared, dirty)| engine::Scenario {
                prepared,
                lists: &self.lists,
                counters: &self.counters,
                faults: &self.faults,
                dirty,
            })
            .collect();
        let (swept, sched) = engine::sweep(&sweep_in, self.k, threads)?;
        stats.sched = sched;

        // --- Per-scenario selection + validation ---------------------
        // Scenarios already in parallel validate serially, so S scenarios
        // never start S × threads workers.
        let validation_threads = if threads.min(scenarios.len()) > 1 { 1 } else { threads };
        let results: Vec<TopKResult> =
            sched::map(threads, scenarios.len(), FaultPhase::Selection, |s| {
                let (prepared, swept) = (&prepareds[s], &swept[s]);
                self.analysis.conclude(prepared, self.k, swept, sched, validation_threads, start)
            })?;

        let mut evaluated = Vec::with_capacity(scenarios.len());
        for (s, ((sc, result), swept)) in scenarios.into_iter().zip(results).zip(swept).enumerate()
        {
            let outcome = WhatIfOutcome::assemble(
                result,
                sc.changed,
                std::mem::take(&mut dirty_of[s]),
                structural_of[s],
                unmasked_of[s],
                std::mem::take(&mut clean_of[s]),
            );
            evaluated.push(Evaluated {
                mask: sc.mask,
                outcome,
                swept,
                semantic: semantic_of[s].take(),
            });
        }
        Ok((evaluated, group_of, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, TopKAnalysis, TopKConfig};
    use dna_netlist::{CellKind, Circuit, CircuitBuilder, Library};

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

    fn deltas() -> Vec<MaskDelta> {
        let id = CouplingId::new;
        vec![
            MaskDelta::remove(&[id(0)]),
            MaskDelta::remove(&[id(2)]),
            MaskDelta::remove(&[id(0), id(1)]),
            MaskDelta::default(),
            MaskDelta::remove(&[id(0)]), // duplicate of scenario 0
        ]
    }

    #[test]
    fn batch_matches_sequential_forks_both_modes() {
        let circuit = two_cones();
        for threads in [1usize, 0, 4] {
            let config = TopKConfig { threads, validate: false, ..TopKConfig::default() };
            let engine = TopKAnalysis::new(&circuit, config);
            for mode in [Mode::Addition, Mode::Elimination] {
                let session = WhatIfSession::start(&engine, mode, 2).unwrap();
                let batch = WhatIfBatch::from_deltas(deltas());
                let out = session.apply_batch(&batch).unwrap();
                assert_eq!(out.scenarios().len(), batch.len());
                for (i, delta) in batch.deltas().iter().enumerate() {
                    let seq = session.fork().apply(delta).unwrap();
                    let got = &out.scenarios()[i];
                    assert_eq!(
                        got.result().fingerprint(),
                        seq.result().fingerprint(),
                        "{} threads={threads} scenario {i} diverged from fork().apply",
                        mode.name()
                    );
                    assert_eq!(got.changed_couplings(), seq.changed_couplings());
                    assert_eq!(got.dirty_flags(), seq.dirty_flags());
                    assert_eq!(got.unmasked_dirty_victims(), seq.unmasked_dirty_victims());
                    assert_eq!(got.structural_dirty_victims(), seq.structural_dirty_victims());
                    assert_eq!(got.proven_clean_victims(), seq.proven_clean_victims());
                    assert_eq!(got.proven_clean(), seq.proven_clean());
                }
            }
        }
    }

    #[test]
    fn batch_dedups_identical_flip_sets() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let session = WhatIfSession::start(&engine, Mode::Elimination, 2).unwrap();
        let out = session.apply_batch(&WhatIfBatch::from_deltas(deltas())).unwrap();
        // 5 submitted, but the last duplicates the first.
        assert_eq!(out.stats().scenarios(), 5);
        assert_eq!(out.stats().distinct_scenarios(), 4);
        assert_eq!(
            out.scenarios()[0].result().fingerprint(),
            out.scenarios()[4].result().fingerprint()
        );
    }

    #[test]
    fn batch_shares_closure_prefixes() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let session = WhatIfSession::start(&engine, Mode::Elimination, 2).unwrap();
        let id = CouplingId::new;
        // {0} and {0,1} share the length-1 prefix {0}.
        let batch = WhatIfBatch::from_deltas(vec![
            MaskDelta::remove(&[id(0)]),
            MaskDelta::remove(&[id(0), id(1)]),
        ]);
        let out = session.apply_batch(&batch).unwrap();
        assert_eq!(out.stats().closure_frames_built(), 2);
        assert_eq!(out.stats().closure_frames_shared(), 1);
    }

    #[test]
    fn batch_does_not_mutate_the_session() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let session = WhatIfSession::start(&engine, Mode::Addition, 2).unwrap();
        let before = session.result().fingerprint();
        let mask_before = session.mask().clone();
        session
            .apply_batch(&WhatIfBatch::from_deltas(vec![MaskDelta::remove(&[CouplingId::new(0)])]))
            .unwrap();
        assert_eq!(session.result().fingerprint(), before);
        assert_eq!(*session.mask(), mask_before);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let circuit = two_cones();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let session = WhatIfSession::start(&engine, Mode::Addition, 2).unwrap();
        let out = session.apply_batch(&WhatIfBatch::new()).unwrap();
        assert!(out.scenarios().is_empty());
        assert_eq!(out.stats().distinct_scenarios(), 0);
    }
}
