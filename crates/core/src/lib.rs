//! Top-k aggressor sets in delay noise analysis.
//!
//! The primary contribution of the DAC 2007 paper *"Top-k Aggressors Sets
//! in Delay Noise Analysis"* (Gandikota, Chopra, Blaauw, Sylvester,
//! Becer), reimplemented from scratch:
//!
//! * [`TopKAnalysis::addition_set`] — the k couplings whose delay noise,
//!   added to a noiseless analysis, increases circuit delay the most,
//! * [`TopKAnalysis::elimination_set`] — the k couplings whose removal
//!   from a noisy analysis decreases circuit delay the most,
//!
//! both via implicit enumeration with the paper's two key devices:
//! **pseudo input aggressors** (fanin delay noise abstracted into
//! envelope-shaped atoms, §3.1) and **dominance-pruned irredundant lists**
//! (Theorem 1, §3.2).
//!
//! Baselines for the paper's evaluation are included: the exhaustive
//! [`brute_force`] search (Table 1) and the [`naive`] per-victim
//! top-N-by-capacitance heuristic the introduction argues against.
//!
//! # Example
//!
//! ```
//! use dna_netlist::suite;
//! use dna_topk::{TopKAnalysis, TopKConfig};
//!
//! let circuit = suite::benchmark("i1", 42)?;
//! let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
//!
//! let add = engine.addition_set(5)?;
//! assert_eq!(add.couplings().len(), 5);
//! assert!(add.delay_with() >= add.delay_without());
//!
//! let del = engine.elimination_set(5)?;
//! assert!(del.delay_after() <= del.delay_before() + 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Accepted `clippy::pedantic` baseline. The CI_FULL pedantic triage in
// `ci.sh` is non-gating; this allowlist keeps its output limited to new
// findings. Numeric casts between index/size types are pervasive and
// intentional here, exact float comparison is the point of the
// bit-identity contracts, and short or similar names mirror the paper's
// notation.
#![allow(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::many_single_char_names,
    clippy::missing_panics_doc,
    clippy::similar_names,
    clippy::too_many_lines
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addition;
mod aggressor;
mod arena;
mod batch;
mod bounds;
mod candidate;
mod config;
mod elimination;
mod engine;
mod error;
mod persist;
mod result;
mod sched;
mod session;

pub mod brute;
pub mod dominance;
pub mod enumeration;
pub mod faultsim;
pub mod naive;
pub mod serve;

pub use aggressor::CouplingSet;
pub use batch::{BatchOutcome, BatchStats, WhatIfBatch};
pub use bounds::{CleanCertificate, CleanWitness, Corridor, CorridorBound, Damping};
pub use brute::{brute_force, BruteForceConfig, BruteForceOutcome};
pub use candidate::Candidate;
pub use config::TopKConfig;
pub use engine::Mode;
pub use enumeration::{force_enum_mode, DeferredPruneCertificate, PruneKind};
pub use error::{ArtifactError, TopKError};
pub use persist::{
    chain_summary, chain_summary_checked, chain_tip, commit_chain, truncate_chain_file,
    ChainAnchor, ChainFault, ChainRecovery, ChainSummary, CommitOptions, RecordKind, RecordMeta,
    SaveKind, SaveReport, ARTIFACT_VERSION,
};
pub use result::{Fault, FaultPhase, FaultReport, Soundness, SweepStats, TopKResult};
pub use sched::SchedStats;
pub use session::{MaskDelta, WhatIfOutcome, WhatIfSession};

use std::time::Instant;

use dna_netlist::Circuit;
use dna_noise::{CouplingMask, NoiseAnalysis};

use engine::{Prepared, Scenario, Swept};

/// Runs `f` inside a panic boundary for an engine phase that cannot be
/// isolated to one victim: an escaping panic is contained and converted
/// into [`TopKError::EnginePanic`] naming the phase.
fn guard<T>(phase: FaultPhase, f: impl FnOnce() -> Result<T, TopKError>) -> Result<T, TopKError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            Err(TopKError::EnginePanic { phase, cause: engine::panic_message(payload.as_ref()) })
        }
    }
}

/// Up-front scan for values the analysis substrate cannot process: a NaN
/// or infinite (or negative) coupling capacitance would otherwise panic
/// deep inside timing arithmetic, where no per-victim boundary can catch
/// it soundly. Rejecting the poisoned circuit with a typed error keeps
/// the engine panic-free on corrupt inputs.
fn validate_circuit_finite(circuit: &Circuit) -> Result<(), TopKError> {
    for id in circuit.coupling_ids() {
        let cap = circuit.coupling(id).cap();
        if !cap.is_finite() || cap < 0.0 {
            return Err(TopKError::CorruptCircuit {
                what: format!(
                    "coupling {} has non-finite or negative capacitance {cap}",
                    id.index()
                ),
            });
        }
    }
    Ok(())
}

/// Cross-round cache of the peeled-elimination loop: the previous
/// round's sweep output plus what that round went on to remove, so the
/// next round can re-sweep only the removed couplings' dirty cones.
/// Valid only for the mask and round budget it was computed under —
/// the loop drops it when the budget shrinks.
struct PeelCache {
    swept: Swept,
    budget: usize,
    mask: CouplingMask,
    removed: Vec<dna_netlist::CouplingId>,
}

/// Outcome of [`TopKAnalysis::sched_audit`]: a serial replay of the
/// work-stealing sweep compared slot-by-slot against a parallel run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedAudit {
    /// Victims compared (every net of the circuit).
    pub checked_victims: usize,
    /// Net indices whose published I-lists or enumeration counters
    /// differ between the parallel scheduler and the serial replay.
    pub mismatched_slots: Vec<usize>,
    /// Net indices whose curtailment state contradicts their
    /// pre-partitioned budget share (skipped without a zero share, or a
    /// zero share that was not skipped).
    pub share_violations: Vec<usize>,
}

impl SchedAudit {
    /// Whether the parallel sweep matched the serial replay everywhere.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mismatched_slots.is_empty() && self.share_violations.is_empty()
    }
}

/// Outcome of [`TopKAnalysis::prune_audit`]: a lazy sweep run with
/// certificate capture, re-verified certificate-by-certificate and
/// slot-by-slot against the eager reference path.
#[derive(Debug, Clone, Default)]
pub struct PruneAudit {
    /// Victims compared (every net of the circuit).
    pub checked_victims: usize,
    /// Certificates the lazy sweep recorded (one per bound-first cull).
    pub certificates: usize,
    /// Candidates the lazy sweep culled without materializing.
    pub culled: usize,
    /// Candidates the lazy sweep materialized.
    pub materialized: usize,
    /// Human-readable descriptions of every failed check: a lazy/eager
    /// slot divergence, a counter accounting hole, or a certificate whose
    /// claimed refutation does not re-verify on full PWLs.
    pub violations: Vec<String>,
}

impl PruneAudit {
    /// Whether every slot matched and every certificate re-verified.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The top-k aggressor-set engine.
///
/// Construct once per circuit, then query
/// [`addition_set`](Self::addition_set) and
/// [`elimination_set`](Self::elimination_set) for any `k`. See the crate
/// docs for an end-to-end example.
#[derive(Debug)]
pub struct TopKAnalysis<'c> {
    circuit: &'c Circuit,
    config: TopKConfig,
    noise: NoiseAnalysis<'c>,
}

impl<'c> TopKAnalysis<'c> {
    /// Creates an engine over `circuit`.
    #[must_use]
    pub fn new(circuit: &'c Circuit, config: TopKConfig) -> Self {
        let noise = NoiseAnalysis::new(circuit, config.noise);
        Self { circuit, config, noise }
    }

    /// The analyzed circuit.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &TopKConfig {
        &self.config
    }

    /// Computes the top-k aggressors **addition** set (paper §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn addition_set(&self, k: usize) -> Result<TopKResult, TopKError> {
        self.run(Mode::Addition, k)
    }

    /// Computes the top-k aggressors **elimination** set (paper §3.4).
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn elimination_set(&self, k: usize) -> Result<TopKResult, TopKError> {
        self.run(Mode::Elimination, k)
    }

    /// Computes a top-k elimination set by **peeling** — an extension
    /// beyond the paper: repeatedly find the top-`step` elimination set,
    /// commit it (mask those couplings out), and re-run on the reduced
    /// design until `k` couplings are chosen or further fixes stop
    /// helping.
    ///
    /// Each round re-anchors on a full converged analysis, capturing the
    /// cross-input and cross-output fix interactions the one-pass
    /// algorithm's superposition cannot represent (see the module docs of
    /// the elimination algorithm).
    ///
    /// Rounds after the first run **incrementally**, on the what-if
    /// session substrate: the per-victim lists and counters of the
    /// previous round are cached, and only the mask-aware dirty closure
    /// of the just-peeled couplings' endpoints is re-swept (the peeled
    /// couplings were enabled in the previous round, so the old mask
    /// alone is the `old ∪ new` adjacency predicate). The cache is
    /// dropped when the round budget shrinks (the final `k - chosen <
    /// step` round): cached lists are built per requested cardinality
    /// and counters per budget, so only same-budget rounds may reuse
    /// them. Results are bit-identical to
    /// [`elimination_set_peeled_scratch`](Self::elimination_set_peeled_scratch)
    /// — except under a
    /// [`global_candidate_budget`](TopKConfig::global_candidate_budget),
    /// where incremental rounds deliberately charge only the victims
    /// they actually re-sweep (cached victims cost nothing, as in any
    /// incremental sweep), so a budget that would have been exhausted by
    /// re-enumerating clean victims stretches further.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn elimination_set_peeled(&self, k: usize, step: usize) -> Result<TopKResult, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let step = step.max(1);
        validate_circuit_finite(self.circuit)?;
        let start = Instant::now();
        let mut mask = CouplingMask::all(self.circuit);
        let mut chosen = CouplingSet::new();
        let before = self.noise.run()?;
        let delay_before = before.circuit_delay();
        let mut delay_now = delay_before;
        let mut sink = before.noisy_timing().critical_output();
        let mut predicted = delay_before;
        let mut peak_list_width = 0;
        let mut generated = 0;
        let mut stats = SweepStats::default();
        let mut sched_total = SchedStats::default();
        let mut faults: Vec<Fault> = Vec::new();
        let mut cache: Option<PeelCache> = None;

        while chosen.len() < k {
            let budget = (k - chosen.len()).min(step);
            let prepared = guard(FaultPhase::Prepare, || {
                Prepared::build(
                    self.circuit,
                    self.config,
                    Mode::Elimination,
                    &self.noise,
                    mask.clone(),
                )
            })?;
            // Same-budget rounds re-sweep only the dirty closure of the
            // couplings the previous round peeled; the first round, and a
            // round whose budget shrank, sweep everything.
            let n = self.circuit.num_nets();
            let (cached, dirty) = match cache.take() {
                Some(rc) if rc.budget == budget && !rc.removed.is_empty() => {
                    let mut seeds: Vec<dna_netlist::NetId> =
                        Vec::with_capacity(rc.removed.len() * 2);
                    for &cc in &rc.removed {
                        let ends = self.circuit.coupling(cc);
                        seeds.push(ends.a());
                        seeds.push(ends.b());
                    }
                    // This round only removed couplings, so the previous
                    // round's mask is the `old ∪ new` adjacency predicate
                    // of the dirty closure.
                    let dirty =
                        self.circuit.dirty_closure_filtered(&seeds, |id| rc.mask.is_enabled(id));
                    (rc.swept, dirty)
                }
                _ => (Swept::empty(n), vec![true; n]),
            };
            let (outcome, swept, round_sched) = guard(FaultPhase::Selection, || {
                let (mut out, sched) =
                    engine::sweep(&[Scenario::cached(&prepared, &cached, &dirty)], budget)?;
                let swept = out.pop().expect("one scenario in, one out");
                let outcome =
                    elimination::select(&prepared, budget, &swept.lists, &swept.counters)?;
                Ok((outcome, swept, sched))
            })?;
            sched_total.merge(&round_sched);
            peak_list_width = peak_list_width.max(outcome.totals.peak_list_width);
            generated += outcome.totals.generated;
            stats.bound_culled += outcome.totals.bound_culled;
            stats.materialized += outcome.totals.materialized;
            // Rounds re-sweep the same victims: count each curtailment at
            // its per-round worst instead of summing duplicates, and keep
            // one fault per victim.
            stats.truncated_victims = stats.truncated_victims.max(outcome.totals.truncated_victims);
            stats.skipped_victims = stats.skipped_victims.max(outcome.totals.skipped_victims);
            for f in &swept.faults {
                if !faults.iter().any(|g| g.victim() == f.victim()) {
                    faults.push(f.clone());
                }
            }
            cache = Some(PeelCache { swept, budget, mask: mask.clone(), removed: Vec::new() });

            // Measure each option under the current mask; commit the best.
            let mut best: Option<(f64, f64, &CouplingSet, dna_netlist::NetId)> = None;
            for opt in &outcome.options {
                if opt.set.is_empty() {
                    continue;
                }
                let trial = mask.clone().without(opt.set.ids());
                let measured = self.noise.run_with_mask(&trial)?.circuit_delay();
                if best.as_ref().is_none_or(|(m, ..)| measured < *m) {
                    best = Some((measured, opt.predicted_delay, &opt.set, opt.sink));
                }
            }
            let Some((measured, pred, set, opt_sink)) = best else { break };
            if measured >= delay_now - self.config.noise.tolerance {
                break; // no further improvement available
            }
            if let Some(rc) = cache.as_mut() {
                rc.removed = set.ids().to_vec();
            }
            mask = mask.without(set.ids());
            chosen = chosen.union(set);
            delay_now = measured;
            predicted = pred;
            sink = opt_sink;
        }

        stats.quarantined_victims = faults.len();
        Ok(TopKResult {
            mode: Mode::Elimination,
            requested_k: k,
            set: chosen,
            sink,
            delay_before,
            delay_after: delay_now,
            predicted_delay: predicted,
            peak_list_width,
            generated_candidates: generated,
            runtime: start.elapsed(),
            faults: FaultReport::new(faults),
            stats,
            sched: sched_total,
        })
    }

    /// The from-scratch reference implementation of
    /// [`elimination_set_peeled`](Self::elimination_set_peeled): every
    /// peel round re-enumerates **all** victims instead of only the
    /// peeled couplings' dirty cones. Costs roughly `k / step` full
    /// one-pass runs; exists for the identity tests and benchmarks that
    /// certify the incremental loop, and as the semantic baseline when a
    /// [`global_candidate_budget`](TopKConfig::global_candidate_budget)
    /// should be charged for clean victims too.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn elimination_set_peeled_scratch(
        &self,
        k: usize,
        step: usize,
    ) -> Result<TopKResult, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let step = step.max(1);
        validate_circuit_finite(self.circuit)?;
        let start = Instant::now();
        let mut mask = CouplingMask::all(self.circuit);
        let mut chosen = CouplingSet::new();
        let before = self.noise.run()?;
        let delay_before = before.circuit_delay();
        let mut delay_now = delay_before;
        let mut sink = before.noisy_timing().critical_output();
        let mut predicted = delay_before;
        let mut peak_list_width = 0;
        let mut generated = 0;
        let mut stats = SweepStats::default();
        let mut sched_total = SchedStats::default();
        let mut faults: Vec<Fault> = Vec::new();

        while chosen.len() < k {
            let budget = (k - chosen.len()).min(step);
            let prepared = guard(FaultPhase::Prepare, || {
                Prepared::build(
                    self.circuit,
                    self.config,
                    Mode::Elimination,
                    &self.noise,
                    mask.clone(),
                )
            })?;
            let (outcome, round_faults, round_sched) = guard(FaultPhase::Selection, || {
                let (swept, sched) = engine::sweep_full(&prepared, budget)?;
                let outcome =
                    elimination::select(&prepared, budget, &swept.lists, &swept.counters)?;
                Ok((outcome, swept.faults, sched))
            })?;
            sched_total.merge(&round_sched);
            peak_list_width = peak_list_width.max(outcome.totals.peak_list_width);
            generated += outcome.totals.generated;
            stats.bound_culled += outcome.totals.bound_culled;
            stats.materialized += outcome.totals.materialized;
            stats.truncated_victims = stats.truncated_victims.max(outcome.totals.truncated_victims);
            stats.skipped_victims = stats.skipped_victims.max(outcome.totals.skipped_victims);
            for f in round_faults {
                if !faults.iter().any(|g| g.victim() == f.victim()) {
                    faults.push(f);
                }
            }

            let mut best: Option<(f64, f64, &CouplingSet, dna_netlist::NetId)> = None;
            for opt in &outcome.options {
                if opt.set.is_empty() {
                    continue;
                }
                let trial = mask.clone().without(opt.set.ids());
                let measured = self.noise.run_with_mask(&trial)?.circuit_delay();
                if best.as_ref().is_none_or(|(m, ..)| measured < *m) {
                    best = Some((measured, opt.predicted_delay, &opt.set, opt.sink));
                }
            }
            let Some((measured, pred, set, opt_sink)) = best else { break };
            if measured >= delay_now - self.config.noise.tolerance {
                break;
            }
            mask = mask.without(set.ids());
            chosen = chosen.union(set);
            delay_now = measured;
            predicted = pred;
            sink = opt_sink;
        }

        stats.quarantined_victims = faults.len();
        Ok(TopKResult {
            mode: Mode::Elimination,
            requested_k: k,
            set: chosen,
            sink,
            delay_before,
            delay_after: delay_now,
            predicted_delay: predicted,
            peak_list_width,
            generated_candidates: generated,
            runtime: start.elapsed(),
            faults: FaultReport::new(faults),
            stats,
            sched: sched_total,
        })
    }

    /// Computes a top-k set over only the couplings enabled in `mask` —
    /// the from-scratch reference for what-if sessions: after applying a
    /// [`MaskDelta`], [`WhatIfSession::apply`] produces a result
    /// bit-identical to calling this with the session's current mask.
    ///
    /// With the full mask this is exactly
    /// [`addition_set`](Self::addition_set) /
    /// [`elimination_set`](Self::elimination_set).
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn run_with_mask(
        &self,
        mode: Mode,
        k: usize,
        mask: &CouplingMask,
    ) -> Result<TopKResult, TopKError> {
        self.run_swept(mode, k, mask).map(|(result, _)| result)
    }

    /// The full run pipeline, also handing back the per-victim sweep state
    /// a what-if session caches.
    ///
    /// Timing preparation and sink selection run inside phase-level panic
    /// boundaries (they cannot be isolated to one victim); the enumeration
    /// sweep carries its own per-victim boundary.
    pub(crate) fn run_swept(
        &self,
        mode: Mode,
        k: usize,
        mask: &CouplingMask,
    ) -> Result<(TopKResult, Swept), TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let start = Instant::now();
        let prepared = self.prepare(mode, mask)?;
        self.run_prepared(&prepared, k, start)
    }

    /// The preparation front half of a run: input validation plus the
    /// guarded [`Prepared::build`]. Split out so the what-if paths can
    /// interpose the corridor prover (which reads the prepared state)
    /// between preparation and the sweep.
    pub(crate) fn prepare(
        &self,
        mode: Mode,
        mask: &CouplingMask,
    ) -> Result<Prepared<'c>, TopKError> {
        validate_circuit_finite(self.circuit)?;
        let start = Instant::now();
        let prepared = guard(FaultPhase::Prepare, || {
            Prepared::build(self.circuit, self.config, mode, &self.noise, mask.clone())
        })?;
        if std::env::var_os("DNA_PROFILE").is_some() {
            eprintln!("[profile] prepare: {:.2?}", start.elapsed());
        }
        Ok(prepared)
    }

    /// The sweep/select back half of a full run over an already-prepared
    /// state. `start` anchors the reported runtime (callers pass the
    /// instant the whole run began).
    pub(crate) fn run_prepared(
        &self,
        prepared: &Prepared<'_>,
        k: usize,
        start: Instant,
    ) -> Result<(TopKResult, Swept), TopKError> {
        let enum_start = Instant::now();
        let (swept, sched) = engine::sweep_full(prepared, k)?;
        if std::env::var_os("DNA_PROFILE").is_some() {
            eprintln!("[profile] enumerate: {:.2?}", enum_start.elapsed());
        }
        let result = self.conclude(prepared, k, &swept, sched, start)?;
        Ok((result, swept))
    }

    /// A from-scratch sweep under the full mask at `threads` workers,
    /// without selection: the replay the scheduler and prune audits
    /// compare. `eager` forces the enumeration path of this sweep alone;
    /// a forced lazy sweep also returns its deferred-prune certificates,
    /// sorted by (victim, cardinality, event) since workers record them in
    /// schedule order.
    fn sweep_at(
        &self,
        mode: Mode,
        k: usize,
        threads: usize,
        eager: Option<bool>,
    ) -> Result<(Swept, Vec<DeferredPruneCertificate>), TopKError> {
        let analysis = TopKAnalysis::new(self.circuit, TopKConfig { threads, ..self.config });
        let mut prepared = analysis.prepare(mode, &CouplingMask::all(self.circuit))?;
        prepared.enum_path = eager;
        prepared.captured = (eager == Some(false)).then(Default::default);
        let (swept, _) = engine::sweep_full(&prepared, k)?;
        let mut certs = prepared.captured.take().map_or_else(Vec::new, |c| {
            c.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
        });
        certs.sort_by_key(|c| (c.victim.index(), c.cardinality, c.event));
        Ok((swept, certs))
    }

    /// Independently re-derives the corridor prover's conclusion for a
    /// mask transition `old_mask → new_mask`: the refined dirty set and
    /// one [`CleanCertificate`] per proven-clean victim, computed from
    /// nothing but the circuit, the mode and the two masks. The deep lint
    /// pass compares a session's claims against this witness, and the
    /// fault-injection hooks are deliberately **not** consulted here — a
    /// corrupted session cannot corrupt its own audit.
    ///
    /// # Errors
    ///
    /// Propagates preparation errors from the substrate analyses.
    pub fn derive_clean_witness(
        &self,
        mode: Mode,
        old_mask: &CouplingMask,
        new_mask: &CouplingMask,
    ) -> Result<CleanWitness, TopKError> {
        let old_prepared = self.prepare(mode, old_mask)?;
        let old_state = bounds::SemanticState::capture(&old_prepared);
        drop(old_prepared);
        let new_prepared = self.prepare(mode, new_mask)?;
        let (_, seeds) = session::changed_and_seeds(self.circuit, old_mask, new_mask);
        let structural = self.circuit.dirty_closure_filtered(&seeds, |cc| {
            old_mask.is_enabled(cc) || new_mask.is_enabled(cc)
        });
        let (refined, _) = bounds::refine(&new_prepared, &old_state, &structural, None);
        Ok(CleanWitness::new(refined.dirty, refined.certificates))
    }

    /// Replays a full sweep on the serial reference path and compares it
    /// slot-by-slot against a parallel work-stealing run: every victim's
    /// published I-lists and counters must be bit-identical, and every
    /// victim's curtailment state must agree with its pre-partitioned
    /// budget share. This is the semantic ground truth behind lint rule
    /// L060 (`lint --deep`, `whatif --audit`): the serial path *is* the
    /// determinism argument's reference schedule, so any divergence means
    /// the scheduler published a wrong slot or moved a budget share.
    ///
    /// The parallel run uses the configured thread count, forced to at
    /// least 2 so the deques and steal path are genuinely exercised even
    /// on a single-core host.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn sched_audit(&self, mode: Mode, k: usize) -> Result<SchedAudit, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let (par, _) = self.sweep_at(mode, k, self.config.effective_threads().max(2), None)?;
        let (ser, _) = self.sweep_at(mode, k, 1, None)?;

        let n = self.circuit.num_nets();
        // The audit re-derives the shares itself: a full sweep's work set
        // is every net, ranked by index.
        let partition = sched::BudgetPartition::new(&self.config, n);
        let mut audit = SchedAudit { checked_victims: n, ..SchedAudit::default() };
        for i in 0..n {
            if *par.lists[i] != *ser.lists[i] || par.counters[i] != ser.counters[i] {
                audit.mismatched_slots.push(i);
            }
            // Share consistency: a victim is Skipped exactly when its
            // pre-partitioned share says so (modulo deadlines, the one
            // budget that is wall-clock dependent by definition).
            if self.config.deadline.is_none() {
                let (skip, _) = partition.share(i);
                let violates = [&par.counters[i], &ser.counters[i]]
                    .iter()
                    .any(|c| (c.curtailment == engine::Curtailment::Skipped) != skip);
                if violates {
                    audit.share_violations.push(i);
                }
            }
        }
        Ok(audit)
    }

    /// Runs a **lazy** sweep that captures its certificates, then an
    /// **eager** reference sweep, and verifies (a) the two sweeps'
    /// published I-lists and identity-relevant counters are bit-identical
    /// on every victim, (b) the lazy counters account for every generated
    /// candidate (`bound_culled + materialized == generated`), and (c)
    /// every [`DeferredPruneCertificate`] re-verifies from scratch: the
    /// culled envelope's recomputed delay noise matches the record and
    /// respects the recorded bound (direction-aware per mode), a claimed
    /// dominance anchor really encapsulates the culled candidate over the
    /// victim's dominance interval and the culled set is absent from the
    /// eager lists of its cardinality, and a claimed beam squeeze really
    /// filled the pre-truncation cap. This is the semantic ground truth
    /// behind lint rule L080 (`lint --deep`, `whatif --audit`).
    ///
    /// Both sweeps force their enumeration path and capture their
    /// certificates on their own prepared worlds, so analyses running
    /// concurrently in the process are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn prune_audit(&self, mode: Mode, k: usize) -> Result<PruneAudit, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let (Swept { lists: lazy_lists, counters: lazy_counters, .. }, certs) =
            self.sweep_at(mode, k, self.config.effective_threads(), Some(false))?;
        // The eager replay runs serial: it is the reference schedule, and
        // determinism across thread counts is L060's concern, not L080's.
        let (Swept { lists: eager_lists, counters: eager_counters, .. }, _) =
            self.sweep_at(mode, k, 1, Some(true))?;
        let prepared = self.prepare(mode, &CouplingMask::all(self.circuit))?;

        let n = self.circuit.num_nets();
        let mut audit = PruneAudit { checked_victims: n, ..PruneAudit::default() };
        audit.certificates = certs.len();
        for i in 0..n {
            let (lc, ec) = (&lazy_counters[i], &eager_counters[i]);
            audit.culled += lc.bound_culled;
            audit.materialized += lc.materialized;
            if *lazy_lists[i] != *eager_lists[i] {
                audit.violations.push(format!("victim {i}: lazy and eager I-lists diverge"));
            }
            if lc.generated != ec.generated
                || lc.peak_list_width != ec.peak_list_width
                || lc.curtailment != ec.curtailment
            {
                audit.violations.push(format!("victim {i}: identity-relevant counters diverge"));
            }
            if lc.bound_culled + lc.materialized != lc.generated {
                audit.violations.push(format!(
                    "victim {i}: admission accounting hole ({} culled + {} materialized != {} generated)",
                    lc.bound_culled, lc.materialized, lc.generated
                ));
            }
            if ec.bound_culled != 0 {
                audit.violations.push(format!("victim {i}: eager path claims bound culls"));
            }
        }

        let cap = self.config.max_list_width.map_or(usize::MAX, |w| w.saturating_mul(4).max(64));
        for cert in &certs {
            let vi = cert.victim.index();
            let iv = prepared.dominance_iv[vi];
            let who = format!("victim {vi} card {} event {}", cert.cardinality, cert.event);
            let dn = prepared.delay_noise_at(cert.victim, &cert.culled_envelope);
            if dn.to_bits() != cert.culled_delay_noise.to_bits() {
                audit.violations.push(format!(
                    "{who}: recomputed delay noise {dn} != recorded {}",
                    cert.culled_delay_noise
                ));
            }
            let bound_ok = match mode {
                Mode::Addition => dn <= cert.culled_bound,
                Mode::Elimination => dn >= cert.culled_bound,
            };
            if !bound_ok {
                audit.violations.push(format!(
                    "{who}: true delay noise {dn} violates recorded bound {}",
                    cert.culled_bound
                ));
            }
            match &cert.kind {
                PruneKind::Dominated { anchor_set, anchor_delay_noise, anchor_envelope } => {
                    let anchor_ok = match mode {
                        Mode::Addition => *anchor_delay_noise >= cert.culled_bound,
                        Mode::Elimination => *anchor_delay_noise <= cert.culled_bound,
                    };
                    if !anchor_ok {
                        audit.violations.push(format!(
                            "{who}: anchor {anchor_set} delay noise {anchor_delay_noise} does not meet bound {}",
                            cert.culled_bound
                        ));
                    }
                    let encapsulated = match mode {
                        Mode::Addition => anchor_envelope.encapsulates(&cert.culled_envelope, iv),
                        Mode::Elimination => cert.culled_envelope.encapsulates(anchor_envelope, iv),
                    };
                    if !encapsulated {
                        audit.violations.push(format!(
                            "{who}: claimed dominance by {anchor_set} fails on full PWLs"
                        ));
                    }
                    let survives = eager_lists[vi]
                        .get(cert.cardinality)
                        .is_some_and(|l| l.iter().any(|c| c.set() == &cert.culled_set));
                    if survives {
                        audit.violations.push(format!(
                            "{who}: culled set {} survives in the eager lists",
                            cert.culled_set
                        ));
                    }
                }
                PruneKind::BeamSqueezed { stronger, cap: cert_cap } => {
                    if *cert_cap != cap {
                        audit.violations.push(format!(
                            "{who}: recorded cap {cert_cap} != configured pre-truncation cap {cap}"
                        ));
                    }
                    if stronger < cert_cap {
                        audit.violations.push(format!(
                            "{who}: beam squeeze with only {stronger} of {cert_cap} stronger sets"
                        ));
                    }
                }
            }
        }
        Ok(audit)
    }

    fn run(&self, mode: Mode, k: usize) -> Result<TopKResult, TopKError> {
        self.run_with_mask(mode, k, &CouplingMask::all(self.circuit))
    }

    /// Shared tail of every top-k run over one swept scenario: select the
    /// sink options of the prepared mode, pick the measured (or
    /// predicted) winner among them and assemble the result, all inside
    /// the selection phase's panic boundary. Validation masks are
    /// anchored at the prepared mask — the couplings the run was allowed
    /// to see — so restricted-mask runs (and incremental sessions
    /// re-running under a delta'd mask) measure options in the same world
    /// the enumeration saw.
    pub(crate) fn conclude(
        &self,
        prepared: &Prepared<'_>,
        k: usize,
        swept: &Swept,
        sched: SchedStats,
        start: Instant,
    ) -> Result<TopKResult, TopKError> {
        guard(FaultPhase::Selection, || {
            let outcome = match prepared.mode {
                Mode::Addition => addition::select(prepared, k, &swept.lists, &swept.counters),
                Mode::Elimination => {
                    elimination::select(prepared, k, &swept.lists, &swept.counters)
                }
            }?;
            self.finish(prepared, k, outcome, &swept.faults, sched, start)
        })
    }

    /// The validation and assembly half of [`conclude`](Self::conclude).
    fn finish(
        &self,
        prepared: &Prepared<'_>,
        k: usize,
        outcome: addition::EnumerationOutcome,
        faults: &[Fault],
        sched: SchedStats,
        start: Instant,
    ) -> Result<TopKResult, TopKError> {
        let (mode, base_mask) = (prepared.mode, &prepared.mask);
        let delay_before = match mode {
            Mode::Addition => prepared.base.circuit_delay(),
            Mode::Elimination => {
                let Some(noisy) = prepared.noisy.as_ref() else {
                    return Err(TopKError::Internal {
                        what: "elimination finished without a converged noisy report".into(),
                    });
                };
                noisy.circuit_delay()
            }
        };

        // Measure the best predicted options with full iterative noise
        // analyses and keep the winner by *measured* delay; without
        // validation, trust the single best prediction.
        let mut options = outcome.options;
        debug_assert!(!options.is_empty(), "enumeration always yields an option");
        let (choice, delay_after) = if self.config.validate {
            let mut best: Option<(usize, f64)> = None;
            for (idx, opt) in options.iter().enumerate() {
                let mask = match mode {
                    Mode::Addition => CouplingMask::none(self.circuit).with(opt.set.ids()),
                    Mode::Elimination => base_mask.clone().without(opt.set.ids()),
                };
                let measured = self.noise.run_with_mask(&mask)?.circuit_delay();
                let better = match (&best, mode) {
                    (None, _) => true,
                    (Some((_, d)), Mode::Addition) => measured > *d,
                    (Some((_, d)), Mode::Elimination) => measured < *d,
                };
                if better {
                    best = Some((idx, measured));
                }
            }
            let Some((idx, measured)) = best else {
                return Err(TopKError::Internal {
                    what: "validation pool was empty despite non-empty options".into(),
                });
            };
            (options.swap_remove(idx), measured)
        } else {
            let first = options.swap_remove(0);
            let predicted = first.predicted_delay;
            (first, predicted)
        };

        let stats = SweepStats {
            truncated_victims: outcome.totals.truncated_victims,
            skipped_victims: outcome.totals.skipped_victims,
            quarantined_victims: faults.len(),
            bound_culled: outcome.totals.bound_culled,
            materialized: outcome.totals.materialized,
        };
        Ok(TopKResult {
            mode,
            requested_k: k,
            set: choice.set,
            sink: choice.sink,
            delay_before,
            delay_after,
            predicted_delay: choice.predicted_delay,
            peak_list_width: outcome.totals.peak_list_width,
            generated_candidates: outcome.totals.generated,
            runtime: start.elapsed(),
            faults: FaultReport::new(faults.to_vec()),
            stats,
            sched,
        })
    }
}
