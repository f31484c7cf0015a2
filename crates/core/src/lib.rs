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

use engine::{Prepared, Swept};
use faultsim::Faults;

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

/// Maps `f` over `0..n` on up to `threads` scoped workers — worker `w`
/// takes the indices `w, w + workers, …` — and returns the results in
/// index order, so a caller folding them serially resolves ties and the
/// first error exactly as a serial loop would. With one worker (or one
/// item) `f` runs inline on the calling thread. A worker's panic
/// surfaces as [`TopKError::EnginePanic`] naming `phase`.
pub(crate) fn par_map<T: Send>(
    threads: usize,
    n: usize,
    phase: FaultPhase,
    f: impl Fn(usize) -> Result<T, TopKError> + Sync,
) -> Result<Vec<T>, TopKError> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let columns: Vec<Result<Vec<Result<T, TopKError>>, TopKError>> = std::thread::scope(|sp| {
        let handles: Vec<_> = (0..workers)
            .map(|w| sp.spawn(move || Ok((w..n).step_by(workers).map(f).collect())))
            .collect();
        handles.into_iter().map(|h| join_or_panic(h, phase)).collect()
    });
    let mut columns: Vec<_> =
        columns.into_iter().map(|c| c.map(Vec::into_iter)).collect::<Result<_, _>>()?;
    (0..n)
        .map(|i| columns[i % workers].next().expect("worker i % workers produced index i"))
        .collect()
}

/// Joins a scoped worker, converting a propagated unwind into the typed
/// engine error (unreachable while per-victim boundaries hold, but a
/// harness bug must not abort the process).
fn join_or_panic<T>(
    handle: std::thread::ScopedJoinHandle<'_, Result<T, TopKError>>,
    phase: FaultPhase,
) -> Result<T, TopKError> {
    match handle.join() {
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
    faults: Faults,
}

impl<'c> TopKAnalysis<'c> {
    /// Creates an engine over `circuit`.
    #[must_use]
    pub fn new(circuit: &'c Circuit, config: TopKConfig) -> Self {
        Self::with_faults(circuit, config, Faults::default())
    }

    /// Creates an engine whose runs consult the fault-injection hooks in
    /// `faults` (see [`faultsim`]). The hooks belong to this engine alone
    /// and never enter its configuration, results or artifacts.
    #[doc(hidden)]
    #[must_use]
    pub fn with_faults(circuit: &'c Circuit, config: TopKConfig, faults: Faults) -> Self {
        let noise = NoiseAnalysis::new(circuit, config.noise);
        Self { circuit, config, noise, faults }
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
    /// the elimination algorithm). Every round re-enumerates every victim
    /// from scratch, so a
    /// [`global_candidate_budget`](TopKConfig::global_candidate_budget)
    /// charges every victim in every round. Costs roughly `k / step`
    /// one-pass runs.
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
        let threads = self.config.effective_threads();
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
                Prepared::build(self, Mode::Elimination, mask.clone())
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
            // Rounds re-sweep the same victims: count each curtailment at
            // its per-round worst instead of summing duplicates, and keep
            // one fault per victim.
            stats.truncated_victims = stats.truncated_victims.max(outcome.totals.truncated_victims);
            stats.skipped_victims = stats.skipped_victims.max(outcome.totals.skipped_victims);
            for f in round_faults {
                if !faults.iter().any(|g| g.victim() == f.victim()) {
                    faults.push(f);
                }
            }

            // Measure each option under the current mask; commit the best.
            let options = &outcome.options;
            let measured = par_map(threads, options.len(), FaultPhase::Selection, |i| {
                if options[i].set.is_empty() {
                    return Ok(None);
                }
                let trial = mask.clone().without(options[i].set.ids());
                Ok(Some(self.noise.run_with_mask(&trial)?.circuit_delay()))
            })?;
            let mut best: Option<(f64, f64, &CouplingSet, dna_netlist::NetId)> = None;
            for (opt, measured) in options.iter().zip(measured) {
                let Some(measured) = measured else { continue };
                if best.as_ref().is_none_or(|(m, ..)| measured < *m) {
                    best = Some((measured, opt.predicted_delay, &opt.set, opt.sink));
                }
            }
            let Some((measured, pred, set, opt_sink)) = best else { break };
            if measured >= delay_now - self.config.noise.tolerance {
                break; // no further improvement available
            }
            mask = mask.without(set.ids());
            chosen = chosen.union(set);
            delay_now = measured;
            predicted = pred;
            sink = opt_sink;
        }

        stats.quarantined_victims = faults.len();
        stats.materialized = generated;
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
        let prepared = guard(FaultPhase::Prepare, || Prepared::build(self, mode, mask.clone()))?;
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
        let result =
            self.conclude(prepared, k, &swept, sched, self.config.effective_threads(), start)?;
        Ok((result, swept))
    }

    /// A from-scratch sweep under the full mask at `threads` workers,
    /// without selection: the replay the scheduler audit compares.
    fn sweep_at(&self, mode: Mode, k: usize, threads: usize) -> Result<Swept, TopKError> {
        let config = TopKConfig { threads, ..self.config };
        let analysis = TopKAnalysis::with_faults(self.circuit, config, self.faults);
        let prepared = analysis.prepare(mode, &CouplingMask::all(self.circuit))?;
        engine::sweep_full(&prepared, k).map(|(swept, _)| swept)
    }

    /// Independently re-derives the corridor prover's conclusion for a
    /// mask transition `old_mask → new_mask`: the refined dirty set and
    /// one [`CleanCertificate`] per proven-clean victim, computed from
    /// nothing but the circuit, the mode and the two masks. The deep lint
    /// pass compares a session's claims against this witness, and the
    /// forced-clean hook is deliberately **not** consulted here — a
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
        let par = self.sweep_at(mode, k, self.config.effective_threads().max(2))?;
        let ser = self.sweep_at(mode, k, 1)?;

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
    /// the enumeration saw. The validation pool runs on up to
    /// `threads` workers.
    pub(crate) fn conclude(
        &self,
        prepared: &Prepared<'_>,
        k: usize,
        swept: &Swept,
        sched: SchedStats,
        threads: usize,
        start: Instant,
    ) -> Result<TopKResult, TopKError> {
        guard(FaultPhase::Selection, || {
            let outcome = match prepared.mode {
                Mode::Addition => addition::select(prepared, k, &swept.lists, &swept.counters),
                Mode::Elimination => {
                    elimination::select(prepared, k, &swept.lists, &swept.counters)
                }
            }?;
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
            // analyses (independent, so in parallel) and keep the winner by
            // *measured* delay, folding in index order so ties and the first
            // error resolve as a serial loop would; without validation, trust
            // the single best prediction.
            let mut options = outcome.options;
            debug_assert!(!options.is_empty(), "enumeration always yields an option");
            let (choice, delay_after) = if self.config.validate {
                let measured = par_map(threads, options.len(), FaultPhase::Selection, |idx| {
                    let set = options[idx].set.ids();
                    let mask = match mode {
                        Mode::Addition => CouplingMask::none(self.circuit).with(set),
                        Mode::Elimination => base_mask.clone().without(set),
                    };
                    Ok(self.noise.run_with_mask(&mask)?.circuit_delay())
                })?;
                let mut best: Option<(usize, f64)> = None;
                for (idx, measured) in measured.into_iter().enumerate() {
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
                quarantined_victims: swept.faults.len(),
                bound_culled: 0,
                materialized: outcome.totals.generated,
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
                faults: FaultReport::new(swept.faults.clone()),
                stats,
                sched,
            })
        })
    }
}
