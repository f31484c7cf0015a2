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
//! Every fast configuration (parallel sweeps, incremental and batch
//! what-if) is checked against one serial from-scratch [`Oracle`].
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
mod batch;
mod bounds;
mod candidate;
mod config;
mod elimination;
mod engine;
mod error;
mod oracle;
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
pub use bounds::Damping;
pub use brute::{brute_force, BruteForceConfig, BruteForceOutcome};
pub use candidate::Candidate;
pub use config::TopKConfig;
pub use engine::Mode;
pub use error::{ArtifactError, TopKError};
pub use oracle::{Divergence, Oracle};
pub use persist::{
    chain_summary, chain_summary_checked, chain_tip, commit_chain, truncate_chain_file,
    ChainAnchor, ChainFault, ChainRecovery, ChainSummary, CommitOptions, RecordKind, RecordMeta,
    SaveKind, SaveReport, ARTIFACT_VERSION,
};
pub use result::{Fault, FaultPhase, FaultReport, Fingerprint, Soundness, SweepStats, TopKResult};
pub use sched::SchedStats;
pub use session::{MaskDelta, WhatIfOutcome, WhatIfSession};

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use dna_netlist::Circuit;
use dna_noise::{CouplingMask, NoiseAnalysis};

use addition::SinkOption;
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
                let (swept, sched) = engine::sweep_full(&prepared, budget, threads)?;
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

            // Measure each non-empty option under the current mask; commit
            // the best.
            let options: Vec<SinkOption> =
                outcome.options.into_iter().filter(|opt| !opt.set.is_empty()).collect();
            let Some((idx, measured)) = self.validate_elimination(threads, &mask, &options)? else {
                break;
            };
            if measured >= delay_now - self.config.noise.tolerance {
                break; // no further improvement available
            }
            let best = &options[idx];
            mask = mask.without(best.set.ids());
            chosen = chosen.union(&best.set);
            delay_now = measured;
            predicted = best.predicted_delay;
            sink = best.sink;
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
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let start = Instant::now();
        let prepared = self.prepare(mode, mask)?;
        let threads = self.config.effective_threads();
        self.run_prepared(&prepared, k, threads, start).map(|(result, _)| result)
    }

    /// The preparation front half of a run: input validation plus the
    /// guarded [`Prepared::build`]. Split out so the what-if paths can
    /// interpose the damping prover (which reads the prepared state)
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
    /// state on `threads` workers, also handing back the per-victim sweep
    /// state a what-if session caches. `start` anchors the reported
    /// runtime (callers pass the instant the whole run began).
    pub(crate) fn run_prepared(
        &self,
        prepared: &Prepared<'_>,
        k: usize,
        threads: usize,
        start: Instant,
    ) -> Result<(TopKResult, Swept), TopKError> {
        let enum_start = Instant::now();
        let (swept, sched) = engine::sweep_full(prepared, k, threads)?;
        if std::env::var_os("DNA_PROFILE").is_some() {
            eprintln!("[profile] enumerate: {:.2?}", enum_start.elapsed());
        }
        let result = self.conclude(prepared, k, &swept, sched, threads, start)?;
        Ok((result, swept))
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
            // *measured* delay, resolving ties and the first error as a
            // serial loop in index order would; without validation, trust
            // the single best prediction.
            let mut options = outcome.options;
            debug_assert!(!options.is_empty(), "enumeration always yields an option");
            let (choice, delay_after) = if self.config.validate {
                let best = match mode {
                    Mode::Addition => {
                        let measured =
                            sched::map(threads, options.len(), FaultPhase::Selection, |idx| {
                                let mask =
                                    CouplingMask::none(self.circuit).with(options[idx].set.ids());
                                Ok(self.noise.run_with_mask(&mask)?.circuit_delay())
                            })?;
                        let mut best: Option<(usize, f64)> = None;
                        for (idx, delay) in measured.into_iter().enumerate() {
                            if best.is_none_or(|(_, d)| delay > d) {
                                best = Some((idx, delay));
                            }
                        }
                        best
                    }
                    Mode::Elimination => self.validate_elimination(threads, base_mask, &options)?,
                };
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

    /// Measures every elimination option under `base` minus its set and
    /// returns the winner's index and measured delay: the minimum
    /// measured delay, the lower index winning ties — exactly the serial
    /// "measure all, fold in index order" answer, or `None` for no
    /// options. The only elimination validation: one-pass runs and every
    /// peel round share it.
    ///
    /// **Bound and abandon** (DESIGN §18.7). The options run on up to
    /// `threads` workers that share the best finished `(delay, index)`.
    /// Each option's ascending fixpoint reports its iterate's circuit
    /// delay, a lower bound on its final measured delay, and stops as soon
    /// as [`cannot_win`] says that bound has lost. Abandoned options are
    /// never the serial winner, so the answer is the same at any thread
    /// count; only the work done depends on the schedule.
    fn validate_elimination(
        &self,
        threads: usize,
        base: &CouplingMask,
        options: &[SinkOption],
    ) -> Result<Option<(usize, f64)>, TopKError> {
        // Every update is one assignment, so a poisoned lock still holds a
        // whole `(delay, index)`.
        let best: Mutex<Option<(f64, usize)>> = Mutex::new(None);
        let best_now = || *best.lock().unwrap_or_else(PoisonError::into_inner);
        let measured = sched::map(threads, options.len(), FaultPhase::Selection, |idx| {
            let mask = base.clone().without(options[idx].set.ids());
            let until = |bound| cannot_win(bound, idx, best_now());
            let Some(report) = self.noise.run_with_mask_until(&mask, until)? else {
                return Ok(None);
            };
            let delay = report.circuit_delay();
            let mut best = best.lock().unwrap_or_else(PoisonError::into_inner);
            if !cannot_win(delay, idx, *best) {
                *best = Some((delay, idx));
            }
            Ok(Some(delay))
        })?;
        let mut winner: Option<(usize, f64)> = None;
        for (idx, delay) in measured.into_iter().enumerate() {
            let Some(delay) = delay else { continue };
            if winner.is_none_or(|(_, d)| delay < d) {
                winner = Some((idx, delay));
            }
        }
        Ok(winner)
    }
}

/// Whether an elimination option at `index` whose measured delay is known
/// to be at least `bound` can no longer win against the best finished
/// option `best = (delay, at)`: the minimum delay wins and the lower index
/// wins a tie, so it has lost once `bound` is above `delay`, or equal to it
/// with `index` above `at`.
fn cannot_win(bound: f64, index: usize, best: Option<(f64, usize)>) -> bool {
    best.is_some_and(|(delay, at)| bound > delay || (bound == delay && index > at))
}

#[cfg(test)]
mod tests {
    use super::cannot_win;

    #[test]
    fn nothing_loses_before_an_option_finishes() {
        assert!(!cannot_win(f64::INFINITY, 7, None));
    }

    #[test]
    fn a_bound_above_the_best_delay_loses_at_any_index() {
        assert!(cannot_win(5.5, 9, Some((5.0, 3))));
        assert!(cannot_win(5.5, 1, Some((5.0, 3))));
    }

    #[test]
    fn a_bound_below_the_best_delay_keeps_running_at_any_index() {
        assert!(!cannot_win(4.5, 9, Some((5.0, 3))));
        assert!(!cannot_win(4.5, 1, Some((5.0, 3))));
    }

    #[test]
    fn an_equal_delay_loses_only_at_a_higher_index() {
        // A later option tying the best can at most tie it, and the lower
        // index wins ties; an earlier one could still win the tie.
        assert!(cannot_win(5.0, 4, Some((5.0, 3))));
        assert!(!cannot_win(5.0, 2, Some((5.0, 3))));
        assert!(!cannot_win(5.0, 0, Some((5.0, 3))));
    }
}
