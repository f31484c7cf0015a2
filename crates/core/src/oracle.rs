//! The identity oracle: the serial from-scratch reference run that every
//! fast configuration — any thread count, an incremental apply under
//! either damping, a batch in any order, a served scenario — must
//! reproduce bit for bit. An [`Oracle`] runs it once (one worker, an
//! empty cache, the same engine, config, faults and mask) and diffs any
//! variant against it, naming the first [`Divergence`].
//!
//! # Example
//!
//! ```
//! use dna_netlist::suite;
//! use dna_noise::CouplingMask;
//! use dna_topk::{Mode, Oracle, TopKAnalysis, TopKConfig};
//!
//! let circuit = suite::benchmark("i1", 42)?;
//! let engine = TopKAnalysis::new(&circuit, TopKConfig { threads: 4, ..TopKConfig::default() });
//! let oracle = Oracle::new(&engine, Mode::Addition, 3, &CouplingMask::all(&circuit))?;
//! assert_eq!(oracle.check_result(&engine.addition_set(3)?), Ok(()));
//! assert_eq!(oracle.check_parallel(4), Ok(()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::time::Instant;

use dna_netlist::NetId;
use dna_noise::CouplingMask;

use crate::engine::{self, Curtailment, Prepared, Swept};
use crate::sched::BudgetPartition;
use crate::{Mode, TopKAnalysis, TopKError, TopKResult, WhatIfSession};

/// The first point where a variant left the reference: a victim (first
/// in topological order, so a corrupted slot blames itself rather than a
/// dependent that read it) or `None` for a result-level field, plus the
/// name of the field that differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// The divergent victim, or `None` for a result-level field.
    pub victim: Option<NetId>,
    /// The differing field: a [`Fingerprint`](crate::Fingerprint) field
    /// name, `mask`, `parallel sweep`, or per victim `lists`,
    /// `counters` or `budget share`.
    pub field: &'static str,
}

/// The serial from-scratch reference run of one (engine, mode, k, mask)
/// query, kept for comparison. See the module docs.
pub struct Oracle<'c> {
    prepared: Prepared<'c>,
    k: usize,
    swept: Swept,
    result: TopKResult,
}

impl<'c> Oracle<'c> {
    /// Runs the reference configuration once: `analysis`'s engine,
    /// config and faults under `mask`, swept by one worker from an empty
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::ZeroK`] for `k == 0` and propagates timing
    /// errors from the substrate analyses.
    pub fn new(
        analysis: &TopKAnalysis<'c>,
        mode: Mode,
        k: usize,
        mask: &CouplingMask,
    ) -> Result<Self, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let start = Instant::now();
        let prepared = analysis.prepare(mode, mask)?;
        let (result, swept) = analysis.run_prepared(&prepared, k, 1, start)?;
        Ok(Self { prepared, k, swept, result })
    }

    /// The reference result.
    #[must_use]
    pub fn result(&self) -> &TopKResult {
        &self.result
    }

    /// Compares `result`'s [`Fingerprint`](crate::Fingerprint) with the
    /// reference's.
    ///
    /// # Errors
    ///
    /// The first differing fingerprint field, at result level.
    pub fn check_result(&self, result: &TopKResult) -> Result<(), Divergence> {
        let (a, b) = (result.fingerprint(), self.result.fingerprint());
        let same = [
            ("couplings", a.couplings == b.couplings),
            ("sink", a.sink == b.sink),
            ("delay_before", a.delay_before == b.delay_before),
            ("delay_after", a.delay_after == b.delay_after),
            ("predicted_delay", a.predicted_delay == b.predicted_delay),
            ("peak_list_width", a.peak_list_width == b.peak_list_width),
            ("generated_candidates", a.generated_candidates == b.generated_candidates),
            ("truncated", a.truncated == b.truncated),
            ("skipped", a.skipped == b.skipped),
            ("quarantined", a.quarantined == b.quarantined),
        ];
        match same.into_iter().find(|&(_, same)| !same) {
            Some((field, _)) => Err(Divergence { victim: None, field }),
            None => Ok(()),
        }
    }

    /// Compares a what-if session's cached state with the reference: its
    /// mask, then the irredundant lists and enumeration counters of every
    /// victim, then its result. A cached victim the session should have
    /// re-swept (an unsound proven-clean skip, a stale artifact) is named
    /// here even though nothing recomputed it.
    ///
    /// # Errors
    ///
    /// The first divergence found.
    pub fn check_session(&self, session: &WhatIfSession<'_, '_>) -> Result<(), Divergence> {
        if session.mask != self.prepared.mask {
            return Err(Divergence { victim: None, field: "mask" });
        }
        self.check_victims(&session.lists, &session.counters)?;
        self.check_result(&session.result)
    }

    /// Re-sweeps the reference world on `threads` workers (at least 2, so
    /// the parallel scheduler runs even on a single-core host) and
    /// compares every victim's result slot. Without a deadline — the one
    /// budget that depends on wall-clock time — every victim must also
    /// be skipped exactly when its pre-partitioned budget share is zero.
    ///
    /// # Errors
    ///
    /// The first divergent victim; `parallel sweep` when the parallel
    /// harness itself failed.
    pub fn check_parallel(&self, threads: usize) -> Result<(), Divergence> {
        let Ok((par, _)) = engine::sweep_full(&self.prepared, self.k, threads.max(2)) else {
            return Err(Divergence { victim: None, field: "parallel sweep" });
        };
        self.check_victims(&par.lists, &par.counters)?;
        let config = &self.prepared.config;
        if config.deadline.is_some() {
            return Ok(());
        }
        // A full sweep's budget ranks are the net indices.
        let partition = BudgetPartition::new(config, par.counters.len());
        for &v in self.prepared.circuit.nets_topological() {
            let (skip, _) = partition.share(v.index());
            if (par.counters[v.index()].curtailment == Curtailment::Skipped) != skip {
                return Err(Divergence { victim: Some(v), field: "budget share" });
            }
        }
        Ok(())
    }

    /// The first victim, in topological order, whose lists or counters
    /// differ from the reference sweep's.
    fn check_victims(
        &self,
        lists: &[engine::NetLists],
        counters: &[engine::VictimCounters],
    ) -> Result<(), Divergence> {
        for &v in self.prepared.circuit.nets_topological() {
            let i = v.index();
            if *lists[i] != *self.swept.lists[i] {
                return Err(Divergence { victim: Some(v), field: "lists" });
            }
            if counters[i] != self.swept.counters[i] {
                return Err(Divergence { victim: Some(v), field: "counters" });
            }
        }
        Ok(())
    }
}
