//! Results of a top-k analysis.

use std::fmt;
use std::time::Duration;

use dna_netlist::{CouplingId, NetId};

use crate::sched::SchedStats;
use crate::{CouplingSet, Mode};

/// The engine phase a fault was caught in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Timing preparation (STA, converged noise, dominance bounds) —
    /// whole-run scope, cannot be isolated to one victim.
    Prepare,
    /// Per-victim I-list construction — isolated: the victim is
    /// quarantined, the rest of the sweep proceeds.
    Enumeration,
    /// Sink selection / validation of the finished lists — whole-run
    /// scope.
    Selection,
}

impl FaultPhase {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::Prepare => "prepare",
            FaultPhase::Enumeration => "enumeration",
            FaultPhase::Selection => "selection",
        }
    }
}

impl fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One quarantined victim: a fault (panic or typed error) the sweep
/// isolated to a single victim's enumeration instead of aborting the run.
///
/// The quarantined victim contributes empty I-lists — downstream
/// consumers treat it as offering no candidates, which keeps every
/// reported set achievable (a sound lower bound) while the rest of the
/// circuit is analyzed normally.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    pub(crate) victim: NetId,
    pub(crate) phase: FaultPhase,
    pub(crate) cause: String,
}

impl Fault {
    pub(crate) fn new(victim: NetId, phase: FaultPhase, cause: String) -> Self {
        Self { victim, phase, cause }
    }

    /// The quarantined victim net.
    #[must_use]
    pub fn victim(&self) -> NetId {
        self.victim
    }

    /// The engine phase the fault was caught in.
    #[must_use]
    pub fn phase(&self) -> FaultPhase {
        self.phase
    }

    /// Human-readable cause: the panic message or the typed error's
    /// display form.
    #[must_use]
    pub fn cause(&self) -> &str {
        &self.cause
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "victim {} [{}]: {}", self.victim.index(), self.phase, self.cause)
    }
}

/// The quarantined victims of one analysis, ordered by victim index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    faults: Vec<Fault>,
}

impl FaultReport {
    pub(crate) fn new(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| f.victim.index());
        Self { faults }
    }

    /// Whether no victim was quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of quarantined victims.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The faults, sorted by victim index.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Iterates the faults.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }
}

/// Sweep-level robustness counters: how much of the enumeration was
/// curtailed by budgets or quarantined by faults.
///
/// All zeros means the sweep ran exactly as the unbudgeted, fault-free
/// engine — the bit-identical fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Victims whose candidate generation a budget cut short mid-victim
    /// (their I-lists hold the strongest survivors of what was generated).
    pub truncated_victims: usize,
    /// Victims served empty lists because the global budget or deadline
    /// was already exhausted when they came up.
    pub skipped_victims: usize,
    /// Victims quarantined by faults (see
    /// [`TopKResult::faults`]).
    pub quarantined_victims: usize,
    /// Retired slot, always 0. It counted candidates culled on a bound
    /// before bound-first admission was removed; every candidate now gets
    /// its exact score. Kept because readers derive the generated count
    /// from `bound_culled + materialized` and the session artifact (v3)
    /// stores both slots.
    pub bound_culled: usize,
    /// Retired slot, always [`TopKResult::generated_candidates`]. It no
    /// longer counts built envelopes: candidates are scored without one,
    /// and only those that survive ranking are materialized.
    pub materialized: usize,
}

impl SweepStats {
    /// Whether any counter is non-zero — the result is then a degraded
    /// (but sound) lower bound, not the exact top-k answer.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.truncated_victims > 0 || self.skipped_victims > 0 || self.quarantined_victims > 0
    }
}

/// Soundness classification of a [`TopKResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Soundness {
    /// The full enumeration ran: the result is the engine's exact answer.
    Exact,
    /// Budgets or quarantines curtailed the enumeration. The reported set
    /// is still *achievable* (its delay impact was really measured or
    /// soundly predicted), so the result is a lower bound on the true
    /// top-k impact — `lower_bound` records that direction explicitly.
    Degraded {
        /// Always true for this engine: truncation only ever drops
        /// candidates, it never fabricates them, so the reported impact
        /// can only under-, never over-state the optimum.
        lower_bound: bool,
    },
}

/// The outcome of one top-k addition- or elimination-set computation.
#[derive(Debug, Clone)]
pub struct TopKResult {
    pub(crate) mode: Mode,
    pub(crate) requested_k: usize,
    pub(crate) set: CouplingSet,
    pub(crate) sink: NetId,
    pub(crate) delay_before: f64,
    pub(crate) delay_after: f64,
    pub(crate) predicted_delay: f64,
    pub(crate) peak_list_width: usize,
    pub(crate) generated_candidates: usize,
    pub(crate) runtime: Duration,
    pub(crate) faults: FaultReport,
    pub(crate) stats: SweepStats,
    pub(crate) sched: SchedStats,
}

impl TopKResult {
    /// Which flavor was computed.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The `k` that was requested. The returned set can be smaller when
    /// the circuit has fewer useful couplings.
    #[must_use]
    pub fn requested_k(&self) -> usize {
        self.requested_k
    }

    /// The chosen coupling set, sorted by id.
    #[must_use]
    pub fn couplings(&self) -> &[CouplingId] {
        self.set.ids()
    }

    /// The chosen set as a [`CouplingSet`].
    #[must_use]
    pub fn set(&self) -> &CouplingSet {
        &self.set
    }

    /// The primary output whose delay the set drives.
    #[must_use]
    pub fn sink(&self) -> NetId {
        self.sink
    }

    /// Circuit delay before applying the set: noiseless delay for
    /// addition, full-noise delay for elimination.
    #[must_use]
    pub fn delay_before(&self) -> f64 {
        self.delay_before
    }

    /// Circuit delay after applying the set, measured by a full iterative
    /// noise analysis (or the predicted value when validation is
    /// disabled): with only the set's couplings for addition, with the
    /// set's couplings removed for elimination.
    #[must_use]
    pub fn delay_after(&self) -> f64 {
        self.delay_after
    }

    /// Circuit delay predicted by envelope superposition at the sink
    /// (before validation).
    #[must_use]
    pub fn predicted_delay(&self) -> f64 {
        self.predicted_delay
    }

    /// Convenience aliases matching the paper's tables: the delay *with*
    /// the aggressor set active.
    #[must_use]
    pub fn delay_with(&self) -> f64 {
        match self.mode {
            Mode::Addition => self.delay_after,
            Mode::Elimination => self.delay_before,
        }
    }

    /// The delay *without* the aggressor set active.
    #[must_use]
    pub fn delay_without(&self) -> f64 {
        match self.mode {
            Mode::Addition => self.delay_before,
            Mode::Elimination => self.delay_after,
        }
    }

    /// Delay impact of the set (always non-negative for a useful set).
    #[must_use]
    pub fn delay_impact(&self) -> f64 {
        self.delay_with() - self.delay_without()
    }

    /// Largest irredundant-list width observed during enumeration — the
    /// paper's evidence that dominance pruning keeps the search tractable.
    #[must_use]
    pub fn peak_list_width(&self) -> usize {
        self.peak_list_width
    }

    /// Total candidates generated before pruning.
    #[must_use]
    pub fn generated_candidates(&self) -> usize {
        self.generated_candidates
    }

    /// Wall-clock runtime of the computation.
    #[must_use]
    pub fn runtime(&self) -> Duration {
        self.runtime
    }

    /// Victims quarantined by per-victim fault isolation (empty when the
    /// sweep ran fault-free).
    #[must_use]
    pub fn faults(&self) -> &FaultReport {
        &self.faults
    }

    /// Budget/quarantine counters of the sweep.
    #[must_use]
    pub fn sweep_stats(&self) -> &SweepStats {
        &self.stats
    }

    /// Scheduler counters of the enumeration sweep:
    /// threads, tasks and per-worker load spread. Diagnostic
    /// only — never part of fingerprints, identity contracts or
    /// persisted artifacts (a decoded artifact reports default stats).
    #[must_use]
    pub fn scheduler_stats(&self) -> &SchedStats {
        &self.sched
    }

    /// Whether budgets or faults curtailed the enumeration. A degraded
    /// result is still *sound*: the reported set is achievable and its
    /// impact lower-bounds the true top-k impact.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.stats.is_degraded() || !self.faults.is_empty()
    }

    /// [`Soundness`] classification of this result.
    #[must_use]
    pub fn soundness(&self) -> Soundness {
        if self.is_degraded() {
            Soundness::Degraded { lower_bound: true }
        } else {
            Soundness::Exact
        }
    }

    /// Everything two runs must agree on bit-for-bit.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            couplings: self.couplings().to_vec(),
            sink: self.sink,
            delay_before: self.delay_before.to_bits(),
            delay_after: self.delay_after.to_bits(),
            predicted_delay: self.predicted_delay.to_bits(),
            peak_list_width: self.peak_list_width,
            generated_candidates: self.generated_candidates,
            truncated: self.stats.truncated_victims,
            skipped: self.stats.skipped_victims,
            quarantined: self.stats.quarantined_victims,
        }
    }

    /// FNV-1a digest of the first seven [`Fingerprint`] fields (all but
    /// the degradation counts). The serve layer ships it so clients can
    /// bit-compare a response against a local replay without pushing
    /// floats through decimal formatting.
    #[must_use]
    pub fn identity_fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let fp = self.fingerprint();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(fp.couplings.len() as u64);
        for c in &fp.couplings {
            eat(c.index() as u64);
        }
        eat(fp.sink.index() as u64);
        eat(fp.delay_before);
        eat(fp.delay_after);
        eat(fp.predicted_delay);
        eat(fp.peak_list_width as u64);
        eat(fp.generated_candidates as u64);
        h
    }
}

/// The identity of a [`TopKResult`], `f64`s as bit patterns: what every
/// bit-identity contract compares. Runtime and scheduler counters are
/// excluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// The selected coupling ids, in order.
    pub couplings: Vec<CouplingId>,
    /// The sink the set was selected at.
    pub sink: NetId,
    /// Bits of [`TopKResult::delay_before`].
    pub delay_before: u64,
    /// Bits of [`TopKResult::delay_after`].
    pub delay_after: u64,
    /// Bits of [`TopKResult::predicted_delay`].
    pub predicted_delay: u64,
    /// [`TopKResult::peak_list_width`].
    pub peak_list_width: usize,
    /// [`TopKResult::generated_candidates`].
    pub generated_candidates: usize,
    /// [`SweepStats::truncated_victims`].
    pub truncated: usize,
    /// [`SweepStats::skipped_victims`].
    pub skipped: usize,
    /// [`SweepStats::quarantined_victims`].
    pub quarantined: usize,
}

impl fmt::Display for TopKResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "top-{} {} set {} (delay {:.3} -> {:.3} ps, {:.2?})",
            self.requested_k,
            self.mode.name(),
            self.set,
            self.delay_before,
            self.delay_after,
            self.runtime
        )?;
        if self.is_degraded() {
            write!(
                f,
                " [degraded lower bound: {} truncated, {} skipped, {} quarantined]",
                self.stats.truncated_victims,
                self.stats.skipped_victims,
                self.stats.quarantined_victims
            )?;
        }
        Ok(())
    }
}
