//! Top-k engine configuration.

use std::time::Duration;

use dna_noise::NoiseConfig;

use crate::bounds::Damping;

/// Configuration of the top-k aggressor-set engine.
///
/// The defaults reproduce the paper's algorithm; the switches exist for the
/// ablation benches (how much do dominance pruning, pseudo aggressors and
/// higher-order aggressors each contribute?).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKConfig {
    /// Configuration of the underlying noise analysis.
    pub noise: NoiseConfig,
    /// Upper bound on the width of each irredundant list.
    ///
    /// Dominance pruning alone keeps lists small on realistic circuits
    /// (paper §3.2); the beam cap is a safety net for adversarial inputs.
    /// Candidates with the largest delay noise are kept. `None` disables
    /// the cap (exact mode, used to validate against brute force).
    pub max_list_width: Option<usize>,
    /// Enable dominance pruning (paper Theorem 1). Disabling it is only
    /// sensible together with a beam cap, for the ablation study.
    pub dominance_pruning: bool,
    /// Enable pseudo input aggressors (paper §3.1). Disabling restricts
    /// the analysis to primary aggressors per victim.
    pub pseudo_aggressors: bool,
    /// Enable higher-order aggressors (paper §3.3, the `b1₂` candidates).
    pub higher_order: bool,
    /// Validate the chosen set with a full iterative noise analysis and
    /// report the measured delay (recommended; small extra cost).
    pub validate: bool,
    /// When validating, measure up to this many of the best predicted
    /// candidate sets and return the one with the best *measured* delay
    /// (ties go to the better-predicted set). Guards the envelope
    /// abstraction's ranking against close calls; `1` validates only the
    /// single predicted winner.
    ///
    /// Elimination stops measuring a set as soon as its ascending noise
    /// fixpoint shows it cannot beat the best set measured so far (bound
    /// and abandon), so most of the pool costs a few iterations instead
    /// of a full analysis. The chosen set and its measured delay are the
    /// same as measuring every set to the end, at any thread count.
    pub validation_pool: usize,
    /// How many gate levels upstream the higher-order widener search
    /// looks. Noise iterations converge within a few levels (industrial
    /// tools report 3–4 iterations, paper §1); `usize::MAX` searches the
    /// whole transitive fanin cone.
    pub widener_depth: usize,
    /// Worker threads for the victim sweep. `0` uses the
    /// host's available parallelism (see
    /// [`effective_threads`](Self::effective_threads)); `1` runs the
    /// serial reference path (the determinism baseline). Any value
    /// produces bit-identical results — per-victim enumeration is pure,
    /// every victim owns a private result slot, and budgets are
    /// pre-partitioned, so thread count and schedule never change
    /// what is computed, only when.
    pub threads: usize,
    /// Per-victim cap on raw candidates generated while building one
    /// victim's I-lists. On breach, generation stops for that victim and
    /// dominance pruning keeps the strongest survivors of what was
    /// generated — a *sound lower bound*: every surviving set is still
    /// achievable, only optimality is lost. The victim is counted in
    /// [`SweepStats::truncated_victims`](crate::SweepStats) and the result
    /// is marked degraded. `None` (the default) disables the cap.
    pub victim_candidate_budget: Option<usize>,
    /// Global cap on raw candidates generated across the whole sweep,
    /// **pre-partitioned** into per-victim shares before the sweep
    /// starts: each victim of the work set, ranked in victim-index
    /// order, receives `pool / n` candidates (the first `pool % n` ranks
    /// one extra), and its allowance is the smaller of that share and
    /// the per-victim cap. The shares sum exactly to the pool — it can
    /// never be overdrawn. A victim whose share is zero is served empty
    /// lists ([`SweepStats::skipped_victims`](crate::SweepStats)); one
    /// that breaches its share truncates like the per-victim cap.
    /// **Deterministic at any `threads` value**: which victims are cut
    /// is a pure function of circuit, config and work set — never of
    /// scheduling. `None` disables the budget.
    pub global_candidate_budget: Option<usize>,
    /// Wall-clock deadline for the enumeration sweep, measured from
    /// sweep start and checked at **task start**: a victim whose task
    /// begins before the deadline runs to completion, and every victim
    /// whose task starts after it is served empty lists and counted in
    /// [`SweepStats::skipped_victims`](crate::SweepStats) — the result
    /// is marked degraded instead of the engine hanging. Task-granular:
    /// *which* victims are skipped depends on wall-clock time (this is
    /// the one knob that trades determinism for liveness).
    /// `Some(Duration::ZERO)` degenerates every victim deterministically
    /// (the zero-budget edge case). `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// How incremental re-analysis (what-if sessions, batches) decides
    /// which victims to re-sweep after a coupling flip. Never changes any
    /// output bit — [`Damping::Semantic`] (the default) only *removes*
    /// re-sweep work the damping prover proves unnecessary, and the
    /// [`Oracle`](crate::Oracle) audits every skip.
    pub damping: Damping,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self {
            noise: NoiseConfig::default(),
            max_list_width: Some(24),
            dominance_pruning: true,
            pseudo_aggressors: true,
            higher_order: true,
            validate: true,
            validation_pool: 16,
            widener_depth: 4,
            threads: 0,
            victim_candidate_budget: None,
            global_candidate_budget: None,
            deadline: None,
            damping: Damping::Semantic,
        }
    }
}

impl TopKConfig {
    /// Exact configuration: no beam cap, whole-cone widener search,
    /// everything enabled. Matches the paper's algorithm most closely; can
    /// be slow on adversarial inputs.
    #[must_use]
    pub fn exact() -> Self {
        Self { max_list_width: None, widener_depth: usize::MAX, ..Self::default() }
    }

    /// The worker-thread count [`threads`](Self::threads) resolves to:
    /// itself when positive, the host's available parallelism for `0`
    /// (falling back to 1 if the host cannot say).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// Whether any enumeration budget (candidate caps or deadline) is
    /// configured. When false — the default — the sweep runs exactly as
    /// the unbudgeted engine and results are never marked degraded by
    /// budget truncation.
    #[must_use]
    pub fn has_budget(&self) -> bool {
        self.victim_candidate_budget.is_some()
            || self.global_candidate_budget.is_some()
            || self.deadline.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_techniques() {
        let c = TopKConfig::default();
        assert!(c.dominance_pruning);
        assert!(c.pseudo_aggressors);
        assert!(c.higher_order);
        assert!(c.validate);
        assert!(c.max_list_width.is_some());
        assert_eq!(c.damping, Damping::Semantic);
    }

    #[test]
    fn defaults_carry_no_budget() {
        let c = TopKConfig::default();
        assert!(!c.has_budget());
        assert!(TopKConfig { deadline: Some(Duration::ZERO), ..c }.has_budget());
        assert!(TopKConfig { victim_candidate_budget: Some(10), ..c }.has_budget());
        assert!(TopKConfig { global_candidate_budget: Some(0), ..c }.has_budget());
    }

    #[test]
    fn exact_mode_uncaps_lists() {
        assert_eq!(TopKConfig::exact().max_list_width, None);
        assert!(TopKConfig::exact().dominance_pruning);
    }

    #[test]
    fn effective_threads_resolves_zero_to_host_parallelism() {
        let auto = TopKConfig::default();
        assert_eq!(auto.threads, 0);
        assert!(auto.effective_threads() >= 1);
        let fixed = TopKConfig { threads: 3, ..TopKConfig::default() };
        assert_eq!(fixed.effective_threads(), 3);
        let serial = TopKConfig { threads: 1, ..TopKConfig::default() };
        assert_eq!(serial.effective_threads(), 1);
    }
}
