//! Brute-force baseline: exhaustive `C(r, k)` enumeration (paper §2).
//!
//! For every k-subset of the circuit's couplings, run a full iterative
//! noise analysis with only that subset enabled (addition) or disabled
//! (elimination) and keep the best. The paper uses this to validate the
//! proposed algorithm for `k <= 3` and to demonstrate that it becomes
//! intractable beyond that — on their smallest circuit it could not finish
//! `k = 4` within 1800 s. The [`BruteForceConfig::time_budget`] reproduces
//! that wall-clock cap.

use std::time::{Duration, Instant};

use dna_netlist::{Circuit, CouplingId};
use dna_noise::{CouplingMask, NoiseAnalysis, NoiseConfig};
use dna_sta::StaError;

use crate::{CouplingSet, Mode};

/// Limits for the exhaustive search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BruteForceConfig {
    /// Noise-analysis configuration used for every subset evaluation.
    pub noise: NoiseConfig,
    /// Wall-clock budget; the search reports a timeout when exceeded
    /// (checked between subset evaluations).
    pub time_budget: Duration,
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        Self { noise: NoiseConfig::default(), time_budget: Duration::from_secs(1800) }
    }
}

/// Outcome of a brute-force search.
#[derive(Debug, Clone)]
pub enum BruteForceOutcome {
    /// Search finished; the optimal set and its measured circuit delay.
    Completed {
        /// The optimal k-subset.
        set: CouplingSet,
        /// Circuit delay with that subset added (addition) or removed
        /// (elimination).
        delay: f64,
        /// Number of subsets evaluated (`C(r, k)`).
        evaluated: u64,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
    /// The time budget ran out first (the paper's expected result for
    /// `k >= 4` even on small circuits).
    TimedOut {
        /// Subsets evaluated before giving up.
        evaluated: u64,
        /// The best set seen so far, if any.
        best_so_far: Option<(CouplingSet, f64)>,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
}

impl BruteForceOutcome {
    /// The optimal set, if the search completed.
    #[must_use]
    pub fn completed(&self) -> Option<(&CouplingSet, f64)> {
        match self {
            BruteForceOutcome::Completed { set, delay, .. } => Some((set, *delay)),
            BruteForceOutcome::TimedOut { .. } => None,
        }
    }
}

/// Exhaustively finds the optimal top-k set of the given mode.
///
/// Every subset counts as evaluated, but an elimination subset's analysis
/// stops as soon as its lower bound shows it cannot beat the best so far.
///
/// # Errors
///
/// Propagates [`StaError`] from the noise analyses.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn brute_force(
    circuit: &Circuit,
    config: &BruteForceConfig,
    mode: Mode,
    k: usize,
) -> Result<BruteForceOutcome, StaError> {
    assert!(k > 0, "k must be positive");
    let start = Instant::now();
    let engine = NoiseAnalysis::new(circuit, config.noise);
    let r = circuit.num_couplings();
    let k = k.min(r);

    let mut best: Option<(CouplingSet, f64)> = None;
    let mut evaluated: u64 = 0;

    let mut subset: Vec<usize> = (0..k).collect();
    loop {
        if start.elapsed() > config.time_budget {
            return Ok(BruteForceOutcome::TimedOut {
                evaluated,
                best_so_far: best,
                elapsed: start.elapsed(),
            });
        }
        let ids: Vec<CouplingId> = subset.iter().map(|&i| CouplingId::new(i as u32)).collect();
        let mask = match mode {
            Mode::Addition => CouplingMask::none(circuit).with(&ids),
            Mode::Elimination => CouplingMask::all(circuit).without(&ids),
        };
        // Elimination keeps the strict minimum in lexicographic order, so
        // a subset whose ascending-fixpoint lower bound reaches the best
        // delay so far can never replace it: stop measuring it there
        // (bound and abandon, DESIGN §18.7). Addition has no such bound.
        let report = match mode {
            Mode::Addition => Some(engine.run_with_mask(&mask)?),
            Mode::Elimination => engine.run_with_mask_until(&mask, |bound| {
                best.as_ref().is_some_and(|(_, d)| bound >= *d)
            })?,
        };
        evaluated += 1;

        if let Some(delay) = report.map(|r| r.circuit_delay()) {
            let better = match (&best, mode) {
                (None, _) => true,
                (Some((_, d)), Mode::Addition) => delay > *d,
                (Some((_, d)), Mode::Elimination) => delay < *d,
            };
            if better {
                best = Some((ids.into_iter().collect(), delay));
            }
        }

        if !next_combination(&mut subset, r) {
            break;
        }
    }

    let (set, delay) = best.expect("at least one subset evaluated when r >= k >= 1");
    Ok(BruteForceOutcome::Completed { set, delay, evaluated, elapsed: start.elapsed() })
}

/// Advances `subset` to the next k-combination of `0..r` in lexicographic
/// order; returns `false` after the last one.
fn next_combination(subset: &mut [usize], r: usize) -> bool {
    let k = subset.len();
    if k == 0 || k > r {
        return false;
    }
    let mut i = k;
    while i > 0 {
        i -= 1;
        if subset[i] < r - (k - i) {
            subset[i] += 1;
            for j in i + 1..k {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Number of subsets the brute force must evaluate: `C(r, k)`, saturating.
#[must_use]
pub fn subset_count(r: usize, k: usize) -> u128 {
    if k > r {
        return 0;
    }
    let k = k.min(r - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((r - i) as u128) / (i + 1) as u128;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::{CellKind, CircuitBuilder, Library};

    fn small_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(Library::cmos013());
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let v1 = b.gate(CellKind::Buf, "v1", &[a]).unwrap();
        let v2 = b.gate(CellKind::Buf, "v2", &[v1]).unwrap();
        let g1 = b.gate(CellKind::Buf, "g1", &[x]).unwrap();
        let g2 = b.gate(CellKind::Buf, "g2", &[y]).unwrap();
        b.output(v2);
        b.output(g1);
        b.output(g2);
        b.coupling(v1, g1, 6.0).unwrap();
        b.coupling(v2, g1, 8.0).unwrap();
        b.coupling(v2, g2, 3.0).unwrap();
        b.coupling(g1, g2, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn next_combination_enumerates_all() {
        let mut s = vec![0, 1];
        let mut count = 1;
        while next_combination(&mut s, 4) {
            count += 1;
        }
        assert_eq!(count, 6); // C(4,2)
    }

    #[test]
    fn subset_count_matches_formula() {
        assert_eq!(subset_count(4, 2), 6);
        assert_eq!(subset_count(232, 3), 2_054_360);
        assert_eq!(subset_count(5, 0), 1);
        assert_eq!(subset_count(3, 5), 0);
    }

    #[test]
    fn addition_picks_the_strongest_coupling() {
        let c = small_circuit();
        let out = brute_force(&c, &BruteForceConfig::default(), Mode::Addition, 1).unwrap();
        let (set, delay) = out.completed().expect("tiny search completes");
        assert_eq!(set.len(), 1);
        // Adding a coupling can never reduce delay below noiseless.
        let quiet = NoiseAnalysis::new(&c, NoiseConfig::default())
            .run_with_mask(&CouplingMask::none(&c))
            .unwrap()
            .circuit_delay();
        assert!(delay >= quiet);
    }

    #[test]
    fn elimination_reduces_delay() {
        let c = small_circuit();
        let noisy = NoiseAnalysis::new(&c, NoiseConfig::default()).run().unwrap();
        let out = brute_force(&c, &BruteForceConfig::default(), Mode::Elimination, 2).unwrap();
        let (set, delay) = out.completed().expect("tiny search completes");
        assert_eq!(set.len(), 2);
        assert!(delay <= noisy.circuit_delay() + 1e-9);
    }

    #[test]
    fn evaluated_counts_match_subset_count() {
        let c = small_circuit();
        let out = brute_force(&c, &BruteForceConfig::default(), Mode::Addition, 2).unwrap();
        match out {
            BruteForceOutcome::Completed { evaluated, .. } => {
                assert_eq!(u128::from(evaluated), subset_count(4, 2));
            }
            BruteForceOutcome::TimedOut { .. } => panic!("tiny search must complete"),
        }
    }

    #[test]
    fn zero_budget_times_out() {
        let c = small_circuit();
        let cfg =
            BruteForceConfig { time_budget: Duration::from_secs(0), ..BruteForceConfig::default() };
        // The first subset is evaluated before the budget check triggers,
        // so a timeout reports at least zero evaluations without panicking.
        let out = brute_force(&c, &cfg, Mode::Addition, 2).unwrap();
        assert!(matches!(out, BruteForceOutcome::TimedOut { .. }));
    }
}
