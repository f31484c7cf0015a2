//! Validation of the proposed algorithm against brute-force enumeration —
//! the experiment behind the paper's Table 1 ("for k <= 3, the top-k
//! aggressors set computed by proposed algorithm was consistent with
//! brute-force method").
//!
//! Our synthetic circuits are multi-output and reconvergent, which
//! stresses the envelope abstraction harder than the paper's blocks, so
//! agreement is not perfect. The floors below are the measured agreement
//! on seeds 0–9 × k 1–3 (EXPERIMENTS.md, "Agreement statistics"): losing
//! a single exact match fails, and a change that gains one raises the
//! floor to the new count.

use dna_netlist::generator::{generate, GeneratorConfig};
use dna_netlist::CouplingId;
use dna_noise::{CouplingMask, NoiseAnalysis};
use dna_topk::{
    brute_force, BruteForceConfig, BruteForceOutcome, CouplingSet, Mode, TopKAnalysis, TopKConfig,
};

const SEEDS: u64 = 10;
const MAX_K: usize = 3;

struct Agreement {
    exact: usize,
    total: usize,
    worst_fraction: f64,
}

fn measure(mode: Mode, peeled: bool) -> Agreement {
    let mut exact = 0;
    let mut total = 0;
    let mut worst_fraction: f64 = 1.0;
    for seed in 0..SEEDS {
        let circuit = generate(&GeneratorConfig::new(12, 10).with_seed(seed)).unwrap();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::exact());
        for k in 1..=MAX_K {
            let bf = brute_force(&circuit, &BruteForceConfig::default(), mode, k).unwrap();
            let (_, brute_delay) = bf.completed().expect("tiny search completes");
            let result = match (mode, peeled) {
                (Mode::Addition, _) => engine.addition_set(k).unwrap(),
                (Mode::Elimination, false) => engine.elimination_set(k).unwrap(),
                (Mode::Elimination, true) => engine.elimination_set_peeled(k, 1).unwrap(),
            };
            // Impact achieved, as a fraction of the optimal impact.
            let (optimal, achieved) = match mode {
                Mode::Addition => (
                    brute_delay - result.delay_before(),
                    result.delay_after() - result.delay_before(),
                ),
                Mode::Elimination => (
                    result.delay_before() - brute_delay,
                    result.delay_before() - result.delay_after(),
                ),
            };
            total += 1;
            if (achieved - optimal).abs() < 1e-6 {
                exact += 1;
            } else if optimal > 1e-9 {
                worst_fraction = worst_fraction.min(achieved / optimal);
            }
            // The proposed algorithm never beats the true optimum (its
            // answer is validated by a real analysis run).
            assert!(
                achieved <= optimal + 1e-6,
                "mode {mode:?} seed {seed} k {k}: proposed {achieved} exceeds optimum {optimal}"
            );
            // And it never actively hurts.
            assert!(achieved >= -1e-9);
        }
    }
    Agreement { exact, total, worst_fraction }
}

#[test]
fn addition_matches_brute_force_closely() {
    let a = measure(Mode::Addition, false);
    assert_eq!(a.total, SEEDS as usize * MAX_K);
    assert!(a.exact >= 26, "addition exact matches {}/{} below the measured 26", a.exact, a.total);
    // Even the worst miss achieves most of the optimal impact (ties among
    // predicted-equal candidates are resolved by measured validation,
    // which can land on a slightly different set than the optimum).
    assert!(a.worst_fraction >= 0.866, "addition worst-case fraction {} too low", a.worst_fraction);
}

#[test]
fn elimination_one_pass_is_sound_and_useful() {
    let a = measure(Mode::Elimination, false);
    // The one-pass dual is heuristic on multi-output circuits: every
    // answer is sound (asserted inside measure) and most are exact.
    assert!(
        a.exact >= 28,
        "elimination exact matches {}/{} below the measured 28",
        a.exact,
        a.total
    );
    assert!(
        a.worst_fraction >= 0.866,
        "elimination worst-case fraction {} too low",
        a.worst_fraction
    );
}

#[test]
fn elimination_peeled_improves_on_one_pass() {
    let one_pass = measure(Mode::Elimination, false);
    let peeled = measure(Mode::Elimination, true);
    assert!(
        peeled.exact >= one_pass.exact,
        "peeling should not reduce exact matches ({} vs {})",
        peeled.exact,
        one_pass.exact
    );
    assert!(
        peeled.exact >= 29,
        "peeled exact matches {}/{} below the measured 29",
        peeled.exact,
        peeled.total
    );
    assert!(peeled.worst_fraction >= 0.866, "peeled worst fraction {}", peeled.worst_fraction);
}

#[test]
fn top_1_addition_is_exact_on_single_sink_circuits() {
    // With a single primary output the sink selection is trivial and the
    // top-1 addition set must match brute force exactly.
    for seed in 20..26u64 {
        let mut cfg = GeneratorConfig::new(14, 12).with_seed(seed);
        cfg.inputs = 3;
        let circuit = generate(&cfg).unwrap();
        if circuit.primary_outputs().len() != 1 {
            continue; // only exercise the single-sink property
        }
        let engine = TopKAnalysis::new(&circuit, TopKConfig::exact());
        let r = engine.addition_set(1).unwrap();
        let bf = brute_force(&circuit, &BruteForceConfig::default(), Mode::Addition, 1).unwrap();
        let (_, brute_delay) = bf.completed().unwrap();
        assert!(
            (r.delay_after() - brute_delay).abs() < 1e-6,
            "seed {seed}: {} vs brute {brute_delay}",
            r.delay_after()
        );
    }
}

/// Every k-subset of `0..r` in lexicographic order.
fn subsets(r: usize, k: usize) -> Vec<Vec<CouplingId>> {
    type Subsets = Vec<Vec<CouplingId>>;
    fn extend(r: usize, k: usize, from: usize, prefix: &mut Vec<CouplingId>, out: &mut Subsets) {
        if prefix.len() == k {
            out.push(prefix.clone());
            return;
        }
        for i in from..r {
            prefix.push(CouplingId::new(i as u32));
            extend(r, k, i + 1, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(r, k, 0, &mut Vec::new(), &mut out);
    out
}

#[test]
fn brute_force_matches_an_exhaustive_loop() {
    // Brute-force elimination abandons subsets whose fixpoint lower bound
    // reaches the best delay so far. Its set, delay and evaluation count
    // must be those of measuring every subset to the end and keeping the
    // strict optimum in lexicographic order.
    let config = BruteForceConfig::default();
    let mut abandonable = 0;
    for seed in 0..10u64 {
        let circuit = generate(&GeneratorConfig::new(12, 10).with_seed(seed)).unwrap();
        let engine = NoiseAnalysis::new(&circuit, config.noise);
        for mode in [Mode::Addition, Mode::Elimination] {
            for k in 1..=3 {
                let mut best: Option<(Vec<CouplingId>, f64)> = None;
                let mut count = 0u64;
                for ids in subsets(circuit.num_couplings(), k) {
                    let mask = match mode {
                        Mode::Addition => CouplingMask::none(&circuit).with(&ids),
                        Mode::Elimination => CouplingMask::all(&circuit).without(&ids),
                    };
                    let delay = engine.run_with_mask(&mask).unwrap().circuit_delay();
                    count += 1;
                    if let (Mode::Elimination, Some((_, d))) = (mode, &best) {
                        let stopped = engine.run_with_mask_until(&mask, |b| b >= *d).unwrap();
                        abandonable += usize::from(stopped.is_none());
                    }
                    let better = match (&best, mode) {
                        (None, _) => true,
                        (Some((_, d)), Mode::Addition) => delay > *d,
                        (Some((_, d)), Mode::Elimination) => delay < *d,
                    };
                    if better {
                        best = Some((ids, delay));
                    }
                }
                let (want_ids, want_delay) = best.unwrap();
                let want_set: CouplingSet = want_ids.into_iter().collect();
                match brute_force(&circuit, &config, mode, k).unwrap() {
                    BruteForceOutcome::Completed { set, delay, evaluated, .. } => {
                        let at = format!("seed {seed} {mode:?} k {k}");
                        assert_eq!(set, want_set, "{at}: set");
                        assert_eq!(delay.to_bits(), want_delay.to_bits(), "{at}: delay");
                        assert_eq!(evaluated, count, "{at}: evaluated");
                    }
                    BruteForceOutcome::TimedOut { .. } => panic!("tiny search must complete"),
                }
            }
        }
    }
    // The sweep exercises the shortcut: some subsets stop early.
    assert!(abandonable > 0, "no elimination subset was abandoned");
}
