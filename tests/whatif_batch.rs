//! The batch what-if contract: evaluating N scenarios through
//! [`WhatIfSession::apply_batch`] is **bit-identical** to N sequential
//! `fork().apply(delta)` calls — at any thread count, in any submission
//! order — while sharing closure and sweep work across scenarios.
//!
//! Companion of `whatif_incremental.rs`: the same f64-bit fingerprint
//! discipline, applied to the batch engine.

use proptest::prelude::*;
use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{suite, Circuit, CouplingId};
use topk_aggressors::topk::{
    MaskDelta, Mode, TopKAnalysis, TopKConfig, TopKResult, WhatIfBatch, WhatIfSession,
};

/// Everything observable about a result except wall-clock time.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    set: Vec<usize>,
    sink: usize,
    delay_before: u64,
    delay_after: u64,
    predicted: u64,
    peak_list_width: usize,
    generated: usize,
}

fn fingerprint(r: &TopKResult) -> Fingerprint {
    Fingerprint {
        set: r.couplings().iter().map(|c| c.index()).collect(),
        sink: r.sink().index(),
        delay_before: r.delay_before().to_bits(),
        delay_after: r.delay_after().to_bits(),
        predicted: r.predicted_delay().to_bits(),
        peak_list_width: r.peak_list_width(),
        generated: r.generated_candidates(),
    }
}

fn config(threads: usize) -> TopKConfig {
    // Validation off: the fingerprint then covers exactly what the sweep
    // computes, and the suite stays fast. Batch identity with validation
    // on is covered by the CLI `whatif --batch --audit` smoke.
    TopKConfig { threads, validate: false, ..TopKConfig::default() }
}

/// A deterministic scenario menu over a circuit's couplings: single
/// removals, a pair, an add-back after removal (net no-op), an empty
/// delta, and a duplicate — the shapes a fix-triage script produces.
fn scenario_menu(circuit: &Circuit) -> Vec<MaskDelta> {
    let ids: Vec<CouplingId> = circuit.coupling_ids().collect();
    let mut deltas = vec![MaskDelta::default()];
    for &id in ids.iter().take(3) {
        deltas.push(MaskDelta::remove(&[id]));
    }
    if ids.len() >= 2 {
        deltas.push(MaskDelta::remove(&ids[..2]));
        // Removed and re-added in one delta: ends up enabled (no-op).
        deltas.push(MaskDelta::new(&ids[..1], &ids[..1]));
        // Duplicate of an earlier scenario.
        deltas.push(MaskDelta::remove(&[ids[1]]));
    }
    deltas
}

/// Asserts a batch over `deltas` matches per-scenario sequential
/// `fork().apply` on every observable, for one (mode, threads) point.
fn assert_batch_identity(
    name: &str,
    circuit: &Circuit,
    mode: Mode,
    k: usize,
    threads: usize,
    deltas: &[MaskDelta],
) {
    let engine = TopKAnalysis::new(circuit, config(threads));
    let session = WhatIfSession::start(&engine, mode, k).expect("session start succeeds");
    let batch = WhatIfBatch::from_deltas(deltas.to_vec());
    let out = session.apply_batch(&batch).expect("batch apply succeeds");
    assert_eq!(out.scenarios().len(), deltas.len());
    for (i, delta) in deltas.iter().enumerate() {
        let seq = session.fork().apply(delta).expect("sequential apply succeeds");
        let got = &out.scenarios()[i];
        assert_eq!(
            fingerprint(got.result()),
            fingerprint(seq.result()),
            "{name} {} k={k} threads={threads} scenario {i}: batch diverged from fork().apply",
            mode.name()
        );
        assert_eq!(got.changed_couplings(), seq.changed_couplings(), "{name} scenario {i}");
        assert_eq!(got.dirty_flags(), seq.dirty_flags(), "{name} scenario {i}");
        assert_eq!(got.recomputed_victims(), seq.recomputed_victims(), "{name} scenario {i}");
        assert_eq!(
            got.unmasked_dirty_victims(),
            seq.unmasked_dirty_victims(),
            "{name} scenario {i}"
        );
    }
}

#[test]
fn batch_matches_sequential_applies_on_small_suite() {
    for name in ["i1", "i2"] {
        let circuit = suite::benchmark(name, 42).expect("known benchmark");
        let deltas = scenario_menu(&circuit);
        for mode in [Mode::Addition, Mode::Elimination] {
            for threads in [1usize, 0, 4] {
                assert_batch_identity(name, &circuit, mode, 3, threads, &deltas);
            }
        }
    }
}

#[test]
fn batch_results_are_submission_order_independent() {
    let circuit = suite::benchmark("i1", 42).expect("known benchmark");
    let deltas = scenario_menu(&circuit);
    let mut reversed = deltas.clone();
    reversed.reverse();
    let engine = TopKAnalysis::new(&circuit, config(0));
    for mode in [Mode::Addition, Mode::Elimination] {
        let session = WhatIfSession::start(&engine, mode, 3).expect("session start succeeds");
        let fwd = session
            .apply_batch(&WhatIfBatch::from_deltas(deltas.clone()))
            .expect("forward batch succeeds");
        let rev = session
            .apply_batch(&WhatIfBatch::from_deltas(reversed.clone()))
            .expect("reversed batch succeeds");
        for i in 0..deltas.len() {
            let twin = deltas.len() - 1 - i;
            assert_eq!(
                fingerprint(fwd.scenarios()[i].result()),
                fingerprint(rev.scenarios()[twin].result()),
                "{} scenario {i}: result depends on submission order",
                mode.name()
            );
        }
    }
}

#[test]
fn batch_mask_aware_closure_never_exceeds_oblivious() {
    let circuit = suite::benchmark("i2", 42).expect("known benchmark");
    let engine = TopKAnalysis::new(&circuit, config(0));
    let session =
        WhatIfSession::start(&engine, Mode::Elimination, 3).expect("session start succeeds");
    let out = session
        .apply_batch(&WhatIfBatch::from_deltas(scenario_menu(&circuit)))
        .expect("batch apply succeeds");
    for (i, sc) in out.scenarios().iter().enumerate() {
        assert!(
            sc.recomputed_victims() <= sc.unmasked_dirty_victims(),
            "scenario {i}: mask-aware closure larger than mask-oblivious"
        );
    }
    assert!(out.stats().dirty_victims() <= out.stats().unmasked_dirty_victims());
}

fn tiny_circuit() -> impl Strategy<Value = Circuit> {
    (0u64..200, 6usize..20, 4usize..16).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random circuits, random scenario menus, both modes, serial and
    /// auto-parallel: every batch scenario equals its sequential twin.
    #[test]
    fn any_batch_matches_sequential_applies(
        circuit in tiny_circuit(),
        k in 1usize..4,
        stride in 1usize..4,
        phase in 0usize..3,
    ) {
        // Deterministic pseudo-random scenarios: per-coupling removals of
        // every `stride`-th coupling starting at `phase`, plus the whole
        // subset at once and the empty delta.
        let subset: Vec<CouplingId> = circuit
            .coupling_ids()
            .filter(|c| c.index() % stride == phase % stride)
            .collect();
        let mut deltas: Vec<MaskDelta> =
            subset.iter().take(3).map(|&c| MaskDelta::remove(&[c])).collect();
        deltas.push(MaskDelta::remove(&subset));
        deltas.push(MaskDelta::default());
        for mode in [Mode::Addition, Mode::Elimination] {
            for threads in [1usize, 0] {
                assert_batch_identity("generated", &circuit, mode, k, threads, &deltas);
            }
        }
    }
}
