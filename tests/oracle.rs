//! Ground truth for every fast path: on small random circuits, each
//! variant of a query — a parallel sweep, an incremental apply under
//! either damping, a shared batch in both submission orders, a scenario
//! served by the daemon — must equal the serial from-scratch [`Oracle`]
//! of its mask, bit for bit. The paper's brute-force check
//! (`crates/core/tests/validation.rs`) anchors the oracle itself.

use proptest::prelude::*;
use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{Circuit, CouplingId};
use topk_aggressors::noise::CouplingMask;
use topk_aggressors::topk::serve::{Response, ServeConfig, SessionManager};
use topk_aggressors::topk::{
    Damping, MaskDelta, Mode, Oracle, TopKAnalysis, TopKConfig, WhatIfBatch, WhatIfSession,
};

fn tiny_circuit() -> impl Strategy<Value = Circuit> {
    (0u64..300, 6usize..24, 4usize..18).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

/// Checks every variant of one (circuit, mode, k) query against the
/// oracle; `deltas` are the what-if scenarios, the first of which is
/// also applied incrementally and served.
fn assert_variants_match_oracle(
    circuit: &Circuit,
    mode: Mode,
    k: usize,
    threads: usize,
    deltas: &[MaskDelta],
) {
    let all = CouplingMask::all(circuit);
    let mask_after = |d: &MaskDelta| all.clone().without(d.removed()).with(d.added());
    let config = |damping| TopKConfig { threads, damping, ..TopKConfig::default() };
    let name = mode.name();

    // threads 1 vs N: the full run and a slot-by-slot parallel re-sweep.
    let engine = TopKAnalysis::new(circuit, config(Damping::Structural));
    let full = Oracle::new(&engine, mode, k, &all).expect("reference runs");
    let run = engine.run_with_mask(mode, k, &all).expect("full run succeeds");
    assert_eq!(full.check_result(&run), Ok(()), "{name} threads={threads}");
    assert_eq!(full.check_parallel(threads), Ok(()), "{name} threads={threads} slots");

    // Incremental apply under both dampings: every victim's cached state.
    let first = &deltas[0];
    let reference = Oracle::new(&engine, mode, k, &mask_after(first)).expect("reference runs");
    for damping in [Damping::Structural, Damping::Semantic] {
        let engine = TopKAnalysis::new(circuit, config(damping));
        let mut session = WhatIfSession::start(&engine, mode, k).expect("session starts");
        session.apply(first).expect("apply succeeds");
        assert_eq!(reference.check_session(&session), Ok(()), "{name} {damping:?} apply");
    }

    // Batch, forward and reversed: each scenario equals its mask's oracle.
    let session = WhatIfSession::start(&engine, mode, k).expect("session starts");
    let forward = session.apply_batch(&WhatIfBatch::from_deltas(deltas.to_vec())).expect("batch");
    let reversed = session
        .apply_batch(&WhatIfBatch::from_deltas(deltas.iter().rev().cloned().collect()))
        .expect("reversed batch");
    let n = deltas.len();
    for (i, delta) in deltas.iter().enumerate() {
        let oracle = Oracle::new(&engine, mode, k, &mask_after(delta)).expect("reference runs");
        let fwd = forward.scenarios()[i].result();
        let rev = reversed.scenarios()[n - 1 - i].result();
        assert_eq!(oracle.check_result(fwd), Ok(()), "{name} batch scenario {i}");
        assert_eq!(oracle.check_result(rev), Ok(()), "{name} batch scenario {i} reversed");
    }

    // A scenario served through the daemon, compared by digest.
    let manager = SessionManager::new(ServeConfig::default());
    let opened = manager.open("t", circuit.clone(), mode, k, config(Damping::Semantic));
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    match manager.scenario("t", first.clone()) {
        Response::Scenario { summary, .. } => assert_eq!(
            summary.fingerprint,
            reference.result().identity_fingerprint(),
            "{name} served scenario"
        ),
        other => panic!("{name}: scenario failed: {other:?}"),
    }
    manager.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random circuits, random removal sets, both modes: every variant
    /// equals the serial from-scratch reference.
    #[test]
    fn every_variant_matches_the_oracle(
        circuit in tiny_circuit(),
        k in 1usize..4,
        threads in 2usize..5,
        stride in 1usize..4,
        phase in 0usize..3,
    ) {
        let subset: Vec<CouplingId> = circuit
            .coupling_ids()
            .filter(|c| c.index() % stride == phase % stride)
            .collect();
        let mut deltas: Vec<MaskDelta> =
            subset.iter().take(2).map(|&c| MaskDelta::remove(&[c])).collect();
        deltas.insert(0, MaskDelta::remove(&subset));
        deltas.push(MaskDelta::default());
        for mode in [Mode::Addition, Mode::Elimination] {
            assert_variants_match_oracle(&circuit, mode, k, threads, &deltas);
        }
    }
}
