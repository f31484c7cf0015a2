//! The incremental what-if contract: applying a [`MaskDelta`] to a
//! session is **bit-identical** to a from-scratch run under the session's
//! resulting mask — at any thread count — while recomputing only the
//! dirty fanout cone of the touched couplings.
//!
//! Companion of `parallel_determinism.rs`: the same f64-bit fingerprint
//! discipline, applied to the session cache instead of the thread
//! partition.

use proptest::prelude::*;
use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{suite, Circuit, CouplingId};
use topk_aggressors::noise::CouplingMask;
use topk_aggressors::topk::{MaskDelta, Mode, TopKAnalysis, TopKConfig, WhatIfSession};

fn config(threads: usize) -> TopKConfig {
    // Validation off: the fingerprint then covers exactly what the sweep
    // computes, and the suite stays fast. The session/from-scratch
    // identity with validation on is covered by the CLI whatif audit.
    TopKConfig { threads, validate: false, ..TopKConfig::default() }
}

/// Starts a session, applies `delta`, and asserts the outcome is
/// bit-identical to a from-scratch run under the session's new mask.
/// Returns (recomputed, total) sweep counters for cone assertions.
fn assert_incremental_identity(
    name: &str,
    circuit: &Circuit,
    mode: Mode,
    k: usize,
    threads: usize,
    start_mask: CouplingMask,
    delta: &MaskDelta,
) -> (usize, usize) {
    let engine = TopKAnalysis::new(circuit, config(threads));
    let mut session = WhatIfSession::start_with_mask(&engine, mode, k, start_mask)
        .expect("session start succeeds");
    let outcome = session.apply(delta).expect("apply succeeds");
    let scratch = engine.run_with_mask(mode, k, session.mask()).expect("from-scratch run succeeds");
    assert_eq!(
        outcome.result().fingerprint(),
        scratch.fingerprint(),
        "{name} {} k={k} threads={threads}: incremental diverged from from-scratch",
        mode.name()
    );
    (outcome.recomputed_victims(), outcome.total_victims())
}

/// The fix-loop shape on one circuit: full run, remove the reported set,
/// re-verify incrementally; then add it back. Both modes, serial and
/// auto-parallel.
fn assert_fix_loop_identity(name: &str, circuit: &Circuit, k: usize) {
    for mode in [Mode::Addition, Mode::Elimination] {
        for threads in [1usize, 0] {
            let engine = TopKAnalysis::new(circuit, config(threads));
            let mut session =
                WhatIfSession::start(&engine, mode, k).expect("session start succeeds");
            let fix: Vec<CouplingId> = session.result().couplings().to_vec();

            for delta in [MaskDelta::remove(&fix), MaskDelta::add(&fix)] {
                let outcome = session.apply(&delta).expect("apply succeeds");
                let scratch = engine
                    .run_with_mask(mode, k, session.mask())
                    .expect("from-scratch run succeeds");
                assert_eq!(
                    outcome.result().fingerprint(),
                    scratch.fingerprint(),
                    "{name} {} k={k} threads={threads} delta={delta:?}: diverged",
                    mode.name()
                );
                // Only the dirty cone may have been re-swept.
                assert!(outcome.recomputed_victims() <= outcome.total_victims());
                if fix.is_empty() {
                    assert_eq!(outcome.recomputed_victims(), 0, "no-op delta must be free");
                }
            }
        }
    }
}

#[test]
fn small_suite_fix_loops_are_identical_to_from_scratch() {
    for name in ["i1", "i2", "i3", "i4"] {
        let circuit = suite::benchmark(name, 42).expect("known benchmark");
        assert_fix_loop_identity(name, &circuit, 3);
    }
}

/// The full scaling suite at the paper's k. Minutes in debug builds, so
/// opt-in: `cargo test --release -- --ignored whatif` (CI_FULL=1 in
/// ci.sh).
#[test]
#[ignore = "slow: full i1-i10 suite; run with --ignored in release builds"]
fn full_suite_fix_loops_are_identical_to_from_scratch() {
    for i in 1..=10 {
        let name = format!("i{i}");
        let circuit = suite::benchmark(&name, 42).expect("known benchmark");
        assert_fix_loop_identity(&name, &circuit, 10);
    }
}

#[test]
fn dirty_cone_is_partial_on_wide_circuits() {
    // i4 is wide enough that one coupling's fanout cone cannot cover the
    // whole net list: the sweep counters must prove a real cache hit.
    let circuit = suite::benchmark("i4", 42).expect("known benchmark");
    let engine = TopKAnalysis::new(&circuit, config(0));
    let mut session =
        WhatIfSession::start(&engine, Mode::Elimination, 1).expect("session start succeeds");
    let fix: Vec<CouplingId> = session.result().couplings().to_vec();
    assert!(!fix.is_empty());
    let outcome = session.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");
    assert!(outcome.recomputed_victims() > 0);
    assert!(
        outcome.recomputed_victims() < outcome.total_victims(),
        "one coupling dirtied all {} nets — dirty closure is not pruning",
        outcome.total_victims()
    );
    assert_eq!(outcome.cached_victims(), outcome.total_victims() - outcome.recomputed_victims());
}

fn tiny_circuit() -> impl Strategy<Value = Circuit> {
    (0u64..200, 6usize..20, 4usize..16).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random circuits, random deltas in both directions, both modes,
    /// serial and auto-parallel: always the from-scratch answer.
    #[test]
    fn any_mask_delta_matches_from_scratch(
        circuit in tiny_circuit(),
        k in 1usize..4,
        stride in 1usize..4,
        phase in 0usize..3,
    ) {
        // A deterministic pseudo-random coupling subset: every
        // `stride`-th coupling starting at `phase`.
        let subset: Vec<CouplingId> = circuit
            .coupling_ids()
            .filter(|c| c.index() % stride == phase % stride)
            .collect();
        for mode in [Mode::Addition, Mode::Elimination] {
            for threads in [1usize, 0] {
                // Remove direction: start from the full mask.
                let (recomputed, total) = assert_incremental_identity(
                    "generated", &circuit, mode, k, threads,
                    CouplingMask::all(&circuit), &MaskDelta::remove(&subset),
                );
                prop_assert!(recomputed <= total);
                // Add direction: start from the complement.
                let (recomputed, total) = assert_incremental_identity(
                    "generated", &circuit, mode, k, threads,
                    CouplingMask::all(&circuit).without(&subset), &MaskDelta::add(&subset),
                );
                prop_assert!(recomputed <= total);
            }
        }
    }
}
