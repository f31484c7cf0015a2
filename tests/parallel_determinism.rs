//! The level-parallel sweep contract: the thread count never changes the
//! answer, only the wall-clock time.
//!
//! Victims at one dependency level read only strict-fanin I-lists, and the
//! per-victim counters aggregate through order-independent operations
//! (max, sum), so any thread partition must produce **bit-identical**
//! results — down to the f64 payloads, compared here via `to_bits`.

use proptest::prelude::*;
use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{suite, Circuit};
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

/// Runs one mode with an explicit thread count. Validation is off so the
/// fingerprint covers exactly what the sweep computes (the iterative
/// noise analysis has its own tests and no thread dependence).
fn run_with_threads(circuit: &Circuit, mode: Mode, k: usize, threads: usize) -> TopKResult {
    let config = TopKConfig { threads, validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(circuit, config);
    match mode {
        Mode::Addition => engine.addition_set(k),
        Mode::Elimination => engine.elimination_set(k),
    }
    .expect("top-k analysis succeeds")
}

fn assert_thread_invariant(name: &str, circuit: &Circuit, k: usize) {
    for mode in [Mode::Addition, Mode::Elimination] {
        let serial = fingerprint(&run_with_threads(circuit, mode, k, 1));
        for threads in [0, 3] {
            let parallel = fingerprint(&run_with_threads(circuit, mode, k, threads));
            assert_eq!(
                serial,
                parallel,
                "{name} {} k={k}: threads={threads} diverged from serial",
                mode.name()
            );
        }
    }
}

#[test]
fn small_suite_circuits_are_thread_invariant() {
    for name in ["i1", "i2", "i3", "i4"] {
        let circuit = suite::benchmark(name, 42).expect("known benchmark");
        assert_thread_invariant(name, &circuit, 3);
    }
}

/// The full scaling suite at the paper's k. Minutes in debug builds, so
/// opt-in: `cargo test --release -- --ignored parallel`.
#[test]
#[ignore = "slow: full i1-i10 suite; run with --ignored in release builds"]
fn full_suite_is_thread_invariant() {
    for i in 1..=10 {
        let name = format!("i{i}");
        let circuit = suite::benchmark(&name, 42).expect("known benchmark");
        assert_thread_invariant(&name, &circuit, 10);
    }
}

/// What the validation pool decides: the measured winner, its sink and
/// both delays, bit for bit.
fn validated(r: &TopKResult) -> (Vec<usize>, usize, u64, u64) {
    (
        r.couplings().iter().map(|c| c.index()).collect(),
        r.sink().index(),
        r.delay_after().to_bits(),
        r.predicted_delay().to_bits(),
    )
}

/// With validation on (the default pool of 16 measured options), the
/// pool's parallel measurement must pick the serial winner at any thread
/// count.
#[test]
fn validation_pool_is_thread_invariant() {
    for name in ["i1", "i3"] {
        let circuit = suite::benchmark(name, 42).expect("known benchmark");
        for mode in [Mode::Addition, Mode::Elimination] {
            for k in [3, 10] {
                let run = |threads: usize| {
                    let config = TopKConfig { threads, ..TopKConfig::default() };
                    assert!(config.validate && config.validation_pool == 16);
                    let engine = TopKAnalysis::new(&circuit, config);
                    let mask = topk_aggressors::noise::CouplingMask::all(&circuit);
                    validated(&engine.run_with_mask(mode, k, &mask).expect("top-k succeeds"))
                };
                let serial = run(1);
                for threads in [2, 4] {
                    assert_eq!(
                        serial,
                        run(threads),
                        "{name} {} k={k}: validated result at threads={threads} diverged",
                        mode.name()
                    );
                }
            }
        }
    }
}

/// Batch scenarios finishing in parallel validate serially inside each
/// scenario; the nested path must still match the serial answer.
#[test]
fn batch_validation_is_thread_invariant() {
    let circuit = suite::benchmark("i1", 42).expect("known benchmark");
    let ids: Vec<_> = circuit.coupling_ids().take(3).collect();
    let batch = WhatIfBatch::from_deltas(vec![
        MaskDelta::default(),
        MaskDelta::remove(&ids[..1]),
        MaskDelta::remove(&ids[1..]),
    ]);
    for mode in [Mode::Addition, Mode::Elimination] {
        let run = |threads: usize| {
            let engine =
                TopKAnalysis::new(&circuit, TopKConfig { threads, ..TopKConfig::default() });
            let session = WhatIfSession::start(&engine, mode, 3).expect("session starts");
            let out = session.apply_batch(&batch).expect("batch apply succeeds");
            out.scenarios().iter().map(|o| validated(o.result())).collect::<Vec<_>>()
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "{} batch diverged at threads={threads}", mode.name());
        }
    }
}

fn tiny_circuit() -> impl Strategy<Value = Circuit> {
    (0u64..200, 6usize..20, 4usize..16).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random circuits, random thread counts: always the serial answer.
    #[test]
    fn any_thread_count_matches_serial(
        circuit in tiny_circuit(),
        k in 1usize..4,
        threads in 2usize..6,
    ) {
        for mode in [Mode::Addition, Mode::Elimination] {
            let serial = fingerprint(&run_with_threads(&circuit, mode, k, 1));
            let parallel = fingerprint(&run_with_threads(&circuit, mode, k, threads));
            prop_assert!(serial == parallel,
                "{} k={} threads={} diverged", mode.name(), k, threads);
        }
    }
}
