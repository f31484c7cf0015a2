//! Fault-injection harness: the engine's resilience contract, attacked.
//!
//! Every test injects a specific fault — a panicking enumeration, a NaN
//! delay noise, a bit-flipped or truncated session artifact, a zero
//! budget — and asserts the engine's invariant response: a **typed
//! error**, a **quarantined victim** in the fault report, or a
//! **degraded-but-sound** result. Never a process panic, and never a
//! silently wrong answer.
//!
//! Faults are armed per engine (`TopKAnalysis::with_faults`), so the
//! tests run in parallel without a lock and an injection can never leak
//! into a neighbouring test's engine.

use topk_aggressors::netlist::{suite, Circuit, CouplingId};
use topk_aggressors::topk::faultsim::{self, Faults};
use topk_aggressors::topk::{
    FaultPhase, MaskDelta, Mode, Oracle, Soundness, TopKAnalysis, TopKConfig, TopKError,
    WhatIfSession,
};

/// An engine whose runs consult `faults`, with the expected injected
/// panics kept out of the test output.
fn faulty(circuit: &Circuit, config: TopKConfig, faults: Faults) -> TopKAnalysis<'_> {
    faultsim::silence_injected_panics();
    TopKAnalysis::with_faults(circuit, config, faults)
}

fn i1() -> Circuit {
    suite::benchmark("i1", 7).expect("known benchmark")
}

#[test]
fn clean_run_is_exact_with_empty_fault_report() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let result = engine.addition_set(3).expect("clean run succeeds");
    assert!(result.faults().is_empty());
    assert!(!result.is_degraded());
    assert_eq!(result.soundness(), Soundness::Exact);
    let s = result.sweep_stats();
    assert_eq!((s.truncated_victims, s.skipped_victims, s.quarantined_victims), (0, 0, 0));
}

#[test]
fn panicking_victim_is_quarantined_not_fatal() {
    let circuit = i1();
    let victim = 5;
    assert!(victim < circuit.num_nets());
    let faults = Faults { panic_at_victim: Some(victim), ..Faults::default() };

    let engine = faulty(&circuit, TopKConfig::default(), faults);
    let result = engine.elimination_set(2).expect("the panic must not escape");

    assert_eq!(result.faults().len(), 1, "exactly the armed victim is quarantined");
    let fault = &result.faults().faults()[0];
    assert_eq!(fault.victim().index(), victim);
    assert_eq!(fault.phase(), FaultPhase::Enumeration);
    assert!(fault.cause().contains("dna-faultsim"), "cause carries the payload: {}", fault.cause());
    assert!(result.is_degraded());
    assert_eq!(result.soundness(), Soundness::Degraded { lower_bound: true });
    assert_eq!(result.sweep_stats().quarantined_victims, 1);
    // The answer that survives is still a valid, finite elimination set.
    assert!(result.delay_after().is_finite());
    assert!(result.delay_after() <= result.delay_before() + 1e-9);
}

#[test]
fn dropped_result_slot_degrades_with_a_typed_scheduler_invariant() {
    let circuit = i1();
    let victim = 5;
    assert!(victim < circuit.num_nets());
    let faults = Faults { drop_sched_publish: Some(victim), ..Faults::default() };

    for threads in [1, 4] {
        let config = TopKConfig { threads, ..TopKConfig::default() };
        let engine = faulty(&circuit, config, faults);
        // The lost publication must never abort or hang the process:
        // the hole becomes a typed `SchedulerInvariant` quarantining the
        // victim (empty lists, a sound lower bound) and the result
        // degrades — the daemon-safety contract for the sweep.
        let result = engine.elimination_set(2).expect("hole is quarantined, not fatal");
        assert!(result.is_degraded());
        assert_eq!(result.soundness(), Soundness::Degraded { lower_bound: true });
        let fault = result
            .faults()
            .iter()
            .find(|f| f.victim().index() == victim)
            .expect("the unpublished victim is quarantined");
        assert_eq!(fault.phase(), FaultPhase::Enumeration);
        assert!(
            fault.cause().contains("scheduler invariant"),
            "cause names the invariant: {}",
            fault.cause()
        );
        // Everything that survives is still finite and ordered.
        assert!(result.delay_after().is_finite());
        assert!(result.delay_after() <= result.delay_before() + 1e-9);
    }
}

#[test]
fn quarantine_is_bit_identical_across_thread_counts() {
    let circuit = i1();
    let faults = Faults { panic_at_victim: Some(5), ..Faults::default() };

    let run = |threads: usize| {
        let config = TopKConfig { threads, ..TopKConfig::default() };
        faulty(&circuit, config, faults).elimination_set(2).expect("quarantined, not fatal")
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.fingerprint(), parallel.fingerprint());
    assert_eq!(serial.faults().len(), parallel.faults().len());
    for (a, b) in serial.faults().iter().zip(parallel.faults().iter()) {
        assert_eq!((a.victim(), a.phase(), a.cause()), (b.victim(), b.phase(), b.cause()));
    }
}

#[test]
fn nan_delay_noise_becomes_a_typed_quarantine() {
    let circuit = i1();
    let victim = 9;
    assert!(victim < circuit.num_nets());
    let faults = Faults { nan_at_victim: Some(victim), ..Faults::default() };

    // Elimination seeds every victim with its baseline envelope, so the
    // corrupted delay noise is guaranteed to reach candidate validation.
    let engine = faulty(&circuit, TopKConfig::default(), faults);
    let result = engine.elimination_set(2).expect("NaN is caught, not propagated");

    assert_eq!(result.faults().len(), 1);
    let fault = &result.faults().faults()[0];
    assert_eq!(fault.victim().index(), victim);
    assert_eq!(fault.phase(), FaultPhase::Enumeration);
    assert!(fault.cause().contains("delay noise"), "typed cause: {}", fault.cause());
    assert!(result.is_degraded());
    assert!(result.delay_after().is_finite(), "NaN never reaches the reported result");
}

#[test]
fn prepare_panic_is_a_typed_error_not_a_crash() {
    let circuit = i1();
    let faults = Faults { panic_in_prepare: true, ..Faults::default() };

    let engine = faulty(&circuit, TopKConfig::default(), faults);
    let err = engine.addition_set(2).expect_err("preparation cannot be isolated per victim");
    match err {
        TopKError::EnginePanic { phase, cause } => {
            assert_eq!(phase, FaultPhase::Prepare);
            assert!(cause.contains("dna-faultsim"), "cause carries the payload: {cause}");
        }
        other => panic!("expected EnginePanic, got: {other}"),
    }
}

/// Faults belong to one engine: poisoned engines sweeping on other
/// threads at the same time can never reach a clean engine's answer.
#[test]
fn armed_engines_never_leak_into_concurrent_clean_engines() {
    let circuit = &i1();
    let clean =
        |threads| TopKAnalysis::new(circuit, TopKConfig { threads, ..TopKConfig::default() });
    let reference = clean(1).elimination_set(2).expect("clean run").identity_fingerprint();
    let poisons = [
        Faults { panic_at_victim: Some(5), ..Faults::default() },
        Faults { nan_at_victim: Some(9), ..Faults::default() },
        Faults { corrupt_sched_slot: Some(5), ..Faults::default() },
        Faults { drop_sched_publish: Some(5), ..Faults::default() },
    ];
    std::thread::scope(|scope| {
        for faults in poisons {
            scope.spawn(move || {
                let config = TopKConfig { threads: 2, ..TopKConfig::default() };
                for _ in 0..3 {
                    faulty(circuit, config, faults).elimination_set(2).expect("not fatal");
                }
            });
        }
        for threads in [1, 4] {
            scope.spawn(move || {
                for _ in 0..3 {
                    let r = clean(threads).elimination_set(2).expect("clean run");
                    assert!(r.faults().is_empty(), "threads={threads}: a fault leaked in");
                    assert_eq!(r.identity_fingerprint(), reference, "threads={threads} diverged");
                }
            });
        }
    });
}

#[test]
fn zero_budgets_degrade_soundly_in_both_modes() {
    let circuit = i1();
    let config = TopKConfig { global_candidate_budget: Some(0), ..TopKConfig::default() };
    let engine = TopKAnalysis::new(&circuit, config);

    // Addition under a zero budget: no candidates can be generated, so
    // the honest answer is the empty set at the base delay — degraded.
    let add = engine.addition_set(2).expect("a starved run is degraded, not an error");
    assert!(add.is_degraded());
    assert!(add.delay_after().is_finite());

    // Elimination keeps its per-victim baseline seed even at allowance
    // zero, so the result is still anchored on the full noisy analysis.
    let del = engine.elimination_set(2).expect("a starved run is degraded, not an error");
    assert!(del.is_degraded());
    assert!(del.delay_before().is_finite());
    assert!(del.delay_after() <= del.delay_before() + 1e-9);
}

#[test]
fn artifact_round_trip_preserves_results_and_faults() {
    let circuit = i1();
    let faults = Faults { panic_at_victim: Some(5), ..Faults::default() };

    let poisoned = faulty(&circuit, TopKConfig::default(), faults);
    let session = WhatIfSession::start(&poisoned, Mode::Elimination, 2).expect("session starts");
    assert_eq!(session.result().faults().len(), 1, "the session carries a quarantine");

    // The artifact moves the session onto a clean engine.
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let artifact = session.save_artifact();
    let resumed = WhatIfSession::resume(&engine, &artifact).expect("clean artifact loads");
    assert_eq!(session.result().fingerprint(), resumed.result().fingerprint());
    assert_eq!(session.result().faults().len(), resumed.result().faults().len());
    for (a, b) in session.result().faults().iter().zip(resumed.result().faults().iter()) {
        assert_eq!((a.victim(), a.phase(), a.cause()), (b.victim(), b.phase(), b.cause()));
    }
}

/// The fix loop on a session resumed from its artifact answers exactly
/// what the live session and a from-scratch run under the same mask
/// answer, in both modes.
#[test]
fn loaded_session_applies_bit_identically_to_a_live_one() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());

    for mode in [Mode::Addition, Mode::Elimination] {
        let mut live = WhatIfSession::start(&engine, mode, 2).expect("session starts");
        let artifact = live.save_artifact();
        let mut loaded = WhatIfSession::resume(&engine, &artifact).expect("clean artifact loads");

        let fix: Vec<CouplingId> = live.result().couplings().to_vec();
        let delta = MaskDelta::remove(&fix);
        let from_live = live.apply(&delta).expect("live apply");
        let from_loaded = loaded.apply(&delta).expect("loaded apply");
        let scratch = engine.run_with_mask(mode, 2, loaded.mask()).expect("from-scratch run");
        assert_eq!(from_live.result().fingerprint(), from_loaded.result().fingerprint());
        assert_eq!(from_loaded.result().fingerprint(), scratch.fingerprint(), "{}", mode.name());
    }
}

/// A small perturbation costs a small chain record: on i10 (seed 42,
/// addition, k 10, validation off) removing the weakest coupling appends
/// a delta record under 10% of a full checkpoint of the same state, and
/// the chain tip replays to the live session bit for bit. The checkpoint
/// must be at least 8 MiB, where fixed record framing no longer
/// dominates, so the bound can never pass on a circuit too small to test
/// it. Minutes in a debug build: `cargo test --release -- --ignored`
/// (CI_FULL).
#[test]
#[ignore = "release-only: a full i10 session; run with --ignored (CI_FULL)"]
fn weakest_coupling_delta_is_under_a_tenth_of_a_checkpoint_on_i10() {
    use topk_aggressors::topk::{commit_chain, CommitOptions, SaveKind};

    let circuit = suite::benchmark("i10", 42).expect("known benchmark");
    let engine =
        TopKAnalysis::new(&circuit, TopKConfig { validate: false, ..TopKConfig::default() });
    let dir = std::env::temp_dir().join("dna_fault_chain");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let chain = dir.join(format!("i10-delta-{}.dnawifa", std::process::id()));
    let full = dir.join(format!("i10-full-{}.dnawifa", std::process::id()));
    let _ = std::fs::remove_file(&chain);

    let mut session = WhatIfSession::start(&engine, Mode::Addition, 10).expect("session starts");
    commit_chain(&mut session, &chain, &CommitOptions::default()).expect("base commit");
    let weakest = circuit
        .coupling_ids()
        .min_by(|&a, &b| {
            circuit.coupling(a).cap().total_cmp(&circuit.coupling(b).cap()).then(a.cmp(&b))
        })
        .expect("i10 has couplings");
    session.apply(&MaskDelta::remove(&[weakest])).expect("apply");
    let delta = commit_chain(&mut session, &chain, &CommitOptions::default()).expect("append");
    let checkpoint = commit_chain(
        &mut session,
        &full,
        &CommitOptions { force_checkpoint: true, ..CommitOptions::default() },
    )
    .expect("checkpoint");
    let bytes = std::fs::read(&chain).expect("chain bytes");
    let _ = std::fs::remove_file(&chain);
    let _ = std::fs::remove_file(&full);

    assert_eq!(delta.kind, SaveKind::Delta(1), "one apply appends one delta record");
    assert!(
        checkpoint.bytes_written >= 8 << 20,
        "checkpoint {} bytes is under the 8 MiB floor the bound needs",
        checkpoint.bytes_written
    );
    let fraction = delta.bytes_written as f64 / checkpoint.bytes_written as f64;
    println!(
        "delta gate: {} of {} bytes ({fraction:.4})",
        delta.bytes_written, checkpoint.bytes_written
    );
    assert!(fraction < 0.10, "delta is {fraction:.4} of a checkpoint");
    let replayed =
        WhatIfSession::resume_at(&engine, &bytes, delta.generation).expect("tip replays");
    assert_eq!(replayed.result().fingerprint(), session.result().fingerprint());
}

#[test]
fn every_single_bit_flip_is_detected() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let session = WhatIfSession::start(&engine, Mode::Addition, 2).expect("session starts");
    let artifact = session.save_artifact();

    // The whole header, then a stride through the payload: every flip
    // must surface as a typed artifact error — magic, version, length,
    // checksum, or semantic validation — and never a panic or an Ok.
    let offsets = (0..24.min(artifact.len())).chain((24..artifact.len()).step_by(97));
    for offset in offsets {
        let mut corrupt = artifact.clone();
        corrupt[offset] ^= 0x20;
        let err = WhatIfSession::resume(&engine, &corrupt)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {offset} went undetected"));
        assert!(matches!(err, TopKError::Artifact(_)), "byte {offset}: {err}");
    }
}

#[test]
fn truncated_artifacts_are_detected_at_every_length_class() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let session = WhatIfSession::start(&engine, Mode::Addition, 2).expect("session starts");
    let artifact = session.save_artifact();

    for len in [0, 1, 7, 8, 12, 20, 23, 24, artifact.len() / 2, artifact.len() - 1] {
        let err = WhatIfSession::resume(&engine, &artifact[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes went undetected"));
        assert!(matches!(err, TopKError::Artifact(_)), "len {len}: {err}");
    }
    assert!(WhatIfSession::resume(&engine, &artifact).is_ok(), "untouched artifact still loads");
}

#[test]
fn artifact_for_a_different_circuit_or_config_is_rejected() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let session = WhatIfSession::start(&engine, Mode::Addition, 2).expect("session starts");
    let artifact = session.save_artifact();

    // Same schema, different world: a re-seeded circuit of the same size
    // family and a differently configured engine must both refuse.
    let other_circuit = suite::benchmark("i1", 8).expect("known benchmark");
    let other_engine = TopKAnalysis::new(&other_circuit, TopKConfig::default());
    let err = WhatIfSession::resume(&other_engine, &artifact).expect_err("different circuit");
    assert!(err.to_string().contains("different circuit"), "{err}");

    let strict = TopKConfig { validate: false, ..TopKConfig::default() };
    let strict_engine = TopKAnalysis::new(&circuit, strict);
    let err = WhatIfSession::resume(&strict_engine, &artifact).expect_err("different config");
    assert!(err.to_string().contains("different engine configuration"), "{err}");

    // The thread count is explicitly exempt: it never changes results.
    let threaded = TopKConfig { threads: 4, ..TopKConfig::default() };
    let threaded_engine = TopKAnalysis::new(&circuit, threaded);
    assert!(WhatIfSession::resume(&threaded_engine, &artifact).is_ok());
}

#[test]
fn forced_clean_certificate_fails_the_audit_spot_check() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());

    // Honest run first: its session must equal the from-scratch oracle.
    let mut honest = WhatIfSession::start(&engine, Mode::Elimination, 3).expect("session starts");
    let fix: Vec<CouplingId> = honest.result().couplings().to_vec();
    let outcome = honest.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");
    let oracle = Oracle::new(&engine, Mode::Elimination, 3, honest.mask()).expect("reference runs");
    assert_eq!(oracle.check_session(&honest), Ok(()), "honest damping passes the oracle");

    // A structurally dirty victim whose cached answer happens to match
    // the new world would slip past the per-victim comparison, so aim
    // the hook at victims whose data certainly changed: the endpoints of
    // the removed couplings (their candidate lists lose the coupling).
    // At least one of them must be named by the oracle.
    let mut caught = false;
    for &cc in &fix {
        let coupling = circuit.coupling(cc);
        for victim in [coupling.a(), coupling.b()] {
            if !outcome.dirty_flags()[victim.index()] {
                continue;
            }
            let faults = Faults { force_clean_victim: Some(victim.index()), ..Faults::default() };
            let forging = faulty(&circuit, TopKConfig::default(), faults);
            let mut forged =
                WhatIfSession::start(&forging, Mode::Elimination, 3).expect("session starts");
            let forged_out = forged.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");
            assert!(
                !forged_out.dirty_flags()[victim.index()],
                "the armed hook must force victim {} out of the dirty set",
                victim.index()
            );
            assert!(
                forged_out.proven_clean().contains(&victim),
                "the forced skip must be reported as proven clean"
            );
            // The reference runs on the forging engine itself: the hook
            // only touches what-if refinement, never a from-scratch run.
            let oracle =
                Oracle::new(&forging, Mode::Elimination, 3, forged.mask()).expect("reference runs");
            if let Err(divergence) = oracle.check_session(&forged) {
                caught = true;
                assert_eq!(
                    divergence.victim,
                    Some(victim),
                    "the forged victim {} is the one named: {divergence:?}",
                    victim.index()
                );
            }
        }
    }
    assert!(caught, "the oracle must reject at least one forced skip");
}

#[test]
fn whatif_apply_recovers_after_a_quarantined_start() {
    let circuit = i1();
    let faults = Faults { panic_at_victim: Some(5), ..Faults::default() };

    let poisoned = faulty(&circuit, TopKConfig::default(), faults);
    let session = WhatIfSession::start(&poisoned, Mode::Elimination, 2).expect("session starts");
    assert_eq!(session.result().faults().len(), 1);
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let mut session =
        WhatIfSession::resume(&engine, &session.save_artifact()).expect("clean artifact loads");

    // With the fault gone, applying a delta re-sweeps the dirty cone
    // healthy; the engine never panics and the outcome stays finite.
    let fix: Vec<CouplingId> = session.result().couplings().to_vec();
    let outcome = session.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");
    assert!(outcome.result().delay_after().is_finite());
}

#[test]
fn strided_bit_flips_over_delta_records_are_typed_and_lenient_recoverable() {
    use topk_aggressors::topk::{chain_summary, commit_chain, CommitOptions, SaveKind};

    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let mut session = WhatIfSession::start(&engine, Mode::Elimination, 2).expect("session starts");

    // Grow a chain with two delta records behind the base checkpoint.
    let dir = std::env::temp_dir().join("dna_fault_chain");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("flips-{}.dnawifa", std::process::id()));
    commit_chain(&mut session, &path, &CommitOptions::default()).expect("base commit");
    for id in 0..2u32 {
        session.apply(&MaskDelta::remove(&[CouplingId::new(id)])).expect("apply");
        let report = commit_chain(&mut session, &path, &CommitOptions::default()).expect("commit");
        assert_eq!(report.kind, SaveKind::Delta(1));
    }
    let bytes = std::fs::read(&path).expect("chain bytes");
    let _ = std::fs::remove_file(&path);
    let summary = chain_summary(&bytes).expect("summary");
    assert_eq!(summary.records.len(), 3, "checkpoint + two deltas");
    let delta_start = summary.records[1].offset as usize;

    // A stride of flips across the delta region — record headers, link
    // hashes, payloads, CRCs. Every flip must (a) fail the strict loader
    // with a typed artifact error, and (b) leave the lenient loader a
    // committed prefix that replays bit-identically to the clean chain
    // at that same generation: corruption costs the tail, never the
    // answer and never a panic.
    let tip = summary.tip_generation().expect("tip");
    for offset in (delta_start..bytes.len()).step_by(61) {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x10;

        let err = WhatIfSession::resume(&engine, &corrupt)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {offset} went undetected"));
        assert!(matches!(err, TopKError::Artifact(_)), "byte {offset}: {err}");

        let (salvaged, recovery) = WhatIfSession::resume_lenient(&engine, &corrupt)
            .unwrap_or_else(|e| panic!("flip at byte {offset}: base must survive: {e}"));
        assert!(recovery.generation < tip, "byte {offset}: the damaged tail cannot commit");
        assert_eq!(salvaged.generation(), recovery.generation);
        let reference = WhatIfSession::resume_at(&engine, &bytes, recovery.generation)
            .expect("clean chain replays every committed generation");
        assert_eq!(
            salvaged.result().identity_fingerprint(),
            reference.result().identity_fingerprint(),
            "byte {offset}: salvaged prefix diverged from the clean replay"
        );
    }
}
