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

use topk_aggressors::netlist::{suite, Circuit, CouplingId, NetId};
use topk_aggressors::topk::faultsim::{self, Faults};
use topk_aggressors::topk::{
    FaultPhase, MaskDelta, Mode, Soundness, TopKAnalysis, TopKConfig, TopKError, TopKResult,
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

/// Everything two runs must agree on to count as bit-identical.
fn fingerprint(r: &TopKResult) -> (Vec<CouplingId>, NetId, u64, u64, u64, usize, usize) {
    (
        r.couplings().to_vec(),
        r.sink(),
        r.delay_before().to_bits(),
        r.delay_after().to_bits(),
        r.predicted_delay().to_bits(),
        r.peak_list_width(),
        r.generated_candidates(),
    )
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

    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
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
    assert_eq!(fingerprint(session.result()), fingerprint(resumed.result()));
    assert_eq!(session.result().faults().len(), resumed.result().faults().len());
    for (a, b) in session.result().faults().iter().zip(resumed.result().faults().iter()) {
        assert_eq!((a.victim(), a.phase(), a.cause()), (b.victim(), b.phase(), b.cause()));
    }
}

#[test]
fn loaded_session_applies_bit_identically_to_a_live_one() {
    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());

    let mut live = WhatIfSession::start(&engine, Mode::Elimination, 2).expect("session starts");
    let artifact = live.save_artifact();
    let mut loaded = WhatIfSession::resume(&engine, &artifact).expect("clean artifact loads");

    let fix: Vec<CouplingId> = live.result().couplings().to_vec();
    let delta = MaskDelta::remove(&fix);
    let from_live = live.apply(&delta).expect("live apply");
    let from_loaded = loaded.apply(&delta).expect("loaded apply");
    assert_eq!(fingerprint(from_live.result()), fingerprint(from_loaded.result()));
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

    // Honest run first: its certificates must pass the spot check.
    let mut honest = WhatIfSession::start(&engine, Mode::Elimination, 3).expect("session starts");
    let fix: Vec<CouplingId> = honest.result().couplings().to_vec();
    let outcome = honest.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");
    honest.audit_clean_victims(&outcome, 8).expect("honest certificates pass the spot check");

    // A structurally dirty victim whose cached answer happens to match
    // the new world would slip past the per-victim comparison, so aim
    // the hook at victims whose data certainly changed: the endpoints of
    // the removed couplings (their candidate lists lose the coupling).
    // At least one of them must make the forged audit fail typed.
    let mut caught = false;
    for &cc in &fix {
        let coupling = circuit.coupling(cc);
        for victim in [coupling.a().index(), coupling.b().index()] {
            if !outcome.dirty_flags()[victim] {
                continue;
            }
            let faults = Faults { force_clean_victim: Some(victim), ..Faults::default() };
            let forging = faulty(&circuit, TopKConfig::default(), faults);
            let mut forged =
                WhatIfSession::start(&forging, Mode::Elimination, 3).expect("session starts");
            let forged_out = forged.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");
            assert!(
                !forged_out.dirty_flags()[victim],
                "the armed hook must force victim {victim} out of the dirty set"
            );
            assert!(
                forged_out.certificates().iter().any(|c| c.victim().index() == victim),
                "the forced skip must carry a (fabricated) certificate"
            );
            match forged.audit_clean_victims(&forged_out, usize::MAX) {
                Err(TopKError::Internal { .. }) => caught = true,
                Err(other) => panic!("expected a typed internal error, got {other:?}"),
                Ok(_) => {}
            }
        }
    }
    assert!(caught, "the audit must reject at least one fabricated certificate");
}

#[test]
fn forced_clean_certificate_fails_lint_rederivation() {
    use topk_aggressors::lint::lint_dirty_closure_certified;

    let circuit = i1();
    let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
    let clean = WhatIfSession::start(&engine, Mode::Elimination, 3).expect("session starts");
    let fix: Vec<CouplingId> = clean.result().couplings().to_vec();
    let probe = clean.fork().apply(&MaskDelta::remove(&fix)).expect("probe apply succeeds");
    let victim = probe.dirty_flags().iter().position(|&d| d).expect("the fix dirties some victim");

    let faults = Faults { force_clean_victim: Some(victim), ..Faults::default() };
    let forging = faulty(&circuit, TopKConfig::default(), faults);
    let mut session = WhatIfSession::start(&forging, Mode::Elimination, 3).expect("session starts");
    let before = session.mask().clone();
    let outcome = session.apply(&MaskDelta::remove(&fix)).expect("apply succeeds");

    // The independent re-derivation runs on a clean engine, so the
    // fabricated certificate contradicts the witness: L050 (and a stale
    // corridor counterpart, L051) must fire.
    let witness = engine
        .derive_clean_witness(Mode::Elimination, &before, session.mask())
        .expect("witness derivation succeeds");
    let diags = lint_dirty_closure_certified(
        &circuit,
        &before,
        session.mask(),
        outcome.dirty_flags(),
        outcome.certificates(),
        &witness,
    );
    assert!(diags.has_errors(), "the fabricated certificate must be caught");
    let text = diags.render_text();
    assert!(text.contains("L050"), "expected L050 in:\n{text}");
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
