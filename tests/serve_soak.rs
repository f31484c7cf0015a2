//! Soak tests for the multi-tenant what-if daemon core.
//!
//! The daemon's contract is that concurrency is invisible: every
//! scenario response must be bit-identical (by identity fingerprint) to
//! a sequential single-session replay of the same delta, no matter how
//! requests interleave across tenants, how often the LRU spills and
//! reloads sessions, or whether another tenant is poisoned. These tests
//! drive an in-process [`SessionManager`] from several client threads
//! and then replay every recorded request against fresh solo sessions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{suite, Circuit, CouplingId};
use topk_aggressors::topk::faultsim::{self, Faults};
use topk_aggressors::topk::serve::{Response, ServeConfig, SessionManager};
use topk_aggressors::topk::{MaskDelta, Mode, TopKAnalysis, TopKConfig, WhatIfSession};

fn small_circuit(seed: u64) -> Circuit {
    generate(&GeneratorConfig::new(24, 18).with_seed(seed)).expect("generator succeeds")
}

fn mid_circuit(seed: u64) -> Circuit {
    generate(&GeneratorConfig::new(40, 30).with_seed(seed)).expect("generator succeeds")
}

/// One recorded daemon interaction: which tenant, which delta, and the
/// fingerprint the daemon answered with.
struct Recorded {
    tenant: &'static str,
    delta: MaskDelta,
    fingerprint: u64,
    degraded: bool,
}

fn single_delta(circuit: &Circuit, i: usize) -> MaskDelta {
    let n = circuit.num_couplings() as u32;
    MaskDelta::remove(&[CouplingId::new(i as u32 % n)])
}

fn pair_delta(circuit: &Circuit, i: usize) -> MaskDelta {
    let n = circuit.num_couplings() as u32;
    MaskDelta::remove(&[CouplingId::new(i as u32 % n), CouplingId::new((i as u32 * 7 + 3) % n)])
}

/// Replays every recorded request sequentially against a fresh solo
/// session per tenant and bit-compares the fingerprints.
fn replay_and_compare(
    recorded: &[Recorded],
    tenants: &[(&'static str, &Circuit, TopKConfig)],
    k: usize,
) {
    for &(name, circuit, config) in tenants {
        let analysis = TopKAnalysis::new(circuit, config);
        let session =
            WhatIfSession::start(&analysis, Mode::Elimination, k).expect("solo session starts");
        for r in recorded.iter().filter(|r| r.tenant == name) {
            let mut fork = session.fork();
            let outcome = fork.apply(&r.delta).expect("solo apply succeeds");
            assert_eq!(
                r.fingerprint,
                outcome.result().identity_fingerprint(),
                "tenant `{name}` delta {:?}: daemon fingerprint differs from the \
                 sequential solo replay",
                r.delta
            );
            assert_eq!(
                r.degraded,
                outcome.result().is_degraded(),
                "tenant `{name}`: degraded marker differs from the solo replay"
            );
        }
    }
}

/// Drives `threads × per_thread` interleaved requests (mixed singles and
/// batches, one budget-starved tenant) through one manager and verifies
/// every response against the sequential replay.
fn soak(manager: &Arc<SessionManager>, threads: usize, per_thread: usize, k: usize) {
    let a = small_circuit(9);
    let b = mid_circuit(31);
    let starved_config = TopKConfig { global_candidate_budget: Some(0), ..TopKConfig::default() };
    for (name, circuit, config) in [
        ("alpha", &a, TopKConfig::default()),
        ("beta", &b, TopKConfig::default()),
        ("starved", &a, starved_config),
    ] {
        let r = manager.open(name, circuit.clone(), Mode::Elimination, k, config);
        assert!(matches!(r, Response::Opened { .. }), "open {name}: {r:?}");
    }

    let recorded: Arc<Mutex<Vec<Recorded>>> = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for t in 0..threads {
        let manager = manager.clone();
        let recorded = recorded.clone();
        let errors = errors.clone();
        let (a, b) = (a.clone(), b.clone());
        workers.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let step = t * per_thread + i;
                let (tenant, circuit) = match step % 3 {
                    0 => ("alpha", &a),
                    1 => ("beta", &b),
                    _ => ("starved", &a),
                };
                if step % 4 == 3 {
                    // A two-scenario batch request.
                    let deltas = vec![single_delta(circuit, step), pair_delta(circuit, step)];
                    match manager.batch(tenant, deltas.clone()) {
                        Response::Batch { summaries, coalesced, .. } => {
                            assert!(coalesced >= 1);
                            assert_eq!(summaries.len(), 2);
                            let mut rec = recorded.lock().unwrap();
                            for (delta, s) in deltas.into_iter().zip(summaries) {
                                rec.push(Recorded {
                                    tenant,
                                    delta,
                                    fingerprint: s.fingerprint,
                                    degraded: s.degraded,
                                });
                            }
                        }
                        other => {
                            eprintln!("batch on {tenant} failed: {other:?}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                } else {
                    let delta = single_delta(circuit, step);
                    match manager.scenario(tenant, delta.clone()) {
                        Response::Scenario { summary, coalesced, .. } => {
                            assert!(coalesced >= 1);
                            recorded.lock().unwrap().push(Recorded {
                                tenant,
                                delta,
                                fingerprint: summary.fingerprint,
                                degraded: summary.degraded,
                            });
                        }
                        other => {
                            eprintln!("scenario on {tenant} failed: {other:?}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }));
    }
    for w in workers {
        w.join().expect("soak worker never panics");
    }
    assert_eq!(errors.load(Ordering::Relaxed), 0, "every request must be answered");

    let recorded = recorded.lock().unwrap();
    assert_eq!(
        recorded.len(),
        threads * per_thread + threads * per_thread / 4,
        "every request (and both halves of each batch) is recorded"
    );
    // The starved tenant's zero global budget must degrade every answer.
    assert!(
        recorded.iter().filter(|r| r.tenant == "starved").all(|r| r.degraded),
        "a zero global budget degrades every response"
    );
    let starved_config = TopKConfig { global_candidate_budget: Some(0), ..TopKConfig::default() };
    replay_and_compare(
        &recorded,
        &[
            ("alpha", &a, TopKConfig::default()),
            ("beta", &b, TopKConfig::default()),
            ("starved", &a, starved_config),
        ],
        k,
    );
}

#[test]
fn interleaved_tenants_bit_match_sequential_replay() {
    let manager = Arc::new(SessionManager::new(ServeConfig::default()));
    soak(&manager, 3, 8, 2);
    let Response::Stats(stats) = manager.stats() else { panic!("stats") };
    assert_eq!(stats.tenants, 3);
    assert_eq!(stats.quarantined, 0);
}

/// The CI_FULL variant: hundreds of interleaved requests over a
/// capacity-1 LRU, so almost every request crosses a spill/reload.
#[test]
#[ignore = "heavyweight soak; run with --ignored (CI_FULL)"]
fn soak_hundreds_of_requests_across_a_thrashing_lru() {
    let manager =
        Arc::new(SessionManager::new(ServeConfig { capacity: 1, ..ServeConfig::default() }));
    soak(&manager, 6, 34, 2);
    let Response::Stats(stats) = manager.stats() else { panic!("stats") };
    assert_eq!(stats.quarantined, 0);
    assert!(stats.spills > 0, "a capacity-1 LRU under 3 tenants must spill");
    assert!(stats.reloads > 0, "spilled tenants must come back hot");
    assert_eq!(stats.reload_fallbacks, 0, "clean artifacts resume without fallback");
}

/// LRU eviction and reload must be invisible to the answers: the same
/// request before an eviction, after a reload, and on a zero-capacity
/// manager (spill after every request) produces one fingerprint.
#[test]
fn evict_reload_and_zero_capacity_preserve_identity() {
    let circuit = small_circuit(9);
    let delta = MaskDelta::remove(&[CouplingId::new(2)]);

    let manager =
        Arc::new(SessionManager::new(ServeConfig { capacity: 1, ..ServeConfig::default() }));
    assert!(matches!(
        manager.open("a", circuit.clone(), Mode::Elimination, 2, TopKConfig::default()),
        Response::Opened { .. }
    ));
    let Response::Scenario { summary: hot, .. } = manager.scenario("a", delta.clone()) else {
        panic!("scenario")
    };
    // Opening a second tenant over capacity 1 evicts `a`.
    assert!(matches!(
        manager.open("b", mid_circuit(31), Mode::Elimination, 2, TopKConfig::default()),
        Response::Opened { .. }
    ));
    let Response::Stats(stats) = manager.stats() else { panic!("stats") };
    assert!(stats.spills >= 1, "capacity 1 with two tenants spills");
    let Response::Scenario { summary: reloaded, note, .. } = manager.scenario("a", delta.clone())
    else {
        panic!("scenario")
    };
    assert_eq!(note, None, "a clean artifact reloads without a fallback note");
    assert_eq!(hot.fingerprint, reloaded.fingerprint, "reload is bit-invisible");

    // Zero capacity: every request pays a spill + reload, answers are
    // still identical.
    let zero = SessionManager::new(ServeConfig { capacity: 0, ..ServeConfig::default() });
    assert!(matches!(
        zero.open("a", circuit, Mode::Elimination, 2, TopKConfig::default()),
        Response::Opened { .. }
    ));
    for _ in 0..3 {
        let Response::Scenario { summary, .. } = zero.scenario("a", delta.clone()) else {
            panic!("scenario")
        };
        assert_eq!(summary.fingerprint, hot.fingerprint);
    }
    let Response::Stats(stats) = zero.stats() else { panic!("stats") };
    assert_eq!(stats.hot, 0, "zero capacity never keeps a tenant hot");
}

/// A poisoned tenant (a victim's enumeration panics under faultsim) is
/// quarantined per victim: its responses are `Degraded` — while a clean
/// tenant keeps getting bit-exact answers from the same daemon.
#[test]
fn poisoned_tenant_degrades_while_clean_tenant_serves() {
    faultsim::silence_injected_panics();

    let clean = small_circuit(9);
    let big = suite::benchmark("i1", 7).expect("suite circuit");
    // Poison a victim index both circuits have: the fault belongs to the
    // poisoned tenant's engine, so the clean tenant never sees it.
    let poison_victim = 5;
    assert!(poison_victim < clean.num_nets(), "victim must exist in both circuits");
    let faults = Faults { panic_at_victim: Some(poison_victim), ..Faults::default() };

    let manager = SessionManager::new(ServeConfig::default());
    assert!(matches!(
        manager.open("clean", clean.clone(), Mode::Elimination, 2, TopKConfig::default()),
        Response::Opened { .. }
    ));

    // The poisoned tenant's base sweep quarantines the victim instead of
    // aborting: open succeeds, the daemon lives.
    assert!(matches!(
        manager.open_with_faults(
            "poisoned",
            big.clone(),
            Mode::Elimination,
            2,
            TopKConfig::default(),
            faults
        ),
        Response::Opened { .. }
    ));

    // Its scenario responses are Degraded (the quarantine is inherited
    // by every incremental step), with the armed victim named.
    let delta = single_delta(&big, 1);
    let Response::Scenario { summary, .. } = manager.scenario("poisoned", delta) else {
        panic!("scenario")
    };
    assert!(summary.degraded, "poisoned tenant must answer Degraded");
    assert!(summary.faults >= 1);
    let cause = summary.first_fault.expect("fault cause is carried");
    assert!(cause.contains("dna-faultsim"), "cause names the injection: {cause}");

    // The clean tenant, meanwhile, still bit-matches a solo replay.
    let delta = single_delta(&clean, 4);
    let Response::Scenario { summary, .. } = manager.scenario("clean", delta.clone()) else {
        panic!("scenario")
    };
    assert!(!summary.degraded);
    let analysis = TopKAnalysis::new(&clean, TopKConfig::default());
    let solo = WhatIfSession::start(&analysis, Mode::Elimination, 2).unwrap();
    let mut fork = solo.fork();
    let outcome = fork.apply(&delta).unwrap();
    assert_eq!(summary.fingerprint, outcome.result().identity_fingerprint());

    let Response::Stats(stats) = manager.stats() else { panic!("stats") };
    assert_eq!(stats.quarantined, 0, "per-victim quarantine never kills the worker");
}
