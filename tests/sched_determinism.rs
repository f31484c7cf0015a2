//! The work-stealing scheduler contract, attacked from every side.
//!
//! The sweep hands each victim to whichever worker steals it first, yet
//! the answer must be **bit-identical** to the serial reference schedule
//! at any thread count, under any steal order, budgeted or not — because
//! per-victim enumeration is pure, result slots are disjoint write-once
//! cells, and budget shares are pre-partitioned by victim index instead
//! of charged at a barrier. These tests drive that argument: thread
//! sweeps, an adversarial long-tail circuit, random circuits under
//! random budgets, steal-order shuffling, a panicking stolen task, and a
//! corrupted result slot that the L060 serial-replay audit must catch.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use topk_aggressors::lint::lint_sched_replay;
use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{suite, CellKind, Circuit, CircuitBuilder, Library};
use topk_aggressors::topk::{faultsim, Mode, TopKAnalysis, TopKConfig, TopKResult};

/// The injection registry (and the `DNA_SCHED_SHUFFLE` environment
/// variable) are process-global; tests that touch either serialize here
/// and disarm on drop, even across assertion failures.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Armed {
    fn drop(&mut self) {
        faultsim::disarm_all();
        std::env::remove_var("DNA_SCHED_SHUFFLE");
    }
}

fn armed() -> Armed {
    let guard = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    faultsim::silence_injected_panics();
    faultsim::disarm_all();
    Armed(guard)
}

/// Everything observable about a result, with f64 payloads compared by
/// bit pattern — "close enough" is a scheduler bug here.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    set: Vec<usize>,
    sink: usize,
    delay_before: u64,
    delay_after: u64,
    predicted: u64,
    peak_list_width: usize,
    generated: usize,
    truncated: usize,
    skipped: usize,
    quarantined: usize,
}

fn fingerprint(r: &TopKResult) -> Fingerprint {
    let s = r.sweep_stats();
    Fingerprint {
        set: r.couplings().iter().map(|c| c.index()).collect(),
        sink: r.sink().index(),
        delay_before: r.delay_before().to_bits(),
        delay_after: r.delay_after().to_bits(),
        predicted: r.predicted_delay().to_bits(),
        peak_list_width: r.peak_list_width(),
        generated: r.generated_candidates(),
        truncated: s.truncated_victims,
        skipped: s.skipped_victims,
        quarantined: s.quarantined_victims,
    }
}

fn run(circuit: &Circuit, mode: Mode, k: usize, config: TopKConfig) -> TopKResult {
    let engine = TopKAnalysis::new(circuit, config);
    match mode {
        Mode::Addition => engine.addition_set(k),
        Mode::Elimination => engine.elimination_set(k),
    }
    .expect("top-k analysis succeeds")
}

fn unbudgeted(threads: usize) -> TopKConfig {
    TopKConfig { threads, validate: false, ..TopKConfig::default() }
}

/// A budget tight enough that shares actually truncate and skip work, so
/// the identity below proves the *pre-partitioned* semantics, not just
/// the unbudgeted sweep.
fn budgeted(threads: usize) -> TopKConfig {
    TopKConfig {
        global_candidate_budget: Some(24),
        victim_candidate_budget: Some(4),
        ..unbudgeted(threads)
    }
}

/// threads {1, 2, 3, 4, 8} x both modes x budgeted/unbudgeted: every
/// configuration must reproduce the serial reference bit-for-bit.
#[test]
fn thread_count_never_changes_a_bit() {
    let circuit = suite::benchmark("i1", 42).expect("known benchmark");
    for mode in [Mode::Addition, Mode::Elimination] {
        for (label, make) in
            [("unbudgeted", unbudgeted as fn(usize) -> TopKConfig), ("budgeted", budgeted)]
        {
            let serial = fingerprint(&run(&circuit, mode, 3, make(1)));
            for threads in [2, 3, 4, 8] {
                let parallel = fingerprint(&run(&circuit, mode, 3, make(threads)));
                assert_eq!(
                    serial,
                    parallel,
                    "{} threads={threads} {label} diverged from serial",
                    mode.name(),
                );
            }
        }
    }
}

/// One victim with ten times the aggressors of everyone else: the
/// scheduler's worst case, where LPT seeding and stealing matter most
/// and a barrier-charged budget would have drifted with the schedule.
fn long_tail_circuit() -> Circuit {
    let mut b = CircuitBuilder::new(Library::cmos013());
    let a = b.input("a");
    let bb = b.input("b");
    let mut chain = Vec::new();
    let mut prev = a;
    for i in 0..12 {
        let n = b.gate(CellKind::Buf, format!("u{i}"), &[prev]).expect("gate");
        chain.push(n);
        prev = n;
    }
    b.output(prev);
    let hot = b.gate(CellKind::Nand2, "hot", &[a, bb]).expect("gate");
    b.output(hot);
    // Background load: one weak coupling per chain neighbor...
    for w in chain.windows(2) {
        b.coupling(w[0], w[1], 1.5).expect("coupling");
    }
    // ...and the long tail: the hot victim aggressed by ten nets.
    for &n in chain.iter().take(10) {
        b.coupling(hot, n, 6.0).expect("coupling");
    }
    b.build().expect("long-tail circuit builds")
}

#[test]
fn long_tail_victim_is_thread_invariant() {
    let _guard = armed();
    let circuit = long_tail_circuit();
    for mode in [Mode::Addition, Mode::Elimination] {
        for make in [unbudgeted as fn(usize) -> TopKConfig, budgeted as fn(usize) -> TopKConfig] {
            let serial = fingerprint(&run(&circuit, mode, 4, make(1)));
            for threads in [2, 3, 4, 8] {
                let parallel = fingerprint(&run(&circuit, mode, 4, make(threads)));
                assert_eq!(
                    serial,
                    parallel,
                    "long tail: {} threads={threads} diverged",
                    mode.name()
                );
            }
        }
    }
    // The tail is real: the parallel run's longest task dominates its
    // worker's busy time, which is exactly what the stats must surface.
    let r = run(&circuit, Mode::Elimination, 4, unbudgeted(4));
    let stats = r.scheduler_stats();
    assert!(stats.tasks() > 0, "the sweep ran through the scheduler");
    assert!(stats.threads() >= 2, "the parallel run used multiple workers");
    assert!(
        stats.tail_task_share() > 0.0 && stats.tail_task_share() <= 1.0,
        "tail share stays a valid fraction: {}",
        stats.tail_task_share()
    );
}

/// Steal-order shuffling (the CI_FULL stress axis): `DNA_SCHED_SHUFFLE`
/// perturbs deque seeding and steal direction but may never change an
/// output bit.
#[test]
fn steal_order_shuffle_never_changes_a_bit() {
    let _guard = armed();
    let circuit = suite::benchmark("i1", 42).expect("known benchmark");
    std::env::remove_var("DNA_SCHED_SHUFFLE");
    let reference = fingerprint(&run(&circuit, Mode::Addition, 3, budgeted(1)));
    for seed in [1u64, 7, 0xdead_beef] {
        std::env::set_var("DNA_SCHED_SHUFFLE", seed.to_string());
        for threads in [2, 4] {
            let shuffled = fingerprint(&run(&circuit, Mode::Addition, 3, budgeted(threads)));
            assert_eq!(reference, shuffled, "shuffle seed {seed} threads={threads} diverged");
        }
    }
}

/// A stolen task that panics quarantines exactly its own victim — the
/// rest of the sweep completes and stays bit-identical to the serial run
/// under the same fault.
#[test]
fn panicking_stolen_task_quarantines_only_its_victim() {
    let _guard = armed();
    let circuit = suite::benchmark("i1", 7).expect("known benchmark");
    let victim = 5;
    assert!(victim < circuit.num_nets());
    faultsim::arm_panic_at_victim(victim);

    let serial = run(&circuit, Mode::Elimination, 2, unbudgeted(1));
    for threads in [2, 4, 8] {
        let parallel = run(&circuit, Mode::Elimination, 2, unbudgeted(threads));
        assert_eq!(parallel.faults().len(), 1, "threads={threads}: exactly one quarantine");
        assert_eq!(parallel.faults().faults()[0].victim().index(), victim);
        assert_eq!(parallel.sweep_stats().quarantined_victims, 1);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "threads={threads}: quarantined sweep diverged from serial"
        );
        assert!(parallel.delay_after().is_finite(), "the surviving answer is still valid");
    }
}

/// The L060 pipeline end to end: a clean sweep passes the serial-replay
/// audit; a corrupted parallel result slot is caught both by the audit
/// struct and by the lint rule built on it.
#[test]
fn corrupted_result_slot_is_caught_by_the_replay_audit() {
    let _guard = armed();
    let circuit = suite::benchmark("i1", 7).expect("known benchmark");
    let config = TopKConfig { validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(&circuit, config);

    // Clean first: the audit must find nothing to flag.
    let clean = engine.sched_audit(Mode::Addition, 2).expect("audit runs");
    assert!(clean.is_clean(), "clean sweep must replay identically: {clean:?}");
    assert_eq!(clean.checked_victims, circuit.num_nets());
    assert!(lint_sched_replay(&clean).is_empty());

    // Corrupting the published slot of a victim whose true I-lists are
    // empty would be invisible (empty == empty), so aim at victims that
    // certainly carry candidates: the endpoints of the winning couplings.
    let result = engine.addition_set(2).expect("clean run succeeds");
    let mut caught = false;
    for &cc in result.couplings() {
        let coupling = circuit.coupling(cc);
        for victim in [coupling.a().index(), coupling.b().index()] {
            faultsim::arm_corrupt_sched_slot(victim);
            let audit = engine.sched_audit(Mode::Addition, 2).expect("audit runs");
            faultsim::disarm_all();
            if audit.is_clean() {
                continue;
            }
            caught = true;
            assert!(
                audit.mismatched_slots.contains(&victim),
                "the corrupted slot {victim} is the one flagged: {audit:?}"
            );
            let diags = lint_sched_replay(&audit);
            assert!(diags.has_errors(), "the audit mismatch surfaces as a lint error");
            let text = diags.render_text();
            assert!(text.contains("L060"), "expected L060 in:\n{text}");
        }
    }
    assert!(caught, "at least one corrupted slot must diverge from the serial replay");
}

fn tiny_circuit() -> impl Strategy<Value = Circuit> {
    (0u64..300, 6usize..24, 4usize..18).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random circuits under random thread counts AND random budget
    /// pools: the pre-partitioned shares make truncation schedule-free.
    #[test]
    fn budgeted_sweeps_are_schedule_free(
        circuit in tiny_circuit(),
        k in 1usize..4,
        threads in 2usize..9,
        pool in 0usize..64,
    ) {
        let config = TopKConfig {
            global_candidate_budget: Some(pool),
            ..unbudgeted(1)
        };
        for mode in [Mode::Addition, Mode::Elimination] {
            let serial = fingerprint(&run(&circuit, mode, k, config));
            let parallel = fingerprint(&run(
                &circuit,
                mode,
                k,
                TopKConfig { threads, ..config },
            ));
            prop_assert!(
                serial == parallel,
                "{} k={} threads={} pool={} diverged",
                mode.name(), k, threads, pool
            );
        }
    }
}
