//! Fault-injection hooks for the robustness test harness.
//!
//! The fault-tolerance layer (per-victim `catch_unwind` quarantine, typed
//! phase-boundary errors) is only trustworthy if it is *exercised* — a
//! recovery path nobody can trigger is a recovery path nobody has tested.
//! This module provides process-global, atomically armed injection points
//! the engine consults at its fault boundaries:
//!
//! * [`arm_panic_at_victim`] — the next sweep panics while enumerating the
//!   given victim (simulates a panicking delay/noise model inside one
//!   victim's cone; must be quarantined, not propagated);
//! * [`arm_nan_at_victim`] — the given victim's candidate delay noises
//!   degrade to NaN (simulates a poisoned waveform reaching superposition;
//!   must surface as a typed error and quarantine the victim);
//! * [`arm_panic_in_prepare`] — timing preparation panics (simulates a
//!   panicking delay model during STA/noise convergence; must surface as
//!   [`TopKError::EnginePanic`](crate::TopKError::EnginePanic), never
//!   abort the process);
//! * [`arm_force_clean_victim`] — the corridor prover fabricates an
//!   *unsound* [`CleanCertificate`](crate::CleanCertificate) claiming the
//!   given victim is provably clean (simulates a prover bug; the
//!   certificate verifier in `dna-lint` and the `whatif --audit`
//!   spot-check must both catch it);
//! * [`arm_corrupt_sched_slot`] — the parallel work-stealing sweep
//!   publishes empty lists into the given victim's result slot while the
//!   serial reference path stays intact (simulates a scheduler
//!   publication bug; the L060 replay audit in `dna-lint` must catch
//!   the slot divergence);
//! * [`arm_drop_sched_publish`] — the sweep never publishes the given
//!   victim's result slot at all (simulates a lost publication; the
//!   collection path must quarantine the victim behind a typed
//!   `SchedulerInvariant` error and a `Degraded` result, never abort);
//! * [`arm_crash_point`] / the `DNA_CRASH_POINT` environment variable —
//!   the versioned artifact store's commit protocol aborts the whole
//!   process (`kill -9` semantics: no unwinding, no destructors, no
//!   flushes) at a named protocol step. Recovery must resume from the
//!   last *committed* generation no matter which step was hit. (Torn
//!   *tails* at arbitrary byte boundaries need no hook: tests truncate a
//!   committed chain file directly, which is byte-for-byte what a
//!   mid-write power cut leaves behind.)
//!
//! Every hook is a single relaxed atomic load when disarmed — negligible
//! against the enumeration work per victim. The hooks are global: tests
//! that arm them must serialize on a lock and [`disarm_all`] when done.
//! Production code never arms anything.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dna_netlist::NetId;

/// Marker prefix of every injected panic message, so a test-side panic
/// hook can suppress the noise of *expected* panics while leaving real
/// ones visible (see [`silence_injected_panics`]).
pub const PANIC_TAG: &str = "dna-faultsim:";

const DISARMED: usize = usize::MAX;

static PANIC_VICTIM: AtomicUsize = AtomicUsize::new(DISARMED);
static NAN_VICTIM: AtomicUsize = AtomicUsize::new(DISARMED);
static PREPARE_PANIC: AtomicBool = AtomicBool::new(false);
static FORCE_CLEAN_VICTIM: AtomicUsize = AtomicUsize::new(DISARMED);
static CORRUPT_SCHED_SLOT: AtomicUsize = AtomicUsize::new(DISARMED);
static DROP_SCHED_PUBLISH: AtomicUsize = AtomicUsize::new(DISARMED);
static CRASH_POINT: AtomicUsize = AtomicUsize::new(DISARMED);

/// Every commit-protocol step the versioned store consults before (or in
/// the middle of) an irreversible disk operation, in protocol order:
///
/// * `pre-append` — before the first byte of a delta append,
/// * `mid-append` — after a prefix of the delta append has hit the file,
/// * `pre-sync` — after the append, before its `fsync`,
/// * `pre-temp` — before the checkpoint temp file is created,
/// * `mid-temp` — after a prefix of the temp file has been written,
/// * `pre-rename` — after the temp `fsync`, before the atomic rename,
/// * `pre-manifest` — after the artifact commit, before the tenant
///   registry records the new generation.
pub const CRASH_POINTS: &[&str] =
    &["pre-append", "mid-append", "pre-sync", "pre-temp", "mid-temp", "pre-rename", "pre-manifest"];

/// Arms a panic inside the enumeration of the victim with net index
/// `index` on every subsequent sweep until [`disarm_all`].
pub fn arm_panic_at_victim(index: usize) {
    PANIC_VICTIM.store(index, Ordering::SeqCst);
}

/// Arms NaN corruption of every candidate delay noise computed at the
/// victim with net index `index` until [`disarm_all`].
pub fn arm_nan_at_victim(index: usize) {
    NAN_VICTIM.store(index, Ordering::SeqCst);
}

/// Arms a panic at the start of timing preparation until [`disarm_all`].
pub fn arm_panic_in_prepare() {
    PREPARE_PANIC.store(true, Ordering::SeqCst);
}

/// Arms fabrication of an unsound clean certificate for the victim with
/// net index `index` on every subsequent what-if refinement until
/// [`disarm_all`]. The prover marks the victim clean *without* a proof, so
/// downstream certificate verification must flag the run as corrupt.
pub fn arm_force_clean_victim(index: usize) {
    FORCE_CLEAN_VICTIM.store(index, Ordering::SeqCst);
}

/// Arms corruption of the parallel scheduler's result slot for the
/// victim with net index `index` until [`disarm_all`]: the work-stealing
/// sweep publishes empty lists there while the serial reference path is
/// untouched, so the L060 replay audit has a real divergence to catch.
pub fn arm_corrupt_sched_slot(index: usize) {
    CORRUPT_SCHED_SLOT.store(index, Ordering::SeqCst);
}

/// Arms *dropping* the publication of the given victim's result slot
/// until [`disarm_all`]: the sweep completes but leaves the slot empty,
/// so the collection path finds a hole. The engine must convert that
/// into a typed [`TopKError::SchedulerInvariant`]
/// (crate::TopKError::SchedulerInvariant) quarantining the victim as
/// `Degraded` — never an `expect()` abort.
pub fn arm_drop_sched_publish(index: usize) {
    DROP_SCHED_PUBLISH.store(index, Ordering::SeqCst);
}

/// Arms a process abort (`kill -9` semantics — no unwinding, no buffered
/// writes survive) at the named commit-protocol step of the versioned
/// artifact store. Returns `false` (and arms nothing) when `point` is not
/// one of [`CRASH_POINTS`]. The same points can be armed from outside the
/// process via the `DNA_CRASH_POINT` environment variable, which is how
/// CI kills a daemon mid-save.
pub fn arm_crash_point(point: &str) -> bool {
    match CRASH_POINTS.iter().position(|&p| p == point) {
        Some(i) => {
            CRASH_POINT.store(i, Ordering::SeqCst);
            true
        }
        None => false,
    }
}

/// Disarms every injection point.
pub fn disarm_all() {
    PANIC_VICTIM.store(DISARMED, Ordering::SeqCst);
    NAN_VICTIM.store(DISARMED, Ordering::SeqCst);
    PREPARE_PANIC.store(false, Ordering::SeqCst);
    FORCE_CLEAN_VICTIM.store(DISARMED, Ordering::SeqCst);
    CORRUPT_SCHED_SLOT.store(DISARMED, Ordering::SeqCst);
    DROP_SCHED_PUBLISH.store(DISARMED, Ordering::SeqCst);
    CRASH_POINT.store(DISARMED, Ordering::SeqCst);
}

/// Installs (once) a panic hook that suppresses the default stderr
/// backtrace for panics carrying the [`PANIC_TAG`] marker — injected
/// panics are *expected* in the fault harness and would otherwise flood
/// test output — while delegating every other panic to the previous hook.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.starts_with(PANIC_TAG) {
                previous(info);
            }
        }));
    });
}

/// Engine hook: panics iff a panic is armed for victim `v`.
pub(crate) fn maybe_panic_at_victim(v: NetId) {
    if PANIC_VICTIM.load(Ordering::Relaxed) == v.index() {
        panic!("{PANIC_TAG} injected panic while enumerating victim {}", v.index());
    }
}

/// Engine hook: corrupts `dn` to NaN iff NaN injection is armed for
/// victim `v`; identity otherwise.
pub(crate) fn corrupt_delay_noise(v: NetId, dn: f64) -> f64 {
    if NAN_VICTIM.load(Ordering::Relaxed) == v.index() {
        f64::NAN
    } else {
        dn
    }
}

/// Engine hook: panics iff a prepare-phase panic is armed.
pub(crate) fn maybe_panic_in_prepare() {
    if PREPARE_PANIC.load(Ordering::Relaxed) {
        panic!("{PANIC_TAG} injected panic in timing preparation");
    }
}

/// Prover hook: the net index whose clean certificate should be
/// fabricated, if armed.
pub(crate) fn forced_clean_victim() -> Option<usize> {
    match FORCE_CLEAN_VICTIM.load(Ordering::Relaxed) {
        DISARMED => None,
        index => Some(index),
    }
}

/// Scheduler hook: the net index whose parallel result slot should be
/// corrupted, if armed.
pub(crate) fn corrupt_sched_slot() -> Option<usize> {
    match CORRUPT_SCHED_SLOT.load(Ordering::Relaxed) {
        DISARMED => None,
        index => Some(index),
    }
}

/// Scheduler hook: the net index whose result-slot publication should be
/// dropped entirely, if armed.
pub(crate) fn drop_sched_publish() -> Option<usize> {
    match DROP_SCHED_PUBLISH.load(Ordering::Relaxed) {
        DISARMED => None,
        index => Some(index),
    }
}

/// Store hook: aborts the process iff a crash is armed (atomically or via
/// `DNA_CRASH_POINT`) for this commit-protocol step. The abort is
/// deliberate `kill -9` semantics — `std::process::abort`, not a panic —
/// so no destructor, buffered writer or `Drop`-based cleanup can soften
/// what recovery has to cope with. Called only on artifact/registry save
/// paths; one relaxed load plus (at most) one env read per commit step.
pub(crate) fn maybe_crash(point: &str) {
    let armed = match CRASH_POINT.load(Ordering::Relaxed) {
        DISARMED => false,
        i => CRASH_POINTS.get(i).is_some_and(|&p| p == point),
    };
    if armed || std::env::var("DNA_CRASH_POINT").as_deref() == Ok(point) {
        eprintln!("{PANIC_TAG} crash injected at commit step `{point}` — aborting process");
        std::process::abort();
    }
}
