//! Fault-injection hooks for the robustness test harness.
//!
//! The fault-tolerance layer (per-victim `catch_unwind` quarantine, typed
//! phase-boundary errors) is only trustworthy if it is *exercised* — a
//! recovery path nobody can trigger is a recovery path nobody has tested.
//! The engine consults these injection points at its fault boundaries:
//!
//! * [`Faults::panic_at_victim`] — every sweep panics while enumerating
//!   the given victim (simulates a panicking delay/noise model inside one
//!   victim's cone; must be quarantined, not propagated);
//! * [`Faults::nan_at_victim`] — the given victim's candidate delay noises
//!   degrade to NaN (simulates a poisoned waveform reaching superposition;
//!   must surface as a typed error and quarantine the victim);
//! * [`Faults::panic_in_prepare`] — timing preparation panics (simulates a
//!   panicking delay model during STA/noise convergence; must surface as
//!   [`TopKError::EnginePanic`](crate::TopKError::EnginePanic), never
//!   abort the process);
//! * [`Faults::force_clean_victim`] — the damping prover marks the given
//!   victim clean without a proof (simulates a prover bug; when the skip
//!   changes an answer — aim it at an endpoint of a flipped coupling —
//!   [`Oracle::check_session`](crate::Oracle::check_session) must name
//!   that victim);
//! * [`Faults::corrupt_sched_slot`] — the parallel scheduler sweep
//!   publishes empty lists into the given victim's result slot while the
//!   serial reference path stays intact (simulates a scheduler
//!   publication bug; it exists to prove that
//!   [`Oracle::check_parallel`](crate::Oracle::check_parallel) catches a
//!   corrupted slot and blames its victim);
//! * [`Faults::drop_sched_publish`] — the sweep never publishes the given
//!   victim's result slot at all (simulates a lost publication; the
//!   collection path must quarantine the victim behind a typed
//!   `SchedulerInvariant` error and a `Degraded` result, never abort);
//! * the `DNA_CRASH_POINT` environment variable — the versioned artifact
//!   store's commit protocol aborts the whole process (`kill -9`
//!   semantics: no unwinding, no destructors, no flushes) at a named
//!   protocol step. Recovery must resume from the last *committed*
//!   generation no matter which step was hit. (Torn *tails* at arbitrary
//!   byte boundaries need no hook: tests truncate a committed chain file
//!   directly, which is byte-for-byte what a mid-write power cut leaves
//!   behind.)
//!
//! The engine hooks belong to one engine: a [`Faults`] value is handed to
//! [`TopKAnalysis::with_faults`](crate::TopKAnalysis::with_faults), copied
//! into every prepared run of that engine and read from there, so an
//! injection can never reach another engine — tests arm faults in
//! parallel without any lock. Only the crash point is process-wide,
//! because it must reach a `dna` process from outside. Production code
//! never arms anything.

use dna_netlist::NetId;

/// Marker prefix of every injected panic message, so a test-side panic
/// hook can suppress the noise of *expected* panics while leaving real
/// ones visible (see [`silence_injected_panics`]).
pub const PANIC_TAG: &str = "dna-faultsim:";

/// The fault-injection hooks of one engine. The default arms nothing.
/// Victims are named by net index; an index the circuit does not have
/// never fires.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Panic inside the enumeration of this victim on every sweep.
    pub panic_at_victim: Option<usize>,
    /// Corrupt every candidate delay noise computed at this victim to NaN.
    pub nan_at_victim: Option<usize>,
    /// Panic at the start of timing preparation.
    pub panic_in_prepare: bool,
    /// Force this victim clean on every what-if refinement: the prover
    /// skips it *without* a proof, so the oracle's session audit must
    /// name it wherever the skip changes an answer.
    pub force_clean_victim: Option<usize>,
    /// Publish empty lists into this victim's result slot on parallel
    /// sweeps (the serial reference path is untouched), so the oracle's
    /// parallel check has a real divergence to catch.
    pub corrupt_sched_slot: Option<usize>,
    /// Never publish this victim's result slot, leaving a hole the
    /// collection path must turn into a typed
    /// [`TopKError::SchedulerInvariant`](crate::TopKError::SchedulerInvariant)
    /// quarantine — never an `expect()` abort.
    pub drop_sched_publish: Option<usize>,
}

impl Faults {
    /// Engine hook: panics iff a panic is armed for victim `v`.
    pub(crate) fn maybe_panic_at_victim(&self, v: NetId) {
        if self.panic_at_victim == Some(v.index()) {
            panic!("{PANIC_TAG} injected panic while enumerating victim {}", v.index());
        }
    }

    /// Engine hook: corrupts `dn` to NaN iff NaN injection is armed for
    /// victim `v`; identity otherwise.
    pub(crate) fn corrupt_delay_noise(&self, v: NetId, dn: f64) -> f64 {
        if self.nan_at_victim == Some(v.index()) {
            f64::NAN
        } else {
            dn
        }
    }

    /// Engine hook: panics iff a prepare-phase panic is armed.
    pub(crate) fn maybe_panic_in_prepare(&self) {
        if self.panic_in_prepare {
            panic!("{PANIC_TAG} injected panic in timing preparation");
        }
    }
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

/// Store hook: aborts the process iff `DNA_CRASH_POINT` names this
/// commit-protocol step. The steps, in protocol order: `pre-append`,
/// `mid-append` (after a prefix of the delta append hit the file),
/// `pre-sync`, `pre-temp`, `mid-temp` (after a prefix of the checkpoint
/// temp file), `pre-rename` and `pre-manifest` (after the artifact
/// commit, before the tenant registry records the new generation). The
/// abort is deliberate `kill -9` semantics — `std::process::abort`, not a
/// panic — so no destructor, buffered writer or `Drop`-based cleanup can
/// soften what recovery has to cope with. Called only on artifact and
/// registry save paths; one env read per commit step.
pub(crate) fn maybe_crash(point: &str) {
    if std::env::var("DNA_CRASH_POINT").as_deref() == Ok(point) {
        eprintln!("{PANIC_TAG} crash injected at commit step `{point}` — aborting process");
        std::process::abort();
    }
}
