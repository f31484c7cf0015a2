//! The tracked top-k scaling benchmark: serial vs. work-stealing sweep.
//!
//! Runs the i1/i5/i10 suite through [`TopKAnalysis`] once per thread
//! configuration and records wall-clock time plus the result fingerprint,
//! so the work-stealing sweep is *measured* against the serial reference
//! path — and proven bit-identical to it — on every tracked run. The
//! report serializes to `BENCH_topk.json` (schema [`SCHEMA`]); the JSON is
//! hand-rolled and hand-parsed because the workspace carries no serde.
//!
//! Entry points: `cargo run -p dna-bench --bin bench_topk` or
//! `dna bench --json`.

use std::time::Instant;

use dna_netlist::{suite, CouplingId, NetId};
use dna_topk::{
    commit_chain, CommitOptions, Damping, MaskDelta, Mode, SaveKind, TopKAnalysis, TopKConfig,
    TopKResult, WhatIfBatch, WhatIfSession,
};

use crate::{Table, DEFAULT_SEED};

/// Schema marker written into (and required from) every report.
///
/// `v2` added the `whatif` section: incremental-vs-full wall clock for the
/// session-based fix loop, gated on bit-identity to the from-scratch run.
///
/// `v3` added the `session_persistence` section: artifact save/load wall
/// clock and size, the cold-load-vs-from-scratch speedup, and a gate that
/// a session resumed from an artifact still answers bit-identically to a
/// from-scratch reference.
///
/// `v4` added the `batch` section (one `apply_batch` over N scenarios vs
/// N sequential `fork().apply` calls, gated on bit-identity) and a
/// `peeled` section (since removed, see v10).
///
/// `v5` added the corridor-prover damping fields: `whatif` and `batch`
/// entries report `structural_dirty_victims` / `proven_clean_victims`,
/// and a new `damping` section times the semantic apply against the
/// structural apply on the same delta, gated on bit-identity of both to
/// the from-scratch reference (`identical_to_full`).
///
/// `v6` added the `scheduler` section: work-stealing counters (resolved
/// workers, tasks, steals, tail-task share) of the tracked parallel
/// configuration plus its `speedup_over_serial`, gated `> 1.0` — but the
/// speedup gate is **skipped** (not failed) when the report's
/// `host_threads` is below 4 (a narrow host cannot express the
/// parallelism the gate measures) or when the entry's serial reference
/// ran under 500 ms (smoke-sized circuits are overhead dominated).
/// Identity gates are never skipped.
///
/// `v7` makes that skip *loud*: every scheduler entry carries a
/// `gate_status` string — `"armed"` or `"skipped (<reason>)"` — written
/// at measurement time. The validator re-derives the expected status
/// from `host_threads` and `wall_ms_serial` and rejects a report whose
/// stored status disagrees, so a skipped gate can never masquerade as a
/// passed one, and `dna bench --check` prints each skip with its reason.
///
/// `v8` added the `versioned_store` section: the generation-chain save
/// path (a delta record appended after a weakest-coupling fix — the
/// small-perturbation sensitivity workload) against the full checkpoint
/// rewrite of the same post-apply state, gated on the delta costing
/// under 10% of the checkpoint bytes — armed only in addition mode
/// (elimination's aggressor windows re-derive from the masked noisy
/// timing, so any flip perturbs every victim and the delta is a
/// near-checkpoint by engine construction) and only where the
/// checkpoint is at least 8 MiB, so smoke-sized chains whose fixed
/// framing dominates never fail it (same `gate_status` discipline as
/// v7) — and on the chain tip replaying bit-identically to the live
/// session (`identical_to_full`, never skipped).
///
/// `v9` added an `enumeration` section (lazy bound-first admission vs
/// the eager reference path).
///
/// `v10` removes the `enumeration` and `peeled` sections: bound-first
/// admission and the session-cached peel loop are gone, so each section
/// compared a path with itself.
pub const SCHEMA: &str = "dna-bench-topk/v10";

/// What to measure.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Benchmark circuit names (the paper's scaling suite by default).
    pub circuits: Vec<String>,
    /// The k requested from every addition/elimination run.
    pub k: usize,
    /// Timing samples per configuration; the fastest is reported.
    pub samples: usize,
    /// Circuit generator seed.
    pub seed: u64,
    /// Which engine modes to exercise.
    pub modes: Vec<Mode>,
}

impl Default for BenchSpec {
    fn default() -> Self {
        Self {
            circuits: vec!["i1".into(), "i5".into(), "i10".into()],
            k: 10,
            samples: 1,
            seed: DEFAULT_SEED,
            modes: vec![Mode::Addition, Mode::Elimination],
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Configured [`TopKConfig::threads`] (0 = auto).
    pub threads: usize,
    /// What that configuration resolved to on this host.
    pub effective_threads: usize,
    /// Fastest wall-clock time over the samples, in milliseconds.
    pub wall_ms: f64,
    /// Delay before applying the set, picoseconds.
    pub delay_before_ps: f64,
    /// Delay after applying the set, picoseconds.
    pub delay_after_ps: f64,
    /// Candidates generated before pruning.
    pub generated: usize,
    /// Largest irredundant-list width observed.
    pub peak_list_width: usize,
    /// Whether the result is bit-identical to the serial (`threads: 1`)
    /// run of the same circuit and mode.
    pub identical_to_serial: bool,
}

/// Work-stealing scheduler counters of the tracked parallel configuration
/// (the last entry of [`thread_configs`]) for one circuit × mode, with
/// its wall-clock speedup over the serial reference.
#[derive(Debug, Clone)]
pub struct SchedulerEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Workers the sweep actually ran on (resolved, never the raw 0).
    pub threads: usize,
    /// Victim tasks executed by the sweep.
    pub tasks: usize,
    /// Tasks taken from another worker's deque.
    pub steals: usize,
    /// Share of total busy time spent in the single longest task, in
    /// `[0, 1]` — near 1 means one victim dominates and no scheduler can
    /// help.
    pub tail_task_share: f64,
    /// Fastest serial (`threads = 1`) wall-clock time, milliseconds.
    pub wall_ms_serial: f64,
    /// Fastest wall-clock time of this parallel configuration.
    pub wall_ms_parallel: f64,
    /// `wall_ms_serial / wall_ms_parallel` — the v6 gate requires
    /// `> 1.0` on hosts with at least 4 threads.
    pub speedup_over_serial: f64,
    /// Whether the speedup gate applies to this entry: `"armed"`, or
    /// `"skipped (<reason>)"` naming exactly why (narrow host or a
    /// serial reference under the smoke floor). Recorded at measurement
    /// time and cross-checked by [`validate_json`], so a skipped gate is
    /// always visible in the report and in `dna bench --check` output.
    pub gate_status: String,
}

/// The v7 speedup-gate status for one scheduler entry, derived from the
/// report's host width and the entry's serial reference time. Shared by
/// the runner (which records it) and the validator (which re-derives it
/// and rejects disagreement).
#[must_use]
pub fn speedup_gate_status(host_threads: f64, serial_ms: f64) -> String {
    if host_threads < 4.0 {
        format!(
            "skipped ({host_threads:.0}-thread host cannot express the parallelism; gate needs 4)"
        )
    } else if serial_ms < 500.0 {
        format!("skipped (serial reference {serial_ms:.0} ms is under the 500 ms smoke floor)")
    } else {
        "armed".to_owned()
    }
}

/// One measured what-if fix loop: full analysis, mask out the reported
/// worst set, re-verify incrementally through a [`WhatIfSession`].
#[derive(Debug, Clone)]
pub struct WhatIfEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Fastest wall-clock time of a from-scratch run under the same
    /// reduced mask the incremental run solves, in milliseconds.
    pub full_ms: f64,
    /// Fastest wall-clock time of the incremental re-analysis after
    /// removing the worst set, in milliseconds.
    pub incremental_ms: f64,
    /// Victims re-swept by the incremental run (the dirty cone after
    /// corridor refinement).
    pub recomputed_victims: usize,
    /// Total victims in the circuit.
    pub total_victims: usize,
    /// Victims the structural closure alone would have re-swept.
    pub structural_dirty_victims: usize,
    /// Structurally dirty victims the corridor prover certified clean
    /// (each skip carries a machine-checkable certificate).
    pub proven_clean_victims: usize,
    /// Whether the incremental result is bit-identical to a from-scratch
    /// run under the same mask.
    pub identical_to_full: bool,
}

/// One measured save → load → re-verify cycle of the session artifact
/// path: how much a checksummed artifact costs to write, how much faster
/// resuming from it is than recomputing the session, and whether the
/// resumed session still answers bit-identically.
#[derive(Debug, Clone)]
pub struct PersistEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Fastest wall-clock time to serialize the session, in milliseconds.
    pub save_ms: f64,
    /// Fastest wall-clock time to validate + deserialize the artifact
    /// into a live session (the cold-load path), in milliseconds.
    pub load_ms: f64,
    /// Serialized artifact size in bytes.
    pub artifact_bytes: usize,
    /// Fastest wall-clock time to build the same session from scratch
    /// (full sweep), in milliseconds — the baseline a cold load replaces.
    pub from_scratch_ms: f64,
    /// Whether applying the fix-loop delta to the **loaded** session
    /// produced a result bit-identical to a from-scratch run under the
    /// same mask.
    pub identical_to_full: bool,
}

/// One measured generation-chain save cycle of the versioned store: the
/// delta record appended after a fix apply against the full checkpoint
/// rewrite of the same post-apply state, plus a replay of the chain tip
/// bit-compared to the live session.
#[derive(Debug, Clone)]
pub struct VersionedStoreEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Bytes a full checkpoint of the post-apply session costs — what
    /// every save wrote before the generation chain existed.
    pub checkpoint_bytes: usize,
    /// Bytes the delta append actually wrote for the same state change.
    pub delta_bytes: usize,
    /// `delta_bytes / checkpoint_bytes` — the v8 gate requires `< 0.10`
    /// where it is armed.
    pub delta_fraction: f64,
    /// Fastest wall-clock time of the full checkpoint commit, ms.
    pub checkpoint_ms: f64,
    /// Fastest wall-clock time of the delta append commit, ms.
    pub delta_ms: f64,
    /// The chain's tip generation after the delta commit.
    pub tip_generation: usize,
    /// Whether resuming the chain at its tip reproduced the live
    /// session's result bit-for-bit. Never skipped.
    pub identical_to_full: bool,
    /// Whether the delta-fraction gate applies: `"armed"`, or
    /// `"skipped (<reason>)"` when the checkpoint is under the 8 MiB
    /// floor (fixed record framing dominates tiny chains) or the mode is
    /// elimination (whose aggressor windows re-derive from the masked
    /// noisy timing, so any flip perturbs every victim's state — the
    /// delta is a near-checkpoint by engine construction, see DESIGN.md
    /// §17.4). Recorded at measurement time and cross-checked by
    /// [`validate_json`].
    pub gate_status: String,
}

/// The v8 delta-fraction gate status for one versioned-store entry,
/// derived from its recorded mode and checkpoint size. Shared by the
/// runner (which records it) and the validator (which re-derives it and
/// rejects disagreement).
#[must_use]
pub fn delta_gate_status(mode: &str, checkpoint_bytes: f64) -> String {
    const FLOOR: f64 = 8.0 * 1024.0 * 1024.0;
    if mode == "elimination" {
        "skipped (elimination windows re-derive from the masked noisy timing, so every victim's \
         state shifts on any flip and the delta is a near-checkpoint by construction)"
            .to_owned()
    } else if checkpoint_bytes < FLOOR {
        format!(
            "skipped (checkpoint {checkpoint_bytes:.0} bytes is under the 8 MiB floor where \
             record framing dominates)"
        )
    } else {
        "armed".to_owned()
    }
}

/// One measured batch what-if run: N scenarios evaluated through a single
/// [`dna_topk::WhatIfSession::apply_batch`] sweep, against the same N
/// scenarios run as sequential `fork().apply` calls.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Scenarios submitted to the batch.
    pub scenarios: usize,
    /// Distinct scenarios after flip-set dedup.
    pub distinct_scenarios: usize,
    /// Fastest wall-clock time of the single `apply_batch` call, ms.
    pub batch_ms: f64,
    /// Fastest wall-clock time of the N sequential `fork().apply` calls
    /// answering the same scenarios, ms.
    pub sequential_ms: f64,
    /// Mask-aware structurally dirty victims across all distinct
    /// scenarios (what the batch would re-sweep without the prover).
    pub dirty_victims: usize,
    /// What a mask-oblivious closure would have re-swept instead.
    pub unmasked_dirty_victims: usize,
    /// Structurally dirty victims the corridor prover certified clean
    /// across all distinct scenarios.
    pub proven_clean_victims: usize,
    /// Closure frames actually built by the shared prefix trie.
    pub closure_frames_built: usize,
    /// Closure frames reused from a shared prefix instead of rebuilt.
    pub closure_frames_shared: usize,
    /// Whether every batch scenario is bit-identical to its sequential
    /// `fork().apply` twin.
    pub identical_to_sequential: bool,
}

/// One measured damping comparison: the same worst-set removal applied
/// once under [`dna_topk::Damping::Semantic`] (corridor prover on) and
/// once under [`dna_topk::Damping::Structural`] (prover off), both
/// bit-compared to a from-scratch run under the same mask.
#[derive(Debug, Clone)]
pub struct DampingEntry {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Engine mode (`"addition"` / `"elimination"`).
    pub mode: String,
    /// Fastest wall-clock time of the semantically damped apply, ms.
    pub semantic_ms: f64,
    /// Fastest wall-clock time of the structurally damped apply, ms.
    pub structural_ms: f64,
    /// Victims the structural closure re-sweeps.
    pub structural_dirty_victims: usize,
    /// Victims the corridor prover certified clean and skipped.
    pub proven_clean_victims: usize,
    /// Clean certificates emitted by the semantic apply (one per skip).
    pub certificates: usize,
    /// Whether the semantic and structural applies are bit-identical to
    /// each other *and* to the from-scratch reference.
    pub identical_to_full: bool,
}

/// A full benchmark run, ready to serialize.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `std::thread::available_parallelism()` on the measuring host —
    /// read this before comparing serial and parallel wall times: on a
    /// single-core host the sweep degenerates to one worker and no
    /// speedup is possible (or expected).
    pub host_threads: usize,
    /// The k measured.
    pub k: usize,
    /// Timing samples per configuration.
    pub samples: usize,
    /// Circuit generator seed.
    pub seed: u64,
    /// One entry per circuit × mode × thread configuration.
    pub entries: Vec<BenchEntry>,
    /// One entry per circuit × mode: scheduler counters and speedup of
    /// the tracked parallel configuration.
    pub scheduler: Vec<SchedulerEntry>,
    /// One entry per circuit × mode: the incremental fix loop.
    pub whatif: Vec<WhatIfEntry>,
    /// One entry per circuit × mode: the artifact save/load cycle.
    pub session_persistence: Vec<PersistEntry>,
    /// One entry per circuit × mode: delta append vs checkpoint rewrite.
    pub versioned_store: Vec<VersionedStoreEntry>,
    /// One entry per circuit × mode: batch vs sequential what-if.
    pub batch: Vec<BatchEntry>,
    /// One entry per circuit × mode: semantic vs structural damping.
    pub damping: Vec<DampingEntry>,
}

/// Everything that must agree between a serial and a parallel run.
/// Wall-clock time and the embedded runtime are deliberately excluded.
#[derive(PartialEq)]
struct Fingerprint {
    set: Vec<CouplingId>,
    sink: NetId,
    delay_before: u64,
    delay_after: u64,
    predicted: u64,
    peak_list_width: usize,
    generated: usize,
}

fn fingerprint(r: &TopKResult) -> Fingerprint {
    Fingerprint {
        set: r.couplings().to_vec(),
        sink: r.sink(),
        delay_before: r.delay_before().to_bits(),
        delay_after: r.delay_after().to_bits(),
        predicted: r.predicted_delay().to_bits(),
        peak_list_width: r.peak_list_width(),
        generated: r.generated_candidates(),
    }
}

/// The thread configurations one run measures: the serial reference and
/// auto parallelism, plus a forced 4-thread run on single-core hosts so
/// the parallel sweep (and its identity to serial) is exercised even
/// where `0` resolves to one worker.
#[must_use]
pub fn thread_configs() -> Vec<usize> {
    let auto = TopKConfig::default().effective_threads();
    if auto == 1 {
        vec![1, 0, 4]
    } else {
        vec![1, 0]
    }
}

/// Runs the benchmark matrix.
///
/// Validation is disabled ([`TopKConfig::validate`] = false) so the
/// timings isolate the enumeration sweep this benchmark tracks, not the
/// iterative noise analysis replaying the winner.
///
/// # Errors
///
/// Returns a message for unknown circuit names or engine failures.
pub fn run(spec: &BenchSpec) -> Result<BenchReport, String> {
    // Resolve host parallelism exactly once; every `threads = 0` entry
    // below reports this count instead of re-resolving (or echoing 1).
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let configs = thread_configs();
    let sched_config = *configs.last().expect("thread_configs is never empty");
    let mut entries = Vec::new();
    let mut scheduler = Vec::new();
    let mut whatif = Vec::new();
    let mut session_persistence = Vec::new();
    let mut versioned_store = Vec::new();
    let mut batch = Vec::new();
    let mut damping = Vec::new();
    for name in &spec.circuits {
        let circuit = suite::benchmark(name, spec.seed).map_err(|e| e.to_string())?;
        for &mode in &spec.modes {
            whatif.push(bench_whatif(&circuit, name, mode, spec)?);
            session_persistence.push(bench_persist(&circuit, name, mode, spec)?);
            versioned_store.push(bench_versioned_store(&circuit, name, mode, spec)?);
            batch.push(bench_batch(&circuit, name, mode, spec)?);
            damping.push(bench_damping(&circuit, name, mode, spec)?);
            let mut serial: Option<Fingerprint> = None;
            let mut serial_ms = f64::INFINITY;
            for &threads in &configs {
                let config = TopKConfig { threads, validate: false, ..TopKConfig::default() };
                let engine = TopKAnalysis::new(&circuit, config);
                let mut wall_ms = f64::INFINITY;
                let mut result = None;
                for _ in 0..spec.samples.max(1) {
                    let start = Instant::now();
                    let r = match mode {
                        Mode::Addition => engine.addition_set(spec.k),
                        Mode::Elimination => engine.elimination_set(spec.k),
                    }
                    .map_err(|e| e.to_string())?;
                    wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
                    result = Some(r);
                }
                let r = result.expect("samples >= 1");
                let fp = fingerprint(&r);
                let identical_to_serial = match &serial {
                    // The first configuration *is* the serial reference.
                    None => {
                        serial = Some(fp);
                        serial_ms = wall_ms;
                        true
                    }
                    Some(reference) => *reference == fp,
                };
                if threads == sched_config && threads != 1 {
                    let s = r.scheduler_stats();
                    // Derive the gate status from the serial time as it
                    // will be serialized (3 decimals), so the validator's
                    // re-derivation from the JSON can never disagree at
                    // the floor boundary.
                    let serial_as_written = (serial_ms * 1e3).round() / 1e3;
                    scheduler.push(SchedulerEntry {
                        circuit: name.clone(),
                        mode: mode.name().to_owned(),
                        threads: s.threads(),
                        tasks: s.tasks(),
                        steals: s.steals(),
                        tail_task_share: s.tail_task_share(),
                        wall_ms_serial: serial_ms,
                        wall_ms_parallel: wall_ms,
                        speedup_over_serial: serial_ms / wall_ms.max(1e-9),
                        gate_status: speedup_gate_status(host_threads as f64, serial_as_written),
                    });
                }
                entries.push(BenchEntry {
                    circuit: name.clone(),
                    mode: mode.name().to_owned(),
                    threads,
                    effective_threads: if threads == 0 { host_threads } else { threads },
                    wall_ms,
                    delay_before_ps: r.delay_before(),
                    delay_after_ps: r.delay_after(),
                    generated: r.generated_candidates(),
                    peak_list_width: r.peak_list_width(),
                    identical_to_serial,
                });
            }
        }
    }
    Ok(BenchReport {
        host_threads,
        k: spec.k,
        samples: spec.samples,
        seed: spec.seed,
        entries,
        scheduler,
        whatif,
        session_persistence,
        versioned_store,
        batch,
        damping,
    })
}

/// Measures one damping comparison: the same fix-loop delta applied once
/// with the corridor prover on ([`Damping::Semantic`], the default) and
/// once with it off ([`Damping::Structural`]), both cross-checked for
/// bit-identity against each other and against a from-scratch run under
/// the same mask — the contract that semantic damping never changes an
/// output bit, only removes re-sweep work it can certify.
fn bench_damping(
    circuit: &dna_netlist::Circuit,
    name: &str,
    mode: Mode,
    spec: &BenchSpec,
) -> Result<DampingEntry, String> {
    let semantic_cfg =
        TopKConfig { validate: false, damping: Damping::Semantic, ..TopKConfig::default() };
    let structural_cfg = TopKConfig { damping: Damping::Structural, ..semantic_cfg };
    let sem_engine = TopKAnalysis::new(circuit, semantic_cfg);
    let str_engine = TopKAnalysis::new(circuit, structural_cfg);
    let mut semantic_ms = f64::INFINITY;
    let mut structural_ms = f64::INFINITY;
    let mut measured = None;
    for _ in 0..spec.samples.max(1) {
        let mut sem = WhatIfSession::start(&sem_engine, mode, spec.k).map_err(|e| e.to_string())?;
        let fix: Vec<CouplingId> = sem.result().couplings().to_vec();
        let delta = MaskDelta::remove(&fix);

        let start = Instant::now();
        let sem_out = sem.apply(&delta).map_err(|e| e.to_string())?;
        semantic_ms = semantic_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let mut st = WhatIfSession::start(&str_engine, mode, spec.k).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let str_out = st.apply(&delta).map_err(|e| e.to_string())?;
        structural_ms = structural_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let scratch =
            sem_engine.run_with_mask(mode, spec.k, sem.mask()).map_err(|e| e.to_string())?;
        let identical = fingerprint(sem_out.result()) == fingerprint(str_out.result())
            && fingerprint(sem_out.result()) == fingerprint(&scratch);
        measured = Some((
            sem_out.structural_dirty_victims(),
            sem_out.proven_clean_victims(),
            sem_out.certificates().len(),
            identical,
        ));
    }
    let (structural_dirty_victims, proven_clean_victims, certificates, identical_to_full) =
        measured.expect("samples >= 1");
    Ok(DampingEntry {
        circuit: name.to_owned(),
        mode: mode.name().to_owned(),
        semantic_ms,
        structural_ms,
        structural_dirty_victims,
        proven_clean_victims,
        certificates,
        identical_to_full,
    })
}

/// Measures one batch what-if run: start a session, submit the fix-triage
/// scenario menu (single removal of each of the worst set's first three
/// couplings, the whole set at once, and a duplicate of the whole set —
/// concurrent triage traffic repeats queries, and flip-set dedup is part
/// of what the batch engine amortizes) as one batch, then answer the
/// same scenarios with sequential `fork().apply` calls and cross-check
/// every pair for bit-identity.
fn bench_batch(
    circuit: &dna_netlist::Circuit,
    name: &str,
    mode: Mode,
    spec: &BenchSpec,
) -> Result<BatchEntry, String> {
    let config = TopKConfig { validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(circuit, config);
    let mut batch_ms = f64::INFINITY;
    let mut sequential_ms = f64::INFINITY;
    let mut measured = None;
    for _ in 0..spec.samples.max(1) {
        let session = WhatIfSession::start(&engine, mode, spec.k).map_err(|e| e.to_string())?;
        let fix: Vec<CouplingId> = session.result().couplings().to_vec();
        let mut scenarios = WhatIfBatch::new();
        for &c in fix.iter().take(3) {
            scenarios.push(MaskDelta::remove(&[c]));
        }
        scenarios.push(MaskDelta::remove(&fix));
        scenarios.push(MaskDelta::remove(&fix));

        let start = Instant::now();
        let out = session.apply_batch(&scenarios).map_err(|e| e.to_string())?;
        batch_ms = batch_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let sequential: Vec<_> = scenarios
            .deltas()
            .iter()
            .map(|delta| session.fork().apply(delta))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        sequential_ms = sequential_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let identical = out
            .scenarios()
            .iter()
            .zip(&sequential)
            .all(|(b, s)| fingerprint(b.result()) == fingerprint(s.result()));
        measured = Some((scenarios.len(), out.stats(), identical));
    }
    let (submitted, stats, identical_to_sequential) = measured.expect("samples >= 1");
    Ok(BatchEntry {
        circuit: name.to_owned(),
        mode: mode.name().to_owned(),
        scenarios: submitted,
        distinct_scenarios: stats.distinct_scenarios(),
        batch_ms,
        sequential_ms,
        dirty_victims: stats.dirty_victims(),
        unmasked_dirty_victims: stats.unmasked_dirty_victims(),
        proven_clean_victims: stats.proven_clean_victims(),
        closure_frames_built: stats.closure_frames_built(),
        closure_frames_shared: stats.closure_frames_shared(),
        identical_to_sequential,
    })
}

/// Measures one incremental fix loop: full run (session start), remove
/// the reported worst set, re-verify incrementally, and cross-check the
/// incremental answer against a from-scratch run under the same mask.
///
/// `full_ms` times that from-scratch reference — the *same* reduced-mask
/// instance the incremental run solves — so the speedup column compares
/// like with like (the initial session start solves a different, full-mask
/// instance and is deliberately not the baseline).
fn bench_whatif(
    circuit: &dna_netlist::Circuit,
    name: &str,
    mode: Mode,
    spec: &BenchSpec,
) -> Result<WhatIfEntry, String> {
    let config = TopKConfig { validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(circuit, config);
    let mut full_ms = f64::INFINITY;
    let mut incremental_ms = f64::INFINITY;
    let mut measured = None;
    for _ in 0..spec.samples.max(1) {
        let mut session = WhatIfSession::start(&engine, mode, spec.k).map_err(|e| e.to_string())?;
        let fix: Vec<CouplingId> = session.result().couplings().to_vec();
        let start = Instant::now();
        let outcome = session.apply(&MaskDelta::remove(&fix)).map_err(|e| e.to_string())?;
        incremental_ms = incremental_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let scratch =
            engine.run_with_mask(mode, spec.k, session.mask()).map_err(|e| e.to_string())?;
        full_ms = full_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let identical = fingerprint(outcome.result()) == fingerprint(&scratch);
        measured = Some((
            outcome.recomputed_victims(),
            outcome.total_victims(),
            outcome.structural_dirty_victims(),
            outcome.proven_clean_victims(),
            identical,
        ));
    }
    let (
        recomputed_victims,
        total_victims,
        structural_dirty_victims,
        proven_clean_victims,
        identical_to_full,
    ) = measured.expect("samples >= 1");
    Ok(WhatIfEntry {
        circuit: name.to_owned(),
        mode: mode.name().to_owned(),
        full_ms,
        incremental_ms,
        recomputed_victims,
        total_victims,
        structural_dirty_victims,
        proven_clean_victims,
        identical_to_full,
    })
}

/// Measures one artifact cycle: build a session, serialize it, resume a
/// fresh session from the bytes, then run the fix loop **on the resumed
/// session** and cross-check it against a from-scratch run under the same
/// mask. `from_scratch_ms` times the session build the cold load replaces;
/// the report's speedup column is `from_scratch_ms / load_ms`.
fn bench_persist(
    circuit: &dna_netlist::Circuit,
    name: &str,
    mode: Mode,
    spec: &BenchSpec,
) -> Result<PersistEntry, String> {
    let config = TopKConfig { validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(circuit, config);
    let mut save_ms = f64::INFINITY;
    let mut load_ms = f64::INFINITY;
    let mut from_scratch_ms = f64::INFINITY;
    let mut artifact_bytes = 0;
    let mut identical = None;
    for _ in 0..spec.samples.max(1) {
        let start = Instant::now();
        let session = WhatIfSession::start(&engine, mode, spec.k).map_err(|e| e.to_string())?;
        from_scratch_ms = from_scratch_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let artifact = session.save_artifact();
        save_ms = save_ms.min(start.elapsed().as_secs_f64() * 1e3);
        artifact_bytes = artifact.len();
        drop(session);

        let start = Instant::now();
        let mut loaded = WhatIfSession::resume(&engine, &artifact).map_err(|e| e.to_string())?;
        load_ms = load_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let fix: Vec<CouplingId> = loaded.result().couplings().to_vec();
        let outcome = loaded.apply(&MaskDelta::remove(&fix)).map_err(|e| e.to_string())?;
        let scratch =
            engine.run_with_mask(mode, spec.k, loaded.mask()).map_err(|e| e.to_string())?;
        identical = Some(fingerprint(outcome.result()) == fingerprint(&scratch));
    }
    Ok(PersistEntry {
        circuit: name.to_owned(),
        mode: mode.name().to_owned(),
        save_ms,
        load_ms,
        artifact_bytes,
        from_scratch_ms,
        identical_to_full: identical.expect("samples >= 1"),
    })
}

/// Measures one generation-chain save cycle: checkpoint a session (the
/// chain base), apply a *small* fix — the weakest enabled coupling in
/// the design, the "small perturbation should cost small re-analysis"
/// sensitivity workload — commit again (which appends one delta record),
/// then commit the same post-apply state as a full checkpoint to a
/// sibling file (what every save cost before the chain existed). The
/// replay gate resumes the chain at its tip and bit-compares against the
/// live session.
fn bench_versioned_store(
    circuit: &dna_netlist::Circuit,
    name: &str,
    mode: Mode,
    spec: &BenchSpec,
) -> Result<VersionedStoreEntry, String> {
    let config = TopKConfig { validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(circuit, config);
    let dir = std::env::temp_dir().join("dna_bench_chain");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let pid = std::process::id();
    let chain = dir.join(format!("{name}-{}-{pid}.dnawifa", mode.name()));
    let full = dir.join(format!("{name}-{}-{pid}-full.dnawifa", mode.name()));
    let mut delta_ms = f64::INFINITY;
    let mut checkpoint_ms = f64::INFINITY;
    let mut measured = None;
    for _ in 0..spec.samples.max(1) {
        let _ = std::fs::remove_file(&chain);
        let mut session = WhatIfSession::start(&engine, mode, spec.k).map_err(|e| e.to_string())?;
        commit_chain(&mut session, &chain, &CommitOptions::default()).map_err(|e| e.to_string())?;
        let weakest = (0..circuit.num_couplings())
            .map(|i| CouplingId::new(i as u32))
            .min_by(|&a, &b| {
                circuit
                    .coupling(a)
                    .cap()
                    .total_cmp(&circuit.coupling(b).cap())
                    .then(a.index().cmp(&b.index()))
            })
            .ok_or("versioned store: circuit has no couplings")?;
        session.apply(&MaskDelta::remove(&[weakest])).map_err(|e| e.to_string())?;

        let start = Instant::now();
        let delta = commit_chain(&mut session, &chain, &CommitOptions::default())
            .map_err(|e| e.to_string())?;
        delta_ms = delta_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if !matches!(delta.kind, SaveKind::Delta(_)) {
            return Err(format!("versioned store: expected a delta append, got {:?}", delta.kind));
        }

        let start = Instant::now();
        let checkpoint = commit_chain(
            &mut session,
            &full,
            &CommitOptions { force_checkpoint: true, ..CommitOptions::default() },
        )
        .map_err(|e| e.to_string())?;
        checkpoint_ms = checkpoint_ms.min(start.elapsed().as_secs_f64() * 1e3);

        let bytes = std::fs::read(&chain).map_err(|e| e.to_string())?;
        let replayed = WhatIfSession::resume_at(&engine, &bytes, delta.generation)
            .map_err(|e| e.to_string())?;
        let identical = fingerprint(replayed.result()) == fingerprint(session.result());
        measured = Some((
            delta.bytes_written as usize,
            checkpoint.bytes_written as usize,
            delta.generation as usize,
            identical,
        ));
    }
    let _ = std::fs::remove_file(&chain);
    let _ = std::fs::remove_file(&full);
    let (delta_bytes, checkpoint_bytes, tip_generation, identical_to_full) =
        measured.expect("samples >= 1");
    Ok(VersionedStoreEntry {
        circuit: name.to_owned(),
        mode: mode.name().to_owned(),
        checkpoint_bytes,
        delta_bytes,
        delta_fraction: delta_bytes as f64 / (checkpoint_bytes as f64).max(1.0),
        checkpoint_ms,
        delta_ms,
        tip_generation,
        identical_to_full,
        gate_status: delta_gate_status(mode.name(), checkpoint_bytes as f64),
    })
}

impl BenchReport {
    /// Serializes the report (schema [`SCHEMA`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_string(SCHEMA)));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"threads\": {},\n", e.threads));
            out.push_str(&format!("      \"effective_threads\": {},\n", e.effective_threads));
            out.push_str(&format!("      \"wall_ms\": {:.3},\n", e.wall_ms));
            out.push_str(&format!("      \"delay_before_ps\": {:.6},\n", e.delay_before_ps));
            out.push_str(&format!("      \"delay_after_ps\": {:.6},\n", e.delay_after_ps));
            out.push_str(&format!("      \"generated\": {},\n", e.generated));
            out.push_str(&format!("      \"peak_list_width\": {},\n", e.peak_list_width));
            out.push_str(&format!("      \"identical_to_serial\": {}\n", e.identical_to_serial));
            out.push_str(if i + 1 < self.entries.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"scheduler\": [\n");
        for (i, e) in self.scheduler.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"threads\": {},\n", e.threads));
            out.push_str(&format!("      \"tasks\": {},\n", e.tasks));
            out.push_str(&format!("      \"steals\": {},\n", e.steals));
            out.push_str(&format!("      \"tail_task_share\": {:.6},\n", e.tail_task_share));
            out.push_str(&format!("      \"wall_ms_serial\": {:.3},\n", e.wall_ms_serial));
            out.push_str(&format!("      \"wall_ms_parallel\": {:.3},\n", e.wall_ms_parallel));
            out.push_str(&format!(
                "      \"speedup_over_serial\": {:.3},\n",
                e.speedup_over_serial
            ));
            out.push_str(&format!("      \"gate_status\": {}\n", json_string(&e.gate_status)));
            out.push_str(if i + 1 < self.scheduler.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"whatif\": [\n");
        for (i, e) in self.whatif.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"full_ms\": {:.3},\n", e.full_ms));
            out.push_str(&format!("      \"incremental_ms\": {:.3},\n", e.incremental_ms));
            out.push_str(&format!("      \"recomputed_victims\": {},\n", e.recomputed_victims));
            out.push_str(&format!("      \"total_victims\": {},\n", e.total_victims));
            out.push_str(&format!(
                "      \"structural_dirty_victims\": {},\n",
                e.structural_dirty_victims
            ));
            out.push_str(&format!("      \"proven_clean_victims\": {},\n", e.proven_clean_victims));
            out.push_str(&format!("      \"identical_to_full\": {}\n", e.identical_to_full));
            out.push_str(if i + 1 < self.whatif.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"session_persistence\": [\n");
        for (i, e) in self.session_persistence.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"save_ms\": {:.3},\n", e.save_ms));
            out.push_str(&format!("      \"load_ms\": {:.3},\n", e.load_ms));
            out.push_str(&format!("      \"artifact_bytes\": {},\n", e.artifact_bytes));
            out.push_str(&format!("      \"from_scratch_ms\": {:.3},\n", e.from_scratch_ms));
            out.push_str(&format!("      \"identical_to_full\": {}\n", e.identical_to_full));
            out.push_str(if i + 1 < self.session_persistence.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"versioned_store\": [\n");
        for (i, e) in self.versioned_store.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"checkpoint_bytes\": {},\n", e.checkpoint_bytes));
            out.push_str(&format!("      \"delta_bytes\": {},\n", e.delta_bytes));
            out.push_str(&format!("      \"delta_fraction\": {:.6},\n", e.delta_fraction));
            out.push_str(&format!("      \"checkpoint_ms\": {:.3},\n", e.checkpoint_ms));
            out.push_str(&format!("      \"delta_ms\": {:.3},\n", e.delta_ms));
            out.push_str(&format!("      \"tip_generation\": {},\n", e.tip_generation));
            out.push_str(&format!("      \"identical_to_full\": {},\n", e.identical_to_full));
            out.push_str(&format!("      \"gate_status\": {}\n", json_string(&e.gate_status)));
            out.push_str(if i + 1 < self.versioned_store.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"batch\": [\n");
        for (i, e) in self.batch.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"scenarios\": {},\n", e.scenarios));
            out.push_str(&format!("      \"distinct_scenarios\": {},\n", e.distinct_scenarios));
            out.push_str(&format!("      \"batch_ms\": {:.3},\n", e.batch_ms));
            out.push_str(&format!("      \"sequential_ms\": {:.3},\n", e.sequential_ms));
            out.push_str(&format!("      \"dirty_victims\": {},\n", e.dirty_victims));
            out.push_str(&format!(
                "      \"unmasked_dirty_victims\": {},\n",
                e.unmasked_dirty_victims
            ));
            out.push_str(&format!("      \"proven_clean_victims\": {},\n", e.proven_clean_victims));
            out.push_str(&format!("      \"closure_frames_built\": {},\n", e.closure_frames_built));
            out.push_str(&format!(
                "      \"closure_frames_shared\": {},\n",
                e.closure_frames_shared
            ));
            out.push_str(&format!(
                "      \"identical_to_sequential\": {}\n",
                e.identical_to_sequential
            ));
            out.push_str(if i + 1 < self.batch.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"damping\": [\n");
        for (i, e) in self.damping.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"circuit\": {},\n", json_string(&e.circuit)));
            out.push_str(&format!("      \"mode\": {},\n", json_string(&e.mode)));
            out.push_str(&format!("      \"semantic_ms\": {:.3},\n", e.semantic_ms));
            out.push_str(&format!("      \"structural_ms\": {:.3},\n", e.structural_ms));
            out.push_str(&format!(
                "      \"structural_dirty_victims\": {},\n",
                e.structural_dirty_victims
            ));
            out.push_str(&format!("      \"proven_clean_victims\": {},\n", e.proven_clean_victims));
            out.push_str(&format!("      \"certificates\": {},\n", e.certificates));
            out.push_str(&format!("      \"identical_to_full\": {}\n", e.identical_to_full));
            out.push_str(if i + 1 < self.damping.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as an aligned text table, with a speedup column
    /// comparing each configuration against the serial run of the same
    /// circuit and mode.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut table = Table::new(&[
            "circuit",
            "mode",
            "threads",
            "eff",
            "wall ms",
            "speedup",
            "width",
            "generated",
            "identical",
        ]);
        for e in &self.entries {
            let serial_ms = self
                .entries
                .iter()
                .find(|s| s.circuit == e.circuit && s.mode == e.mode && s.threads == 1)
                .map_or(e.wall_ms, |s| s.wall_ms);
            table.row(vec![
                e.circuit.clone(),
                e.mode.clone(),
                e.threads.to_string(),
                e.effective_threads.to_string(),
                format!("{:.1}", e.wall_ms),
                format!("{:.2}x", serial_ms / e.wall_ms.max(1e-9)),
                e.peak_list_width.to_string(),
                e.generated.to_string(),
                if e.identical_to_serial { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        let mut out = table.render();
        if !self.scheduler.is_empty() {
            let mut stable = Table::new(&[
                "circuit",
                "mode",
                "workers",
                "tasks",
                "steals",
                "tail share",
                "serial ms",
                "parallel ms",
                "speedup",
                "gate",
            ]);
            for e in &self.scheduler {
                stable.row(vec![
                    e.circuit.clone(),
                    e.mode.clone(),
                    e.threads.to_string(),
                    e.tasks.to_string(),
                    e.steals.to_string(),
                    format!("{:.0}%", e.tail_task_share * 100.0),
                    format!("{:.1}", e.wall_ms_serial),
                    format!("{:.1}", e.wall_ms_parallel),
                    format!("{:.2}x", e.speedup_over_serial),
                    e.gate_status.clone(),
                ]);
            }
            out.push_str("\nwork-stealing scheduler (tracked parallel configuration):\n");
            out.push_str(&stable.render());
        }
        if !self.whatif.is_empty() {
            let mut wtable = Table::new(&[
                "circuit",
                "mode",
                "full ms",
                "incr ms",
                "speedup",
                "reswept",
                "clean",
                "total",
                "identical",
            ]);
            for e in &self.whatif {
                wtable.row(vec![
                    e.circuit.clone(),
                    e.mode.clone(),
                    format!("{:.1}", e.full_ms),
                    format!("{:.1}", e.incremental_ms),
                    format!("{:.2}x", e.full_ms / e.incremental_ms.max(1e-9)),
                    e.recomputed_victims.to_string(),
                    e.proven_clean_victims.to_string(),
                    e.total_victims.to_string(),
                    if e.identical_to_full { "yes" } else { "NO" }.to_owned(),
                ]);
            }
            out.push_str("\nwhat-if fix loop (incremental vs full re-analysis):\n");
            out.push_str(&wtable.render());
        }
        if !self.session_persistence.is_empty() {
            let mut ptable = Table::new(&[
                "circuit",
                "mode",
                "save ms",
                "load ms",
                "bytes",
                "scratch ms",
                "cold-load speedup",
                "identical",
            ]);
            for e in &self.session_persistence {
                ptable.row(vec![
                    e.circuit.clone(),
                    e.mode.clone(),
                    format!("{:.2}", e.save_ms),
                    format!("{:.2}", e.load_ms),
                    e.artifact_bytes.to_string(),
                    format!("{:.1}", e.from_scratch_ms),
                    format!("{:.2}x", e.from_scratch_ms / e.load_ms.max(1e-9)),
                    if e.identical_to_full { "yes" } else { "NO" }.to_owned(),
                ]);
            }
            out.push_str("\nsession persistence (artifact save/load vs from-scratch build):\n");
            out.push_str(&ptable.render());
        }
        if !self.versioned_store.is_empty() {
            let mut vtable = Table::new(&[
                "circuit",
                "mode",
                "checkpoint B",
                "delta B",
                "fraction",
                "ckpt ms",
                "delta ms",
                "tip",
                "identical",
                "gate",
            ]);
            for e in &self.versioned_store {
                vtable.row(vec![
                    e.circuit.clone(),
                    e.mode.clone(),
                    e.checkpoint_bytes.to_string(),
                    e.delta_bytes.to_string(),
                    format!("{:.4}", e.delta_fraction),
                    format!("{:.2}", e.checkpoint_ms),
                    format!("{:.2}", e.delta_ms),
                    e.tip_generation.to_string(),
                    if e.identical_to_full { "yes" } else { "NO" }.to_owned(),
                    e.gate_status.clone(),
                ]);
            }
            out.push_str("\nversioned store (delta append vs full checkpoint rewrite):\n");
            out.push_str(&vtable.render());
        }
        if !self.batch.is_empty() {
            let mut btable = Table::new(&[
                "circuit",
                "mode",
                "scenarios",
                "batch ms",
                "seq ms",
                "speedup",
                "dirty",
                "unmasked",
                "frames",
                "identical",
            ]);
            for e in &self.batch {
                btable.row(vec![
                    e.circuit.clone(),
                    e.mode.clone(),
                    format!("{} ({})", e.scenarios, e.distinct_scenarios),
                    format!("{:.1}", e.batch_ms),
                    format!("{:.1}", e.sequential_ms),
                    format!("{:.2}x", e.sequential_ms / e.batch_ms.max(1e-9)),
                    e.dirty_victims.to_string(),
                    e.unmasked_dirty_victims.to_string(),
                    format!("{}+{}", e.closure_frames_built, e.closure_frames_shared),
                    if e.identical_to_sequential { "yes" } else { "NO" }.to_owned(),
                ]);
            }
            out.push_str("\nbatch what-if (one shared sweep vs N sequential applies):\n");
            out.push_str(&btable.render());
        }
        if !self.damping.is_empty() {
            let mut dtable = Table::new(&[
                "circuit",
                "mode",
                "semantic ms",
                "structural ms",
                "struct dirty",
                "proven clean",
                "certs",
                "identical",
            ]);
            for e in &self.damping {
                dtable.row(vec![
                    e.circuit.clone(),
                    e.mode.clone(),
                    format!("{:.1}", e.semantic_ms),
                    format!("{:.1}", e.structural_ms),
                    e.structural_dirty_victims.to_string(),
                    e.proven_clean_victims.to_string(),
                    e.certificates.to_string(),
                    if e.identical_to_full { "yes" } else { "NO" }.to_owned(),
                ]);
            }
            out.push_str("\ncorridor damping (semantic vs structural dirty closure):\n");
            out.push_str(&dtable.render());
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value — just enough of the grammar to audit a report.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string".to_owned())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("malformed number at byte {start}"))
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Audits a serialized report: well-formed JSON, the [`SCHEMA`] marker,
/// every required field, non-empty `entries`, `whatif`,
/// `session_persistence`, `versioned_store`, `batch` and `damping`
/// lists — and, semantically, that every entry reported results
/// identical to its serial reference, every what-if loop and resumed
/// session identical to its from-scratch reference, every batch
/// scenario identical to its sequential twin, every chain-tip replay
/// identical to its live session (with the delta-fraction gate where
/// the checkpoint clears the 8 MiB floor), and every semantically
/// damped apply identical to its structural and from-scratch references
/// (the CI gates for the work-stealing sweep, the incremental session
/// path, the batch engine and the corridor prover) — and that the
/// scheduler section's parallel configuration beat serial wherever the
/// speedup gate applies.
///
/// # Errors
///
/// Returns a message describing the first problem found.
pub fn validate_json(text: &str) -> Result<(), String> {
    validate_json_notes(text).map(|_notes| ())
}

/// [`validate_json`], but also returns one note line per gate the report
/// skipped (e.g. `scheduler i5/addition speedup gate: skipped (...)`).
/// `dna bench --check` prints these so a skipped gate is never silent.
///
/// # Errors
///
/// Returns a message describing the first problem found.
pub fn validate_json_notes(text: &str) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    let report = parse(text)?;
    match report.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return Err(format!("unknown schema `{s}` (expected `{SCHEMA}`)")),
        _ => return Err("missing `schema` marker".into()),
    }
    for field in ["host_threads", "k", "samples", "seed"] {
        if report.get(field).and_then(Json::as_num).is_none() {
            return Err(format!("missing or non-numeric `{field}`"));
        }
    }
    let entries = match report.get("entries") {
        Some(Json::Arr(entries)) if !entries.is_empty() => entries,
        Some(Json::Arr(_)) => return Err("`entries` is empty".into()),
        _ => return Err("missing `entries` array".into()),
    };
    for (i, entry) in entries.iter().enumerate() {
        for field in ["wall_ms", "threads", "effective_threads", "generated", "peak_list_width"] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("entry {i}: missing `{field}`"));
            }
        }
        match entry.get("identical_to_serial") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!("entry {i}: parallel result differs from the serial reference"))
            }
            _ => return Err(format!("entry {i}: missing `identical_to_serial`")),
        }
    }
    let host_threads =
        report.get("host_threads").and_then(Json::as_num).expect("checked numeric above");
    let scheduler = match report.get("scheduler") {
        Some(Json::Arr(s)) if !s.is_empty() => s,
        Some(Json::Arr(_)) => return Err("`scheduler` is empty".into()),
        _ => return Err("missing `scheduler` array (required by v6)".into()),
    };
    for (i, entry) in scheduler.iter().enumerate() {
        for field in [
            "threads",
            "tasks",
            "steals",
            "tail_task_share",
            "wall_ms_serial",
            "wall_ms_parallel",
            "speedup_over_serial",
        ] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("scheduler entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("scheduler entry {i}: missing `{field}`"));
            }
        }
        // The speedup gate only means something where the host can run
        // the workers it measures: on narrow hosts (< 4 threads) the
        // tracked parallel configuration is oversubscribed by design, so
        // the gate is skipped — never the identity gates above. It is
        // also skipped for entries whose serial reference is under half a
        // second (smoke-sized circuits are scheduling-overhead dominated);
        // the tracked i5/i10 runs sit well above that floor. Since v7 the
        // entry *records* that decision in `gate_status`; the stored
        // status and the one re-derived here must agree, so a report can
        // never pass with a silently skipped gate.
        let serial_ms = entry.get("wall_ms_serial").and_then(Json::as_num).expect("checked above");
        let expected = speedup_gate_status(host_threads, serial_ms);
        let stored = match entry.get("gate_status") {
            Some(Json::Str(s)) => s,
            _ => return Err(format!("scheduler entry {i}: missing `gate_status` string")),
        };
        if (stored == "armed") != (expected == "armed") {
            return Err(format!(
                "scheduler entry {i}: gate_status says `{stored}` but host_threads \
                 {host_threads:.0} / serial {serial_ms:.0} ms imply `{expected}`"
            ));
        }
        if expected == "armed" {
            let speedup =
                entry.get("speedup_over_serial").and_then(Json::as_num).expect("checked above");
            if speedup <= 1.0 {
                return Err(format!(
                    "scheduler entry {i}: no speedup over serial ({speedup:.3}x <= 1.0 on a \
                     {host_threads:.0}-thread host)"
                ));
            }
        } else {
            let circuit = match entry.get("circuit") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            };
            let mode = match entry.get("mode") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            };
            notes.push(format!("scheduler {circuit}/{mode} speedup gate: {stored}"));
        }
    }
    let whatif = match report.get("whatif") {
        Some(Json::Arr(whatif)) if !whatif.is_empty() => whatif,
        Some(Json::Arr(_)) => return Err("`whatif` is empty".into()),
        _ => return Err("missing `whatif` array (required by v2)".into()),
    };
    for (i, entry) in whatif.iter().enumerate() {
        for field in [
            "full_ms",
            "incremental_ms",
            "recomputed_victims",
            "total_victims",
            "structural_dirty_victims",
            "proven_clean_victims",
        ] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("whatif entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("whatif entry {i}: missing `{field}`"));
            }
        }
        match entry.get("identical_to_full") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!(
                    "whatif entry {i}: incremental result differs from the from-scratch reference"
                ))
            }
            _ => return Err(format!("whatif entry {i}: missing `identical_to_full`")),
        }
    }
    let persistence = match report.get("session_persistence") {
        Some(Json::Arr(p)) if !p.is_empty() => p,
        Some(Json::Arr(_)) => return Err("`session_persistence` is empty".into()),
        _ => return Err("missing `session_persistence` array (required by v3)".into()),
    };
    for (i, entry) in persistence.iter().enumerate() {
        for field in ["save_ms", "load_ms", "artifact_bytes", "from_scratch_ms"] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("persistence entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("persistence entry {i}: missing `{field}`"));
            }
        }
        match entry.get("identical_to_full") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!(
                    "persistence entry {i}: loaded-session result differs from the \
                     from-scratch reference"
                ))
            }
            _ => return Err(format!("persistence entry {i}: missing `identical_to_full`")),
        }
    }
    let versioned = match report.get("versioned_store") {
        Some(Json::Arr(v)) if !v.is_empty() => v,
        Some(Json::Arr(_)) => return Err("`versioned_store` is empty".into()),
        _ => return Err("missing `versioned_store` array (required by v8)".into()),
    };
    for (i, entry) in versioned.iter().enumerate() {
        for field in
            ["checkpoint_bytes", "delta_bytes", "delta_fraction", "checkpoint_ms", "delta_ms"]
        {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("versioned_store entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("versioned_store entry {i}: missing `{field}`"));
            }
        }
        // The replay gate is unconditional: whatever the chain's size,
        // resuming its tip must reproduce the live session bit-for-bit.
        match entry.get("identical_to_full") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!(
                    "versioned_store entry {i}: chain-tip replay differs from the live session"
                ))
            }
            _ => return Err(format!("versioned_store entry {i}: missing `identical_to_full`")),
        }
        // The delta-fraction gate arms only in addition mode (elimination
        // windows re-derive from the masked noisy timing, so every flip
        // perturbs every victim's state and the delta is a
        // near-checkpoint by engine construction) and only where the
        // checkpoint clears the 8 MiB floor (below it, fixed record
        // framing dominates and the ratio measures nothing). The stored
        // status must agree with the one re-derived here from the entry's
        // own recorded mode and bytes — a skip can never be silent, a lie
        // never passes. The fraction itself is re-derived from the two
        // byte counts so a misreported `delta_fraction` can't sneak a
        // fat delta through.
        let checkpoint_bytes =
            entry.get("checkpoint_bytes").and_then(Json::as_num).expect("checked above");
        let delta_bytes = entry.get("delta_bytes").and_then(Json::as_num).expect("checked above");
        let entry_mode = match entry.get("mode") {
            Some(Json::Str(s)) => s.as_str(),
            _ => "?",
        };
        let expected = delta_gate_status(entry_mode, checkpoint_bytes);
        let stored = match entry.get("gate_status") {
            Some(Json::Str(s)) => s,
            _ => return Err(format!("versioned_store entry {i}: missing `gate_status` string")),
        };
        if (stored == "armed") != (expected == "armed") {
            return Err(format!(
                "versioned_store entry {i}: gate_status says `{stored}` but a \
                 {checkpoint_bytes:.0}-byte `{entry_mode}` checkpoint implies `{expected}`"
            ));
        }
        if expected == "armed" {
            let fraction = delta_bytes / checkpoint_bytes.max(1.0);
            if fraction >= 0.10 {
                return Err(format!(
                    "versioned_store entry {i}: delta append cost {fraction:.3} of the \
                     checkpoint bytes (gate requires < 0.10)"
                ));
            }
        } else {
            let circuit = match entry.get("circuit") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            };
            let mode = match entry.get("mode") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            };
            notes.push(format!("versioned_store {circuit}/{mode} delta gate: {stored}"));
        }
    }
    let batch = match report.get("batch") {
        Some(Json::Arr(b)) if !b.is_empty() => b,
        Some(Json::Arr(_)) => return Err("`batch` is empty".into()),
        _ => return Err("missing `batch` array (required by v4)".into()),
    };
    for (i, entry) in batch.iter().enumerate() {
        for field in [
            "scenarios",
            "distinct_scenarios",
            "batch_ms",
            "sequential_ms",
            "dirty_victims",
            "unmasked_dirty_victims",
            "proven_clean_victims",
            "closure_frames_built",
            "closure_frames_shared",
        ] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("batch entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("batch entry {i}: missing `{field}`"));
            }
        }
        match entry.get("identical_to_sequential") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!(
                    "batch entry {i}: batch result differs from its sequential reference"
                ))
            }
            _ => return Err(format!("batch entry {i}: missing `identical_to_sequential`")),
        }
    }
    let damping = match report.get("damping") {
        Some(Json::Arr(d)) if !d.is_empty() => d,
        Some(Json::Arr(_)) => return Err("`damping` is empty".into()),
        _ => return Err("missing `damping` array (required by v5)".into()),
    };
    for (i, entry) in damping.iter().enumerate() {
        for field in [
            "semantic_ms",
            "structural_ms",
            "structural_dirty_victims",
            "proven_clean_victims",
            "certificates",
        ] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("damping entry {i}: missing or non-numeric `{field}`"));
            }
        }
        for field in ["circuit", "mode"] {
            if !matches!(entry.get(field), Some(Json::Str(_))) {
                return Err(format!("damping entry {i}: missing `{field}`"));
            }
        }
        match entry.get("identical_to_full") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!(
                    "damping entry {i}: semantically damped result differs from the \
                     structural or from-scratch reference"
                ))
            }
            _ => return Err(format!("damping entry {i}: missing `identical_to_full`")),
        }
    }
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_round_trips_through_json() {
        let spec = BenchSpec {
            circuits: vec!["i1".into()],
            k: 2,
            samples: 1,
            seed: 7,
            modes: vec![Mode::Addition],
        };
        let report = run(&spec).expect("bench runs");
        // One entry per thread configuration, all identical to serial.
        assert_eq!(report.entries.len(), thread_configs().len());
        assert!(report.entries.iter().all(|e| e.identical_to_serial));
        assert!(report.entries.iter().all(|e| e.wall_ms.is_finite() && e.wall_ms > 0.0));
        // One what-if loop per circuit x mode, identical to from-scratch
        // and never re-sweeping more than the circuit holds.
        assert_eq!(report.whatif.len(), 1);
        assert!(report.whatif.iter().all(|e| e.identical_to_full));
        assert!(report.whatif.iter().all(|e| e.recomputed_victims <= e.total_victims));
        // One persistence cycle per circuit x mode: the resumed session
        // answered bit-identically and the artifact was non-trivial.
        assert_eq!(report.session_persistence.len(), 1);
        assert!(report.session_persistence.iter().all(|e| e.identical_to_full));
        assert!(report.session_persistence.iter().all(|e| e.artifact_bytes > 0));
        assert!(report
            .session_persistence
            .iter()
            .all(|e| e.save_ms.is_finite() && e.load_ms.is_finite()));
        // One versioned-store cycle per circuit x mode: the delta append
        // is real (generation 1), strictly cheaper than the checkpoint
        // rewrite, bit-identical on replay — and on this smoke-sized
        // chain the fraction gate must record itself as skipped.
        assert_eq!(report.versioned_store.len(), 1);
        assert!(report.versioned_store.iter().all(|e| e.identical_to_full));
        assert!(report.versioned_store.iter().all(|e| e.tip_generation == 1));
        assert!(report.versioned_store.iter().all(|e| e.delta_bytes > 0));
        assert!(report.versioned_store.iter().all(|e| e.delta_bytes < e.checkpoint_bytes));
        assert!(report.versioned_store.iter().all(|e| e.gate_status.starts_with("skipped")));
        // One batch run per circuit x mode: every scenario bit-identical
        // to its sequential twin, the mask-aware closure never larger
        // than the oblivious one, and dedup never inflating the count.
        assert_eq!(report.batch.len(), 1);
        assert!(report.batch.iter().all(|e| e.identical_to_sequential));
        // The menu carries a duplicate scenario, so dedup must fire.
        assert!(report.batch.iter().all(|e| e.distinct_scenarios < e.scenarios));
        assert!(report.batch.iter().all(|e| e.dirty_victims <= e.unmasked_dirty_victims));
        // One damping comparison per circuit x mode: bit-identical under
        // both dampings, one certificate per proven-clean victim, and the
        // whatif section's bookkeeping must add up.
        assert_eq!(report.damping.len(), 1);
        assert!(report.damping.iter().all(|e| e.identical_to_full));
        assert!(report.damping.iter().all(|e| e.certificates == e.proven_clean_victims));
        assert!(report
            .damping
            .iter()
            .all(|e| e.proven_clean_victims <= e.structural_dirty_victims));
        assert!(report
            .whatif
            .iter()
            .all(|e| e.recomputed_victims + e.proven_clean_victims == e.structural_dirty_victims));
        // One scheduler entry per circuit x mode, from a genuinely
        // parallel configuration sweeping every victim task.
        assert_eq!(report.scheduler.len(), 1);
        assert!(report.scheduler.iter().all(|e| e.threads >= 2 && e.tasks > 0));
        assert!(report
            .scheduler
            .iter()
            .all(|e| e.speedup_over_serial.is_finite() && e.speedup_over_serial > 0.0));
        assert!(report.scheduler.iter().all(|e| (0.0..=1.0).contains(&e.tail_task_share)));
        let json = report.to_json();
        validate_json(&json).expect("self-produced report validates");
        let table = report.render_table();
        assert!(table.contains("i1"));
        assert!(table.contains("yes"));
        assert!(table.contains("work-stealing scheduler"));
        assert!(table.contains("what-if fix loop"));
        assert!(table.contains("session persistence"));
        assert!(table.contains("versioned store"));
        assert!(table.contains("batch what-if"));
        assert!(table.contains("corridor damping"));
    }

    /// A structurally complete, semantically passing v10 report — the
    /// baseline every rejection case below is a one-flag mutation of.
    const GOOD_REPORT: &str = r#"{
      "schema": "dna-bench-topk/v10",
      "host_threads": 8, "k": 10, "samples": 1, "seed": 42,
      "entries": [{
        "circuit": "i1", "mode": "addition", "threads": 0,
        "effective_threads": 8, "wall_ms": 1.0,
        "delay_before_ps": 1.0, "delay_after_ps": 2.0,
        "generated": 3, "peak_list_width": 2,
        "identical_to_serial": true
      }],
      "scheduler": [{
        "circuit": "i5", "mode": "addition",
        "threads": 8, "tasks": 64, "steals": 5,
        "tail_task_share": 0.25,
        "wall_ms_serial": 900.0, "wall_ms_parallel": 500.0,
        "speedup_over_serial": 1.8,
        "gate_status": "armed"
      }],
      "whatif": [{
        "circuit": "i1", "mode": "addition",
        "full_ms": 2.0, "incremental_ms": 1.0,
        "recomputed_victims": 3, "total_victims": 9,
        "structural_dirty_victims": 5, "proven_clean_victims": 2,
        "identical_to_full": true
      }],
      "session_persistence": [{
        "circuit": "i1", "mode": "addition",
        "save_ms": 0.1, "load_ms": 0.2, "artifact_bytes": 4096,
        "from_scratch_ms": 2.0,
        "identical_to_full": true
      }],
      "versioned_store": [{
        "circuit": "i10", "mode": "addition",
        "checkpoint_bytes": 84000000, "delta_bytes": 640,
        "delta_fraction": 0.000008,
        "checkpoint_ms": 120.0, "delta_ms": 0.4,
        "tip_generation": 1,
        "identical_to_full": true,
        "gate_status": "armed"
      }],
      "batch": [{
        "circuit": "i1", "mode": "addition",
        "scenarios": 4, "distinct_scenarios": 4,
        "batch_ms": 1.0, "sequential_ms": 3.0,
        "dirty_victims": 5, "unmasked_dirty_victims": 7,
        "proven_clean_victims": 2,
        "closure_frames_built": 4, "closure_frames_shared": 2,
        "identical_to_sequential": true
      }],
      "damping": [{
        "circuit": "i1", "mode": "addition",
        "semantic_ms": 0.8, "structural_ms": 1.0,
        "structural_dirty_victims": 5, "proven_clean_victims": 2,
        "certificates": 2,
        "identical_to_full": true
      }]
    }"#;

    #[test]
    fn validator_rejects_malformed_reports() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json(r#"{"schema": "other/v10"}"#).is_err());
        // Older schemas (missing the sections added since) are rejected.
        for old in ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"] {
            assert!(validate_json(&format!(r#"{{"schema": "dna-bench-topk/{old}"}}"#)).is_err());
        }
        validate_json(GOOD_REPORT).expect("the baseline report validates");
        assert!(
            validate_json_notes(GOOD_REPORT).unwrap().is_empty(),
            "an armed gate produces no skip notes"
        );

        // The scheduler speedup gate fires on a wide host with a slow
        // parallel run...
        let no_speedup =
            GOOD_REPORT.replace("\"speedup_over_serial\": 1.8", "\"speedup_over_serial\": 0.9");
        let err = validate_json(&no_speedup).unwrap_err();
        assert!(err.contains("no speedup over serial"), "{err}");
        // ...but is skipped (never failed) on a narrow host that cannot
        // express the parallelism — and since v7 the skip is recorded in
        // the entry and surfaced as a note, never silent...
        let narrow_host = no_speedup
            .replace("\"host_threads\": 8", "\"host_threads\": 1")
            // `replacen(1)`: only the scheduler entry's status (the first
            // in the report) skips; the versioned-store gate stays armed.
            .replacen(
                "\"gate_status\": \"armed\"",
                "\"gate_status\": \"skipped (narrow host)\"",
                1,
            );
        let skip_notes =
            validate_json_notes(&narrow_host).expect("narrow host skips the speedup gate");
        assert_eq!(skip_notes.len(), 1, "{skip_notes:?}");
        assert!(
            skip_notes[0].contains("i5/addition") && skip_notes[0].contains("skipped"),
            "{skip_notes:?}"
        );
        // ...and for smoke-sized entries below the measurement floor.
        let smoke_entry =
            no_speedup.replace("\"wall_ms_serial\": 900.0", "\"wall_ms_serial\": 9.0").replacen(
                "\"gate_status\": \"armed\"",
                "\"gate_status\": \"skipped (smoke floor)\"",
                1,
            );
        let skip_notes = validate_json_notes(&smoke_entry)
            .expect("sub-floor serial time skips the speedup gate");
        assert_eq!(skip_notes.len(), 1, "{skip_notes:?}");

        // The v6 silent-skip bug, now loud: an entry whose numbers imply
        // a skip but whose stored status still claims "armed" (or vice
        // versa) is rejected — the status can't lie either way.
        let silent_skip = no_speedup.replace("\"host_threads\": 8", "\"host_threads\": 1");
        let err = validate_json(&silent_skip).unwrap_err();
        assert!(err.contains("gate_status says `armed`"), "{err}");
        let bogus_skip = GOOD_REPORT.replacen(
            "\"gate_status\": \"armed\"",
            "\"gate_status\": \"skipped (just because)\"",
            1,
        );
        let err = validate_json(&bogus_skip).unwrap_err();
        assert!(err.contains("imply `armed`"), "{err}");
        let no_status = GOOD_REPORT.replacen("\"gate_status\": \"armed\"", "\"gate_status\": 3", 1);
        let err = validate_json(&no_status).unwrap_err();
        assert!(err.contains("missing `gate_status`"), "{err}");

        // The v8 delta-fraction gate: a fat delta fails where the gate is
        // armed, is skipped (with a note) below the 8 MiB checkpoint
        // floor, and the recorded status cannot contradict the bytes.
        let fat_delta = GOOD_REPORT.replace("\"delta_bytes\": 640", "\"delta_bytes\": 9000000");
        let err = validate_json(&fat_delta).unwrap_err();
        assert!(err.contains("gate requires < 0.10"), "{err}");
        let small_chain = fat_delta
            .replace("\"checkpoint_bytes\": 84000000", "\"checkpoint_bytes\": 1000000")
            .replacen("\"gate_status\": \"armed\"", "\"gate_status\": \"skipped (tiny chain)\"", 2)
            .replacen("\"gate_status\": \"skipped (tiny chain)\"", "\"gate_status\": \"armed\"", 1);
        let notes = validate_json_notes(&small_chain).expect("sub-floor checkpoint skips the gate");
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("versioned_store i10/addition"), "{notes:?}");
        let lying_status =
            GOOD_REPORT.replace("\"checkpoint_bytes\": 84000000", "\"checkpoint_bytes\": 1000000");
        let err = validate_json(&lying_status).unwrap_err();
        assert!(err.contains("1000000-byte `addition` checkpoint implies"), "{err}");
        // Elimination entries never arm: the masked noisy timing makes
        // every delta a near-checkpoint, and an armed status on one is a
        // recorded lie whatever the byte counts say.
        let armed_elimination = GOOD_REPORT.replace(
            "\"circuit\": \"i10\", \"mode\": \"addition\",\n        \"checkpoint_bytes\": 84000000",
            "\"circuit\": \"i10\", \"mode\": \"elimination\",\n        \"checkpoint_bytes\": 84000000",
        );
        let err = validate_json(&armed_elimination).unwrap_err();
        assert!(err.contains("`elimination` checkpoint implies `skipped"), "{err}");
        // A misreported fraction cannot mask a fat delta: the validator
        // re-derives it from the byte counts.
        let lying_fraction = GOOD_REPORT
            .replace("\"delta_bytes\": 640", "\"delta_bytes\": 9000000")
            .replace("\"delta_fraction\": 0.000008", "\"delta_fraction\": 0.01");
        let err = validate_json(&lying_fraction).unwrap_err();
        assert!(err.contains("gate requires < 0.10"), "{err}");
        // The replay gate never skips, whatever the chain's size.
        let bad_replay = small_chain
            .replace("\"delta_bytes\": 9000000", "\"delta_bytes\": 640")
            .replacen("\"identical_to_full\": true", "\"identical_to_full\": false", 3)
            .replacen("\"identical_to_full\": false", "\"identical_to_full\": true", 2);
        let err = validate_json(&bad_replay).unwrap_err();
        assert!(err.contains("chain-tip replay differs"), "{err}");

        // Structurally fine but semantically failing: each identity gate,
        // flipped to false in turn, must be flagged with its own message.
        let cases = [
            ("\"identical_to_serial\": true", "differs from the serial reference"),
            ("\"identical_to_sequential\": true", "differs from its sequential reference"),
        ];
        for (flag, expected) in cases {
            let broken = GOOD_REPORT.replace(flag, &flag.replace("true", "false"));
            let err = validate_json(&broken).unwrap_err();
            assert!(err.contains(expected), "flipping {flag}: {err}");
        }
        // The two `identical_to_full` gates share a flag name; flip the
        // whatif one (first occurrence), then the persistence one (both).
        let bad_whatif =
            GOOD_REPORT.replacen("\"identical_to_full\": true", "\"identical_to_full\": false", 1);
        let err = validate_json(&bad_whatif).unwrap_err();
        assert!(err.contains("differs from the from-scratch reference"), "{err}");
        let bad_persist =
            GOOD_REPORT.replace("\"identical_to_full\": true", "\"identical_to_full\": false");
        let err = validate_json(&bad_persist).unwrap_err();
        assert!(
            err.contains("differs from the from-scratch reference")
                || err.contains("loaded-session result differs"),
            "{err}"
        );
        // The damping gate is the last `identical_to_full` occurrence.
        let last = GOOD_REPORT.rfind("\"identical_to_full\": true").expect("damping gate");
        let bad_damping = format!(
            "{}\"identical_to_full\": false{}",
            &GOOD_REPORT[..last],
            &GOOD_REPORT[last + "\"identical_to_full\": true".len()..]
        );
        let err = validate_json(&bad_damping).unwrap_err();
        assert!(err.contains("semantically damped result differs"), "{err}");

        // Dropping any report section (or emptying it) is a violation.
        for section in
            ["scheduler", "whatif", "session_persistence", "versioned_store", "batch", "damping"]
        {
            let needle = format!("\"{section}\": [");
            let start = GOOD_REPORT.find(&needle).expect("section present");
            let end = GOOD_REPORT[start..].find("}]").expect("section closes") + start + 2;
            let emptied =
                format!("{}\"{section}\": []{}", &GOOD_REPORT[..start], &GOOD_REPORT[end..]);
            let err = validate_json(&emptied).unwrap_err();
            assert!(err.contains(section), "emptying {section}: {err}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\n\"y\""], "b": {"c": null, "d": true}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0), Json::Str("x\n\"y\"".into()),]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse(r#"[1, ]"#).is_err());
    }
}
