//! Multi-tenant what-if daemon core: the session manager behind
//! `dna serve`.
//!
//! The paper's workload is a signoff loop: one extracted circuit, many
//! what-if queries. A one-shot CLI pays the full analysis cost per
//! query; this module keeps hot [`WhatIfSession`]s alive across queries
//! and multiplexes many tenants (circuits) through one process:
//!
//! * **One worker thread per hot tenant.** `WhatIfSession<'a, 'c>`
//!   borrows its `TopKAnalysis`, which borrows its `Circuit` — a
//!   self-referential chain that cannot live in a long-lived struct
//!   without ownership gymnastics. It *can* live on a thread's stack:
//!   each hot tenant is a worker thread owning circuit, analysis and
//!   session, fed jobs over a channel. The manager holds only the
//!   channel, the (cheaply cloned) circuit for respawns, and
//!   bookkeeping.
//! * **Capacity-bounded LRU with artifact spill.** At most
//!   [`ServeConfig::capacity`] tenants stay hot. Evicting a tenant asks
//!   its worker to serialize the session into the checksummed `DNAWIFA`
//!   artifact (the `whatif --save` format) and exit; the bytes are kept
//!   in the manager and the next request resumes from them — the
//!   16–86× cold-load win, now automatic. A resume rejected with a
//!   typed [`ArtifactError`](crate::ArtifactError) falls back to a from-scratch session and
//!   the *response* that triggered the reload carries the
//!   classification (`corrupt` / `truncated` / `version skew` /
//!   `fingerprint mismatch`), so operators can tell a stale cache from
//!   a broken one.
//! * **Request coalescing.** Scenario requests are what-if *queries*
//!   against the tenant's base session (bit-identical to
//!   `fork().apply(delta)`, the [`WhatIfSession::apply_batch`]
//!   contract), so a worker drains every scenario job queued behind the
//!   one it just popped and answers the whole wave through a single
//!   `apply_batch` — one shared closure/prepare/sweep machine instead
//!   of N. `commit` is the mutating variant and is never coalesced.
//! * **Admission control.** Per-tenant budgets/deadlines are clamped by
//!   server-wide caps at `open`, so no tenant can configure itself past
//!   what the operator allows; the existing budget partition and
//!   `Curtailment` machinery does the actual enforcement and degraded
//!   results say so. A bounded in-flight queue per tenant rejects the
//!   rest as `overloaded` instead of buffering unboundedly.
//! * **Tenant isolation.** A poisoned scenario (panicking victim, NaN
//!   noise) is quarantined per victim by the engine and surfaces as a
//!   `degraded` *response to that tenant only*; a worker thread that
//!   dies outright marks its tenant `quarantined` and every other
//!   tenant keeps being served. No request path aborts the process —
//!   the scheduler's former `expect()` aborts are typed
//!   [`SchedulerInvariant`](TopKError::SchedulerInvariant) errors now.
//! * **Crash-safe durability (opt-in).** A manager created with
//!   [`SessionManager::new_durable`] keeps one artifact *chain* per
//!   tenant on disk (delta-append commits via
//!   [`commit_chain`]) plus an append-only
//!   [`registry`] manifest, both under the write-ahead discipline:
//!   nothing is acknowledged before it is `fsync`ed, and the chain
//!   commits *before* the registry witnesses the new generation. After
//!   any crash — including `kill -9` at an arbitrary byte boundary
//!   mid-save — [`SessionManager::recover`] resumes every tenant from
//!   its last committed generation, truncates torn tails in place, and
//!   quarantines (never aborts on) tenants whose chain or circuit is
//!   beyond salvage.
//!
//! The [`wire`] submodule speaks the loopback protocol: one JSON object
//! per line, std-only, typed error responses. Result queries paginate
//! with the `start_after`/`limit` cursor idiom.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use dna_netlist::Circuit;

use crate::engine::panic_message;
use crate::faultsim::Faults;
use crate::persist::{commit_chain, fnv1a64, CommitOptions, SaveKind, SaveReport};
use crate::{
    truncate_chain_file, MaskDelta, Mode, TopKAnalysis, TopKConfig, TopKError, WhatIfBatch,
    WhatIfOutcome, WhatIfSession,
};

pub mod registry;
pub mod wire;

pub use registry::{RegistryRecovery, TenantRecord, TenantRegistry};

/// Operator-facing daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum number of *hot* tenants (live sessions). Beyond it the
    /// least-recently-used tenant is spilled to an artifact. `0` is
    /// legal: every tenant is spilled as soon as its request completes
    /// (each request pays one artifact reload — the degenerate LRU).
    pub capacity: usize,
    /// Maximum in-flight jobs per tenant before requests are rejected
    /// as `overloaded`.
    pub max_queue: usize,
    /// Server-wide cap on any tenant's per-victim candidate budget.
    pub victim_budget_cap: Option<usize>,
    /// Server-wide cap on any tenant's global candidate budget.
    pub global_budget_cap: Option<usize>,
    /// Server-wide cap on any tenant's sweep deadline.
    pub deadline_cap: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            capacity: 4,
            max_queue: 64,
            victim_budget_cap: None,
            global_budget_cap: None,
            deadline_cap: None,
        }
    }
}

/// Typed error codes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named tenant was never opened (or the daemon restarted).
    UnknownTenant,
    /// `open` named a tenant that already exists.
    TenantExists,
    /// The request was syntactically or semantically invalid.
    BadRequest,
    /// The tenant's in-flight queue is full; retry later.
    Overloaded,
    /// The tenant's worker died and was quarantined; other tenants are
    /// unaffected.
    Quarantined,
    /// A session artifact was rejected during spill-reload.
    Artifact,
    /// The engine returned a typed error for this request.
    Engine,
}

impl ErrorCode {
    /// Stable wire identifier of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::TenantExists => "tenant_exists",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Artifact => "artifact",
            ErrorCode::Engine => "engine",
        }
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Everything a client needs from one evaluated scenario, including the
/// [`identity fingerprint`](crate::TopKResult::identity_fingerprint) so
/// responses can be bit-compared against a local replay without pushing
/// `f64`s through decimal formatting.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Whether budgets or quarantined victims curtailed the sweep — the
    /// `Degraded` soundness marker, scoped to this response.
    pub degraded: bool,
    /// Number of quarantined victims.
    pub faults: usize,
    /// Cause of the first quarantined victim, when any.
    pub first_fault: Option<String>,
    /// Selected coupling indices, in canonical order.
    pub set: Vec<usize>,
    /// Sink net index the top-k set was selected at.
    pub sink: usize,
    /// Circuit delay before the change, in ps.
    pub delay_before: f64,
    /// Circuit delay after the change, in ps.
    pub delay_after: f64,
    /// The paper's predicted delay for the selected set, in ps.
    pub predicted_delay: f64,
    /// Widest irredundant list the enumeration held.
    pub peak_list_width: usize,
    /// Raw candidates generated.
    pub generated: usize,
    /// Victims actually re-swept for this scenario.
    pub recomputed_victims: usize,
    /// Structurally dirty victims the damping prover proved clean.
    pub proven_clean_victims: usize,
    /// Identity fingerprint of the underlying [`crate::TopKResult`].
    pub fingerprint: u64,
}

impl ScenarioSummary {
    fn from_outcome(outcome: &WhatIfOutcome) -> Self {
        let r = outcome.result();
        Self {
            degraded: r.is_degraded(),
            faults: r.faults().len(),
            first_fault: r.faults().iter().next().map(|f| f.cause().to_owned()),
            set: r.couplings().iter().map(|c| c.index()).collect(),
            sink: r.sink().index(),
            delay_before: r.delay_before(),
            delay_after: r.delay_after(),
            predicted_delay: r.predicted_delay(),
            peak_list_width: r.peak_list_width(),
            generated: r.generated_candidates(),
            recomputed_victims: outcome.recomputed_victims(),
            proven_clean_victims: outcome.proven_clean_victims(),
            fingerprint: r.identity_fingerprint(),
        }
    }
}

/// Daemon-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Tenants ever opened (hot + spilled + quarantined).
    pub tenants: usize,
    /// Tenants currently hot.
    pub hot: usize,
    /// Tenants currently spilled to in-memory artifacts.
    pub spilled: usize,
    /// Tenants currently cold with their state on disk (durable
    /// managers only).
    pub durable: usize,
    /// Tenants quarantined after a worker death.
    pub quarantined: usize,
    /// Requests answered (including error responses).
    pub served: u64,
    /// Scenario jobs that shared another job's `apply_batch` wave.
    pub coalesced: u64,
    /// LRU evictions (artifact spills).
    pub spills: u64,
    /// Artifact reloads (spilled tenant made hot again).
    pub reloads: u64,
    /// Reloads whose artifact was rejected and fell back from scratch.
    pub reload_fallbacks: u64,
}

/// A daemon response. Every request maps to exactly one of these; the
/// `note` fields carry the spill-reload fallback reason on the first
/// response after a failed resume.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `open` succeeded.
    Opened {
        /// Tenant name.
        tenant: String,
        /// Nets in the tenant's circuit.
        nets: usize,
        /// Couplings in the tenant's circuit.
        couplings: usize,
        /// Base-session identity fingerprint.
        fingerprint: u64,
    },
    /// One scenario evaluated against the base session.
    Scenario {
        /// Tenant name.
        tenant: String,
        /// The evaluated scenario.
        summary: ScenarioSummary,
        /// Jobs answered by the same `apply_batch` wave (≥ 1).
        coalesced: usize,
        /// Spill-reload fallback reason, on the first response after one.
        note: Option<String>,
    },
    /// A batch of scenarios evaluated against the base session.
    Batch {
        /// Tenant name.
        tenant: String,
        /// Per-scenario summaries, in request order.
        summaries: Vec<ScenarioSummary>,
        /// Jobs answered by the same `apply_batch` wave (≥ 1).
        coalesced: usize,
        /// Spill-reload fallback reason, on the first response after one.
        note: Option<String>,
    },
    /// A durable `commit` advanced the tenant's base session.
    Committed {
        /// Tenant name.
        tenant: String,
        /// The committed scenario (now the base state).
        summary: ScenarioSummary,
        /// Spill-reload fallback reason, on the first response after one.
        note: Option<String>,
    },
    /// One page of the base session's selected couplings.
    Page {
        /// Tenant name.
        tenant: String,
        /// Coupling indices with index strictly greater than the
        /// cursor, in canonical order.
        items: Vec<usize>,
        /// Cursor for the next page; `None` when exhausted.
        next: Option<usize>,
        /// Spill-reload fallback reason, on the first response after one.
        note: Option<String>,
    },
    /// The tenant was spilled to an artifact.
    Evicted {
        /// Tenant name.
        tenant: String,
        /// Serialized artifact size.
        artifact_bytes: usize,
    },
    /// Daemon counters.
    Stats(ServeStats),
    /// The daemon acknowledged shutdown.
    Bye,
    /// A typed error.
    Error(ServeError),
}

impl Response {
    fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Error(ServeError { code, message: message.into() })
    }
}

// ---------------------------------------------------------------------
// Tenant worker

enum Job {
    Scenario {
        delta: MaskDelta,
        reply: Sender<Response>,
    },
    Batch {
        deltas: Vec<MaskDelta>,
        reply: Sender<Response>,
    },
    Commit {
        delta: MaskDelta,
        reply: Sender<Response>,
    },
    Query {
        start_after: Option<usize>,
        limit: usize,
        reply: Sender<Response>,
    },
    Spill {
        reply: Sender<Vec<u8>>,
    },
    /// Commit the session onto its on-disk chain (durable tenants only).
    /// With `close` the worker exits after a *successful* persist — the
    /// durable analogue of [`Job::Spill`]; on failure it stays alive so
    /// the tenant's state is not lost.
    Persist {
        close: bool,
        reply: Sender<Result<PersistOutcome, String>>,
    },
    Close,
}

/// What one durable persist wrote.
#[derive(Debug, Clone, Copy)]
struct PersistOutcome {
    report: SaveReport,
    fingerprint: u64,
}

struct StartupInfo {
    nets: usize,
    couplings: usize,
    fingerprint: u64,
    /// `Some(reason)` when a resume was rejected and the session was
    /// rebuilt from scratch.
    fallback: Option<String>,
}

struct Boot {
    tenant: String,
    circuit: Circuit,
    mode: Mode,
    k: usize,
    config: TopKConfig,
    faults: Faults,
    artifact: Option<Vec<u8>>,
    /// Chain file this worker commits to on [`Job::Persist`]; `None`
    /// for non-durable tenants.
    store: Option<PathBuf>,
    startup: Sender<Result<StartupInfo, String>>,
    jobs: Receiver<Job>,
    coalesced: Arc<AtomicU64>,
}

/// Classifies a resume failure for the response `note`.
fn resume_reason(e: &TopKError) -> String {
    match e {
        TopKError::Artifact(a) => format!("artifact rejected ({}): {a}", a.class()),
        other => format!("resume failed: {other}"),
    }
}

fn tenant_loop(boot: &Boot) {
    let analysis = TopKAnalysis::with_faults(&boot.circuit, boot.config, boot.faults);
    let started = match &boot.artifact {
        Some(bytes) => match WhatIfSession::resume(&analysis, bytes) {
            Ok(session) => Ok((session, None)),
            Err(e) => WhatIfSession::start(&analysis, boot.mode, boot.k)
                .map(|s| (s, Some(resume_reason(&e)))),
        },
        None => WhatIfSession::start(&analysis, boot.mode, boot.k).map(|s| (s, None)),
    };
    let (mut session, mut note) = match started {
        Ok(pair) => pair,
        Err(e) => {
            let _ = boot.startup.send(Err(e.to_string()));
            return;
        }
    };
    let info = StartupInfo {
        nets: boot.circuit.num_nets(),
        couplings: boot.circuit.num_couplings(),
        fingerprint: session.result().identity_fingerprint(),
        fallback: note.clone(),
    };
    if boot.startup.send(Ok(info)).is_err() {
        return;
    }

    let mut stash: Option<Job> = None;
    loop {
        let job = match stash.take() {
            Some(j) => j,
            None => match boot.jobs.recv() {
                Ok(j) => j,
                Err(_) => return,
            },
        };
        match job {
            first @ (Job::Scenario { .. } | Job::Batch { .. }) => {
                // Coalesce: every scenario job already queued rides the
                // same `apply_batch` machine. A non-coalescable job
                // stops the drain and is handled next iteration.
                let mut wave = vec![first];
                loop {
                    match boot.jobs.try_recv() {
                        Ok(j @ (Job::Scenario { .. } | Job::Batch { .. })) => wave.push(j),
                        Ok(other) => {
                            stash = Some(other);
                            break;
                        }
                        Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                    }
                }
                if wave.len() > 1 {
                    boot.coalesced.fetch_add(wave.len() as u64 - 1, Ordering::Relaxed);
                }
                run_wave(&boot.tenant, &session, wave, &mut note);
            }
            Job::Commit { delta, reply } => {
                let response = match session.apply(&delta) {
                    Ok(outcome) => Response::Committed {
                        tenant: boot.tenant.clone(),
                        summary: ScenarioSummary::from_outcome(&outcome),
                        note: note.take(),
                    },
                    Err(e) => Response::err(ErrorCode::Engine, e.to_string()),
                };
                let _ = reply.send(response);
            }
            Job::Query { start_after, limit, reply } => {
                let all = session.result().couplings();
                let items: Vec<usize> = all
                    .iter()
                    .map(|c| c.index())
                    .filter(|&i| start_after.is_none_or(|cursor| i > cursor))
                    .take(limit)
                    .collect();
                let next = match items.last() {
                    Some(&last) if all.iter().any(|c| c.index() > last) => Some(last),
                    _ => None,
                };
                let _ = reply.send(Response::Page {
                    tenant: boot.tenant.clone(),
                    items,
                    next,
                    note: note.take(),
                });
            }
            Job::Spill { reply } => {
                let _ = reply.send(session.save_artifact());
                return;
            }
            Job::Persist { close, reply } => {
                let result = match &boot.store {
                    Some(path) => commit_chain(&mut session, path, &CommitOptions::default())
                        .map(|report| PersistOutcome {
                            report,
                            fingerprint: session.result().identity_fingerprint(),
                        })
                        .map_err(|e| e.to_string()),
                    None => Err("tenant has no durable store".to_owned()),
                };
                let exit = close && result.is_ok();
                let _ = reply.send(result);
                if exit {
                    return;
                }
            }
            Job::Close => return,
        }
    }
}

/// Answers one coalesced wave of scenario jobs through a single
/// `apply_batch` call. Jobs are flattened in queue order, so every
/// summary is bit-identical to a sequential `fork().apply` replay.
fn run_wave(
    tenant: &str,
    session: &WhatIfSession<'_, '_>,
    wave: Vec<Job>,
    note: &mut Option<String>,
) {
    let mut deltas: Vec<MaskDelta> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for job in &wave {
        let start = deltas.len();
        match job {
            Job::Scenario { delta, .. } => deltas.push(delta.clone()),
            Job::Batch { deltas: d, .. } => deltas.extend(d.iter().cloned()),
            _ => unreachable!("wave holds only scenario jobs"),
        }
        spans.push((start, deltas.len()));
    }
    let coalesced = wave.len();
    match session.apply_batch(&WhatIfBatch::from_deltas(deltas)) {
        Ok(outcome) => {
            let summaries: Vec<ScenarioSummary> =
                outcome.scenarios().iter().map(ScenarioSummary::from_outcome).collect();
            for (job, (start, end)) in wave.into_iter().zip(spans) {
                let response = match &job {
                    Job::Scenario { .. } => Response::Scenario {
                        tenant: tenant.to_owned(),
                        summary: summaries[start].clone(),
                        coalesced,
                        note: note.take(),
                    },
                    Job::Batch { .. } => Response::Batch {
                        tenant: tenant.to_owned(),
                        summaries: summaries[start..end].to_vec(),
                        coalesced,
                        note: note.take(),
                    },
                    _ => unreachable!("wave holds only scenario jobs"),
                };
                match job {
                    Job::Scenario { reply, .. } | Job::Batch { reply, .. } => {
                        let _ = reply.send(response);
                    }
                    _ => unreachable!("wave holds only scenario jobs"),
                }
            }
        }
        Err(e) => {
            // One poisoned wave degrades only these responses; the
            // session state is untouched (`apply_batch` is read-only).
            let message = e.to_string();
            for job in wave {
                if let Job::Scenario { reply, .. } | Job::Batch { reply, .. } = job {
                    let _ = reply.send(Response::err(ErrorCode::Engine, message.clone()));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Manager

struct Handle {
    jobs: Sender<Job>,
    join: JoinHandle<Result<(), String>>,
}

enum TenantState {
    Hot(Handle),
    Spilled(Vec<u8>),
    /// Cold with its state on disk (durable tenants): the artifact
    /// chain named by the tenant's [`DurableInfo`] holds the session;
    /// the next request reloads it from the file.
    Durable,
    Quarantined(String),
}

/// The durable-side identity of a tenant: where its circuit came from,
/// which chain file holds its state, and the circuit fingerprint that
/// pins both to the exact netlist they were opened against.
#[derive(Debug, Clone)]
struct DurableInfo {
    source: String,
    artifact: String,
    circuit_fingerprint: u64,
}

struct Tenant {
    circuit: Circuit,
    mode: Mode,
    k: usize,
    config: TopKConfig,
    /// Fault-injection hooks every worker of this tenant runs with.
    faults: Faults,
    state: TenantState,
    last_used: u64,
    pending: Arc<AtomicUsize>,
    /// `Some` iff the tenant persists to the manager's state directory.
    durable: Option<DurableInfo>,
}

struct Inner {
    tenants: HashMap<String, Tenant>,
    clock: u64,
    opened: usize,
}

/// The daemon core: owns every tenant and serves requests from any
/// number of client threads. All entry points are `&self`; the manager
/// is meant to be shared behind an [`Arc`].
pub struct SessionManager {
    config: ServeConfig,
    inner: Mutex<Inner>,
    served: AtomicU64,
    coalesced: Arc<AtomicU64>,
    spills: AtomicU64,
    reloads: AtomicU64,
    reload_fallbacks: AtomicU64,
    /// State directory + manifest, present iff the manager is durable.
    /// Lock order: `inner` before `registry`, always.
    state_dir: Option<PathBuf>,
    registry: Option<Mutex<TenantRegistry>>,
    registry_recovery: RegistryRecovery,
}

impl SessionManager {
    /// Creates an empty, in-memory-only manager (nothing survives the
    /// process).
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner { tenants: HashMap::new(), clock: 0, opened: 0 }),
            served: AtomicU64::new(0),
            coalesced: Arc::new(AtomicU64::new(0)),
            spills: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_fallbacks: AtomicU64::new(0),
            state_dir: None,
            registry: None,
            registry_recovery: RegistryRecovery::default(),
        }
    }

    /// Creates a durable manager backed by `state_dir`: tenants opened
    /// with a circuit source persist their sessions as artifact chains
    /// there, the `tenants.dnareg` manifest records them, and
    /// [`recover`](Self::recover) rebuilds everything after a restart.
    /// Opening the manifest already repairs a torn tail in place; the
    /// salvage details are reported by `recover`.
    ///
    /// # Errors
    ///
    /// [`TopKError::Artifact`] when the directory cannot be created or
    /// the manifest exists but is not a registry file.
    pub fn new_durable(config: ServeConfig, state_dir: &Path) -> Result<Self, TopKError> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| crate::persist::io_err("create state directory", state_dir, &e))?;
        let (registry, recovery) = TenantRegistry::open(&state_dir.join("tenants.dnareg"))?;
        let mut manager = Self::new(config);
        manager.state_dir = Some(state_dir.to_owned());
        manager.registry = Some(Mutex::new(registry));
        manager.registry_recovery = recovery;
        Ok(manager)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_registry(&self) -> Option<std::sync::MutexGuard<'_, TenantRegistry>> {
        self.registry.as_ref().map(|r| r.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn count(&self, response: Response) -> Response {
        self.served.fetch_add(1, Ordering::Relaxed);
        response
    }

    /// Clamps a tenant's requested budgets/deadline to the server caps.
    fn admit(&self, mut config: TopKConfig) -> TopKConfig {
        if let Some(cap) = self.config.victim_budget_cap {
            config.victim_candidate_budget =
                Some(config.victim_candidate_budget.map_or(cap, |b| b.min(cap)));
        }
        if let Some(cap) = self.config.global_budget_cap {
            config.global_candidate_budget =
                Some(config.global_candidate_budget.map_or(cap, |b| b.min(cap)));
        }
        if let Some(cap) = self.config.deadline_cap {
            config.deadline = Some(config.deadline.map_or(cap, |d| d.min(cap)));
        }
        config
    }

    /// Opens a new tenant around `circuit`, paying the base analysis
    /// up front. The tenant counts against the hot capacity
    /// immediately. In-memory only — on a durable manager, use
    /// [`open_with_source`](Self::open_with_source) so the tenant
    /// survives a restart.
    pub fn open(
        &self,
        tenant: &str,
        circuit: Circuit,
        mode: Mode,
        k: usize,
        config: TopKConfig,
    ) -> Response {
        self.open_with_source(tenant, circuit, None, mode, k, config)
    }

    /// Opens an in-memory tenant whose engine runs with the
    /// fault-injection hooks in `faults` — at open and at every reload —
    /// so one tenant can be poisoned while its neighbours stay clean.
    #[doc(hidden)]
    pub fn open_with_faults(
        &self,
        tenant: &str,
        circuit: Circuit,
        mode: Mode,
        k: usize,
        config: TopKConfig,
        faults: Faults,
    ) -> Response {
        self.open_tenant(tenant, circuit, None, mode, k, config, faults)
    }

    /// Opens a new tenant, optionally naming the circuit `source` it
    /// was resolved from. On a durable manager a sourced open is
    /// write-ahead: the base session is checkpointed to its chain file
    /// and recorded in the manifest *before* the open is acknowledged,
    /// so a tenant the client was told exists survives any later crash.
    /// A persist failure fails the open (the daemon does not accept
    /// durable tenants it cannot persist).
    pub fn open_with_source(
        &self,
        tenant: &str,
        circuit: Circuit,
        source: Option<&str>,
        mode: Mode,
        k: usize,
        config: TopKConfig,
    ) -> Response {
        self.open_tenant(tenant, circuit, source, mode, k, config, Faults::default())
    }

    #[allow(clippy::too_many_arguments)]
    fn open_tenant(
        &self,
        tenant: &str,
        circuit: Circuit,
        source: Option<&str>,
        mode: Mode,
        k: usize,
        config: TopKConfig,
        faults: Faults,
    ) -> Response {
        let config = self.admit(config);
        {
            let inner = self.lock();
            if inner.tenants.contains_key(tenant) {
                return self.count(Response::err(
                    ErrorCode::TenantExists,
                    format!("tenant `{tenant}` already open"),
                ));
            }
        }
        let durable = match (&self.state_dir, source) {
            (Some(_), Some(src)) => Some(DurableInfo {
                source: src.to_owned(),
                artifact: artifact_file_name(tenant),
                circuit_fingerprint: circuit_fingerprint(&circuit),
            }),
            _ => None,
        };
        let store = self.store_path(durable.as_ref());
        let spawned =
            spawn_tenant(tenant, &circuit, mode, k, config, faults, None, store, &self.coalesced);
        let (info, handle) = match spawned {
            Ok(pair) => pair,
            Err(message) => return self.count(Response::err(ErrorCode::Engine, message)),
        };
        if let Some(d) = &durable {
            // Write-ahead: checkpoint + manifest record before the open
            // is acknowledged or the tenant becomes visible.
            if let Err(cause) = self.persist_via(&handle, tenant, d, mode, k, &config) {
                let _ = handle.jobs.send(Job::Close);
                let _ = handle.join.join();
                return self.count(Response::err(
                    ErrorCode::Engine,
                    format!("cannot persist tenant `{tenant}`: {cause}"),
                ));
            }
        }
        let mut inner = self.lock();
        if inner.tenants.contains_key(tenant) {
            // Lost an open race; shut the fresh worker down.
            let _ = handle.jobs.send(Job::Close);
            let _ = handle.join.join();
            return self.count(Response::err(
                ErrorCode::TenantExists,
                format!("tenant `{tenant}` already open"),
            ));
        }
        inner.clock += 1;
        inner.opened += 1;
        let last_used = inner.clock;
        inner.tenants.insert(
            tenant.to_owned(),
            Tenant {
                circuit,
                mode,
                k,
                config,
                faults,
                state: TenantState::Hot(handle),
                last_used,
                pending: Arc::new(AtomicUsize::new(0)),
                durable,
            },
        );
        drop(inner);
        self.enforce_capacity();
        self.count(Response::Opened {
            tenant: tenant.to_owned(),
            nets: info.nets,
            couplings: info.couplings,
            fingerprint: info.fingerprint,
        })
    }

    /// Absolute chain path for a durable tenant.
    fn store_path(&self, durable: Option<&DurableInfo>) -> Option<PathBuf> {
        match (&self.state_dir, durable) {
            (Some(dir), Some(d)) => Some(dir.join(&d.artifact)),
            _ => None,
        }
    }

    /// Sends one `Persist` job to a hot worker and records the outcome
    /// in the manifest.
    fn persist_via(
        &self,
        handle: &Handle,
        tenant: &str,
        d: &DurableInfo,
        mode: Mode,
        k: usize,
        config: &TopKConfig,
    ) -> Result<PersistOutcome, String> {
        let (tx, rx) = mpsc::channel();
        if handle.jobs.send(Job::Persist { close: false, reply: tx }).is_err() {
            return Err("worker exited before persisting".to_owned());
        }
        let outcome = match rx.recv() {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(cause)) => return Err(cause),
            Err(_) => return Err("worker died while persisting".to_owned()),
        };
        self.record_in_manifest(tenant, d, mode, k, config, &outcome)?;
        Ok(outcome)
    }

    /// Appends the tenant's current durable facts to the manifest.
    fn record_in_manifest(
        &self,
        tenant: &str,
        d: &DurableInfo,
        mode: Mode,
        k: usize,
        config: &TopKConfig,
        outcome: &PersistOutcome,
    ) -> Result<(), String> {
        let Some(mut reg) = self.lock_registry() else {
            return Err("manager has no registry".to_owned());
        };
        reg.put(TenantRecord {
            tenant: tenant.to_owned(),
            circuit_source: d.source.clone(),
            mode,
            k,
            victim_budget: config.victim_candidate_budget,
            global_budget: config.global_candidate_budget,
            deadline_ms: config.deadline.map(|d| d.as_millis() as u64),
            artifact: d.artifact.clone(),
            generation: outcome.report.generation,
            fingerprint: outcome.fingerprint,
            circuit_fingerprint: d.circuit_fingerprint,
        })
        .map_err(|e| e.to_string())
    }

    /// Evaluates one scenario against the tenant's base session.
    pub fn scenario(&self, tenant: &str, delta: MaskDelta) -> Response {
        self.tenant_request(tenant, |reply| Job::Scenario { delta: delta.clone(), reply })
    }

    /// Evaluates a batch of scenarios against the tenant's base session.
    pub fn batch(&self, tenant: &str, deltas: Vec<MaskDelta>) -> Response {
        self.tenant_request(tenant, |reply| Job::Batch { deltas: deltas.clone(), reply })
    }

    /// Durably applies `delta` to the tenant's base session. On a
    /// durable tenant the new generation is committed to its chain
    /// (a delta append when possible) and witnessed by the manifest
    /// before the response is returned; a persist failure is reported
    /// as a typed error — the state advanced in memory but is *not*
    /// crash-safe, and the message says so.
    pub fn commit(&self, tenant: &str, delta: MaskDelta) -> Response {
        let response =
            self.tenant_request(tenant, |reply| Job::Commit { delta: delta.clone(), reply });
        if matches!(response, Response::Committed { .. }) {
            if let Err(cause) = self.persist_if_durable(tenant) {
                return Response::err(
                    ErrorCode::Engine,
                    format!(
                        "scenario committed in memory, but persisting tenant `{tenant}` failed: {cause}"
                    ),
                );
            }
        }
        response
    }

    /// Persists a durable tenant's current state if it is still hot; a
    /// tenant the LRU already turned cold was persisted by that spill.
    /// No-op for non-durable tenants and managers.
    fn persist_if_durable(&self, tenant: &str) -> Result<(), String> {
        let inner = self.lock();
        let Some(t) = inner.tenants.get(tenant) else { return Ok(()) };
        let Some(d) = t.durable.clone() else { return Ok(()) };
        let TenantState::Hot(handle) = &t.state else { return Ok(()) };
        let (jobs, join_alive) = (handle.jobs.clone(), !handle.join.is_finished());
        let (mode, k, config) = (t.mode, t.k, t.config);
        drop(inner);
        // A send/recv failure can mean a concurrent LRU spill closed the
        // worker — in which case that spill already persisted the state.
        let or_spilled = |cause: String| -> Result<(), String> {
            let inner = self.lock();
            match inner.tenants.get(tenant) {
                Some(t) if matches!(t.state, TenantState::Durable) => Ok(()),
                _ => Err(cause),
            }
        };
        if !join_alive {
            return or_spilled("worker died before persisting".to_owned());
        }
        let (tx, rx) = mpsc::channel();
        if jobs.send(Job::Persist { close: false, reply: tx }).is_err() {
            return or_spilled("worker exited before persisting".to_owned());
        }
        let outcome = match rx.recv() {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(cause)) => return Err(cause),
            Err(_) => return or_spilled("worker died while persisting".to_owned()),
        };
        self.record_in_manifest(tenant, &d, mode, k, &config, &outcome)
    }

    /// Pages through the tenant's current top-k couplings with the
    /// `start_after`/`limit` cursor idiom.
    pub fn query(&self, tenant: &str, start_after: Option<usize>, limit: usize) -> Response {
        self.tenant_request(tenant, |reply| Job::Query { start_after, limit, reply })
    }

    /// Forces the tenant to spill to its artifact (mostly for tests and
    /// operators; the LRU spills automatically past capacity).
    pub fn evict(&self, tenant: &str) -> Response {
        let mut inner = self.lock();
        let Some(t) = inner.tenants.get_mut(tenant) else {
            drop(inner);
            return self
                .count(Response::err(ErrorCode::UnknownTenant, format!("no tenant `{tenant}`")));
        };
        match &t.state {
            TenantState::Spilled(bytes) => {
                let bytes = bytes.len();
                drop(inner);
                self.count(Response::Evicted { tenant: tenant.to_owned(), artifact_bytes: bytes })
            }
            TenantState::Durable => {
                let bytes = self
                    .store_path(t.durable.as_ref())
                    .and_then(|p| std::fs::metadata(p).ok())
                    .map_or(0, |m| m.len() as usize);
                drop(inner);
                self.count(Response::Evicted { tenant: tenant.to_owned(), artifact_bytes: bytes })
            }
            TenantState::Quarantined(cause) => {
                let cause = cause.clone();
                drop(inner);
                self.count(Response::err(ErrorCode::Quarantined, cause))
            }
            TenantState::Hot(_) => {
                let response = match spill_tenant(t) {
                    Ok((bytes, outcome)) => {
                        self.spills.fetch_add(1, Ordering::Relaxed);
                        self.witness_spill(tenant, t, outcome.as_ref());
                        Response::Evicted { tenant: tenant.to_owned(), artifact_bytes: bytes }
                    }
                    Err(cause) => Response::err(ErrorCode::Quarantined, cause),
                };
                drop(inner);
                self.count(response)
            }
        }
    }

    /// Records a durable spill's outcome in the manifest (no-op for
    /// in-memory spills). A manifest failure is logged, not fatal: the
    /// *chain* is already committed, and recovery trusts the chain.
    fn witness_spill(&self, name: &str, t: &Tenant, outcome: Option<&PersistOutcome>) {
        let (Some(d), Some(outcome)) = (&t.durable, outcome) else { return };
        if let Err(cause) = self.record_in_manifest(name, d, t.mode, t.k, &t.config, outcome) {
            eprintln!("dna-serve: manifest update for tenant `{name}` failed: {cause}");
        }
    }

    /// Daemon counters.
    pub fn stats(&self) -> Response {
        let inner = self.lock();
        let mut stats = ServeStats {
            tenants: inner.opened,
            served: self.served.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_fallbacks: self.reload_fallbacks.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        for t in inner.tenants.values() {
            match t.state {
                TenantState::Hot(_) => stats.hot += 1,
                TenantState::Spilled(_) => stats.spilled += 1,
                TenantState::Durable => stats.durable += 1,
                TenantState::Quarantined(_) => stats.quarantined += 1,
            }
        }
        drop(inner);
        self.count(Response::Stats(stats))
    }

    /// Spills every hot tenant and joins every worker — durable tenants
    /// are committed to their chains and witnessed by the manifest, with
    /// one log line per tenant, so a graceful exit loses nothing. The
    /// manager can keep serving afterwards (tenants reload on demand);
    /// callers that are exiting simply drop it.
    pub fn shutdown(&self) -> Response {
        let mut inner = self.lock();
        let names: Vec<String> = inner.tenants.keys().cloned().collect();
        for name in names {
            if let Some(t) = inner.tenants.get_mut(&name) {
                if matches!(t.state, TenantState::Hot(_)) {
                    let durable = t.durable.is_some();
                    match spill_tenant(t) {
                        Ok((_, outcome)) => {
                            self.spills.fetch_add(1, Ordering::Relaxed);
                            self.witness_spill(&name, t, outcome.as_ref());
                            if let Some(out) = outcome {
                                eprintln!(
                                    "dna-serve: flushed tenant `{name}` to its chain \
                                     (generation {}, {}, {} bytes written)",
                                    out.report.generation,
                                    save_kind_label(out.report.kind),
                                    out.report.bytes_written,
                                );
                            }
                        }
                        Err(cause) if durable => {
                            eprintln!("dna-serve: could not flush tenant `{name}`: {cause}");
                        }
                        Err(_) => {}
                    }
                }
            }
        }
        drop(inner);
        self.count(Response::Bye)
    }

    /// Sends one job to a (hot) tenant and waits for the response,
    /// respawning spilled tenants and retrying around spill races.
    fn tenant_request(&self, tenant: &str, build: impl Fn(Sender<Response>) -> Job) -> Response {
        for _attempt in 0..4 {
            let (jobs, pending) = match self.ensure_hot(tenant) {
                Ok(pair) => pair,
                Err(response) => return self.count(response),
            };
            if pending.load(Ordering::Relaxed) >= self.config.max_queue {
                return self.count(Response::err(
                    ErrorCode::Overloaded,
                    format!("tenant `{tenant}` has {} jobs in flight", self.config.max_queue),
                ));
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            pending.fetch_add(1, Ordering::Relaxed);
            if jobs.send(build(reply_tx)).is_err() {
                // The worker exited between `ensure_hot` and the send
                // (an eviction race); respawn and retry.
                pending.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let outcome = reply_rx.recv();
            pending.fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(response) => {
                    let response = self.count(response);
                    self.enforce_capacity();
                    return response;
                }
                // The job was queued behind a spill and dropped when the
                // worker exited; retry against the respawned tenant.
                Err(_) => continue,
            }
        }
        self.count(Response::err(
            ErrorCode::Overloaded,
            format!("tenant `{tenant}` kept restarting; retry"),
        ))
    }

    /// Makes `tenant` hot (respawning from its artifact if spilled) and
    /// returns its job channel.
    // The Err is the ready-to-send response; it is constructed once per
    // failed request, so its size does not matter on this path.
    #[allow(clippy::result_large_err)]
    fn ensure_hot(&self, tenant: &str) -> Result<(Sender<Job>, Arc<AtomicUsize>), Response> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let Some(t) = inner.tenants.get_mut(tenant) else {
            return Err(Response::err(ErrorCode::UnknownTenant, format!("no tenant `{tenant}`")));
        };
        t.last_used = clock;
        match &mut t.state {
            TenantState::Hot(handle) => {
                // A worker that died without being spilled (a panic that
                // escaped the engine's boundaries) is detected by its
                // closed channel; harvest the cause and quarantine.
                if handle.join.is_finished() {
                    let dead =
                        std::mem::replace(&mut t.state, TenantState::Quarantined(String::new()));
                    let cause = match dead {
                        TenantState::Hot(h) => match h.join.join() {
                            Ok(Ok(())) => "worker exited unexpectedly".to_owned(),
                            Ok(Err(cause)) => cause,
                            Err(payload) => panic_message(payload.as_ref()),
                        },
                        _ => unreachable!("state was hot"),
                    };
                    let cause = if cause.is_empty() { "worker died".to_owned() } else { cause };
                    t.state = TenantState::Quarantined(cause.clone());
                    return Err(Response::err(ErrorCode::Quarantined, cause));
                }
                Ok((handle.jobs.clone(), t.pending.clone()))
            }
            TenantState::Spilled(artifact) => {
                let artifact = std::mem::take(artifact);
                self.reloads.fetch_add(1, Ordering::Relaxed);
                let store = self.store_path(t.durable.as_ref());
                match spawn_tenant(
                    tenant,
                    &t.circuit,
                    t.mode,
                    t.k,
                    t.config,
                    t.faults,
                    Some(artifact.clone()),
                    store,
                    &self.coalesced,
                ) {
                    Ok((info, handle)) => {
                        if info.fallback.is_some() {
                            self.reload_fallbacks.fetch_add(1, Ordering::Relaxed);
                        }
                        let jobs = handle.jobs.clone();
                        t.state = TenantState::Hot(handle);
                        Ok((jobs, t.pending.clone()))
                    }
                    Err(message) => {
                        // Keep the artifact so a later retry can try
                        // again (e.g. transient thread-spawn failure).
                        t.state = TenantState::Spilled(artifact);
                        Err(Response::err(ErrorCode::Engine, message))
                    }
                }
            }
            TenantState::Durable => {
                // Cold durable tenant: reload the chain from disk.
                let store = self.store_path(t.durable.as_ref());
                let Some(path) = store else {
                    return Err(Response::err(
                        ErrorCode::Engine,
                        format!("tenant `{tenant}` is durable but the manager has no state dir"),
                    ));
                };
                let bytes = match std::fs::read(&path) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        return Err(Response::err(
                            ErrorCode::Artifact,
                            format!("cannot read chain `{}`: {e}", path.display()),
                        ))
                    }
                };
                self.reloads.fetch_add(1, Ordering::Relaxed);
                match spawn_tenant(
                    tenant,
                    &t.circuit,
                    t.mode,
                    t.k,
                    t.config,
                    t.faults,
                    Some(bytes),
                    Some(path),
                    &self.coalesced,
                ) {
                    Ok((info, handle)) => {
                        if info.fallback.is_some() {
                            self.reload_fallbacks.fetch_add(1, Ordering::Relaxed);
                        }
                        let jobs = handle.jobs.clone();
                        t.state = TenantState::Hot(handle);
                        Ok((jobs, t.pending.clone()))
                    }
                    // The chain file is still on disk; a later retry can
                    // try again.
                    Err(message) => Err(Response::err(ErrorCode::Engine, message)),
                }
            }
            TenantState::Quarantined(cause) => {
                Err(Response::err(ErrorCode::Quarantined, cause.clone()))
            }
        }
    }

    /// Spills least-recently-used hot tenants until at most
    /// [`ServeConfig::capacity`] remain hot.
    fn enforce_capacity(&self) {
        let mut inner = self.lock();
        loop {
            let hot = inner
                .tenants
                .iter()
                .filter(|(_, t)| matches!(t.state, TenantState::Hot(_)))
                .count();
            if hot <= self.config.capacity {
                return;
            }
            let Some(name) = inner
                .tenants
                .iter()
                .filter(|(_, t)| matches!(t.state, TenantState::Hot(_)))
                .min_by_key(|(_, t)| t.last_used)
                .map(|(name, _)| name.clone())
            else {
                return;
            };
            if let Some(t) = inner.tenants.get_mut(&name) {
                if let Ok((_, outcome)) = spill_tenant(t) {
                    self.spills.fetch_add(1, Ordering::Relaxed);
                    self.witness_spill(&name, t, outcome.as_ref());
                }
            }
        }
    }

    /// Rebuilds every tenant recorded in the manifest — the
    /// `dna serve --recover` pass. For each entry: re-resolve the
    /// circuit through `load_circuit`, verify its fingerprint, load the
    /// chain leniently (salvaging the longest committed prefix),
    /// truncate any torn tail *in place*, and register the tenant cold
    /// (the `Durable` tenant state). A tenant whose circuit is missing,
    /// changed, or whose chain is beyond salvage is quarantined with a
    /// typed reason — recovery never aborts the daemon. Stray `.tmp`
    /// files from checkpoint renames that never happened are removed.
    ///
    /// No-op (empty report) on a non-durable manager.
    pub fn recover(
        &self,
        load_circuit: &dyn Fn(&str) -> Result<Circuit, String>,
    ) -> RecoveryReport {
        let mut report = RecoveryReport {
            tenants: Vec::new(),
            registry: self.registry_recovery.clone(),
            stale_temp_files: 0,
        };
        let Some(state_dir) = self.state_dir.clone() else { return report };
        // A crash between temp-write and rename leaves a `.tmp` sibling
        // that no commit will ever read; sweep them out.
        if let Ok(dir) = std::fs::read_dir(&state_dir) {
            for entry in dir.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "tmp")
                    && std::fs::remove_file(&path).is_ok()
                {
                    report.stale_temp_files += 1;
                }
            }
        }
        let entries: Vec<TenantRecord> = match self.lock_registry() {
            Some(reg) => reg.entries().values().cloned().collect(),
            None => Vec::new(),
        };
        for rec in entries {
            let outcome = self.recover_tenant(&state_dir, &rec, load_circuit);
            report.tenants.push(TenantRecovery { tenant: rec.tenant, outcome });
        }
        report
    }

    /// Recovers one manifest entry; inserts the tenant (cold or
    /// quarantined) and returns what happened.
    fn recover_tenant(
        &self,
        state_dir: &Path,
        rec: &TenantRecord,
        load_circuit: &dyn Fn(&str) -> Result<Circuit, String>,
    ) -> RecoverOutcome {
        let quarantine = |reason: String, circuit: Option<Circuit>| -> RecoverOutcome {
            if let Some(circuit) = circuit {
                self.insert_recovered(rec, circuit, TenantState::Quarantined(reason.clone()));
            }
            RecoverOutcome::Quarantined { reason }
        };
        let circuit = match load_circuit(&rec.circuit_source) {
            Ok(c) => c,
            Err(e) => {
                return quarantine(
                    format!("circuit `{}` unavailable: {e}", rec.circuit_source),
                    None,
                )
            }
        };
        if circuit_fingerprint(&circuit) != rec.circuit_fingerprint {
            return quarantine(
                format!(
                    "circuit `{}` changed since the tenant was opened (fingerprint mismatch)",
                    rec.circuit_source
                ),
                Some(circuit),
            );
        }
        let path = state_dir.join(&rec.artifact);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                return quarantine(
                    format!("chain `{}` unreadable: {e}", path.display()),
                    Some(circuit),
                )
            }
        };
        let config = rec_config(rec);
        let (generation, fingerprint, recovery) = {
            let analysis = TopKAnalysis::new(&circuit, config);
            match WhatIfSession::resume_lenient(&analysis, &bytes) {
                Ok((session, recovery)) => {
                    let fingerprint = session.result().identity_fingerprint();
                    (recovery.generation, fingerprint, recovery)
                }
                Err(e) => {
                    return quarantine(format!("chain unrecoverable: {e}"), Some(circuit));
                }
            }
        };
        // Repair the file in place: drop the torn/uncommitted suffix so
        // the next delta append never splices onto garbage.
        if recovery.truncated_bytes > 0 {
            if let Err(e) = truncate_chain_file(&path, recovery.valid_bytes) {
                return quarantine(
                    format!(
                        "chain repair (truncate to {} bytes) failed: {e}",
                        recovery.valid_bytes
                    ),
                    Some(circuit),
                );
            }
        }
        // Catch the manifest up when the chain committed further than
        // the registry witnessed (a `pre-manifest` crash) or the repair
        // rolled a never-committed suffix back.
        if generation != rec.generation || recovery.truncated_bytes > 0 {
            let mut updated = rec.clone();
            updated.generation = generation;
            updated.fingerprint = fingerprint;
            if let Some(mut reg) = self.lock_registry() {
                if let Err(e) = reg.put(updated) {
                    eprintln!(
                        "dna-serve: manifest catch-up for tenant `{}` failed: {e}",
                        rec.tenant
                    );
                }
            }
        }
        self.insert_recovered(rec, circuit, TenantState::Durable);
        RecoverOutcome::Resumed {
            generation,
            fingerprint,
            repaired_bytes: recovery.truncated_bytes,
            damage: recovery.damage,
        }
    }

    /// Registers a recovered tenant in the manager's map.
    fn insert_recovered(&self, rec: &TenantRecord, circuit: Circuit, state: TenantState) {
        let mut inner = self.lock();
        inner.clock += 1;
        inner.opened += 1;
        let last_used = inner.clock;
        inner.tenants.insert(
            rec.tenant.clone(),
            Tenant {
                circuit,
                mode: rec.mode,
                k: rec.k,
                config: rec_config(rec),
                faults: Faults::default(),
                state,
                last_used,
                pending: Arc::new(AtomicUsize::new(0)),
                durable: Some(DurableInfo {
                    source: rec.circuit_source.clone(),
                    artifact: rec.artifact.clone(),
                    circuit_fingerprint: rec.circuit_fingerprint,
                }),
            },
        );
    }
}

/// Rebuilds the engine config a tenant was admitted with. Only the
/// admission-controlled knobs (budgets, deadline) are durable; the rest
/// of [`TopKConfig`] is structural and normalized away by the artifact
/// config fingerprint.
fn rec_config(rec: &TenantRecord) -> TopKConfig {
    TopKConfig {
        victim_candidate_budget: rec.victim_budget,
        global_candidate_budget: rec.global_budget,
        deadline: rec.deadline_ms.map(Duration::from_millis),
        ..TopKConfig::default()
    }
}

/// Short operator-facing label of a [`SaveKind`].
fn save_kind_label(kind: SaveKind) -> String {
    match kind {
        SaveKind::Unchanged => "unchanged".to_owned(),
        SaveKind::Checkpoint => "checkpoint".to_owned(),
        SaveKind::Delta(n) => format!("{n} delta record{}", if n == 1 { "" } else { "s" }),
    }
}

/// FNV-1a fingerprint of the canonical netlist text — the same hash the
/// artifact chain pins its checkpoints to.
fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    fnv1a64(dna_netlist::format::write(circuit).as_bytes())
}

/// Chain file name for a tenant: a sanitized copy of the name (so the
/// file is recognizable) plus an FNV suffix (so distinct names that
/// sanitize identically — or hostile names aiming at path traversal —
/// cannot collide onto one file).
fn artifact_file_name(tenant: &str) -> String {
    let sanitized: String = tenant
        .chars()
        .take(48)
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("{sanitized}-{:08x}.dnawifa", fnv1a64(tenant.as_bytes()) as u32)
}

/// What `dna serve --recover` found and did, tenant by tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Per-tenant outcomes, in manifest order.
    pub tenants: Vec<TenantRecovery>,
    /// What opening the manifest itself had to repair.
    pub registry: RegistryRecovery,
    /// Orphaned checkpoint temp files swept out of the state directory.
    pub stale_temp_files: usize,
}

/// One tenant's recovery outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRecovery {
    /// Tenant name.
    pub tenant: String,
    /// What happened.
    pub outcome: RecoverOutcome,
}

/// How one tenant came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverOutcome {
    /// The tenant resumed from its last committed generation.
    Resumed {
        /// Generation the chain replayed to.
        generation: u64,
        /// Identity fingerprint at that generation.
        fingerprint: u64,
        /// Torn/uncommitted bytes truncated away during repair.
        repaired_bytes: u64,
        /// Damage description when the chain needed salvage.
        damage: Option<String>,
    },
    /// The tenant could not be brought back; requests against it get a
    /// typed `quarantined` error carrying this reason.
    Quarantined {
        /// Why.
        reason: String,
    },
}

/// Asks a hot tenant's worker to serialize and exit. A non-durable
/// tenant spills its artifact bytes into memory
/// ([`TenantState::Spilled`]); a durable one commits its chain to disk
/// (delta append when possible) and goes cold ([`TenantState::Durable`])
/// — the returned outcome is what the caller must witness in the
/// manifest. A dead worker becomes [`TenantState::Quarantined`].
fn spill_tenant(t: &mut Tenant) -> Result<(usize, Option<PersistOutcome>), String> {
    let TenantState::Hot(handle) =
        std::mem::replace(&mut t.state, TenantState::Quarantined(String::new()))
    else {
        unreachable!("spill_tenant called on a non-hot tenant");
    };
    if t.durable.is_some() {
        let (reply_tx, reply_rx) = mpsc::channel();
        let asked = handle.jobs.send(Job::Persist { close: true, reply: reply_tx });
        let result = if asked.is_ok() { reply_rx.recv().ok() } else { None };
        return match result {
            Some(Ok(outcome)) => {
                let _ = handle.join.join();
                t.state = TenantState::Durable;
                Ok((outcome.report.file_bytes as usize, Some(outcome)))
            }
            Some(Err(cause)) => {
                // The persist failed but the worker is alive and the
                // session intact; stay hot rather than lose state.
                t.state = TenantState::Hot(handle);
                Err(cause)
            }
            None => {
                let cause = harvest_death(handle, "worker exited before persisting");
                t.state = TenantState::Quarantined(cause.clone());
                Err(cause)
            }
        };
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let asked = handle.jobs.send(Job::Spill { reply: reply_tx });
    let bytes = if asked.is_ok() { reply_rx.recv().ok() } else { None };
    match bytes {
        Some(artifact) => {
            let len = artifact.len();
            let _ = handle.join.join();
            t.state = TenantState::Spilled(artifact);
            Ok((len, None))
        }
        None => {
            let cause = harvest_death(handle, "worker exited before spilling");
            t.state = TenantState::Quarantined(cause.clone());
            Err(cause)
        }
    }
}

/// Joins a dead worker and extracts the most specific cause available.
fn harvest_death(handle: Handle, silent_exit: &str) -> String {
    let cause = match handle.join.join() {
        Ok(Ok(())) => silent_exit.to_owned(),
        Ok(Err(cause)) => cause,
        Err(payload) => panic_message(payload.as_ref()),
    };
    if cause.is_empty() {
        "worker died".to_owned()
    } else {
        cause
    }
}

/// Spawns a tenant worker and waits for its startup handshake.
#[allow(clippy::too_many_arguments)]
fn spawn_tenant(
    tenant: &str,
    circuit: &Circuit,
    mode: Mode,
    k: usize,
    config: TopKConfig,
    faults: Faults,
    artifact: Option<Vec<u8>>,
    store: Option<PathBuf>,
    coalesced: &Arc<AtomicU64>,
) -> Result<(StartupInfo, Handle), String> {
    let (jobs_tx, jobs_rx) = mpsc::channel();
    let (startup_tx, startup_rx) = mpsc::channel();
    let boot = Boot {
        tenant: tenant.to_owned(),
        circuit: circuit.clone(),
        mode,
        k,
        config,
        faults,
        artifact,
        store,
        startup: startup_tx,
        jobs: jobs_rx,
        coalesced: coalesced.clone(),
    };
    let join = std::thread::Builder::new()
        .name(format!("dna-serve-{tenant}"))
        .spawn(move || match catch_unwind(AssertUnwindSafe(|| tenant_loop(&boot))) {
            Ok(()) => Ok(()),
            Err(payload) => Err(panic_message(payload.as_ref())),
        })
        .map_err(|e| format!("cannot spawn tenant worker: {e}"))?;
    match startup_rx.recv() {
        Ok(Ok(info)) => Ok((info, Handle { jobs: jobs_tx, join })),
        Ok(Err(message)) => {
            let _ = join.join();
            Err(message)
        }
        Err(_) => {
            let cause = match join.join() {
                Ok(Ok(())) => "worker exited during startup".to_owned(),
                Ok(Err(cause)) => cause,
                Err(payload) => panic_message(payload.as_ref()),
            };
            Err(cause)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::generator::{generate, GeneratorConfig};
    use dna_netlist::CouplingId;

    fn small_circuit(seed: u64) -> Circuit {
        generate(&GeneratorConfig::new(24, 18).with_seed(seed)).expect("generator succeeds")
    }

    fn open_default(manager: &SessionManager, name: &str, seed: u64) -> u64 {
        let response =
            manager.open(name, small_circuit(seed), Mode::Elimination, 2, TopKConfig::default());
        match response {
            Response::Opened { fingerprint, .. } => fingerprint,
            other => panic!("open failed: {other:?}"),
        }
    }

    #[test]
    fn scenario_matches_a_local_fork_apply() {
        let manager = SessionManager::new(ServeConfig::default());
        open_default(&manager, "a", 9);
        let delta = MaskDelta::remove(&[CouplingId::new(0)]);
        let Response::Scenario { summary, coalesced, .. } = manager.scenario("a", delta.clone())
        else {
            panic!("expected a scenario response");
        };
        assert!(coalesced >= 1);

        let circuit = small_circuit(9);
        let analysis = TopKAnalysis::new(&circuit, TopKConfig::default());
        let session = WhatIfSession::start(&analysis, Mode::Elimination, 2).unwrap();
        let mut fork = session.fork();
        let outcome = fork.apply(&delta).unwrap();
        assert_eq!(summary.fingerprint, outcome.result().identity_fingerprint());
        assert_eq!(
            summary.set,
            outcome.result().couplings().iter().map(|c| c.index()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_tenant_and_double_open_are_typed_errors() {
        let manager = SessionManager::new(ServeConfig::default());
        let Response::Error(e) = manager.scenario("ghost", MaskDelta::remove(&[])) else {
            panic!("expected an error");
        };
        assert_eq!(e.code, ErrorCode::UnknownTenant);
        open_default(&manager, "a", 9);
        let Response::Error(e) =
            manager.open("a", small_circuit(9), Mode::Elimination, 2, TopKConfig::default())
        else {
            panic!("expected an error");
        };
        assert_eq!(e.code, ErrorCode::TenantExists);
    }

    #[test]
    fn evict_then_reload_is_bit_identical() {
        let manager = SessionManager::new(ServeConfig::default());
        let base = open_default(&manager, "a", 11);
        let delta = MaskDelta::remove(&[CouplingId::new(1)]);
        let Response::Scenario { summary: before, .. } = manager.scenario("a", delta.clone())
        else {
            panic!("expected a scenario response");
        };
        let Response::Evicted { artifact_bytes, .. } = manager.evict("a") else {
            panic!("expected an eviction");
        };
        assert!(artifact_bytes > 0);
        let Response::Scenario { summary: after, note, .. } = manager.scenario("a", delta) else {
            panic!("expected a scenario response");
        };
        assert_eq!(note, None, "a clean artifact resumes without a fallback note");
        assert_eq!(before.fingerprint, after.fingerprint);
        let Response::Page { items, next, .. } = manager.query("a", None, 64) else {
            panic!("expected a page");
        };
        assert!(next.is_none());
        assert!(!items.is_empty());
        let _ = base;
    }

    #[test]
    fn zero_capacity_spills_after_every_request() {
        let manager = SessionManager::new(ServeConfig { capacity: 0, ..ServeConfig::default() });
        open_default(&manager, "a", 13);
        let delta = MaskDelta::remove(&[CouplingId::new(0)]);
        let Response::Scenario { summary: first, .. } = manager.scenario("a", delta.clone()) else {
            panic!("expected a scenario response");
        };
        let Response::Scenario { summary: second, .. } = manager.scenario("a", delta) else {
            panic!("expected a scenario response");
        };
        assert_eq!(first.fingerprint, second.fingerprint);
        let Response::Stats(stats) = manager.stats() else { panic!("expected stats") };
        assert_eq!(stats.hot, 0, "zero capacity keeps nothing hot");
        assert!(stats.spills >= 2);
        assert!(stats.reloads >= 1);
    }

    #[test]
    fn corrupt_spill_artifact_falls_back_with_a_typed_note() {
        let manager = SessionManager::new(ServeConfig::default());
        open_default(&manager, "a", 17);
        let Response::Evicted { .. } = manager.evict("a") else { panic!("expected eviction") };
        // Corrupt the spilled artifact in place.
        {
            let mut inner = manager.lock();
            let t = inner.tenants.get_mut("a").expect("tenant exists");
            if let TenantState::Spilled(bytes) = &mut t.state {
                let last = bytes.len() - 1;
                bytes[last] ^= 0xff;
            } else {
                panic!("tenant is not spilled");
            }
        }
        let Response::Scenario { note, .. } =
            manager.scenario("a", MaskDelta::remove(&[CouplingId::new(0)]))
        else {
            panic!("expected a scenario response");
        };
        let note = note.expect("fallback note is surfaced");
        assert!(note.contains("corrupt"), "note classifies the rejection: {note}");
        let Response::Stats(stats) = manager.stats() else { panic!("expected stats") };
        assert_eq!(stats.reload_fallbacks, 1);
    }

    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dna-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Test circuit resolver: sources are `seed:<n>` strings.
    fn load_seeded(src: &str) -> Result<Circuit, String> {
        src.strip_prefix("seed:")
            .and_then(|s| s.parse::<u64>().ok())
            .map(small_circuit)
            .ok_or_else(|| format!("unknown source `{src}`"))
    }

    #[test]
    fn durable_restart_resumes_the_committed_generation_bit_exactly() {
        let dir = durable_dir("restart");
        let committed;
        {
            let manager =
                SessionManager::new_durable(ServeConfig::default(), &dir).expect("durable manager");
            let Response::Opened { .. } = manager.open_with_source(
                "a",
                small_circuit(23),
                Some("seed:23"),
                Mode::Elimination,
                2,
                TopKConfig::default(),
            ) else {
                panic!("open failed");
            };
            let Response::Committed { summary, .. } =
                manager.commit("a", MaskDelta::remove(&[CouplingId::new(0)]))
            else {
                panic!("commit failed");
            };
            committed = summary.fingerprint;
            // Dropped without shutdown: the commit itself was durable.
        }
        let manager =
            SessionManager::new_durable(ServeConfig::default(), &dir).expect("durable reopen");
        let report = manager.recover(&load_seeded);
        assert_eq!(report.registry.damage, None);
        assert_eq!(report.tenants.len(), 1);
        let RecoverOutcome::Resumed { generation, fingerprint, repaired_bytes, damage } =
            &report.tenants[0].outcome
        else {
            panic!("tenant not resumed: {:?}", report.tenants[0]);
        };
        assert_eq!(*generation, 1, "the committed apply is generation 1");
        assert_eq!(*fingerprint, committed, "resume is bit-exact");
        assert_eq!((*repaired_bytes, damage.as_deref()), (0, None), "clean chain needs no repair");
        // The recovered tenant answers requests (reloading from disk).
        let Response::Scenario { summary, .. } =
            manager.scenario("a", MaskDelta::remove(&[CouplingId::new(1)]))
        else {
            panic!("recovered tenant does not serve");
        };
        assert!(summary.fingerprint != 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_repairs_a_torn_chain_to_the_last_committed_generation() {
        let dir = durable_dir("torn");
        let base;
        {
            let manager =
                SessionManager::new_durable(ServeConfig::default(), &dir).expect("durable manager");
            let Response::Opened { fingerprint, .. } = manager.open_with_source(
                "a",
                small_circuit(31),
                Some("seed:31"),
                Mode::Elimination,
                2,
                TopKConfig::default(),
            ) else {
                panic!("open failed");
            };
            base = fingerprint;
            let Response::Committed { .. } =
                manager.commit("a", MaskDelta::remove(&[CouplingId::new(0)]))
            else {
                panic!("commit failed");
            };
        }
        // Tear the delta append mid-record — what a power cut leaves.
        let chain = dir.join(artifact_file_name("a"));
        let bytes = std::fs::read(&chain).expect("chain exists");
        std::fs::write(&chain, &bytes[..bytes.len() - 3]).expect("tear");
        let manager =
            SessionManager::new_durable(ServeConfig::default(), &dir).expect("durable reopen");
        let report = manager.recover(&load_seeded);
        let RecoverOutcome::Resumed { generation, fingerprint, repaired_bytes, damage } =
            &report.tenants[0].outcome
        else {
            panic!("tenant not resumed: {:?}", report.tenants[0]);
        };
        assert_eq!(*generation, 0, "the torn generation-1 delta rolls back");
        assert_eq!(*fingerprint, base, "rollback lands on the base state bit-exactly");
        assert!(*repaired_bytes > 0);
        assert!(damage.is_some());
        // The repair is persistent: the file now ends at the base record.
        let repaired = std::fs::read(&chain).expect("chain exists");
        assert_eq!(repaired.len() as u64, (bytes.len() - 3) as u64 - *repaired_bytes);
        assert!(repaired.len() < bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_quarantines_a_changed_circuit_with_a_typed_error() {
        let dir = durable_dir("changed");
        {
            let manager =
                SessionManager::new_durable(ServeConfig::default(), &dir).expect("durable manager");
            let Response::Opened { .. } = manager.open_with_source(
                "a",
                small_circuit(37),
                Some("seed:37"),
                Mode::Elimination,
                2,
                TopKConfig::default(),
            ) else {
                panic!("open failed");
            };
        }
        let manager =
            SessionManager::new_durable(ServeConfig::default(), &dir).expect("durable reopen");
        // The "same" source now resolves to a different circuit.
        let report = manager.recover(&|_src| Ok(small_circuit(38)));
        let RecoverOutcome::Quarantined { reason } = &report.tenants[0].outcome else {
            panic!("a changed circuit must quarantine: {:?}", report.tenants[0]);
        };
        assert!(reason.contains("fingerprint mismatch"), "reason names the cause: {reason}");
        let Response::Error(e) = manager.scenario("a", MaskDelta::remove(&[])) else {
            panic!("expected a typed error");
        };
        assert_eq!(e.code, ErrorCode::Quarantined);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_lru_spills_commit_delta_records_to_disk() {
        let dir = durable_dir("lru");
        let manager = SessionManager::new_durable(
            ServeConfig { capacity: 1, ..ServeConfig::default() },
            &dir,
        )
        .expect("durable manager");
        for (name, seed) in [("a", 41u64), ("b", 43u64)] {
            let Response::Opened { .. } = manager.open_with_source(
                name,
                small_circuit(seed),
                Some(&format!("seed:{seed}")),
                Mode::Elimination,
                2,
                TopKConfig::default(),
            ) else {
                panic!("open failed");
            };
        }
        // Opening `b` evicted `a` to disk, not to memory.
        let Response::Stats(stats) = manager.stats() else { panic!("expected stats") };
        assert_eq!((stats.hot, stats.durable, stats.spilled), (1, 1, 0));
        // `a` still serves — reloaded from its chain file.
        let Response::Scenario { .. } =
            manager.scenario("a", MaskDelta::remove(&[CouplingId::new(0)]))
        else {
            panic!("evicted durable tenant must reload from disk");
        };
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pagination_cursors_walk_the_set() {
        let manager = SessionManager::new(ServeConfig::default());
        open_default(&manager, "a", 19);
        let mut cursor = None;
        let mut seen: Vec<usize> = Vec::new();
        loop {
            let Response::Page { items, next, .. } = manager.query("a", cursor, 1) else {
                panic!("expected a page");
            };
            seen.extend(&items);
            match next {
                Some(n) => cursor = Some(n),
                None => break,
            }
        }
        let Response::Page { items: all, .. } = manager.query("a", None, 1024) else {
            panic!("expected a page");
        };
        assert_eq!(seen, all, "limit-1 pages concatenate to the full set");
    }
}
