//! Shared machinery of the addition- and elimination-set algorithms.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use dna_netlist::{Circuit, CouplingId, NetId, NetSource};
use dna_noise::{envelope_calc, CouplingMask, NoiseReport};
use dna_sta::{NetTiming, TimingReport};
use dna_waveform::{superposition, Edge, Envelope, NoisePulse, TimeInterval, Transition};

use crate::faultsim::Faults;
use crate::result::{Fault, FaultPhase};
use crate::sched::{self, BudgetPartition, SchedStats, Slots};
use crate::{addition, elimination, Candidate, TopKAnalysis, TopKConfig, TopKError};

/// Couplings in a net's fanin cone ranked by the delay noise each can add
/// to that net's arrival, descending. `Arc`, not `Rc`: the memo is shared
/// across the sweep workers.
type RankedWideners = Arc<Vec<(CouplingId, f64)>>;

/// One net's irredundant lists by cardinality, shared by `Arc` so a
/// what-if session can keep a cached copy across incremental re-sweeps
/// without deep-cloning candidate envelopes. `lists[i]` = irredundant
/// list of cardinality `i` (index 0 = the empty / total baseline set).
pub(crate) type NetLists = Arc<Vec<Vec<Candidate>>>;

/// How a budget curtailed one victim's enumeration (if at all).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Curtailment {
    /// The victim enumerated in full.
    #[default]
    None,
    /// A candidate budget cut generation short mid-victim; the lists hold
    /// the strongest non-dominated survivors of what was generated.
    Truncated,
    /// The global budget or deadline was exhausted before this victim
    /// started; it was served empty lists.
    Skipped,
}

/// Per-victim enumeration counters, kept per net (not pre-aggregated) so
/// an incremental sweep can serve clean victims' counters from cache and
/// still aggregate bit-identically to a from-scratch run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VictimCounters {
    /// Largest irredundant-list width at this victim.
    pub peak_list_width: usize,
    /// Candidates generated (admitted and scored) at this victim before
    /// ranking and pruning.
    pub generated: usize,
    /// Whether (and how) a budget curtailed this victim.
    pub curtailment: Curtailment,
}

/// Order-independent aggregate of all victims' counters: the same fold a
/// full sweep performs, so a subset sweep that merges cached and fresh
/// counters reproduces the from-scratch totals exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SweepTotals {
    pub peak_list_width: usize,
    pub generated: usize,
    pub truncated_victims: usize,
    pub skipped_victims: usize,
}

impl VictimCounters {
    /// Max of widths, sum of generated counts, tally of curtailments.
    pub fn aggregate(all: &[VictimCounters]) -> SweepTotals {
        all.iter().fold(SweepTotals::default(), |mut t, c| {
            t.peak_list_width = t.peak_list_width.max(c.peak_list_width);
            t.generated += c.generated;
            match c.curtailment {
                Curtailment::None => {}
                Curtailment::Truncated => t.truncated_victims += 1,
                Curtailment::Skipped => t.skipped_victims += 1,
            }
            t
        })
    }
}

/// Which flavor of top-k set is being computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Start from noiseless timing; find the k couplings whose addition
    /// hurts the most (§3.3).
    Addition,
    /// Start from fully noisy timing; find the k couplings whose removal
    /// helps the most (§3.4).
    Elimination,
}

impl Mode {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Addition => "addition",
            Mode::Elimination => "elimination",
        }
    }
}

/// A primary aggressor of one victim: the coupling, its noise pulse and
/// the aggressor's timing window, kept separate so higher-order variants
/// can rebuild the envelope with a widened (or narrowed) window.
#[derive(Debug, Clone)]
pub(crate) struct PrimaryInfo {
    pub coupling: CouplingId,
    pub aggressor: NetId,
    pub pulse: NoisePulse,
    pub eat: f64,
    pub lat: f64,
}

impl PrimaryInfo {
    /// Envelope with the LAT side of the window moved by `delta`
    /// (positive widens — higher-order addition; negative narrows —
    /// higher-order elimination).
    pub fn envelope(&self, delta: f64) -> Envelope {
        let lat = (self.lat + delta).max(self.eat);
        Envelope::from_window(&self.pulse, self.eat, lat)
    }
}

/// Precomputed, mode-specific state shared by the enumeration.
pub(crate) struct Prepared<'c> {
    pub circuit: &'c Circuit,
    pub config: TopKConfig,
    pub mode: Mode,
    /// Noiseless timing (victim transitions are always measured here).
    pub base: TimingReport,
    /// Converged full-noise report (elimination mode only).
    pub noisy: Option<NoiseReport>,
    /// Aggressor windows the envelopes are built from: noiseless for
    /// addition, noisy for elimination.
    pub window_timings: Vec<NetTiming>,
    /// Noiseless victim transition per net.
    pub victim_tr: Vec<Transition>,
    /// Primary aggressors per victim net.
    pub primaries: Vec<Vec<PrimaryInfo>>,
    /// Dominance interval per victim net (§3.2).
    pub dominance_iv: Vec<TimeInterval>,
    /// Clipping window per victim net: envelopes outside it cannot affect
    /// the victim's final crossing, so envelope algebra drops them.
    pub clip_iv: Vec<TimeInterval>,
    /// Upper bound on how far each net's latest arrival can shift under
    /// any noise (infinite-window own noise plus accumulated fanin bound).
    /// Higher-order window widening is capped here so clipped envelopes
    /// stay sound.
    pub shift_bound: Vec<f64>,
    /// Couplings participating in this run.
    pub mask: CouplingMask,
    /// The owning engine's fault-injection hooks.
    pub faults: Faults,
    /// Per net: memoized fanin wideners of that net as an aggressor —
    /// couplings in its transitive fanin cone ranked by the delay noise
    /// they can add to its arrival, descending. One `OnceLock` slot per
    /// net keeps the memo `Sync` without a global lock: concurrent sweep
    /// workers racing on the same net block only each other, and the
    /// ranking is a pure function of immutable state, so whichever worker
    /// initializes the slot writes the same value.
    wideners: Vec<OnceLock<RankedWideners>>,
}

impl<'c> Prepared<'c> {
    /// Builds all shared state for one run of `analysis` over the
    /// couplings enabled in `mask` (the full mask for ordinary runs;
    /// restricted masks support what-if sessions and peeled elimination).
    pub fn build(
        analysis: &TopKAnalysis<'c>,
        mode: Mode,
        mask: CouplingMask,
    ) -> Result<Self, TopKError> {
        let (circuit, config, noise, faults) =
            (analysis.circuit, analysis.config, &analysis.noise, analysis.faults);
        faults.maybe_panic_in_prepare();
        let base =
            TimingReport::run(circuit, &dna_sta::LinearDelayModel::new(), &config.noise.sta)?;
        let noisy = match mode {
            Mode::Addition => None,
            Mode::Elimination => Some(noise.run_with_mask(&mask)?),
        };
        let window_timings: Vec<NetTiming> = match &noisy {
            None => base.timings().to_vec(),
            Some(r) => r.noisy_timing().timings().to_vec(),
        };
        let victim_tr: Vec<Transition> = base
            .timings()
            .iter()
            .map(|t| Transition::from_t50(t.lat(), t.slew(), Edge::Rising))
            .collect();

        // Primary aggressors with pulses and windows per victim.
        let mut primaries: Vec<Vec<PrimaryInfo>> = Vec::with_capacity(circuit.num_nets());
        for v in circuit.net_ids() {
            let envelopes =
                envelope_calc::victim_envelopes(circuit, &config.noise, v, &window_timings, |id| {
                    mask.is_enabled(id)
                });
            let mut infos = Vec::with_capacity(envelopes.len());
            for (id, _) in envelopes {
                let Some(aggressor) = circuit.coupling(id).other(v) else {
                    return Err(TopKError::Internal {
                        what: format!(
                            "coupling {} reported for victim {} does not touch it",
                            id.index(),
                            v.index()
                        ),
                    });
                };
                let at = &window_timings[aggressor.index()];
                let pulse = pulse_for(circuit, &config, v, id, at.slew());
                infos.push(PrimaryInfo {
                    coupling: id,
                    aggressor,
                    pulse,
                    eat: at.eat(),
                    lat: at.lat(),
                });
            }
            primaries.push(infos);
        }

        // Dominance interval: victim t50 up to the upper-bound noisy t50.
        // The upper bound is the infinite-window delay noise of the
        // victim's own aggressors plus an accumulated bound on the shift
        // arriving from the fanin cone (§3.2).
        //
        // The "effectively infinite" widening horizon is derived from the
        // *noiseless* timing, never from the mask-dependent window
        // timings: what-if sessions compare per-net state across masks to
        // decide which victims to recompute, and a mask-dependent horizon
        // would perturb every net's dominance interval whenever any
        // coupling is toggled, poisoning the whole cache. The margin is
        // doubled relative to the old window-derived formula (`*2 + 1000`
        // over noisy windows), so it still exceeds any reachable noisy
        // arrival; enlarging it only widens the conservative bounds.
        let horizon =
            base.timings().iter().map(NetTiming::lat).fold(0.0_f64, f64::max) * 4.0 + 2_000.0;
        let own_ub: Vec<f64> = circuit
            .net_ids()
            .map(|v| {
                let combined =
                    Envelope::sum_all(primaries[v.index()].iter().map(|p| p.envelope(horizon)));
                superposition::delay_noise(&victim_tr[v.index()], &combined)
            })
            .collect();
        let mut fanin_ub = vec![0.0_f64; circuit.num_nets()];
        for &net in circuit.nets_topological() {
            if let NetSource::Gate(g) = circuit.net(net).source() {
                let bound = circuit
                    .gate(g)
                    .inputs()
                    .iter()
                    .map(|&u| fanin_ub[u.index()] + own_ub[u.index()])
                    .fold(0.0_f64, f64::max);
                fanin_ub[net.index()] = bound;
            }
        }
        let dominance_iv: Vec<TimeInterval> = circuit
            .net_ids()
            .map(|v| {
                let t50 = victim_tr[v.index()].t50();
                let ub = own_ub[v.index()] + fanin_ub[v.index()];
                TimeInterval::new(t50, t50 + ub.max(1e-6))
            })
            .collect();

        // Envelope mass strictly before the victim's noiseless t50 can
        // never move the *final* 50 % crossing (the ramp is below half
        // rail there anyway — the same observation that anchors the
        // dominance interval, §3.2), so envelopes are clipped to just
        // below t50.
        let clip_iv: Vec<TimeInterval> = circuit
            .net_ids()
            .map(|v| {
                let t50 = victim_tr[v.index()].t50();
                TimeInterval::new(t50 - 1.0, dominance_iv[v.index()].hi() + 1.0)
            })
            .collect();

        let shift_bound: Vec<f64> =
            (0..circuit.num_nets()).map(|i| own_ub[i] + fanin_ub[i]).collect();
        debug_assert!(
            shift_bound.iter().all(|s| s.is_finite() && *s >= 0.0),
            "shift bounds must be finite and non-negative"
        );
        debug_assert!(
            circuit.net_ids().all(|v| {
                let d = dominance_iv[v.index()];
                let c = clip_iv[v.index()];
                c.lo() <= d.lo() && d.hi() <= c.hi()
            }),
            "clip window must cover the dominance interval"
        );

        Ok(Self {
            circuit,
            config,
            mode,
            base,
            noisy,
            window_timings,
            victim_tr,
            primaries,
            dominance_iv,
            clip_iv,
            shift_bound,
            mask,
            faults,
            wideners: (0..circuit.num_nets()).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Delay noise `envelope` produces on `victim`'s noiseless transition.
    pub fn delay_noise_at(&self, victim: NetId, envelope: &Envelope) -> f64 {
        superposition::delay_noise(&self.victim_tr[victim.index()], envelope)
    }

    /// Delay noise of `a.sum(b)` on `victim`, streamed without building
    /// the sum ([`Envelope::sum_delay_noise`]).
    pub fn sum_delay_noise_at(&self, victim: NetId, a: &Envelope, b: &Envelope) -> f64 {
        a.sum_delay_noise(b, &self.victim_tr[victim.index()])
    }

    /// Delay noise of `a.saturating_sub(b)` on `victim`, streamed without
    /// building the difference ([`Envelope::saturating_sub_delay_noise`]).
    pub fn saturating_sub_delay_noise_at(&self, victim: NetId, a: &Envelope, b: &Envelope) -> f64 {
        a.saturating_sub_delay_noise(b, &self.victim_tr[victim.index()])
    }

    /// The envelope of one primary aggressor at `victim`, with the LAT
    /// side of its window moved by `delta`, clipped to the victim's
    /// analysis window (see [`Self::clip_iv`]).
    pub fn primary_envelope(&self, victim: NetId, info: &PrimaryInfo, delta: f64) -> Envelope {
        info.envelope(delta).clipped(self.clip_iv[victim.index()])
    }

    /// Pseudo noise envelope seen by `victim` when its input arrival is
    /// delayed by `shift` ps (§3.1): the difference between the noiseless
    /// victim transition and the same transition delayed by `shift`.
    pub fn pseudo_envelope(&self, victim: NetId, shift: f64) -> Envelope {
        pseudo_envelope(&self.victim_tr[victim.index()], shift)
    }

    /// The critical fanin input of `victim`'s driver under the window
    /// timings of this mode, with the arrival of every input.
    ///
    /// Returns `None` for primary inputs.
    pub fn fanin_arrivals(&self, victim: NetId) -> Option<Vec<(NetId, f64)>> {
        match self.circuit.net(victim).source() {
            NetSource::PrimaryInput => None,
            NetSource::Gate(g) => Some(
                self.circuit
                    .gate(g)
                    .inputs()
                    .iter()
                    .map(|&u| (u, self.window_timings[u.index()].lat()))
                    .collect(),
            ),
        }
    }

    /// Noiseless arrivals of `victim`'s driver inputs.
    pub fn fanin_base_arrivals(&self, victim: NetId) -> Option<Vec<(NetId, f64)>> {
        match self.circuit.net(victim).source() {
            NetSource::PrimaryInput => None,
            NetSource::Gate(g) => Some(
                self.circuit
                    .gate(g)
                    .inputs()
                    .iter()
                    .map(|&u| (u, self.base.timing(u).lat()))
                    .collect(),
            ),
        }
    }

    /// Ranked fanin wideners of `aggressor`: couplings in its transitive
    /// fanin cone with the delay noise each can contribute to the
    /// aggressor's arrival (via its cone endpoint), descending. Memoized
    /// in a per-net `OnceLock` slot, race-free under the parallel sweep.
    pub fn wideners_of(&self, aggressor: NetId) -> RankedWideners {
        Arc::clone(self.wideners[aggressor.index()].get_or_init(|| {
            let cone = if self.config.widener_depth == usize::MAX {
                self.circuit.transitive_fanin(aggressor)
            } else {
                self.circuit.transitive_fanin_depth(aggressor, self.config.widener_depth)
            };
            let mut in_cone = vec![false; self.circuit.num_nets()];
            for n in &cone {
                in_cone[n.index()] = true;
            }
            let mut seen = vec![false; self.circuit.num_couplings()];
            let mut ranked: Vec<(CouplingId, f64)> = Vec::new();
            for x in cone {
                for &cc in self.circuit.couplings_on(x) {
                    if seen[cc.index()] || !self.mask.is_enabled(cc) {
                        continue;
                    }
                    seen[cc.index()] = true;
                    let env = envelope_calc::coupling_envelope(
                        self.circuit,
                        &self.config.noise,
                        x,
                        cc,
                        &self.window_timings,
                    );
                    let dn = self.delay_noise_at(x, &env);
                    if dn > 0.0 {
                        ranked.push((cc, dn));
                    }
                }
            }
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            Arc::new(ranked)
        }))
    }
}

/// Per-victim output of one sweep step: the victim's irredundant lists by
/// cardinality plus its enumeration counters.
pub(crate) struct VictimLists {
    /// `lists[i]` = irredundant list of cardinality `i` (index 0 = the
    /// empty / total baseline set).
    pub lists: Vec<Vec<Candidate>>,
    /// The victim's enumeration counters.
    pub counters: VictimCounters,
}

impl VictimLists {
    /// The lists of a victim that contributed nothing: quarantined by a
    /// fault or skipped by an exhausted budget. Sound downstream — every
    /// consumer treats a missing list as "no candidates here".
    fn empty(curtailment: Curtailment) -> Self {
        Self { lists: Vec::new(), counters: VictimCounters { curtailment, ..Default::default() } }
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!`, asserts and `expect`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Per-victim sweep state, indexed by net: irredundant lists, enumeration
/// counters and the fault quarantines (sorted by victim). A sweep reads a
/// cached copy and returns a fresh one; a full run starts from
/// [`Swept::empty`].
pub(crate) struct Swept {
    pub lists: Vec<NetLists>,
    pub counters: Vec<VictimCounters>,
    pub faults: Vec<Fault>,
}

impl Swept {
    /// The cache of a circuit nothing has been swept on yet.
    pub fn empty(nets: usize) -> Self {
        Self {
            lists: vec![NetLists::default(); nets],
            counters: vec![VictimCounters::default(); nets],
            faults: Vec::new(),
        }
    }
}

/// One scenario of a [`sweep`]: a prepared world, the cached state of an
/// earlier sweep, and the victims to recompute. Every victim not flagged
/// in `dirty` is served from the cache.
pub(crate) struct Scenario<'s, 'c> {
    pub prepared: &'s Prepared<'c>,
    pub lists: &'s [NetLists],
    pub counters: &'s [VictimCounters],
    pub faults: &'s [Fault],
    pub dirty: &'s [bool],
}

impl<'s, 'c> Scenario<'s, 'c> {
    /// A scenario re-sweeping the `dirty` victims of `cache`.
    pub fn cached(prepared: &'s Prepared<'c>, cache: &'s Swept, dirty: &'s [bool]) -> Self {
        Self {
            prepared,
            lists: &cache.lists,
            counters: &cache.counters,
            faults: &cache.faults,
            dirty,
        }
    }
}

/// Runs one victim under the fault boundary: the pre-partitioned skip
/// decision first, then the enumeration inside `catch_unwind`. A panic or
/// typed error quarantines the victim (empty lists + a [`Fault`]) instead
/// of aborting the sweep — stolen or not, a task's blast radius is its
/// own victim. `skip` and `allowance` are the victim's budget share from
/// [`BudgetPartition`], fixed before the sweep started.
fn run_one(
    v: NetId,
    ilists: &Slots,
    skip: bool,
    allowance: usize,
    per_victim: &PerVictim<'_>,
    faults: &Faults,
) -> (VictimLists, Option<Fault>) {
    if skip {
        return (VictimLists::empty(Curtailment::Skipped), None);
    }
    // `AssertUnwindSafe` is justified: on unwind the victim's outputs are
    // discarded wholesale (it gets empty lists), the shared inputs are
    // immutable, and the only cross-victim mutable state — the widener
    // memo — is a `OnceLock` that stays internally consistent at every
    // point.
    let guarded = catch_unwind(AssertUnwindSafe(|| {
        faults.maybe_panic_at_victim(v);
        per_victim(v, ilists, allowance)
    }));
    match guarded {
        Ok(Ok(out)) => (out, None),
        Ok(Err(e)) => (
            VictimLists::empty(Curtailment::None),
            Some(Fault::new(v, FaultPhase::Enumeration, e.to_string())),
        ),
        Err(payload) => (
            VictimLists::empty(Curtailment::None),
            Some(Fault::new(v, FaultPhase::Enumeration, panic_message(payload.as_ref()))),
        ),
    }
}

/// The per-victim enumeration of one scenario, boxed so both modes fit
/// one array (dispatch cost is noise next to envelope algebra).
type PerVictim<'p> =
    Box<dyn Fn(NetId, &Slots, usize) -> Result<VictimLists, TopKError> + Sync + 'p>;

/// The scenario sweep: builds the irredundant lists of every dirty victim
/// of every scenario on `threads` workers, serving clean victims from
/// each scenario's cache, and returns each scenario's merged state plus
/// the scheduler counters.
///
/// A full run (and every peel round) is one all-dirty scenario over
/// [`Swept::empty`]; a what-if apply and a batch of what-ifs are
/// scenarios over cached state. A victim's work reads the published lists of its strict fanin
/// only (pseudo atoms), never siblings or another scenario's nets, so
/// every (scenario, victim) pair is one task on the deterministic
/// work-stealing scheduler ([`crate::sched`]): edges for exactly the
/// driver-gate inputs that are themselves dirty, victim-indexed
/// write-once result slots per scenario ([`Slots`]), and one budget
/// partition per scenario over its dirty set in victim-index order
/// ([`BudgetPartition`]). Clean victims consume no share.
///
/// Identity: provided each scenario's dirty set covers every victim whose
/// enumeration inputs changed since its cache was swept (the dirty
/// closure guarantees this), clean victims' cached lists equal a
/// from-scratch sweep's, dirty victims read bit-identical fanin lists,
/// and each scenario's output is bit-identical to a full sweep of its
/// prepared world alone — at any thread count and steal order, because
/// the per-victim function is pure, the slots are disjoint and the budget
/// shares are fixed up front. (A global candidate budget is the one
/// exception: a scenario charges only its dirty victims, so its pool
/// stretches further than a full sweep's.)
///
/// Every victim runs inside [`run_one`]'s fault boundary; a failed victim
/// lands in its scenario's faults instead of aborting the sweep. Those
/// merge with the cached faults of the scenario's clean victims, sorted
/// by victim. The sweep itself only errs when the harness breaks (a
/// worker dying outside the per-victim boundary).
pub(crate) fn sweep(
    scenarios: &[Scenario<'_, '_>],
    k: usize,
    threads: usize,
) -> Result<(Vec<Swept>, SchedStats), TopKError> {
    let Some(first) = scenarios.first() else {
        return Ok((Vec::new(), SchedStats::default()));
    };
    let circuit = first.prepared.circuit;
    let per_victims: Vec<PerVictim<'_>> = scenarios
        .iter()
        .map(|sc| match sc.prepared.mode {
            Mode::Addition => Box::new(addition::per_victim_fn(sc.prepared, k)) as PerVictim<'_>,
            Mode::Elimination => Box::new(elimination::per_victim_fn(sc.prepared, k)),
        })
        .collect();

    // Budget ranks: each scenario's dirty victims in victim-index order, a
    // pure function of (config, dirty set) — the schedule can never move
    // a share.
    let mut rank_of: Vec<Vec<usize>> = Vec::with_capacity(scenarios.len());
    let mut partitions: Vec<BudgetPartition> = Vec::with_capacity(scenarios.len());
    for sc in scenarios {
        let mut ranks = vec![usize::MAX; sc.dirty.len()];
        let mut work = 0usize;
        for (i, &d) in sc.dirty.iter().enumerate() {
            if d {
                ranks[i] = work;
                work += 1;
            }
        }
        rank_of.push(ranks);
        partitions.push(BudgetPartition::new(&sc.prepared.config, work));
    }

    // Tasks scenario-major, each scenario's victims in topological order
    // (so the serial reference path is a plain loop and dependency edges,
    // which never cross scenarios, always point forward).
    let mut order: Vec<(usize, NetId)> = Vec::new();
    let mut task_of: Vec<Vec<usize>> =
        scenarios.iter().map(|sc| vec![usize::MAX; sc.dirty.len()]).collect();
    for (s, sc) in scenarios.iter().enumerate() {
        for &v in circuit.nets_topological() {
            if sc.dirty[v.index()] {
                task_of[s][v.index()] = order.len();
                order.push((s, v));
            }
        }
    }
    let mut tasks: Vec<sched::Task> = order
        .iter()
        .map(|&(s, v)| sched::Task {
            dependents: Vec::new(),
            indegree: 0,
            cost: cost_estimate(scenarios[s].prepared, scenarios[s].counters, v),
        })
        .collect();
    for (t, &(s, v)) in order.iter().enumerate() {
        if let NetSource::Gate(g) = circuit.net(v).source() {
            for &u in circuit.gate(g).inputs() {
                let d = task_of[s][u.index()];
                if d != usize::MAX {
                    tasks[d].dependents.push(t);
                    tasks[t].indegree += 1;
                }
            }
        }
    }

    let parallel = threads > 1 && tasks.len() > 1;
    let slots: Vec<Slots> =
        scenarios.iter().map(|sc| Slots::from_seeds(sc.lists, sc.dirty)).collect();
    let (done, sched) = sched::execute(&tasks, threads, |t| {
        let (s, v) = order[t];
        let (skip_share, allowance) = partitions[s].share(rank_of[s][v.index()]);
        let skip = skip_share || partitions[s].expired();
        let faults = &scenarios[s].prepared.faults;
        let (out, fault) = run_one(v, &slots[s], skip, allowance, &per_victims[s], faults);
        // Fault-sim hook for the oracle: corrupt the parallel scheduler's
        // published slot (never the serial reference's) so
        // `Oracle::check_parallel` has something real to catch.
        let lists = if parallel && faults.corrupt_sched_slot == Some(v.index()) {
            Vec::new()
        } else {
            out.lists
        };
        // Fault-sim hook for the quarantine path: a dropped publication
        // leaves a hole for `into_lists` to detect and degrade on.
        if faults.drop_sched_publish != Some(v.index()) {
            slots[s].publish(v, Arc::new(lists));
        }
        (s, v, out.counters, fault)
    })?;

    // Clean victims keep their cached faults (their cached empty lists
    // came from those quarantines); dirty victims report fresh ones.
    let mut swept: Vec<Swept> = scenarios
        .iter()
        .map(|sc| Swept {
            lists: Vec::new(),
            counters: sc.counters.to_vec(),
            faults: sc.faults.iter().filter(|f| !sc.dirty[f.victim().index()]).cloned().collect(),
        })
        .collect();
    for (s, v, counters, fault) in done {
        swept[s].counters[v.index()] = counters;
        swept[s].faults.extend(fault);
    }
    for (out, slots) in swept.iter_mut().zip(slots) {
        let (lists, violations) = slots.into_lists();
        out.lists = lists;
        out.faults.extend(quarantine_slot_violations(violations));
        out.faults.sort_by_key(|f| f.victim().index());
    }
    Ok((swept, sched))
}

/// A from-scratch sweep of one prepared world on `threads` workers: one
/// all-dirty scenario over an empty cache.
pub(crate) fn sweep_full(
    p: &Prepared<'_>,
    k: usize,
    threads: usize,
) -> Result<(Swept, SchedStats), TopKError> {
    let n = p.circuit.num_nets();
    let (empty, dirty) = (Swept::empty(n), vec![true; n]);
    let (mut swept, sched) = sweep(&[Scenario::cached(p, &empty, &dirty)], k, threads)?;
    Ok((swept.pop().expect("one scenario in, one out"), sched))
}

/// LPT cost estimate of one victim's enumeration: the cached
/// generated-candidate count when a what-if session has one, the
/// primary-aggressor count otherwise. Costs steer only the scheduler's
/// seeding — they can never affect a single output bit.
fn cost_estimate(p: &Prepared<'_>, seed_counters: &[VictimCounters], v: NetId) -> u64 {
    let cached = seed_counters[v.index()].generated;
    if cached > 0 {
        cached as u64
    } else {
        p.primaries[v.index()].len() as u64 + 1
    }
}

/// Converts the typed slot violations a sweep's `into_lists` surfaced
/// into per-victim quarantine [`Fault`]s: the victim keeps empty lists
/// (a sound lower bound), the result degrades, the process lives.
fn quarantine_slot_violations(violations: Vec<TopKError>) -> impl Iterator<Item = Fault> {
    violations.into_iter().map(|e| {
        let victim = match &e {
            TopKError::SchedulerInvariant { victim, .. } => *victim,
            _ => 0,
        };
        Fault::new(NetId::new(victim as u32), FaultPhase::Enumeration, e.to_string())
    })
}

/// Pseudo envelope of a transition delayed by `shift` (paper §3.1).
///
/// For a rising transition `T`, the envelope is `T(t) - T(t - shift)`:
/// non-negative, zero-tailed, and superimposing it back onto `T` delays
/// the 50 % crossing by exactly `shift`.
pub(crate) fn pseudo_envelope(transition: &Transition, shift: f64) -> Envelope {
    if shift <= 0.0 {
        return Envelope::zero();
    }
    let clean = transition.to_pwl();
    let delayed = transition.shifted(shift).to_pwl();
    let diff = match transition.edge() {
        Edge::Rising => &clean - &delayed,
        Edge::Falling => &delayed - &clean,
    };
    Envelope::from_curve(&diff)
}

/// Noise pulse of one coupling onto `victim` (shared with `Prepared`).
fn pulse_for(
    circuit: &Circuit,
    config: &TopKConfig,
    victim: NetId,
    coupling: CouplingId,
    aggressor_slew: f64,
) -> NoisePulse {
    use dna_noise::{CouplingContext, CouplingModel};
    let cc = circuit.coupling(coupling);
    let victim_resistance = circuit
        .driver_cell(victim)
        .map_or(config.noise.pi_resistance, |cell| cell.drive_resistance);
    let ground_cap = (circuit.load_cap(victim) - cc.cap()).max(0.0);
    config.noise.coupling.noise_pulse(&CouplingContext {
        coupling_cap: cc.cap(),
        victim_ground_cap: ground_cap,
        victim_resistance,
        aggressor_slew,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::{CellKind, CircuitBuilder, Library};

    fn coupled() -> Circuit {
        let mut b = CircuitBuilder::new(Library::cmos013());
        let a = b.input("a");
        let x = b.input("x");
        let v = b.gate(CellKind::Buf, "v", &[a]).unwrap();
        let g = b.gate(CellKind::Buf, "g", &[x]).unwrap();
        let w = b.gate(CellKind::Inv, "w", &[v]).unwrap();
        b.output(w);
        b.output(g);
        b.coupling(v, g, 8.0).unwrap();
        b.coupling(w, g, 4.0).unwrap();
        b.build().unwrap()
    }

    fn prepared(_mode: Mode) -> (Circuit, TopKConfig) {
        (coupled(), TopKConfig::default())
    }

    #[test]
    fn pseudo_envelope_round_trips_shift() {
        let t = Transition::new(100.0, 20.0, Edge::Rising);
        for shift in [0.5, 3.0, 10.0, 50.0] {
            let env = pseudo_envelope(&t, shift);
            let dn = superposition::delay_noise(&t, &env);
            assert!(
                (dn - shift).abs() < 1e-9,
                "pseudo envelope for shift {shift} produced delay {dn}"
            );
        }
        assert!(pseudo_envelope(&t, 0.0).is_zero());
    }

    #[test]
    fn pseudo_envelope_handles_falling_edges() {
        let t = Transition::new(100.0, 20.0, Edge::Falling);
        let env = pseudo_envelope(&t, 5.0);
        assert!(!env.is_zero());
        assert!(env.peak() > 0.0);
    }

    #[test]
    fn build_addition_has_no_noisy_report() {
        let (c, config) = prepared(Mode::Addition);
        let engine = TopKAnalysis::new(&c, config);
        let p = Prepared::build(&engine, Mode::Addition, CouplingMask::all(&c)).unwrap();
        assert!(p.noisy.is_none());
        assert_eq!(p.window_timings.len(), c.num_nets());
        // Windows equal the noiseless timing.
        for n in c.net_ids() {
            assert_eq!(p.window_timings[n.index()].lat(), p.base.timing(n).lat());
        }
    }

    #[test]
    fn build_elimination_windows_are_noisy() {
        let (c, config) = prepared(Mode::Elimination);
        let engine = TopKAnalysis::new(&c, config);
        let p = Prepared::build(&engine, Mode::Elimination, CouplingMask::all(&c)).unwrap();
        assert!(p.noisy.is_some());
        // At least one window extends past its noiseless counterpart.
        let widened =
            c.net_ids().any(|n| p.window_timings[n.index()].lat() > p.base.timing(n).lat() + 1e-9);
        assert!(widened, "elimination windows should include delay noise");
    }

    #[test]
    fn primaries_cover_couplings_per_victim() {
        let (c, config) = prepared(Mode::Addition);
        let engine = TopKAnalysis::new(&c, config);
        let p = Prepared::build(&engine, Mode::Addition, CouplingMask::all(&c)).unwrap();
        let v = c.net_by_name("v").unwrap();
        let g = c.net_by_name("g").unwrap();
        assert_eq!(p.primaries[v.index()].len(), 1);
        assert_eq!(p.primaries[g.index()].len(), 2);
        // Envelope with zero delta matches the window.
        let info = &p.primaries[v.index()][0];
        let env = info.envelope(0.0);
        assert!(!env.is_zero());
        let wide = info.envelope(100.0);
        assert!(wide.encapsulates(&env, TimeInterval::new(-1e4, 1e4)));
    }

    #[test]
    fn wideners_ranked_descending() {
        let (c, config) = prepared(Mode::Addition);
        let engine = TopKAnalysis::new(&c, config);
        let p = Prepared::build(&engine, Mode::Addition, CouplingMask::all(&c)).unwrap();
        let w = c.net_by_name("w").unwrap();
        let wd = p.wideners_of(w);
        for pair in wd.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        // Memoized: same Arc returned.
        let again = p.wideners_of(w);
        assert!(Arc::ptr_eq(&wd, &again));
    }

    #[test]
    fn prepared_is_shareable_across_threads() {
        // Compile-time guarantee the parallel sweep rests on: a `&Prepared`
        // can be handed to scoped worker threads.
        fn assert_sync<T: Sync>() {}
        assert_sync::<Prepared<'static>>();
    }

    #[test]
    fn dominance_interval_anchored_at_t50() {
        let (c, config) = prepared(Mode::Addition);
        let engine = TopKAnalysis::new(&c, config);
        let p = Prepared::build(&engine, Mode::Addition, CouplingMask::all(&c)).unwrap();
        for n in c.net_ids() {
            let iv = p.dominance_iv[n.index()];
            assert!((iv.lo() - p.victim_tr[n.index()].t50()).abs() < 1e-9);
            assert!(iv.width() > 0.0);
        }
    }
}
