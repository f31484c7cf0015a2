//! The top-k aggressors **addition** set (paper §3.3, Fig. 9).
//!
//! Starting from noiseless timing, find the set of `k` couplings whose
//! delay noise, added to the analysis, increases the circuit delay the
//! most. Implicit enumeration: per victim (topological order) build
//! irredundant lists `I-list_1 … I-list_k` from
//!
//! 1. extensions of `I-list_{i-1}` by one primary aggressor,
//! 2. pseudo input aggressors propagated from the driver's fanin
//!    (paper §3.1),
//! 3. higher-order aggressors — primaries with windows widened by their
//!    strongest fanin wideners (paper §3.3, the `b1₂` construction),
//!
//! pruned by dominance (Theorem 1) after every step. Every admitted
//! candidate's envelope is materialized through the scratch-arena sum
//! kernels (`arena.rs`); dominance is the only pruning rule.

use std::collections::HashSet;

use dna_netlist::NetId;
use dna_waveform::Envelope;

use crate::dominance::{irredundant_with_discard, DominanceDirection};
use crate::engine::{Curtailment, NetLists, Prepared, SweepTotals, VictimCounters, VictimLists};
use crate::sched::Slots;
use crate::{arena, Candidate, CouplingSet, TopKError};

/// How many of the best fanin candidates combine with lower-cardinality
/// sets (beyond plain primary extension). Keeps the cross-product bounded
/// while still generating paper-Fig. 8-style mixed sets like `(b1₂, a1)`.
const COMBO_BREADTH: usize = 4;

/// How many ranked wideners get an *individual* higher-order atom (beyond
/// the cumulative prefix sets).
const WIDENER_POOL: usize = 4;

/// One candidate final answer: a coupling set with its predicted circuit
/// delay and the sink output it acts on.
#[derive(Debug, Clone)]
pub(crate) struct SinkOption {
    /// The coupling set (cardinality `<= k`; less only when the circuit
    /// has fewer useful couplings).
    pub set: CouplingSet,
    /// Predicted circuit delay from envelope superposition at the sink.
    pub predicted_delay: f64,
    /// The sink (primary output) where the set acts.
    pub sink: NetId,
}

/// Raw outcome of the enumeration, before validation.
#[derive(Debug, Clone)]
pub(crate) struct EnumerationOutcome {
    /// Candidate answers, best predicted first, deduplicated by set.
    pub options: Vec<SinkOption>,
    /// Aggregated sweep counters: list widths, enumeration effort, and
    /// how many victims budgets curtailed.
    pub totals: SweepTotals,
}

/// One addable atom: a coupling set with its envelope at the current
/// victim.
struct Atom {
    set: CouplingSet,
    envelope: Envelope,
}

/// The per-victim enumeration as a closure for the scenario sweep
/// ([`crate::engine::sweep`]). The closure's `allowance` argument is the
/// victim's pre-partitioned budget share.
pub(crate) fn per_victim_fn<'a>(
    p: &'a Prepared<'_>,
    k: usize,
) -> impl Fn(NetId, &Slots, usize) -> Result<VictimLists, TopKError> + Sync + 'a {
    let breadth = if p.config.max_list_width.is_none() { usize::MAX } else { COMBO_BREADTH };
    move |v, ilists: &Slots, allowance: usize| victim_lists(p, k, breadth, v, ilists, allowance)
}

/// The sink-selection stage on its own (see [`select_sink`]).
pub(crate) fn select(
    p: &Prepared<'_>,
    k: usize,
    ilists: &[NetLists],
    counters: &[VictimCounters],
) -> Result<EnumerationOutcome, TopKError> {
    let totals = VictimCounters::aggregate(counters);
    Ok(select_sink(p, k, ilists, totals))
}

/// Builds one victim's irredundant lists `I-list_1 … I-list_k`. Reads
/// `ilists` only at the victim's driver inputs (strict fanin), which the
/// scheduler's dependency edges guarantee are published.
///
/// `allowance` caps raw candidate generation: the victim's pre-partitioned
/// budget share (the smaller of the per-victim cap and its deterministic
/// slice of the global pool) bounds how many candidates may be admitted;
/// on breach the remaining candidates are dropped — dominance keeps the
/// strongest survivors of what exists, a sound lower bound — and the
/// victim is marked [`Curtailment::Truncated`] — which
/// [`Oracle::check_parallel`](crate::Oracle::check_parallel) cross-checks
/// against the serial reference.
fn victim_lists(
    p: &Prepared<'_>,
    k: usize,
    breadth: usize,
    v: NetId,
    ilists: &Slots,
    allowance: usize,
) -> Result<VictimLists, TopKError> {
    let vi = v.index();
    let iv = p.dominance_iv[vi];
    let mut peak_list_width = 0usize;
    let mut generated = 0usize;
    let mut truncated = false;

    // --- Atom pool -------------------------------------------------
    // Primaries whose clipped envelope is zero cannot change the
    // victim's crossing; they (and their higher-order variants) are
    // dropped up front — exactly the sets dominance would prune anyway.
    let primary_atoms: Vec<Atom> = p.primaries[vi]
        .iter()
        .filter_map(|info| {
            let envelope = p.primary_envelope(v, info, 0.0);
            if envelope.is_zero() {
                return None;
            }
            Some(Atom { set: CouplingSet::singleton(info.coupling), envelope })
        })
        .collect();

    // Pseudo input aggressors: sets propagated from the driver's fanin
    // rendered as arrival-shift envelopes at this victim (§3.1). The same
    // fanin set can reach here through several (input, cardinality)
    // routes; only the largest shift can matter (a pseudo envelope grows
    // pointwise with its shift), so duplicates are collapsed to their
    // maximum shift *before* any envelope is rendered or any budget is
    // charged. First-occurrence order is kept for determinism.
    let mut pseudo_atoms: Vec<Atom> = Vec::new();
    if p.config.pseudo_aggressors {
        if let Some(arrivals) = p.fanin_base_arrivals(v) {
            let max_base = arrivals.iter().map(|&(_, a)| a).fold(f64::NEG_INFINITY, f64::max);
            let mut shifts: Vec<(CouplingSet, f64)> = Vec::new();
            for &(u, arr_u) in &arrivals {
                for c in 1..=k {
                    let Some(list) = ilists.lists(u)?.get(c) else { continue };
                    for cand in list.iter().take(breadth) {
                        let shift = (arr_u + cand.delay_noise() - max_base).max(0.0);
                        if shift <= 0.0 {
                            continue;
                        }
                        match shifts.iter_mut().find(|(s, _)| s == cand.set()) {
                            Some((_, best)) => {
                                if shift > *best {
                                    *best = shift;
                                }
                            }
                            None => shifts.push((cand.set().clone(), shift)),
                        }
                    }
                }
            }
            pseudo_atoms = shifts
                .into_iter()
                .map(|(set, shift)| Atom { set, envelope: p.pseudo_envelope(v, shift) })
                .collect();
        }
    }

    // Higher-order aggressors: each primary with its window widened by
    // its j strongest fanin wideners has innate cardinality j + 1.
    let mut higher_atoms: Vec<Atom> = Vec::new();
    if p.config.higher_order && k >= 2 {
        for info in &p.primaries[vi] {
            let wideners = p.wideners_of(info.aggressor);
            // Higher-order variants widen the window rightward by at
            // most the sum of all widener contributions; if even that
            // maximally-widened envelope clips to zero the primary can
            // never matter here.
            let cap = p.shift_bound[info.aggressor.index()];
            let max_delta: f64 = wideners.iter().map(|&(_, dn)| dn).sum::<f64>().min(cap);
            if p.primary_envelope(v, info, max_delta).is_zero() {
                continue;
            }
            // Prefix sets: primary plus its j strongest wideners.
            let mut set = CouplingSet::singleton(info.coupling);
            let mut delta = 0.0;
            for &(cc, dn) in wideners.iter().take(k - 1) {
                let grown = set.with(cc);
                if grown.len() == set.len() {
                    continue; // widener collides with an existing member
                }
                set = grown;
                delta = (delta + dn).min(cap);
                let envelope = p.primary_envelope(v, info, delta);
                higher_atoms.push(Atom { set: set.clone(), envelope });
            }
            // Individual wideners: primary plus one lower-ranked
            // widener, for sets where the top widener is spoken for.
            for &(cc, dn) in wideners.iter().take(WIDENER_POOL).skip(1) {
                let set = CouplingSet::singleton(info.coupling).with(cc);
                if set.len() == 2 {
                    let envelope = p.primary_envelope(v, info, dn.min(cap));
                    higher_atoms.push(Atom { set, envelope });
                }
            }
        }
    }
    // --- Iterative list construction -------------------------------
    let mut lists: Vec<Vec<Candidate>> = Vec::with_capacity(k + 1);
    lists.push(vec![Candidate::new(CouplingSet::new(), Envelope::zero(), 0.0)]);
    for i in 1..=k {
        let mut cands: Vec<Candidate> = Vec::new();
        // Admits `member ⊕ atom` (the atom alone when `member` is `None`)
        // unless the budget is spent, materializing its envelope through
        // the scratch arena.
        let mut admit = |set: CouplingSet,
                         member: Option<&Candidate>,
                         atom: &Atom,
                         cands: &mut Vec<Candidate>|
         -> Result<(), TopKError> {
            if generated >= allowance {
                truncated = true;
                return Ok(());
            }
            generated += 1;
            let env = match member {
                None => atom.envelope.clone_into(arena::take_buf()),
                Some(m) => m.envelope().sum_into(&atom.envelope, arena::take_buf()),
            };
            let dn = p.faults.corrupt_delay_noise(v, p.delay_noise_at(v, &env));
            debug_assert_eq!(set.len(), i, "admitted unions are disjoint-exact");
            cands.push(Candidate::try_new(set, env, dn)?);
            Ok(())
        };

        // 1. Extend I_{i-1} with one primary aggressor.
        for s in &lists[i - 1] {
            for atom in &primary_atoms {
                if s.set().intersects(&atom.set) {
                    continue;
                }
                admit(s.set().union(&atom.set), Some(s), atom, &mut cands)?;
            }
        }
        // 2 & 3. Pseudo and higher-order atoms of cardinality <= i,
        // standalone (j == 0) or combined with the best smaller sets.
        for atom in pseudo_atoms.iter().chain(&higher_atoms) {
            let c = atom.set.len();
            if c > i || c == 0 {
                continue;
            }
            let j = i - c;
            if j == 0 {
                admit(atom.set.clone(), None, atom, &mut cands)?;
            } else {
                for s in lists[j].iter().take(breadth) {
                    if s.set().intersects(&atom.set) {
                        continue;
                    }
                    admit(s.set().union(&atom.set), Some(s), atom, &mut cands)?;
                }
            }
        }

        let pruned = irredundant_with_discard(
            cands,
            iv,
            DominanceDirection::BiggerIsBetter,
            p.config.dominance_pruning,
            p.config.max_list_width,
            |c| arena::give_buf(c.into_envelope().reclaim_points()),
        );
        peak_list_width = peak_list_width.max(pruned.len());
        // Sort by delay noise so downstream consumers (pseudo atoms,
        // combos) can take the best few deterministically.
        let mut pruned = pruned;
        pruned.sort_by(|a, b| b.delay_noise().total_cmp(&a.delay_noise()));
        lists.push(pruned);
    }
    let curtailment = if truncated { Curtailment::Truncated } else { Curtailment::None };
    let counters = VictimCounters { peak_list_width, generated, curtailment };
    Ok(VictimLists { lists, counters })
}

/// Chooses the worst set from the sinks' I-lists (paper: "the top-k
/// aggressor set is the one in the I-list_k of the sink with the
/// worst-case delay noise"). Falls back to smaller cardinalities when no
/// sink has a full-k candidate.
///
/// Ranks borrowed references through an index sort and clones only the
/// `pool` winners' sets — the full cardinality × sink cross-product is
/// never materialized as owned options.
fn select_sink(
    p: &Prepared<'_>,
    k: usize,
    ilists: &[NetLists],
    totals: SweepTotals,
) -> EnumerationOutcome {
    let base_max = p.base.circuit_delay();
    let pool = p.config.validation_pool.max(1);
    // Candidates of every cardinality up to k are valid answers: a
    // smaller set never predicts better than the best exact-k set when
    // the lists are healthy, but at large k (beyond the useful aggressors
    // of a cone) the exact-k lists degrade and a lower-cardinality set
    // wins — taking the best across cardinalities keeps the result
    // monotone in k.
    let mut options: Vec<(f64, &Candidate, NetId)> = Vec::new();
    for card in (1..=k).rev() {
        for &o in p.circuit.primary_outputs() {
            let Some(list) = ilists[o.index()].get(card) else { continue };
            for cand in list {
                let predicted = base_max.max(p.base.timing(o).lat() + cand.delay_noise());
                options.push((predicted, cand, o));
            }
        }
    }
    // Stable index sort: equal predictions keep collection order, exactly
    // as sorting the owned options used to.
    let mut order: Vec<u32> = (0..options.len() as u32).collect();
    order.sort_by(|&a, &b| options[b as usize].0.total_cmp(&options[a as usize].0));
    let mut seen: HashSet<&CouplingSet> = HashSet::new();
    let mut deduped: Vec<SinkOption> = Vec::new();
    for &ix in &order {
        if deduped.len() >= pool {
            break;
        }
        let (predicted, cand, sink) = options[ix as usize];
        if !seen.insert(cand.set()) {
            continue;
        }
        deduped.push(SinkOption { set: cand.set().clone(), predicted_delay: predicted, sink });
    }
    if deduped.is_empty() {
        deduped.push(SinkOption {
            set: CouplingSet::new(),
            predicted_delay: base_max,
            sink: p.base.critical_output(),
        });
    }
    EnumerationOutcome { options: deduped, totals }
}
