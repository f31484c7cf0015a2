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
//! pruned by dominance (Theorem 1) after every step.
//!
//! Candidate admission is **two-phase** (see [`crate::enumeration`]):
//! phase 1 stages the round's events — provenance, union set and the
//! budget replay — without touching any PWL; phase 2 walks them in order
//! and either culls an event on a sound delay-noise upper bound (lazy
//! mode only; every cull is certificate-backed) or materializes its
//! envelope through the scratch-arena sum kernels. The surviving lists
//! are f64-bit-identical to the eager reference path (`DNA_ENUM_EAGER`).

use std::collections::{HashMap, HashSet};

use dna_netlist::NetId;
use dna_waveform::Envelope;

use crate::dominance::{irredundant_with_discard, DominanceDirection};
use crate::engine::{Curtailment, NetLists, Prepared, SweepTotals, VictimCounters, VictimLists};
use crate::enumeration::{
    DeferredPruneCertificate, PruneKind, RoundRank, ANCHOR_TRIES, CULL_MARGIN,
};
use crate::sched::Slots;
use crate::{arena, faultsim, Candidate, CouplingSet, TopKError};

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
/// victim, plus (lazy mode) the victim's hardened settle time under this
/// envelope alone — one half of every delay-noise upper bound the atom
/// participates in.
struct Atom {
    set: CouplingSet,
    envelope: Envelope,
    hard: f64,
}

/// Provenance of one staged candidate: where its member and atom live, so
/// phase 2 can materialize (or bound) it without phase 1 cloning any
/// envelope.
enum EvKind {
    /// `lists[i-1][member] ⊕ primary_atoms[atom]`.
    Extend { member: usize, atom: usize },
    /// A pseudo (`pool == 0`) or higher-order (`pool == 1`) atom of
    /// cardinality exactly `i`, standing alone.
    Standalone { pool: u8, atom: usize },
    /// `lists[j][member] ⊕` a pseudo/higher atom of cardinality `i - j`.
    Combine { j: usize, member: usize, pool: u8, atom: usize },
}

/// One budget-passing admission event of a round, staged by phase 1.
struct Event {
    kind: EvKind,
    set: CouplingSet,
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
/// slice of the global pool) bounds how many candidates the staging path
/// may admit; on breach the remaining events are dropped — dominance keeps
/// the strongest survivors of what exists, a sound lower bound — and the
/// victim is marked [`Curtailment::Truncated`] — which the L060 audit
/// cross-checks against the victim's pre-partitioned share. The budget is
/// replayed in phase 1, before any cull decision, so lazy and eager modes
/// truncate at the same raw event index.
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
    let mut raw_generated = 0usize;
    let mut truncated = false;
    let mut bound_culled = 0usize;
    let mut materialized = 0usize;

    // Bound-first culling needs dominance pruning on (both cull rules
    // prove "the eager pipeline would drop this"), the eager reference
    // not forced, and this victim's delay-noise fault hook disarmed — a
    // culled event never computes a delay noise, so a corruption the hook
    // wants observed must reach the materializing path.
    let culling = p.config.dominance_pruning && !p.eager() && !faultsim::nan_victim_armed(v);
    let t50 = p.victim_t50(v);
    let zero_env = Envelope::zero();
    let atom_hard =
        |env: &Envelope| if culling { p.hardened_settle(v, env) } else { f64::INFINITY };

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
            let hard = atom_hard(&envelope);
            Some(Atom { set: CouplingSet::singleton(info.coupling), envelope, hard })
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
                .map(|(set, shift)| {
                    let envelope = p.pseudo_envelope(v, shift);
                    let hard = atom_hard(&envelope);
                    Atom { set, envelope, hard }
                })
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
                let hard = atom_hard(&envelope);
                higher_atoms.push(Atom { set: set.clone(), envelope, hard });
            }
            // Individual wideners: primary plus one lower-ranked
            // widener, for sets where the top widener is spoken for.
            for &(cc, dn) in wideners.iter().take(WIDENER_POOL).skip(1) {
                let set = CouplingSet::singleton(info.coupling).with(cc);
                if set.len() == 2 {
                    let envelope = p.primary_envelope(v, info, dn.min(cap));
                    let hard = atom_hard(&envelope);
                    higher_atoms.push(Atom { set, envelope, hard });
                }
            }
        }
    }
    let pool_atom = |pool: u8, ai: usize| -> &Atom {
        if pool == 0 {
            &pseudo_atoms[ai]
        } else {
            &higher_atoms[ai]
        }
    };

    // --- Iterative list construction -------------------------------
    let mut lists: Vec<Vec<Candidate>> = Vec::with_capacity(k + 1);
    lists.push(vec![Candidate::new(CouplingSet::new(), Envelope::zero(), 0.0)]);
    // Hardened settle time of each list survivor (parallel to `lists`),
    // computed once per survivor instead of once per admission event.
    let mut hard_lists: Vec<Vec<f64>> = Vec::with_capacity(k + 1);
    hard_lists.push(vec![atom_hard(&zero_env)]);
    // The eager pre-truncation cap of `irredundant` — the boundary
    // between the exact and beam cull regimes.
    let cap = p.config.max_list_width.map_or(usize::MAX, |w| w.saturating_mul(4).max(64));
    let mut rank = RoundRank::new(true);

    for i in 1..=k {
        // --- Phase 1: stage the round's events (no PWL work) -------
        let mut events: Vec<Event> = Vec::new();
        {
            let mut stage = |set: CouplingSet, kind: EvKind, events: &mut Vec<Event>| {
                if raw_generated >= allowance {
                    truncated = true;
                    return;
                }
                raw_generated += 1;
                events.push(Event { kind, set });
            };

            // 1. Extend I_{i-1} with one primary aggressor.
            for (m, s) in lists[i - 1].iter().enumerate() {
                for (ai, atom) in primary_atoms.iter().enumerate() {
                    if s.set().intersects(&atom.set) {
                        continue;
                    }
                    stage(
                        s.set().union(&atom.set),
                        EvKind::Extend { member: m, atom: ai },
                        &mut events,
                    );
                }
            }
            // 2 & 3. Pseudo and higher-order atoms of cardinality <= i,
            // standalone (j == 0) or combined with the best smaller sets.
            for (pool, atoms) in [(0u8, &pseudo_atoms), (1u8, &higher_atoms)] {
                for (ai, atom) in atoms.iter().enumerate() {
                    let c = atom.set.len();
                    if c > i || c == 0 {
                        continue;
                    }
                    let j = i - c;
                    if j == 0 {
                        stage(atom.set.clone(), EvKind::Standalone { pool, atom: ai }, &mut events);
                    } else {
                        for (m, s) in lists[j].iter().take(breadth).enumerate() {
                            if s.set().intersects(&atom.set) {
                                continue;
                            }
                            stage(
                                s.set().union(&atom.set),
                                EvKind::Combine { j, member: m, pool, atom: ai },
                                &mut events,
                            );
                        }
                    }
                }
            }
        }
        let n_events = events.len();

        // Cull regime for this round. The **exact** regime (distinct-set
        // count within the eager pre-truncation cap, so that truncation
        // is provably a no-op) allows Dominated culls; bigger rounds fall
        // back to the **beam** regime, where only BeamSqueezed culls are
        // sound. The regimes are mutually exclusive per round: a
        // Dominated cull inside a truncating round could slide a later
        // candidate into the eager path's pre-truncation window that the
        // lazy path never saw.
        let (distinct, mult_of): (usize, Vec<u32>) = if culling {
            let mut mult: HashMap<&CouplingSet, u32> = HashMap::with_capacity(events.len());
            for ev in &events {
                *mult.entry(&ev.set).or_insert(0) += 1;
            }
            let distinct = mult.len();
            let mult_of = events.iter().map(|ev| mult[&ev.set]).collect();
            (distinct, mult_of)
        } else {
            (0, Vec::new())
        };
        let exact_regime = culling && distinct <= cap;
        let beam_regime = culling && !exact_regime;
        rank.clear();

        // --- Phase 2: bound-first admission, arena materialization --
        let mut cands: Vec<Candidate> = Vec::with_capacity(n_events);
        // Indices (into `cands`) of unique-set survivors usable as
        // dominance anchors in the exact regime.
        let mut anchors: Vec<usize> = Vec::new();
        'events: for (e, ev) in events.into_iter().enumerate() {
            let (member, atom): (Option<(&Candidate, f64)>, &Atom) = match ev.kind {
                EvKind::Extend { member, atom } => {
                    (Some((&lists[i - 1][member], hard_lists[i - 1][member])), &primary_atoms[atom])
                }
                EvKind::Combine { j, member, pool, atom } => {
                    (Some((&lists[j][member], hard_lists[j][member])), pool_atom(pool, atom))
                }
                EvKind::Standalone { pool, atom } => (None, pool_atom(pool, atom)),
            };

            if culling {
                // Sound upper bound on the candidate's delay noise from
                // cached settle times and supports alone: beyond
                // `max(hard_s, hi_a)` the member alone has settled and the
                // atom contributes nothing (and symmetrically), so the
                // noisy crossing cannot lie past either expression.
                let ub = match member {
                    None => (atom.hard - t50).max(0.0),
                    Some((m, m_hard)) => {
                        let lhs = m_hard.max(atom.envelope.support_hi());
                        let rhs = atom.hard.max(m.envelope().support_hi());
                        (lhs.min(rhs) - t50).max(0.0)
                    }
                };
                let member_env = member.map_or(&zero_env, |(m, _)| m.envelope());

                if exact_regime && mult_of[e] == 1 {
                    let mut tries = 0usize;
                    for &a in &anchors {
                        if tries >= ANCHOR_TRIES {
                            break;
                        }
                        let w = &cands[a];
                        // Negated on purpose: a NaN delay noise must
                        // reject the anchor, which `<` would admit.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if !(w.delay_noise() >= ub) {
                            continue;
                        }
                        tries += 1;
                        let dominates = w.envelope().as_pwl().ge_over_plus_box(
                            member_env.as_pwl(),
                            atom.envelope.peak(),
                            atom.envelope.support_lo(),
                            atom.envelope.support_hi(),
                            iv,
                            CULL_MARGIN,
                        );
                        if dominates {
                            bound_culled += 1;
                            if p.captured.is_some() {
                                let env = match member {
                                    None => atom.envelope.clone(),
                                    Some((m, _)) => m.envelope().sum(&atom.envelope),
                                };
                                let dn = p.delay_noise_at(v, &env);
                                p.record(DeferredPruneCertificate {
                                    victim: v,
                                    cardinality: i,
                                    event: e,
                                    culled_set: ev.set.clone(),
                                    culled_bound: ub,
                                    culled_envelope: env,
                                    culled_delay_noise: dn,
                                    kind: PruneKind::Dominated {
                                        anchor_set: w.set().clone(),
                                        anchor_delay_noise: w.delay_noise(),
                                        anchor_envelope: w.envelope().clone(),
                                    },
                                });
                            }
                            continue 'events;
                        }
                    }
                } else if beam_regime && ub.is_finite() {
                    let stronger = rank.strictly_better_than(ub);
                    if stronger >= cap {
                        bound_culled += 1;
                        if p.captured.is_some() {
                            let env = match member {
                                None => atom.envelope.clone(),
                                Some((m, _)) => m.envelope().sum(&atom.envelope),
                            };
                            let dn = p.delay_noise_at(v, &env);
                            p.record(DeferredPruneCertificate {
                                victim: v,
                                cardinality: i,
                                event: e,
                                culled_set: ev.set.clone(),
                                culled_bound: ub,
                                culled_envelope: env,
                                culled_delay_noise: dn,
                                kind: PruneKind::BeamSqueezed { stronger, cap },
                            });
                        }
                        continue 'events;
                    }
                }
            }

            // Materialize through the scratch arena.
            let env = match member {
                None => atom.envelope.clone_into(arena::take_buf()),
                Some((m, _)) => m.envelope().sum_into(&atom.envelope, arena::take_buf()),
            };
            let dn = faultsim::corrupt_delay_noise(v, p.delay_noise_at(v, &env));
            materialized += 1;
            if beam_regime {
                rank.admit(&ev.set, dn);
            } else if exact_regime && mult_of[e] == 1 {
                anchors.push(cands.len());
            }
            debug_assert_eq!(ev.set.len(), i, "staged unions are disjoint-exact");
            cands.push(Candidate::try_new(ev.set, env, dn)?);
        }

        generated += n_events;
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
        let hards = if culling {
            pruned.iter().map(|c| p.hardened_settle(v, c.envelope())).collect()
        } else {
            vec![f64::INFINITY; pruned.len()]
        };
        hard_lists.push(hards);
        lists.push(pruned);

        // Fault-sim hook for the L080 audit: fabricate a certificate for
        // a *surviving* set — a cull that demonstrably never happened —
        // so the audit's absence check has something real to catch.
        if i == 1 && p.captured.is_some() && faultsim::bogus_prune_certificate_armed(v) {
            if let Some(s) = lists[1].first() {
                p.record(DeferredPruneCertificate {
                    victim: v,
                    cardinality: 1,
                    event: 0,
                    culled_set: s.set().clone(),
                    culled_bound: s.delay_noise(),
                    culled_envelope: s.envelope().clone(),
                    culled_delay_noise: s.delay_noise(),
                    kind: PruneKind::Dominated {
                        anchor_set: s.set().clone(),
                        anchor_delay_noise: s.delay_noise(),
                        anchor_envelope: s.envelope().clone(),
                    },
                });
            }
        }
    }
    let curtailment = if truncated { Curtailment::Truncated } else { Curtailment::None };
    let counters =
        VictimCounters { peak_list_width, generated, bound_culled, materialized, curtailment };
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
