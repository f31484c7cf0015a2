//! The top-k aggressors **elimination** set (paper §3.4).
//!
//! Starting from converged noisy timing, find the set of `k` couplings
//! whose removal (shielding/spacing) reduces the circuit delay the most.
//! The dual of the addition algorithm: every victim has a *total* noise
//! envelope (all primaries with their noisy windows plus the full fanin
//! shift as a pseudo envelope); candidates carry the **residual** envelope
//! left after subtracting what they eliminate, and dominance prefers
//! smaller residuals.
//!
//! Candidate admission mirrors the addition side's two-phase scheme (see
//! [`crate::enumeration`]): phase 1 stages events and replays the budget,
//! phase 2 culls on a sound residual delay-noise **lower** bound (the
//! single-point floor, [`Prepared::elimination_noise_floor`]) or
//! materializes through the scratch-arena subtraction kernel — f64-bit-
//! identical to the eager reference path in either case.

use std::collections::{HashMap, HashSet};

use dna_netlist::NetId;
use dna_waveform::Envelope;

use crate::addition::{EnumerationOutcome, SinkOption};
use crate::dominance::{irredundant_with_discard, DominanceDirection};
use crate::engine::{Curtailment, NetLists, Prepared, SweepTotals, VictimCounters, VictimLists};
use crate::enumeration::{
    DeferredPruneCertificate, PruneKind, RoundRank, ANCHOR_TRIES, CULL_MARGIN,
};
use crate::sched::Slots;
use crate::{arena, faultsim, Candidate, CouplingSet, TopKError};

/// Mirror of the addition-side combination breadth.
const COMBO_BREADTH: usize = 4;

/// How many ranked wideners get an *individual* higher-order atom (beyond
/// the cumulative prefix sets).
const WIDENER_POOL: usize = 4;

/// One removable atom: the couplings eliminated and the envelope their
/// elimination takes away from the victim's total.
struct RemovalAtom {
    set: CouplingSet,
    removal: Envelope,
}

/// Provenance of one staged residual candidate: where its member and atom
/// live, so phase 2 can materialize (or bound) it without phase 1 cloning
/// any envelope.
enum EvKind {
    /// `lists[i-1][member] ⊖ atoms[atom]` (single-coupling atom).
    Extend { member: usize, atom: usize },
    /// `total ⊖ atoms[atom]`, the atom's cardinality being exactly `i`.
    Standalone { atom: usize },
    /// `lists[j][member] ⊖` a multi-coupling atom of cardinality `i - j`.
    Combine { j: usize, member: usize, atom: usize },
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
    let Some(noisy) = p.noisy.as_ref() else {
        return Err(TopKError::Internal {
            what: "elimination selection reached without a converged noisy report".into(),
        });
    };
    let totals = VictimCounters::aggregate(counters);
    Ok(select_sink(p, k, noisy, ilists, totals))
}

/// Builds one victim's residual lists. Reads `ilists` only at the
/// victim's driver inputs (strict fanin), which the scheduler's
/// dependency edges guarantee are published.
fn victim_lists(
    p: &Prepared<'_>,
    k: usize,
    breadth: usize,
    v: NetId,
    ilists: &Slots,
    allowance: usize,
) -> Result<VictimLists, TopKError> {
    let circuit = p.circuit;
    let Some(noisy) = p.noisy.as_ref() else {
        return Err(TopKError::Internal {
            what: "elimination enumeration reached without a converged noisy report".into(),
        });
    };
    let vi = v.index();
    let iv = p.dominance_iv[vi];
    let mut peak_list_width = 0usize;
    let mut generated = 0usize;
    let mut raw_generated = 0usize;
    let mut truncated = false;
    let mut bound_culled = 0usize;
    let mut materialized = 0usize;

    // Same gate as the addition side: both cull rules prove "the eager
    // pipeline would drop this", so culling needs dominance pruning on,
    // the eager reference not forced, and this victim's delay-noise fault
    // hook disarmed (a culled event never computes a delay noise).
    let culling = p.config.dominance_pruning && !p.eager() && !faultsim::nan_victim_armed(v);

    // Fanin shift carried into this victim by upstream noise: the
    // noisy arrival minus the victim's own injected noise, relative to
    // the noiseless arrival.
    let d_fanin =
        (p.window_timings[vi].lat() - noisy.delay_noise(v) - p.base.timing(v).lat()).max(0.0);

    // Total envelope (all primaries, noisy windows, plus fanin shift).
    let primary_envs: Vec<Envelope> =
        p.primaries[vi].iter().map(|info| p.primary_envelope(v, info, 0.0)).collect();
    let pseudo_full = p.pseudo_envelope(v, d_fanin);
    let total = Envelope::sum_all(primary_envs.iter()).sum(&pseudo_full);

    // --- Removal atom pool -----------------------------------------
    let mut atoms: Vec<RemovalAtom> = Vec::new();
    // Primary eliminations. Zero-contribution primaries (envelope
    // clipped away from the victim's crossing) cannot help and are
    // dropped up front.
    for (info, env) in p.primaries[vi].iter().zip(&primary_envs) {
        if env.is_zero() {
            continue;
        }
        atoms
            .push(RemovalAtom { set: CouplingSet::singleton(info.coupling), removal: env.clone() });
    }
    // Higher-order eliminations: removing the j strongest wideners of
    // a primary's aggressor narrows that primary's noisy window.
    if p.config.higher_order && k >= 1 {
        for (info, env) in p.primaries[vi].iter().zip(&primary_envs) {
            let window_noise = (info.lat - p.base.timing(info.aggressor).lat()).max(0.0);
            if window_noise <= 0.0 || env.is_zero() {
                continue;
            }
            let wideners = p.wideners_of(info.aggressor);
            // Prefix sets: the j strongest wideners together.
            let mut set = CouplingSet::new();
            let mut delta = 0.0;
            for &(cc, dn) in wideners.iter().take(k) {
                let grown = set.with(cc);
                if grown.len() == set.len() {
                    continue;
                }
                set = grown;
                delta = (delta + dn).min(window_noise);
                let narrowed = p.primary_envelope(v, info, -delta);
                atoms.push(RemovalAtom {
                    set: set.clone(),
                    removal: p.primary_envelope(v, info, 0.0).saturating_sub(&narrowed),
                });
            }
            // Individual wideners: a lower-ranked widener can still be
            // the best *single* fix when the top one is spoken for.
            for &(cc, dn) in wideners.iter().take(WIDENER_POOL).skip(1) {
                let narrowed = p.primary_envelope(v, info, -dn.min(window_noise));
                atoms.push(RemovalAtom {
                    set: CouplingSet::singleton(cc),
                    removal: p.primary_envelope(v, info, 0.0).saturating_sub(&narrowed),
                });
            }
        }
    }
    // Pseudo eliminations: sets fixed upstream reduce the fanin shift.
    // Benefits are anchored at the *noisy* fanin arrivals — a fixed
    // input arrives `benefit` earlier than its converged noisy arrival,
    // where `benefit` is measured against the input's own I-list_0
    // (nothing fixed) so the empty fix maps exactly onto `d_fanin`.
    //
    // A coupling in the shared fanin cone benefits *several* inputs at
    // once (both its endpoints propagate), so candidates with the same
    // coupling set arriving through different inputs are grouped and
    // their fixed arrivals applied jointly; inputs that do not carry
    // the set keep their noisy arrivals.
    if p.config.pseudo_aggressors && d_fanin > 0.0 {
        if let (Some(noisy_arr), Some(base_arr)) = (p.fanin_arrivals(v), p.fanin_base_arrivals(v)) {
            let max_base = base_arr.iter().map(|&(_, a)| a).fold(f64::NEG_INFINITY, f64::max);
            // set -> per-input fixed arrival (noisy arrival if absent).
            let mut grouped: std::collections::HashMap<CouplingSet, Vec<f64>> =
                std::collections::HashMap::new();
            for (idx, &(u, arr_noisy_u)) in noisy_arr.iter().enumerate() {
                let arr_base_u = base_arr[idx].1;
                let Some(total_u) = ilists.lists(u)?.first() else { continue };
                let total_dn_u = total_u[0].delay_noise();
                // Scale envelope-estimated benefits to the converged
                // noise at u: the one-shot superposition overestimates
                // relative to the iterative fixpoint, and the ratio
                // maps "everything fixed" exactly onto the noiseless
                // arrival.
                let ratio = if total_dn_u > 1e-12 {
                    ((arr_noisy_u - arr_base_u) / total_dn_u).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                for c in 1..=k {
                    let Some(list) = ilists.lists(u)?.get(c) else { continue };
                    for cand in list.iter().take(breadth) {
                        // Residual noise at u after fixing this set.
                        let benefit = (total_dn_u - cand.delay_noise()).max(0.0) * ratio;
                        let arr_fixed = (arr_noisy_u - benefit).max(arr_base_u);
                        let entry = grouped
                            .entry(cand.set().clone())
                            .or_insert_with(|| noisy_arr.iter().map(|&(_, a)| a).collect());
                        entry[idx] = entry[idx].min(arr_fixed);
                    }
                }
            }
            // Drain in canonical set order: hash order would feed atoms
            // into candidate generation nondeterministically, and
            // `irredundant`'s keep-the-earlier tie rule would turn that
            // into run-to-run (and serial-vs-parallel) divergence.
            let mut grouped: Vec<(CouplingSet, Vec<f64>)> = grouped.into_iter().collect();
            grouped.sort_unstable_by(|a, b| a.0.ids().cmp(b.0.ids()));
            for (set, arrivals) in grouped {
                let joint = arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let d_after = (joint - max_base).max(0.0).min(d_fanin);
                if d_after >= d_fanin {
                    continue; // fixing this upstream set does not help v
                }
                let removal = pseudo_full.saturating_sub(&p.pseudo_envelope(v, d_after));
                atoms.push(RemovalAtom { set, removal });
            }
        }
    }

    // --- Iterative residual-list construction -----------------------
    let mut lists: Vec<Vec<Candidate>> = Vec::with_capacity(k + 1);
    // The baseline (nothing-fixed) candidate bypasses the budget: even a
    // zero allowance keeps the seed, so every downstream consumer still
    // has the victim's total envelope to anchor on.
    let total_dn = faultsim::corrupt_delay_noise(v, p.delay_noise_at(v, &total));
    lists.push(vec![Candidate::try_new(CouplingSet::new(), total.clone(), total_dn)?]);
    // The eager pre-truncation cap of `irredundant` — the boundary
    // between the exact and beam cull regimes.
    let cap = p.config.max_list_width.map_or(usize::MAX, |w| w.saturating_mul(4).max(64));
    let mut rank = RoundRank::new(false);

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

            // Extend I_{i-1} with one primary removal.
            for (m, s) in lists[i - 1].iter().enumerate() {
                for (ai, atom) in atoms.iter().enumerate() {
                    if atom.set.len() != 1 {
                        continue;
                    }
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
            // Atoms standalone (exact cardinality) or, for multi-coupling
            // atoms, combined with the best smaller sets. Single-coupling
            // extension is already covered above.
            for (ai, atom) in atoms.iter().enumerate() {
                let c = atom.set.len();
                if c > i || c == 0 {
                    continue;
                }
                let j = i - c;
                if j == 0 {
                    stage(atom.set.clone(), EvKind::Standalone { atom: ai }, &mut events);
                } else if c > 1 {
                    for (m, s) in lists[j].iter().take(breadth).enumerate() {
                        if s.set().intersects(&atom.set) {
                            continue;
                        }
                        stage(
                            s.set().union(&atom.set),
                            EvKind::Combine { j, member: m, atom: ai },
                            &mut events,
                        );
                    }
                }
            }
        }
        let n_events = events.len();

        // Cull regime for this round (see the addition-side twin for the
        // full rationale): exact regime — distinct-set count within the
        // eager pre-truncation cap — allows Dominated culls; otherwise
        // only BeamSqueezed culls are sound.
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
            let (member, atom): (Option<&Candidate>, &RemovalAtom) = match ev.kind {
                EvKind::Extend { member, atom } => (Some(&lists[i - 1][member]), &atoms[atom]),
                EvKind::Combine { j, member, atom } => (Some(&lists[j][member]), &atoms[atom]),
                EvKind::Standalone { atom } => (None, &atoms[atom]),
            };
            let member_env = member.map_or(&total, |m| m.envelope());

            if culling {
                // Sound *lower* bound on the residual's delay noise: the
                // single-point floor holds the member's peak against the
                // worst the removal could subtract there.
                let lb = p.elimination_noise_floor(v, member_env, &atom.removal);

                if exact_regime && mult_of[e] == 1 {
                    let mut tries = 0usize;
                    for &a in &anchors {
                        if tries >= ANCHOR_TRIES {
                            break;
                        }
                        let w = &cands[a];
                        // Negated on purpose: a NaN delay noise must
                        // reject the anchor, which `>` would admit.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if !(w.delay_noise() <= lb) {
                            continue;
                        }
                        tries += 1;
                        // member >= w + removal-box (+ margin) pointwise
                        // over the dominance interval forces the residual
                        // member ⊖ removal >= w pointwise: w dominates.
                        let dominates = member_env.as_pwl().ge_over_plus_box(
                            w.envelope().as_pwl(),
                            atom.removal.peak(),
                            atom.removal.support_lo(),
                            atom.removal.support_hi(),
                            iv,
                            CULL_MARGIN,
                        );
                        if dominates {
                            bound_culled += 1;
                            if p.captured.is_some() {
                                let env = member_env.saturating_sub(&atom.removal);
                                let dn = p.delay_noise_at(v, &env);
                                p.record(DeferredPruneCertificate {
                                    victim: v,
                                    cardinality: i,
                                    event: e,
                                    culled_set: ev.set.clone(),
                                    culled_bound: lb,
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
                } else if beam_regime && lb.is_finite() {
                    let stronger = rank.strictly_better_than(lb);
                    if stronger >= cap {
                        bound_culled += 1;
                        if p.captured.is_some() {
                            let env = member_env.saturating_sub(&atom.removal);
                            let dn = p.delay_noise_at(v, &env);
                            p.record(DeferredPruneCertificate {
                                victim: v,
                                cardinality: i,
                                event: e,
                                culled_set: ev.set.clone(),
                                culled_bound: lb,
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
            let env = member_env.saturating_sub_into(&atom.removal, arena::take_buf());
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
            DominanceDirection::SmallerIsBetter,
            p.config.dominance_pruning,
            p.config.max_list_width,
            |c| arena::give_buf(c.into_envelope().reclaim_points()),
        );
        peak_list_width = peak_list_width.max(pruned.len());
        let mut pruned = pruned;
        pruned.sort_by(|a, b| a.delay_noise().total_cmp(&b.delay_noise()));
        lists.push(pruned);
    }
    if std::env::var_os("DNA_DEBUG_ELIM").is_some() {
        let sizes: Vec<usize> = lists.iter().map(Vec::len).collect();
        eprintln!(
            "[elim] net {} d_fanin {:.2} total_dn {:.2} atoms [{}] lists {:?} I1 [{}]",
            circuit.net(v).name(),
            d_fanin,
            lists[0][0].delay_noise(),
            atoms
                .iter()
                .map(|a| format!("{}@{:.2}", a.set, a.removal.peak()))
                .collect::<Vec<_>>()
                .join(" "),
            sizes,
            lists
                .get(1)
                .map(|l| l
                    .iter()
                    .map(|c| format!("{}:{:.2}", c.set(), c.delay_noise()))
                    .collect::<Vec<_>>()
                    .join(" "))
                .unwrap_or_default()
        );
    }
    let curtailment = if truncated { Curtailment::Truncated } else { Curtailment::None };
    let counters =
        VictimCounters { peak_list_width, generated, bound_culled, materialized, curtailment };
    Ok(VictimLists { lists, counters })
}

/// Chooses the set minimizing the predicted circuit delay after
/// elimination.
///
/// The circuit delay is the max over primary outputs, so an elimination
/// budget of `k` must in general be *split* across outputs — fixing only
/// the currently critical path leaves the next output as the bottleneck.
/// A small knapsack-style DP assigns a budget to every output: for each
/// output the best candidate per budget is tabulated (anchored at the
/// output's converged noisy arrival), then budgets are allocated to
/// minimize the resulting max arrival. The union of the chosen sets can
/// have fewer than `k` couplings when extra fixes cannot help further.
fn select_sink(
    p: &Prepared<'_>,
    k: usize,
    noisy: &dna_noise::NoiseReport,
    ilists: &[NetLists],
    totals: SweepTotals,
) -> EnumerationOutcome {
    let outputs = p.circuit.primary_outputs();
    let noisy_lat = |o: NetId| noisy.noisy_timing().timing(o).lat();

    // Per output: best (delay-after, candidate) for each budget 0..=k.
    // Budget c may use any candidate of cardinality <= c. Benefits are
    // scaled to the converged noise at the output (see the pseudo-atom
    // construction above for the rationale).
    type Choice<'a> = (f64, Option<&'a Candidate>);
    let rows: Vec<(NetId, Vec<Choice<'_>>)> = outputs
        .iter()
        .map(|&o| {
            let lat_base = p.base.timing(o).lat();
            let total_dn = ilists[o.index()].first().map_or(0.0, |l| l[0].delay_noise());
            let ratio = if total_dn > 1e-12 {
                ((noisy_lat(o) - lat_base) / total_dn).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let mut best: Choice<'_> = (noisy_lat(o), None);
            let mut row = Vec::with_capacity(k + 1);
            row.push(best);
            for c in 1..=k {
                if let Some(list) = ilists[o.index()].get(c) {
                    for cand in list {
                        let benefit = (total_dn - cand.delay_noise()).max(0.0) * ratio;
                        let after = (noisy_lat(o) - benefit).max(lat_base);
                        if after < best.0 {
                            best = (after, Some(cand));
                        }
                    }
                }
                row.push(best);
            }
            (o, row)
        })
        .collect();

    // DP over outputs: state = budget spent, value = (max arrival so far,
    // chosen budget per processed output).
    let mut states: Vec<Option<(f64, Vec<usize>)>> = vec![None; k + 1];
    states[0] = Some((f64::NEG_INFINITY, Vec::new()));
    for (_, row) in &rows {
        let mut next: Vec<Option<(f64, Vec<usize>)>> = vec![None; k + 1];
        for (spent, state) in states.iter().enumerate() {
            let Some((worst, choices)) = state else { continue };
            for (c, &(after, _)) in row.iter().enumerate() {
                if spent + c > k {
                    break;
                }
                let new_worst = worst.max(after);
                let slot = &mut next[spent + c];
                if slot.as_ref().is_none_or(|(w, _)| new_worst < *w) {
                    let mut ch = choices.clone();
                    ch.push(c);
                    *slot = Some((new_worst, ch));
                }
            }
        }
        states = next;
    }

    // Turn DP states into ranked answer options: one per total budget
    // (different budgets trade marginal fixes for smaller sets), plus each
    // output's solo allocation for pool diversity.
    let materialize = |choices: &[usize]| {
        let mut set = CouplingSet::new();
        let mut sink = noisy.noisy_timing().critical_output();
        let mut sink_delay = f64::NEG_INFINITY;
        for ((o, row), &c) in rows.iter().zip(choices) {
            let (after, cand) = row[c];
            if let Some(cand) = cand {
                set = set.union(cand.set());
            }
            if after > sink_delay {
                sink_delay = after;
                sink = *o;
            }
        }
        (set, sink)
    };

    let mut options: Vec<SinkOption> = Vec::new();
    for state in states.iter().flatten() {
        let (set, sink) = materialize(&state.1);
        options.push(SinkOption { set, predicted_delay: state.0, sink });
    }
    for (i, (o, row)) in rows.iter().enumerate() {
        let (after, Some(cand)) = row[k] else { continue };
        let others = rows
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, (x, _))| noisy_lat(*x))
            .fold(f64::NEG_INFINITY, f64::max);
        options.push(SinkOption {
            set: cand.set().clone(),
            predicted_delay: after.max(others),
            sink: *o,
        });
    }

    options.sort_by(|a, b| a.predicted_delay.total_cmp(&b.predicted_delay));
    let pool = p.config.validation_pool.max(1);
    let mut seen: HashSet<CouplingSet> = HashSet::new();
    let mut deduped: Vec<SinkOption> = Vec::new();
    for opt in options {
        if deduped.len() >= pool {
            break;
        }
        // Clone the set only for kept winners (<= pool of them), not for
        // every ranked option.
        if seen.contains(&opt.set) {
            continue;
        }
        seen.insert(opt.set.clone());
        deduped.push(opt);
    }
    if deduped.is_empty() {
        deduped.push(SinkOption {
            set: CouplingSet::new(),
            predicted_delay: noisy.circuit_delay(),
            sink: noisy.noisy_timing().critical_output(),
        });
    }
    if std::env::var_os("DNA_DEBUG_ELIM").is_some() {
        for opt in &deduped {
            eprintln!("[elim] option {} predicted {:.2}", opt.set, opt.predicted_delay);
        }
    }
    EnumerationOutcome { options: deduped, totals }
}
