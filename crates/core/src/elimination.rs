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
//! Candidates are admitted, scored and ranked as on the addition side;
//! the score streams the residual's delay noise
//! ([`Envelope::saturating_sub_delay_noise`]), and only the ranking
//! survivors get their residual built, through the scratch-arena
//! subtraction kernel. A round that admits more records than the
//! ranking keeps scores them in the order of a lower bound read off each
//! member's [`CrossingProfile`] and stops once no unscored record can
//! make the cut ([`Scored::rank_bounded`], DESIGN §18.8).

use std::collections::HashSet;

use dna_netlist::NetId;
use dna_waveform::superposition::CrossingProfile;
use dna_waveform::Envelope;

use crate::addition::{EnumerationOutcome, SinkOption};
use crate::candidate::{checked_delay_noise, Scored};
use crate::dominance::{prune, DominanceDirection};
use crate::engine::{Curtailment, NetLists, Prepared, SweepTotals, VictimCounters, VictimLists};
use crate::sched::Slots;
use crate::{arena, Candidate, CouplingSet, TopKError};

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
    key: u64,
}

impl RemovalAtom {
    fn new(set: CouplingSet, removal: Envelope) -> Self {
        Self { key: set.key(), set, removal }
    }
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
    let Some(noisy) = p.noisy.as_ref() else {
        return Err(TopKError::Internal {
            what: "elimination enumeration reached without a converged noisy report".into(),
        });
    };
    let vi = v.index();
    let iv = p.dominance_iv[vi];
    let mut peak_list_width = 0usize;
    let mut generated = 0usize;
    let mut truncated = false;

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
        atoms.push(RemovalAtom::new(CouplingSet::singleton(info.coupling), env.clone()));
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
                let removal = env.saturating_sub(&narrowed);
                atoms.push(RemovalAtom::new(set.clone(), removal));
            }
            // Individual wideners: a lower-ranked widener can still be
            // the best *single* fix when the top one is spoken for.
            for &(cc, dn) in wideners.iter().take(WIDENER_POOL).skip(1) {
                let narrowed = p.primary_envelope(v, info, -dn.min(window_noise));
                let removal = env.saturating_sub(&narrowed);
                atoms.push(RemovalAtom::new(CouplingSet::singleton(cc), removal));
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
                atoms.push(RemovalAtom::new(set, removal));
            }
        }
    }

    // --- Iterative residual-list construction -----------------------
    let mut lists: Vec<Vec<Candidate>> = Vec::with_capacity(k + 1);
    let mut member_keys: Vec<Vec<u64>> = Vec::with_capacity(k + 1);
    // The baseline (nothing-fixed) candidate bypasses the budget: even a
    // zero allowance keeps the seed, so every downstream consumer still
    // has the victim's total envelope to anchor on.
    let total_dn = p.faults.corrupt_delay_noise(v, p.delay_noise_at(v, &total));
    lists.push(vec![Candidate::try_new(CouplingSet::new(), total.clone(), total_dn)?]);
    member_keys.push(vec![0]);
    let mut scored: Vec<Scored> = Vec::new();
    // Crossing profiles of the members, built the first time a wide
    // round bounds one of their records; `None` (the total) is `(0, 0)`.
    let victim = &p.victim_tr[vi];
    let mut profiles: Vec<Vec<Option<CrossingProfile>>> = vec![vec![None]];
    for i in 1..=k {
        scored.clear();
        // Admits `member ⊖ atom` (`total ⊖ atom` when `member` is `None`)
        // unless the budget is spent; `rank_bounded` scores it.
        let mut admit = |member: Option<(usize, usize)>, a: usize, scored: &mut Vec<Scored>| {
            if generated >= allowance {
                truncated = true;
                return;
            }
            generated += 1;
            let member_key = member.map_or(0, |(j, m)| member_keys[j][m]);
            let key = member_key.wrapping_add(atoms[a].key);
            let member = member.map(|(j, m)| (j as u32, m as u32));
            scored.push(Scored { dn: f64::NAN, key, member, atom: a as u32 });
        };

        // Extend I_{i-1} with one primary removal.
        for (m, s) in lists[i - 1].iter().enumerate() {
            for (a, atom) in atoms.iter().enumerate() {
                if atom.set.len() != 1 || s.set().intersects(&atom.set) {
                    continue;
                }
                admit(Some((i - 1, m)), a, &mut scored);
            }
        }
        // Atoms standalone (exact cardinality) or, for multi-coupling
        // atoms, combined with the best smaller sets. Single-coupling
        // extension is already covered above.
        for (a, atom) in atoms.iter().enumerate() {
            let c = atom.set.len();
            if c > i || c == 0 {
                continue;
            }
            let j = i - c;
            if j == 0 {
                admit(None, a, &mut scored);
            } else if c > 1 {
                for (m, s) in lists[j].iter().enumerate().take(breadth) {
                    if s.set().intersects(&atom.set) {
                        continue;
                    }
                    admit(Some((j, m)), a, &mut scored);
                }
            }
        }

        // Score and rank the records, then build only the survivors' sets
        // and residuals (through the scratch arena) for the dominance
        // pass. Nothing is built to score: the residual's delay noise is
        // streamed from the two operand envelopes.
        let direction = DominanceDirection::SmallerIsBetter;
        let beam = p.config.max_list_width;
        let bound = |s: &Scored| {
            let (j, m) = s.member_index().unwrap_or((0, 0));
            profiles[j][m]
                .get_or_insert_with(|| CrossingProfile::new(victim, lists[j][m].envelope()))
                .sub_delay_noise_bound(atoms[s.atom as usize].removal.peak())
        };
        let score = |s: &Scored| {
            let member_env = s.member_index().map_or(&total, |(j, m)| lists[j][m].envelope());
            let removal = &atoms[s.atom as usize].removal;
            let dn = p.saturating_sub_delay_noise_at(v, member_env, removal);
            checked_delay_noise(p.faults.corrupt_delay_noise(v, dn))
        };
        let order =
            Scored::rank_bounded(&mut scored, &lists, |a| &atoms[a].set, beam, bound, score)?;
        let ranked: Vec<Candidate> = order
            .iter()
            .map(|&r| {
                let s = &scored[r as usize];
                let atom = &atoms[s.atom as usize];
                let (set, member_env) = match s.member_index() {
                    None => (atom.set.clone(), &total),
                    Some((j, m)) => (lists[j][m].set().union(&atom.set), lists[j][m].envelope()),
                };
                debug_assert_eq!(set.len(), i, "admitted unions are disjoint-exact");
                let env = member_env.saturating_sub_into(&atom.removal, arena::take_buf());
                Candidate::new(set, env, s.dn)
            })
            .collect();
        let mut pruned = prune(ranked, iv, direction, p.config.dominance_pruning, beam, |c| {
            arena::give_buf(c.into_envelope().reclaim_points());
        });
        peak_list_width = peak_list_width.max(pruned.len());
        pruned.sort_by(|a, b| a.delay_noise().total_cmp(&b.delay_noise()));
        member_keys.push(pruned.iter().map(|c| c.set().key()).collect());
        profiles.push(vec![None; pruned.len()]);
        lists.push(pruned);
    }
    let curtailment = if truncated { Curtailment::Truncated } else { Curtailment::None };
    let counters = VictimCounters { peak_list_width, generated, curtailment };
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
    EnumerationOutcome { options: deduped, totals }
}
